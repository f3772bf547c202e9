"""Block families: overlap bookkeeping, chain capacity, factorization.

Capacity values have two independent routes: the chain search and a
literal walk enumeration.  Tests pin hand-checked
matrices for the catalog examples and then require the two routes to
agree on randomized families.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from invsemi import (
    BlockFamily,
    ChainCertificate,
    InvalidFamilyError,
    NotGeneratedError,
    SetDescriptor,
    chain_capacity_by_enumeration,
    chain_capacity_matrix,
    chain_certificates,
    classify,
    factorize,
    find_chain,
    fin_map,
    is_generated,
    partial_identity,
    stratum_options,
    verify_chain,
    verify_factorization,
)
from invsemi.catalog import (
    bound_example,
    common_point_family,
    dyadic_disjoint_family,
    five_block_example,
    marker_family,
    named_family,
    random_uniform_family,
    unequal_example,
    violating_family,
)
from invsemi.errors import ParseError
from invsemi.symbolic import compose_chain, format_sym, parse_sym

from conftest import chain_capacity_by_literal_walk, is_generated_by_capacity, project_to_window


def test_family_validation():
    evens = SetDescriptor.residue_class(0, 2)
    mult4 = SetDescriptor.residue_class(0, 4)
    with pytest.raises(ValueError):
        BlockFamily((evens, mult4))  # infinite overlap
    with pytest.raises(ValueError):
        BlockFamily((evens,))  # need at least two blocks
    with pytest.raises(ValueError):
        BlockFamily((evens, evens))
    with pytest.raises(ValueError):
        BlockFamily((evens, SetDescriptor.from_points([1, 3])))  # finite block
    # a package error, so the CLI reports it as bad input
    with pytest.raises(InvalidFamilyError, match="overlap infinitely"):
        BlockFamily((evens, mult4))


def test_family_config_round_trip():
    fam = five_block_example()
    again = BlockFamily.from_config(fam.to_config())
    assert again.blocks == fam.blocks and again.name == fam.name
    bad = {
        "blocks": [
            SetDescriptor.residue_class(0, 2).to_config(),
            SetDescriptor.residue_class(0, 4).to_config(),
        ]
    }
    with pytest.raises(ValueError, match="overlap infinitely"):
        BlockFamily.from_config(bad)


@pytest.mark.parametrize("extra, message", [
    ({"nmae": "x"}, "unknown family config keys: \\['nmae'\\]"),
    ({"name": "x", "block": []}, "unknown family config keys: \\['block'\\]"),
    ({"name": 5}, "name must be a string"),
    ({"name": None}, "name must be a string"),
])
def test_family_config_rejects_unknown_keys_and_odd_names(extra, message):
    cfg = {"blocks": five_block_example().to_config()["blocks"], **extra}
    with pytest.raises(ParseError, match=message):
        BlockFamily.from_config(cfg)


def test_intersection_matrix():
    fam = unequal_example()
    assert fam.intersection_matrix() == [
        [None, 2, 1],
        [2, None, 1],
        [1, 1, None],
    ]
    assert dyadic_disjoint_family(4).intersection_matrix()[0][3] == 0


# -- chain capacity -----------------------------------------------------


def test_capacity_hand_checked_values():
    # ring overlaps 0-1:3, 1-2:1, 2-3:3, 3-4:2, 4-0:2; between blocks 1
    # and 2 the long way around the ring beats the direct edge
    assert chain_capacity_matrix(five_block_example()) == [
        [3, 3, 2, 2, 2],
        [3, 3, 2, 2, 2],
        [2, 2, 3, 3, 2],
        [2, 2, 3, 3, 2],
        [2, 2, 2, 2, 2],
    ]
    assert chain_capacity_matrix(unequal_example()) == [
        [2, 2, 1],
        [2, 2, 1],
        [1, 1, 1],
    ]
    assert chain_capacity_matrix(dyadic_disjoint_family(3)) == [
        [0, 0, 0],
        [0, 0, 0],
        [0, 0, 0],
    ]
    assert chain_capacity_matrix(common_point_family(4)) == [[1] * 4 for _ in range(4)]
    assert chain_capacity_matrix(bound_example()) == [[2, 2], [2, 2]]


def test_capacity_diagonal_uses_a_detour():
    # the self capacity must route through some other block
    fam = marker_family(3, {(0, 1): 2, (1, 2): 5}, name="lopsided")
    p = chain_capacity_matrix(fam)
    assert p[0][0] == 2  # best exit from block 0
    assert p[1][1] == 5
    assert p[2][2] == 5
    assert p[0][2] == 2


CATALOG = [
    dyadic_disjoint_family(3),
    dyadic_disjoint_family(5),
    common_point_family(3),
    common_point_family(6),
    unequal_example(),
    bound_example(),
    five_block_example(),
    marker_family(4, {(0, 1): 1, (1, 2): 2, (2, 3): 3, (0, 3): 1}, name="path4"),
    marker_family(2, {(0, 1): 4}, name="pair4"),
]


def _overlap_by_membership(x, y):
    # past the largest patch point both blocks are periodic, so a finite
    # overlap lies below that point plus the lcm of the two moduli
    top = max(x.add + x.remove + y.add + y.remove + (0,))
    limit = top + 1 + math.lcm(x.modulus, y.modulus)
    return sum(1 for p in range(limit) if x.member(p) and y.member(p))


OVERLAP_FAMILIES = CATALOG + [
    random_uniform_family(random.Random(seed))[0] for seed in range(8)
] + [violating_family(random.Random(seed), seed % 3) for seed in range(8)]


@pytest.mark.parametrize("fam", OVERLAP_FAMILIES, ids=lambda f: f.name)
def test_stored_meets_match_fresh_intersections(fam):
    b = len(fam.blocks)
    for i in range(b):
        for j in range(b):
            if i != j:
                assert fam.meet(i, j) == fam.blocks[i].intersect(fam.blocks[j])
    assert fam.intersection_matrix() == [
        [None if i == j else _overlap_by_membership(fam.blocks[i], fam.blocks[j])
         for j in range(b)]
        for i in range(b)
    ]
    renamed = BlockFamily(fam.blocks, name=fam.name + "-renamed")
    assert renamed == fam and hash(renamed) == hash(fam)
    assert renamed.intersection_matrix() == fam.intersection_matrix()


@pytest.mark.parametrize("fam", CATALOG, ids=lambda f: f.name)
def test_capacity_routes_agree_on_catalog(fam):
    assert chain_capacity_matrix(fam) == chain_capacity_by_enumeration(fam)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_capacity_routes_agree_on_random_families(seed):
    rng = random.Random(seed)
    fam, _, _ = random_uniform_family(rng)
    assert chain_capacity_matrix(fam) == chain_capacity_by_enumeration(fam)


def assert_walks_agree(fam):
    """The state walk equals the literal walk at every interior limit
    from 1 to b + 1, and at the default, which is b + 1."""
    b = len(fam.blocks)
    for m in range(1, b + 2):
        literal = chain_capacity_by_literal_walk(fam, m)
        assert chain_capacity_by_enumeration(fam, m) == literal, (fam.name, m)
    assert chain_capacity_by_enumeration(fam) == literal, fam.name


@pytest.mark.parametrize("fam", CATALOG, ids=lambda f: f.name)
def test_state_walk_matches_literal_walk_on_catalog(fam):
    assert_walks_agree(fam)


def test_state_walk_matches_literal_walk_on_random_families():
    rng = random.Random(20261018)
    for _ in range(12):
        assert_walks_agree(random_uniform_family(rng)[0])
        assert_walks_agree(violating_family(rng, rng.randint(0, 2)))
    # uneven overlaps make many bottleneck values; on the last family a
    # walk that skips a state seen before at a greater depth loses chains
    # at max_interior 2 and 3
    for _ in range(40):
        b = rng.randint(2, 5)
        weights = {(i, j): rng.randint(0, 4) for i in range(b) for j in range(i + 1, b)}
        assert_walks_agree(marker_family(b, weights, name=f"markers {weights}"))
    assert_walks_agree(marker_family(
        5, {(0, 1): 3, (0, 3): 3, (1, 2): 1, (1, 3): 4, (2, 3): 2, (2, 4): 4, (3, 4): 4},
        name="depth-sensitive"))


def test_chain_certificates_exist_at_capacity():
    for fam in (five_block_example(), unequal_example(), common_point_family(3)):
        p = chain_capacity_matrix(fam)
        for i in range(len(fam.blocks)):
            for j in range(len(fam.blocks)):
                if p[i][j] == 0:
                    continue
                cert = find_chain(fam, i, j, p[i][j])
                assert cert is not None
                assert verify_chain(fam, cert)
                # no slack: one more point is unreachable
                assert find_chain(fam, i, j, p[i][j] + 1) is None


def test_chain_certificates_are_the_widest_chains():
    # each entry's m is the walk oracle's capacity, its chain checks out,
    # and no larger overlap size admits a chain
    rng = random.Random(20261020)
    fams = CATALOG + [random_uniform_family(rng)[0] for _ in range(20)]
    fams += [violating_family(rng, rng.randint(0, 2)) for _ in range(20)]
    for _ in range(120):
        b = rng.randint(2, 6)
        fams.append(marker_family(b, {(i, j): rng.randint(0, 4)
                                      for i in range(b) for j in range(i + 1, b)}))
    for fam in fams:
        b = len(fam.blocks)
        sizes = {fam.intersection_size(i, j) for i in range(b) for j in range(i)}
        certs = chain_certificates(fam)
        capacity = [[cert.m for cert in row] for row in certs]
        assert chain_capacity_matrix(fam) == capacity
        assert capacity == chain_capacity_by_enumeration(fam), fam.name
        for i, row in enumerate(certs):
            for j, cert in enumerate(row):
                assert (cert.i, cert.j) == (i, j) and verify_chain(fam, cert), (fam.name, cert)
                assert all(find_chain(fam, cert.i, cert.j, m) is None
                           for m in sizes if m > cert.m), (fam.name, cert)


def test_verify_chain_rejects_bad_certificates():
    fam = five_block_example()  # b = 5 blocks; B0 and B1 share 3 points
    for cert in (
        ChainCertificate(1, 2, (1, 2), 2),
        ChainCertificate(0, 0, (0,), 1),  # no detour
        ChainCertificate(2, 2, (2, 3), 1),  # diagonal chain that starts at i
        ChainCertificate(0, 5, (5,), 1),  # block index past b
        ChainCertificate(0, 1, (), 1),  # empty interior
        ChainCertificate(0, 1, (7, 1), 1),  # interior block past b
        ChainCertificate(0, 1, (1,), 4),  # m above the overlap
        ChainCertificate(0, 1, (1,), -1),  # negative m
    ):
        assert not verify_chain(fam, cert), cert
    assert verify_chain(fam, ChainCertificate(0, 1, (1,), 3))
    good = find_chain(fam, 1, 2, 2)
    assert good.interior and verify_chain(fam, good)


def test_verify_factorization_rejects_broken_factor_lists():
    fam = bound_example()
    f = parse_sym("fin(0->3, 16->17)")
    factors = factorize(f, fam)
    assert verify_factorization(f, factors, fam)
    for k in range(len(factors)):  # a lost factor no longer recomposes to f
        assert not verify_factorization(f, factors[:k] + factors[k + 1:], fam), k
    # the identity on f's points keeps the product but lies in no block group
    outside = partial_identity([0, 3, 16, 17])
    assert compose_chain(factors + [outside]) == f
    assert classify(outside, fam.blocks).kind != "group"
    assert not verify_factorization(f, factors + [outside], fam)


# -- strata and generation ----------------------------------------------


def test_stratum_options_and_generation():
    fam = common_point_family(3)
    f = fin_map([(5, 6)])  # 5 in block 0, 6 in block 1
    assert stratum_options(f, fam) == [(0, 1)]
    assert is_generated(f, fam)
    shared = fin_map([(0, 0)])
    assert stratum_options(shared, fam) == [(i, j) for i in range(3) for j in range(3)]
    two = fin_map([(1, 3), (5, 7)])  # rank 2 beats every chain
    assert stratum_options(two, fam) == [(0, 0)]
    assert not is_generated(two, fam)
    assert is_generated(partial_identity(fam.blocks[2]), fam)
    assert is_generated(fin_map([]), fam)
    assert not is_generated(partial_identity(SetDescriptor.residue_class(0, 2)), fam)


def test_generation_by_chain_search_matches_the_capacity_matrix():
    # catalog, random-uniform, violating and marker families with 1- to
    # 4-point maps drawn from block points, a fifth of them with one image
    # moved to 41; factorize refuses exactly the maps the oracle says are
    # not generated
    rng = random.Random(20261020)
    fams = CATALOG + [random_uniform_family(rng)[0] for _ in range(8)]
    fams += [violating_family(rng, rng.randint(0, 2)) for _ in range(8)]
    for _ in range(8):
        b = rng.randint(2, 5)
        fams.append(marker_family(b, {(i, j): rng.randint(0, 4)
                                      for i in range(b) for j in range(i + 1, b)}))
    verdicts = set()
    for fam in fams:
        pts = [blk.first_members(10) for blk in fam.blocks]
        for _ in range(30):
            k = rng.randint(1, 4)
            dom = rng.sample(rng.choice(pts), k)
            img = rng.sample(rng.choice(pts), k)
            if rng.random() < 0.2 and 41 not in img:
                img[0] = 41
            f = fin_map(zip(dom, img))
            want = is_generated_by_capacity(f, fam)
            assert is_generated(f, fam) is want, (fam.name, format_sym(f))
            if want:
                assert verify_factorization(f, factorize(f, fam), fam), (fam.name, format_sym(f))
            else:
                with pytest.raises(NotGeneratedError):
                    factorize(f, fam)
            verdicts.add(want)
    assert verdicts == {True, False}


# -- factorization -------------------------------------------------------


def assert_good_factors(f, factors, fam):
    assert verify_factorization(f, factors, fam)
    assert compose_chain(factors) == f
    for g in factors:
        tag = classify(g, fam.blocks)
        assert tag.kind == "group"
    data = [v for g in list(factors) + [f] for p in g.pairs for v in p]
    w = max(data, default=0) + 1
    lhs = project_to_window(f, w)
    rhs = compose_chain_windowed(factors, w)
    assert lhs == rhs


def compose_chain_windowed(factors, w):
    rows = [project_to_window(g, w) for g in factors]
    out = rows[0]
    for r in rows[1:]:
        out = out.compose(r)
    return out


def test_two_factor_route():
    fam = bound_example()
    # domain pinned to block 0, image to block 1, rank equals the overlap
    f = fin_map([(0, 3), (16, 17)])
    assert stratum_options(f, fam) == [(0, 1)]
    factors = factorize(f, fam)
    assert len(factors) == 2
    assert_good_factors(f, factors, fam)


def test_overlap_swap_factors_through_one_block():
    fam = bound_example()
    f = fin_map([(16, 17), (17, 16)])  # fits every stratum pair
    factors = factorize(f, fam)
    assert_good_factors(f, factors, fam)


def test_identity_descent_route():
    fam = bound_example()
    f = fin_map([(16, 16)])  # rank 1 below the overlap 2
    factors = factorize(f, fam)
    assert_good_factors(f, factors, fam)


def test_chain_route_uses_interior_blocks():
    fam = five_block_example()
    # rank 2 from block 1 to block 2: direct overlap is 1, the ring
    # detour through blocks 0 and 4 carries it
    b1, b2 = fam.blocks[1], fam.blocks[2]
    d = [x for x in b1.first_members(6) if x not in fam.blocks[0]]
    r = [y for y in b2.first_members(6) if y not in fam.blocks[3]]
    f = fin_map([(d[0], r[0]), (d[1], r[1])])
    assert stratum_options(f, fam) == [(1, 2)]
    factors = factorize(f, fam)
    assert len(factors) >= 4
    assert_good_factors(f, factors, fam)


def test_same_block_route():
    fam = common_point_family(3)
    f = fin_map([(1, 3)])  # both endpooints in block 0
    assert (0, 0) in stratum_options(f, fam)
    factors = factorize(f, fam)
    assert_good_factors(f, factors, fam)


def test_empty_map_routes():
    disjoint = dyadic_disjoint_family(3)
    touching = common_point_family(3)
    for fam in (disjoint, touching):
        factors = factorize(fin_map([]), fam)
        assert len(factors) in (2, 3)
        assert_good_factors(fin_map([]), factors, fam)


# The factor lists of every route, rightmost acting first, pinned byte
# for byte as format_sym writes them.
FACTOR_PINS = [
    # rank 2 fills bound2's overlap: the direct route (0, 1)
    ("bound2", "fin(0->3, 16->17)",
     ["perm(B1; 3->16, 16->3)", "perm(B0; 0->16, 16->17, 17->0)"]),
    # rank 1 below the overlap, one stratum (0, 1): one descent round,
    # then the direct route
    ("bound2", "fin(0->3)",
     ["perm(B1; 3->16, 16->3)", "id(B0)", "perm(B1; 9->17, 17->9)",
      "perm(B0; 0->16, 6->17, 16->0, 17->6)"]),
    # inside the overlap, so stratum (0, 0) comes first: the chain (0, 1, 0)
    ("bound2", "fin(16->16)", ["id(B0)", "perm(B1; 3->17, 17->3)", "id(B0)"]),
    ("bound2", "fin(16->17, 17->16)", ["perm(B0; 16->17, 17->16)", "id(B1)", "id(B0)"]),
    # the ring detour of test_chain_route_uses_interior_blocks
    ("five-ring", "fin(1->2, 8->9)",
     ["perm(B2; 2->26, 9->27, 26->2, 27->9)", "perm(B3; 26->34, 27->40, 34->26, 40->27)",
      "perm(B4; 13->34, 19->40, 34->13, 40->19)",
      "perm(B0; 0->5, 5->13, 6->19, 12->0, 13->6, 19->12)",
      "perm(B1; 1->5, 5->1, 6->8, 8->6)"]),
    # a single block: the chain (0, 1, 0)
    ("common-point:3", "fin(1->3)", ["perm(B0; 0->3, 3->0)", "id(B1)", "perm(B0; 0->1, 1->0)"]),
    ("disjoint:3", "empty", ["id(B0)", "id(B1)"]),
    ("common-point:3", "empty", ["id(B1)", "perm(B0; 0->1, 1->0)", "id(B1)"]),
]


@pytest.mark.parametrize("spec, element, pinned", FACTOR_PINS)
def test_factor_routes_are_pinned(spec, element, pinned):
    fam = named_family(spec)
    f = parse_sym(element, fam.blocks)
    factors = factorize(f, fam)
    assert [format_sym(g, fam.blocks) for g in factors] == pinned
    assert_good_factors(f, factors, fam)


def test_group_elements_factor_trivially():
    fam = common_point_family(3)
    g = partial_identity(fam.blocks[1])
    assert factorize(g, fam) == [g]


def test_factorize_refuses_ungenerated_elements():
    fam = dyadic_disjoint_family(3)
    with pytest.raises(NotGeneratedError):
        factorize(fin_map([(1, 2)]), fam)
    fam2 = common_point_family(3)
    with pytest.raises(NotGeneratedError):
        factorize(fin_map([(1, 3), (5, 7)]), fam2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_factorization_recomposes_on_random_generated_maps(seed):
    rng = random.Random(seed)
    fam, bound, _ = random_uniform_family(rng)
    if bound == 0:
        f = fin_map([])
    else:
        i = rng.randrange(len(fam.blocks))
        j = rng.randrange(len(fam.blocks))
        k = rng.randint(1, bound)
        dom = rng.sample(fam.blocks[i].first_members(3 * bound), k)
        img = rng.sample(fam.blocks[j].first_members(3 * bound), k)
        f = fin_map(zip(sorted(dom), img))
    factors = factorize(f, fam)
    assert verify_factorization(f, factors, fam)
    assert compose_chain(factors) == f
