"""Pointwise-partial topology: basic opens, convergence, isolation.

The membership logic for basic opens is cross-checked against literal
windowed enumeration throughout; certificates must survive both routes.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from invsemi import (
    BasicOpen,
    InvalidOpenError,
    PartialBijection,
    SetDescriptor,
    check_convergence,
    family_isolation,
    open_contains,
    project_to_window,
    random_basic_open,
    rank_one_certificate,
    rule_isolation,
    rule_open_members,
    shared_identity_interior_probe,
    verify_family_certificate,
    verify_rank_one_certificate,
)
from invsemi.catalog import (
    COMMON_POINT_RULE,
    DISJOINT_RULE,
    common_point_block,
    common_point_family,
    dyadic_disjoint_family,
    bound_example,
    random_sym_element,
)
from invsemi.errors import WindowMismatchError
from invsemi.symbolic import (
    block_perm,
    empty_map,
    fin_map,
    partial_identity,
    sym_compose,
    sym_inverse,
)
from invsemi.topology import (
    BlockIdentitySeq,
    GroupNeighborSeq,
    GrowingExtensionSeq,
    SingletonIdentitySeq,
    isolated_inverse_check,
    low_rank_open_members,
)
from conftest import group_open_members, open_contains_map

EVENS = SetDescriptor.residue_class(0, 2)
ODDS = SetDescriptor.residue_class(1, 2)


# -- basic opens ---------------------------------------------------------


def test_open_normalization_and_validation():
    v = BasicOpen(((3, 1), (0, 2)), (5, 4), (9,))
    assert v.positive == ((0, 2), (3, 1))
    assert v.forbid_dom == (4, 5)
    with pytest.raises(InvalidOpenError):
        BasicOpen(((0, 1), (0, 2)), (), ())  # two images for 0
    with pytest.raises(InvalidOpenError):
        BasicOpen(((0, 1), (2, 1)), (), ())
    with pytest.raises(InvalidOpenError):
        BasicOpen(((0, 1),), (0,), ())  # 0 both required and forbidden
    with pytest.raises(InvalidOpenError):
        BasicOpen(((0, 1),), (), (1,))
    with pytest.raises(InvalidOpenError):
        BasicOpen((), (2, 2), ())
    with pytest.raises(InvalidOpenError):
        BasicOpen(((-1, 0),), (), ())


def test_open_describe_and_config():
    v = BasicOpen(((1, 2),), (3,), (4,))
    assert v.describe() == "v(1,2) & w1(3) & w2(4)"
    assert BasicOpen((), (), ()).describe() == "full"
    assert BasicOpen.from_config(v.to_config()) == v
    assert set(v.constraint_points()) == {1, 2, 3, 4}


def test_open_membership():
    v = BasicOpen(((1, 3),), (2,), (5,))
    assert open_contains(v, fin_map([(1, 3)]))
    assert not open_contains(v, partial_identity(ODDS))  # 1 maps to 1
    assert not open_contains(v, fin_map([(1, 3), (2, 4)]))  # 2 in domain
    assert not open_contains(v, fin_map([(1, 3), (7, 5)]))  # 5 in image
    # a block permutation carries its whole block as domain and image
    swap = block_perm(ODDS, [(1, 3), (3, 1)])
    assert open_contains(BasicOpen(((1, 3),), (2,), (4,)), swap)
    assert not open_contains(v, swap)  # forbidden image 5 is odd
    assert open_contains(BasicOpen((), (), ()), empty_map())


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_membership_agrees_with_windowed_projection(seed):
    rng = random.Random(seed)
    f = random_sym_element(rng)
    v = random_basic_open(rng, member=f if rng.random() < 0.5 else None, bound=16)
    w = 32
    assert open_contains(v, f) == open_contains_map(v, project_to_window(f, w))


def test_member_anchored_opens_contain_their_member():
    rng = random.Random(1)
    for _ in range(50):
        f = random_sym_element(rng)
        v = random_basic_open(rng, member=f)
        assert open_contains(v, f)


def test_windowed_membership_needs_the_constraints_visible():
    v = BasicOpen(((9, 9),), (), ())
    with pytest.raises(WindowMismatchError):
        open_contains_map(v, PartialBijection.empty(4))


# -- convergence -----------------------------------------------------------


def test_block_identities_converge_to_the_shared_point_identity():
    rep = check_convergence(BlockIdentitySeq(COMMON_POINT_RULE), partial_identity([0]))
    assert rep.converges, rep.describe()
    assert rep.points_checked >= 64


def test_singleton_identities_converge_to_the_empty_map():
    rep = check_convergence(SingletonIdentitySeq(), empty_map())
    assert rep.converges
    rep2 = check_convergence(SingletonIdentitySeq(common_point_block(0)), empty_map())
    assert rep2.converges


def test_block_identities_do_not_converge_to_the_empty_map():
    rep = check_convergence(BlockIdentitySeq(COMMON_POINT_RULE), empty_map())
    assert not rep.converges
    x, clause, detail = rep.counterexample
    assert x == 0 and clause == "ii"
    assert "0" in detail


def test_disjoint_block_identities_converge_to_the_empty_map():
    rep = check_convergence(BlockIdentitySeq(DISJOINT_RULE), empty_map())
    assert rep.converges


def test_growing_extensions_converge_to_their_base():
    base = fin_map([(1, 5), (3, 3)])
    seq = GrowingExtensionSeq(base, ODDS, ODDS)
    rep = check_convergence(seq, base)
    assert rep.converges
    # every approximant is strictly bigger than the base
    for n in range(5):
        el = seq.element(n)
        assert len(el.pairs) + len(dom_set_points(el)) >= 1
        assert el != base


def dom_set_points(el):
    from invsemi.symbolic import dom_set

    d = dom_set(el)
    return d.points() if not d.is_infinite() else ()


def test_growing_extension_rejects_bad_pools():
    with pytest.raises(ValueError):
        GrowingExtensionSeq(fin_map([(1, 2)]), SetDescriptor.from_points([1]), ODDS)
    with pytest.raises(ValueError):
        GrowingExtensionSeq(partial_identity(ODDS), ODDS, ODDS)


def test_group_neighbors_converge_to_their_base():
    base = block_perm(common_point_block(0), [(1, 3), (3, 1)])
    seq = GroupNeighborSeq(base)
    rep = check_convergence(seq, base)
    assert rep.converges
    seen = {seq.element(n) for n in range(6)}
    assert len(seen) == 6 and base not in seen


def test_convergence_catches_wrong_limits():
    rep = check_convergence(SingletonIdentitySeq(), partial_identity([0]))
    assert not rep.converges
    assert rep.counterexample[1] in ("i", "schema")


# -- isolation in the infinite union --------------------------------------


def brute_members(v, window):
    """Literal windowed scan: every rank-one map plus the low blocks."""
    rule = COMMON_POINT_RULE
    out = []
    if all_ok(v, PartialBijection.empty(window)):
        out.append(("empty", None))
    for a in range(window):
        for b in range(window):
            if rule.covers(a) and rule.covers(b):
                f = PartialBijection.of([(a, b)], window)
                if all_ok(v, f):
                    out.append(("fin", (a, b)))
    return out


def all_ok(v, fmap):
    try:
        return open_contains_map(v, fmap)
    except WindowMismatchError:
        return False


def windowed_group(block, window):
    pts = block.below(window)
    for img in itertools.permutations(pts):
        yield PartialBijection.of(zip(pts, img), window)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_open_member_logic_against_brute_force(seed):
    rng = random.Random(seed)
    v = random_basic_open(rng, max_pairs=2, max_forbid=3, bound=10)
    rep = rule_open_members(v, COMMON_POINT_RULE)
    window = 12
    brute = brute_members(v, window)
    assert rep.empty_member == (("empty", None) in brute)
    finite_brute = {p for kind, p in brute if kind == "fin"}
    logic_pairs = set()
    for f in rep.rank_one:
        d = f.pairs or tuple((x, x) for x in dom_set_points(f))
        logic_pairs.add(d[0])
    if not rep.rank_one_infinite:
        assert logic_pairs == finite_brute
    else:
        assert logic_pairs <= finite_brute and len(finite_brute) > len(logic_pairs)
    # group qualification agrees with the factorial scan on low blocks;
    # blocks no constraint point touches are settled by the tail flag
    from invsemi.catalog import dyadic_owner

    relevant = {dyadic_owner(p) for p in v.constraint_points() if p >= 1}
    for m in range(3):
        block = common_point_block(m)
        brute_hit = any(all_ok(v, g) for g in windowed_group(block, 10))
        logic_hit = any(i == m for i, _ in rep.group_blocks) or (
            rep.group_tail_infinite and m not in relevant
        )
        assert logic_hit == brute_hit, (v.describe(), m)


def test_rank_one_certificates_are_singletons():
    for a, b in ((1, 0), (0, 1), (1, 2), (3, 5), (2, 4)):
        f = fin_map([(a, b)])
        check = verify_rank_one_certificate(f, COMMON_POINT_RULE, windows=(12, 20))
        assert check.logic_singleton
        assert all(ok for _, ok in check.windowed_ok)
        assert check.ok


def test_certificate_shape_for_anchored_pairs():
    # when neither endpoint is the shared point, forbidding it suffices
    v = rank_one_certificate(1, 2, COMMON_POINT_RULE)
    assert v.positive == ((1, 2),)
    assert v.forbid_dom == (0,)
    # a pair touching the shared point needs a point of the other block
    v2 = rank_one_certificate(1, 0, COMMON_POINT_RULE)
    assert v2.positive == ((1, 0),)
    assert len(v2.forbid_dom) == 1 and v2.forbid_dom[0] in common_point_block(0)
    with pytest.raises(ValueError):
        rank_one_certificate(0, 0, COMMON_POINT_RULE)


def test_rule_isolation_verdicts():
    u = fin_map([(1, 2)])
    verdict = rule_isolation(u, COMMON_POINT_RULE)
    assert verdict.isolated and verdict.certificate is not None

    shared = fin_map([(0, 0)])
    v2 = rule_isolation(shared, COMMON_POINT_RULE)
    assert v2.isolated is False and v2.schema is not None
    rep = check_convergence(v2.schema, shared)
    assert rep.converges

    v3 = rule_isolation(empty_map(), COMMON_POINT_RULE)
    assert v3.isolated is False
    assert check_convergence(v3.schema, empty_map()).converges

    g = partial_identity(common_point_block(1))
    v4 = rule_isolation(g, COMMON_POINT_RULE)
    assert v4.isolated is False
    assert check_convergence(v4.schema, g).converges

    outsider = partial_identity(EVENS)
    assert rule_isolation(outsider, COMMON_POINT_RULE).isolated is None


def test_empty_map_is_not_isolated_in_the_disjoint_union():
    v = rule_isolation(empty_map(), DISJOINT_RULE)
    assert v.isolated is False
    assert check_convergence(v.schema, empty_map()).converges


def test_interior_probe_escapes_every_sampled_open():
    rep = shared_identity_interior_probe(trials=20, seed=9)
    assert rep.product_is_sole
    assert rep.product_member == partial_identity([0])
    assert rep.all_escaped and len(rep.escapes) == 20
    descriptions = {d for d, _ in rep.escapes}
    assert len(descriptions) > 1  # genuinely different opens


def test_inverse_products_collapse_at_the_shared_point():
    # maps out of the shared point: the idempotent u^-1 u is the
    # identity on {0}, which every block identity approaches
    elements = [fin_map([(0, 1)]), fin_map([(0, 4)])]
    for verdict in isolated_inverse_check(elements):
        assert verdict.element_isolated and verdict.inverse_isolated
        assert verdict.product == partial_identity([0])
        assert verdict.product_isolated is False
        assert verdict.product_schema is not None

    # away from the shared point the product is isolated like anything else
    (away,) = isolated_inverse_check([fin_map([(3, 5)])])
    assert away.product == partial_identity([3])
    assert away.product_isolated is True


def test_group_scan_budget():
    from invsemi.errors import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        group_open_members(BasicOpen((), (), ()), COMMON_POINT_RULE, 28, 0)


# -- isolation in a finite bounded family ----------------------------------


def test_family_isolation_at_the_bound():
    fam = bound_example()
    f = fin_map([(16, 17), (17, 16)])
    verdict = family_isolation(f, fam, 2)
    assert verdict.isolated
    ok, rep = verify_family_certificate(f, fam, 2)
    assert ok and rep.is_singleton() and rep.sole_member() == f


def test_family_isolation_below_the_bound():
    fam = bound_example()
    f = fin_map([(16, 16)])
    verdict = family_isolation(f, fam, 2)
    assert verdict.isolated is False
    assert verdict.schema.name == "growing-extensions"
    assert check_convergence(verdict.schema, f).converges


def test_family_empty_map_isolated_only_without_rank_one_members():
    disjoint = dyadic_disjoint_family(3)
    v0 = family_isolation(empty_map(), disjoint, 0)
    assert v0.isolated
    ok, rep = verify_family_certificate(empty_map(), disjoint, 0)
    assert ok and rep.sole_member() == empty_map()

    fam = bound_example()
    v1 = family_isolation(empty_map(), fam, 2)
    assert v1.isolated is False
    assert check_convergence(v1.schema, empty_map()).converges


def test_family_group_members_are_never_isolated():
    fam = bound_example()
    g = partial_identity(fam.blocks[0])
    verdict = family_isolation(g, fam, 2)
    assert verdict.isolated is False
    assert verdict.schema.name == "group-neighbors"
    assert check_convergence(verdict.schema, g).converges
