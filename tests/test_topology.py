"""Pointwise-partial topology: basic opens, convergence, isolation.

The membership logic for basic opens is cross-checked against literal
windowed enumeration throughout; certificates must survive both routes.
"""

import itertools
import random
from unittest import mock

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
    dyadic_disjoint_family,
    bound_example,
    named_family,
    random_uniform_family,
)
from invsemi.closure import GROUP_ENUM_CAP, decode_row, group_rows
from invsemi.descriptors import NATURALS
from invsemi.errors import WindowMismatchError
from invsemi.symbolic import (
    block_perm,
    empty_map,
    fin_map,
    partial_identity,
    sym_element,
    sym_graph,
)
from invsemi.topology import (
    BlockIdentitySeq,
    GroupNeighborSeq,
    GrowingExtensionSeq,
    SingletonIdentitySeq,
    _member_pools,
    isolated_inverse_check,
    low_rank_open_members,
    open_members,
)
from invsemi import topology
from conftest import (
    OVERLAP_BOUND,
    basic_open_check_by_rebuild,
    capped_rows,
    group_open_members,
    low_rank_open_members_by_scan,
    open_contains_by_descriptors,
    open_contains_map,
    overlapping_sym_element,
    project_to_window,
    random_basic_open_by_descriptors,
    random_sym_element,
    shared_identity_interior_probe_by_rebuild,
)

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


def _open_outcome(check, fields):
    try:
        out = check(*fields)
    except InvalidOpenError as e:
        return "rejected", str(e)
    if isinstance(out, BasicOpen):
        out = (out.positive, out.forbid_dom, out.forbid_im)
    return "accepted", out


def test_open_constructor_matches_the_rebuild_oracle():
    # small point ranges make clashes, repeats and negatives common, so
    # every check fires; the one-pass checks must agree with the oracle
    # on the verdict, the message and the normalized fields
    rng = random.Random(20261019)
    verdicts = set()
    for _ in range(4000):
        pairs = [(rng.randint(-1, 6), rng.randint(-1, 6)) for _ in range(rng.randint(0, 3))]
        fd = [rng.randint(-1, 6) for _ in range(rng.randint(0, 3))]
        fi = [rng.randint(-1, 6) for _ in range(rng.randint(0, 3))]
        fields = (tuple(pairs), tuple(fd), tuple(fi))
        got = _open_outcome(BasicOpen, fields)
        assert got == _open_outcome(basic_open_check_by_rebuild, fields), fields
        verdicts.add(got[0] if got[0] == "accepted" else got[1])
    assert len(verdicts) == 7  # accepted, and each of the six messages


def test_open_describe_and_config():
    v = BasicOpen(((1, 2),), (3,), (4,))
    assert v.describe() == "v(1,2) & w1(3) & w2(4)"
    assert BasicOpen((), (), ()).describe() == "full"
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


def test_open_contains_matches_the_descriptor_route():
    # forbidden points probed on the element against the route through
    # dom_set and im_set, on opens drawn around the element, around
    # another element and without a member, each also cut down to its
    # required pairs with only the forbidden domain or only the image
    rng = random.Random(20261020)
    elements = []
    for _ in range(60):
        k = rng.randint(0, 4)
        carrier = rng.choice([rng.sample(range(OVERLAP_BOUND), rng.randint(0, 5)),
                              EVENS, ODDS.without_points(rng.sample(range(1, 12, 2), 2))])
        elements += [overlapping_sym_element(rng),
                     fin_map(zip(rng.sample(range(OVERLAP_BOUND), k),
                                 rng.sample(range(OVERLAP_BOUND), k))),
                     partial_identity(carrier)]
    refused = {"both": 0, "domain": 0, "image": 0}  # by forbidden points alone
    for f in elements:
        for member in (f, rng.choice(elements), None):
            v = random_basic_open(rng, member=member, bound=OVERLAP_BOUND)
            pairs_hold = open_contains(BasicOpen(v.positive, (), ()), f)
            for side, u in (("both", v), ("domain", BasicOpen(v.positive, v.forbid_dom, ())),
                            ("image", BasicOpen(v.positive, (), v.forbid_im))):
                got = open_contains(u, f)
                assert got == open_contains_by_descriptors(u, f), (f, u.describe())
                refused[side] += pairs_hold and not got
    assert min(refused.values()) > 20, refused


def test_member_anchored_opens_contain_their_member():
    rng = random.Random(1)
    for _ in range(50):
        f = random_sym_element(rng)
        v = random_basic_open(rng, member=f)
        assert open_contains(v, f)


def test_member_anchored_opens_stay_below_the_bound():
    # a required pair whose target lies at or past the bound is never drawn
    rng = random.Random(20261018)
    f = fin_map([(1, 50), (2, 3)])
    for _ in range(20):
        v = random_basic_open(rng, member=f, bound=10)
        assert all(p < 10 for p in v.constraint_points()), v.describe()
        assert open_contains(v, f)


def test_windowed_membership_needs_the_constraints_visible():
    v = BasicOpen(((9, 9),), (), ())
    with pytest.raises(WindowMismatchError):
        open_contains_map(v, PartialBijection.of([], 4))


# -- convergence -----------------------------------------------------------


def test_block_identities_converge_to_the_shared_point_identity():
    rep = check_convergence(BlockIdentitySeq(COMMON_POINT_RULE), partial_identity([0]))
    assert rep.converges, rep.counterexample
    assert rep.points_checked >= 64


def test_singleton_identities_converge_to_the_empty_map():
    rep = check_convergence(SingletonIdentitySeq(), empty_map())
    assert rep.converges
    rep2 = check_convergence(SingletonIdentitySeq(common_point_block(0)), empty_map())
    assert rep2.converges
    # a point of the set leaves the domain after its own turn; any other
    # point never enters it
    seq = SingletonIdentitySeq(EVENS)
    assert [seq.eventual(x) for x in (3, 4, 5)] == [("out", 0), ("out", 3), ("out", 0)]


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


def test_group_neighbors_reject_bases_off_a_block_group():
    with pytest.raises(ValueError, match="base must be a block permutation or a block identity"):
        GroupNeighborSeq(fin_map([(1, 2)]))
    with pytest.raises(ValueError, match="base must live on an infinite block"):
        GroupNeighborSeq(partial_identity([1, 2]))


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


class _ConstantSeq:
    """A schema whose every element is `element` and whose stated
    eventual behaviour is `claim(x)`."""

    def __init__(self, element, claim):
        self._element, self._claim = element, claim

    def element(self, n):
        return self._element

    def eventual(self, x):
        return self._claim(x)


@pytest.mark.parametrize("schema, limit, clause, detail", [
    (BlockIdentitySeq(COMMON_POINT_RULE), empty_map(), "ii",
     "0 is outside the limit's domain but the sequence settles on mapping it "
     "to 0 from index 0 on"),
    (SingletonIdentitySeq(), fin_map([(0, 0)]), "i",
     "limit maps 0 to 0 but the sequence settles on leaving it undefined "
     "from index 1 on"),
    (_ConstantSeq(empty_map(), lambda x: ("in", 0, x)), empty_map(), "schema",
     "stated value at 0 from index 0 is not met by element 0"),
    (_ConstantSeq(partial_identity(NATURALS), lambda x: ("out", 0)), empty_map(), "schema",
     "element 0 still defines 0, against the stated exit at index 0"),
], ids=["clause-ii", "clause-i", "stated-value-unmet", "stated-exit-unmet"])
def test_convergence_reports_each_failure_at_point_zero(schema, limit, clause, detail):
    rep = check_convergence(schema, limit)
    assert not rep.converges
    assert rep.counterexample == (0, clause, detail)
    assert rep.witnesses == () and rep.points_checked == 1


def test_convergence_report_describes_success():
    rep = check_convergence(SingletonIdentitySeq(), empty_map(), horizon=20)
    assert rep.converges and rep.counterexample is None
    assert rep.points_checked == 20


# -- isolation in the infinite union --------------------------------------


def brute_members(v, rule, window):
    """Literal windowed scan: the empty map and every rank-one member."""
    out = []
    if all_ok(v, PartialBijection.of([], window)):
        out.append(("empty", None))
    for a in range(window):
        for b in range(window):
            if rule.member(fin_map([(a, b)])):
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
    for rule in (COMMON_POINT_RULE, DISJOINT_RULE):
        rng = random.Random(seed)
        with mock.patch.multiple(topology, MAX_PAIRS=2, MAX_FORBID=3):
            v = random_basic_open(rng, bound=10)
        rep = rule_open_members(v, rule)
        window = 12
        brute = brute_members(v, rule, window)
        assert rep.empty_member == (("empty", None) in brute)
        finite_brute = {p for kind, p in brute if kind == "fin"}
        logic_pairs = set()
        if rep.finite_member is not None:
            f = rep.finite_member
            d = f.pairs or tuple((x, x) for x in dom_set_points(f))
            logic_pairs.add(d[0])
        if not rep.extension_unbounded:
            assert logic_pairs == finite_brute
        else:
            assert logic_pairs <= finite_brute and len(finite_brute) > len(logic_pairs)
        # group qualification agrees with the factorial scan on low blocks;
        # blocks no constraint point touches are settled by the first of them
        relevant = {rule.owner(p) for p in v.constraint_points() if p >= 1}
        tail = rule.first_free_block(v.constraint_points()) in dict(rep.group_blocks)
        for m in range(3):
            block = rule.block(m)
            brute_hit = any(all_ok(v, g) for g in windowed_group(block, 10))
            logic_hit = any(i == m for i, _ in rep.group_blocks) or (
                tail and m not in relevant
            )
            assert logic_hit == brute_hit, (rule.name, v.describe(), m)


def test_rank_one_certificates_are_singletons():
    for a, b in ((1, 0), (0, 1), (1, 2), (3, 5), (2, 4)):
        f = fin_map([(a, b)])
        check = verify_rank_one_certificate(f, windows=(12, 20))
        assert check.logic_singleton
        assert all(ok for _, ok in check.windowed_ok)
        assert check.ok


def scan_below(hits, window):
    """The hits whose points all lie below the window, in order."""
    return [g for g in hits if all(max(p) < window for p in sym_graph(g))]


def test_widest_window_scan_serves_every_window():
    windows = (3, 5, 12, 20)
    for a, b in ((1, 0), (0, 1), (1, 2), (3, 5), (2, 4)):
        f = fin_map([(a, b)])
        check = verify_rank_one_certificate(f, windows)
        widest = low_rank_open_members(check.certificate, COMMON_POINT_RULE, 20)
        for w, ok in check.windowed_ok:
            hits = low_rank_open_members(check.certificate, COMMON_POINT_RULE, w)
            assert scan_below(widest, w) == hits, (a, b, w)
            assert ok == (hits == [f]), (a, b, w)
    rng = random.Random(20261018)
    for _ in range(40):
        rule = rng.choice((COMMON_POINT_RULE, DISJOINT_RULE))
        f = fin_map([tuple(rng.sample(range(16), 2))])
        v = random_basic_open(rng, member=f, bound=16)
        widest = low_rank_open_members(v, rule, 20)
        for w in windows:
            assert scan_below(widest, w) == low_rank_open_members(v, rule, w), (
                rule.name, v.describe(), w)


def test_low_rank_scan_matches_the_slow_scan():
    # the pruned scan against the build-everything scan at every window
    # from 1 to 28, the README's widest: the canonical certificates,
    # opens drawn around rank-one maps and without a member, and opens
    # with 0 to 3 required pairs, where two or more pairs conflict for a
    # rank-one map
    cases = [(COMMON_POINT_RULE, rank_one_certificate(a, b))
             for a, b in ((1, 0), (0, 1), (1, 2))]
    rng = random.Random(20261019)
    for _ in range(12):
        rule = rng.choice((COMMON_POINT_RULE, DISJOINT_RULE))
        f = fin_map([tuple(rng.sample(range(12), 2))])
        cases.append((rule, random_basic_open(rng, member=f, bound=12)))
        cases.append((rule, random_basic_open(rng, bound=12)))
    for npairs in range(4):
        for rule in (COMMON_POINT_RULE, DISJOINT_RULE):
            pairs = zip(rng.sample(range(8), npairs), rng.sample(range(8), npairs))
            cases.append((rule, BasicOpen(tuple(pairs), (), ())))
    for rule in (COMMON_POINT_RULE, DISJOINT_RULE):
        cases.append((rule, BasicOpen((), (2, 5), (0, 3))))
        cases.append((rule, BasicOpen(((1, 0), (3, 2)), (), ())))
    assert any(len(v.positive) >= 2 for _, v in cases)
    assert any(len(low_rank_open_members(v, rule, 20)) > 1 for rule, v in cases)
    for rule, v in cases:
        for w in range(1, 29):
            assert low_rank_open_members(v, rule, w) == \
                low_rank_open_members_by_scan(v, rule, w), (rule.name, v.describe(), w)


MEMBER_KINDS = {
    "finite map": fin_map([(1, 50), (2, 3), (7, 0), (9, 12)]),
    "finite partial identity": partial_identity([0]),
    "partial identity": partial_identity(EVENS),
    "block permutation": block_perm(EVENS, [(0, 4), (4, 0), (6, 70), (70, 6)]),
    "idplus": sym_element(ODDS.without_points([1, 3, 5]), [(1, 2), (3, 40), (5, 8)]),
}


# the draws without a member ride along as one more case
DRAW_ANCHORS = {**MEMBER_KINDS, "no member": None}


@pytest.mark.parametrize("bound", [10, 16, 64])
@pytest.mark.parametrize("kind", sorted(DRAW_ANCHORS))
def test_member_anchored_draws_are_pinned(kind, bound):
    # same seeds, same opens and the same generator state afterwards as
    # the draws that read the member through descriptors
    member = DRAW_ANCHORS[kind]
    for seed in range(20):
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert random_basic_open(fast, member=member, bound=bound) == \
                random_basic_open_by_descriptors(slow, member=member, bound=bound)
        assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("kind", sorted(MEMBER_KINDS))
def test_member_pools_are_tuples_built_once(kind):
    # a probe's draws share one set of pools, and no draw can change them
    member = MEMBER_KINDS[kind]
    _member_pools.cache_clear()
    pools = _member_pools(member, 64)
    assert all(type(pool) is tuple for pool in pools)
    with pytest.raises(TypeError):
        pools[1][0] = -1
    before = tuple(tuple(pool) for pool in pools)
    rng = random.Random(3)
    for _ in range(50):
        v = random_basic_open(rng, member=member, bound=64)
        assert set(v.positive) <= set(pools[0])
        assert open_contains(v, member)
    assert _member_pools(member, 64) is pools and pools == before
    info = _member_pools.cache_info()
    assert (info.misses, info.hits) == (1, 51)


def test_interior_probes_with_one_seed_draw_the_same_opens():
    # a cold pool cache and a warm one hand the generator the same pools
    _member_pools.cache_clear()
    cold = shared_identity_interior_probe(trials=100, seed=7)
    warm = shared_identity_interior_probe(trials=100, seed=7)
    assert cold == warm and len(cold.escapes) == 100
    assert shared_identity_interior_probe(trials=100, seed=8).escapes != cold.escapes


def test_interior_probe_matches_the_rebuilding_probe():
    # one witness per first free block gives the escapes and the verdict
    # of a probe that rebuilds the witness on every trial
    blocks = set()
    for seed in range(20):
        rep = shared_identity_interior_probe(trials=100, seed=seed)
        assert rep == shared_identity_interior_probe_by_rebuild(trials=100, seed=seed), seed
        blocks |= {text for _, text in rep.escapes}
    assert len(blocks) > 1


def test_certificate_shape_for_anchored_pairs():
    # when neither endpoint is the shared point, forbidding it suffices
    v = rank_one_certificate(1, 2)
    assert v.positive == ((1, 2),)
    assert v.forbid_dom == (0,)
    # a pair touching the shared point needs a point of the other block
    v2 = rank_one_certificate(1, 0)
    assert v2.positive == ((1, 0),)
    assert len(v2.forbid_dom) == 1 and v2.forbid_dom[0] in common_point_block(0)
    with pytest.raises(ValueError):
        rank_one_certificate(0, 0)
    with pytest.raises(ValueError, match="outside every block"):
        rank_one_certificate(-1, 2)


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


def test_family_isolation_refuses_non_members_and_limit_points():
    fam = bound_example()
    for f in (fin_map([(0, 3), (6, 9), (12, 15)]),  # rank 3 is past the bound
              block_perm(SetDescriptor.residue_class(0, 2), [(0, 2), (2, 0)])):  # no block
        assert family_isolation(f, fam, 2).isolated is None
    with pytest.raises(ValueError, match="element is not isolated; nothing to verify"):
        verify_family_certificate(partial_identity(fam.blocks[0]), fam, 2)
    with pytest.raises(ValueError, match="element is not isolated; nothing to verify"):
        verify_rank_one_certificate(partial_identity([0]))
    # the open without constraints admits every member, so none is its sole one
    assert open_members(BasicOpen(), enumerate(fam.blocks), 2).sole_member() is None


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


def spare_window(family, start):
    """The least window from `start` on at which every block has two
    points of its own (in no other block) below it, with the two largest
    such points of each block.  Opens kept off these spare points leave
    every qualifying group and every unbounded extension at least two
    members inside the window."""
    for w in itertools.count(start):
        own = [
            [x for x in blk.below(w) if sum(x in b for b in family.blocks) == 1]
            for blk in family.blocks
        ]
        if all(len(o) >= 2 for o in own):
            return w, {x for o in own for x in o[-2:]}


def off_spare(v, spare):
    """The open with every constraint on a spare point dropped."""
    return BasicOpen(
        tuple(p for p in v.positive if not set(p) & spare),
        tuple(x for x in v.forbid_dom if x not in spare),
        tuple(x for x in v.forbid_im if x not in spare),
    )


def test_family_accounting_against_windowed_rows():
    rng = random.Random(20261018)
    # the least windows from 11 on leave usable points besides the spare
    # ones; bound2's overlap {16, 17} needs 18
    cases = [(named_family(spec), start) for spec, start in (
        ("common-point:2", 11), ("disjoint:2", 11), ("unequal", 11),
        ("five-ring", 11), ("bound2", 18))]
    for _ in range(4):
        family, _, window = random_uniform_family(rng)
        cases.append((family, window))
    for family, start in cases:
        w, spare = spare_window(family, start)
        assert all(len(b.below(w)) <= GROUP_ENUM_CAP for b in family.blocks)
        b = len(family.blocks)
        for bound in range(3):
            maps = [decode_row(r, w) for r in capped_rows(family, w, [[bound] * b] * b)]
            groups = [
                {decode_row(r, w) for r in group_rows(blk, w)} for blk in family.blocks
            ]
            for _ in range(16):
                row = [p for p in rng.choice(maps).pairs if not set(p) & spare]
                anchor = fin_map(row) if rng.random() < 0.7 else None
                with mock.patch.object(topology, "MAX_PAIRS", 2):
                    v = off_spare(random_basic_open(rng, anchor, bound=w), spare)
                rep = open_members(v, enumerate(family.blocks), bound)
                hits = [f for f in maps if open_contains_map(v, f)]
                where = (family.name, bound, v.describe())
                assert rep.empty_member == (PartialBijection.of([], w) in hits), where
                pos = PartialBijection.of(v.positive, w)
                finite = [f for f in hits if 0 < len(f.pairs) <= bound]
                if rep.finite_member is None:
                    assert not v.positive or pos not in finite, where
                else:
                    assert project_to_window(rep.finite_member, w) == pos, where
                    assert pos in finite, where
                assert rep.extension_unbounded == any(
                    len(f.pairs) > len(pos.pairs) for f in finite), where
                hit_set = set(hits)
                assert {i for i, _ in rep.group_blocks} == {
                    i for i, g in enumerate(groups) if g & hit_set}, where
                for _, g in rep.group_blocks:
                    assert project_to_window(g, w) in hit_set, where
                assert rep.is_singleton() == (len(hits) == 1), where
                if rep.is_singleton():
                    assert hits == [project_to_window(rep.sole_member(), w)], where
