import random

import pytest
from hypothesis import given, settings, strategies as st

from invsemi import SetDescriptor, UnsupportedFamilyError, fin_map, partial_identity
from invsemi.catalog import (
    COMMON_POINT_RULE,
    DISJOINT_RULE,
    BlockRule,
    common_point_block,
    dyadic_block,
    dyadic_owner,
    named_family,
    random_uniform_family,
    violating_family,
)
from invsemi.symbolic import (
    BlockPerm,
    block_perm,
    dom_set,
    empty_map,
    format_sym,
    im_set,
    is_empty_sym,
    sym_compose,
)

from conftest import (
    SYM_POOL_POINT_BOUND,
    evens,
    odds,
    overlapping_sym_element,
    random_block_permutation,
    random_sym_element,
    sym_element_pool,
)


def test_dyadic_blocks_partition_the_positives():
    seen = {}
    for n in range(6):
        for x in dyadic_block(n).below(64):
            assert x not in seen
            seen[x] = n
            assert dyadic_owner(x) == n
    assert sorted(seen) == list(range(1, 64))
    assert evens().intersect(odds()).is_empty()


def test_common_point_blocks_share_only_zero():
    for i in range(4):
        for j in range(i + 1, 4):
            both = common_point_block(i).intersect(common_point_block(j))
            assert both.points() == (0,)


def test_rule_membership():
    rule = COMMON_POINT_RULE
    b0 = common_point_block(0)
    assert rule.member(empty_map())
    assert rule.member(fin_map([(3, 8)]))
    assert rule.member(fin_map([(0, 0)]))
    assert not rule.member(fin_map([(1, 3), (5, 7)]))  # rank 2
    assert rule.member(partial_identity(b0))
    assert rule.member(block_perm(b0, [(1, 3), (3, 1)]))
    assert not rule.member(partial_identity(evens()))
    # the disjoint variant has no rank-one members at all
    assert DISJOINT_RULE.member(empty_map())
    assert not DISJOINT_RULE.member(fin_map([(1, 3)]))
    assert not DISJOINT_RULE.member(fin_map([(0, 0)]))  # 0 uncovered
    assert DISJOINT_RULE.member(partial_identity(dyadic_block(1)))


def test_rule_block_lookup():
    assert COMMON_POINT_RULE.block_index_of(common_point_block(2)) == 2
    assert COMMON_POINT_RULE.block_index_of(evens()) is None
    assert COMMON_POINT_RULE.block_index_of(SetDescriptor.from_points([1, 2])) is None
    assert DISJOINT_RULE.block_index_of(dyadic_block(0)) == 0
    assert COMMON_POINT_RULE.covers(0) and not DISJOINT_RULE.covers(0)
    assert COMMON_POINT_RULE.first_free_block([0, 1, 2, 5]) == 2
    assert DISJOINT_RULE.first_free_block([4, 12]) == 0


def test_rule_rank_bound_is_the_block_overlap():
    # a rank bound set above the overlap let `rule_isolation` certify
    # 1 -> 2 by v(1,2) & w1(0), whose open holds the member 1 -> 2, 3 -> 4
    with pytest.raises(TypeError):
        BlockRule("r2", shared_zero=True, rank_bound=2)
    for rule in (COMMON_POINT_RULE, DISJOINT_RULE):
        meet = rule.block(0).intersect(rule.block(1))
        assert rule.rank_bound == len(meet.points())


def test_named_family_lookup():
    assert len(named_family("common-point:4").blocks) == 4
    assert named_family("five-ring").name == "five-ring"
    with pytest.raises(UnsupportedFamilyError):
        named_family("no-such-family")
    with pytest.raises(UnsupportedFamilyError):
        named_family("five-ring:3")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_uniform_families_are_uniform(seed):
    rng = random.Random(seed)
    fam, bound, window = random_uniform_family(rng)
    blocks = fam.blocks
    assert 2 <= len(blocks) <= 4
    assert bound in (0, 1, 2)
    assert window <= 24
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            assert fam.intersection_size(i, j) == bound
    for b in blocks:
        # headroom: enough visible points to emulate fresh choices
        assert len(b.below(window)) >= bound + 2


def test_random_uniform_family_lets_unexpected_errors_through(monkeypatch):
    from invsemi import closure

    def broken(family, rank_matrix):
        raise RuntimeError("internal failure")

    monkeypatch.setattr(closure, "minimal_window", broken)
    with pytest.raises(RuntimeError, match="internal failure"):
        random_uniform_family(random.Random(1))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_violating_families_overshoot_the_bound(seed, bound):
    fam = violating_family(random.Random(seed), bound)
    sizes = [
        fam.intersection_size(i, j)
        for i in range(len(fam.blocks))
        for j in range(i + 1, len(fam.blocks))
    ]
    assert max(sizes) > bound


def test_pool_stays_inside_the_window_guarantee():
    for block in sym_element_pool():
        assert block.is_infinite()
    rng = random.Random(7)
    for _ in range(200):
        f = random_sym_element(rng)
        assert all(
            v < SYM_POOL_POINT_BOUND for p in f.pairs for v in p
        )
        g = random_sym_element(rng)
        sym_compose(f, g)


def rank_and_cover_member(rule, f):
    """Rule membership by building the domain and image descriptors."""
    if is_empty_sym(f):
        return True
    if isinstance(f, BlockPerm):
        return rule.block_index_of(f.block) is not None
    if f.base.is_infinite():
        return not f.pairs and rule.block_index_of(f.base) is not None
    if len(f.base.points()) + len(f.pairs) > rule.rank_bound:
        return False
    return all(rule.covers(x) for x in dom_set(f).points() + im_set(f).points())


def test_rule_membership_matches_rank_and_cover():
    rng = random.Random(11)
    elements = [fin_map([(a, b)]) for a in range(12) for b in range(12)]
    for _ in range(300):
        elements += [random_sym_element(rng), overlapping_sym_element(rng)]
    for rule in (COMMON_POINT_RULE, DISJOINT_RULE):
        for f in elements:
            assert rule.member(f) == rank_and_cover_member(rule, f), format_sym(f)


def test_random_block_permutation_lands_in_the_block():
    rng = random.Random(3)
    b = common_point_block(1)
    for _ in range(20):
        f = random_block_permutation(rng, b, 16)
        if f == partial_identity(b):
            continue
        assert f.block == b
        for s, t in f.pairs:
            assert s in b and t in b and s < 16 and t < 16
