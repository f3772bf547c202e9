"""Set descriptor algebra checked against explicit point sets."""

import pytest
from hypothesis import given, settings, strategies as st

from invsemi import SetDescriptor
from invsemi.descriptors import EMPTY, NATURALS

PROBE = 150  # membership is eventually periodic, small horizon suffices


def points_below(d, bound=PROBE):
    return {x for x in range(bound) if x in d}


descriptors = st.builds(
    SetDescriptor.build,
    add=st.sets(st.integers(0, 40), max_size=4),
    remove=st.sets(st.integers(0, 40), max_size=4),
    modulus=st.integers(1, 12),
    residues=st.sets(st.integers(0, 11), max_size=4),
)


def test_basic_membership():
    evens = SetDescriptor.residue_class(0, 2)
    assert points_below(evens, 10) == {0, 2, 4, 6, 8}
    patched = SetDescriptor.build(add=[3], remove=[4], modulus=2, residues=[0])
    assert points_below(patched, 10) == {0, 2, 3, 6, 8}
    assert EMPTY.is_empty() and not EMPTY.is_infinite()
    assert NATURALS.is_infinite()
    assert points_below(SetDescriptor.from_points([5, 1, 5]), 10) == {1, 5}


def test_constructor_insists_on_canonical_data():
    with pytest.raises(ValueError):
        SetDescriptor(add=(2, 1), modulus=1, residues=())
    with pytest.raises(ValueError):
        SetDescriptor(modulus=4, residues=(0, 2))  # period 2 in disguise
    with pytest.raises(ValueError):
        SetDescriptor(add=(2,), modulus=2, residues=(0,))  # 2 already on tail
    with pytest.raises(ValueError):
        SetDescriptor(remove=(1,), modulus=2, residues=(0,))


def test_build_canonicalizes():
    assert SetDescriptor.build(modulus=4, residues=[1, 3]) == SetDescriptor.build(
        modulus=2, residues=[1]
    )
    # added points beat removed points, on-tail adds are dropped
    d = SetDescriptor.build(add=[0, 7], remove=[0, 2], modulus=2, residues=[0])
    assert d.add == (7,) and d.remove == (2,)


@given(descriptors, descriptors)
def test_boolean_algebra_matches_point_sets(a, b):
    pa, pb = points_below(a), points_below(b)
    assert points_below(a.intersect(b)) == pa & pb
    assert points_below(a.union(b)) == pa | pb
    assert points_below(a.difference(b)) == pa - pb


@given(descriptors)
def test_complement_partitions(a):
    pa = points_below(a)
    pc = points_below(a.complement())
    assert pa & pc == set()
    assert pa | pc == set(range(PROBE))


@given(descriptors, descriptors)
def test_subset_and_disjoint_agree_with_points(a, b):
    # the periodic tails make the PROBE horizon decisive only in one
    # direction, so check the strong claims the descriptors make
    if a.subset_of(b):
        assert points_below(a) <= points_below(b)
    if a.disjoint_from(b):
        assert points_below(a) & points_below(b) == set()
    assert a.subset_of(a)
    assert a.intersect(b).subset_of(a)


@given(descriptors)
def test_text_and_config_round_trip(a):
    assert SetDescriptor.from_text(a.to_text()) == a
    assert SetDescriptor.from_config(a.to_config()) == a


def test_text_forms():
    assert SetDescriptor.from_text("empty") == EMPTY
    assert SetDescriptor.from_text("all") == NATURALS
    d = SetDescriptor.build(add=[0, 1], modulus=6, residues=[2], remove=[8])
    assert SetDescriptor.from_text(d.to_text()) == d


@given(descriptors)
def test_iteration_and_least_outside(a):
    members = sorted(points_below(a, 10**4))
    if len(members) < 3:
        with pytest.raises(ValueError):
            a.first_members(3)
        return
    firsts = a.first_members(3)
    assert firsts == members[:3]
    spare = a.least_outside(exclude=firsts[:2])
    assert spare == members[2]
    assert a.below(PROBE) == [x for x in range(PROBE) if x in a]


@given(descriptors, descriptors)
def test_finite_intersection_size(a, b):
    n = a.intersect(b).size()
    common = points_below(a) & points_below(b)
    if n is None:
        # infinite overlap: membership keeps recurring along a residue class
        assert not a.intersect(b).is_empty()
        assert a.intersect(b).is_infinite()
    else:
        assert n == len(common)


@given(descriptors, st.data())
def test_point_patching(a, data):
    # mix free points with tail, added and removed points of `a`
    pts = data.draw(st.sets(st.integers(0, 60), max_size=3))
    tail = [x for x in range(60) if x % a.modulus in a.residues]
    for known in (tail, a.add, a.remove):
        if known:
            pts |= data.draw(st.sets(st.sampled_from(known), max_size=2))
    added = a.with_points(pts)
    removed = a.without_points(pts)
    assert points_below(added) == points_below(a) | {p for p in pts if p < PROBE}
    assert points_below(removed) == points_below(a) - pts
    # canonical equality with the boolean-algebra route
    assert added == a.union(SetDescriptor.from_points(pts))
    assert removed == a.difference(SetDescriptor.from_points(pts))


@settings(max_examples=30)
@given(descriptors)
def test_size_counts_members(a):
    if a.size() is None:
        assert a.is_infinite()
        with pytest.raises(ValueError):
            a.points()
    else:
        assert a.size() == len(points_below(a, 10**4))
        assert a.points() == tuple(sorted(points_below(a, 10**4)))


def test_constructor_rejects_a_non_minimal_period_after_build_warms_the_cache():
    d = SetDescriptor.build(modulus=4, residues=(0, 2))
    assert (d.modulus, d.residues) == (2, (0,))
    with pytest.raises(ValueError, match="tail period is not minimal"):
        SetDescriptor(modulus=4, residues=(0, 2))
    with pytest.raises(ValueError, match="tail period is not minimal"):
        SetDescriptor(modulus=4, residues=(0, 2))
