"""Set descriptor algebra checked against explicit point sets."""

import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from invsemi import SetDescriptor
from invsemi.descriptors import (
    EMPTY,
    MAX_MODULUS,
    NATURALS,
    _and_not,
    _minimal_period,
    _tail_mask,
)
from invsemi.errors import BudgetExceededError, ParseError

from conftest import (
    almost_subset_by_difference,
    build_by_loop,
    minimal_period_by_scan,
    pointwise_by_build,
    pointwise_by_shifts,
    random_descriptor,
    set_descriptor_check_by_rebuild,
    tail_mask_by_shifts,
)


PROBE = 150


def horizon(*ds):
    """A probe bound that decides membership for every set built from
    ``ds``: past the largest patch point all of them are periodic, so
    one lcm of their moduli shows every residue.  Never below ``PROBE``:
    the bound comes from the inputs, and a wrong result may first differ
    from the truth past it."""
    top = max((p for d in ds for p in d.add + d.remove), default=0)
    return max(PROBE, top + 1 + math.lcm(*(d.modulus for d in ds)))


def points_below(d, bound):
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


# one case per rejection message, in the order the constructor checks them
REJECTED = [
    (dict(modulus=0), "modulus must be >= 1"),
    (dict(modulus=3, residues=(2, 0)), "residues must be sorted and distinct"),
    (dict(modulus=3, residues=(1, 1)), "residues must be sorted and distinct"),
    (dict(modulus=3, residues=(1, 3)), r"residues must lie in \[0, modulus\)"),
    (dict(modulus=3, residues=(-1, 1)), r"residues must lie in \[0, modulus\)"),
    (dict(modulus=2), "empty tail must use modulus 1"),
    (dict(modulus=4, residues=(0, 2)), "tail period is not minimal"),  # period 2 in disguise
    (dict(modulus=2, residues=(0, 1)), "tail period is not minimal"),  # the naturals
    (dict(add=(2, 1)), "add points must be sorted and distinct"),
    (dict(add=(1, 1)), "add points must be sorted and distinct"),
    (dict(add=(-1, 3)), "add points must be naturals"),
    (dict(remove=(4, 2), modulus=2, residues=(0,)), "remove points must be sorted and distinct"),
    (dict(remove=(-2, 2), modulus=2, residues=(0,)), "remove points must be naturals"),
    (dict(add=(1, 2), modulus=2, residues=(0,)), "added point already on the tail"),
    (dict(add=(5,), residues=(0,)), "added point already on the tail"),
    (dict(remove=(1,), modulus=2, residues=(0,)), "removed point is not on the tail"),
    (dict(remove=(3,)), "removed point is not on the tail"),
]


def test_constructor_insists_on_canonical_data():
    for fields, message in REJECTED:
        with pytest.raises(ValueError, match=f"^{message}$"):
            SetDescriptor(**fields)
    assert len({message for _, message in REJECTED}) == 11


def _outcome(check, fields):
    try:
        check(**fields)
    except ValueError as e:
        return "rejected", str(e)
    return "accepted", None


def _random_fields(rng):
    """Constructor fields that are mostly near-canonical: random patch
    tuples (sometimes unsorted, repeated, negative or on the tail) over a
    canonical or slightly perturbed tail, now and then given as lists."""
    modulus = rng.randint(0, 8)
    if modulus >= 1 and rng.random() < 0.6:
        tail = build_by_loop(modulus=modulus,
                             residues=rng.sample(range(modulus), rng.randint(0, modulus)))
        modulus, residues = tail.modulus, tail.residues
    else:
        residues = tuple(rng.randint(-1, modulus) for _ in range(rng.randint(0, 3)))
    fields = {"modulus": modulus, "residues": residues}
    for name in ("add", "remove"):
        pts = sorted(rng.sample(range(-2, 20), rng.randint(0, 4)))
        if rng.random() < 0.2:
            rng.shuffle(pts)
        if pts and rng.random() < 0.1:
            pts.append(pts[-1])
        fields[name] = tuple(pts)
    for name in ("add", "remove", "residues"):
        if rng.random() < 0.05:
            fields[name] = list(fields[name])
    return fields


def test_constructor_check_matches_the_rebuild_oracle():
    # the memoized tail verdict and the one-pass patch checks accept and
    # reject exactly what the unmemoized check does, with its messages
    cases = [fields for fields, _ in REJECTED]
    rng = random.Random(20261019)
    cases += [_random_fields(rng) for _ in range(3000)]
    verdicts = set()
    for fields in cases:
        for _ in range(2):  # the second call reads the memo, or raises again
            got = _outcome(SetDescriptor, fields)
            assert got == _outcome(set_descriptor_check_by_rebuild, fields), fields
        verdicts.add(got)
    assert ("accepted", None) in verdicts
    assert {m for kind, m in verdicts if kind == "rejected"} == {
        message.replace("\\", "") for _, message in REJECTED}


def test_build_canonicalizes():
    assert SetDescriptor.build(modulus=4, residues=[1, 3]) == SetDescriptor.build(
        modulus=2, residues=[1]
    )
    # added points beat removed points, on-tail adds are dropped
    d = SetDescriptor.build(add=[0, 7], remove=[0, 2], modulus=2, residues=[0])
    assert d.add == (7,) and d.remove == (2,)


@given(descriptors, descriptors)
def test_boolean_algebra_matches_point_sets(a, b):
    h = horizon(a, b)
    pa, pb = points_below(a, h), points_below(b, h)
    assert points_below(a.intersect(b), h) == pa & pb
    assert points_below(a.union(b), h) == pa | pb
    assert points_below(a.difference(b), h) == pa - pb


@given(descriptors)
def test_complement_partitions(a):
    h = horizon(a)
    pa = points_below(a, h)
    pc = points_below(a.complement(), h)
    assert pa & pc == set()
    assert pa | pc == set(range(h))


@given(descriptors, descriptors)
def test_subset_and_disjoint_agree_with_points(a, b):
    # the horizon decides membership for both sets, so it decides
    # inclusion and overlap in both directions
    h = horizon(a, b)
    assert a.difference(b).is_empty() == (points_below(a, h) <= points_below(b, h))
    assert a.intersect(b).is_empty() == (points_below(a, h) & points_below(b, h) == set())
    assert a.difference(a).is_empty()
    assert a.intersect(b).difference(a).is_empty()


@given(descriptors)
def test_text_and_config_round_trip(a):
    assert SetDescriptor.from_text(a.to_text()) == a
    assert SetDescriptor.from_config(a.to_config()) == a


@pytest.mark.parametrize("cfg, message", [
    ({"tail": {"mod": 2, "residues": [0]}, "finite": [True]}, "lists must contain integers"),
    ({"tail": {"mod": True, "residues": [False]}}, "lists must contain integers"),
    ({"tail": {"mod": True, "residues": [0]}}, "tail mod must be a positive integer"),
    ({"tail": {"mod": 1, "residues": [0]}, "remove": [False]}, "lists must contain integers"),
])
def test_config_booleans_are_not_integers(cfg, message):
    # JSON true and false are Python bools, which are ints; read as
    # points they would give a block that `from_text` cannot read back
    with pytest.raises(ParseError, match=message):
        SetDescriptor.from_config(cfg)


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
    for bound in (PROBE, horizon(a)):
        assert a.below(bound) == [x for x in range(bound) if x in a]


@given(descriptors, descriptors)
def test_finite_intersection_size(a, b):
    overlap = a.intersect(b)
    h = horizon(a, b)
    common = points_below(a, h) & points_below(b, h)
    if overlap.is_infinite():
        # infinite overlap: membership keeps recurring along a residue class
        assert not overlap.is_empty()
    else:
        assert len(overlap.points()) == len(common)


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
    h = horizon(a, SetDescriptor.from_points(pts))
    assert points_below(added, h) == points_below(a, h) | pts
    assert points_below(removed, h) == points_below(a, h) - pts
    # canonical equality with the boolean-algebra route
    assert added == a.union(SetDescriptor.from_points(pts))
    assert removed == a.difference(SetDescriptor.from_points(pts))


@settings(max_examples=30)
@given(descriptors)
def test_size_counts_members(a):
    if a.is_infinite():
        with pytest.raises(ValueError):
            a.points()
    else:
        assert a.points() == tuple(sorted(points_below(a, 10**4)))


def test_constructor_rejects_a_non_minimal_period_after_build_warms_the_cache():
    d = SetDescriptor.build(modulus=4, residues=(0, 2))
    assert (d.modulus, d.residues) == (2, (0,))
    with pytest.raises(ValueError, match="tail period is not minimal"):
        SetDescriptor(modulus=4, residues=(0, 2))
    with pytest.raises(ValueError, match="tail period is not minimal"):
        SetDescriptor(modulus=4, residues=(0, 2))


def test_moduli_past_the_budget_are_refused_before_any_work():
    at_cap = SetDescriptor.residue_class(0, MAX_MODULUS)
    rest = at_cap.complement()
    assert (rest.modulus, len(rest.residues)) == (MAX_MODULUS, MAX_MODULUS - 1)
    assert at_cap.union(rest) == NATURALS and at_cap.intersect(rest) == EMPTY
    over = MAX_MODULUS + 1
    with pytest.raises(BudgetExceededError, match=f"tail modulus {over}"):
        SetDescriptor.build(modulus=over, residues=[0])
    with pytest.raises(BudgetExceededError):
        SetDescriptor(modulus=over, residues=(0,))
    with pytest.raises(BudgetExceededError):
        SetDescriptor.from_text(f"tail mod {2 * MAX_MODULUS} residues [0,{MAX_MODULUS}]")
    # two moduli within the budget whose lcm is past it
    thirds = SetDescriptor.residue_class(0, 3)
    for combine in (at_cap.intersect, at_cap.union, at_cap.difference,
                    at_cap.almost_subset_of):
        with pytest.raises(BudgetExceededError, match=f"tail modulus {3 * MAX_MODULUS}"):
            combine(thirds)
    # an empty tail needs no period search, whatever its modulus
    assert SetDescriptor.build(add=[3], modulus=10**9) == SetDescriptor.from_points([3])


# -- the bitmask kernels against the point-by-point route -------------------


def test_algebra_matches_the_build_route():
    rng = random.Random(20261018)
    ops = {  # the parent's boolean operators
        "intersect": lambda x, y: x and y,
        "union": lambda x, y: x or y,
        "difference": lambda x, y: x and not y,
    }
    seen_moduli = set()
    for _ in range(400):
        a, b = random_descriptor(rng), random_descriptor(rng)
        for name, op in ops.items():
            got = getattr(a, name)(b)
            assert got == pointwise_by_build(a, b, op), (name, a, b)
            seen_moduli.add(got.modulus)
        assert a.complement() == pointwise_by_build(NATURALS, a, ops["difference"]), a
        pts = rng.sample(range(50), rng.randint(0, 4)) + rng.sample(a.add + a.remove or (0,), 1)
        assert a.with_points(pts) == build_by_loop(a.add + tuple(pts), a.remove, a.modulus, a.residues)
        keep = [x for x in a.add if x not in pts]
        assert a.without_points(pts) == build_by_loop(keep, a.remove + tuple(pts), a.modulus, a.residues)
        assert SetDescriptor.from_points(pts) == build_by_loop(add=pts)
        raw = dict(add=rng.sample(range(41), 3), remove=rng.sample(range(41), 3),
                   modulus=rng.randint(1, 24), residues=rng.sample(range(30), 4))
        assert SetDescriptor.build(**raw) == build_by_loop(**raw), raw
    assert max(seen_moduli) > 12  # some results keep an lcm of two moduli


def test_period_search_and_residue_listing_match_the_scans():
    # the rotation test and the bin-string listing against the
    # residue-by-residue period scan and the shift-per-residue listing
    rng = random.Random(20261021)
    cases = []
    for _ in range(1000):
        modulus = rng.randint(1, 96)
        cases.append((modulus, frozenset(rng.sample(range(modulus), rng.randint(0, modulus)))))
    periodic = []
    for modulus in (12, 16, 30, 36, 48, 60, 64):
        for d in [d for d in range(1, modulus) if modulus % d == 0][-4:]:
            pattern = set(rng.sample(range(d), rng.randint(1, d)))
            periodic.append((modulus, frozenset(r for r in range(modulus) if r % d in pattern)))
            cases.append(periodic[-1])
    assert len(periodic) == 28
    for modulus, residues in cases:
        assert _minimal_period(modulus, residues) == minimal_period_by_scan(modulus, residues)
    assert all(_minimal_period(m, res)[0] < m for m, res in periodic)
    ops = {"intersect": operator.and_, "union": operator.or_, "difference": _and_not}
    for _ in range(1000):
        a, b = random_descriptor(rng), random_descriptor(rng)
        name = rng.choice(sorted(ops))
        assert getattr(a, name)(b) == pointwise_by_shifts(a, b, ops[name]), (name, a, b)


def test_tail_mask_matches_the_sum_of_shifts():
    # the memoized digit-string mask, spread to a multiple of the modulus,
    # against one shifted bit per residue; twice each, so the second call
    # reads the memo
    rng = random.Random(20261022)
    tails = [random_descriptor(rng) for _ in range(500)]
    for _ in range(100):
        modulus = rng.randint(1, 4096)
        tails.append(SetDescriptor.build(
            modulus=modulus, residues=rng.sample(range(modulus), rng.randint(0, modulus))))
    tails += [SetDescriptor.residue_class(0, MAX_MODULUS).complement(),
              SetDescriptor.residue_class(1, 2)]
    for d in tails:
        length = d.modulus * rng.randint(1, 4)
        for _ in range(2):
            assert _tail_mask(d, length) == tail_mask_by_shifts(d, length), (d, length)


def test_below_matches_membership():
    rng = random.Random(20261019)
    for d in [EMPTY, NATURALS] + [random_descriptor(rng) for _ in range(40)]:
        for n in range(201):
            assert d.below(n) == [x for x in range(n) if d.member(x)], (d, n)


def test_almost_subset_matches_the_difference_route():
    # a \ b is finite exactly when no residue lies on a's tail and off b's;
    # the patches of either side never change the answer
    rng = random.Random(20261020)
    pairs = [(EMPTY, EMPTY), (EMPTY, NATURALS), (NATURALS, EMPTY), (NATURALS, NATURALS)]
    pairs += [(random_descriptor(rng), random_descriptor(rng)) for _ in range(600)]
    seen = {"moduli": set(), "outcomes": set(), "finite": 0, "patched_base": 0}
    for a, b in pairs:
        for x in (a, a.with_points(rng.sample(range(60), 3)), a.without_points(a.add + a.remove)):
            got = x.almost_subset_of(b)
            assert got == almost_subset_by_difference(x, b), (x, b)
            seen["outcomes"].add(got)
        seen["moduli"] |= {a.modulus, b.modulus}
        seen["finite"] += not a.is_infinite()
        seen["patched_base"] += bool(b.add or b.remove) and b.is_infinite()
        assert a.almost_subset_of(a)
        assert a.almost_subset_of(NATURALS)
        assert a.almost_subset_of(EMPTY) == (not a.is_infinite())
    assert seen["moduli"] == set(range(1, 13))
    assert seen["outcomes"] == {True, False}
    assert seen["finite"] > 20 and seen["patched_base"] > 100
