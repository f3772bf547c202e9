"""Collections of permitted domains/images, and the ideal escape witness."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from invsemi import (
    CollectionModel,
    EMPTY_IDEAL,
    FIN_IDEAL,
    IdealModel,
    PartialBijection,
    SetDescriptor,
    check_collection_laws,
    fin_map,
    ideal_escape_witness,
    in_constrained,
    in_co_constrained,
    partial_identity,
    principal_plus_fin,
    sym_compose,
)
from invsemi.symbolic import dom_set, format_sym, im_set
from invsemi.closure import BLOCK_PRODUCTS, compose_rows, encode_rows
from invsemi import constrained
from invsemi.constrained import (
    _as_descriptor,
    _composition_escape,
    _windowed_members,
    pivot_extension,
)
from invsemi.topology import BasicOpen, open_contains, random_basic_open
from conftest import (
    almost_subset_by_difference,
    evens,
    formula_sides_by_algebra,
    odds,
    random_descriptor,
)


def test_ideal_membership():
    assert FIN_IDEAL.contains([1, 2, 3])
    assert FIN_IDEAL.contains([])
    assert not FIN_IDEAL.contains(evens())
    assert FIN_IDEAL.is_proper()
    assert not EMPTY_IDEAL.contains([])
    assert EMPTY_IDEAL.is_proper()
    j = principal_plus_fin(evens())
    assert j.contains(evens())
    assert j.contains(evens().with_points([3, 7]))
    assert j.contains([4, 100])
    assert not j.contains(odds())
    assert not j.contains(SetDescriptor.naturals())
    assert j.is_proper()
    assert not principal_plus_fin(SetDescriptor.naturals()).is_proper()


def test_ideal_membership_matches_the_difference_route():
    # principal-plus-fin membership compares tails; the reference builds
    # the difference with the base and asks whether it is infinite
    rng = random.Random(20261021)
    outcomes = set()
    for _ in range(400):
        base, d = random_descriptor(rng), random_descriptor(rng)
        ideal = principal_plus_fin(base)
        got = ideal.contains(d)
        assert got == almost_subset_by_difference(d, base), (d, base)
        outcomes.add(got)
        pts = rng.sample(range(50), rng.randint(0, 4))
        assert ideal.contains(pts)  # every finite set, given as points
        assert ideal.contains(base.with_points(pts).without_points(base.add))
    assert outcomes == {True, False}


def test_ideal_validation():
    with pytest.raises(ValueError):
        IdealModel("principal-plus-fin")
    with pytest.raises(ValueError):
        IdealModel("most")


def test_collection_membership():
    small = CollectionModel("at-most-n", n=2)
    assert small.contains([5, 9]) and not small.contains([1, 2, 3])
    assert not small.contains(evens())

    schreier = CollectionModel("schreier")
    assert schreier.contains([])
    assert schreier.contains([2, 5, 9])  # 3 points, min 2
    assert not schreier.contains([1, 2, 3])  # 3 points, min 1
    assert schreier.contains([0]) and not schreier.contains([0, 1])

    segments = CollectionModel("initial-segments")
    assert segments.contains([0, 1, 2]) and not segments.contains([1, 2])

    co = CollectionModel("co-ideal", ideal=FIN_IDEAL)
    assert co.contains(SetDescriptor.naturals().without_points([3]))
    assert not co.contains(evens())

    members = CollectionModel("ideal-members", ideal=FIN_IDEAL)
    assert members.contains([1]) and not members.contains(odds())

    with pytest.raises(ValueError):
        CollectionModel("at-most-n")
    with pytest.raises(ValueError):
        CollectionModel("co-ideal")


def test_structural_flags():
    assert CollectionModel("schreier").hereditary
    assert not CollectionModel("initial-segments").hereditary
    assert CollectionModel("co-ideal", ideal=FIN_IDEAL).upward_closed
    assert not CollectionModel("schreier").upward_closed
    assert CollectionModel("all").hereditary and CollectionModel("all").upward_closed
    assert CollectionModel("ideal-members", ideal=FIN_IDEAL).contains_all_finite
    assert not CollectionModel("at-most-n", n=3).contains_all_finite


def test_constrained_membership():
    model = CollectionModel("at-most-n", n=1)
    assert in_constrained(fin_map([(3, 4)]), model)
    assert not in_constrained(fin_map([(3, 4), (5, 6)]), model)
    # complement-side membership: dom and im complements must be in C
    fin_sets = CollectionModel("ideal-members", ideal=FIN_IDEAL)
    f = partial_identity(SetDescriptor.naturals().without_points([2]))
    assert in_co_constrained(f, fin_sets)
    assert not in_co_constrained(fin_map([(1, 2)]), fin_sets)
    co = CollectionModel("co-ideal", ideal=FIN_IDEAL)
    assert in_co_constrained(fin_map([(1, 2)]), co)
    assert not in_co_constrained(f, co)


MODELS = [
    CollectionModel("at-most-n", n=2),
    CollectionModel("schreier"),
    CollectionModel("initial-segments"),
    CollectionModel("ideal-members", ideal=FIN_IDEAL),
    CollectionModel("co-ideal", ideal=FIN_IDEAL),
    CollectionModel("all"),
]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
def test_collection_laws_hold(model):
    verdicts = check_collection_laws(model, window=4, seed=1)
    assert [v.law for v in verdicts] == [
        "subset-closed-implies-semigroup",
        "semigroup-implies-meet-closed",
        "all-finite-implies-dense",
        "superset-closed-implies-complement-semigroup",
    ]
    for v in verdicts:
        assert v.holds, (model.kind, v.law, v.detail)


def test_superset_law_composes_every_pool_pair():
    # the 15-element symbolic pool includes permutations of blocks that
    # overlap infinitely; every ordered pair must compose
    law4 = check_collection_laws(CollectionModel("all"), window=4, seed=1)[3]
    assert law4.detail.startswith(f"{15 * 15} symbolic composites")


def test_initial_segments_really_escape():
    # the collection is not subset-closed and composition leaves it
    verdicts = check_collection_laws(CollectionModel("initial-segments"), window=4)
    law1 = verdicts[0]
    assert not law1.applicable
    assert "escapes" in law1.detail
    # the textbook escape: a swap against the identity on {0}
    swap = fin_map([(0, 1), (1, 0)])
    point = partial_identity([0])
    seg = CollectionModel("initial-segments")
    assert in_constrained(swap, seg) and in_constrained(point, seg)
    composite = sym_compose(swap, point)
    assert composite == fin_map([(0, 1)])
    assert not in_constrained(composite, seg)


# each law's failure branch, reached by a fault injected into the model


def test_law_one_reports_an_escape_from_a_hereditary_collection(monkeypatch):
    monkeypatch.setattr(CollectionModel, "hereditary", property(lambda self: True))
    law1 = check_collection_laws(CollectionModel("initial-segments"), window=4)[0]
    assert law1.applicable and not law1.holds
    assert law1.detail == "hereditary but composite {1->0}@4 escaped: law violated"


def test_law_two_reports_a_meet_outside_the_collection(monkeypatch):
    real = CollectionModel.contains
    empty = SetDescriptor.from_points([])
    monkeypatch.setattr(CollectionModel, "contains",
                        lambda self, x: real(self, x) and _as_descriptor(x) != empty)
    law2 = check_collection_laws(CollectionModel("at-most-n", n=2), window=4)[1]
    assert law2.applicable and law2.holds  # the identity composite escapes too
    assert law2.detail == ("meet of finite {0} and finite {1} leaves the collection, "
                           "and the matching identity composite empty indeed escapes")


def test_law_three_reports_an_open_without_a_member(monkeypatch):
    first = random_basic_open(random.Random(0))  # law 3's first open at seed 0
    refused = fin_map(first.positive)  # the member law 3 tries in it
    real = constrained.in_constrained
    monkeypatch.setattr(constrained, "in_constrained",
                        lambda f, model: f != refused and real(f, model))
    law3 = check_collection_laws(CollectionModel("ideal-members", ideal=FIN_IDEAL),
                                 window=4)[2]
    assert law3.applicable and not law3.holds
    assert law3.detail == f"no member found in {first.describe()}"


def test_hereditary_collections_have_no_escape():
    for model in MODELS:
        if not model.hereditary:
            continue
        verdicts = check_collection_laws(model, window=4)
        assert verdicts[0].applicable and verdicts[0].holds


def _escape_asking_the_model(model, window):
    """The scan that asks the model about each distinct composite's domain
    and image, in the same row-major order."""
    members = _windowed_members(model, window)
    if not members:
        return 0, None
    rows = encode_rows(members, window)
    seen = set()
    step = max(1, BLOCK_PRODUCTS // len(members))
    checked = 0
    for lo in range(0, len(members), step):
        prods = compose_rows(rows[lo:lo + step], rows).reshape(-1, window)
        checked += prods.shape[0]
        for r in prods:
            key = r.tobytes()
            if key in seen:
                continue
            seen.add(key)
            pairs = tuple((x, int(y)) for x, y in enumerate(r) if y >= 0)
            dom = frozenset(x for x, _ in pairs)
            img = frozenset(y for _, y in pairs)
            if not (model.contains(dom) and model.contains(img)):
                return checked, PartialBijection.of(pairs, window)
    return checked, None


ESCAPE_MODELS = [
    CollectionModel("at-most-n", n=1),
    CollectionModel("at-most-n", n=2),
    CollectionModel("at-most-n", n=3),
    CollectionModel("schreier"),
    CollectionModel("initial-segments"),
    CollectionModel("ideal-members", ideal=FIN_IDEAL),
    CollectionModel("co-ideal", ideal=FIN_IDEAL),
    CollectionModel("all"),
]


@pytest.mark.parametrize(
    "model", ESCAPE_MODELS, ids=lambda m: m.kind if m.n is None else f"{m.kind}-{m.n}"
)
def test_composition_escape_matches_asking_the_model(model):
    for window in (3, 4, 5):
        assert _composition_escape(model, window) == _escape_asking_the_model(model, window)


# -- the open-set escape witness -----------------------------------------


def witness_for(seed, ideal=FIN_IDEAL, pivot=None):
    rng = random.Random(seed)
    v = random_basic_open(rng)
    return ideal_escape_witness(v, ideal, pivot if pivot is not None else evens())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_escape_witness_clauses(seed):
    w = witness_for(seed)
    assert w.holds
    assert [name for name, _ in w.verdicts] == [
        "member-of-open",
        "domain-complement-in-extended",
        "domain-complement-outside-original",
        "image-complement-in-extended",
        "image-complement-outside-original",
        "domain-complement-formula",
        "image-complement-formula",
    ]
    assert all(ok for _, ok in w.verdicts)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_escape_witness_with_empty_ideal(seed):
    w = witness_for(seed, ideal=EMPTY_IDEAL)
    assert w.holds
    assert w.small_ideal is EMPTY_IDEAL
    verdicts = dict(w.verdicts)
    assert verdicts["domain-complement-outside-original"]
    assert verdicts["image-complement-outside-original"]


def test_ideal_texts_are_formatted_once_per_model():
    ideal = principal_plus_fin(evens().with_points([3]))
    assert ideal.describe() == "finite-mod (finite {3} tail mod 2 residues [0])"
    assert ideal.describe() is ideal.describe()
    assert ideal == principal_plus_fin(evens().with_points([3]))


def test_escape_witness_extends_the_ideal_properly():
    w = witness_for(11)
    assert w.big_ideal.kind == "principal-plus-fin"
    assert w.big_ideal.is_proper()
    assert w.big_ideal.contains(evens())
    assert not w.small_ideal.contains(evens())


def test_escape_witness_rejects_bad_pivots():
    v = BasicOpen((), (), ())
    with pytest.raises(ValueError, match="already belongs"):
        ideal_escape_witness(v, FIN_IDEAL, SetDescriptor.from_points([1, 2]))
    with pytest.raises(ValueError, match="complement"):
        ideal_escape_witness(v, FIN_IDEAL, SetDescriptor.naturals().without_points([4]))
    with pytest.raises(ValueError, match="proper"):
        ideal_escape_witness(v, principal_plus_fin(SetDescriptor.naturals()), evens())


def test_pivot_checks_are_memoized_only_when_they_pass():
    pivot_extension.cache_clear()
    bad = SetDescriptor.from_points([1, 2])
    for _ in range(2):  # a rejected pivot is checked again on every call
        with pytest.raises(ValueError, match="already belongs"):
            pivot_extension(FIN_IDEAL, bad)
    first = pivot_extension(FIN_IDEAL, evens())
    assert first == (odds(), principal_plus_fin(evens()))
    assert pivot_extension(FIN_IDEAL, evens()) is first
    info = pivot_extension.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 3, 1)


def test_formula_sides_match_the_algebra_route():
    # the witness builds each formula side as a patch of the pivot; the
    # union/difference route must give the same descriptors, and with
    # them the same clause verdicts
    rng = random.Random(20261022)
    ideals_seen = set()
    for t in range(300):
        ideal = (FIN_IDEAL, EMPTY_IDEAL)[t % 2]
        pivot = random_descriptor(rng)
        while ideal is FIN_IDEAL and not (pivot.is_infinite() and pivot.complement().is_infinite()):
            pivot = random_descriptor(rng)
        v = random_basic_open(rng, bound=rng.choice((8, 20, 64)))
        w = ideal_escape_witness(v, ideal, pivot)
        want_dom, want_im = formula_sides_by_algebra(v, pivot)
        assert dom_set(w.element).complement() == want_dom, (v, pivot)
        assert im_set(w.element).complement() == want_im, (v, pivot)
        assert w.holds
        assert w.element_text == format_sym(w.element) and w.open_text == v.describe()
        ideals_seen.add((ideal.kind, pivot.is_infinite(), bool(pivot.add or pivot.remove)))
    assert ("empty", False, True) in ideals_seen and ("fin", True, True) in ideals_seen


def test_escape_witness_element_is_in_the_open():
    rng = random.Random(5)
    for _ in range(10):
        v = random_basic_open(rng)
        w = ideal_escape_witness(v, FIN_IDEAL, evens())
        assert open_contains(v, w.element)
