"""Windowed partial bijections against a naive dict oracle."""

import pytest
from hypothesis import given, strategies as st

from invsemi.errors import BudgetExceededError, NotInjectiveError, WindowMismatchError
from invsemi.pbij import PartialBijection, all_partial_bijections, parse_pairs
from conftest import compose_dicts, invert_dict, random_partial_injection


@st.composite
def windowed_maps(draw, window=8):
    sources = draw(st.sets(st.integers(0, window - 1), max_size=window))
    perm = draw(st.permutations(range(window)))
    pairs = list(zip(sorted(sources), perm))
    return PartialBijection.of(pairs, window)


def test_construction_and_lookup():
    f = PartialBijection.of([(0, 3), (2, 1)], 5)
    assert f.domain() == (0, 2)
    assert f.image() == (1, 3)
    assert f.as_dict() == {0: 3, 2: 1}
    assert PartialBijection.of({2: 1, 0: 3}, 5) == f
    assert PartialBijection.of([], 5).pairs == ()


def test_construction_rejects_bad_data():
    with pytest.raises(NotInjectiveError):
        PartialBijection.of([(0, 1), (2, 1)], 4)
    with pytest.raises(NotInjectiveError):
        PartialBijection.of([(0, 1), (0, 2)], 4)
    with pytest.raises(ValueError):
        PartialBijection.of([(0, 9)], 4)
    with pytest.raises(ValueError):
        PartialBijection.of([(9, 0)], 4)


@given(windowed_maps(), windowed_maps())
def test_compose_matches_oracle(f, g):
    assert f.compose(g).as_dict() == compose_dicts(f.as_dict(), g.as_dict())


@given(windowed_maps())
def test_inverse_matches_oracle(f):
    assert f.inverse().as_dict() == invert_dict(f.as_dict())
    assert f.inverse().inverse() == f


@given(windowed_maps(), windowed_maps(), windowed_maps())
def test_composition_is_associative(f, g, h):
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


@given(windowed_maps(), windowed_maps())
def test_inversion_is_an_anti_homomorphism(f, g):
    assert f.compose(g).inverse() == g.inverse().compose(f.inverse())


@given(windowed_maps())
def test_inverse_semigroup_identities(f):
    g = f.inverse()
    assert f.compose(g).compose(f) == f
    assert g.compose(f).compose(g) == g
    # both one-sided products are partial identities, on the image and
    # on the domain
    assert f.compose(g) == PartialBijection.of([(y, y) for y in f.image()], f.window)
    assert g.compose(f) == PartialBijection.of([(x, x) for x in f.domain()], f.window)


@given(windowed_maps())
def test_idempotents_are_exactly_partial_identities(f):
    assert (f.compose(f) == f) == all(s == t for s, t in f.pairs)


def test_window_mismatch_is_refused():
    f = PartialBijection.of([(0, 1)], 4)
    g = PartialBijection.of([(1, 0)], 5)
    with pytest.raises(WindowMismatchError):
        f.compose(g)


@given(windowed_maps())
def test_literal_round_trip(f):
    # the literal's body is the `a->b` list that `fin(...)` elements read
    body, _, window = f.format_literal().partition("}@")
    assert body[0] == "{" and int(window) == f.window
    assert PartialBijection.of(parse_pairs(body[1:]), f.window) == f


def test_literal_forms():
    # `closure run --compare` prints missing and extra maps in this form
    assert PartialBijection.of([], 3).format_literal() == "{}@3"
    f = PartialBijection.of({3: 4, 1: 2}, 6)
    assert f.format_literal() == str(f) == "{1->2, 3->4}@6"


def test_enumeration_counts():
    # sum over rank k of C(w,k)^2 * k! maps
    assert len(all_partial_bijections(0)) == 1
    assert len(all_partial_bijections(2)) == 7
    assert len(all_partial_bijections(4)) == 209
    assert len(all_partial_bijections(5)) == 1546
    maps = all_partial_bijections(3)
    assert len(maps) == len(set(maps)) == 34
    with pytest.raises(BudgetExceededError):
        all_partial_bijections(9)


def test_random_maps_compose_within_window(rng):
    for _ in range(50):
        f = random_partial_injection(rng, 7)
        g = random_partial_injection(rng, 7)
        h = f.compose(g)
        assert all(0 <= x < 7 and 0 <= y < 7 for x, y in h.pairs)
