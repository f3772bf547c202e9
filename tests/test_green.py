"""Green's classes counted from the orbit of images, against the
enumerating oracles: a brute-force group closure for the Sims table and
the listed closure for the D-classes."""

import math

import numpy as np
import pytest

from invsemi.closure import encode_rows, invert_rows, unique_rows
from invsemi.green import d_classes, group_order
from conftest import d_classes_by_enumeration, group_order_by_closure, random_partial_injection


def _cycle(points, degree):
    """The cyclic permutation of `points` in order, fixing the rest."""
    p = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        p[a] = b
    return tuple(p)


def _named_groups():
    for d in (1, 2, 5, 7):
        yield f"cyclic-{d}", [_cycle(list(range(d)), d)], d
    for d in (3, 4, 6):
        yield f"dihedral-{d}", [_cycle(list(range(d)), d), tuple((-x) % d for x in range(d))], d
    yield "klein-four", [(1, 0, 3, 2), (2, 3, 0, 1)], 4
    for d in (3, 4, 5, 6, 7):
        # (0 1 2) with the cycle on 1..d-1 (d even) or on all points (d odd)
        rest = list(range(d)) if d % 2 else list(range(1, d))
        yield f"alternating-{d}", [_cycle([0, 1, 2], d), _cycle(rest, d)], d
    for d in (2, 3, 4, 6, 7):
        yield f"symmetric-{d}", [_cycle([0, 1], d), _cycle(list(range(d)), d)], d
    yield "trivial-0", [], 0
    yield "identity-3", [(0, 1, 2)], 3


@pytest.mark.parametrize("gens, degree", [pytest.param(g, d, id=name)
                                          for name, g, d in _named_groups()])
def test_sims_table_order_matches_the_group_closure(gens, degree):
    assert group_order(gens, degree) == group_order_by_closure(gens, degree)


def test_sims_table_orders_of_known_groups():
    # past the brute force's reach: |S_d| = d!, |A_d| = d!/2, |D_d| = 2d
    for d in (10, 20):
        assert group_order([_cycle([0, 1], d), _cycle(list(range(d)), d)], d) == math.factorial(d)
    for d in (11, 12):
        rest = list(range(d)) if d % 2 else list(range(1, d))
        assert group_order([_cycle([0, 1, 2], d), _cycle(rest, d)], d) == math.factorial(d) // 2
    assert group_order([_cycle(list(range(30)), 30), tuple((-x) % 30 for x in range(30))], 30) == 60


def test_sims_table_order_on_random_generators(rng):
    for _ in range(60):
        d = rng.randint(2, 7)
        gens = [tuple(rng.sample(range(d), d)) for _ in range(rng.randint(1, 3))]
        assert group_order(gens, d) == group_order_by_closure(gens, d)


def _with_inverses(maps, window):
    rows = encode_rows(maps, window)
    return unique_rows(np.concatenate([rows, invert_rows(rows)]))


def test_classes_match_the_enumerated_closure(rng):
    shapes = [(5, 2), (6, 2), (6, 3), (7, 2), (8, 3)]
    for window, count in shapes * 6:
        rows = _with_inverses([random_partial_injection(rng, window) for _ in range(count)], window)
        classes, actions = d_classes(rows, 2**window)
        got = {(c.rank, c.images, c.group_order) for c in classes}
        assert len(got) == len(classes)
        assert got == d_classes_by_enumeration(rows)
        # each image of the orbit meets every map once
        assert actions == sum(len(c.images) for c in classes) * len(rows)


def test_classes_of_a_block_group_and_its_strata():
    # the permutations of {0, 1, 2} with the map 0 -> 3 and its inverse:
    # one class per rank 0 (the empty map), 1 ({0}..{3}) and 3 ({0, 1, 2}),
    # 1 + 16 + 6 maps
    rows = np.full((4, 4), -1, dtype=np.int8)
    rows[0, :3], rows[1, :3], rows[2, 0] = [1, 0, 2], [1, 2, 0], 3
    rows = unique_rows(np.concatenate([rows, invert_rows(rows)]))
    classes, _ = d_classes(rows, 16)
    assert sorted((c.rank, sorted(c.images), c.group_order) for c in classes) == [
        (0, [0], 1), (1, [1, 2, 4, 8], 1), (3, [7], 6)]
    assert sum(c.size() for c in classes) == 23


def test_an_orbit_past_its_budget_stops():
    # the n-cycle, the partial identity on {0} and the empty map: the
    # full set, all n singletons and the empty set, n + 2 images
    n = 6
    rows = np.full((3, n), -1, dtype=np.int8)
    rows[0] = [(x + 1) % n for x in range(n)]
    rows[1, 0] = 0
    rows = unique_rows(np.concatenate([rows, invert_rows(rows)]))
    classes, _ = d_classes(rows, n + 2)
    assert sum(len(c.images) for c in classes) == n + 2
    assert d_classes(rows, n + 1)[0] is None
