"""Windowed closure engine against the naive dict oracle and the
structural description of the generated union."""

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conftest
import invsemi.closure
from invsemi.pbij import PartialBijection
from invsemi.closure import (
    BLOCK_PRODUCTS,
    MAX_WINDOW,
    KEY_WINDOW,
    ClosureResult,
    _sorted_distinct,
    blank_rows,
    check_closure_bound,
    closure_of,
    compare_with_structural,
    compose_rows,
    composition_escape,
    decode_row,
    encode_rows,
    family_generators,
    group_rows,
    invert_rows,
    minimal_window,
    row_keys,
    rows_closed_under_ops,
    sparse_group_generators,
    structural_parts,
    structural_rows,
    union_classes,
    union_generators,
    union_table,
    unique_rows,
)
from invsemi.catalog import (
    bound_example,
    common_point_block,
    common_point_family,
    dyadic_disjoint_family,
    marker_family,
    named_family,
    random_uniform_family,
)
from invsemi.descriptors import SetDescriptor
from invsemi.errors import (
    BudgetExceededError,
    InvalidBoundError,
    NotInjectiveError,
    WindowMismatchError,
)
from invsemi.families import BlockFamily, chain_capacity_matrix
from conftest import (
    KEY_BITS,
    NO_KEY,
    RowIndex,
    capped_rows,
    closure_by_row_scan,
    closure_dicts,
    compose_dicts,
    group_rows_by_loop,
    invert_dict,
    minimal_window_by_scan,
    random_partial_injection,
    rows_by_bytes,
    structural_rows_by_loop,
    union_closed,
    union_closed_by_search,
    union_generators_all_pairs,
    union_index,
    unique_rows_by_bytes,
    windowed_block_group,
)
from test_families import CATALOG


def test_encode_decode_round_trip(rng):
    maps = [random_partial_injection(rng, 9) for _ in range(40)]
    rows = encode_rows(maps, 9)
    assert rows.dtype == np.int8 and rows.shape == (40, 9)
    assert [decode_row(r, 9) for r in rows] == maps


def test_unique_rows_deduplicates(rng):
    maps = [random_partial_injection(rng, 6) for _ in range(30)]
    rows = encode_rows(maps + maps, 6)
    uniq = unique_rows(rows)
    assert len(uniq) == len(set(maps))
    assert len(unique_rows(uniq)) == len(uniq)


@pytest.mark.parametrize("width", [1, KEY_WINDOW, KEY_WINDOW + 1])
def test_unique_rows_sort_as_the_row_bytes(rng, width):
    # one-word keys up to KEY_WINDOW, the rows' bytes past it: one order
    maps = [random_partial_injection(rng, width) for _ in range(50)]
    maps.append(PartialBijection.of([(x, x) for x in range(width)], width))
    rows = np.concatenate([encode_rows(maps + maps[::3], width), blank_rows(2, width)])
    rows = rows[rng.sample(range(len(rows)), len(rows))]
    uniq = unique_rows(rows)
    want = unique_rows_by_bytes(rows)
    assert uniq.dtype == np.int8 and uniq.shape == want.shape
    assert uniq.tobytes() == want.tobytes()
    assert uniq[-1].tolist() == [-1] * width  # the empty map sorts last
    if width == KEY_WINDOW:
        keys = row_keys(uniq)
        assert np.all(keys[1:] > keys[:-1]) and keys[-1] == 2**60 - 1


def test_compose_rows_is_all_pairwise(rng):
    left = [random_partial_injection(rng, 7) for _ in range(5)]
    right = [random_partial_injection(rng, 7) for _ in range(4)]
    prod = compose_rows(encode_rows(left, 7), encode_rows(right, 7))
    assert prod.shape == (5, 4, 7)
    for i, f in enumerate(left):
        for j, g in enumerate(right):
            assert decode_row(prod[i, j], 7).as_dict() == compose_dicts(
                f.as_dict(), g.as_dict()
            )


def test_row_kernels_leave_their_inputs_unchanged(rng):
    # closure_of composes every batch against the same `gens`: a kernel
    # that sorted or wrote its input in place would permute them between
    # batches
    maps = [random_partial_injection(rng, 7) for _ in range(12)]
    rows = encode_rows(maps + maps[:4], 7)
    other = encode_rows(maps[::-1], 7)
    kept, kept_other = rows.copy(), other.copy()
    assert not np.array_equal(rows, unique_rows(rows))  # the dedup reorders
    compose_rows(rows, other)
    compose_rows(other, rows)
    unique_rows(compose_rows(rows, other).reshape(-1, 7))
    closure_of(rows)
    assert np.array_equal(rows, kept) and np.array_equal(other, kept_other)


def test_invert_rows(rng):
    maps = [random_partial_injection(rng, 8) for _ in range(20)]
    inv = invert_rows(encode_rows(maps, 8))
    for f, r in zip(maps, inv):
        assert decode_row(r, 8).as_dict() == invert_dict(f.as_dict())


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_closure_matches_dict_oracle(seed):
    rng = random.Random(seed)
    gens = [random_partial_injection(rng, 5) for _ in range(3)]
    result = closure_of(encode_rows(gens, 5))
    expected = closure_dicts([g.as_dict() for g in gens])
    got = {frozenset(f.pairs) for f in result.elements}
    assert got == expected
    assert result.closed


def test_closure_budget():
    gens = windowed_block_group(SetDescriptor.naturals(), 6)[:30]
    result = closure_of(encode_rows(gens, 6), max_elements=50)
    assert not result.closed  # stopped before the frontier burst the budget
    assert result.size() <= 50
    assert result.products <= BLOCK_PRODUCTS  # the first batch already overflows


def test_closure_budget_below_the_generators():
    gens = family_generators(dyadic_disjoint_family(2), 6)
    both = len(unique_rows(np.concatenate([gens, invert_rows(gens)])))
    for cap in (0, both - 1):
        result = closure_of(gens, cap)
        assert (result.size(), result.frontier_sizes, result.products, result.closed) == (
            0, (), 0, False)
        assert result.rows.shape == (0, 6) and result.rows.dtype == np.int8
        assert closure_by_row_scan(gens, cap)[1:] == ((), 0, False)
    # a budget of exactly |A u A^-1| seeds the search, which stops at the
    # first batch of new products
    result = closure_of(gens, both)
    assert (result.size(), result.frontier_sizes, result.closed) == (both, (both,), False)
    rows, frontier_sizes, products, closed = closure_by_row_scan(gens, both)
    assert np.array_equal(result.rows, rows)
    assert (frontier_sizes, products, closed) == (result.frontier_sizes, result.products, False)


def test_block_group_enumeration():
    b0 = common_point_block(0)
    assert b0.below(8) == [0, 1, 3, 5, 7]
    group = windowed_block_group(b0, 8)
    assert len(group) == 120  # all permutations of five points
    assert len(set(group)) == 120
    for g in group[:10]:
        assert sorted(g.domain()) == [0, 1, 3, 5, 7]
        assert sorted(g.image()) == [0, 1, 3, 5, 7]
    with pytest.raises(BudgetExceededError):
        windowed_block_group(SetDescriptor.naturals(), 16)


def test_sparse_generators_generate_the_full_group():
    b0 = common_point_block(0)
    sparse = sparse_group_generators(b0, 8)
    assert len(sparse) == 2  # a transposition and a full cycle
    result = closure_of(sparse)
    group = set(windowed_block_group(b0, 8))
    assert set(result.elements) >= group
    # closure also picks up restrictions, so compare against the union
    perms = {f for f in result.elements if len(f.pairs) == 5}
    assert perms == group


def _sparse_maps(block, window):
    """The transposition of the first two points and the full cycle, as maps."""
    pts = block.below(window)
    if len(pts) < 2:
        return [PartialBijection.of([(p, p) for p in pts], window)]
    swap = {pts[0]: pts[1], pts[1]: pts[0]}
    maps = [PartialBijection.of({p: swap.get(p, p) for p in pts}, window)]
    if len(pts) > 2:
        maps.append(PartialBijection.of(zip(pts, pts[1:] + pts[:1]), window))
    return maps


def test_sparse_rows_encode_the_transposition_and_the_cycle():
    small = [SetDescriptor.from_points(p) for p in ([], [4], [2, 7])]
    for block in small + [blk for fam in CATALOG for blk in fam.blocks]:
        for window in (9, 16):
            got = sparse_group_generators(block, window)
            want = encode_rows(_sparse_maps(block, window), window)
            assert got.dtype == np.int8 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_disjoint_family_closure_sizes():
    fam = dyadic_disjoint_family(2)
    for window, expected in ((6, 8), (8, 27)):
        result = closure_of(family_generators(fam, window))
        assert result.size() == expected
        assert result.closed
        # every element times every deduplicated generator, once
        assert result.products == result.size() * result.frontier_sizes[0]
        diff = compare_with_structural(result, fam)
        assert diff.matches, (diff.missing, diff.extra)


def test_common_point_closure_matches_structure():
    fam = common_point_family(3)
    result = closure_of(family_generators(fam, 8))
    assert result.size() == 193
    assert result.closed
    assert result.products == result.size() * result.frontier_sizes[0]
    diff = compare_with_structural(result, fam)
    assert diff.matches
    assert diff.closure_size == diff.structural_size == 193


def test_structural_rows_are_closed():
    fam = common_point_family(3)
    rows = structural_rows(fam, 8)
    closed, checked = rows_closed_under_ops(rows)
    assert closed and checked >= len(rows) ** 2


def test_union_with_too_small_bound_is_not_closed():
    fam = bound_example()
    w = minimal_window(fam, [[1, 1], [1, 1]])
    rows = capped_rows(fam, w, [[1, 1], [1, 1]])
    closed, _ = rows_closed_under_ops(rows)
    assert not closed  # identity composite has rank 2
    assert union_closed(fam, 1, w)[0] is False


def test_closure_bound_satisfied_branch():
    fam = bound_example()
    report = check_closure_bound(fam, 2)
    assert report.satisfied and report.closed
    assert report.max_overlap == 2
    assert report.bad_pair is None and report.witness is None
    # every map of A u A^-1 acts once on each of U's 42 images, and the
    # classes count U's 3,223 maps; the enumerating oracle composes each
    # map of U once with every map of A u A^-1
    rows = capped_rows(fam, report.window, [[2, 2], [2, 2]])
    gens = union_generators(fam, 2, report.window)
    both = unique_rows(np.concatenate([gens, invert_rows(gens)]))
    assert (len(rows), len(both)) == (3223, 13)
    assert report.order == len(rows)
    assert [(c.rank, len(c.images), c.group_order) for c in report.classes] == [
        (0, 1, 1), (1, 10, 1), (2, 29, 2), (6, 1, 720), (6, 1, 720)]
    assert report.products_checked == 42 * len(both) == 546
    assert union_closed(fam, 2, report.window) == (True, len(rows) * len(both)) == (True, 41899)


def test_closure_bound_refuses_a_negative_bound():
    # every rank-bounded union holds the empty map, so no escape of rank
    # 0 > -1 may be reported
    with pytest.raises(InvalidBoundError, match="at least 0"):
        check_closure_bound(dyadic_disjoint_family(2), -1)
    assert issubclass(InvalidBoundError, ValueError)


def test_closure_bound_refuses_a_window_below_the_minimal_one():
    # bound2's overlap points 16 and 17 lie outside window 3
    fam = bound_example()
    least = minimal_window(fam, [[2, 2], [2, 2]])
    assert check_closure_bound(fam, 2, least).products_checked == 546
    for window in (3, least - 1):
        with pytest.raises(WindowMismatchError, match=f"window {window} .* {least}"):
            check_closure_bound(fam, 2, window)
    # the violated branch needs no window
    assert not check_closure_bound(fam, 1, 3).satisfied


def test_closure_bound_refuses_a_union_past_the_image_budget(monkeypatch):
    # disjoint:2 at window 120: blocks of 60 and 30 points.  At bound 4
    # the union may have 1 + 2 + sum_{k <= 4} (C(60, k) + C(30, k)) =
    # 555,618 images, and the check is refused before any orbit step; at
    # bound 3 it has 40,578 and is counted, in under a second
    fam = named_family("disjoint:2")
    assert [len(b.below(120)) for b in fam.blocks] == [60, 30]
    real = invsemi.closure.d_classes
    monkeypatch.setattr(invsemi.closure, "d_classes", None)
    with pytest.raises(BudgetExceededError, match="may have 555618 images; refusing more than 100000"):
        check_closure_bound(fam, 4, 120)
    monkeypatch.setattr(invsemi.closure, "d_classes", real)
    report = check_closure_bound(fam, 3, 120)
    assert report.closed and sum(len(c.images) for c in report.classes) == 40578
    assert [c.group_order for c in report.classes[-2:]] == [math.factorial(30), math.factorial(60)]


def test_closure_bound_counts_unions_past_the_enumeration_cap():
    # blocks of more than GROUP_ENUM_CAP points below the default window:
    # 11 in five-ring at 41, 12 in disjoint:4 at 25
    for spec, n, window, order in (("five-ring", 3, 41, 93_674_084),
                                   ("disjoint:4", 0, 25, 479_002_329)):
        report = check_closure_bound(named_family(spec), n)
        assert (report.window, report.closed, report.order) == (window, True, order)
        assert report.order == sum(c.size() for c in report.classes)


def test_closure_bound_violated_branch():
    fam = bound_example()
    report = check_closure_bound(fam, 1)
    assert not report.satisfied
    assert report.bad_pair == (0, 1)
    w = report.witness
    assert w["rank"] == 2 and w["rank"] > report.n
    assert w["left"] == "id(B1)" and w["right"] == "id(B0)"
    assert "16" in w["composite"] and "17" in w["composite"]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_closure_bound_on_random_families(seed):
    rng = random.Random(seed)
    fam, bound, window = random_uniform_family(rng)
    report = check_closure_bound(fam, bound, window)
    assert report.satisfied and report.closed


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_union_closed_matches_all_pairs_oracle(seed):
    fam, bound, window = random_uniform_family(random.Random(seed))
    b = len(fam.blocks)
    for n in range(max(bound - 1, 0), bound + 1):
        rows = capped_rows(fam, window, [[n] * b for _ in range(b)])
        assert union_closed(fam, n, window)[0] == rows_closed_under_ops(rows)[0]


def _escape_by_plain_scan(rows, step):
    """The first (i, j) with rows[i] o rows[j] outside the rows, by dicts,
    and the products in the batches of `step` left factors up to it."""
    maps = [decode_row(r, rows.shape[1]).as_dict() for r in rows]
    inside = {frozenset(f.items()) for f in maps}
    for i, f in enumerate(maps):
        for g in maps:
            h = compose_dicts(f, g)
            if frozenset(h.items()) not in inside:
                return min(len(rows), (i // step + 1) * step) * len(rows), h
    return len(rows) ** 2, None


def _escape_cases(rng):
    closed = [closure_of(family_generators(dyadic_disjoint_family(2), 6)).rows,
              structural_rows(common_point_family(3), 8)]
    for _ in range(3):
        gens = encode_rows([random_partial_injection(rng, 5) for _ in range(2)], 5)
        closed.append(closure_of(gens).rows)
    yield from closed
    for rows in closed:  # one element left out, so a product escapes
        yield np.delete(rows, rng.randrange(len(rows)), axis=0)
    yield encode_rows([random_partial_injection(rng, 6) for _ in range(30)], 6)


def test_composition_escape_matches_a_plain_scan(rng, monkeypatch):
    for block_products in (BLOCK_PRODUCTS, 300):
        monkeypatch.setattr("invsemi.closure.BLOCK_PRODUCTS", block_products)
        for rows in _escape_cases(rng):
            checked, escape = composition_escape(rows)
            want_checked, want = _escape_by_plain_scan(rows, max(1, block_products // len(rows)))
            assert checked == want_checked
            if want is None:
                assert escape is None
            else:
                assert decode_row(escape, rows.shape[1]).as_dict() == want


def test_union_closed_above_every_overlap():
    # strata of rank above every overlap are no products of block-group
    # maps, so only the per-stratum generators reach them
    for fam, n in ((dyadic_disjoint_family(2), 1), (common_point_family(3), 2)):
        b = len(fam.blocks)
        rows = capped_rows(fam, 8, [[n] * b for _ in range(b)])
        assert rows_closed_under_ops(rows)[0]
        closed, products = union_closed(fam, n, 8)
        assert closed and products < len(rows) ** 2


def test_union_closed_refuses_a_generator_outside_the_union(monkeypatch):
    # a generator outside U proves nothing about U's closedness, so it is
    # an error, not a "not closed" verdict
    fam = bound_example()
    window = minimal_window(fam, chain_capacity_matrix(fam))
    real = union_generators

    def with_rank_two(family, n, window):
        extra = blank_rows(1, window)
        extra[0, [0, 6]] = [3, 9]  # B0's first two points onto B1's, rank 2 > n = 1
        return np.concatenate([real(family, n, window), extra])

    monkeypatch.setattr(conftest, "union_generators", with_rank_two)
    with pytest.raises(ValueError, match="outside"):
        union_closed(fam, 1, window)


def _wide_core_family():
    """Three blocks on residues mod 20 sharing the point 99: at window 100
    the union's 16 defined columns of 7 bits need one key group per block."""
    return BlockFamily(tuple(
        SetDescriptor.build(add=[99], modulus=20, residues=[r]) for r in (0, 7, 14)
    ), name="wide-core")


def _hub_not_first_family():
    """Unequal blocks whose largest (block 1: six points below window 10)
    is not block 0; block 2 has two points, so a rank cap of 3 exceeds it."""
    return BlockFamily((
        SetDescriptor.build(add=[2], modulus=8, residues=[1]),
        SetDescriptor.build(add=[1], modulus=2, residues=[0]),
        SetDescriptor.residue_class(3, 4),
    ), name="hub-not-first")


def _union_cases():
    for seed in range(12):
        fam, bound, window = random_uniform_family(random.Random(4000 + seed))
        for n in range(max(bound - 1, 0), bound + 1):
            yield pytest.param(fam, n, window, id=f"uniform-{seed}-n{n}")
    yield pytest.param(bound_example(), 0, 22, id="bound2-n0")
    yield pytest.param(bound_example(), 1, 22, id="bound2-n1")
    yield pytest.param(bound_example(), 2, 22, id="bound2-n2")
    for n in (0, 1):
        yield pytest.param(_wide_core_family(), n, 100, id=f"wide-core-n{n}")
    for n in (1, 3):
        yield pytest.param(_hub_not_first_family(), n, 10, id=f"hub-not-first-n{n}")
    yield pytest.param(_markers1_b4(), 1, 18, id="markers1-b4-n1")


@pytest.mark.parametrize("fam, n, window", _union_cases())
def test_union_closed_matches_the_closure_search(fam, n, window):
    closed, products = union_closed(fam, n, window)
    want, want_products = union_closed_by_search(fam, n, window)
    assert closed == want
    if closed:
        assert products == want_products


@pytest.mark.parametrize("fam, n, window", _union_cases())
def test_counting_matches_the_closedness_index(fam, n, window, monkeypatch):
    closed, classes, actions = union_classes(fam, n, window)
    assert closed == union_closed(fam, n, window)[0]
    gens = union_generators(fam, n, window)
    if closed:
        table = union_table(fam, n, window)
        assert frozenset(classes) == table
        # every map of A u A^-1 acts once on each image of U
        both = unique_rows(np.concatenate([gens, invert_rows(gens)]))
        assert actions == sum(len(c.images) for c in table) * len(both)
    # the classes count <A> as its enumeration lists it
    if classes is not None:
        assert sum(c.size() for c in classes) == closure_of(gens).size()
    # the all-pairs generators decide the same
    monkeypatch.setattr(invsemi.closure, "union_generators", union_generators_all_pairs)
    assert union_classes(fam, n, window)[0] == closed


def test_counting_matches_the_closedness_index_on_seeded_draws():
    verdicts = []
    for seed in range(60):
        fam, bound, window = random_uniform_family(random.Random(7000 + seed))
        for n in range(max(bound - 1, 0), bound + 1):
            closed = union_classes(fam, n, window)[0]
            assert closed == union_closed(fam, n, window)[0], (seed, n)
            verdicts.append(closed)
    assert set(verdicts) == {True, False}


def _row_set(rows):
    return {r.tobytes() for r in rows}


@pytest.mark.parametrize("fam, n, window", _union_cases())
def test_hub_generators_match_all_pairs(fam, n, window, monkeypatch):
    hub = union_generators(fam, n, window)
    all_pairs = union_generators_all_pairs(fam, n, window)
    assert _row_set(hub) <= _row_set(all_pairs)
    closed, products = union_closed(fam, n, window)
    monkeypatch.setattr(conftest, "union_generators", union_generators_all_pairs)
    closed_all, products_all = union_closed(fam, n, window)
    assert closed == closed_all
    if closed:
        # |U| x |A u A^-1| under either generator set
        b = len(fam.blocks)
        size = len(capped_rows(fam, window, [[n] * b for _ in range(b)]))
        for gens, count in ((hub, products), (all_pairs, products_all)):
            both = unique_rows(np.concatenate([gens, invert_rows(gens)]))
            assert count == size * len(both)


def test_hub_is_the_first_largest_block():
    fam = _hub_not_first_family()
    hub = fam.blocks[1].below(10)
    assert [len(b.below(10)) for b in fam.blocks] == [3, 6, 2]
    # past the sparse generators and the empty map: ranks 1-3 from
    # block 0, 1-3 from the hub itself and 1-2 from block 2, all into the hub
    strata = union_generators(fam, 3, 10)[len(family_generators(fam, 10, sparse=True)) + 1:]
    assert len(strata) == 3 + 3 + 2
    for row in strata:
        assert set(row[row >= 0].tolist()) == set(hub[: int((row >= 0).sum())])


def test_union_closed_verdicts_on_fixed_families(monkeypatch):
    assert union_closed(bound_example(), 1, 22)[0] is False
    assert union_closed(bound_example(), 2, 22)[0] is True
    fam = _wide_core_family()
    assert len(union_index(fam, 1, 100).groups) == 3
    assert [union_closed(fam, n, 100)[0] for n in (0, 1)] == [False, True]
    # an unclosed union counts the products up to and including the batch
    # that escapes, in one batch per round and in batches of 64 products
    unclosed = ((bound_example(), 1, 22), (_hub_not_first_family(), 1, 10), (fam, 0, 100))
    for block_products, counts in ((BLOCK_PRODUCTS, (100, 169, 100)), (64, (60, 52, 60))):
        monkeypatch.setattr("invsemi.closure.BLOCK_PRODUCTS", block_products)
        assert [union_closed(*case) for case in unclosed] == [(False, c) for c in counts]
    monkeypatch.undo()
    fam = _hub_not_first_family()
    for n, want in ((1, False), (2, True)):
        rows = capped_rows(fam, 10, [[n] * 3] * 3)
        assert union_closed(fam, n, 10)[0] is rows_closed_under_ops(rows)[0] is want


# -- one-word row keys ----------------------------------------------------


def _key_groups(rng, window, span):
    """Overlapping key groups over the points below `span`: the points in
    random order, cut into runs of at most a third of them that fit one
    key word, each run also taking the first point of the next, so
    neighbouring groups share a point."""
    size = min(KEY_BITS // window.bit_length(), max(2, span // 3))
    cols = rng.sample(range(span), span)
    runs = [cols[i : i + size - 1] for i in range(0, span, size - 1)]
    return [run + after[:1] for run, after in zip(runs, runs[1:] + [[]])]


def _grouped_rows(rng, count, window, groups, span):
    """Distinct sorted rows of partial injections, each with its domain
    inside one of `groups` and its images below `span`; the empty map
    and maps on shared points only lie in several groups."""
    rows = np.full((count, window), -1, dtype=np.int8)
    for row in rows:
        group = rng.choice(groups)
        dom = rng.sample(group, rng.randint(0, len(group)))
        row[dom] = rng.sample(range(span), len(dom))
    return unique_rows(rows)


def _rows_at(index, positions):
    """The int8 rows of U at these positions of the index."""
    entries = index.entries[positions]
    return np.where(entries == index.ones, -1, entries).astype(np.int8)


def _check_lookup(index, got, want):
    """`find` or `products_in` against `rows_by_bytes`: None in the same
    cases, otherwise distinct sorted positions holding the wanted rows."""
    assert (got is None) == (want is None)
    if want is not None:
        assert np.all(np.diff(got) > 0) and len(got) == len(want)
        assert np.array_equal(unique_rows(_rows_at(index, got)), want)


def _spanning_pair(groups, span):
    """Two points below `span` that no group holds together."""
    return next((a, b) for a, b in itertools.combinations(range(span), 2)
                if not any(a in g and b in g for g in groups))


# windows 7 and 63 use every value of b bits: the top one, all ones, is -1
@pytest.mark.parametrize("window, span", [(7, 7), (22, 12), (63, 63), (MAX_WINDOW, MAX_WINDOW)])
def test_row_keys_follow_the_bytewise_order(rng, window, span):
    groups = _key_groups(rng, window, span)
    rows = _grouped_rows(rng, 300, window, groups, span)
    index = RowIndex(rows, groups)
    assert np.all(np.diff(index.keys) > 0)
    # under each group, the keys list the rows it holds as unique_rows sorts them
    position = np.arange(len(index.keys)) if index.position is None else index.position
    bounds = np.searchsorted(index.keys, np.append(index.tags, NO_KEY))
    for t, cols in enumerate(groups):
        held = rows[~np.delete(rows >= 0, cols, axis=1).any(axis=1)]
        assert np.array_equal(_rows_at(index, position[bounds[t] : bounds[t + 1]]), held)
    # a row left out of U
    assert RowIndex(rows[1:], groups).find(rows[:1]) is None
    # one group of all the points: the bytewise order itself, where it fits one word
    if span * window.bit_length() <= KEY_BITS:
        whole = RowIndex(rows, [range(span)])
        assert whole.position is None and len(whole.groups) == 1
        assert np.array_equal(whole.find(rows), np.arange(len(rows)))
        assert np.array_equal(whole.entries, whole.encode(rows))
    else:
        with pytest.raises(ValueError, match="more than one 52-bit word"):
            RowIndex(rows, [range(span)])


def test_row_keys_reject_a_row_spanning_two_groups():
    # c is defined on both groups and agrees with b on group 0's columns,
    # so only the group check keeps it out of U
    groups = [[0, 1], [1, 2]]
    u = np.full((4, 40), -1, dtype=np.int8)
    u[1, 0], u[2, 2], u[3, [0, 1]] = 5, 7, [1, 0]
    c = u[1].copy()
    c[2] = 7
    index = RowIndex(u, groups)
    assert np.array_equal(unique_rows(_rows_at(index, index.find(u))), unique_rows(u))
    assert index.find(c[None]) is None and index.find(np.stack([u[1], c])) is None
    with pytest.raises(ValueError, match="no key group"):
        index.pack(c[None])
    with pytest.raises(ValueError, match="lies in no key group"):
        RowIndex(np.concatenate([u, c[None]]), groups)


def test_aliased_rows_get_one_position():
    # groups share column 2: the empty map and 2 -> 4 lie in both
    groups = [[0, 1, 2], [2, 3, 4]]
    u = np.full((4, 8), -1, dtype=np.int8)
    u[1, 2], u[2, 0], u[3, [3, 4]] = 4, 1, [2, 3]
    index = RowIndex(u[[3, 0, 1, 2, 1, 0]], groups)
    assert (len(index.entries), len(index.keys)) == (4, 6)
    aliases = index.find(u[:2])
    assert len(aliases) == 2
    assert np.array_equal(unique_rows(_rows_at(index, aliases)), unique_rows(u[:2]))
    # products keyed under either group land on the same two positions
    gens = np.full((2, 8), -1, dtype=np.int8)
    gens[0, [0, 2]], gens[1, [2, 3]] = [0, 2], [2, 3]
    packed = index.pack(gens)
    assert packed[0].shape == (8, 2)
    assert np.array_equal(index.products_in(index.encode(u[:2]), packed), aliases)


def test_sorted_distinct_keys_match_np_unique(rng):
    # the lookups deduplicate int64 keys, and positions under aliases, by
    # sort and mask; wide keys reach the sign bit
    for size in (0, 1, 2, 50, 3205):
        keys = np.array([rng.randrange(-40, 40) << 56 | rng.randrange(3) for _ in range(size)],
                        dtype=np.int64)
        got = _sorted_distinct(keys)
        assert got.dtype == keys.dtype and np.array_equal(got, np.unique(keys))


@pytest.mark.parametrize("window, span", [(8, 8), (30, 20), (MAX_WINDOW, 60)])
def test_product_keys_match_composed_rows(rng, window, span):
    groups = _key_groups(rng, window, span)
    left = _grouped_rows(rng, 60, window, groups, span)
    gens = _grouped_rows(rng, 7, window, groups, span)
    products = compose_rows(left, gens).reshape(-1, window)
    rows = unique_rows(np.concatenate([left, gens, products]))
    index = RowIndex(rows, groups)
    got = index.products_in(index.encode(left), index.pack(gens))
    _check_lookup(index, got, unique_rows(products))
    # drop one product outside left and gens from U: the lookup reports it
    factors = {r.tobytes() for r in np.concatenate([left, gens])}
    missing = [r for r in rows if r.tobytes() not in factors]
    if missing:
        smaller = RowIndex(rows[~(rows == missing[0]).all(axis=1)], groups)
        assert smaller.products_in(smaller.encode(left), smaller.pack(gens)) is None
    # a map that carries a defined point of U onto a column no group holds
    if span < window:
        shift = np.full((1, window), -1, dtype=np.int8)
        shift[0, window - 1] = 0
        with pytest.raises(ValueError, match="no key group"):
            index.pack(shift)


# -- the index from raw rows ----------------------------------------------------

# span < window leaves columns outside every group; 7 and 63 are the
# widest windows of 3 and 6 bits
_INDEX_WINDOWS = [(7, 5), (22, 12), (63, 40), (MAX_WINDOW, 60)]


def _raw_rows(rng, rows):
    """`rows` shuffled, a third of them twice."""
    picks = list(range(len(rows))) + rng.choices(range(len(rows)), k=len(rows) // 3)
    rng.shuffle(picks)
    return rows[picks]


@pytest.mark.parametrize("window, span", _INDEX_WINDOWS)
def test_row_index_sorts_and_deduplicates_raw_rows(rng, window, span):
    groups = _key_groups(rng, window, span)
    for count in (1, 2, 40, 300):
        rows = _grouped_rows(rng, count, window, groups, span)
        raw, distinct = RowIndex(_raw_rows(rng, rows), groups), RowIndex(rows, groups)
        assert np.array_equal(raw.keys, distinct.keys)
        assert np.array_equal(raw.entries, distinct.entries)
        assert (raw.position is None) == (distinct.position is None)
        assert raw.position is None or np.array_equal(raw.position, distinct.position)
        assert len(raw.entries) == len(rows)
        assert np.array_equal(unique_rows(_rows_at(raw, np.arange(len(rows)))), rows)


def _markers1_b4():
    """Four blocks, each pair sharing one marker point: at bound 1 its
    union's 18 columns of 5 bits need more than one key word."""
    pairs = itertools.combinations(range(4), 2)
    return marker_family(4, {pair: 1 for pair in pairs}, name="markers1-b4")


def test_union_index_from_parts_matches_the_sorted_union():
    cases = [(bound_example(), 2, 22), (common_point_family(3), 1, 9),
             (dyadic_disjoint_family(3), 1, 12), (_markers1_b4(), 1, 18)]
    for fam, n, window in cases:
        b = len(fam.blocks)
        rows = capped_rows(fam, window, [[n] * b] * b)
        raw = union_index(fam, n, window)
        distinct = RowIndex(rows, raw.groups)
        assert np.array_equal(raw.keys, distinct.keys)
        assert np.array_equal(raw.entries, distinct.entries)
        assert raw.position is None or np.array_equal(raw.position, distinct.position)
    # bound2's U at bound 2: the strata repeat 162 maps of the groups and each other
    fam = bound_example()
    assert (len(structural_parts(fam, 22, [[2] * 2] * 2)),
            len(capped_rows(fam, 22, [[2] * 2] * 2))) == (3385, 3223)


def test_union_index_keys_wide_unions_by_block():
    # bound2's 10 live columns of 5 bits fit one word, with one position per key
    index = union_index(bound_example(), 2, 22)
    assert len(index.groups) == 1 and index.position is None
    # markers1-b4's 18 do not: one group per block, and the maps on marker
    # points only are aliases
    fam = _markers1_b4()
    assert minimal_window(fam, [[1] * 4] * 4) == 18
    index = union_index(fam, 1, 18)
    assert [g.tolist() for g in index.groups] == [blk.below(18) for blk in fam.blocks]
    assert index.position is not None and len(index.keys) > len(index.entries)
    assert union_closed(fam, 1, 18) == (True, 64100)
    report = check_closure_bound(fam, 1)
    assert (report.window, report.closed, report.products_checked) == (18, True, 460)


@pytest.mark.parametrize("window, span", _INDEX_WINDOWS)
def test_find_matches_a_dict_of_row_bytes(rng, window, span):
    groups = _key_groups(rng, window, span)
    u = _grouped_rows(rng, 200, window, groups, span)
    index = RowIndex(_raw_rows(rng, u), groups)
    inside = _raw_rows(rng, u[rng.sample(range(len(u)), min(50, len(u)))])
    foreign = _grouped_rows(rng, 20, window, groups, span)
    dead = u[:1].copy()
    dead[0, window - 1] = window - 1  # a column no group holds
    spanning = np.full((1, window), -1, dtype=np.int8)
    spanning[0, list(_spanning_pair(groups, span))] = [0, 1]
    outcomes = []
    for queries in (inside, u[:0], np.concatenate([inside, foreign]),
                    np.concatenate([inside, dead]), np.concatenate([inside, spanning])):
        got = index.find(queries)
        _check_lookup(index, got, rows_by_bytes(u, queries))
        outcomes.append(got is None)
    assert outcomes[0] is False and outcomes[-2:] == [True, True]


@pytest.mark.parametrize("window, span", _INDEX_WINDOWS)
def test_products_in_matches_a_dict_of_row_bytes(rng, window, span):
    groups = _key_groups(rng, window, span)
    left = _grouped_rows(rng, 60, window, groups, span)
    left[:, 0] = -1  # no row of left is defined at 0
    left = unique_rows(left)
    gens = _grouped_rows(rng, 7, window, groups, span)
    u = np.concatenate([left, gens, compose_rows(left, gens).reshape(-1, window)])

    def lookup(u_rows, maps):
        index = RowIndex(_raw_rows(rng, u_rows), groups)
        packed = index.pack(maps)
        assert packed[0].shape == (window, len(maps))  # one column per map
        got = index.products_in(index.encode(left), packed)
        _check_lookup(index, got, rows_by_bytes(u_rows, compose_rows(left, maps).reshape(-1, window)))
        return got

    # maps of U lie in its groups
    assert lookup(u, gens) is not None
    # U without one product outside left and gens: the lookup reports it
    kept = {r.tobytes() for r in np.concatenate([left, gens])}
    drop = next(p for p in u[len(left) + len(gens):] if p.tobytes() not in kept)
    assert lookup(u[~(u == drop).all(axis=1)], gens) is None
    # a map defined on a column no group holds, or on two groups, is
    # refused, whether or not a product of left with it is defined there
    hit = int(np.flatnonzero((left >= 0).any(axis=0))[0])
    index = RowIndex(u, groups)
    for target in (0, hit):
        g = gens[:1].copy()
        g[g == target] = -1
        g[0, window - 1] = target
        with pytest.raises(ValueError, match="no key group"):
            index.pack(g)
    a, b = _spanning_pair(groups, span)
    g = np.full((1, window), -1, dtype=np.int8)
    g[0, [a, b]] = [hit, 0]
    with pytest.raises(ValueError, match="no key group"):
        index.pack(g)


def test_minimal_window_covers_the_data():
    fam = bound_example()
    w = minimal_window(fam, [[2, 2], [2, 2]])
    assert w > 17  # the overlap points must be visible
    for block in fam.blocks:
        assert len(block.below(w)) >= 2


def test_minimal_window_matches_the_window_scan():
    rng = random.Random(20261024)
    cases = []
    for spec, want in (("bound2", 22), ("five-ring", 41), ("unequal", 22),
                       ("common-point:5", 81), ("disjoint:5", 49)):
        fam = named_family(spec)
        cases.append((fam, chain_capacity_matrix(fam)))
        assert minimal_window(*cases[-1]) == want
    for fam in CATALOG:
        cases.append((fam, chain_capacity_matrix(fam)))
    for _ in range(30):
        fam, _, _ = random_uniform_family(rng)
        b = len(fam.blocks)
        cases.append((fam, [[rng.randint(0, 3) for _ in range(b)] for _ in range(b)]))
    outcomes = []
    for fam, ranks in cases:
        got, want = (_window_or_refusal(find, fam, ranks)
                     for find in (minimal_window, minimal_window_by_scan))
        assert got == want, fam.name
        outcomes.append(type(got))
    assert set(outcomes) == {int, str}
    # past the int8 limit: a block with too few members below it, and an
    # overlap point above it
    sparse = BlockFamily((SetDescriptor.residue_class(0, 60), SetDescriptor.residue_class(1, 2)))
    far = BlockFamily((SetDescriptor.build(add=[131], modulus=2, residues=[0]),
                       SetDescriptor.residue_class(1, 2)))
    for fam in (sparse, far):
        for find in (minimal_window, minimal_window_by_scan):
            with pytest.raises(BudgetExceededError, match="int8 limit"):
                find(fam, [[1, 1], [1, 1]])


def _window_or_refusal(find, family, ranks):
    try:
        return find(family, ranks)
    except BudgetExceededError as err:
        return str(err)


# -- row builders against the object route ----------------------------------------------------


def _structural_oracle(family, window, capacity):
    """Every block-group and stratum map built as a PartialBijection, then
    encoded and deduplicated."""
    pts = [blk.below(window) for blk in family.blocks]
    maps = [PartialBijection.of([], window)]
    for p in pts:
        maps += [PartialBijection.of(zip(p, img), window) for img in itertools.permutations(p)]
    for i, src in enumerate(pts):
        for j, dst in enumerate(pts):
            for k in range(1, capacity[i][j] + 1):
                for dom in itertools.combinations(src, k):
                    for img in itertools.permutations(dst, k):
                        maps.append(PartialBijection.of(zip(dom, img), window))
    return unique_rows(encode_rows(maps, window))


def _row_builder_cases():
    # catalog families at the widest window up to 24 with at most five
    # points per block, which keeps the object route to about a second
    for fam in CATALOG:
        b = len(fam.blocks)
        window = max(
            w for w in range(1, 25) if all(len(blk.below(w)) <= 5 for blk in fam.blocks)
        )
        bound = max(fam.intersection_size(i, j) for i in range(b) for j in range(b) if i != j)
        yield pytest.param(fam, window, bound, id=fam.name)
    for seed in range(8):
        fam, bound, window = random_uniform_family(random.Random(seed))
        yield pytest.param(fam, window, bound, id=f"uniform-{seed}")


@pytest.mark.parametrize("fam, window, bound", _row_builder_cases())
def test_structural_rows_match_the_object_route(fam, window, bound):
    b = len(fam.blocks)
    uniform = [[[n] * b for _ in range(b)] for n in range(bound + 2)]
    built = [(structural_rows(fam, window), chain_capacity_matrix(fam))]
    built += [(capped_rows(fam, window, capacity), capacity) for capacity in uniform]
    for rows, capacity in built:
        want = _structural_oracle(fam, window, capacity)
        assert rows.dtype == np.int8
        assert rows.shape == want.shape and rows.tobytes() == want.tobytes()


@pytest.mark.parametrize("fam, window, bound", _row_builder_cases())
def test_row_builders_match_the_per_tuple_construction(fam, window, bound):
    b = len(fam.blocks)
    for blk in fam.blocks:
        assert group_rows(blk, window).tobytes() == group_rows_by_loop(blk, window).tobytes()
    for capacity in [chain_capacity_matrix(fam)] + [[[n] * b] * b for n in range(bound + 2)]:
        rows = capped_rows(fam, window, capacity)
        want = structural_rows_by_loop(fam, window, capacity)
        assert rows.shape == want.shape and rows.tobytes() == want.tobytes()


def test_block_group_keeps_the_permutation_order():
    cases = (
        (common_point_block(0), 8),
        (SetDescriptor.naturals(), 7),  # GROUP_ENUM_CAP points
        (SetDescriptor.residue_class(0, 20), 15),  # one point
        (SetDescriptor.residue_class(5, 20), 4),  # no point: the empty map
    )
    for block, window in cases:
        pts = block.below(window)
        want = [PartialBijection.of(zip(pts, img), window) for img in itertools.permutations(pts)]
        assert windowed_block_group(block, window) == want


def test_closure_rows_are_the_encoded_elements(rng):
    runs = [
        closure_of(encode_rows([random_partial_injection(rng, 6) for _ in range(3)], 6)),
        closure_of(family_generators(common_point_family(3), 8)),
        closure_of(encode_rows(windowed_block_group(SetDescriptor.naturals(), 6)[:30], 6),
                   max_elements=50),
    ]
    for result in runs:
        encoded = encode_rows(result.elements, result.window)
        assert result.rows.dtype == np.int8
        assert np.array_equal(result.rows, encoded)
        assert np.array_equal(unique_rows(encoded), encoded)  # sorted bytewise, distinct
        assert result.size() == len(result.elements)


def test_row_builders_refuse_windows_past_the_int8_limit():
    fam = BlockFamily((SetDescriptor.residue_class(0, 20), SetDescriptor.residue_class(1, 20)))
    with pytest.raises(BudgetExceededError):
        structural_rows(fam, MAX_WINDOW + 1)
    with pytest.raises(BudgetExceededError):
        windowed_block_group(fam.blocks[0], MAX_WINDOW + 1)
    for sparse in (False, True):
        with pytest.raises(BudgetExceededError):
            family_generators(fam, MAX_WINDOW + 1, sparse=sparse)
    # a huge window is refused before any block's points are listed, so
    # the refusal names the int8 limit, not a block's point count
    bound2, huge = bound_example(), 10**6
    for sparse in (False, True):
        with pytest.raises(BudgetExceededError, match="int8 limit"):
            family_generators(bound2, huge, sparse=sparse)
    with pytest.raises(BudgetExceededError, match="int8 limit"):
        structural_rows(bound2, huge)
    with pytest.raises(BudgetExceededError, match="int8 limit"):
        check_closure_bound(bound2, 2, huge)


# -- row input and the batch dedup ----------------------------------------------------


def _generator_cases():
    # every family at the widest window (up to 16, or its own) with at most
    # four points per block, which keeps the full-group closures small
    fams = [(fam, 16) for fam in CATALOG]
    for seed in range(8):
        fam, _, window = random_uniform_family(random.Random(seed))
        fams.append((fam, window))
    for fam, top in fams:
        window = max(
            w for w in range(1, top + 1) if all(len(blk.below(w)) <= 4 for blk in fam.blocks)
        )
        yield pytest.param(fam, window, id=f"{fam.name}-w{window}")
    # one family on both sides of KEY_WINDOW: one-word keys at 15, the rows'
    # bytes at 16 (682 and 1,069 elements in 10 rounds)
    fam = next(f for f in CATALOG if f.name == "unequal-overlaps")
    for window in (KEY_WINDOW, KEY_WINDOW + 1):
        yield pytest.param(fam, window, id=f"{fam.name}-w{window}")


@pytest.mark.parametrize("fam, window", _generator_cases())
def test_row_and_map_generators_close_alike(fam, window):
    full = family_generators(fam, window)
    sparse = family_generators(fam, window, sparse=True)
    assert full.dtype == sparse.dtype == np.int8
    whole = closure_of(full)
    assert np.array_equal(whole.rows, closure_of(sparse).rows)
    for gens in (full, sparse):
        maps = [decode_row(r, window) for r in gens]
        for cap in (None, whole.size() // 2):
            got, want = closure_of(gens, cap), closure_of(encode_rows(maps, window), cap)
            assert np.array_equal(got.rows, want.rows)
            assert got.frontier_sizes == want.frontier_sizes
            assert (got.products, got.closed) == (want.products, want.closed)


@pytest.mark.parametrize("fam, window", _generator_cases())
def test_batch_dedup_matches_a_row_scan(fam, window, monkeypatch):
    # small batches split every round, so the order of each frontier
    # decides where a budget stops the search
    monkeypatch.setattr("invsemi.closure.BLOCK_PRODUCTS", 64)
    gens = family_generators(fam, window, sparse=True)
    whole = closure_of(gens)
    size = whole.size()
    kept = False  # whether a stopped round kept the batches before the stop
    for cap in (None, size // 3, size // 2, size - 1):
        got = closure_of(gens, cap)
        rows, frontier_sizes, products, closed = closure_by_row_scan(gens, cap, 64)
        assert np.array_equal(got.rows, rows)
        assert (got.frontier_sizes, got.products, got.closed) == (frontier_sizes, products, closed)
        if not got.closed and got.frontier_sizes:
            last = len(got.frontier_sizes) - 1
            kept |= got.frontier_sizes[last] < whole.frontier_sizes[last]
    if fam.name == "unequal-overlaps":  # windows 14-16, both key routes
        assert kept


_DIGEST = """
import hashlib
from invsemi import closure
from invsemi.catalog import common_point_family, named_family
closure.BLOCK_PRODUCTS = 64
# window 9 takes the one-word keys, window 16 the rows' bytes; the
# budgets stop each search inside a round
for fam, window, caps in ((common_point_family(3), 9, (None, 60, 150)),
                          (named_family("unequal"), 16, (None, 300, 700))):
    gens = closure.family_generators(fam, window, sparse=True)
    for cap in caps:
        r = closure.closure_of(gens, cap)
        print(hashlib.sha256(r.rows.tobytes() + repr((r.frontier_sizes, r.products)).encode())
              .hexdigest())
"""


def test_closure_does_not_depend_on_the_hash_seed():
    # a dedup through Python sets, whose iteration order follows
    # PYTHONHASHSEED, would show here: no frontier may depend on it
    src = str(Path(invsemi.__file__).resolve().parents[1])
    digests = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _DIGEST], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        digests.add(out.stdout)
    assert len(digests) == 1
    assert len(digests.pop().split()) == 6


def test_closure_refuses_rows_that_are_no_partial_injections():
    swap = encode_rows([PartialBijection.of([(0, 1), (1, 0)], 4)], 4)
    assert closure_of(swap).size() == 2  # the swap and the identity on {0, 1}
    bad = [
        (swap.astype(np.int16), ValueError, "2-D int8"),
        (swap[0], ValueError, "2-D int8"),
        ([PartialBijection.of([(0, 1), (1, 0)], 4)], ValueError, "2-D int8"),  # maps, not rows
        ([[1, 0, -1, -1]], ValueError, "2-D int8"),
        (np.array([[4, -1, -1, -1]], np.int8), ValueError, "outside window"),
        (np.array([[-2, -1, -1, -1]], np.int8), ValueError, "outside window"),
        (np.array([[2, -1, 2, -1]], np.int8), NotInjectiveError, "repeated target"),
    ]
    for rows, error, message in bad:
        with pytest.raises(error, match=message):
            closure_of(rows)


def test_closure_of_the_empty_map_at_window_0():
    # a (1, 0) row array has no entry for the range check to read
    empty = PartialBijection.of([], 0)
    result = closure_of(encode_rows([empty], 0))
    assert (result.size(), result.frontier_sizes, result.products, result.closed) == (
        1, (1,), 1, True)
    assert result.rows.shape == (1, 0) and result.elements == (empty,)


def test_structural_diff_names_the_missing_and_extra_maps():
    cases = [
        # rank 2 from block 0 to block 1, past their chain capacity of 1
        (common_point_family(3), 8, [(1, 2), (3, 6)]),
        # rank 3 from block 0 to block 1, past their capacity of 2, at a
        # window past KEY_WINDOW
        (bound_example(), 22, [(0, 3), (6, 9), (12, 15)]),
    ]
    for fam, window, pairs in cases:
        target = structural_rows(fam, window)
        foreign = PartialBijection.of(pairs, window)
        assert foreign not in {decode_row(r, window) for r in target}
        rows = unique_rows(np.concatenate([np.delete(target, 5, axis=0),
                                           encode_rows([foreign], window)]))
        result = ClosureResult(rows, (len(rows),), 0, True, window)
        diff = compare_with_structural(result, fam)
        assert not diff.matches
        assert diff.missing == (decode_row(target[5], window),)
        assert diff.extra == (foreign,)
        assert (diff.closure_size, diff.structural_size) == (len(target), len(target))
