"""Windowed closure engine against the naive dict oracle and the
structural description of the generated union."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import invsemi
from invsemi import (
    BlockFamily,
    BudgetExceededError,
    ClosureResult,
    NotInjectiveError,
    PartialBijection,
    SetDescriptor,
    check_closure_bound,
    closure_of,
    compare_with_structural,
    minimal_window,
)
from invsemi.closure import (
    BLOCK_PRODUCTS,
    MAX_WINDOW,
    compose_rows,
    decode_row,
    encode_rows,
    family_generators,
    invert_rows,
    rows_closed_under_ops,
    sparse_group_generators,
    structural_rows,
    union_closed,
    unique_rows,
)
from invsemi.catalog import (
    bound_example,
    common_point_block,
    common_point_family,
    dyadic_disjoint_family,
    random_uniform_family,
)
from invsemi.families import chain_capacity_matrix
from conftest import (
    closure_by_row_scan,
    closure_dicts,
    compose_dicts,
    invert_dict,
    random_partial_injection,
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
    result = closure_of(gens)
    expected = closure_dicts([g.as_dict() for g in gens])
    got = {frozenset(f.pairs) for f in result.elements}
    assert got == expected
    assert result.closed


def test_closure_budget():
    gens = windowed_block_group(SetDescriptor.naturals(), 6)[:30]
    result = closure_of(gens, max_elements=50)
    assert not result.closed  # stopped before the frontier burst the budget
    assert result.size() <= 50
    assert result.products <= BLOCK_PRODUCTS  # the first batch already overflows


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
    closed, checked = rows_closed_under_ops(rows, 8)
    assert closed and checked >= len(rows) ** 2


def test_union_with_too_small_bound_is_not_closed():
    fam = bound_example()
    w = minimal_window(fam, [[1, 1], [1, 1]])
    rows = structural_rows(fam, w, [[1, 1], [1, 1]])
    closed, _ = rows_closed_under_ops(rows, w)
    assert not closed  # identity composite has rank 2
    assert union_closed(fam, 1, w)[0] is False


def test_closure_bound_satisfied_branch():
    fam = bound_example()
    report = check_closure_bound(fam, 2)
    assert report.satisfied and report.closed
    assert report.max_overlap == 2
    assert report.bad_pair is None and report.witness is None
    assert report.products_checked > 0


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
        rows = structural_rows(fam, window, [[n] * b for _ in range(b)])
        assert union_closed(fam, n, window)[0] == rows_closed_under_ops(rows, window)[0]


def test_union_closed_above_every_overlap():
    # strata of rank above every overlap are no products of block-group
    # maps, so only the per-stratum generators reach them
    for fam, n in ((dyadic_disjoint_family(2), 1), (common_point_family(3), 2)):
        b = len(fam.blocks)
        rows = structural_rows(fam, 8, [[n] * b for _ in range(b)])
        assert rows_closed_under_ops(rows, 8)[0]
        closed, products = union_closed(fam, n, 8)
        assert closed and products < len(rows) ** 2


def test_minimal_window_covers_the_data():
    fam = bound_example()
    w = minimal_window(fam, [[2, 2], [2, 2]])
    assert w > 17  # the overlap points must be visible
    for block in fam.blocks:
        assert len(block.below(w)) >= 2


# -- row builders against the object route ----------------------------------------------------


def _structural_oracle(family, window, capacity):
    """Every block-group and stratum map built as a PartialBijection, then
    encoded and deduplicated."""
    pts = [blk.below(window) for blk in family.blocks]
    maps = [PartialBijection.empty(window)]
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
    for capacity in [chain_capacity_matrix(fam)] + uniform:
        rows = structural_rows(fam, window, capacity)
        want = _structural_oracle(fam, window, capacity)
        assert rows.dtype == np.int8
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
        closure_of([random_partial_injection(rng, 6) for _ in range(3)]),
        closure_of(family_generators(common_point_family(3), 8)),
        closure_of(windowed_block_group(SetDescriptor.naturals(), 6)[:30], max_elements=50),
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
            got, want = closure_of(gens, cap), closure_of(maps, cap)
            assert np.array_equal(got.rows, want.rows)
            assert got.frontier_sizes == want.frontier_sizes
            assert (got.products, got.closed) == (want.products, want.closed)


@pytest.mark.parametrize("fam, window", _generator_cases())
def test_batch_dedup_matches_a_row_scan(fam, window, monkeypatch):
    # small batches split every round, so the order of each frontier
    # decides where a budget stops the search
    monkeypatch.setattr("invsemi.closure.BLOCK_PRODUCTS", 64)
    gens = family_generators(fam, window, sparse=True)
    size = closure_of(gens).size()
    for cap in (None, size // 2, size - 1):
        got = closure_of(gens, cap)
        rows, frontier_sizes, products, closed = closure_by_row_scan(gens, cap, 64)
        assert np.array_equal(got.rows, rows)
        assert (got.frontier_sizes, got.products, got.closed) == (frontier_sizes, products, closed)


_DIGEST = """
import hashlib
from invsemi import closure
from invsemi.catalog import common_point_family
closure.BLOCK_PRODUCTS = 64
gens = closure.family_generators(common_point_family(3), 9, sparse=True)
for cap in (None, 60, 150):  # the budgets stop the search inside a round
    r = closure.closure_of(gens, cap)
    print(hashlib.sha256(r.rows.tobytes() + repr((r.frontier_sizes, r.products)).encode())
          .hexdigest())
"""


def test_closure_does_not_depend_on_the_hash_seed():
    # the dedup iterates sets of bytes, whose order follows PYTHONHASHSEED
    src = str(Path(invsemi.__file__).resolve().parents[1])
    digests = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _DIGEST], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        digests.add(out.stdout)
    assert len(digests) == 1
    assert len(digests.pop().split()) == 3


def test_closure_refuses_rows_that_are_no_partial_injections():
    swap = encode_rows([PartialBijection.of([(0, 1), (1, 0)], 4)], 4)
    assert closure_of(swap).size() == 2  # the swap and the identity on {0, 1}
    bad = [
        (swap.astype(np.int16), ValueError, "2-D int8"),
        (swap[0], ValueError, "2-D int8"),
        (np.array([[4, -1, -1, -1]], np.int8), ValueError, "outside window"),
        (np.array([[-2, -1, -1, -1]], np.int8), ValueError, "outside window"),
        (np.array([[2, -1, 2, -1]], np.int8), NotInjectiveError, "repeated target"),
    ]
    for rows, error, message in bad:
        with pytest.raises(error, match=message):
            closure_of(rows)


def test_structural_diff_names_the_missing_and_extra_maps():
    fam, window = common_point_family(3), 8
    target = structural_rows(fam, window)
    # rank 2 from block 0 to block 1, past their chain capacity of 1
    foreign = PartialBijection.of([(1, 2), (3, 6)], window)
    assert foreign not in {decode_row(r, window) for r in target}
    rows = unique_rows(np.concatenate([np.delete(target, 5, axis=0),
                                       encode_rows([foreign], window)]))
    result = ClosureResult(rows, (len(rows),), 0, True, window)
    diff = compare_with_structural(result, fam)
    assert not diff.matches
    assert diff.missing == (decode_row(target[5], window),)
    assert diff.extra == (foreign,)
    assert (diff.closure_size, diff.structural_size) == (len(target), len(target))
