"""Windowed closure of partial bijections.

Everything here works on the points below a fixed window.  Maps are
kept as int8 rows (entry x holds the image of x, -1 for undefined), so
composing a batch against a batch is two numpy indexing operations.
The closure routine runs one breadth-first search (`_search`) with
exact dedup; companion builders enumerate the structural candidate
sets (windowed block groups plus finite strata) straight into rows, so
the two routes are compared row by row.  The closure bound is decided
without listing the union: `union_classes` counts the Green's classes
of the semigroup the union's generators generate (`green`) and
compares them with the union's own.

Rows are deduplicated and looked up by sortable keys in one format
(`row_keys`).  Rows become ``PartialBijection``s only when a caller
asks to see the maps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .descriptors import SetDescriptor
from .errors import (
    BudgetExceededError,
    InvalidBoundError,
    NotInjectiveError,
    WindowMismatchError,
)
from .families import BlockFamily, chain_capacity_matrix
from .green import DClass, d_classes
from .pbij import PartialBijection
from .symbolic import format_sym, partial_identity

MAX_WINDOW = 120  # int8 rows: images must stay below 127


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the first key of each run of equal keys in a sorted array."""
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    return starts


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """np.unique of int64 keys, or of the void keys of `row_keys`, by sort
    and mask: numpy 2.4's np.unique is several times slower on int64 keys."""
    keys = np.sort(keys)
    return keys[_run_starts(keys)]


KEY_WINDOW = 15  # the widest rows whose entries fit one int64 word: 15 x 4 bits


@lru_cache(maxsize=None)
def _key_shifts(window: int) -> np.ndarray:
    """The bit offset of each column's entry in a row's key, first column
    highest, as a read-only array."""
    out = window.bit_length() * np.arange(window - 1, -1, -1, dtype=np.int64)
    out.flags.writeable = False
    return out


def _key_entries(rows: np.ndarray) -> np.ndarray:
    """The entries of int8 rows as int64, -1 as all ones: an int8 -1 has
    every bit set, and a point below the window none above its b bits."""
    return (rows & np.int8((1 << rows.shape[1].bit_length()) - 1)).astype(np.int64)


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per int8 row, which sorts and compares as the row's bytes
    do (-1 after every point); `rows_from_keys` inverts it.

    A row of width w <= KEY_WINDOW keys as one int64 word: b =
    w.bit_length() bits per entry, -1 as all ones, first column highest.
    Every point is below 2^b - 1, so the empty map at width 15 has the
    largest key, 2^60 - 1.  A wider row keys as its bytes, one void
    scalar, which numpy compares bytewise."""
    window = rows.shape[1]
    if window <= KEY_WINDOW:
        return _key_entries(rows) @ (np.int64(1) << _key_shifts(window))
    flat = np.ascontiguousarray(rows)
    return flat.view(np.dtype((np.void, window))).ravel()


def rows_from_keys(keys: np.ndarray, window: int) -> np.ndarray:
    """The int8 rows whose `row_keys` these are, in the same order."""
    if window > KEY_WINDOW:
        return keys.view(np.int8).reshape(-1, window)
    # the low byte of each shifted key holds the entry in its low b bits;
    # adding one carries an all-ones entry out of them, so it reads -1
    entries = (keys[:, None] >> _key_shifts(window)).astype(np.int8)
    return ((entries + 1) & ((1 << window.bit_length()) - 1)) - 1


def unique_rows(rows: np.ndarray) -> np.ndarray:
    """Deduplicate int8 rows, sorted bytewise (undefined slots last)."""
    return rows_from_keys(_sorted_distinct(row_keys(rows)), rows.shape[1])


# -- encoding ----------------------------------------------------


def _check_window(window: int) -> None:
    if window > MAX_WINDOW:
        raise BudgetExceededError(f"window {window} exceeds the int8 limit {MAX_WINDOW}")


def _below(block: SetDescriptor, window: int) -> list[int]:
    """The block's points below the window.  The builders list points
    through here, so a window past the int8 limit is refused before any
    block is listed."""
    _check_window(window)
    return block.below(window)


def blank_rows(count: int, window: int) -> np.ndarray:
    """`count` empty maps.  The builders allocate through here, so the
    int8 window check comes before any point is written."""
    _check_window(window)
    return np.full((count, window), -1, dtype=np.int8)


def encode_rows(maps: Sequence[PartialBijection], window: int) -> np.ndarray:
    out = blank_rows(len(maps), window)
    for n, f in enumerate(maps):
        if f.window != window:
            raise WindowMismatchError(f"map window {f.window}, engine window {window}")
        for s, t in f.pairs:
            out[n, s] = t
    return out


def _check_rows(rows: np.ndarray) -> None:
    """Raise unless `rows` is a 2-D int8 array of partial injections: every
    entry is -1 or a point below the window, and no two points of a row
    share an image."""
    if not isinstance(rows, np.ndarray) or rows.ndim != 2 or rows.dtype != np.int8:
        raise ValueError("generator rows must be a 2-D int8 array")
    if rows.size and (rows.min() < -1 or rows.max() >= rows.shape[1]):
        raise ValueError("point outside window")
    ordered = np.sort(rows, axis=1)
    if np.any((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)):
        raise NotInjectiveError("repeated target point")


def decode_row(row: np.ndarray, window: int) -> PartialBijection:
    pairs = [(x, int(v)) for x, v in enumerate(row[:window]) if v >= 0]
    return PartialBijection.of(pairs, window)


def compose_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """All pairwise composites: out[i, j, x] = left_i(right_j(x))."""
    idx = np.clip(right, 0, None)
    return np.where(right[None, :, :] >= 0, left[:, idx], np.int8(-1))


def invert_rows(rows: np.ndarray) -> np.ndarray:
    out = np.full_like(rows, -1)
    srcs, cols = np.nonzero(rows >= 0)
    out[srcs, rows[srcs, cols]] = cols
    return out


# -- closure ----------------------------------------------------

BLOCK_PRODUCTS = 1 << 19  # composites per batch: bounds memory and budget overshoot


@dataclass(frozen=True, eq=False)
class ClosureResult:
    """The generated inverse semigroup as `rows`, its distinct int8 rows
    sorted bytewise (`elements` decodes them), with per-word-length
    bookkeeping: frontier_sizes[r] counts the elements whose shortest word
    over the generators and their inverses has length r + 1."""

    rows: np.ndarray
    frontier_sizes: tuple[int, ...]
    products: int
    closed: bool
    window: int

    @property
    def elements(self) -> tuple[PartialBijection, ...]:
        return tuple(decode_row(r, self.window) for r in self.rows)

    def size(self) -> int:
        return len(self.rows)


def _pack(gens: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M, c) such that (entries of u) @ M, plus c, holds in column j the
    key of u o g_j for the k maps g_j, where scale[j, x] is the weight of
    column x in that key and an entry takes b = window.bit_length() bits.
    Entry x of u o g_j is entry g_j(x) of u, or all ones where g_j is
    undefined at x; M has the dtype of `scale`, and c is int64."""
    k, window = gens.shape
    js, xs = np.nonzero(gens >= 0)
    pack = np.zeros((window, k), dtype=scale.dtype)
    pack[gens[js, xs], js] = scale[js, xs]
    ones = (1 << window.bit_length()) - 1
    return pack, (ones * (scale * (gens < 0)).sum(axis=1)).astype(np.int64)


class _Seen:
    """`closure_of`'s elements so far, as the sorted array of their
    `row_keys`.

    Up to KEY_WINDOW, a batch's product keys come from one int64 matmul
    of the left factors' entries against the maps of A u A^-1 packed by
    `_pack`, so no composite row is built; wider batches are composed by
    `compose_rows` and keyed by `row_keys`.  Membership is a
    `searchsorted` of the batch's distinct keys, and the new keys are
    merged in; the new rows are rebuilt from their keys, in key order,
    which is bytewise."""

    def __init__(self, gens: np.ndarray):
        self.gens = gens
        self.keys = row_keys(gens)  # sorted: gens come from unique_rows
        window = gens.shape[1]
        if window <= KEY_WINDOW:
            weights = np.int64(1) << _key_shifts(window)
            self.packed = _pack(gens, np.broadcast_to(weights, gens.shape))

    def __len__(self) -> int:
        return len(self.keys)

    def grow(self, left: np.ndarray, room: int | None) -> np.ndarray | None:
        """The rows of left o A u A^-1 not seen yet, in bytewise order, now
        seen; None, with nothing added, when they are more than `room`."""
        window = self.gens.shape[1]
        if window <= KEY_WINDOW:
            pack, unset = self.packed
            keys = _key_entries(left) @ pack
            keys += unset
        else:
            keys = row_keys(compose_rows(left, self.gens).reshape(-1, window))
        distinct = _sorted_distinct(keys.ravel())
        at = np.searchsorted(self.keys, distinct)
        new = self.keys.take(at, mode="clip") != distinct
        if room is not None and np.count_nonzero(new) > room:
            return None
        added = distinct[new]
        # a stable sort merges the two sorted runs in linear time
        self.keys = np.concatenate([self.keys, added])
        self.keys.sort(kind="stable")
        return rows_from_keys(added, window)


def _search(frontier: np.ndarray, k: int, grow) -> tuple[list[np.ndarray], int, bool]:
    """Breadth-first search of the right Cayley graph from `frontier`, the
    elements found so far, over k maps: each element is composed with
    every map once (Froidure and Pin, 1997), which enumerates the
    semigroup with no inverse pass when the maps are A u A^-1.

    Each round composes the last round's new elements in order, in
    batches of at most BLOCK_PRODUCTS // k left factors (at least one).
    `grow(left)` returns the batch's products not seen yet, now seen, in
    an order that does not depend on the iteration order of a set, or
    None to stop: the search then ends unclosed, and the batches before
    the stopping one keep their elements.  Returns (rounds, products,
    closed): each nonempty round's new elements, the products composed
    up to and including the last batch, and whether no batch stopped."""
    step = max(1, BLOCK_PRODUCTS // k)
    rounds: list[np.ndarray] = []
    products = 0
    closed = True
    while closed and len(frontier):
        fresh = [frontier[:0]]  # so that a round that adds nothing concatenates to none
        for start in range(0, len(frontier), step):
            left = frontier[start : start + step]
            products += len(left) * k
            new = grow(left)
            if new is None:
                closed = False
                break
            fresh.append(new)
        frontier = np.concatenate(fresh)
        if len(frontier):
            rounds.append(frontier)
    return rounds, products, closed


def closure_of(rows: np.ndarray, max_elements: int | None = None) -> ClosureResult:
    """Inverse semigroup generated by A, given as an (n, window) int8 row
    array (`encode_rows` turns maps into one), by `_search` over A u A^-1,
    each batch's new rows in the bytewise order of its distinct products.
    A batch whose new rows would pass max_elements stops the search; when
    A u A^-1 alone does, the result is empty."""
    if len(rows) == 0:
        raise ValueError("need at least one generator")
    _check_rows(rows)
    window = rows.shape[1]
    gens = unique_rows(np.concatenate([rows, invert_rows(rows)]))
    if max_elements is not None and len(gens) > max_elements:
        return ClosureResult(gens[:0], (), 0, False, window)
    seen = _Seen(gens)
    rounds, products, closed = _search(
        gens, len(gens),
        lambda left: seen.grow(left, None if max_elements is None else max_elements - len(seen)),
    )
    # seen holds exactly the generators and every round, sorted
    sizes = (len(gens), *map(len, rounds))
    return ClosureResult(rows_from_keys(seen.keys, window), sizes, products, closed, window)


# -- structural candidate sets ----------------------------------------------------


GROUP_ENUM_CAP = 7  # 7! = 5040 permutations; past this, enumeration is refused


def group_rows(block: SetDescriptor, window: int) -> np.ndarray:
    """Every permutation of the block's points below the window, one row
    each, in `itertools.permutations` order."""
    pts = _below(block, window)
    if len(pts) > GROUP_ENUM_CAP:
        raise BudgetExceededError(
            f"block has {len(pts)} points below {window}; refusing {len(pts)}! permutations"
        )
    rows = blank_rows(math.factorial(len(pts)), window)
    rows[:, pts] = np.asarray(pts, dtype=np.intp)[_index_tuples(len(pts), len(pts), True)]
    return rows


@lru_cache(maxsize=None)
def _index_tuples(n: int, k: int, ordered: bool) -> np.ndarray:
    """The k-permutations (`ordered`) or k-combinations of range(n) as a
    read-only index array, one tuple per row, in `itertools` order."""
    make = itertools.permutations if ordered else itertools.combinations
    out = np.array(list(make(range(n), k)), dtype=np.intp)
    out.flags.writeable = False
    return out


def sparse_group_generators(block: SetDescriptor, window: int) -> np.ndarray:
    """As int8 rows, the transposition of the block's first two points
    below the window, then the full cycle of them: enough to regrow the
    whole group.  Two points take the transposition alone, fewer the
    identity on them."""
    pts = _below(block, window)
    n = len(pts)
    swap, cycle = [1, 0, *range(2, n)], [*range(1, n), 0]
    perms = [list(range(n))] if n < 2 else [swap, cycle][: n - 1]
    rows = blank_rows(len(perms), window)
    rows[:, pts] = np.asarray(pts, dtype=np.intp)[np.array(perms, dtype=np.intp)]
    return rows


def family_generators(family: BlockFamily, window: int, sparse: bool = False) -> np.ndarray:
    """The generators of the block groups as int8 rows: every element of
    each windowed group, or with `sparse` a transposition and a full cycle
    per block."""
    build = sparse_group_generators if sparse else group_rows
    return np.concatenate([build(b, window) for b in family.blocks])


def structural_rows(family: BlockFamily, window: int) -> np.ndarray:
    """Windowed picture of the subsemigroup the block groups generate:
    whole block groups, finite strata up to each chain capacity, and the
    empty map.  Returned as deduplicated sorted rows."""
    return unique_rows(structural_parts(family, window, chain_capacity_matrix(family)))


def structural_parts(family: BlockFamily, window: int, capacity: list[list[int]]) -> np.ndarray:
    """The rows of `structural_rows` before its dedup: each block group,
    the empty map, then each stratum, with the repeats where strata share
    maps with each other or with a group."""
    parts = [group_rows(b, window) for b in family.blocks] + [blank_rows(1, window)]
    pts = [np.asarray(_below(b, window), dtype=np.intp) for b in family.blocks]
    for i, src in enumerate(pts):
        for j, dst in enumerate(pts):
            for k in range(1, min(capacity[i][j], len(src), len(dst)) + 1):
                # every k-subset of src as domain, with every k-tuple of
                # dst as images: one row per (domain, images) pair
                doms = src[_index_tuples(len(src), k, False)]
                images = dst[_index_tuples(len(dst), k, True)]
                rows = blank_rows(len(doms) * len(images), window)
                rows[np.arange(len(rows))[:, None], np.repeat(doms, len(images), axis=0)] = (
                    np.tile(images, (len(doms), 1))
                )
                parts.append(rows)
    return np.concatenate(parts)


# -- comparisons ----------------------------------------------------


@dataclass(frozen=True)
class StructuralDiff:
    matches: bool
    missing: tuple[PartialBijection, ...]
    extra: tuple[PartialBijection, ...]
    closure_size: int
    structural_size: int


def compare_with_structural(result: ClosureResult, family: BlockFamily) -> StructuralDiff:
    target = structural_rows(family, result.window)
    got = result.rows
    if np.array_equal(got, target):  # both sorted and distinct
        return StructuralDiff(True, (), (), len(got), len(target))
    got_keys, target_keys = row_keys(got), row_keys(target)
    missing = tuple(decode_row(r, result.window) for r in target[~np.isin(target_keys, got_keys)])
    extra = tuple(decode_row(r, result.window) for r in got[~np.isin(got_keys, target_keys)])
    return StructuralDiff(not missing and not extra, missing, extra, len(got), len(target))


def composition_escape(rows: np.ndarray) -> tuple[int, np.ndarray | None]:
    """All-pairs scan of a row set under composition, batches of left
    factors against the whole set: (products composed up to the batch of
    the first escape, the first composite outside the set in (i, j) order
    or None)."""
    keys = {r.tobytes() for r in rows}
    checked = 0
    step = max(1, BLOCK_PRODUCTS // len(rows))
    for start in range(0, len(rows), step):
        prods = compose_rows(rows[start : start + step], rows).reshape(-1, rows.shape[1])
        checked += len(prods)
        prod_keys = prods.view(np.dtype((np.void, prods.shape[1]))).ravel().tolist()
        escape = next((k for k in prod_keys if k not in keys), None)
        if escape is not None:
            return checked, np.frombuffer(escape, dtype=np.int8)
    return checked, None


def rows_closed_under_ops(rows: np.ndarray) -> tuple[bool, int]:
    """All-pairs check that a row set is closed under composition and
    inverse.

    Returns (closed, products_checked), with `composition_escape`'s count."""
    checked, escape = composition_escape(rows)
    keys = {r.tobytes() for r in rows}
    return escape is None and all(r.tobytes() in keys for r in invert_rows(rows)), checked


def union_generators(family: BlockFamily, n: int, window: int) -> np.ndarray:
    """A for the rank-n union U: the sparse group generators, the empty
    map and, routed through one hub block (the first with the most points
    below the window), one map i -> hub per block i and rank
    k <= min(n, |B_i|, |B_hub|), carrying B_i's first k points onto the
    hub's first k.

    Every map of A lies in U, and every map of U is a product over
    A u A^-1: the sparse generators give the block groups, and a rank-k
    map from B_i to B_j (k <= min(n, |B_i|, |B_j|) <= |B_hub|) factors
    as g_j . (j -> hub)^-1 . (i -> hub) . g_i, where g_i in B_i's
    windowed group carries its domain onto B_i's first k points and g_j
    carries B_j's first k points onto its images in order.  So <A> = U
    exactly when U is closed.  A is a subset of the all-pairs set, one
    map B_i[:k] -> B_j[:k] per ordered pair of blocks, which lies in U
    too and so decides the same statement."""
    pts = [_below(blk, window) for blk in family.blocks]
    hub = max(pts, key=len)
    gens = [family_generators(family, window, sparse=True), blank_rows(1, window)]
    for src in pts:
        # row k - 1 maps src[:k] onto hub[:k], for k = 1 .. its rank cap
        stratum = blank_rows(min(n, len(src), len(hub)), window)
        for r in range(len(stratum)):
            stratum[r:, src[r]] = hub[r]
        gens.append(stratum)
    return np.concatenate(gens)


# -- the closure bound ----------------------------------------------------

MAX_UNION_IMAGES = 100_000  # images of U: the orbit's length, and the classes' total size


def union_table(family: BlockFamily, n: int, window: int) -> frozenset[DClass]:
    """The D-classes of the rank-n union U, from the blocks' points below
    the window alone: for each rank k <= n one class of every k-subset of
    a block, with group Sym(k) (k = 0 is the empty map), and for each
    block of more than n points one class of that block, with its whole
    symmetric group.

    U has at most 1 + sum_i sum_{k <= n} C(|B_i|, k) images, one per
    subset; past MAX_UNION_IMAGES the check is refused before any subset
    is listed."""
    pts = [_below(blk, window) for blk in family.blocks]
    most = 1 + sum(math.comb(len(p), k) for p in pts for k in range(1, min(n, len(p)) + 1))
    most += sum(len(p) > n for p in pts)
    if most > MAX_UNION_IMAGES:
        raise BudgetExceededError(
            f"the rank-{n} union at window {window} may have {most} images; "
            f"refusing more than {MAX_UNION_IMAGES}"
        )
    table = set()
    for k in range(min(n, max(map(len, pts))) + 1):
        images = {sum(1 << x for x in sub) for p in pts for sub in itertools.combinations(p, k)}
        table.add(DClass(k, frozenset(images), math.factorial(k)))
    for p in pts:
        if len(p) > n:
            table.add(DClass(len(p), frozenset([sum(1 << x for x in p)]), math.factorial(len(p))))
    return frozenset(table)


def union_classes(family: BlockFamily, n: int, window: int) -> tuple[bool, tuple[DClass, ...] | None, int]:
    """(closed, classes, actions) for the rank-n union U: whether U is
    closed, the D-classes of <A> for the generators A of
    `union_generators` (None when <A> has more images than U), and the
    generator actions their orbit applied.

    <A> is counted, never listed (`green.d_classes` over A u A^-1).  When
    its classes equal U's (`union_table`), <A> = U, so U is a semigroup;
    this direction needs nothing about A but that it generates.  When
    they differ, U is not closed, since every map of A lies in U and
    every map of U is a product over A u A^-1."""
    table = union_table(family, n, window)
    gens = union_generators(family, n, window)
    gens = unique_rows(np.concatenate([gens, invert_rows(gens)]))
    classes, actions = d_classes(gens, sum(len(c.images) for c in table))
    return classes is not None and frozenset(classes) == table, classes, actions


@dataclass(frozen=True)
class ClosureBoundReport:
    """The closure-bound verdict.  Within the bound, `order` (the number
    of maps) and `classes` describe <A> (`union_classes`), its classes
    sorted by rank and least image, and `products_checked` counts the
    orbit's generator actions; past it, both are None, `products_checked`
    is 0 and `witness` holds the escape."""

    satisfied: bool
    closed: bool
    n: int
    window: int | None
    max_overlap: int
    bad_pair: tuple[int, int] | None
    witness: dict | None
    products_checked: int
    order: int | None
    classes: tuple[DClass, ...] | None


def check_closure_bound(family: BlockFamily, n: int, window: int | None = None) -> ClosureBoundReport:
    """Test whether the rank-n union is a subsemigroup.

    When every pairwise overlap has at most n points, the windowed union
    is decided by counting the Green's classes of the semigroup its
    generators generate (`union_classes`).  When some overlap is larger,
    the product of the two block identities escapes every stratum of
    the union; the report carries that witness in exact (unwindowed)
    form.  A negative n is refused: the union always holds the empty
    map, which a bound below 0 would report as an escape.  So is a
    window below `minimal_window`, the default: it could leave overlap
    points out of the check.
    """
    if n < 0:
        raise InvalidBoundError(f"rank bound must be at least 0, got {n}")
    b = len(family.blocks)
    overlaps = [
        (family.intersection_size(i, j), i, j)
        for i in range(b)
        for j in range(b)
        if i < j
    ]
    max_overlap = max(s for s, _, _ in overlaps) if overlaps else 0
    violation = next(((s, i, j) for s, i, j in overlaps if s > n), None)
    if violation is not None:
        size, i, j = violation
        meet = family.meet(i, j)
        witness = {
            "i": i,
            "j": j,
            "left": format_sym(partial_identity(family.blocks[j]), family.blocks),
            "right": format_sym(partial_identity(family.blocks[i]), family.blocks),
            "composite": format_sym(partial_identity(meet), family.blocks),
            "rank": size,
            "bound": n,
        }
        return ClosureBoundReport(
            satisfied=False,
            closed=False,
            n=n,
            window=window,
            max_overlap=max_overlap,
            bad_pair=(i, j),
            witness=witness,
            products_checked=0,
            order=None,
            classes=None,
        )
    least = minimal_window(family, [[n] * b for _ in range(b)])
    window = least if window is None else window
    if window < least:
        raise WindowMismatchError(
            f"window {window} is below the minimal window {least} of this family at bound {n}"
        )
    closed, classes, actions = union_classes(family, n, window)
    if classes is not None:
        classes = tuple(sorted(classes, key=lambda c: (c.rank, min(c.images))))
    return ClosureBoundReport(
        satisfied=True,
        closed=closed,
        n=n,
        window=window,
        max_overlap=max_overlap,
        bad_pair=None,
        witness=None,
        products_checked=actions,
        order=None if classes is None else sum(c.size() for c in classes),
        classes=classes,
    )


# -- window sizing ----------------------------------------------------


def minimal_window(family: BlockFamily, rank_matrix: list[list[int]]) -> int:
    """Smallest window with room for every construction the tests drive.

    Each block needs its largest incident rank plus its largest overlap
    plus two points below the window (waypoints, parking space and
    slack), and every overlap point must itself sit below the window: the
    window lies above every overlap point and above the needs[i]-th
    member of each block i.
    """
    b = len(family.blocks)
    overlap_pts = {p for i in range(b) for j in range(i + 1, b) for p in family.meet(i, j).points()}
    least = max(overlap_pts, default=0) + 1
    for i, blk in enumerate(family.blocks):
        max_rank = max(max(rank_matrix[i][j], rank_matrix[j][i]) for j in range(b))
        max_off = max((family.intersection_size(i, j) for j in range(b) if j != i), default=0)
        need = max_rank + max_off + 2
        # a block short of `need` members below the limit fits no window
        pts = blk.below(MAX_WINDOW)
        least = max(least, pts[need - 1] + 1 if len(pts) >= need else MAX_WINDOW + 1)
    if least > MAX_WINDOW:
        raise BudgetExceededError("no window within the int8 limit fits this family")
    return least
