"""Windowed closure of partial bijections.

Everything here works on the points below a fixed window.  Maps are
kept as int8 rows (entry x holds the image of x, -1 for undefined), so
composing a batch against a batch is two numpy indexing operations.
The closure routine is a breadth-first search of the right Cayley graph
over the generators and their inverses, with exact dedup; companion
builders enumerate the structural candidate sets (windowed block groups
plus finite strata) straight into rows, so the two routes are compared
row by row.  The closedness check of a known union runs the same search
over the union's own indices, with exact integer keys (`RowIndex`).
Rows become ``PartialBijection``s only when a caller asks to see the
maps.
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
from .pbij import PartialBijection

MAX_WINDOW = 120  # int8 rows: images must stay below 127


def unique_rows(rows: np.ndarray) -> np.ndarray:
    """Deduplicate int8 rows, sorted bytewise (undefined slots last)."""
    if len(rows) == 0:
        return rows
    flat = np.ascontiguousarray(rows)
    keys = flat.view(np.dtype((np.void, flat.shape[1]))).ravel()
    return np.unique(keys).view(np.int8).reshape(-1, flat.shape[1])


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of a contiguous array, in order."""
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel().tolist()


# -- encoding ----------------------------------------------------


def blank_rows(count: int, window: int) -> np.ndarray:
    """`count` empty maps.  The builders allocate through here, so the
    int8 window check comes before any point is written."""
    if window > MAX_WINDOW:
        raise BudgetExceededError(f"window {window} exceeds the int8 limit {MAX_WINDOW}")
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
    if rows.min() < -1 or rows.max() >= rows.shape[1]:
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


def closure_of(rows: np.ndarray, max_elements: int | None = None) -> ClosureResult:
    """Inverse semigroup generated by A, given as an (n, window) int8 row
    array (`encode_rows` turns maps into one): each new element is
    composed with every map of A u A^-1 once, which enumerates it with no
    inverse pass.  Stops unclosed before a batch would take it past
    max_elements."""
    if len(rows) == 0:
        raise ValueError("need at least one generator")
    _check_rows(rows)
    window = rows.shape[1]
    gens = unique_rows(np.concatenate([rows, invert_rows(rows)]))
    seen = set(_row_keys(gens))
    found = [gens]
    frontier_sizes = [len(gens)]
    products = 0
    closed = True
    step = max(1, BLOCK_PRODUCTS // len(gens))
    frontier = gens
    while closed:
        fresh: list[bytes] = []
        for start in range(0, len(frontier), step):
            left = frontier[start : start + step]
            products += len(left) * len(gens)
            # no name holds the composites, so they are freed before the
            # next batch is composed
            new = set(_row_keys(unique_rows(compose_rows(left, gens).reshape(-1, window))))
            new -= seen
            if max_elements is not None and len(seen) + len(new) > max_elements:
                closed = False
                break
            seen |= new
            # bytewise order, as `unique_rows` gave them: the frontier
            # does not depend on the iteration order of the set
            fresh += sorted(new)
        if not fresh:
            break
        frontier = np.frombuffer(b"".join(fresh), dtype=np.int8).reshape(-1, window)
        found.append(frontier)
        frontier_sizes.append(len(frontier))
    order = unique_rows(np.concatenate(found))
    return ClosureResult(order, tuple(frontier_sizes), products, closed, window)


# -- structural candidate sets ----------------------------------------------------


GROUP_ENUM_CAP = 7  # 7! = 5040 permutations; past this, enumeration is refused


def group_rows(block: SetDescriptor, window: int) -> np.ndarray:
    """Every permutation of the block's points below the window, one row
    each, in `itertools.permutations` order."""
    pts = block.below(window)
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
    pts = block.below(window)
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


def structural_rows(
    family: BlockFamily, window: int, capacity: list[list[int]] | None = None
) -> np.ndarray:
    """Windowed picture of the subsemigroup the block groups generate:
    whole block groups, finite strata up to each chain capacity, and the
    empty map.  Returned as deduplicated sorted rows."""
    if capacity is None:
        capacity = chain_capacity_matrix(family)
    return unique_rows(structural_parts(family, window, capacity))


def structural_parts(family: BlockFamily, window: int, capacity: list[list[int]]) -> np.ndarray:
    """The rows of `structural_rows` before its dedup: each block group,
    the empty map, then each stratum, with the repeats where strata share
    maps with each other or with a group."""
    parts = [group_rows(b, window) for b in family.blocks] + [blank_rows(1, window)]
    pts = [np.asarray(b.below(window), dtype=np.intp) for b in family.blocks]
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


def compare_with_structural(
    result: ClosureResult, family: BlockFamily, capacity: list[list[int]] | None = None
) -> StructuralDiff:
    target = structural_rows(family, result.window, capacity)
    got = result.rows
    if np.array_equal(got, target):  # both sorted and distinct
        return StructuralDiff(True, (), (), len(got), len(target))
    got_keys, target_keys = set(_row_keys(got)), set(_row_keys(target))
    missing = tuple(decode_row(r, result.window) for r in target if r.tobytes() not in got_keys)
    extra = tuple(decode_row(r, result.window) for r in got if r.tobytes() not in target_keys)
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
        escape = next((k for k in _row_keys(prods) if k not in keys), None)
        if escape is not None:
            return checked, np.frombuffer(escape, dtype=np.int8)
    return checked, None


def rows_closed_under_ops(rows: np.ndarray, window: int) -> tuple[bool, int]:
    """All-pairs check that a row set is closed under composition and
    inverse: the reference oracle for `union_closed`.

    Returns (closed, products_checked), with `composition_escape`'s count;
    `window` is the width of the rows."""
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
    pts = [blk.below(window) for blk in family.blocks]
    hub = max(pts, key=len)
    gens = [family_generators(family, window, sparse=True), blank_rows(1, window)]
    for src in pts:
        # row k - 1 maps src[:k] onto hub[:k], for k = 1 .. its rank cap
        stratum = blank_rows(min(n, len(src), len(hub)), window)
        for r in range(len(stratum)):
            stratum[r:, src[r]] = hub[r]
        gens.append(stratum)
    return np.concatenate(gens)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the first key of each run of equal keys in a sorted array."""
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    return starts


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """np.unique of int64 keys by sort and mask: numpy 2.4's np.unique
    is several times slower on them."""
    keys = np.sort(keys)
    return keys[_run_starts(keys)]


class RowIndex:
    """Exact int64 keys for a fixed set U of rows, sorted as `unique_rows`
    sorts them, and lookup of other rows in U.  The rows may come in any
    order and with repeats: the index sorts and deduplicates them by key,
    and `entries` holds U's distinct rows in key order.

    Only U's live columns, those some row of U defines, enter a key; a
    row defined on a dead column is not in U.  A live entry takes
    b = window.bit_length() bits, -1 as all ones, so it sorts after every
    point, as in the bytewise order.  The entries of a row are packed,
    first entry highest, into words of at most 52 bits, which a float64
    matmul forms exactly.  The words fold left to right into one key:
    each prefix is replaced by its rank among U's prefixes and shifted
    above the next word, so every window up to MAX_WINDOW fits.  A rank
    is below the number of rows given, which sizes the words, so the
    keys depend on that count only through the word layout (`widths`).
    U's keys come out strictly increasing, and a row whose prefix no row
    of U has is not in U."""

    def __init__(self, rows: np.ndarray):
        count, window = rows.shape
        self.bits = window.bit_length()
        self.ones = float((1 << self.bits) - 1)
        self.live = np.flatnonzero((rows >= 0).any(axis=0))
        per_word = max(1, min(52, 62 - count.bit_length()) // self.bits)
        slot = np.arange(len(self.live))
        self.slot_of = np.full(window, -1)  # live slot of each column, -1 if dead
        self.slot_of[self.live] = slot
        self.word_of = slot // per_word
        ends = np.minimum(self.word_of * per_word + per_word, len(self.live))
        self.scale = np.ldexp(1.0, self.bits * (ends - 1 - slot))
        self.widths = (self.bits * np.bincount(self.word_of)).tolist() or [0]
        # spread[t] puts live entry t, scaled, into its word
        self.spread = np.zeros((len(self.live), self.words))
        self.spread[slot, self.word_of] = self.scale
        self._identity = self.pack(np.where(self.slot_of < 0, -1, np.arange(window))[None])
        words = (self.encode(rows[:, self.live]) @ self.spread).astype(np.int64)
        # `order` sorts the rows by the key folded so far: a prefix's rank
        # counts the distinct prefixes before it, and repeats end up next
        # to each other
        order = np.argsort(words[:, 0])
        key = words[order, 0]
        self.prefixes = []
        for width, word in zip(self.widths[1:], words[:, 1:].T):
            starts = _run_starts(key)
            self.prefixes.append(key[starts])
            key = ((np.cumsum(starts) - 1) << width) | word[order]
            resort = np.argsort(key)
            order, key = order[resort], key[resort]
        distinct = _run_starts(key)
        self.keys = key[distinct]
        self.entries = self.encode(rows[order[distinct]])

    @property
    def words(self) -> int:
        return len(self.widths)

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """The entries as float64, -1 as all ones."""
        return np.where(rows < 0, self.ones, rows)

    def pack(self, gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(M, c) such that, for m words and k maps g_j defined on U's
        live columns only, encode(u) @ M + c holds the words of u o g_j
        in columns j*m .. j*m + m - 1.  Entry x of u o g_j is entry g_j(x)
        of u, or -1 where g_j is undefined at x, so u o g_j too is defined
        on live columns only.  A map defined on a dead column raises
        ValueError: its products could leave U on a column no key reads."""
        k, window = gens.shape
        m = self.words
        js, xs = np.nonzero(gens >= 0)
        slot = self.slot_of[xs]
        if np.any(slot < 0):
            raise ValueError("cannot pack a map defined on a column no row of U defines")
        pack = np.zeros((window, k * m))
        pack[gens[js, xs], js * m + self.word_of[slot]] = self.scale[slot]
        shift = ((gens[:, self.live] < 0) * self.ones @ self.spread).reshape(-1)
        return pack, shift

    def products_in(
        self, entries: np.ndarray, packed: tuple[np.ndarray, np.ndarray]
    ) -> np.ndarray | None:
        """The distinct sorted positions in U of the products u o g_j for
        the rows u with these encoded entries and the maps g_j of
        `packed` (`pack`); None when a product is not in U.  Most products
        repeat, so each distinct key is looked up once."""
        pack, shift = packed
        words = (entries @ pack + shift).astype(np.int64).reshape(-1, self.words)
        key = words[:, 0]
        for prefix, width, word in zip(self.prefixes, self.widths[1:], words[:, 1:].T):
            pos = np.searchsorted(prefix, key)
            if np.any(pos == len(prefix)) or np.any(prefix[pos] != key):
                return None
            key = (pos << width) | word
        key = _sorted_distinct(key)
        pos = np.searchsorted(self.keys, key)
        if len(pos) and (pos[-1] == len(self.keys) or np.any(self.keys[pos] != key)):
            return None
        return pos

    def find(self, rows: np.ndarray) -> np.ndarray | None:
        """The distinct sorted positions of `rows` in U; None when one is not
        in U, as is every row defined on a dead column."""
        if np.any(rows[:, self.slot_of < 0] >= 0):
            return None
        return self.products_in(self.encode(rows), self._identity)


def union_closed(family: BlockFamily, n: int, window: int) -> tuple[bool, int]:
    """(closed, products composed) for the rank-n union U: block groups,
    strata of rank <= n and the empty map.

    U's index is built straight from the group and stratum rows
    (`structural_parts`); `RowIndex` sorts and deduplicates them by key,
    so no bytewise sort of U runs.  U is closed exactly when <A> = U for
    the generators A of `union_generators`.  A breadth-first search over
    U's indices composes each element it reaches with every map of
    A u A^-1 and looks the distinct products up in U by key.  The maps
    of A u A^-1 are found in U before they are packed, so they are
    defined on U's live columns only, as `RowIndex.pack` requires.
    The first batch with a product outside U ends the search unclosed;
    otherwise U is closed when every index is reached, after
    |U| x |A u A^-1| products.  Since every product of every reached
    element with every map of A u A^-1 is checked, any A inside U that
    generates U gives the same verdict; only the count of products
    depends on A."""
    b = len(family.blocks)
    index = RowIndex(structural_parts(family, window, [[n] * b for _ in range(b)]))
    gens = union_generators(family, n, window)
    gens = unique_rows(np.concatenate([gens, invert_rows(gens)]))
    frontier = index.find(gens)
    if frontier is None:
        return False, 0
    packed = index.pack(gens)
    reached = np.zeros(len(index.keys), dtype=bool)
    reached[frontier] = True
    products = 0
    step = max(1, BLOCK_PRODUCTS // len(gens))
    while len(frontier):
        fresh = []
        for start in range(0, len(frontier), step):
            left = frontier[start : start + step]
            products += len(left) * len(gens)
            found = index.products_in(index.entries[left], packed)
            if found is None:
                return False, products
            found = found[~reached[found]]
            reached[found] = True
            fresh.append(found)
        frontier = np.concatenate(fresh)
    return bool(reached.all()), products


# -- the closure bound ----------------------------------------------------


@dataclass(frozen=True)
class ClosureBoundReport:
    satisfied: bool
    closed: bool
    n: int
    window: int | None
    max_overlap: int
    bad_pair: tuple[int, int] | None
    witness: dict | None
    products_checked: int


def check_closure_bound(family: BlockFamily, n: int, window: int | None = None) -> ClosureBoundReport:
    """Test whether the rank-n union is a subsemigroup.

    When every pairwise overlap has at most n points, the windowed union
    is verified closed under composition and inverse by `union_closed`.
    When some overlap is larger, the product of the two block identities
    escapes every stratum of the union; the report carries that witness
    in exact (unwindowed) form.  A negative n is refused: the union
    always holds the empty map, which a bound below 0 would report as an
    escape.  So is a window below `minimal_window`, the default: it could
    leave overlap points out of the check.
    """
    from .symbolic import format_sym, partial_identity

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
        )
    least = minimal_window(family, [[n] * b for _ in range(b)])
    window = least if window is None else window
    if window < least:
        raise WindowMismatchError(
            f"window {window} is below the minimal window {least} of this family at bound {n}"
        )
    ok, checked = union_closed(family, n, window)
    return ClosureBoundReport(
        satisfied=True,
        closed=ok,
        n=n,
        window=window,
        max_overlap=max_overlap,
        bad_pair=None,
        witness=None,
        products_checked=checked,
    )


# -- window sizing ----------------------------------------------------


def minimal_window(family: BlockFamily, rank_matrix: list[list[int]]) -> int:
    """Smallest window with room for every construction the tests drive.

    Each block needs its largest incident rank plus its largest overlap
    plus two points below the window (waypoints, parking space and
    slack), and every overlap point must itself sit below the window.
    """
    b = len(family.blocks)
    needs = []
    for i in range(b):
        max_rank = max(max(rank_matrix[i][j], rank_matrix[j][i]) for j in range(b))
        max_off = max(
            (family.intersection_size(i, j) for j in range(b) if j != i), default=0
        )
        needs.append(max_rank + max_off + 2)
    overlap_pts: set[int] = set()
    for i in range(b):
        for j in range(i + 1, b):
            overlap_pts.update(family.meet(i, j).points())
    for w in range(1, MAX_WINDOW + 1):
        if all(p < w for p in overlap_pts) and all(
            len(family.blocks[i].below(w)) >= needs[i] for i in range(b)
        ):
            return w
    raise BudgetExceededError("no window within the int8 limit fits this family")
