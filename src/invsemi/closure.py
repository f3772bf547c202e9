"""Windowed closure of partial bijections.

Everything here works on the points below a fixed window.  Maps are
kept as int8 rows (entry x holds the image of x, -1 for undefined), so
composing a batch against a batch is two numpy indexing operations.
The closure routine and the closedness check of a known union run one
breadth-first search (`_search`) with exact dedup; companion builders
enumerate the structural candidate sets (windowed block groups plus
finite strata) straight into rows, so the two routes are compared row
by row.

Rows are deduplicated and looked up by sortable keys in one format
(`row_keys`); `RowIndex` keys a column group's entries under the
group's tag in the same entry format.  Rows become
``PartialBijection``s only when a caller asks to see the maps.
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


def _key_entries(rows: np.ndarray, dtype=np.int64) -> np.ndarray:
    """The entries of int8 rows as `dtype`, -1 as all ones: an int8 -1 has
    every bit set, and a point below the window none above its b bits."""
    return (rows & np.int8((1 << rows.shape[1].bit_length()) - 1)).astype(dtype)


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per int8 row, which sorts and compares as the row's bytes
    do (-1 after every point); `rows_from_keys` inverts it.

    A row of width w <= KEY_WINDOW keys as one int64 word: b =
    w.bit_length() bits per entry, -1 as all ones, first column highest,
    the format `RowIndex` packs under a group.  Every point is below
    2^b - 1, so the empty map at width 15 has the largest key, 2^60 - 1.
    A wider row keys as its bytes, one void scalar, which numpy compares
    bytewise."""
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
    inverse: the reference oracle for `union_closed`.

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


KEY_BITS = 52  # widest key word that a float64 matmul forms exactly
NO_KEY = np.iinfo(np.int64).max  # above every key: a row that no key group holds


class RowIndex:
    """One-word int64 keys for a fixed set U of rows, and lookup of other
    rows in U.

    The columns fall into key `groups` (column arrays, which may overlap),
    and every row of U must lie in a group: no column outside it is
    defined.  A row's key under group t is t, above the row's entries on
    t's columns.  An entry takes b = window.bit_length() bits, -1 as all
    ones, so it sorts after every point, and the entries are packed first
    column highest: under one group the keys sort as `unique_rows` sorts
    the rows.  The entries of a group must fit one 52-bit word, which a
    float64 matmul forms exactly.

    The rows may come in any order and with repeats.  `entries` holds U's
    distinct rows, sorted by their key under the first group that holds
    each.  A row that several groups hold (the empty map, a map defined on
    overlap points only) is an alias: it is listed under each of them,
    with one position.  A row that no group holds is not in U."""

    def __init__(self, rows: np.ndarray, groups: Sequence[Sequence[int]]):
        count, window = rows.shape
        self.bits = window.bit_length()
        self.ones = (1 << self.bits) - 1
        self.groups = [np.unique(np.asarray(cols, dtype=np.intp)) for cols in groups]
        g = len(self.groups)
        width = self.bits * max(map(len, self.groups), default=0)
        if width > KEY_BITS or width + (g - 1).bit_length() > 62:
            raise ValueError(f"a key group needs {width} bits, more than one {KEY_BITS}-bit word")
        self.tags = np.arange(g, dtype=np.int64) << width
        # weights[x, t] places entry x within group t's word, and
        # weights[x, g + t] is 1 where x lies outside group t
        self.weights = np.zeros((window, 2 * g))
        self.weights[:, g:] = 1
        for t, cols in enumerate(self.groups):
            self.weights[cols, t] = np.ldexp(1.0, self.bits * np.arange(len(cols))[::-1])
            self.weights[cols, g + t] = 0
        self.unset = self.ones * self.weights[:, g:].sum(axis=0)
        entries = self.encode(rows)
        inside, keys = self._group_keys(entries)
        # tags rise with t, so a row's least key is its key under the
        # first group that holds it
        home = np.where(inside, keys, NO_KEY).min(axis=1)
        if np.any(home == NO_KEY):
            raise ValueError("a row of U lies in no key group")
        order = np.argsort(home)
        first = order[_run_starts(home[order])]  # one row per distinct key
        self.entries = np.take(entries, first, axis=0)
        self.keys, self.position = home[first], None
        if inside.sum() > count:  # aliases: list each row under every group that holds it
            at, group = np.nonzero(inside[first])
            listed = keys[first[at], group]
            by_key = np.argsort(listed)
            self.keys, self.position = listed[by_key], at[by_key]

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """The entries as float64, -1 as all ones (`_key_entries`)."""
        return _key_entries(rows, np.float64)

    def _group_keys(self, entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(inside, keys), each (rows, groups), from one matmul: whether
        the group holds the encoded row, that is whether the row's entries
        outside the group are all ones, and the row's key under it."""
        sums = entries @ self.weights
        g = len(self.groups)
        return sums[:, g:] == self.unset, sums[:, :g].astype(np.int64) + self.tags

    def _positions(self, keys: np.ndarray) -> np.ndarray | None:
        """The distinct sorted positions in U of these keys; None when one is
        not in U."""
        keys = _sorted_distinct(keys.ravel())
        pos = np.searchsorted(self.keys, keys)
        if len(pos) and (pos[-1] == len(self.keys) or np.any(self.keys[pos] != keys)):
            return None
        return pos if self.position is None else _sorted_distinct(self.position[pos])

    def pack(self, gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(M, c) such that, for k maps g_j that each lie in a group,
        (encode(u) @ M) as int64, plus c, holds the one-word key of u o g_j
        in column j, under the first group that holds g_j (`_pack`), which
        holds u o g_j too.  A map that no group holds raises ValueError:
        its products could leave U on a column no key reads."""
        inside, _ = self._group_keys(self.encode(gens))
        if not inside.any(axis=1).all():
            raise ValueError("cannot pack a map that no key group holds")
        home = inside.argmax(axis=1)
        pack, unset = _pack(gens, self.weights[:, home].T)
        return pack, unset + self.tags[home]

    def products_in(
        self, entries: np.ndarray, packed: tuple[np.ndarray, np.ndarray]
    ) -> np.ndarray | None:
        """The distinct sorted positions in U of the products u o g_j for
        the rows u with these encoded entries and the maps g_j of
        `packed` (`pack`); None when a product is not in U.  One matmul
        forms every product's one-word key; the distinct keys are looked
        up once each, in order, and positions are deduplicated only when
        U has aliases."""
        pack, offset = packed
        keys = (entries @ pack).astype(np.int64)
        keys += offset
        return self._positions(keys)

    def find(self, rows: np.ndarray) -> np.ndarray | None:
        """The distinct sorted positions of `rows` in U; None when one is not
        in U, as is every row that no group holds.  Each row is looked up
        by its one-word key under the first group that holds it."""
        inside, keys = self._group_keys(self.encode(rows))
        return self._positions(np.where(inside, keys, NO_KEY).min(axis=1))


def union_index(family: BlockFamily, n: int, window: int) -> RowIndex:
    """The `RowIndex` of the rank-n union U, built straight from the group
    and stratum rows (`structural_parts`), so no bytewise sort of U runs.

    U's live columns, the block points below the window, form one key
    group when their entries fit one word.  Otherwise each block's points
    form a group.  Every map of U, and every map of `union_generators`
    and its inverse, has its domain inside one block, and a block has at
    most GROUP_ENUM_CAP = 7 points below the window (`group_rows` refuses
    more) with entries of at most 7 bits, so a block's word needs at most
    49 bits."""
    b = len(family.blocks)
    blocks = [blk.below(window) for blk in family.blocks]
    live = sorted(set().union(*blocks))
    one_word = len(live) * window.bit_length() <= KEY_BITS
    rows = structural_parts(family, window, [[n] * b for _ in range(b)])
    return RowIndex(rows, [live] if one_word else blocks)


def union_closed(family: BlockFamily, n: int, window: int) -> tuple[bool, int]:
    """(closed, products composed) for the rank-n union U: block groups,
    strata of rank <= n and the empty map.

    U is closed exactly when <A> = U for the generators A of
    `union_generators`.  `_search` runs over the positions of U's index
    (`union_index`), and a product outside U stops it; otherwise U is
    closed when every position is reached, after |U| x |A u A^-1|
    products.  Every product of every reached element is checked, so any
    A inside U that generates U gives the same verdict."""
    index = union_index(family, n, window)
    gens = union_generators(family, n, window)
    gens = unique_rows(np.concatenate([gens, invert_rows(gens)]))
    frontier = index.find(gens)  # so each map packed below lies in a key group
    if frontier is None:  # A lies in U by construction; "not closed" would be false
        raise ValueError("a generator of the rank-n union lies outside it")
    packed = index.pack(gens)
    reached = np.zeros(len(index.entries), dtype=bool)
    reached[frontier] = True

    def grow(left: np.ndarray) -> np.ndarray | None:
        found = index.products_in(np.take(index.entries, left, axis=0), packed)
        if found is not None:
            found = found[~reached[found]]
            reached[found] = True
        return found

    _, products, closed = _search(frontier, len(gens), grow)
    return closed and bool(reached.all()), products


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
