"""Windowed closure of partial bijections.

Everything here works on the points below a fixed window.  Maps are
kept as int8 rows (entry x holds the image of x, -1 for undefined), so
composing a batch against a batch is two numpy indexing operations.
The closure routine is a breadth-first search of the right Cayley graph
over the generators and their inverses, with exact dedup; companion
builders enumerate the structural candidate sets (windowed block groups
plus finite strata) straight into rows, so the two routes are compared
row by row.  Rows become ``PartialBijection``s only when a caller asks
to see the maps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .descriptors import SetDescriptor
from .errors import BudgetExceededError, NotInjectiveError, WindowMismatchError
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
    if rows.ndim != 2 or rows.dtype != np.int8:
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


def closure_of(
    generators: np.ndarray | Sequence[PartialBijection], max_elements: int | None = None
) -> ClosureResult:
    """Inverse semigroup generated by A, given as an (n, window) int8 row
    array or as maps (encoded once here): each new element is composed
    with every map of A u A^-1 once, which enumerates it with no inverse
    pass.  Stops unclosed before a batch would take it past max_elements."""
    if len(generators) == 0:
        raise ValueError("need at least one generator")
    if isinstance(generators, np.ndarray):
        _check_rows(generators)
        rows = generators
    else:
        rows = encode_rows(generators, generators[0].window)
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
    rows[:, pts] = list(itertools.permutations(pts))
    return rows


def sparse_group_generators(block: SetDescriptor, window: int) -> list[PartialBijection]:
    """A transposition and a full cycle: enough to regrow the whole group."""
    pts = block.below(window)
    if len(pts) < 2:
        return [PartialBijection.identity_on(pts, window)]
    swap = {pts[0]: pts[1], pts[1]: pts[0]}
    maps = [PartialBijection.of({p: swap.get(p, p) for p in pts}, window)]
    if len(pts) > 2:
        cycle = {p: q for p, q in zip(pts, pts[1:] + pts[:1])}
        maps.append(PartialBijection.of(cycle, window))
    return maps


def family_generators(family: BlockFamily, window: int, sparse: bool = False) -> np.ndarray:
    """The generators of the block groups as int8 rows: every element of
    each windowed group, or with `sparse` a transposition and a full cycle
    per block."""
    if sparse:
        maps = [f for b in family.blocks for f in sparse_group_generators(b, window)]
        return encode_rows(maps, window)
    return np.concatenate([group_rows(b, window) for b in family.blocks])


def structural_rows(
    family: BlockFamily, window: int, capacity: list[list[int]] | None = None
) -> np.ndarray:
    """Windowed picture of the subsemigroup the block groups generate:
    whole block groups, finite strata up to each chain capacity, and the
    empty map.  Returned as deduplicated sorted rows."""
    if capacity is None:
        capacity = chain_capacity_matrix(family)
    parts = [group_rows(b, window) for b in family.blocks] + [blank_rows(1, window)]
    pts = [b.below(window) for b in family.blocks]
    for i, src in enumerate(pts):
        for j, dst in enumerate(pts):
            for k in range(1, min(capacity[i][j], len(src), len(dst)) + 1):
                images = list(itertools.permutations(dst, k))
                for dom in itertools.combinations(src, k):
                    rows = blank_rows(len(images), window)
                    rows[:, dom] = images
                    parts.append(rows)
    return unique_rows(np.concatenate(parts))


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
    target_keys = {r.tobytes() for r in target}
    got_keys = {r.tobytes() for r in got}
    missing = tuple(
        decode_row(r, result.window) for r in target if r.tobytes() not in got_keys
    )
    extra = tuple(
        decode_row(r, result.window) for r in got if r.tobytes() not in target_keys
    )
    return StructuralDiff(
        matches=not missing and not extra,
        missing=missing,
        extra=extra,
        closure_size=len(got),
        structural_size=len(target),
    )


def rows_closed_under_ops(rows: np.ndarray, window: int) -> tuple[bool, int]:
    """All-pairs check that a row set is closed under composition and
    inverse: the reference oracle for `union_closed`.

    Returns (closed, products_checked); stops at the first escape."""
    keys = {r.tobytes() for r in rows}
    checked = 0
    step = max(1, BLOCK_PRODUCTS // len(rows))
    for start in range(0, len(rows), step):
        prods = compose_rows(rows, rows[start : start + step]).reshape(-1, window)
        checked += len(prods)
        if any(r.tobytes() not in keys for r in unique_rows(prods)):
            return False, checked
    closed = all(r.tobytes() in keys for r in invert_rows(rows))
    return closed, checked


def union_closed(family: BlockFamily, n: int, window: int) -> tuple[bool, int]:
    """(closed, products composed) for the rank-n union U: block groups,
    strata of rank <= n and the empty map.  A holds the sparse group
    generators, one map per stratum and the empty map, so A lies in U;
    the groups carry any k-tuple to any other, so <A> contains U, and U
    is closed exactly when <A> is U."""
    b = len(family.blocks)
    target = structural_rows(family, window, [[n] * b for _ in range(b)])
    pts = [blk.below(window) for blk in family.blocks]
    gens = [family_generators(family, window, sparse=True), blank_rows(1, window)]
    for src in pts:
        for dst in pts:
            # row k - 1 maps src[:k] onto dst[:k], for k = 1 .. its rank cap
            stratum = blank_rows(min(n, len(src), len(dst)), window)
            for r in range(len(stratum)):
                stratum[r:, src[r]] = dst[r]
            gens.append(stratum)
    result = closure_of(np.concatenate(gens), max_elements=len(target))
    closed = result.closed and np.array_equal(result.rows, target)
    return closed, result.products


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
    in exact (unwindowed) form.
    """
    from .symbolic import format_sym, partial_identity

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
    if window is None:
        window = minimal_window(family, [[n] * b for _ in range(b)])
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
