"""Shared fixtures and reference oracles.

The oracles here are deliberately naive: plain dict compositions, a
set-of-frozensets breadth-first closure and a walk over every chain tuple.  Engine results are checked
against these, never the other way around.
"""

import itertools
import math
import random
from typing import Sequence

import numpy as np
import pytest

from invsemi.catalog import COMMON_POINT_RULE, common_point_block
from invsemi.closure import (
    BLOCK_PRODUCTS,
    GROUP_ENUM_CAP,
    MAX_WINDOW,
    _key_entries,
    _pack,
    _run_starts,
    _search,
    _sorted_distinct,
    blank_rows,
    closure_of,
    compose_rows,
    decode_row,
    family_generators,
    group_rows,
    invert_rows,
    structural_parts,
    union_generators,
    unique_rows,
)
from invsemi.descriptors import EMPTY, NATURALS, SetDescriptor, _spread
from invsemi.errors import BudgetExceededError, InvalidOpenError, WindowMismatchError
from invsemi.families import BlockFamily, chain_capacity_by_enumeration, stratum_options
from invsemi.pbij import PartialBijection
from invsemi.symbolic import (
    BlockPerm,
    SymElement,
    block_perm,
    classify,
    dom_set,
    empty_map,
    fin_map,
    format_sym,
    im_set,
    partial_identity,
    sym_apply,
    sym_compose,
    sym_defined_at,
    sym_element,
    sym_inverse,
)
from invsemi.topology import (
    BasicOpen,
    InteriorProbeReport,
    open_contains,
    random_basic_open,
)


def minimal_period_by_scan(modulus: int, residues: frozenset[int]) -> tuple[int, tuple[int, ...]]:
    """Reference for `descriptors._minimal_period`: each divisor of the
    modulus tested residue by residue, O(modulus^2) membership tests."""
    if not residues:
        return 1, ()
    for d in range(1, modulus + 1):
        if modulus % d != 0:
            continue
        if all(((r + d) % modulus in residues) == (r in residues) for r in range(modulus)):
            return d, tuple(sorted({r % d for r in residues}))
    return modulus, tuple(sorted(residues))


def tail_mask_by_shifts(d: SetDescriptor, length: int) -> int:
    """Reference for `descriptors._tail_mask`: one shifted bit summed per
    residue, quadratic in the modulus, then spread to ``length`` bits."""
    return _spread(sum(1 << r for r in d.residues), d.modulus, length)


def pointwise_by_shifts(a: SetDescriptor, b: SetDescriptor, op) -> SetDescriptor:
    """Reference for `SetDescriptor._pointwise` with a bitwise ``op``: the
    tails as residue masks over the lcm built by `tail_mask_by_shifts`,
    the combined tail's residues listed by shifting its mask once per
    residue, and its period found by `minimal_period_by_scan`."""
    big = math.lcm(a.modulus, b.modulus)
    tail = op(tail_mask_by_shifts(a, big), tail_mask_by_shifts(b, big))
    mod, res = minimal_period_by_scan(big, frozenset(r for r in range(big) if tail >> r & 1))
    add, remove = [], []
    for x in sorted({*a.add, *a.remove, *b.add, *b.remove}):
        on_tail = tail >> x % big & 1
        if op(a.member(x), b.member(x)):
            if not on_tail:
                add.append(x)
        elif on_tail:
            remove.append(x)
    return SetDescriptor(tuple(add), tuple(remove), mod, res)


def build_by_loop(add=(), remove=(), modulus=1, residues=()) -> SetDescriptor:
    """Reference for `SetDescriptor.build`: the point-by-point patch loop."""
    add_set = set(add)
    remove_set = set(remove) - add_set
    mod, res = minimal_period_by_scan(modulus, frozenset(r % modulus for r in residues))
    res_set = set(res)
    fin_add = []
    fin_remove = []
    for x in sorted(add_set | remove_set):
        desired = x in add_set
        on_tail = x % mod in res_set
        if desired and not on_tail:
            fin_add.append(x)
        elif not desired and on_tail:
            fin_remove.append(x)
    return SetDescriptor(tuple(fin_add), tuple(fin_remove), mod, res)


def set_descriptor_check_by_rebuild(add=(), remove=(), modulus=1, residues=()) -> None:
    """Reference for the check in `SetDescriptor.__post_init__`: every
    instance derives its tail verdict afresh and rebuilds each patch
    tuple as a sorted set.  Raises the constructor's `ValueError`s."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    res = frozenset(residues)
    if residues != tuple(sorted(res)):
        raise ValueError("residues must be sorted and distinct")
    if residues and (residues[0] < 0 or residues[-1] >= modulus):
        raise ValueError("residues must lie in [0, modulus)")
    if not residues and modulus != 1:
        raise ValueError("empty tail must use modulus 1")
    if minimal_period_by_scan(modulus, res) != (modulus, residues):
        raise ValueError("tail period is not minimal")
    for name, pts in (("add", add), ("remove", remove)):
        if pts != tuple(sorted(set(pts))):
            raise ValueError(f"{name} points must be sorted and distinct")
        if pts and pts[0] < 0:
            raise ValueError(f"{name} points must be naturals")
    if add and not res.isdisjoint([a % modulus for a in add]):
        raise ValueError("added point already on the tail")
    if remove and not res.issuperset([r % modulus for r in remove]):
        raise ValueError("removed point is not on the tail")


def pointwise_by_build(a: SetDescriptor, b: SetDescriptor, op) -> SetDescriptor:
    """Reference for the boolean algebra of descriptors: every residue of
    the lcm tested with ``op`` on booleans, every patched point tested by
    membership, and the result canonicalized by `build_by_loop`."""
    big = math.lcm(a.modulus, b.modulus)
    res = [r for r in range(big)
           if op(r % a.modulus in a.residues, r % b.modulus in b.residues)]
    finite = set(a.add) | set(a.remove) | set(b.add) | set(b.remove)
    res_set = set(res)
    add, remove = [], []
    for x in finite:
        if op(a.member(x), b.member(x)):
            add.append(x)
        elif x % big in res_set:
            remove.append(x)
    return build_by_loop(add=add, remove=remove, modulus=big, residues=res)


def random_descriptor(rng):
    """Canonical descriptors with moduli up to 12 and patches up to 40,
    drawn through the reference `build`, plus the two trivial tails."""
    if rng.random() < 0.1:
        return rng.choice((EMPTY, NATURALS))
    modulus = rng.randint(1, 12)
    return build_by_loop(
        add=rng.sample(range(41), rng.randint(0, 5)),
        remove=rng.sample(range(41), rng.randint(0, 5)),
        modulus=modulus,
        residues=rng.sample(range(modulus), rng.randint(0, modulus)),
    )


def almost_subset_by_difference(a: SetDescriptor, b: SetDescriptor) -> bool:
    """Reference for `SetDescriptor.almost_subset_of` and for membership
    in a principal-plus-fin ideal: build a \\ b and check that it is
    finite."""
    return not a.difference(b).is_infinite()


def formula_sides_by_algebra(v, pivot: SetDescriptor) -> tuple[SetDescriptor, SetDescriptor]:
    """Reference for the formula sides of `ideal_escape_witness`: the
    pivot plus the open's constraint points, minus its sources (resp.
    its targets), built with `union` and `difference`."""
    srcs = [x for x, _ in v.positive]
    tgts = [y for _, y in v.positive]
    touched = SetDescriptor.from_points({*srcs, *tgts, *v.forbid_dom, *v.forbid_im})
    spread = pivot.union(touched)
    return (spread.difference(SetDescriptor.from_points(srcs)),
            spread.difference(SetDescriptor.from_points(tgts)))


def compose_dicts(f: dict, g: dict) -> dict:
    """Reference composition: apply g first, then f."""
    return {x: f[g[x]] for x in g if g[x] in f}


def invert_dict(f: dict) -> dict:
    return {y: x for x, y in f.items()}


def closure_dicts(generators, max_size=50000):
    """Reference closure under composition and inverse, as frozen pair sets."""
    seen = {frozenset(g.items()) for g in generators}
    frontier = [dict(s) for s in seen]
    while frontier:
        fresh = []
        for g in frontier:
            for s in list(seen):
                for prod in (compose_dicts(g, dict(s)), compose_dicts(dict(s), g)):
                    key = frozenset(prod.items())
                    if key not in seen:
                        seen.add(key)
                        fresh.append(prod)
            inv = invert_dict(g)
            key = frozenset(inv.items())
            if key not in seen:
                seen.add(key)
                fresh.append(inv)
        if len(seen) > max_size:
            raise RuntimeError("oracle closure grew past the test budget")
        frontier = fresh
    return seen


def chain_capacity_by_literal_walk(family: BlockFamily, max_interior: int | None = None) -> list[list[int]]:
    """Slow reference for the capacity matrix: walk every chain tuple.

    Chains are enumerated literally (repeated blocks allowed, the
    first-entry rule on the diagonal enforced as stated) up to
    ``max_interior`` entries, which defaults to one more than the number
    of blocks; longer chains cannot widen a max-min value.
    """
    b = len(family.blocks)
    if max_interior is None:
        max_interior = b + 1
    w = family.intersection_matrix()

    def edge(a: int, c: int) -> int | None:
        return None if a == c else w[a][c]  # None: same block, no constraint

    best = [[0] * b for _ in range(b)]

    def walk(start: int, pos: int, first: int, depth: int, curmin: int | None) -> None:
        # the interior built so far has `depth` entries and ends at pos;
        # each endpoint choice v closes one chain (start, interior.., v)
        if depth > max_interior:
            return
        for v in range(b):
            e = edge(pos, v)
            nextmin = curmin if e is None else (e if curmin is None else min(curmin, e))
            if nextmin == 0:
                continue
            if (v != start or first != start) and nextmin is not None:
                if nextmin > best[start][v]:
                    best[start][v] = nextmin
            walk(start, v, first, depth + 1, nextmin)

    for i in range(b):
        for k1 in range(b):
            e = edge(i, k1)
            if e == 0:
                continue
            walk(i, k1, k1, 1, e)
    return best


def is_generated_by_capacity(f: SymElement, family: BlockFamily) -> bool:
    """Reference for `families.is_generated`: a finite map of rank k is
    generated when some stratum option (i, j) has chain capacity at
    least k in the walk oracle's capacity matrix."""
    tag = classify(f, family.blocks)
    if tag.kind in ("group", "empty"):
        return True
    if tag.kind == "outside":
        return False
    capacity = chain_capacity_by_enumeration(family)
    return any(tag.k <= capacity[i][j] for i, j in stratum_options(f, family))


def unique_rows_by_bytes(rows: np.ndarray) -> np.ndarray:
    """Reference for `unique_rows`: ``sorted(set(row bytes))`` back as
    int8 rows."""
    distinct = sorted({r.tobytes() for r in rows})
    return np.frombuffer(b"".join(distinct), dtype=np.int8).reshape(-1, rows.shape[1])


def closure_by_row_scan(rows, max_elements=None, batch_products=BLOCK_PRODUCTS):
    """Reference for `closure_of` on int8 rows: the same breadth-first
    search in the same batches, with each batch's composites built by
    `compose_rows`, deduplicated and sorted by their bytes, and scanned
    row by row against the elements seen so far.

    Returns (rows, frontier_sizes, products, closed)."""
    window = rows.shape[1]
    gens = unique_rows_by_bytes(np.concatenate([rows, invert_rows(rows)]))
    if max_elements is not None and len(gens) > max_elements:
        return gens[:0], (), 0, False
    seen = {r.tobytes() for r in gens}
    found = [gens]
    step = max(1, batch_products // len(gens))
    products = 0
    closed = True
    while closed:
        fresh = []
        for start in range(0, len(found[-1]), step):
            left = found[-1][start : start + step]
            products += len(left) * len(gens)
            distinct = unique_rows_by_bytes(compose_rows(left, gens).reshape(-1, window))
            batch = [r for r in distinct if r.tobytes() not in seen]
            if max_elements is not None and len(seen) + len(batch) > max_elements:
                closed = False  # the batches before this one still count
                break
            seen.update(r.tobytes() for r in batch)
            fresh += batch
        if not fresh:
            break
        found.append(np.stack(fresh))
    return unique_rows_by_bytes(np.concatenate(found)), tuple(map(len, found)), products, closed


def stratum_counts_by_maps(result, fam: BlockFamily) -> dict[str, int]:
    """Reference for `cli._stratum_counts`: every element decoded into a
    `PartialBijection`, its domain and image compared as sets with each
    block's points below the window."""
    prefixes = [set(blk.below(result.window)) for blk in fam.blocks]
    counts: dict[str, int] = {}
    for f in result.elements:
        dom = set(f.domain())
        img = set(f.image())
        if not dom:
            key = "empty"
        else:
            gi = next((i for i, p in enumerate(prefixes) if dom == p and img == p), None)
            if gi is not None:
                key = f"group[{gi}]"
            else:
                i = next((i for i, p in enumerate(prefixes) if dom <= p), None)
                j = next((j for j, p in enumerate(prefixes) if img <= p), None)
                key = f"rank{len(dom)}[{i},{j}]" if i is not None and j is not None else "other"
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def minimal_window_by_scan(family: BlockFamily, rank_matrix: list[list[int]]) -> int:
    """Reference for `closure.minimal_window`: windows 1 to MAX_WINDOW
    tried in turn against the overlap points and each block's need."""
    b = len(family.blocks)
    needs = []
    for i in range(b):
        max_rank = max(max(rank_matrix[i][j], rank_matrix[j][i]) for j in range(b))
        max_off = max((family.intersection_size(i, j) for j in range(b) if j != i), default=0)
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


def capped_rows(family: BlockFamily, window: int, capacity) -> np.ndarray:
    """`structural_rows` under a given capacity matrix in place of the
    family's chain capacities: with every entry n, the rank-n union U
    that `union_closed` and `union_classes` test."""
    return unique_rows(structural_parts(family, window, capacity))


def union_closed_by_search(family: BlockFamily, n: int, window: int) -> tuple[bool, int]:
    """Reference for `union_closed`: the closure engine grows <A> from the
    same generators, stopped past |U| elements, and its rows are compared
    with U's.  Returns (closed, products)."""
    b = len(family.blocks)
    target = capped_rows(family, window, [[n] * b for _ in range(b)])
    result = closure_of(union_generators(family, n, window), max_elements=len(target))
    return result.closed and np.array_equal(result.rows, target), result.products


def rows_by_bytes(u_rows: np.ndarray, queries: np.ndarray) -> np.ndarray | None:
    """Reference for `RowIndex.find` and `products_in`: the distinct query
    rows in bytewise order, each looked up in a set of U's row bytes;
    None when one is not in U."""
    inside = {r.tobytes() for r in u_rows}
    if any(r.tobytes() not in inside for r in queries):
        return None
    return unique_rows(queries)


def union_generators_all_pairs(family: BlockFamily, n: int, window: int) -> np.ndarray:
    """Reference for `union_generators`: the sparse group generators, the
    empty map and, for each ordered pair of blocks, one map per rank k up
    to n, src[:k] onto dst[:k].  A superset of the hub-routed set that
    also lies in the rank-n union."""
    pts = [blk.below(window) for blk in family.blocks]
    gens = [family_generators(family, window, sparse=True), blank_rows(1, window)]
    for src in pts:
        for dst in pts:
            # row k - 1 maps src[:k] onto dst[:k], for k = 1 .. its rank cap
            stratum = blank_rows(min(n, len(src), len(dst)), window)
            for r in range(len(stratum)):
                stratum[r:, src[r]] = dst[r]
            gens.append(stratum)
    return np.concatenate(gens)


# -- the closedness index: the enumerating oracle for the counting route ---------------------


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
        return _key_entries(rows).astype(np.float64)

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
    """Reference for `closure.union_classes`: (closed, products composed)
    for the rank-n union U, block groups, strata of rank <= n and the
    empty map, by enumerating U.

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


def group_order_by_closure(gens, degree: int) -> int:
    """Reference for `green.group_order`: every product of the generators,
    grown breadth-first from the identity as tuples of images."""
    found = {tuple(range(degree))}
    frontier = list(found)
    while frontier:
        fresh = []
        for p in frontier:
            for g in gens:
                q = tuple(g[x] for x in p)
                if q not in found:
                    found.add(q)
                    fresh.append(q)
        frontier = fresh
    return len(found)

def d_classes_by_enumeration(rows: np.ndarray) -> set[tuple[int, frozenset[int], int]]:
    """Reference for `green.d_classes`: the closure of `rows` listed by
    `closure_of`, each map's domain and image as bitmasks, the classes
    as the components of the domain-image pairs, and each class's group
    order as the number of maps with domain and image its first image.
    One (rank, images, group order) triple per class."""
    parent: dict[int, int] = {}

    def root(y):
        while parent.setdefault(y, y) != y:
            y = parent[y]
        return y

    pairs = []
    for row in closure_of(rows).rows.tolist():
        dom = sum(1 << x for x, y in enumerate(row) if y >= 0)
        im = sum(1 << y for y in row if y >= 0)
        pairs.append((dom, im))
        parent[root(dom)] = root(im)
    members: dict[int, set[int]] = {}
    for y in list(parent):
        members.setdefault(root(y), set()).add(y)
    out = set()
    for images in members.values():
        first = min(images)
        order = sum(dom == im == first for dom, im in pairs)
        out.add((bin(first).count("1"), frozenset(images), order))
    return out


def group_rows_by_loop(block: SetDescriptor, window: int) -> np.ndarray:
    """Reference for `group_rows`: the permutations written from a list."""
    pts = block.below(window)
    rows = blank_rows(math.factorial(len(pts)), window)
    rows[:, pts] = list(itertools.permutations(pts))
    return rows


def structural_rows_by_loop(family: BlockFamily, window: int, capacity) -> np.ndarray:
    """Reference for `capped_rows`: one assignment per domain tuple."""
    parts = [group_rows_by_loop(b, window) for b in family.blocks] + [blank_rows(1, window)]
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


def random_partial_injection(rng: random.Random, window: int) -> PartialBijection:
    points = [x for x in range(window) if rng.random() < 0.5]
    targets = rng.sample(range(window), len(points))
    return PartialBijection.of(zip(points, targets), window)


def windowed_block_group(block: SetDescriptor, window: int) -> list[PartialBijection]:
    """Every permutation of the block's points below the window, as maps
    in `itertools.permutations` order."""
    return [decode_row(r, window) for r in group_rows(block, window)]


def open_contains_map(v, f: PartialBijection) -> bool:
    """Membership of a windowed map in a basic open; the window must
    cover every constraint point, otherwise membership is not decided by
    the data."""
    pts = v.constraint_points()
    if pts and max(pts) >= f.window:
        raise WindowMismatchError(
            f"open constrains point {max(pts)} outside window {f.window}")
    m = f.as_dict()
    for x, y in v.positive:
        if m.get(x) != y:
            return False
    if any(p in m for p in v.forbid_dom):
        return False
    hits = set(m.values())
    return not any(p in hits for p in v.forbid_im)


def group_open_members(v, rule, window: int, max_block: int) -> list:
    """Brute-force enumeration of the group members supported below the
    window that lie in the open."""
    out = []
    for m in range(max_block + 1):
        blk = rule.block(m)
        prefix = blk.below(window)
        if len(prefix) > GROUP_ENUM_CAP:
            raise BudgetExceededError(
                f"block {m} has {len(prefix)} points below {window}")
        for perm in itertools.permutations(prefix):
            g = block_perm(blk, tuple(zip(prefix, perm)))
            if open_contains(v, g):
                out.append(g)
    return out


def open_contains_by_descriptors(v, f) -> bool:
    """Reference for `topology.open_contains`: the forbidden points are
    tested against the element's domain and image descriptors."""
    for x, y in v.positive:
        if not sym_defined_at(f, x) or sym_apply(f, x) != y:
            return False
    dom = dom_set(f)
    if any(p in dom for p in v.forbid_dom):
        return False
    img = im_set(f)
    return not any(p in img for p in v.forbid_im)


def low_rank_open_members_by_scan(v, rule, window: int) -> list:
    """Slow reference for `topology.low_rank_open_members`: build every
    map a -> b below the window and test each against the open and the
    rule, after the empty map."""
    hits = []
    if open_contains(v, empty_map()):
        hits.append(empty_map())
    for a in range(window):
        for b in range(window):
            g = fin_map([(a, b)])
            if open_contains(v, g) and rule.member(g):
                hits.append(g)
    return hits


def random_basic_open_by_descriptors(rng: random.Random, member=None, max_pairs: int = 3,
                                     max_forbid: int = 4, bound: int = 64) -> BasicOpen:
    """Reference for `topology.random_basic_open`: the same draws from
    `rng`, with the member's domain and image read through descriptors."""
    if member is None:
        npairs = rng.randint(0, max_pairs)
        srcs = rng.sample(range(bound), npairs)
        tgts = rng.sample(range(bound), npairs)
        pairs = tuple(zip(srcs, tgts))
        fd_pool = [p for p in range(bound) if p not in srcs]
        fi_pool = [p for p in range(bound) if p not in tgts]
    else:
        dom_pts = [x for x in dom_set(member).below(bound)
                   if sym_apply(member, x) < bound]
        npairs = rng.randint(0, min(max_pairs, len(dom_pts)))
        srcs = rng.sample(dom_pts, npairs)
        pairs = tuple((x, sym_apply(member, x)) for x in srcs)
        dom = dom_set(member)
        img = im_set(member)
        fd_pool = [p for p in range(bound) if p not in dom]
        fi_pool = [p for p in range(bound) if p not in img]
    fd = rng.sample(fd_pool, min(rng.randint(0, max_forbid), len(fd_pool)))
    fi = rng.sample(fi_pool, min(rng.randint(0, max_forbid), len(fi_pool)))
    return BasicOpen(pairs, tuple(fd), tuple(fi))


def basic_open_check_by_rebuild(positive=(), forbid_dom=(), forbid_im=()):
    """Reference for `BasicOpen.__post_init__`: normalize, then run each
    check on sets built afresh.  Returns the normalized fields or raises
    the constructor's `InvalidOpenError`s."""
    pos = tuple(sorted((int(x), int(y)) for x, y in positive))
    fd = tuple(sorted(int(p) for p in forbid_dom))
    fi = tuple(sorted(int(p) for p in forbid_im))
    if any(x < 0 or y < 0 for x, y in pos):
        raise InvalidOpenError("negative point in a required pair")
    if any(p < 0 for p in fd + fi):
        raise InvalidOpenError("negative forbidden point")
    srcs = [x for x, _ in pos]
    tgts = [y for _, y in pos]
    if len(set(srcs)) != len(srcs) or len(set(tgts)) != len(tgts):
        raise InvalidOpenError("required pairs must form an injective map")
    if len(set(fd)) != len(fd) or len(set(fi)) != len(fi):
        raise InvalidOpenError("duplicate forbidden point")
    if set(fd) & set(srcs):
        raise InvalidOpenError("a required source is also domain-forbidden")
    if set(fi) & set(tgts):
        raise InvalidOpenError("a required target is also image-forbidden")
    return pos, fd, fi


def shared_identity_interior_probe_by_rebuild(trials: int, seed: int) -> InteriorProbeReport:
    """Reference for `topology.shared_identity_interior_probe`: every
    trial builds its witness, checks it and formats it anew."""
    rule = COMMON_POINT_RULE
    a = fin_map([(0, 1)])
    product = sym_compose(sym_inverse(a), a)
    sole = product == partial_identity([0])
    rng = random.Random(seed)
    escapes = []
    ok = sole
    for _ in range(trials):
        v = random_basic_open(rng, member=product)
        n = rule.first_free_block(v.forbid_dom + v.forbid_im)
        witness = partial_identity(rule.block(n))
        good = (open_contains(v, witness) and rule.member(witness)
                and witness != product)
        ok = ok and good
        escapes.append((v.describe(), format_sym(witness)))
    return InteriorProbeReport(product, sole, trials, tuple(escapes), ok)


# -- test-only element builders ----------------------------------------------------


def evens() -> SetDescriptor:
    return SetDescriptor.residue_class(0, 2)


def odds() -> SetDescriptor:
    return SetDescriptor.residue_class(1, 2)


SYM_POOL_POINT_BOUND = 12


def sym_element_pool() -> tuple[SetDescriptor, ...]:
    """Blocks for random element draws: pairwise overlaps are {0}, so
    every cross-block composite stays within the point bound."""
    return tuple(common_point_block(n) for n in range(4))


def random_sym_element(rng: random.Random) -> SymElement:
    """A random element over the fixed pool, all finite data below
    SYM_POOL_POINT_BOUND so windowing at 16 or more is lossless."""
    pool = sym_element_pool()
    bound = SYM_POOL_POINT_BOUND
    kind = rng.choice(["perm", "perm", "fin", "fin", "blockid", "finid", "patched"])
    if kind == "perm":
        block = pool[rng.randrange(len(pool))]
        pts = block.below(bound)
        take = rng.randint(2, min(4, len(pts)))
        sup = rng.sample(pts, take)
        img = sup[:]
        while img == sup:
            rng.shuffle(img)
        return block_perm(block, zip(sup, img))
    if kind == "fin":
        take = rng.randint(0, 4)
        srcs = rng.sample(range(bound), take)
        tgts = rng.sample(range(bound), take)
        return fin_map(zip(srcs, tgts))
    if kind == "blockid":
        return partial_identity(pool[rng.randrange(len(pool))])
    if kind == "finid":
        take = rng.randint(0, 5)
        return partial_identity(SetDescriptor.from_points(rng.sample(range(bound), take)))
    block = pool[rng.randrange(len(pool))]
    inside = block.below(bound)
    outside = [x for x in range(bound) if not block.member(x)]
    cut = rng.sample(inside, min(2, len(inside)))
    take = rng.randint(1, min(3, len(outside), len(cut) + len(outside) - 1))
    srcs = rng.sample(outside, take)
    tgts = rng.sample([x for x in outside + cut if x not in srcs], take)
    try:
        return sym_element(block.without_points(cut + srcs + tgts), zip(srcs, tgts))
    except ValueError:
        return partial_identity(block)


def random_block_permutation(
    rng: random.Random, block: SetDescriptor, window: int
) -> SymElement:
    pts = block.below(window)
    img = pts[:]
    rng.shuffle(img)
    return block_perm(block, zip(pts, img)) if img != pts else partial_identity(block)


def project_to_window(f: SymElement, window: int) -> PartialBijection:
    """Truncate to the points below ``window``.

    Infinite carriers truncate silently; finite data (moved pairs, and
    the whole carrier of a finite element) must already fit, since
    dropping it would change the element rather than window it.
    """
    if any(v >= window for p in f.pairs for v in p):
        raise WindowMismatchError("map pairs exceed the window")
    if isinstance(f, BlockPerm):
        moved = dict(f.pairs)
        pairs = [(x, moved.get(x, x)) for x in f.block.below(window)]
        return PartialBijection.of(pairs, window)
    if not f.base.is_infinite() and any(p >= window for p in f.base.points()):
        raise WindowMismatchError("finite identity base exceeds the window")
    pairs = list(f.pairs) + [(x, x) for x in f.base.below(window)]
    return PartialBijection.of(pairs, window)


OVERLAP_BOUND = 12
OVERLAPPING_CARRIERS = (
    NATURALS,
    SetDescriptor.residue_class(0, 2),
    NATURALS.without_points([2]),
)


def overlapping_sym_element(rng: random.Random):
    """A symbolic element over carriers that pairwise overlap infinitely:
    a permutation of one of them, an ``idplus`` patch on one of them, or
    a finite map, with all finite data below OVERLAP_BOUND."""
    carrier = rng.choice(OVERLAPPING_CARRIERS)
    kind = rng.choice(["perm", "perm", "idplus", "fin"])
    if kind == "perm":
        sup = rng.sample(carrier.below(OVERLAP_BOUND), rng.randint(2, 4))
        img = sup[:]
        while img == sup:
            rng.shuffle(img)
        return block_perm(carrier, zip(sup, img))
    if kind == "fin":
        k = rng.randint(0, 4)
        pts = range(OVERLAP_BOUND)
        return fin_map(zip(rng.sample(pts, k), rng.sample(pts, k)))
    base = carrier.without_points(rng.sample(carrier.below(OVERLAP_BOUND), rng.randint(1, 3)))
    free = [x for x in range(OVERLAP_BOUND) if not base.member(x)]
    k = rng.randint(1, min(3, len(free)))
    return sym_element(base, zip(rng.sample(free, k), rng.sample(free, k)))


@pytest.fixture
def rng():
    return random.Random(20260817)


# -- acceptance summary -------------------------------------------------
# one verdict line per acceptance criterion at the end of the run

_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py::test_criterion_" not in report.nodeid:
        return
    if report.when == "call" or report.outcome == "failed":
        name = report.nodeid.split("::test_criterion_", 1)[1]
        num = int(name.split("_", 1)[0])
        label = name.split("_", 1)[1].replace("_", " ")
        current = _ACCEPTANCE.get(num)
        verdict = "PASS" if report.outcome == "passed" else "FAIL"
        if current != (label, "FAIL"):
            _ACCEPTANCE[num] = (label, verdict)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        label, verdict = _ACCEPTANCE[num]
        terminalreporter.write_line(f"criterion {num}: {verdict} - {label}")
