"""Green's structure of a windowed inverse semigroup, counted from the
orbit of images, never enumerated.

S = <A> for a set A of partial bijections closed under inverse (given
as int8 rows, entry x the image of x or -1).  Every image of S lies in
the orbit of the generators' images under Y -> h(Y n dom h), h in A.
In an inverse semigroup the images are the domains, and two of them
are D-related exactly when some path of rank-preserving edges
(Y inside dom h) joins them: a word whose product is defined on all of
Y keeps every point of Y at every step.  Those edges are symmetric,
because A holds h^-1 beside h.  A D-class C with representative Y
holds |C|^2 |H| maps, where H <= Sym(Y) is generated by the Schreier
generators read off a spanning tree of C, and |H| comes from Knuth's
Sims table.  Sources: East, Egri-Nagy, Mitchell and Peresse, "Computing
finite semigroups", J. Symbolic Comput. 92 (2019); Knuth, "Efficient
representation of perm groups", Combinatorica 11 (1991).

Images are int bitmasks: bit x is set when point x lies in the image.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

import numpy as np

Perm = tuple[int, ...]


@dataclass(frozen=True)
class DClass:
    """One D-class: the rank of its maps, its images as bitmasks and the
    order of its group.  It holds len(images)^2 * group_order maps."""

    rank: int
    images: frozenset[int]
    group_order: int

    def size(self) -> int:
        return len(self.images) ** 2 * self.group_order


def group_order(gens: Iterable[Perm], degree: int) -> int:
    """The order of the group the permutations of range(degree) generate,
    from Knuth's Sims table (Combinatorica 11, 1991, section 3).

    Level k holds `table[k]`, one element fixing every point below k for
    each point j of the orbit of k, mapping k to j, and `strong[k]`, the
    generators added at that level.  Adding p at level k (Knuth's A_k)
    does nothing when p sifts through the table from level k; otherwise
    p joins strong[k] and every product (table entry, then p) is
    inserted (B_k).  Inserting q at level k either fills the empty slot
    q(k), and then q times every strong generator of level k is inserted
    too, or sends q times the inverse of the slot's entry, which fixes k,
    on to level k + 1.  A work stack replaces Knuth's recursion; the
    final table is a Sims table for any processing order.  The order is
    the product of the orbit lengths.  A permutation p is a tuple with
    p[x] the image of x, and (p then q)[x] = q[p[x]]."""
    if degree < 2:
        return 1
    table: list[dict[int, Perm]] = []
    inverse: list[dict[int, Perm]] = []
    identity = tuple(range(degree))
    for k in range(degree):
        table.append({k: identity})
        inverse.append({k: identity})
    strong: list[list[Perm]] = [[] for _ in range(degree)]
    todo: list[tuple[int, Perm]] = []

    def add(k: int, p: Perm) -> None:
        q = p
        for level in range(k, degree):
            j = q[level]
            if j != level:
                back = inverse[level].get(j)
                if back is None:
                    break
                q = itemgetter(*q)(back)
        else:
            return  # p sifts: it lies in the group of level k already
        strong[k].append(p)
        todo.extend((k, itemgetter(*s)(p)) for s in table[k].values())

    for g in gens:
        add(0, tuple(g))
    while todo:
        k, q = todo.pop()
        j = q[k]
        back = inverse[k].get(j)
        if back is None:
            table[k][j] = q
            inv = [0] * degree
            for x, y in enumerate(q):
                inv[y] = x
            inverse[k][j] = tuple(inv)
            then = itemgetter(*q)
            todo.extend((k, then(t)) for t in strong[k])
        elif k + 1 < degree:
            add(k + 1, itemgetter(*q)(back))
    order = 1
    for row in table:
        order *= len(row)
    return order


def _points(mask: int) -> list[int]:
    """The set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def d_classes(rows: np.ndarray, max_images: int) -> tuple[tuple[DClass, ...] | None, int]:
    """(classes, actions) of the inverse semigroup generated by `rows`,
    which must be closed under inverse: its D-classes in the order the
    orbit meets them, and the number of generator actions Y -> h(Y n
    dom h) applied.  Classes is None once the orbit holds more than
    `max_images` images; the actions then count up to that point.

    The orbit starts from the generators' images.  Each image not yet
    classed roots a breadth-first search along rank-preserving edges,
    which builds its class with a spanning tree: words[Z] lists the
    images of the root's points, ascending, under the tree's word to Z.
    An edge Z -> h(Z) whose image is known already gives the Schreier
    generator u_Z . h . u_h(Z)^-1 on the root's points, as positions.
    An edge that drops rank queues its image as the root of a later
    class, unless it is known."""
    maps = []
    for row in rows.tolist():
        dom = 0
        for x, y in enumerate(row):
            if y >= 0:
                dom |= 1 << x
        maps.append((dom, row))
    seen: set[int] = set()
    roots: deque[int] = deque()
    for _, row in maps:
        image = sum(1 << y for y in row if y >= 0)
        if image not in seen:
            seen.add(image)
            roots.append(image)
    classed: set[int] = set()
    classes = []
    actions = 0
    while roots:
        root = roots.popleft()
        if root in classed:
            continue
        words = {root: tuple(_points(root))}
        order = [root]
        schreier: set[Perm] = set()
        for z in order:  # grows as the class is found
            word = words[z]
            for dom, to in maps:
                actions += 1
                if z & dom != z:
                    lower = 0
                    for x in word:
                        if dom >> x & 1:
                            lower |= 1 << to[x]
                    if lower not in seen:
                        seen.add(lower)
                        roots.append(lower)
                    continue
                moved = tuple([to[x] for x in word])
                image = 0
                for y in moved:
                    image |= 1 << y
                known = words.get(image)
                if known is None:
                    words[image] = moved
                    order.append(image)
                    seen.add(image)
                elif known != moved:
                    at = {y: i for i, y in enumerate(known)}
                    schreier.add(tuple([at[y] for y in moved]))
            if len(seen) > max_images:
                return None, actions
        classed.update(order)
        rank = len(words[root])
        classes.append(DClass(rank, frozenset(order), group_order(schreier, rank)))
    return tuple(classes), actions
