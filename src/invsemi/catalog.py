"""Named blocks, benchmark families and seeded random generators.

The fixed examples exercised throughout the tests live here: the dyadic
partition of the positive naturals, its one-common-point variant, a
five-block ring with prescribed overlap sizes, and small two- and
three-block families with unequal overlaps.  The random builders are
deterministic functions of the supplied generator and stay within the
window and size budgets the brute-force engines can afford.
"""

from __future__ import annotations

import itertools
import math
import random

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .descriptors import SetDescriptor
from .errors import BudgetExceededError, ParseError, UnsupportedFamilyError
from .families import BlockFamily
from .symbolic import BlockPerm, SymElement, is_empty_sym, sym_graph


@lru_cache
def dyadic_block(n: int) -> SetDescriptor:
    """Odd multiples of 2^n: the n-th class of the dyadic partition of
    the positive naturals (zero belongs to no class)."""
    return SetDescriptor.residue_class(2**n, 2 ** (n + 1))


def dyadic_owner(x: int) -> int:
    """Index of the dyadic block containing x >= 1."""
    if x <= 0:
        raise ValueError("dyadic blocks cover the positive naturals only")
    n = 0
    while x % 2 == 0:
        x //= 2
        n += 1
    return n


@lru_cache
def common_point_block(n: int) -> SetDescriptor:
    """Dyadic block n with the point 0 adjoined: any two such blocks
    meet exactly in {0}."""
    return dyadic_block(n).with_points([0])


@dataclass(frozen=True)
class BlockRule:
    """An infinite sequence of blocks given by an index rule.

    Unlike a `BlockFamily`, which holds finitely many blocks, a rule
    describes one block per natural number.  Both rules here ride on the
    dyadic partition: `shared_zero` adjoins the point 0 to every block
    (so any two blocks meet exactly in {0}); without it the blocks are
    pairwise disjoint.  The associated union semigroup holds the finitely
    supported block permutations, the empty map, and the finite maps of
    rank up to `rank_bound`, the size of the overlap of any two blocks.
    Its opens are accounted for as for a finite family, over the blocks
    that own a constraint point plus `first_free_block`, which stands in
    for every later block.
    """

    name: str
    shared_zero: bool

    @property
    def rank_bound(self) -> int:
        """The size of the overlap of any two blocks: 1 with the shared
        point, 0 without."""
        return int(self.shared_zero)

    def block(self, n: int) -> SetDescriptor:
        return common_point_block(n) if self.shared_zero else dyadic_block(n)

    def owner(self, x: int) -> int | None:
        """Index of the block holding x, not counting the shared point."""
        if x <= 0:
            return None
        return dyadic_owner(x)

    def first_free_block(self, points: Iterable[int]) -> int:
        """The least block index owning none of the points."""
        owners = {self.owner(p) for p in points}
        return next(n for n in itertools.count() if n not in owners)

    def covers(self, x: int) -> bool:
        return x >= 1 or (x == 0 and self.shared_zero)

    def block_index_of(self, d: SetDescriptor) -> int | None:
        """The n with block(n) == d, if there is one."""
        if not d.is_infinite():
            return None
        n = dyadic_owner(d.first_members(2)[1])  # the second-least member is at least 1
        return n if d == self.block(n) else None

    def member(self, f: SymElement) -> bool:
        """Membership in the union of the block permutation groups, the
        finite maps of rank up to the bound, and the empty map."""
        if is_empty_sym(f):
            return True
        if isinstance(f, BlockPerm):
            return self.block_index_of(f.block) is not None
        if f.base.is_infinite():
            return not f.pairs and self.block_index_of(f.base) is not None
        graph = sym_graph(f)
        if len(graph) > self.rank_bound:
            return False
        return all(self.covers(x) and self.covers(y) for x, y in graph)


COMMON_POINT_RULE = BlockRule("common-point-dyadic", shared_zero=True)
DISJOINT_RULE = BlockRule("disjoint-dyadic", shared_zero=False)


def dyadic_disjoint_family(count: int = 3) -> BlockFamily:
    return BlockFamily(
        tuple(dyadic_block(n) for n in range(count)), name=f"disjoint-dyadic-{count}"
    )


def common_point_family(count: int = 3) -> BlockFamily:
    return BlockFamily(
        tuple(common_point_block(n) for n in range(count)), name=f"common-point-{count}"
    )


def marker_family(count: int, weights: dict[tuple[int, int], int], name: str = "") -> BlockFamily:
    """Blocks on disjoint residue tails, overlapping in freshly assigned
    marker points: pair (i, j) receives exactly weights[(i, j)] shared
    points, drawn from residue classes no tail uses."""
    modulus = count + 2
    pool = (x for x in itertools.count() if x % modulus >= count)
    adds: dict[int, list[int]] = {i: [] for i in range(count)}
    for (i, j), w in sorted(weights.items()):
        if not 0 <= i < j < count:
            raise ValueError("weights must be keyed by ordered block pairs")
        for _ in range(w):
            p = next(pool)
            adds[i].append(p)
            adds[j].append(p)
    blocks = tuple(
        SetDescriptor.build(add=adds[i], modulus=modulus, residues=(i,))
        for i in range(count)
    )
    return BlockFamily(blocks, name=name)


def five_block_example() -> BlockFamily:
    """Five blocks on a ring of prescribed overlap sizes; the widest
    route between neighbours is sometimes the long way around."""
    return marker_family(
        5,
        {(0, 1): 3, (1, 2): 1, (2, 3): 3, (3, 4): 2, (0, 4): 2},
        name="five-ring",
    )


def unequal_example() -> BlockFamily:
    """Three blocks with overlaps of sizes 2, 1, 1."""
    b0 = SetDescriptor.build(add=[0, 1], modulus=6, residues=[2])
    b1 = SetDescriptor.build(add=[0, 1], modulus=6, residues=[3])
    b2 = SetDescriptor.build(add=[0], modulus=6, residues=[4])
    return BlockFamily((b0, b1, b2), name="unequal-overlaps")


def bound_example() -> BlockFamily:
    """Two blocks meeting in exactly two points, placed high in the window."""
    b0 = SetDescriptor.build(add=[16, 17], modulus=6, residues=[0])
    b1 = SetDescriptor.build(add=[16, 17], modulus=6, residues=[3])
    return BlockFamily((b0, b1), name="two-point-overlap")


FAMILY_BUILDERS = {
    "disjoint": dyadic_disjoint_family,
    "common-point": common_point_family,
    "five-ring": five_block_example,
    "unequal": unequal_example,
    "bound2": bound_example,
}


def named_family(spec: str) -> BlockFamily:
    """Resolve 'name' or 'name:count' to a catalog family."""
    name, _, arg = spec.partition(":")
    if name not in FAMILY_BUILDERS:
        raise UnsupportedFamilyError(
            f"unknown family {name!r}; available: {sorted(FAMILY_BUILDERS)}"
        )
    builder = FAMILY_BUILDERS[name]
    if arg:
        if name not in ("disjoint", "common-point"):
            raise UnsupportedFamilyError(f"family {name!r} takes no count argument")
        try:
            count = int(arg)
        except ValueError:
            raise ParseError(f"family count {arg!r} is not an integer") from None
        return builder(count)
    return builder()


# -- random builders ----------------------------------------------------


def _core_family(rng: random.Random, blocks: int, bound: int) -> BlockFamily:
    # all blocks share one core of `bound` points and nothing else
    modulus = rng.randint(max(4, blocks + 1), 12)
    residues = rng.sample(range(modulus - 1), blocks)
    core = [modulus - 1 + t * modulus for t in range(bound)]
    parts = tuple(
        SetDescriptor.build(add=core, modulus=modulus, residues=[r]) for r in residues
    )
    return BlockFamily(parts, name=f"core{bound}-mod{modulus}")


def _marker_uniform_family(blocks: int, bound: int) -> BlockFamily:
    weights = {(i, j): bound for i in range(blocks) for j in range(i + 1, blocks)}
    return marker_family(blocks, weights, name=f"markers{bound}-b{blocks}")


def _disjoint_family(rng: random.Random, blocks: int) -> BlockFamily:
    modulus = rng.randint(blocks, 12)
    residues = rng.sample(range(modulus), blocks)
    parts = tuple(SetDescriptor.residue_class(r, modulus) for r in residues)
    return BlockFamily(parts, name=f"disjoint-mod{modulus}")


MAX_DRAW_WINDOW, MAX_GROUP_POINTS = 24, 6  # a drawn family's window, block points below it


def random_uniform_family(rng: random.Random) -> tuple[BlockFamily, int, int]:
    """A random family whose pairwise overlaps all have the same size.

    Returns (family, bound, window) with the window sized for the
    closure engine and every block small enough below it that whole
    permutation groups stay enumerable.  Draws retry deterministically
    until the budgets hold.
    """
    # imported here, not at the top, so `import invsemi.catalog` loads no numpy
    from .closure import minimal_window

    for _ in range(400):
        bound = rng.choice([0, 0, 1, 1, 1, 2, 2])
        if bound == 2:
            blocks = rng.choice([2, 2, 3])
        elif bound == 1:
            blocks = rng.choice([2, 3, 3, 4])
        else:
            blocks = rng.choice([2, 3, 4])
        if bound == 0:
            fam = _disjoint_family(rng, blocks)
        elif bound == 2 and blocks == 3:
            fam = _core_family(rng, blocks, bound)
        elif rng.random() < 0.5:
            fam = _core_family(rng, blocks, bound)
        else:
            fam = _marker_uniform_family(blocks, bound)
        ranks = [[bound] * blocks for _ in range(blocks)]
        try:
            window = minimal_window(fam, ranks)
        except BudgetExceededError:
            continue
        if window > MAX_DRAW_WINDOW:
            continue
        sizes = [len(b.below(window)) for b in fam.blocks]
        if any(s > MAX_GROUP_POINTS or s < 2 * bound + 2 for s in sizes):
            continue
        budget = sum(math.factorial(s) for s in sizes)
        for i in range(blocks):
            for j in range(blocks):
                for k in range(1, bound + 1):
                    budget += math.comb(sizes[i], k) * math.perm(sizes[j], k)
        if budget > 5000:
            continue
        return fam, bound, window
    raise UnsupportedFamilyError("no admissible random family within 400 draws")


def violating_family(rng: random.Random, bound: int) -> BlockFamily:
    """Two to four blocks, at least one overlap strictly above the bound."""
    blocks = rng.randint(2, 4)
    weights = {}
    for i in range(blocks):
        for j in range(i + 1, blocks):
            weights[(i, j)] = rng.randint(0, bound)
    hot = sorted(weights)[rng.randrange(len(weights))]
    weights[hot] = bound + rng.randint(1, 2)
    return marker_family(blocks, weights, name=f"violates-{bound}")
