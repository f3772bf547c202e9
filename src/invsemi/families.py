"""Block families and the reach of their finitely supported groups.

A block family is a finite list of infinite subsets of the naturals
with pairwise finite overlaps.  Each block carries its group of
finitely supported permutations; composing across blocks squeezes
through the finite overlaps, and what survives is measured by chains of
blocks whose consecutive overlaps stay large.  One chain search,
`find_chain`, gives the chain capacities and their checkable
certificates, decides membership in the subsemigroup the block groups
generate, and routes the factoring of its finite elements back into
block permutations; a walk over chains, `chain_capacity_by_enumeration`,
checks the capacities independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .descriptors import SetDescriptor
from .errors import InvalidFamilyError, NotGeneratedError, ParseError, UnsupportedFamilyError
from .symbolic import (
    SymElement,
    block_perm,
    classify,
    compose_chain,
    partial_identity,
    sym_graph,
)


@dataclass(frozen=True)
class BlockFamily:
    blocks: tuple[SetDescriptor, ...]
    name: str = field(default="", compare=False)
    # pairwise meets, computed once while validating; None on the diagonal
    _meets: tuple[tuple[SetDescriptor | None, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.blocks) < 2:
            raise InvalidFamilyError("a block family needs at least two blocks")
        for i, b in enumerate(self.blocks):
            if not b.is_infinite():
                raise InvalidFamilyError(f"block {i} is finite")
        b = len(self.blocks)
        meets: list[list[SetDescriptor | None]] = [[None] * b for _ in range(b)]
        for i in range(b):
            for j in range(i + 1, b):
                meet = self.blocks[i].intersect(self.blocks[j])
                if meet.is_infinite():
                    raise InvalidFamilyError(f"blocks {i} and {j} overlap infinitely")
                if self.blocks[i] == self.blocks[j]:
                    raise InvalidFamilyError(f"blocks {i} and {j} are equal")
                meets[i][j] = meets[j][i] = meet
        object.__setattr__(self, "_meets", tuple(map(tuple, meets)))

    def __len__(self) -> int:
        return len(self.blocks)

    def meet(self, i: int, j: int) -> SetDescriptor:
        """The finite overlap of two different blocks."""
        if i == j:
            raise ValueError("same block: intersection is the block itself")
        return self._meets[i][j]

    def intersection_size(self, i: int, j: int) -> int:
        return len(self.meet(i, j).points())

    def intersection_matrix(self) -> list[list[int | None]]:
        """Pairwise overlap sizes; None on the diagonal (infinite)."""
        b = len(self.blocks)
        return [
            [None if i == j else self.intersection_size(i, j) for j in range(b)]
            for i in range(b)
        ]

    def to_config(self) -> dict:
        cfg: dict = {"blocks": [b.to_config() for b in self.blocks]}
        if self.name:
            cfg["name"] = self.name
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "BlockFamily":
        """Read `to_config` output.  An unknown key or a name that is no
        string is a `ParseError`, so a misspelt key is not dropped."""
        if not isinstance(cfg, dict) or not isinstance(cfg.get("blocks"), list):
            raise ParseError("a family config is an object with a list under 'blocks'")
        extra = set(cfg) - {"blocks", "name"}
        if extra:
            raise ParseError(f"unknown family config keys: {sorted(extra)}")
        name = cfg.get("name", "")
        if not isinstance(name, str):
            raise ParseError(f"family config name must be a string, got {type(name).__name__}")
        blocks = tuple(SetDescriptor.from_config(b) for b in cfg["blocks"])
        return cls(blocks, name=name)


# -- chain capacities ----------------------------------------------------


def chain_capacity_by_enumeration(family: BlockFamily, max_interior: int | None = None) -> list[list[int]]:
    """Reference for the capacity matrix by walking chains, independent
    of the chain search.

    Chains follow the literal definition (repeated blocks allowed, the
    first-entry rule on the diagonal enforced as stated) up to
    ``max_interior`` interior entries, which defaults to one more than
    the number of blocks; longer chains cannot widen a max-min value.
    The chains closed from a walk state (start block, current block,
    whether the first entry is the start, running bottleneck) depend on
    that state and on the entries left, and a state reached with fewer
    entries closes every chain it closes when reached with more.  So a
    state is walked only when reached at a smaller depth than before.
    With d distinct positive overlap sizes there are at most
    b^2 x (2d + 1) states, each walked at most ``max_interior`` times.
    """
    b = len(family.blocks)
    if max_interior is None:
        max_interior = b + 1
    w = family.intersection_matrix()

    def edge(a: int, c: int) -> int | None:
        return None if a == c else w[a][c]  # None: same block, no constraint

    best = [[0] * b for _ in range(b)]
    shallowest: dict[tuple[int, int, bool, int | None], int] = {}

    def walk(start: int, pos: int, first: int, depth: int, curmin: int | None) -> None:
        # the interior built so far has `depth` entries and ends at pos;
        # each endpoint choice v closes one chain (start, interior.., v)
        if depth > max_interior:
            return
        state = (start, pos, first == start, curmin)
        if shallowest.get(state, max_interior + 1) <= depth:
            return
        shallowest[state] = depth
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
    # walk reaches itself through its closure cell; emptying the cell
    # frees the function, its state and the memo without the cyclic
    # collector
    del walk
    return best


@dataclass(frozen=True)
class ChainCertificate:
    """A checkable chain witnessing capacity at least m between two blocks."""

    i: int
    j: int
    interior: tuple[int, ...]
    m: int


def verify_chain(family: BlockFamily, cert: ChainCertificate) -> bool:
    b = len(family.blocks)
    if not (0 <= cert.i < b and 0 <= cert.j < b) or cert.m < 0:
        return False
    if not cert.interior:
        return False
    if any(not 0 <= v < b for v in cert.interior):
        return False
    if cert.i == cert.j and cert.interior[0] == cert.i:
        return False
    seq = (cert.i,) + cert.interior + (cert.j,)
    for a, c in zip(seq, seq[1:]):
        if a != c and family.intersection_size(a, c) < cert.m:
            return False
    return True


def find_chain(family: BlockFamily, i: int, j: int, m: int) -> ChainCertificate | None:
    """Shortest chain witnessing capacity m, or None when there is none."""
    from collections import deque

    b = len(family.blocks)
    if m <= 0:
        if i != j:
            return ChainCertificate(i, j, (j,), m)
        other = 0 if i != 0 else 1
        return ChainCertificate(i, j, (other,), m)
    ok = lambda a, c: a != c and family.intersection_size(a, c) >= m
    if i == j:
        for k in range(b):
            if k != i and ok(i, k):
                return ChainCertificate(i, j, (k,), m)
        return None
    if ok(i, j):
        return ChainCertificate(i, j, (j,), m)
    prev: dict[int, int] = {i: i}
    queue = deque([i])
    while queue:
        a = queue.popleft()
        for c in range(b):
            if c not in prev and ok(a, c):
                prev[c] = a
                if c == j:
                    path = [j]
                    while path[-1] != i:
                        path.append(prev[path[-1]])
                    path.reverse()
                    return ChainCertificate(i, j, tuple(path[1:-1]), m)
                queue.append(c)
    return None


def chain_certificates(family: BlockFamily) -> list[list[ChainCertificate]]:
    """The widest chain between each ordered pair of blocks.

    A chain from block i to block j is a nonempty tuple of blocks whose
    consecutive overlaps (including the hop from i in and the hop to j
    out) all have at least m points; same-block hops never constrain,
    and for i = j the first entry must differ from i.  Entry [i][j] is
    `find_chain`'s certificate at the largest m admitting a chain; m = 0
    always does.  A chain's bottleneck is an overlap size, so only those
    are tried, largest first.
    """
    b = len(family.blocks)
    sizes = sorted({0} | {family.intersection_size(i, j) for i in range(b) for j in range(i)},
                   reverse=True)

    def widest(i: int, j: int) -> ChainCertificate:
        return next(c for m in sizes if (c := find_chain(family, i, j, m)) is not None)

    return [[widest(i, j) for j in range(b)] for i in range(b)]


def chain_capacity_matrix(family: BlockFamily) -> list[list[int]]:
    """Largest m admitting a block chain between each pair of blocks."""
    return [[cert.m for cert in row] for row in chain_certificates(family)]


# -- membership ----------------------------------------------------


def stratum_options(f: SymElement, family: BlockFamily) -> list[tuple[int, int]]:
    """All (i, j) with the domain inside block i and the image inside block j."""
    graph = sym_graph(f)
    outs = []
    for i, bi in enumerate(family.blocks):
        if not all(bi.member(x) for x, _ in graph):
            continue
        for j, bj in enumerate(family.blocks):
            if all(bj.member(y) for _, y in graph):
                outs.append((i, j))
    return outs


def is_generated(f: SymElement, family: BlockFamily) -> bool:
    """Membership in the subsemigroup generated by the block groups: a
    rank-k map needs a chain of capacity k from its domain's block to
    its image's."""
    tag = classify(f, family.blocks)
    if tag.kind in ("group", "empty"):
        return True
    if tag.kind == "outside":
        return False
    k = tag.k
    assert k is not None
    return any(find_chain(family, i, j, k) is not None for i, j in stratum_options(f, family))


# -- factorization ----------------------------------------------------


def _fresh_points(pool: SetDescriptor, exclude: set[int], count: int) -> list[int]:
    out: list[int] = []
    if count <= 0:
        return out
    for x in pool.iter_members():
        if x not in exclude:
            out.append(x)
            if len(out) == count:
                return out
    raise UnsupportedFamilyError("ran out of fresh points in a block")


def _extend_in_block(block: SetDescriptor, mapping: dict[int, int]) -> SymElement:
    """Extend a partial injection inside a block to a block permutation."""
    support = sorted(set(mapping) | set(mapping.values()))
    free_src = [x for x in support if x not in mapping]
    used = set(mapping.values())
    free_tgt = [x for x in support if x not in used]
    full = dict(mapping)
    full.update(zip(free_src, free_tgt))
    return block_perm(block, full.items())


def _descent_factors(family: BlockFamily, i: int, j: int, fmap: dict[int, int]) -> list[SymElement]:
    # Rank at most the overlap size, i != j: pad the map one point per
    # round, with the pad sent outside block i so the identity factor
    # kills it, until the padded rank fills the overlap and the direct
    # route (i, j) carries it.
    bi, bj = family.blocks[i], family.blocks[j]
    meet = family.meet(i, j)
    n = len(meet.points())
    factors: list[SymElement] = []
    current = dict(fmap)
    while len(current) < n:
        dom = sorted(current)
        way = meet.first_members(len(current))
        upper = _extend_in_block(bj, {v: current[x] for x, v in zip(dom, way)})
        factors += [upper, partial_identity(bi)]
        pad_src = bi.least_outside(current)
        pad_tgt = bj.difference(bi).least_outside(current.values())
        current = dict(zip(dom, way))
        current[pad_src] = pad_tgt
    return factors + _chain_factors(family, (i, j), current)


def _chain_factors(
    family: BlockFamily, route: tuple[int, ...], fmap: dict[int, int]
) -> list[SymElement]:
    # route lists the blocks visited, len >= 2; every inner stage remaps
    # its whole incoming overlap, parking non-carried points outside the
    # next block, so only the tracked waypoints survive to the end.  A
    # direct route (i, j) has no inner stage, so it is exact only when
    # the rank fills the overlap: then the first factor pushes the domain
    # onto the whole overlap and nothing else gets through.
    k = len(fmap)
    dom = sorted(fmap)
    ways = [family.meet(a, c).first_members(k) for a, c in zip(route, route[1:])]
    factors = [_extend_in_block(family.blocks[route[0]], dict(zip(dom, ways[0])))]
    for t in range(1, len(route) - 1):
        block = family.blocks[route[t]]
        gate = family.meet(route[t - 1], route[t])
        nxt = family.blocks[route[t + 1]]
        mapping = dict(zip(ways[t - 1], ways[t]))
        strays = [p for p in gate.points() if p not in mapping]
        exclude = set(gate.points()) | set(mapping.values())
        park = _fresh_points(block.difference(nxt), exclude, len(strays))
        mapping.update(zip(strays, park))
        factors.append(_extend_in_block(block, mapping))
    last = family.blocks[route[-1]]
    factors.append(_extend_in_block(last, {v: fmap[x] for x, v in zip(dom, ways[-1])}))
    factors.reverse()
    return factors


def _empty_factors(family: BlockFamily) -> list[SymElement]:
    b0, b1 = family.blocks[0], family.blocks[1]
    meet = family.meet(0, 1)
    if meet.is_empty():
        return [partial_identity(b0), partial_identity(b1)]
    pts = list(meet.points())
    park = _fresh_points(b0.difference(b1), set(pts), len(pts))
    swap = dict(zip(pts, park))
    swap.update(zip(park, pts))
    return [partial_identity(b1), block_perm(b0, swap.items()), partial_identity(b1)]


def factorize(f: SymElement, family: BlockFamily) -> list[SymElement]:
    """Write f as a composition of block permutations and block identities.

    Returns factors ordered so that the rightmost acts first, each one a
    finitely supported permutation of a family block or the identity on
    one.  Raises NotGeneratedError when f is outside the subsemigroup
    the block groups generate.
    """
    tag = classify(f, family.blocks)
    if tag.kind == "group":
        return [f]
    if tag.kind == "empty":
        return _empty_factors(family)
    if tag.kind == "outside":
        raise NotGeneratedError("element does not fit the block structure")
    k = tag.k
    assert k is not None and k >= 1
    fmap = dict(sym_graph(f))
    for i, j in stratum_options(f, family):
        if i != j and k <= family.intersection_size(i, j):
            return _descent_factors(family, i, j, fmap)
        cert = find_chain(family, i, j, k)
        if cert is not None:
            return _chain_factors(family, (i,) + cert.interior + (j,), fmap)
    raise NotGeneratedError(f"rank {k} exceeds every chain capacity for this element")


def verify_factorization(f: SymElement, factors: list[SymElement], family: BlockFamily) -> bool:
    """Factors must recompose to f and each lie in a single block group."""
    if compose_chain(factors) != f:
        return False
    return all(classify(g, family.blocks).kind == "group" for g in factors)
