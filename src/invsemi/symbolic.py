"""Symbolic elements: exact partial bijections of the naturals.

Two canonical shapes cover everything the workbench manipulates:

* ``BlockPerm(block, pairs)``: a finitely supported permutation of an
  infinite set, stored as its moving pairs (never empty, never fixing a
  point it lists).
* ``IdFin(base, pairs)``: the identity on ``base`` patched by a finite
  injection whose endpoints avoid ``base``.  Covers finite maps
  (``base`` empty), partial identities (no pairs) and cofinite-domain
  elements (infinite ``base`` with pairs).

Every element has exactly one representation: identity pairs fold into
the base, and an ``IdFin`` whose patch permutes a fixed set over an
infinite carrier is promoted to a ``BlockPerm``.  Construct through
:func:`sym_element` or the named helpers; the dataclass constructors
reject non-canonical data.

Any two elements compose, permutations of distinct blocks that overlap
infinitely included: the composite is again one of the two shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .descriptors import EMPTY, SetDescriptor
from .errors import NotInjectiveError, OutOfDomainError, ParseError
from .pbij import Pair, parse_pairs


def _check_pairs(pairs: tuple[Pair, ...]) -> None:
    srcs = [s for s, _ in pairs]
    tgts = [t for _, t in pairs]
    if len(set(srcs)) != len(srcs):
        raise NotInjectiveError("repeated source in pair list")
    if len(set(tgts)) != len(tgts):
        raise NotInjectiveError("repeated target in pair list")
    if any(v < 0 for v in srcs + tgts):
        raise ValueError("map points must be naturals")
    if pairs != tuple(sorted(pairs)):
        raise ValueError("pairs must be sorted by source")


@dataclass(frozen=True)
class BlockPerm:
    """Finitely supported permutation of the infinite set ``block``."""

    block: SetDescriptor
    pairs: tuple[Pair, ...]

    def __post_init__(self) -> None:
        if not self.block.is_infinite():
            raise ValueError("block of a permutation must be infinite")
        if not self.pairs:
            raise ValueError("trivial permutation must be stored as a partial identity")
        _check_pairs(self.pairs)
        srcs = {s for s, _ in self.pairs}
        tgts = {t for _, t in self.pairs}
        if any(s == t for s, t in self.pairs):
            raise ValueError("moving pairs may not fix a point")
        if srcs != tgts:
            raise ValueError("moved sources and targets must coincide")
        if any(not self.block.member(s) for s in srcs):
            raise ValueError("moved point outside the block")


@dataclass(frozen=True)
class IdFin:
    """Identity on ``base`` patched by a finite injection off ``base``."""

    base: SetDescriptor
    pairs: tuple[Pair, ...]

    def __post_init__(self) -> None:
        _check_pairs(self.pairs)
        if any(s == t for s, t in self.pairs):
            raise ValueError("identity pairs must be folded into the base")
        for s, t in self.pairs:
            if self.base.member(s) or self.base.member(t):
                raise ValueError("pair endpoint inside the identity base")
        if self.pairs and self.base.is_infinite():
            srcs = {s for s, _ in self.pairs}
            tgts = {t for _, t in self.pairs}
            if srcs == tgts:
                raise ValueError("permuting patch over an infinite carrier must be a BlockPerm")


SymElement = BlockPerm | IdFin


# -- construction ----------------------------------------------------


def sym_element(base: SetDescriptor, pairs) -> SymElement:
    """Canonical constructor: identity on ``base`` plus the given pairs.

    Identity pairs are folded into the base; a patch that permutes a
    fixed set over an infinite carrier comes back as a ``BlockPerm``.
    """
    pairs = tuple(sorted((int(s), int(t)) for s, t in pairs))
    _check_pairs(pairs)
    fixed = [s for s, t in pairs if s == t]
    moving = tuple((s, t) for s, t in pairs if s != t)
    if fixed:
        base = base.with_points(fixed)
    for s, t in moving:
        if base.member(s):
            raise ValueError(f"source {s} already in the identity base")
        if base.member(t):
            raise ValueError(f"target {t} lands in the identity base")
    if moving:
        srcs = {s for s, _ in moving}
        tgts = {t for _, t in moving}
        if srcs == tgts and base.is_infinite():
            return BlockPerm(base.with_points(srcs), moving)
    return IdFin(base, moving)


def fin_map(pairs) -> SymElement:
    """Finite partial bijection given by its pairs."""
    return sym_element(EMPTY, pairs)


def partial_identity(carrier) -> SymElement:
    """Identity on the given set (a descriptor or any iterable of points)."""
    if not isinstance(carrier, SetDescriptor):
        carrier = SetDescriptor.from_points(carrier)
    return sym_element(carrier, ())


def empty_map() -> SymElement:
    return IdFin(EMPTY, ())


def block_perm(block: SetDescriptor, pairs) -> SymElement:
    """Finitely supported permutation of ``block`` (fixed pairs allowed)."""
    pairs = tuple(sorted((int(s), int(t)) for s, t in pairs))
    _check_pairs(pairs)
    srcs = {s for s, _ in pairs}
    tgts = {t for _, t in pairs}
    if srcs != tgts:
        raise ValueError("pair list does not permute its support")
    if not block.is_infinite():
        raise ValueError("block must be infinite")
    if any(not block.member(s) or not block.member(t) for s, t in pairs):
        raise ValueError("permutation point outside the block")
    return sym_element(block.without_points(srcs), pairs)


# -- structure ----------------------------------------------------


def _carrier(f: SymElement) -> SetDescriptor:
    return f.block if isinstance(f, BlockPerm) else f.base


def dom_set(f: SymElement) -> SetDescriptor:
    if isinstance(f, BlockPerm):
        return f.block
    return f.base.with_points(s for s, _ in f.pairs)


def im_set(f: SymElement) -> SetDescriptor:
    if isinstance(f, BlockPerm):
        return f.block
    return f.base.with_points(t for _, t in f.pairs)


def sym_graph(f: SymElement) -> tuple[Pair, ...]:
    """Sorted (x, f(x)) pairs of an element with a finite domain;
    ValueError when the domain is infinite."""
    return tuple(sorted(f.pairs + tuple((x, x) for x in _carrier(f).points())))


def sym_apply(f: SymElement, x: int) -> int:
    for s, t in f.pairs:
        if s == x:
            return t
    if _carrier(f).member(x):
        return x
    raise OutOfDomainError(f"{x} not in domain")


def sym_defined_at(f: SymElement, x: int) -> bool:
    return any(s == x for s, _ in f.pairs) or _carrier(f).member(x)


def sym_inverse(f: SymElement) -> SymElement:
    flipped = tuple(sorted((t, s) for s, t in f.pairs))
    if isinstance(f, BlockPerm):
        return BlockPerm(f.block, flipped)
    return IdFin(f.base, flipped)


def is_empty_sym(f: SymElement) -> bool:
    return isinstance(f, IdFin) and not f.pairs and f.base.is_empty()


# -- composition ----------------------------------------------------


def sym_compose(f: SymElement, g: SymElement) -> SymElement:
    """f after g: acts as x -> f(g(x)) where both steps are defined.

    Off the finitely many moved points both maps fix their carriers, so
    the composite is the identity on the meet of the carriers minus the
    moved points, patched by what happens at the moved points.
    """
    moved = {s for s, _ in f.pairs + g.pairs}
    pairs = []
    for x in moved:
        if sym_defined_at(g, x) and sym_defined_at(f, y := sym_apply(g, x)):
            pairs.append((x, sym_apply(f, y)))
    base = _carrier(f).intersect(_carrier(g)).without_points(moved)
    return sym_element(base, pairs)


def compose_chain(factors) -> SymElement:
    """Compose ``factors[0] . factors[1] . ... `` (rightmost acts first)."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty factor list")
    out = factors[0]
    for g in factors[1:]:
        out = sym_compose(out, g)
    return out


# -- classification ----------------------------------------------------


@dataclass(frozen=True)
class StratumTag:
    """Where an element sits relative to a block family.

    kind is one of ``group`` (finitely supported permutation of block
    ``i``, including its identity), ``finite`` (finite map of rank ``k``
    with domain inside block ``i`` and image inside block ``j``),
    ``empty`` (the empty map) or ``outside``.
    """

    kind: str
    i: int | None = None
    j: int | None = None
    k: int | None = None


def classify(f: SymElement, blocks: tuple[SetDescriptor, ...]) -> StratumTag:
    """Stratum of ``f`` in the family, smallest block indices winning ties."""
    if isinstance(f, BlockPerm):
        for i, b in enumerate(blocks):
            if b == f.block:
                return StratumTag("group", i, i, None)
        return StratumTag("outside")
    if f.base.is_infinite():
        if not f.pairs:
            for i, b in enumerate(blocks):
                if b == f.base:
                    return StratumTag("group", i, i, None)
        return StratumTag("outside")
    graph = sym_graph(f)
    if not graph:
        return StratumTag("empty", None, None, 0)
    i = next((n for n, b in enumerate(blocks) if all(b.member(x) for x, _ in graph)), None)
    j = next((n for n, b in enumerate(blocks) if all(b.member(y) for _, y in graph)), None)
    if i is None or j is None:
        return StratumTag("outside")
    return StratumTag("finite", i, j, len(graph))


# -- literals ----------------------------------------------------


def _pairs_text(pairs: tuple[Pair, ...]) -> str:
    return ", ".join(f"{s}->{t}" for s, t in pairs)


def _block_name(d: SetDescriptor, blocks: tuple[SetDescriptor, ...] | None) -> str:
    if blocks is not None:
        for i, b in enumerate(blocks):
            if b == d:
                return f"B{i}"
    return d.to_text()


def format_sym(f: SymElement, blocks: tuple[SetDescriptor, ...] | None = None) -> str:
    if isinstance(f, BlockPerm):
        return "perm(%s; %s)" % (_block_name(f.block, blocks), _pairs_text(f.pairs))
    if not f.pairs:
        if f.base.is_empty():
            return "empty"
        return "id(%s)" % _block_name(f.base, blocks)
    if f.base.is_empty():
        return "fin(%s)" % _pairs_text(f.pairs)
    return "idplus(%s; %s)" % (_block_name(f.base, blocks), _pairs_text(f.pairs))


def _parse_carrier(name: str, blocks: tuple[SetDescriptor, ...] | None) -> SetDescriptor:
    import re

    name = name.strip()
    m = re.match(r"^B(\d+)$", name)
    if m:
        if blocks is None:
            raise ParseError(f"block reference {name!r} needs a family")
        idx = int(m.group(1))
        if idx >= len(blocks):
            raise ParseError(f"family has no block {name}")
        return blocks[idx]
    return SetDescriptor.from_text(name)


def parse_sym(text: str, blocks: tuple[SetDescriptor, ...] | None = None) -> SymElement:
    """Parse element literals: ``empty``, ``fin(1->0)``, ``id(B2)``,
    ``perm(B0; 1->4, 4->1)``, ``idplus(tail mod 2 residues [0]; 1->3)``."""
    import re

    s = text.strip()
    if s == "empty":
        return empty_map()
    m = re.match(r"^(?P<head>fin|id|perm|idplus)\((?P<body>.*)\)$", s, re.DOTALL)
    if not m:
        raise ParseError(f"bad element literal: {text!r}")
    head, body = m.group("head"), m.group("body")
    try:
        if head == "fin":
            return fin_map(parse_pairs(body))
        if head == "id":
            return partial_identity(_parse_carrier(body, blocks))
        carrier_text, _, pairs_text = body.partition(";")
        if not _ :
            raise ParseError(f"{head} literal needs ';' between carrier and pairs")
        carrier = _parse_carrier(carrier_text, blocks)
        pairs = parse_pairs(pairs_text)
        if head == "perm":
            return block_perm(carrier, pairs)
        return sym_element(carrier, pairs)
    except (ValueError, NotInjectiveError) as exc:
        raise ParseError(f"invalid element {text!r}: {exc}") from exc
