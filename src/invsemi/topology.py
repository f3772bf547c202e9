"""Pointwise convergence of partial bijections and its basic opens.

A sequence of partial bijections converges when, for every point of the
limit's domain, the sequence eventually defines the point and agrees
with the limit there, and for every point outside the limit's domain
the sequence eventually leaves the point undefined.  The matching basic
open sets impose finitely many constraints of three kinds: a required
pair (x maps to y), a forbidden domain point, and a forbidden image
point.

The machinery here stays exact.  Sequences are given by small schema
objects which expose both the n-th element and a stated eventual
behaviour at each point; `check_convergence` verifies the stated
behaviour against the limit and spot-checks it against actual elements.
Isolation of a point within one of the catalogued union semigroups is
decided by certificate: an explicit basic open together with an
accounting of every member the open admits, or an explicit converging
sequence of distinct members when the point is a limit point.

One routine, `open_members`, does the accounting over a finite list of
numbered blocks and a rank bound.  A finite family passes all of its
blocks.  An infinite block rule passes the blocks that own a constraint
point plus the least block that owns none, which stands in for the
whole tail, and the rule's rank bound, which is its block overlap.

Only the common-point rule has rank-one members, so it is the home of
the rank-one certificates, their verification and the shared-identity
probe; those routines take no rule.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from random import Random
from typing import Iterable

from .catalog import COMMON_POINT_RULE, BlockRule
from .descriptors import NATURALS, SetDescriptor
from .errors import InvalidOpenError
from .families import BlockFamily, _extend_in_block
from .symbolic import (
    IdFin,
    SymElement,
    block_perm,
    classify,
    dom_set,
    empty_map,
    fin_map,
    format_sym,
    im_set,
    is_empty_sym,
    partial_identity,
    sym_apply,
    sym_compose,
    sym_defined_at,
    sym_graph,
    sym_inverse,
    _carrier,
)

Pair = tuple[int, int]


# ---------------------------------------------------------------------------
# basic opens


@dataclass(frozen=True)
class BasicOpen:
    """Finitely many membership constraints on a partial bijection.

    positive:   pairs (x, y) the map must contain;
    forbid_dom: points the domain must avoid;
    forbid_im:  points the image must avoid.
    """

    positive: tuple[Pair, ...] = ()
    forbid_dom: tuple[int, ...] = ()
    forbid_im: tuple[int, ...] = ()

    def __post_init__(self):
        pos = tuple(sorted((int(x), int(y)) for x, y in self.positive))
        fd = tuple(sorted(map(int, self.forbid_dom)))
        fi = tuple(sorted(map(int, self.forbid_im)))
        object.__setattr__(self, "positive", pos)
        object.__setattr__(self, "forbid_dom", fd)
        object.__setattr__(self, "forbid_im", fi)
        # pos is sorted by source and fd, fi ascend, so their least
        # points come first; the least target needs a min
        srcs = {x for x, _ in pos}
        tgts = {y for _, y in pos}
        if pos and (pos[0][0] < 0 or min(tgts) < 0):
            raise InvalidOpenError("negative point in a required pair")
        if (fd and fd[0] < 0) or (fi and fi[0] < 0):
            raise InvalidOpenError("negative forbidden point")
        if len(srcs) != len(pos) or len(tgts) != len(pos):
            raise InvalidOpenError("required pairs must form an injective map")
        fd_set, fi_set = set(fd), set(fi)
        if len(fd_set) != len(fd) or len(fi_set) != len(fi):
            raise InvalidOpenError("duplicate forbidden point")
        if not fd_set.isdisjoint(srcs):
            raise InvalidOpenError("a required source is also domain-forbidden")
        if not fi_set.isdisjoint(tgts):
            raise InvalidOpenError("a required target is also image-forbidden")

    def constraint_points(self) -> tuple[int, ...]:
        pts = set(self.forbid_dom) | set(self.forbid_im)
        for x, y in self.positive:
            pts.add(x)
            pts.add(y)
        return tuple(sorted(pts))

    def describe(self) -> str:
        parts = [f"v({x},{y})" for x, y in self.positive]
        parts += [f"w1({p})" for p in self.forbid_dom]
        parts += [f"w2({p})" for p in self.forbid_im]
        return " & ".join(parts) if parts else "full"


def open_contains(v: BasicOpen, f: SymElement) -> bool:
    """Exact membership of a symbolic element in a basic open.

    The forbidden points are probed on the element itself: its domain is
    where it is defined, its image is its carrier plus its pair targets."""
    for x, y in v.positive:
        if not sym_defined_at(f, x) or sym_apply(f, x) != y:
            return False
    if any(sym_defined_at(f, p) for p in v.forbid_dom):
        return False
    carrier = _carrier(f)
    targets = {t for _, t in f.pairs}
    return not any(p in targets or carrier.member(p) for p in v.forbid_im)


MAX_PAIRS, MAX_FORBID = 3, 4  # a random open's required pairs, forbidden points per side


def random_basic_open(rng: Random, member: SymElement | None = None,
                      bound: int = 64) -> BasicOpen:
    """A random valid basic open with all constraint points below
    `bound`.  When `member` is given the open is built around it, so the
    result is guaranteed to contain `member`."""
    if member is None:
        npairs = rng.randint(0, MAX_PAIRS)
        srcs = rng.sample(range(bound), npairs)
        tgts = rng.sample(range(bound), npairs)
        pairs = tuple(zip(srcs, tgts))
        fd_pool, fi_pool = list(range(bound)), list(range(bound))
        for x, y in pairs:
            fd_pool.remove(x)
            fi_pool.remove(y)
    else:
        dom_pairs, fd_pool, fi_pool = _member_pools(member, bound)
        npairs = rng.randint(0, min(MAX_PAIRS, len(dom_pairs)))
        pairs = tuple(rng.sample(dom_pairs, npairs))
    fd = rng.sample(fd_pool, min(rng.randint(0, MAX_FORBID), len(fd_pool)))
    fi = rng.sample(fi_pool, min(rng.randint(0, MAX_FORBID), len(fi_pool)))
    return BasicOpen(pairs, tuple(fd), tuple(fi))


@functools.lru_cache(maxsize=16)
def _member_pools(member: SymElement, bound: int
                  ) -> tuple[tuple[Pair, ...], tuple[int, ...], tuple[int, ...]]:
    """The draw pools of opens around `member`, as tuples: its pairs
    (x, member(x)) with both ends below `bound`, ascending in x, and the
    points below `bound` outside its domain and outside its image.
    Memoized, since a probe anchors all its draws on one member."""
    # the member's domain and image points below the bound: the identity
    # part on its carrier plus the endpoints of its pairs
    move = dict(member.pairs)
    fixed = set(_carrier(member).below(bound))
    dom = fixed | {x for x in move if x < bound}
    img = fixed | {y for y in move.values() if y < bound}
    dom_pairs = tuple((x, move.get(x, x)) for x in sorted(dom) if move.get(x, x) < bound)
    return (dom_pairs,
            tuple(p for p in range(bound) if p not in dom),
            tuple(p for p in range(bound) if p not in img))


# ---------------------------------------------------------------------------
# sequence schemas
#
# A schema provides element(n) plus eventual(x), the stated long-run
# behaviour of the sequence at the point x:
#
#   ("in", n0, y)  -- for every n >= n0, element(n) maps x to y;
#   ("out", n0)    -- for every n >= n0, x is outside element(n)'s domain.


@dataclass(frozen=True)
class BlockIdentitySeq:
    """The identity maps of the blocks of an infinite rule family, in
    index order.  With a shared point the sequence converges to the
    identity on that point; for disjoint blocks it converges to the
    empty map."""

    rule: BlockRule
    name: str = "block-identities"

    def element(self, n: int) -> SymElement:
        return partial_identity(self.rule.block(n))

    def eventual(self, x: int):
        if x == 0:
            return ("in", 0, 0) if self.rule.shared_zero else ("out", 0)
        return ("out", self.rule.owner(x) + 1)


@dataclass(frozen=True)
class SingletonIdentitySeq:
    """Identities on single points marching through an infinite set;
    converges to the empty map."""

    points: SetDescriptor = NATURALS
    name: str = "singleton-identities"

    def element(self, n: int) -> SymElement:
        pt = next(itertools.islice(self.points.iter_members(), n, None))
        return partial_identity([pt])

    def eventual(self, x: int):
        r = _rank_of(self.points, x)
        return ("out", 0) if r is None else ("out", r + 1)


@dataclass(frozen=True)
class GrowingExtensionSeq:
    """A fixed finite map extended by one extra pair that marches
    through fresh points; converges to the base map from strictly
    larger maps."""

    base: SymElement
    dom_pool: SetDescriptor
    im_pool: SetDescriptor
    name: str = "growing-extensions"

    def __post_init__(self):
        if dom_set(self.base).is_infinite():
            raise ValueError("the base of a growing extension must be finite")
        if not (self.dom_pool.is_infinite() and self.im_pool.is_infinite()):
            raise ValueError("extension pools must be infinite")

    def _fresh_dom(self) -> SetDescriptor:
        return self.dom_pool.difference(dom_set(self.base))

    def _fresh_im(self) -> SetDescriptor:
        return self.im_pool.difference(im_set(self.base))

    def element(self, n: int) -> SymElement:
        src = next(itertools.islice(self._fresh_dom().iter_members(), n, None))
        tgt = next(itertools.islice(self._fresh_im().iter_members(), n, None))
        return fin_map(sym_graph(self.base) + ((src, tgt),))

    def eventual(self, x: int):
        if sym_defined_at(self.base, x):
            return ("in", 0, sym_apply(self.base, x))
        r = _rank_of(self._fresh_dom(), x)
        return ("out", 0) if r is None else ("out", r + 1)


@dataclass(frozen=True)
class GroupNeighborSeq:
    """A finitely supported block permutation perturbed by one extra
    transposition of fresh block points; converges to the unperturbed
    permutation through distinct group members."""

    base: SymElement
    name: str = "group-neighbors"

    def __post_init__(self):
        if isinstance(self.base, IdFin) and self.base.pairs:
            raise ValueError("base must be a block permutation or a block identity")
        if not dom_set(self.base).is_infinite():
            raise ValueError("base must live on an infinite block")

    def _pool(self) -> SetDescriptor:
        return _carrier(self.base).without_points([x for x, _ in self.base.pairs])

    def element(self, n: int) -> SymElement:
        a, b = itertools.islice(self._pool().iter_members(), 2 * n, 2 * n + 2)
        return block_perm(_carrier(self.base), self.base.pairs + ((a, b), (b, a)))

    def eventual(self, x: int):
        if x not in _carrier(self.base):
            return ("out", 0)
        move = dict(self.base.pairs)
        if x in move:
            return ("in", 0, move[x])
        r = _rank_of(self._pool(), x)
        return ("in", r // 2 + 1, x)


def _rank_of(d: SetDescriptor, x: int) -> int | None:
    """Position of x in the ascending enumeration of d, or None."""
    return len(d.below(x)) if x in d else None


# ---------------------------------------------------------------------------
# convergence checking


@dataclass(frozen=True)
class ConvergenceReport:
    converges: bool
    horizon: int
    counterexample: tuple[int, str, str] | None  # (point, clause, detail)
    witnesses: tuple[tuple[int, int], ...]  # (point, index from which settled)
    points_checked: int


_SPOT_OFFSETS = (0, 1, 2, 7)


def check_convergence(schema, limit: SymElement, horizon: int = 64) -> ConvergenceReport:
    """Verify that the schema's sequence converges to `limit` pointwise.

    Every point below the horizon is tested: the schema's stated
    eventual behaviour is first spot-checked against actual sequence
    elements, then compared with the limit.  Clause (i) failures are
    limit-domain points the sequence misses or maps elsewhere; clause
    (ii) failures are outside points the sequence keeps hitting.  The
    probe is finite, so this is a certificate of agreement below the
    horizon, not a proof over all points.
    """
    witnesses = []
    for x in range(horizon):
        claim = schema.eventual(x)
        bad = _spot_check(schema, x, claim)
        if bad is not None:
            return ConvergenceReport(False, horizon, (x, "schema", bad),
                                     tuple(witnesses), x + 1)
        if sym_defined_at(limit, x):
            want = sym_apply(limit, x)
            if claim[0] != "in" or claim[2] != want:
                detail = (f"limit maps {x} to {want} but the sequence "
                          f"settles on {_claim_text(claim)}")
                return ConvergenceReport(False, horizon, (x, "i", detail),
                                         tuple(witnesses), x + 1)
        else:
            if claim[0] != "out":
                detail = (f"{x} is outside the limit's domain but the "
                          f"sequence settles on {_claim_text(claim)}")
                return ConvergenceReport(False, horizon, (x, "ii", detail),
                                         tuple(witnesses), x + 1)
        witnesses.append((x, claim[1]))
    return ConvergenceReport(True, horizon, None, tuple(witnesses), horizon)


def _claim_text(claim) -> str:
    if claim[0] == "in":
        return f"mapping it to {claim[2]} from index {claim[1]} on"
    return f"leaving it undefined from index {claim[1]} on"


def _spot_check(schema, x: int, claim) -> str | None:
    """Compare a stated eventual behaviour against concrete elements."""
    n0 = claim[1]
    for off in _SPOT_OFFSETS:
        g = schema.element(n0 + off)
        if claim[0] == "in":
            if not sym_defined_at(g, x) or sym_apply(g, x) != claim[2]:
                return (f"stated value at {x} from index {n0} is not met "
                        f"by element {n0 + off}")
        else:
            if sym_defined_at(g, x):
                return (f"element {n0 + off} still defines {x}, against the "
                        f"stated exit at index {n0}")
    return None


# ---------------------------------------------------------------------------
# member accounting of a basic open


@dataclass(frozen=True)
class OpenReport:
    """Exact accounting of the members of a basic open within a union
    semigroup of block groups: the qualifying block groups (each with a
    member), the finite map the required pairs themselves form, whether
    finite members extend without bound, and the empty map."""

    open: BasicOpen
    group_blocks: tuple[tuple[int, SymElement], ...]
    finite_member: SymElement | None
    extension_unbounded: bool
    empty_member: bool

    def is_singleton(self) -> bool:
        # a qualifying group block admits infinitely many members by
        # composing any witness with transpositions of far block points
        if self.group_blocks or self.extension_unbounded:
            return False
        return int(self.empty_member) + int(self.finite_member is not None) == 1

    def sole_member(self) -> SymElement | None:
        if not self.is_singleton():
            return None
        return self.finite_member if self.finite_member is not None else empty_map()


def open_members(v: BasicOpen, blocks: Iterable[tuple[int, SetDescriptor]],
                 bound: int) -> OpenReport:
    """Decide what the basic open admits from the union of the numbered
    blocks' permutation groups, the finite maps of rank up to `bound`
    with domain inside one block and image inside one block, and the
    empty map, without enumerating any group.

    A block group meets the open exactly when every required pair sits
    inside the block and no forbidden point does.  The finite members
    must contain the required pairs, so when the rank budget exceeds
    the number of required pairs there are infinitely many extensions
    through fresh block points; equality leaves exactly the pairs
    themselves, provided their sources fit one block and their targets
    fit one block.
    """
    blocks = tuple(blocks)
    pos = v.positive
    group_blocks = tuple(
        (m, _extend_in_block(blk, dict(pos)))
        for m, blk in blocks
        if all(x in blk and y in blk for x, y in pos)
        and not any(p in blk for p in v.forbid_dom + v.forbid_im)
    )
    fits = (any(all(x in blk for x, _ in pos) for _, blk in blocks)
            and any(all(y in blk for _, y in pos) for _, blk in blocks))
    finite_member = fin_map(pos) if pos and fits and len(pos) <= bound else None
    return OpenReport(v, group_blocks, finite_member, fits and bound > len(pos),
                      not pos)


# ---------------------------------------------------------------------------
# isolation inside the union semigroup of an infinite block rule


def rule_open_members(v: BasicOpen, rule: BlockRule) -> OpenReport:
    """Decide the membership structure of a basic open in the rule's
    union semigroup.

    Only the blocks that own a constraint point can differ from one
    another; every other block meets the open exactly as the
    least-indexed of them does.  That block stands in for the infinite
    tail, which qualifies exactly when its index is in `group_blocks`.
    """
    cpts = v.constraint_points()
    owned = {rule.owner(p) for p in cpts if p >= 1}
    indices = sorted(owned | {rule.first_free_block(cpts)})
    return open_members(v, ((m, rule.block(m)) for m in indices), rule.rank_bound)


def low_rank_open_members(v: BasicOpen, rule: BlockRule, window: int) -> list[SymElement]:
    """The rank-at-most-one members of a basic open with both points
    below the window, plus the empty map.  The empty map comes first,
    then the maps a -> b in lexicographic (a, b) order.

    Required pairs have distinct sources, so a map a -> b can hold every
    required pair only when the open requires none or exactly (a, b).
    An open with one required pair tests that pair alone, one with two
    or more admits no rank-one map, and only an open with none scans the
    window, skipping forbidden sources and targets."""
    hits = []
    if open_contains(v, empty_map()):
        hits.append(empty_map())
    if len(v.positive) > 1:
        return hits
    if v.positive:
        candidates = [p for p in v.positive if max(p) < window]
    else:
        forbid_dom, forbid_im = set(v.forbid_dom), set(v.forbid_im)
        candidates = ((a, b) for a in range(window) if a not in forbid_dom
                      for b in range(window) if b not in forbid_im)
    for a, b in candidates:
        g = fin_map([(a, b)])
        if open_contains(v, g) and rule.member(g):
            hits.append(g)
    return hits


def rank_one_certificate(src: int, tgt: int) -> BasicOpen:
    """A basic open isolating the single-pair map src -> tgt inside the
    common-point rule's union semigroup.

    The required pair pins every finite member.  Block groups are
    killed by one forbidden domain point: the shared point handles all
    blocks at once when neither endpoint is shared, and otherwise a
    spare point of the single block containing both endpoints does.
    """
    rule = COMMON_POINT_RULE
    if not (rule.covers(src) and rule.covers(tgt)):
        raise ValueError("endpoints outside every block")
    if src == 0 and tgt == 0:
        raise ValueError("the shared-point identity is a limit of block "
                         "identities, not an isolated point")
    if src != 0 and tgt != 0:
        return BasicOpen(((src, tgt),), (0,), ())
    anchor = src if src != 0 else tgt
    kill = rule.block(rule.owner(anchor)).least_outside([0, anchor])
    return BasicOpen(((src, tgt),), (kill,), ())


@dataclass(frozen=True)
class IsolationVerdict:
    """Either a certificate open (isolated), a converging schema of
    distinct members (not isolated), or neither (not a member)."""

    element: SymElement
    isolated: bool | None
    certificate: BasicOpen | None
    schema: object | None
    notes: str

    def schema_name(self) -> str | None:
        return getattr(self.schema, "name", None) if self.schema else None


def rule_isolation(f: SymElement, rule: BlockRule) -> IsolationVerdict:
    """Isolation of a member of the rule's union semigroup."""
    if not rule.member(f):
        return IsolationVerdict(f, None, None, None,
                                "not a member of the union semigroup")
    if is_empty_sym(f):
        if rule.rank_bound >= 1:
            schema = SingletonIdentitySeq(NATURALS)
            note = "limit of singleton identities, which are rank-one members"
        else:
            schema = BlockIdentitySeq(rule)
            note = "limit of the disjoint block identities"
        return IsolationVerdict(f, False, None, schema, note)
    if _carrier(f).is_infinite():
        return IsolationVerdict(
            f, False, None, GroupNeighborSeq(f),
            "limit of its own block group: perturb by far transpositions")
    (src, tgt), = sym_graph(f)
    if src == 0 and tgt == 0:
        return IsolationVerdict(
            f, False, None, BlockIdentitySeq(rule),
            "the shared-point identity is the limit of the block identities")
    cert = rank_one_certificate(src, tgt)
    return IsolationVerdict(f, True, cert, None,
                            "required pair pins the map; one forbidden point "
                            "kills every block group")


@dataclass(frozen=True)
class CertificateCheck:
    element: SymElement
    certificate: BasicOpen
    logic_singleton: bool
    windowed_ok: tuple[tuple[int, bool], ...]
    ok: bool


def verify_rank_one_certificate(f: SymElement, windows: Iterable[int]) -> CertificateCheck:
    """Check a rank-one isolation certificate two ways: the exact
    member accounting must come out a singleton, and the exhaustive
    windowed scans of low-rank members must find the element alone.

    One scan at the widest window serves every window: it runs in
    lexicographic (a, b) order, so the hits of a narrower window are the
    widest window's hits with every point below it, in the same order."""
    rule = COMMON_POINT_RULE
    verdict = rule_isolation(f, rule)
    if not verdict.isolated:
        raise ValueError("element is not isolated; nothing to verify")
    v = verdict.certificate
    rep = rule_open_members(v, rule)
    logic_ok = rep.is_singleton() and rep.sole_member() == f
    windows = tuple(windows)
    widest = low_rank_open_members(v, rule, max(windows)) if windows else []
    windowed = tuple(
        (w, [g for g in widest if all(max(p) < w for p in sym_graph(g))] == [f])
        for w in windows)
    ok = logic_ok and all(okw for _, okw in windowed)
    return CertificateCheck(f, v, logic_ok, windowed, ok)


# ---------------------------------------------------------------------------
# failure of inverse-image openness at the shared-point identity


@dataclass(frozen=True)
class InteriorProbeReport:
    """Evidence that a two-sided product set has empty interior: the
    product of the one-map set with its inverse collapses to a single
    idempotent, yet every sampled basic open around that idempotent
    contains a different member of the union semigroup."""

    product_member: SymElement
    product_is_sole: bool
    trials: int
    escapes: tuple[tuple[str, str], ...]  # (open description, escape literal)
    all_escaped: bool


def shared_identity_interior_probe(trials: int, seed: int) -> InteriorProbeReport:
    """Probe the set {a} with a = (0 -> 1): composing the inverse with a
    gives exactly the identity on the shared point, and that singleton
    set has empty interior because each basic open around it still
    admits a block identity.  The opens are `random_basic_open`'s around
    the product, with points below its default bound."""
    rule = COMMON_POINT_RULE
    a = fin_map([(0, 1)])
    product = sym_compose(sym_inverse(a), a)
    sole = product == partial_identity([0])

    rng = Random(seed)
    escapes = []
    ok = sole
    # the witness of an open is the identity on its first free block, so
    # it, its verdict apart from the open and its text are built once
    # per block
    by_block: dict[int, tuple[SymElement, bool, str]] = {}
    for _ in range(trials):
        v = random_basic_open(rng, member=product)
        n = rule.first_free_block(v.forbid_dom + v.forbid_im)
        if n not in by_block:
            w = partial_identity(rule.block(n))
            by_block[n] = (w, rule.member(w) and w != product, format_sym(w))
        witness, distinct_member, text = by_block[n]
        good = open_contains(v, witness) and distinct_member
        ok = ok and good
        escapes.append((v.describe(), text))
    return InteriorProbeReport(product, sole, trials, tuple(escapes), ok)


# ---------------------------------------------------------------------------
# isolation inside the bounded union of a finite block family


def family_isolation(f: SymElement, family: BlockFamily, bound: int) -> IsolationVerdict:
    """Isolation of a member of the rank-bounded union semigroup of a
    finite block family.

    Group members and under-rank finite members are limit points, with
    explicit schemas.  Full-rank finite members are isolated: their
    graph pins the finite part and one spare forbidden point per
    enclosing block kills the groups.  The empty map is isolated only
    in the rank-zero union, again by one forbidden point per block.
    """
    tag = classify(f, family.blocks)
    if tag.kind == "outside" or (tag.kind == "finite" and tag.k > bound):
        return IsolationVerdict(f, None, None, None,
                                "not a member of the bounded union")
    if tag.kind == "group":
        return IsolationVerdict(
            f, False, None, GroupNeighborSeq(f),
            "limit of its own block group: perturb by far transpositions")
    if tag.kind == "empty":
        if bound == 0:
            kills = tuple(blk.first_members(1)[0] for blk in family.blocks)
            cert = BasicOpen((), kills, ())
            return IsolationVerdict(f, True, cert, None,
                                    "one forbidden domain point per block "
                                    "kills every group; no finite ranks exist")
        schema = SingletonIdentitySeq(family.blocks[0])
        return IsolationVerdict(f, False, None, schema,
                                "limit of singleton identities inside the "
                                "first block")
    # finite member of rank k <= bound
    pairs = sym_graph(f)
    if tag.k < bound:
        schema = GrowingExtensionSeq(f, family.blocks[tag.i], family.blocks[tag.j])
        return IsolationVerdict(f, False, None, schema,
                                "rank below the bound: extend by one fresh "
                                "pair and let it march away")
    touched = {x for x, _ in pairs} | {y for _, y in pairs}
    kills = []
    for blk in family.blocks:
        if all(p in blk for p in touched):
            kills.append(blk.least_outside([x for x, _ in pairs]))
    cert = BasicOpen(pairs, tuple(sorted(set(kills))), ())
    return IsolationVerdict(f, True, cert, None,
                            "graph pins the finite part at full rank; spare "
                            "points kill the enclosing block groups")


def verify_family_certificate(f: SymElement, family: BlockFamily,
                              bound: int) -> tuple[bool, OpenReport]:
    """Check a family isolation certificate by exact member accounting."""
    verdict = family_isolation(f, family, bound)
    if not verdict.isolated:
        raise ValueError("element is not isolated; nothing to verify")
    rep = open_members(verdict.certificate, enumerate(family.blocks), bound)
    return rep.is_singleton() and rep.sole_member() == f, rep
