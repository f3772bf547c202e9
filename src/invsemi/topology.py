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
"""

from __future__ import annotations

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
        fd = tuple(sorted(int(p) for p in self.forbid_dom))
        fi = tuple(sorted(int(p) for p in self.forbid_im))
        object.__setattr__(self, "positive", pos)
        object.__setattr__(self, "forbid_dom", fd)
        object.__setattr__(self, "forbid_im", fi)
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

    def to_config(self) -> dict:
        return {
            "pairs": [list(p) for p in self.positive],
            "forbid_dom": list(self.forbid_dom),
            "forbid_im": list(self.forbid_im),
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "BasicOpen":
        return cls(
            tuple((int(a), int(b)) for a, b in cfg.get("pairs", [])),
            tuple(int(p) for p in cfg.get("forbid_dom", [])),
            tuple(int(p) for p in cfg.get("forbid_im", [])),
        )


def open_contains(v: BasicOpen, f: SymElement) -> bool:
    """Exact membership of a symbolic element in a basic open."""
    for x, y in v.positive:
        if not sym_defined_at(f, x) or sym_apply(f, x) != y:
            return False
    dom = dom_set(f)
    if any(p in dom for p in v.forbid_dom):
        return False
    img = im_set(f)
    return not any(p in img for p in v.forbid_im)


def random_basic_open(rng: Random, member: SymElement | None = None,
                      max_pairs: int = 3, max_forbid: int = 4,
                      bound: int = 64) -> BasicOpen:
    """A random valid basic open with all constraint points below
    `bound`.  When `member` is given the open is built around it, so the
    result is guaranteed to contain `member`."""
    if member is None:
        npairs = rng.randint(0, max_pairs)
        srcs = rng.sample(range(bound), npairs)
        tgts = rng.sample(range(bound), npairs)
        pairs = tuple(zip(srcs, tgts))
        fd_pool = [p for p in range(bound) if p not in srcs]
        fi_pool = [p for p in range(bound) if p not in tgts]
    else:
        dom_pts = dom_set(member).below(bound)
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
    for i, m in enumerate(d.iter_members()):
        if m == x:
            return i
        if m > x:
            return None
    return None


# ---------------------------------------------------------------------------
# convergence checking


@dataclass(frozen=True)
class ConvergenceReport:
    converges: bool
    horizon: int
    counterexample: tuple[int, str, str] | None  # (point, clause, detail)
    witnesses: tuple[tuple[int, int], ...]  # (point, index from which settled)
    points_checked: int

    def describe(self) -> str:
        if self.converges:
            return (f"converges on all {self.points_checked} probe points "
                    f"below {self.horizon}")
        x, clause, detail = self.counterexample
        return f"fails clause ({clause}) at point {x}: {detail}"


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
# isolation inside the union semigroup of an infinite block rule


def _group_blocks(v: BasicOpen, blocks: Iterable[tuple[int, SetDescriptor]]
                  ) -> tuple[tuple[int, SymElement], ...]:
    """The numbered blocks whose group meets the open, each with a member:
    every required pair lies inside the block and no forbidden point does."""
    return tuple(
        (m, _extend_in_block(blk, dict(v.positive)))
        for m, blk in blocks
        if all(x in blk and y in blk for x, y in v.positive)
        and not any(p in blk for p in v.forbid_dom + v.forbid_im)
    )


@dataclass(frozen=True)
class RuleOpenReport:
    """Exact accounting of the members of a basic open within the union
    semigroup of a block rule: block permutation groups, finite maps of
    rank up to the rule's bound, and the empty map."""

    open: BasicOpen
    empty_member: bool
    rank_one: tuple[SymElement, ...]
    rank_one_infinite: bool
    group_blocks: tuple[tuple[int, SymElement], ...]
    group_tail_infinite: bool

    def is_singleton(self) -> bool:
        # a qualifying group block admits infinitely many members by
        # composing any witness with transpositions of far block points
        if self.rank_one_infinite or self.group_tail_infinite or self.group_blocks:
            return False
        return int(self.empty_member) + len(self.rank_one) == 1

    def sole_member(self) -> SymElement | None:
        if not self.is_singleton():
            return None
        return self.rank_one[0] if self.rank_one else empty_map()


def rule_open_members(v: BasicOpen, rule: BlockRule) -> RuleOpenReport:
    """Decide the membership structure of a basic open in the rule's
    union semigroup without enumerating any permutation group.

    A block group meets the open exactly when every required pair sits
    inside the block and no forbidden point does; the infinitely many
    blocks beyond the constraint points behave identically, so they are
    settled wholesale by the tail flag.
    """
    pos = v.positive
    empty_member = not pos

    if rule.rank_bound < 1 or len(pos) > 1:
        rank_one: tuple[SymElement, ...] = ()
        rank_one_infinite = False
    elif len(pos) == 1:
        (x, y), = pos
        ok = rule.covers(x) and rule.covers(y)
        rank_one = (fin_map([(x, y)]),) if ok else ()
        rank_one_infinite = False
    else:
        rank_one = ()
        rank_one_infinite = True  # fresh pairs beyond the forbids always fit

    cpts = v.constraint_points()
    relevant = sorted({rule.owner(p) for p in cpts if p >= 1})
    group_blocks = _group_blocks(v, ((m, rule.block(m)) for m in relevant))

    pos_fits_tail = all(x == 0 and y == 0 for x, y in pos) \
        and (rule.shared_zero or not pos)
    zero_forbidden = 0 in v.forbid_dom or 0 in v.forbid_im
    tail = pos_fits_tail and not (rule.shared_zero and zero_forbidden)

    return RuleOpenReport(v, empty_member, rank_one, rank_one_infinite,
                          group_blocks, tail)


def low_rank_open_members(v: BasicOpen, rule: BlockRule, window: int) -> list[SymElement]:
    """Exhaustive scan of the rank-at-most-one members of a basic open
    with both points below the window, plus the empty map."""
    hits = []
    if open_contains(v, empty_map()):
        hits.append(empty_map())
    for a in range(window):
        for b in range(window):
            g = fin_map([(a, b)])
            if rule.member(g) and open_contains(v, g):
                hits.append(g)
    return hits


def rank_one_certificate(src: int, tgt: int, rule: BlockRule) -> BasicOpen:
    """A basic open isolating the single-pair map src -> tgt inside the
    rule's union semigroup.

    The required pair pins every finite member.  Block groups are
    killed by one forbidden domain point: the shared point handles all
    blocks at once when neither endpoint is shared, and otherwise a
    spare point of the single block containing both endpoints does.
    """
    if rule.rank_bound < 1:
        raise ValueError("the rule's union semigroup has no rank-one members")
    if not (rule.covers(src) and rule.covers(tgt)):
        raise ValueError("endpoints outside every block")
    if src == 0 and tgt == 0:
        raise ValueError("the shared-point identity is a limit of block "
                         "identities, not an isolated point")
    if src != 0 and tgt != 0:
        kill = 0 if rule.shared_zero else None
        if kill is None:
            # disjoint blocks: only one block can hold both endpoints
            m = rule.owner(src)
            if m != rule.owner(tgt):
                return BasicOpen(((src, tgt),), (), ())
            kill = rule.block(m).least_outside([src, tgt])
        return BasicOpen(((src, tgt),), (kill,), ())
    anchor = src if src != 0 else tgt
    m = rule.owner(anchor)
    kill = rule.block(m).least_outside([0, anchor])
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
            schema = SingletonIdentitySeq(NATURALS if rule.shared_zero
                                          else NATURALS.without_points([0]))
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
    cert = rank_one_certificate(src, tgt, rule)
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


def verify_rank_one_certificate(f: SymElement, rule: BlockRule,
                                windows: Iterable[int] = (12, 20, 28)) -> CertificateCheck:
    """Check a rank-one isolation certificate two ways: the exact
    member accounting must come out a singleton, and the exhaustive
    windowed scans of low-rank members must find the element alone."""
    verdict = rule_isolation(f, rule)
    if not verdict.isolated:
        raise ValueError("element is not isolated; nothing to verify")
    v = verdict.certificate
    rep = rule_open_members(v, rule)
    logic_ok = rep.is_singleton() and rep.sole_member() == f
    windowed = []
    for w in windows:
        hits = low_rank_open_members(v, rule, w)
        windowed.append((w, hits == [f]))
    ok = logic_ok and all(okw for _, okw in windowed)
    return CertificateCheck(f, v, logic_ok, tuple(windowed), ok)


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


def shared_identity_interior_probe(trials: int = 100, seed: int = 0,
                                   rule: BlockRule = COMMON_POINT_RULE,
                                   bound: int = 64) -> InteriorProbeReport:
    """Probe the set {a} with a = (0 -> 1): composing the inverse with a
    gives exactly the identity on the shared point, and that singleton
    set has empty interior because each basic open around it still
    admits a block identity."""
    if not rule.shared_zero:
        raise ValueError("the probe needs the shared-point rule")
    a = fin_map([(0, 1)])
    product = sym_compose(sym_inverse(a), a)
    sole = product == partial_identity([0])

    rng = Random(seed)
    escapes = []
    ok = sole
    for _ in range(trials):
        v = random_basic_open(rng, member=product, bound=bound)
        owners = {rule.owner(p) for p in v.forbid_dom + v.forbid_im}
        n = 0
        while n in owners:
            n += 1
        witness = partial_identity(rule.block(n))
        good = (open_contains(v, witness) and rule.member(witness)
                and witness != product)
        ok = ok and good
        escapes.append((v.describe(), format_sym(witness)))
    return InteriorProbeReport(product, sole, trials, tuple(escapes), ok)


@dataclass(frozen=True)
class InverseProductVerdict:
    element: SymElement
    element_isolated: bool
    inverse_isolated: bool
    product: SymElement
    product_isolated: bool
    product_schema: str | None


def isolated_inverse_check(elements: Iterable[SymElement],
                           rule: BlockRule = COMMON_POINT_RULE) -> list[InverseProductVerdict]:
    """For each rank-one member, report whether it, its inverse, and
    the idempotent inverse-times-element product are isolated.  The
    map 0 -> 1 shows the pattern: both factors isolated, the product a
    limit point."""
    out = []
    for u in elements:
        vu = rule_isolation(u, rule)
        vi = rule_isolation(sym_inverse(u), rule)
        prod = sym_compose(sym_inverse(u), u)
        vp = rule_isolation(prod, rule)
        out.append(InverseProductVerdict(
            u, bool(vu.isolated), bool(vi.isolated), prod,
            bool(vp.isolated), vp.schema_name()))
    return out


# ---------------------------------------------------------------------------
# isolation inside the bounded union of a finite block family


@dataclass(frozen=True)
class FamilyOpenReport:
    """Membership structure of a basic open in the rank-bounded union
    semigroup of a finite block family."""

    open: BasicOpen
    bound: int
    group_blocks: tuple[tuple[int, SymElement], ...]
    finite_member: SymElement | None
    extension_unbounded: bool
    empty_member: bool

    def is_singleton(self) -> bool:
        if self.group_blocks or self.extension_unbounded:
            return False
        return int(self.empty_member) + int(self.finite_member is not None) == 1

    def sole_member(self) -> SymElement | None:
        if not self.is_singleton():
            return None
        return self.finite_member if self.finite_member is not None else empty_map()


def family_open_members(v: BasicOpen, family: BlockFamily, bound: int) -> FamilyOpenReport:
    """Decide what the basic open admits from the union of the block
    groups and the finite strata of rank up to `bound`.

    Groups are settled by the same containment logic as for rules.  The
    finite members must contain the required pairs, so when the rank
    budget exceeds the number of required pairs there are infinitely
    many extensions through fresh block points; equality leaves exactly
    the pairs themselves, provided they fit inside one block pair.
    """
    pos = v.positive
    srcs = [x for x, _ in pos]
    tgts = [y for _, y in pos]

    group_blocks = _group_blocks(v, enumerate(family.blocks))

    fits = [
        (i, j)
        for i, blk_i in enumerate(family.blocks)
        for j, blk_j in enumerate(family.blocks)
        if all(x in blk_i for x in srcs) and all(y in blk_j for y in tgts)
    ]
    empty_member = not pos
    finite_member = None
    if pos and fits and len(pos) <= bound:
        finite_member = fin_map(pos)
    extension_unbounded = bool(fits) and bound > len(pos)

    return FamilyOpenReport(v, bound, group_blocks, finite_member,
                            extension_unbounded, empty_member)


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
                              bound: int) -> tuple[bool, FamilyOpenReport]:
    """Check a family isolation certificate by exact member accounting."""
    verdict = family_isolation(f, family, bound)
    if not verdict.isolated:
        raise ValueError("element is not isolated; nothing to verify")
    rep = family_open_members(verdict.certificate, family, bound)
    return rep.is_singleton() and rep.sole_member() == f, rep
