"""Subsemigroups cut out by constraints on domains and images.

Given a collection ``C`` of subsets of the naturals, two natural
subfamilies of partial bijections appear:

* ``S(C)``  = maps whose domain and image both belong to ``C``;
* ``S+(C)`` = maps whose domain and image *complements* both belong
  to ``C``.

Neither is a subsemigroup for free.  The useful closure laws:

* ``C`` closed under subsets      -> ``S(C)`` closed under composition;
* ``S(C)`` closed under composition -> ``C`` closed under pairwise
  intersection (witnessed on partial identities);
* ``C`` contains every finite set -> ``S(C)`` meets every basic open;
* ``C`` closed under supersets    -> ``S+(C)`` closed under composition.

`check_collection_laws` probes all four on a concrete collection model,
by exhaustive windowed search where that is feasible and by seeded
symbolic probes otherwise.

`ideal_escape_witness` builds, inside any basic open, an element whose
domain and image complements land in a strictly larger ideal than the
one prescribed: the recipe behind the one-step extension argument for
ideal-constrained semigroups.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from random import Random
from typing import Union

from .closure import composition_escape, decode_row, encode_rows
from .descriptors import NATURALS, SetDescriptor
from .pbij import PartialBijection, all_partial_bijections
from .symbolic import (
    SymElement,
    dom_set,
    empty_map,
    fin_map,
    im_set,
    partial_identity,
    format_sym,
    sym_compose,
    sym_element,
)

SetLike = Union[SetDescriptor, frozenset, set, tuple, list]


def _as_descriptor(x: SetLike) -> SetDescriptor:
    if isinstance(x, SetDescriptor):
        return x
    return SetDescriptor.from_points(x)


# ---------------------------------------------------------------------------
# ideals


@dataclass(frozen=True)
class IdealModel:
    """A computable ideal of subsets of the naturals.

    kind:
      "fin"                -- all finite sets
      "principal-plus-fin" -- sets X with X \\ base finite (smallest ideal
                              containing the finite sets and `base`)
      "empty"              -- no sets at all (degenerate; useful as the
                              "original" ideal when only the extension
                              clauses are of interest)
    """

    kind: str
    base: SetDescriptor | None = None

    def __post_init__(self):
        if self.kind not in ("fin", "principal-plus-fin", "empty"):
            raise ValueError(f"unknown ideal kind {self.kind!r}")
        if self.kind == "principal-plus-fin" and self.base is None:
            raise ValueError("principal-plus-fin needs a base set")

    def contains(self, x: SetLike) -> bool:
        d = _as_descriptor(x)
        if self.kind == "empty":
            return False
        if self.kind == "fin":
            return not d.is_infinite()
        return d.almost_subset_of(self.base)

    def is_proper(self) -> bool:
        """True when the full set of naturals is not a member."""
        if self.kind in ("fin", "empty"):
            return True
        return self.base.complement().is_infinite()

    @property
    def contains_all_finite(self) -> bool:
        return self.kind != "empty"

    def describe(self) -> str:
        return self._text

    @functools.cached_property
    def _text(self) -> str:
        # formatted once per model: every escape witness names its two ideals
        if self.kind == "fin":
            return "finite sets"
        if self.kind == "empty":
            return "empty ideal"
        return f"finite-mod ({self.base.to_text()})"


FIN_IDEAL = IdealModel("fin")
EMPTY_IDEAL = IdealModel("empty")


def principal_plus_fin(base: SetDescriptor) -> IdealModel:
    return IdealModel("principal-plus-fin", base=base)


# ---------------------------------------------------------------------------
# collections


@dataclass(frozen=True)
class CollectionModel:
    """A computable collection of subsets of the naturals.

    kind:
      "at-most-n"        -- finite sets with at most `n` points
      "schreier"         -- finite F with |F| <= min(F) + 1 (and the empty set)
      "initial-segments" -- {0,...,k} for each k, and the empty set
      "ideal-members"    -- members of `ideal`
      "co-ideal"         -- sets whose complement lies in `ideal`
      "all"              -- every subset
    """

    kind: str
    n: int | None = None
    ideal: IdealModel | None = None

    def __post_init__(self):
        kinds = ("at-most-n", "schreier", "initial-segments",
                 "ideal-members", "co-ideal", "all")
        if self.kind not in kinds:
            raise ValueError(f"unknown collection kind {self.kind!r}")
        if self.kind == "at-most-n" and (self.n is None or self.n < 0):
            raise ValueError("at-most-n needs a size bound")
        if self.kind in ("ideal-members", "co-ideal") and self.ideal is None:
            raise ValueError(f"{self.kind} needs an ideal")

    def contains(self, x: SetLike) -> bool:
        d = _as_descriptor(x)
        if self.kind == "all":
            return True
        if self.kind == "ideal-members":
            return self.ideal.contains(d)
        if self.kind == "co-ideal":
            return self.ideal.contains(d.complement())
        # the remaining kinds hold finite sets only
        if d.is_infinite():
            return False
        pts = d.points()
        if self.kind == "at-most-n":
            return len(pts) <= self.n
        if self.kind == "schreier":
            return not pts or len(pts) <= min(pts) + 1
        # initial segments
        return not pts or set(pts) == set(range(max(pts) + 1))

    @property
    def hereditary(self) -> bool:
        """Closed under passing to subsets."""
        if self.kind in ("at-most-n", "schreier", "all"):
            return True
        if self.kind == "ideal-members":
            return True  # ideals are downward closed by definition
        return False

    @property
    def upward_closed(self) -> bool:
        """Closed under passing to supersets."""
        return self.kind in ("co-ideal", "all")

    @property
    def contains_all_finite(self) -> bool:
        if self.kind == "all":
            return True
        if self.kind == "ideal-members":
            return self.ideal.contains_all_finite
        return False


def in_constrained(f: SymElement, model: CollectionModel) -> bool:
    """Membership in S(C): domain and image both belong to the collection."""
    return model.contains(dom_set(f)) and model.contains(im_set(f))


def in_co_constrained(f: SymElement, model: CollectionModel) -> bool:
    """Membership in S+(C): domain and image complements both belong."""
    return (model.contains(dom_set(f).complement())
            and model.contains(im_set(f).complement()))


# ---------------------------------------------------------------------------
# law verification


@dataclass(frozen=True)
class LawVerdict:
    law: str
    applicable: bool
    holds: bool
    detail: str


def _windowed_members(model: CollectionModel, window: int) -> list[PartialBijection]:
    out = []
    for p in all_partial_bijections(window):
        if model.contains(frozenset(p.domain())) and model.contains(frozenset(p.image())):
            out.append(p)
    return out


def _composition_escape(model: CollectionModel, window: int):
    """Scan all pairwise composites of windowed S(C) members.

    Returns (products_checked, escape) where escape is a composite map
    outside S(C), or None if the windowed semigroup closed up.
    """
    members = _windowed_members(model, window)
    if not members:
        return 0, None
    # the members are every windowed map whose domain and image the model
    # holds, so a composite lies in S(C) exactly when its row is a member's
    checked, escape = composition_escape(encode_rows(members, window))
    return checked, None if escape is None else decode_row(escape, window)


def _meet_pool(model: CollectionModel, window: int) -> list[SetDescriptor]:
    pool = []
    for k in range(window + 1):
        for pts in itertools.combinations(range(window), k):
            d = SetDescriptor.from_points(pts)
            if model.contains(d):
                pool.append(d)
    evens = SetDescriptor.residue_class(0, 2)
    for d in (NATURALS, evens, evens.complement(),
              NATURALS.without_points([0, 1]), evens.with_points([1])):
        if model.contains(d):
            pool.append(d)
    return pool


def _symbolic_pool(seed: int) -> list[SymElement]:
    rng = Random(seed)
    evens = SetDescriptor.residue_class(0, 2)
    pool: list[SymElement] = [
        empty_map(),
        fin_map([(0, 1)]),
        fin_map([(0, 2), (2, 4), (4, 0)]),
        partial_identity([0, 1, 2]),
        partial_identity(NATURALS),
        partial_identity(evens),
        partial_identity(NATURALS.without_points([0, 3])),
        sym_element(NATURALS.without_points([0, 1, 2]), [(0, 1), (1, 0)]),
        sym_element(evens.without_points([0]), [(1, 3), (3, 1)]),
    ]
    for _ in range(6):
        a = rng.randrange(8)
        b = rng.randrange(8, 16)
        pool.append(sym_element(NATURALS.without_points([a, b]), [(a, b), (b, a)]))
    return pool


DENSITY_OPENS = 25  # random basic opens probed for the density law


def check_collection_laws(model: CollectionModel, window: int = 5,
                          seed: int = 0) -> list[LawVerdict]:
    """Probe the four closure laws on a concrete collection.

    Laws with a true premise must come back holding; when the premise
    fails the scan still runs and the detail records any escape found,
    which is what makes collections like the initial segments
    informative.
    """
    from .topology import open_contains, random_basic_open

    verdicts = []

    # law 1: subset-closed collections give composition-closed families
    checked, escape = _composition_escape(model, window)
    if model.hereditary:
        holds = escape is None
        detail = f"hereditary; {checked} windowed products stayed inside"
        if escape is not None:
            detail = (f"hereditary but composite {escape.format_literal()} "
                      "escaped: law violated")
    else:
        holds = True
        if escape is None:
            detail = (f"not hereditary; no escape among {checked} windowed "
                      "products (premise false, nothing claimed)")
        else:
            detail = (f"not hereditary, and composition indeed escapes: "
                      f"{escape.format_literal()} has domain or image "
                      "outside the collection")
    verdicts.append(LawVerdict("subset-closed-implies-semigroup",
                               model.hereditary, holds, detail))

    # law 2: a composition-closed family forces meet-closed collections
    pool = _meet_pool(model, window)
    meet_escape = None
    for a, b in itertools.combinations(pool, 2):
        m = a.intersect(b)
        if not model.contains(m):
            meet_escape = (a, b, m)
            break
    if meet_escape is None:
        verdicts.append(LawVerdict(
            "semigroup-implies-meet-closed", True, True,
            f"all {len(pool) * (len(pool) - 1) // 2} probed meets stayed "
            "in the collection"))
    else:
        a, b, m = meet_escape
        ga = partial_identity(a)
        gb = partial_identity(b)
        comp = sym_compose(ga, gb)
        consistent = (in_constrained(ga, model) and in_constrained(gb, model)
                      and not in_constrained(comp, model))
        verdicts.append(LawVerdict(
            "semigroup-implies-meet-closed", True, consistent,
            f"meet of {a.to_text()} and {b.to_text()} leaves the "
            f"collection, and the matching identity composite "
            f"{format_sym(comp)} indeed escapes"))

    # law 3: collections holding every finite set give dense families
    if model.contains_all_finite:
        rng = Random(seed)
        bad = None
        for _ in range(DENSITY_OPENS):
            v = random_basic_open(rng)
            member = fin_map(v.positive) if v.positive else empty_map()
            if not (open_contains(v, member) and in_constrained(member, model)):
                bad = v
                break
        holds = bad is None
        detail = (f"found a member in each of {DENSITY_OPENS} random basic opens"
                  if holds else f"no member found in {bad.describe()}")
    else:
        holds, detail = True, "collection misses some finite set; not probed"
    verdicts.append(LawVerdict("all-finite-implies-dense",
                               model.contains_all_finite, holds, detail))

    # law 4: superset-closed collections make the complement family close up
    pool4 = [f for f in _symbolic_pool(seed) if in_co_constrained(f, model)]
    escape4 = None
    pairs_checked = 0
    for f, g in itertools.product(pool4, repeat=2):
        h = sym_compose(f, g)
        pairs_checked += 1
        if not in_co_constrained(h, model):
            escape4 = (f, g, h)
            break
    if model.upward_closed:
        holds = escape4 is None
        detail = (f"{pairs_checked} symbolic composites of complement-"
                  "constrained members stayed inside" if holds else
                  f"composite {format_sym(escape4[2])} escaped: law violated")
    else:
        holds = True
        if escape4 is None:
            detail = (f"not superset-closed; no escape among {pairs_checked} "
                      "probes (premise false, nothing claimed)")
        else:
            detail = (f"not superset-closed, and composition escapes: "
                      f"{format_sym(escape4[2])}")
    verdicts.append(LawVerdict("superset-closed-implies-complement-semigroup",
                               model.upward_closed, holds, detail))

    return verdicts


# ---------------------------------------------------------------------------
# escaping a prescribed ideal inside any basic open


@dataclass(frozen=True)
class EscapeWitness:
    """An escape element with the verdict of each clause.  `verdicts`
    holds the (name, verdict) pairs in the order `ideal_escape_witness`
    checks them."""

    element: SymElement
    small_ideal: IdealModel
    big_ideal: IdealModel
    verdicts: tuple[tuple[str, bool], ...]
    holds: bool
    element_text: str  # format_sym(element)
    open_text: str  # describe() of the open the element lies in


@functools.lru_cache(maxsize=16)
def pivot_extension(ideal: IdealModel, pivot: SetDescriptor) -> tuple[SetDescriptor, IdealModel]:
    """Check that `pivot` can extend the proper `ideal` (it avoids the
    ideal on both sides) and return the pivot's complement and the
    extended ideal.  Memoized per (ideal, pivot); a rejected pair raises
    `ValueError` and is checked again on the next call."""
    if not ideal.is_proper():
        raise ValueError("the ideal must be proper")
    if ideal.contains(pivot):
        raise ValueError("pivot already belongs to the ideal")
    pivot_c = pivot.complement()
    if ideal.contains(pivot_c):
        raise ValueError("pivot complement already belongs to the ideal")
    return pivot_c, principal_plus_fin(pivot)


def ideal_escape_witness(v, ideal: IdealModel, pivot: SetDescriptor) -> EscapeWitness:
    """Inside the basic open `v`, build a map whose domain and image
    complements land in the ideal extended by `pivot` but not in the
    original ideal.

    `pivot` must avoid the ideal on both sides (itself and its
    complement), which also keeps the extended ideal proper.  The
    element fixes the complement of `pivot` off the finitely many
    constrained points and adds the open's required pairs on top.
    """
    from .topology import open_contains

    pivot_c, big = pivot_extension(ideal, pivot)
    srcs = [x for x, _ in v.positive]
    tgts = [y for _, y in v.positive]
    touched = v.constraint_points()
    f = sym_element(pivot_c.without_points(touched), v.positive)

    dom_c = dom_set(f).complement()
    im_c = im_set(f).complement()
    # the formula sides pivot + touched - sources (resp. targets) differ
    # from the pivot by finitely many points, so they are patches of it
    spread = pivot.with_points(touched)
    want_dom = spread.without_points(srcs)
    want_im = spread.without_points(tgts)

    verdicts = (
        ("member-of-open", open_contains(v, f)),
        ("domain-complement-in-extended", big.contains(dom_c)),
        ("domain-complement-outside-original", not ideal.contains(dom_c)),
        ("image-complement-in-extended", big.contains(im_c)),
        ("image-complement-outside-original", not ideal.contains(im_c)),
        ("domain-complement-formula", dom_c == want_dom),
        ("image-complement-formula", im_c == want_im),
    )
    return EscapeWitness(f, ideal, big, verdicts, all(ok for _, ok in verdicts),
                         format_sym(f), v.describe())
