"""Exact finite-or-eventually-periodic subsets of the naturals.

A ``SetDescriptor`` stores a subset of the naturals as an eventually
periodic tail (a set of residues modulo some period) patched by finitely
many added and removed points.  The stored form is canonical: the period
is minimal, removed points really lie on the tail, added points do not.
Structural equality therefore decides set equality, which the rest of
the package leans on for hashing and deduplication.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import BudgetExceededError, ParseError

# The largest tail modulus, and the largest common modulus two tails are
# spread to.  A tail's residue tuple and the masks that the period search
# and the boolean algebra build grow with the modulus, so a larger one is
# refused before any of them is built.
MAX_MODULUS = 1 << 16


def _within_budget(modulus: int) -> int:
    if modulus > MAX_MODULUS:
        raise BudgetExceededError(f"tail modulus {modulus} exceeds the limit {MAX_MODULUS}")
    return modulus


@functools.lru_cache(maxsize=1024)
def _residue_mask(residues: tuple[int, ...] | frozenset[int], modulus: int) -> int:
    """Bit r set for each residue r below ``modulus``, read from one
    string of binary digits: linear in the modulus.  Memoized for the
    small tails that the boolean algebra combines again and again."""
    digits = bytearray(b"0" * modulus)
    for r in residues:
        digits[modulus - 1 - r] = ord("1")
    return int(digits, 2)


def _mask_residues(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending, from one ``bin`` string:
    linear in its length."""
    return [r for r, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


@functools.lru_cache
def _minimal_period(modulus: int, residues: frozenset[int]) -> tuple[int, tuple[int, ...]]:
    """Reduce (modulus, residues) to the least period describing the same tail.

    The least divisor d of the modulus whose rotation leaves the residue
    mask unchanged (``mask == rot(mask, d)``) is the period.  Each test is
    a few operations on a modulus-bit integer, so a modulus M costs M
    divisibility tests plus one rotation per divisor, O(d(M) M / 64) word
    operations.  Memoized: `build`, `_pointwise` and the constructor's
    tail check all ask for the same pair.  A nonempty tail past
    `MAX_MODULUS` is refused."""
    if not residues:
        return 1, ()
    _within_budget(modulus)
    mask = _residue_mask(residues, modulus)
    full = (1 << modulus) - 1
    for d in range(1, modulus):
        if modulus % d == 0 and mask == ((mask << d) | (mask >> (modulus - d))) & full:
            return d, tuple(sorted({r % d for r in residues}))
    return modulus, tuple(sorted(residues))


@functools.lru_cache(maxsize=1024)
def _checked_tail(modulus: int, residues: tuple[int, ...]) -> frozenset[int]:
    """The constructor's check of a tail: the modulus is positive, the
    residues are sorted, distinct and below it, an empty tail uses
    modulus 1 and the period is minimal.  Returns the residue set the
    patch checks test against.  The verdict depends on the pair alone, so
    it is memoized; a rejected pair raises again on every call."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    res = frozenset(residues)
    if residues != tuple(sorted(res)):
        raise ValueError("residues must be sorted and distinct")
    if residues and (residues[0] < 0 or residues[-1] >= modulus):
        raise ValueError("residues must lie in [0, modulus)")
    if not residues and modulus != 1:
        raise ValueError("empty tail must use modulus 1")
    if _minimal_period(modulus, res) != (modulus, residues):
        raise ValueError("tail period is not minimal")
    return res


def _ascending(pts: tuple[int, ...]) -> bool:
    """``pts == tuple(sorted(set(pts)))`` in one pass: a tuple whose
    entries strictly increase."""
    return isinstance(pts, tuple) and (len(pts) < 2 or all(map(operator.lt, pts, pts[1:])))


def _is_int(v) -> bool:
    """An integer config value; JSON's true and false are not numbers."""
    return isinstance(v, int) and not isinstance(v, bool)


def _spread(mask: int, period: int, length: int) -> int:
    """Repeat the low ``period`` bits of ``mask`` up to ``length`` bits
    (``period`` divides ``length``)."""
    return mask * (((1 << length) - 1) // ((1 << period) - 1))


def _tail_mask(d: "SetDescriptor", length: int) -> int:
    """Bit r set when residue r modulo ``length`` lies on d's tail."""
    return _spread(_residue_mask(d.residues, d.modulus), d.modulus, length)


def _and_not(a: int, b: int) -> int:
    return a & ~b


@dataclass(frozen=True)
class SetDescriptor:
    """Canonical subset of the naturals: periodic tail plus finite patches.

    Membership: ``x`` belongs to the set when ``x`` is an added point, or
    when ``x % modulus`` hits a tail residue and ``x`` is not removed.
    Use :meth:`build` (or the module helpers) instead of the constructor;
    the constructor insists on already-canonical data.
    """

    add: tuple[int, ...] = ()
    remove: tuple[int, ...] = ()
    modulus: int = 1
    residues: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        modulus = self.modulus
        try:
            res = _checked_tail(modulus, self.residues)
        except TypeError:
            # an unhashable field misses the memo; the unmemoized check
            # gives the same verdict
            res = _checked_tail.__wrapped__(modulus, self.residues)
        for name, pts in (("add", self.add), ("remove", self.remove)):
            if not _ascending(pts):
                raise ValueError(f"{name} points must be sorted and distinct")
            if pts and pts[0] < 0:
                raise ValueError(f"{name} points must be naturals")
        if self.add and not res.isdisjoint([a % modulus for a in self.add]):
            raise ValueError("added point already on the tail")
        if self.remove and not res.issuperset([r % modulus for r in self.remove]):
            raise ValueError("removed point is not on the tail")

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        add: Iterable[int] = (),
        remove: Iterable[int] = (),
        modulus: int = 1,
        residues: Iterable[int] = (),
    ) -> "SetDescriptor":
        """Canonicalize arbitrary patch data.  Added points win over removed."""
        add_set = set(add)
        mod, res = _minimal_period(modulus, frozenset(r % modulus for r in residues))
        on_tail = set(res)
        return cls(
            tuple(sorted(x for x in add_set if x % mod not in on_tail)),
            tuple(sorted(x for x in set(remove) - add_set if x % mod in on_tail)),
            mod,
            res,
        )

    @classmethod
    def from_points(cls, points: Iterable[int]) -> "SetDescriptor":
        return cls(tuple(sorted(set(points))))

    @classmethod
    def empty(cls) -> "SetDescriptor":
        return cls()

    @classmethod
    def naturals(cls) -> "SetDescriptor":
        return cls(modulus=1, residues=(0,))

    @classmethod
    def residue_class(cls, residue: int, modulus: int) -> "SetDescriptor":
        return cls.build(modulus=modulus, residues=(residue,))

    # -- membership and size ----------------------------------------------

    def member(self, x: int) -> bool:
        if x in self.add:
            return True
        return x % self.modulus in self.residues and x not in self.remove

    def __contains__(self, x: int) -> bool:
        return self.member(x)

    def is_infinite(self) -> bool:
        return bool(self.residues)

    def is_empty(self) -> bool:
        return not self.residues and not self.add

    def points(self) -> tuple[int, ...]:
        """All members of a finite set."""
        if self.residues:
            raise ValueError("points() on an infinite set")
        return self.add

    def below(self, bound: int) -> list[int]:
        """Members strictly below ``bound``, ascending."""
        out = [x for x in self.add if x < bound]
        for r in self.residues:
            out.extend(range(r, bound, self.modulus))
        if self.remove:
            gone = set(self.remove)
            out = [x for x in out if x not in gone]
        out.sort()
        return out

    def iter_members(self) -> Iterator[int]:
        """All members in ascending order (endless when the set is infinite)."""
        if not self.residues:
            yield from self.add
            return
        for x in itertools.count():
            if self.member(x):
                yield x

    def first_members(self, k: int) -> list[int]:
        out = list(itertools.islice(self.iter_members(), k))
        if len(out) < k:
            raise ValueError(f"set has only {len(out)} members, wanted {k}")
        return out

    def least_outside(self, exclude: Iterable[int]) -> int:
        """Least member not in ``exclude``."""
        banned = set(exclude)
        for x in self.iter_members():
            if x not in banned:
                return x
        raise ValueError("set exhausted while avoiding excluded points")

    # -- boolean algebra ----------------------------------------------------

    def _pointwise(self, other: "SetDescriptor", op: Callable[[int, int], int]) -> "SetDescriptor":
        """Combine two sets with a bitwise ``op`` (``&``, ``|`` or ``& ~``):
        the tails as residue bitmasks over the lcm of the moduli, the
        patches point by point on the finitely many patched points.  The
        combined tail's residues are read from one ``bin`` string, so
        listing them is linear in the lcm; its period search costs what
        `_minimal_period` states."""
        big = _within_budget(math.lcm(self.modulus, other.modulus))
        tail = op(_tail_mask(self, big), _tail_mask(other, big))
        mod, res = _minimal_period(big, frozenset(_mask_residues(tail)))
        add, remove = [], []
        for x in sorted({*self.add, *self.remove, *other.add, *other.remove}):
            on_tail = tail >> x % big & 1
            if op(self.member(x), other.member(x)):
                if not on_tail:
                    add.append(x)
            elif on_tail:
                remove.append(x)
        return SetDescriptor(tuple(add), tuple(remove), mod, res)

    def intersect(self, other: "SetDescriptor") -> "SetDescriptor":
        return self._pointwise(other, operator.and_)

    def union(self, other: "SetDescriptor") -> "SetDescriptor":
        return self._pointwise(other, operator.or_)

    def difference(self, other: "SetDescriptor") -> "SetDescriptor":
        return self._pointwise(other, _and_not)

    def complement(self) -> "SetDescriptor":
        # a tail and its complement share their least period (a full tail
        # has period 1), and the added and removed points trade places
        on_tail = _checked_tail(self.modulus, self.residues)
        residues = tuple(r for r in range(self.modulus) if r not in on_tail)
        return SetDescriptor(self.remove, self.add, self.modulus, residues)

    def with_points(self, points: Iterable[int]) -> "SetDescriptor":
        pts = set(points)
        res = self.residues
        add = {*self.add, *(x for x in pts if x % self.modulus not in res)}
        remove = tuple(x for x in self.remove if x not in pts)
        return SetDescriptor(tuple(sorted(add)), remove, self.modulus, res)

    def without_points(self, points: Iterable[int]) -> "SetDescriptor":
        drop = set(points)
        res = self.residues
        add = tuple(x for x in self.add if x not in drop)
        remove = {*self.remove, *(x for x in drop if x % self.modulus in res)}
        return SetDescriptor(add, tuple(sorted(remove)), self.modulus, res)

    def almost_subset_of(self, other: "SetDescriptor") -> bool:
        """True when ``self \\ other`` is finite.  The patches are finite,
        so only the tails decide it: no residue over the lcm of the moduli
        lies on this tail and off the other's."""
        big = _within_budget(math.lcm(self.modulus, other.modulus))
        return not _tail_mask(self, big) & ~_tail_mask(other, big)

    # -- serialization ----------------------------------------------------

    def to_config(self) -> dict:
        cfg: dict = {}
        if self.add:
            cfg["finite"] = list(self.add)
        if self.residues:
            cfg["tail"] = {"mod": self.modulus, "residues": list(self.residues)}
        if self.remove:
            cfg["remove"] = list(self.remove)
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "SetDescriptor":
        if not isinstance(cfg, dict):
            raise ParseError(f"set config must be an object, got {type(cfg).__name__}")
        extra = set(cfg) - {"finite", "tail", "remove"}
        if extra:
            raise ParseError(f"unknown set config keys: {sorted(extra)}")
        add = cfg.get("finite", [])
        remove = cfg.get("remove", [])
        tail = cfg.get("tail")
        modulus, residues = 1, ()
        if tail is not None:
            if not isinstance(tail, dict) or set(tail) - {"mod", "residues"}:
                raise ParseError("tail must be an object with keys mod, residues")
            modulus = tail.get("mod", 1)
            residues = tail.get("residues", [])
        for seq in (add, remove, residues):
            if not isinstance(seq, (list, tuple)) or not all(map(_is_int, seq)):
                raise ParseError("set config lists must contain integers")
        if any(v < 0 for v in (*add, *remove)):
            raise ParseError("finite and remove points must be naturals")
        if not _is_int(modulus) or modulus < 1:
            raise ParseError("tail mod must be a positive integer")
        return cls.build(add=add, remove=remove, modulus=modulus, residues=residues)

    def to_text(self) -> str:
        if self.is_empty():
            return "empty"
        parts = []
        if self.add:
            parts.append("finite {%s}" % ",".join(map(str, self.add)))
        if self.residues:
            parts.append("tail mod %d residues [%s]" % (self.modulus, ",".join(map(str, self.residues))))
        if self.remove:
            parts.append("remove {%s}" % ",".join(map(str, self.remove)))
        return " ".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "SetDescriptor":
        """Parse the ``to_text`` grammar, e.g. ``finite {0,1} tail mod 6 residues [2] remove {4}``."""
        import re

        s = text.strip()
        if s == "empty":
            return cls.empty()
        if s == "all":
            return cls.naturals()
        pat = re.compile(
            r"^(?:finite \{(?P<finite>[\d,\s]*)\})?\s*"
            r"(?:tail mod (?P<mod>\d+) residues \[(?P<res>[\d,\s]*)\])?\s*"
            r"(?:remove \{(?P<remove>[\d,\s]*)\})?$"
        )
        m = pat.match(s)
        if not m or not any(m.group(g) is not None for g in ("finite", "mod", "remove")):
            raise ParseError(f"cannot parse set descriptor: {text!r}")

        def ints(raw: str | None) -> list[int]:
            if raw is None or not raw.strip():
                return []
            return [int(tok) for tok in raw.split(",")]

        modulus = int(m.group("mod")) if m.group("mod") else 1
        if modulus < 1:
            raise ParseError(f"tail mod must be a positive integer: {text!r}")
        return cls.build(
            add=ints(m.group("finite")),
            remove=ints(m.group("remove")),
            modulus=modulus,
            residues=ints(m.group("res")),
        )

    def __str__(self) -> str:
        return self.to_text()


EMPTY = SetDescriptor.empty()
NATURALS = SetDescriptor.naturals()
