"""Windowed partial bijections.

A ``PartialBijection`` is a finite injective partial map on the points
``0 .. window-1``.  The window is carried explicitly: two maps compare
equal only when both pairs and window agree, and mixing windows in an
operation is an error rather than a silent reinterpretation.

The class gives construction, composition and inversion (windowed
references for symbolic composition and inversion), and the
``{a->b, ...}@window`` literal that reports print.
``all_partial_bijections`` enumerates every map on a window of at most 6.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import BudgetExceededError, NotInjectiveError, ParseError, WindowMismatchError

Pair = tuple[int, int]


@dataclass(frozen=True)
class PartialBijection:
    pairs: tuple[Pair, ...]
    window: int

    def __post_init__(self) -> None:
        if self.window < 0:
            raise ValueError("window must be >= 0")
        srcs = [s for s, _ in self.pairs]
        tgts = [t for _, t in self.pairs]
        if len(set(srcs)) != len(srcs):
            raise NotInjectiveError("repeated source point")
        if len(set(tgts)) != len(tgts):
            raise NotInjectiveError("repeated target point")
        if any(v < 0 or v >= self.window for v in srcs + tgts):
            raise ValueError("point outside window")
        if self.pairs != tuple(sorted(self.pairs)):
            raise ValueError("pairs must be sorted by source")

    # -- construction ----------------------------------------------------

    @classmethod
    def of(cls, pairs: Iterable[Pair] | Mapping[int, int], window: int) -> "PartialBijection":
        if isinstance(pairs, Mapping):
            pairs = pairs.items()
        return cls(tuple(sorted((int(s), int(t)) for s, t in pairs)), window)

    # -- structure ----------------------------------------------------

    def domain(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.pairs)

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(t for _, t in self.pairs))

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    # -- algebra ----------------------------------------------------

    def _check_window(self, other: "PartialBijection") -> None:
        if self.window != other.window:
            raise WindowMismatchError(f"window {self.window} vs {other.window}")

    def compose(self, other: "PartialBijection") -> "PartialBijection":
        """self after other: x -> self(other(x)) where both steps are defined."""
        self._check_window(other)
        mine = self.as_dict()
        pairs = [(x, mine[y]) for x, y in other.pairs if y in mine]
        return PartialBijection(tuple(sorted(pairs)), self.window)

    def inverse(self) -> "PartialBijection":
        return PartialBijection(tuple(sorted((t, s) for s, t in self.pairs)), self.window)

    # -- literals ----------------------------------------------------

    def format_literal(self) -> str:
        inner = ", ".join(f"{s}->{t}" for s, t in self.pairs)
        return "{%s}@%d" % (inner, self.window)

    def __str__(self) -> str:
        return self.format_literal()


def parse_pairs(body: str) -> list[Pair]:
    """Parse a comma-separated ``a->b`` list; blank means no pairs."""
    if not body.strip():
        return []
    pairs = []
    for chunk in body.split(","):
        m = re.match(r"^\s*(\d+)\s*->\s*(\d+)\s*$", chunk)
        if not m:
            raise ParseError(f"bad pair {chunk!r}")
        pairs.append((int(m.group(1)), int(m.group(2))))
    return pairs


def all_partial_bijections(window: int) -> list[PartialBijection]:
    """Every partial bijection on the points below the window."""
    if window > 6:
        raise BudgetExceededError("full enumeration is capped at window 6")
    pts = range(window)
    out = []
    for k in range(window + 1):
        for dom in itertools.combinations(pts, k):
            for img in itertools.permutations(pts, k):
                out.append(PartialBijection.of(zip(dom, img), window))
    return out
