"""Shared fixtures and reference oracles.

The oracles here are deliberately naive: plain dict compositions and a
set-of-frozensets breadth-first closure.  Engine results are checked
against these, never the other way around.
"""

import random

import pytest

from invsemi import NATURALS, PartialBijection, SetDescriptor, block_perm, fin_map, sym_element


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


def random_partial_injection(rng: random.Random, window: int) -> PartialBijection:
    points = [x for x in range(window) if rng.random() < 0.5]
    targets = rng.sample(range(window), len(points))
    return PartialBijection.of(zip(points, targets), window)


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
