"""The three workloads: seeded inputs, the timed call, and its verdict check.

Every input is drawn during set-up from `random.Random(seed)`.  A workload
is a list of cycles of jobs; each cycle fills a fixed template of job
classes in a seeded order, so every run sees the same mix and the seed
picks the members.  Expectations are fixed at draw time,
from the construction of the input or from an independent oracle, never
from the route being timed.

The timed calls go through module attributes (`CL.closure_of`, not a
name imported here), so the tracer's wrappers see them.
"""

from __future__ import annotations

import functools
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from invsemi import catalog as CAT
from invsemi import cli as CLI
from invsemi import closure as CL
from invsemi import families as FAM


def predicted_elements(fam, bound: int, window: int) -> int:
    """Upper bound on the closure size: the empty map, every windowed
    block group, and every stratum up to the bound (strata that share
    points are counted twice)."""
    sizes = [len(b.below(window)) for b in fam.blocks]
    total = 1 + sum(math.factorial(s) for s in sizes)
    for si in sizes:
        for sj in sizes:
            total += sum(math.comb(si, k) * math.perm(sj, k) for k in range(1, bound + 1))
    return total


# Cycles built per run.  A run that outlasts them starts again at cycle 0
# and reports how many cycles it reused.
CLOSURE_CYCLES = 12
CERTIFY_CYCLES = 256


@dataclass
class Job:
    jid: str
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    props: dict = field(default_factory=dict)


def family_class(fam) -> str:
    """The generator's construction and block count, e.g. `core1-b3`:
    families of one class differ at most in modulus, residues and window."""
    kind = fam.name.split("-")[0]
    return kind if kind == "disjoint" else f"{kind}-b{len(fam.blocks)}"


# A closure cycle is one job of each heavy class, about 3,200 elements
# each, plus the generator's next light draw (under 1,000 predicted
# elements), in a seeded order.  The heavy jobs are the majority, so the median, the tail
# and the rate all follow the all-pairs kernels.  On a shared 2-vCPU
# host, millisecond closures of light families drifted 20-40 % between
# runs and the heavy ones 8-15 %.  Whole cycles keep the mix fixed.


def _draws(rng: random.Random, heavy: list[str]) -> tuple[dict[str, tuple], list]:
    """Draw from the generator until every heavy class has a family and
    CLOSURE_CYCLES light draws are found: the first draw of each heavy
    class (each is one deterministic marker family), the light ones in
    draw order."""
    first: dict[str, tuple] = {}
    wanted = {k for k in heavy if k != "bound2"}
    light = []
    while len(first) < len(wanted) or len(light) < CLOSURE_CYCLES:
        fam, bound, window = CAT.random_uniform_family(rng)
        kind = family_class(fam)
        if kind in wanted:
            first.setdefault(kind, (fam, bound, window))
        elif predicted_elements(fam, bound, window) < 1000:
            light.append((fam, bound, window))
    return first, light[:CLOSURE_CYCLES]


def _cycles(rng: random.Random, heavy: list[str], job) -> list[list[Job]]:
    """Build CLOSURE_CYCLES cycles, every job on a fresh BlockFamily;
    `job(c, s, kind, draw)` makes the job for slot s of cycle c."""
    first, light = _draws(rng, heavy)
    first["bound2"] = (CAT.bound_example(), 2, None)  # README family, window left open
    cycles = []
    for c, draw in enumerate(light):
        slots = [(kind, first[kind]) for kind in heavy]
        slots.append((f"light-{family_class(draw[0])}", draw))
        jobs = [job(c, s, kind, (FAM.BlockFamily(f.blocks, name=f.name), bound, window))
                for s, (kind, (f, bound, window)) in enumerate(slots)]
        rng.shuffle(jobs)
        cycles.append(jobs)
    return cycles


# -- closure-sweep ----------------------------------------------------

# The heavy classes: bound 2 on two blocks with the sparse generators (4),
# bound 1 on four blocks with the full block groups (2,880 generators).
SWEEP_HEAVY = ["markers2-b2", "markers1-b4"]


def _sweep_call(fam, window: int, sparse: bool):
    result = CL.closure_of(CL.family_generators(fam, window, sparse=sparse))
    return result, CL.compare_with_structural(result, fam)


def _sweep_check(out) -> bool:
    result, diff = out
    return result.closed and diff.matches


def build_closure_sweep(seed: int, workdir: Path) -> list[list[Job]]:
    rng = random.Random(seed)

    def job(c, s, kind, draw):
        fam, bound, window = draw
        sparse = kind == "markers2-b2"
        return Job(f"c{c}.{s}", kind,
                   lambda: _sweep_call(fam, window, sparse), _sweep_check,
                   {"family": fam.name, "bound": bound, "window": window, "sparse": sparse,
                    "elements": predicted_elements(fam, bound, window)})

    return _cycles(rng, SWEEP_HEAVY, job)


# -- closure-bound ----------------------------------------------------

# The heavy classes: the README's bound2 and the sweep's two.
BOUND_HEAVY = ["bound2", "markers2-b2", "markers1-b4"]


def _bound_check(rep) -> bool:
    return rep.satisfied and rep.closed


def build_closure_bound(seed: int, workdir: Path) -> list[list[Job]]:
    rng = random.Random(seed)

    def job(c, s, kind, draw):
        fam, bound, window = draw
        b = len(fam.blocks)
        size_window = window or CL.minimal_window(fam, [[bound] * b] * b)
        return Job(f"c{c}.{s}", kind,
                   lambda: CL.check_closure_bound(fam, bound, window), _bound_check,
                   {"family": fam.name, "bound": bound, "window": window,
                    "elements": predicted_elements(fam, bound, size_window)})

    return _cycles(rng, BOUND_HEAVY, job)


# -- certify ----------------------------------------------------

# One job per example command in the README, for the commands this
# workload runs (`closure run` is the closure workloads' traffic).  Both
# `chains` slots run `--check`; the README's second example writes a CSV
# of the same capacity matrix instead.  The two `ideal-witness` slots are
# the README's `--ideal fin` (the default) and `--ideal empty`.
CERTIFY_TEMPLATE = {
    "family-check": 2, "chains": 2, "stratify": 1, "factorize": 1,
    "closure-bound": 2, "ideal-witness": 2, "pettis-witness": 1,
}
IDEALS = ["fin", "empty"]
# violating_family configs written once in set-up; closure-bound jobs draw from them
VIOLATING_POOL = 24
CHECK_FAMILIES = [f"disjoint:{n}" for n in range(2, 7)] + [
    f"common-point:{n}" for n in range(2, 7)] + ["five-ring", "unequal", "bound2"]
# common-point:6 is left out: its walk oracle alone takes seconds
CHAIN_FAMILIES = [f"disjoint:{n}" for n in range(2, 6)] + [
    f"common-point:{n}" for n in range(2, 6)] + ["five-ring", "unequal", "bound2"]
STRATA_FAMILIES = ["disjoint:2", "disjoint:3", "common-point:2", "common-point:3",
                   "common-point:4", "five-ring", "unequal", "bound2"]
POINT_BOUND = 64


def _cli_call(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = CLI.main(argv)
    return code, out.getvalue()


def _report_check(expect: Callable[[int, dict], bool]):
    def check(out) -> bool:
        code, text = out
        return code != 1 and expect(code, json.loads(text)["report"])
    return check


@functools.lru_cache(maxsize=None)
def family_check_expectation(spec: str) -> tuple[list[list[int | None]], int]:
    """The overlap matrix of a catalog family and its largest entry."""
    matrix = overlap_oracle(CAT.named_family(spec))
    return matrix, max(v for row in matrix for v in row if v is not None)


def overlap_oracle(fam) -> list[list[int | None]]:
    """Pairwise overlaps by plain membership: past the largest patch point
    both blocks are periodic, so a finite overlap lies below that point
    plus the lcm of their moduli."""
    b = len(fam.blocks)
    out: list[list[int | None]] = [[None] * b for _ in range(b)]
    for i in range(b):
        for j in range(b):
            if i != j:
                x, y = fam.blocks[i], fam.blocks[j]
                top = max(x.add + x.remove + y.add + y.remove + (0,))
                limit = top + 1 + math.lcm(x.modulus, y.modulus)
                out[i][j] = sum(1 for p in range(limit) if x.member(p) and y.member(p))
    return out


@dataclass
class _Strata:
    """A catalog family with its walk-oracle capacities and points."""
    spec: str
    fam: Any
    cap: list[list[int]]
    points: list[list[int]]

    @classmethod
    def of(cls, spec: str) -> "_Strata":
        fam = CAT.named_family(spec)
        return cls(spec, fam, FAM.chain_capacity_by_enumeration(fam),
                   [b.below(POINT_BOUND) for b in fam.blocks])

    def draw(self, rng: random.Random) -> tuple[str, str, bool]:
        """An element literal, its expected kind and whether the block
        groups generate it (by the walk oracle's capacities)."""
        b = len(self.fam.blocks)
        r = rng.random()
        if r < 0.1:
            return "empty", "empty", True
        if r < 0.2:
            return f"id(B{rng.randrange(b)})", "group", True
        if r < 0.3:
            i = rng.randrange(b)
            p, q = rng.sample(self.points[i], 2)
            return f"perm(B{i}; {p}->{q}, {q}->{p})", "group", True
        k = rng.randint(1, max(map(max, self.cap)) + 1)  # one past the widest stratum
        i, j = rng.randrange(b), rng.randrange(b)
        dom = rng.sample(self.points[i], k)
        img = rng.sample(self.points[j], k)
        inside = [[all(blk.member(x) for x in pts) for blk in self.fam.blocks]
                  for pts in (dom, img)]
        generated = any(k <= self.cap[a][c] for a in range(b) for c in range(b)
                        if inside[0][a] and inside[1][c])
        literal = "fin(" + ", ".join(f"{x}->{y}" for x, y in zip(dom, img)) + ")"
        return literal, "finite", generated


def _certify_job(kind: str, slot: int, rng: random.Random, strata: list[_Strata],
                 violating: list[tuple[int, str, int]]) -> tuple[list[str], Callable, dict]:
    if kind == "family-check":
        spec = rng.choice(CHECK_FAMILIES)
        matrix, top = family_check_expectation(spec)
        return (["family-check", "--family", spec],
                lambda code, rep: rep["pairwise_overlaps"] == matrix
                and rep["max_overlap"] == top,
                {"family": spec})
    if kind == "chains":
        spec = rng.choice(CHAIN_FAMILIES)
        return (["chains", "--family", spec, "--check"],
                lambda code, rep: rep["oracle_agrees"] is True
                and all(c["verified"] for c in rep["certificates"]),
                {"family": spec})
    if kind in ("stratify", "factorize"):
        st = rng.choice(strata)
        literal, shape, generated = st.draw(rng)
        props = {"family": st.spec, "element": literal, "generated": generated}
        argv = [kind, "--family", st.spec, "--element", literal]
        if kind == "stratify":
            return (argv, lambda code, rep: rep["generated"] is generated
                    and rep["kind"] == shape, props)
        if generated:
            return (argv, lambda code, rep: code == 0 and rep["generated"] is True
                    and rep["recomposes"] is True, props)
        return argv, lambda code, rep: rep["generated"] is False, props
    if kind == "closure-bound":
        bound, path, blocks = rng.choice(violating)
        # the violation verdict is itself verified, so the code exits 0
        return (["verify", "closure-bound", "--family", path, "--bound", str(bound)],
                lambda code, rep: rep["verdict_ok"] is True and rep["within_bound"] is False
                and rep["witness"]["rank"] > bound,
                {"bound": bound, "blocks": blocks})
    seed = str(rng.randrange(10**6))
    if kind == "ideal-witness":
        ideal = IDEALS[slot % len(IDEALS)]
        return (["verify", "ideal-witness", "--ideal", ideal, "--trials", "50", "--seed", seed],
                lambda code, rep: rep["all_hold"] is True, {"ideal": ideal})
    return (["verify", "pettis-witness", "--trials", "100", "--seed", seed],
            lambda code, rep: rep["all_ok"] is True, {})


def _violating_configs(rng: random.Random, workdir: Path) -> list[tuple[int, str, int]]:
    """VIOLATING_POOL `catalog.violating_family` draws written as JSON:
    (bound, path, block count) each."""
    out = []
    for n in range(VIOLATING_POOL):
        bound = rng.choice([0, 1, 2])
        fam = CAT.violating_family(rng, bound)
        path = workdir / f"violating-{n}.json"
        path.write_text(json.dumps(fam.to_config()), encoding="utf-8")
        out.append((bound, str(path), len(fam.blocks)))
    return out


def build_certify(seed: int, workdir: Path) -> list[list[Job]]:
    rng = random.Random(seed)
    strata = [_Strata.of(spec) for spec in STRATA_FAMILIES]
    violating = _violating_configs(rng, workdir)
    cycles = []
    for c in range(CERTIFY_CYCLES):
        jobs = []
        for kind, n in CERTIFY_TEMPLATE.items():
            for t in range(n):
                argv, expect, props = _certify_job(kind, t, rng, strata, violating)
                argv = argv + ["--quiet"]
                jobs.append(Job(f"c{c}.{kind}.{t}", kind, lambda argv=argv: _cli_call(argv),
                                _report_check(expect), props))
        rng.shuffle(jobs)
        cycles.append(jobs)
    return cycles


BUILDERS = {
    "closure-sweep": build_closure_sweep,
    "closure-bound": build_closure_bound,
    "certify": build_certify,
}
