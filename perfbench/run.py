#!/usr/bin/env python3
"""invsemi benchmark: one workload, one process, one client in a closed loop.

    python3 perfbench/run.py --workload closure-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src.  With
`--trace 0` the run reports the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it reports the per-layer metrics from a separate traced pass.
The last line of stdout is the result object; the line before it holds
the run's details (tail percentile, property shares, machine facts).
Exits 1 without a result if the package or an input cannot be loaded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
OUT = ROOT / "perfbench" / "out"

# Speed on a shared host moves between levels up to 1.4x apart and can
# stay at one level for minutes, so the raw wall time of the same code
# differs by up to 40 % between runs.  The loop therefore times a fixed
# reference computation of its own at most REF_EVERY seconds apart,
# between jobs and around every set-up child, and reports each time
# scaled to the reference speed: a job's wall seconds x REF_S / the mean
# of the samples just before and just after it, a set-up child's over the
# median sample of its set-up point.  Two references track two kinds
# of work.  `memory` gathers and deduplicates 4.7 MB of byte rows the way
# closure.compose_rows and unique_rows do; the heavy closures slow with
# it (a correlation of 0.65 over twelve alternating 4-5 s closure checks,
# against 0.01 for a cache-sized reference).  `interpreter` runs
# tuple-keyed dict updates and a sort, the kind of work of the CLI
# commands and of set-up.  REF_S is a fixed constant per reference, of
# the size of its samples on the host the bounds were set on, so scaled
# figures are of the same size as raw ones.  The raw figures stay in the
# detail line.
REF_EVERY = 0.5
REF_S = {"memory": 0.168, "interpreter": 0.0072}
REF_KIND = {"closure-sweep": "memory", "closure-bound": "memory", "certify": "interpreter"}
_REF_W = 18
_ref_rng = numpy.random.default_rng(0)
_REF_LEFT = numpy.array([_ref_rng.permutation(_REF_W) for _ in range(512)], dtype=numpy.int8)
_REF_RIGHT = _REF_LEFT[_ref_rng.permutation(512)]
_REF_RIGHT[:, ::3] = -1


def _memory_pass() -> None:
    idx = numpy.clip(_REF_RIGHT, 0, None)
    rows = numpy.where(_REF_RIGHT[None, :, :] >= 0, _REF_LEFT[:, idx], numpy.int8(-1))
    rows = numpy.ascontiguousarray(rows.reshape(-1, _REF_W))
    numpy.unique(rows.view(numpy.dtype((numpy.void, _REF_W))).ravel())


def _interpreter_pass() -> None:
    acc: dict = {}
    for i in range(16000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + i
    sorted(acc.items(), key=lambda kv: (kv[1], kv[0]))


def reference_s(kind: str) -> float:
    """Seconds of one `kind` sample: one `memory` pass, or the median of
    three of the shorter `interpreter` passes, which a spike would
    otherwise double."""
    passes = 1 if kind == "memory" else 3
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        (_memory_pass if kind == "memory" else _interpreter_pass)()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# setup_s is timed on fresh processes at SETUP_POINTS points spread over
# the run: before the jobs, after the jobs that cross each further
# fraction of --seconds, and after the last job.  Each point times
# SETUP_ROUNDS set-ups, one for each round.  A round's mean covers the
# whole run, and setup_s is the median of the round means.  Pure-Python
# speed on a shared host switches between two levels about 1.6x apart
# every few seconds, so the median of single set-ups would jump between
# the two levels from run to run.
SETUP_POINTS, SETUP_ROUNDS = 4, 3
# Traced passes run whole cycles, a fixed count per workload, so the
# per-layer counts repeat exactly for a seed.
TRACE_CYCLES = {"closure-sweep": 1, "closure-bound": 1, "certify": 8}


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["closure-sweep", "closure-bound", "certify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # internal: a child process that times set-up, or recounts a traced cycle
    ap.add_argument("--role", choices=["main", "setup", "recount"], default="main",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _build(args, workdir: Path):
    from workloads import BUILDERS

    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[args.workload](args.seed, workdir)


def _run_job(job) -> tuple[float, bool, str | None]:
    start = time.perf_counter()
    try:
        out = job.call()
    except Exception:  # a raising job is a failed job; the loop goes on
        return time.perf_counter() - start, False, traceback.format_exc(limit=3)
    wall = time.perf_counter() - start
    try:
        ok = bool(job.check(out))
    except Exception:
        return wall, False, traceback.format_exc(limit=3)
    return wall, ok, None if ok else "verdict differs from the expectation"


def _time_setup(args) -> float:
    """Seconds from process start until a fresh process has its inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--role", "setup"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
    return elapsed


def _tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ten jobs beyond it;
    the maximum when a run has ten jobs or fewer."""
    ordered = sorted(walls)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def _machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                       cpu)
    except OSError:
        cpu = platform.processor() or cpu
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": _commit(), "src_sha256": digest.hexdigest()}


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout; see src_sha256)"


def _emit(spec_key: str, values: dict[str, float], correct: bool, attempted: int,
          failed: int, detail: dict) -> None:
    metrics = {}
    for m in _spec()[spec_key]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


# -- untraced run ----------------------------------------------------


def run_untraced(args, cycles_built) -> None:
    ref_kind = REF_KIND[args.workload]
    refs: dict[str, list[float]] = {"memory": [], "interpreter": []}

    def scaled(kind: str, wall: float, before: int) -> float:
        """`wall` x REF_S over the mean of the `kind` samples just before
        (index `before`) and just after it."""
        return wall * REF_S[kind] / statistics.fmean(refs[kind][before:before + 2])

    raw_rounds: list[list[float]] = [[] for _ in range(SETUP_ROUNDS)]
    rounds: list[list[float]] = [[] for _ in range(SETUP_ROUNDS)]

    def time_setups() -> float:
        """One set-up per round, each scaled by the median `interpreter`
        sample of this point (one before each set-up, one after the last)."""
        begin = time.perf_counter()
        point = [reference_s("interpreter")]
        walls = []
        for _ in rounds:
            walls.append(_time_setup(args))
            point.append(reference_s("interpreter"))
        factor = REF_S["interpreter"] / statistics.median(point)
        for raw_samples, samples, wall in zip(raw_rounds, rounds, walls):
            raw_samples.append(wall)
            samples.append(wall * factor)
        refs["interpreter"].extend(point)
        return time.perf_counter() - begin

    time_setups()
    # warm-up: the last cycle's jobs under 1,000 elements, untimed, fill
    # numpy's and the program's lazy state
    for job in cycles_built[-1]:
        if job.props.get("elements", 0) < 1000:
            _run_job(job)
    marks = [args.seconds * k / (SETUP_POINTS - 1) for k in range(1, SETUP_POINTS - 1)]
    done = []  # (job, wall, ok, error, index of the reference sample before it)
    cycles = 0
    paused = 0.0  # set-up timing and reference passes, left out of the timed wall clock
    sampled = -REF_EVERY
    start = time.perf_counter()
    while True:
        for job in cycles_built[cycles % len(cycles_built)]:
            if time.perf_counter() - sampled >= REF_EVERY:
                begin = time.perf_counter()
                for k in dict.fromkeys((ref_kind, "interpreter")):
                    refs[k].append(reference_s(k))
                sampled = time.perf_counter()
                paused += sampled - begin
            done.append((job, *_run_job(job), len(refs[ref_kind]) - 1))
            if marks and time.perf_counter() - start - paused >= marks[0]:
                marks.pop(0)
                paused += time_setups()
        cycles += 1
        if time.perf_counter() - start - paused >= args.seconds:
            break
    elapsed = time.perf_counter() - start - paused
    refs[ref_kind].append(reference_s(ref_kind))
    for _ in range(len(marks) + 1):
        time_setups()
    raw_walls = [w for _, w, _, _, _ in done]
    walls = [scaled(ref_kind, w, before) for _, w, _, _, before in done]
    ok = sum(1 for _, _, good, _, _ in done if good)
    failed = len(done) - ok
    tail, pct = _tail(walls)
    jobs = [j for j, *_ in done]
    values = {
        "job_s.p50": statistics.median(walls),
        "job_s.tail": tail,
        "jobs_per_s": ok / sum(walls),
        "setup_s": statistics.median(statistics.fmean(r) for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "job_s.p50": statistics.median(raw_walls),
        "job_s.tail": _tail(raw_walls)[0],
        "jobs_per_s": ok / elapsed,
        "setup_s": statistics.median(statistics.fmean(r) for r in raw_rounds),
    }
    per_kind = {}
    for kind in sorted({j.kind for j in jobs}):
        kw = [w for j, w in zip(jobs, walls) if j.kind == kind]
        per_kind[kind] = {"jobs": len(kw), "p50_s": statistics.median(kw), "total_s": sum(kw)}
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": 0,
        "cycles": cycles, "cycles_reused": max(0, cycles - len(cycles_built)),
        "wall_s": elapsed, "samples": len(walls), "tail_percentile": pct,
        "failed_ratio": failed / len(done),
        "raw": raw,
        "reference_s": {k: {"passes": len(v), "p50": statistics.median(v), "min": min(v),
                            "max": max(v)} for k, v in refs.items() if v},
        "setup_rounds_s": rounds, "raw_setup_rounds_s": raw_rounds,
        "shares": _property_shares(args.workload, done),
        "per_kind": per_kind,
        "failures": [{"job": j.jid, "props": j.props, "error": e}
                     for j, _, good, e, _ in done if not good][:5],
        "machine": _machine(),
    }
    _emit("end_to_end", values, failed == 0, len(done), failed, detail)


def _property_shares(workload: str, done) -> dict:
    n = len(done)
    shares = {"kind": {}}
    for job, *_ in done:
        shares["kind"][job.kind] = shares["kind"].get(job.kind, 0) + 1 / n
    if workload != "certify":
        shares["elements_ge_1000"] = sum(1 for j, *_ in done if j.props["elements"] >= 1000) / n
        shares["sparse"] = sum(1 for j, *_ in done if j.props.get("sparse")) / n
    return shares


# -- traced run ----------------------------------------------------


def traced_pass(args, cycles: int, workdir: Path):
    """Set-up and `cycles` whole cycles; each job runs once untraced and once
    traced, alternating which goes first.  Returns the tracer and the list
    of (job, untraced wall, traced wall, ok)."""
    from tracer import Tracer

    __import__("invsemi.cli")  # load every module before looking for copies
    tracer = Tracer()
    tracer.install()
    try:
        cycles_built = _build(args, workdir)
    finally:
        tracer.uninstall()
    pairs = []
    for c in range(cycles):
        for k, job in enumerate(cycles_built[c % len(cycles_built)]):
            walls = {}
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    tracer.job = job.jid
                    tracer.install()
                try:
                    walls[traced] = _run_job(job)
                finally:
                    tracer.uninstall()
            pairs.append((job, walls[False][0], walls[True][0],
                          walls[False][1] and walls[True][1]))
    return tracer, pairs


def _recount(args) -> dict:
    """Exact counts of set-up and cycle 0 from a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--role", "recount"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_traced(args, workdir: Path) -> None:
    from tracer import aggregate, exact_counts

    tracer, pairs = traced_pass(args, TRACE_CYCLES[args.workload], workdir)
    values = aggregate(tracer.spans)
    untraced = sum(u for _, u, _, _ in pairs)
    values["trace.overhead_ratio"] = sum(t for _, _, t, _ in pairs) / untraced
    mine = exact_counts(tracer.spans)
    theirs = _recount(args)
    differing = sorted(job for job in theirs if mine.get(job) != theirs[job])
    failed = sum(1 for *_, ok in pairs if not ok)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    names = [m["name"] for m in _spec()["per_layer"]]
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text(encoding="utf-8"))
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": 1,
        "cycles": TRACE_CYCLES[args.workload], "jobs": len(pairs), "spans": len(tracer.spans),
        "untraced_s": untraced,
        "recount_jobs_compared": len(theirs), "recount_differs": differing[:10],
        "zero_metrics": [n for n in names if not values.get(n)],
        "should_move": {n: w[args.workload] for n, w in layers["layers"].items()
                        if args.workload in w},
        "crosscheck": _crosscheck(values),
        "machine": _machine(),
    }
    _emit("per_layer", {n: values.get(n, 0.0) for n in names},
          failed == 0 and not differing, len(pairs), failed, detail)


def _crosscheck(v: dict) -> dict:
    """The traced figures the baseline in ROADMAP.md quotes."""
    out = {}
    if v.get("closure.closure_of.s"):
        out["unique_rows_share_of_closure_of"] = (
            v["closure.closure_of.unique_rows.s"] / v["closure.closure_of.s"])
    if v.get("closure.check_closure_bound.s"):
        out["rows_closed_share_of_check_closure_bound"] = (
            v.get("closure.rows_closed_under_ops.s", 0.0) / v["closure.check_closure_bound.s"])
    if v.get("symbolic.sym_compose.calls"):
        out["sym_compose_us_per_call"] = (
            1e6 * v["symbolic.sym_compose.s"] / v["symbolic.sym_compose.calls"])
    return out


def main(argv=None) -> int:
    args = _args(argv)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.role == "setup":
            _build(args, workdir)
            print("ready", flush=True)
        elif args.role == "recount":
            from tracer import exact_counts

            tracer, _ = traced_pass(args, 1, workdir)
            print(json.dumps(exact_counts(tracer.spans)))
        elif args.trace:
            run_traced(args, workdir)
        else:
            run_untraced(args, _build(args, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
