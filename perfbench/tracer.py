"""Spans around the calls into each invsemi module, from outside the package.

`Tracer.install()` swaps each traced function for a wrapper: the module
attribute, every copy another invsemi module bound with `from .x import y`
(found by identity), and class attributes for methods and classmethods.
`uninstall()` puts the originals back.  Nothing under src/ is edited.

A span is `(name, start, end, parent, job, counts)`; spans stay in memory
and `dump()` writes them out once the run ends.  Work counts are read from
arguments and results at the same boundary, so they are exact.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter


def _compose_counts(args, out):
    left, right = args[0], args[1]
    products = len(left) * len(right)
    return {"products": products, "peak_bytes": products * right.shape[1]}


def _unique_counts(args, out):
    return {"rows_in": len(args[0]), "rows_out": len(out)}


def _closure_counts(args, out):
    return {
        "elements": out.size(),
        "rounds": len(out.frontier_sizes),
        "new": out.size() - len(args[0]),
    }


def _bound_counts(args, out):
    return {"products": out.products_checked}


def _factor_counts(args, out):
    return {"factors": len(out)}


# (span name, module, attribute path, counts hook).  The span name is the
# metric prefix: module and function, or module and method for the
# descriptor and family methods; PartialBijection.of keeps its class.
TARGETS = [
    ("closure.closure_of", "closure", "closure_of", _closure_counts),
    ("closure.unique_rows", "closure", "unique_rows", _unique_counts),
    ("closure.compose_rows", "closure", "compose_rows", _compose_counts),
    ("closure.invert_rows", "closure", "invert_rows", None),
    ("closure.encode_rows", "closure", "encode_rows", None),
    ("closure.decode_row", "closure", "decode_row", None),
    ("closure.structural_rows", "closure", "structural_rows", None),
    ("closure.compare_with_structural", "closure", "compare_with_structural", None),
    ("closure.rows_closed_under_ops", "closure", "rows_closed_under_ops", None),
    ("closure.check_closure_bound", "closure", "check_closure_bound", _bound_counts),
    ("closure.minimal_window", "closure", "minimal_window", None),
    ("pbij.PartialBijection.of", "pbij", "PartialBijection.of", None),
    ("catalog.random_uniform_family", "catalog", "random_uniform_family", None),
    ("catalog.violating_family", "catalog", "violating_family", None),
    ("descriptors.intersect", "descriptors", "SetDescriptor.intersect", None),
    ("descriptors.union", "descriptors", "SetDescriptor.union", None),
    ("descriptors.difference", "descriptors", "SetDescriptor.difference", None),
    ("descriptors.complement", "descriptors", "SetDescriptor.complement", None),
    ("descriptors.build", "descriptors", "SetDescriptor.build", None),
    ("descriptors.below", "descriptors", "SetDescriptor.below", None),
    ("families.intersection_size", "families", "BlockFamily.intersection_size", None),
    ("families.chain_capacity_matrix", "families", "chain_capacity_matrix", None),
    ("families.chain_capacity_by_enumeration", "families",
     "chain_capacity_by_enumeration", None),
    ("families.find_chain", "families", "find_chain", None),
    ("families.factorize", "families", "factorize", _factor_counts),
    ("families.verify_factorization", "families", "verify_factorization", None),
    ("symbolic.sym_compose", "symbolic", "sym_compose", None),
    ("symbolic.classify", "symbolic", "classify", None),
    ("symbolic.parse_sym", "symbolic", "parse_sym", None),
    ("symbolic.format_sym", "symbolic", "format_sym", None),
    ("topology.low_rank_open_members", "topology", "low_rank_open_members", None),
    ("topology.verify_rank_one_certificate", "topology",
     "verify_rank_one_certificate", None),
    ("topology.shared_identity_interior_probe", "topology",
     "shared_identity_interior_probe", None),
    ("topology.random_basic_open", "topology", "random_basic_open", None),
    ("topology.open_contains", "topology", "open_contains", None),
    ("constrained.ideal_escape_witness", "constrained", "ideal_escape_witness", None),
    ("cli.main", "cli", "main", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.job = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (name, start, perf_counter(), parent, self.job, None)
                raise
            finally:
                stack.pop()
            spans[sid] = (name, start, perf_counter(), parent, self.job,
                          hook(args, out) if hook else None)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items() if k == "invsemi" or k.startswith("invsemi.")]
        for name, modname, path, hook in TARGETS:
            owner = sys.modules[f"invsemi.{modname}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(name, raw.__func__, hook)))
                continue
            wrapped = self._wrap(name, raw, hook)
            if cls_path:
                self._set(owner, attr, wrapped)
                continue
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, key, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# Layers the benchmark calls while it draws its inputs; their metrics map
# to setup_s and are taken from the set-up spans.  Every other metric is
# taken from the jobs' spans only, so the benchmark's own input and
# expectation code does not count as the program's work.
SETUP_LAYERS = {"closure.minimal_window", "catalog.random_uniform_family",
                "catalog.violating_family"}


def _inside(spans, sid: int, ancestor: str) -> bool:
    parent = spans[sid][3]
    while parent >= 0 and spans[parent][0] != ancestor:
        parent = spans[parent][3]
    return parent >= 0


def aggregate(spans) -> dict[str, float]:
    """Per-layer figures from a list of spans.

    Gives `<span>.calls`, `.s` (inclusive busy seconds) and `.self_s`
    (minus direct children; spans of one thread nest, so children never
    overlap) for every span name, each work count summed as
    `<span>.<count>`, `closure.compose_rows.peak_bytes` as a maximum, and
    `closure.useful_ratio`: new elements found by `closure_of` over the
    products it composed.  A span counts when it belongs to a job, or to
    set-up for the SETUP_LAYERS.  `closure.closure_of.unique_rows.s` is
    the time of the `unique_rows` calls made inside `closure_of`.
    """
    out: dict[str, float] = defaultdict(float)
    child_s = defaultdict(float)
    for name, start, end, parent, _job, _counts in spans:
        if parent >= 0:
            child_s[parent] += end - start
    closure_products = 0
    for sid, (name, start, end, parent, job, counts) in enumerate(spans):
        if (job == "setup") != (name in SETUP_LAYERS):
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += end - start - child_s[sid]
        for key, value in (counts or {}).items():
            if key == "peak_bytes":
                out[f"{name}.{key}"] = max(out[f"{name}.{key}"], value)
            else:
                out[f"{name}.{key}"] += value
        if name == "closure.compose_rows" and counts and _inside(spans, sid, "closure.closure_of"):
            closure_products += counts["products"]
        if name == "closure.unique_rows" and _inside(spans, sid, "closure.closure_of"):
            out["closure.closure_of.unique_rows.s"] += end - start
    out["closure.elements"] = out["closure.closure_of.elements"]
    out["closure.rounds"] = out["closure.closure_of.rounds"]
    out["closure.useful_ratio"] = (
        out["closure.closure_of.new"] / closure_products if closure_products else 0.0
    )
    out["closure.rows_closed_under_ops.products"] = out["closure.check_closure_bound.products"]
    return dict(out)


def exact_counts(spans) -> dict[str, dict[str, int]]:
    """Call and work counts per job: what must repeat exactly for a seed."""
    per_job: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for name, _s, _e, _p, job, counts in spans:
        per_job[job][f"{name}.calls"] += 1
        for key, value in (counts or {}).items():
            per_job[job][f"{name}.{key}"] += value
    return {job: dict(c) for job, c in per_job.items()}
