"""Command line driver: report shape, exit codes, determinism."""

import contextlib
import dataclasses
import gc
import importlib.util
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import invsemi
from invsemi.catalog import named_family, random_uniform_family
from invsemi import cli
from invsemi.closure import (
    ClosureResult,
    StructuralDiff,
    closure_of,
    encode_rows,
    family_generators,
    minimal_window,
    unique_rows,
)
from invsemi.families import chain_capacity_by_enumeration, chain_capacity_matrix
from invsemi.cli import build_parser, main
from invsemi.errors import InvalidFamilyError, ParseError

from conftest import random_partial_injection, stratum_counts_by_maps
from test_families import CATALOG


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    # a human summary line precedes the JSON document
    lines = out.splitlines()
    starts = [i for i, l in enumerate(lines) if l.startswith("{")]
    if not starts:
        return code, out
    return code, json.loads("\n".join(lines[starts[0]:]))


def report_of(doc):
    assert doc["schema"] == 1
    assert "meta" in doc and "timestamp" in doc["meta"]
    return doc["report"]


def test_family_check(capsys):
    code, doc = run(capsys, "family-check", "--family", "five-ring")
    assert code == 0
    rep = report_of(doc)
    assert rep["almost_disjoint"] is True
    assert rep["max_overlap"] == 3
    assert len(rep["blocks"]) == 5
    assert rep["pairwise_overlaps"][0][1] == 3


def test_family_check_reads_json_configs(tmp_path, capsys):
    from invsemi.catalog import named_family

    code, doc = run(capsys, "family-check", "--family", "common-point:3")
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(named_family("common-point:3").to_config()))
    code2, doc2 = run(capsys, "family-check", "--family", str(path))
    assert code2 == 0
    assert report_of(doc2) == report_of(doc)


def test_catalog_names_win_over_stray_files(tmp_path, monkeypatch, capsys):
    # files named like catalog families do not shadow them; the same
    # file spelled as a path is read as a family config
    monkeypatch.chdir(tmp_path)
    bound2 = json.dumps(named_family("bound2").to_config())
    for name in ("five-ring", "common-point:3"):
        (tmp_path / name).write_text(bound2)
    code, doc = run(capsys, "family-check", "--family", "five-ring")
    assert code == 0 and report_of(doc)["max_overlap"] == 3
    assert len(report_of(doc)["blocks"]) == 5
    code, doc = run(capsys, "family-check", "--family", "common-point:3")
    assert code == 0 and len(report_of(doc)["blocks"]) == 3
    code, doc = run(capsys, "family-check", "--family", "./five-ring")
    assert code == 0 and report_of(doc)["max_overlap"] == 2
    assert main(["family-check", "--family", "no-such"]) == 1
    assert "unknown family 'no-such'" in capsys.readouterr().err


def test_closure_run_matches_structure(capsys):
    code, doc = run(
        capsys,
        "closure",
        "run",
        "--family",
        "common-point:3",
        "--window",
        "8",
        "--compare",
    )
    assert code == 0
    rep = report_of(doc)
    assert rep["elements"] == 193
    assert rep["closed"] is True
    assert rep["diff"]["matches"] is True
    counts = rep["stratum_counts"]
    assert counts["group[0]"] == 120
    assert counts["empty"] == 1
    assert counts["rank1[0,1]"] == 10
    assert sum(counts.values()) == 193


def test_stratum_counts_match_the_map_route():
    # sparse closures of the catalog and of random families, alone, with
    # random partial injections mixed in (many lie in no stratum) and
    # stopped before any element
    rng = random.Random(20261023)
    fams = [(fam, 16) for fam in CATALOG]
    fams += [random_uniform_family(rng)[::2] for _ in range(6)]
    kinds = set()
    for fam, top in fams:
        window = max(
            w for w in range(1, top + 1) if all(len(blk.below(w)) <= 4 for blk in fam.blocks)
        )
        gens = family_generators(fam, window, sparse=True)
        result = closure_of(gens)
        noise = encode_rows([random_partial_injection(rng, window) for _ in range(20)], window)
        mixed = ClosureResult(
            unique_rows(np.concatenate([result.rows, noise])), (), 0, True, window)
        for res in (result, mixed, closure_of(gens, 0)):
            got = cli._stratum_counts(res, fam)
            assert got == stratum_counts_by_maps(res, fam), (fam.name, window)
            kinds |= {key.partition("[")[0] for key in got}
    assert kinds == {"empty", "group", "other", "rank1", "rank2", "rank3"}


def test_closure_run_budget_flag(capsys):
    code, doc = run(
        capsys, "closure", "run", "--family", "disjoint:2", "--window", "8",
        "--max", "10",
    )
    assert code == 0
    assert report_of(doc)["closed"] is False


def test_closure_run_budget_below_the_generators(capsys):
    # disjoint:2 at window 6 has 7 maps in A u A^-1, more than a budget of 0
    code, doc = run(
        capsys, "closure", "run", "--family", "disjoint:2", "--window", "6", "--max", "0",
    )
    rep = report_of(doc)
    assert code == 0 and rep["generators"] == 7
    assert (rep["closed"], rep["elements"], rep["rounds"], rep["frontier_sizes"]) == (
        False, 0, 0, [])


def test_chains_with_oracle_check(capsys):
    code, doc = run(capsys, "chains", "--family", "five-ring", "--check")
    assert code == 0
    rep = report_of(doc)
    assert rep["capacity"] == [
        [3, 3, 2, 2, 2],
        [3, 3, 2, 2, 2],
        [2, 2, 3, 3, 2],
        [2, 2, 3, 3, 2],
        [2, 2, 2, 2, 2],
    ]
    assert rep["oracle_agrees"] is True
    assert all(c["verified"] for c in rep["certificates"])


def test_chains_max_interior_is_validated_and_recorded(capsys):
    # --max-interior is gone: the walk oracle always walks up to one more
    # interior block than the family has, and a shorter bound reported a
    # false disagreement. Every value is now a usage error, and the
    # --check report records no bound.
    for value in ("0", "-3", "1", "3"):
        code = main(["chains", "--family", "five-ring", "--check",
                     "--max-interior", value])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "", value
        assert f"unrecognized arguments: --max-interior {value}" in captured.err
    code, doc = run(capsys, "chains", "--family", "five-ring", "--check")
    assert code == 0 and report_of(doc)["oracle_agrees"] is True
    assert "max_interior" not in doc["config"]


def test_chains_max_interior_needs_check(capsys):
    # without --check the removed flag is the same usage error; there is no
    # longer a separate --check guard
    code = main(["chains", "--family", "five-ring", "--max-interior", "3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "unrecognized arguments: --max-interior 3" in captured.err
    assert "--check" not in captured.err


def test_chains_at_capacity_zero(capsys):
    # disjoint blocks share no point: every chain has m = 0 and needs one
    # interior block, j itself off the diagonal and another block on it
    code, doc = run(capsys, "chains", "--family", "disjoint:3", "--check")
    rep = report_of(doc)
    assert code == 0
    assert rep["capacity"] == [[0] * 3] * 3 and rep["oracle_agrees"] is True
    certs = rep["certificates"]
    assert len(certs) == 9 and all(c["m"] == 0 and c["verified"] for c in certs)
    interiors = {(c["i"], c["j"]): c["interior"] for c in certs}
    assert [interiors[k, k] for k in range(3)] == [[1], [0], [0]]
    assert all(interiors[i, j] == [j] for i in range(3) for j in range(3) if i != j)


def test_chains_csv_export(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code, _ = run(
        capsys, "chains", "--family", "unequal", "--csv", str(out)
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4  # header plus one row per block
    assert lines[1].split(",")[1:] == ["2", "2", "1"]


def test_stratify(capsys):
    code, doc = run(
        capsys, "stratify", "--family", "common-point:3", "--element", "fin(5->6)"
    )
    assert code == 0
    rep = report_of(doc)
    assert rep["kind"] == "finite"
    assert rep["stratum"] == {"i": 0, "j": 1, "rank": 1}
    assert rep["generated"] is True


def test_factorize_recomposes(capsys):
    code, doc = run(
        capsys,
        "factorize",
        "--family",
        "common-point:3",
        "--element",
        "fin(5->6)",
    )
    assert code == 0
    rep = report_of(doc)
    assert rep["recomposes"] is True
    assert len(rep["factors"]) >= 1


def test_factorize_refuses_ungenerated(capsys):
    code, doc = run(
        capsys, "factorize", "--family", "disjoint:3", "--element", "fin(1->2)"
    )
    assert code == 2
    assert report_of(doc)["generated"] is False


@pytest.mark.parametrize("element, message", [
    ("fin(1->2, 1->3)", "repeated source in pair list"),
    ("fin(1->2, 3->2)", "repeated target in pair list"),
    ("perm(B0; 1->2)", "pair list does not permute its support"),
    ("perm(B0; 1->2, 2->1)", "permutation point outside the block"),
    ("perm(B0 1->2)", "perm literal needs ';' between carrier and pairs"),
    ("id(B9)", "family has no block B9"),
    ("idplus(tail mod 2 residues [0]; 2->5)", "source 2 already in the identity base"),
    ("idplus(tail mod 2 residues [0]; 1->4)", "target 4 lands in the identity base"),
], ids=["repeated-source", "repeated-target", "not-a-permutation", "outside-the-block",
        "no-semicolon", "no-such-block", "source-in-base", "target-in-base"])
@pytest.mark.parametrize("command", ["stratify", "factorize"])
def test_bad_element_literals_exit_one(command, element, message, capsys):
    assert main([command, "--family", "common-point:3", "--element", element]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_permutation_of_a_block_outside_the_family(capsys):
    element = "perm(tail mod 2 residues [0]; 0->2, 2->0)"
    code, doc = run(capsys, "stratify", "--family", "five-ring", "--element", element)
    rep = report_of(doc)
    assert code == 0 and rep["kind"] == "outside" and rep["generated"] is False
    code, doc = run(capsys, "factorize", "--family", "five-ring", "--element", element)
    assert code == 2 and report_of(doc)["generated"] is False


def test_verify_closure_bound_within(capsys):
    code, doc = run(
        capsys, "verify", "closure-bound", "--family", "bound2", "--bound", "2"
    )
    assert code == 0
    rep = report_of(doc)
    assert rep["within_bound"] is True and rep["union_closed"] is True
    assert rep["verdict_ok"] is True


def test_verify_closure_bound_violated(capsys):
    code, doc = run(
        capsys, "verify", "closure-bound", "--family", "bound2", "--bound", "1"
    )
    assert code == 0  # the violation verdict is itself verified
    rep = report_of(doc)
    assert rep["within_bound"] is False
    assert rep["witness"]["rank"] == 2
    assert rep["witness"]["left"] == "id(B1)"
    assert rep["bad_pair"] == [0, 1]
    assert rep["verdict_ok"] is True


def test_verify_ideal_witness(capsys):
    code, doc = run(
        capsys, "verify", "ideal-witness", "--trials", "5", "--seed", "3"
    )
    assert code == 0
    rep = report_of(doc)
    assert rep["all_hold"] is True
    assert len(rep["trials"]) == 5
    for t in rep["trials"]:
        assert t["holds"] and all(t["clauses"].values())
        assert "domain-complement-outside-original" in t["clauses"]


def test_verify_ideal_witness_empty_ideal(capsys):
    code, doc = run(
        capsys,
        "verify",
        "ideal-witness",
        "--ideal",
        "empty",
        "--trials",
        "4",
        "--seed",
        "3",
    )
    assert code == 0
    assert report_of(doc)["all_hold"] is True


@pytest.mark.parametrize("pivot", ["all", "finite {1,2}"])
def test_ideal_witness_pivot_errors_are_usage_errors(pivot, capsys):
    # the finite ideal holds the complement of `all` and the finite pivot
    # itself; the pivot is checked before the first trial, so a run of
    # no trials rejects it too
    for trials in ("0", "3"):
        code = main(["verify", "ideal-witness", "--pivot", pivot,
                     "--trials", trials, "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "--pivot" in captured.err and "already belongs to the ideal" in captured.err
    args = build_parser().parse_args(["verify", "ideal-witness", "--pivot", pivot,
                                      "--trials", "0", "--seed", "1"])
    with pytest.raises(ParseError):
        args.func(args)
    # the empty ideal holds neither side, so it takes the same pivot
    code, doc = run(capsys, "verify", "ideal-witness", "--ideal", "empty",
                    "--pivot", pivot, "--trials", "3", "--seed", "1")
    assert code == 0 and report_of(doc)["all_hold"] is True


@pytest.mark.parametrize("argv", [
    ["verify", "ideal-witness", "--trials", "-5", "--seed", "1"],
    ["verify", "ideal-witness", "--ideal", "empty", "--trials", "-1", "--seed", "1"],
    ["verify", "pettis-witness", "--trials", "-3", "--seed", "1"],
])
def test_negative_trials_are_usage_errors(argv, capsys):
    # a negative count would otherwise report all_hold / all_ok over no opens
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "argument --trials: trials must be at least 0" in captured.err


def _report_digests_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "report_digests.py"
    spec = importlib.util.spec_from_file_location("report_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# SHA-256 of each README report without `meta`, in README order, as
# scripts/report_digests.py prints it; every command exits 0
README_REPORT_DIGESTS = {
    "family-check --family five-ring":
        "f499477f28dd870b9e81e84fffed44d485455bb38f5b6661411894cfb87681fe",
    "family-check --family common-point:3 --csv overlaps.csv":
        "8aef46dee006081886efec49957fbea1c4a5a0b613dbf52b8469e86b16c668cc",
    "closure run --family common-point:3 --window 8 --compare":
        "312245c1a856badc8abdaa688fa078cbe681d304fa90e51b36ae8534971db0c1",
    "closure run --family disjoint:2 --window 6 --max 5000":
        "d0939b2f5d678a687bc2f86ae2a79bdd3bb701456339a982b5fd03aa38370c2d",
    "chains --family five-ring --check":
        "eaebe9fdf7753f03fc8b472bd4bb7dcda15c5c5f231ba0b077f7ee8b84fe7d54",
    "chains --family five-ring --csv capacity.csv":
        "100550918993315473872cf20a2d046995437889062b6355e66bf08e4a95d6e7",
    'stratify --family common-point:3 --element "fin(5->6)"':
        "58fa18742886f96ea66c71866a4b2151062b0887300edc387f561c4664c08701",
    'factorize --family common-point:3 --element "fin(5->6)"':
        "e8d3373a9220bc42177e1c5f2de53d8c1e4f8fe3d870f1cfb2bd80b385b02921",
    "verify closure-bound --family bound2 --bound 2":
        "aef5ccf4a169a07357a62835dbb20cb75526053762440fb610094b6557755fb9",
    "verify closure-bound --family bound2 --bound 1":
        "0a12327446169a14d3c87baf9045fda479ada5d8f8577f965bbb7f2737833678",
    "verify ideal-witness --trials 50 --seed 7":
        "cc1862b5180d7e06f0af9f6535156cd60212ee1cf4d64968fb2b8a3d328a607f",
    "verify ideal-witness --ideal empty --trials 50 --seed 7":
        "ca299624815df4bcbcac7760a682e26d14876cf3582f255c507dc3cde9d07608",
    "verify pettis-witness --trials 100 --seed 7 --windows 12,20,28":
        "5f988ce70c8afc8468fffd09293a2085b4151f04dcfdd35d876e1b1ec9fb135b",
}
README_WITNESS_DIGESTS = {command: digest for command, digest in README_REPORT_DIGESTS.items()
                          if "-witness" in command}


def test_every_readme_report_is_pinned():
    # the script runs the commands in a temporary directory, so their
    # --csv and --out files stay out of the tree
    script = _report_digests_script()
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert script.digest_pass(script.readme_commands(readme)) == [
        f"0 {digest} invsemi {command}" for command, digest in README_REPORT_DIGESTS.items()]


@pytest.mark.parametrize("command", sorted(README_WITNESS_DIGESTS))
def test_readme_witness_reports_are_pinned(command, capsys):
    script = _report_digests_script()
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert f"invsemi {command}" in script.readme_commands(readme)
    code = main(command.split())
    assert code == 0
    assert script.report_digest(capsys.readouterr().out) == README_WITNESS_DIGESTS[command]


# bound2's closures at its minimal window 22, past KEY_WINDOW, which no
# README command reaches: (report SHA-256 without `meta`, elements, closed)
WIDE_CLOSURE_REPORTS = {
    "closure run --family bound2 --sparse --compare":
        ("8e87690865d5ab11c381173311d16082a65be1d5613d0c203bb7ffad4496cf46", 3223, True),
    "closure run --family bound2 --sparse --max 1000":
        ("5ad5b68b61ab6e6118b8f68644c888e88c1d6e366b9f34fc59c773a2b1239699", 726, False),
    "closure run --family bound2 --max 2000":
        ("8f2209ba1eaac3213cc6e5a45f91b3efc82975f8c32de6145ad38f81823ca8f4", 1890, False),
}


@pytest.mark.parametrize("command", sorted(WIDE_CLOSURE_REPORTS))
def test_wide_window_closure_reports_are_pinned(command, capsys):
    digest, elements, closed = WIDE_CLOSURE_REPORTS[command]
    code = main(command.split())
    out = capsys.readouterr().out
    rep = report_of(json.loads(out[out.index("\n{") + 1:]))
    assert code == 0
    assert (rep["window"], rep["elements"], rep["closed"]) == (22, elements, closed)
    assert _report_digests_script().report_digest(out) == digest


def _readme_commands():
    script = _report_digests_script()
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return script.readme_commands(readme)


def _quiet_report(command: str) -> str:
    """The printed report of one README command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(shlex.split(command)[1:] + ["--quiet"]) == 0, command
    return buf.getvalue()


def test_report_writer_matches_json_dumps_on_readme_reports(tmp_path, monkeypatch):
    # the printed report is json.dumps(sort_keys=True, indent=2) of the
    # document it holds, byte for byte
    monkeypatch.chdir(tmp_path)
    for command in _readme_commands():
        text = _quiet_report(command)
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n", command
        assert cli._report_text(doc) == text[:-1], command


def _random_document(rng, depth=0):
    r = rng.random()
    if depth > 3 or r < 0.45:
        return rng.choice([
            rng.randint(-10**20, 10**20),
            rng.random() * 10.0 ** rng.randint(-12, 12),
            rng.choice([0.0, -0.0, 1e-7, 1e16, math.inf, -math.inf, math.nan]),
            None, True, False,
            "".join(chr(rng.choice([rng.randint(0, 127), rng.randint(128, 0x10FFFF)]))
                    for _ in range(rng.randint(0, 6))),
        ])
    if r < 0.75:
        items = [_random_document(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return tuple(items) if rng.random() < 0.2 else items
    return {"".join(chr(rng.randint(0, 0x3000)) for _ in range(rng.randint(0, 4))):
            _random_document(rng, depth + 1) for _ in range(rng.randint(0, 4))}


def test_report_writer_matches_json_dumps_on_nested_documents():
    rng = random.Random(20261019)
    docs = [{}, [], (), {"": {}}, [[], {}], "\"\\\n\t\x01\u2028é\U0001F600", -0.0]
    docs += [_random_document(rng) for _ in range(1500)]
    for doc in docs:
        assert cli._report_text(doc) == json.dumps(doc, sort_keys=True, indent=2), doc


@pytest.mark.parametrize("doc", [{1: 2}, {"a": {None: 1}}, [{"a": 1, 2: 3}], {"a": {3}},
                                 [object()]])
def test_report_writer_rejects_what_a_report_cannot_hold(doc):
    with pytest.raises(TypeError):
        cli._report_text(doc)


def test_readme_commands_leave_no_cyclic_garbage(tmp_path, monkeypatch):
    # every report is freed by reference counting: with the collector
    # off, a collection after each command finds nothing
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    for command in commands:  # first calls fill the memos and the parser
        _quiet_report(command)
    left = {}
    gc.collect()
    gc.disable()
    try:
        for command in commands:
            _quiet_report(command)
            left[command] = gc.collect()
    finally:
        gc.enable()
    assert set(left.values()) == {0}, left


def test_chain_walk_oracle_leaves_no_cyclic_garbage():
    # the walk recurses through its own closure cell, which the oracle
    # empties before it returns
    fam = named_family("five-ring")
    gc.collect()
    gc.disable()
    try:
        chain_capacity_by_enumeration(fam)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_verify_pettis_witness(capsys):
    code, doc = run(
        capsys,
        "verify",
        "pettis-witness",
        "--trials",
        "10",
        "--seed",
        "7",
        "--windows",
        "12",
    )
    assert code == 0
    rep = report_of(doc)
    assert rep["product_is_shared_identity"] is True
    assert rep["interior_probe"]["all_escaped"] is True
    assert rep["all_ok"] is True
    for cert in rep["isolation_certificates"]:
        assert cert["ok"] is True


def test_pettis_windows_must_hold_the_certified_pairs(capsys):
    # the certified pairs (1,0), (0,1), (1,2) need every window above 2
    for bad in ("1", "2", "0", "-4", "12,2"):
        code, out = run(capsys, "verify", "pettis-witness", "--trials", "2",
                        "--seed", "7", "--windows", bad)
        assert code == 1 and out == "", bad
    code, doc = run(capsys, "verify", "pettis-witness", "--trials", "2",
                    "--seed", "7", "--windows", "3")
    assert code == 0 and report_of(doc)["all_ok"] is True


def test_reports_are_deterministic(capsys):
    argv = ["verify", "ideal-witness", "--trials", "6", "--seed", "11"]
    _, doc1 = run(capsys, *argv)
    _, doc2 = run(capsys, *argv)
    doc1.pop("meta")
    doc2.pop("meta")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def test_out_flag_writes_the_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(
        ["family-check", "--family", "bound2", "--out", str(path), "--quiet"]
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["schema"] == 1
    assert doc["report"]["max_overlap"] == 2


def test_shared_options_before_the_subcommand_are_usage_errors(tmp_path, monkeypatch, capsys):
    # --out, --quiet and --trace belong to each subcommand; before it they
    # once parsed and were then overwritten, so no file was written
    monkeypatch.chdir(tmp_path)
    for option in (["--out", "r.json"], ["--quiet"], ["--trace"]):
        assert main(option + ["family-check", "--family", "bound2"]) == 1, option
        captured = capsys.readouterr()
        assert captured.out == "" and "usage: invsemi" in captured.err, option
    assert list(tmp_path.iterdir()) == []
    assert main(["family-check", "--family", "bound2", "--out", "F", "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads((tmp_path / "F").read_text())["report"]["max_overlap"] == 2


def test_pettis_witness_accepts_the_common_point_rule_only(capsys):
    # --family is gone: the witness lives in the common-point rule's
    # semigroup, which topology.py fixes, and every accepted spelling gave
    # the same report. Every value is now a usage error, and the config
    # still names the rule.
    argv = ["verify", "pettis-witness", "--trials", "5", "--seed", "7"]
    for spec in ("common-point", "common-point-dyadic", "common-point:4", "disjoint",
                 "five-ring"):
        assert main(argv + ["--family", spec]) == 1, spec
        captured = capsys.readouterr()
        assert captured.out == "", spec
        assert f"unrecognized arguments: --family {spec}" in captured.err
    code, doc = run(capsys, *argv)
    assert code == 0 and report_of(doc)["all_ok"] is True
    assert doc["config"] == {"family": "common-point", "seed": 7, "trials": 5,
                             "windows": "12,20,28"}


def _replace_result(monkeypatch, name, **changes):
    """Stub the CLI's `name` with one whose result has `changes`."""
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name,
                        lambda *a, **k: dataclasses.replace(real(*a, **k), **changes))


# a failed verdict of each command that can exit 2: (argv, stub, the
# report field that fails, read as a key path)
FAILED_VERDICTS = {
    "chains": (
        ["chains", "--family", "five-ring", "--check"],
        lambda mp: mp.setattr(cli, "chain_capacity_by_enumeration",
                              lambda fam: [[0] * len(fam)] * len(fam)),
        ("oracle_agrees",)),
    "factorize": (
        ["factorize", "--family", "disjoint:3", "--element", "fin(1->2)"], None,
        ("generated",)),
    "closure run": (
        ["closure", "run", "--family", "disjoint:2", "--sparse", "--compare"],
        lambda mp: mp.setattr(cli, "compare_with_structural",
                              lambda result, fam: StructuralDiff(
                                  False, (), (), result.size(), result.size() + 1)),
        ("diff", "matches")),
    "verify closure-bound": (
        ["verify", "closure-bound", "--family", "bound2", "--bound", "2"],
        lambda mp: _replace_result(mp, "check_closure_bound", closed=False),
        ("verdict_ok",)),
    "verify ideal-witness": (
        ["verify", "ideal-witness", "--trials", "3", "--seed", "1"],
        lambda mp: _replace_result(mp, "ideal_escape_witness", holds=False),
        ("all_hold",)),
    "verify pettis-witness": (
        ["verify", "pettis-witness", "--trials", "3", "--seed", "7"],
        lambda mp: _replace_result(mp, "verify_rank_one_certificate", ok=False),
        ("all_ok",)),
}


@pytest.mark.parametrize("command", sorted(FAILED_VERDICTS))
def test_failed_verdicts_exit_two_through_out(command, tmp_path, monkeypatch, capsys):
    argv, stub, field = FAILED_VERDICTS[command]
    if stub:
        stub(monkeypatch)

    def failing(doc):
        value = doc["report"]
        for key in field:
            value = value[key]
        return value

    path = tmp_path / "report.json"
    assert main(argv + ["--out", str(path), "--quiet"]) == 2
    assert capsys.readouterr().out == ""
    doc = json.loads(path.read_text())
    assert doc["command"] == command and failing(doc) is False
    # the summary line comes first, then the report or where it went
    assert main(argv + ["--out", str(path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1] == f"report written to {path}"
    assert main(argv) == 2
    summary, report = capsys.readouterr().out.split("\n", 1)
    assert summary and not summary.startswith("{") and report.startswith("{")
    printed = json.loads(report)
    assert failing(printed) is False
    assert printed["report"] == doc["report"] and printed["config"] == doc["config"]


def test_commands_return_their_outcome_and_print_nothing(capsys):
    # main alone prints the summary and the report
    args = build_parser().parse_args(["family-check", "--family", "bound2"])
    config, report, summary, ok = args.func(args)
    assert capsys.readouterr().out == ""
    assert config == {"family": "bound2"} and report["max_overlap"] == 2 and ok is True
    assert summary == "two-point-overlap: 2 blocks, max overlap 2, uniform overlap 2"


def test_usage_errors_exit_one(capsys):
    assert main(["verify", "ideal-witness", "--trials", "2"]) != 0  # no seed
    capsys.readouterr()
    assert main(["family-check", "--family", "no-such"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert main(["factorize", "--family", "bound2", "--element", "fin(1->"]) == 1
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_bad_family_config_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"blocks": [
        {"modulus": 2, "residues": [0]},
        {"modulus": 4, "residues": [0]},
    ]}))
    assert main(["family-check", "--family", str(path)]) == 1
    capsys.readouterr()
    # a file that is JSON but no family config is bad input too
    for doc in ([1, 2], {"name": "no blocks"}, {"blocks": "B0"}):
        path.write_text(json.dumps(doc))
        assert main(["family-check", "--family", str(path)]) == 1
        assert "blocks" in capsys.readouterr().err


def test_family_files_with_boolean_points_exit_one(tmp_path, capsys):
    # JSON true and false are Python ints; read as points they gave a
    # block `from_text` cannot read back, or the naturals for mod true
    path = tmp_path / "bools.json"
    second = {"tail": {"mod": 2, "residues": [1]}}
    for first in ({"tail": {"mod": 2, "residues": [0]}, "finite": [True]},
                  {"tail": {"mod": True, "residues": [False]}}):
        path.write_text(json.dumps({"blocks": [first, second]}))
        assert main(["family-check", "--family", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err


def test_moduli_past_the_descriptor_budget_exit_one(tmp_path, capsys):
    # disjoint:N has a block of modulus 2^N, past the budget from N = 17;
    # each run is refused before any period search or residue mask
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"blocks": [{"tail": {"mod": 1 << 17, "residues": [1]}},
                                           {"tail": {"mod": 2, "residues": [0]}}]}))
    for argv in (["family-check", "--family", "disjoint:17"],
                 ["family-check", "--family", str(path)],
                 ["verify", "ideal-witness", "--seed", "1", "--trials", "1",
                  "--pivot", "tail mod 131072 residues [0]"]):
        started = time.monotonic()
        assert main(argv) == 1
        assert time.monotonic() - started < 5, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "tail modulus 131072 exceeds the limit 65536" in captured.err
    # at the budget the complement's residue listing is linear in the
    # modulus; with a tuple scan per residue one trial ran past 30 s
    started = time.monotonic()
    code, doc = run(capsys, "verify", "ideal-witness", "--seed", "1", "--trials", "5",
                    "--pivot", "tail mod 65536 residues [0]")
    assert code == 0 and report_of(doc)["all_hold"] is True
    assert time.monotonic() - started < 10
    code, doc = run(capsys, "family-check", "--family", "disjoint:16")
    assert code == 0 and len(report_of(doc)["blocks"]) == 16


def test_misspelt_family_file_exits_one(tmp_path, capsys):
    # the misspelt key once read as a family with an empty name
    path = tmp_path / "misspelt.json"
    path.write_text(json.dumps(dict(named_family("bound2").to_config(), nmae="x")))
    assert main(["family-check", "--family", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown family config keys: ['nmae']" in captured.err


def test_bad_inputs_exit_one(capsys):
    # each of these once surfaced as a bare ValueError or ZeroDivisionError
    for argv in (
        ["family-check", "--family", "common-point:1"],
        ["family-check", "--family", "common-point:x"],
        ["verify", "closure-bound", "--family", "bound2", "--bound", "2", "--window", "0"],
        ["closure", "run", "--family", "disjoint:2", "--window", "-1"],
        ["closure", "run", "--family", "disjoint:2", "--max", "-1"],
        ["verify", "pettis-witness", "--trials", "2", "--seed", "7", "--windows", "a,b"],
        ["verify", "pettis-witness", "--trials", "2", "--seed", "7", "--family", "disjoint"],
        ["verify", "ideal-witness", "--trials", "2", "--seed", "1",
         "--pivot", "tail mod 0 residues [0]"],
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "error" in captured.err, argv
    # a negative rank bound once certified a false escape of the empty map
    assert main(["verify", "closure-bound", "--family", "disjoint:2", "--bound", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "argument --bound: bound must be at least 0" in captured.err


def test_closure_bound_window_below_the_family_exits_one(capsys):
    # window 3 once reported bound2's union closed after 4 products,
    # with the overlap points 16 and 17 outside the window
    assert main(["verify", "closure-bound", "--family", "bound2", "--bound", "2",
                 "--window", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "window 3" in captured.err and "window 22" in captured.err


def test_closure_run_mismatch_below_the_minimal_window_exits_one(capsys):
    # at window 5 bound2's closure has 3 maps and the prediction 5: the
    # prediction routes through waypoints below the minimal window of 22,
    # so the mismatch is no structural failure
    assert main(["closure", "run", "--family", "bound2", "--window", "5", "--compare"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "window 5" in captured.err and "window 22" in captured.err
    code, doc = run(capsys, "closure", "run", "--family", "bound2", "--compare")
    rep = report_of(doc)
    assert code == 0 and rep["window"] == 22 and rep["diff"]["matches"] is True
    # a match below the minimal window (21 for common-point:3) stays a match
    assert minimal_window(named_family("common-point:3"),
                          chain_capacity_matrix(named_family("common-point:3"))) == 21
    code, doc = run(capsys, "closure", "run", "--family", "common-point:3", "--window", "8",
                    "--compare")
    assert code == 0 and report_of(doc)["diff"]["matches"] is True


def test_closure_run_mismatch_at_the_minimal_window_exits_two(monkeypatch, capsys):
    # from the minimal window up, a mismatch is a structural failure
    monkeypatch.setattr(cli, "compare_with_structural",
                        lambda result, fam: StructuralDiff(
                            False, (), (), result.size(), result.size() + 1))
    code, doc = run(capsys, "closure", "run", "--family", "disjoint:2", "--sparse",
                    "--compare")
    assert code == 2 and report_of(doc)["diff"]["matches"] is False


def test_closure_run_mismatch_of_a_stopped_closure_exits_one(capsys):
    # --max 10 stops disjoint:2 at window 8 before its 27 maps are found:
    # the predicted maps it lacks may lie past the budget, so the mismatch
    # is no counterexample
    command = "closure run --family disjoint:2 --window 8 --max 10 --compare"
    assert main(command.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--max 10" in captured.err
    code, doc = run(capsys, "closure", "run", "--family", "disjoint:2", "--window", "8",
                    "--compare")
    rep = report_of(doc)
    assert code == 0 and rep["closed"] is True and rep["diff"]["matches"] is True
    assert rep["elements"] == rep["diff"]["structural_size"] == 27
    # README's budgeted line has no --compare, closes within its budget and
    # keeps its report
    command = "closure run --family disjoint:2 --window 6 --max 5000"
    assert main(command.split()) == 0
    digest = _report_digests_script().report_digest(capsys.readouterr().out)
    assert digest == README_REPORT_DIGESTS[command]


def test_closure_run_builds_the_capacity_matrix_only_for_the_minimal_window(
        monkeypatch, capsys):
    # only `minimal_window` reads the matrix: closure run builds it when
    # --window is absent, or to check a --compare mismatch against the
    # least window; the pinned digests show that no report changes
    calls = []
    real = cli.chain_capacity_matrix
    monkeypatch.setattr(cli, "chain_capacity_matrix",
                        lambda fam: calls.append(fam) or real(fam))
    digest = _report_digests_script().report_digest
    reports = {
        "closure run --family five-ring --window 12":
            "d103e939f014e14096da1641541dfe224989f10c86e43d296734e328204b715f",
        "closure run --family common-point:3 --window 8 --compare":
            README_REPORT_DIGESTS["closure run --family common-point:3 --window 8 --compare"],
        "closure run --family disjoint:2 --sparse":
            "17833681f812dfd88bc9f8c118273944a5a81689186f9a792187b73e08030765",
    }
    for command, want in reports.items():
        assert main(command.split()) == 0
        assert digest(capsys.readouterr().out) == want, command
    assert len(calls) == 1  # the run without --window
    assert main(["closure", "run", "--family", "bound2", "--window", "5", "--compare"]) == 1
    assert "window 22" in capsys.readouterr().err
    assert len(calls) == 2


def test_python_dash_m_invsemi_runs_the_command_line():
    src = str(Path(invsemi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "invsemi", "family-check", "--family",
                          "five-ring", "--quiet"], capture_output=True, text=True, env=env,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert _report_digests_script().report_digest(out.stdout) == (
        README_REPORT_DIGESTS["family-check --family five-ring"])
    bad = subprocess.run([sys.executable, "-m", "invsemi", "family-check", "--family", "no-such"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert bad.returncode == 1 and "unknown family" in bad.stderr


@pytest.mark.parametrize("argv, verdict", [
    (["closure", "run", "--family", "disjoint:2", "--window", "6"], 0),
    (["factorize", "--family", "disjoint:2", "--element", "fin(1->2)"], 2),
], ids=["closure_run", "factorize"])
def test_closed_stdout_keeps_the_verdict_exit_code(argv, verdict):
    # the read end closes before the child starts, so every write to its
    # stdout fails with a broken pipe
    env = dict(os.environ, PYTHONPATH=str(Path(invsemi.__file__).resolve().parent.parent))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-m", "invsemi", *argv], stdout=write_end,
                             stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (verdict, "")


def test_internal_value_errors_are_not_usage_errors(monkeypatch, capsys):
    # only package errors, IO and JSON problems are usage errors; a
    # ValueError from inside a command is a bug and must surface
    def broken(*args, **kwargs):
        raise ValueError("internal invariant")

    monkeypatch.setattr(cli, "check_closure_bound", broken)
    with pytest.raises(ValueError, match="internal invariant"):
        main(["verify", "closure-bound", "--family", "bound2", "--bound", "2"])
    assert capsys.readouterr().out == ""
    with pytest.raises(InvalidFamilyError):
        named_family("common-point:1")


def test_quiet_suppresses_the_summary_line(capsys):
    code = main(["family-check", "--family", "bound2", "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.lstrip().startswith("{")  # no chatter, report only
    code2 = main(["family-check", "--family", "bound2"])
    assert code2 == 0
    noisy = capsys.readouterr().out
    assert not noisy.lstrip().startswith("{")


@pytest.mark.parametrize("argv, notes", [
    (["closure", "run", "--family", "disjoint:2", "--window", "6"], ["window 6"]),
    (["verify", "ideal-witness", "--trials", "2", "--seed", "7"],
     ["trial 0: True", "trial 1: True"]),
], ids=["closure-run", "ideal-witness"])
def test_trace_writes_progress_to_stderr_only(argv, notes, capsys):
    reports = []
    for trace in (["--trace"], []):
        assert main(argv + trace + ["--quiet"]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == (notes if trace else [])
        doc = json.loads(captured.out)  # the report and nothing else
        del doc["meta"]
        reports.append(doc)
    assert reports[0] == reports[1]


def test_one_parser_serves_successive_calls(tmp_path, monkeypatch, capsys):
    # the parser is built once per process: a written report, then a
    # usage error, then a plain run that must print to stdout with no
    # stale --out and match a fresh process
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "pettis-witness", "--trials", "5", "--seed", "7",
                 "--out", "r.json", "--quiet"]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["report"]["all_ok"] is True
    assert main(["verify", "pettis-witness", "--trials", "5"]) == 1  # no seed
    capsys.readouterr()
    code, doc = run(capsys, "family-check", "--family", "five-ring")
    assert code == 0 and isinstance(doc, dict)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]
    src = str(Path(invsemi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run(
        [sys.executable, "-m", "invsemi.cli", "family-check", "--family", "five-ring"],
        capture_output=True, text=True, env=env, check=True)
    fresh_doc = json.loads(fresh.stdout[fresh.stdout.index("\n{") + 1:])
    doc.pop("meta")
    fresh_doc.pop("meta")
    assert doc == fresh_doc
