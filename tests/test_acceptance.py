"""Acceptance gate: nine end-to-end criteria.

Each test is one criterion; the conftest terminal hook prints a PASS or
FAIL line per criterion at the end of the run.  Tolerances are exact
everywhere; the only budget is wall clock on the randomized closure
sweep.
"""

import itertools
import json
import random
import time

from invsemi import (
    EMPTY_IDEAL,
    FIN_IDEAL,
    chain_capacity_by_enumeration,
    chain_capacity_matrix,
    check_closure_bound,
    check_convergence,
    classify,
    closure_of,
    compare_with_structural,
    compose_chain,
    empty_map,
    factorize,
    fin_map,
    ideal_escape_witness,
    minimal_window,
    partial_identity,
    random_basic_open,
    shared_identity_interior_probe,
    sym_compose,
    sym_inverse,
    verify_factorization,
    verify_rank_one_certificate,
)
from invsemi.catalog import (
    COMMON_POINT_RULE,
    bound_example,
    common_point_block,
    common_point_family,
    dyadic_disjoint_family,
    five_block_example,
    marker_family,
    random_uniform_family,
    unequal_example,
    violating_family,
)
from invsemi.closure import family_generators
from invsemi.cli import main
from invsemi.topology import GrowingExtensionSeq, BlockIdentitySeq, SingletonIdentitySeq
from conftest import evens, project_to_window, random_sym_element

MASTER_SEED = 20260817


def test_criterion_1_closure_equals_structure_on_random_families():
    started = time.monotonic()
    rng = random.Random(MASTER_SEED)
    checked = 0
    while checked < 20:
        fam, bound, window = random_uniform_family(rng)
        result = closure_of(family_generators(fam, window))
        assert result.closed, fam.name
        diff = compare_with_structural(result, fam)
        assert diff.matches, (
            fam.name,
            bound,
            window,
            [str(m) for m in diff.missing[:5]],
            [str(m) for m in diff.extra[:5]],
        )
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"sweep took {elapsed:.1f}s"


def test_criterion_2_closure_bound_both_directions():
    rng = random.Random(MASTER_SEED + 1)
    for trial in range(10):
        bound = rng.choice((0, 1, 2))
        fam = violating_family(rng, bound)
        report = check_closure_bound(fam, bound)
        assert not report.satisfied
        i, j = report.bad_pair
        overlap = fam.blocks[i].intersect(fam.blocks[j])
        assert len(overlap.points()) == report.witness["rank"] > bound
        # recompute the escape composite from scratch
        composite = sym_compose(
            partial_identity(fam.blocks[j]), partial_identity(fam.blocks[i])
        )
        assert composite == partial_identity(overlap)
    for trial in range(10):
        fam, bound, window = random_uniform_family(rng)
        report = check_closure_bound(fam, bound, window)
        assert report.satisfied and report.closed, (fam.name, bound)


def test_criterion_3_capacity_matrix_equals_walk_enumeration():
    families = [
        dyadic_disjoint_family(3),
        dyadic_disjoint_family(6),
        common_point_family(3),
        common_point_family(6),
        unequal_example(),
        bound_example(),
        five_block_example(),
        marker_family(4, {(0, 1): 1, (1, 2): 2, (2, 3): 3, (0, 3): 1}, name="path4"),
        marker_family(2, {(0, 1): 4}, name="pair4"),
    ]
    rng = random.Random(MASTER_SEED + 2)
    for _ in range(6):
        fam, _, _ = random_uniform_family(rng)
        families.append(fam)
    for fam in families:
        assert len(fam.blocks) <= 6
        assert chain_capacity_matrix(fam) == chain_capacity_by_enumeration(fam), fam.name
    # the self-capacity rule: the first step must leave the block
    ring = chain_capacity_matrix(five_block_example())
    assert ring[4][4] == 2  # best direct exit, not the infinite self-overlap


def windowed_strata(fam, bound, window):
    """Every element of every rank stratum visible in the window."""
    yield empty_map()
    if bound == 0:
        return
    views = [b.below(window) for b in fam.blocks]
    for i, j in itertools.product(range(len(fam.blocks)), repeat=2):
        for k in range(1, bound + 1):
            for dom in itertools.combinations(views[i], k):
                for img in itertools.permutations(views[j], k):
                    yield fin_map(zip(dom, img))


def test_criterion_4_factorization_recomposes_across_benchmarks():
    benchmarks = [
        (dyadic_disjoint_family(3), 0, 8),
        (common_point_family(3), 1, 8),
        (bound_example(), 2, None),
    ]
    total = 0
    for fam, bound, window in benchmarks:
        capacity = chain_capacity_matrix(fam)
        if window is None:
            window = minimal_window(fam, capacity)
        for f in windowed_strata(fam, bound, window):
            factors = factorize(f, fam)
            assert compose_chain(factors) == f, str(f)
            assert verify_factorization(f, factors, fam)
            for g in factors:
                assert classify(g, fam.blocks).kind == "group", str(g)
            total += 1
    assert total > 2000


def test_criterion_5_shared_point_suite():
    # the one-map set: its inverse-product collapses symbolically
    a = fin_map([(0, 1)])
    product = sym_compose(sym_inverse(a), a)
    assert product == partial_identity([0])

    # isolation certificates, exhaustively confirmed at three windows
    for pair in ((0, 1), (1, 0), (1, 2)):
        check = verify_rank_one_certificate(
            fin_map([pair]), windows=(12, 20, 28)
        )
        assert check.logic_singleton
        assert [w for w, ok in check.windowed_ok if ok] == [12, 20, 28]
        assert check.ok

    # every sampled open around the product contains someone else
    probe = shared_identity_interior_probe(trials=100, seed=MASTER_SEED)
    assert probe.product_is_sole
    assert probe.trials == 100 and probe.all_escaped
    assert len(probe.escapes) == 100
    for _, literal in probe.escapes:
        assert literal != "id(finite {0})"


def test_criterion_6_ideal_escape_witnesses():
    for ideal in (FIN_IDEAL, EMPTY_IDEAL):
        rng = random.Random(MASTER_SEED + 3)
        for _ in range(50):
            v = random_basic_open(rng)
            w = ideal_escape_witness(v, ideal, evens())
            assert w.holds, (ideal.kind, v.describe())
            verdicts = dict(w.verdicts)
            assert verdicts["member-of-open"]
            assert verdicts["domain-complement-in-extended"]
            assert verdicts["domain-complement-outside-original"]
            assert verdicts["image-complement-in-extended"]
            assert verdicts["image-complement-outside-original"]


def test_criterion_7_convergence_catalog():
    rep = check_convergence(
        BlockIdentitySeq(COMMON_POINT_RULE), partial_identity([0]), horizon=64
    )
    assert rep.converges

    rep = check_convergence(SingletonIdentitySeq(), empty_map(), horizon=64)
    assert rep.converges

    rep = check_convergence(BlockIdentitySeq(COMMON_POINT_RULE), empty_map(), horizon=64)
    assert not rep.converges
    point, clause, _ = rep.counterexample
    assert point == 0 and clause == "ii"

    rng = random.Random(MASTER_SEED + 4)
    for _ in range(20):
        k = rng.randint(0, 3)
        srcs = rng.sample(common_point_block(0).below(12), k)
        tgts = rng.sample(common_point_block(1).below(16), k)
        base = fin_map(zip(sorted(srcs), tgts))
        seq = GrowingExtensionSeq(base, common_point_block(0), common_point_block(1))
        assert check_convergence(seq, base, horizon=64).converges, str(base)


def test_criterion_8_symbolic_windowed_commutation():
    rng = random.Random(MASTER_SEED + 5)
    for _ in range(1000):
        f = random_sym_element(rng)
        g = random_sym_element(rng)
        exact = sym_compose(f, g)
        for window in (16, 32):
            lhs = project_to_window(exact, window)
            rhs = project_to_window(f, window).compose(project_to_window(g, window))
            assert lhs == rhs, (str(f), str(g), window)


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    lines = out.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("{"))
    doc = json.loads("\n".join(lines[start:]))
    doc.pop("meta")
    return code, json.dumps(doc, sort_keys=True)


def test_criterion_9_reports_are_reproducible(capsys):
    suites = [
        ["verify", "ideal-witness", "--trials", "25", "--seed", "11"],
        ["verify", "ideal-witness", "--ideal", "empty", "--trials", "10", "--seed", "4"],
        ["verify", "pettis-witness", "--trials", "20", "--seed", "7", "--windows", "12,20"],
        ["closure", "run", "--family", "common-point:3", "--window", "8", "--compare"],
        ["chains", "--family", "five-ring", "--check"],
    ]
    for argv in suites:
        code1, doc1 = _run_json(capsys, argv)
        code2, doc2 = _run_json(capsys, argv)
        assert code1 == code2 == 0
        assert doc1 == doc2, argv
