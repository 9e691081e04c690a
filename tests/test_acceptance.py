"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` treats them as ordinary tests.
"""

import json
import math
import time

import numpy as np

from conftest import CORPUS, NONRIGID, RIGID, switched_signed_line_graph_walk_regular
from oracles import enumerate_spanning_trees, majorization_check, random_simplex

from edgerigid import cli
from edgerigid import families as fam
from edgerigid.eigensum import (
    VERDICT_REFUTED,
    VERDICT_RIGID,
    certificate,
    gauge_product,
    k_rigidity_profile,
    optimize,
)
from edgerigid.exactmat import char_poly
from edgerigid.graphs import Graph, WeightVector, laplacian
from edgerigid.rigidity import (
    cospectrality_classes,
    decide_edge_rigid_exact,
    signed_line_graph_walk_regular,
    walk_class,
)
from edgerigid.spectral import (
    edge_isometry_check,
    effective_resistances,
    kirchhoff_index,
    spectrum,
    tree_count_exact,
    weighted_tree_count,
)


def eigensums(g, w, k):
    evals = np.linalg.eigvalsh(laplacian(g, w))
    return float(evals[g.n - k:].sum()), float(evals[1:k + 1].sum())


def test_criterion_1_equivalence_suite():
    """Five deciders agree on every corpus graph, with the expected verdicts."""
    assert len(CORPUS) >= 12
    rng = np.random.default_rng(2024)
    for name, g, expected in CORPUS:
        verdicts = {
            "walk_criterion": decide_edge_rigid_exact(g).rigid,
            "cospectrality": len(cospectrality_classes(g)) == 1,
            "walk_class": walk_class(g).label in ("1-walk-regular", "1-walk-biregular"),
            "float_embedding": edge_isometry_check(
                g, spectrum(laplacian(g).astype(float))
            ).all_constant,
        }
        slg = {signed_line_graph_walk_regular(g)} | {
            switched_signed_line_graph_walk_regular(g, rng) for _ in range(20)
        }
        assert len(slg) == 1, f"{name}: orientation-dependent signed verdict"
        verdicts["signed_line_graph"] = slg.pop()
        assert set(verdicts.values()) == {expected}, f"{name}: {verdicts}"
    print("ACCEPTANCE 1 (equivalence suite on corpus): PASS")


def test_criterion_2_exact_values():
    assert char_poly(laplacian(fam.complete_graph(3))).coeffs == (0, 9, -6, 1)
    assert char_poly(laplacian(fam.path_graph(3))).coeffs == (0, 3, -4, 1)
    for g, tau in (
        (fam.complete_graph(4), 16),
        (fam.cycle_graph(4), 4),
        (fam.path_graph(4), 1),
    ):
        assert tree_count_exact(g) == tau
        assert enumerate_spanning_trees(g) == tau
    assert abs(kirchhoff_index(fam.complete_graph(4)) - 3.0) <= 1e-9
    assert abs(kirchhoff_index(fam.cycle_graph(4)) - 5.0) <= 1e-9
    print("ACCEPTANCE 2 (exact char polys, tree counts, Kirchhoff): PASS")


def test_criterion_3_edge_resistances():
    expected = {"petersen": 0.6, "C4": 0.75, "K4": 0.5}
    for name, g in RIGID:
        r = effective_resistances(g)
        target = (g.n - 1) / g.m
        assert np.max(np.abs(r - target)) <= 1e-9, name
        if name in expected:
            assert abs(target - expected[name]) <= 1e-12
    for name, g, _ in CORPUS:
        assert abs(effective_resistances(g).sum() - (g.n - 1)) <= 1e-9, name
    print("ACCEPTANCE 3 (constant edge resistance (n-1)/m, Foster sums): PASS")


def test_criterion_4_certificates():
    for name, g in RIGID:
        s = spectrum(laplacian(g).astype(float))
        for j in range(1, s.r):
            cert = certificate(g, j)
            assert cert.passes, (name, j, cert.residuals)
            rel = abs(cert.bound - cert.top_eigensum) / max(1.0, cert.top_eigensum)
            assert rel <= 1e-8, (name, j)
        top = certificate(g, s.r - 1)
        assert abs(sum(top.gammas) - 2.0) <= 1e-9, name
    print("ACCEPTANCE 4 (certificate residuals and bounds on rigid corpus): PASS")


def test_criterion_5_optimizer_soundness():
    for g in (
        fam.complete_graph(4),
        fam.cycle_graph(4),
        fam.cycle_graph(6),
        fam.petersen_graph(),
    ):
        for k in range(1, g.n):
            res = optimize(g, k, "upper", iters=5000)
            assert res.verdict == VERDICT_RIGID, (g.n, k, res.verdict)
            assert res.gap <= 1e-4 * res.baseline, (g.n, k, res.gap)

    p4 = fam.path_graph(4)
    prof = k_rigidity_profile(p4, iters=5000)
    refuted = prof.refuted_entries()
    assert refuted
    for k, objective in refuted:
        entry = prof.entries[k - 1]
        res = entry.upper if objective == "upper" else entry.lower
        w = WeightVector(res.best_w)
        S_k, s_k = eigensums(p4, w, k)
        scale = max(1.0, abs(res.baseline))
        improvement = res.baseline - S_k if objective == "upper" else s_k - res.baseline
        assert improvement >= 1e-4 * scale, (k, objective, improvement)

    t0 = time.time()
    pet_prof = k_rigidity_profile(fam.petersen_graph(), iters=5000)
    elapsed = time.time() - t0
    assert pet_prof.all_rigid
    assert elapsed < 300, f"Petersen profile took {elapsed:.1f}s"
    print(f"ACCEPTANCE 5 (optimizer gaps, P4 refutation, Petersen profile {elapsed:.2f}s): PASS")


def test_criterion_6_gauge_identity():
    for name, g in RIGID:
        for k in range(1, g.n):
            gp = gauge_product(g, k)
            assert g.m - 1e-3 <= gp.product <= g.m + 1e-3, (name, k, gp.product)
    for name, g, _ in CORPUS:
        for k in range(1, g.n):
            gp = gauge_product(g, k, iters=300)
            assert gp.product >= g.m - 1e-9, (name, k, gp.product)
    print("ACCEPTANCE 6 (gauge identity S_k(1) * S_k_dual(1) = |E|): PASS")


def test_criterion_7_majorization_consequences():
    for name, g in RIGID:
        tau1 = weighted_tree_count(g)
        kf1 = kirchhoff_index(g)
        base = np.linalg.eigvalsh(laplacian(g).astype(float))
        samples = random_simplex(g.m, seed=99, count=1000)
        for idx, w in enumerate(samples):
            assert weighted_tree_count(g, w) <= tau1 * (1 + 1e-9), name
            assert kirchhoff_index(g, w) >= kf1 * (1 - 1e-9), name
            if idx < 100:
                evals = np.linalg.eigvalsh(laplacian(g, w))
                assert majorization_check(base, evals, tol=1e-8), name
    print("ACCEPTANCE 7 (unit weights extremal for tau and Kf, majorization): PASS")


def test_criterion_8_determinism(tmp_path):
    for name, g, _ in CORPUS:
        path = tmp_path / f"{name}.txt"
        path.write_text(g.to_edge_list())
        outputs = []
        for run in range(2):
            out = tmp_path / f"{name}_{run}.json"
            code = cli.main(
                ["analyze", str(path), "--format", "json", "--output", str(out)]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], name
        json.loads(outputs[0])  # stays valid JSON
    print("ACCEPTANCE 8 (byte-identical analyze JSON across runs): PASS")


def test_criterion_9_scale_check():
    # the jump-(1,2) circulant on 50 vertices: exact decider must finish fast
    # and agree with the float check (it is not edge-rigid; the first
    # violation is at power 2)
    g = fam.circulant_graph(50, (1, 2))
    t0 = time.time()
    res = decide_edge_rigid_exact(g)
    elapsed = time.time() - t0
    assert elapsed < 60, f"{elapsed:.1f}s"
    iso = edge_isometry_check(g, spectrum(laplacian(g).astype(float)))
    assert res.rigid is iso.all_constant

    # a genuinely rigid n = 50 graph exercises the full power range
    c50 = fam.cycle_graph(50)
    t0 = time.time()
    res50 = decide_edge_rigid_exact(c50)
    elapsed50 = time.time() - t0
    assert res50.rigid
    assert len(res50.constants) == 50
    assert elapsed50 < 60, f"{elapsed50:.1f}s"
    iso50 = edge_isometry_check(c50, spectrum(laplacian(c50).astype(float)))
    assert iso50.all_constant
    print(
        f"ACCEPTANCE 9 (n=50 exact deciders, {elapsed:.2f}s and {elapsed50:.2f}s, "
        "consistent with float checks): PASS"
    )
