"""Acceptance suite.

One test per acceptance criterion, each run at its stated grid and
tolerance, printing a PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run).  Expensive solver runs are shared
through session fixtures.

Criterion 10's gamma < 0 half is expected to fail: at the specified
coupling (midway between the two published threshold constants) the
Pohozaev set of the problem is empty, so no critical points exist; the
blocking analysis lives in the decisions ledger outside the package.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.fft as sfft

from planarsp import (Params, ProfileSpec, SolverConfig,
                      critical_points, dilate, discretize, energy,
                      grad_energy, global_minimize, kinetic,
                      lambda_branch_minimize, local_minimize_capped, make_grid,
                      masscritical_probe, phi, pnorm, two_bump_probe)
from planarsp.cli import main
from planarsp.constants import (a_thresholds, c0, c_edges, gaussian_rayleigh_quotient,
                                ground_state_radial,
                                kgn_estimate, mass_critical_threshold,
                                regime_classify, sharp_constants)
from planarsp.fiber import FiberScalars
from planarsp.functionals import Evaluation, kernel_table
from planarsp.grid import Field

from conftest import V_GAUSS_UNIT, gaussian_on_branch


def report(criterion, ok, detail):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def grid512():
    return make_grid(40.0, 512)


@pytest.fixture(scope="session")
def p6_params():
    p = 6.0
    czero = c0(p, 1.0, 1.0, kgn_estimate(p))
    return Params(gamma=1.0, a=1.0, p=p, c=0.5 * czero)


@pytest.fixture(scope="session")
def p6_capped(p6_params):
    cfg = SolverConfig(max_iter=8000)
    return local_minimize_capped(p6_params, make_grid(24.0, 256), cfg,
                                 ProfileSpec.gaussian(sigma=1.5))


@pytest.fixture(scope="session")
def p6_plus(p6_params):
    cfg = SolverConfig(max_iter=8000)
    return lambda_branch_minimize(p6_params, make_grid(24.0, 256), cfg,
                                  gaussian_on_branch(p6_params, "plus"), "plus")


@pytest.fixture(scope="session")
def p6_minus(p6_params):
    cfg = SolverConfig(max_iter=8000)
    return lambda_branch_minimize(p6_params, make_grid(16.0, 256), cfg,
                                  gaussian_on_branch(p6_params, "minus"), "minus")


def test_criterion_1_scaling_laws(grid512):
    t0 = time.monotonic()
    u = discretize(ProfileSpec.gaussian(sigma=1.0), grid512)
    table = kernel_table(grid512)
    A0, C0, V0 = kinetic(u, table), pnorm(u, 3.0), Evaluation(u).V
    worst_rel, worst_abs = 0.0, 0.0
    for t in (0.5, 2.0):
        v = dilate(u, t)
        worst_rel = max(worst_rel,
                        abs(kinetic(v, table) / A0 - t ** 2) / t ** 2,
                        abs(pnorm(v, 3.0) / C0 - t) / t)
        worst_abs = max(worst_abs, abs(Evaluation(v).V - V0 + math.log(t)))
    elapsed = time.monotonic() - t0
    ok = worst_rel < 1e-3 and worst_abs < 1e-3 and elapsed < 30.0
    report(1, ok, f"dilation scaling laws at 512^2: rel {worst_rel:.2e}, "
                  f"abs {worst_abs:.2e}, {elapsed:.1f}s")
    assert worst_rel < 1e-3
    assert worst_abs < 1e-3
    assert elapsed < 30.0


def test_criterion_2_gaussian_closed_forms(grid512):
    table = kernel_table(grid512)
    worst = 0.0
    for c in (1.0, 2.0):
        u = discretize(ProfileSpec.gaussian(sigma=1.0, c=c), grid512)
        A, C, V = kinetic(u, table), pnorm(u, 3.0), Evaluation(u).V
        worst = max(worst,
                    abs(A - c) / c,
                    abs(C - 2.0 * c ** 1.5 / (3.0 * math.sqrt(math.pi)))
                    / (2.0 * c ** 1.5 / (3.0 * math.sqrt(math.pi))),
                    abs(V - V_GAUSS_UNIT * c * c) / (V_GAUSS_UNIT * c * c))
    ok = worst < 1e-12
    report(2, ok, f"Gaussian closed forms A, C(p=3), V at 512^2: "
                  f"worst rel {worst:.2e}")
    assert ok


def test_criterion_3_gradient_check(grid256):
    t0 = time.monotonic()
    pr = Params(gamma=1.0, a=1.0, p=3.0, c=1.0)
    table = kernel_table(grid256)
    h2 = grid256.h ** 2
    eps = 1e-4
    worst = 0.0
    for seed in range(10):
        u = discretize(ProfileSpec.random_smooth(seed=seed), grid256)
        direction = discretize(ProfileSpec.random_smooth(seed=seed + 200), grid256)
        lhs = h2 * float(np.sum(grad_energy(u, pr, table).values
                                * direction.values))
        fp = energy(Field(grid256, u.values + eps * direction.values), pr, table).F
        fm = energy(Field(grid256, u.values - eps * direction.values), pr, table).F
        worst = max(worst, abs((fp - fm) / (2 * eps) - lhs) / abs(lhs))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-5 and elapsed < 60.0
    report(3, ok, f"gradient vs central differences, 10 pairs: "
                  f"worst rel {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-5
    assert elapsed < 60.0


def test_criterion_4_pohozaev_certification(grid256):
    t0 = time.monotonic()
    pr = Params(gamma=1.0, a=0.0, p=3.0, c=1.0)
    rep = global_minimize(pr, grid256, SolverConfig(max_iter=8000),
                          ProfileSpec.gaussian(sigma=1.5))
    elapsed = time.monotonic() - t0
    ok = (rep.converged and abs(rep.q_value) < 1e-3
          and rep.pohozaev_res < 1e-3 and rep.el_res < 1e-3 and elapsed < 120.0)
    report(4, ok, f"ground-state certification at 256^2: |Q|={abs(rep.q_value):.2e}, "
                  f"poho={rep.pohozaev_res:.2e}, el={rep.el_res:.2e}, {elapsed:.0f}s")
    assert rep.converged
    assert abs(rep.q_value) < 1e-3
    assert rep.pohozaev_res < 1e-3
    assert rep.el_res < 1e-3
    assert elapsed < 120.0


def test_criterion_5_fiber_roots_closed_form():
    t0 = time.monotonic()
    pr = Params(gamma=1.0, a=1.0, p=6.0, c=1.0)
    sc = FiberScalars(A=1.0, C=1.0, V=0.0, params=pr)
    pts = critical_points(sc)
    # quadratic-in-t^2 oracle: (2/3) t^4 - t^2 + 1/4 = 0
    roots = np.sort(np.sqrt(np.roots([2.0 / 3.0, -1.0, 0.25])))
    s_plus, s_minus = float(roots[0]), float(roots[1])
    tstar = math.sqrt(0.75)
    err = max(abs(pts[0].s - s_plus), abs(pts[1].s - s_minus))
    elapsed = time.monotonic() - t0
    ok = (err < 1e-10 and pts[0].s < tstar < pts[1].s and elapsed < 1.0)
    report(5, ok, f"p=6 fiber roots vs quadratic oracle: err {err:.1e}, "
                  f"s+ {pts[0].s:.6f} < t* {tstar:.6f} < s- {pts[1].s:.6f}")
    assert err < 1e-10
    assert pts[0].s < tstar < pts[1].s
    assert elapsed < 1.0


def test_criterion_6_sharp_constant():
    t0 = time.monotonic()
    gs = ground_state_radial(4.0)  # independent radial-shooting oracle
    kgn = kgn_estimate(4.0)
    gauss = gaussian_rayleigh_quotient(4.0)
    elapsed = time.monotonic() - t0
    ok = (abs(kgn - 2.0 / gs.mass) < 0.01 * (2.0 / gs.mass)
          and gauss < kgn and abs(gs.mass - 11.70) < 0.1 and elapsed < 10.0)
    report(6, ok, f"kgn(4)={kgn:.6f} vs 2/Townes mass={2.0 / gs.mass:.6f} "
                  f"(mass {gs.mass:.4f}); Gaussian trial {gauss:.6f} below")
    assert abs(kgn - 2.0 / gs.mass) < 0.01 * (2.0 / gs.mass)
    assert gauss < kgn
    assert elapsed < 10.0


def test_criterion_7_masscritical_dichotomy():
    t0 = time.monotonic()
    kgn4 = kgn_estimate(4.0)
    thr = mass_critical_threshold(1.0, kgn4)
    grid = make_grid(40.0, 256)
    sup = [f for _, f in masscritical_probe(
        Params(gamma=1.0, a=1.0, p=4.0, c=1.2 * thr), grid)]
    unbounded = all(sup[k + 1] < sup[k] for k in range(1, len(sup) - 1))
    sub = [f for _, f in masscritical_probe(
        Params(gamma=1.0, a=1.0, p=4.0, c=0.8 * thr), grid)]
    arg = min(range(len(sub)), key=lambda i: sub[i])
    bounded = 0 < arg < len(sub) - 1
    elapsed = time.monotonic() - t0
    ok = unbounded and bounded and elapsed < 10.0
    report(7, ok, f"mass-critical dichotomy at c = 1.2/0.8 x {thr:.3f}: "
                  f"ray unbounded {unbounded}, bounded-with-interior-min {bounded}")
    assert unbounded and bounded
    assert elapsed < 10.0


def test_criterion_8_nonexistence():
    rng = np.random.default_rng(1234)
    tgrid = np.logspace(-6.0, 6.0, 500)
    violations = 0
    for _ in range(100):
        pr = Params(gamma=-float(rng.uniform(0.05, 10.0)),
                    a=-float(rng.uniform(0.0, 10.0)),
                    p=float(rng.uniform(2.05, 8.0)),
                    c=float(rng.uniform(0.1, 10.0)))
        sc = FiberScalars(A=float(rng.uniform(0.01, 100.0)),
                          C=float(rng.uniform(0.01, 100.0)),
                          V=float(rng.uniform(-5.0, 5.0)), params=pr)
        if min(phi(sc, float(t)) for t in tgrid) <= 0.0:
            violations += 1
    ok = violations == 0
    report(8, ok, f"nonexistence sweep (gamma<0, a<=0): {violations} violations "
                  "of phi > 0 over 100 random tuples")
    assert violations == 0


def test_criterion_9_two_bump_divergence():
    t0 = time.monotonic()
    pr = Params(gamma=-25.0, a=70.0, p=3.0, c=1.0)
    t1, _ = a_thresholds(3.0, pr.gamma, pr.c, kgn_estimate(3.0))
    assert pr.a > t1  # coupling above the lower threshold
    rows = two_bump_probe(pr, make_grid(80.0, 512), [1, 2, 3, 4])
    fs = [r.f for r in rows]
    decreasing = all(fs[i + 1] < fs[i] for i in range(len(fs) - 1))
    pred_ok = all(abs(r.q - r.q_pred) < 1e-2 for r in rows)
    negative = all(r.q < 0.0 for r in rows) and rows[-1].q_pred < 0.0
    elapsed = time.monotonic() - t0
    ok = decreasing and pred_ok and negative and elapsed < 120.0
    report(9, ok, f"two-bump collapse at 512^2: F decreasing {decreasing}, "
                  f"max |Q - pred| {max(abs(r.q - r.q_pred) for r in rows):.2e}, "
                  f"{elapsed:.0f}s")
    assert decreasing and pred_ok and negative
    assert elapsed < 120.0


def test_criterion_10a_two_solutions_gamma_positive(p6_params, p6_plus, p6_minus):
    for rep in (p6_plus, p6_minus):
        assert rep.converged
        assert abs(rep.q_value) < 1e-3 * (rep.breakdown.A
                                          + 0.25 * p6_params.c ** 2)
        assert rep.pohozaev_res < 1e-3
        assert rep.el_res < 1e-3
    ok = p6_minus.objective > p6_plus.objective > 0.0
    report("10a", ok, f"gamma>0 pair: F(u-)={p6_minus.objective:.6f} > "
                      f"F(u+)={p6_plus.objective:.6f} > 0, both certified")
    assert ok


@pytest.mark.xfail(reason="source-paper threshold defect: the Pohozaev set is "
                          "empty at the coupling midway between the published "
                          "K1/K2 thresholds, so no critical points exist; see "
                          "the decisions ledger for the verified analysis")
def test_criterion_10b_two_solutions_gamma_negative(tmp_path, capsys):
    p = 3.0
    t1, t2 = a_thresholds(p, -1.0, 1.0, kgn_estimate(p))
    a = 0.5 * (t1 + t2)
    for branch in ("minus", "plus"):
        out = tmp_path / branch
        code = main(["solve", "--gamma", "-1", "--a", repr(a), "--p", "3", "--c", "1",
                     "--branch", branch, "--out", str(out)])
        if code != 0:
            err = capsys.readouterr().err.strip()
            report("10b", False, f"gamma<0 pair unattainable as specified: {err}")
            raise AssertionError("no certified critical points exist at the published "
                                 f"mid-window coupling: solve --branch {branch} "
                                 f"exited {code}")
        rep = json.loads((out / "report.json").read_text())
        assert rep["converged"] and rep["el_residual"] < 1e-3
    report("10b", True, "gamma<0 pair certified")


def test_criterion_11_regime_map():
    worst_edge = 0.0
    structure_ok = True
    for p in (2.5, 3.0, 3.5):
        sharp = sharp_constants(p)
        if p == 3.0:
            # band edges are mass-independent: classification depends on a only
            t1, t2 = a_thresholds(p, -1.0, 1.0, sharp.kgn)
            tags_c = {regime_classify(Params(gamma=-1.0, a=0.5 * (t1 + t2),
                                             p=p, c=c), sharp).tag
                      for c in (0.3, 1.0, 3.0, 9.0)}
            structure_ok &= tags_c == {"TwoCriticalPointsOnLambda"}
            continue
        c1, c2 = c_edges(p, -1.0, 1.0, sharp.kgn)
        lo, hi = min(c1, c2), max(c1, c2)
        structure_ok &= (c2 < c1) if p < 3.0 else (c1 < c2)
        mid = regime_classify(Params(gamma=-1.0, a=1.0, p=p,
                                     c=0.5 * (lo + hi)), sharp).tag
        structure_ok &= mid == "TwoCriticalPointsOnLambda"
        for edge in (lo, hi):
            below = regime_classify(Params(gamma=-1.0, a=1.0, p=p,
                                           c=edge * (1.0 - 1e-10)), sharp).tag
            above = regime_classify(Params(gamma=-1.0, a=1.0, p=p,
                                           c=edge * (1.0 + 1e-10)), sharp).tag
            structure_ok &= below != above
            # the edge reproduces the closed-form threshold as pure arithmetic
            g = 1.0  # |gamma| = 1 scaling factor
            from planarsp.constants import k1, k2

            K = k1(p, sharp.kgn) if edge in (c1,) else k2(p, sharp.kgn)
            worst_edge = max(worst_edge,
                             abs(K * edge ** (3.0 - p) - 1.0))
    ok = structure_ok and worst_edge < 1e-10
    report(11, ok, f"regime map bands at p=2.5/3/3.5: structure {structure_ok}, "
                   f"edge formula defect {worst_edge:.1e}")
    assert structure_ok
    assert worst_edge < 1e-10


def test_criterion_12_cross_solver_agreement(p6_capped, p6_plus):
    df = abs(p6_capped.objective - p6_plus.objective)
    a_vals = p6_capped.field.values
    b_vals = p6_plus.field.values
    corr = sfft.irfft2(sfft.rfft2(a_vals) * np.conj(sfft.rfft2(b_vals)),
                       s=a_vals.shape)
    shift_idx = np.unravel_index(int(np.argmax(corr)), corr.shape)
    b_shift = np.roll(b_vals, shift_idx, axis=(0, 1))
    h = p6_capped.field.grid.h
    dist = math.sqrt(float(np.sum((a_vals - b_shift) ** 2)) * h * h)
    ok = df < 1e-3 and dist < 1e-2
    report(12, ok, f"capped vs plus-branch: |dF|={df:.2e}, "
                   f"field L2 distance after translation {dist:.2e}")
    assert df < 1e-3
    assert dist < 1e-2
