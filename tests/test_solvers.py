import dataclasses

import numpy as np
import pytest

from planarsp import (CapBoundaryError, ConvergenceError, DomainError, Field,
                      GuardFloorError, Params, ProfileSpec, RegimeError,
                      ResolutionError, SolverConfig, dilate, discretize,
                      global_minimize, lambda_branch_minimize, lambda_maximize,
                      local_minimize_capped, make_grid, mass, masscritical_probe,
                      normalize, pnorm, scalars, t_star, two_bump_probe)
from planarsp import solvers
from planarsp.constants import (a_thresholds, c0, gn_profile_field, k0,
                                kgn_estimate, mass_critical_threshold, regime_classify,
                                sharp_constants)
from planarsp.fiber import _critical_point
from planarsp.functionals import Evaluation, kernel_table, prolong
from planarsp.solvers import gaussian_on_branch

from conftest import padded_reference

CFG = SolverConfig(max_iter=6000, trace=True)


@pytest.fixture(scope="module")
def choquard_report():
    pr = Params(gamma=1.0, a=0.0, p=3.0, c=1.0)
    grid = make_grid(40.0, 128)
    return pr, global_minimize(pr, grid, CFG, ProfileSpec.gaussian(sigma=1.5))


@pytest.fixture(scope="module")
def p6_setup():
    p = 6.0
    czero = c0(p, 1.0, 1.0, kgn_estimate(p))
    return Params(gamma=1.0, a=1.0, p=p, c=0.5 * czero)


@pytest.fixture(scope="module")
def capped_report(p6_setup):
    grid = make_grid(24.0, 128)
    return local_minimize_capped(p6_setup, grid, CFG,
                                 ProfileSpec.gaussian(sigma=1.5))


@pytest.fixture(scope="module")
def plus_report(p6_setup):
    grid = make_grid(24.0, 128)
    return lambda_branch_minimize(p6_setup, grid, CFG,
                                  gaussian_on_branch(p6_setup, "plus"), "plus")


# The benchmark's four cases at 256^2: the extent of each and its F from a
# direct 256^2 solve, with no grid ladder.
BENCH_256 = {
    "ground_state_p3": (40.0, 0.311422098120),
    "capped_p6": (24.0, 0.632516201900),
    "plus_p6": (24.0, 0.632516201354),
    "minus_p6": (16.0, 4.326004312547),
}


def _bench_solve(name, params6, grid, cfg=CFG, scale=None):
    """The benchmark's solve of case name on grid; with scale, from its
    normalized start field with every value multiplied by scale."""
    params = Params(gamma=1.0, a=0.0, p=3.0, c=1.0) if name == "ground_state_p3" \
        else params6
    branch = name.split("_")[0]
    init = gaussian_on_branch(params6, branch) if branch in ("plus", "minus") \
        else ProfileSpec.gaussian(sigma=1.5)
    if scale is not None:
        init = Field(grid, normalize(discretize(init, grid), params.c).values * scale)
    if name == "ground_state_p3":
        return global_minimize(params, grid, cfg, init)
    if name == "capped_p6":
        return local_minimize_capped(params, grid, cfg, init)
    return lambda_branch_minimize(params, grid, cfg, init, branch)


@pytest.fixture(scope="module")
def ladder_reports(p6_setup):
    return {name: _bench_solve(name, p6_setup, make_grid(extent, 256))
            for name, (extent, _) in BENCH_256.items()}


@pytest.fixture(scope="module")
def choquard_256(ladder_reports):
    return ladder_reports["ground_state_p3"]


@pytest.fixture(scope="module")
def capped_256(ladder_reports):
    return ladder_reports["capped_p6"]


def test_capped_start_is_evaluated_once(p6_setup, fft_counts):
    # The solver evaluates the start once and its projection onto its fiber
    # minimum once, each by an n x n forward of u and a pruned padded
    # forward of u^2 (an rfftn and an fftn); the one gradient, of the
    # projected start, adds the inverses of -Delta u and w, and the
    # certificate reads that gradient again.
    grid = make_grid(24.0, 64)
    kernel_table(grid)
    fft_counts.update(dict.fromkeys(fft_counts, 0))
    with pytest.raises(ConvergenceError):
        local_minimize_capped(p6_setup, grid, SolverConfig(max_iter=0),
                              ProfileSpec.gaussian(sigma=1.5))
    assert fft_counts == {"rfft2": 2, "rfftn": 2, "fftn": 2,
                          "irfft2": 1, "ifftn": 1, "irfftn": 1}


@pytest.mark.parametrize("case", ["ground_state_p3", "capped_p6"])
def test_energy_start_is_its_fiber_minimum(case, p6_setup):
    # The energy flows start on the minimum of the start's fiber, where Q
    # vanishes: |Q| falls a thousandfold and F does not rise.
    params = Params(gamma=1.0, a=0.0, p=3.0, c=1.0) if case == "ground_state_p3" \
        else p6_setup
    extent, _ = BENCH_256[case]
    grid = make_grid(extent, 64)
    obj = solvers._Energy(params, "start",
                          None if case == "ground_state_p3" else k0(params))
    given = Evaluation(normalize(discretize(ProfileSpec.gaussian(sigma=1.5), grid),
                               params.c))
    start = obj.start(given)
    assert abs(start.Q(params)) <= 1e-3 * abs(given.Q(params))
    assert start.F(params) <= given.F(params)
    assert mass(start.u) == pytest.approx(params.c, rel=1e-12)


def test_capped_start_above_the_cap_is_pulled_inside(p6_setup):
    # A start above 0.9 k0 is moved to its fiber minimum, strictly inside
    # the cap, and the flow from there certifies an interior minimizer.
    cap = k0(p6_setup)
    grid = make_grid(24.0, 64)
    obj = solvers._Energy(p6_setup, "start", cap)
    given = Evaluation(normalize(discretize(ProfileSpec.gaussian(sigma=0.4), grid),
                               p6_setup.c))
    assert given.A > 0.9 * cap
    assert obj.start(given).A < cap
    rep = local_minimize_capped(p6_setup, grid, CFG, ProfileSpec.gaussian(sigma=0.4))
    assert rep.converged and rep.extras["cap_interior"]


def test_capped_flow_refuses_a_start_above_the_cap(p6_setup):
    # The flow itself takes no start with A >= k0 (the solvers hand it the
    # start's fiber minimum instead), and its refusal names both.
    cap = k0(p6_setup)
    start = Evaluation(normalize(discretize(ProfileSpec.gaussian(sigma=0.4),
                                            make_grid(24.0, 64)), p6_setup.c))
    A = start.A
    assert A >= cap
    with pytest.raises(RegimeError, match="capped: initial field is not admissible: "
                       f"its A = {A:.6g} is not below the kinetic cap "
                       f"k0 = {cap:.6g}$"):
        solvers._flow(start, solvers._Energy(p6_setup, "capped", cap), CFG)


def test_start_whose_fiber_minimum_leaks_is_kept():
    # The fiber minimum of this off-centre start is twice as wide and twice
    # as far out, through the boundary frame: the start is kept as given,
    # and the solve is the flow from it.
    pr = Params(gamma=1.0, a=0.0, p=3.0, c=1.0)
    grid = make_grid(40.0, 64)
    init = ProfileSpec.gaussian(sigma=1.0, center=(7.0, 0.0))
    u0 = normalize(discretize(init, grid), pr.c)
    obj = solvers._Energy(pr, "global_minimize")
    given = Evaluation(u0)
    s = _critical_point(scalars(given, pr), "plus").s
    with pytest.raises(DomainError):
        dilate(u0, s)
    assert obj.start(given) is given
    rep = global_minimize(pr, grid, CFG, init)
    direct = solvers._flow(Evaluation(u0), obj, CFG)
    assert rep.converged and direct.error is None
    assert np.array_equal(rep.field.values, direct.pt.ev.u.values)
    assert rep.iters == direct.iters


def test_certificate_reads_the_flow_gradient(choquard_report):
    # The s = 1 gradient is computed once per evaluation and kept, and the
    # Euler-Lagrange certificate read from it is bit-identical to one
    # computed from a fresh gradient.
    pr, rep = choquard_report
    ev = Evaluation(rep.field)
    grad = ev.grad(pr)
    assert ev.grad(pr) is grad and not grad.flags.writeable
    lam = ev.lam(pr)
    vals, h2 = rep.field.values, rep.field.grid.h ** 2
    fresh = (Evaluation(rep.field).neg_lap + pr.gamma * Evaluation(rep.field).w * vals
             - pr.a * np.abs(vals) ** (pr.p - 2.0) * vals)
    defect = np.sqrt(h2 * np.sum((fresh + lam * vals) ** 2))
    want = float(defect / (1.0 + np.sqrt(h2 * np.sum(fresh * fresh))
                           + abs(lam) * np.sqrt(mass(rep.field))))
    assert ev.el_residual(pr, lam) == want == rep.el_res


# ---------------------------------------------------------------------------
# Global minimization
# ---------------------------------------------------------------------------


def test_choquard_ground_state_certified(choquard_report):
    pr, rep = choquard_report
    assert rep.converged
    assert abs(rep.q_value) < 1e-3
    assert rep.pohozaev_res < 1e-3
    assert rep.el_res < 1e-3
    assert mass(rep.field) == pytest.approx(1.0, abs=1e-10)
    # Q = 0 with a = 0 forces A = gamma c^2 / 4
    assert rep.breakdown.A == pytest.approx(0.25, abs=1e-3)
    assert rep.extras["boundary_mass_fraction"] < 1e-8


def _descent_report(request, name):
    rep = request.getfixturevalue(name)
    return rep[1] if isinstance(rep, tuple) else rep


@pytest.mark.parametrize("name", ["choquard_report", "capped_report",
                                  "choquard_256", "capped_256"])
def test_monotone_descent(request, name):
    # Each level of the grid ladder is one descent.
    rep = _descent_report(request, name)
    levels = [lv for lv in rep.extras["levels"] if "iters" in lv]
    assert sum(lv["iters"] + 1 for lv in levels) == len(rep.trace)
    rows = iter(rep.trace)
    for lv in levels:
        fs = [next(rows).F for _ in range(lv["iters"] + 1)]
        assert all(fs[i + 1] <= fs[i] + 1e-14 for i in range(len(fs) - 1))


@pytest.mark.parametrize("name", ["choquard_report", "capped_report"])
def test_descent_is_preconditioned(request, name):
    # Energy descent steps in the H^1 metric: tens of iterations, not hundreds.
    assert _descent_report(request, name).iters <= 40


@pytest.mark.parametrize("name", ["choquard_report", "capped_report"])
def test_kinetic_off_the_padded_domain(request, name):
    # A on the periodic n x n grid against A on the zero-padded 2n x 2n
    # domain, on a converged field: the move off the doubled domain costs
    # at most 1e-9 relative.
    u = _descent_report(request, name).field
    want = padded_reference(u, kernel_table(u.grid))[0]
    assert abs(Evaluation(u).A - want) <= 1e-9 * want


def test_global_minimize_translation_robust(choquard_report):
    pr, rep = choquard_report
    grid = make_grid(40.0, 128)
    shifted = global_minimize(pr, grid, CFG,
                              ProfileSpec.gaussian(sigma=1.5, center=(3.0, 2.0)))
    assert shifted.objective == pytest.approx(rep.objective, abs=1e-4)


def test_global_minimize_deterministic(choquard_report):
    pr, rep = choquard_report
    grid = make_grid(40.0, 128)
    again = global_minimize(pr, grid, CFG, ProfileSpec.gaussian(sigma=1.5))
    assert again.objective == rep.objective


def test_global_minimize_regime_refusal():
    pr = Params(gamma=-1.0, a=-1.0, p=3.0, c=1.0)
    with pytest.raises(RegimeError):
        global_minimize(pr, make_grid(40.0, 128), CFG,
                        ProfileSpec.gaussian(sigma=1.0))


def test_global_minimize_supercritical_refused(p6_setup):
    with pytest.raises(RegimeError):
        global_minimize(p6_setup, make_grid(24.0, 128), CFG,
                        ProfileSpec.gaussian(sigma=1.0))


def test_report_summary_payload(choquard_report, plus_report):
    _, rep = choquard_report
    payload = rep.summary()
    for key in ("converged", "objective_F", "lambda", "q_residual",
                "pohozaev_residual", "el_residual", "breakdown", "regime"):
        assert key in payload
    assert payload["regime"]["tag"] == "GlobalMin"
    assert payload["objective_F"] == rep.objective == rep.breakdown.F
    names = {f.name for f in dataclasses.fields(rep)}
    assert not {"objective", "branch", "s_branch", "gpp"} & names
    assert not {"branch", "s_branch", "gpp", "recenters"} & payload.keys()
    # a fiber-branch solve adds its branch point and recenters from extras
    payload = plus_report.summary()
    assert payload["objective_F"] == plus_report.breakdown.F
    assert payload["branch"] == "plus" and payload["gpp"] > 0
    assert payload["s_branch"] == pytest.approx(1.0, abs=1e-6)
    assert payload["recenters"] == plus_report.extras["recenters"]


# ---------------------------------------------------------------------------
# Capped local minimization and branch flows (gamma > 0, p > 4)
# ---------------------------------------------------------------------------


def test_capped_interior_certified(capped_report, p6_setup):
    rep = capped_report
    cap = k0(p6_setup)
    assert rep.converged
    assert rep.breakdown.A < cap
    assert rep.extras["cap_interior"]
    assert abs(rep.q_value) < 1e-3 * (rep.breakdown.A + cap)
    assert rep.el_res < 1e-3


def test_capped_init_precontraction(p6_setup):
    # a too-concentrated init is moved inside the cap along its fiber
    grid = make_grid(24.0, 128)
    rep = local_minimize_capped(p6_setup, grid, CFG,
                                ProfileSpec.gaussian(sigma=0.4))
    assert rep.converged
    assert rep.breakdown.A < k0(p6_setup)


def test_capped_rejects_supercritical_mass(p6_setup):
    pr = Params(gamma=1.0, a=1.0, p=6.0, c=2.5 * p6_setup.c)
    with pytest.raises(RegimeError):
        local_minimize_capped(pr, make_grid(24.0, 128), CFG,
                              ProfileSpec.gaussian(sigma=1.0))


def test_branch_plus_matches_capped(capped_report, plus_report):
    assert plus_report.converged
    assert plus_report.extras["branch"] == "plus"
    assert plus_report.extras["gpp"] > 0
    assert plus_report.objective == pytest.approx(capped_report.objective,
                                                  abs=1e-3)


def test_branch_minus_above_plus(p6_setup, plus_report, ladder_reports):
    rep = ladder_reports["minus_p6"]
    assert rep.converged
    assert rep.extras["branch"] == "minus" and rep.extras["gpp"] < 0
    assert abs(rep.extras["s_branch"] - 1.0) < 1e-6
    assert rep.objective > plus_report.objective > 0.0
    assert abs(rep.q_value) < 1e-3 * (rep.breakdown.A + 0.25 * p6_setup.c ** 2)
    assert rep.el_res < 1e-3


def test_branch_requires_valid_regime():
    pr = Params(gamma=1.0, a=1.0, p=3.0, c=1.0)
    with pytest.raises(RegimeError):
        lambda_branch_minimize(pr, make_grid(24.0, 128), CFG,
                               ProfileSpec.gaussian(sigma=1.0), "plus")
    with pytest.raises(ValueError):
        lambda_branch_minimize(pr, make_grid(24.0, 128), CFG,
                               ProfileSpec.gaussian(sigma=1.0), "sideways")


# ---------------------------------------------------------------------------
# Grid ladder
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(BENCH_256))
def test_ladder_keeps_the_direct_answer(name, ladder_reports):
    # Within the flow's stop band of the direct 256^2 solve, and certified
    # on the 256^2 grid.
    rep = ladder_reports[name]
    assert rep.converged
    assert rep.field.grid.n == 256
    assert rep.objective == pytest.approx(BENCH_256[name][1], rel=1e-7)
    assert max(rep.q_residual, rep.el_res, rep.pohozaev_res) < 1e-3


@pytest.mark.parametrize("name", ["ground_state_p3", "capped_p6", "plus_p6"])
def test_ladder_levels(name, ladder_reports):
    # The log convolution is spectral, so the 64^2 solution already passes
    # the stop test at 128^2 and at 256^2, and F agrees across the grids to
    # rounding.
    rep = ladder_reports[name]
    coarsest, middle, fine = rep.extras["levels"]
    assert (coarsest["n"], middle["n"], fine["n"]) == (64, 128, 256)
    assert (middle["iters"], fine["iters"]) == (0, 0)
    assert fine["F"] == rep.objective
    assert rep.extras["F_err_grid"] == abs(fine["F"] - middle["F"]) < 1e-9 * rep.objective
    assert rep.iters == coarsest["iters"] > 0
    assert [row.iter for row in rep.trace] == list(range(len(rep.trace)))
    assert len(rep.trace) == rep.iters + 3


def test_ladder_middle_level_iterates():
    # At c = 0.3 c0 the 64^2 solution does not pass the stop test at 128^2:
    # the middle level iterates (2 steps after 7 at 64^2), and the 256^2
    # level certifies its answer with none.
    p = 6.0
    pr = Params(gamma=1.0, a=1.0, p=p, c=0.3 * c0(p, 1.0, 1.0, kgn_estimate(p)))
    rep = lambda_branch_minimize(pr, make_grid(24.0, 256), CFG,
                                 gaussian_on_branch(pr, "plus"), "plus")
    coarsest, middle, fine = rep.extras["levels"]
    assert (coarsest["n"], middle["n"], fine["n"]) == (64, 128, 256)
    assert rep.converged
    assert middle["iters"] > 0 and fine["iters"] == 0
    assert rep.iters == coarsest["iters"] + middle["iters"]
    assert fine["F"] == rep.objective
    assert rep.extras["F_err_grid"] == abs(fine["F"] - middle["F"]) < 1e-9 * rep.objective
    assert len(rep.trace) == rep.iters + 3


def test_ladder_stacks_its_levels(p6_setup, ladder_reports):
    # plus_p6 recenters, so its report sums the recenters of every level;
    # the levels rebuilt one by one, with one objective, give the same report.
    rep = ladder_reports["plus_p6"]
    grids = [make_grid(24.0, n) for n in (64, 128, 256)]
    c = p6_setup.c
    init = gaussian_on_branch(p6_setup, "plus")
    obj = solvers._FiberBranch(p6_setup, "lambda_branch_minimize[plus]", "plus")

    def level(u, grid):
        run = solvers._flow(Evaluation(u), obj, CFG)
        assert run.error is None
        return run

    # The profile is sampled on the coarsest grid, where the flow starts.
    runs = [level(normalize(discretize(init, grids[0]), c), grids[0])]
    for grid in grids[1:]:
        runs.append(level(normalize(prolong(runs[-1].pt.ev.u, grid), c), grid))
    assert np.array_equal(rep.field.values, runs[-1].pt.ev.u.values)
    assert rep.iters == sum(r.iters for r in runs)
    assert rep.extras["recenters"] == sum(r.recenters for r in runs) >= 1
    assert [(r.F, r.A) for r in rep.trace] == [(r.F, r.A) for run in runs
                                                for r in run.trace]


def test_ladder_certifies_once(monkeypatch):
    # The 64^2 and 128^2 levels pass up their fields and numbers only: a
    # 256^2 solve computes one certificate, on the 256^2 grid.
    calls = []
    finalize = solvers._finalize
    monkeypatch.setattr(solvers, "_finalize",
                        lambda ev, *args: calls.append(ev.u.grid.n) or finalize(ev, *args))
    rep = global_minimize(Params(gamma=1.0, a=0.0, p=3.0, c=1.0),
                          make_grid(40.0, 256), CFG, ProfileSpec.gaussian(sigma=1.5))
    assert rep.converged
    assert [lv["n"] for lv in rep.extras["levels"]] == [64, 128, 256]
    assert calls == [256]


@pytest.mark.parametrize("name", sorted(BENCH_256))
@pytest.mark.parametrize("scale", [1.0 + 2.0 ** -52, 1.0 - 2.0 ** -52],
                         ids=["ulp_up", "ulp_down"])
def test_one_ulp_change_of_the_start(name, scale, p6_setup, ladder_reports):
    # A guard, not a known defect: every start value moved by one ulp moves
    # F by at most 1e-11 relative and the iteration count by at most one.
    base = ladder_reports[name]
    rep = _bench_solve(name, p6_setup, base.field.grid, scale=scale)
    assert rep.converged
    assert rep.objective == pytest.approx(base.objective, rel=1e-11)
    assert abs(rep.iters - base.iters) <= 1


def test_minus_p6_shows_its_grid_error(p6_setup, ladder_reports):
    # minus_p6's core is under-resolved at 256^2: 6.4e-3 of its L2 norm lies
    # above half the Nyquist frequency, and F moves by 1.7e-5 relative to
    # 512^2, where the 256^2 level converges and F_err_grid reports the move.
    coarse = ladder_reports["minus_p6"]
    assert coarse.extras["spectral_tail"] == pytest.approx(6.44e-3, rel=1e-2)
    fine = _bench_solve("minus_p6", p6_setup, make_grid(16.0, 512))
    assert fine.converged
    assert [lv["n"] for lv in fine.extras["levels"]] == [64, 128, 256, 512]
    assert ["refused" in lv for lv in fine.extras["levels"]] == [True, True, False, False]
    assert fine.extras["F_err_grid"] == pytest.approx(fine.objective - coarse.objective,
                                                      rel=1e-6)
    assert (fine.objective - coarse.objective) / fine.objective == \
        pytest.approx(1.74e-5, rel=2e-2)
    assert fine.extras["spectral_tail"] == pytest.approx(8.27e-5, rel=1e-2)


@pytest.mark.parametrize("name", ["ground_state_p3", "capped_p6", "plus_p6"])
def test_resolved_solutions_have_no_spectral_tail(name, ladder_reports):
    assert ladder_reports[name].extras["spectral_tail"] < 1e-6


def test_ladder_refusal_falls_back_to_the_direct_solve(p6_setup, ladder_reports):
    # minus_p6's start is narrower than the 64^2 and the 128^2 grid
    # resolve: both levels are refused, and the 256^2 flow is the direct
    # solve, bit for bit.
    rep = ladder_reports["minus_p6"]
    *refused, fine = rep.extras["levels"]
    assert [lv["n"] for lv in refused] == [64, 128]
    assert all("grid too coarse" in lv["refused"] for lv in refused)
    assert "F_err_grid" not in rep.extras
    assert (fine["n"], fine["iters"]) == (256, rep.iters)
    grid = make_grid(16.0, 256)
    u0 = normalize(discretize(gaussian_on_branch(p6_setup, "minus"), grid), p6_setup.c)
    obj = solvers._FiberBranch(p6_setup, "lambda_branch_minimize[minus]", "minus")
    direct = solvers._flow(Evaluation(u0), obj, CFG)
    assert direct.error is None
    assert rep.objective == direct.pt.ev.F(p6_setup)
    assert np.array_equal(rep.field.values, direct.pt.ev.u.values)
    assert rep.extras["recenters"] == direct.recenters


def test_ladder_skips_grids_below_twice_the_floor(p6_setup):
    rep = local_minimize_capped(p6_setup, make_grid(24.0, 64), CFG,
                                ProfileSpec.gaussian(sigma=1.5))
    assert rep.converged
    assert rep.extras["levels"] == [{"n": 64, "iters": rep.iters, "F": rep.objective}]
    assert "F_err_grid" not in rep.extras


def test_ladder_recurses_to_the_floor():
    pr = Params(gamma=1.0, a=0.0, p=3.0, c=1.0)
    rep = global_minimize(pr, make_grid(40.0, 512), SolverConfig(),
                          ProfileSpec.gaussian(sigma=1.5))
    assert rep.converged
    assert [lv["n"] for lv in rep.extras["levels"]] == [64, 128, 256, 512]
    assert [lv["iters"] for lv in rep.extras["levels"][1:]] == [0, 0, 0]
    assert rep.iters == sum(lv["iters"] for lv in rep.extras["levels"])
    # 0.311422097390 is the F of a direct 512^2 flow from the same start,
    # projected onto its fiber minimum.
    assert rep.objective == pytest.approx(0.311422097390, rel=1e-9)
    assert rep.extras["F_err_grid"] == abs(rep.objective
                                           - rep.extras["levels"][2]["F"])


def test_ladder_nonconvergence_reports_every_level():
    # With no iteration the 64^2 and 128^2 levels fail to converge and are
    # refused; the 256^2 level then starts from the start sampled on its
    # own grid and fails too, and its report lists all three levels.
    pr = Params(gamma=1.0, a=0.0, p=3.0, c=1.0)
    with pytest.raises(ConvergenceError) as exc:
        global_minimize(pr, make_grid(40.0, 256), SolverConfig(max_iter=0),
                        ProfileSpec.gaussian(sigma=1.5))
    *refused, fine = exc.value.report.extras["levels"]
    assert [lv["n"] for lv in refused] == [64, 128]
    assert all("no certified convergence" in lv["refused"] for lv in refused)
    assert (fine["n"], fine["iters"]) == (256, 0)


def test_profile_too_fine_for_a_coarse_level_is_sampled_above_it():
    # A random_smooth cutoff of 40 aliases on the 64^2 grid but not on
    # 128^2: the 64^2 level is refused, and the 128^2 flow starts from the
    # profile sampled on its own grid.
    pr = Params(gamma=1.0, a=0.0, p=3.0, c=1.0)
    grid = make_grid(40.0, 128)
    init = ProfileSpec.random_smooth(seed=1, cutoff=40)
    with pytest.raises(ConvergenceError) as exc:
        global_minimize(pr, grid, SolverConfig(max_iter=0), init)
    refused, fine = exc.value.report.extras["levels"]
    assert refused["n"] == 64 and "cutoff 40 exceeds" in refused["refused"]
    assert (fine["n"], fine["iters"]) == (128, 0)
    obj = solvers._Energy(pr, "global_minimize")
    start = obj.start(Evaluation(normalize(discretize(init, grid), pr.c)))
    assert np.array_equal(exc.value.report.field.values, start.u.values)


def test_too_coarse_a_grid_is_a_resolution_error(p6_setup):
    # The minus-branch start of p6_setup has its width below two cells of a
    # 64^2 grid on L = 16: that is the grid's fault, not the regime's.
    with pytest.raises(ResolutionError, match="grid too coarse") as exc:
        lambda_branch_minimize(p6_setup, make_grid(16.0, 64), CFG,
                               gaussian_on_branch(p6_setup, "minus"), "minus")
    assert not isinstance(exc.value, RegimeError)


def test_flow_pinned_at_the_cap_is_refused():
    # A cap just above the start's A: the wide start flows toward the
    # narrower minimizer until every trial step reaches the cap, and the
    # exhausted line search refuses the run with CapBoundaryError at the
    # last iterate, which sits at the cap.
    pr = Params(gamma=1.0, a=0.0, p=3.0, c=1.0)
    start = Evaluation(discretize(ProfileSpec.gaussian(sigma=3.0), make_grid(40.0, 64)))
    cap = 1.01 * start.A
    run = solvers._flow(start, solvers._Energy(pr, "capped", cap), CFG)
    assert isinstance(run.error, CapBoundaryError)
    assert "pinned at the kinetic cap" in str(run.error)
    assert 0.999 * cap < run.pt.ev.A < cap


def test_exhausted_line_search_says_where_it_stopped(monkeypatch):
    # No trial step can pass an Armijo test asking for 1e9 times the
    # predicted decrease: the flow stops at its first iteration, and the
    # error says so instead of blaming the iteration budget.
    monkeypatch.setattr(solvers, "_ARMIJO", 1e9)
    with pytest.raises(ConvergenceError, match="at iteration 0 on 64\\^2: the line "
                       "search found no descent step") as exc:
        global_minimize(Params(gamma=1.0, a=0.0, p=3.0, c=1.0), make_grid(40.0, 64),
                        SolverConfig(), ProfileSpec.gaussian(sigma=1.5))
    assert "within 8000 iterations" not in str(exc.value)
    assert exc.value.report.iters == 0 and not exc.value.report.converged


def test_branch_flow_against_the_resolution_guard_is_refused(p6_setup):
    # A minus-branch start 5% wider than gaussian_on_branch's concentrates
    # on L = 16 past what 128^2 resolves: trial steps fail the resolution
    # guard until the line search is exhausted, a GuardFloorError whose
    # report lists the refused 64^2 level and the 128^2 iterations.
    spec = gaussian_on_branch(p6_setup, "minus")
    wider = ProfileSpec.gaussian(sigma=1.05 * spec.sigma, c=spec.c)
    with pytest.raises(GuardFloorError, match="step floor") as exc:
        lambda_branch_minimize(p6_setup, make_grid(16.0, 128), CFG, wider, "minus")
    levels = exc.value.report.extras["levels"]
    assert [lv["n"] for lv in levels] == [64, 128]
    assert "grid too coarse" in levels[0]["refused"]
    # The count of a flow that concentrates past the grid depends on the
    # last bits of every fiber root it takes.
    assert levels[1]["iters"] == 29


def test_boundary_leak_is_refused_at_the_third_strike(monkeypatch):
    # A boundary mass fraction of 1e-6 is below the 1e-4 that refuses at
    # once but above the admissible 1e-8: the flow, checked every 25
    # iterations and kept from converging, refuses at its third check in a
    # row, at iteration 50.
    calls = []
    monkeypatch.setattr(solvers, "boundary_mass_fraction",
                        lambda u: calls.append(u.grid.n) or 1e-6)
    monkeypatch.setattr(solvers, "_TOL_GRAD", 0.0)
    monkeypatch.setattr(solvers, "_ARMIJO", -np.inf)
    with pytest.raises(DomainError, match="fraction 1.00e-06"):
        global_minimize(Params(gamma=1.0, a=0.0, p=3.0, c=1.0), make_grid(40.0, 64),
                        SolverConfig(max_iter=120), ProfileSpec.gaussian(sigma=1.5))
    assert calls == [64, 64, 64]


def test_recenters_are_capped_at_eight(p6_setup, monkeypatch):
    # With no Q tolerance to meet, plus_p6 recenters each time its tangent
    # gradient converges, 8 times, and then stops at the stationarity floor.
    monkeypatch.setattr(solvers, "_TOL_Q", 0.0)
    with pytest.raises(ConvergenceError, match="at iteration 18 on 64\\^2: the "
                       "stationarity floor is reached") as exc:
        lambda_branch_minimize(p6_setup, make_grid(24.0, 64), CFG,
                               gaussian_on_branch(p6_setup, "plus"), "plus")
    assert exc.value.report.extras["recenters"] == 8
    assert exc.value.report.iters == 18


def test_refused_recenter_reports_its_last_admissible_point(p6_setup, monkeypatch):
    # A recenter that dilates by 3 in place of s concentrates plus_p6 past
    # what the grid resolves.  The 64^2 level is refused, and the 128^2
    # level, which admits one such recenter, refuses the second with a
    # report on its last admissible point (it once raised with no report).
    recenter = solvers._FiberBranch.recenter

    def dilate_by_3(self, pt, stalled, recenters):
        moved = recenter(self, pt, stalled, recenters)
        return None if moved is None else normalize(dilate(pt.ev.u, 3.0), self.params.c)

    monkeypatch.setattr(solvers._FiberBranch, "recenter", dilate_by_3)
    with pytest.raises(GuardFloorError, match="recentered iterate is no longer "
                       "admissible") as exc:
        lambda_branch_minimize(p6_setup, make_grid(24.0, 128), CFG,
                               gaussian_on_branch(p6_setup, "plus"), "plus")
    report = exc.value.report
    assert report is not None and not report.converged
    coarse, fine = report.extras["levels"]
    assert coarse["n"] == 64 and "no longer admissible" in coarse["refused"]
    assert fine == {"n": 128, "iters": report.iters, "F": report.objective}
    assert report.extras["recenters"] == 1
    assert report.field.grid.n == 128
    assert report.extras["s_branch"] == pytest.approx(1.0 / 3.0, rel=0.01)


# The scaling v = kappa u maps a solution at (gamma, a, 6, c) to one at
# (gamma/kappa^2, a/kappa^4, 6, c kappa^2) with F scaled by kappa^2, and a
# power-of-two kappa maps the discrete problem onto itself exactly.  The
# flow's rules are not in the problem's units (ROADMAP item 10): at
# kappa = 2^-10 the plus-branch solve reports convergence after 0
# iterations with F 4.5e-3 off the mapped base.
def _plus_orbit_F(kappa: float) -> float:
    pr = Params(gamma=kappa ** -2, a=kappa ** -4, p=6.0, c=kappa ** 2)
    rep = lambda_branch_minimize(pr, make_grid(40.0, 256), SolverConfig(),
                                 gaussian_on_branch(pr, "plus"), "plus")
    return rep.objective / kappa ** 2


@pytest.fixture(scope="module")
def plus_orbit_base_F():
    return _plus_orbit_F(1.0)


def test_scale_orbit_maps_plus_solution(plus_orbit_base_F):
    assert _plus_orbit_F(2.0) == pytest.approx(plus_orbit_base_F, rel=1e-8)


@pytest.mark.xfail(raises=AssertionError,
                   reason="flow rules depend on the units of (gamma, a, c) "
                          "(ROADMAP item 10)")
def test_scale_orbit_maps_plus_solution_far_along_the_orbit(plus_orbit_base_F):
    assert _plus_orbit_F(2.0 ** -10) == pytest.approx(plus_orbit_base_F, rel=1e-8)


def test_recenter_far_from_the_branch_point(p6_setup):
    # A minus start of 0.6 times the on-branch width has its branch point
    # s > 1.4: the |s - 1| > 0.4 rule of _FiberBranch.recenter moves it onto
    # the branch and the flow converges to minus_p6.  Without the rule it
    # stops with GuardFloorError.
    spec = ProfileSpec.gaussian(sigma=0.1442, c=p6_setup.c)
    rep = lambda_branch_minimize(p6_setup, make_grid(16.0, 256), CFG, spec, "minus")
    assert rep.converged and rep.extras["recenters"] >= 1
    assert rep.objective == pytest.approx(BENCH_256["minus_p6"][1], rel=1e-9)


@pytest.mark.parametrize("solver, other", [
    (global_minimize, Params(gamma=1.0, a=0.0, p=3.0, c=1.0)),
    (local_minimize_capped, None),
    (lambda_branch_minimize, None),
], ids=["global_with_p3", "capped_with_other_c", "branch_with_other_c"])
def test_a_regime_label_of_another_tuple_is_refused(solver, other, p6_setup):
    # The GlobalMin label of (1, 0, 3, 1) once let global_minimize solve
    # p6_setup, which has no global minimum, and certify it for p = 3; a
    # label of 0.9 c passed as the label of c.
    other = other or dataclasses.replace(p6_setup, c=0.9 * p6_setup.c)
    label = regime_classify(other, sharp_constants(other.p))
    args = (p6_setup, make_grid(24.0, 64), CFG, ProfileSpec.gaussian(sigma=1.5))
    if solver is lambda_branch_minimize:
        args += ("plus",)
    with pytest.raises(ValueError, match=r"certifies \(gamma, a, p, c\) = "
                       rf"\({other.gamma}, {other.a}, {other.p}, {other.c}\), not"):
        solver(*args, regime=label)
    if solver is global_minimize:
        with pytest.raises(RegimeError):
            solver(*args)


def test_init_field_on_another_grid_is_refused():
    u = normalize(discretize(ProfileSpec.gaussian(sigma=1.5), make_grid(40.0, 64)), 1.0)
    with pytest.raises(ValueError, match="different grid"):
        global_minimize(Params(gamma=1.0, a=0.0, p=3.0, c=1.0), make_grid(40.0, 128),
                        CFG, u)


# ---------------------------------------------------------------------------
# gamma < 0 maximization
# ---------------------------------------------------------------------------


def test_lambda_maximize_below_threshold_refused():
    pr = Params(gamma=-1.0, a=0.5, p=3.0, c=1.0)
    with pytest.raises(RegimeError):
        lambda_maximize(pr)


def _window_params(p, where):
    t1, t2 = a_thresholds(p, -1.0, 1.0, kgn_estimate(p))
    a = t1 if where == "lower" else 0.5 * (t1 + t2)
    return Params(gamma=-1.0, a=a, p=p, c=1.0), t2


def _refusal_bound(pr, t2, monkeypatch):
    """The t*^2 A bound quoted by lambda_maximize's refusal, which must name
    T2 and build no kernel table."""
    import planarsp.functionals as functionals

    def no_table(grid):
        raise AssertionError("the refusal must not build a kernel table")

    monkeypatch.setattr(functionals, "kernel_table", no_table)
    with pytest.raises(RegimeError, match="Pohozaev set is empty") as exc:
        lambda_maximize(pr, "minus")
    bound = (pr.a / t2) ** (2.0 / (4.0 - pr.p)) * k0(pr)
    assert f"T2 = {t2}" in str(exc.value)
    assert f"k0 = {bound}" in str(exc.value)
    return bound


def test_lambda_maximize_published_window_is_empty(monkeypatch):
    # Midway between the published T1/T2 thresholds the Pohozaev set is
    # empty (the sharp Gagliardo-Nirenberg bound keeps t*^2 A below k0), so
    # the solver refuses by certificate.
    pr, t2 = _window_params(3.0, "mid")
    assert _refusal_bound(pr, t2, monkeypatch) < k0(pr)


def test_lambda_maximize_threshold_refused(monkeypatch):
    # At a = T1 exactly the bound is k0/2: V is empty and so
    # is the Pohozaev set.
    pr, t2 = _window_params(3.0, "lower")
    assert _refusal_bound(pr, t2, monkeypatch) == pytest.approx(0.5 * k0(pr),
                                                                rel=1e-12)


def test_lambda_maximize_unknown_branch_is_refused_first():
    pr, _ = _window_params(3.0, "mid")
    with pytest.raises(ValueError):
        lambda_maximize(pr, "sideways")


@pytest.mark.parametrize("p", [2.5, 3.0, 3.5])
def test_gn_optimizer_attains_the_refusal_bound(p):
    # The identity the refusal rests on: the Gagliardo-Nirenberg optimizer
    # attains t*^2 A = (a/T2)^(2/(4-p)) k0, the largest value over all
    # fields of mass c, so no field reaches V below T2.
    pr, t2 = _window_params(p, "mid")
    sc = scalars(gn_profile_field(make_grid(40.0, 128), p, 1.0), pr)
    ratio = t_star(sc) ** 2 * sc.A / k0(pr)
    assert ratio == pytest.approx((pr.a / t2) ** (2.0 / (4.0 - p)), rel=1e-5)


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def test_two_bump_probe_rejects_wrong_regime():
    with pytest.raises(RegimeError):
        two_bump_probe(Params(gamma=1.0, a=70.0, p=3.0, c=1.0),
                       make_grid(80.0, 256), [1, 2])
    with pytest.raises(RegimeError):
        two_bump_probe(Params(gamma=-1.0, a=0.5, p=3.0, c=1.0),
                       make_grid(80.0, 256), [1, 2])


def test_two_bump_probe_rejects_small_domain():
    with pytest.raises(DomainError, match="needs extent 61.5, grid has 20.0;"):
        two_bump_probe(Params(gamma=-25.0, a=70.0, p=3.0, c=1.0),
                       make_grid(20.0, 128), [1, 2, 3, 4, 5, 6, 7, 8])
    # At 2 T1 the limit of Q is negative and the lobe is wide: one pair of
    # lobes needs the full extent 40.7.
    t1, _ = a_thresholds(3.0, -1.0, 1.0, kgn_estimate(3.0))
    with pytest.raises(DomainError, match="needs extent 40.7, grid has 40.0;"):
        two_bump_probe(Params(gamma=-1.0, a=2.0 * t1, p=3.0, c=1.0),
                       make_grid(40.0, 256), [1])


@pytest.mark.parametrize("n", [2.7, True, "3", 0, -1])
def test_two_bump_probe_refuses_an_entry_that_is_not_a_positive_integer(n):
    with pytest.raises(ValueError, match="n_list must hold positive integers"):
        two_bump_probe(Params(gamma=-25.0, a=70.0, p=3.0, c=1.0),
                       make_grid(80.0, 64), [1, n])


def test_two_bump_probe_refuses_a_nonnegative_limit():
    # At 1.2 T1 the bump lobes cannot make the disjoint-support limit of Q
    # negative: A - a (p-2)/p C + |gamma| c^2/4 = 0.155.  The limit needs
    # only the stationary lobe, so it is refused before the geometry: [1, 2]
    # once asked for extent 135.7, and 1.01 T1 for 80.6, on L = 80.
    t1, _ = a_thresholds(3.0, -1.0, 1.0, kgn_estimate(3.0))
    for ratio, n_list, q in ((1.2, [1], "0.1550"), (1.2, [1, 2], "0.1550"),
                             (1.01, [1], "0.1827")):
        with pytest.raises(RegimeError, match=f"two-bump limit Q = {q} is nonnegative"):
            two_bump_probe(Params(gamma=-1.0, a=ratio * t1, p=3.0, c=1.0),
                           make_grid(80.0, 256), n_list)


def test_two_bump_probe_refuses_a_lobe_wider_than_the_domain():
    # A stationary lobe that reaches the boundary frame cannot give the
    # limit of Q: the geometry is refused first.  Its radius is 8.27 at
    # 1.2 T1, so it needs L > 8.27/0.39 = 21.2.
    t1, _ = a_thresholds(3.0, -1.0, 1.0, kgn_estimate(3.0))
    with pytest.raises(DomainError, match="needs extent 67.8, grid has 20.0;"):
        two_bump_probe(Params(gamma=-1.0, a=1.2 * t1, p=3.0, c=1.0),
                       make_grid(20.0, 256), [1])


def _lobe_radius_oracle(params, m):
    """The radius of the bump exp(-1/(1 - (r/rho)^2)) of mass m that
    minimizes A - a (p-2)/p C, from its integrals over the unit disc by a
    96-node Gauss-Legendre rule in r: at amplitude alpha and radius rho,
    mass = alpha^2 rho^2 m1, A = alpha^2 a1, C = alpha^p rho^2 c1, and the
    minimum is where 2 A = a (p-2)^2/p C."""
    x, w = np.polynomial.legendre.leggauss(96)
    r, w = 0.5 * (x + 1.0), np.pi * (x + 1.0) * 0.5 * w   # weights of 2 pi r dr
    bump = np.exp(-1.0 / (1.0 - r * r))
    dbump = -2.0 * r / (1.0 - r * r) ** 2 * bump
    m1, a1, c1 = (float(np.sum(w * f)) for f in (bump ** 2, dbump ** 2, bump ** params.p))
    p = params.p
    coef = params.a * (p - 2.0) ** 2 / p
    ratio = 2.0 * m * a1 / m1 / (coef * (m / m1) ** (0.5 * p) * c1)
    return ratio ** (1.0 / (4.0 - p))


@pytest.mark.parametrize("gamma, a_over_t1, L, n", [(-25.0, None, 20.0, 512),
                                                     (-1.0, 3.0, 80.0, 256)])
def test_two_bump_lobe_radius_minimizes_its_q_contribution(gamma, a_over_t1, L, n,
                                                           monkeypatch):
    # Six cells are narrower than the optimal lobe on both grids, so the
    # probe's radius is the dilation of its trial lobe, and it matches the
    # closed form; at 256^2 only a trial lobe of many cells does.  a is 70
    # where a_over_t1 is None.
    t1, _ = a_thresholds(3.0, gamma, 1.0, kgn_estimate(3.0))
    pr = Params(gamma=gamma, a=70.0 if a_over_t1 is None else a_over_t1 * t1, p=3.0,
                c=1.0)
    grid = make_grid(L, n)
    radii = []
    lobes = solvers._two_bump_lobes
    monkeypatch.setattr(solvers, "_two_bump_lobes",
                        lambda g, rho, *args: radii.append(rho) or lobes(g, rho, *args))
    rows = two_bump_probe(pr, grid, [1, 2])
    rho = radii[-1]
    assert 6.0 * grid.h < rho == pytest.approx(_lobe_radius_oracle(pr, 0.9), rel=1e-9)
    assert rows[1].f < rows[0].f

    def q_part(radius):
        lobe, _ = lobes(grid, radius, 2.2 * radius, 1, (0.9, 0.1))
        return Evaluation(lobe).A - pr.a * (pr.p - 2.0) / pr.p * \
            pnorm(lobe, pr.p)

    assert q_part(0.95 * rho) > q_part(rho) < q_part(1.05 * rho)


def test_two_bump_probe_small_run():
    pr = Params(gamma=-25.0, a=70.0, p=3.0, c=1.0)
    rows = two_bump_probe(pr, make_grid(80.0, 512), [1, 2])
    assert rows[1].f < rows[0].f
    for r in rows:
        assert r.q < 0.0
        assert r.q == pytest.approx(r.q_pred, abs=1e-2)


def test_masscritical_probe_dichotomy():
    kgn4 = kgn_estimate(4.0)
    thr = mass_critical_threshold(1.0, kgn4)
    grid = make_grid(40.0, 128)
    sup = masscritical_probe(Params(gamma=1.0, a=1.0, p=4.0, c=1.2 * thr), grid)
    vals = [f for _, f in sup]
    assert all(vals[k + 1] < vals[k] for k in range(1, len(vals) - 1))
    sub = masscritical_probe(Params(gamma=1.0, a=1.0, p=4.0, c=0.8 * thr), grid)
    vals = [f for _, f in sub]
    arg = min(range(len(vals)), key=lambda i: vals[i])
    assert 0 < arg < len(vals) - 1


def test_masscritical_probe_regime_errors():
    grid = make_grid(40.0, 128)
    with pytest.raises(RegimeError):
        masscritical_probe(Params(gamma=1.0, a=1.0, p=3.0, c=1.0), grid)
    with pytest.raises(RegimeError):
        masscritical_probe(Params(gamma=-1.0, a=1.0, p=4.0, c=1.0), grid)
    with pytest.raises(RegimeError):
        masscritical_probe(Params(gamma=0.0, a=1.0, p=4.0, c=1.0), grid)


def test_solver_config_validation():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["max_iter", "trace"]
    with pytest.raises(ValueError):
        SolverConfig(max_iter=-1)
    for bad in ({"max_iter": 3.5}, {"max_iter": True}, {"trace": "no"},
                {"trace": 1}):
        with pytest.raises(TypeError):
            SolverConfig(**bad)
