"""Correctness checks computed apart from the program.

Nothing here imports planarsp.  Field invariants come from numpy alone, the
sharp Gagliardo-Nirenberg constant from a collocation solve of the radial
ground-state equation (the program uses shooting), and the regime tags from
the closed-form thresholds of the paper.  Every check returns a list of
problems; an empty list means the output passed.
"""

import json
import math

import numpy as np

EULER_GAMMA = 0.5772156649015329
TOWNES_MASS = 11.7009          # Weinstein: mass of the cubic ground state in R^2

TOL_Q = 1e-3                   # the solvers' default Pohozaev tolerance
TOL_RESIDUAL = 1e-3            # EL and Pohozaev-identity residuals
TOL_MASS = 1e-8
TOL_INVARIANT = 1e-6           # own A, C against the reported breakdown
TOL_F_MATCH = 1e-6             # F(plus_p6) against F(capped_p6)
TOL_KGN = 1e-6
TOL_TOWNES = 1e-5              # 11.7009 carries six digits
MIN_CLEARANCE = 0.05           # relative distance of a tuple to any threshold

# Rounded constants used only to place the classify tuples.
KGN_APPROX = {3.0: 0.38098, 4.0: 0.170927, 6.0: 0.047265}


# ---------------------------------------------------------------------------
# Closed-form thresholds
# ---------------------------------------------------------------------------


def k0(gamma, p, c):
    return (p - 2.0) * abs(gamma) * c ** 2 / (4.0 * abs(p - 4.0))


def c0(p, a, gamma, kgn):
    inner = (p * (p - 4.0) ** (0.5 * (p - 4.0)) / (p - 2.0) ** (0.5 * p)
             / (a * gamma ** (0.5 * (p - 4.0)) * kgn))
    return 2.0 * inner ** (1.0 / (p - 3.0))


def mass_critical_c(a, kgn4):
    return 2.0 / (a * kgn4)


def a_thresholds(p, gamma, c, kgn):
    k1 = (2.0 ** (-0.5 * (4.0 - p)) / kgn * p
          / (2.0 ** (3.0 - p) * (p - 2.0) ** (0.5 * p) * (4.0 - p) ** (0.5 * (4.0 - p))))
    factor = abs(gamma) ** (0.5 * (4.0 - p)) * c ** (3.0 - p)
    return k1 * factor, 2.0 ** (0.5 * (4.0 - p)) * k1 * factor


def expected_tag(gamma, a, p, c, kgn):
    """Regime of (gamma, a, p, c) from the paper's closed-form thresholds,
    together with the thresholds it was compared against."""
    if gamma > 0:
        if a <= 0 or p < 4:
            return "GlobalMin", []
        if p == 4:
            thr = mass_critical_c(a, kgn)
            return ("GlobalMinMassCritical" if c < thr else "OpenUnknown"), [(c, thr)]
        thr = c0(p, a, gamma, kgn)
        return ("LocalMinPlusMountainPass" if c < thr else "OpenUnknown"), [(c, thr)]
    if gamma < 0:
        if a <= 0:
            return "NoCriticalPoint", []
        if p >= 4:
            return "OpenUnknown", []
        t1, t2 = a_thresholds(p, gamma, c, kgn)
        pairs = [(a, t1), (a, t2)]
        if a < t1:
            return "LambdaEmpty", pairs
        if a < t2:
            return "TwoCriticalPointsOnLambda", pairs
        return "OpenUnknown", pairs
    return "OpenUnknown", []


# ---------------------------------------------------------------------------
# Sharp Gagliardo-Nirenberg constant by collocation
# ---------------------------------------------------------------------------


def _ground_state_bvp(p, r, y0):
    from scipy.integrate import solve_bvp

    def rhs(_, y):
        return np.vstack([y[1], y[0] - np.abs(y[0]) ** (p - 2.0) * y[0]])

    def bc(ya, yb):
        return np.array([ya[1], yb[0]])

    # Singular term S y / r carries the -phi'/r of the radial Laplacian.
    sol = solve_bvp(rhs, bc, r, y0, S=np.array([[0.0, 0.0], [0.0, -1.0]]),
                    tol=1e-10, max_nodes=100000)
    if not sol.success:
        raise RuntimeError(f"ground-state collocation failed at p={p}: {sol.message}")
    return sol


def reference_kgn(p, extent=25.0):
    """K_GN = C / (A^(p/2-1) m) of the radial ground state of
    -phi'' - phi'/r + phi = phi^(p-1), phi'(0) = 0, phi(R) = 0.

    Solved by collocation with continuation in p from p = 3, where a sech
    profile is close enough to start Newton's method."""
    from scipy.integrate import simpson

    r = np.linspace(0.0, extent, 600)
    y = np.vstack([2.4 / np.cosh(r), -2.4 * np.tanh(r) / np.cosh(r)])
    steps = max(2, int(abs(p - 3.0) / 0.25) + 1)
    for q in np.linspace(3.0, p, steps):
        sol = _ground_state_bvp(q, r, y)
        y = sol.sol(r)
    rr = np.linspace(0.0, extent, 100001)
    phi, dphi = sol.sol(rr)
    tau = 2.0 * np.pi * rr
    m = simpson(tau * phi * phi, x=rr)
    A = simpson(tau * dphi * dphi, x=rr)
    C = simpson(tau * np.abs(phi) ** p, x=rr)
    return C / (A ** (0.5 * p - 1.0) * m)


# ---------------------------------------------------------------------------
# Solver outputs
# ---------------------------------------------------------------------------


def invariants(values, extent, p):
    """(mass, A, C) of a sampled field: midpoint sums, and A by Parseval
    from the spectral gradient on the unpadded periodic grid."""
    n = values.shape[0]
    h = extent / n
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    spec = np.fft.fft2(values)
    A = h * h * float(np.sum((k[:, None] ** 2 + k[None, :] ** 2) * np.abs(spec) ** 2)) / n ** 2
    return h * h * float(np.sum(values * values)), A, h * h * float(np.sum(np.abs(values) ** p))


def best_gaussian_energy(gamma, a, p, c):
    """min over sigma of F at the mass-c Gaussian of width sigma:
    A = c/sigma^2, C = (c/pi)^(p/2) (2 pi/p) sigma^(2-p),
    V = c^2 (1/2 (log 2 - gamma_E) + log sigma)."""
    from scipy.optimize import minimize_scalar

    def F(log_sigma):
        s = math.exp(log_sigma)
        A = c / s ** 2
        C = (c / math.pi) ** (0.5 * p) * (2.0 * math.pi / p) * s ** (2.0 - p)
        V = c * c * (0.5 * (math.log(2.0) - EULER_GAMMA) + log_sigma)
        return 0.5 * A + 0.25 * gamma * V - a / p * C

    res = minimize_scalar(F, bounds=(-4.0, 4.0), method="bounded",
                          options={"xatol": 1e-10})
    return float(res.fun)


def check_solution(name, gamma, a, p, c, extent, values, report):
    """Checks of one solve.  `values` is the returned field's sample array,
    `report` the solver report (converged, residuals, breakdown)."""
    problems = []
    if not report.converged:
        problems.append(f"{name}: not converged")
    for label, value, tol in (("q_residual", report.q_residual, TOL_Q),
                              ("el_res", report.el_res, TOL_RESIDUAL),
                              ("pohozaev_res", report.pohozaev_res, TOL_RESIDUAL)):
        if not value < tol:
            problems.append(f"{name}: {label} {value:.3e} not below {tol:g}")
    m, A, C = invariants(values, extent, p)
    if abs(m - c) > TOL_MASS * c:
        problems.append(f"{name}: mass {m!r} differs from c = {c!r}")
    for label, own, theirs in (("A", A, report.breakdown.A), ("C", C, report.breakdown.C)):
        if abs(own - theirs) > TOL_INVARIANT * abs(own):
            problems.append(f"{name}: reported {label} {theirs!r} differs from {own!r}")
    q = A - a * (p - 2.0) / p * C - 0.25 * gamma * c * c
    q_rel = abs(q) / (A + 0.25 * abs(gamma) * c * c)
    if not q_rel < TOL_Q:
        problems.append(f"{name}: field off the Pohozaev set, |Q|/scale = {q_rel:.3e}")
    gpp = 2.0 * A - a * (p - 2.0) ** 2 * C / p
    if name.startswith("plus") and not gpp > 0:
        problems.append(f"{name}: g''(1) = {gpp:.3e} is not positive")
    if name.startswith("minus") and not gpp < 0:
        problems.append(f"{name}: g''(1) = {gpp:.3e} is not negative")
    if name.startswith("ground_state"):
        bound = best_gaussian_energy(gamma, a, p, c)
        if not report.objective <= bound:
            problems.append(f"{name}: F = {report.objective!r} above the best "
                            f"Gaussian energy {bound!r}")
    if name.startswith("capped") and not A < k0(gamma, p, c):
        problems.append(f"{name}: A = {A!r} not strictly inside the cap {k0(gamma, p, c)!r}")
    return problems


def check_energy_order(F):
    """F maps case name to energy: F(minus_p6) > F(plus_p6) > 0, and
    F(plus_p6) = F(capped_p6) when both are present."""
    problems = []
    if "plus_p6" in F and "minus_p6" in F and not F["minus_p6"] > F["plus_p6"] > 0:
        problems.append(f"energies out of order: F(minus) = {F['minus_p6']!r}, "
                        f"F(plus) = {F['plus_p6']!r}")
    if "plus_p6" in F and "capped_p6" in F:
        diff = abs(F["plus_p6"] - F["capped_p6"])
        if diff > TOL_F_MATCH * abs(F["capped_p6"]):
            problems.append(f"F(plus_p6) = {F['plus_p6']!r} differs from "
                            f"F(capped_p6) = {F['capped_p6']!r}")
    return problems


# ---------------------------------------------------------------------------
# Classify outputs
# ---------------------------------------------------------------------------


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def check_classify(tup, returncode, stdout, kgn_ref):
    """Checks of one `planarsp classify` process for tup = (slot, gamma, a, p, c)."""
    slot, gamma, a, p, c = tup
    where = f"classify {slot} (gamma={gamma}, a={a}, p={p}, c={c})"
    if returncode != 0:
        return [f"{where}: exit code {returncode}"]
    try:
        payload = json.loads(stdout, parse_constant=_reject_constant)
        kgn = payload["thresholds"]["kgn"]
        tag = payload["tag"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{where}: bad JSON output ({exc})"]
    problems = []
    if not abs(kgn - kgn_ref) <= TOL_KGN * kgn_ref:
        problems.append(f"{where}: kgn {kgn!r} differs from the collocation value {kgn_ref!r}")
    if p == 4.0 and not abs(kgn - 2.0 / TOWNES_MASS) <= TOL_TOWNES * kgn:
        problems.append(f"{where}: kgn {kgn!r} differs from 2/{TOWNES_MASS}")
    want, pairs = expected_tag(gamma, a, p, c, kgn_ref)
    if tag != want:
        problems.append(f"{where}: tag {tag} but the closed-form thresholds give {want}")
    if want != slot:
        problems.append(f"{where}: tuple lands in {want}, not in its slot")
    for value, thr in pairs:
        if abs(value / thr - 1.0) < MIN_CLEARANCE:
            problems.append(f"{where}: {value!r} within {MIN_CLEARANCE:.0%} of threshold {thr!r}")
    return problems
