"""Sharp constants and the existence-regime classifier.

The best constant in the planar Gagliardo-Nirenberg inequality

    C(u) = ||u||_p^p <= K_GN * A(u)^(p/2-1) * ||u||_2^2

is attained at the radial ground state of -Delta phi + phi = phi^(p-1);
it is computed here by 1D shooting and cross-checked by a direct
Rayleigh-quotient ascent over a Gaussian-mixture family.  Every shoot runs
on Hairer's Fortran DOP853 (scipy's ode wrapper) and stops at the first
step end that settles its sign.  The bisection on phi(0) ends at two
adjacent floats; one more shoot from there gives the integrals and the
stopping radius from its last step end, and the profile as a cubic
Hermite interpolant of phi and phi' at its step ends.  From K_GN all
threshold constants of the problem follow in closed form:

    k0 = (p-2) |gamma| c^2 / (4 |p-4|)        kinetic cap level
    c0 = 2 [ p (p-4)^((p-4)/2) / (p-2)^(p/2) * 1/(a gamma^((p-4)/2) K_GN) ]^(1/(p-3))
    K1 = 2^(-(4-p)/2) / K_GN * p / (2^(3-p) (p-2)^(p/2) (4-p)^((4-p)/2))
    K2 = 2^((4-p)/2) K1

The classifier maps a parameter tuple (gamma, a, p, c) to the qualitative
structure of the constrained critical-point set, with a certificate that
records the inequality chain that fired.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np
from scipy.integrate import ode
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import minimize

from .errors import RegimeError, ShootingError
from .functionals import Params
from .grid import Field, Grid, ProfileSpec, discretize, mass, normalize

__all__ = [
    "RadialGroundState",
    "SharpConstants",
    "RegimeLabel",
    "REGIME_TAGS",
    "ground_state_radial",
    "kgn_estimate",
    "gaussian_rayleigh_quotient",
    "k0",
    "c0",
    "k1",
    "k2",
    "a_thresholds",
    "c_edges",
    "mass_critical_threshold",
    "kv2_estimate",
    "sharp_constants",
    "regime_classify",
    "gn_profile_field",
]

REGIME_TAGS = (
    "GlobalMin",
    "GlobalMinMassCritical",
    "LocalMinPlusMountainPass",
    "NoCriticalPoint",
    "LambdaEmpty",
    "MaxOnLambda",
    "TwoCriticalPointsOnLambda",
    "OpenUnknown",
)

# Relative tolerance by which the Gaussian-mixture ascent may exceed the
# shooting value before the estimate is rejected.
_RAYLEIGH_SLACK = 1e-3

# At most this many bisection steps on phi(0) in the ground-state shooting;
# the bisection stops earlier once the bracket is two adjacent floats
# (52 steps from [1, 2] or from [1, 2.8]).
_SHOOTING_BISECTIONS = 80


@dataclass(frozen=True)
class RadialGroundState:
    """Radial profile of the positive decaying solution of
    -phi'' - phi'/r + phi = phi^(p-1), with its integral invariants.

    r_stop is where the shoot from beta settled its sign, i.e. where the
    round-off in beta has grown to O(1); it moves with the last bits of
    beta.  r_decay is where the profile first falls to 1e-6 * beta, well
    above that noise."""

    p: float
    beta: float          # phi(0)
    r_stop: float
    r_decay: float
    mass: float          # 2*pi * int phi^2 r dr
    A: float             # 2*pi * int phi'^2 r dr
    C: float             # 2*pi * int phi^p r dr
    profile: CubicHermiteSpline = dc_field(repr=False)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = r < self.r_stop
        out[inside] = self.profile(r[inside])
        return np.maximum(out, 0.0)


# The radial integration runs from just off the origin to this radius, at
# these tolerances.
_R_SPAN = (1e-8, 40.0)
_RTOL, _ATOL = 1e-12, 1e-14


def _radial_rhs(p: float):
    """Right-hand side of the radial equation, carrying the mass, kinetic
    and p-norm integrals as extra states."""
    pm1 = p - 1.0
    two_pi = 2.0 * math.pi

    # Python floats: the same libm pow as numpy scalars, at a fraction of
    # the per-call overhead.
    def rhs(r, y):
        phi, dphi = float(y[0]), float(y[1])
        nl = math.copysign(abs(phi) ** pm1, phi)
        if r < 1e-12:
            ddphi = 0.5 * (phi - nl)
        else:
            ddphi = -dphi / r + phi - nl
        tau = two_pi * r
        return [dphi, ddphi, tau * phi * phi, tau * dphi * dphi,
                tau * abs(phi) ** p]

    return rhs


class _Shot(NamedTuple):
    sign: int            # -1 overshoot, +1 undershoot, 0 neither
    steps: list          # (r, phi, phi') at each step end, from _R_SPAN[0]
    state: np.ndarray    # phi, phi', mass, A, C at the last step end


def _shoot(beta: float, p: float) -> _Shot:
    """One shoot of the radial equation from phi(0) = beta.

    Runs Hairer's Fortran DOP853 through scipy's ode wrapper and stops at
    the first step end where phi <= 0 (checked first: sign -1, overshoot)
    or phi' >= 0 (sign +1, undershoot); sign 0 if neither happens before
    _R_SPAN[1].  The shot records r, phi and phi' at every step end it
    passed and the whole state at the last one.  A state too large for a
    float, or a failed DOP853 run (its first step below its floor once
    beta^(p-1) is huge), raises ShootingError naming p and beta."""
    p = float(p)
    rhs = _radial_rhs(p)
    r0 = _R_SPAN[0]
    sign = 0
    overflow: Optional[OverflowError] = None
    steps = []

    # An exception raised inside the Fortran callbacks is lost, so the
    # overflow is recorded and the integration stopped through solout.
    def guarded(r, y):
        nonlocal overflow
        try:
            return rhs(r, y)
        except OverflowError as exc:
            overflow = overflow or exc
            return [0.0] * 5

    def solout(r, y):
        nonlocal sign
        if overflow is not None:
            return -1
        steps.append((r, y[0], y[1]))
        if r == r0:
            return 0   # DOP853 reports the initial point, where phi' = 0
        if y[0] <= 0.0:
            sign = -1
        elif y[1] >= 0.0:
            sign = +1
        return -1 if sign else 0

    solver = ode(guarded).set_integrator("dop853", rtol=_RTOL, atol=_ATOL)
    solver.set_solout(solout)
    solver.set_initial_value([beta, 0.0, 0.0, 0.0, 0.0], r0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # a failed run is raised below
        solver.integrate(_R_SPAN[1])
    if overflow is not None:
        raise ShootingError(f"radial shooting overflowed for p={p} from "
                            f"phi(0)={beta!r}: {overflow}") from overflow
    if not solver.successful():
        raise ShootingError(f"radial shooting failed for p={p} from "
                            f"phi(0)={beta!r}: DOP853 return code "
                            f"{solver.get_return_code()}")
    # scipy's integrator holds solout in a reference cycle that only the
    # cyclic collector frees; emptying the list keeps the steps out of it.
    recorded = steps.copy()
    steps.clear()
    return _Shot(sign, recorded, solver.y)


def _radial_profile(beta: float, p: float) -> RadialGroundState:
    """The profile shot from phi(0) = beta: its integrals and stopping
    radius from the shot's last step end, and a cubic Hermite interpolant
    of phi and phi' at the step ends."""
    shot = _shoot(beta, p)
    m, A, C = shot.state[2:]

    # Pohozaev identities of the profile: mass = (2/p) C and A = (p-2)/p C.
    if abs(m / C - 2.0 / p) > 1e-5 or abs(A / C - (p - 2.0) / p) > 1e-5:
        raise ShootingError(
            f"shooting profile for p={p} violates its Pohozaev identities: "
            f"mass/C={m / C:.8f} (expect {2.0 / p:.8f}), "
            f"A/C={A / C:.8f} (expect {(p - 2.0) / p:.8f})"
        )

    r, phi, dphi = np.array(shot.steps).T
    profile = CubicHermiteSpline(r, phi, dphi)
    decayed = profile.solve(1e-6 * beta, extrapolate=False)
    if decayed.size == 0:
        raise ShootingError(f"shooting profile for p={p} stops at "
                            f"r={r[-1]} above 1e-6 * phi(0)")
    return RadialGroundState(p=float(p), beta=beta, r_stop=r[-1],
                             r_decay=decayed[0], mass=m, A=A, C=C,
                             profile=profile)


_GROUND_STATE_CACHE: Dict[float, RadialGroundState] = {}


def ground_state_radial(p: float) -> RadialGroundState:
    """Ground state of -Delta phi + phi = phi^(p-1) by bisection on phi(0)."""
    if p <= 2:
        raise ValueError(f"ground state requires p > 2, got {p}")
    key = round(float(p), 12)
    cached = _GROUND_STATE_CACHE.get(key)
    if cached is not None:
        return cached

    # phi(0) = 1 is the constant solution, an undershoot for every p.
    lo, hi = 1.0, 2.0
    for _ in range(60):
        if _shoot(hi, p).sign == -1:
            break
        hi *= 1.4
    else:
        raise ShootingError(f"could not bracket an overshoot for p={p}")

    for _ in range(_SHOOTING_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break   # adjacent floats: a further shoot repeats lo or hi
        if _shoot(mid, p).sign == -1:
            hi = mid
        else:
            lo = mid
    state = _radial_profile(0.5 * (lo + hi), p)
    _GROUND_STATE_CACHE[key] = state
    return state


# ---------------------------------------------------------------------------
# Gagliardo-Nirenberg constant
# ---------------------------------------------------------------------------


def _radial_quotient(weights, sigmas, p: float) -> float:
    """Rayleigh quotient C/(A^(p/2-1) m) of a radial Gaussian mixture,
    by trapezoid quadrature on a fine radial grid."""
    sig = np.asarray(sigmas, dtype=float)
    wts = np.asarray(weights, dtype=float)
    rmax = 12.0 * np.max(sig)
    r = np.linspace(0.0, rmax, 6000)
    u = np.zeros_like(r)
    du = np.zeros_like(r)
    for w, s in zip(wts, sig):
        e = np.exp(-0.5 * (r / s) ** 2)
        u += w * e
        du += -w * r / s ** 2 * e
    tau = 2.0 * np.pi * r
    m = np.trapezoid(tau * u * u, r)
    A = np.trapezoid(tau * du * du, r)
    C = np.trapezoid(tau * np.abs(u) ** p, r)
    if m <= 0 or A <= 0:
        return 0.0
    return C / (A ** (0.5 * p - 1.0) * m)


def gaussian_rayleigh_quotient(p: float) -> float:
    """Quotient of a single Gaussian: a strict lower bound for K_GN."""
    return _radial_quotient([1.0], [1.0], p)


def _rayleigh_ascent(p: float) -> float:
    """Best quotient over three-Gaussian mixtures (scale fixed by sigma1=1)."""

    def neg(theta):
        w2, w3, ls2, ls3 = theta
        return -_radial_quotient([1.0, w2, w3], [1.0, np.exp(ls2), np.exp(ls3)], p)

    best = gaussian_rayleigh_quotient(p)
    for start in ([0.0, 0.0, np.log(2.0), np.log(0.5)],
                  [0.5, -0.1, np.log(1.5), np.log(0.6)]):
        res = minimize(neg, np.asarray(start), method="Nelder-Mead",
                       options={"maxiter": 600, "xatol": 1e-8, "fatol": 1e-12})
        best = max(best, -res.fun)
    return best


_KGN_CACHE: Dict[float, float] = {}


def kgn_estimate(p: float) -> float:
    """Sharp Gagliardo-Nirenberg constant for exponent p.

    Computed from the shooting ground state as C/(A^(p/2-1) m) and
    cross-checked against the Gaussian-mixture ascent, which may not exceed
    it by more than 1e-3 relative."""
    if p <= 2:
        raise ValueError(f"kgn_estimate requires p > 2, got {p}")
    key = round(float(p), 12)
    cached = _KGN_CACHE.get(key)
    if cached is not None:
        return cached
    gs = ground_state_radial(p)
    value = gs.C / (gs.A ** (0.5 * p - 1.0) * gs.mass)
    check = _rayleigh_ascent(p)
    if check > value * (1.0 + _RAYLEIGH_SLACK):
        raise ShootingError(
            f"Rayleigh ascent {check:.8f} exceeds shooting constant "
            f"{value:.8f} for p={p}; ground state solve is unreliable"
        )
    _KGN_CACHE[key] = value
    return value


# ---------------------------------------------------------------------------
# Threshold formulas
# ---------------------------------------------------------------------------


def k0(params: Params) -> float:
    """Critical kinetic level (p-2) |gamma| c^2 / (4 |p-4|)."""
    if params.p == 4.0:
        raise RegimeError("k0 is undefined at the mass-critical exponent p = 4")
    if params.gamma == 0.0:
        raise RegimeError("k0 is undefined for gamma = 0")
    return ((params.p - 2.0) * abs(params.gamma) * params.c ** 2
            / (4.0 * abs(params.p - 4.0)))


def c0(p: float, a: float, gamma: float, kgn: float) -> float:
    """Mass threshold below which the gamma > 0, p > 4 problem has the
    local-minimum plus mountain-pass structure."""
    if not (p > 4.0 and a > 0.0 and gamma > 0.0 and kgn > 0.0):
        raise RegimeError(
            f"c0 requires p > 4, a > 0, gamma > 0, kgn > 0; "
            f"got p={p}, a={a}, gamma={gamma}, kgn={kgn}"
        )
    inner = (p * (p - 4.0) ** (0.5 * (p - 4.0)) / (p - 2.0) ** (0.5 * p)
             / (a * gamma ** (0.5 * (p - 4.0)) * kgn))
    return 2.0 * inner ** (1.0 / (p - 3.0))


def k1(p: float, kgn: float) -> float:
    """Lower coupling constant of the gamma < 0, p < 4 regime."""
    if not (2.0 < p < 4.0):
        raise RegimeError(f"K1 requires 2 < p < 4, got p={p}")
    if kgn <= 0:
        raise ValueError("kgn must be positive")
    return (2.0 ** (-0.5 * (4.0 - p)) / kgn
            * p / (2.0 ** (3.0 - p) * (p - 2.0) ** (0.5 * p)
                   * (4.0 - p) ** (0.5 * (4.0 - p))))


def k2(p: float, kgn: float) -> float:
    """Upper coupling constant: K2 = 2^((4-p)/2) K1 exactly."""
    return 2.0 ** (0.5 * (4.0 - p)) * k1(p, kgn)


def a_thresholds(p: float, gamma: float, c: float, kgn: float) -> Tuple[float, float]:
    """(T1, T2) with Ti = Ki |gamma|^((4-p)/2) c^(3-p) for gamma < 0, p < 4.

    The Pohozaev set is nonempty iff a >= T1; it is a manifold with a
    bounded maximizer for T1 <= a < T2."""
    factor = abs(gamma) ** (0.5 * (4.0 - p)) * c ** (3.0 - p)
    return k1(p, kgn) * factor, k2(p, kgn) * factor


def c_edges(p: float, gamma: float, a: float, kgn: float) -> Tuple[float, float]:
    """Mass band edges (c1, c2) of the gamma < 0, p < 4, p != 3 regime.

    Inverting a ~ Ki |gamma|^((4-p)/2) c^(3-p):
      2 < p < 3: ci = (a / (Ki |gamma|^((4-p)/2)))^(1/(3-p)), existence on
                 (c2, c1] with c2 < c1;
      3 < p < 4: ci = (Ki |gamma|^((4-p)/2) / a)^(1/(p-3)), existence on
                 [c1, c2) with c1 < c2.
    At p = 3 the conditions are mass-independent."""
    if p == 3.0:
        raise RegimeError("band edges in c are undefined at p = 3")
    if not (2.0 < p < 4.0 and a > 0.0):
        raise RegimeError(f"c_edges requires 2 < p < 4 and a > 0; got p={p}, a={a}")
    g = abs(gamma) ** (0.5 * (4.0 - p))
    if p < 3.0:
        return ((a / (k1(p, kgn) * g)) ** (1.0 / (3.0 - p)),
                (a / (k2(p, kgn) * g)) ** (1.0 / (3.0 - p)))
    return ((k1(p, kgn) * g / a) ** (1.0 / (p - 3.0)),
            (k2(p, kgn) * g / a) ** (1.0 / (p - 3.0)))


def mass_critical_threshold(a: float, kgn4: float) -> float:
    """Mass bound 2/(a K_GN(4)) of the p = 4 global-minimization regime."""
    if a <= 0 or kgn4 <= 0:
        raise ValueError("mass-critical threshold requires a > 0 and kgn > 0")
    return 2.0 / (a * kgn4)


# ---------------------------------------------------------------------------
# Empirical V2 bound constant
# ---------------------------------------------------------------------------


def _kv2_family() -> List[ProfileSpec]:
    """Fixed 50-profile family for the V2-bound constant estimate."""
    specs: List[ProfileSpec] = []
    for s in (0.4, 0.6, 0.8, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 3.5):
        specs.append(ProfileSpec.gaussian(sigma=s))
    specs.append(ProfileSpec.gaussian(sigma=1.0, center=(5.0, 3.0)))
    specs.append(ProfileSpec.gaussian(sigma=2.0, center=(-4.0, 2.0)))
    for r0 in (1.0, 2.0, 4.0, 6.0):
        for s in (0.5, 1.0):
            specs.append(ProfileSpec.ring(r0=r0, sigma=s))
    for scale in (1, 2, 3):
        specs.append(ProfileSpec.two_bump(separation=4.0, scale=scale, radius=1.0))
    for seed in range(27):
        specs.append(ProfileSpec.random_smooth(seed=seed, cutoff=2 + seed % 3))
    return specs


_KV2_CACHE: Dict[Tuple[int, float], float] = {}


def kv2_estimate(grid: Optional[Grid] = None) -> float:
    """Empirical constant K in |V2(u)| <= K sqrt(A(u)) c^(3/2).

    The supremum of |V2| / (sqrt(A) c^(3/2)) over the fixed 50-profile
    family; a deterministic lower bound for the true best constant, used
    for one-sided checks only."""
    from .functionals import evaluate, kernel_table

    grid = grid or Grid(extent=40.0, n=128)
    key = (grid.n, grid.extent)
    cached = _KV2_CACHE.get(key)
    if cached is not None:
        return cached
    table = kernel_table(grid)
    best = 0.0
    for spec in _kv2_family():
        ev = evaluate(discretize(spec, grid), table)
        ratio = ev.V2 / (math.sqrt(ev.A) * spec.c ** 1.5)
        best = max(best, ratio)
    _KV2_CACHE[key] = best
    return best


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharpConstants:
    """The sharp Gagliardo-Nirenberg constant of exponent p."""

    p: float
    kgn: float


def sharp_constants(p: float) -> SharpConstants:
    """K_GN for exponent p; kv2_estimate is left to the callers that use it."""
    return SharpConstants(p=float(p), kgn=kgn_estimate(p))


@dataclass(frozen=True)
class RegimeLabel:
    """Classification outcome: one tag plus the inequality chain that fired."""

    tag: str
    certificate: Dict

    def __post_init__(self):
        if self.tag not in REGIME_TAGS:
            raise ValueError(f"unknown regime tag {self.tag!r}")


def regime_classify(params: Params, sharp: SharpConstants) -> RegimeLabel:
    """Map a parameter tuple to the qualitative critical-point structure.

    Parameter corners with no known answer (gamma < 0 with p >= 4, masses
    at or beyond the covered thresholds, gamma = 0) return OpenUnknown
    rather than a guess."""
    gam, a, p, c = params.gamma, params.a, params.p, params.c
    cert: Dict = {"gamma": gam, "a": a, "p": p, "c": c, "kgn": sharp.kgn}
    conds: List[str] = []
    cert["conditions"] = conds

    if gam > 0.0:
        conds.append(f"gamma = {gam} > 0")
        if a <= 0.0:
            conds.append(f"a = {a} <= 0 and p = {p} > 2: global minimum exists")
            return RegimeLabel("GlobalMin", cert)
        if p < 4.0:
            conds.append(f"a = {a} > 0 and p = {p} < 4: global minimum exists")
            return RegimeLabel("GlobalMin", cert)
        if p == 4.0:
            c_mc = mass_critical_threshold(a, sharp.kgn)
            cert["mass_critical_threshold"] = c_mc
            if c < c_mc:
                conds.append(f"p = 4 and c = {c} < 2/(a K_GN) = {c_mc}")
                return RegimeLabel("GlobalMinMassCritical", cert)
            conds.append(f"p = 4 and c = {c} >= 2/(a K_GN) = {c_mc}: not covered")
            return RegimeLabel("OpenUnknown", cert)
        c_zero = c0(p, a, gam, sharp.kgn)
        cert["c0"] = c_zero
        cert["k0"] = k0(params)
        if c < c_zero:
            conds.append(f"a = {a} > 0, p = {p} > 4 and c = {c} < c0 = {c_zero}")
            return RegimeLabel("LocalMinPlusMountainPass", cert)
        conds.append(f"c = {c} >= c0 = {c_zero}: not covered")
        return RegimeLabel("OpenUnknown", cert)

    if gam < 0.0:
        conds.append(f"gamma = {gam} < 0")
        if a <= 0.0:
            conds.append(f"a = {a} <= 0 and p = {p} > 2: fiber maps strictly "
                         "increasing, no constrained critical point")
            return RegimeLabel("NoCriticalPoint", cert)
        if p >= 4.0:
            conds.append(f"a = {a} > 0 with p = {p} >= 4: open problem")
            return RegimeLabel("OpenUnknown", cert)
        t1, t2 = a_thresholds(p, gam, c, sharp.kgn)
        cert["a_threshold_lower"] = t1
        cert["a_threshold_upper"] = t2
        cert["k0"] = k0(params)
        if a < t1:
            conds.append(f"a = {a} < K1 threshold = {t1}: Pohozaev set empty")
            return RegimeLabel("LambdaEmpty", cert)
        if a == t1:
            conds.append(f"a = K1 threshold = {t1} exactly (inclusive bound): "
                         "bounded maximizer on the Pohozaev set")
            return RegimeLabel("MaxOnLambda", cert)
        if a < t2:
            conds.append(f"K1 threshold = {t1} < a = {a} < K2 threshold = {t2}: "
                         "two critical points (strict inequalities)")
            return RegimeLabel("TwoCriticalPointsOnLambda", cert)
        conds.append(f"a = {a} >= K2 threshold = {t2}: not covered")
        return RegimeLabel("OpenUnknown", cert)

    conds.append("gamma = 0: outside the nonlocal problem family")
    return RegimeLabel("OpenUnknown", cert)


def gn_profile_field(grid: Grid, p: float, c: float) -> Field:
    """The Gagliardo-Nirenberg optimizer shape discretized on a grid and
    normalized to mass c.

    The radial coordinate is stretched so the profile falls to 1e-6 * phi(0)
    at 0.25 * extent, which keeps boundary leakage negligible on any grid.
    That decay radius sits far above the round-off in phi(0), so the width
    does not move with its last bits."""
    gs = ground_state_radial(p)
    stretch = 0.25 * grid.extent / gs.r_decay
    X = grid.coords1d()
    XX, YY = np.meshgrid(X, X, indexing="ij")
    r = np.hypot(XX, YY) / stretch
    return normalize(Field(grid, gs(r)), c)
