"""Self-contained verification suite behind the `verify` CLI command.

Each check exercises one invariant of the package on canned profiles and
reports the measured value against its tolerance.  The suite runs without
network or external services, on fixed grids, deterministically.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, List

import numpy as np

from . import constants as K
from . import functionals as fn
from .fiber import FiberScalars, critical_points, dilate, phi, scalars, t_star
from .functionals import Params
from .grid import (Field, ProfileSpec, discretize, make_grid, mass, normalize,
                   read_field, shift, write_field)

__all__ = ["CheckResult", "run_all_checks"]

_EULER = 0.5772156649015329
# int_0^inf log(1+r) r exp(-r^2/2) dr, V1 of the unit Gaussian.
_V1_GAUSS_UNIT = 0.7706259398196765


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str

    def as_dict(self) -> dict:
        return asdict(self)


def _result(name: str, value: float, tol: float, detail: str,
            larger_ok: bool = False) -> CheckResult:
    passed = value >= tol if larger_ok else value <= tol
    return CheckResult(name=name, passed=bool(passed), value=float(value),
                       tolerance=float(tol), detail=detail)


def _check_normalize_idempotent() -> CheckResult:
    grid = make_grid(40.0, 64)
    u = discretize(ProfileSpec.gaussian(sigma=1.5), grid)
    v = normalize(2.7 * u, 3.5)
    w = normalize(v, 3.5)
    same = np.array_equal(v.values, w.values)
    return _result("normalize_idempotent", 0.0 if same else 1.0, 0.5,
                   "renormalizing a normalized field is a bitwise no-op")


def _check_mass_homogeneity() -> CheckResult:
    grid = make_grid(40.0, 64)
    rng = np.random.default_rng(7)
    worst = 0.0
    for seed in range(5):
        u = discretize(ProfileSpec.random_smooth(seed=seed), grid)
        alpha = float(rng.uniform(0.1, 5.0))
        worst = max(worst, abs(mass(alpha * u) - alpha ** 2 * mass(u))
                    / (alpha ** 2 * mass(u)))
    return _result("mass_homogeneity", worst, 1e-12,
                   "mass(alpha u) = alpha^2 mass(u), relative")


def _check_two_bump_disjoint() -> CheckResult:
    grid = make_grid(80.0, 256)
    spec = ProfileSpec.two_bump(separation=4.0, scale=2, c=1.0, radius=1.5)
    u = discretize(spec, grid)
    x = grid.coords1d()
    left = Field(grid, np.where(x[:, None] < 4.0, u.values, 0.0))
    right = Field(grid, np.where(x[:, None] >= 4.0, u.values, 0.0))
    overlap = float(np.sum(np.abs(left.values * right.values)))
    add_err = abs(mass(left) + mass(right) - mass(u))
    return _result("two_bump_disjoint_mass", max(overlap, add_err), 1e-12,
                   "lobes have disjoint supports and additive mass")


def _check_field_io() -> CheckResult:
    grid = make_grid(40.0, 64)
    u = discretize(ProfileSpec.random_smooth(seed=3), grid)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "u.lpf"
        write_field(u, path)
        v = read_field(path)
    same = v.grid == u.grid and np.array_equal(u.values, v.values)
    return _result("field_io_roundtrip", 0.0 if same else 1.0, 0.5,
                   "LPF1 write/read is bit-exact")


def _check_gaussian_closed_forms() -> CheckResult:
    grid = make_grid(40.0, 256)
    pr = Params(gamma=1.0, a=1.0, p=3.0, c=1.0)
    ev = fn.Evaluation(discretize(ProfileSpec.gaussian(sigma=1.0), grid))
    errs = [
        abs(ev.A - 1.0),
        abs(ev.C(pr.p) - 2.0 / (3.0 * math.sqrt(math.pi)))
        / (2.0 / (3.0 * math.sqrt(math.pi))),
        abs(ev.V - 0.5 * (math.log(2.0) - _EULER)) / (0.5 * (math.log(2.0) - _EULER)),
    ]
    # A and C are exact at 256^2; the 6.3e-14 that remains is V's rounding.
    # A log-kernel origin value off by 1e-10 reads 6.8e-12.
    return _result("gaussian_closed_forms", max(errs), 1e-12,
                   "A = c, C = 2c^1.5/(3 sqrt(pi)), V = (c^2/2)(ln 2 - euler)")


def _check_v1_gaussian() -> CheckResult:
    # For the unit Gaussian, |x - y| of two independent points of density
    # u^2/c has the density r exp(-r^2/2), so V1 = c^2 int_0^inf log(1+r)
    # r exp(-r^2/2) dr.  The sampled log(1+|z|) kernel leaves an O(h^3)
    # error, 1.1e-4 at 256^2; its origin value off by 0.1 reads 6.2e-4.
    grid = make_grid(40.0, 256)
    u = discretize(ProfileSpec.gaussian(sigma=1.0), grid)
    err = abs(fn.Evaluation(u).V1 - _V1_GAUSS_UNIT) / _V1_GAUSS_UNIT
    return _result("v1_gaussian", err, 2.5e-4,
                   "V1 of the unit Gaussian at 256^2 matches "
                   "int_0^inf log(1+r) r exp(-r^2/2) dr, relative")


def _check_v2_bound() -> CheckResult:
    grid = make_grid(40.0, 128)
    kv2 = K.kv2_estimate()
    worst = 0.0
    for spec in (ProfileSpec.gaussian(sigma=0.5),
                 ProfileSpec.gaussian(sigma=2.0),
                 ProfileSpec.ring(r0=4.0, sigma=1.0),
                 ProfileSpec.random_smooth(seed=5)):
        u = discretize(spec, grid)
        ev = fn.Evaluation(u)
        ratio = ev.V2 / (math.sqrt(ev.A) * 1.0)
        worst = max(worst, ratio / kv2)
    return _result("v2_bound", worst, 1.0 + 1e-9,
                   "V2 <= kv2 sqrt(A) c^1.5 with the proven "
                   "kv2 = 2 sqrt(pi) K_GN(8/3)^1.5")


def _check_gn_bound() -> CheckResult:
    grid = make_grid(40.0, 128)
    worst = 0.0
    for p in (2.5, 3.0, 4.0):
        kgn = K.kgn_estimate(p)
        for spec in (ProfileSpec.gaussian(sigma=0.7),
                     ProfileSpec.gaussian(sigma=2.5),
                     ProfileSpec.ring(r0=3.0, sigma=1.0),
                     ProfileSpec.random_smooth(seed=9)):
            u = discretize(spec, grid)
            A = fn.Evaluation(u).A
            ratio = fn.pnorm(u, p) / (kgn * A ** (0.5 * p - 1.0) * mass(u))
            worst = max(worst, ratio)
    return _result("gn_bound", worst, 1.0 + 1e-4,
                   "C <= K_GN A^(p/2-1) c on the sample family")


def _check_gradient_fd() -> CheckResult:
    grid = make_grid(40.0, 128)
    pr = Params(gamma=1.0, a=1.0, p=3.0, c=1.0)
    eps = 1e-4
    worst = 0.0
    for seed in (0, 1):
        u = discretize(ProfileSpec.random_smooth(seed=seed), grid)
        ph = discretize(ProfileSpec.random_smooth(seed=seed + 100), grid)
        gval = fn.Evaluation(u).grad(pr)
        h2 = grid.h ** 2
        lhs = h2 * float(np.sum(gval * ph.values))
        fp = fn.Evaluation(Field(grid, u.values + eps * ph.values)).F(pr)
        fm = fn.Evaluation(Field(grid, u.values - eps * ph.values)).F(pr)
        worst = max(worst, abs((fp - fm) / (2 * eps) - lhs) / max(abs(lhs), 1e-12))
    return _result("gradient_fd", worst, 1e-5,
                   "central differences of F match <grad F, phi>")


def _check_far_field() -> CheckResult:
    grid = make_grid(40.0, 256)
    worst = 0.0
    for spec in (ProfileSpec.gaussian(sigma=1.0), ProfileSpec.ring(r0=2.0, sigma=0.6)):
        u = discretize(spec, grid)
        w = fn.Evaluation(u).w
        r = grid.radius()
        ring = (r >= 0.4 * grid.extent) & (r <= 0.45 * grid.extent)
        worst = max(worst, float(np.max(np.abs(w[ring]
                                               - mass(u) * np.log(r[ring])))))
    return _result("far_field_log", worst, 1e-2,
                   "w approaches mass * log|x| on the outer ring")


def _check_translation_invariance() -> CheckResult:
    grid = make_grid(40.0, 128)
    pr = Params(gamma=1.0, a=1.0, p=3.0, c=1.0)
    u = discretize(ProfileSpec.gaussian(sigma=1.0), grid)
    v = shift(u, (9, -6))
    e0, e1 = fn.Evaluation(u), fn.Evaluation(v)
    worst = max(abs(e0.A - e1.A), abs(e0.C(pr.p) - e1.C(pr.p)), abs(e0.V - e1.V),
                abs(e0.F(pr) - e1.F(pr)))
    return _result("translation_invariance", worst, 1e-12,
                   "all functionals are invariant under grid translations")


def _check_dilation_scaling() -> CheckResult:
    grid = make_grid(40.0, 256)
    u = discretize(ProfileSpec.gaussian(sigma=1.0), grid)
    e0 = fn.Evaluation(u)
    worst = 0.0
    for t in (0.5, 2.0):
        ev = fn.Evaluation(dilate(u, t))
        worst = max(worst, abs(ev.A / e0.A - t ** 2) / t ** 2,
                    abs(ev.C(3.0) / e0.C(3.0) - t) / t, abs(ev.V - e0.V + math.log(t)))
    return _result("dilation_scaling", worst, 1e-12,
                   "A ~ t^2, C ~ t^(p-2), V - c^2 log t under dilation")


def _check_fiber_roots() -> CheckResult:
    pr = Params(gamma=1.0, a=1.0, p=6.0, c=1.0)
    sc = FiberScalars(A=1.0, C=1.0, V=0.0, params=pr)
    pts = critical_points(sc)
    s_plus = math.sqrt(0.75 * (1.0 - 1.0 / math.sqrt(3.0)))
    s_minus = math.sqrt(0.75 * (1.0 + 1.0 / math.sqrt(3.0)))
    err = max(abs(pts[0].s - s_plus), abs(pts[1].s - s_minus))
    ok_labels = pts[0].branch == "plus" and pts[1].branch == "minus"
    return _result("fiber_roots_closed_form", err if ok_labels else 1.0, 1e-10,
                   "p=6 unit-scalar roots match the quadratic-in-t^2 solution")


def _check_gn_optimizer_bound() -> CheckResult:
    # The Gagliardo-Nirenberg optimizer is the equality case of the sharp
    # inequality behind the certificate's (t*)^2 A <= (a/T2)^(2/(4-p)) k0,
    # so on it the two agree: K_GN, K1/K2, k0, t_star and the spectral A
    # and C must fit together.  5.2e-11 at 256^2 (9.6e-7 at 128^2 for
    # p = 3.5); K1 off by 1e-6 reads 4.0e-6.
    grid = make_grid(40.0, 256)
    worst = 0.0
    for p in (2.5, 3.0, 3.5):
        sharp = K.sharp_constants(p)
        ev = fn.Evaluation(K.gn_profile_field(grid, p, 1.0))
        t1, t2 = K.a_thresholds(p, -1.0, 1.0, sharp.kgn)
        for a in (t1, 0.5 * (t1 + t2)):
            pr = Params(gamma=-1.0, a=a, p=p, c=1.0)
            bound = K.regime_classify(pr, sharp).certificate["t_star_sq_A_bound"]
            sc = scalars(ev, pr)
            worst = max(worst, abs(t_star(sc) ** 2 * sc.A - bound) / bound)
    return _result("gn_optimizer_bound", worst, 1e-9,
                   "the GN optimizer attains the certificate's t*^2 A bound "
                   "at gamma = -1, c = 1, a in {T1, (T1+T2)/2}, relative")


def _check_nonexistence() -> CheckResult:
    rng = np.random.default_rng(2024)
    tgrid = np.logspace(-6.0, 6.0, 400)
    worst = math.inf
    for _ in range(100):
        pr = Params(gamma=-float(rng.uniform(0.05, 10.0)),
                    a=-float(rng.uniform(0.0, 10.0)),
                    p=float(rng.uniform(2.05, 8.0)),
                    c=float(rng.uniform(0.1, 10.0)))
        sc = FiberScalars(A=float(rng.uniform(0.01, 100.0)),
                          C=float(rng.uniform(0.01, 100.0)),
                          V=float(rng.uniform(-5.0, 5.0)), params=pr)
        vals = [phi(sc, float(t)) for t in tgrid]
        worst = min(worst, min(vals))
    return _result("nonexistence_phi_positive", worst, 0.0,
                   "phi > 0 for gamma < 0, a <= 0 (no fiber critical point)",
                   larger_ok=True)


def _check_band_edges() -> CheckResult:
    bad = 0
    for p in (2.5, 3.5):
        sharp = K.sharp_constants(p)
        for c_edge in K.c_edges(p, -1.0, 1.0, sharp.kgn):
            below, above = (K.regime_classify(
                Params(gamma=-1.0, a=1.0, p=p, c=c_edge * (1.0 + eps)), sharp).tag
                for eps in (-1e-10, 1e-10))
            bad += below == above
    return _result("regime_band_edges", float(bad), 0.5,
                   "classification flips across both closed-form mass edges")


def _check_log_kernel() -> CheckResult:
    # At 64^2 on L = 16 the unit Gaussian's u^2 is resolved to rounding, so
    # the error of V is the log convolution's alone: rounding, about 1e-14.
    # A log-kernel origin value off by 1e-10 moves V by 1.7e-11 relative.
    grid = make_grid(16.0, 64)
    u = discretize(ProfileSpec.gaussian(sigma=1.0), grid)
    closed = 0.5 * (math.log(2.0) - _EULER)
    err = abs(fn.Evaluation(u).V - closed) / closed
    return _result("log_kernel_gaussian", err, 1e-12,
                   "V of the unit Gaussian at 64^2 matches (ln 2 - euler)/2, relative")


def _check_masscritical_edge() -> CheckResult:
    sharp = K.sharp_constants(4.0)
    c_mc = K.mass_critical_threshold(1.0, sharp.kgn)
    below = K.regime_classify(Params(gamma=1.0, a=1.0, p=4.0,
                                     c=c_mc * (1 - 1e-10)), sharp).tag
    at = K.regime_classify(Params(gamma=1.0, a=1.0, p=4.0, c=c_mc), sharp).tag
    ok = below == "GlobalMinMassCritical" and at == "OpenUnknown"
    return _result("masscritical_boundary", 0.0 if ok else 1.0, 0.5,
                   "c < 2/(a K_GN) is the exact boundary of the p=4 tag")


_CHECKS: List[Callable[[], CheckResult]] = [
    _check_normalize_idempotent,
    _check_mass_homogeneity,
    _check_two_bump_disjoint,
    _check_field_io,
    _check_gaussian_closed_forms,
    _check_v1_gaussian,
    _check_v2_bound,
    _check_gn_bound,
    _check_gradient_fd,
    _check_far_field,
    _check_translation_invariance,
    _check_dilation_scaling,
    _check_fiber_roots,
    _check_gn_optimizer_bound,
    _check_nonexistence,
    _check_band_edges,
    _check_log_kernel,
    _check_masscritical_edge,
]


def run_all_checks() -> List[CheckResult]:
    """Run the full invariant suite; deterministic, offline."""
    return [chk() for chk in _CHECKS]
