"""Regime-specific constrained flows on the mass sphere.

Three solvers run one projected-flow engine on an objective that says
what is descended and which iterates are admissible.  Each step moves
along the Sobolev (H^1) representation (1 - beta Delta)^-1 of the L2
gradient, projected onto the tangent of the mass sphere and, when the
objective is invariant along the dilation orbit, off that orbit:
u <- normalize(u - tau * d, c).  The change of metric removes the
Laplacian stiffness from the flow (Danaila & Kazemi, SIAM J. Sci. Comput.
32, 2010).  The trial step size is the Barzilai-Borwein estimate from the
previous accepted move, halved until the Armijo test holds at an
admissible point; accepted steps are therefore monotone by construction.

  global_minimize        descent of F          (gamma > 0 bounded regimes)
  local_minimize_capped  descent of F with steps rejected above the
                         kinetic cap A <= k0   (gamma > 0, p > 4, c < c0)
  lambda_branch_minimize descent of I(u) = F(u^s_u) on a fiber branch
  lambda_maximize        no flow: it quotes the classifier's certificate
                         that the Pohozaev set is empty for gamma < 0,
                         p < 4 and T1 <= a < T2, and refuses

Each iterate is evaluated once (functionals.Evaluation) and every quantity
of it, the certificates of the final point included, is read from that
evaluation.  A trial point takes two forward transforms, of u on the n x n
grid and of u^2 on the padded grid, and reads F from them by Parseval;
only an accepted iterate, whose gradient is read, adds the inverses of
-Delta u and w.  The Sobolev direction is one more n x n pair.  The fiber
flows never materialize dilations inside the loop: by the covariance of
the gradient under dilation,

    grad I(u) = s^2 (-Delta u) + gamma (w - c log s) u - a s^(p-2) |u|^(p-2) u

with s the branch point of u, evaluated entirely on the original grid
(Evaluation.grad; s = 1 gives grad F).  A dilation is resampled only to
recenter the fiber parameter near 1, and once more when the flow stops with
s more than 1e-9 from 1: that dilation, renormalized, is the reported field,
certified as it is without flowing again, so its residuals carry the
resampling error.

Every solver runs the flow in a grid ladder (Bao & Du, SIAM J. Sci.
Comput. 25, 2004).  On a grid of n >= 128 nodes a side the same objective
is first solved at n/2 on the same extent, recursively down to the floor
of 64.  The log convolution is spectrally accurate (functionals), so where
the coarse grid resolves the solution, the prolonged coarse solution passes
the finer grid's stop test at once.  The coarse solution, prolonged by
zero-padding its spectrum (functionals.prolong) and renormalized, starts
the flow at n, which certifies the reported field on the caller's grid.

The start is built on the grid of the level whose flow starts from it: a
ProfileSpec is discretized there, a Field injected onto its nodes (every
other node per halving).  That is the floor grid; a finer grid samples
the start only when the level below it was refused.  The energy flows start on the
minimum of the start's fiber: its plus critical point s, found in closed
form from A, V and C (fiber.critical_points), and the start dilated to s
and renormalized, so the first iterate has Q = 0 up to resampling.  In
LocalMinPlusMountainPass (c < c0) that point lies inside the kinetic cap.
A fiber with no minimum, or whose minimum leaks through the boundary frame,
keeps the start as given, unless it lies above the kinetic cap: then the
domain is too small.  The fiber-branch objective is constant along each
fiber, so its start is used as given.

A coarse level passes up only its field and its numbers.  One that fails
(ResolutionError, ConvergenceError or DomainError) is recorded as
refused, and the next level starts from its own sample of the start, as a
direct solve does.  max_iter and the cap on recenters apply to each
level.  The report's extras["levels"] lists every grid from the coarsest,
as {n, iters, F} or {n, refused}; extras["F_err_grid"] is |F(n) - F(n/2)|
when the level below converged.  iters, extras["recenters"] and the trace
cover the levels the solution passed through, the trace's iter numbering
its rows across them.  extras["spectral_tail"] is the reported field's
Evaluation.spectral_tail, the part of it the grid at half the resolution
could not carry.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, astuple, dataclass, field as dc_field, replace
from typing import Callable, Dict, List, NoReturn, Optional, Sequence, Tuple, Union

import numpy as np

from . import constants as K
from .errors import (CapBoundaryError, ConvergenceError, DomainError,
                     GuardFloorError, PlanarSPError, RegimeError, ResolutionError)
from .fiber import (FiberScalars, _critical_point, _q_scale, dilate, g as fiber_g,
                    phi, scalars, t_star)
from .functionals import (EnergyBreakdown, Evaluation, Params, pnorm, prolong,
                          smooth_direction)
from .grid import (Field, Grid, ProfileSpec, boundary_mass_fraction, discretize,
                   normalize, _two_bump_lobes)

__all__ = [
    "SolverConfig",
    "SolveReport",
    "TraceRow",
    "TwoBumpPoint",
    "global_minimize",
    "local_minimize_capped",
    "lambda_branch_minimize",
    "lambda_maximize",
    "REGIME_SOLVERS",
    "two_bump_probe",
    "masscritical_probe",
]


_TOL_GRAD = 1e-4        # relative tangent-gradient tolerance
_TOL_Q = 1e-3           # |Q| tolerance relative to A + |gamma| c^2/4
_BACKTRACK = 0.5        # step factor per failed Armijo test
_ARMIJO = 1e-4          # sufficient-decrease fraction of the Armijo test
_BOUNDARY_TOL = 1e-8    # admissible boundary mass fraction


@dataclass(frozen=True)
class SolverConfig:
    """The two settings of a flow: the iteration budget and whether to keep
    a per-iteration trace.  Tolerances and step control are fixed."""

    max_iter: int = 8000
    trace: bool = False

    def __post_init__(self):
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, int):
            raise TypeError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if not isinstance(self.trace, bool):
            raise TypeError(f"trace must be true or false, got {self.trace!r}")


@dataclass(frozen=True)
class TraceRow:
    iter: int
    F: float
    Q: float
    grad_res: float
    A: float
    C: float
    V: float


@dataclass
class SolveReport:
    """Converged field plus diagnostics and certificates."""

    field: Field
    breakdown: EnergyBreakdown
    lam: float
    q_value: float
    q_residual: float
    pohozaev_res: float
    el_res: float
    iters: int
    converged: bool
    objective: float
    regime: K.RegimeLabel
    mode: str
    branch: Optional[str] = None
    s_branch: Optional[float] = None
    gpp: Optional[float] = None
    trace: List[TraceRow] = dc_field(default_factory=list)
    extras: dict = dc_field(default_factory=dict)

    def summary(self) -> dict:
        """JSON-ready summary (field values excluded; stored separately)."""
        out = {
            "mode": self.mode,
            "converged": self.converged,
            "objective_F": self.objective,
            "lambda": self.lam,
            "q_value": self.q_value,
            "q_residual": self.q_residual,
            "pohozaev_residual": self.pohozaev_res,
            "el_residual": self.el_res,
            "iters": self.iters,
            "breakdown": asdict(self.breakdown),
            "regime": {"tag": self.regime.tag, "certificate": self.regime.certificate},
        }
        if self.branch is not None:
            out["branch"] = self.branch
            out["s_branch"] = self.s_branch
            out["gpp"] = self.gpp
        out.update(self.extras)
        return out


def gaussian_on_branch(params: Params, branch: str) -> ProfileSpec:
    """Gaussian profile whose fiber critical point of the requested branch
    sits at s = 1 (up to discretization).

    Dilating a Gaussian yields another Gaussian, so the projection is done
    analytically on the width: sigma* = 1 / s_branch(1), with the fiber
    scalars of the mass-c Gaussian in closed form (A = c/sigma^2,
    C = (c/pi)^(p/2) (2 pi/p) sigma^(2-p), here at sigma = 1)."""
    c, p = params.c, params.p
    C = (c / math.pi) ** (0.5 * p) * (2.0 * math.pi / p)
    sc = FiberScalars(A=c, C=C, V=0.0, params=params)
    s = _critical_point(sc, branch).s
    return ProfileSpec.gaussian(sigma=1.0 / s, c=c)


def _l2(values: np.ndarray, h: float) -> float:
    return math.sqrt(h * h * float(np.sum(values * values)))


def _finalize(ev: Evaluation, params: Params, regime: K.RegimeLabel,
              mode: str, iters: int, converged: bool,
              trace: List[TraceRow]) -> SolveReport:
    """Certify the evaluated field: its transforms are reused, not redone."""
    bd = ev.breakdown(params)
    lam = ev.lam(params)
    q = ev.Q(params)
    report = SolveReport(
        field=ev.u,
        breakdown=bd,
        lam=lam,
        q_value=q,
        q_residual=abs(q) / _q_scale(bd.A, params),
        pohozaev_res=ev.pohozaev_residual(params, lam),
        el_res=ev.el_residual(params, lam),
        iters=iters,
        converged=converged,
        objective=bd.F,
        regime=regime,
        mode=mode,
        trace=trace,
    )
    report.extras["boundary_mass_fraction"] = boundary_mass_fraction(ev.u)
    report.extras["spectral_tail"] = ev.spectral_tail
    return report


# ---------------------------------------------------------------------------
# Projected-flow engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Point:
    """An admissible iterate and its evaluation.

    The objective reads F at the dilation u^s: s = 1 for F itself, the fiber
    branch point for I; gpp is g''(s) when s is a branch point."""

    ev: Evaluation
    value: float
    s: float = 1.0
    gpp: Optional[float] = None


class _Objective:
    """What a flow descends, on any grid: that of the evaluation a hook is
    given, whose kernel table each field evaluated there reads itself.

    Subclasses define point(ev): the point of an evaluated field, or None
    when the field is not admissible; start_refusal(ev): the error that
    refuses an inadmissible start; refusal(pt, guard_rejects): the error
    that refuses the flow when no trial step was accepted, or None; and
    annotate(report, pt, recenters): the objective's own fields of a
    report, recenters summed over levels.  The other hooks default to an
    objective that starts and stops where it is given, with no invariant
    orbit and no recentering."""

    def __init__(self, params: Params, mode: str):
        self.params, self.mode = params, mode

    def start(self, ev: Evaluation) -> Evaluation:
        """The evaluation a flow from the evaluated field ev starts at."""
        return ev

    def orbit(self, u: Field) -> Optional[np.ndarray]:
        """A direction the objective is invariant along."""
        return None

    def recenter(self, pt: _Point, stalled: bool, recenters: int) -> Optional[Field]:
        """A field to restart from; stalled says the tangent gradient has
        converged while Q has not, recenters counts the restarts so far."""
        return None

    def settle(self, pt: _Point) -> _Point:
        """The point to certify once the flow stops."""
        return pt


class _Energy(_Objective):
    """F on the mass sphere; with a kinetic cap, points with A >= cap are
    inadmissible, so every iterate is strictly interior.

    A flow starts on the minimum of its start's fiber, the plus critical
    point of t -> F(u^t), where Q = 0; below c0 that point lies inside the
    cap."""

    def __init__(self, params: Params, mode: str, cap: Optional[float] = None):
        super().__init__(params, mode)
        self.cap = cap

    def point(self, ev: Evaluation) -> Optional[_Point]:
        if self.cap is not None and ev.A >= self.cap:
            return None
        return _Point(ev, ev.F(self.params))

    def start(self, ev: Evaluation) -> Evaluation:
        # A fiber with no minimum, or whose minimum does not fit in the
        # domain, keeps the start as given; above the cap, the latter has
        # no admissible point to flow from.
        try:
            s = _critical_point(scalars(ev, self.params), "plus").s
            u = normalize(dilate(ev.u, s), self.params.c)
        except (RegimeError, DomainError) as err:
            if isinstance(err, DomainError) and self.point(ev) is None:
                raise DomainError(f"{self.mode}: initial field is above the kinetic cap "
                                  f"and its fiber minimum does not fit: {err}") from err
            return ev
        return Evaluation(u)

    def start_refusal(self, ev: Evaluation) -> PlanarSPError:
        return RegimeError(f"{self.mode}: initial field is not admissible: its "
                           f"A = {ev.A:.6g} is not below the kinetic cap "
                           f"k0 = {self.cap:.6g}")

    def refusal(self, pt: _Point, guard_rejects: int) -> Optional[ConvergenceError]:
        if self.cap is not None and pt.ev.A > 0.999 * self.cap:
            return CapBoundaryError(
                f"{self.mode}: flow pinned at the kinetic cap A = k0 = {self.cap}; "
                "this contradicts interiority of the capped minimizer and "
                "signals a discretization or regime error")
        return None

    def annotate(self, report: SolveReport, pt: _Point, recenters: int) -> None:
        if self.cap is not None:
            report.extras["k0"] = self.cap
            report.extras["cap_interior"] = report.breakdown.A < self.cap


class _FiberBranch(_Objective):
    """I(u) = F(u^s) with s the requested fiber critical point of u.

    By dilation covariance the gradient of I is evaluated on the original
    grid; I is invariant along the dilation orbit, whose direction is
    projected out of every step so s stays pinned near 1.  Iterates whose
    effective width c/A falls below a couple of grid cells are inadmissible
    (drift along fibers could otherwise concentrate the iterate past what
    the grid resolves)."""

    def __init__(self, params: Params, mode: str, branch: str):
        super().__init__(params, mode)
        self.branch = branch

    def resolved_A(self, grid: Grid) -> float:
        """The largest admissible A on grid, c/(2h)^2."""
        return self.params.c / (2.0 * grid.h) ** 2

    def point(self, ev: Evaluation) -> Optional[_Point]:
        if ev.A > self.resolved_A(ev.u.grid):
            return None
        bp = _critical_point(scalars(ev, self.params), self.branch)
        return _Point(ev, bp.g, bp.s, bp.gpp)

    def start_refusal(self, ev: Evaluation) -> PlanarSPError:
        return ResolutionError(
            f"{self.mode}: grid too coarse for the initial field: its "
            f"A = {ev.A:.6g} exceeds c/(2h)^2 = {self.resolved_A(ev.u.grid):.6g}, "
            "so it is narrower than two grid cells; refine the grid or widen the start")

    def orbit(self, u: Field) -> Optional[np.ndarray]:
        # d/dt (t u(tx)) at t = 1 = u + x.grad u.  Second-order differences
        # are plenty: the vector only projects numerical drift along the
        # orbit out of step directions.
        x = u.grid.coords1d()
        du_dx = np.gradient(u.values, u.grid.h, axis=0)
        du_dy = np.gradient(u.values, u.grid.h, axis=1)
        return u.values + x[:, None] * du_dx + x[None, :] * du_dy

    def recenter(self, pt: _Point, stalled: bool, recenters: int) -> Optional[Field]:
        # Off the Pohozaev set once tangent-converged: materialize the branch
        # dilation (s is near 1 by now).  Far from s = 1: a safety recentering,
        # rarely reached with the orbit projection.
        if (stalled and recenters < 8) or abs(pt.s - 1.0) > 0.4:
            return normalize(dilate(pt.ev.u, pt.s), self.params.c)
        return None

    def settle(self, pt: _Point) -> _Point:
        # Certify on the materialized branch point when the fiber parameter
        # has not fully recentered; an inadmissible one keeps the branch
        # data of the flow's last point.
        if abs(pt.s - 1.0) <= 1e-9:
            return pt
        ev = Evaluation(normalize(dilate(pt.ev.u, pt.s), self.params.c))
        return self.point(ev) or replace(pt, ev=ev)

    def refusal(self, pt: _Point, guard_rejects: int) -> Optional[ConvergenceError]:
        if guard_rejects >= 40:
            return GuardFloorError(
                f"{self.mode}: step floor reached against the resolution "
                "guard; the iterate is concentrating past what the grid "
                "resolves")
        return None

    def annotate(self, report: SolveReport, pt: _Point, recenters: int) -> None:
        report.branch, report.s_branch, report.gpp = self.branch, pt.s, pt.gpp
        report.extras["recenters"] = recenters


@dataclass(frozen=True)
class _Run:
    """One level's flow: its point to certify, counts, trace and refusal."""

    pt: _Point
    iters: int
    recenters: int
    trace: List[TraceRow]
    error: Optional[ConvergenceError]


def _flow(start: Evaluation, obj: _Objective, cfg: SolverConfig) -> _Run:
    """Run the projected Sobolev-gradient flow of obj from the field of
    start, on its grid, until the tangent gradient and Q both certify, or
    say why not in the run's error.  Callers pass start as a temporary:
    once the first step is taken nothing holds its spectra."""
    params, mode = obj.params, obj.mode
    h, n, c = start.u.grid.h, start.u.grid.n, params.c
    pt = obj.point(start)
    if pt is None:
        raise obj.start_refusal(start)
    del start
    tau = 0.1 / max(1.0, pt.ev.A)
    trace: List[TraceRow] = []
    prev_u = prev_d = None
    converged = False
    boundary_strikes = recenters = 0
    stop = f"within {cfg.max_iter} iterations"

    for it in range(cfg.max_iter + 1):
        # L2 gradient of the objective and the tangent part of it, by the
        # dilation covariance of grad F (see the module docstring).
        ev, u = pt.ev, pt.ev.u
        grad = ev.grad(params, pt.s)
        d_raw = grad + ev.lam(params, pt.s) * u.values
        # The orbit component of the raw gradient is pure discretization
        # noise (the objective is invariant along the orbit); project it out
        # of both the step direction and the convergence measure.  The orbit
        # direction of the reported solution is separately certified through
        # Q, which vanishes on the Pohozaev set.
        fib = obj.orbit(u)
        if fib is not None:
            fib -= (h * h * float(np.sum(fib * u.values)) / c) * u.values
            fib_norm2 = h * h * float(np.sum(fib * fib))
            d_raw = d_raw - (h * h * float(np.sum(d_raw * fib)) / fib_norm2) * fib
        res = _l2(d_raw, h) / (1.0 + _l2(grad, h))
        q = ev.Q(params)
        if cfg.trace:
            trace.append(TraceRow(it, ev.F(params), q, res, ev.A, ev.C(params.p), ev.V))
        if res < _TOL_GRAD and abs(q) / _q_scale(ev.A, params) < _TOL_Q:
            converged = True
            break
        if it == cfg.max_iter:
            break
        moved = obj.recenter(pt, res < _TOL_GRAD, recenters)
        if moved is not None:
            pt_moved = obj.point(Evaluation(moved))
            if pt_moved is None:
                return _Run(pt, it, recenters, trace, GuardFloorError(
                    f"{mode}: recentered iterate is no longer admissible"))
            pt, recenters = pt_moved, recenters + 1
            prev_u = prev_d = None
            continue
        if res < 1e-3 * _TOL_GRAD:  # Q will not improve by flowing
            stop = f"at iteration {it} on {n}^2: the stationarity floor is reached"
            break
        if it % 25 == 0:
            frac = boundary_mass_fraction(u)
            boundary_strikes = boundary_strikes + 1 if frac > _BOUNDARY_TOL else 0
            if frac > 1e-4 or boundary_strikes >= 3:
                raise DomainError(
                    f"{mode}: iterate leaks mass through the boundary frame "
                    f"(fraction {frac:.2e}); the domain is too small")

        # Sobolev-metric direction, projected onto the sphere tangent and off
        # the orbit.  It descends: d_raw is orthogonal to u and the orbit and
        # the smoothing is positive definite, so slope > 0 unless d_raw = 0.
        d_h = smooth_direction(d_raw, ev.table)
        d = d_h - (h * h * float(np.sum(d_h * u.values)) / c) * u.values
        if fib is not None:
            d -= (h * h * float(np.sum(d * fib)) / fib_norm2) * fib
        slope = h * h * float(np.sum(d_raw * d))  # <grad, d> in L2

        # Barzilai-Borwein trial step from the previous accepted move.
        if prev_u is not None:
            s_vec = u.values - prev_u
            y_vec = d - prev_d
            sy = float(np.sum(s_vec * y_vec))
            if sy > 0:
                tau = min(max(float(np.sum(s_vec * s_vec)) / sy, 1e-12), 1.0)
        prev_u, prev_d = u.values, d

        # Armijo backtracking; inadmissible trial points count as guard rejects.
        step = tau
        guard_rejects = 0
        for _ in range(60):
            v = normalize(Field(u.grid, u.values - step * d), c)
            pt_v = obj.point(Evaluation(v))
            if pt_v is None:
                guard_rejects += 1
            elif pt.value - pt_v.value >= _ARMIJO * step * slope:
                pt, tau = pt_v, step
                break
            step *= _BACKTRACK
        else:
            err = obj.refusal(pt, guard_rejects)
            if err is not None:
                return _Run(pt, it, recenters, trace, err)
            stop = f"at iteration {it} on {n}^2: the line search found no descent step"
            break

    pt = obj.settle(pt)
    q_res = abs(pt.ev.Q(params)) / _q_scale(pt.ev.A, params)
    if converged and q_res < _TOL_Q:
        return _Run(pt, it, recenters, trace, None)
    return _Run(pt, it, recenters, trace, ConvergenceError(
        f"{mode}: no certified convergence {stop} (tangent residual {res:.3e}, "
        f"q residual {q_res:.3e})"))


# ---------------------------------------------------------------------------
# Grid ladder
# ---------------------------------------------------------------------------

# The coarsest grid of the ladder: a solve on n >= 2 * _LADDER_FLOOR first
# solves at n/2, and so on down to this size.
_LADDER_FLOOR = 64


def _ladder(grid: Grid, init: Union[ProfileSpec, Field], obj: _Objective,
            cfg: SolverConfig, regime: K.RegimeLabel) -> SolveReport:
    """Flow obj on grid and the grids of n/2, n/4, ... down to _LADDER_FLOOR
    (module docstring), and certify the result once, on grid.  A level
    flows from obj.start of its sample of init, normalized to mass c,
    unless the level below it converged: a profile is discretized on the
    level's grid, a field, which must live on grid, is injected onto its
    nodes (every other node per halving).  A ConvergenceError of grid's
    own flow carries the report."""
    c = obj.params.c
    if not isinstance(init, ProfileSpec):
        if init.grid != grid:
            raise ValueError("init field lives on a different grid")
        init = normalize(init, c)
    grids = [grid]
    while grids[0].n >= 2 * _LADDER_FLOOR:
        grids.insert(0, Grid(grid.extent, grids[0].n // 2))
    # The solution one level down; the counts and trace of the levels it crossed.
    below: Optional[Field] = None
    iters = recenters = 0
    trace: List[TraceRow] = []
    levels: List[dict] = []

    def start(level: Grid) -> Evaluation:
        if below is not None:
            return Evaluation(normalize(prolong(below, level), c))
        if isinstance(init, ProfileSpec):
            return obj.start(Evaluation(normalize(discretize(init, level), c)))
        step = grid.n // level.n
        u = init if step == 1 else normalize(Field(level, init.values[::step, ::step]), c)
        return obj.start(Evaluation(u))

    for level in grids:
        try:
            run = _flow(start(level), obj, cfg)
            if run.error is not None and level is not grid:
                raise run.error
        except (ResolutionError, ConvergenceError, DomainError) as err:
            if level is grid:
                raise
            levels.append({"n": level.n, "refused": str(err)})
            below, iters, recenters, trace = None, 0, 0, []
            continue
        iters += run.iters
        recenters += run.recenters
        trace += [replace(row, iter=row.iter + len(trace)) for row in run.trace]
        levels.append({"n": level.n, "iters": run.iters, "F": run.pt.ev.F(obj.params)})
        if level is not grid:
            below = run.pt.ev.u
            del run  # a coarse level keeps its field and numbers, not its evaluation

    report = _finalize(run.pt.ev, obj.params, regime, obj.mode, iters,
                       run.error is None, trace)
    obj.annotate(report, run.pt, recenters)
    if below is not None:
        report.extras["F_err_grid"] = abs(report.objective - levels[-2]["F"])
    report.extras["levels"] = levels
    if run.error is not None:
        run.error.report = report
        raise run.error
    return report


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def _regime_for(solver: Callable, params: Params, requirement: str,
                regime: Optional[K.RegimeLabel]) -> K.RegimeLabel:
    """The classifier's regime of params (regime itself when the caller has
    classified params already); ValueError when regime's certificate names
    another (gamma, a, p, c), RegimeError unless REGIME_SOLVERS maps its
    tag to solver."""
    if regime is None:
        regime = K.regime_classify(params, K.sharp_constants(params.p))
    named = tuple(regime.certificate.get(key) for key in ("gamma", "a", "p", "c"))
    if named != astuple(params):
        raise ValueError(f"{solver.__name__}: the regime label certifies (gamma, a, p, "
                         f"c) = {named}, not the solved {astuple(params)}")
    if solver not in REGIME_SOLVERS.get(regime.tag, ()):
        raise RegimeError(f"{solver.__name__} requires {requirement}; classifier "
                          f"says {regime.tag}: {regime.certificate['conditions']}")
    return regime


def global_minimize(params: Params, grid: Grid, config: SolverConfig,
                    init: Union[ProfileSpec, Field], *,
                    regime: Optional[K.RegimeLabel] = None) -> SolveReport:
    """Minimize F over the mass sphere in a bounded regime.

    Valid when the classifier reports GlobalMin or GlobalMinMassCritical;
    refuses to start otherwise, quoting the certificate.  The flow starts
    on the minimum of init's fiber (module docstring).  regime is the
    classifier's label of params when the caller has it (a label of
    another (gamma, a, p, c) is a ValueError); it is classified here
    otherwise."""
    regime = _regime_for(global_minimize, params, "a bounded-below regime", regime)
    return _ladder(grid, init, _Energy(params, "global_minimize"), config, regime)


def local_minimize_capped(params: Params, grid: Grid, config: SolverConfig,
                          init: Union[ProfileSpec, Field], *,
                          regime: Optional[K.RegimeLabel] = None) -> SolveReport:
    """Minimize F on the kinetic cap A <= k0 (gamma > 0, a > 0, p > 4, c < c0).

    The flow starts on the minimum of init's fiber, which lies inside the
    cap.  Trial steps that reach the cap are rejected, so every iterate is
    strictly interior; a flow pinned against the cap raises
    CapBoundaryError.  regime as for global_minimize."""
    regime = _regime_for(local_minimize_capped, params,
                         "gamma > 0, a > 0, p > 4, c < c0", regime)
    return _ladder(grid, init, _Energy(params, "local_minimize_capped", K.k0(params)),
                   config, regime)


def lambda_branch_minimize(params: Params, grid: Grid, config: SolverConfig,
                           init: Union[ProfileSpec, Field], branch: str, *,
                           regime: Optional[K.RegimeLabel] = None) -> SolveReport:
    """Minimize F over a fiber branch (gamma > 0, a > 0, p > 4, c < c0).

    branch='plus' targets the local minimizer (same solution as the capped
    minimization); branch='minus' the mountain-pass point.  regime as for
    global_minimize."""
    if branch not in ("plus", "minus"):
        raise ValueError(f"unknown branch {branch!r}")
    regime = _regime_for(lambda_branch_minimize, params,
                         "gamma > 0, a > 0, p > 4, c < c0", regime)
    return _ladder(grid, init,
                   _FiberBranch(params, f"lambda_branch_minimize[{branch}]", branch),
                   config, regime)


def lambda_maximize(params: Params, branch: str = "minus") -> NoReturn:
    """Refuse the critical points on the Pohozaev set that the source paper
    claims for gamma < 0, a > 0, p < 4 and T1 <= a < T2.

    The classifier's certificate for that window bounds (t*)^2 A below k0
    for every field, so the Pohozaev set is empty and there is nothing to
    maximize (see constants.regime_classify).  Raises ValueError for an
    unknown branch, else RegimeError quoting the certificate's conditions.
    No kernel table and no field is built."""
    if branch not in ("plus", "minus"):
        raise ValueError(f"unknown branch {branch!r}")
    regime = K.regime_classify(params, K.sharp_constants(params.p))
    raise RegimeError(f"lambda_maximize[{branch}]: no critical point to maximize; "
                      f"classifier says {regime.tag}: "
                      f"{'; '.join(regime.certificate['conditions'])}")


# The solvers of each solvable regime tag: the minimizer of F, then the
# fiber-branch solver (None where the regime has no branches).  A tag not
# listed has no solver.
REGIME_SOLVERS: Dict[str, Tuple[Callable, Optional[Callable]]] = {
    "GlobalMin": (global_minimize, None),
    "GlobalMinMassCritical": (global_minimize, None),
    "LocalMinPlusMountainPass": (local_minimize_capped, lambda_branch_minimize),
}


# ---------------------------------------------------------------------------
# Verification probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoBumpPoint:
    n: int
    q: float
    f: float
    q_pred: float


def two_bump_probe(params: Params, grid: Grid,
                   n_list: Sequence[int]) -> List[TwoBumpPoint]:
    """Energy collapse along the two-bump sequence
    u_n = u + (1/n) v((x - nR e1)/n).

    The stationary lobe u (mass (1-eta) c, compactly supported bump dilated
    to minimize its contribution to Q) carries the negativity of the
    disjoint-support limit A(u) - a (p-2)/p C(u) + |gamma| c^2/4 = lim Q(u_n);
    the spreading lobe v carries the small mass fraction eta = 0.1, so its
    shrinking p-norm term (~ eta^(3/2) / n^(p-2)) is dominated by the
    growing log interaction (~ |gamma| eta log n) and F(u_n) decreases
    strictly along n.

    The lobe's radius is rho0 / t_star of a trial bump of radius rho0 =
    0.3 L and mass (1-eta) c sampled on grid: A ~ rho^-2 and C ~ rho^(2-p)
    along the bump's dilations, so the contribution A - a (p-2)/p C is
    least where 2 A = a (p-2)^2/p C.  A radius below six grid cells is
    raised to six.  A nonnegative limit of Q is refused before a domain
    too small for the spreading lobes.  n_list holds positive integers;
    anything else is a ValueError."""
    gam, a, p, c = params.gamma, params.a, params.p, params.c
    eta = 0.1
    if not (gam < 0.0 and a > 0.0 and 2.0 < p < 4.0):
        raise RegimeError("two_bump_probe requires gamma < 0, a > 0, 2 < p < 4")
    t1, _ = K.a_thresholds(p, gam, c, K.kgn_estimate(p))
    if a <= t1:
        raise RegimeError(
            f"two_bump_probe requires the coupling above the lower threshold "
            f"{t1:.6g}, got a={a}")
    if not n_list or any(isinstance(n, bool) or not isinstance(n, numbers.Integral)
                         or n < 1 for n in n_list):
        raise ValueError(f"n_list must hold positive integers, got {n_list!r}")
    n_list = [int(n) for n in n_list]
    n_max = max(n_list)
    masses = ((1.0 - eta) * c, eta * c)

    def lobe_scalars(lobe: Field) -> FiberScalars:
        # V enters neither phi nor t_star.
        return FiberScalars(A=Evaluation(lobe).A, C=pnorm(lobe, p), V=0.0,
                            params=params)

    rho0 = 0.3 * grid.extent
    trial, _ = _two_bump_lobes(grid, rho0, 2.2 * rho0, 1, masses)
    rho = max(rho0 / t_star(lobe_scalars(trial)), 6.0 * grid.h)
    R = 2.2 * rho
    edge = n_max * (R + rho)
    too_small = DomainError(
        f"two-bump geometry needs extent {edge / 0.39:.1f}, grid has "
        f"{grid.extent}; enlarge the domain or reduce n")

    # The limit of Q needs only the stationary lobe, so its sign is checked
    # before the geometry of the spreading lobes, once that lobe fits.
    if rho > 0.39 * grid.extent:
        raise too_small
    lobe_u, v_ref = _two_bump_lobes(grid, rho, R, 1, masses)
    sc_u, sc_v = lobe_scalars(lobe_u), lobe_scalars(v_ref)
    q_limit = phi(sc_u, 1.0)
    if q_limit >= 0.0:
        raise RegimeError(
            f"two-bump limit Q = {q_limit:.4f} is nonnegative: the coupling "
            "is too close to the threshold for bump lobes; increase a")
    if edge > 0.39 * grid.extent:
        raise too_small

    out: List[TwoBumpPoint] = []
    for n in n_list:
        u, v = _two_bump_lobes(grid, rho, R, n, masses)
        ev = Evaluation(u + v)
        # Disjoint supports: Q's terms add, the spreading lobe's scaled by n.
        q_pred = phi(FiberScalars(A=sc_u.A + sc_v.A * n ** -2.0,
                                  C=sc_u.C + sc_v.C * float(n) ** (2.0 - p),
                                  V=0.0, params=params), 1.0)
        out.append(TwoBumpPoint(n=n, q=ev.Q(params), f=ev.F(params), q_pred=q_pred))
    return out


def masscritical_probe(params: Params, grid: Grid) -> List[Tuple[float, float]]:
    """Fiber energies F(u^t) along t = 2^k, k = 0..6, for the
    Gagliardo-Nirenberg optimizer shape scaled to mass c at p = 4.

    Above the mass threshold 2/(a K_GN) the ray is unbounded below; below
    it the minimum along the ray is finite and interior."""
    if params.p != 4.0 or params.gamma <= 0.0 or params.a <= 0.0:
        raise RegimeError("masscritical_probe requires p = 4, gamma > 0, a > 0")
    sc = scalars(K.gn_profile_field(grid, 4.0, params.c), params)
    return [(float(t), fiber_g(sc, float(t))) for t in (2.0 ** k for k in range(7))]
