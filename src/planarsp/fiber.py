"""Dilation fiber analysis.

The mass-preserving dilation u^t(x) = t u(tx) scales the invariants as

    A(u^t) = t^2 A,   C(u^t) = t^(p-2) C,   V(u^t) = V - c^2 log t,

so the fiber energy g(t) = F(u^t) and its derivatives are analytic in the
scalar tuple (A, C, V, c).  Everything here works on those scalars; the
grid is touched only when a dilation is materialized by resampling.

Conventions (signed gamma throughout):

    g(t)   = (t^2/2) A + (gamma/4) V - (gamma c^2/4) log t - (a t^(p-2)/p) C
    phi(t) = t^2 A - a (p-2)/p t^(p-2) C - gamma c^2/4     (= Q(u^t))
    g'(t)  = phi(t)/t,     g''(t) = phi'(t)/t - phi(t)/t^2

Critical points of g are the roots of phi; the branch at each root is
labeled 'plus' when g'' > 0 (local minimum) and 'minus' when g'' < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from .errors import DomainError, RegimeError
from .functionals import Evaluation, Params, require_mass
from .grid import Field, boundary_mass_fraction, mass

__all__ = [
    "FiberScalars",
    "BranchPoint",
    "scalars",
    "g",
    "dg",
    "ddg",
    "phi",
    "t_star",
    "critical_points",
    "dilate",
    "project_to_lambda",
]

# Degenerate double roots (Lambda^0 points) are treated as absent below this
# fraction of the natural phi scale.
_DEGENERATE_TOL = 1e-12

_BRACKET_CAP = 1e6


@dataclass(frozen=True)
class FiberScalars:
    """Invariants (A, C, V) of a field plus its problem parameters."""

    A: float
    C: float
    V: float
    params: Params

    def __post_init__(self):
        if not (self.A > 0.0):
            raise ValueError(f"kinetic invariant must be positive, got {self.A}")
        if not (self.C > 0.0):
            raise ValueError(f"p-norm invariant must be positive, got {self.C}")


@dataclass(frozen=True)
class BranchPoint:
    """A critical point of the fiber map.

    branch is 'plus' (local minimum of g, g'' > 0) or 'minus' (local
    maximum, g'' < 0); g and gpp store the fiber energy and its second
    derivative at s.
    """

    s: float
    branch: str
    g: float
    gpp: float

    def __post_init__(self):
        if self.branch not in ("plus", "minus"):
            raise ValueError(f"unknown branch {self.branch!r}")
        if self.branch == "plus" and not self.gpp > 0:
            raise ValueError("plus branch requires g'' > 0")
        if self.branch == "minus" and not self.gpp < 0:
            raise ValueError("minus branch requires g'' < 0")


def scalars(u: Union[Field, Evaluation], params: Params) -> FiberScalars:
    """Fiber invariants of a field, on its grid's kernel table, or of its
    evaluation.  Requires mass(u) = params.c to 1e-8 relative."""
    ev = u if isinstance(u, Evaluation) else Evaluation(u)
    require_mass(ev.u, params.c)
    return FiberScalars(A=ev.A, C=ev.C(params.p), V=ev.V, params=params)


def _check_t(t: float) -> float:
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"dilation parameter must be positive, got {t}")
    return t


def g(sc: FiberScalars, t: float) -> float:
    """Fiber energy g(t) = F(u^t)."""
    t = _check_t(t)
    p = sc.params
    return (0.5 * t * t * sc.A + 0.25 * p.gamma * sc.V
            - 0.25 * p.gamma * p.c ** 2 * math.log(t)
            - (p.a / p.p) * t ** (p.p - 2.0) * sc.C)


def phi(sc: FiberScalars, t: float) -> float:
    """phi(t) = Q(u^t) = t^2 A - a (p-2)/p t^(p-2) C - gamma c^2/4."""
    t = _check_t(t)
    p = sc.params
    return (t * t * sc.A - p.a * (p.p - 2.0) / p.p * t ** (p.p - 2.0) * sc.C
            - 0.25 * p.gamma * p.c ** 2)


def _dphi(sc: FiberScalars, t: float) -> float:
    p = sc.params
    return 2.0 * t * sc.A - p.a * (p.p - 2.0) ** 2 / p.p * t ** (p.p - 3.0) * sc.C


def dg(sc: FiberScalars, t: float) -> float:
    """g'(t) = phi(t)/t."""
    t = _check_t(t)
    return phi(sc, t) / t


def ddg(sc: FiberScalars, t: float) -> float:
    """g''(t) = phi'(t)/t - phi(t)/t^2."""
    t = _check_t(t)
    return _dphi(sc, t) / t - phi(sc, t) / (t * t)


def t_star(sc: FiberScalars) -> float:
    """The dilation where 2 A(u^t) = a (p-2)^2/p C(u^t): the unique
    stationary point of phi.  Defined for a > 0 and p != 4; the formula
    [a (p-2)^2 C / (2 p A)]^(1/(4-p)) covers both p < 4 and p > 4."""
    p = sc.params
    if p.a <= 0.0:
        raise RegimeError(f"t_star requires a > 0, got a={p.a}")
    if p.p == 4.0:
        raise RegimeError("t_star is undefined at the mass-critical exponent p = 4")
    ratio = p.a * (p.p - 2.0) ** 2 * sc.C / (2.0 * p.p * sc.A)
    return ratio ** (1.0 / (4.0 - p.p))


def _q_scale(A: float, params: Params) -> float:
    """The natural scale A + |gamma| c^2/4 of Q (of phi on a fiber)."""
    return A + 0.25 * abs(params.gamma) * params.c ** 2


def _bisect_newton(sc: FiberScalars, lo: float, hi: float) -> float:
    """Root of phi in [lo, hi] (phi changes sign): bisection to relative
    width 1e-8, then Newton polish to |phi| < 1e-12 * (A + |gamma| c^2/4)."""
    flo = phi(sc, lo)
    width_tol = 1e-8 * hi
    while hi - lo > width_tol:
        mid = 0.5 * (lo + hi)
        fmid = phi(sc, mid)
        if fmid == 0.0:
            lo = hi = mid
            break
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    ftol = 1e-12 * _q_scale(sc.A, sc.params)
    for _ in range(5):
        f = phi(sc, root)
        if abs(f) < ftol:
            break
        fp = _dphi(sc, root)
        if fp == 0.0:
            break
        step = f / fp
        if not np.isfinite(step) or abs(step) > 0.5 * root:
            break
        root -= step
    return root


def _branch_point(sc: FiberScalars, s: float) -> BranchPoint:
    curv = ddg(sc, s)
    branch = "plus" if curv > 0 else "minus"
    return BranchPoint(s=s, branch=branch, g=g(sc, s), gpp=curv)


def _bracket_down(sc: FiberScalars, t0: float, want_positive: bool) -> Optional[float]:
    """Shrink from t0 by halving until phi has the requested sign."""
    t = t0
    for _ in range(200):
        t *= 0.5
        f = phi(sc, t)
        if (f > 0) == want_positive and f != 0.0:
            return t
    return None


def _bracket_up(sc: FiberScalars, t0: float, want_positive: bool) -> float:
    """Grow from t0 by doubling until phi has the requested sign; a cap of
    1e6 * t0 signals near-degenerate scalars."""
    t = t0
    while t <= _BRACKET_CAP * t0:
        t *= 2.0
        try:
            f = phi(sc, t)
        except OverflowError:
            break
        if (f > 0) == want_positive and f != 0.0:
            return t
    raise RegimeError(
        "no sign change of the fiber derivative below the bracketing cap; "
        "the scalar tuple is numerically degenerate"
    )


def critical_points(sc: FiberScalars) -> List[BranchPoint]:
    """All critical points of the fiber map, ordered by s (0, 1 or 2 points).

    Any sign combination of (gamma, a) is allowed; an empty list is a valid
    result (for signed gamma < 0 with a <= 0 the map is strictly monotone
    and has no critical point).
    """
    p = sc.params
    D = 0.25 * p.gamma * p.c ** 2  # phi(0+) -> -D

    if p.a <= 0.0:
        # phi strictly increasing from -D to +infinity: one root iff D > 0.
        if D <= 0.0:
            return []
        hi = _bracket_up(sc, math.sqrt(D / sc.A), True)
        lo = _bracket_down(sc, hi, False)
        if lo is None:
            return []
        return [_branch_point(sc, _bisect_newton(sc, lo, hi))]

    if p.p == 4.0:
        # phi(t) = (A - a C/2) t^2 - D: monotone in t^2.
        coef = sc.A - 0.5 * p.a * sc.C
        if coef == 0.0 or (coef > 0) != (D > 0) or D == 0.0:
            return []
        return [_branch_point(sc, math.sqrt(D / coef))]

    ts = t_star(sc)
    try:
        f_star = phi(sc, ts)
    except OverflowError:
        raise RegimeError(
            "fiber stationary point overflows double precision; the scalar "
            "tuple is numerically degenerate") from None
    scale = _q_scale(sc.A, sc.params)

    # phi has a minimum at t_star for p < 4 (sigma = +1) and a maximum for
    # p > 4 (sigma = -1), and tends to sigma * infinity as t grows.
    sigma = 1.0 if p.p < 4.0 else -1.0
    want_positive = sigma > 0
    if sigma * D >= 0.0:
        # phi(0+) = -D has the sign opposite to phi at infinity (approached
        # from that side when D = 0): single root right of t_star.
        hi = _bracket_up(sc, ts, want_positive)
        return [_branch_point(sc, _bisect_newton(sc, ts, hi))]
    if sigma * f_star >= -_DEGENERATE_TOL * scale:
        return []  # no root (or a degenerate Lambda^0 touching point)
    left = _bracket_down(sc, ts, want_positive)
    if left is None:
        return []
    hi = _bracket_up(sc, ts, want_positive)
    s_left = _bisect_newton(sc, left, ts)
    s_right = _bisect_newton(sc, ts, hi)
    return [_branch_point(sc, s_left), _branch_point(sc, s_right)]


def _critical_point(sc: FiberScalars, branch: str) -> BranchPoint:
    """The critical point of the requested branch; RegimeError when the
    fiber has none."""
    for bp in critical_points(sc):
        if bp.branch == branch:
            return bp
    raise RegimeError(f"fiber has no {branch} critical point")


def _spline_matrix(n: int, idx: np.ndarray) -> np.ndarray:
    """M with (M @ v)[k] the cubic B-spline interpolant of v at index idx[k],
    and 0 where idx[k] lies outside [0, n-1]: M = W S^-1.  S samples the
    B-spline coefficients, (c[i-1] + 4 c[i] + c[i+1])/6 with the mirror
    boundaries c[-1] = c[1] and c[n] = c[n-2]; W holds the 4-tap B-spline
    weights at idx, with mirrored taps.  This is the interpolant of
    scipy.ndimage.map_coordinates(order=3, mode="constant", prefilter=True)."""
    S = (np.diag(np.full(n, 4.0)) + np.diag(np.ones(n - 1), 1)
         + np.diag(np.ones(n - 1), -1)) / 6.0
    S[0, 1] = S[-1, -2] = 2.0 / 6.0
    inside = (idx >= 0.0) & (idx <= n - 1.0)
    x = np.where(inside, idx, 0.0)   # outside points get zero weights below
    k = np.floor(x)
    f = x - k
    w = np.stack(((1.0 - f) ** 3, 4.0 - 6.0 * f ** 2 + 3.0 * f ** 3,
                  1.0 + 3.0 * f + 3.0 * f ** 2 - 3.0 * f ** 3, f ** 3)) / 6.0
    w *= inside
    taps = np.abs(k.astype(int) + np.arange(-1, 3)[:, None])
    taps = np.where(taps > n - 1, 2 * (n - 1) - taps, taps)
    W = np.zeros((idx.size, n))
    np.add.at(W, (np.broadcast_to(np.arange(idx.size), taps.shape), taps), w)
    return np.linalg.solve(S.T, W.T).T


def dilate(u: Field, t: float) -> Field:
    """Materialize u^t(x) = t u(tx) by separable cubic B-spline resampling,
    t M U M^T with M = _spline_matrix at the indices of t x.

    Samples outside the domain are zero.  Mass is preserved only to
    resampling accuracy (callers renormalize when they need the constraint
    exactly).  Raises DomainError when the dilated support leaks through
    the boundary frame, which happens for t < 1 when the support no longer
    fits."""
    t = _check_t(t)
    if t == 1.0:
        return u
    grid = u.grid
    # index of physical coordinate t*x on the source grid, along either axis
    M = _spline_matrix(grid.n, (t * grid.coords1d() + 0.5 * grid.extent) / grid.h)
    out = Field(grid, t * (M @ u.values @ M.T))
    if mass(out) > 0 and boundary_mass_fraction(out) > 1e-6:
        raise DomainError(
            f"dilation by t={t} pushes support into the boundary frame; "
            "enlarge the domain"
        )
    return out


def project_to_lambda(u: Field, params: Params, branch: str) -> Field:
    """Project u onto the Pohozaev set along its fiber: dilate by the
    requested critical point of g.  Raises RegimeError when that branch
    does not exist for u."""
    if branch not in ("plus", "minus"):
        raise ValueError(f"unknown branch {branch!r}")
    s = _critical_point(scalars(u, params), branch).s
    if abs(s - 1.0) < 1e-12:
        return u
    return dilate(u, s)
