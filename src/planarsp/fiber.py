"""Dilation fiber analysis.

The mass-preserving dilation u^t(x) = t u(tx) scales the invariants as

    A(u^t) = t^2 A,   C(u^t) = t^(p-2) C,   V(u^t) = V - c^2 log t,

so the fiber energy g(t) = F(u^t) and its derivatives are analytic in the
scalar tuple (A, C, V, c).  Everything here works on those scalars; the
grid is touched only when dilate reads a field's trigonometric interpolant
(grid.resample).

Conventions (signed gamma throughout):

    g(t)   = (t^2/2) A + (gamma/4) V - (gamma c^2/4) log t - (a t^(p-2)/p) C
    phi(t) = t^2 A - a (p-2)/p t^(p-2) C - gamma c^2/4     (= Q(u^t))
    g'(t)  = phi(t)/t,     g''(t) = phi'(t)/t - phi(t)/t^2

Critical points of g are the roots of phi; the branch at each root is
'plus' when g'' > 0 (local minimum) and 'minus' when g'' < 0, read from
the g'' a BranchPoint keeps.
Each root is the float where phi changes sign: a scan halves or doubles
t from a point on one side of the root until phi changes sign, and the
last two points, a factor 2 apart, are bisected to adjacent floats.  A
scan that leaves the positive finite floats is refused with RegimeError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import List, Tuple, Union

from .errors import DomainError, MassMismatchError, RegimeError, ResolutionError
from .functionals import Evaluation, Params
from .grid import (_PROFILE_LEAK_TOL, Field, boundary_mass_fraction, mass, normalize,
                   resample)

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

# Relative mass change above which a dilation is refused as unresolved.  A
# resolved field keeps its mass to round-off; a 64^2 unit Gaussian on L = 40
# changes it by 7.2e-3 at t = 2, 0.26 at t = 3 and 508 at t = 64.
_DILATION_MASS_TOL = 0.1

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
    """A critical point of the fiber map: g and gpp are the fiber energy
    and its second derivative at s, whose sign names the branch."""

    s: float
    g: float
    gpp: float

    @property
    def branch(self) -> str:
        """'plus' (local minimum of g) when g'' > 0, else 'minus'."""
        return "plus" if self.gpp > 0 else "minus"


def scalars(u: Union[Field, Evaluation], params: Params) -> FiberScalars:
    """Fiber invariants of a field, on its grid's kernel table, or of its
    evaluation.  Raises MassMismatchError unless the mass of u is params.c
    to 1e-8 relative."""
    ev = u if isinstance(u, Evaluation) else Evaluation(u)
    m = ev.mass
    if abs(m - params.c) > 1e-8 * max(params.c, 1e-300):
        raise MassMismatchError(f"field mass {m!r} differs from required {params.c!r}")
    return FiberScalars(A=ev.A, C=ev.C(params.p), V=ev.V, params=params)


def _check_t(t: float) -> float:
    t = float(t)
    if not 0.0 < t < math.inf:
        raise ValueError(f"dilation parameter must be positive and finite, got {t}")
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


def _phi_finite(sc: FiberScalars, t: float) -> float:
    """phi(t); RegimeError unless t is a positive finite float and phi(t)
    is finite."""
    try:
        f = phi(sc, t) if 0.0 < t < math.inf else math.nan
    except OverflowError:
        f = math.nan
    if not math.isfinite(f):
        raise RegimeError(
            f"phi is not a finite float at t = {t!r}; the scalar tuple is "
            "numerically degenerate")
    return f


def _scan(sc: FiberScalars, t: float, factor: float) -> Tuple[float, float]:
    """Multiply t by factor (1/2 or 2) until phi changes sign (phi > 0
    against phi <= 0); the last two points, in increasing order, bracket
    the root."""
    side = _phi_finite(sc, t) > 0
    while True:
        last, t = t, t * factor
        if (_phi_finite(sc, t) > 0) != side:
            return min(last, t), max(last, t)


def _root(sc: FiberScalars, t: float, factor: float) -> float:
    """The float where phi changes sign in the bracket of _scan(sc, t,
    factor): bisect it to two adjacent floats, and return the one with the
    smaller |phi|, the lower one on a tie."""
    lo, hi = _scan(sc, t, factor)
    flo, fhi = phi(sc, lo), phi(sc, hi)
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return hi if abs(fhi) < abs(flo) else lo
        fmid = phi(sc, mid)
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid


def _branch_point(sc: FiberScalars, s: float) -> BranchPoint:
    if not sys.float_info.min <= s * s < math.inf:
        raise RegimeError(
            f"fiber critical point s = {s!r} has s^2 outside the normal "
            "floats, where g'' is not computed; the scalar tuple is "
            "numerically degenerate")
    curv = ddg(sc, s)
    if not (curv > 0 or curv < 0):  # zero or NaN
        raise ValueError(f"g'' = {curv!r} at s = {s!r} names no branch")
    return BranchPoint(s=s, g=g(sc, s), gpp=curv)


def critical_points(sc: FiberScalars) -> List[BranchPoint]:
    """All critical points of the fiber map, ordered by s (0, 1 or 2 points).

    Any sign combination of (gamma, a) is allowed; an empty list is a valid
    result (for signed gamma < 0 with a <= 0 the map is strictly monotone
    and has no critical point).  Each root is found by a scan that halves
    or doubles t until phi changes sign and is the float where it does:
    the scan's bracket is bisected to adjacent floats.  A scan that leaves
    the positive finite floats, or a root whose g'' cannot be computed,
    raises RegimeError.
    """
    p = sc.params
    D = 0.25 * p.gamma * p.c ** 2  # phi(0+) -> -D

    if p.a <= 0.0:
        # phi strictly increasing from -D to +infinity: one root iff D > 0,
        # left of 2 sqrt(D/A), where phi >= 3D.
        if D <= 0.0:
            return []
        return [_branch_point(sc, _root(sc, 2.0 * math.sqrt(D / sc.A), 0.5))]

    if p.p == 4.0:
        # phi(t) = (A - a C/2) t^2 - D: monotone in t^2.
        coef = sc.A - 0.5 * p.a * sc.C
        if coef == 0.0 or (coef > 0) != (D > 0) or D == 0.0:
            return []
        return [_branch_point(sc, math.sqrt(D / coef))]

    try:
        # A stationary point below the normal floats (it underflows near
        # p = 4) is placed at the least one: phi is monotone on the floats
        # above it all the same.
        ts = max(t_star(sc), sys.float_info.min)
    except OverflowError:
        raise RegimeError(
            "fiber stationary point overflows double precision; the scalar "
            "tuple is numerically degenerate") from None
    f_star = _phi_finite(sc, ts)
    scale = _q_scale(sc.A, sc.params)

    # phi has a minimum at t_star for p < 4 (sigma = +1) and a maximum for
    # p > 4 (sigma = -1), and tends to sigma * infinity as t grows.
    sigma = 1.0 if p.p < 4.0 else -1.0
    if sigma * D >= 0.0:
        # phi(0+) = -D has the sign opposite to phi at infinity (approached
        # from that side when D = 0): single root right of t_star.
        factors = (2.0,)
    elif sigma * f_star >= -_DEGENERATE_TOL * scale:
        return []  # no root (or a degenerate Lambda^0 touching point)
    else:
        factors = (0.5, 2.0)  # one root on each side of t_star
    return [_branch_point(sc, _root(sc, ts, factor)) for factor in factors]


def _critical_point(sc: FiberScalars, branch: str) -> BranchPoint:
    """The critical point of the requested branch; RegimeError when the
    fiber has none."""
    for bp in critical_points(sc):
        if bp.branch == branch:
            return bp
    raise RegimeError(f"fiber has no {branch} critical point")


def dilate(u: Field, t: float) -> Field:
    """Materialize u^t(x) = t u(tx) on the trigonometric interpolant of u,
    t times grid.resample(u, u.grid, t).

    Samples outside the domain are zero.  For a resolved field that fits the
    domain the dilation is exact to round-off: it keeps the mass, and u^s at
    a fiber critical point s has Q = 0 to round-off.  Raises DomainError
    when the dilated support leaks through the boundary frame (for t < 1,
    once the support no longer fits) or no mass is left, and
    ResolutionError when the dilated mass overflows a float or differs from
    u's by more than _DILATION_MASS_TOL relative (the grid does not resolve
    u^t)."""
    t = _check_t(t)
    if t == 1.0:
        return u
    v = resample(u, u.grid, t)
    m = t * t * mass(v)   # the mass of t v, with no overflow in numpy
    if m == math.inf:
        raise ResolutionError(f"dilation by t={t} overflows the mass of u")
    if not m > 0.0 or boundary_mass_fraction(v) > _PROFILE_LEAK_TOL:
        raise DomainError(f"dilation by t={t} leaves no mass on the grid or pushes "
                          "support into the boundary frame; enlarge the domain")
    m0 = mass(u)
    if abs(m - m0) > _DILATION_MASS_TOL * m0:
        raise ResolutionError(f"dilation by t={t} changes the mass by "
                              f"{abs(m - m0) / m0:.2e} relative: the grid does not "
                              "resolve the dilated field; refine the grid")
    return t * v


def project_to_lambda(u: Union[Field, Evaluation], params: Params, branch: str) -> Field:
    """Place u on the Pohozaev set along its fiber: dilate it to the
    requested critical point s of g and renormalize it to mass c.  u may be
    a field or its evaluation, whose A and V are reused, so no transform is
    taken that the evaluation has taken already.  A point within 1e-12 of
    s = 1 returns u's field as it is.  Raises RegimeError when the branch
    does not exist for u, and dilate's DomainError or ResolutionError when
    its point does not fit the domain or is not resolved."""
    if branch not in ("plus", "minus"):
        raise ValueError(f"unknown branch {branch!r}")
    s = _critical_point(scalars(u, params), branch).s
    field = u.u if isinstance(u, Evaluation) else u
    if abs(s - 1.0) < 1e-12:
        return field
    return normalize(dilate(field, s), params.c)
