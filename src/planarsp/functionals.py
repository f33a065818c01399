"""Integral quantities of the constrained energy.

For a field u on the grid this module computes

    A(u) = integral |grad u|^2          (kinetic term)
    C(u) = integral |u|^p               (p-norm term)
    V(u) = double integral log|x-y| u^2(x) u^2(y)   (log interaction)

and the energy F(u) = A/2 + (gamma/4) V - (a/p) C together with its
L2-gradient, the Pohozaev functional Q, the Lagrange multiplier of the
mass constraint, and the stationarity residuals.

The convolution w = log|.| * u^2 is evaluated as a free-space convolution:
u^2 is zero-padded to a 2n x 2n grid and multiplied in Fourier space with
the kernel sampled at node differences.  The kernel value assigned to the
zero-displacement cell is the exact cell average of the kernel over one
grid cell (computed once by adaptive quadrature) plus a singular-weight
correction -pi/12 * sign of the kernel's Dirac content: midpoint sampling
of a kernel whose Laplacian carries 2*pi*alpha*delta_0 overshoots the
convolution by (pi*alpha/12) h^2 u^2(x), and folding the correction into
the origin weight cancels that defect.  alpha is +1 for log r, 0 for
log(1+r) and -1 for log(1+1/r), so the identity V = V1 - V2 is preserved
exactly by construction.

The kinetic term and the Laplacian use the spectral derivative of the
field treated as periodic on the padded (2L) domain; callers keep the
boundary mass fraction small so periodization error stays below the
quadrature error.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.fft as sfft
from scipy.integrate import quad

from .errors import MassMismatchError
from .grid import Field, Grid, mass

__all__ = [
    "Params",
    "EnergyBreakdown",
    "KernelTable",
    "kernel_table",
    "kinetic",
    "pnorm",
    "log_potential",
    "v_total",
    "v1",
    "v2",
    "star_norm",
    "energy",
    "grad_energy",
    "pohozaev_Q",
    "lagrange_multiplier",
    "pohozaev_residual",
    "el_residual",
]

# Origin-weight correction for kernels with Laplacian 2*pi*alpha*delta_0.
_SINGULAR_WEIGHT = np.pi / 12.0


@dataclass(frozen=True)
class Params:
    """Problem parameters: -Delta u + gamma (log|.| * u^2) u = a |u|^(p-2) u
    under the mass constraint integral u^2 = c.  gamma is signed."""

    gamma: float
    a: float
    p: float
    c: float

    def __post_init__(self):
        for name in ("gamma", "a", "p", "c"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.p <= 2:
            raise ValueError(f"exponent p must exceed 2, got {self.p}")
        if self.c <= 0:
            raise ValueError(f"mass c must be positive, got {self.c}")


@dataclass(frozen=True)
class EnergyBreakdown:
    """All functional values of one field evaluation.

    F = A/2 + (gamma/4) V - (a/p) C holds exactly in the stored values;
    V = V1 - V2 holds to quadrature tolerance; V1, V2 >= 0.
    star_norm is the diagnostic weighted norm integral log(1+|x|) u^2.
    """

    A: float
    C: float
    V: float
    V1: float
    V2: float
    F: float
    star_norm: float


# ---------------------------------------------------------------------------
# Kernel tables (per-grid spectral workspace)
# ---------------------------------------------------------------------------


def _origin_cell_average(f, h: float) -> float:
    """Exact average of the radial function f(|z|) over one grid cell.

    The cell [-h/2, h/2]^2 is reduced to a polar octant; the integrand
    f(r) * r is bounded for all three log kernels, so nested adaptive
    quadrature reaches ~1e-11 absolute accuracy cheaply.
    """
    s = 0.5 * h

    def inner(theta):
        rmax = s / np.cos(theta)
        val, _ = quad(lambda r: f(r) * r, 0.0, rmax,
                      epsabs=1e-13, epsrel=1e-12, limit=200)
        return val

    outer, _ = quad(inner, 0.0, np.pi / 4.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    return 8.0 * outer / (h * h)


def _kernel_rfft(n: int, h: float, f, origin: float) -> np.ndarray:
    idx = np.arange(2 * n)
    d = np.where(idx < n, idx, idx - 2 * n) * h
    dx, dy = np.meshgrid(d, d, indexing="ij")
    r = np.hypot(dx, dy)
    k = np.empty_like(r)
    pos = r > 0
    k[pos] = f(r[pos])
    k[~pos] = origin
    return sfft.rfft2(k)


@dataclass(frozen=True)
class KernelTable:
    """Per-grid spectral data: kernel transforms and |k|^2 on the padded grid.

    Immutable after construction and safe to share across threads.
    """

    grid: Grid
    k2: np.ndarray          # |k|^2 in rfft2 layout on the 2n x 2n padded grid
    khat_log: np.ndarray    # rfft2 of log|z| kernel samples
    khat_v1: np.ndarray     # rfft2 of log(1+|z|)
    khat_v2: np.ndarray     # rfft2 of log(1+1/|z|)
    log_weight: np.ndarray  # log(1+|x|) quadrature weight on the n x n grid

    @staticmethod
    def build(grid: Grid) -> "KernelTable":
        n, h = grid.n, grid.h
        # All three cell averages are computed independently; the identity
        # log r = log(1+r) - log(1+1/r) then holds to quadrature accuracy
        # (and a corrupted origin value in any one kernel breaks it).
        avg_log = _origin_cell_average(np.log, h)
        avg_v1 = _origin_cell_average(np.log1p, h)
        avg_v2 = _origin_cell_average(lambda r: np.log1p(1.0 / r), h)
        khat_log = _kernel_rfft(n, h, np.log, avg_log - _SINGULAR_WEIGHT)
        khat_v1 = _kernel_rfft(n, h, np.log1p, avg_v1)
        khat_v2 = _kernel_rfft(n, h, lambda r: np.log1p(1.0 / r),
                               avg_v2 + _SINGULAR_WEIGHT)
        k = 2.0 * np.pi * sfft.fftfreq(2 * n, d=h)
        k2 = k[:, None] ** 2 + k[None, : n + 1] ** 2
        return KernelTable(grid=grid, k2=k2, khat_log=khat_log,
                           khat_v1=khat_v1, khat_v2=khat_v2,
                           log_weight=np.log1p(grid.radius()))


_TABLE_CACHE: Dict[Tuple[int, float], KernelTable] = {}
_TABLE_LOCK = threading.Lock()


def kernel_table(grid: Grid) -> KernelTable:
    """Fetch (or build and cache) the spectral workspace for a grid."""
    key = (grid.n, grid.extent)
    table = _TABLE_CACHE.get(key)
    if table is None:
        with _TABLE_LOCK:
            table = _TABLE_CACHE.get(key)
            if table is None:
                table = KernelTable.build(grid)
                _TABLE_CACHE[key] = table
    return table


def _pad(values: np.ndarray) -> np.ndarray:
    n = values.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = values
    return out


def _convolve(values: np.ndarray, khat: np.ndarray, h: float) -> np.ndarray:
    n = values.shape[0]
    spec = sfft.rfft2(_pad(values)) * khat
    return h * h * sfft.irfft2(spec, s=(2 * n, 2 * n))[:n, :n]


def _neg_laplacian(values: np.ndarray, table: KernelTable) -> np.ndarray:
    n = values.shape[0]
    spec = table.k2 * sfft.rfft2(_pad(values))
    return sfft.irfft2(spec, s=(2 * n, 2 * n))[:n, :n]


# ---------------------------------------------------------------------------
# Scalar functionals
# ---------------------------------------------------------------------------


def kinetic(u: Field, table: Optional[KernelTable] = None) -> float:
    """A(u) = integral |grad u|^2, spectral on the padded domain."""
    table = table or kernel_table(u.grid)
    h = u.grid.h
    val = h * h * np.sum(u.values * _neg_laplacian(u.values, table))
    return float(max(val, 0.0))


def pnorm(u: Field, p: float) -> float:
    """C(u) = integral |u|^p for p > 2."""
    if p <= 2:
        raise ValueError(f"pnorm requires p > 2, got {p}")
    h = u.grid.h
    return float(h * h * np.sum(np.abs(u.values) ** p))


def log_potential(u: Field, table: Optional[KernelTable] = None) -> Field:
    """w = log|.| * u^2 via the zero-padded free-space convolution."""
    table = table or kernel_table(u.grid)
    return Field(u.grid, _convolve(u.values * u.values, table.khat_log, u.grid.h))


def v_total(u: Field, table: Optional[KernelTable] = None) -> float:
    """V(u) = <u^2, log * u^2>."""
    table = table or kernel_table(u.grid)
    u2 = u.values * u.values
    h = u.grid.h
    return float(h * h * np.sum(u2 * _convolve(u2, table.khat_log, h)))


def v1(u: Field, table: Optional[KernelTable] = None) -> float:
    """V1(u) with the nonnegative kernel log(1+|x-y|)."""
    table = table or kernel_table(u.grid)
    u2 = u.values * u.values
    h = u.grid.h
    return float(h * h * np.sum(u2 * _convolve(u2, table.khat_v1, h)))


def v2(u: Field, table: Optional[KernelTable] = None) -> float:
    """V2(u) with the nonnegative kernel log(1+1/|x-y|)."""
    table = table or kernel_table(u.grid)
    u2 = u.values * u.values
    h = u.grid.h
    return float(h * h * np.sum(u2 * _convolve(u2, table.khat_v2, h)))


def star_norm(u: Field, table: Optional[KernelTable] = None) -> float:
    """Weighted-norm diagnostic integral log(1+|x|) u^2."""
    table = table or kernel_table(u.grid)
    h = u.grid.h
    return float(h * h * np.sum(table.log_weight * u.values * u.values))


@dataclass(frozen=True)
class _Core:
    """Shared per-iterate evaluation: one convolution, one Laplacian."""

    A: float
    C: float
    V: float
    F: float
    w: np.ndarray
    neg_lap: np.ndarray


def _core(u: Field, params: Params, table: KernelTable) -> _Core:
    h = u.grid.h
    vals = u.values
    neg_lap = _neg_laplacian(vals, table)
    A = float(max(h * h * np.sum(vals * neg_lap), 0.0))
    C = float(h * h * np.sum(np.abs(vals) ** params.p))
    w = _convolve(vals * vals, table.khat_log, h)
    V = float(h * h * np.sum(vals * vals * w))
    F = 0.5 * A + 0.25 * params.gamma * V - (params.a / params.p) * C
    return _Core(A=A, C=C, V=V, F=F, w=w, neg_lap=neg_lap)


def energy(u: Field, params: Params, table: Optional[KernelTable] = None) -> EnergyBreakdown:
    """Full energy breakdown of u under the given parameters."""
    table = table or kernel_table(u.grid)
    core = _core(u, params, table)
    return EnergyBreakdown(
        A=core.A,
        C=core.C,
        V=core.V,
        V1=v1(u, table),
        V2=v2(u, table),
        F=core.F,
        star_norm=star_norm(u, table),
    )


def grad_energy(u: Field, params: Params, table: Optional[KernelTable] = None) -> Field:
    """L2-gradient of F: -Delta u + gamma w u - a |u|^(p-2) u.

    This is the exact discrete gradient of the discrete energy, so central
    differences of energy() match <grad, phi> to rounding.
    """
    table = table or kernel_table(u.grid)
    core = _core(u, params, table)
    return Field(u.grid, _grad_values(u.values, params, core))


def _grad_values(vals: np.ndarray, params: Params, core: _Core) -> np.ndarray:
    nonlin = np.abs(vals) ** (params.p - 2.0) * vals
    return core.neg_lap + params.gamma * core.w * vals - params.a * nonlin


def pohozaev_Q(u: Field, params: Params, table: Optional[KernelTable] = None) -> float:
    """Q(u) = A - a (p-2)/p C - gamma c^2 / 4 with c the prescribed mass.

    Q is the derivative of the dilation fiber map at t = 1 and vanishes at
    every constrained critical point.
    """
    table = table or kernel_table(u.grid)
    A = kinetic(u, table)
    C = pnorm(u, params.p)
    return A - params.a * (params.p - 2.0) / params.p * C - 0.25 * params.gamma * params.c ** 2


def lagrange_multiplier(u: Field, params: Params,
                        table: Optional[KernelTable] = None) -> float:
    """Multiplier of the mass constraint: lambda = -(A + gamma V - a C)/m.

    Uses the actual mass m of u; equals the least-squares coefficient that
    makes grad F + lambda u orthogonal to u.
    """
    m = mass(u)
    if m == 0.0:
        raise ValueError("Lagrange multiplier of the zero field is undefined")
    table = table or kernel_table(u.grid)
    A = kinetic(u, table)
    C = pnorm(u, params.p)
    V = v_total(u, table)
    return -(A + params.gamma * V - params.a * C) / m


def pohozaev_residual(u: Field, params: Params, lam: float,
                      table: Optional[KernelTable] = None) -> float:
    """Scale-free defect of the stationarity identity

        lambda m + gamma V + (gamma/4) m^2 - (2a/p) C = 0

    with m the actual mass of u.  Zero for the zero field."""
    m = mass(u)
    if m == 0.0:
        return 0.0
    table = table or kernel_table(u.grid)
    V = v_total(u, table)
    C = pnorm(u, params.p)
    num = abs(lam * m + params.gamma * V + 0.25 * params.gamma * m * m
              - (2.0 * params.a / params.p) * C)
    den = 1.0 + abs(lam) * m + abs(params.gamma) * abs(V)
    return num / den


def el_residual(u: Field, params: Params, lam: float,
                table: Optional[KernelTable] = None) -> float:
    """Relative L2 norm of the Euler-Lagrange defect grad F(u) + lambda u."""
    table = table or kernel_table(u.grid)
    core = _core(u, params, table)
    g = _grad_values(u.values, params, core)
    h = u.grid.h
    defect = np.sqrt(h * h * np.sum((g + lam * u.values) ** 2))
    gnorm = np.sqrt(h * h * np.sum(g * g))
    unorm = np.sqrt(mass(u))
    return float(defect / (1.0 + gnorm + abs(lam) * unorm))


def require_mass(u: Field, c: float, rtol: float = 1e-8) -> None:
    """Raise MassMismatchError unless mass(u) matches c to relative rtol."""
    m = mass(u)
    if abs(m - c) > rtol * max(c, 1e-300):
        raise MassMismatchError(f"field mass {m!r} differs from required {c!r}")
