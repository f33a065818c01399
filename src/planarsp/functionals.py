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
the kernel sampled at node differences (the domain doubling of Hockney &
Eastwood, Computer Simulation Using Particles, 1988).  Both padded
transforms are pruned.  The forward transforms only the n non-zero rows,
by a real transform of length 2n along the second axis, then every column
by a complex transform of length 2n along the first.  Only the n x n block
of the padded inverse is read, so the inverse keeps n rows of a complex
inverse along the first axis and carries only those through a real
inverse along the second.  Both are bit-identical to the full 2n x 2n
transforms.  The kernel value assigned to the
zero-displacement cell is the exact cell average of the kernel over one
grid cell (in closed form for log r; for log(1+r) and log(1+1/r) a fixed
Gauss-Legendre rule over the polar angle of the closed-form integral
along each ray, see _origin_cell_average) plus a singular-weight
correction -pi/12 * sign of the kernel's Dirac content: midpoint sampling
of a kernel whose Laplacian carries 2*pi*alpha*delta_0 overshoots the
convolution by (pi*alpha/12) h^2 u^2(x), and folding the correction into
the origin weight cancels that defect.  alpha is +1 for log r, 0 for
log(1+r) and -1 for log(1+1/r), so the identity V = V1 - V2 is preserved
exactly by construction.

Only the log interaction is non-local, so only it pays for the padded
grid.  The kinetic term, the Laplacian and the Sobolev metric of the flows
use the spectral derivative of the field treated as periodic on the n x n
grid itself; callers keep the boundary mass fraction small so
periodization error stays below the quadrature error.  A, V, V1 and V2
are read from the kept forward spectra by Parseval, so a field whose
gradient is never read takes no inverse transform.

Every quantity of a field is read from its Evaluation (built by
evaluate()), which computes each on first use and keeps it; kinetic,
energy, el_residual and the other functions are views of a fresh one.
Only this module knows the padded 2n x 2n layout.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import MassMismatchError
from .grid import Field, Grid, mass
from .params import Params

__all__ = [
    "Params",
    "EnergyBreakdown",
    "KernelTable",
    "kernel_table",
    "Evaluation",
    "evaluate",
    "smooth_direction",
    "prolong",
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


# Nodes of the Gauss-Legendre rule of the origin-cell averages.  Their
# integrand in the polar angle is analytic but at +-pi/2, three
# half-widths of [0, pi/4] from its centre, so 16 nodes reach rounding.
_ORIGIN_NODES = 16


def _gauss_legendre(f, a: float, b: float, n: int) -> float:
    """Integral of the vectorized f over [a, b] by the n-node
    Gauss-Legendre rule."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return half * float(np.dot(w, f(a + half * (1.0 + x))))


def _r_log(R):
    """int_0^R r log r dr."""
    return 0.5 * R * R * (np.log(R) - 0.5)


def _r_log1p(R):
    """int_0^R r log(1+r) dr."""
    return 0.5 * R * R * np.log1p(R) - 0.25 * R * R + 0.5 * (R - np.log1p(R))


def _r_log1p_inv(R):
    """int_0^R r log(1+1/r) dr."""
    return _r_log1p(R) - _r_log(R)


def _origin_cell_average(inner, h: float) -> float:
    """Average over one grid cell [-h/2, h/2]^2 of a radial function f(|z|),
    given inner(R) = int_0^R f(r) r dr in closed form.

    The cell is eight copies of the polar triangle 0 <= theta <= pi/4,
    r <= (h/2)/cos(theta), so the average is (8/h^2) times the integral of
    inner((h/2)/cos(theta)) over [0, pi/4], taken by the fixed
    _ORIGIN_NODES-node Gauss-Legendre rule.
    """
    s = 0.5 * h
    outer = _gauss_legendre(lambda theta: inner(s / np.cos(theta)),
                            0.0, 0.25 * np.pi, _ORIGIN_NODES)
    return 8.0 * outer / (h * h)


def _log_cell_average(h: float) -> float:
    """Average of log|z| over one grid cell, in closed form."""
    return math.log(h) - 0.5 * math.log(2.0) + 0.25 * math.pi - 1.5


def _kernel_rfft(r: np.ndarray, pos: np.ndarray, f, origin: float) -> np.ndarray:
    """Real part of the rfft2 of the kernel f sampled at the node distances
    r, where pos is r > 0, and the weight origin at r = 0.  The samples are
    even, so the imaginary part is rounding only."""
    import scipy.fft as sfft

    k = np.empty_like(r)
    k[pos] = f(r[pos])
    k[~pos] = origin
    return sfft.rfft2(k).real.copy()


# Squared decay length of the Sobolev metric (1 - beta Delta).
_SOBOLEV_BETA = 0.25


@dataclass(frozen=True)
class KernelTable:
    """Per-grid spectral data: |k|^2 and the Sobolev smoother on the n x n
    grid, and the kernel transforms on the padded 2n x 2n grid.

    Immutable after construction and safe to share across threads.
    """

    grid: Grid
    k2: np.ndarray          # |k|^2 in rfft2 layout on the n x n grid
    smoother: np.ndarray    # 1 / (1 + beta |k|^2), the inverse Sobolev metric
    khat_log: np.ndarray    # real part of the padded rfft2 of log|z|
    khat_v1: np.ndarray     # real part of the padded rfft2 of log(1+|z|)
    khat_v2: np.ndarray     # real part of the padded rfft2 of log(1+1/|z|)
    log_weight: np.ndarray  # log(1+|x|) quadrature weight on the n x n grid

    @staticmethod
    def build(grid: Grid) -> "KernelTable":
        import scipy.fft as sfft

        n, h = grid.n, grid.h
        # The log average is closed form and the other two come from the
        # Gauss-Legendre rule; the identity log r = log(1+r) - log(1+1/r)
        # then holds to rounding (and a corrupted origin value in any one
        # kernel breaks it).
        avg_log = _log_cell_average(h)
        avg_v1 = _origin_cell_average(_r_log1p, h)
        avg_v2 = _origin_cell_average(_r_log1p_inv, h)
        # Node distances on the padded grid, shared by the three kernels.
        idx = np.arange(2 * n)
        d = np.where(idx < n, idx, idx - 2 * n) * h
        r = np.hypot(d[:, None], d[None, :])
        pos = r > 0
        khat_log = _kernel_rfft(r, pos, np.log, avg_log - _SINGULAR_WEIGHT)
        khat_v1 = _kernel_rfft(r, pos, np.log1p, avg_v1)
        khat_v2 = _kernel_rfft(r, pos, lambda r: np.log1p(1.0 / r),
                               avg_v2 + _SINGULAR_WEIGHT)
        k = 2.0 * np.pi * sfft.fftfreq(n, d=h)
        k2 = k[:, None] ** 2 + k[None, : n // 2 + 1] ** 2
        return KernelTable(grid=grid, k2=k2,
                           smoother=1.0 / (1.0 + _SOBOLEV_BETA * k2),
                           khat_log=khat_log,
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


# ---------------------------------------------------------------------------
# One evaluation per field
# ---------------------------------------------------------------------------


def _forward(values: np.ndarray) -> np.ndarray:
    """rfft2 of the n x n values zero-padded to the 2n x 2n grid, pruned:
    the n rows, the only non-zero ones, by a real transform of length 2n
    along the second axis, then every column of them by a complex one of
    length 2n along the first.  These are the two stages rfft2 runs, minus
    the real transforms of the n zero rows, so the spectrum is
    bit-identical to rfft2(values, s=(2n, 2n)).  It is a fresh array that
    the caller owns."""
    import scipy.fft as sfft

    n = values.shape[0]
    rows = sfft.rfftn(values, s=(2 * n,), axes=(1,))
    return sfft.fftn(rows, s=(2 * n,), axes=(0,), overwrite_x=True)


def _inverse(spec: np.ndarray, n: int) -> np.ndarray:
    """The n x n block of the padded inverse transform, pruned: the inverse
    along the first axis keeps its first n rows, and only those are carried
    through the real inverse along the second axis.  Returns a view of an
    n x 2n array.  The rows are the ones irfft2 computes, and the two
    normalizations 1/(2n) are exact (n is a power of two), so the block is
    bit-identical to irfft2(spec, s=(2n, 2n))[:n, :n].

    spec is consumed (overwrite_x): pass only a fresh temporary, never a
    kept spectrum such as Evaluation.spec_sq or a KernelTable array."""
    import scipy.fft as sfft

    rows = sfft.ifftn(spec, axes=(0,), overwrite_x=True)[:n]
    return sfft.irfftn(rows, s=(2 * n,), axes=(1,), overwrite_x=True)[:, :n]


def _parseval(multiplier: np.ndarray, spec: np.ndarray) -> float:
    """(1/N) sum multiplier |spec|^2 over the N-point spectrum whose rfft2
    half is spec, for a real multiplier even in k: the first and last
    columns (k_y = 0 and the Nyquist column) stand for themselves and every
    other one also for its mirror.  N is the square of the row count, so
    this serves the n x n and the padded 2n x 2n spectra alike."""
    dens = multiplier * (spec.real ** 2 + spec.imag ** 2)
    total = 2.0 * float(np.sum(dens)) - float(np.sum(dens[:, 0])) \
        - float(np.sum(dens[:, -1]))
    return total / dens.shape[0] ** 2


class Evaluation:
    """Every functional of one field u, each computed on first use and kept.

    Two forward transforms feed all of them: rfft2 of u on the n x n grid
    (spec_u) and rfft2 of u^2 zero-padded to 2n x 2n (spec_sq, pruned to
    the n non-zero rows, bit-identical to the full padded rfft2).  A, V, V1
    and V2 are read from them by Parseval, so F takes no inverse transform.
    -Delta u takes one n x n inverse, and w = log|.| * u^2 one pruned padded
    inverse (n rows by ifft, then n columns by irfft, bit-identical to the
    n x n block of the full padded inverse); only grad and the quantities
    built on it read them.
    """

    def __init__(self, u: Field, table: KernelTable):
        self.u, self.table = u, table
        self._h2 = u.grid.h * u.grid.h
        self._C: Dict[float, float] = {}

    @cached_property
    def spec_u(self) -> np.ndarray:
        """rfft2 of u on the n x n grid, kept for A and -Delta u."""
        import scipy.fft as sfft

        return sfft.rfft2(self.u.values)

    @cached_property
    def spec_sq(self) -> np.ndarray:
        """rfft2 of u^2 on the padded grid, kept for w, V, V1 and V2."""
        return _forward(self.u.values * self.u.values)

    @cached_property
    def A(self) -> float:
        """integral |grad u|^2, spectral on the periodic n x n grid."""
        return self._h2 * _parseval(self.table.k2, self.spec_u)

    @cached_property
    def V(self) -> float:
        """<u^2, log * u^2>."""
        return self._h2 * self._h2 * _parseval(self.table.khat_log, self.spec_sq)

    @cached_property
    def V1(self) -> float:
        """V with the nonnegative kernel log(1+|x-y|)."""
        return self._h2 * self._h2 * _parseval(self.table.khat_v1, self.spec_sq)

    @cached_property
    def V2(self) -> float:
        """V with the nonnegative kernel log(1+1/|x-y|)."""
        return self._h2 * self._h2 * _parseval(self.table.khat_v2, self.spec_sq)

    @cached_property
    def w(self) -> np.ndarray:
        """The log potential log|.| * u^2 on the grid."""
        return self._h2 * _inverse(self.spec_sq * self.table.khat_log, self.u.grid.n)

    @cached_property
    def neg_lap(self) -> np.ndarray:
        """-Delta u on the periodic n x n grid."""
        import scipy.fft as sfft

        return sfft.irfft2(self.spec_u * self.table.k2, s=self.u.values.shape,
                           overwrite_x=True)

    @cached_property
    def star_norm(self) -> float:
        """Weighted-norm diagnostic integral log(1+|x|) u^2."""
        return float(self._h2 * np.sum(self.table.log_weight * self.u.values
                                       * self.u.values))

    def C(self, p: float) -> float:
        """integral |u|^p for p > 2."""
        if p not in self._C:
            self._C[p] = pnorm(self.u, p)
        return self._C[p]

    def F(self, params: Params) -> float:
        """F = A/2 + (gamma/4) V - (a/p) C."""
        return 0.5 * self.A + 0.25 * params.gamma * self.V \
            - (params.a / params.p) * self.C(params.p)

    def Q(self, params: Params) -> float:
        """Q = A - a (p-2)/p C - gamma c^2 / 4, c the prescribed mass: the fiber
        map's derivative at t = 1, zero at every constrained critical point."""
        return self.A - params.a * (params.p - 2.0) / params.p * self.C(params.p) \
            - 0.25 * params.gamma * params.c ** 2

    def grad(self, params: Params, s: float = 1.0) -> np.ndarray:
        """L2 gradient of u -> F(u^s), u^s(x) = s u(sx), read on the grid by
        the dilation covariance of grad F, m the mass of u:
        s^2 (-Delta u) + gamma (w - m log s) u - a s^(p-2) |u|^(p-2) u.
        s = 1 gives grad F, the exact gradient of the discrete energy."""
        vals, p = self.u.values, params.p
        nonlin = np.abs(vals) ** (p - 2.0) * vals
        return (s * s * self.neg_lap
                + params.gamma * (self.w - mass(self.u) * math.log(s)) * vals
                - params.a * s ** (p - 2.0) * nonlin)

    def lam(self, params: Params, s: float = 1.0) -> float:
        """Multiplier of the mass constraint, -<grad(params, s), u>/m, which
        makes grad + lambda u orthogonal to u; -(A + gamma V - a C)/m at s = 1."""
        m = mass(self.u)
        if m == 0.0:
            raise ValueError("Lagrange multiplier of the zero field is undefined")
        log_s = math.log(s)
        return -(s * s * self.A + params.gamma * (self.V - m * m * log_s)
                 - params.a * s ** (params.p - 2.0) * self.C(params.p)) / m

    def breakdown(self, params: Params) -> EnergyBreakdown:
        """All scalar functionals of u."""
        return EnergyBreakdown(A=self.A, C=self.C(params.p), V=self.V, V1=self.V1,
                               V2=self.V2, F=self.F(params), star_norm=self.star_norm)

    def pohozaev_residual(self, params: Params, lam: float) -> float:
        """Scale-free defect of lambda m + gamma V + (gamma/4) m^2 - (2a/p) C
        = 0, m the mass of u; zero for the zero field."""
        m = mass(self.u)
        if m == 0.0:
            return 0.0
        V, C = self.V, self.C(params.p)
        num = abs(lam * m + params.gamma * V + 0.25 * params.gamma * m * m
                  - (2.0 * params.a / params.p) * C)
        den = 1.0 + abs(lam) * m + abs(params.gamma) * abs(V)
        return num / den

    def el_residual(self, params: Params, lam: float) -> float:
        """Relative L2 norm of the Euler-Lagrange defect grad F + lambda u."""
        g = self.grad(params)
        defect = np.sqrt(self._h2 * np.sum((g + lam * self.u.values) ** 2))
        gnorm = np.sqrt(self._h2 * np.sum(g * g))
        return float(defect / (1.0 + gnorm + abs(lam) * np.sqrt(mass(self.u))))


def evaluate(u: Field, table: Optional[KernelTable] = None) -> Evaluation:
    """The (lazy) evaluation of u on its grid's kernel table."""
    return Evaluation(u, table or kernel_table(u.grid))


def smooth_direction(values: np.ndarray, table: KernelTable) -> np.ndarray:
    """Inverse-Helmholtz (1 - beta Delta)^-1 applied spectrally on the
    periodic n x n grid: the Sobolev-metric representation of a gradient
    direction.  The short-range kernel (decay length sqrt(beta)) keeps the
    direction from smearing mass toward the boundary frame.

    The fresh spectrum of values is multiplied in place by the table's
    1 / (1 + beta |k|^2).  That is the division by 1 + beta |k|^2 bit for
    bit: numpy divides a complex number by one with zero imaginary part by
    multiplying it with the reciprocal of the real part."""
    import scipy.fft as sfft

    spec = sfft.rfft2(values)
    spec *= table.smoother
    return sfft.irfft2(spec, s=values.shape, overwrite_x=True)


def prolong(u: Field, grid: Grid) -> Field:
    """The trigonometric interpolant of u sampled on grid, a finer grid of
    the same extent: the rfft2 spectrum of u zero-padded to grid.n (Bao &
    Du, SIAM J. Sci. Comput. 25, 2004).

    Both grids start at -L/2, so every node of u is a node of grid, and
    there the interpolant returns u.  The coarse Nyquist row stands for the
    wavenumbers +-m/2 at once, which the finer grid tells apart, so each
    takes half of it; the coarse Nyquist column becomes an interior column,
    which also stands for its mirror, so it is halved too.  The mass of u
    is kept up to its Nyquist content; callers renormalize."""
    import scipy.fft as sfft

    m, n = u.grid.n, grid.n
    if grid.extent != u.grid.extent or n <= m:
        raise ValueError(f"cannot prolong a field on {u.grid} to {grid}: the target "
                         "must be a finer grid of the same extent")
    spec = sfft.rfft2(u.values) * (n / m) ** 2
    half = m // 2
    padded = np.zeros((n, n // 2 + 1), dtype=spec.dtype)
    padded[:half, :half + 1] = spec[:half]
    padded[n - half + 1:, :half + 1] = spec[half + 1:]
    padded[half, :half + 1] = padded[n - half, :half + 1] = 0.5 * spec[half]
    padded[:, half] *= 0.5
    return Field(grid, sfft.irfft2(padded, s=(n, n), overwrite_x=True))


# ---------------------------------------------------------------------------
# Functionals of a field, each a view of its evaluation
# ---------------------------------------------------------------------------


def kinetic(u: Field, table: Optional[KernelTable] = None) -> float:
    """Evaluation.A of u."""
    return evaluate(u, table).A


def pnorm(u: Field, p: float) -> float:
    """C(u) = integral |u|^p for p > 2."""
    if p <= 2:
        raise ValueError(f"pnorm requires p > 2, got {p}")
    h = u.grid.h
    return float(h * h * np.sum(np.abs(u.values) ** p))


def log_potential(u: Field, table: Optional[KernelTable] = None) -> Field:
    """Evaluation.w of u, as a field."""
    return Field(u.grid, evaluate(u, table).w)


def v_total(u: Field, table: Optional[KernelTable] = None) -> float:
    """Evaluation.V of u."""
    return evaluate(u, table).V


def v1(u: Field, table: Optional[KernelTable] = None) -> float:
    """Evaluation.V1 of u."""
    return evaluate(u, table).V1


def v2(u: Field, table: Optional[KernelTable] = None) -> float:
    """Evaluation.V2 of u."""
    return evaluate(u, table).V2


def star_norm(u: Field, table: Optional[KernelTable] = None) -> float:
    """Evaluation.star_norm of u."""
    return evaluate(u, table).star_norm


def energy(u: Field, params: Params, table: Optional[KernelTable] = None) -> EnergyBreakdown:
    """Evaluation.breakdown of u."""
    return evaluate(u, table).breakdown(params)


def grad_energy(u: Field, params: Params, table: Optional[KernelTable] = None) -> Field:
    """Evaluation.grad of u at s = 1, as a field."""
    return Field(u.grid, evaluate(u, table).grad(params))


def pohozaev_Q(u: Field, params: Params, table: Optional[KernelTable] = None) -> float:
    """Evaluation.Q of u."""
    return evaluate(u, table).Q(params)


def lagrange_multiplier(u: Field, params: Params,
                        table: Optional[KernelTable] = None) -> float:
    """Evaluation.lam of u at s = 1."""
    return evaluate(u, table).lam(params)


def pohozaev_residual(u: Field, params: Params, lam: float,
                      table: Optional[KernelTable] = None) -> float:
    """Evaluation.pohozaev_residual of u."""
    return evaluate(u, table).pohozaev_residual(params, lam)


def el_residual(u: Field, params: Params, lam: float,
                table: Optional[KernelTable] = None) -> float:
    """Evaluation.el_residual of u."""
    return evaluate(u, table).el_residual(params, lam)


def require_mass(u: Field, c: float) -> None:
    """Raise MassMismatchError unless mass(u) matches c to relative 1e-8."""
    m = mass(u)
    if abs(m - c) > 1e-8 * max(c, 1e-300):
        raise MassMismatchError(f"field mass {m!r} differs from required {c!r}")
