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
the transform of a kernel at the node displacements (the domain doubling
of Hockney & Eastwood, Computer Simulation Using Particles, 1988).  Both
padded transforms are pruned.  The forward transforms only the n non-zero
rows, by a real transform of length 2n along the second axis, then every
column by a complex transform of length 2n along the first.  Only the
n x n block of the padded inverse is read, so the inverse keeps n rows of
a complex inverse along the first axis and carries only those through a
real inverse along the second.  Both are bit-identical to the full 2n x 2n
transforms.

The log kernel is not sampled: its values at the node displacements come
from the truncated-kernel method (Vico, Greengard & Ferrando, J. Comput.
Phys. 323, 2016).  No two nodes are further apart than R = sqrt(2) L, so
log|z| cut off at R convolves u^2 exactly as log|z| does, and the cut-off
kernel has a smooth transform in closed form (Bessel functions J0 and J1,
here in numpy).  Sampled on the frequencies of period 3L and transformed
back, it gives a convolution as accurate as the trapezoidal rule is for
u^2 itself: spectral, where a sampled log|z|, even with a corrected origin
weight, leaves an O(h^2) error in V and in everything built on it.  The
kernel is even in both axes and symmetric under their swap, so the Bessel
values are taken on one triangle of a frequency quadrant, in blocks of
rows, and both transforms are DCT-I on quadrants.  The table keeps each
padded kernel transform as its (n+1) x (n+1) quadrant, half the padded
2n x (n+1) half spectrum, and multiplies a spectrum by it in place, rows
n+1..2n-1 by the quadrant's rows n-1..1 read backwards.  V1, with the
kernel log(1+|z|), is a cusp and no singularity; it keeps the sampled
kernel with the exact cell average at the origin (a fixed Gauss-Legendre
rule over the polar angle, see _log1p_origin_average), and V2 = V1 - V, so
V = V1 - V2 holds by construction.

Only the log interaction is non-local, so only it pays for the padded
grid.  The kinetic term, the Laplacian and the Sobolev metric of the flows
use the spectral derivative of the field treated as periodic on the n x n
grid itself; callers keep the boundary mass fraction small so
periodization error stays below the quadrature error.  A, V and V1 are
read from the kept forward spectra by Parseval, so a field whose gradient
is never read takes no inverse transform.  w consumes the padded spectrum
of u^2: V and V1 are read from it first, then it is multiplied by the
kernel in place and carried through the inverse.

Every quantity of a field u is read from its Evaluation(u), which
computes each on first use and keeps it, on its grid's kernel table.
kinetic, log_potential, energy, grad_energy, lagrange_multiplier,
pohozaev_residual and el_residual are views of a fresh one, kept for the
benchmark harness, which calls them by name with a table; they refuse one
of another grid until ROADMAP item 1b deletes them.  Only this module
knows the padded 2n x 2n layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Optional, Tuple

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import GridMismatchError, MassMismatchError
from .grid import Field, Grid, mass
from .params import Params, _exponent

__all__ = [
    "Params",
    "EnergyBreakdown",
    "KernelTable",
    "kernel_table",
    "Evaluation",
    "smooth_direction",
    "prolong",
    "kinetic",
    "pnorm",
    "log_potential",
    "energy",
    "grad_energy",
    "lagrange_multiplier",
    "pohozaev_residual",
    "el_residual",
]

@dataclass(frozen=True)
class EnergyBreakdown:
    """All functional values of one field evaluation.

    F = A/2 + (gamma/4) V - (a/p) C holds exactly in the stored values;
    V2 = V1 - V is computed so; V1, V2 >= 0.
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


# Nodes of the Gauss-Legendre rule of the origin-cell average of log(1+r).
# Its integrand in the polar angle is analytic but at +-pi/2, three
# half-widths of [0, pi/4] from its centre, so 16 nodes reach rounding.
_ORIGIN_NODES = 16


def _log1p_origin_average(h: float) -> float:
    """Average of log(1+|z|) over the grid cell [-h/2, h/2]^2.

    The cell is eight copies of the polar triangle 0 <= theta <= pi/4,
    r <= R = (h/2)/cos(theta), so the average is (8/h^2) times the
    integral over [0, pi/4] of int_0^R r log(1+r) dr = R^2 log(1+R)/2 -
    R^2/4 + (R - log(1+R))/2, taken by the fixed _ORIGIN_NODES-node
    Gauss-Legendre rule."""
    x, w = np.polynomial.legendre.leggauss(_ORIGIN_NODES)
    half = 0.125 * np.pi   # half-width of [0, pi/4]
    R = 0.5 * h / np.cos(half * (1.0 + x))
    inner = 0.5 * R * R * np.log1p(R) - 0.25 * R * R + 0.5 * (R - np.log1p(R))
    return 8.0 * (half * float(np.dot(w, inner))) / (h * h)


# J0 and J1 by two methods: Miller's backward recurrence from order
# _MILLER_START up to the first Hankel band, and Hankel's asymptotic
# expansion in each band (lower edge, terms of P and of Q), where the first
# omitted term is below 1e-17 at the lower edge.
_MILLER_START = 64
_HANKEL_BANDS = ((25.0, 10), (200.0, 4))


def _hankel_coefficients(nu: int, terms: int) -> Tuple[list, list]:
    """The coefficients of P_nu and Q_nu as series in 1/x^2 (Q divided by
    1/x): (-1)^m a_2m and (-1)^m a_2m+1, a_k = prod_{j <= k} (4 nu^2 -
    (2j - 1)^2) / (k! 8^k)."""
    a = [1.0]
    for k in range(1, 2 * terms):
        a.append(a[-1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))
    return ([(-1) ** m * a[2 * m] for m in range(terms)],
            [(-1) ** m * a[2 * m + 1] for m in range(terms)])


def _hankel(x: np.ndarray, terms: int) -> Tuple[np.ndarray, np.ndarray]:
    """J0 and J1 by Hankel's expansion, J_nu = sqrt(2/(pi x)) (P_nu cos chi
    - Q_nu sin chi), chi = x - (2 nu + 1) pi/4.  cos chi and sin chi are
    written through cos x and sin x, so no rounded multiple of pi enters
    the phase."""
    y = 1.0 / (x * x)
    c, s = np.cos(x), np.sin(x)
    c_plus_s, s_minus_c = c + s, s - c
    amp = 1.0 / np.sqrt(np.pi * x)
    (p0, q0), (p1, q1) = (_hankel_coefficients(nu, terms) for nu in (0, 1))
    j0 = amp * (polyval(y, p0) * c_plus_s - polyval(y, q0) / x * s_minus_c)
    j1 = amp * (polyval(y, p1) * s_minus_c + polyval(y, q1) / x * c_plus_s)
    return j0, j1


def _bessel_j01(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """J0(x) and J1(x) for x >= 1e-3, in numpy alone, to a few units of
    1e-16 (both are bounded by 1); the recurrence overflows below.
    _log_window passes x >= 2 sqrt(2) pi/3 only, since it sets the value at
    the origin itself."""
    j0, j1 = np.empty_like(x), np.empty_like(x)

    # J_{k-1} = (2k/x) J_k - J_{k+1} down from J = 1 at k = _MILLER_START
    # and 0 above it, up to a common factor that 1 = J0 + 2 (J2 + J4 + ...)
    # fixes, below the first Hankel band.
    low = x < _HANKEL_BANDS[0][0]
    two_over_x = 2.0 / x[low]
    jk, jk1 = np.ones_like(two_over_x), np.zeros_like(two_over_x)
    total = np.zeros_like(two_over_x)
    for k in range(_MILLER_START, 0, -1):
        if k % 2 == 0:
            total += jk
        jk, jk1 = k * two_over_x * jk - jk1, jk
    total = 2.0 * total + jk
    j0[low], j1[low] = jk / total, jk1 / total

    edges = [lo for lo, _ in _HANKEL_BANDS[1:]] + [math.inf]
    for (lo, terms), hi in zip(_HANKEL_BANDS, edges):
        band = (x >= lo) & (x < hi)
        j0[band], j1[band] = _hankel(x[band], terms)
    return j0, j1


# The most frequency points _log_window passes to _bessel_j01 at once.
_TRIANGLE_BLOCK = 1 << 16


def _log_window(n: int, h: float) -> np.ndarray:
    """The log kernel at the node displacements (i h, j h), 0 <= i, j <= n,
    by the truncated-kernel method (Vico, Greengard & Ferrando, J. Comput.
    Phys. 323, 2016).

    Every displacement between nodes of the n x n grid has length below
    R = sqrt(2) L, so log|z| may be cut off at R.  The cut-off kernel has
    the smooth transform G(k) = 2 pi R^2 g(|k| R), g(x) = log R J1(x)/x -
    (1 - J0(x))/x^2, g(0) = log(R)/2 - 1/4, which is sampled on the
    frequencies of period P = 3L >= L + R and transformed back.  G is even
    in both axes and symmetric under their swap, so the Bessel values are
    taken on one triangle of the frequency quadrant 0..3n/2, in blocks of
    rows of about _TRIANGLE_BLOCK points walked in np.tril_indices order,
    and the inverse is a DCT-I of the quadrant, scaled by 2 pi R^2 / P^2 =
    4 pi/9.
    """
    import scipy.fft as sfft

    m = 3 * n // 2
    log_R = math.log(n * h) + 0.5 * math.log(2.0)
    quadrant = np.empty((m + 1, m + 1))
    rows = max(1, _TRIANGLE_BLOCK // (m + 1))
    for start in range(0, m + 1, rows):
        # The points j <= i of rows start.., row by row.
        i, j = np.nonzero(np.tri(min(rows, m + 1 - start), m + 1, start, dtype=bool))
        i += start
        # |k| R on the frequency lattice 2 pi (i, j) / P.
        x = (2.0 * math.sqrt(2.0) * math.pi / 3.0) * np.hypot(i, j)
        # (0, 0), first in the first block, takes g(0).
        origin = int(start == 0)
        g = np.empty_like(x)
        g[:origin] = 0.5 * log_R - 0.25
        j0, j1 = _bessel_j01(x[origin:])
        g[origin:] = (log_R * j1 - (1.0 - j0) / x[origin:]) / x[origin:]
        quadrant[i, j] = g
        quadrant[j, i] = g
    window = sfft.dctn(quadrant, type=1, overwrite_x=True)[: n + 1, : n + 1]
    return window * (4.0 * math.pi / 9.0)


def _log1p_window(n: int, h: float) -> np.ndarray:
    """log(1+|z|) at the node displacements (i h, j h), 0 <= i, j <= n,
    sampled, with its exact average over one grid cell at the origin."""
    d = h * np.arange(n + 1)
    window = np.hypot(d[:, None], d[None, :])
    np.log1p(window, out=window)
    window[0, 0] = _log1p_origin_average(h)
    return window


def _even_quadrant(window: np.ndarray) -> np.ndarray:
    """The quadrant 0..n x 0..n of the rfft2 of the 2n x 2n array that is
    even in both axes and equal to window on its quadrant 0..n: a DCT-I of
    the window.  The whole rfft2 half, 2n x (n+1), is the quadrant with its
    rows n-1..1 mirrored below (see _times_quadrant).  Real, like the
    transform of any even array."""
    import scipy.fft as sfft

    return sfft.dctn(window, type=1, overwrite_x=True)


def _times_quadrant(spec: np.ndarray, quadrant: np.ndarray) -> np.ndarray:
    """Multiply the padded 2n x (n+1) half spectrum (or density) spec in
    place by the even kernel transform whose quadrant is given, and return
    it: rows 0..n by the quadrant, rows n+1..2n-1 by a negative-stride view
    of its rows n-1..1.  Each element meets the factor it meets in the full
    2n x (n+1) transform, so the product is that one bit for bit."""
    n = quadrant.shape[0] - 1
    spec[: n + 1] *= quadrant
    spec[n + 1:] *= quadrant[n - 1:0:-1]
    return spec


# Squared decay length of the Sobolev metric (1 - beta Delta).
_SOBOLEV_BETA = 0.25


@dataclass(frozen=True)
class KernelTable:
    """Per-grid spectral data: |k|^2 on the n x n grid, and the kernel
    transforms of the padded 2n x 2n grid.  The Sobolev smoother
    1 / (1 + beta |k|^2) is not kept: smooth_direction forms it from k2.
    Both kernels are even in both axes, so each transform is stored as its
    (n+1) x (n+1) quadrant, the DCT-I of the kernel's window; the padded
    2n x (n+1) half spectrum is the quadrant with its rows n-1..1 mirrored
    below, and _times_quadrant multiplies by it.

    Immutable after construction (every array is read-only) and safe to
    share across threads.
    """

    grid: Grid
    k2: np.ndarray          # |k|^2 in rfft2 layout on the n x n grid
    khat_log: np.ndarray    # quadrant of the padded rfft2 of the truncated-kernel log|z|
    khat_v1: np.ndarray     # quadrant of the padded rfft2 of the sampled log(1+|z|)
    log_weight: np.ndarray  # log(1+|x|) quadrature weight on the n x n grid

    @staticmethod
    def build(grid: Grid) -> "KernelTable":
        import scipy.fft as sfft

        n, h = grid.n, grid.h
        k = 2.0 * np.pi * sfft.fftfreq(n, d=h)
        k2 = k[:, None] ** 2 + k[None, : n // 2 + 1] ** 2
        table = KernelTable(grid=grid, k2=k2,
                            khat_log=_even_quadrant(_log_window(n, h)),
                            khat_v1=_even_quadrant(_log1p_window(n, h)),
                            log_weight=np.log1p(grid.radius()))
        for array in vars(table).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        return table


# The most tables kernel_table keeps; past it the least recently used goes.
# A grid ladder uses one table per level and extent, and no benchmark
# workload needs more than 3 extents x 3 levels.
_TABLE_CACHE_SIZE = 16


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def kernel_table(grid: Grid) -> KernelTable:
    """Fetch (or build and cache) the spectral workspace for a grid.  The
    cache keeps the _TABLE_CACHE_SIZE most recently used tables, under
    lru_cache's lock; two threads that miss the same grid at once may both
    build it, which is harmless for an immutable table."""
    return KernelTable.build(grid)


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

    spec is consumed (overwrite_x): pass only a spectrum that nothing
    keeps, never a KernelTable array or a spectrum an Evaluation still
    holds."""
    import scipy.fft as sfft

    rows = sfft.ifftn(spec, axes=(0,), overwrite_x=True)[:n]
    return sfft.irfftn(rows, s=(2 * n,), axes=(1,), overwrite_x=True)[:, :n]


# Rows of the imaginary parts that _power squares at once.
_ROW_BLOCK = 64


def _power(spec: np.ndarray) -> np.ndarray:
    """|spec|^2 as a fresh real array: the squares of the real parts, with
    the squares of the imaginary parts added _ROW_BLOCK rows at a time, so
    that no other array of its size is made."""
    dens = np.square(spec.real)
    for start in range(0, dens.shape[0], _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        dens[rows] += np.square(spec.imag[rows])
    return dens


def _parseval(dens: np.ndarray) -> float:
    """(1/N) sum multiplier |spec|^2 over the N-point spectrum whose rfft2
    half is spec, given dens = multiplier |spec|^2 on that half, for a real
    multiplier even in k: the first and last columns (k_y = 0 and the
    Nyquist column) stand for themselves and every other one also for its
    mirror.  N is the square of the row count, so this serves the n x n
    and the padded 2n x 2n spectra alike."""
    total = 2.0 * float(np.sum(dens)) - float(np.sum(dens[:, 0])) \
        - float(np.sum(dens[:, -1]))
    return total / dens.shape[0] ** 2


class Evaluation:
    """Every functional of one field u, each computed on first use and kept.

    Two forward transforms feed all of them: rfft2 of u on the n x n grid
    (spec_u) and rfft2 of u^2 zero-padded to 2n x 2n (spec_sq, pruned to
    the n non-zero rows, bit-identical to the full padded rfft2).  A, V and
    V1 are read from them by Parseval, so F takes no inverse transform.
    -Delta u takes one n x n inverse, and w = log|.| * u^2 one pruned padded
    inverse (n rows by ifft, then n columns by irfft, bit-identical to the
    n x n block of the full padded inverse); only grad and the quantities
    built on it read them.  w consumes spec_sq: it reads V and V1 first,
    then multiplies spec_sq in place by the log kernel's quadrant and hands
    it to the inverse, so no second padded spectrum is made and spec_sq is
    no longer held.  The kernel table is kernel_table(u.grid).
    """

    def __init__(self, u: Field):
        self.u, self.table = u, kernel_table(u.grid)
        self._h2 = u.grid.h * u.grid.h
        self._C: Dict[float, float] = {}
        self._grad: Dict[Params, np.ndarray] = {}

    @cached_property
    def spec_u(self) -> np.ndarray:
        """rfft2 of u on the n x n grid, kept for A and -Delta u."""
        import scipy.fft as sfft

        return sfft.rfft2(self.u.values)

    @cached_property
    def spec_sq(self) -> np.ndarray:
        """rfft2 of u^2 on the padded grid, kept for w, V and V1."""
        return _forward(self.u.values * self.u.values)

    @cached_property
    def A(self) -> float:
        """integral |grad u|^2, spectral on the periodic n x n grid."""
        dens = _power(self.spec_u)
        dens *= self.table.k2
        return self._h2 * _parseval(dens)

    @cached_property
    def V(self) -> float:
        """<u^2, log * u^2>."""
        dens = _times_quadrant(_power(self.spec_sq), self.table.khat_log)
        return self._h2 * self._h2 * _parseval(dens)

    @cached_property
    def V1(self) -> float:
        """V with the nonnegative kernel log(1+|x-y|)."""
        dens = _times_quadrant(_power(self.spec_sq), self.table.khat_v1)
        return self._h2 * self._h2 * _parseval(dens)

    @cached_property
    def V2(self) -> float:
        """V with the nonnegative kernel log(1+1/|x-y|) = log(1+|x-y|) -
        log|x-y|: V1 - V."""
        return self.V1 - self.V

    @cached_property
    def w(self) -> np.ndarray:
        """The log potential log|.| * u^2 on the grid.  Consumes spec_sq,
        after reading V and V1 from it."""
        self.V, self.V1
        spec = _times_quadrant(vars(self).pop("spec_sq"), self.table.khat_log)
        return self._h2 * _inverse(spec, self.u.grid.n)

    @cached_property
    def neg_lap(self) -> np.ndarray:
        """-Delta u on the periodic n x n grid."""
        import scipy.fft as sfft

        return sfft.irfft2(self.spec_u * self.table.k2, s=self.u.values.shape,
                           overwrite_x=True)

    @cached_property
    def spectral_tail(self) -> float:
        """||u_high|| / ||u||, u_high the part of u above half the Nyquist
        frequency (|k| > pi/(2h)), read from spec_u by Parseval: the share
        of the L2 norm that the grid at half the resolution cannot carry.
        n is a power of two, so only (n/4, 0) and its mirrors have |k| =
        pi/(2h), each with k2 = k2[n/4, 0] exactly."""
        k2 = self.table.k2
        above = k2 > k2[self.u.grid.n // 4, 0]
        m = mass(self.u)
        if m == 0.0:
            raise ValueError("spectral tail of the zero field is undefined")
        dens = _power(self.spec_u)
        dens *= above
        return math.sqrt(self._h2 * _parseval(dens) / m)

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
        s = 1 gives grad F, the exact gradient of the discrete energy; it is
        kept, read-only, for el_residual and later calls.

        w is read first, so the padded spectrum it consumes (and the
        densities of V and V1 built beside it) are gone before any other
        n x n term is made.  The sum is then built in one buffer, in the
        order of the formula: s^2 (-Delta u), plus gamma (w - m log s) u
        formed in the buffer of w - m log s, minus a s^(p-2) |u|^(p-2) u
        formed in the buffer of |u|.  Each term and each sum rounds as in
        the one-expression form, so the result is that form's bit for
        bit."""
        if s == 1.0 and params in self._grad:
            return self._grad[params]
        vals, p = self.u.values, params.p
        w = self.w
        g = s * s * self.neg_lap
        term = w - mass(self.u) * math.log(s)
        term *= params.gamma
        term *= vals
        g += term
        term = np.abs(vals)
        term **= p - 2.0
        term *= vals
        term *= params.a * s ** (p - 2.0)
        g -= term
        if s == 1.0:
            g.flags.writeable = False
            self._grad[params] = g
        return g

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


def smooth_direction(values: np.ndarray, table: KernelTable) -> np.ndarray:
    """Inverse-Helmholtz (1 - beta Delta)^-1 applied spectrally on the
    periodic n x n grid: the Sobolev-metric representation of a gradient
    direction.  The short-range kernel (decay length sqrt(beta)) keeps the
    direction from smearing mass toward the boundary frame.

    The fresh spectrum of values is multiplied in place by the reciprocal
    1 / (1 + beta |k|^2), formed from the table's |k|^2 on each call (the
    flows call this on the coarse levels of the grid ladder, where it is
    cheap, and seldom on the finest, so the table does not keep it).  That
    is the division by 1 + beta |k|^2 bit for bit: numpy divides a complex
    number by one with zero imaginary part by multiplying it with the
    reciprocal of the real part."""
    import scipy.fft as sfft

    spec = sfft.rfft2(values)
    spec *= 1.0 / (1.0 + _SOBOLEV_BETA * table.k2)
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


def _view(u: Field, table: Optional[KernelTable]) -> Evaluation:
    """The evaluation of u behind a view, which refuses a table of another grid."""
    if table is not None and table.grid != u.grid:
        raise GridMismatchError(f"field on {u.grid} evaluated with the kernel "
                                f"table of {table.grid}")
    return Evaluation(u)


def kinetic(u: Field, table: Optional[KernelTable] = None) -> float:
    """Evaluation.A of u."""
    return _view(u, table).A


def pnorm(u: Field, p: float) -> float:
    """C(u) = integral |u|^p for a finite p > 2."""
    _exponent(p)
    h = u.grid.h
    dens = np.abs(u.values)
    dens **= p
    return float(h * h * np.sum(dens))


def log_potential(u: Field, table: Optional[KernelTable] = None) -> Field:
    """Evaluation.w of u, as a field."""
    return Field(u.grid, _view(u, table).w)


def energy(u: Field, params: Params, table: Optional[KernelTable] = None) -> EnergyBreakdown:
    """Evaluation.breakdown of u."""
    return _view(u, table).breakdown(params)


def grad_energy(u: Field, params: Params, table: Optional[KernelTable] = None) -> Field:
    """Evaluation.grad of u at s = 1, as a field."""
    return Field(u.grid, _view(u, table).grad(params))


def lagrange_multiplier(u: Field, params: Params,
                        table: Optional[KernelTable] = None) -> float:
    """Evaluation.lam of u at s = 1."""
    return _view(u, table).lam(params)


def pohozaev_residual(u: Field, params: Params, lam: float,
                      table: Optional[KernelTable] = None) -> float:
    """Evaluation.pohozaev_residual of u."""
    return _view(u, table).pohozaev_residual(params, lam)


def el_residual(u: Field, params: Params, lam: float,
                table: Optional[KernelTable] = None) -> float:
    """Evaluation.el_residual of u."""
    return _view(u, table).el_residual(params, lam)


def require_mass(u: Field, c: float) -> None:
    """Raise MassMismatchError unless mass(u) matches c to relative 1e-8."""
    m = mass(u)
    if abs(m - c) > 1e-8 * max(c, 1e-300):
        raise MassMismatchError(f"field mass {m!r} differs from required {c!r}")
