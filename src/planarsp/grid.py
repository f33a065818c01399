"""Uniform-grid representation of real 2D fields.

The computational domain is the square [-L/2, L/2)^2 sampled at n x n nodes
x_ij = (-L/2 + i*h, -L/2 + j*h) with spacing h = L/n.  All integrals are
midpoint sums h^2 * sum(...), which is spectrally accurate for the smooth,
rapidly decaying profiles this package works with.  Fields are immutable
values; every operation returns a new field.
"""

from __future__ import annotations

import io
import numbers
import struct
from dataclasses import dataclass, field as dc_field
from typing import Tuple

import numpy as np

from .errors import DomainError, GridMismatchError, ResolutionError

__all__ = [
    "Grid",
    "Field",
    "ProfileSpec",
    "make_grid",
    "discretize",
    "mass",
    "normalize",
    "boundary_mass_fraction",
    "shift",
    "write_field",
    "read_field",
    "FIELD_MAGIC",
]

FIELD_MAGIC = b"LPF1"

# Fraction of the half-width treated as the boundary frame: the outer 10% of
# the domain on each side, i.e. points with max(|x|,|y|) >= 0.4*L.
_FRAME_INNER = 0.8

# Mass fraction a synthetic profile may place in the boundary frame.
_PROFILE_LEAK_TOL = 1e-6

# Relative mass deviation below which normalize() returns its input unchanged
# (makes normalization exactly idempotent).
_NORMALIZE_SNAP = 100.0 * np.finfo(float).eps


@dataclass(frozen=True)
class Grid:
    """Uniform square grid on [-L/2, L/2)^2 with n nodes per side."""

    extent: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.extent) and self.extent > 0):
            raise ValueError(f"grid extent must be positive and finite, got {self.extent}")
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 16, got {self.n}")

    @property
    def h(self) -> float:
        return self.extent / self.n

    def coords1d(self) -> np.ndarray:
        """Node coordinates along one axis: -L/2 + i*h for i = 0..n-1."""
        return -0.5 * self.extent + self.h * np.arange(self.n)

    def meshgrid(self) -> Tuple[np.ndarray, np.ndarray]:
        """(X, Y) node coordinates with X[i, j] = x_i, Y[i, j] = y_j."""
        x = self.coords1d()
        return np.meshgrid(x, x, indexing="ij")

    def radius(self) -> np.ndarray:
        X, Y = self.meshgrid()
        return np.hypot(X, Y)


@dataclass(frozen=True)
class Field:
    """Real function sampled on a Grid; values[i, j] = u(x_i, y_j)."""

    grid: Grid
    values: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n, self.grid.n):
            raise ValueError(
                f"values shape {vals.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def _check_same_grid(self, other: "Field"):
        if self.grid != other.grid:
            raise GridMismatchError(
                f"fields live on different grids: {self.grid} vs {other.grid}"
            )

    def __add__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.values + other.values)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


def make_grid(L: float, n: int) -> Grid:
    """Create the uniform grid on [-L/2, L/2)^2 with spacing h = L/n.

    Requires a finite L > 0 and n an integral power of two with n >= 16
    (powers of two keep the zero-padded transforms fast); 256.0 is n = 256,
    256.5 is refused.
    """
    if int(n) != n:
        raise ValueError(f"grid size must be an integer, got {n}")
    return Grid(extent=float(L), n=int(n))


def mass(u: Field) -> float:
    """Squared L2 norm, midpoint quadrature: h^2 * sum(u^2)."""
    h = u.grid.h
    return float(h * h * np.sum(u.values * u.values))


def normalize(u: Field, c: float) -> Field:
    """Rescale u so that mass(result) == c.

    The result is parallel to u.  If the mass already equals c to within a
    few ulps the input is returned unchanged, which makes normalization
    exactly idempotent.
    """
    if c <= 0:
        raise ValueError(f"target mass must be positive, got {c}")
    m = mass(u)
    if m == 0.0:
        raise ValueError("cannot normalize the zero field")
    scale2 = c / m
    if abs(scale2 - 1.0) <= _NORMALIZE_SNAP:
        return u
    return Field(u.grid, u.values * np.sqrt(scale2))


def boundary_mass_fraction(u: Field) -> float:
    """Mass in the outer 10% frame of the domain divided by the total mass.

    The frame is {max(|x|, |y|) >= 0.4 L}; a constant field therefore gives
    1 - 0.8^2 = 0.36.  Used as the domain-adequacy diagnostic: solvers abort
    when a profile starts leaking through the frame.
    """
    m = mass(u)
    if m == 0.0:
        raise ValueError("boundary mass fraction of the zero field is undefined")
    x = u.grid.coords1d()
    cut = 0.5 * _FRAME_INNER * u.grid.extent
    outer = np.abs(x) >= cut
    frame = outer[:, None] | outer[None, :]
    h = u.grid.h
    return float(h * h * np.sum(u.values[frame] ** 2) / m)


def shift(u: Field, offset: Tuple[int, int]) -> Field:
    """Translate u by an integer number of grid cells (periodic roll)."""
    di, dj = offset
    return Field(u.grid, np.roll(u.values, (di, dj), axis=(0, 1)))


# ---------------------------------------------------------------------------
# Synthetic profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileSpec:
    """Recipe for a synthetic test profile with prescribed mass c.

    Kinds:
      gaussian(sigma, center)     sqrt(c/pi)/sigma * exp(-|x - x0|^2 / (2 sigma^2))
      ring(r0, sigma)             exp(-(r - r0)^2 / (2 sigma^2)), renormalized
      two_bump(separation, scale) compactly supported bump at the origin plus the
                                  dilated copy (1/n) v((x - n R e1)/n); lobes carry
                                  mass c/2 each and have disjoint supports
      random_smooth(seed, cutoff) band-limited random field under a Gaussian
                                  envelope, renormalized; a cutoff above n/2
                                  of the grid is refused (ResolutionError)
    """

    kind: str
    c: float = 1.0
    sigma: float = 1.0
    center: Tuple[float, float] = (0.0, 0.0)
    r0: float = 0.0
    separation: float = 0.0
    scale: int = 1
    radius: float = 1.0
    seed: int = 0
    cutoff: int = 4

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("profile mass c must be positive")
        for name in ("scale", "seed", "cutoff"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"profile {name} must be an integer, got {value!r}")
        if self.kind not in ("gaussian", "ring", "two_bump", "random_smooth"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind in ("gaussian", "ring") and self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.kind == "ring" and self.r0 < 0:
            raise ValueError("ring radius must be nonnegative")
        if self.kind == "two_bump":
            if self.separation <= 0:
                raise ValueError("two_bump separation must be positive")
            if self.scale < 1:
                raise ValueError("two_bump scale must be >= 1")
            if self.radius <= 0:
                raise ValueError("two_bump lobe radius must be positive")
        if self.kind == "random_smooth" and self.cutoff < 1:
            raise ValueError(f"random_smooth cutoff must be >= 1, "
                             f"got {self.cutoff}")

    @staticmethod
    def gaussian(sigma: float = 1.0, center: Tuple[float, float] = (0.0, 0.0),
                 c: float = 1.0) -> "ProfileSpec":
        return ProfileSpec(kind="gaussian", c=c, sigma=sigma, center=center)

    @staticmethod
    def ring(r0: float, sigma: float, c: float = 1.0) -> "ProfileSpec":
        return ProfileSpec(kind="ring", c=c, r0=r0, sigma=sigma)

    @staticmethod
    def two_bump(separation: float, scale: int, c: float = 1.0,
                 radius: float = 1.0) -> "ProfileSpec":
        return ProfileSpec(kind="two_bump", c=c, separation=separation,
                           scale=scale, radius=radius)

    @staticmethod
    def random_smooth(seed: int, cutoff: int = 4, c: float = 1.0) -> "ProfileSpec":
        return ProfileSpec(kind="random_smooth", c=c, seed=seed, cutoff=cutoff)


def _bump(r: np.ndarray, radius: float) -> np.ndarray:
    """Smooth compactly supported bump exp(-1/(1 - (r/rho)^2)) on r < rho."""
    out = np.zeros_like(r)
    inside = r < radius
    t = (r[inside] / radius) ** 2
    out[inside] = np.exp(-1.0 / (1.0 - t))
    return out


def _two_bump_lobes(grid: Grid, rho: float, R: float, n: int,
                    masses: Tuple[float, float]) -> Tuple[Field, Field]:
    """The lobes of the two-bump profile: the bump v of radius rho at the
    origin, of mass masses[0], and its dilated translated copy
    (1/n) v((x - nR e1)/n), of mass masses[1] up to discretization."""
    # Lobe supports: |x| < rho and |x - nR e1| < n rho; they are disjoint iff
    # the gap n(R - rho) - rho is positive.
    gap = n * (R - rho) - rho
    if gap <= 0:
        raise DomainError(
            f"two_bump lobes overlap: separation {R} too small for radius {rho} "
            f"at scale {n} (gap {gap:.3f})"
        )
    X, Y = grid.meshgrid()
    raw = Field(grid, _bump(np.hypot(X, Y), rho))
    m_raw = mass(raw)
    if m_raw == 0.0:
        raise DomainError("two_bump lobe has no support on this grid")
    lobe0 = np.sqrt(masses[0] / m_raw) * raw
    # Dilation preserves mass, so the amplitude of mass masses[1] scaled by
    # 1/n gives the dilated lobe that mass.
    r1 = np.hypot((X - n * R) / n, Y / n)
    lobe1 = Field(grid, (np.sqrt(masses[1] / m_raw) / n) * _bump(r1, rho))
    return lobe0, lobe1


def _sample(spec: ProfileSpec, grid: Grid) -> Field:
    X, Y = grid.meshgrid()
    if spec.kind == "gaussian":
        cx, cy = spec.center
        r2 = (X - cx) ** 2 + (Y - cy) ** 2
        vals = np.exp(-r2 / (2.0 * spec.sigma ** 2))
        return Field(grid, vals)
    if spec.kind == "ring":
        r = np.hypot(X, Y)
        return Field(grid, np.exp(-((r - spec.r0) ** 2) / (2.0 * spec.sigma ** 2)))
    if spec.kind == "two_bump":
        half = 0.5 * spec.c
        lobe0, lobe1 = _two_bump_lobes(grid, spec.radius, spec.separation,
                                       spec.scale, (half, half))
        return lobe0 + lobe1
    if spec.kind == "random_smooth":
        n = grid.n
        kc = spec.cutoff
        if kc > n // 2:
            # Modes above the grid's Nyquist number alias: the grid is too
            # coarse for the profile.
            raise ResolutionError(f"random_smooth cutoff {kc} exceeds n/2 = "
                                  f"{n // 2} of the {n} x {n} grid")
        rng = np.random.default_rng(spec.seed)
        coef = rng.standard_normal((2 * kc + 1, 2 * kc + 1))
        phase = rng.uniform(0.0, 2.0 * np.pi, coef.shape)
        vals = np.zeros((n, n))
        twopi_L = 2.0 * np.pi / grid.extent
        for mi in range(-kc, kc + 1):
            for mj in range(-kc, kc + 1):
                if mi * mi + mj * mj > kc * kc:
                    continue
                a = coef[mi + kc, mj + kc]
                ph = phase[mi + kc, mj + kc]
                vals += a * np.cos(twopi_L * (mi * X + mj * Y) + ph)
        envelope = np.exp(-(X ** 2 + Y ** 2) / (2.0 * (grid.extent / 10.0) ** 2))
        return Field(grid, vals * envelope)
    raise ValueError(f"unknown profile kind {spec.kind!r}")


def discretize(spec: ProfileSpec, grid: Grid) -> Field:
    """Sample a profile on the grid and renormalize it to mass spec.c.

    Raises DomainError when the profile leaks more than a 1e-6 mass fraction
    into the boundary frame (the domain is too small for it).
    """
    raw = _sample(spec, grid)
    if mass(raw) == 0.0:
        raise DomainError("profile has no support on this grid")
    leak = boundary_mass_fraction(raw)
    if leak >= _PROFILE_LEAK_TOL:
        raise DomainError(
            f"profile leaks mass fraction {leak:.2e} into the boundary frame "
            f"(threshold {_PROFILE_LEAK_TOL:.0e}); enlarge the domain"
        )
    return normalize(raw, spec.c)


# ---------------------------------------------------------------------------
# Binary field format "LPF1"
# ---------------------------------------------------------------------------
#
# Layout: 4-byte magic "LPF1", u64 little-endian n, f64 little-endian L,
# then n^2 f64 little-endian samples in row-major order where the row index
# is the second coordinate (y).


def write_field(u: Field, path) -> None:
    """Write a field in the LPF1 binary format."""
    buf = io.BytesIO()
    buf.write(FIELD_MAGIC)
    buf.write(struct.pack("<Q", u.grid.n))
    buf.write(struct.pack("<d", u.grid.extent))
    # values[i, j] = u(x_i, y_j); file rows are indexed by y, so transpose.
    rows_by_y = np.ascontiguousarray(u.values.T, dtype="<f8")
    buf.write(rows_by_y.tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def read_field(path) -> Field:
    """Read a field written by write_field."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 20:
        raise ValueError(f"LPF1 file has {len(data)} bytes, fewer than its "
                         "20-byte header")
    if data[:4] != FIELD_MAGIC:
        raise ValueError(f"not an LPF1 field file: bad magic {data[:4]!r}")
    (n,) = struct.unpack_from("<Q", data, 4)
    (L,) = struct.unpack_from("<d", data, 12)
    expected = 20 + 8 * n * n
    if len(data) != expected:
        raise ValueError(
            f"LPF1 payload has {len(data)} bytes, expected {expected} for n={n}"
        )
    vals = np.frombuffer(data, dtype="<f8", offset=20).reshape(int(n), int(n))
    return Field(make_grid(L, int(n)), vals.T)
