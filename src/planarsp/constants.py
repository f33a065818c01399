"""Sharp constants and the existence-regime classifier.

The best constant in the planar Gagliardo-Nirenberg inequality

    C(u) = ||u||_p^p <= K_GN * A(u)^(p/2-1) * ||u||_2^2

is attained at the radial ground state of -Delta phi + phi = phi^(p-1);
it is computed here by 1D shooting and certified by the shooting's own
stop rule, bracket, and Pohozaev and decay checks (see kgn_estimate).
Every shoot runs the DOP853 step loop of planarsp.dop853, in Python
floats, and stops at the first step end that settles its sign; that loop
is bit-identical to SciPy 1.17's compiled dop853, so K_GN needs the
standard library only: this module imports numpy and the grid only
inside the two places that build fields, the profile and
gn_profile_field.  phi(0) is the end of a bisection to two adjacent
floats, a shot undershoot and a shot overshoot; Anderson-Bjorck regula
falsi first narrows the bracket of such a pair to a few hundred ulps,
whose bisection shoots every midpoint (12 to 27 shoots rather than 53 or
54, see ground_state_radial).  phi(0) is one of
those two floats, and its own shot gives the integrals and the stopping
radius from its last step end, and the profile as a cubic Hermite
interpolant of phi and phi' at its step ends, built in numpy on first use.
The search stores the lower float of its pair in a per-user cache file
of its exponent ($XDG_CACHE_HOME/planarsp, by default ~/.cache/planarsp),
keyed by this code, the interpreter and the platform; a later process
re-certifies the stored pair in two shoots, an undershoot and an
overshoot at adjacent floats, the search's own test of its end, and
skips the search.
From K_GN all threshold constants of the problem follow in closed form:

    k0 = (p-2) |gamma| c^2 / (4 |p-4|)        kinetic cap level
    c0 = 2 [ p (p-4)^((p-4)/2) / (p-2)^(p/2) * 1/(a gamma^((p-4)/2) K_GN) ]^(1/(p-3))
    K1 = 2^(-(4-p)/2) / K_GN * p / (2^(3-p) (p-2)^(p/2) (4-p)^((4-p)/2))
    K2 = 2^((4-p)/2) K1
    kv2 = 2 sqrt(pi) K_GN(8/3)^(3/2)          V2 bound (see kv2_estimate)

The classifier maps a parameter tuple (gamma, a, p, c) to the qualitative
structure of the constrained critical-point set, with a certificate that
records the inequality chain that fired.
"""

from __future__ import annotations

import math
import os
import sys
import zlib
from dataclasses import dataclass, field as dc_field
from functools import cache, cached_property, wraps
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Tuple

from .dop853 import radial_dop853
from .errors import RegimeError, ShootingError, ThresholdError
from .params import Params, _exponent

if TYPE_CHECKING:
    import numpy as np

    from .grid import Field, Grid

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
    "TwoCriticalPointsOnLambda",
    "OpenUnknown",
)

# Relative tolerance of the Pohozaev identities that every shooting profile
# must satisfy; with the decay check it is what certifies K_GN.
_POHOZAEV_TOL = 1e-5

# At most this many regula falsi steps on phi(0) in the ground-state
# shooting (the name is that of the constants payload's key).
_SHOOTING_BISECTIONS = 80

# The regula falsi stops once its bracket [L, H] is at most this fraction
# of H wide (about 300-500 ulps); a bisection to adjacent floats follows.
_NARROW = 2.0 ** -44


@dataclass(frozen=True)
class RadialGroundState:
    """Radial profile of the positive decaying solution of
    -phi'' - phi'/r + phi = phi^(p-1), with its integral invariants.

    r_stop is where the shoot from beta settled its sign, i.e. where the
    round-off in beta has grown to O(1); it moves with the last bits of
    beta.  r_decay is where the profile first falls to 1e-6 * beta, well
    above that noise.  steps holds the (r, phi, phi') triples of the step
    ends of the shoot, and shoots the number of shoots this process took to
    build the state: 2 when it re-certified a stored pair, the search's
    otherwise (the profile is one of them).  The profile is the
    cubic Hermite interpolant of the step ends, built on first use and
    evaluated in numpy as scipy.interpolate.CubicHermiteSpline does, bit
    for bit (the only use of numpy here)."""

    p: float
    beta: float          # phi(0)
    r_stop: float
    mass: float          # 2*pi * int phi^2 r dr
    A: float             # 2*pi * int phi'^2 r dr
    C: float             # 2*pi * int phi^p r dr
    steps: tuple = dc_field(repr=False, compare=False)
    shoots: int = dc_field(compare=False)

    @cached_property
    def _hermite(self):
        """The step ends x and the power coefficients c of the interpolant,
        phi = c[0] s^3 + c[1] s^2 + c[2] s + c[3] at s = r - x[i] on
        [x[i], x[i+1]], as CubicHermiteSpline.__init__ computes them."""
        import numpy as np

        x, y, dydx = np.array(self.steps).T
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        return x, np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]))

    def _cubic(self, i, s):
        """The cubic of interval i at offset s, summed in power order as
        scipy's PPoly does."""
        c = self._hermite[1]
        s2 = s * s
        return c[3, i] + c[2, i] * s + c[1, i] * s2 + c[0, i] * (s2 * s)

    @cached_property
    def r_decay(self) -> float:
        """The root of the cubic on the first interval that falls to
        1e-6 * beta, bisected to adjacent floats."""
        target = 1e-6 * self.beta
        i = next(k for k, (_, phi, _) in enumerate(self.steps) if phi <= target) - 1
        x = self._hermite[0]
        lo, hi = 0.0, x[i + 1] - x[i]
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if self._cubic(i, mid) > target:
                lo = mid
            else:
                hi = mid
        return float(x[i] + hi)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """phi(r) below r_stop, extrapolated by the end cubics as scipy
        does; 0 from r_stop on and wherever the cubic is negative."""
        import numpy as np

        r = np.asarray(r, dtype=float)
        x = self._hermite[0]
        out = np.zeros_like(r)
        inside = r < self.r_stop
        r = r[inside]
        i = np.clip(np.searchsorted(x, r, side="right") - 1, 0, x.size - 2)
        out[inside] = self._cubic(i, r - x[i])
        return np.maximum(out, 0.0)


class _Shot(NamedTuple):
    beta: float          # phi(0)
    sign: int            # -1 overshoot, +1 undershoot, 0 neither
    steps: list          # (r, phi, phi') at the start and at each step end
    state: list          # phi, phi', mass, A, C at the last step end

    @property
    def miss(self) -> float:
        """Signed miss at the last step end: r phi^2 where an undershoot
        turns (or where a shoot of sign 0 ends), -r phi'^2 where an
        overshoot crosses zero.  Near the ground state both vanish linearly
        in phi(0) - phi*(0)."""
        r, phi, dphi = self.steps[-1]
        return -r * dphi * dphi if self.sign == -1 else r * phi * phi


def _shoot(beta: float, p: float) -> _Shot:
    """One shoot of the radial equation from phi(0) = beta: the DOP853 loop
    of planarsp.dop853, which owns the span, the tolerances and the stop
    rule (sign -1 overshoot, +1 undershoot, 0 neither).  A state too large
    for a float, or a failed DOP853 run (its step below its floor once
    beta^(p-1) is huge), raises ShootingError naming p and beta."""
    p = float(p)
    try:
        code, sign, steps, state = radial_dop853(p, beta)
    except OverflowError as exc:
        raise ShootingError(f"radial shooting overflowed for p={p} from "
                            f"phi(0)={beta!r}: {exc}") from exc
    if code < 0:
        raise ShootingError(f"radial shooting failed for p={p} from "
                            f"phi(0)={beta!r}: DOP853 return code {code}")
    return _Shot(beta, sign, steps, state)


def _radial_profile(shot: _Shot, p: float, shoots: int) -> RadialGroundState:
    """The profile of a shot: its integrals and stopping radius from its last
    step end, and its step ends, once they pass the Pohozaev and decay
    checks.  shoots is the number of shoots made to find the shot."""
    m, A, C = shot.state[2:]

    # Pohozaev identities of the profile: mass = (2/p) C and A = (p-2)/p C,
    # each to _POHOZAEV_TOL relative.
    if (abs(m / C - 2.0 / p) > _POHOZAEV_TOL * 2.0 / p
            or abs(A / C - (p - 2.0) / p) > _POHOZAEV_TOL * (p - 2.0) / p):
        raise ShootingError(
            f"shooting profile for p={p} violates its Pohozaev identities: "
            f"mass/C={m / C:.8f} (expect {2.0 / p:.8f}), "
            f"A/C={A / C:.8f} (expect {(p - 2.0) / p:.8f})"
        )

    r_stop = shot.steps[-1][0]
    if not any(phi <= 1e-6 * shot.beta for _, phi, _ in shot.steps):
        raise ShootingError(f"shooting profile for p={p} stops at "
                            f"r={r_stop} above 1e-6 * phi(0)")
    return RadialGroundState(p=float(p), beta=shot.beta, r_stop=r_stop,
                             mass=m, A=A, C=C, steps=tuple(shot.steps),
                             shoots=shoots)


def ground_state_radial(p: float) -> RadialGroundState:
    """Ground state of -Delta phi + phi = phi^(p-1): phi(0) bisected to
    adjacent floats, in 12 to 27 shoots rather than 53 or 54.

    phi(0) = 1 is an undershoot; shoots from 2, 2.8, 3.92, ... find the
    first overshoot H.  Anderson-Bjorck regula falsi (BIT 13, 1973) on
    each shoot's signed miss (_Shot.miss) narrows a bracket of two real
    shoots, an undershoot L and the overshoot H, to H - L <= _NARROW * H in
    at most _SHOOTING_BISECTIONS steps.  A bisection of [L, H] that shoots
    every midpoint then ends on adjacent floats, a shot undershoot and a
    shot overshoot; phi(0) is one of them, and its own shot gives the
    profile.  Round-off flips the shot sign more than once near the root,
    so phi(0) need not be the plain bisection of [1, H]'s (60 ulps from it
    at p = 2.01), but it is a sign change all the same.

    The search's final pair is stored as its lower float, in one file per
    exponent under $XDG_CACHE_HOME/planarsp (by default ~/.cache/planarsp),
    keyed by a CRC-32 of this module, planarsp.dop853, the interpreter and
    the platform.  A later process re-certifies the pair of its key, that
    float and the next, in two shoots: it is used only if the lower one
    shoots no overshoot and the upper one an overshoot, the test the
    search's own end passes.  Then the profile is built from it as from
    the search, with the same checks, and phi(0) and every output are the
    same as with no cache.  A missing, unreadable, foreign or failing file
    runs the search, whose pair then replaces it; a location that cannot
    be read or written is never an error."""
    return _ground_state(float(_exponent(p)))


@cache
def _ground_state(p: float) -> RadialGroundState:
    """ground_state_radial's state, built once per exponent: on the pair
    stored for p if two shoots re-certify it, else on the search's pair,
    which is then stored."""
    # phi(0) -> the shot from it: no phi(0) is shot twice.
    seen: Dict[float, _Shot] = {}

    def shoot(beta: float) -> _Shot:
        if beta not in seen:
            seen[beta] = _shoot(beta, p)
        return seen[beta]

    pair = _stored_pair(p)
    try:
        # The search's own test of its final pair (see _search).
        hit = (pair is not None and shoot(pair[0]).sign != -1
               and shoot(pair[1]).sign == -1)
    except ShootingError:
        hit = False
    lo, hi = pair if hit else _search(p, shoot)
    gs = _radial_profile(shoot(0.5 * (lo + hi)), p, len(seen))
    if not hit:
        _store_pair(p, lo)
    return gs


def _search(p: float, shoot: Callable[[float], _Shot]) -> Tuple[float, float]:
    """The adjacent floats (lo, hi) that ground_state_radial's search ends
    on, a shot undershoot (any sign but -1) and a shot overshoot."""
    # phi(0) = 1 is the constant solution, an undershoot for every p.
    L, H = 1.0, 2.0
    for _ in range(60):
        if shoot(H).sign == -1:
            break
        L, H = H, H * 1.4
    else:
        raise ShootingError(f"could not bracket an overshoot for p={p}")

    # L must be a real shoot too: while it is the unshot 1, bisect [1, H].
    while L == 1.0:
        mid = 0.5 * (L + H)
        if shoot(mid).sign == -1:
            H = mid
        else:
            L = mid

    # Anderson-Bjorck: the end kept a second time in a row has its miss
    # scaled by 1 - f/f_replaced (by 1/2 if that is not positive).
    fL, fH = shoot(L).miss, shoot(H).miss
    side = 0
    for _ in range(_SHOOTING_BISECTIONS):
        if H - L <= _NARROW * H:
            break
        x = L + (H - L) * (fL / (fL - fH))
        if not L < x < H:
            x = 0.5 * (L + H)
        shot = shoot(x)
        f = shot.miss
        if shot.sign == -1:
            if side == -1:
                m = 1.0 - f / fH
                fL *= m if m > 0.0 else 0.5
            H, fH, side = x, f, -1
        else:
            if side == +1:
                m = 1.0 - f / fL
                fH *= m if m > 0.0 else 0.5
            L, fL, side = x, f, +1

    # Bisect [L, H] to adjacent floats, shooting every midpoint: lo stays a
    # shot undershoot and hi a shot overshoot.
    lo, hi = L, H
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if shoot(mid).sign == -1:
            hi = mid
        else:
            lo = mid
    return lo, hi


# ---------------------------------------------------------------------------
# The stored pairs
# ---------------------------------------------------------------------------


def _cache_file(p: float) -> str:
    """p's file of the stored phi(0), under $XDG_CACHE_HOME/planarsp (by
    default ~/.cache/planarsp); OSError when no absolute location is known."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.expanduser(os.path.join("~", ".cache"))
        if not os.path.isabs(base):
            raise OSError("no home directory for the ground-state cache")
    return os.path.join(base, "planarsp", f"phi0_p{p!r}")


@cache
def _cache_key() -> str:
    """The key of the pairs this code may read: a CRC-32 of the shooting
    code (this module and planarsp.dop853) and of the interpreter and
    platform, whose libm the shoots run on.  Every pair is re-certified
    before use; the key makes a used pair the one this code's own search
    ends on, so no output depends on what the cache holds."""
    crc = 0
    for path in (radial_dop853.__code__.co_filename, __file__):
        with open(path, "rb") as fh:
            crc = zlib.crc32(fh.read(), crc)
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        libc = None
    machine = os.uname().machine if hasattr(os, "uname") else None
    host = (sys.version, sys.platform, machine, libc)
    return f"{zlib.crc32(repr(host).encode(), crc):08x}"


def _stored_pair(p: float) -> Optional[Tuple[float, float]]:
    """p's stored pair (lo, the float after lo), if p's file is the one line
    "<this code's key> <lo.hex()>" with lo above 1 (phi(0) of the constant
    solution, below every ground state's); else None."""
    try:
        with open(_cache_file(p), encoding="utf-8") as fh:
            key, lo = fh.read().split()
        lo = float.fromhex(lo)
    except (OSError, ValueError):
        return None
    if key != _cache_key() or not 1.0 < lo < math.inf:
        return None
    return lo, math.nextafter(lo, math.inf)


def _store_pair(p: float, lo: float) -> None:
    """Write p's file alone, through a temporary file beside it that
    replaces it at once; a location that cannot be written leaves the
    cache as it is."""
    tmp = None
    try:
        path = _cache_file(p)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(f"{_cache_key()} {lo.hex()}\n")
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            try:
                os.remove(tmp)
            except OSError:
                pass


# ---------------------------------------------------------------------------
# Gagliardo-Nirenberg constant
# ---------------------------------------------------------------------------


def gaussian_rayleigh_quotient(p: float) -> float:
    """Quotient C/(A^(p/2-1) m) of a single Gaussian e^(-r^2/2), in closed
    form: m = pi, A = pi and C = 2 pi / p give 2/(p pi^(p/2-1)).  A strict
    lower bound for K_GN."""
    return 2.0 / (p * math.pi ** (0.5 * p - 1.0))


def kgn_estimate(p: float) -> float:
    """Sharp Gagliardo-Nirenberg constant for exponent p: the quotient
    C/(A^(p/2-1) m) of the shooting ground state.

    Every shoot behind it runs planarsp.dop853 (Hairer and Wanner's DOP853
    in Python floats, bit-identical to SciPy 1.17's compiled dop853), so
    the value does not depend on the installed scipy.  It needs no
    cross-check, because ground_state_radial only returns a profile that
    passed these:
      - every sign shoot stops at the first step end with phi <= 0 or
        phi' >= 0, so the final profile is positive and decreasing up to
        r_stop;
      - the bisection on phi(0) ends on a shot undershoot and a shot
        overshoot at adjacent floats, so a positive decaying solution lies
        between them (every midpoint is shot); a pair stored by an earlier
        process is used only once both of its floats are shot again here
        and pass this same test (two shoots, see ground_state_radial);
      - the profile satisfies the Pohozaev identities to _POHOZAEV_TOL
        relative and falls to 1e-6 * phi(0) at a step end; phi(0) moved by
        1e-5 relative fails them.  The shoot's start at r0 = 1e-8 drops
        the [0, r0] share of mass and C, which fails them from p ~ 49.5 on
        (mass/C 1.7e-4 off at p = 55): those exponents raise ShootingError.
    By Kwong's uniqueness theorem (Arch. Rational Mech. Anal. 105, 1989)
    that solution is the ground state, and by Weinstein (Comm. Math. Phys.
    87, 1983) its quotient is K_GN."""
    gs = ground_state_radial(p)
    return gs.C / (gs.A ** (0.5 * p - 1.0) * gs.mass)


# ---------------------------------------------------------------------------
# Threshold formulas
# ---------------------------------------------------------------------------


def _finite(name: str):
    """Refuse, by a ThresholdError naming `name`, a threshold that is not a
    positive finite float: an overflowing float ** or a divisor that
    underflowed to zero raises, an overflowing product is infinite, and an
    underflowing one is zero.  Every threshold is positive in exact
    arithmetic, so a zero is never an answer."""
    def decorate(fn):
        @wraps(fn)
        def checked(*args):
            try:
                value = fn(*args)
                ok = all(0.0 < v < math.inf for v in
                         (value if isinstance(value, tuple) else (value,)))
            except (OverflowError, ZeroDivisionError):
                ok = False
            if not ok:
                raise ThresholdError(f"{name}: not a positive finite float at {fn.__name__}"
                                     f"({', '.join(map(repr, args))})")
            return value
        return checked
    return decorate


@_finite("the kinetic cap level k0")
def k0(params: Params) -> float:
    """Critical kinetic level (p-2) |gamma| c^2 / (4 |p-4|)."""
    if params.p == 4.0:
        raise RegimeError("k0 is undefined at the mass-critical exponent p = 4")
    if params.gamma == 0.0:
        raise RegimeError("k0 is undefined for gamma = 0")
    return ((params.p - 2.0) * abs(params.gamma) * params.c ** 2
            / (4.0 * abs(params.p - 4.0)))


@_finite("the mass threshold c0")
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


@_finite("the coupling thresholds (T1, T2)")
def a_thresholds(p: float, gamma: float, c: float, kgn: float) -> Tuple[float, float]:
    """(T1, T2) with Ti = Ki |gamma|^((4-p)/2) c^(3-p) for gamma < 0, p < 4.

    The source paper places critical points on the Pohozaev set at
    T1 <= a < T2; the sharp Gagliardo-Nirenberg inequality keeps that set
    empty for every a < T2 (see regime_classify)."""
    factor = abs(gamma) ** (0.5 * (4.0 - p)) * c ** (3.0 - p)
    return k1(p, kgn) * factor, k2(p, kgn) * factor


@_finite("the mass band edges (c1, c2)")
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


@_finite("the mass-critical threshold 2/(a K_GN)")
def mass_critical_threshold(a: float, kgn4: float) -> float:
    """Mass bound 2/(a K_GN(4)) of the p = 4 global-minimization regime."""
    if a <= 0 or kgn4 <= 0:
        raise ValueError("mass-critical threshold requires a > 0 and kgn > 0")
    return 2.0 / (a * kgn4)


def kv2_estimate(grid: Optional[Grid] = None) -> float:
    """Proven K in V2(u) <= K sqrt(A) c^(3/2), where V2 = int int
    log(1 + 1/|x-y|) u^2(x) u^2(y) (Cingolani and Weth, Ann. Inst. H.
    Poincare Anal. Non Lineaire 33, 2016): log(1 + 1/r) <= 1/r; the sharp
    Hardy-Littlewood-Sobolev inequality for n = 2 and lambda = 1 (Lieb,
    Ann. of Math. 118, 1983) bounds int int f(x) f(y)/|x-y| by
    2 sqrt(pi) ||f||_(4/3)^2; and f = u^2 with Gagliardo-Nirenberg at
    p = 8/3 gives ||u^2||_(4/3)^2 <= (K_GN(8/3) A^(1/3) c)^(3/2).  So
    K = 2 sqrt(pi) K_GN(8/3)^(3/2); wide Gaussians approach sqrt(pi/2).
    grid is unused: the benchmark's traced run still passes one."""
    return 2.0 * math.sqrt(math.pi) * kgn_estimate(8.0 / 3.0) ** 1.5


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
    rather than a guess.  sharp must be the constants of params.p, else
    ValueError.

    For gamma < 0, p < 4 and T1 <= a < T2 the source paper places critical
    points on the Pohozaev set.  The sharp Gagliardo-Nirenberg inequality
    C <= K_GN A^((p-2)/2) c (Weinstein, Comm. Math. Phys. 87, 1983) gives
    every field of mass c

        (t*)^2 A <= (a/T2)^(2/(4-p)) k0,

    which is k0/2 at a = T1 and below k0 for every a < T2, so min_t Q(u^t)
    > 0 on every fiber and the set is empty.  That window keeps the tag
    TwoCriticalPointsOnLambda; its certificate carries the bound as
    t_star_sq_A_bound and says the set is empty."""
    if sharp.p != params.p:
        raise ValueError(f"sharp constants of p={sharp.p} cannot classify "
                         f"p={params.p}")
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
        if a < t2:
            bound = (a / t2) ** (2.0 / (4.0 - p)) * cert["k0"]
            cert["t_star_sq_A_bound"] = bound
            conds.append(f"K1 threshold T1 = {t1} <= a = {a} < K2 threshold "
                         f"T2 = {t2}: the source paper's window of critical "
                         "points on the Pohozaev set")
            conds.append(f"sharp Gagliardo-Nirenberg inequality: every field of "
                         f"mass c = {c} has t*^2 A <= (a/T2)^(2/(4-p)) k0 = "
                         f"{bound} < k0 = {cert['k0']}, so Q(u^t) > 0 along "
                         "every fiber and the Pohozaev set is empty")
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
    from .grid import Field, normalize

    gs = ground_state_radial(p)
    stretch = 0.25 * grid.extent / gs.r_decay
    return normalize(Field(grid, gs(grid.radius() / stretch)), c)
