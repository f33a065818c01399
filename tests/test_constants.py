import dataclasses
import math

import numpy as np
import pytest

from planarsp import (Params, RegimeError, ShootingError, kgn_estimate,
                      regime_classify)
from planarsp.constants import (SharpConstants, a_thresholds, c0, c_edges,
                                gaussian_rayleigh_quotient, gn_profile_field,
                                ground_state_radial, k0, k1, k2, kv2_estimate,
                                mass_critical_threshold, sharp_constants)
from planarsp.grid import make_grid, mass


# ---------------------------------------------------------------------------
# Ground-state shooting and the sharp constant
# ---------------------------------------------------------------------------


def test_townes_mass():
    gs = ground_state_radial(4.0)
    assert gs.mass == pytest.approx(11.70, rel=1e-3)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0, 24.0])
def test_ground_state_pohozaev_ratios(p):
    gs = ground_state_radial(p)
    assert gs.mass / gs.C == pytest.approx(2.0 / p, rel=1e-6)
    assert gs.A / gs.C == pytest.approx((p - 2.0) / p, rel=1e-6)


def _assert_adjacent_shot_pair(gs, shoot):
    # beta is one of two adjacent floats, a shot undershoot and a shot
    # overshoot, so a further bisection step could only shoot beta again.
    side = shoot(gs.beta, gs.p).sign
    toward = -math.inf if side == -1 else math.inf
    other = shoot(float(np.nextafter(gs.beta, toward)), gs.p).sign
    assert (side == -1) != (other == -1)


# 2.01, 12 and 30 are among the exponents where the shot sign changes more
# than once near phi(0).
@pytest.mark.parametrize("p", [2.01, 3.0, 3.7, 4.0, 6.0, 12.0, 30.0])
def test_shooting_stops_at_the_float_floor(monkeypatch, p):
    # Two bracket shoots, about 10 regula falsi steps and the 10 or so
    # bisection midpoints of their few hundred ulps wide bracket, beta
    # among them, whose shot is the profile; the plain bisection shoots 54
    # midpoints and bracket ends.
    import planarsp.constants as C

    assert not hasattr(C, "solve_ivp")   # one integrator: planarsp.dop853
    shoots = []
    real_shoot = C._shoot

    def counted(*args, **kwargs):
        shoots.append(args)
        return real_shoot(*args, **kwargs)

    monkeypatch.setattr(C, "_shoot", counted)
    C._ground_state.cache_clear()
    gs = ground_state_radial(p)
    assert len(shoots) <= 30
    _assert_adjacent_shot_pair(gs, real_shoot)


@pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
def test_ground_state_counts_its_shoots(monkeypatch, p):
    import planarsp.constants as C

    shoots = []
    real_shoot = C._shoot

    def counted(*args, **kwargs):
        shoots.append(args)
        return real_shoot(*args, **kwargs)

    monkeypatch.setattr(C, "_shoot", counted)
    C._ground_state.cache_clear()
    gs = ground_state_radial(p)
    assert gs.shoots == len(shoots)
    # The work of one ground state, pinned.
    assert gs.shoots == {3.0: 18, 4.0: 21, 6.0: 15}[p]
    # One shooting path: no phi(0) is shot twice, the profile's included.
    assert len(set(shoots)) == len(shoots)
    # The count is bookkeeping, not part of the state's value.
    assert dataclasses.replace(gs, shoots=0) == gs
    assert ground_state_radial(p) is gs and len(shoots) == gs.shoots


def _counted_ground_state(monkeypatch, p):
    """ground_state_radial(p) built afresh in this process, and the phi(0)
    of each shoot it took."""
    import planarsp.constants as C

    shoots = []
    real_shoot = C._shoot

    def counted(beta, p):
        shoots.append(beta)
        return real_shoot(beta, p)

    monkeypatch.setattr(C, "_shoot", counted)
    C._ground_state.cache_clear()
    gs = ground_state_radial(p)
    monkeypatch.setattr(C, "_shoot", real_shoot)
    return gs, shoots


def _stored_file(cache_home, p):
    return cache_home / "planarsp" / f"phi0_p{p!r}"


@pytest.mark.parametrize("p", [3.0, 6.0])
def test_stored_pair_is_recertified_in_two_shoots(monkeypatch, cache_home, p):
    # The search stores the lower float of its pair; a later build of the
    # state (a fresh process, here a cleared in-process cache) shoots just
    # that float and the next and builds the same state, step ends
    # included.
    import planarsp.constants as C

    searched, _ = _counted_ground_state(monkeypatch, p)
    assert searched.shoots == {3.0: 18, 6.0: 15}[p]
    path = _stored_file(cache_home, p)
    stored = path.read_text()
    _, lo = stored.split()
    assert stored == f"{C._cache_key()} {lo}\n"
    lo = float.fromhex(lo)
    hi = math.nextafter(lo, math.inf)
    assert searched.beta in (lo, hi)

    hit, shoots = _counted_ground_state(monkeypatch, p)
    assert hit.shoots == 2 and shoots == [lo, hi]
    assert hit == searched and hit.steps == searched.steps
    assert kgn_estimate(p) == hit.C / (hit.A ** (0.5 * p - 1.0) * hit.mass)
    assert path.read_text() == stored


def test_storing_an_exponent_leaves_the_others_file_as_it_is(monkeypatch, cache_home):
    # Each exponent has a file of its own: storing p = 6 neither rewrites
    # nor replaces p = 3's.
    _counted_ground_state(monkeypatch, 3.0)
    p3 = _stored_file(cache_home, 3.0)
    before, stored = p3.stat(), p3.read_bytes()
    _counted_ground_state(monkeypatch, 6.0)
    after = p3.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert p3.read_bytes() == stored
    assert sorted(f.name for f in p3.parent.iterdir()) == ["phi0_p3.0", "phi0_p6.0"]


# Each file must be ignored: the search runs as with no cache, and its pair
# replaces the file.  Those of the first set are a miss before any shoot.
_UNREAD_FILES = {
    "garbage": lambda key, lo: f"{key} {lo.split('p')[0]}p",
    "three_tokens": lambda key, lo: f"{key} {lo} {lo}\n",
    "other_key": lambda key, lo: f"{'0' * len(key)} {lo}\n",
    # phi(0) = 1 is the constant solution, below every ground state's
    "lo_not_above_one": lambda key, lo: f"{key} {(1.0).hex()}\n",
}
_BAD_FILES = {
    **_UNREAD_FILES,
    # a pair whose shots fail the search's test: an overshoot at lo
    # (phi(0) = 3 is far above the ground state's 2.39) ...
    "lo_overshoots": lambda key, lo: f"{key} {(3.0).hex()}\n",
    # ... and an undershoot at hi (phi(0) = 2 is below it)
    "hi_undershoots": lambda key, lo: f"{key} {(2.0).hex()}\n",
}


@pytest.mark.parametrize("entry", list(_BAD_FILES))
def test_bad_stored_pair_is_searched_and_rewritten(monkeypatch, cache_home, entry):
    searched, search_shoots = _counted_ground_state(monkeypatch, 3.0)
    path = _stored_file(cache_home, 3.0)
    stored = path.read_text()
    path.write_text(_BAD_FILES[entry](*stored.split()))

    gs, shoots = _counted_ground_state(monkeypatch, 3.0)
    assert gs == searched and gs.steps == searched.steps
    # The whole search ran again, beside at most the two shoots of the
    # rejected check, and the count holds them all, each shot once.
    assert set(search_shoots) <= set(shoots) and len(set(shoots)) == len(shoots)
    assert gs.shoots == len(shoots) <= len(search_shoots) + 2
    if entry in _UNREAD_FILES:
        assert shoots == search_shoots
    assert path.read_text() == stored
    assert [f.name for f in path.parent.iterdir()] == [path.name]


def test_unwritable_cache_location_is_a_miss(monkeypatch, tmp_path):
    # XDG_CACHE_HOME names a regular file: nothing can be read or written
    # under it, so every build searches, and nothing is raised.
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    first, _ = _counted_ground_state(monkeypatch, 3.0)
    again, shoots = _counted_ground_state(monkeypatch, 3.0)
    assert again == first and again.shoots == len(shoots) == 18
    assert blocker.read_text() == "" and list(tmp_path.iterdir()) == [blocker]


def test_cache_location_follows_xdg(monkeypatch, tmp_path):
    # An absolute XDG_CACHE_HOME holds the cache; an unset or relative one
    # means ~/.cache (the XDG base directory rule), never the working
    # directory.
    import planarsp.constants as C

    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert C._cache_file(3.0) == str(tmp_path / "xdg" / "planarsp" / "phi0_p3.0")
    default = str(tmp_path / ".cache" / "planarsp" / "phi0_p3.0")
    monkeypatch.setenv("XDG_CACHE_HOME", "relative")
    assert C._cache_file(3.0) == default
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert C._cache_file(3.0) == default


def test_overflowing_shoot_chains_the_overflow():
    # beta^(p-1) overflows a float in the first right-hand side evaluation.
    import planarsp.constants as C

    with pytest.raises(ShootingError, match="overflowed") as info:
        C._shoot(1e6, 60.0)
    assert isinstance(info.value.__cause__, OverflowError)


@pytest.mark.filterwarnings("error")
def test_failed_dop853_shoot_raises():
    # At p = 30, beta = 8 the first DOP853 step falls below its floor
    # (return code -3): the shoot is refused by name, with no warning.
    import planarsp.constants as C

    with pytest.raises(ShootingError, match=r"failed for p=30.0 from phi\(0\)=8.0: "
                                            r"DOP853 return code -3$"):
        C._shoot(8.0, 30.0)
    assert C._shoot(2.0, 30.0).sign == -1


def test_shoot_that_settles_no_sign_ends_at_r_end(monkeypatch):
    # Ended short of any sign change, a shoot reaches r_end on its last
    # step, returns code 1 and sign 0, and its record runs from r0.
    import planarsp.constants as C
    import planarsp.dop853 as D

    monkeypatch.setattr(D, "_R_END", 0.5)
    code, sign, steps, state = D.radial_dop853(3.0, 2.0)
    assert (code, sign) == (1, 0)
    assert steps[0] == (D._R0, 2.0, 0.0)
    assert steps[-1][0] == 0.5 and steps[-1][1:] == tuple(state[:2])
    assert steps[-1][1] > 0.0 > steps[-1][2]
    shot = C._shoot(2.0, 3.0)
    assert shot.sign == 0 and shot.steps == steps and shot.state == state


def test_shoot_past_the_step_cap_is_refused(monkeypatch):
    # A shoot that needs more than _NMAX steps is DOP853's return code -2.
    import planarsp.constants as C
    import planarsp.dop853 as D

    monkeypatch.setattr(D, "_NMAX", 3)
    with pytest.raises(ShootingError, match=r"failed for p=3.0 from phi\(0\)=2.0: "
                                            r"DOP853 return code -2$"):
        C._shoot(2.0, 3.0)


# phi(0) and K_GN of the ground-state search.  Each of its shoots is SciPy
# 1.17.1's compiled dop853 bit for bit (see test_bisection_shoots_are_pinned),
# whatever scipy is installed.
@pytest.mark.parametrize("p,beta_hex,kgn_repr", [
    (2.01, "0x1.5b5cc9a4e0f80p+1", "0.989345990091159"),
    (3.0, "0x1.322ba09ea6e76p+1", "0.3809808860276789"),
    (4.0, "0x1.1a64ca390a6c8p+1", "0.17092707347698544"),
    (6.0, "0x1.00098039fd63ap+1", "0.04726537147322567"),
    (24.0, "0x1.ac71ba56fb37ap+0", "0.0011102787834213355"),
    (47.0, "0x1.a43ce85537bd8p+0", "0.0987075566832274"),
])
def test_shooting_is_pinned_bit_for_bit(p, beta_hex, kgn_repr):
    assert float.hex(ground_state_radial(p).beta) == beta_hex
    assert repr(float(kgn_estimate(p))) == kgn_repr


def _plain_bisection(p):
    """The ground-state search as a plain bisection of phi(0), every
    midpoint shot through C._shoot: the oracle of ground_state_radial.
    Shoots the profile from the returned phi(0) last, as the bisection
    once did."""
    import planarsp.constants as C

    lo, hi = 1.0, 2.0
    while C._shoot(hi, p).sign != -1:
        hi *= 1.4
    for _ in range(C._SHOOTING_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if C._shoot(mid, p).sign == -1:
            hi = mid
        else:
            lo = mid
    beta = 0.5 * (lo + hi)
    C._shoot(beta, p)
    return beta


def test_bisection_shoots_are_pinned(monkeypatch):
    # Every shoot of the plain ground-state bisection at p = 3, the final
    # one included: phi(0), the sign, the number of step ends, the last
    # step end and the state there, as recorded with SciPy 1.17.1's
    # compiled dop853.  An ulp moved in any shoot's last state changes the
    # digest.  ground_state_radial must end on an adjacent shot pair.
    import hashlib

    import planarsp.constants as C

    lines = []
    real_shoot = C._shoot

    def recorded(beta, p):
        shot = real_shoot(beta, p)
        last = [shot.steps[-1][0], *shot.state]
        lines.append(f"{float.hex(beta)} {shot.sign} {len(shot.steps)} "
                     + " ".join(float.hex(float(v)) for v in last) + "\n")
        return shot

    monkeypatch.setattr(C, "_shoot", recorded)
    _plain_bisection(3.0)
    assert len(lines) == 55
    assert lines[0].startswith("0x1.0000000000000p+1 1 70 ")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "14db8012ec54b8ea28bcc5f39eb6e4b4683257a5b6854a6fad2bd012873d6d70")
    C._ground_state.cache_clear()
    _assert_adjacent_shot_pair(ground_state_radial(3.0), real_shoot)


@pytest.mark.parametrize("p", [2.01, 2.5, 3.7, 6.0, 12.0, 30.0, 47.0])
def test_ground_state_matches_the_plain_bisection(p):
    # Both searches end on a sign change of the shot at adjacent floats.
    # Round-off makes the sign flip more than once near phi(0), so the two
    # may end on different ones (60 ulps apart at p = 2.01), but K_GN
    # agrees to 1e-13 relative (6.5e-14 at p = 30).
    import planarsp.constants as C

    C._ground_state.cache_clear()
    beta = _plain_bisection(p)
    assert abs(ground_state_radial(p).beta - beta) <= 64 * math.ulp(beta)
    gs = C._radial_profile(C._shoot(beta, p), p, 1)
    assert kgn_estimate(p) == pytest.approx(
        gs.C / (gs.A ** (0.5 * p - 1.0) * gs.mass), rel=1e-13, abs=0.0)


# K_GN pinned at the exponents the tests and the benchmark use.  The values
# at p >= 24 are those computed when a failed DOP853 run at phi(0) = 8 fell
# back to solve_ivp; the overshoot search from phi(0) = 2 must give them too.
@pytest.mark.parametrize("p,kgn", [(2.5, 0.6021051659392841),
                                   (3.0, 0.3809808860276789),
                                   (4.0, 0.17092707347698544),
                                   (6.0, 0.04726537147322567),
                                   (24.0, 0.001110278783421297),
                                   (30.0, 0.001745651664768277),
                                   (47.0, 0.09870755668324438)])
def test_kgn_at_large_exponents(p, kgn):
    assert kgn_estimate(p) == pytest.approx(kgn, rel=1e-12)


# Series references for K_GN at high p (ROADMAP Baseline).  The shoot starts
# at r0 = 1e-8 with zero integral states and phi'(r0) = 0, which drops the
# [0, r0] share of the mass and of C: K_GN is 3.1e-6 off at p = 47 (the open
# FOUND on the [0, r0] start; ROADMAP item 11).
@pytest.mark.xfail(raises=AssertionError,
                   reason="K_GN misses its [0, r0] share at high p (ROADMAP item 11)")
@pytest.mark.parametrize("p,kgn", [(47.0, 0.09870786148)])
def test_kgn_matches_series_reference_at_high_p(p, kgn):
    assert kgn_estimate(p) == pytest.approx(kgn, rel=1e-9)


def test_kgn_at_p55_is_refused():
    # At p = 55 the missing [0, r0] share puts mass/C 1.7e-4 off 2/p in
    # relative terms, beyond the Pohozaev tolerance: no K_GN (1.7e-4 off the
    # series reference 1.96666801542) is returned.
    with pytest.raises(ShootingError, match="violates its Pohozaev identities"):
        kgn_estimate(55.0)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
def test_shooting_checks_refuse_a_moved_beta(p):
    # The checks that certify K_GN (see kgn_estimate) accept the bisected
    # phi(0) and refuse it moved by 1e-5 relative either way.
    import planarsp.constants as C

    gs = ground_state_radial(p)
    C._radial_profile(C._shoot(gs.beta, p), p, 1)
    for factor in (1.0 - 1e-5, 1.0 + 1e-5):
        with pytest.raises(ShootingError):
            C._radial_profile(C._shoot(gs.beta * factor, p), p, 1)


def test_profile_width_ignores_the_last_bits_of_beta():
    # The shoot from beta stops where its round-off has grown to O(1), so
    # r_stop moves by up to 15% within 20 ulps of beta; the decay radius
    # that sets the width of gn_profile_field must not.
    import planarsp.constants as C

    p = 4.0
    gs = ground_state_radial(p)
    for toward in (-math.inf, math.inf):
        beta = gs.beta
        for _ in range(20):
            beta = float(np.nextafter(beta, toward))
        shifted = C._radial_profile(C._shoot(beta, p), p, 1)
        assert shifted.r_decay == pytest.approx(gs.r_decay, rel=1e-4)


# r_decay as scipy's CubicHermiteSpline.solve gave it
_R_DECAY = {3.0: 14.000350399289777, 4.0: 12.99075030940127, 6.0: 12.30455946862083}


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0, 24.0])
def test_profile_is_the_cubic_hermite_spline_bit_for_bit(p):
    # scipy.interpolate is the oracle of the profile: the numpy interpolant
    # of the step ends, extrapolated below the first one, and its decay
    # radius.
    from scipy.interpolate import CubicHermiteSpline

    gs = ground_state_radial(p)
    spline = CubicHermiteSpline(*np.array(gs.steps).T)
    r = np.concatenate(([0.0], np.linspace(0.0, 1.1 * gs.r_stop, 1002)[1:]))
    inside = r < gs.r_stop
    want = np.zeros_like(r)
    want[inside] = spline(r[inside])
    assert np.array_equal(gs(r), np.maximum(want, 0.0))
    oracle = float(spline.solve(1e-6 * gs.beta, extrapolate=False)[0])
    assert gs.r_decay == pytest.approx(oracle, rel=1e-12)
    if p in _R_DECAY:
        assert gs.r_decay == pytest.approx(_R_DECAY[p], rel=1e-12)


def test_kgn_near_p2():
    # K_GN rises toward 1 as p -> 2; p = 2.01 needs the shoot to reach its
    # decay radius, about 75.
    assert kgn_estimate(2.05) < kgn_estimate(2.01) < 1.0


def test_kgn_townes_value():
    gs = ground_state_radial(4.0)
    assert kgn_estimate(4.0) == pytest.approx(2.0 / gs.mass, rel=1e-6)
    assert kgn_estimate(4.0) == pytest.approx(0.17091, rel=0.01)


@pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
def test_gaussian_trial_strictly_below_sharp(p):
    assert gaussian_rayleigh_quotient(p) < kgn_estimate(p)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
def test_gaussian_trial_closed_form(p):
    # m, A and C of e^(-r^2/2) by adaptive quadrature, independent of the
    # closed form; at p = 4 the quotient is 1/(2 pi).
    from scipy.integrate import quad

    def radial(f):
        return 2.0 * math.pi * quad(lambda r: f(r) * r, 0.0, math.inf,
                                    epsabs=0.0, epsrel=1e-13)[0]

    m = radial(lambda r: math.exp(-r * r))
    A = radial(lambda r: r * r * math.exp(-r * r))
    C = radial(lambda r: math.exp(-0.5 * p * r * r))
    expect = C / (A ** (0.5 * p - 1.0) * m)
    assert gaussian_rayleigh_quotient(p) == pytest.approx(expect, rel=1e-12)


def test_kgn_requires_supercritical():
    with pytest.raises(ValueError):
        kgn_estimate(2.0)


@pytest.mark.parametrize("p", [math.inf, math.nan])
@pytest.mark.parametrize("solve", [kgn_estimate, ground_state_radial])
def test_shooting_refuses_a_non_finite_exponent(solve, p):
    # inf once divided by zero and nan shot once before DOP853 gave up.
    with pytest.raises(ValueError, match="p must be finite"):
        solve(p)


def test_gn_profile_field_mass_and_quotient():
    grid = make_grid(40.0, 256)
    u = gn_profile_field(grid, 3.0, 1.0)
    assert mass(u) == pytest.approx(1.0, rel=1e-12)
    from planarsp.functionals import kinetic, pnorm

    quotient = pnorm(u, 3.0) / (math.sqrt(kinetic(u)) * 1.0)
    assert quotient == pytest.approx(kgn_estimate(3.0), rel=2e-3)


# ---------------------------------------------------------------------------
# Threshold formulas
# ---------------------------------------------------------------------------


def test_k0_values():
    assert k0(Params(gamma=1.0, a=1.0, p=6.0, c=1.0)) == pytest.approx(0.5)
    assert k0(Params(gamma=-1.0, a=1.0, p=3.0, c=1.0)) == pytest.approx(0.25)
    with pytest.raises(RegimeError):
        k0(Params(gamma=1.0, a=1.0, p=4.0, c=1.0))
    with pytest.raises(RegimeError):
        k0(Params(gamma=0.0, a=1.0, p=3.0, c=1.0))


def test_c0_example():
    assert c0(6.0, 1.0, 1.0, 0.2) == pytest.approx(2.0 * (12.0 / 12.8) ** (1.0 / 3.0),
                                                   rel=1e-12)
    assert c0(6.0, 1.0, 1.0, 0.2) == pytest.approx(1.95744, abs=1e-5)


def test_c0_decreasing_in_a():
    vals = [c0(6.0, a, 1.0, 0.2) for a in (0.5, 1.0, 2.0, 4.0)]
    assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))


def test_c0_regime_errors():
    with pytest.raises(RegimeError):
        c0(4.0, 1.0, 1.0, 0.2)
    with pytest.raises(RegimeError):
        c0(6.0, -1.0, 1.0, 0.2)
    with pytest.raises(RegimeError):
        c0(6.0, 1.0, -1.0, 0.2)


def test_k1_k2_example():
    # p = 3 with a given kgn = 0.3
    assert k1(3.0, 0.3) == pytest.approx(3.0 / (math.sqrt(2.0) * 0.3), rel=1e-12)
    assert k1(3.0, 0.3) == pytest.approx(7.07107, abs=1e-4)
    assert k2(3.0, 0.3) == pytest.approx(10.0, rel=1e-12)


@pytest.mark.parametrize("p", [2.5, 3.0, 3.5])
def test_k2_over_k1_ratio_exact(p):
    ratio = k2(p, 0.23) / k1(p, 0.23)
    assert ratio == pytest.approx(2.0 ** (0.5 * (4.0 - p)), rel=1e-14)


def test_k1_out_of_range():
    with pytest.raises(RegimeError):
        k1(4.0, 0.3)
    with pytest.raises(RegimeError):
        k2(4.5, 0.3)


def test_mass_critical_threshold():
    assert mass_critical_threshold(1.0, 0.2) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        mass_critical_threshold(-1.0, 0.2)


# ---------------------------------------------------------------------------
# Proven V2 constant
# ---------------------------------------------------------------------------


def test_kv2_deterministic():
    assert kv2_estimate() == kv2_estimate()


def test_kv2_dominates_single_gaussian():
    from planarsp.functionals import Evaluation, kinetic
    from planarsp.grid import ProfileSpec, discretize

    grid = make_grid(40.0, 128)
    u = discretize(ProfileSpec.gaussian(sigma=1.0), grid)
    single = Evaluation(u).V2 / math.sqrt(kinetic(u))
    assert kv2_estimate(grid) >= single


def test_kv2_is_the_proven_closed_form():
    # 2 sqrt(pi) (HLS, n = 2, lambda = 1) times K_GN(8/3)^(3/2); it must
    # reach the limit sqrt(pi/2) of V2 / (sqrt(A) c^(3/2)) on wide Gaussians.
    kv2 = kv2_estimate()
    assert kv2 == 2.0 * math.sqrt(math.pi) * kgn_estimate(8.0 / 3.0) ** 1.5
    assert kv2 == 1.3076223954298953
    assert kv2 >= math.sqrt(math.pi / 2.0)


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------


def _sharp(p):
    return sharp_constants(p)


@pytest.mark.parametrize("params,tag", [
    (Params(gamma=1.0, a=-1.0, p=3.0, c=5.0), "GlobalMin"),
    (Params(gamma=1.0, a=1.0, p=3.0, c=1.0), "GlobalMin"),
    (Params(gamma=1.0, a=0.0, p=5.0, c=1.0), "GlobalMin"),
    (Params(gamma=-1.0, a=-1.0, p=3.0, c=1.0), "NoCriticalPoint"),
    (Params(gamma=-1.0, a=0.0, p=6.0, c=1.0), "NoCriticalPoint"),
    (Params(gamma=-1.0, a=0.01, p=2.5, c=1.0), "LambdaEmpty"),
    (Params(gamma=-1.0, a=1.0, p=6.0, c=1.0), "OpenUnknown"),
    (Params(gamma=-1.0, a=1.0, p=4.0, c=1.0), "OpenUnknown"),
    (Params(gamma=0.0, a=1.0, p=3.0, c=1.0), "OpenUnknown"),
])
def test_regime_examples(params, tag):
    assert regime_classify(params, _sharp(params.p)).tag == tag


def test_regime_refuses_constants_of_another_exponent():
    sharp6 = _sharp(6.0)
    params = Params(gamma=1.0, a=1.0, p=6.0, c=0.9 * c0(6.0, 1.0, 1.0, sharp6.kgn))
    assert regime_classify(params, sharp6).tag == "LocalMinPlusMountainPass"
    with pytest.raises(ValueError, match="p=3.0"):
        regime_classify(params, _sharp(3.0))


def test_regime_local_min_mountain_pass():
    p = 6.0
    sharp = _sharp(p)
    czero = c0(p, 1.0, 1.0, sharp.kgn)
    label = regime_classify(Params(gamma=1.0, a=1.0, p=p, c=0.5 * czero), sharp)
    assert label.tag == "LocalMinPlusMountainPass"
    assert label.certificate["c0"] == pytest.approx(czero)
    above = regime_classify(Params(gamma=1.0, a=1.0, p=p, c=1.5 * czero), sharp)
    assert above.tag == "OpenUnknown"


def test_regime_two_critical_window():
    p = 3.0
    sharp = _sharp(p)
    t1, t2 = a_thresholds(p, -1.0, 1.0, sharp.kgn)
    mid = regime_classify(Params(gamma=-1.0, a=0.5 * (t1 + t2), p=p, c=1.0), sharp)
    assert mid.tag == "TwoCriticalPointsOnLambda"
    assert any("Pohozaev set is empty" in cond
               for cond in mid.certificate["conditions"])
    at_lower = regime_classify(Params(gamma=-1.0, a=t1, p=p, c=1.0), sharp)
    assert at_lower.tag == "TwoCriticalPointsOnLambda"
    below = regime_classify(Params(gamma=-1.0, a=0.99 * t1, p=p, c=1.0), sharp)
    assert below.tag == "LambdaEmpty"
    at_upper = regime_classify(Params(gamma=-1.0, a=t2, p=p, c=1.0), sharp)
    assert at_upper.tag == "OpenUnknown"


def test_regime_mass_critical_boundary_exact():
    sharp = _sharp(4.0)
    c_mc = mass_critical_threshold(1.0, sharp.kgn)
    below = regime_classify(Params(gamma=1.0, a=1.0, p=4.0,
                                   c=c_mc * (1 - 1e-12)), sharp)
    at = regime_classify(Params(gamma=1.0, a=1.0, p=4.0, c=c_mc), sharp)
    assert below.tag == "GlobalMinMassCritical"
    assert at.tag == "OpenUnknown"


def test_regime_monotone_in_a():
    # increasing a never moves an existence tag back to LambdaEmpty
    p = 2.5
    sharp = _sharp(p)
    rank = {"LambdaEmpty": 0, "TwoCriticalPointsOnLambda": 1, "OpenUnknown": 1}
    tags = [regime_classify(Params(gamma=-1.0, a=a, p=p, c=2.0), sharp).tag
            for a in np.linspace(0.01, 3.0, 40)]
    ranks = [rank[t] for t in tags]
    assert all(ranks[i + 1] >= ranks[i] for i in range(len(ranks) - 1))


def test_certificate_reproducible():
    sharp = _sharp(3.0)
    label = regime_classify(Params(gamma=-1.0, a=0.1, p=3.0, c=1.0), sharp)
    cert = label.certificate
    assert cert["kgn"] == sharp.kgn
    assert cert["a_threshold_lower"] == pytest.approx(k1(3.0, sharp.kgn))
    assert any("a = 0.1" in cond for cond in cert["conditions"])


# ---------------------------------------------------------------------------
# Remark-table band structure in c
# ---------------------------------------------------------------------------


def test_band_edges_subcritical_p():
    # 2 < p < 3: existence on (c2, c1] with c2 < c1
    p = 2.5
    kgn = kgn_estimate(p)
    c1, c2 = c_edges(p, -1.0, 1.0, kgn)
    assert c2 < c1
    sharp = SharpConstants(p=p, kgn=kgn)
    inside = regime_classify(Params(gamma=-1.0, a=1.0, p=p,
                                    c=0.5 * (c1 + c2)), sharp)
    assert inside.tag == "TwoCriticalPointsOnLambda"
    above = regime_classify(Params(gamma=-1.0, a=1.0, p=p, c=1.01 * c1), sharp)
    assert above.tag == "LambdaEmpty"
    below = regime_classify(Params(gamma=-1.0, a=1.0, p=p, c=0.99 * c2), sharp)
    assert below.tag == "OpenUnknown"


def test_band_edges_supercritical_p():
    # 3 < p < 4: the orientation reverses, existence on [c1, c2)
    p = 3.5
    kgn = kgn_estimate(p)
    c1, c2 = c_edges(p, -1.0, 1.0, kgn)
    assert c1 < c2
    sharp = SharpConstants(p=p, kgn=kgn)
    inside = regime_classify(Params(gamma=-1.0, a=1.0, p=p,
                                    c=0.5 * (c1 + c2)), sharp)
    assert inside.tag == "TwoCriticalPointsOnLambda"
    below = regime_classify(Params(gamma=-1.0, a=1.0, p=p, c=0.99 * c1), sharp)
    assert below.tag == "LambdaEmpty"


def test_band_edges_match_threshold_inversion():
    # c_i invert a = K_i |gamma|^((4-p)/2) c^(3-p) exactly
    for p in (2.5, 3.5):
        kgn = kgn_estimate(p)
        c1, c2 = c_edges(p, -2.0, 1.3, kgn)
        g = 2.0 ** (0.5 * (4.0 - p))
        assert k1(p, kgn) * g * c1 ** (3.0 - p) == pytest.approx(1.3, rel=1e-12)
        assert k2(p, kgn) * g * c2 ** (3.0 - p) == pytest.approx(1.3, rel=1e-12)


def test_band_edges_p3_undefined():
    with pytest.raises(RegimeError):
        c_edges(3.0, -1.0, 1.0, 0.38)
