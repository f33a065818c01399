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


def test_shooting_stops_at_the_float_floor(monkeypatch):
    # At most 2 bracket shoots, about 52 bisections from [1, 2.8] and the
    # final shoot at beta; running all 80 bisection steps took 83.
    import planarsp.constants as C

    assert not hasattr(C, "solve_ivp")   # one integrator: Fortran DOP853
    shoots = []
    real_shoot = C._shoot

    def counted(*args, **kwargs):
        shoots.append(args)
        return real_shoot(*args, **kwargs)

    monkeypatch.setattr(C, "_shoot", counted)
    monkeypatch.setattr(C, "_GROUND_STATE_CACHE", {})
    p = 3.7
    gs = ground_state_radial(p)
    assert 50 <= len(shoots) <= 57
    # beta is one of two adjacent floats that bracket the sign change, so a
    # further bisection step could only shoot beta again.
    side = real_shoot(gs.beta, p).sign
    toward = -math.inf if side == -1 else math.inf
    other = real_shoot(float(np.nextafter(gs.beta, toward)), p).sign
    assert (side == -1) != (other == -1)


def test_overflowing_shoot_chains_the_overflow():
    # beta^(p-1) overflows a float in the first right-hand side call, inside
    # the Fortran integrator, where a raised exception would be lost.
    import planarsp.constants as C

    with pytest.raises(ShootingError, match="overflowed") as info:
        C._shoot(1e6, 60.0)
    assert isinstance(info.value.__cause__, OverflowError)


@pytest.mark.filterwarnings("error")
def test_failed_fortran_shoot_raises():
    # At p = 30, beta = 8 the first step of the Fortran DOP853 falls below
    # its floor: the shoot is refused by name, with no integrator warning.
    import planarsp.constants as C

    with pytest.raises(ShootingError, match=r"failed for p=30.0 from phi\(0\)=8.0"):
        C._shoot(8.0, 30.0)
    assert C._shoot(2.0, 30.0).sign == -1


# K_GN as computed when a failed Fortran run at phi(0) = 8 fell back to
# solve_ivp; the overshoot search from phi(0) = 2 must give the same values.
@pytest.mark.parametrize("p,kgn", [(24.0, 0.001110278783421297),
                                   (30.0, 0.001745651664768277),
                                   (47.0, 0.09870755668324438)])
def test_kgn_at_large_exponents(p, kgn):
    assert kgn_estimate(p) == pytest.approx(kgn, rel=1e-12)


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
        shifted = C._radial_profile(beta, p)
        assert shifted.r_decay == pytest.approx(gs.r_decay, rel=1e-4)


def test_kgn_townes_value():
    gs = ground_state_radial(4.0)
    assert kgn_estimate(4.0) == pytest.approx(2.0 / gs.mass, rel=1e-6)
    assert kgn_estimate(4.0) == pytest.approx(0.17091, rel=0.01)


@pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
def test_gaussian_trial_strictly_below_sharp(p):
    assert gaussian_rayleigh_quotient(p) < kgn_estimate(p)


def test_gaussian_trial_p4_closed_form():
    # single-Gaussian quotient at p=4 is 1/(2 pi), scale-free
    assert gaussian_rayleigh_quotient(4.0) == pytest.approx(1.0 / (2.0 * math.pi),
                                                            rel=1e-6)


def test_kgn_requires_supercritical():
    with pytest.raises(ValueError):
        kgn_estimate(2.0)


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
# Empirical V2 constant
# ---------------------------------------------------------------------------


def test_kv2_deterministic():
    assert kv2_estimate() == kv2_estimate()


def test_kv2_dominates_single_gaussian():
    from planarsp.functionals import kinetic, v2
    from planarsp.grid import ProfileSpec, discretize

    grid = make_grid(40.0, 128)
    u = discretize(ProfileSpec.gaussian(sigma=1.0), grid)
    single = v2(u) / math.sqrt(kinetic(u))
    assert kv2_estimate(grid) >= single


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
    at_lower = regime_classify(Params(gamma=-1.0, a=t1, p=p, c=1.0), sharp)
    assert at_lower.tag == "MaxOnLambda"
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
    rank = {"LambdaEmpty": 0, "MaxOnLambda": 1, "TwoCriticalPointsOnLambda": 1,
            "OpenUnknown": 1}
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
    assert inside.tag in ("TwoCriticalPointsOnLambda", "MaxOnLambda")
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
    assert inside.tag in ("TwoCriticalPointsOnLambda", "MaxOnLambda")
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
