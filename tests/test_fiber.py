import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planarsp import (BranchPoint, DomainError, FiberScalars, Field,
                      MassMismatchError, Params, ProfileSpec, RegimeError,
                      ResolutionError, critical_points, ddg, dg, dilate, discretize,
                      g, make_grid, mass, normalize, phi, project_to_lambda, scalars,
                      t_star)
from planarsp.functionals import Evaluation, kinetic
from planarsp.grid import resample

P6 = Params(gamma=1.0, a=1.0, p=6.0, c=1.0)
SC6 = FiberScalars(A=1.0, C=1.0, V=0.0, params=P6)

S_PLUS = math.sqrt(0.75 * (1.0 - 1.0 / math.sqrt(3.0)))
S_MINUS = math.sqrt(0.75 * (1.0 + 1.0 / math.sqrt(3.0)))


def test_scalars_gaussian(gauss256):
    sc = scalars(gauss256, Params(gamma=1.0, a=1.0, p=3.0, c=1.0))
    assert sc.A == pytest.approx(1.0, abs=1e-4)
    assert sc.C == pytest.approx(0.376126, abs=1e-5)
    assert sc.V == pytest.approx(0.0579655, rel=1e-3)


def test_scalars_mass_mismatch(gauss256):
    with pytest.raises(MassMismatchError):
        scalars(gauss256, Params(gamma=1.0, a=1.0, p=3.0, c=2.0))


def test_scalars_reject_degenerate():
    with pytest.raises(ValueError):
        FiberScalars(A=0.0, C=1.0, V=0.0, params=P6)
    with pytest.raises(ValueError):
        FiberScalars(A=1.0, C=0.0, V=0.0, params=P6)


def test_phi_unit_example():
    # A = C = c = gamma = a = 1, p = 6: phi(1) = 1 - 2/3 - 1/4 = 1/12
    assert phi(SC6, 1.0) == pytest.approx(1.0 / 12.0, rel=1e-12)


def test_dg_is_phi_over_t():
    for t in (0.3, 1.0, 2.7):
        assert dg(SC6, t) == pytest.approx(phi(SC6, t) / t, rel=1e-14)


def test_ddg_matches_fd():
    for t in (0.4, 1.1, 2.0):
        eps = 1e-4 * t
        fd = (g(SC6, t + eps) - 2.0 * g(SC6, t) + g(SC6, t - eps)) / eps ** 2
        assert ddg(SC6, t) == pytest.approx(fd, rel=1e-4)


def test_ddg_critical_point_identity():
    # at a root s of phi, g''(s) = (2 s^2 A - a (p-2)^2/p s^(p-2) C)/s^2
    for bp in critical_points(SC6):
        s = bp.s
        expected = (2.0 * s * s - (16.0 / 6.0) * s ** 4.0) / (s * s)
        assert bp.gpp == pytest.approx(expected, rel=1e-9)


def test_fiber_map_requires_positive_t():
    for fn in (g, dg, ddg, phi):
        with pytest.raises(ValueError):
            fn(SC6, 0.0)
        with pytest.raises(ValueError):
            fn(SC6, -1.0)


def test_t_star_values():
    assert t_star(SC6) == pytest.approx(math.sqrt(0.75), rel=1e-14)
    sc3 = FiberScalars(A=1.0, C=1.0, V=0.0,
                       params=Params(gamma=-1.0, a=1.0, p=3.0, c=1.0))
    assert t_star(sc3) == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_t_star_regime_errors():
    with pytest.raises(RegimeError):
        t_star(FiberScalars(A=1.0, C=1.0, V=0.0,
                            params=Params(gamma=1.0, a=0.0, p=6.0, c=1.0)))
    with pytest.raises(RegimeError):
        t_star(FiberScalars(A=1.0, C=1.0, V=0.0,
                            params=Params(gamma=1.0, a=1.0, p=4.0, c=1.0)))


def test_critical_points_closed_form_p6():
    pts = critical_points(SC6)
    assert len(pts) == 2
    assert pts[0].branch == "plus" and pts[1].branch == "minus"
    assert pts[0].s == pytest.approx(S_PLUS, abs=1e-10)
    assert pts[1].s == pytest.approx(S_MINUS, abs=1e-10)
    assert pts[0].s < t_star(SC6) < pts[1].s
    assert pts[0].gpp > 0 > pts[1].gpp


def _signed(lo, hi):
    return st.floats(min_value=-hi, max_value=hi).filter(lambda x: abs(x) >= lo)


@st.composite
def _fiber_scalars(draw):
    # p stays 0.5 away from 4, so every root lies well inside [1e-7, 1e7].
    p = draw(st.one_of(st.floats(min_value=2.5, max_value=3.5),
                       st.floats(min_value=4.5, max_value=8.0)))
    params = Params(gamma=draw(_signed(0.2, 5.0)), a=draw(_signed(0.2, 5.0)),
                    p=p, c=draw(st.floats(min_value=0.5, max_value=3.0)))
    return FiberScalars(A=draw(st.floats(min_value=0.2, max_value=5.0)),
                        C=draw(st.floats(min_value=0.2, max_value=5.0)),
                        V=draw(st.floats(min_value=-5.0, max_value=5.0)),
                        params=params)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sc=_fiber_scalars())
def test_critical_points_are_the_sign_changes_of_phi(sc):
    # Brute force: phi on 200 log-spaced points per decade.  For a > 0 the
    # scan also holds phi's one stationary point, so two roots never share
    # a scan cell.
    pr = sc.params
    ts = np.logspace(-7.0, 7.0, 2801)
    if pr.a > 0:
        stationary = (pr.a * (pr.p - 2.0) ** 2 * sc.C
                      / (2.0 * pr.p * sc.A)) ** (1.0 / (4.0 - pr.p))
        ts = np.sort(np.append(ts, stationary))
    positive = np.array([phi(sc, float(t)) > 0.0 for t in ts])
    cells = np.flatnonzero(positive[1:] != positive[:-1])

    points = critical_points(sc)
    assert len(points) == len(cells)
    for bp, i in zip(points, cells):
        assert ts[i] <= bp.s <= ts[i + 1]
        # phi = t g' rising through zero is a minimum of g, falling a maximum
        rising = not positive[i]
        assert bp.branch == ("plus" if rising else "minus")
        assert bp.branch == ("plus" if ddg(sc, bp.s) > 0 else "minus")
        assert abs(phi(sc, bp.s)) <= 1e-12 * (sc.A + 0.25 * abs(pr.gamma) * pr.c ** 2)


def test_critical_points_polish_tolerance():
    for bp in critical_points(SC6):
        scale = SC6.A + 0.25 * abs(P6.gamma) * P6.c ** 2
        assert abs(phi(SC6, bp.s)) < 1e-12 * scale


@pytest.mark.parametrize("gamma", [-1e-6, -1e-12, -1e-20])
def test_critical_points_small_minus_root_closed_form(gamma):
    # A = C = a = c = 1, p = 3: phi(t) = t^2 - t/3 - gamma/4, whose roots
    # are t+ = (1/3 + sqrt(1/9 + gamma))/2 and, by Vieta, (-gamma/4)/t+.
    # The small root lies far below t_star = 1/6.
    sc = FiberScalars(A=1.0, C=1.0, V=0.0,
                      params=Params(gamma=gamma, a=1.0, p=3.0, c=1.0))
    t_plus = (1.0 / 3.0 + math.sqrt(1.0 / 9.0 + gamma)) / 2.0
    pts = critical_points(sc)
    assert [bp.branch for bp in pts] == ["minus", "plus"]
    assert pts[0].s == pytest.approx((-0.25 * gamma) / t_plus, rel=1e-12, abs=0.0)
    assert pts[1].s == pytest.approx(t_plus, rel=1e-12, abs=0.0)


def test_critical_points_refuses_a_root_whose_square_underflows():
    # gamma = -1e-300: phi(1e-305) > 0 > phi(t_star), so phi has a root
    # near 7.5e-301, where s^2 underflows and g'' cannot be computed.
    sc = FiberScalars(A=1.0, C=1.0, V=0.0,
                      params=Params(gamma=-1e-300, a=1.0, p=3.0, c=1.0))
    assert phi(sc, 1e-305) > 0.0 > phi(sc, t_star(sc))
    with pytest.raises(RegimeError, match="numerically degenerate"):
        critical_points(sc)


def test_critical_points_refuses_an_overflowing_stationary_point():
    sc = FiberScalars(A=1.0, C=1.0, V=0.0,
                      params=Params(gamma=1.0, a=100.0, p=3.999, c=1.0))
    # t_star = [a (p-2)^2 C / (2 p A)]^1000 overflows a float
    with pytest.raises(RegimeError, match="numerically degenerate"):
        critical_points(sc)


@pytest.mark.parametrize("p", [4.0 - 1e-7, 4.0 - 1e-3])
def test_critical_points_below_an_underflowing_stationary_point(p):
    # The unit Gaussian's t_star = ratio^(1/(4-p)) underflows to 0: phi's
    # minimum lies below every float, phi increases on the floats, and the
    # one root is the plus point, next to the p = 4 point sqrt(D/(A - aC/2)).
    C = (1.0 / math.pi) ** (0.5 * p) * (2.0 * math.pi / p)
    sc = FiberScalars(A=1.0, C=C, V=0.0, params=Params(gamma=1.0, a=1.0, p=p, c=1.0))
    assert t_star(sc) == 0.0
    [pt] = critical_points(sc)
    assert pt.branch == "plus" and abs(phi(sc, pt.s)) <= 1e-15
    assert pt.s == pytest.approx(math.sqrt(0.25 / (1.0 - 0.25 / math.pi)), rel=1e-4)


def test_critical_points_nonexistence_gamma_negative():
    # gamma < 0 with a <= 0: phi > 0 everywhere, no critical points
    rng = np.random.default_rng(77)
    tgrid = np.logspace(-6, 6, 300)
    for _ in range(100):
        pr = Params(gamma=-float(rng.uniform(0.05, 10.0)),
                    a=-float(rng.uniform(0.0, 10.0)),
                    p=float(rng.uniform(2.05, 8.0)),
                    c=float(rng.uniform(0.1, 10.0)))
        sc = FiberScalars(A=float(rng.uniform(0.01, 100.0)),
                          C=float(rng.uniform(0.01, 100.0)),
                          V=float(rng.uniform(-5.0, 5.0)), params=pr)
        assert critical_points(sc) == []
        assert min(phi(sc, float(t)) for t in tgrid) > 0.0


def test_critical_points_empty_below_threshold():
    # weak coupling relative to the kinetic level: the fiber derivative
    # stays positive at its minimum and the Pohozaev set is unreachable
    pr = Params(gamma=-1.0, a=1.0, p=3.0, c=1.0)
    sc = FiberScalars(A=10.0, C=1.0, V=0.0, params=pr)
    assert critical_points(sc) == []


def test_critical_points_single_root_global_regime():
    # gamma > 0, a > 0, p < 4: exactly one critical point, a minimum
    pr = Params(gamma=1.0, a=1.0, p=3.0, c=1.0)
    sc = FiberScalars(A=1.0, C=0.376126, V=0.0579655, params=pr)
    pts = critical_points(sc)
    assert len(pts) == 1 and pts[0].branch == "plus"


@pytest.mark.parametrize("p", [2.5, 3.0, 3.5, 6.0])
def test_critical_points_gamma_zero_closed_form(p):
    # gamma = 0: phi(t) = t^2 A - a (p-2)/p t^(p-2) C has its one root at
    # (a (p-2) C / (p A))^(1/(4-p)), a minimum of g for p < 4 and a maximum
    # for p > 4 (A = C = a = 1, p = 3 gives s = 1/3).
    pr = Params(gamma=0.0, a=1.0, p=p, c=1.0)
    pts = critical_points(FiberScalars(A=1.0, C=1.0, V=0.0, params=pr))
    assert len(pts) == 1
    assert pts[0].s == pytest.approx(((p - 2.0) / p) ** (1.0 / (4.0 - p)), rel=1e-10)
    assert pts[0].branch == ("plus" if p < 4.0 else "minus")


def test_critical_points_choquard_root():
    # a = 0, gamma > 0: the single minimum sits at sqrt(gamma c^2 / (4A))
    pr = Params(gamma=1.0, a=0.0, p=3.0, c=1.0)
    sc = FiberScalars(A=1.0, C=1.0, V=0.0, params=pr)
    pts = critical_points(sc)
    assert len(pts) == 1
    assert pts[0].s == pytest.approx(0.5, rel=1e-10)
    assert pts[0].branch == "plus"


def test_critical_points_mass_critical_exponent():
    pr = Params(gamma=1.0, a=1.0, p=4.0, c=1.0)
    sub = FiberScalars(A=1.0, C=1.0, V=0.0, params=pr)  # A > a C / 2
    pts = critical_points(sub)
    assert len(pts) == 1 and pts[0].branch == "plus"
    assert pts[0].s == pytest.approx(math.sqrt(0.25 / 0.5), rel=1e-10)
    sup = FiberScalars(A=1.0, C=3.0, V=0.0, params=pr)  # A < a C / 2
    assert critical_points(sup) == []


def test_t_star_below_k0_has_no_roots():
    # gamma < 0, p = 3: (t*)^2 A = 1/36 < k0 = 1/4, so phi stays positive
    pr = Params(gamma=-1.0, a=1.0, p=3.0, c=1.0)
    sc = FiberScalars(A=1.0, C=1.0, V=0.0, params=pr)
    assert t_star(sc) ** 2 * sc.A == pytest.approx(1.0 / 36.0, rel=1e-12)
    assert phi(sc, t_star(sc)) > 0.0
    assert critical_points(sc) == []


def test_t_star_at_a_pohozaev_point_with_A_equal_k0():
    # Q(u) = 0 with A = k0 forces t* = 1: a degenerate touching point
    pr = Params(gamma=-1.0, a=10.0, p=3.0, c=1.0)
    A = 0.25  # k0 for these parameters
    C = 3.0 * (A + 0.25) / pr.a
    sc = FiberScalars(A=A, C=C, V=0.0, params=pr)
    assert phi(sc, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert t_star(sc) == pytest.approx(1.0, rel=1e-12)
    assert critical_points(sc) == []


def test_critical_points_ordered_around_t_star():
    # (t*)^2 A above k0: phi dips below zero, one root on each side of t*
    pr = Params(gamma=-1.0, a=10.0, p=3.0, c=1.0)
    sc = FiberScalars(A=1.0, C=0.5, V=0.0, params=pr)
    assert phi(sc, t_star(sc)) < 0.0
    pts = critical_points(sc)
    assert len(pts) == 2
    assert pts[0].branch == "minus" and pts[1].branch == "plus"
    assert pts[0].s < t_star(sc) < pts[1].s


def test_dilate_identity(gauss256):
    v = dilate(gauss256, 1.0)
    assert v is gauss256


def test_dilate_scaling_laws(gauss256):
    A0 = kinetic(gauss256)
    V0 = Evaluation(gauss256).V
    from planarsp.functionals import pnorm

    C0 = pnorm(gauss256, 3.0)
    # The dilation reads the Gaussian's trigonometric interpolant, which
    # resolves it: the laws hold to round-off.
    for t in (0.5, 2.0):
        v = dilate(gauss256, t)
        assert mass(v) == pytest.approx(1.0, rel=1e-12)
        assert kinetic(v) / A0 == pytest.approx(t ** 2, rel=1e-12)
        assert pnorm(v, 3.0) / C0 == pytest.approx(t, rel=1e-12)
        assert Evaluation(v).V - V0 == pytest.approx(-math.log(t), abs=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(t=st.floats(min_value=0.6, max_value=1.6),
       p=st.sampled_from([2.5, 3.0, 4.0, 6.0]),
       spec=st.one_of(
           st.builds(ProfileSpec.gaussian, sigma=st.floats(min_value=0.6, max_value=2.0)),
           # r0 >= 3.5 sigma keeps the ring's cone at the origin below 3e-3
           st.builds(lambda sigma, k: ProfileSpec.ring(r0=k * sigma, sigma=sigma),
                     st.floats(min_value=0.6, max_value=1.0),
                     st.floats(min_value=3.5, max_value=5.0))))
def test_dilate_scaling_laws_on_drawn_profiles(grid256, t, p, spec):
    from planarsp.functionals import pnorm

    u = discretize(spec, grid256)
    v = dilate(u, t)
    c = spec.c
    assert mass(v) == pytest.approx(c, rel=1e-4)
    assert kinetic(v) / kinetic(u) == pytest.approx(t ** 2, rel=1e-3)
    assert pnorm(v, p) / pnorm(u, p) == pytest.approx(t ** (p - 2.0), rel=1e-3)
    assert Evaluation(v).V - Evaluation(u).V == pytest.approx(-c * c * math.log(t), abs=1e-3)


def prolong(u, n):
    """The oracle of the trigonometric interpolant on the finer n x n grid of
    u's extent: u's spectrum zero-padded to n.  The coarse Nyquist row
    stands for the wavenumbers +-m/2 at once, which the finer grid tells
    apart, so each takes half of it; the coarse Nyquist column becomes an
    interior column, which also stands for its mirror, so it is halved too."""
    m = u.grid.n
    spec = np.fft.rfft2(u.values) * (n / m) ** 2
    half = m // 2
    padded = np.zeros((n, n // 2 + 1), dtype=complex)
    padded[:half, :half + 1] = spec[:half]
    padded[n - half + 1:, :half + 1] = spec[half + 1:]
    padded[half, :half + 1] = padded[n - half, :half + 1] = 0.5 * spec[half]
    padded[:, half] *= 0.5
    return np.fft.irfft2(padded, s=(n, n))


@pytest.mark.parametrize("spec", [
    ProfileSpec.gaussian(sigma=1.0), ProfileSpec.ring(r0=4.0, sigma=1.0),
    ProfileSpec.random_smooth(seed=3), None],
    ids=["gaussian", "ring", "random_smooth", "white_noise"])
def test_interpolation_matrix_matches_prolong(grid128, spec):
    # Zero-padding the spectrum samples the same trigonometric interpolant:
    # on the twice finer grid, resample is the padded field, white noise (no
    # decay, full Nyquist content) included, and on the coarse nodes it
    # reads u bit for bit.
    if spec is None:
        u = Field(grid128, np.random.default_rng(7).standard_normal((128, 128)))
    else:
        u = discretize(spec, grid128)
    got = resample(u, make_grid(grid128.extent, 256)).values
    assert np.max(np.abs(got - prolong(u, 256))) <= 1e-14 * np.max(np.abs(u.values))
    assert np.array_equal(got[::2, ::2], u.values)


@pytest.mark.parametrize("t, rel", [(0.5, 1e-13), (0.9, 1e-13), (1.01, 1e-13),
                                    (1.3, 1e-13), (2.0, 1e-10)])
def test_dilate_gaussian_matches_closed_form(grid128, t, rel):
    # The unit Gaussian dilated by t is the Gaussian of width 1/t.  At t = 2
    # that width, 0.5 on h = 0.3125, starts to alias.
    v = dilate(discretize(ProfileSpec.gaussian(sigma=1.0), grid128), t)
    want = discretize(ProfileSpec.gaussian(sigma=1.0 / t), grid128).values
    assert np.max(np.abs(v.values - want)) <= rel * np.max(np.abs(want))


def test_dilate_refuses_a_domain_filling_field_for_t_below_1(grid128):
    # random_smooth fills the domain, so any t < 1 pushes it into the frame
    u = discretize(ProfileSpec.random_smooth(seed=3), grid128)
    for t in (0.5, 0.9):
        with pytest.raises(DomainError):
            dilate(u, t)


def test_dilate_refuses_a_non_finite_t():
    u = discretize(ProfileSpec.gaussian(sigma=1.0), make_grid(40.0, 64))
    with pytest.raises(ValueError, match="positive and finite, got inf"):
        dilate(u, math.inf)


def test_dilate_refuses_a_vanishing_mass():
    # t u(t x) at t = 1e-300 is u(0) 1e-300 on every node: its mass
    # underflows to 0.  A field with no mass has none to dilate.
    u = discretize(ProfileSpec.gaussian(sigma=1.0), make_grid(40.0, 64))
    with pytest.raises(DomainError, match="t=1e-300 leaves no mass"):
        dilate(u, 1e-300)
    with pytest.raises(DomainError, match="t=2.0 leaves no mass"):
        dilate(0.0 * u, 2.0)


def test_dilate_refuses_an_overflowing_mass():
    # at t = 1e300 only the node at the origin stays inside: its sample
    # t u(0) is a float, but the mass is not (RuntimeWarning is an error)
    u = discretize(ProfileSpec.gaussian(sigma=1.0), make_grid(40.0, 64))
    for t in (1e300, 1e308):   # at 1e308, t x overflows off the origin too
        with pytest.raises(ResolutionError, match="overflows the mass"):
            dilate(u, t)


def test_dilate_refuses_an_unresolved_dilation():
    # at t = 64 only the node at the origin samples the unit Gaussian, so
    # the dilation's mass is 509 where it keeps 1; t = 2 still resolves it
    # to 7.2e-3 of the mass
    u = discretize(ProfileSpec.gaussian(sigma=1.0), make_grid(40.0, 64))
    with pytest.raises(ResolutionError, match="t=64.0 changes the mass by 5.08e\\+02"):
        dilate(u, 64.0)
    assert mass(dilate(u, 2.0)) == pytest.approx(1.0, rel=1e-2)


def test_dilate_support_escape():
    grid = make_grid(40.0, 128)
    u = discretize(ProfileSpec.gaussian(sigma=4.0), grid)
    with pytest.raises(DomainError):
        dilate(u, 0.2)  # support radius grows fivefold


def test_project_to_lambda_fixed_point():
    # a field already on the branch is returned unchanged
    grid = make_grid(40.0, 256)
    pr = Params(gamma=1.0, a=0.0, p=3.0, c=1.0)
    u = discretize(ProfileSpec.gaussian(sigma=1.0), grid)
    v = normalize(project_to_lambda(u, pr, "plus"), 1.0)
    w = project_to_lambda(v, pr, "plus")
    # the dilation is exact for the resolved Gaussian, so after one
    # projection the root sits at 1 to round-off
    sc_w = scalars(w, pr)
    assert abs(phi(sc_w, 1.0)) < 1e-13 * (sc_w.A + 0.25)


def test_project_to_lambda_minus_branch():
    grid = make_grid(10.0, 256)
    pr = Params(gamma=1.0, a=1.0, p=6.0, c=1.0)
    u = discretize(ProfileSpec.gaussian(sigma=1.0), grid)
    v = normalize(project_to_lambda(u, pr, "minus"), 1.0)
    sc = scalars(v, pr)
    q = phi(sc, 1.0)
    assert abs(q) < 1e-3 * (sc.A + 0.25)
    assert ddg(sc, 1.0) < 0.0


def test_project_to_lambda_absent_branch(gauss256):
    pr = Params(gamma=-1.0, a=-1.0, p=3.0, c=1.0)
    with pytest.raises(RegimeError):
        project_to_lambda(gauss256, pr, "plus")


def test_project_to_lambda_refuses_an_unknown_branch(gauss256):
    pr = Params(gamma=1.0, a=1.0, p=6.0, c=1.0)
    with pytest.raises(ValueError, match="unknown branch 'sideways'"):
        project_to_lambda(gauss256, pr, "sideways")


def test_project_to_lambda_reuses_the_evaluation(fft_counts):
    # An evaluation whose A and V have been read is placed with no further
    # transform: the fiber scalars are its own, and the dilation reads the
    # trigonometric interpolant by matrix products.  The placed field has
    # mass c and is the one placed from the bare field.
    pr = Params(gamma=1.0, a=1.0, p=6.0, c=1.0)
    ev = Evaluation(normalize(discretize(ProfileSpec.gaussian(sigma=1.0),
                                         make_grid(40.0, 64)), pr.c))
    ev.A, ev.V
    fft_counts.update(dict.fromkeys(fft_counts, 0))
    u = project_to_lambda(ev, pr, "plus")
    assert not any(fft_counts.values())
    assert u is not ev.u
    assert mass(u) == pytest.approx(pr.c, rel=1e-14)
    assert np.array_equal(u.values, project_to_lambda(ev.u, pr, "plus").values)


def test_branch_point_sign_validation(monkeypatch):
    # branch is read from the sign of g''; a g'' of 0 or NaN names none
    import dataclasses

    from planarsp import fiber

    assert [f.name for f in dataclasses.fields(BranchPoint)] == ["s", "g", "gpp"]
    assert BranchPoint(s=1.0, g=0.0, gpp=1e-300).branch == "plus"
    assert BranchPoint(s=1.0, g=0.0, gpp=-1e-300).branch == "minus"
    for curv in (0.0, math.nan):
        monkeypatch.setattr(fiber, "ddg", lambda sc, t: curv)
        with pytest.raises(ValueError, match="names no branch"):
            fiber._branch_point(SC6, 1.0)


def test_scalar_fiber_matches_grid_dilation(gauss256):
    # g evaluated from scalars equals the grid energy of the materialized
    # dilation to round-off: the dilation is exact for the resolved Gaussian
    from planarsp import energy

    pr = Params(gamma=1.0, a=1.0, p=3.0, c=1.0)
    sc = scalars(gauss256, pr)
    for t in (0.7, 1.6):
        v = dilate(gauss256, t)
        assert energy(v, pr).F == pytest.approx(g(sc, t), rel=1e-12)


def test_bracketing_cap_error():
    # scalars engineered so that phi overflows before the scan up from
    # t_star reaches the outer root
    pr = Params(gamma=1.0, a=1.0, p=6.0, c=1.0)
    sc = FiberScalars(A=1.0, C=1e-200, V=0.0, params=pr)
    with pytest.raises(RegimeError):
        critical_points(sc)
