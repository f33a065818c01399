import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as sfft
import scipy.special
from hypothesis import given, settings, strategies as st
from numpy.polynomial.polynomial import polyval
from scipy.integrate import quad
from scipy.special import exp1

from planarsp import (Field, GridMismatchError, Params, ProfileSpec, discretize,
                      el_residual, energy, grad_energy, kinetic,
                      lagrange_multiplier, log_potential, make_grid, mass,
                      pnorm, pohozaev_residual, shift)
from planarsp import constants as K
from planarsp import functionals, solvers
from planarsp.functionals import (Evaluation, _bessel_j01, _log1p_origin_average,
                                  kernel_table, smooth_direction)
from planarsp.grid import resample

from conftest import EULER, V_GAUSS_UNIT, padded_kernel, padded_reference

PR3 = Params(gamma=1.0, a=1.0, p=3.0, c=1.0)


def radial_V_oracle(u2_of_r, rmax=25.0):
    """Direct-quadrature oracle for V of a radial density u^2(r):
    w(r) = log r * m(<r) + integral_{s>r} log s u^2 2 pi s ds, then
    V = integral w u^2."""

    def m_inside(r):
        val, _ = quad(lambda s: 2.0 * np.pi * s * u2_of_r(s), 0.0, r, limit=200)
        return val

    def w(r):
        outer, _ = quad(lambda s: 2.0 * np.pi * s * np.log(s) * u2_of_r(s),
                        r, rmax, limit=200)
        return np.log(r) * m_inside(r) + outer

    val, _ = quad(lambda r: 2.0 * np.pi * r * u2_of_r(r) * w(r), 1e-9, rmax,
                  limit=200)
    return val


def test_params_validation():
    with pytest.raises(ValueError):
        Params(gamma=1.0, a=1.0, p=2.0, c=1.0)
    with pytest.raises(ValueError):
        Params(gamma=1.0, a=1.0, p=3.0, c=0.0)


@pytest.mark.parametrize("name", ["gamma", "a", "p", "c"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_params_reject_non_finite(name, bad):
    values = dict(gamma=1.0, a=1.0, p=3.0, c=1.0)
    values[name] = bad
    with pytest.raises(ValueError):
        Params(**values)


def test_zero_field_functionals(grid128):
    z = Field(grid128, np.zeros((128, 128)))
    assert kinetic(z) == 0.0
    assert pnorm(z, 3.0) == 0.0
    ev = Evaluation(z)
    assert ev.V == 0.0
    assert ev.V1 == 0.0
    assert ev.V2 == 0.0
    assert np.all(log_potential(z).values == 0.0)
    assert np.all(grad_energy(z, PR3).values == 0.0)
    assert el_residual(z, PR3, 1.23) == 0.0
    assert pohozaev_residual(z, PR3, 0.7) == 0.0


def test_gaussian_kinetic(gauss256):
    # A = c for u = sqrt(c/pi) exp(-|x|^2/2)
    assert kinetic(gauss256) == pytest.approx(1.0, abs=1e-4)


def test_gaussian_pnorms(gauss256):
    assert pnorm(gauss256, 3.0) == pytest.approx(2.0 / (3.0 * math.sqrt(math.pi)),
                                                 abs=1e-5)
    assert pnorm(gauss256, 4.0) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-5)


def test_pnorm_requires_supercritical_exponent(gauss128):
    with pytest.raises(ValueError):
        pnorm(gauss128, 2.0)


@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_pnorm_refuses_a_non_finite_exponent(gauss128, p):
    # inf once gave 0.0 and nan gave nan.
    with pytest.raises(ValueError, match="p must be finite"):
        pnorm(gauss128, p)


def test_views_refuse_a_table_of_another_grid():
    # The L = 20 table once read A = 4.0 for the unit Gaussian on L = 40.
    u = discretize(ProfileSpec.gaussian(sigma=1.0), make_grid(40.0, 128))
    other = kernel_table(make_grid(20.0, 128))
    with pytest.raises(GridMismatchError):
        kinetic(u, other)
    assert kinetic(u, kernel_table(make_grid(40.0, 128))) == pytest.approx(1.0, rel=1e-12)


def test_log_potential_closed_form(gauss256):
    # w(r) = log r + E1(r^2)/2 for the unit-mass Gaussian
    w = log_potential(gauss256)
    x = gauss256.grid.coords1d()
    i5 = int(np.argmin(np.abs(x - 5.0)))
    j0 = int(np.argmin(np.abs(x)))
    r = abs(x[i5])
    expected = math.log(r) + 0.5 * exp1(r * r)
    assert w.values[i5, j0] == pytest.approx(expected, abs=1e-3)
    assert w.values[i5, j0] == pytest.approx(math.log(5.0), abs=2e-3)


def test_log_potential_far_field(gauss256):
    w = log_potential(gauss256)
    rg = gauss256.grid.radius()
    L = gauss256.grid.extent
    ring = (rg >= 0.4 * L) & (rg <= 0.45 * L)
    dev = np.max(np.abs(w.values[ring] - mass(gauss256) * np.log(rg[ring])))
    assert dev < 1e-2


def test_gaussian_V_closed_form_and_quadrature_oracle(gauss256):
    V = Evaluation(gauss256).V
    assert V == pytest.approx(V_GAUSS_UNIT, rel=1e-12)
    # independent route: radial quadrature of the same integral
    oracle = radial_V_oracle(lambda r: np.exp(-r * r) / np.pi)
    assert abs(oracle - V_GAUSS_UNIT) < 1e-9
    assert V == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("n", [64, 128, 256])
@pytest.mark.parametrize("extent, sigma, c", [(16.0, 1.0, 1.0), (24.0, 1.5, 2.0)])
def test_gaussian_V_is_spectrally_accurate(n, extent, sigma, c):
    # u^2 is resolved to rounding from 64^2 up, so V is the closed form
    # c^2 (V_GAUSS_UNIT + log sigma) to rounding.
    u = discretize(ProfileSpec.gaussian(sigma=sigma, c=c), make_grid(extent, n))
    assert Evaluation(u).V == pytest.approx(c * c * (V_GAUSS_UNIT + math.log(sigma)),
                                       rel=1e-12)


def test_v_split_identity(grid128):
    for spec in (ProfileSpec.gaussian(sigma=1.0),
                 ProfileSpec.ring(r0=3.0, sigma=0.8),
                 ProfileSpec.random_smooth(seed=4),
                 ProfileSpec.gaussian(sigma=0.5, center=(2.0, -3.0))):
        u = discretize(spec, grid128)
        ev = Evaluation(u)
        V, V1, V2 = ev.V, ev.V1, ev.V2
        assert V1 >= 0.0 and V2 >= 0.0
        assert abs(V - (V1 - V2)) < 1e-15 * (1.0 + abs(V1) + abs(V2))


def test_energy_breakdown_invariants(gauss256):
    bd = energy(gauss256, PR3)
    assert bd.F == 0.5 * bd.A + 0.25 * PR3.gamma * bd.V - (PR3.a / PR3.p) * bd.C
    assert abs(bd.V - (bd.V1 - bd.V2)) < 1e-6 * (1.0 + bd.V1 + bd.V2)
    assert bd.V1 >= 0.0 and bd.V2 >= 0.0
    assert bd.star_norm > 0.0
    assert bd.F == pytest.approx(0.389116, abs=1e-3)


def test_energy_choquard_and_free_cases(gauss256):
    bd0 = energy(gauss256, Params(gamma=1.0, a=0.0, p=3.0, c=1.0))
    assert bd0.F == pytest.approx(0.5 * bd0.A + 0.25 * bd0.V, abs=0)
    bd00 = energy(gauss256, Params(gamma=0.0, a=0.0, p=3.0, c=1.0))
    assert bd00.F == pytest.approx(0.5 * bd00.A, abs=0)


def test_translation_invariance(grid128):
    u = discretize(ProfileSpec.gaussian(sigma=1.0), grid128)
    v = shift(u, (11, -7))
    b0, b1 = energy(u, PR3), energy(v, PR3)
    for name in ("A", "C", "V", "V1", "V2", "F"):
        assert getattr(b0, name) == pytest.approx(getattr(b1, name), abs=1e-12)


def _d4_images(values):
    """The 8 images of a node array under the symmetries of the square:
    j -> -j mod n along either axis, then the transpose or not."""
    def reflect(v, axis):
        return np.roll(np.flip(v, axis), 1, axis)

    flips = [values, reflect(values, 0), reflect(values, 1),
             reflect(reflect(values, 0), 1)]
    return flips + [v.T for v in flips]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([16, 32, 64]), seed=st.integers(0, 2 ** 32 - 1),
       smooth=st.booleans(),
       params=st.sampled_from([Params(gamma=1.0, a=1.0, p=3.0, c=1.0),
                               Params(gamma=-0.5, a=2.0, p=4.5, c=1.0)]))
def test_d4_images_keep_the_functionals(n, seed, smooth, params):
    # A field that vanishes on the border row and column (x or y = -L/2,
    # which the reflection j -> -j mod n fixes) has every symmetry image
    # evaluated alike: A, C, V and F to 1e-13 relative, and the gradient
    # of an image is the image of the gradient.  V and F are sums of terms
    # of either sign, so each is relative to the size of its terms: V to
    # |V| + m^2 (V moves by m^2 log t along a dilation), and F to the sum
    # of its terms' sizes.
    grid = make_grid(10.0, n)
    values = (discretize(ProfileSpec.random_smooth(seed=seed % 1000, cutoff=n // 4), grid)
              .values.copy() if smooth
              else np.random.default_rng(seed).standard_normal((n, n)))
    values[0, :] = values[:, 0] = 0.0
    ev = Evaluation(Field(grid, values))
    A, C, V = ev.A, ev.C(params.p), ev.V
    V_scale = abs(V) + mass(ev.u) ** 2
    F_scale = 0.5 * A + 0.25 * abs(params.gamma) * V_scale + abs(params.a) / params.p * C
    grad = ev.grad(params)
    for image, grad_image in zip(_d4_images(values), _d4_images(grad)):
        ev_i = Evaluation(Field(grid, image))
        assert abs(ev_i.A - A) <= 1e-13 * A
        assert abs(ev_i.C(params.p) - C) <= 1e-13 * C
        assert abs(ev_i.V - V) <= 1e-13 * V_scale
        assert abs(ev_i.F(params) - ev.F(params)) <= 1e-13 * F_scale
        assert np.max(np.abs(ev_i.grad(params) - grad_image)) <= 1e-13 * np.max(np.abs(grad))


def test_gradient_matches_finite_differences(grid128):
    table = kernel_table(grid128)
    pr = Params(gamma=1.0, a=1.0, p=3.0, c=1.0)
    h2 = grid128.h ** 2
    eps = 1e-4
    for seed in range(10):
        u = discretize(ProfileSpec.random_smooth(seed=seed), grid128)
        phi_dir = discretize(ProfileSpec.random_smooth(seed=seed + 50), grid128)
        lhs = h2 * float(np.sum(grad_energy(u, pr, table).values * phi_dir.values))
        fp = energy(Field(grid128, u.values + eps * phi_dir.values), pr, table).F
        fm = energy(Field(grid128, u.values - eps * phi_dir.values), pr, table).F
        fd = (fp - fm) / (2.0 * eps)
        assert fd == pytest.approx(lhs, rel=1e-5)


def test_pohozaev_Q_gaussian_value(gauss256):
    assert Evaluation(gauss256).Q(PR3) == pytest.approx(0.624625, abs=1e-3)


def test_pohozaev_Q_uses_prescribed_mass(gauss256):
    # Q depends on params.c, not the field's own mass
    pr_big = Params(gamma=1.0, a=1.0, p=3.0, c=2.0)
    q1 = Evaluation(gauss256).Q(PR3)
    q2 = Evaluation(gauss256).Q(pr_big)
    assert q1 - q2 == pytest.approx(0.25 * (4.0 - 1.0), rel=1e-12)


def test_pohozaev_Q_zero_couplings(gauss256):
    pr = Params(gamma=0.0, a=0.0, p=3.0, c=1.0)
    assert Evaluation(gauss256).Q(pr) == pytest.approx(kinetic(gauss256), rel=1e-12)
    assert Evaluation(gauss256).Q(pr) >= 0.0


def test_lagrange_multiplier_gaussian(gauss256):
    assert lagrange_multiplier(gauss256, PR3) == pytest.approx(-0.681839, abs=1e-3)
    pr = Params(gamma=0.0, a=0.0, p=3.0, c=1.0)
    assert lagrange_multiplier(gauss256, pr) == pytest.approx(-kinetic(gauss256),
                                                              rel=1e-12)


def _grad_one_expression(ev, params, s):
    """The gradient of Evaluation.grad as one numpy expression, read from
    the evaluation's own w and -Delta u: the reference its in-place sum
    must match bit for bit."""
    vals, p = ev.u.values, params.p
    nonlin = np.abs(vals)
    nonlin **= p - 2.0
    nonlin *= vals
    return (s * s * ev.neg_lap
            + params.gamma * (ev.w - mass(ev.u) * math.log(s)) * vals
            - params.a * s ** (p - 2.0) * nonlin)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("kind", ["gaussian", "noise"])
@pytest.mark.parametrize("gamma, a, p", [(1.0, 0.0, 3.0), (1.0, 1.0, 6.0),
                                         (-1.0, 1.0, 3.0)])
def test_gradient_is_its_one_expression_form_bit_for_bit(n, kind, gamma, a, p):
    grid = make_grid(40.0, n)
    if kind == "gaussian":
        u = discretize(ProfileSpec.gaussian(sigma=1.0), grid)
    else:
        u = Field(grid, np.random.default_rng(n).standard_normal((n, n)))
    params = Params(gamma=gamma, a=a, p=p, c=1.0)
    ref = Evaluation(u)
    ev = Evaluation(u)
    for s in (1.0, 0.7, 1.3):
        assert np.array_equal(ev.grad(params, s), _grad_one_expression(ref, params, s)), s
    # The in-place sums leave the kept w, -Delta u and gradient as they
    # were: el_residual, read after them, is the one of a fresh evaluation.
    assert np.array_equal(ev.w, ref.w)
    assert np.array_equal(ev.neg_lap, ref.neg_lap)
    lam = ev.lam(params)
    assert ev.el_residual(params, lam) == Evaluation(u).el_residual(params, lam)


def test_lagrange_multiplier_zero_field(grid128):
    with pytest.raises(ValueError):
        lagrange_multiplier(Field(grid128, np.zeros((128, 128))), PR3)


def test_pohozaev_residual_matches_Q_at_constraint_mass(gauss256):
    # with the variational multiplier and mass = c, the stationarity defect
    # reduces to |Q| up to its normalization
    lam = lagrange_multiplier(gauss256, PR3)
    res = pohozaev_residual(gauss256, PR3, lam)
    q = Evaluation(gauss256).Q(PR3)
    V = Evaluation(gauss256).V
    den = 1.0 + abs(lam) * mass(gauss256) + abs(PR3.gamma) * abs(V)
    assert res == pytest.approx(abs(q) / den, rel=1e-6)
    assert res > 1e-2  # a non-solution Gaussian is far from stationarity


def test_el_residual_nonsolution(gauss256):
    lam = lagrange_multiplier(gauss256, PR3)
    assert el_residual(gauss256, PR3, lam) > 1e-2


def _quad_cell_average(f, h):
    """Average of f(|z|) over one grid cell by nested adaptive quadrature
    over a polar octant."""

    def inner(theta):
        return quad(lambda r: f(r) * r, 0.0, 0.5 * h / np.cos(theta),
                    epsabs=1e-13, epsrel=1e-12, limit=200)[0]

    outer = quad(inner, 0.0, np.pi / 4.0, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
    return 8.0 * outer / (h * h)


def test_kernel_origin_closed_form():
    # The origin weight of the sampled log(1+r) kernel is its cell average.
    for h in (0.15625, 0.078125, 0.3):
        assert _log1p_origin_average(h) == pytest.approx(
            _quad_cell_average(np.log1p, h), abs=1e-14)


def test_v2_one_sided_bound(grid128):
    # V2(u) <= K sqrt(A) c^{3/2} with the proven K.  Wide Gaussians, whose
    # ratio tends to sqrt(pi/2) = 1.2533, need wide grids: sigma = 6 reads
    # 1.048 and sigma = 20 reads 1.164.
    from planarsp.constants import kv2_estimate

    K = kv2_estimate()
    cases = [(grid128, spec) for spec in (
        ProfileSpec.gaussian(sigma=0.6), ProfileSpec.gaussian(sigma=2.5),
        ProfileSpec.ring(r0=2.0, sigma=0.8), ProfileSpec.random_smooth(seed=21))]
    cases += [(make_grid(80.0, 256), ProfileSpec.gaussian(sigma=6.0)),
              (make_grid(240.0, 256), ProfileSpec.gaussian(sigma=20.0))]
    for grid, spec in cases:
        u = discretize(spec, grid)
        ev = Evaluation(u)
        assert ev.V2 <= K * math.sqrt(ev.A) * spec.c ** 1.5 + 1e-12


def test_gn_one_sided_bound(grid128):
    from planarsp.constants import kgn_estimate

    table = kernel_table(grid128)
    for p in (2.5, 3.0, 4.0):
        kgn = kgn_estimate(p)
        for spec in (ProfileSpec.gaussian(sigma=0.7),
                     ProfileSpec.ring(r0=3.0, sigma=1.0),
                     ProfileSpec.random_smooth(seed=13)):
            u = discretize(spec, grid128)
            A = kinetic(u, table)
            assert pnorm(u, p) <= kgn * A ** (0.5 * p - 1.0) * mass(u) * (1 + 1e-4)


def test_star_norm_gaussian(gauss256):
    # integral log(1+r) u^2 for the unit Gaussian, radial quadrature oracle
    oracle, _ = quad(lambda r: 2.0 * r * np.exp(-r * r) * np.log1p(r), 0.0, 20.0)
    star_norm = Evaluation(gauss256).star_norm
    assert star_norm == pytest.approx(oracle, rel=2e-3)
    # It is the grid sum, h^2 times the products log1p(r) u u in that
    # order, bit for bit.
    u, h = gauss256.values, gauss256.grid.h
    assert star_norm == float(h * h * np.sum(np.log1p(gauss256.grid.radius()) * u * u))


def test_evaluation_reads_the_mass_once(grid128):
    # Evaluation.mass is grid.mass(u) bit for bit, and the multiplier
    # computes it once and keeps it.
    u = discretize(ProfileSpec.random_smooth(seed=4, c=1.7), grid128)
    ev = Evaluation(u)
    ev.lam(PR3)
    assert vars(ev)["mass"] == mass(u)
    assert ev.mass == mass(u)


def _periodic_kinetic(u):
    """A as the direct grid sum against the Laplacian of u treated as
    periodic on the n x n grid."""
    h = u.grid.h
    k = 2.0 * np.pi * np.fft.fftfreq(u.grid.n, d=h)
    neg_lap = np.fft.ifft2(np.fft.fft2(u.values) * (k[:, None] ** 2 + k[None, :] ** 2))
    return h * h * np.sum(u.values * neg_lap.real)


@pytest.mark.parametrize("which", ["gauss256", "random_smooth128", "noise128"])
def test_evaluation_matches_padded_reference(which, gauss256, grid128):
    # A is periodic on the n x n grid; the log interactions are free-space
    # convolutions on the padded domain.
    if which == "gauss256":
        u = gauss256
    elif which == "random_smooth128":
        u = discretize(ProfileSpec.random_smooth(seed=4), grid128)
    else:
        # White noise weighs every column of the half spectrum, the Nyquist
        # column included.
        u = Field(grid128, np.random.default_rng(0).standard_normal((128, 128)))
    table = kernel_table(u.grid)
    ev = Evaluation(u)
    want_A = _periodic_kinetic(u)
    assert abs(ev.A - want_A) <= 1e-13 * abs(want_A)
    for got, want in zip((ev.V, ev.V1, ev.V2), padded_reference(u, table)[1:]):
        assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("n", [16, 128, 256, 512])
@pytest.mark.parametrize("kind", ["gaussian", "noise"])
def test_pruned_forward_is_bit_identical(n, kind):
    if kind == "gaussian":
        u = discretize(ProfileSpec.gaussian(sigma=1.0), make_grid(40.0, n))
        values = u.values
    else:
        values = np.random.default_rng(n).standard_normal((n, n))
    kept = values.copy()
    assert np.array_equal(functionals._forward(values),
                          sfft.rfft2(values, s=(2 * n, 2 * n)))
    assert np.array_equal(values, kept)


def _padded_block(values, multiplier):
    """The n x n block of the full 2n x 2n inverse of multiplier times the
    padded transform of values, by scipy.fft.irfft2."""
    n = values.shape[0]
    spec = sfft.rfft2(values, s=(2 * n, 2 * n)) * multiplier
    return sfft.irfft2(spec, s=(2 * n, 2 * n))[:n, :n]


# n = 16 and 32 are below one _ROW_BLOCK, 512 is eight blocks.
@pytest.mark.parametrize("n", [16, 32, 128, 256, 512])
@pytest.mark.parametrize("kind", ["gaussian", "noise"])
def test_pruned_inverse_is_bit_identical(n, kind):
    grid = make_grid(40.0, n)
    if kind == "gaussian":
        u = discretize(ProfileSpec.gaussian(sigma=1.0), grid)
    else:
        # White noise fills every column of the half spectrum, the Nyquist
        # column included.
        u = Field(grid, np.random.default_rng(n).standard_normal((n, n)))
    table = kernel_table(grid)
    kept = {name: array.copy() for name, array in vars(table).items()
            if isinstance(array, np.ndarray)}
    assert {"k2", "khat_log"} <= kept.keys()
    ev = Evaluation(u)
    before = (ev.V, ev.V1, ev.V2)
    spec_u = ev.spec_u.copy()
    direction = u.values[::-1].copy()

    u2 = u.values * u.values
    h2 = grid.h * grid.h
    assert np.array_equal(ev.w, h2 * _padded_block(u2, padded_kernel(table.khat_log)))
    # w owns its n x n block: it pins no n x 2n row buffer.
    assert ev.w.shape == (n, n) and ev.w.flags.c_contiguous
    assert ev.w.base is None or ev.w.base.shape != (n, 2 * n)
    # w consumes spec_sq, after V and V1 are read from it.
    assert "spec_sq" not in vars(ev)
    assert (ev.V, ev.V1, ev.V2) == before
    # -Delta u and the Sobolev smoother run on the periodic n x n grid.
    assert np.array_equal(ev.neg_lap,
                          sfft.irfft2(sfft.rfft2(u.values) * table.k2, s=(n, n)))
    # The reciprocal of the symbol multiplies as the division by it does.
    sobolev = 1.0 + functionals._SOBOLEV_BETA * table.k2
    spec = sfft.rfft2(direction) / sobolev
    assert np.array_equal(smooth_direction(direction, table),
                          sfft.irfft2(spec, s=(n, n)))

    # The inverses consume their input: no kept spectrum may have been passed.
    assert np.array_equal(ev.spec_u, spec_u)
    for name, array in kept.items():
        assert np.array_equal(getattr(table, name), array), name
    ev_after = Evaluation(u)
    ev_after.w  # read before V, V1 and V2
    assert (ev_after.V, ev_after.V1, ev_after.V2) == before


def test_finalize_reuses_one_evaluation(gauss128, fft_counts):
    table = kernel_table(gauss128.grid)
    regime = K.regime_classify(PR3, K.sharp_constants(PR3.p))
    fft_counts.update(dict.fromkeys(fft_counts, 0))
    ev = Evaluation(gauss128)
    ev.F(PR3)  # an Armijo trial point: A and V by Parseval
    # One n x n forward of u and one pruned padded forward of u^2 (an rfftn
    # per block of 64 rows and one fftn), and no inverse transform.
    forwards = {"rfft2": 1, "irfft2": 0, "rfftn": 2, "fftn": 1, "ifftn": 0, "irfftn": 0}
    assert fft_counts == forwards
    report = solvers._finalize(ev, PR3, regime, "test", 0, False, [])
    # The gradient adds -Delta u (one n x n inverse) and w (one pruned
    # padded inverse, an ifftn and an irfftn per block of 64 rows).
    assert fft_counts == dict(forwards, irfft2=1, ifftn=1, irfftn=2)
    assert report.el_res == el_residual(gauss128, PR3, report.lam, table)


# ---------------------------------------------------------------------------
# Prolongation onto a finer grid, as the grid ladder reads it (grid.resample)
# ---------------------------------------------------------------------------


def _random_smooth(grid):
    return discretize(ProfileSpec.random_smooth(seed=3, cutoff=8), grid)


def _white_noise(grid):
    return Field(grid, np.random.default_rng(5).standard_normal((grid.n, grid.n)))


@pytest.mark.parametrize("make, L", [
    pytest.param(make, L, id=make.__name__[1:] + ("" if L == 40.0 else f"-L{L}"))
    for L in (40.0, 40.1, 37.7) for make in (_random_smooth, _white_noise)])
def test_prolong_then_inject_is_the_identity(make, L):
    # Every coarse node is a fine node, where the trigonometric interpolant
    # reads the coarse sample itself: any field, white noise included, comes
    # back bit for bit, also at the extents 40.1 and 37.7, where a fine
    # node's index on the coarse grid does not come out whole.
    u = make(make_grid(L, 128))
    assert np.array_equal(resample(u, make_grid(L, 256)).values[::2, ::2], u.values)


def test_prolong_keeps_the_mass(grid128, grid256):
    u = _random_smooth(grid128)
    assert mass(resample(u, grid256)) == pytest.approx(mass(u), rel=1e-13)


@pytest.mark.parametrize("factor", [2, 4])
def test_prolonged_gaussian_matches_the_fine_discretization(factor, grid128):
    spec = ProfileSpec.gaussian(sigma=1.5)
    fine = make_grid(grid128.extent, factor * grid128.n)
    got = resample(discretize(spec, grid128), fine)
    assert np.max(np.abs(got.values - discretize(spec, fine).values)) <= 1e-12


# ---------------------------------------------------------------------------
# The truncated log kernel and its Bessel functions
# ---------------------------------------------------------------------------


def test_bessel_matches_scipy_special():
    # From 1e-3 to 2 pi n at n = 512, the largest |k| R of a 512^2 table: a
    # few units of 1e-16, plus the error that one ulp of the argument makes
    # in scipy's own phase, sqrt(2/(pi x)) ulp(x).
    eps = np.finfo(float).eps
    x = np.concatenate([np.linspace(1e-3, 30.0, 30001),
                        np.linspace(1e-3, 2.0 * np.pi * 512, 200001)])
    j0, j1 = _bessel_j01(x)
    tol = 4.0 * (eps + np.sqrt(2.0 / (np.pi * np.maximum(x, 1.0))) * np.spacing(x))
    assert np.all(np.abs(j0 - scipy.special.j0(x)) <= tol)
    assert np.all(np.abs(j1 - scipy.special.j1(x)) <= tol)


@pytest.mark.parametrize("lo,terms", functionals._HANKEL_BANDS)
def test_hankel_series_sum_is_the_horner_loop(lo, terms):
    # polyval sums P and Q of each Hankel band as the plain Horner loop does,
    # s y + c from the top coefficient down, so J0 and J1 are the loop's bit
    # for bit.
    y = 1.0 / np.linspace(lo, 8.0 * lo, 100001) ** 2
    for nu in (0, 1):
        for coeffs in functionals._hankel_coefficients(nu, terms):
            s = np.full_like(y, coeffs[-1])
            for c in coeffs[-2::-1]:
                s = s * y + c
            assert np.array_equal(polyval(y, coeffs), s)


def test_bessel_values_need_no_scipy():
    x = "np.linspace(1e-3, 2.0 * np.pi * 256, 20001)"
    code = ("import sys, hashlib\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from planarsp.functionals import _bessel_j01\n"
            f"j0, j1 = _bessel_j01({x})\n"
            "print(hashlib.sha256(j0.tobytes() + j1.tobytes()).hexdigest())\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    j0, j1 = _bessel_j01(eval(x))
    assert proc.stdout.strip() == hashlib.sha256(j0.tobytes() + j1.tobytes()).hexdigest()


@pytest.mark.parametrize("n", [16, 32, 64])
def test_log_kernel_matches_the_full_period_transform(n):
    # The reference samples the cut-off kernel's transform on the whole
    # (3n)^2 frequency grid, with scipy's Bessel functions, and inverts it
    # by a full FFT; the table's khat_log is the quadrant of the rfft2 of
    # the even 2n x 2n kernel array.
    grid = make_grid(16.0, n)
    L, R = grid.extent, math.sqrt(2.0) * grid.extent
    P = 3.0 * L
    freq = 2.0 * np.pi / P * np.fft.fftfreq(3 * n, d=1.0 / (3 * n))
    kR = np.hypot(freq[:, None], freq[None, :]) * R
    with np.errstate(divide="ignore", invalid="ignore"):
        g = 2.0 * np.pi * R * R * (math.log(R) * scipy.special.j1(kR) / kR
                                   - (1.0 - scipy.special.j0(kR)) / kR ** 2)
    g[0, 0] = np.pi * R * R * (math.log(R) - 0.5)
    full = np.fft.ifft2(g).real * (3 * n) ** 2 / P ** 2
    window = functionals._log_window(n, grid.h)
    assert np.max(np.abs(window - full[: n + 1, : n + 1])) < 1e-13

    fold = np.r_[np.arange(n + 1), np.arange(n - 1, 0, -1)]
    spec = np.fft.rfft2(window[np.ix_(fold, fold)])
    khat = padded_kernel(kernel_table(grid).khat_log)
    assert np.max(np.abs(khat - spec.real)) < 1e-12 * np.max(np.abs(khat))
    assert np.max(np.abs(spec.imag)) < 1e-12 * np.max(np.abs(khat))


def test_table_cache_is_least_recently_used():
    # A ladder over the benchmark's three extents keeps 3 x 3 tables, which
    # must all stay.
    size = functionals._TABLE_CACHE_SIZE
    assert size >= 9
    kernel_table.cache_clear()
    grids = [make_grid(10.0 + i, 16) for i in range(size + 1)]
    tables = [kernel_table(g) for g in grids[:size]]
    assert kernel_table(grids[0]) is tables[0]      # a hit refreshes it
    last = kernel_table(grids[size])                # one past the bound
    assert kernel_table.cache_info().currsize == size
    # Least recently used first, the cache holds grids 2..size-1, 0 and
    # size: reading them in that order hits every one and keeps the order,
    # so grids[1] is out.
    misses = kernel_table.cache_info().misses
    kept = [kernel_table(g) for g in grids[2:size] + [grids[0], grids[size]]]
    assert all(a is b for a, b in zip(kept, tables[2:] + [tables[0], last]))
    assert kernel_table.cache_info().misses == misses
    # The next miss evicts the least recently used, grids[2], alone.
    assert kernel_table(grids[1]) is not tables[1]
    assert kernel_table(grids[2]) is not tables[2]
    assert kernel_table(grids[0]) is tables[0]
    kernel_table.cache_clear()


def test_cached_table_arrays_are_read_only(grid128):
    # A write into a cached array would change every later evaluation on
    # its grid.
    table = kernel_table(grid128)
    arrays = {name: array for name, array in vars(table).items()
              if isinstance(array, np.ndarray)}
    assert arrays.keys() == {"k2", "khat_log", "khat_v1"}
    for name, array in arrays.items():
        with pytest.raises(ValueError):
            array[...] *= 2.0
        with pytest.raises(ValueError):
            array[0, 0] = 0.0


def _traced(fn):
    """(kept, peak) bytes that tracemalloc traces while fn runs, and the
    result of fn."""
    import tracemalloc

    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return kept - base, peak - base, result


def test_table_and_certification_memory(gauss256, grid256):
    # The two kernel transforms are kept as (n+1)^2 quadrants, and neither
    # the Sobolev smoother nor the log(1+|x|) weight is kept: 1.26 MiB for
    # the whole 256^2 table (1.76 MiB with the weight, 2.01 MiB with the
    # smoother too).  A warm-up build imports and plans first.
    functionals.KernelTable.build(grid256)
    kept, _, table = _traced(lambda: functionals.KernelTable.build(grid256))
    assert sum(a.nbytes for a in vars(table).values() if isinstance(a, np.ndarray)) \
        <= 1.3 * 2 ** 20
    assert kept <= 1.3 * 2 ** 20

    # One certification peaks at 3.64 MiB, since the gradient reads w
    # before it builds its other terms and the padded transforms take their
    # rows in blocks (4.08 MiB with whole-size row temporaries, 5.58 MiB
    # with the other terms alive while w is formed); the bound leaves 8.4%
    # above it.
    def certify():
        ev = Evaluation(gauss256)
        ev.F(PR3)
        ev.grad(PR3)
        ev.breakdown(PR3)
        ev.el_residual(PR3, ev.lam(PR3))

    certify()
    _, peak, _ = _traced(certify)
    assert peak <= 3.95 * 2 ** 20

    # A gradient alone peaks at 3.14 MiB (3.57 MiB with whole-size row
    # temporaries in the padded transforms, 5.58 MiB with its other terms
    # built before w); the bound leaves 8.3% above it.
    def gradient():
        Evaluation(gauss256).grad(PR3)

    gradient()
    _, peak, _ = _traced(gradient)
    assert peak <= 3.4 * 2 ** 20


def test_spectral_tail_of_the_zero_field_is_refused(grid128):
    with pytest.raises(ValueError, match="spectral tail of the zero field is undefined"):
        Evaluation(Field(grid128, np.zeros((128, 128)))).spectral_tail


@pytest.mark.parametrize("which", ["gauss128", "random_smooth", "white_noise"])
def test_spectral_tail_is_the_norm_above_half_nyquist(which, gauss128, grid128):
    if which == "gauss128":
        u = gauss128
    elif which == "random_smooth":
        u = _random_smooth(grid128)
    else:
        u = Field(grid128, np.random.default_rng(3).standard_normal((128, 128)))
    n = u.grid.n
    q = np.fft.fftfreq(n, d=1.0 / n)
    power = np.abs(np.fft.fft2(u.values)) ** 2
    above = q[:, None] ** 2 + q[None, :] ** 2 > (n / 4) ** 2
    want = math.sqrt(np.sum(power[above]) / np.sum(power))
    assert Evaluation(u).spectral_tail == pytest.approx(want, rel=1e-12, abs=1e-15)
