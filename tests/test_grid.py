import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad

from planarsp import (DomainError, Field, GridMismatchError, ProfileSpec,
                      boundary_mass_fraction, discretize, make_grid, mass,
                      normalize, read_field, shift, write_field)


def test_make_grid_spacing():
    assert make_grid(40.0, 256).h == pytest.approx(0.15625, abs=0)
    assert make_grid(1.0, 16).h == pytest.approx(0.0625, abs=0)
    assert make_grid(40.0, 256.0) == make_grid(40.0, 256)


@pytest.mark.parametrize("L,n", [(40.0, 255), (40.0, 100), (-1.0, 256),
                                 (0.0, 64), (40.0, 8), (float("nan"), 256),
                                 (float("inf"), 256), (40.0, 256.5)])
def test_make_grid_rejects_bad_inputs(L, n):
    with pytest.raises(ValueError):
        make_grid(L, n)


def test_grid_coordinates():
    g = make_grid(40.0, 256)
    x = g.coords1d()
    assert x[0] == -20.0
    assert x[-1] == pytest.approx(20.0 - g.h)
    assert np.allclose(np.diff(x), g.h)


def test_field_requires_finite_values(grid128):
    vals = np.zeros((128, 128))
    vals[3, 4] = np.nan
    with pytest.raises(ValueError):
        Field(grid128, vals)


def test_field_values_immutable(gauss128):
    with pytest.raises(ValueError):
        gauss128.values[0, 0] = 1.0


def test_fields_combine_only_on_same_grid(gauss128):
    other = discretize(ProfileSpec.gaussian(sigma=1.0), make_grid(40.0, 256))
    with pytest.raises(GridMismatchError):
        gauss128 + other


def test_gaussian_mass_unit(gauss256):
    # u = sqrt(c/pi) exp(-|x|^2/2) has mass c exactly
    assert mass(gauss256) == pytest.approx(1.0, rel=1e-6)


def test_mass_zero_field(grid128):
    assert mass(Field(grid128, np.zeros((128, 128)))) == 0.0


def test_mass_quadratic_homogeneity(grid128):
    rng = np.random.default_rng(11)
    u = discretize(ProfileSpec.random_smooth(seed=2), grid128)
    for _ in range(5):
        alpha = float(rng.uniform(0.05, 7.0))
        assert mass(alpha * u) == pytest.approx(alpha ** 2 * mass(u), rel=1e-12)


def test_normalize_sets_mass(gauss128):
    v = normalize(gauss128, 3.5)
    assert mass(v) == pytest.approx(3.5, rel=1e-12)


def test_normalize_identity_when_mass_matches(gauss128):
    v = normalize(gauss128, mass(gauss128))
    assert v is gauss128


def test_normalize_scaling(gauss128):
    w = normalize(2.0 * gauss128, mass(gauss128))
    assert np.allclose(w.values, gauss128.values, rtol=1e-14, atol=0)


def test_normalize_idempotent_bitwise(gauss128):
    v = normalize(gauss128, 3.5)
    w = normalize(v, 3.5)
    assert np.array_equal(v.values, w.values)


def test_normalize_zero_field_errors(grid128):
    with pytest.raises(ValueError):
        normalize(Field(grid128, np.zeros((128, 128))), 1.0)


def test_boundary_fraction_gaussian_tail(grid128):
    # Independent oracle: the Gaussian tail integral beyond the frame.
    u = discretize(ProfileSpec.gaussian(sigma=1.0), grid128)
    frac = boundary_mass_fraction(u)
    # frame starts at 0.4 L = 16; tail mass of u^2 = exp(-r^2)/pi beyond
    # r = 16 is exp(-256), utterly negligible
    tail, _ = quad(lambda r: 2.0 * r * np.exp(-r * r), 16.0, np.inf)
    assert frac < 1e-10
    assert frac <= tail + 1e-30 or frac < 1e-50


def test_boundary_fraction_constant_field(grid128):
    u = Field(grid128, np.ones((128, 128)))
    assert boundary_mass_fraction(u) == pytest.approx(0.36, abs=0.02)


def test_boundary_fraction_zero_field_errors(grid128):
    with pytest.raises(ValueError):
        boundary_mass_fraction(Field(grid128, np.zeros((128, 128))))


def test_discretize_renormalizes_to_target(grid128):
    for spec in (ProfileSpec.gaussian(sigma=1.0, c=2.5),
                 ProfileSpec.ring(r0=3.0, sigma=0.7, c=0.3),
                 ProfileSpec.random_smooth(seed=5, c=1.7)):
        u = discretize(spec, grid128)
        assert mass(u) == pytest.approx(spec.c, rel=1e-12)


def test_discretize_rejects_leaky_profile(grid128):
    with pytest.raises(DomainError):
        discretize(ProfileSpec.gaussian(sigma=30.0), grid128)


def test_two_bump_disjoint_supports():
    grid = make_grid(80.0, 256)
    spec = ProfileSpec.two_bump(separation=4.0, scale=2, c=1.0, radius=1.5)
    u = discretize(spec, grid)
    x = grid.coords1d()
    left = np.where(x[:, None] < 4.0, u.values, 0.0)
    right = np.where(x[:, None] >= 4.0, u.values, 0.0)
    # supports are numerically disjoint and the lobe masses add exactly
    assert np.all(left * right == 0.0)
    m_left = grid.h ** 2 * np.sum(left ** 2)
    m_right = grid.h ** 2 * np.sum(right ** 2)
    assert m_left + m_right == pytest.approx(mass(u), rel=1e-12)
    # each lobe carries half the mass up to the bump's quadrature error
    assert m_left == pytest.approx(0.5, rel=1e-4)
    assert m_right == pytest.approx(0.5, rel=1e-4)


def test_two_bump_overlap_rejected():
    grid = make_grid(80.0, 256)
    with pytest.raises(DomainError):
        discretize(ProfileSpec.two_bump(separation=1.0, scale=1, radius=1.5), grid)


def test_profile_spec_validation():
    with pytest.raises(ValueError):
        ProfileSpec.gaussian(sigma=-1.0)
    with pytest.raises(ValueError):
        ProfileSpec.gaussian(sigma=1.0, c=-2.0)
    with pytest.raises(ValueError):
        ProfileSpec.two_bump(separation=3.0, scale=0)
    with pytest.raises(ValueError):
        ProfileSpec(kind="blob")
    with pytest.raises(ValueError, match="cutoff"):
        ProfileSpec.random_smooth(seed=1, cutoff=0)


@pytest.mark.parametrize("make", [
    lambda: ProfileSpec.random_smooth(seed=1, cutoff=4.9),
    lambda: ProfileSpec.random_smooth(seed=1.5),
    lambda: ProfileSpec.random_smooth(seed=True),
    lambda: ProfileSpec.two_bump(separation=4.0, scale=2.5),
    lambda: ProfileSpec.two_bump(separation=4.0, scale=True),
    lambda: ProfileSpec(kind="gaussian", cutoff="4"),
], ids=["cutoff_4.9", "seed_1.5", "seed_True", "scale_2.5", "scale_True", "cutoff_str"])
def test_profile_integer_fields_refuse_other_values(make):
    # cutoff = 4.9 once sampled the field of cutoff = 4, scale = 2.5 and
    # True were accepted, and seed = 1.5 failed inside numpy.
    with pytest.raises(ValueError, match="must be an integer, got"):
        make()


def test_profile_integer_fields_take_numpy_integers(grid128):
    u = discretize(ProfileSpec.random_smooth(seed=np.int64(9), cutoff=np.int32(4)), grid128)
    assert np.array_equal(u.values, discretize(ProfileSpec.random_smooth(seed=9), grid128).values)


def test_random_smooth_deterministic(grid128):
    u = discretize(ProfileSpec.random_smooth(seed=9), grid128)
    v = discretize(ProfileSpec.random_smooth(seed=9), grid128)
    w = discretize(ProfileSpec.random_smooth(seed=10), grid128)
    assert np.array_equal(u.values, v.values)
    assert not np.array_equal(u.values, w.values)


def test_shift_rolls_values(gauss128):
    v = shift(gauss128, (5, -3))
    assert v.values[5 + 64, -3 + 64] == gauss128.values[64, 64]
    assert mass(v) == pytest.approx(mass(gauss128), rel=1e-14)


def test_field_io_roundtrip(tmp_path, grid128):
    u = discretize(ProfileSpec.random_smooth(seed=3), grid128)
    path = tmp_path / "u.lpf"
    write_field(u, path)
    v = read_field(path)
    assert v.grid == u.grid
    assert np.array_equal(u.values, v.values)


def test_field_io_layout(tmp_path):
    # Row index in the file is the second (y) coordinate.
    grid = make_grid(4.0, 16)
    x = grid.coords1d()
    vals = x[:, None] + 100.0 * x[None, :]  # u(x, y) = x + 100 y
    u = Field(grid, vals)
    path = tmp_path / "u.lpf"
    write_field(u, path)
    raw = np.fromfile(path, dtype="<f8", offset=20).reshape(16, 16)
    # raw[j, i] must equal u(x_i, y_j)
    assert raw[2, 5] == pytest.approx(x[5] + 100.0 * x[2], rel=1e-15)


def test_field_io_bad_magic(tmp_path):
    path = tmp_path / "bad.lpf"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_field(path)


@pytest.mark.parametrize("keep", [0, 6, 13, 19, -16],
                         ids=["empty", "header6", "header13", "header19", "payload"])
def test_field_io_truncated(tmp_path, gauss128, keep):
    # A cut inside the 20-byte header or inside the payload is refused with
    # the length of what is left.
    path = tmp_path / "u.lpf"
    write_field(gauss128, path)
    cut = path.read_bytes()[:keep]
    path.write_bytes(cut)
    with pytest.raises(ValueError, match=f"has {len(cut)} bytes"):
        read_field(path)


# ---------------------------------------------------------------------------
# LPF1 files on generated fields
# ---------------------------------------------------------------------------


@st.composite
def _lpf_fields(draw, sizes=(16, 32)):
    n = draw(st.sampled_from(sizes))
    extent = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    values = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(
        allow_nan=False, allow_infinity=False)))
    return Field(make_grid(extent, n), values)


@pytest.fixture(scope="module")
def lpf_path(tmp_path_factory):
    return tmp_path_factory.mktemp("lpf") / "u.lpf"


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(u=_lpf_fields())
def test_field_io_roundtrip_is_bitwise(lpf_path, u):
    write_field(u, lpf_path)
    v = read_field(lpf_path)
    assert v.grid == u.grid
    assert v.values.tobytes() == u.values.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(u=_lpf_fields(), data=st.data())
def test_field_io_refuses_every_truncation(lpf_path, u, data):
    write_field(u, lpf_path)
    raw = lpf_path.read_bytes()
    lpf_path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(ValueError):
        read_field(lpf_path)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(u=_lpf_fields(sizes=(16,)),
       magic=st.binary(min_size=4, max_size=4).filter(lambda b: b != b"LPF1"))
def test_field_io_refuses_a_corrupted_magic(lpf_path, u, magic):
    write_field(u, lpf_path)
    lpf_path.write_bytes(magic + lpf_path.read_bytes()[4:])
    with pytest.raises(ValueError, match="bad magic"):
        read_field(lpf_path)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(u=_lpf_fields(sizes=(16,)), at=st.integers(0, 19), mask=st.integers(1, 255))
def test_field_io_header_flip_is_refused_or_valid(lpf_path, u, at, mask):
    # A flipped byte of the 20-byte header (magic, n, L) gives a ValueError
    # or, in L alone, a valid field with the same values on another extent.
    write_field(u, lpf_path)
    raw = bytearray(lpf_path.read_bytes())
    raw[at] ^= mask
    lpf_path.write_bytes(bytes(raw))
    try:
        v = read_field(lpf_path)
    except ValueError:
        return
    assert at >= 12
    assert v.grid.n == u.grid.n and 0.0 < v.grid.extent < math.inf
    assert v.values.tobytes() == u.values.tobytes()
