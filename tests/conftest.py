import numpy as np
import pytest

from planarsp import ProfileSpec, discretize, make_grid

EULER = 0.5772156649015329
V_GAUSS_UNIT = 0.5 * (np.log(2.0) - EULER)  # V of the unit-mass Gaussian


def padded_kernel(quadrant):
    """The padded 2n x (n+1) rfft2 half of an even kernel that a KernelTable
    stores as its (n+1) x (n+1) quadrant: rows 0..n, then rows n-1..1."""
    n = quadrant.shape[0] - 1
    return quadrant[np.r_[np.arange(n + 1), np.arange(n - 1, 0, -1)]]


def padded_reference(u, table):
    """A, V, V1 and V2 as direct grid sums against the Laplacian and the
    convolutions on the zero-padded 2n x 2n domain, each by its own pair of
    transforms; V2 with the kernel log(1+|z|) - log|z|."""
    n, h = u.grid.n, u.grid.h

    def through(values, multiplier):
        padded = np.zeros((2 * n, 2 * n))
        padded[:n, :n] = values
        spec = np.fft.rfft2(padded) * multiplier
        return np.fft.irfft2(spec, s=(2 * n, 2 * n))[:n, :n]

    k = 2.0 * np.pi * np.fft.fftfreq(2 * n, d=h)
    k2 = k[:, None] ** 2 + k[None, : n + 1] ** 2
    u2 = u.values * u.values
    A = h * h * np.sum(u.values * through(u.values, k2))
    khat_log, khat_v1 = padded_kernel(table.khat_log), padded_kernel(table.khat_v1)
    V = [h ** 4 * np.sum(u2 * through(u2, khat))
         for khat in (khat_log, khat_v1, khat_v1 - khat_log)]
    return [A] + V


@pytest.fixture(scope="session")
def grid128():
    return make_grid(40.0, 128)


@pytest.fixture(scope="session")
def grid256():
    return make_grid(40.0, 256)


@pytest.fixture(scope="session")
def gauss256(grid256):
    return discretize(ProfileSpec.gaussian(sigma=1.0), grid256)


@pytest.fixture(scope="session")
def gauss128(grid128):
    return discretize(ProfileSpec.gaussian(sigma=1.0), grid128)


@pytest.fixture
def fft_counts(monkeypatch):
    """Calls of the scipy.fft functions that the n x n and the padded
    transforms use, counted from here on."""
    import scipy.fft

    counts = dict.fromkeys(("rfft2", "irfft2", "rfftn", "fftn", "ifftn", "irfftn"), 0)
    for name in counts:
        real = getattr(scipy.fft, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)
    return counts
