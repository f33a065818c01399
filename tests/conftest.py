import math
import signal

import numpy as np
import pytest

from planarsp import FiberScalars, ProfileSpec, discretize, make_grid
from planarsp.fiber import _critical_point

# The wall-clock bound on each test's setup and call together.  The slowest
# test takes about 3 s; criterion 9 asserts its own 120 s.  A flow that
# stops converging fails its test by name instead of stalling the run.
TEST_SECONDS = 120

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


def gaussian_on_branch(params, branch):
    """The Gaussian whose fiber critical point of the requested branch sits
    at s = 1, up to discretization.  Dilating a Gaussian gives another one,
    so its width is 1/s for the branch point s of the mass-c unit Gaussian,
    whose scalars are closed-form: A = c, C = (c/pi)^(p/2) (2 pi/p)."""
    c, p = params.c, params.p
    C = (c / math.pi) ** (0.5 * p) * (2.0 * math.pi / p)
    s = _critical_point(FiberScalars(A=c, C=C, V=0.0, params=params), branch).s
    return ProfileSpec.gaussian(sigma=1.0 / s, c=c)


@pytest.fixture(scope="session", autouse=True)
def session_cache_home(tmp_path_factory):
    """XDG_CACHE_HOME, and with it the stored ground-state pairs, in a
    directory of the session's own while fixtures of a wider scope than
    one test are built."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture(autouse=True)
def cache_home(session_cache_home, tmp_path_factory, monkeypatch):
    """Each test, and each CLI process it starts, reads and writes the
    stored ground-state pairs under a cache directory of its own, empty at
    its start and apart from its tmp_path: never the user's, and never a
    pair that another test stored, so a ground state a test builds afresh
    runs the full search."""
    home = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


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


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    def overrun(signum, frame):
        pytest.fail(f"{item.nodeid} ran past its {TEST_SECONDS} s bound", pytrace=False)

    signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    signal.setitimer(signal.ITIMER_REAL, 0)
    yield
