import numpy as np
import pytest

from planarsp import ProfileSpec, discretize, make_grid

EULER = 0.5772156649015329
V_GAUSS_UNIT = 0.5 * (np.log(2.0) - EULER)  # V of the unit-mass Gaussian


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
    """Calls of the scipy.fft functions that the padded transforms use,
    counted from here on."""
    import scipy.fft

    counts = {"rfftn": 0, "fftn": 0, "ifftn": 0, "irfftn": 0}
    for name in counts:
        real = getattr(scipy.fft, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)
    return counts
