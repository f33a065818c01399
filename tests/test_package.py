import importlib
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import planarsp
from planarsp import Params

from conftest import TEST_SECONDS

# Every public name of the package and the submodule it comes from.
_EXPORTS = {
    "constants": ["RegimeLabel", "SharpConstants", "c0", "gn_profile_field",
                  "k0", "k1", "k2", "kgn_estimate", "kv2_estimate",
                  "regime_classify", "sharp_constants"],
    "errors": ["CapBoundaryError", "ConfigError", "ConvergenceError",
               "DomainError", "GridMismatchError", "GuardFloorError",
               "MassMismatchError", "PlanarSPError", "RegimeError",
               "ResolutionError", "ShootingError", "ThresholdError"],
    "fiber": ["BranchPoint", "FiberScalars", "critical_points", "ddg", "dg",
              "dilate", "g", "phi", "project_to_lambda", "scalars", "t_star"],
    "functionals": ["EnergyBreakdown", "Params", "el_residual", "energy",
                    "grad_energy", "kinetic", "lagrange_multiplier",
                    "log_potential", "pnorm", "pohozaev_residual"],
    "grid": ["Field", "Grid", "ProfileSpec", "boundary_mass_fraction",
             "discretize", "make_grid", "mass", "normalize", "read_field",
             "shift", "write_field"],
    "solvers": ["SolveReport", "SolverConfig", "global_minimize",
                "lambda_branch_minimize", "local_minimize_capped",
                "masscritical_probe", "two_bump_probe"],
}


def test_all_lists_every_export():
    expected = sorted(name for names in _EXPORTS.values() for name in names)
    assert sorted(planarsp.__all__) == expected
    assert set(expected) <= set(dir(planarsp))


@pytest.mark.parametrize("module", sorted(_EXPORTS))
def test_exports_are_the_submodule_objects(module):
    sub = importlib.import_module(f"planarsp.{module}")
    for name in _EXPORTS[module]:
        assert getattr(planarsp, name) is getattr(sub, name), name


def test_params_lives_in_its_own_module():
    from planarsp import functionals, params

    assert Params is params.Params is functionals.Params


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from planarsp import *", namespace)
    assert set(planarsp.__all__) <= set(namespace)
    assert namespace["Params"] is Params
    with pytest.raises(AttributeError, match="no_such_name"):
        planarsp.no_such_name
    with pytest.raises(ImportError):
        exec("from planarsp import no_such_name", {})


def test_import_loads_no_submodule_and_no_numpy():
    # Attribute access alone imports the defining submodule.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, planarsp\n"
            "print(sorted(m for m in sys.modules if m.startswith('planarsp')\n"
            "             or m.split('.')[0] in ('numpy', 'scipy')))\n"
            "planarsp.kinetic\n"
            "print('planarsp.functionals' in sys.modules,\n"
            "      'planarsp.solvers' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['planarsp']", "True False"]


_GOOD = {"gamma": -1.0, "a": 0.5, "p": 3.0, "c": 2.0}


@pytest.mark.parametrize("field", sorted(_GOOD))
def test_params_checks_numpy_scalars(field):
    # The finiteness check is math.isfinite, which takes numpy scalars too
    # (the non-finite Python floats are test_params_reject_non_finite's).
    pr = Params(**{k: np.float64(v) for k, v in _GOOD.items()})
    assert pr == Params(**_GOOD)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        Params(**dict(_GOOD, **{field: np.float64("nan")}))


def test_an_overrunning_test_fails_with_its_name(request):
    # The bound of conftest is armed for every test; a test that overruns
    # it fails with its name.  Here the timer is cut to 50 ms.
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= TEST_SECONDS
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    with pytest.raises(pytest.fail.Exception,
                       match=re.escape(f"{request.node.nodeid} ran past its")):
        time.sleep(5)
