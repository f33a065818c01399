"""Normalized solutions of the planar Schrodinger-Poisson equation.

The package computes, classifies and certifies prescribed-L2-norm
solutions of

    -Delta u + gamma (log|.| * u^2) u = a |u|^(p-2) u,   integral u^2 = c,

on a truncated plane: energy functionals with the free-space logarithmic
convolution, the dilation fiber algebra and Pohozaev constraint, sharp
Gagliardo-Nirenberg constants and the closed-form existence thresholds,
and constrained gradient flows for each parameter regime.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.  A name is imported
# on first access (PEP 562), so a command loads only the modules it uses:
# classify needs the standard library alone, while the grid, functionals,
# fiber and solvers modules import numpy.
_SUBMODULE = {name: module for module, names in (
    ("constants", ("RegimeLabel", "SharpConstants", "c0", "gn_profile_field",
                   "k0", "k1", "k2", "kgn_estimate", "kv2_estimate",
                   "regime_classify", "sharp_constants")),
    ("errors", ("CapBoundaryError", "ConfigError", "ConvergenceError",
                "DomainError", "GridMismatchError", "GuardFloorError",
                "MassMismatchError", "PlanarSPError", "RegimeError",
                "ResolutionError", "ShootingError", "ThresholdError")),
    ("fiber", ("BranchPoint", "FiberScalars", "critical_points", "ddg", "dg",
               "dilate", "g", "phi", "project_to_lambda", "scalars", "t_star")),
    ("functionals", ("EnergyBreakdown", "el_residual", "energy", "grad_energy",
                     "kinetic", "lagrange_multiplier", "log_potential", "pnorm",
                     "pohozaev_residual")),
    ("grid", ("Field", "Grid", "ProfileSpec", "boundary_mass_fraction",
              "discretize", "make_grid", "mass", "normalize", "read_field",
              "shift", "write_field")),
    ("params", ("Params",)),
    ("solvers", ("SolveReport", "SolverConfig", "global_minimize",
                 "lambda_branch_minimize", "local_minimize_capped",
                 "masscritical_probe", "two_bump_probe")),
) for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
