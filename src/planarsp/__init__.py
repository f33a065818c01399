"""Normalized solutions of the planar Schrodinger-Poisson equation.

The package computes, classifies and certifies prescribed-L2-norm
solutions of

    -Delta u + gamma (log|.| * u^2) u = a |u|^(p-2) u,   integral u^2 = c,

on a truncated plane: energy functionals with the free-space logarithmic
convolution, the dilation fiber algebra and Pohozaev constraint, sharp
Gagliardo-Nirenberg constants and the closed-form existence thresholds,
and constrained gradient flows for each parameter regime.
"""

from .constants import (RegimeLabel, SharpConstants, c0, gn_profile_field, k0,
                        k1, k2, kgn_estimate, kv2_estimate, regime_classify,
                        sharp_constants)
from .errors import (CapBoundaryError, ConfigError, ConvergenceError, DomainError,
                     GridMismatchError, GuardFloorError, MassMismatchError,
                     PlanarSPError, RegimeError, ShootingError)
from .fiber import (BranchPoint, FiberScalars, critical_points, ddg, dg, dilate,
                    g, phi, project_to_lambda, scalars, t_star)
from .functionals import (EnergyBreakdown, Params, el_residual, energy,
                          grad_energy, kinetic, lagrange_multiplier,
                          log_potential, pnorm, pohozaev_Q, pohozaev_residual,
                          star_norm, v1, v2, v_total)
from .grid import (Field, Grid, ProfileSpec, boundary_mass_fraction, discretize,
                   make_grid, mass, normalize, read_field, shift, write_field)
from .solvers import (SolveReport, SolverConfig, global_minimize,
                      lambda_branch_minimize, lambda_maximize,
                      local_minimize_capped, masscritical_probe, two_bump_probe)

__version__ = "0.1.0"
