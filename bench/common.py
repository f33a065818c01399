"""Shared pieces of the planarsp benchmark: paths, child processes, the
solver cases and the classify tuples.

Only the public API of planarsp is used: the names the package exports,
``planarsp.functionals.kernel_table`` and the ``planarsp.cli`` module.
"""

import json
import math
import os
import random
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from checks import KGN_APPROX, a_thresholds, c0, mass_critical_c

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

GRID_N = 256            # the CLI's default grid
MAX_ITER = 8000

# Solver cases: (extent L, workload).  Parameters are built in build_case.
CASES = {
    "ground_state_p3": (40.0, "descent"),
    "capped_p6": (24.0, "descent"),
    "plus_p6": (24.0, "fiber"),
    "minus_p6": (16.0, "fiber"),
}
WORKLOAD_CASES = {w: tuple(name for name, (_, wl) in CASES.items() if wl == w)
                  for w in ("descent", "fiber")}


class BenchError(Exception):
    """A child process failed or ran out of time."""


def child_env():
    """Environment of every child: the source tree on the path and one
    thread per numerical library."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def start_child(cmd, own_group=True):
    """Start cmd from the repository root.

    A child in its own process group is stopped together with everything it
    started; the workers start their children with own_group=False, so that
    stopping a worker stops them too."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=own_group)
    proc.own_group = own_group
    return proc


def finish_child(proc, timeout):
    """Wait for a started child; returns (returncode, stdout, stderr).

    On timeout the child's whole process group is killed and reaped
    before BenchError is raised."""
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        stop_child(proc)
        raise BenchError(f"{' '.join(proc.args[:4])} ... timed out after {timeout:.0f} s")
    return proc.returncode, out, err


def stop_child(proc):
    """Kill a child that is still running and reap it."""
    if proc.poll() is None:
        if proc.own_group:
            os.killpg(proc.pid, signal.SIGKILL)
        else:
            proc.kill()
        proc.communicate()


def run_child(cmd, timeout, own_group=True):
    return finish_child(start_child(cmd, own_group), timeout)


def parse_last_json(proc, timeout):
    """Wait for a benchmark child and parse the JSON object on its last line."""
    code, out, err = finish_child(proc, timeout)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"{' '.join(proc.args[:4])} ... exited {code}: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def last_json(cmd, timeout):
    return parse_last_json(start_child(cmd), timeout)


# ---------------------------------------------------------------------------
# Solver cases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    name: str
    params: object          # planarsp.Params
    extent: float
    init: object            # planarsp.ProfileSpec
    solver: str             # "global", "capped" or "branch"
    branch: Optional[str] = None


def p6_params(P):
    """gamma = 1, a = 1, p = 6 at half the mass threshold c0."""
    c = 0.5 * P.c0(6.0, 1.0, 1.0, P.kgn_estimate(6.0))
    return P.Params(gamma=1.0, a=1.0, p=6.0, c=c)


def gaussian_on_branch(P, params, branch, sigma0=1.0):
    """Gaussian whose fiber critical point on `branch` sits at s = 1.

    A mass-c Gaussian of width sigma has A = c/sigma^2 and
    C = (c/pi)^(p/2) (2 pi/p) sigma^(2-p); dilation maps Gaussians to
    Gaussians, so the width sigma0/s puts the branch point at 1."""
    c, p = params.c, params.p
    A = c / sigma0 ** 2
    C = (c / math.pi) ** (0.5 * p) * (2.0 * math.pi / p) * sigma0 ** (2.0 - p)
    points = P.critical_points(P.FiberScalars(A=A, C=C, V=0.0, params=params))
    s = next(bp.s for bp in points if bp.branch == branch)
    return P.ProfileSpec.gaussian(sigma=sigma0 / s, c=c)


def build_case(P, name):
    extent = CASES[name][0]
    if name == "ground_state_p3":
        return Case(name, P.Params(gamma=1.0, a=0.0, p=3.0, c=1.0), extent,
                    P.ProfileSpec.gaussian(sigma=1.5), "global")
    params = p6_params(P)
    if name == "capped_p6":
        return Case(name, params, extent, P.ProfileSpec.gaussian(sigma=1.5), "capped")
    branch = name.split("_")[0]
    return Case(name, params, extent, gaussian_on_branch(P, params, branch),
                "branch", branch)


def solve(P, case, grid):
    cfg = P.SolverConfig(max_iter=MAX_ITER)
    if case.solver == "global":
        return P.global_minimize(case.params, grid, cfg, case.init)
    if case.solver == "capped":
        return P.local_minimize_capped(case.params, grid, cfg, case.init)
    return P.lambda_branch_minimize(case.params, grid, cfg, case.init, case.branch)


def prepare_cases(P, names, descent_n=GRID_N):
    """Set-up of a solver workload: sharp constants, kernel tables and one
    warm-up gradient evaluation per case grid.  Returns [(case, grid)].

    descent_n shrinks the grid of the descent cases for quick checks of the
    benchmark itself; the fiber cases keep 256^2, on which minus_p6 is the
    narrowest field the flow's resolution guard admits."""
    from planarsp.functionals import kernel_table

    prepared = []
    for name in names:
        case = build_case(P, name)
        P.sharp_constants(case.params.p)
        n = descent_n if CASES[name][1] == "descent" else GRID_N
        grid = P.make_grid(case.extent, n)
        table = kernel_table(grid)
        P.grad_energy(P.discretize(case.init, grid), case.params, table)
        prepared.append((case, grid))
    return prepared


def case_summary(report):
    """Reference figures of one solve."""
    out = {"iters": report.iters, "F": report.objective, "el_res": report.el_res,
           "q_residual": report.q_residual}
    if "recenters" in report.extras:
        out["recenters"] = report.extras["recenters"]
    return out


# ---------------------------------------------------------------------------
# Classify tuples
# ---------------------------------------------------------------------------


def cli_tuples(seed):
    """One tuple (gamma, a, p, c) per regime the classifier can reach from
    an open set of inputs, drawn from the seed.

    The exponent of each slot is fixed, so every seed costs the same: the
    cost of a classify process depends on p alone.  Coupling and mass are
    placed with rounded constants at least 7% away from every threshold;
    the check recomputes the thresholds with an independent K_GN."""
    rng = random.Random(seed)

    def draw(lo, hi):
        return round(rng.uniform(lo, hi), 4)

    out = []
    g, a = draw(0.5, 2.0), draw(0.2, 2.0)
    out.append(("GlobalMin", g, a, 3.0, draw(0.5, 4.0)))
    g, a = draw(0.5, 2.0), draw(0.5, 2.0)
    out.append(("GlobalMinMassCritical", g, a, 4.0,
                round(draw(0.3, 0.8) * mass_critical_c(a, KGN_APPROX[4.0]), 4)))
    g, a = draw(0.5, 2.0), draw(0.5, 2.0)
    out.append(("LocalMinPlusMountainPass", g, a, 6.0,
                round(draw(0.2, 0.8) * c0(6.0, a, g, KGN_APPROX[6.0]), 4)))
    g, a = draw(0.5, 2.0), draw(0.5, 2.0)
    out.append(("OpenUnknown", g, a, 6.0,
                round(draw(1.3, 2.5) * c0(6.0, a, g, KGN_APPROX[6.0]), 4)))
    out.append(("NoCriticalPoint", -draw(0.5, 2.0), -draw(0.2, 2.0), 3.0,
                draw(0.5, 4.0)))
    g, c = -draw(0.5, 2.0), draw(0.5, 4.0)
    t1, _ = a_thresholds(3.0, g, c, KGN_APPROX[3.0])
    out.append(("LambdaEmpty", g, round(draw(0.2, 0.8) * t1, 4), 3.0, c))
    g, c = -draw(0.5, 2.0), draw(0.5, 4.0)
    t1, t2 = a_thresholds(3.0, g, c, KGN_APPROX[3.0])
    out.append(("TwoCriticalPointsOnLambda", g,
                round(t1 + draw(0.25, 0.75) * (t2 - t1), 4), 3.0, c))
    return out


def classify_cmd(tup, launcher=("-m", "planarsp.cli")):
    _, gamma, a, p, c = tup
    return [sys.executable, *launcher, "classify", "--gamma", repr(gamma),
            "--a", repr(a), "--p", repr(p), "--c", repr(c)]
