"""Command-line front end.

Subcommands:
  classify   print the regime label and thresholds for a parameter tuple
  constants  print the sharp-constant estimates for an exponent
  fiber      sample the fiber-map curves to CSV (t, g, dg, ddg, phi)
  sweep      classify an (a, c) lattice to CSV (a, c, tag)
  solve      run the regime-appropriate solver; writes solution.lpf,
             report.json and optionally trace.csv
  verify     run the invariant suite; JSON report, nonzero exit on failure

Configuration comes from an optional JSON file (--config) overridden by
flags; every report embeds the full configuration and the constants used,
and a report.json is itself accepted as --config, so `solve --config
report.json` replays the run.

Exit codes: 0 success, 1 verification failure, 2 configuration error
(a grid too coarse for the start, a grid extent whose square overflows, a
grid too large for memory, and an output path that cannot be written,
included), 3 non-convergence (report still written), 4 regime refusal.

classify, sweep, constants and --help run on the standard library alone:
the handlers that need numpy import it, and the modules built on it,
inside.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from . import constants as K
from .errors import ConfigError, ConvergenceError, PlanarSPError, RegimeError
from .params import Params, _exponent

if TYPE_CHECKING:
    from .grid import Field, Grid, ProfileSpec
    from .solvers import SolverConfig

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_REGIME = 4


def _load_config(path: Optional[str]) -> dict:
    """A config file, or the report.json of a run, whose settings sit under
    its "config" key."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if isinstance(cfg, dict) and "config" in cfg:
        cfg = cfg["config"]
    if not isinstance(cfg, dict):
        raise ConfigError("config file must contain a JSON object")
    return cfg


def _section(cfg: dict, name: str, **flags) -> dict:
    """A copy of one config section, which must be a JSON object, with each
    flag given (not None) written over its key."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object, "
                          f"got {section!r}")
    return {**section, **{k: v for k, v in flags.items() if v is not None}}


def _number(where: str, value) -> float:
    """A config value that must be a JSON number: no bool, no string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _integer(where: str, value) -> int:
    """A config value that must be an integral JSON number, such as 128 or
    128.0 but not 128.9."""
    number = _number(where, value)
    if not number.is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(number)


_PARAM_KEYS = ("gamma", "a", "p", "c")


def _given_params(cfg: dict, args) -> dict:
    """The parameters the flags or the config's params section give, each
    flag over its key, each value checked as a number (a null included).
    A parameter a command has no flag for comes from the config alone."""
    section = _section(cfg, "params", **{k: getattr(args, k, None) for k in _PARAM_KEYS})
    return {k: _number(f"params.{k}", section[k]) for k in _PARAM_KEYS
            if k in section}


def _merged_params(cfg: dict, args) -> Params:
    values = _given_params(cfg, args)
    missing = [k for k in _PARAM_KEYS if k not in values]
    if missing:
        raise ConfigError(f"missing parameters: {', '.join(missing)}")
    try:
        return Params(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _merged_grid(cfg: dict, args) -> Grid:
    from .grid import make_grid

    section = _section(cfg, "grid", L=args.grid_L, n=args.grid_n)
    L = _number("grid.L", section.get("L", 40.0))
    n = _integer("grid.n", section.get("n", 256))
    # Sampling a profile forms x^2 + y^2, up to L^2/2, on the grid's nodes.
    if not math.isfinite(L * L):
        raise ConfigError(f"grid.L = {L} is too large: its square overflows")
    try:
        return make_grid(L, n)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _merged_solver(cfg: dict, args) -> SolverConfig:
    from .solvers import SolverConfig

    # --trace can only switch tracing on: without it the config's value holds.
    section = _section(cfg, "solver", trace=args.trace or None)
    try:
        return SolverConfig(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver config: {exc}") from exc


def _merged_profile(cfg: dict, args, c: float) -> ProfileSpec:
    from .grid import _PROFILE_INTEGERS, ProfileSpec

    section = _section(cfg, "profile", kind=args.profile, sigma=args.sigma)
    kind = section.pop("kind", "gaussian")
    for key, val in section.items():
        where = f"profile.{key}"
        if key == "center":
            if not (isinstance(val, (list, tuple)) and len(val) == 2):
                raise ConfigError(f"{where} must be a pair of numbers, got {val!r}")
            section[key] = tuple(_number(where, v) for v in val)
        elif key in _PROFILE_INTEGERS:
            section[key] = _integer(where, val)
        else:
            section[key] = _number(where, val)
    # The profile's mass is the solve's: a profile.c, such as a report.json
    # records, must repeat params.c.
    if section.setdefault("c", c) != c:
        raise ConfigError(f"profile.c = {section['c']!r} differs from "
                          f"params.c = {c!r}")
    try:
        return ProfileSpec(kind=kind, **section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad profile: {exc}") from exc


def _dumps(payload: dict) -> str:
    """Standard JSON only: a NaN or infinity raises ValueError (exit 2)."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _constants_payload(params: Optional[Params], p: float) -> dict:
    """K_GN and the closed-form thresholds; constants adds kv2 itself, so
    classify, sweep and solve never build it."""
    kgn = K.kgn_estimate(p)
    payload = {
        "p": p,
        "kgn": kgn,
        "method": "ode_shooting",
        "tolerances": {"pohozaev_tol": K._POHOZAEV_TOL,
                       "shooting_bisections": K._SHOOTING_BISECTIONS},
        "k0": None,
        "c0": None,
        "K1": None,
        "K2": None,
        "mass_critical_c": None,
    }
    if 2.0 < p < 4.0:
        payload["K1"] = K.k1(p, kgn)
        payload["K2"] = K.k2(p, kgn)
    if params is not None:
        if params.p != 4.0 and params.gamma != 0.0:
            payload["k0"] = K.k0(params)
        if params.p > 4.0 and params.a > 0 and params.gamma > 0:
            payload["c0"] = K.c0(params.p, params.a, params.gamma, kgn)
        if params.p == 4.0 and params.a > 0:
            payload["mass_critical_c"] = K.mass_critical_threshold(params.a, kgn)
        if params.gamma < 0 and 2.0 < p < 4.0:
            t1, t2 = K.a_thresholds(p, params.gamma, params.c, kgn)
            payload["a_threshold_lower"] = t1
            payload["a_threshold_upper"] = t2
    return payload


def _outdir(args) -> Path:
    out = Path(getattr(args, "out", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    cfg = _load_config(args.config)
    params = _merged_params(cfg, args)
    sharp = K.sharp_constants(params.p)
    label = K.regime_classify(params, sharp)
    payload = {
        "tag": label.tag,
        "certificate": label.certificate,
        "thresholds": _constants_payload(params, params.p),
    }
    print(_dumps(payload))
    return EXIT_OK


def cmd_constants(args) -> int:
    cfg = _load_config(args.config)
    # constants reads p alone or the whole tuple (gamma, a, p, c): a partial
    # tuple is refused by _merged_params, naming what it misses.
    given = _given_params(cfg, args)
    if "p" not in given:
        raise ConfigError("constants requires an exponent p")
    p = _exponent(given["p"])
    params = _merged_params(cfg, args) if len(given) > 1 else None
    payload = _constants_payload(params, p)
    payload["kv2"] = K.kv2_estimate()
    print(_dumps(payload))
    return EXIT_OK


def cmd_fiber(args) -> int:
    import numpy as np

    from .fiber import critical_points, ddg, dg, g, phi, scalars
    from .grid import discretize

    cfg = _load_config(args.config)
    params = _merged_params(cfg, args)
    grid = _merged_grid(cfg, args)
    spec = _merged_profile(cfg, args, params.c)
    u = discretize(spec, grid)
    sc = scalars(u, params)
    points = critical_points(sc)
    if points:
        t_lo = points[0].s / 10.0
        t_hi = 10.0 * points[-1].s
    else:
        t_lo, t_hi = 1e-2, 1e2
    if args.t_min is not None:
        t_lo = args.t_min
    if args.t_max is not None:
        t_hi = args.t_max
    if not (0 < t_lo < t_hi < math.inf):
        raise ConfigError(f"bad t range [{t_lo}, {t_hi}]")
    # Every row is computed, and refused unless finite, before the file opens.
    ts = np.logspace(np.log10(t_lo), np.log10(t_hi), 400).tolist()
    try:
        rows = [(t, g(sc, t), dg(sc, t), ddg(sc, t), phi(sc, t)) for t in ts]
        finite = all(math.isfinite(v) for row in rows for v in row)
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise ConfigError(f"the fiber map is not finite on the t range "
                          f"[{t_lo}, {t_hi}]")
    out = _outdir(args) / "fiber.csv"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("t,g,dg,ddg,phi\n")
        fh.writelines(",".join(f"{v:.12g}" for v in row) + "\n"
                      for row in rows)
    print(f"wrote {out} ({len(rows)} samples, scalars A={sc.A:.6g} "
          f"C={sc.C:.6g} V={sc.V:.6g})")
    return EXIT_OK


def _axis(name: str, lo: float, hi: float, n: int) -> List[float]:
    """n evenly spaced points from lo to hi, both included: lo + i * step
    with step = (hi - lo)/(n - 1) and the last point set to hi, which is
    numpy.linspace's own formula and gives its values bit for bit."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"sweep bounds of {name} must be finite, got "
                          f"[{lo}, {hi}]")
    if n < 1:
        raise ConfigError(f"sweep needs at least one {name} point, got {n}")
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def cmd_sweep(args) -> int:
    # The lattice sets a and c: a config's params.a and params.c are checked
    # as numbers, as every given parameter is, and not read.
    given = _given_params(_load_config(args.config), args)
    if "gamma" not in given or "p" not in given:
        raise ConfigError("sweep requires gamma and p")
    gamma, p = given["gamma"], _exponent(given["p"])
    if args.a_min <= 0 and gamma < 0:
        raise ConfigError("sweep over a requires positive couplings for gamma < 0")
    if not (args.a_min < args.a_max and args.c_min < args.c_max):
        raise ConfigError("sweep lattice bounds must be increasing")
    if args.c_min <= 0:
        raise ConfigError("sweep masses must be positive")
    # Every lattice point is classified or refused before the file opens.
    lattice = [Params(gamma=gamma, a=a, p=p, c=c)
               for a in _axis("a", args.a_min, args.a_max, args.na)
               for c in _axis("c", args.c_min, args.c_max, args.nc)]
    sharp = K.sharp_constants(p)
    rows = [f"{params.a:.12g},{params.c:.12g},"
            f"{K.regime_classify(params, sharp).tag}\n" for params in lattice]
    out = _outdir(args) / "sweep.csv"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("a,c,tag\n")
        fh.writelines(rows)
    print(f"wrote {out} ({args.na}x{args.nc} lattice at p={p}, gamma={gamma})")
    return EXIT_OK


def _write_run(out: Path, field: Field, texts: dict) -> None:
    """Write a solve's solution.lpf and its text files under temporary
    names in out, then rename them into place.  A failure deletes what was
    written, so a run leaves all of its files or none."""
    from .grid import write_field

    names = ["solution.lpf", *texts]
    placed = []
    try:
        write_field(field, out / "solution.lpf.tmp")
        for name, text in texts.items():
            (out / f"{name}.tmp").write_text(text, encoding="utf-8")
        for name in names:
            (out / f"{name}.tmp").replace(out / name)
            placed.append(name)
    except BaseException:
        for name in names:
            (out / f"{name}.tmp").unlink(missing_ok=True)
        for name in placed:
            (out / name).unlink()
        raise


def cmd_solve(args) -> int:
    from .solvers import REGIME_SOLVERS

    cfg = _load_config(args.config)
    params = _merged_params(cfg, args)
    grid = _merged_grid(cfg, args)
    solver_cfg = _merged_solver(cfg, args)
    branch = args.branch or cfg.get("branch", "auto")
    if branch not in ("plus", "minus", "auto"):
        raise ConfigError(f"unknown branch {branch!r}")
    sharp = K.sharp_constants(params.p)
    label = K.regime_classify(params, sharp)
    if label.tag not in REGIME_SOLVERS:
        raise RegimeError(f"no solver applies: regime {label.tag}; "
                          f"{'; '.join(label.certificate['conditions'])}")
    minimize, on_branch = REGIME_SOLVERS[label.tag]
    spec = _merged_profile(cfg, args, params.c)
    if branch != "auto" and on_branch is None:
        raise RegimeError(f"branch {branch!r} does not apply: regime "
                          f"{label.tag} has no fiber branches")
    config = {
        "params": dataclasses.asdict(params),
        "grid": {"L": grid.extent, "n": grid.n},
        "solver": dataclasses.asdict(solver_cfg),
        "profile": dataclasses.asdict(spec),
        "branch": branch,
    }

    def write_outputs(report):
        out = _outdir(args)
        payload = report.summary()
        payload["config"] = config
        payload["constants"] = _constants_payload(params, params.p)
        texts = {"report.json": _dumps(payload)}
        if solver_cfg.trace and report.trace:
            texts["trace.csv"] = "iter,F,Q,grad_res,A,C,V\n" + "".join(
                f"{row.iter},{row.F:.12g},{row.Q:.12g},{row.grad_res:.12g},"
                f"{row.A:.12g},{row.C:.12g},{row.V:.12g}\n" for row in report.trace)
        _write_run(out, report.field, texts)
        print(f"wrote {out / 'report.json'} (converged={report.converged}, "
              f"F={report.objective:.8g})")

    try:
        if branch == "auto":
            report = minimize(params, grid, solver_cfg, spec)
        else:
            report = on_branch(params, grid, solver_cfg, spec, branch)
    except ConvergenceError as exc:
        if exc.report is not None:
            write_outputs(exc.report)
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    write_outputs(report)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .checks import run_all_checks

    results = run_all_checks()
    payload = {
        "checks": [r.as_dict() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    print(_dumps(payload))
    return EXIT_OK if payload["all_passed"] else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


_PARAM_HELP = {"gamma": "interaction sign/strength",
               "a": "local nonlinearity coupling",
               "p": "nonlinearity exponent (> 2)",
               "c": "prescribed mass (> 0)"}


def _add_common(sub, params=_PARAM_KEYS, grid=False, output=False, profile=False):
    sub.add_argument("--config", help="JSON config file")
    for key in params:
        sub.add_argument(f"--{key}", type=float, help=_PARAM_HELP[key])
    if grid:
        sub.add_argument("--grid-L", type=float, help="domain extent")
        sub.add_argument("--grid-n", type=int, help="nodes per side (power of two)")
    if output:
        sub.add_argument("--out", help="output directory (default: cwd)")
    if profile:
        sub.add_argument("--profile", choices=["gaussian", "ring", "two_bump",
                                               "random_smooth"], help="profile kind")
        sub.add_argument("--sigma", type=float,
                         help="width of a gaussian or ring profile")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="planarsp",
        description="Normalized solutions of the planar Schrodinger-Poisson "
                    "equation with logarithmic kernel.",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    s = subs.add_parser("classify", help="regime classification")
    _add_common(s)
    s.set_defaults(handler=cmd_classify)

    s = subs.add_parser("constants", help="sharp constants and thresholds")
    _add_common(s)
    s.set_defaults(handler=cmd_constants)

    s = subs.add_parser("fiber", help="fiber-map curves to CSV")
    _add_common(s, grid=True, output=True, profile=True)
    s.add_argument("--t-min", type=float, help="lower end of the t range")
    s.add_argument("--t-max", type=float, help="upper end of the t range")
    s.set_defaults(handler=cmd_fiber)

    s = subs.add_parser("sweep", help="regime map over an (a, c) lattice")
    _add_common(s, params=("gamma", "p"), output=True)  # the lattice sets a and c
    s.add_argument("--a-min", type=float, required=True)
    s.add_argument("--a-max", type=float, required=True)
    s.add_argument("--na", type=int, default=20)
    s.add_argument("--c-min", type=float, required=True)
    s.add_argument("--c-max", type=float, required=True)
    s.add_argument("--nc", type=int, default=20)
    s.set_defaults(handler=cmd_sweep)

    s = subs.add_parser("solve", help="run the regime-appropriate solver")
    _add_common(s, grid=True, output=True, profile=True)
    s.add_argument("--branch", choices=["plus", "minus", "auto"],
                   help="fiber branch for two-solution regimes (default: the "
                        "config's, else auto)")
    s.add_argument("--trace", action="store_true",
                   help="write per-iteration trace.csv")
    s.set_defaults(handler=cmd_solve)

    s = subs.add_parser("verify", help="run the invariant suite")
    s.set_defaults(handler=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RegimeError as exc:
        print(f"regime refusal: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except PlanarSPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
