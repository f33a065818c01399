import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from planarsp import SolverConfig, read_field
from planarsp import constants as K
from planarsp.cli import main


def run_cli(args):
    return main(args)


def test_classify_ok(capsys):
    assert run_cli(["classify", "--gamma", "1", "--a", "1", "--p", "3",
                    "--c", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tag"] == "GlobalMin"
    assert "kgn" in payload["certificate"]


def test_classify_lambda_empty(capsys):
    assert run_cli(["classify", "--gamma", "-1", "--a", "0.01", "--p", "2.5",
                    "--c", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["tag"] == "LambdaEmpty"


def test_classify_bad_exponent_exits_2():
    assert run_cli(["classify", "--gamma", "1", "--a", "1", "--p", "2",
                    "--c", "1"]) == 2


def _run_cli_process(args, timeout):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "planarsp.cli", *args],
                          capture_output=True, text=True, timeout=timeout, env=env)


def test_classify_nan_exponent_exits_2():
    # Run out of process under a timeout: a NaN exponent once hung the
    # ground-state shooting.
    proc = _run_cli_process(["classify", "--gamma", "1", "--a", "1", "--p", "nan",
                             "--c", "1"], timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_classify_nan_gamma_exits_2(capsys):
    assert run_cli(["classify", "--gamma", "nan", "--a", "1", "--p", "3",
                    "--c", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_classify_overflowing_shoot_exits_2(capsys):
    # At p = 2000 the shooting right-hand side overflows a float at phi = 2.
    assert run_cli(["classify", "--gamma", "1", "--a", "1", "--p", "2000",
                    "--c", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_classify_overflowing_shoot_exits_2_in_a_subprocess():
    # The same refusal seen from a fresh process: a stopped Fortran shoot
    # must not print an integrator warning ahead of the error line.
    proc = _run_cli_process(["classify", "--gamma", "1", "--a", "1", "--p", "2000",
                             "--c", "1"], timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[0].startswith("error:")
    assert "UserWarning" not in proc.stderr


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p,reason", [
    ("60", "violates its Pohozaev identities"),   # too stiff for 1e-5
    ("100", "radial shooting failed"),            # DOP853 gives up at phi = 2
])
def test_classify_unshootable_exponent_exits_2(capsys, p, reason):
    assert run_cli(["classify", "--gamma", "1", "--a", "1", "--p", p,
                    "--c", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and reason in captured.err
    assert "UserWarning" not in captured.err


def test_classify_missing_params_exits_2():
    assert run_cli(["classify", "--gamma", "1", "--a", "1", "--p", "3"]) == 2


def test_constants_payload(capsys):
    assert run_cli(["constants", "--p", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p"] == 3.0
    assert payload["kgn"] == pytest.approx(0.381, abs=1e-2)
    assert payload["K1"] is not None and payload["K2"] is not None
    assert payload["kv2"] == K.kv2_estimate()
    assert payload["method"] == "ode_shooting"
    assert payload["tolerances"] == {
        "kgn_rayleigh_slack": K._RAYLEIGH_SLACK,
        "shooting_bisections": K._SHOOTING_BISECTIONS}


def test_constants_with_full_params(capsys):
    assert run_cli(["constants", "--p", "6", "--gamma", "1", "--a", "1",
                    "--c", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["c0"] is not None
    assert payload["k0"] == pytest.approx(0.5)


def test_classify_and_sweep_do_not_build_kv2(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("kv2_estimate called")

    monkeypatch.setattr(K, "kv2_estimate", refuse)
    assert run_cli(["classify", "--gamma", "1", "--a", "1", "--p", "6",
                    "--c", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "kv2" not in payload["thresholds"]
    assert run_cli(["sweep", "--gamma", "-1", "--p", "3", "--a-min", "0.2",
                    "--a-max", "2", "--na", "3", "--c-min", "0.5",
                    "--c-max", "2", "--nc", "3", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sweep.csv").exists()


def test_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"params": {"gamma": -1.0, "a": -1.0,
                                          "p": 3.0, "c": 1.0}}))
    assert run_cli(["classify", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["tag"] == "NoCriticalPoint"
    # flag overrides the file
    assert run_cli(["classify", "--config", str(cfg), "--gamma", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["tag"] == "GlobalMin"


def test_corrupt_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert run_cli(["classify", "--config", str(cfg)]) == 2


def test_fiber_csv(tmp_path, capsys):
    out = tmp_path / "fib"
    assert run_cli(["fiber", "--gamma", "1", "--a", "1", "--p", "6", "--c", "1",
                    "--grid-L", "40", "--grid-n", "128",
                    "--out", str(out)]) == 0
    rows = (out / "fiber.csv").read_text().strip().splitlines()
    assert rows[0] == "t,g,dg,ddg,phi"
    assert len(rows) == 401
    data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    t, phi = data[:, 0], data[:, 4]
    # phi changes sign twice across the sampled range
    signs = np.sign(phi)
    assert np.sum(np.abs(np.diff(signs)) > 0) == 2


def test_fiber_nonexistence_phi_positive(tmp_path):
    out = tmp_path / "fib"
    assert run_cli(["fiber", "--gamma", "-1", "--a", "-1", "--p", "3",
                    "--c", "1", "--grid-L", "40", "--grid-n", "128",
                    "--out", str(out)]) == 0
    rows = (out / "fiber.csv").read_text().strip().splitlines()[1:]
    phi = np.array([float(r.split(",")[4]) for r in rows])
    assert np.all(phi > 0.0)


def test_fiber_range_override(tmp_path):
    out = tmp_path / "fib"
    assert run_cli(["fiber", "--gamma", "1", "--a", "1", "--p", "6", "--c", "1",
                    "--grid-L", "40", "--grid-n", "128", "--t-min", "0.5",
                    "--t-max", "2.0", "--out", str(out)]) == 0
    rows = (out / "fiber.csv").read_text().strip().splitlines()[1:]
    ts = [float(r.split(",")[0]) for r in rows]
    assert ts[0] == pytest.approx(0.5, rel=1e-9)
    assert ts[-1] == pytest.approx(2.0, rel=1e-9)


def test_sweep_band_structure(tmp_path):
    out = tmp_path / "sw"
    assert run_cli(["sweep", "--gamma", "-1", "--p", "3", "--a-min", "1",
                    "--a-max", "12", "--na", "12", "--c-min", "0.5",
                    "--c-max", "2.0", "--nc", "4", "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "a,c,tag"
    # p = 3: the band is c-independent (vertical in a)
    by_a = {}
    for r in rows[1:]:
        a, c, tag = r.split(",")
        by_a.setdefault(a, set()).add(tag)
    assert all(len(tags) == 1 for tags in by_a.values())


def test_sweep_bad_bounds_exit_2(tmp_path):
    assert run_cli(["sweep", "--gamma", "-1", "--p", "3", "--a-min", "5",
                    "--a-max", "1", "--c-min", "0.5", "--c-max", "2.0",
                    "--out", str(tmp_path)]) == 2


def test_sweep_refuses_before_writing(tmp_path):
    out = tmp_path / "sw"
    assert run_cli(["sweep", "--gamma", "nan", "--p", "3", "--a-min", "1",
                    "--a-max", "2", "--c-min", "1", "--c-max", "2",
                    "--out", str(out)]) == 2
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("flags", [
    ["--gamma", "1", "--a", "0", "--p", "3", "--c", "1", "--grid-L", "40",
     "--sigma", "1.5"],
    ["--gamma", "1", "--a", "1", "--p", "6", "--c", "1.58", "--grid-L", "24",
     "--branch", "plus"],
], ids=["plain", "branch_plus"])
def test_solve_replays_from_report(tmp_path, flags):
    first, again = tmp_path / "first", tmp_path / "again"
    assert run_cli(["solve", *flags, "--grid-n", "128", "--out", str(first)]) == 0
    assert run_cli(["solve", "--config", str(first / "report.json"),
                    "--out", str(again)]) == 0
    before, after = (json.loads((d / "report.json").read_text())
                     for d in (first, again))
    assert before["config"]["profile"]["kind"] == "gaussian"
    assert after["config"] == before["config"]
    assert after["mode"] == before["mode"]
    assert (again / "solution.lpf").read_bytes() == (first / "solution.lpf").read_bytes()


def test_solve_flags_override_report(tmp_path):
    first, again = tmp_path / "first", tmp_path / "again"
    assert run_cli(["solve", "--gamma", "1", "--a", "0", "--p", "3", "--c", "1",
                    "--grid-L", "40", "--grid-n", "128", "--out", str(first)]) == 0
    assert run_cli(["solve", "--config", str(first / "report.json"),
                    "--profile", "ring", "--sigma", "1.2", "--out", str(again)]) == 0
    profile = json.loads((again / "report.json").read_text())["config"]["profile"]
    assert (profile["kind"], profile["sigma"]) == ("ring", 1.2)


def test_solve_end_to_end(tmp_path):
    out = tmp_path / "sol"
    code = run_cli(["solve", "--gamma", "1", "--a", "0", "--p", "3", "--c", "1",
                    "--grid-L", "40", "--grid-n", "128", "--out", str(out),
                    "--trace", "--profile", "gaussian", "--sigma", "1.5"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"]
    assert report["q_residual"] < 1e-3
    assert report["pohozaev_residual"] < 1e-3
    assert report["el_residual"] < 1e-3
    assert "config" in report and "constants" in report
    assert report["constants"]["kv2"] == K.kv2_estimate()
    solver_fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert set(report["config"]["solver"]) == solver_fields
    assert report["config"]["branch"] == "auto"
    field = read_field(out / "solution.lpf")
    assert field.grid.n == 128
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,F,Q,grad_res,A,C,V"
    assert len(trace) > 10


def test_solve_regime_refusal_exit_4(tmp_path):
    assert run_cli(["solve", "--gamma", "-1", "--a", "-1", "--p", "3",
                    "--c", "1", "--out", str(tmp_path / "x")]) == 4


def test_solve_nonconvergence_exit_3(tmp_path):
    out = tmp_path / "nc"
    code = run_cli(["solve", "--gamma", "1", "--a", "0", "--p", "3", "--c", "1",
                    "--grid-L", "40", "--grid-n", "128", "--out", str(out),
                    "--config", str(_mk_cfg(tmp_path, {"solver": {"max_iter": 3}}))])
    assert code == 3
    # the report is still written
    report = json.loads((out / "report.json").read_text())
    assert not report["converged"]


@pytest.mark.parametrize("solver, key", [
    ({"max_iter": 3.5}, "max_iter"),
    ({"trace": "no"}, "trace"),
    ({"tol_grad": 1e-6}, "tol_grad"),
], ids=["float_max_iter", "string_trace", "deleted_key"])
def test_solve_refuses_bad_solver_config(tmp_path, capsys, solver, key):
    out = tmp_path / "out"
    code = run_cli(["solve", "--gamma", "1", "--a", "0", "--p", "3", "--c", "1",
                    "--grid-n", "128", "--out", str(out),
                    "--config", str(_mk_cfg(tmp_path, {"solver": solver}))])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


_PARAMS = {"gamma": 1, "a": 0, "p": 3, "c": 1}


@pytest.mark.parametrize("cfg, key", [
    ({"params": 5}, "params"),
    ({"grid": [128]}, "grid"),
    ({"solver": "fast"}, "solver"),
    ({"profile": None}, "profile"),
    ({"params": dict(_PARAMS, gamma=True)}, "params.gamma"),
    ({"params": dict(_PARAMS, a="1")}, "params.a"),
    ({"grid": {"L": "40"}}, "grid.L"),
    ({"grid": {"n": True}}, "grid.n"),
    ({"grid": {"n": 128.9}}, "grid.n"),
    ({"profile": {"sigma": "1.5"}}, "profile.sigma"),
    ({"profile": {"center": [0, "0"]}}, "profile.center"),
    ({"profile": {"kind": "random_smooth", "seed": 1.5}}, "profile.seed"),
], ids=["params_not_object", "grid_not_object", "solver_not_object",
        "profile_not_object", "bool_gamma", "string_a", "string_L", "bool_n",
        "fractional_n", "string_sigma", "string_center", "fractional_seed"])
def test_solve_refuses_malformed_config(tmp_path, capsys, cfg, key):
    # Every value is checked, not coerced: True is not 1, "1" is not 1 and
    # 128.9 is not 128.
    cfg = dict({"params": _PARAMS, "grid": {"n": 128}}, **cfg)
    out = tmp_path / "out"
    code = run_cli(["solve", "--out", str(out),
                    "--config", str(_mk_cfg(tmp_path, cfg))])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("params, key", [
    ({"p": 3, "gamma": True}, "params.gamma"),
    ({"p": 3, "gamma": 1, "a": "1", "c": 1}, "params.a"),
    ({"p": 3, "gamma": 1, "a": 1, "c": -1}, "mass c"),
], ids=["partial_bool_gamma", "full_string_a", "full_negative_c"])
def test_constants_refuses_malformed_params(tmp_path, capsys, params, key):
    # A partial parameter set is fine for constants; a malformed one is not.
    code = run_cli(["constants", "--config",
                    str(_mk_cfg(tmp_path, {"params": params}))])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert key in captured.err


def test_config_accepts_integral_float_grid_size(tmp_path, capsys):
    cfg = {"params": _PARAMS, "grid": {"n": 16.0}}
    assert run_cli(["fiber", "--out", str(tmp_path),
                    "--config", str(_mk_cfg(tmp_path, cfg))]) == 0
    assert "wrote" in capsys.readouterr().out


def _mk_cfg(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return path


def test_outputs_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["fiber", "--gamma", "1", "--a", "1", "--p", "6",
                        "--c", "1", "--grid-L", "40", "--grid-n", "128",
                        "--out", str(out)]) == 0
        outs.append((out / "fiber.csv").read_bytes())
    assert outs[0] == outs[1]


def test_verify_runs_clean(capsys):
    assert run_cli(["verify"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"]
    assert len(payload["checks"]) >= 15


def test_verify_detects_kernel_fault(monkeypatch, capsys):
    # fault injection: a wrong origin-cell value must break the V-splitting
    # identity and fail the suite
    import planarsp.functionals as fn

    true_avg = fn._origin_cell_average

    def corrupted(f, h):
        val = true_avg(f, h)
        return val + (0.05 if f is np.log else 0.0)

    monkeypatch.setattr(fn, "_origin_cell_average", corrupted)
    fn._TABLE_CACHE.clear()
    try:
        code = run_cli(["verify"])
        payload = json.loads(capsys.readouterr().out)
    finally:
        fn._TABLE_CACHE.clear()
    assert code == 1
    failed = {c["name"] for c in payload["checks"] if not c["passed"]}
    assert "v_split_identity" in failed
