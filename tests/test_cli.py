import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from planarsp import Params, SolverConfig, read_field
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


def test_classify_mass_critical_prints_its_threshold(capsys):
    # At p = 4 with a > 0 the thresholds carry 2/(a K_GN), the very float
    # the certificate compares c with.
    assert run_cli(["classify", "--gamma", "1", "--a", "1", "--p", "4",
                    "--c", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tag"] == "GlobalMinMassCritical"
    threshold = payload["thresholds"]["mass_critical_c"]
    assert float.hex(threshold) == float.hex(
        payload["certificate"]["mass_critical_threshold"])
    assert threshold == K.mass_critical_threshold(1.0, K.kgn_estimate(4.0))


def test_classify_lambda_empty(capsys):
    assert run_cli(["classify", "--gamma", "-1", "--a", "0.01", "--p", "2.5",
                    "--c", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["tag"] == "LambdaEmpty"


def test_classify_published_gamma_negative_window(capsys):
    # T1 < a = 6.5 < T2 at p = 3: the certificate says the Pohozaev set is
    # empty and carries the bound on t*^2 A.
    assert run_cli(["classify", "--gamma", "-1", "--a", "6.5", "--p", "3",
                    "--c", "1"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["tag"] == "TwoCriticalPointsOnLambda"
    cert = payload["certificate"]
    assert cert["t_star_sq_A_bound"] < cert["k0"]
    assert "Pohozaev set is empty" in out
    assert "two critical points" not in out


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
    # The same refusal seen from a fresh process: a stopped shoot must not
    # print an integrator warning ahead of the error line.
    proc = _run_cli_process(["classify", "--gamma", "1", "--a", "1", "--p", "2000",
                             "--c", "1"], timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[0].startswith("error:")
    assert "UserWarning" not in proc.stderr


_NO_NUMPY_OR_SCIPY = """
import sys
sys.modules["numpy"] = None   # any import of numpy or scipy now fails
sys.modules["scipy"] = None
from planarsp.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _blocked_and_normal(args, tmp_path=None):
    """Run the CLI with numpy and scipy blocked, then normally; with
    tmp_path, each run in its own directory, tmp_path/blocked and
    tmp_path/normal."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)

    def run(name, cmd):
        cwd = None if tmp_path is None else tmp_path / name
        if cwd is not None:
            cwd.mkdir()
        return subprocess.run([sys.executable, *cmd, *args], capture_output=True,
                              timeout=120, env=env, cwd=cwd)
    return (run("blocked", ["-c", _NO_NUMPY_OR_SCIPY]),
            run("normal", ["-m", "planarsp.cli"]))


def test_classify_needs_no_scipy():
    # K_GN comes from the in-repo DOP853 in Python floats, so classify runs
    # with numpy and scipy blocked and prints the same bytes as a normal run.
    args = ["classify", "--gamma", "-1", "--a", "6.5", "--p", "3", "--c", "1"]
    blocked, normal = _blocked_and_normal(args)
    assert blocked.returncode == 0, blocked.stderr
    assert (blocked.returncode, blocked.stdout, blocked.stderr) == \
        (normal.returncode, normal.stdout, normal.stderr)


def test_classify_from_a_stored_pair_prints_the_same_bytes(cache_home):
    # The first process searches phi(0) and stores its pair; the later ones
    # re-certify that pair, leaving the file as it is, and print the same
    # bytes.  The lookup, like the search, runs with numpy and scipy blocked.
    args = ["classify", "--gamma", "1", "--a", "1", "--p", "3", "--c", "1"]
    stored = cache_home / "planarsp" / "ground_states.json"
    blocked_miss, normal_hit = _blocked_and_normal(args)
    written = stored.stat()
    blocked_hit, _ = _blocked_and_normal(args)
    assert blocked_miss.returncode == 0, blocked_miss.stderr
    assert b"ModuleNotFoundError" not in blocked_hit.stderr
    assert (blocked_miss.returncode, blocked_miss.stdout, blocked_miss.stderr) == \
        (normal_hit.returncode, normal_hit.stdout, normal_hit.stderr) == \
        (blocked_hit.returncode, blocked_hit.stdout, blocked_hit.stderr)
    after = stored.stat()
    assert (after.st_ino, after.st_mtime_ns) == (written.st_ino, written.st_mtime_ns)


def test_classify_with_an_unwritable_cache_location(tmp_path, monkeypatch):
    # XDG_CACHE_HOME names a regular file: the cache can be neither read nor
    # written, which is no error and changes no output byte.
    args = ["classify", "--gamma", "1", "--a", "1", "--p", "3", "--c", "1"]
    usual = _run_cli_process(args, timeout=120)
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    proc = _run_cli_process(args, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == (usual.stdout, usual.stderr)
    assert blocker.read_text() == ""


@pytest.mark.parametrize("args", [
    ["--help"],
    ["constants", "--help"],
    ["classify", "--gamma", "1", "--a", "1", "--p", "6", "--c", "1"],
    ["classify", "--gamma", "1", "--a", "1", "--p", "nan", "--c", "1"],
    ["sweep", "--gamma", "-1", "--p", "3", "--a-min", "5", "--a-max", "1",
     "--c-min", "0.5", "--c-max", "2.0"],
    ["constants", "--p", "3"],
    ["constants", "--p", "6", "--gamma", "1", "--a", "1", "--c", "1"],
    ["sweep", "--gamma", "-1", "--p", "3.5", "--a-min", "0.5", "--a-max", "12",
     "--na", "6", "--c-min", "0.5", "--c-max", "2", "--nc", "3"],
], ids=["help", "constants_help", "classify_p6", "classify_nan", "sweep_refusal",
        "constants_p3", "constants_p6_full", "sweep"])
def test_cold_commands_need_no_numpy(tmp_path, args):
    blocked, normal = _blocked_and_normal(args, tmp_path)
    assert b"ModuleNotFoundError" not in blocked.stderr
    assert (blocked.returncode, blocked.stdout, blocked.stderr) == \
        (normal.returncode, normal.stdout, normal.stderr)
    # The same files too: a sweep writes the same sweep.csv bytes.
    written = [{f.name: f.read_bytes() for f in (tmp_path / run).iterdir()}
               for run in ("blocked", "normal")]
    assert written[0] == written[1]


_NO_SCIPY_NDIMAGE_OR_INTERPOLATE = """
import sys
sys.modules["scipy.ndimage"] = sys.modules["scipy.interpolate"] = None
"""


@pytest.mark.parametrize("code", [
    "from planarsp.cli import main; sys.exit(main(['verify']))",
    "from planarsp import gn_profile_field, make_grid; "
    "gn_profile_field(make_grid(40, 64), 3, 1)",
    "from planarsp.cli import main; sys.exit(main(['solve', '--gamma', '1', "
    "'--a', '1', '--p', '6', '--c', '1', '--grid-n', '64', '--out', sys.argv[1]]))",
], ids=["verify", "gn_profile_field", "solve_capped_p6"])
def test_profile_and_dilation_need_only_scipy_fft(tmp_path, code):
    # The profile spline and dilate are numpy code: the commands that use
    # them run with scipy.ndimage and scipy.interpolate blocked.
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_NDIMAGE_OR_INTERPOLATE + code, str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


def test_classify_loads_only_its_modules():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import contextlib, io, sys\n"
            "from planarsp.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['classify', '--gamma', '-1', '--a', '6.5',\n"
            "                 '--p', '3', '--c', '1']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('planarsp')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([
        "planarsp", "planarsp.cli", "planarsp.constants", "planarsp.dop853",
        "planarsp.errors", "planarsp.params"])


def test_cli_import_loads_no_scipy():
    # Nor numpy: the handlers that need either import it themselves.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; before = set(sys.modules); import planarsp.cli; "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m.split('.')[0] in ('numpy', 'scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_kernel_table_and_constants_load_no_scipy_integrate():
    # The origin-cell averages are closed forms and a numpy Gauss-Legendre
    # rule, so a kernel table imports no scipy.integrate; the constants
    # command builds no table and needs no scipy at all.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, contextlib, io\n"
            "from planarsp.functionals import kernel_table\n"
            "from planarsp.grid import make_grid\n"
            "from planarsp.cli import main\n"
            "kernel_table(make_grid(40.0, 256))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['constants', '--p', '3']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p,reason", [
    ("55", "violates its Pohozaev identities"),   # mass/C 1.7e-4 off
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


@pytest.mark.parametrize("args,quantity", [
    (["classify", "--gamma", "1", "--a", "1", "--p", "3", "--c", "1e308"], "k0"),
    (["constants", "--p", "3", "--gamma", "1", "--a", "1", "--c", "1e200"],
     "k0"),
    (["classify", "--gamma", "1e-300", "--a", "1e-300", "--p", "6", "--c", "1"],
     "c0"),
    (["classify", "--gamma", "1", "--a", "1", "--p", "6", "--c", "1e154"], "k0"),
    (["classify", "--gamma=-1e300", "--a", "1", "--p", "2.1", "--c", "1e300"],
     "(T1, T2)"),
    (["sweep", "--gamma", "1", "--p", "6", "--a-min", "1", "--a-max", "2",
      "--c-min", "1", "--c-max", "1e300"], "k0"),
    # a * gamma overflows, so c0 underflows to 0 and c < c0 would read false
    (["classify", "--gamma", "1e300", "--a", "1e300", "--p", "6", "--c", "1e-250"],
     "c0"),
    (["classify", "--gamma", "1", "--a", "1", "--p", "6", "--c", "1e-200"], "k0"),
], ids=["classify_k0_overflow", "constants_k0_overflow", "classify_c0_zero_divisor",
        "classify_k0_inf", "classify_a_thresholds_inf", "sweep_k0_overflow",
        "classify_c0_underflow", "classify_k0_underflow"])
def test_threshold_out_of_float_range_exits_2(tmp_path, capsys, args, quantity):
    # A closed-form threshold past the float range, or underflowed to zero,
    # is refused by name, and sweep writes nothing.
    assert run_cli(args + (["--out", str(tmp_path)] if args[0] == "sweep"
                           else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and quantity in captured.err
    assert list(tmp_path.iterdir()) == []


def test_classify_near_p2_exits_0(capsys):
    # The profile at p = 2.01 decays only by r = 75: the shoot must run past
    # it for the Pohozaev check to hold.
    assert run_cli(["classify", "--gamma", "1", "--a", "1", "--p", "2.01",
                    "--c", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["tag"] == "GlobalMin"


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
        "pohozaev_tol": K._POHOZAEV_TOL,
        "shooting_bisections": K._SHOOTING_BISECTIONS}


def test_constants_with_full_params(capsys):
    assert run_cli(["constants", "--p", "6", "--gamma", "1", "--a", "1",
                    "--c", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["c0"] is not None
    assert payload["k0"] == pytest.approx(0.5)


def test_classify_and_sweep_do_not_build_kv2(tmp_path, monkeypatch, capsys):
    # Nor does solve: no part of a solve uses kv2, and its report omits it.
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
    out = tmp_path / "solve"
    assert run_cli(["solve", "--gamma", "1", "--a", "0", "--p", "3", "--c", "1",
                    "--grid-n", "64", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert "kv2" not in report["constants"]


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


def test_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1]")
    assert run_cli(["classify", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: config file must contain a JSON object\n"


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


def test_fiber_range_starts_left_of_a_small_minus_point(tmp_path):
    # gamma = -1e-12 puts the minus point of the default Gaussian (A = 1,
    # C = 0.376 at p = 3) near 2e-12; the default range starts a decade
    # below it, where phi > 0.
    out = tmp_path / "fib"
    assert run_cli(["fiber", "--gamma=-1e-12", "--a", "1", "--p", "3", "--c", "1",
                    "--grid-n", "64", "--out", str(out)]) == 0
    first = [float(x) for x in (out / "fiber.csv").read_text().splitlines()[1].split(",")]
    assert first[0] < 1e-12 and first[4] > 0.0


def test_fiber_refuses_an_overflowing_stationary_point(tmp_path, capsys):
    # t_star = ratio^(1/(4 - p)) overflows a float at p = 3.999
    out = tmp_path / "fib"
    assert run_cli(["fiber", "--gamma", "1", "--a", "100", "--p", "3.999", "--c", "1",
                    "--grid-n", "64", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("regime refusal: ") and err.count("\n") == 1
    assert "numerically degenerate" in err
    assert not (out / "fiber.csv").exists()


def test_fiber_on_a_grid_too_large_for_memory_exits_2(tmp_path, capsys):
    # A 2^23 x 2^23 float64 array needs 512 TiB, more than a 47-bit address
    # space holds: numpy's MemoryError is refused on one line, not as a
    # traceback, and nothing is written.
    out = tmp_path / "fib"
    assert run_cli(["fiber", "--gamma", "1", "--a", "1", "--p", "3", "--c", "1",
                    "--grid-n", "8388608", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, L, message", [
    ("solve", "2e154", "config error: grid.L = 2e+154 is too large: its square overflows"),
    ("solve", "1e300", "config error: grid.L = 1e+300 is too large: its square overflows"),
    ("fiber", "1e300", "config error: grid.L = 1e+300 is too large: its square overflows"),
    # L^2 = 1e308 is finite: the unit Gaussian underflows on every node and
    # is refused downstream, as before the extent check.
    ("solve", "1e154", "config error: kinetic invariant must be positive"),
], ids=["solve_2e154", "solve_1e300", "fiber_1e300", "solve_1e154"])
def test_an_extent_whose_square_overflows_is_refused(tmp_path, capsys, command, L,
                                                      message):
    # Sampling a profile squares the coordinates: an extent whose square
    # overflows is refused by name before any numpy overflow warning.
    out = tmp_path / "x"
    assert run_cli([command, "--gamma", "1", "--a", "0", "--p", "3", "--c", "1",
                    "--grid-n", "64", "--grid-L", L, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_fiber_range_override(tmp_path):
    out = tmp_path / "fib"
    assert run_cli(["fiber", "--gamma", "1", "--a", "1", "--p", "6", "--c", "1",
                    "--grid-L", "40", "--grid-n", "128", "--t-min", "0.5",
                    "--t-max", "2.0", "--out", str(out)]) == 0
    rows = (out / "fiber.csv").read_text().strip().splitlines()[1:]
    ts = [float(r.split(",")[0]) for r in rows]
    assert ts[0] == pytest.approx(0.5, rel=1e-9)
    assert ts[-1] == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("t_range", [["--t-max", "inf"], ["--t-max", "1e300"],
                                     ["--t-min", "1e-320"]],
                         ids=["infinite", "overflowing", "underflowing"])
def test_fiber_refuses_a_t_range_before_writing(tmp_path, capsys, t_range):
    # An infinite end, or a range where the fiber map overflows or divides
    # by an underflowed t^2, is refused by name and nothing is written.
    out = tmp_path / "fib"
    assert run_cli(["fiber", "--gamma", "1", "--a", "1", "--p", "6", "--c", "1",
                    "--grid-n", "64", *t_range, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "t range" in err
    assert not (out / "fiber.csv").exists()


def test_fiber_p4_range_centers_on_its_root(tmp_path):
    # critical_points solves p = 4 in closed form; the default range starts
    # a decade below that root, as at every other exponent.
    from planarsp import Params, ProfileSpec, discretize, make_grid
    from planarsp.fiber import critical_points, scalars

    params = Params(gamma=1.0, a=1.0, p=4.0, c=1.0)
    u = discretize(ProfileSpec.gaussian(sigma=1.0), make_grid(40.0, 64))
    (point,) = critical_points(scalars(u, params))
    assert point.s == pytest.approx(0.5212, abs=1e-4)
    out = tmp_path / "fib"
    assert run_cli(["fiber", "--gamma", "1", "--a", "1", "--p", "4", "--c", "1",
                    "--grid-n", "64", "--out", str(out)]) == 0
    rows = (out / "fiber.csv").read_text().splitlines()[1:]
    ts = [float(r.split(",")[0]) for r in rows]
    assert ts[0] == pytest.approx(point.s / 10.0, rel=1e-11)
    assert ts[-1] == pytest.approx(10.0 * point.s, rel=1e-11)


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


def test_sweep_one_point_axis_is_a_min(tmp_path):
    out = tmp_path / "sw"
    assert run_cli(["sweep", "--gamma", "1", "--p", "3", "--a-min", "0.3",
                    "--a-max", "2", "--na", "1", "--c-min", "1", "--c-max", "2",
                    "--nc", "3", "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    assert all(float(row.split(",")[0]) == 0.3 for row in rows)


def test_sweep_bad_bounds_exit_2(tmp_path):
    assert run_cli(["sweep", "--gamma", "-1", "--p", "3", "--a-min", "5",
                    "--a-max", "1", "--c-min", "0.5", "--c-max", "2.0",
                    "--out", str(tmp_path)]) == 2


def test_sweep_axis_is_linspace():
    # The sweep lattice is numpy.linspace's formula in Python floats: the
    # same values bit for bit, the lone point of a one-point axis included.
    from planarsp.cli import _axis

    rng = np.random.default_rng(15)
    for _ in range(300):
        lo = float(rng.uniform(-20.0, 20.0))
        hi = lo + float(10.0 ** rng.uniform(-9.0, 4.0))
        n = int(rng.integers(1, 200))
        assert _axis("a", lo, hi, n) == np.linspace(lo, hi, n).tolist()


@pytest.mark.parametrize("bounds", [
    ["--a-min", "1", "--a-max", "2", "--na", "0", "--c-min", "1", "--c-max", "2"],
    ["--a-min", "1", "--a-max", "2", "--c-min", "1", "--c-max", "2", "--nc", "-3"],
    ["--a-min", "1", "--a-max", "inf", "--na", "1", "--c-min", "1", "--c-max", "2"],
    ["--a-min", "1", "--a-max", "2", "--c-min", "1", "--c-max", "1e309"],
], ids=["no_a_point", "negative_nc", "infinite_a_max", "infinite_c_max"])
def test_sweep_refuses_empty_or_infinite_lattice(tmp_path, capsys, bounds):
    out = tmp_path / "sw"
    assert run_cli(["sweep", "--gamma", "1", "--p", "3", *bounds,
                    "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: sweep")
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("args,message", [
    (["--p", "3", "--a-min", "1", "--a-max", "2", "--c-min", "1", "--c-max", "2"],
     "sweep requires gamma and p"),
    (["--gamma", "1", "--a-min", "1", "--a-max", "2", "--c-min", "1", "--c-max", "2"],
     "sweep requires gamma and p"),
    (["--gamma", "-1", "--p", "3", "--a-min", "0", "--a-max", "2", "--c-min", "1",
      "--c-max", "2"], "sweep over a requires positive couplings for gamma < 0"),
    (["--gamma", "1", "--p", "3", "--a-min", "1", "--a-max", "2", "--c-min", "0",
      "--c-max", "2"], "sweep masses must be positive"),
], ids=["no_gamma", "no_p", "nonpositive_a_for_negative_gamma", "nonpositive_c"])
def test_sweep_refuses_bad_parameters(tmp_path, capsys, args, message):
    out = tmp_path / "sw"
    assert run_cli(["sweep", *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == f"config error: {message}"
    assert not out.exists()


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
    assert report["constants"]["kgn"] == K.kgn_estimate(3.0)
    solver_fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert set(report["config"]["solver"]) == solver_fields
    assert report["config"]["branch"] == "auto"
    field = read_field(out / "solution.lpf")
    assert field.grid.n == 128
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,F,Q,grad_res,A,C,V"
    # The header, then one row per iteration and one for the start of
    # each level: 64^2 and 128^2.
    assert [lv["n"] for lv in report["levels"]] == [64, 128] and report["iters"] > 0
    assert len(trace) == 1 + report["iters"] + len(report["levels"])


def test_solve_regime_refusal_exit_4(tmp_path):
    assert run_cli(["solve", "--gamma", "-1", "--a", "-1", "--p", "3",
                    "--c", "1", "--out", str(tmp_path / "x")]) == 4
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("branch", ["minus", "plus"])
def test_solve_refuses_a_branch_without_fiber_branches(tmp_path, capsys, branch):
    # GlobalMin has no branch solver: a fiber branch is refused, not ignored,
    # and nothing is written (auto, the default, runs global_minimize).
    out = tmp_path / "x"
    assert run_cli(["solve", "--gamma", "1", "--a", "0", "--p", "3", "--c", "1",
                    "--grid-n", "64", "--branch", branch,
                    "--out", str(out)]) == 4
    assert "regime GlobalMin has no fiber branches" in capsys.readouterr().err
    assert not out.exists()


def test_solve_refuses_the_published_gamma_negative_window(tmp_path, capsys,
                                                           monkeypatch):
    # At p = 3 below T1 the Pohozaev set is empty (LambdaEmpty); from T1 up
    # to T2 it is empty too, and the certificate quotes the sharp
    # Gagliardo-Nirenberg bound t*^2 A <= (a/T2)^(2/(4-p)) k0 < k0.  solve
    # refuses by certificate before any grid work: nothing is solved, no
    # kernel table is built and nothing is written.
    import planarsp.functionals as functionals

    def no_table(grid):
        raise AssertionError("the refusal must not build a kernel table")

    monkeypatch.setattr(functionals, "kernel_table", no_table)
    t1, t2 = K.a_thresholds(3.0, -1.0, 1.0, K.kgn_estimate(3.0))
    for a in (0.5, t1, 0.5 * (t1 + t2)):
        out = tmp_path / repr(a)
        assert run_cli(["solve", "--gamma", "-1", "--a", repr(a), "--p", "3",
                        "--c", "1", "--grid-n", "128", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert not out.exists()
        if a >= t1:
            pr = Params(gamma=-1.0, a=a, p=3.0, c=1.0)
            bound = (a / t2) ** (2.0 / (4.0 - pr.p)) * K.k0(pr)
            assert "Pohozaev set is empty" in err
            assert f"T2 = {t2}" in err
            assert f"k0 = {bound}" in err


@pytest.mark.parametrize("branch", ["auto", "plus"])
def test_solve_classifies_once(tmp_path, monkeypatch, branch):
    # solve classifies to pick its solver and the solver classifies its own
    # parameters: twice in all, and no level of the 256^2 grid ladder
    # classifies again.  No step is taken, so the solve ends unconverged
    # (exit 3).
    calls = []
    classify = K.regime_classify
    monkeypatch.setattr(K, "regime_classify",
                        lambda *args: calls.append(args) or classify(*args))
    assert run_cli(["solve", "--gamma", "1", "--a", "1", "--p", "6", "--c", "1",
                    "--grid-n", "256", "--branch", branch,
                    "--out", str(tmp_path / "x"),
                    "--config", str(_mk_cfg(tmp_path, {"solver": {"max_iter": 0}}))]) == 3
    assert len(calls) == 2


def test_solve_branch_starts_on_its_branch(tmp_path):
    # With no profile given, a branch solve reads the default profile, as
    # every solve does, and the solver places it on its branch; on the
    # default L = 40 at 64^2 the plus branch converges.
    from planarsp import ProfileSpec

    out = tmp_path / "plus"
    assert run_cli(["solve", "--gamma", "1", "--a", "1", "--p", "6", "--c", "1",
                    "--grid-n", "64", "--branch", "plus", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    default = json.loads(json.dumps(dataclasses.asdict(ProfileSpec(kind="gaussian"))))
    assert report["config"]["profile"] == default
    assert report["converged"] and report["branch"] == "plus"


def test_solve_on_too_coarse_a_grid_exits_2(tmp_path, capsys):
    # The minus-branch start is narrower than two cells of a 64^2 grid on
    # L = 40: a configuration error (exit 2), not a regime refusal, and
    # nothing is written.
    out = tmp_path / "minus"
    assert run_cli(["solve", "--gamma", "1", "--a", "1", "--p", "6", "--c", "1",
                    "--grid-n", "64", "--branch", "minus", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "grid too coarse" in err and "regime refusal" not in err
    assert not out.exists()


def test_solve_from_a_start_with_an_unresolved_branch_point_exits_2(tmp_path, capsys):
    # The unit Gaussian is admissible on a 128^2 grid on L = 40, but its
    # minus point (a dilation by t = 6.6) is not resolved there: the start
    # is refused as such at each level, exit 2, and nothing is written.
    out = tmp_path / "minus"
    assert run_cli(["solve", "--gamma", "1", "--a", "1", "--p", "6", "--c", "1",
                    "--grid-n", "128", "--branch", "minus", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lambda_branch_minimize[minus]: grid too coarse "
                          "for the start's branch point: dilation by t=6.6")
    assert not out.exists()


def test_solve_leaking_iterate_exits_2(tmp_path, capsys):
    # The minus branch at gamma = a = 1, p = 6, c = 1 on L = 16: the 256^2
    # flow's iterate leaks through the boundary frame, a DomainError of the
    # flow, and nothing is written.
    out = tmp_path / "out"
    assert run_cli(["solve", "--gamma", "1", "--a", "1", "--p", "6", "--c", "1",
                    "--branch", "minus", "--grid-L", "16", "--grid-n", "256",
                    "--out", str(out)]) == 2
    assert "leaks mass through the boundary frame" in capsys.readouterr().err
    assert not out.exists()


def test_solve_capped_start_whose_fiber_minimum_leaks_exits_2(tmp_path, capsys):
    # A start far above the kinetic cap on L = 8: its fiber minimum, which
    # lies inside the cap, does not fit in the domain.  That is the domain's
    # fault (exit 2), not the regime's, and nothing is written; on L = 40
    # at 256^2 the same solve converges.
    out = tmp_path / "out"
    assert run_cli(["solve", "--gamma", "1", "--a", "1", "--p", "6", "--c", "1.583",
                    "--grid-L", "8", "--grid-n", "64", "--sigma", "0.3",
                    "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "above the kinetic cap" in err and "boundary frame" in err
    assert "regime refusal" not in err
    assert not out.exists()


def test_solve_ladder_report_replays(tmp_path):
    # A 256^2 solve runs the 64^2 and 128^2 levels first; its report lists
    # all three, its trace numbers the rows of each, and the replay writes
    # the same report.json, solution.lpf and trace.csv, byte for byte.
    first, again = tmp_path / "first", tmp_path / "again"
    assert run_cli(["solve", "--gamma", "1", "--a", "0", "--p", "3", "--c", "1",
                    "--sigma", "1.5", "--trace", "--out", str(first)]) == 0
    assert run_cli(["solve", "--config", str(first / "report.json"),
                    "--out", str(again)]) == 0
    report = json.loads((first / "report.json").read_text())
    assert [lv["n"] for lv in report["levels"]] == [64, 128, 256]
    assert report["iters"] == sum(lv["iters"] for lv in report["levels"]) > 0
    assert report["F_err_grid"] == abs(report["levels"][2]["F"]
                                       - report["levels"][1]["F"])
    assert 0.0 < report["spectral_tail"] < 1e-6
    trace = (first / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,F,Q,grad_res,A,C,V"
    assert [int(row.split(",")[0]) for row in trace[1:]] == list(range(len(trace) - 1))
    for name in ("report.json", "solution.lpf", "trace.csv"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


def test_solve_nonconvergence_exit_3(tmp_path):
    out = tmp_path / "nc"
    code = run_cli(["solve", "--gamma", "1", "--a", "0", "--p", "3", "--c", "1",
                    "--grid-L", "40", "--grid-n", "128", "--out", str(out),
                    "--config", str(_mk_cfg(tmp_path, {"solver": {"max_iter": 3}}))])
    assert code == 3
    # the report is still written
    report = json.loads((out / "report.json").read_text())
    assert not report["converged"]


def test_solve_refused_recenter_exits_3_with_its_report(tmp_path, monkeypatch, capsys):
    # A recenter the resolution guard refuses ends the run unconverged: exit
    # 3 with report.json and solution.lpf written (once exit 3 and nothing).
    from planarsp import dilate, normalize, solvers

    recenter = solvers._FiberBranch.recenter

    def dilate_by_3(self, pt, stalled, recenters):
        moved = recenter(self, pt, stalled, recenters)
        return None if moved is None else normalize(dilate(pt.ev.u, 3.0), self.params.c)

    monkeypatch.setattr(solvers._FiberBranch, "recenter", dilate_by_3)
    c = 0.5 * K.c0(6.0, 1.0, 1.0, K.kgn_estimate(6.0))
    out = tmp_path / "guard"
    assert run_cli(["solve", "--gamma", "1", "--a", "1", "--p", "6", "--c", repr(c),
                    "--grid-L", "24", "--grid-n", "64", "--branch", "plus",
                    "--out", str(out)]) == 3
    assert "recentered iterate is no longer admissible" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert not report["converged"] and report["levels"][0]["n"] == 64
    assert read_field(out / "solution.lpf").grid.n == 64


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
    ({"profile": {"center": [0]}}, "profile.center must be a pair"),
    ({"profile": {"kind": "random_smooth", "seed": 1.5}}, "profile.seed"),
    ({"profile": {"kind": "random_smooth", "cutoff": 0}}, "cutoff"),
    ({"profile": {"kind": "random_smooth", "cutoff": 65}}, "cutoff"),
    ({"branch": "up"}, "unknown branch 'up'"),
], ids=["params_not_object", "grid_not_object", "solver_not_object",
        "profile_not_object", "bool_gamma", "string_a", "string_L", "bool_n",
        "fractional_n", "string_sigma", "string_center", "short_center",
        "fractional_seed", "zero_cutoff", "cutoff_above_nyquist", "unknown_branch"])
def test_solve_refuses_malformed_config(tmp_path, capsys, cfg, key):
    # Every value is checked, not coerced: True is not 1, "1" is not 1,
    # 128.9 is not 128, a cutoff of 0 is not 1, and a cutoff above n/2 = 64
    # is not band-limited on the 128 x 128 grid.
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
    ({"gamma": 1, "a": 1, "c": 1}, "constants requires an exponent p"),
    ({"p": 3, "gamma": float("nan")}, "missing parameters: a, c"),
    ({"p": 3, "c": -5}, "missing parameters: gamma, a"),
], ids=["partial_bool_gamma", "full_string_a", "full_negative_c", "no_p",
        "partial_nan_gamma", "partial_negative_c"])
def test_constants_refuses_malformed_params(tmp_path, capsys, params, key):
    # constants reads p alone or the whole tuple: a partial or malformed
    # set is refused, and nothing is printed.
    code = run_cli(["constants", "--config",
                    str(_mk_cfg(tmp_path, {"params": params}))])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert key in captured.err


@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "below_a_file"])
@pytest.mark.parametrize("command", [
    ["sweep", "--gamma", "1", "--p", "3", "--a-min", "1", "--a-max", "2",
     "--na", "2", "--c-min", "1", "--c-max", "2", "--nc", "2"],
    ["fiber", "--gamma", "1", "--a", "1", "--p", "6", "--c", "1", "--grid-n", "64"],
], ids=["sweep", "fiber"])
def test_unwritable_out_exits_2(tmp_path, capsys, command, under):
    # An --out that is a file, or lies below one, cannot be a directory.
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert run_cli([*command, "--out", str(blocker / under)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert blocker.read_text() == ""


def test_solve_unwritable_report_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "report.json").mkdir(parents=True)
    assert run_cli(["solve", "--gamma", "1", "--a", "0", "--p", "3", "--c", "1",
                    "--grid-n", "64", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "report.json" in err and "Traceback" not in err
    # The run's files are renamed into place only once all are written:
    # no solution.lpf without its report, and no temporary is left.
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]
    assert not any((out / "report.json").iterdir())


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


def test_verify_refuses_config(capsys):
    # verify runs a fixed suite and reads no config file: the parser refuses
    # --config rather than ignore it.
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--config", "run.json"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("flags, missing", [
    (["--gamma", "nan"], "a, c"),
    (["--c", "-5"], "gamma, a"),
    (["--gamma", "1", "--a", "1"], "c"),
], ids=["nan_gamma", "negative_c", "no_c"])
def test_constants_refuses_a_partial_tuple(capsys, flags, missing):
    # constants reads p alone or (gamma, a, p, c): a part of the tuple
    # beyond p would be ignored, so it is refused by name.
    assert run_cli(["constants", "--p", "3", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: missing parameters: {missing}\n"


@pytest.mark.parametrize("flag", [["--a", "99"], ["--c", "7"], ["--a", "nan"],
                                  ["--c", "-5"]],
                         ids=["a", "c", "nan_a", "negative_c"])
def test_sweep_refuses_a_and_c(tmp_path, capsys, flag):
    # The lattice sets a and c: sweep's parser has no --a or --c, so either
    # is refused (exit 2, naming the option) rather than ignored, and
    # nothing is written.
    out = tmp_path / "sw"
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--gamma", "-1", "--p", "3", *flag, "--a-min", "1",
                 "--a-max", "2", "--c-min", "1", "--c-max", "2", "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"option: {flag[0]} " in captured.err
    assert not out.exists()


def test_sweep_does_not_read_the_configs_a_and_c(tmp_path):
    # A config's params.a and params.c are checked as numbers and not read:
    # the sweep.csv is that of gamma and p alone.
    lattice = ["--a-min", "0.5", "--a-max", "12", "--na", "4", "--c-min", "0.5",
               "--c-max", "2", "--nc", "3"]
    cfg = _mk_cfg(tmp_path, {"params": {"gamma": -1, "p": 3.5, "a": 99, "c": 7}})
    assert run_cli(["sweep", "--config", str(cfg), *lattice,
                    "--out", str(tmp_path / "cfg")]) == 0
    assert run_cli(["sweep", "--gamma", "-1", "--p", "3.5", *lattice,
                    "--out", str(tmp_path / "flags")]) == 0
    assert (tmp_path / "cfg" / "sweep.csv").read_bytes() == \
        (tmp_path / "flags" / "sweep.csv").read_bytes()


@pytest.mark.parametrize("command", ["solve", "fiber"])
@pytest.mark.parametrize("flags, profile, message", [
    (["--profile", "random_smooth", "--sigma", "7"], {},
     "a random_smooth profile does not read sigma"),
    (["--profile", "two_bump", "--sigma", "2"], {"separation": 4, "scale": 1},
     "a two_bump profile does not read sigma"),
    ([], {"kind": "gaussian", "seed": 3}, "a gaussian profile does not read seed"),
    ([], {"kind": "ring", "r0": 2, "center": [1, 0]},
     "a ring profile does not read center"),
    ([], {"kind": "random_smooth", "r0": 1}, "a random_smooth profile does not read r0"),
    ([], {"kind": "gaussian", "c": 5}, "profile.c = 5.0 differs from params.c = 1.0"),
], ids=["random_smooth_sigma", "two_bump_sigma", "gaussian_seed", "ring_center",
        "random_smooth_r0", "profile_c"])
def test_profile_settings_that_change_nothing_are_refused(tmp_path, capsys, command,
                                                          flags, profile, message):
    # Each kind reads its own fields, and a profile takes the solve's mass:
    # any other setting is refused by name (exit 2), and nothing is written.
    out = tmp_path / "out"
    cfg = _mk_cfg(tmp_path, {"params": _PARAMS, "grid": {"n": 64}, "profile": profile})
    assert run_cli([command, "--config", str(cfg), *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert not out.exists()


@pytest.mark.parametrize("profile", [
    {"kind": "gaussian", "sigma": 1.5, "center": [0.5, 0.0]},
    {"kind": "ring", "r0": 1.0, "sigma": 1.2},
    {"kind": "two_bump", "separation": 4.0, "scale": 1, "radius": 1.5},
    {"kind": "random_smooth", "seed": 3, "cutoff": 4},
], ids=lambda profile: profile["kind"])
def test_solve_replays_each_profile_kind(tmp_path, profile):
    # The report records every profile field, those its kind does not read
    # at their defaults, and replays byte for byte.
    from planarsp import ProfileSpec

    first, again = tmp_path / "first", tmp_path / "again"
    cfg = _mk_cfg(tmp_path, {"params": _PARAMS, "grid": {"n": 64}, "profile": profile})
    assert run_cli(["solve", "--config", str(cfg), "--out", str(first)]) == 0
    assert run_cli(["solve", "--config", str(first / "report.json"),
                    "--out", str(again)]) == 0
    for name in ("report.json", "solution.lpf"):
        assert (again / name).read_bytes() == (first / name).read_bytes()
    defaults = {f.name: f.default for f in dataclasses.fields(ProfileSpec)
                if f.name != "kind"}
    recorded = json.loads((first / "report.json").read_text())["config"]["profile"]
    assert recorded == json.loads(json.dumps({**defaults, **profile}))


def test_verify_runs_clean(capsys):
    assert run_cli(["verify"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"]
    assert len(payload["checks"]) >= 15


@pytest.fixture
def shift_kernel_origin(monkeypatch):
    """shift(window, d) adds d to the value at zero displacement of the
    kernel window that functionals.<window> builds (_log_window or
    _log1p_window), in every table built from then on.  The table cache is
    emptied then and again after the test, so no faulted table outlives
    it."""
    import planarsp.functionals as fn

    def shift(window, d):
        true_window = getattr(fn, window)

        def shifted(n, h):
            values = true_window(n, h)
            values[0, 0] += d
            return values

        monkeypatch.setattr(fn, window, shifted)
        fn.kernel_table.cache_clear()

    yield shift
    fn.kernel_table.cache_clear()


def test_verify_detects_kernel_fault(shift_kernel_origin, capsys):
    # fault injection: a log-kernel origin value off by 1e-10 must fail the
    # suite.  The check of V against the Gaussian's closed form sees it.
    shift_kernel_origin("_log_window", 1e-10)
    code = run_cli(["verify"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    failed = {c["name"] for c in payload["checks"] if not c["passed"]}
    assert {"log_kernel_gaussian", "gaussian_closed_forms"} <= failed


def test_verify_detects_a_sharp_constant_fault(monkeypatch, capsys):
    # fault injection: K1, and with it K2 and the coupling thresholds, off by
    # 1e-6 moves the Gagliardo-Nirenberg optimizer's t*^2 A off the
    # certificate's bound by 4.0e-6 (at p = 3.5), past the 1e-9 tolerance.
    true_k1 = K.k1
    monkeypatch.setattr(K, "k1", lambda p, kgn: true_k1(p, kgn) * (1.0 + 1e-6))
    code = run_cli(["verify"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    failed = {c["name"]: c["value"] for c in payload["checks"] if not c["passed"]}
    assert failed["gn_optimizer_bound"] == pytest.approx(4.0e-6, rel=1e-2)


def test_verify_detects_v1_kernel_fault(shift_kernel_origin, capsys):
    # fault injection: a log(1+r) kernel origin value off by 0.1 moves V1 of
    # the unit Gaussian by 6.2e-4 relative, past the 2.5e-4 bound that the
    # sampled kernel's own O(h^3) error (1.1e-4) keeps below.
    shift_kernel_origin("_log1p_window", 0.1)
    code = run_cli(["verify"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    failed = {c["name"] for c in payload["checks"] if not c["passed"]}
    assert "v1_gaussian" in failed


def test_v1_check_measures_the_kernel_error(shift_kernel_origin):
    from scipy.integrate import quad

    from planarsp.checks import _V1_GAUSS_UNIT, _check_v1_gaussian

    exact, _ = quad(lambda r: np.log1p(r) * r * np.exp(-0.5 * r * r), 0.0, np.inf)
    assert _V1_GAUSS_UNIT == pytest.approx(exact, rel=1e-12)
    assert _check_v1_gaussian().value == pytest.approx(1.11e-4, rel=1e-2)
    shift_kernel_origin("_log1p_window", 0.1)
    result = _check_v1_gaussian()
    assert not result.passed
    assert result.value == pytest.approx(6.15e-4, rel=1e-2)


def test_kernel_origin_check_detects_a_small_weight_shift(shift_kernel_origin):
    # The check measures rounding only (about 1e-14), so a log-kernel origin
    # value off by 1e-10 fails it: V moves by h^2 1e-10 integral u^4 =
    # h^2 1e-10 / (2 pi), h = 1/4, which is 1.716e-11 of V.
    from planarsp.checks import _check_log_kernel

    assert _check_log_kernel().value < 1e-13
    shift_kernel_origin("_log_window", 1e-10)
    result = _check_log_kernel()
    assert not result.passed
    v_unit = 0.5 * (np.log(2.0) - 0.5772156649015329)
    assert result.value == pytest.approx(0.0625e-10 / (2.0 * np.pi) / v_unit, rel=1e-2)
