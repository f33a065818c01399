"""Tests of the benchmark itself: each check fails on a wrong input, and each
workload runs to its end at a small size.

    python -m pytest bench/tests -q

The workload tests start the benchmark as the driver does, from the
repository root; together they take about two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from common import child_env, cli_tuples  # noqa: E402

END_TO_END = {"setup_s", "op_s", "peak_rss_mb"}


@pytest.fixture(scope="module")
def kgn3():
    return checks.reference_kgn(3.0)


def gaussian(extent, n, sigma, c):
    x = -0.5 * extent + extent / n * np.arange(n)
    r2 = x[:, None] ** 2 + x[None, :] ** 2
    return np.sqrt(c / np.pi) / sigma * np.exp(-r2 / (2.0 * sigma ** 2))


def fake_report(values, extent, p, F=-1.0):
    _, A, C = checks.invariants(values, extent, p)
    return SimpleNamespace(converged=True, q_residual=0.0, el_res=0.0, pohozaev_res=0.0,
                           objective=F, breakdown=SimpleNamespace(A=A, C=C))


# ---------------------------------------------------------------------------
# Solver checks
# ---------------------------------------------------------------------------


def test_field_on_pohozaev_set_passes():
    # a = 0: Q = A - gamma c^2/4 vanishes for the Gaussian with sigma^2 = 4/(gamma c).
    u = gaussian(40.0, 256, 2.0, 1.0)
    rep = fake_report(u, 40.0, 3.0)
    assert checks.check_solution("ground_state_p3", 1.0, 0.0, 3.0, 1.0, 40.0, u, rep) == []


def test_field_off_pohozaev_set_fails():
    u = gaussian(40.0, 256, 1.5, 1.0)
    rep = fake_report(u, 40.0, 3.0)
    problems = checks.check_solution("ground_state_p3", 1.0, 0.0, 3.0, 1.0, 40.0, u, rep)
    assert any("off the Pohozaev set" in p for p in problems)


def test_wrong_mass_and_unconverged_fail():
    u = gaussian(40.0, 256, 2.0, 1.0)
    rep = fake_report(u, 40.0, 3.0)
    rep.converged, rep.el_res = False, 2e-3
    problems = checks.check_solution("ground_state_p3", 1.0, 0.0, 3.0, 1.01, 40.0, u, rep)
    assert any("not converged" in p for p in problems)
    assert any("el_res" in p for p in problems)
    assert any("mass" in p for p in problems)


def test_energy_above_best_gaussian_fails():
    u = gaussian(40.0, 256, 2.0, 1.0)
    bound = checks.best_gaussian_energy(1.0, 0.0, 3.0, 1.0)
    rep = fake_report(u, 40.0, 3.0, F=bound + 1e-6)
    problems = checks.check_solution("ground_state_p3", 1.0, 0.0, 3.0, 1.0, 40.0, u, rep)
    assert any("best Gaussian energy" in p for p in problems)


def test_reported_invariant_mismatch_fails():
    u = gaussian(40.0, 256, 2.0, 1.0)
    rep = fake_report(u, 40.0, 3.0)
    rep.breakdown.A *= 1.0 + 1e-4
    problems = checks.check_solution("ground_state_p3", 1.0, 0.0, 3.0, 1.0, 40.0, u, rep)
    assert any("reported A" in p for p in problems)


def test_branch_sign_and_cap_fail():
    # gamma = 1, a = 1, p = 6: g''(1) = 2A - 16 C/6 and k0 = c^2.
    u = gaussian(24.0, 256, 1.0, 1.0)
    _, A, C = checks.invariants(u, 24.0, 6.0)
    gpp = 2.0 * A - 16.0 * C / 6.0
    name = "minus_p6" if gpp > 0 else "plus_p6"
    problems = checks.check_solution(name, 1.0, 1.0, 6.0, 1.0, 24.0, u, fake_report(u, 24.0, 6.0))
    assert any("g''(1)" in p for p in problems)
    c_small = 0.5 * np.sqrt(A)   # puts A above the cap k0 = c^2
    v = u * np.sqrt(c_small)
    problems = checks.check_solution("capped_p6", 1.0, 1.0, 6.0, c_small, 24.0, v,
                                     fake_report(v, 24.0, 6.0))
    assert any("cap" in p for p in problems)


def test_energy_order():
    assert checks.check_energy_order({"plus_p6": 0.6, "minus_p6": 4.3}) == []
    assert checks.check_energy_order({"plus_p6": 4.3, "minus_p6": 0.6})
    assert checks.check_energy_order({"plus_p6": 0.6, "minus_p6": 4.3, "capped_p6": 0.6}) == []
    assert checks.check_energy_order({"plus_p6": 0.6, "capped_p6": 0.6001})


# ---------------------------------------------------------------------------
# Classify checks
# ---------------------------------------------------------------------------


def classify_stdout(tag, kgn):
    return json.dumps({"tag": tag, "certificate": {"kgn": kgn}, "thresholds": {"kgn": kgn}})


def test_reference_kgn_matches_townes_mass():
    assert checks.reference_kgn(4.0) == pytest.approx(2.0 / checks.TOWNES_MASS, rel=1e-5)


def test_classify_output_passes(kgn3):
    tup = cli_tuples(7)[0]
    assert checks.check_classify(tup, 0, classify_stdout("GlobalMin", kgn3), kgn3) == []


def test_kgn_off_by_one_percent_fails(kgn3):
    tup = cli_tuples(7)[0]
    problems = checks.check_classify(tup, 0, classify_stdout("GlobalMin", 1.01 * kgn3), kgn3)
    assert any("collocation value" in p for p in problems)


def test_kgn_off_townes_fails():
    tup = cli_tuples(7)[1]
    assert tup[3] == 4.0
    wrong = 1.01 * 2.0 / checks.TOWNES_MASS
    problems = checks.check_classify(tup, 0, classify_stdout(tup[0], wrong), wrong)
    assert any("2/11.7009" in p for p in problems)


def test_wrong_tag_fails(kgn3):
    tup = cli_tuples(7)[0]
    problems = checks.check_classify(tup, 0, classify_stdout("OpenUnknown", kgn3), kgn3)
    assert any("closed-form thresholds give GlobalMin" in p for p in problems)


def test_nan_json_and_bad_exit_fail(kgn3):
    tup = cli_tuples(7)[0]
    nan_out = classify_stdout("GlobalMin", float("nan"))
    assert any("bad JSON" in p for p in checks.check_classify(tup, 0, nan_out, kgn3))
    assert any("exit code" in p for p in checks.check_classify(tup, 1, "", kgn3))


def test_tuples_follow_seed_and_cover_every_regime():
    assert cli_tuples(3) == cli_tuples(3)
    assert cli_tuples(3) != cli_tuples(4)
    for seed in range(20):
        tuples = cli_tuples(seed)
        assert len({t[0] for t in tuples}) == len(tuples) == 7
        for tup in tuples:
            slot, g, a, p, c = tup
            want, pairs = checks.expected_tag(g, a, p, c, checks.KGN_APPROX[p])
            assert want == slot
            assert all(abs(v / t - 1.0) > checks.MIN_CLEARANCE for v, t in pairs)


# ---------------------------------------------------------------------------
# Workloads at a small size
# ---------------------------------------------------------------------------


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", "--seed", "5", "--seconds", "1",
                           *args], cwd=cwd, capture_output=True, text=True, timeout=400)


@pytest.mark.parametrize("workload, extra", [
    ("descent", ["--descent-n", "128"]),
    ("fiber", []),
    ("cold_cli", ["--tuples", "2"]),
])
def test_workload_runs_small(workload, extra):
    proc = run_bench("--workload", workload, "--trace", "0", *extra)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] is True
    assert res["attempted"] >= 1 and res["failed"] == 0
    assert set(res["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "bench/traced.py", "--descent-n", "128"],
                              cwd=ROOT, capture_output=True, text=True, timeout=400,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        assert res["problems"] == [] and res["failed"] == 0
        counts.append({k: v["value"] for k, v in res["metrics"].items()
                       if v["unit"] in ("count", "count/iter")})
    assert counts[0] == counts[1]
    assert counts[0]["functionals.ffts_per_grad_energy"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "descent", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
