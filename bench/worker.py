"""One workload in a fresh process (untraced).

    python bench/worker.py --workload descent --seed 1 --seconds 10 --t0 <monotonic>

--t0 is the parent's time.monotonic() just before it started this process,
so setup_s covers interpreter start, import and every set-up step.  With
--mode setup the worker stops after set-up.  The last line of standard
output is a JSON object with setup_s, op_times, attempted, failed, problems,
peak_rss_mb and per-case reference figures.
"""

import argparse
import json
import resource
import sys
import time

import checks
from common import (GRID_N, WORKLOAD_CASES, BenchError, case_summary, classify_cmd,
                    cli_tuples, prepare_cases, run_child, solve)

CLI_TIMEOUT = 60.0


def _done(started, seconds):
    return time.perf_counter() - started >= seconds


def solver_workload(args):
    import planarsp as P

    prepared = prepare_cases(P, WORKLOAD_CASES[args.workload], args.descent_n)
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        return {"setup_s": setup_s}

    op_times, problems, errors, summary = [], [], [], {}
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        attempted += 1
        t = time.perf_counter()
        try:
            reports = [solve(P, case, grid) for case, grid in prepared]
        except P.PlanarSPError as exc:
            failed += 1
            errors.append(f"operation {attempted} failed: {exc}")
        else:
            op_times.append(time.perf_counter() - t)
            energies = {}
            for (case, _), rep in zip(prepared, reports):
                pr = case.params
                problems += checks.check_solution(case.name, pr.gamma, pr.a, pr.p, pr.c,
                                                  case.extent, rep.field.values, rep)
                energies[case.name] = rep.objective
                summary[case.name] = case_summary(rep)
            problems += checks.check_energy_order(energies)
        if _done(started, args.seconds):
            break
    return {"setup_s": setup_s, "op_times": op_times, "attempted": attempted,
            "failed": failed, "errors": errors, "problems": problems, "cases": summary,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def cli_workload(args):
    tuples = cli_tuples(args.seed)[: args.tuples or None]
    # Warm-up: one process that imports the whole CLI, so every timed
    # process finds the interpreter and the package in the page cache.
    code, _, err = run_child([sys.executable, "-m", "planarsp.cli", "--help"], CLI_TIMEOUT,
                             own_group=False)
    if code != 0:
        raise BenchError(f"planarsp.cli --help exited {code}: {err.strip()[-2000:]}")
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        return {"setup_s": setup_s}

    # One operation is one round over every tuple, so that every operation
    # does the same work: the cost of a classify process depends on p.
    op_times, outcomes, errors = [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        attempted += 1
        round_failed = False
        t = time.perf_counter()
        for tup in tuples:
            try:
                code, out, err = run_child(classify_cmd(tup), CLI_TIMEOUT, own_group=False)
            except BenchError as exc:
                code, err = None, str(exc)
            if code != 0:
                round_failed = True
                errors.append(f"classify {tup} exited {code}: {err.strip()[-500:]}")
                continue
            outcomes.append((tup, code, out))
        if round_failed:
            failed += 1
        else:
            op_times.append(time.perf_counter() - t)
        if _done(started, args.seconds):
            break

    kgn_ref = {p: checks.reference_kgn(p) for p in sorted({tup[3] for tup in tuples})}
    problems = []
    for tup, code, out in outcomes:
        problems += checks.check_classify(tup, code, out, kgn_ref[tup[3]])
    return {"setup_s": setup_s, "op_times": op_times, "attempted": attempted,
            "failed": failed, "errors": errors, "problems": problems,
            "tuples": [list(tup) for tup in tuples],
            "kgn_reference": {str(p): k for p, k in kgn_ref.items()},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["descent", "fiber", "cold_cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run"], default="run")
    ap.add_argument("--descent-n", type=int, default=GRID_N)
    ap.add_argument("--tuples", type=int, default=0, help="use only the first N classify tuples")
    args = ap.parse_args(argv)
    if args.workload == "cold_cli":
        result = cli_workload(args)
    else:
        result = solver_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
