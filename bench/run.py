"""planarsp benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload descent --seed 1 --seconds 10 --trace 0

Workloads (see bench/README.md):
  descent   warm in-process energy-descent solves at 256^2
  fiber     warm in-process fiber-branch flows at 256^2
  cold_cli  fresh `python -m planarsp.cli classify` processes

--trace 0 runs the workload untraced in fresh processes, one after another:
SETUPS set-ups (their median is setup_s), the last of which goes on to the
timed loop (op_s, peak_rss_mb).
--trace 1 runs bench/traced.py instead and reports the per-layer metrics,
including the tracing overhead on this workload: traced against untraced
operations, alternated.
Every process of a run is pinned to one CPU.
The last line of standard output is the result as one JSON object.
"""

import argparse
import json
import os
import statistics
import sys
import time

from common import (GRID_N, OUT_DIR, SRC, WORKLOAD_CASES, BenchError, classify_cmd,
                    cli_tuples, last_json, parse_last_json, run_child, start_child)

SETUPS = 3               # set-ups per run; setup_s is their median
DEADLINE_S = 170.0       # every run ends within 180 s
IMPORT_PROBES = 3
OVERHEAD_PAIRS = 2       # traced/untraced classify pairs on cold_cli
IMPORT_CODE = ("import time; t = time.perf_counter(); import planarsp; "
               "print(time.perf_counter() - t)")


class Clock:
    def __init__(self):
        self.end = time.monotonic() + DEADLINE_S

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left


def start_worker(args, mode):
    cmd = [sys.executable, "bench/worker.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--descent-n", str(args.descent_n), "--tuples", str(args.tuples)]
    # The worker's set-up clock starts here, before its interpreter does.
    return start_child([*cmd, "--t0", repr(time.monotonic())])


def worker(args, clock, mode):
    return parse_last_json(start_worker(args, mode), clock.left())


def untraced(args, clock):
    # Set-up-only processes, then the measured one, one after another.
    setups = [worker(args, clock, "setup")["setup_s"] for _ in range(SETUPS - 1)]
    res = worker(args, clock, "run")
    if not res["op_times"]:
        raise BenchError(f"no operation succeeded: {res['errors']}")
    setups.append(res["setup_s"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s": (statistics.median(res["op_times"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    res["setups"] = setups
    return res, metrics


def pin_to_one_cpu():
    """Pin this process, and so every process it starts, to its lowest CPU.

    A process that moves between CPUs whose speeds drift apart times the
    same work differently from run to run; one CPU keeps all runs alike."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def timed_child(cmd, clock):
    t = time.perf_counter()
    code, _, err = run_child(cmd, clock.left())
    if code != 0:
        raise BenchError(f"{' '.join(cmd[:4])} ... exited {code}: {err.strip()[-2000:]}")
    return time.perf_counter() - t


def traced(args, clock):
    res = last_json([sys.executable, "bench/traced.py", "--workload", args.workload,
                     "--descent-n", str(args.descent_n)], clock.left())
    metrics = {k: (v["value"], v["unit"]) for k, v in res.pop("metrics").items()}
    imports = []
    for _ in range(IMPORT_PROBES):
        code, out, err = run_child([sys.executable, "-c", IMPORT_CODE], clock.left())
        if code != 0:
            raise BenchError(f"import planarsp failed: {err.strip()[-2000:]}")
        imports.append(float(out.strip().splitlines()[-1]))
    metrics["planarsp.import_s"] = (statistics.median(imports), "s")

    if args.workload in WORKLOAD_CASES:
        if res["overhead"] is None:
            raise BenchError(f"traced {args.workload} cases failed: {res['errors']}")
        traced_s, plain_s = res["overhead"]
    else:
        # Untraced and traced classify processes alternate.
        tup = cli_tuples(args.seed)[0]
        plain, with_hooks = [], []
        for _ in range(OVERHEAD_PAIRS):
            plain.append(timed_child(classify_cmd(tup), clock))
            with_hooks.append(timed_child(classify_cmd(tup, ("bench/traced_cli.py",)), clock))
        traced_s, plain_s = statistics.median(with_hooks), statistics.median(plain)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    res["overhead"] = {"traced_op_s": traced_s, "untraced_op_s": plain_s}
    return res, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["descent", "fiber", "cold_cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--descent-n", type=int, default=GRID_N, help=argparse.SUPPRESS)
    ap.add_argument("--tuples", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "planarsp" / "__init__.py").is_file():
        print(f"planarsp sources not found under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    clock = Clock()
    try:
        res, metrics = traced(args, clock) if args.trace else untraced(args, clock)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"args": vars(args), "metrics": metrics, **res}, indent=1))
    for error in res.get("errors", []):
        print(f"operation failed: {error}")
    for problem in res["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
