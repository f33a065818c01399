"""Traced run: per-layer metrics from timed calls into planarsp's public API.

    python bench/traced.py [--descent-n 256]

The counting wrappers of hooks.py are installed before planarsp is
imported.  Every timing is a perf_counter span around one public call (or a
batch of calls for microsecond-scale functions); fresh state comes from an
exponent or a grid extent not used before in this process, never from
clearing a package cache.  The last line of standard output is a JSON
object with the metrics, the solve time of each workload's cases, the
problems found by the checks and the recorded spans.
"""

import argparse
import json
import statistics
import sys
import time
from contextlib import contextmanager

import checks
from common import CASES, GRID_N, WORKLOAD_CASES, case_summary, prepare_cases, solve
from hooks import Counters

SIZES = (128, 256, 512)
OVERHEAD_PAIRS = {"descent": 1, "fiber": 3}   # untraced/traced operation pairs
REPS = {128: 21, 256: 11, 512: 5}
FRESH_EXTENTS = (40.25, 40.5, 40.75)
EXPONENTS = (3.0, 6.0)        # the exponents of the solver cases


class Tracer:
    """Spans with wall time and wrapped-call counts, kept in memory."""

    def __init__(self, counters):
        self.counters = counters
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        before = self.counters.snapshot()
        start = time.perf_counter()
        try:
            yield rec
        finally:
            rec["start"] = start
            rec["s"] = time.perf_counter() - start
            after = self.counters.snapshot()
            rec["fft"] = after["fft"] - before["fft"]
            rec["ode"] = after["ode"] - before["ode"]
            self._stack.pop()

    def median_s(self, name, fn, reps, batch=1):
        """Median seconds of one call of fn over reps spans of batch calls."""
        times = []
        for _ in range(reps):
            with self.span(name) as rec:
                for _ in range(batch):
                    fn()
            times.append(rec["s"] / batch)
        return statistics.median(times)


def ground_state_metrics(P, tr, m):
    tiny = P.make_grid(8.0, 16)
    shoots = []
    for p in EXPONENTS:
        # gn_profile_field runs the radial shooting solve for a new exponent;
        # the 16^2 discretization around it is negligible.
        with tr.span(f"constants.ground_state p={p}") as rec:
            P.gn_profile_field(tiny, p, 1.0)
        shoots.append(rec)
    m["constants.ground_state_s"] = (statistics.median(r["s"] for r in shoots), "s")
    m["constants.shoots_per_ground_state"] = (shoots[0]["ode"], "count")
    # With the ground state cached, kgn_estimate adds the Rayleigh cross-check.
    checks_s = []
    for p in EXPONENTS:
        with tr.span(f"constants.rayleigh_check p={p}") as rec:
            P.kgn_estimate(p)
        checks_s.append(rec["s"])
    m["constants.rayleigh_check_s"] = (statistics.median(checks_s), "s")


def table_metrics(P, kernel_table, tr, m):
    for n in SIZES:
        builds = []
        for L in FRESH_EXTENTS:
            with tr.span(f"functionals.kernel_table n={n} L={L}") as rec:
                kernel_table(P.make_grid(L, n))
            builds.append(rec["s"])
        m[f"functionals.kernel_table_s.n{n}"] = (statistics.median(builds), "s")
    kv2 = []
    for L in FRESH_EXTENTS:
        with tr.span(f"constants.kv2 L={L}") as rec:
            P.kv2_estimate(P.make_grid(L, 128))   # table built above
        kv2.append(rec["s"])
    m["constants.kv2_s"] = (statistics.median(kv2), "s")

    sharp = P.sharp_constants(3.0)
    params = [P.Params(1.0, 1.0, 3.0, 1.0), P.Params(-1.0, 0.5, 3.0, 2.0),
              P.Params(-1.0, 1.0, 3.0, 1.0), P.Params(-1.0, -1.0, 3.0, 1.0)]

    def classify_all():
        for pr in params:
            P.regime_classify(pr, sharp)

    m["constants.classify_us"] = (
        1e6 * tr.median_s("constants.classify", classify_all, 5, batch=250) / len(params), "us")


def functionals_metrics(P, kernel_table, tr, m):
    pr = P.Params(gamma=1.0, a=1.0, p=3.0, c=1.0)
    for n in SIZES:
        grid = P.make_grid(40.0, n)
        table = kernel_table(grid)
        u = P.discretize(P.ProfileSpec.gaussian(sigma=1.5), grid)
        calls = {
            "grad_energy": lambda: P.grad_energy(u, pr, table),
            "log_potential": lambda: P.log_potential(u, table),
            "kinetic": lambda: P.kinetic(u, table),
            "energy": lambda: P.energy(u, pr, table),
        }
        for name, fn in calls.items():
            fn()  # first call on this size plans the transforms
            m[f"functionals.{name}_ms.n{n}"] = (
                1e3 * tr.median_s(f"functionals.{name} n={n}", fn, REPS[n]), "ms")
        if n != 256:
            continue

        def certify():
            P.energy(u, pr, table)
            lam = P.lagrange_multiplier(u, pr, table)
            P.pohozaev_residual(u, pr, lam, table)
            P.el_residual(u, pr, lam, table)

        m["functionals.certify_ms.n256"] = (
            1e3 * tr.median_s("functionals.certify n=256", certify, REPS[n]), "ms")
        with tr.span("functionals.grad_energy count") as rec:
            P.grad_energy(u, pr, table)
        m["functionals.ffts_per_grad_energy"] = (rec["fft"], "count")
        with tr.span("functionals.certify count") as rec:
            certify()
        m["functionals.ffts_per_certify"] = (rec["fft"], "count")

        sc = P.FiberScalars(A=1.0, C=1.0, V=0.0, params=P.Params(1.0, 1.0, 6.0, 1.0))
        m["fiber.critical_points_us"] = (
            1e6 * tr.median_s("fiber.critical_points", lambda: P.critical_points(sc),
                              5, batch=500), "us")
        m["fiber.dilate_ms.n256"] = (
            1e3 * tr.median_s("fiber.dilate n=256", lambda: P.dilate(u, 1.01), REPS[n]), "ms")


def solver_metrics(P, tr, m, n):
    """Solve every case once; returns (prepared cases, solve seconds by case,
    problems, errors)."""
    solve_s, problems, energies, errors = {}, [], {}, []
    with tr.span("solvers.prepare"):
        prepared = prepare_cases(P, list(CASES), n)
    for case, grid in prepared:
        key = f"solvers.{case.name}"
        try:
            with tr.span(key) as rec:
                rep = solve(P, case, grid)
        except P.PlanarSPError as exc:
            errors.append(f"{case.name} failed: {exc}")
            continue
        summary = case_summary(rep)
        solve_s[case.name] = rec["s"]
        m[f"{key}.iters"] = (rep.iters, "count")
        m[f"{key}.ffts_per_iter"] = (rec["fft"] / rep.iters, "count/iter")
        m[f"{key}.iter_ms"] = (1e3 * rec["s"] / rep.iters, "ms")
        m[f"{key}.solve_s"] = (rec["s"], "s")
        if "recenters" in summary:
            m[f"{key}.recenters"] = (summary["recenters"], "count")
        rec["summary"] = summary
        pr = case.params
        problems += checks.check_solution(case.name, pr.gamma, pr.a, pr.p, pr.c,
                                          case.extent, rep.field.values, rep)
        energies[case.name] = rep.objective
    if n != GRID_N:
        energies.pop("capped_p6", None)   # F(plus) = F(capped) holds on one grid only
    problems += checks.check_energy_order(energies)
    return prepared, solve_s, problems, errors


def overhead_ratio(P, counters, prepared, workload, traced_s):
    """Traced over untraced time of one operation of a solver workload.

    The two kinds of operation alternate in this process, the untraced ones
    with the library attributes restored (a warm solve calls no solve_ivp),
    so that slow drifts of the machine's speed affect both alike."""
    ops = [(case, grid) for case, grid in prepared if case.name in WORKLOAD_CASES[workload]]

    def timed():
        t = time.perf_counter()
        for case, grid in ops:
            solve(P, case, grid)
        return time.perf_counter() - t

    traced, plain = [traced_s], []
    for i in range(OVERHEAD_PAIRS[workload]):
        counters.uninstall()
        plain.append(timed())
        counters.install()
        if i + 1 < OVERHEAD_PAIRS[workload]:
            traced.append(timed())
    return statistics.median(traced), statistics.median(plain)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["descent", "fiber", "cold_cli"], default="cold_cli",
                    help="workload whose tracing overhead is measured here "
                         "(cold_cli: none, run.py measures it on processes)")
    ap.add_argument("--descent-n", type=int, default=GRID_N, help="grid of the descent cases")
    args = ap.parse_args(argv)

    counters = Counters().install()
    tracer = Tracer(counters)
    import planarsp as P
    from planarsp.functionals import kernel_table

    m = {}
    ground_state_metrics(P, tracer, m)
    # The solves come before any 512^2 work.  Freeing the 8 MB arrays of a
    # 512^2 table raises glibc's trim threshold, after which the ~2 MB
    # per-iteration temporaries are no longer returned to the system and a
    # solve runs about a quarter faster than in a fresh worker process.
    prepared, solve_s, problems, errors = solver_metrics(P, tracer, m, args.descent_n)
    overhead = None
    names = WORKLOAD_CASES.get(args.workload, ())
    if names and all(c in solve_s for c in names):
        overhead = overhead_ratio(P, counters, prepared, args.workload,
                                  sum(solve_s[c] for c in names))
    table_metrics(P, kernel_table, tracer, m)
    functionals_metrics(P, kernel_table, tracer, m)
    print(json.dumps({"metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
                      "overhead": overhead, "attempted": len(CASES), "failed": len(errors),
                      "errors": errors, "problems": problems, "spans": tracer.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
