"""Measurement of one workload: set-up, warm-up, the closed loop, checks, and
the optional traced repeat.  ``run.py`` is the command-line front end."""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np

import tracer as tracing
from workloads import Outcome

# set-up runs at least this often and until this much time is spent (capped),
# so that a cheap set-up is still reported as a steady median
SETUP_MIN_RUNS, SETUP_MIN_S, SETUP_MAX_RUNS = 3, 2.0, 50
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
END_TO_END = (("setup_s", "s"), ("graphs_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))


def tail_percentile(samples_per_unit: int) -> float:
    """Highest ladder percentile with at least ten of one unit's samples
    beyond it; 100 (the maximum) when a unit has too few operations."""
    fits = [p for p in TAIL_LADDER if samples_per_unit * (1 - p / 100) >= 10]
    return max(fits) if fits else 100.0


def run_units(workload, out, count: int | None, seconds: float, tracer=None) -> tuple[list, float]:
    """Whole units until ``seconds`` have passed (or exactly ``count`` units)."""
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(workload.unit(out, tracer))
        if len(results) == count or (count is None and time.perf_counter() - t0 >= seconds):
            return results, time.perf_counter() - t0


def measure(workload, seconds: float, trace: int, spans_path=None):
    """Run one workload; returns (metrics, outcome, report).

    With ``trace`` the same number of units runs a second time with every
    package entry point traced, and the metrics are the per-layer ones.
    """
    setups = []
    while len(setups) < SETUP_MIN_RUNS or (sum(setups) < SETUP_MIN_S
                                            and len(setups) < SETUP_MAX_RUNS):
        t0 = time.perf_counter()
        measured = workload.setup()  # a set-up may time itself
        setups.append(time.perf_counter() - t0 if measured is None else measured)
    # one small untimed operation first, so the first timed one does not pay
    # for lazy imports and first-touch allocation
    workload.warm_up()

    out = Outcome()
    results, wall = run_units(workload, out, None, seconds)
    latencies = np.array(out.latencies)
    tail_p = tail_percentile(len(latencies) // len(results))
    for r in results:
        workload.check(r, out)
    report = {"units": len(results), "timed_wall_s": wall, "counted": workload.counted,
              "operations": len(latencies), "tail_percentile": tail_p,
              "setup_runs_s": setups, "latencies_ms": [x * 1e3 for x in out.latencies]}

    if not trace:
        values = {
            "setup_s": statistics.median(setups),
            "graphs_per_s": out.visits / wall,
            "op_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "op_tail_ms": float(np.percentile(latencies, tail_p)) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    else:
        tr = tracing.Tracer()
        tr.install()
        root = tr.open(tr.id_of(tracing.ROOT))
        try:
            traced, _ = run_units(workload, out, len(results), seconds, tr)
        finally:
            tr.close(root)
            tr.uninstall()
        for r in traced:
            workload.check(r, out)
        values, accounted = tr.summary(wall)
        if abs(accounted - values["trace.wall_s"]) > 1e-6 * values["trace.wall_s"]:
            out.record([f"self times add up to {accounted} s, "
                        f"traced wall is {values['trace.wall_s']} s"])
        if spans_path is not None:
            tr.write(spans_path)
        units = dict(tracing.METRICS)
        report["layer_self_s"] = {layer: values[f"{layer}.self_s"]
                                  for layer in tracing.LAYERS + ("bench",)}

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report.update(metrics=metrics, attempted=out.attempted, failed=out.failed,
                  error_rate=out.failed / max(1, out.attempted), problems=out.problems)
    return metrics, out, report
