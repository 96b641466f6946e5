"""Benchmark runner for the starfree package.

    python3 perfbench/run.py --workload {cli,scan,extremal} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.  One
workload runs per process: set-up (timed several times, median reported),
one untimed warm-up operation, then whole units in a closed loop until
``--seconds`` have passed.  Outputs are checked afterwards against independent
references.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
the same units once more with every package entry point wrapped in spans and
reports the per-layer metrics.  Human-readable lines go first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run context, the tail percentile and any failed
checks are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS/OpenMP thread: the benchmark measures one client on one core.
PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def git_sha() -> str:
    if not (ROOT / ".git").exists():  # an exported checkout, not a clone
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def context(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "thread_env": {k: os.environ.get(k) for k in PINNED},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("cli", "scan", "extremal"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "starfree" / "__init__.py").is_file():
        print(f"error: no starfree package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # numpy reads the thread settings when it is first imported; the cli
    # workload's set-up starts interpreters that inherit them
    os.environ.update(PINNED)
    sys.path.insert(0, str(SRC))
    ctx = context(args)

    import harness
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz" if args.trace else None
    metrics, out, report = harness.measure(workload, args.seconds, args.trace, spans)
    report["context"] = ctx
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="ascii") as fh:
        json.dump(report, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} sha={ctx['git_sha'][:12]} "
          f"python={ctx['python']} numpy={ctx['numpy']} cpus={ctx['cpu_count']} "
          f"load={ctx['loadavg_at_start'][0]:.2f}")
    print(f"# {report['units']} unit(s), {report['operations']} operations in "
          f"{report['timed_wall_s']:.3f} s; graphs_per_s counts {workload.counted}; "
          f"tail = p{report['tail_percentile']:g} of {report['operations']} samples")
    print(f"# error_rate {out.failed}/{out.attempted}")
    for problem in out.problems:
        print(f"# FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
