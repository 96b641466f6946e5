"""Regenerate ``reference.json``: the search outcomes the benchmark checks.

    python3 perfbench/make_reference.py

For every search the cli and scan workloads can draw, records count_free,
max_rho and the number of maximisers, computed with the brute-force
containment oracle and ``numpy.linalg.eigvalsh`` rather than the package's
flow containment and eigensolvers.  Takes a few minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from starfree.enumeration import EnumerationCache, GraphClass  # noqa: E402

import workloads  # noqa: E402


def searches(size: workloads.Size):
    """Every (class, order, forest) search a workload of this size can run."""
    for forest in size.cli_forests:
        yield GraphClass.ALL, size.cli_search_n, forest
    for pool in size.scan_pools:
        for forest in pool:
            for graph_class in GraphClass:
                n = size.scan_n_bipartite if graph_class.bipartite_only else size.scan_n_all
                yield graph_class, n, forest


def build(size: workloads.Size) -> dict:
    cache = EnumerationCache()
    return {
        workloads.reference_key(c, n, f): workloads.reference_entry(c, n, f, cache)
        for c, n, f in searches(size)
    }


if __name__ == "__main__":
    reference = build(workloads.FULL)
    with open(workloads.REFERENCE_PATH, "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reference)} entries to {workloads.REFERENCE_PATH}")
