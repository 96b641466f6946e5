"""Command-line surface: every library operation behind one subcommand.

Output is a human table by default, machine JSON with --json (schema-stable:
sorted keys, no timestamps, byte-identical across runs on equal input).

Exit codes: 0 success, 1 domain error, 2 usage error, 3 property-suite
violations found.

Bound families (the provenance map, also shown in each subcommand's help):
  t17     general radius ceiling  (k+d-3+sqrt((k-d-1)^2+4(k-1)(n-k+1)))/2
          for graphs with no k disjoint stars of sizes d1>=...>=dk=d,
          attained by a (k-1)-clique joined to a (d-1)-regular graph
  t18     bipartite radius ceiling sqrt((k-1)(n-k+1)), attained by the
          complete bipartite graph K_{k-1,n-k+1}
  c19     least-eigenvalue floor  -sqrt((k-1)(n-k+1)), same extremal graph
  conj32  conjectured signless-Laplacian ceiling
          (n+2k+2d-6+sqrt((n+2k-2d-2)^2-8(k-1)(k-d-1)))/2
Threshold kinds t17/t31/f/t18+c19 are named thm_1_7, thm_3_1, f_value,
thm_1_8_and_cor_1_9; they are the exact rational order floors above which
the matching ceiling is proved.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .enumeration import EnumerationCache, parse_graph_class
from .errors import StarfreeError
from .families import (
    BOUND_PARAMS,
    THRESHOLD_KINDS,
    evaluate_bound,
    make_clique_join_matching,
    make_clique_join_regular,
    make_complete_bipartite,
    make_complete_split,
    make_complete_split_plus_edge,
    threshold_report,
)
from .graphs import Graph, graph6_decode, graph6_encode
from .search import (
    conjecture_margin_table,
    extremal_search,
    verify_bipartite_spectra,
    verify_edge_bound,
    verify_join_regular_bound,
    write_records,
)
from .spectra import (
    adjacency_spectrum,
    least_eigenvalue,
    perron_vector,
    signless_laplacian_radius,
    spectral_radius,
)
from .star_forests import avoids_star_forest, parse_star_forest

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VIOLATIONS = 3


def _load_graph(arg: str) -> Graph:
    """graph6 inline, or a path to a file whose first line is graph6.

    The file is read as latin-1, so every byte reaches graph6_decode, which
    rejects a non-graph6 byte with ParseError.
    """
    if os.path.exists(arg):
        with open(arg, "r", encoding="latin-1") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    return graph6_decode(line)
        return graph6_decode("")  # empty file -> ParseError
    return graph6_decode(arg)


def _sig(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (JSON payload, table lines, exit code),
# with its graph, forest and graph class already decoded by main
# ---------------------------------------------------------------------------


def _cmd_construct(args) -> tuple:
    kind = args.family
    arity = 3 if kind == "joinreg" else 2
    if len(args.params) != arity:
        args.parser.error(f"construct {kind} needs exactly {arity} parameters")
    builders = {
        "f": make_clique_join_matching,
        "s": make_complete_split,
        "splus": make_complete_split_plus_edge,
        "kb": make_complete_bipartite,
        "joinreg": make_clique_join_regular,
    }
    # no payload: the graph6 line is the output with or without --json
    return None, [graph6_encode(builders[kind](*args.params))], EXIT_OK


def _cmd_scalar(args) -> tuple:
    value = args.query(args.graph)
    return {args.json_key: value}, [_sig(value)], EXIT_OK


def _cmd_spectrum(args) -> tuple:
    res = adjacency_spectrum(args.graph)
    payload = {
        "eigenvalues": list(res.eigenvalues),
        "method": res.method,
        "max_residual": res.max_residual,
    }
    lines = [" ".join(_sig(x) for x in res.eigenvalues),
             f"method {res.method}  max_residual {_sig(res.max_residual)}"]
    return payload, lines, EXIT_OK


def _cmd_free(args) -> tuple:
    free = avoids_star_forest(args.graph, args.forest)
    return {"free": free, "forest": args.forest.text()}, ["true" if free else "false"], EXIT_OK


def _cmd_bound(args) -> tuple:
    name = args.family
    if len(args.params) != len(BOUND_PARAMS[name]):
        args.parser.error(f"bound {name} needs {' '.join(BOUND_PARAMS[name])}")
    rep = evaluate_bound(name, *args.params)
    lines = [f"{rep.name} {rep.params} = {_sig(rep.value)}"]
    if rep.attained_by:
        lines.append(f"attained_by {rep.attained_by}")
    return rep.to_json_dict(), lines, EXIT_OK


def _cmd_threshold(args) -> tuple:
    rep = threshold_report(args.kind, args.forest)
    value = rep.value
    lines = [f"{rep.name} {args.forest.text()} = {value.numerator}/{value.denominator}"]
    return rep.to_json_dict(), lines, EXIT_OK


def _cmd_search(args) -> tuple:
    rec = extremal_search(args.n, args.forest, args.graph_class, EnumerationCache())
    lines = [
        f"n={rec.n} class={rec.graph_class.value} forest={rec.forest.text()}",
        f"enumerated {rec.count_enumerated}  free {rec.count_free}",
        f"max_rho {_sig(rec.max_rho)}",
        f"argmax {' '.join(rec.argmax)}",
    ]
    if rec.bound_value is not None:
        lines.append(
            f"bound {_sig(rec.bound_value)}  applicable {str(rec.bound_applicable).lower()}  gap {_sig(rec.gap)}"
        )
    if args.out:
        write_records([rec], args.out)
    return rec.to_json_dict(), lines, EXIT_OK


def _cmd_verify_suite(args) -> tuple:
    if args.suite == "lemma23":
        result = verify_join_regular_bound(args.max_n, args.max_k, args.max_d)
        title = f"join-regular radius suite: {result.checked} constructions"
    else:
        result = verify_bipartite_spectra(args.max_n, EnumerationCache())
        title = f"bipartite suite: {result.checked} graphs"
    lines = [f"{title}, {len(result.failures)} failure(s)"]
    lines += [f"  {f}" for f in result.failures]
    return result.to_json_dict(), lines, EXIT_VIOLATIONS if result.failures else EXIT_OK


def _cmd_verify_edge(args) -> tuple:
    violations = verify_edge_bound(args.n, args.forest, args.graph_class, EnumerationCache())
    payload = {
        "suite": "edge",
        "n": args.n,
        "forest": args.forest.text(),
        "class": args.graph_class.value,
        "violations": [v.to_json_dict() for v in violations],
    }
    lines = [f"edge bound suite: {len(violations)} violation(s)"]
    lines += [f"  {v.graph6} e={v.edges} bound={v.bound}" for v in violations]
    return payload, lines, EXIT_VIOLATIONS if violations else EXIT_OK


def _cmd_conjecture(args) -> tuple:
    table = conjecture_margin_table(args.n, args.forest, args.graph_class, EnumerationCache())
    lines = [
        f"n={table.n} class={table.graph_class.value} forest={table.forest.text()}"
        f"  bound {_sig(table.bound_value)}",
        f"{len(table.rows)} free graph(s), max margin {_sig(table.max_margin)},"
        f" {len(table.exceeders)} above the bound",
    ]
    lines += [f"  {r.graph6}  q={_sig(r.q)}  margin={_sig(r.margin)}" for r in table.rows]
    if args.out:
        write_records(table.rows, args.out)
    return table.to_json_dict(), lines, EXIT_OK


def _cmd_perron(args) -> tuple:
    data = perron_vector(args.graph)
    ok, margin = data.floor_check()
    payload = {
        "rho": data.rho,
        "vector": list(data.vector),
        "min_entry": data.min_entry,
        "floor_ok": ok,
        "floor_margin": None if margin == float("inf") else margin,
    }
    lines = [
        f"rho {_sig(data.rho)}",
        "vector " + " ".join(_sig(x) for x in data.vector),
        f"min_entry {_sig(data.min_entry)}  floor_ok {str(ok).lower()}  margin {margin!r}",
    ]
    return payload, lines, EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starfree",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit an extremal construction as graph6")
    p.add_argument("family", choices=["f", "s", "splus", "kb", "joinreg"])
    p.add_argument("params", type=int, nargs="+")
    p.set_defaults(fn=_cmd_construct, parser=p)

    for name, query, json_key, help_text in [
        ("rho", spectral_radius, "rho", "spectral radius of a graph"),
        ("leig", least_eigenvalue, "least_eigenvalue", "least adjacency eigenvalue"),
        ("q", signless_laplacian_radius, "q", "signless Laplacian spectral radius"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph", help="graph6 string or file path")
        p.set_defaults(fn=_cmd_scalar, query=query, json_key=json_key)

    p = sub.add_parser("spectrum", help="full adjacency spectrum")
    p.add_argument("graph", help="graph6 string or file path")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("free", help="star-forest freeness of a graph")
    p.add_argument("graph", help="graph6 string or file path")
    p.add_argument("forest", help="star forest as d1,d2,... or k:d1,...")
    p.set_defaults(fn=_cmd_free)

    p = sub.add_parser("bound", help="evaluate a closed-form bound family")
    p.add_argument("family", choices=list(BOUND_PARAMS))
    # families that share a parameter tuple share one entry, in table order
    sharing: dict[tuple[str, ...], list[str]] = {}
    for name, params in BOUND_PARAMS.items():
        sharing.setdefault(params, []).append(name)
    p.add_argument("params", type=int, nargs="+", help="; ".join(
        f"{'/'.join(names)}: {' '.join(params)}" for params, names in sharing.items()))
    p.set_defaults(fn=_cmd_bound, parser=p)

    p = sub.add_parser("threshold", help="exact rational order threshold")
    p.add_argument("kind", choices=list(THRESHOLD_KINDS))
    p.add_argument("forest")
    p.set_defaults(fn=_cmd_threshold)

    p = sub.add_parser("search", help="exhaustive radius maximisation over a class")
    p.add_argument("n", type=int)
    p.add_argument("forest")
    p.add_argument("graph_class")
    p.add_argument("--out", help="also write the record as JSON lines")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("verify", help="run a property suite (exit 3 on violations)")
    vsub = p.add_subparsers(dest="suite", required=True)
    pe = vsub.add_parser("edge", help="coarse edge bound over every free graph")
    pe.add_argument("n", type=int)
    pe.add_argument("forest")
    pe.add_argument("graph_class", nargs="?", default="all")
    pe.set_defaults(fn=_cmd_verify_edge)
    pl = vsub.add_parser("lemma23", help="join-regular radius equality and strictness")
    pl.add_argument("--max-n", type=int, default=20, dest="max_n")
    pl.add_argument("--max-k", type=int, default=4, dest="max_k")
    pl.add_argument("--max-d", type=int, default=3, dest="max_d")
    pl.set_defaults(fn=_cmd_verify_suite)
    pb = vsub.add_parser("bipartite", help="bipartite spectral symmetry and the triangle-free radius cap")
    pb.add_argument("--max-n", type=int, default=7, dest="max_n")
    pb.set_defaults(fn=_cmd_verify_suite)

    p = sub.add_parser("conjecture", help="signless-Laplacian margin table over a class")
    p.add_argument("n", type=int)
    p.add_argument("forest")
    p.add_argument("graph_class")
    p.add_argument("--out", help="also write the rows as JSON lines")
    p.set_defaults(fn=_cmd_conjecture)

    p = sub.add_parser("perron", help="positive radius eigenvector and the entry floor check")
    p.add_argument("graph", help="graph6 string or file path")
    p.set_defaults(fn=_cmd_perron)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # decoded here, not by argparse ``type=``: a ParseError raised inside
        # parse_args would come before argparse's own usage errors (exit 2)
        for dest, decode in (("graph", _load_graph), ("forest", parse_star_forest),
                             ("graph_class", parse_graph_class)):
            if dest in args:
                setattr(args, dest, decode(getattr(args, dest)))
        payload, lines, code = args.fn(args)
        # a handler prints nothing, so --out is written before any output
        if args.json and payload is not None:
            lines = [json.dumps(payload, sort_keys=True)]
        print(*lines, sep="\n")
        return code
    except StarfreeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
