import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import count_calls, doctor_spectra
from starfree import cli, spectra
from starfree.families import (
    make_clique_join_matching,
    make_clique_join_regular,
    make_complete_bipartite,
    make_complete_split,
    make_complete_split_plus_edge,
)
from starfree.graphs import graph6_encode

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstructAndQueries:
    def test_construct_complete_bipartite(self, capsys):
        # every family that construct names, against its library builder
        for family, builder, params in (
            ("f", make_clique_join_matching, (9, 4)),
            ("s", make_complete_split, (9, 3)),
            ("splus", make_complete_split_plus_edge, (9, 3)),
            ("kb", make_complete_bipartite, (2, 9)),
            ("joinreg", make_clique_join_regular, (10, 3, 3)),
        ):
            # construct has no JSON payload: --json prints the same graph6 line
            line = graph6_encode(builder(*params)) + "\n"
            for mode in ((), ("--json",)):
                argv = (*mode, "construct", family, *map(str, params))
                assert run(capsys, *argv) == (0, line, ""), argv

    def test_rho_of_inline_graph(self, capsys):
        g6 = graph6_encode(make_complete_bipartite(2, 9))
        code, out, _ = run(capsys, "rho", g6)
        assert code == 0
        assert float(out.strip()) == pytest.approx(math.sqrt(18), abs=1e-9)

    def test_graph_from_file(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text(graph6_encode(make_complete_bipartite(1, 3)) + "\n")
        code, out, _ = run(capsys, "rho", str(path))
        assert code == 0
        assert float(out.strip()) == pytest.approx(math.sqrt(3), abs=1e-9)

    def test_free_semantics_on_paths(self, capsys):
        from conftest import path_graph

        # the 4-vertex path cannot host a 2-star plus a 1-star (order 5)
        code, out, _ = run(capsys, "free", graph6_encode(path_graph(4)), "2,1")
        assert code == 0 and out.strip() == "true"
        # the 5-vertex path contains them, so it is not free
        code, out, _ = run(capsys, "free", graph6_encode(path_graph(5)), "2,1")
        assert code == 0 and out.strip() == "false"

    def test_empty_forest_field_exits_one(self, capsys):
        for forest in ("2,,1", ",2", "2,", "1:2,"):
            code, out, err = run(capsys, "free", "Dhc", forest)
            assert (code, out) == (1, ""), forest
            assert err == f"error: ParseError: bad star forest text {forest!r}\n"

    def test_arguments_decode_in_order(self, capsys):
        # graph6 first, then the forest, then the class: the first bad one is reported
        forest_error = "error: ParseError: bad star forest text '2,,1'\n"
        assert run(capsys, "free", "~~~nope!", "2,,1") == (
            1, "", "error: ParseError: invalid graph6 byte '!' (byte offset 7)\n")
        for argv in (("search", "6", "2,,1", "nosuch"), ("conjecture", "6", "2,,1", "nosuch"),
                     ("verify", "edge", "6", "2,,1", "nosuch")):
            assert run(capsys, *argv) == (1, "", forest_error), argv

    def test_scalar_queries(self, capsys):
        k29 = graph6_encode(make_complete_bipartite(2, 9))
        for command, key, table, value in (("rho", "rho", "4.24264068712", math.sqrt(18)),
                                           ("leig", "least_eigenvalue", "-4.24264068712",
                                            -math.sqrt(18)),
                                           ("q", "q", "11", 11.0)):
            assert run(capsys, command, k29) == (0, table + "\n", ""), command
            code, out, err = run(capsys, "--json", command, k29)
            payload = json.loads(out)
            assert (code, err, list(payload)) == (0, "", [key]), command
            assert out == json.dumps(payload) + "\n", command
            assert payload[key] == pytest.approx(value, abs=1e-12), command
            # edgeless: exactly zero, without a solver call
            assert run(capsys, command, "D??") == (0, "0\n", ""), command
            assert run(capsys, "--json", command, "D??") == (0, f'{{"{key}": 0.0}}\n', ""), command

    def test_spectrum_json(self, capsys):
        code, out, _ = run(capsys, "--json", "spectrum", graph6_encode(make_complete_bipartite(2, 3)))
        payload = json.loads(out)
        assert payload["method"] == "jacobi"
        assert payload["eigenvalues"][0] == pytest.approx(math.sqrt(6), abs=1e-9)


class TestBoundsAndThresholds:
    def test_bound_t18_attained_by(self, capsys):
        code, out, _ = run(capsys, "--json", "bound", "t18", "11", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["value"] == pytest.approx(math.sqrt(18), abs=1e-9)
        assert payload["attained_by"] == graph6_encode(make_complete_bipartite(2, 9))

    def test_threshold_table_form(self, capsys):
        code, out, _ = run(capsys, "threshold", "thm_3_1", "2,2")
        assert code == 0
        assert out.strip().endswith("= 1936/1")

    def test_threshold_k2_domain_error(self, capsys):
        code, _, err = run(capsys, "threshold", "thm_1_7", "2,2")
        assert code == 1
        assert "DivisionByZeroK2" in err

    def test_bad_graph6_domain_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "rho", "~~~nope!")
        assert code == 1
        assert "ParseError" in err
        path = tmp_path / "bad.g6"
        path.write_bytes(b"Dhc\xff\n")
        code, out, err = run(capsys, "rho", str(path))
        assert (code, out) == (1, "")
        assert "ParseError" in err and "Traceback" not in err

    def test_three_parameter_bounds(self, capsys):
        assert run(capsys, "bound", "t17", "101", "3", "2") == (
            0, "t17 {'n': 101, 'k': 3, 'd_k': 2} = 15.0712472795\n", "")
        assert run(capsys, "--json", "bound", "t17", "101", "3", "2") == (
            0, '{"attained_by": null, "name": "t17", "params": {"d_k": 2, "k": 3, "n": 101},'
               ' "value": 15.071247279470288}\n', "")
        assert run(capsys, "bound", "conj32", "70", "3", "2") == (
            0, "conj32 {'n': 70, 'k': 3, 'd_k': 2} = 72\n", "")
        assert run(capsys, "--json", "bound", "conj32", "70", "3", "2") == (
            0, '{"attained_by": null, "name": "conj32", "params": {"d_k": 2, "k": 3, "n": 70},'
               ' "value": 72.0}\n', "")

    def test_bound_arity_messages(self, capsys):
        usage = "usage: starfree bound [-h] {t17,t18,c19,conj32} params [params ...]\n"
        for argv, message in ((["bound", "t17", "10", "3"], "bound t17 needs n k d_k"),
                              (["bound", "t18", "10", "3", "2"], "bound t18 needs n k")):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            out = capsys.readouterr()
            assert (exc.value.code, out.out) == (2, ""), argv
            assert out.err == f"{usage}starfree bound: error: {message}\n", argv

    def test_bound_help_names_each_parameter_tuple(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bound", "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        assert "t17/conj32: n k d_k; t18/c19: n k" in " ".join(out.split())

    def test_usage_error_exit_two(self, capsys):
        for argv in (
            ["bound", "nosuch", "1", "2"],
            ["construct", "kb", "2"],
            ["construct", "joinreg", "10", "3"],
            ["bound", "t17", "10", "3"],
            ["bound", "t18", "10", "3", "2"],
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2, argv
            out = capsys.readouterr()
            assert out.out == "" and "usage:" in out.err, argv


class TestSearchAndSuites:
    def test_search_json_and_out(self, capsys, tmp_path):
        out_path = tmp_path / "rec.jsonl"
        code, out, _ = run(capsys, "--json", "search", "6", "2,2", "connected", "--out", str(out_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["count_enumerated"] == 112
        from starfree.search import read_records

        recs = read_records(out_path)
        assert len(recs) == 1 and recs[0].max_rho == payload["max_rho"]

    def test_verify_edge_clean(self, capsys):
        code, out, _ = run(capsys, "verify", "edge", "6", "1,1", "all")
        assert (code, out) == (0, "edge bound suite: 0 violation(s)\n")
        code, out, _ = run(capsys, "--json", "verify", "edge", "6", "1,1", "all")
        assert (code, out) == (
            0, '{"class": "all", "forest": "1,1", "n": 6, "suite": "edge", "violations": []}\n'
        )

    def test_verify_lemma23_clean(self, capsys):
        argv = ("verify", "lemma23", "--max-n", "12", "--max-k", "3", "--max-d", "3")
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, "join-regular radius suite: 48 constructions, 0 failure(s)\n")
        code, out, _ = run(capsys, "--json", *argv)
        assert (code, out) == (0, '{"checked": 48, "failures": [], "suite": "lemma23"}\n')

    def test_verify_lemma23_order_too_large(self, capsys):
        argv = ("--json", "verify", "lemma23", "--max-n", "70", "--max-k", "2", "--max-d", "1")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "OrderTooLarge" in err

    def test_verify_bipartite_clean(self, capsys):
        code, out, _ = run(capsys, "verify", "bipartite", "--max-n", "6")
        assert (code, out) == (0, "bipartite suite: 61 graphs, 0 failure(s)\n")
        code, out, _ = run(capsys, "--json", "verify", "bipartite", "--max-n", "6")
        assert (code, out) == (0, '{"checked": 61, "failures": [], "suite": "bipartite"}\n')

    def test_bipartite_failures_exit_three(self, capsys, monkeypatch):
        doctor_spectra(monkeypatch, 3, 1, (1.0, 0.0, -0.5))
        code, out, _ = run(capsys, "verify", "bipartite", "--max-n", "3")
        assert (code, out) == (3, "bipartite suite: 6 graphs, 1 failure(s)\n  asymmetric spectrum at n=3 BG\n")
        monkeypatch.undo()
        doctor_spectra(monkeypatch, 3, 2, (1.6, 0.0, -1.6))
        code, out, _ = run(capsys, "--json", "verify", "bipartite", "--max-n", "3")
        assert (code, out) == (3, '{"checked": 6, "failures": ["triangle-free radius above n/2 at n=3 BW"],'
                                  ' "suite": "bipartite"}\n')

    def test_empty_suites_exit_one(self, capsys):
        for argv in (("verify", "bipartite", "--max-n", "0"), ("verify", "bipartite", "--max-n", "-3"),
                     ("verify", "lemma23", "--max-k", "1"), ("verify", "lemma23", "--max-d", "0"),
                     ("verify", "lemma23", "--max-n", "1")):
            code, out, err = run(capsys, "--json", *argv)
            assert (code, out) == (1, ""), argv
            assert "ParamOutOfRange" in err

    def test_orders_past_the_ceilings_exit_one(self, capsys):
        for argv in (("search", "10", "2,2", "all"), ("verify", "bipartite", "--max-n", "13")):
            code, out, err = run(capsys, "--json", *argv)
            assert (code, out) == (1, "")
            assert "OrderTooLarge" in err

    def test_violations_exit_three(self, capsys, monkeypatch):
        from starfree.search import EdgeBoundViolation

        monkeypatch.setattr(
            cli, "verify_edge_bound", lambda *a, **k: [EdgeBoundViolation("E???", 99, 1)]
        )
        code, out, _ = run(capsys, "verify", "edge", "6", "1,1", "all")
        assert code == 3
        assert "1 violation" in out

    def test_conjecture_table(self, capsys):
        code, out, _ = run(capsys, "--json", "conjecture", "6", "2,2", "connected")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) >= 1
        assert payload["max_margin"] == max(r["margin"] for r in payload["rows"])

    def test_conjecture_out_file(self, capsys, tmp_path):
        path = tmp_path / "rows.jsonl"
        code, out, err = run(capsys, "--json", "conjecture", "6", "2,2", "all", "--out", str(path))
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (len(payload["rows"]), len(payload["exceeders"])) == (48, 4)
        lines = path.read_text(encoding="ascii").splitlines()
        assert lines == [json.dumps(row, sort_keys=True) for row in payload["rows"]]
        assert lines[0] == '{"graph6": "E???", "margin": -6.449489742783178, "q": 0.0}'

    def test_unwritable_out_leaves_stdout_empty(self, capsys, tmp_path):
        # the file is written before anything is printed, so a failed write
        # exits 1 with nothing on stdout, like every other domain error
        path = tmp_path / "missing" / "x.jsonl"
        for argv in (("search", "5", "2,1", "all"), ("conjecture", "6", "2,2", "all")):
            for mode in ((), ("--json",)):
                code, out, err = run(capsys, *mode, *argv, "--out", str(path))
                assert (code, out) == (1, ""), (mode, argv)
                assert err.startswith("error: [Errno 2] No such file or directory")
        assert not path.parent.exists()

    def test_perron(self, capsys):
        code, out, _ = run(capsys, "--json", "perron", graph6_encode(make_complete_bipartite(2, 9)))
        assert code == 0
        payload = json.loads(out)
        assert payload["floor_ok"] is True
        assert payload["rho"] == pytest.approx(math.sqrt(18), abs=1e-9)

    def test_perron_computes_the_vector_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "perron_vector", spectra, cli)
        code, out, _ = run(capsys, "--json", "perron", graph6_encode(make_complete_bipartite(2, 9)))
        assert code == 0 and json.loads(out)["floor_ok"] is True
        assert len(calls) == 1


class TestEntryPath:
    def test_module_entry_in_a_fresh_interpreter(self, tmp_path):
        # the console script and ``python -m`` import the package root first,
        # which no in-process test does
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run([sys.executable, "-m", "starfree.cli", "--json", "rho", "D??"],
                              capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, '{"rho": 0.0}\n'), proc.stderr


class TestDeterminism:
    def test_json_byte_identical_across_runs(self, capsys):
        outputs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "--json", "search", "5", "2,1", "all")
            outputs.add(out)
        assert len(outputs) == 1

    def test_spectrum_runs_stable(self, capsys):
        g6 = graph6_encode(make_complete_bipartite(3, 4))
        outputs = {run(capsys, "--json", "spectrum", g6)[1] for _ in range(2)}
        assert len(outputs) == 1
