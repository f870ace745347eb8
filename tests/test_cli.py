import argparse
import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from imin import cli, fixtures
from imin.cli import CSV_FIELDS, _evaluate_decrease, _influence_pool, main
from imin.diffusion import _batch_spreads, ic_spread_samples
from imin.graph import (Graph, assign_constant_probability,
                        assign_wc_probabilities, load_edge_list, unify_seeds)

from conftest import make_rng


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "imin", *args],
                          capture_output=True, text=True)
    return proc


class TestRun:
    def test_diamond_sandimin_decrease(self, tmp_path):
        out = tmp_path / "rows.csv"
        report = tmp_path / "report.json"
        code = main(["run", "--graph", "fixture:diamond", "--algo",
                     "sandimin", "--k", "2", "--delta", "0.1",
                     "--eval-trials", "20000", "--rng-seed", "3",
                     "--out", str(out), "--json", str(report)])
        assert code == 0
        header, row = out.read_text().strip().splitlines()
        assert header.startswith("dataset,algo,k,n_seeds")
        fields = dict(zip(header.split(","), row.split(",")))
        decrease = float(fields["decrease"])
        assert abs(decrease - 3.0) < 0.05
        payload = json.loads(report.read_text())
        assert payload[0]["algo"] == "sandimin"
        assert "runtime_s" in payload[0]
        assert "runtime" not in header

    def test_decrease_is_a_mean_of_paired_trials(self):
        # base and residual come from the same cascades, so the decrease
        # is a mean of per-trial differences, none of them negative.  This
        # interval is still open at the 3000-trial cap, drawn in batches
        # of 128, 384, 1024 and the 1464 left, and the value is the mean.
        args = argparse.Namespace(gamma=0.1, delta=0.1, eval_trials=3000)
        ug = fixtures.mid_synthetic(make_rng(0), 60, 240, 3)
        blockers = ug.seed_out_neighbors()[:2]
        masks = np.stack([ug.blocked, ug.blocked_with(blockers)])
        rng = make_rng(1)
        rows = np.hstack([_batch_spreads(ug, masks, size, rng)
                          for size in (128, 384, 1024, 1464)])
        assert (rows[1] <= rows[0]).all()
        est = _evaluate_decrease(ug, blockers, args, make_rng(1))
        assert est.samples_used == 3000
        assert est.value == (rows[0] - rows[1]).mean() > 0.0
        assert est.low < est.value < est.high
        # a blocker the seeds cannot reach changes no cascade, and none is
        # drawn
        ug = unify_seeds(Graph.from_edges(4, [0, 2], [1, 3], [0.5, 1.0]),
                         {0})
        est = _evaluate_decrease(ug, [3], args, make_rng(2))
        assert est.value == 0.0 and est.samples_used == 0

    def test_json_reports_spread_samples(self, tmp_path):
        report = tmp_path / "report.json"
        code = main(["run", "--graph", "fixture:small", "--algo",
                     "sandimin", "--k", "1", "--delta", "0.1",
                     "--eval-trials", "1000", "--rng-seed", "2",
                     "--out", str(tmp_path / "rows.csv"),
                     "--json", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())[0]
        counts = payload["spread_samples"]
        assert sorted(counts) == ["base", "heuristic", "lower", "upper"]
        for value in counts.values():
            assert isinstance(value, int) and value > 0
        # each estimate's interval holds its value and is within its
        # gamma contract
        bounds = payload["spread_bounds"]
        assert sorted(bounds) == sorted(counts)
        values = {"base": payload["base_spread_estimate"],
                  **payload["residual_estimates"]}
        for name, (low, high) in bounds.items():
            assert 0.0 < low <= values[name] <= high
            assert (1 - 0.1) * high <= (1 + 0.1) * low

    def test_json_certificate_keys(self, tmp_path):
        report = tmp_path / "report.json"
        code = main(["run", "--graph", "fixture:small", "--algo",
                     "sandimin", "--k", "1", "--delta", "0.1",
                     "--eval-trials", "1000", "--rng-seed", "2",
                     "--out", str(tmp_path / "rows.csv"),
                     "--json", str(report)])
        assert code == 0
        certs = json.loads(report.read_text())[0]["certificates"]
        assert sorted(certs) == ["lower", "upper"]
        for cert in certs.values():
            assert sorted(cert) == [
                "blockers", "checks", "early_exit", "opt_lower",
                "population_size", "ratio", "rounds", "rounds_cap",
                "samples_cap", "samples_initial", "samples_primary",
                "samples_validation", "side", "sigma_lower", "sigma_upper",
                "stop_reason"]
            assert cert["stop_reason"] == "ratio"
            # one entry per checked round, the last one the stopping round
            assert cert["checks"]
            for check in cert["checks"]:
                assert sorted(check) == [
                    "ratio", "round", "samples_primary",
                    "samples_validation", "sigma_lower", "sigma_upper",
                    "stopped"]
            last = cert["checks"][-1]
            assert last["stopped"] and last["round"] == cert["rounds"]
            assert last["samples_primary"] == cert["samples_primary"]
            assert last["ratio"] == cert["ratio"]

    SANDWICH_KEYS = [
        "algo", "base_spread_estimate", "blocker_labels", "blockers",
        "candidates",
        "certificates", "chosen", "dataset", "decrease_bounds",
        "decrease_estimate", "decrease_estimates", "decrease_mc",
        "decrease_trials", "empirical_ratio",
        "pair_streams", "repeat", "residual_estimates", "runtime_s",
        "samples", "seed_rank", "spread_bounds", "spread_samples",
        "timings_s"]

    @pytest.mark.parametrize("algo, keys", [
        ("sandimin", SANDWICH_KEYS),
        ("sandimin-minus", SANDWICH_KEYS),
        ("lhga", ["algo", "blocker_labels", "blockers", "dataset",
                  "decrease_bounds", "decrease_mc", "decrease_trials",
                  "repeat", "runtime_s", "samples", "seed_rank"]),
    ])
    def test_json_report_keys(self, tmp_path, algo, keys):
        # the top-level keys of a report, pinned exactly: a change that
        # adds, drops or renames one updates this list on purpose
        report = tmp_path / "report.json"
        code = main(["run", "--graph", "fixture:small", "--algo", algo,
                     "--k", "1", "--delta", "0.1", "--eval-trials", "1000",
                     "--rng-seed", "2", "--out", str(tmp_path / "rows.csv"),
                     "--json", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert len(payload) == 1
        assert sorted(payload[0]) == keys

    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_blocker_labels_on_labelled_fixture(self, tmp_path, command):
        # the three-seed fixture's node ids 0..12 carry labels 1..13
        report = tmp_path / "report.json"
        budget = ["--k", "2"] if command == "run" else ["--k-list", "1,2"]
        assert main([command, "--graph", "fixture:three-seeds", "--algo",
                     "sandimin", *budget, "--delta", "0.1",
                     "--eval-trials", "1000", "--out",
                     str(tmp_path / "rows.csv"), "--json", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert len(payload) == (1 if command == "run" else 2)
        for rep in payload:
            assert rep["blockers"]
            assert rep["blocker_labels"] == [v + 1 for v in rep["blockers"]]

    @pytest.mark.parametrize("algo", ["sandimin", "lhga"])
    def test_blocker_labels_in_the_input_vocabulary(self, tmp_path, algo):
        # labels 70, 50, 90, 30 get ids 0..3 in order of appearance; the
        # one cut of the certain chain 70 -> 50 -> 90 -> 30 from seed 70,
        # at k=1, is the node labelled 50
        data = tmp_path / "g.txt"
        data.write_text("70 50\n50 90\n90 30\n")
        assert load_edge_list(str(data)).labels.tolist() == [70, 50, 90, 30]
        report = tmp_path / "report.json"
        assert main(["run", "--graph", str(data), "--algo", algo, "--k", "1",
                     "--seeds", "70,", "--prob", "const", "--prob-value",
                     "1", "--delta", "0.1", "--eval-trials", "1000",
                     "--out", str(tmp_path / "rows.csv"),
                     "--json", str(report)]) == 0
        rep = json.loads(report.read_text())[0]
        assert rep["blockers"] == [1]
        assert rep["blocker_labels"] == [50]

    def test_chain_lhga(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(["run", "--graph", "fixture:chain", "--algo", "lhga",
                     "--k", "1", "--delta", "0.1", "--eval-trials", "4000",
                     "--out", str(out)])
        assert code == 0
        header, row = out.read_text().strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert float(fields["decrease"]) == 2.0

    def test_edge_list_with_label_seeds(self, tmp_path):
        data = tmp_path / "g.txt"
        data.write_text("# tiny\n10 20\n20 30\n10 30\n")
        out = tmp_path / "rows.csv"
        code = main(["run", "--graph", str(data), "--algo", "ag", "--k",
                     "1", "--seeds", "10,", "--realizations", "500",
                     "--eval-trials", "4000", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 2

    def test_graph_name_with_a_comma_stays_one_field(self, tmp_path):
        data = tmp_path / "a,b.txt"
        data.write_text("10 20\n20 30\n10 30\n")
        out = tmp_path / "rows.csv"
        assert main(["run", "--graph", str(data), "--algo", "ag", "--k", "1",
                     "--seeds", "10,", "--realizations", "100",
                     "--eval-trials", "200", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            header, row = csv.reader(fh)
        assert header == list(CSV_FIELDS)
        assert len(row) == len(CSV_FIELDS) and row[0] == "a,b.txt"

    def test_undirected_flag_doubles_every_edge(self, tmp_path):
        # `--undirected` on an edge list gives the rows of a directed run
        # on the same list with every edge written both ways.
        edges = [(1, 2), (2, 3), (3, 4), (2, 5), (5, 6), (4, 6), (6, 7),
                 (7, 8), (3, 8)]
        rows = []
        for name, undirected, lines in (
                ("one-way", True, [f"{u} {v}" for u, v in edges]),
                ("both-ways", False, [f"{u} {v}\n{v} {u}" for u, v in edges])):
            (tmp_path / name).mkdir()
            data = tmp_path / name / "edges.txt"
            data.write_text("\n".join(lines) + "\n")
            out = tmp_path / name / "rows.csv"
            assert main(["run", "--graph", str(data), "--algo", "sandimin",
                         "--k", "2", "--seeds", "1,", "--delta", "0.1",
                         "--eval-trials", "500", "--rng-seed", "4",
                         "--out", str(out)]
                        + ["--undirected"] * undirected) == 0
            with open(out, newline="") as fh:
                rows.append(list(csv.reader(fh)))
        assert rows[0] == rows[1]
        fields = dict(zip(*rows[0]))
        assert fields["n_seeds"] == "1" and float(fields["decrease"]) > 0

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # an edge list that starts with a UTF-8 byte-order mark gives the
        # rows of the same list without it
        text = "1 2\n2 3\n3 4\n2 5\n5 4\n4 6\n"
        rows = []
        for name, head in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            (tmp_path / name).mkdir()
            data = tmp_path / name / "edges.txt"
            data.write_bytes(head + text.encode())
            out = tmp_path / name / "rows.csv"
            assert main(["run", "--graph", str(data), "--algo", "sandimin",
                         "--k", "1", "--seeds", "1,", "--delta", "0.1",
                         "--eval-trials", "500", "--rng-seed", "4",
                         "--out", str(out)]) == 0
            with open(out, newline="") as fh:
                rows.append(list(csv.reader(fh)))
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("label", ["1_0", "\u0663"])
    def test_id_not_in_ascii_digits_is_rejected(self, tmp_path, capsys,
                                                 label):
        # `int` reads "1_0" as 10 and the Arabic-Indic digit three as 3,
        # so those labels would merge with "10" and "3"
        data = tmp_path / "edges.txt"
        data.write_text(f"{label} 2\n10 3\n3 2\n", encoding="utf-8")
        out = tmp_path / "rows.csv"
        assert main(["run", "--graph", str(data), "--algo", "lhga",
                     "--k", "1", "--seeds", "1", "--out", str(out)]) == 6
        err = capsys.readouterr().err
        assert "line 1: non-integer node id" in err
        assert not out.exists()

    def test_existing_empty_out_file_gets_the_header(self, tmp_path):
        out = tmp_path / "rows.csv"
        out.touch()
        args = ["run", "--graph", "fixture:chain", "--algo", "lhga", "--k",
                "1", "--delta", "0.1", "--eval-trials", "200", "--out",
                str(out)]
        assert main(args) == 0
        assert main(args) == 0      # a second run appends its row alone
        with open(out, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == list(CSV_FIELDS)
        assert len(rows) == 2 and rows[0] == rows[1]


class TestExitCodes:
    def test_unknown_algo(self):
        assert main(["run", "--graph", "fixture:chain", "--algo", "nope",
                     "--k", "1"]) == 3

    def test_nonpositive_k(self):
        assert main(["run", "--graph", "fixture:chain", "--algo", "lhga",
                     "--k", "0"]) == 4

    def test_seed_out_of_range(self, tmp_path):
        data = tmp_path / "g.txt"
        data.write_text("0 1\n1 2\n")
        assert main(["run", "--graph", str(data), "--algo", "lhga",
                     "--k", "1", "--seeds", "99,"]) == 5
        assert main(["run", "--graph", str(data), "--algo", "lhga",
                     "--k", "1", "--seeds", "99"]) == 5  # count too large

    def test_file_graph_needs_seeds(self, tmp_path, capsys):
        data = tmp_path / "g.txt"
        data.write_text("0 1\n1 2\n")
        base = ["run", "--graph", str(data), "--algo", "lhga", "--k", "1"]
        assert main(base) == 5
        assert main(base + ["--seeds", ","]) == 5
        assert capsys.readouterr().err.splitlines() == [
            "error: --seeds is required for file datasets",
            "error: empty seed list"]

    def test_underflowing_probabilities_unusable_graph(self, tmp_path,
                                                       capsys):
        # p = 1e-20 is positive, so the seed reaches nodes, but every
        # 1 - (1 - p) rounds to 0 and the maximizers have no sample bound
        data = tmp_path / "g.txt"
        data.write_text("1 2\n1 3\n2 4\n3 5\n")
        out = tmp_path / "rows.csv"
        assert main(["run", "--graph", str(data), "--seeds", "1,",
                     "--algo", "sandimin", "--k", "1", "--prob", "const",
                     "--prob-value", "1e-20", "--out", str(out)]) == 6
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "underflow" in err[0]
        assert not out.exists()

    def test_missing_graph_no_partial_output(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(["run", "--graph", str(tmp_path / "absent.txt"),
                     "--algo", "lhga", "--k", "1", "--seeds", "1",
                     "--out", str(out)]) == 6
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [
        "directory", "not-utf8", "above-int64", "below-int64"])
    def test_unreadable_graph_no_partial_output(self, tmp_path, capsys, kind):
        graph = tmp_path / "graph.txt"
        if kind == "directory":
            graph.mkdir()
        else:
            graph.write_bytes({
                "not-utf8": b"1 2\n\xff\xfe 3\n",
                "above-int64": b"1 2\n2 99999999999999999999\n",
                "below-int64": b"1 2\n2 -9223372036854775809\n"}[kind])
        out = tmp_path / "rows.csv"
        assert main(["run", "--graph", str(graph), "--algo", "lhga",
                     "--k", "1", "--seeds", "1", "--out", str(out)]) == 6
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_bad_fixture_name(self):
        assert main(["run", "--graph", "fixture:unknown", "--algo", "lhga",
                     "--k", "1"]) == 6

    @pytest.mark.parametrize("command", ["run", "bench"])
    @pytest.mark.parametrize("flag", ["--out", "--json"])
    @pytest.mark.parametrize("kind", ["missing-directory", "directory",
                                      "empty"])
    def test_bad_output_path_fails_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, flag, kind):
        # the graph is never loaded, nothing is written, and one line
        # names the path
        def load(*args):
            raise AssertionError("the graph was loaded")
        monkeypatch.setattr(cli, "_load_graph", load)
        bad, reason = {
            "missing-directory": (tmp_path / "absent" / "out.txt",
                                  "names a missing directory"),
            "directory": (tmp_path, "is a directory"),
            "empty": ("", "is empty")}[kind]
        good = {"--out": tmp_path / "rows.csv",
                "--json": tmp_path / "report.json"}
        good[flag] = bad
        argv = [command, "--graph", "fixture:small", "--algo", "lhga",
                *(["--k", "1"] if command == "run" else ["--k-list", "1,2"]),
                "--delta", "0.1", "--eval-trials", "100"]
        for name, path in good.items():
            argv += [name, str(path)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: {flag} {str(bad)!r} {reason}"]
        assert list(tmp_path.iterdir()) == []


class TestBadNumericInput:
    """Out-of-range or malformed numbers are usage errors (exit 2), not
    tracebacks."""

    RUN = ["run", "--graph", "fixture:diamond", "--algo", "sandimin",
           "--k", "1"]
    BENCH = ["bench", "--graph", "fixture:diamond", "--algo", "lhga"]

    @pytest.mark.parametrize("argv", [
        RUN + ["--epsilon", "1.5"],
        RUN + ["--epsilon", "nan"],
        RUN + ["--delta", "0"],
        RUN + ["--beta", "1"],
        RUN + ["--gamma", "-0.1"],
        RUN + ["--eval-trials", "0"],
        RUN + ["--trials", "0"],
        RUN + ["--realizations", "0"],
        RUN + ["--repeats", "0"],
        RUN + ["--seed-rank-pool", "0"],
        RUN + ["--pool-trials", "x"],
        RUN + ["--prob-value", "-0.5"],
        RUN + ["--prob-value", "1.5"],
        RUN + ["--rng-seed", "-1"],
        BENCH + ["--k-list", "1,x"],
        BENCH + ["--epsilon-list", "0.2,1.5"],
        BENCH + ["--epsilon-list", "0.2,"],
        ["oracle", "--graph", "fixture:diamond", "--prob-value", "2"],
        ["oracle-check", "--rng-seed", "-3"],
    ])
    def test_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_boundary_values_accepted(self, tmp_path):
        data = tmp_path / "g.txt"
        data.write_text("0 1\n1 2\n")
        for p in ("0", "1"):
            assert main(["run", "--graph", str(data), "--prob", "const",
                         "--prob-value", p, "--algo", "lhga", "--k", "1",
                         "--seeds", "0,", "--eval-trials", "1",
                         "--out", str(tmp_path / "rows.csv")]) == 0

    def test_nonpositive_k_list_entry_keeps_its_code(self, capsys):
        assert main(self.BENCH + ["--k-list", "1,0"]) == 4


class TestDeterminism:
    def test_repeated_run_byte_identical(self, tmp_path):
        args = ["run", "--graph", "fixture:small", "--algo", "sandimin",
                "--k", "1", "--delta", "0.1", "--eval-trials", "5000",
                "--rng-seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_subprocess_matches_in_process(self, tmp_path):
        out = tmp_path / "sub.csv"
        proc = run_cli("run", "--graph", "fixture:diamond", "--algo", "gr",
                       "--k", "1", "--realizations", "400",
                       "--eval-trials", "2000", "--rng-seed", "5",
                       "--out", str(out))
        assert proc.returncode == 0
        out2 = tmp_path / "inproc.csv"
        main(["run", "--graph", "fixture:diamond", "--algo", "gr",
              "--k", "1", "--realizations", "400", "--eval-trials", "2000",
              "--rng-seed", "5", "--out", str(out2)])
        assert out.read_bytes() == out2.read_bytes()


class TestBench:
    def test_sweep_rows_and_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["bench", "--graph", "fixture:small", "--algo", "lhga",
                "--k-list", "1,2", "--epsilon-list", "0.2,0.3",
                "--delta", "0.1", "--eval-trials", "2000",
                "--rng-seed", "9"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = a.read_text().strip().splitlines()
        assert len(rows) == 1 + 4  # header + 2 budgets x 2 epsilons

    def test_stdout_holds_only_the_csv(self, capsys):
        # without --out the CSV goes to stdout and the summary to stderr
        assert main(["bench", "--graph", "fixture:small", "--algo", "lhga",
                     "--k-list", "1,2", "--delta", "0.1",
                     "--eval-trials", "100", "--rng-seed", "9"]) == 0
        out, err = capsys.readouterr()
        header, *rows = out.splitlines()
        assert header == ",".join(CSV_FIELDS)
        assert len(rows) == 2
        assert all(len(row.split(",")) == len(CSV_FIELDS) for row in rows)
        assert err == "bench: wrote 2 rows to stdout\n"


    def test_rows_match_separate_runs(self, tmp_path, capsys):
        # the sweep loads the graph and resolves each seed spec once; its
        # rows must equal one `run` per cell
        sweep = tmp_path / "sweep.csv"
        common = ["--graph", "fixture:small", "--algo", "lhga",
                  "--delta", "0.1", "--eval-trials", "1000",
                  "--rng-seed", "4", "--repeats", "2"]
        assert main(["bench", *common, "--k-list", "1,2",
                     "--epsilon-list", "0.2,0.3",
                     "--seeds-list", "0,;0,1,", "--out", str(sweep)]) == 0
        single = tmp_path / "single.csv"
        for seeds in ("0,", "0,1,"):
            for k in ("1", "2"):
                for eps in ("0.2", "0.3"):
                    assert main(["run", *common, "--seeds", seeds,
                                 "--k", k, "--epsilon", eps,
                                 "--out", str(single)]) == 0
        assert sweep.read_bytes() == single.read_bytes()
        assert len(sweep.read_text().splitlines()) == 1 + 16


class TestSeedPool:
    ARGS = ["--algo", "lhga", "--k", "1", "--seeds", "2",
            "--seed-rank-pool", "4", "--pool-trials", "60",
            "--eval-trials", "2000", "--rng-seed", "13"]

    def star_file(self, tmp_path):
        data = tmp_path / "g.txt"
        lines = [f"0 {v}" for v in range(1, 6)]
        lines += [f"{v} {v + 10}" for v in range(1, 6)]
        data.write_text("\n".join(lines) + "\n")
        return data

    def test_count_seeds_drawn_from_influence_pool(self, tmp_path):
        data = self.star_file(tmp_path)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["run", "--graph", str(data), *self.ARGS]
        assert main(args + ["--out", str(out_a)]) == 0
        cache = data.with_name(data.name + ".infcache.npz")
        assert cache.exists()
        assert main(args + ["--out", str(out_b)]) == 0  # cached path
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_cache_not_reused_across_probability_models(self, tmp_path):
        # Node 0 feeds five in-degree-1 nodes; nodes 1-4 share ten
        # in-degree-4 targets.  Weighted cascade ranks node 0 first,
        # a constant 0.3 ranks it last.
        lines = [f"0 {v}" for v in range(10, 15)]
        lines += [f"{u} {v}" for u in range(1, 5) for v in range(20, 30)]
        text = "\n".join(lines) + "\n"
        warm_dir, cold_dir = tmp_path / "warm", tmp_path / "cold"
        warm_dir.mkdir()
        cold_dir.mkdir()
        (warm_dir / "g.txt").write_text(text)
        (cold_dir / "g.txt").write_text(text)
        args = ["run", "--algo", "lhga", "--k", "1", "--seeds", "1",
                "--seed-rank-pool", "1", "--pool-trials", "200",
                "--eval-trials", "2000", "--rng-seed", "3"]
        const = ["--prob", "const", "--prob-value", "0.3"]
        warm, cold = warm_dir / "g.txt", cold_dir / "g.txt"
        assert main(args + ["--graph", str(warm),
                            "--out", str(tmp_path / "wc.csv")]) == 0
        assert main(args + const + ["--graph", str(warm), "--out",
                                    str(tmp_path / "warm.csv")]) == 0
        assert main(args + const + ["--graph", str(cold), "--out",
                                    str(tmp_path / "cold.csv")]) == 0
        assert (tmp_path / "warm.csv").read_bytes() \
            == (tmp_path / "cold.csv").read_bytes()
        # the two models really rank differently, so a stale cache shows
        wc_g = load_edge_list(str(cold))
        wc_top, _ = _influence_pool(assign_wc_probabilities(wc_g), 1, 200)
        const_top, _ = _influence_pool(
            assign_constant_probability(wc_g, 0.3), 1, 200)
        assert wc_top == [0] and const_top != wc_top

    # np.load leaves a torn file open when it raises: a leaked handle fails
    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning")
    @pytest.mark.parametrize("damage", ["garbage", "truncated"])
    def test_unreadable_cache_is_ranked_again(self, tmp_path, damage,
                                              capsys):
        data = self.star_file(tmp_path)
        cache = data.with_name(data.name + ".infcache.npz")
        cold, again = tmp_path / "cold.csv", tmp_path / "again.csv"
        assert main(["run", "--graph", str(data), *self.ARGS,
                     "--out", str(cold)]) == 0
        with np.load(cache) as npz:
            ranked = npz["ranked"]
        good = cache.read_bytes()
        cache.write_bytes(b"not a cache" if damage == "garbage"
                          else good[:len(good) // 2])
        assert main(["run", "--graph", str(data), *self.ARGS,
                     "--out", str(again)]) == 0
        assert again.read_bytes() == cold.read_bytes()
        assert "ignoring unreadable rank cache" in capsys.readouterr().err
        with np.load(cache) as npz:  # rewritten whole, not left torn
            assert int(npz["format_version"]) == 4
            assert np.array_equal(npz["ranked"], ranked)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "again.csv", "cold.csv", "g.txt", "g.txt.infcache.npz"]

    def test_json_reports_seed_rank(self, tmp_path):
        data = self.star_file(tmp_path)
        report = tmp_path / "report.json"

        def seed_rank(*argv):
            assert main(["run", *argv, "--algo", "lhga", "--k", "1",
                         "--eval-trials", "100", "--out",
                         str(tmp_path / "rows.csv"),
                         "--json", str(report)]) == 0
            return json.loads(report.read_text())[0]["seed_rank"]

        count = ["--graph", str(data), "--seeds", "2", "--pool-trials", "7"]
        assert seed_rank(*count) == {"samples": 7 * 11, "from_cache": False}
        assert seed_rank(*count) == {"samples": 7 * 11, "from_cache": True}
        assert seed_rank("--graph", str(data), "--seeds", "0,") is None
        assert seed_rank("--graph", "fixture:small") is None

    def test_older_cache_version_not_reused(self, tmp_path):
        g = assign_wc_probabilities(load_edge_list(str(
            self.star_file(tmp_path))))
        cache = tmp_path / "g.txt.infcache.npz"
        fresh, seed_rank = _influence_pool(g, g.n, 60, str(cache))
        assert seed_rank == {"samples": 60 * g.n, "from_cache": False}
        with np.load(cache) as data:
            assert int(data["format_version"]) == 4
            fingerprint = data["fingerprint"]
        np.savez(cache, format_version=np.int64(3), pool_trials=np.int64(60),
                 fingerprint=fingerprint,
                 ranked=np.arange(g.n, dtype=np.int64)[::-1])
        assert _influence_pool(g, g.n, 60, str(cache)) == (fresh, seed_rank)
        assert _influence_pool(g, g.n, 60, str(cache))[1]["from_cache"]

    def test_count_larger_than_pool_rejected(self, tmp_path):
        data = tmp_path / "g.txt"
        data.write_text("0 1\n1 2\n2 3\n")
        assert main(["run", "--graph", str(data), "--algo", "lhga",
                     "--k", "1", "--seeds", "3", "--seed-rank-pool", "2",
                     "--pool-trials", "20"]) == 5


class TestRankingQuality:
    """The reverse-reachable ranking at the default 100 samples per node
    finds the top nodes of a high-trial forward Monte-Carlo reference at
    least as well as the earlier ranking, 1000 forward cascades per node
    from the same fixed seed."""

    @staticmethod
    def mc_scores(g, trials, rng):
        return np.array([ic_spread_samples(unify_seeds(g, {v}), None,
                                           trials, rng).mean()
                         for v in range(g.n)])

    def test_top_k_overlap_not_worse_than_forward_mc(self):
        rr_hits = mc_hits = 0
        for seed in range(3):
            g = fixtures.mid_synthetic(make_rng(seed), 60, 240).base
            ref = np.argsort(-self.mc_scores(g, 10_000, make_rng(999)),
                             kind="stable")
            old = np.argsort(-self.mc_scores(
                g, 1000, np.random.default_rng(
                    np.random.SeedSequence(0xC0FFEE))), kind="stable")
            rr, _ = _influence_pool(g, g.n, 100)
            for k in (g.n // 4, g.n // 2, 2 * g.n // 3):
                top = set(ref[:k].tolist())
                rr_hits += len(top & set(rr[:k]))
                mc_hits += len(top & set(old[:k].tolist()))
        assert rr_hits >= mc_hits


class TestOracleCommands:
    def test_oracle_check_all_pass(self, capsys):
        assert main(["oracle-check", "--rng-seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_oracle_adhoc_values(self, capsys):
        assert main(["oracle", "--graph", "fixture:three-seeds",
                     "--blockers", "3,7,12"]) == 0
        out = capsys.readouterr().out
        assert "decrease            = 7.000000" in out
        assert "lower bound         = 6.000000" in out
        assert "upper bound         = 8.000000" in out

    def test_oracle_bad_blocker_labels(self, capsys):
        assert main(["oracle", "--graph", "fixture:three-seeds",
                     "--blockers", "x"]) == 5
        assert "bad blocker id 'x'" in capsys.readouterr().err
        assert main(["oracle", "--graph", "fixture:three-seeds",
                     "--blockers", "3,999"]) == 5
        assert "blocker id 999 not in graph" in capsys.readouterr().err

    def test_oracle_speaks_in_labels(self, tmp_path, capsys):
        # labels 10, 20, 30 are ids 0, 1, 2: the header and the errors
        # name the labels, and a seed among the blockers is refused
        # before any value is printed
        data = tmp_path / "g.txt"
        data.write_text("10 20\n20 30\n10 30\n")
        args = ["oracle", "--graph", str(data), "--seeds", "10,",
                "--prob", "const", "--prob-value", "0.5", "--blockers"]
        assert main(args + ["20"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("dataset=g.txt n=3 m=3 seeds=[10] "
                              "blockers=[20]\n")
        assert "decrease            = 0.625000" in out
        assert main(args + ["30,10"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed node 10 cannot be blocked" in captured.err

    def test_oracle_refuses_large_graph(self, tmp_path):
        data = tmp_path / "g.txt"
        rows = [f"{u} {v}" for u in range(10) for v in range(10, 16)]
        data.write_text("\n".join(rows) + "\n")
        code = main(["oracle", "--graph", str(data), "--seeds", "0,",
                     "--prob", "const", "--prob-value", "0.5"])
        assert code == 6
