"""End-to-end tests for the command-line interface."""

import argparse
import concurrent.futures
import contextlib
import copy
import csv
import io
import json
import math
import multiprocessing
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interference_lab import DemandSystem, clickstream, cli, clustering, generate_sessions
from interference_lab.clickstream import write_sessions
from interference_lab.demand import csv_records
from interference_lab.reports import (
    BIAS_HEADER,
    COVERAGE_HEADER,
    EXPOSURE_HEADER,
    FRONTIER_HEADER,
    META_HEADER,
    PARTITION_HEADER,
)

GEN_SMALL = ["--n", "80", "--cluster-size-min", "3", "--cluster-size-max", "6"]


def run(argv):
    return cli.main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def subcommands(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


@pytest.fixture()
def system_path(tmp_path):
    path = tmp_path / "sys.json"
    assert run(["gen", *GEN_SMALL, "--seed", "3", "--out", path]) == 0
    return path


class TestGen:
    def test_round_trips_losslessly(self, system_path):
        system = DemandSystem.load(system_path)
        assert system.n == 80
        assert system.seed == 3

    def test_same_config_twice_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["gen", *GEN_SMALL, "--seed", "9", "--out", a])
        run(["gen", *GEN_SMALL, "--seed", "9", "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_refuses_overwrite_without_force(self, system_path, capsys):
        assert run(["gen", *GEN_SMALL, "--seed", "3", "--out", system_path]) == 1
        assert "refusing to overwrite" in capsys.readouterr().err
        assert run(["gen", *GEN_SMALL, "--seed", "3", "--out", system_path,
                    "--force"]) == 0

    def test_unwritable_out_names_the_target(self, tmp_path, capsys):
        out = tmp_path / "missing" / "sys.json"
        assert run(["gen", *GEN_SMALL, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert not out.parent.exists()

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["gen", *GEN_SMALL])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--own-mean=nan", "--phi=inf", "--price-max=-inf"])
    def test_non_finite_generator_value_is_one_error_line(self, tmp_path, capsys, flag):
        out = tmp_path / "s.json"
        assert run(["gen", *GEN_SMALL, flag, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be finite" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_invalid_config_is_runtime_error(self, tmp_path, capsys):
        code = run(["gen", "--n", "0", "--out", tmp_path / "x.json"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestSimulate:
    @pytest.mark.parametrize("command", ["simulate", "coverage"])
    @pytest.mark.parametrize("multiplier,quantity", [("1e-300", "global treatment effect"),
                                                     ("1e-110", "experiment estimate")])
    def test_non_finite_result_is_runtime_error(self, system_path, tmp_path, capsys,
                                                command, multiplier, quantity):
        out = tmp_path / "o.csv"
        assert run([command, "--system", system_path, "--multiplier", multiplier,
                    "--p", "10", "--workers", "1", "--out", out]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and quantity in errors[0]
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("multiplier", ["nan", "inf"])
    def test_non_finite_multiplier_is_one_error_line(self, system_path, tmp_path, capsys,
                                                     multiplier):
        out = tmp_path / "o.csv"
        assert run(["simulate", "--system", system_path, "--multiplier", multiplier,
                    "--p", "10", "--workers", "1", "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: treated_multiplier must be finite and > 0, not {multiplier}\n")
        assert not out.exists()

    def test_overflowing_spread_is_runtime_error(self, tmp_path, capsys):
        system, out = tmp_path / "s.json", tmp_path / "o.csv"
        assert run(["gen", "--n", "200", "--seed", "1", "--out", system]) == 0
        assert run(["simulate", "--system", system, "--multiplier", "1e-104",
                    "--p", "10", "--workers", "1", "--out", out]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "sd_estimate" in errors[0]
        assert "Traceback" not in err and not out.exists()

    def test_writes_bias_csv(self, system_path, tmp_path):
        out = tmp_path / "bias.csv"
        assert run(["simulate", "--system", system_path, "--p", "30",
                    "--seed", "5", "--workers", "1", "--out", out]) == 0
        rows = read_rows(out)
        assert rows[0] == BIAS_HEADER
        assert len(rows) == 2
        assert rows[1][BIAS_HEADER.index("p")] == "30"

    def test_worker_count_does_not_change_bytes(self, system_path, tmp_path):
        outs = []
        for w in (1, 8):
            out = tmp_path / f"bias{w}.csv"
            run(["simulate", "--system", system_path, "--p", "24",
                 "--seed", "5", "--workers", w, "--out", out])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_cluster_strategy_uses_ground_truth(self, system_path, tmp_path):
        out = tmp_path / "bias.csv"
        assert run(["simulate", "--system", system_path, "--strategy", "cluster",
                    "--p", "20", "--seed", "5", "--workers", "1",
                    "--out", out]) == 0
        assert read_rows(out)[1][1] == "cluster"

    def test_missing_system_file(self, tmp_path, capsys):
        code = run(["simulate", "--system", tmp_path / "nope.json",
                    "--out", tmp_path / "o.csv"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_system_missing_key(self, tmp_path, capsys):
        path = tmp_path / "sys.json"
        path.write_text('{"n":2}')
        code = run(["simulate", "--system", path, "--out", tmp_path / "o.csv"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "partition" in err[0]

    @pytest.mark.parametrize("change,key", [({"config": [1]}, "'config'"),
                                            ({"config": {"n": 80, "bogus": 1}}, "bogus"),
                                            ({"background": None}, "'background'"),
                                            ({"background": "0.1"}, "'background'")])
    def test_badly_typed_system_key_is_one_error_line(self, system_path, tmp_path, capsys,
                                                      change, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**json.loads(system_path.read_text()), **change}))
        out = tmp_path / "o.csv"
        assert run(["simulate", "--system", path, "--p", "4", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key,value,named", [
        ("config.within_share", "x", "within_share"), ("config.n", "5", "n must be int"),
        ("config.n", True, "n must be int"), ("config.own_spread", math.nan, "own_spread"),
        ("background", math.nan, "background"), ("within_beta.0", math.nan, "within_beta"),
        ("own.0", -math.inf, "(own)"), ("base_prices.0", math.inf, "base_prices"),
        ("seed", "abc", "'seed'"), ("partition.0", 0.5, "'partition' must hold only integers"),
        ("partition.0", "x", "'partition'"), ("own.0", "x", "'own' must hold only numbers"),
        ("within_beta.0", True, "'within_beta'"), ("base_quantities.0", None,
                                                  "'base_quantities'")])
    def test_badly_typed_or_non_finite_system_value_is_one_error_line(
            self, system_path, tmp_path, capsys, key, value, named):
        system = json.loads(system_path.read_text())
        *parents, last = key.split(".")
        node = system
        for part in parents:
            node = node[part]
        node[int(last) if isinstance(node, list) else last] = value
        path, out = tmp_path / "bad.json", tmp_path / "o.csv"
        path.write_text(json.dumps(system))
        assert run(["simulate", "--system", path, "--p", "4", "--workers", "1",
                    "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["simulate", "--multiplier", "1e-300"], "global treatment effect"),
        (["coverage", "--multiplier", "1e-110"], "experiment estimate"),
        (["simulate", "--multiplier", "1e-110", "--workers", "2"], "experiment estimate"),
        (["coverage", "--noise-sigma", "inf"], "noise_sigma must be finite"),
        (["coverage", "--noise-sigma", "1e300", "--workers", "1"],
         "the policy or noise_sigma is out of floating-point range"),
        (["coverage", "--noise-sigma", "1e300", "--workers", "2"],
         "the policy or noise_sigma is out of floating-point range"),
    ])
    def test_out_of_range_run_is_exactly_one_stderr_line(self, system_path, tmp_path,
                                                         flags, message):
        # Run as a child process: pytest captures numpy's warnings in-process, and
        # pool workers write to the process's own stderr.
        out = tmp_path / "o.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "interference_lab.cli", *flags, "--system",
             str(system_path), "--p", "10", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and message in proc.stderr
        assert proc.stderr.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("data,message", [
        (b"{'n': 2}", "Expecting property name enclosed in double quotes"),
        (b'{"n": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded")],
        ids=["not-json", "not-utf8", "too-deep"])
    def test_unreadable_system_file_is_one_error_line_naming_it(self, tmp_path, capsys,
                                                                data, message):
        path, out = tmp_path / "sys.json", tmp_path / "o.csv"
        path.write_bytes(data)
        assert run(["simulate", "--system", path, "--p", "4", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_repeated_partition_article_id_is_one_error_line(self, system_path, tmp_path,
                                                             capsys):
        part = tmp_path / "part.csv"
        part.write_text("article_id,cluster_id\n0,0\n1,1\n0,1\n")
        out = tmp_path / "o.csv"
        assert run(["simulate", "--system", system_path, "--strategy", "cluster",
                    "--partition", part, "--p", "4", "--out", out]) == 1
        assert capsys.readouterr().err == \
            f"error: {part}: duplicate article id 0 at line 4\n"
        assert not out.exists()


class TestSweep:
    def test_row_count_contract(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--n", "60", "--phis", "0,0.3", "--p", "16",
                    "--phi-bg", "0", "--seed", "2", "--workers", "1",
                    "--out", out]) == 0
        rows = read_rows(out)
        assert rows[0] == BIAS_HEADER
        assert len(rows) == 1 + 2 * 2  # two phis x (article, cluster)

    def test_unknown_strategy_rejected(self, tmp_path, capsys):
        code = run(["sweep", "--n", "60", "--strategies", "article,banana",
                    "--out", tmp_path / "s.csv"])
        assert code == 1
        assert "banana" in capsys.readouterr().err

    def test_empty_phi_list_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["sweep", "--n", "60", "--phis", ",", "--out", out]) == 1
        assert capsys.readouterr().err == "error: empty phi list: ','\n"
        assert not out.exists()

    def test_phi_flag_is_a_usage_error(self, tmp_path):
        # Each row takes its phi from --phis, so a --phi would change nothing.
        with pytest.raises(SystemExit) as exc:
            run(["sweep", *GEN_SMALL, "--phi", "0.2", "--phis", "0", "--p", "4",
                 "--out", tmp_path / "s.csv"])
        assert exc.value.code == 2

    def test_phi_config_key_is_unknown(self, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "s.csv"
        cfg.write_text(json.dumps({"phi": 0.2}))
        assert run(["sweep", *GEN_SMALL, "--phis", "0", "--p", "4", "--config", cfg,
                    "--out", out]) == 1
        assert capsys.readouterr().err == f"error: config file {cfg}: unknown key 'phi'\n"
        assert not out.exists()

    def test_gen_still_takes_phi(self, tmp_path):
        out = tmp_path / "sys.json"
        assert run(["gen", *GEN_SMALL, "--phi", "0.2", "--out", out]) == 0
        assert DemandSystem.load(out).config.within_share == 0.2


class TestCluster:
    def test_synthesized_sessions_to_partition(self, system_path, tmp_path):
        out = tmp_path / "part.csv"
        assert run(["cluster", "--system", system_path, "--n-sessions", "2000",
                    "--purity", "0.95", "--seed", "6", "--out", out]) == 0
        rows = read_rows(out)
        assert rows[0] == PARTITION_HEADER
        assert len(rows) == 81  # header + one row per article

    def test_needs_sessions_or_synthesis(self, system_path, tmp_path, capsys):
        code = run(["cluster", "--system", system_path, "--out", tmp_path / "p.csv"])
        assert code == 1
        assert "--n-sessions" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
    def test_non_finite_gamma_is_one_error_line(self, system_path, tmp_path, capsys,
                                                gamma):
        out = tmp_path / "p.csv"
        assert run(["cluster", "--system", system_path, "--n-sessions", "200",
                    f"--gamma={gamma}", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gamma must be finite") and err.count("\n") == 1
        assert not out.exists()


class TestExposure:
    def test_exposure_csv(self, system_path, tmp_path):
        out = tmp_path / "exp.csv"
        assert run(["exposure", "--system", system_path, "--n-sessions", "500",
                    "--seed", "8", "--out", out]) == 0
        rows = read_rows(out)
        assert rows[0] == EXPOSURE_HEADER
        shares = [float(x) for x in rows[1][:3]]
        assert sum(shares) == pytest.approx(1.0)


class TestSessionsFile:
    """``cluster`` and ``exposure`` reading a clickstream CSV with ``--sessions``."""

    @pytest.mark.parametrize("command", [["cluster", "--gamma", "0.8"], ["exposure"],
                                         ["exposure", "--strategy", "article"]])
    def test_written_sessions_give_the_bytes_of_synthesis(self, system_path, tmp_path,
                                                          command):
        sessions = generate_sessions(DemandSystem.load(system_path).partition,
                                     2000, 2, 5, 0.9, seed=6)
        clicks = tmp_path / "clicks.csv"
        write_sessions(sessions, clicks)
        synthesized, from_file = tmp_path / "synth.csv", tmp_path / "file.csv"
        assert run([*command, "--system", system_path, "--n-sessions", "2000",
                    "--seed", "6", "--out", synthesized]) == 0
        assert run([*command, "--system", system_path, "--sessions", clicks,
                    "--seed", "6", "--out", from_file]) == 0
        assert from_file.read_bytes() == synthesized.read_bytes()

    @pytest.mark.parametrize("command", [["cluster", "--gamma", "0.8"], ["exposure"]])
    def test_bytes_do_not_depend_on_the_reader_path(self, system_path, tmp_path, monkeypatch,
                                                    command):
        sessions = generate_sessions(DemandSystem.load(system_path).partition,
                                     500, 2, 5, 0.9, seed=6)
        rows = [(s.session_id, a) for s in sessions for a in sorted(s.viewed)]
        row_loop = []
        monkeypatch.setattr(clickstream, "csv_records", lambda path, header:
                            row_loop.append(path) or csv_records(path, header))
        outputs = []
        # The plain file takes the array parser; the quoted and CRLF files take the row loop.
        for name, options in [("plain", {}), ("quoted", {"quoting": csv.QUOTE_ALL}),
                              ("crlf", {"lineterminator": "\r\n"})]:
            clicks, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.out"
            with open(clicks, "w", newline="") as fh:
                writer = csv.writer(fh, **{"lineterminator": "\n", **options})
                writer.writerow(["session_id", "article_id"])
                writer.writerows(rows)
            assert run([*command, "--system", system_path, "--sessions", clicks,
                        "--seed", "6", "--out", out]) == 0
            outputs.append(out.read_bytes())
        assert row_loop == [tmp_path / "quoted.csv", tmp_path / "crlf.csv"]
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("command", [["cluster"], ["exposure", "--strategy", "article"]])
    @pytest.mark.parametrize("rows,declared,message", [
        ("a,1\nb\n", True, "malformed row at line 3"),
        ("a,x\n", True, "non-integer article_id at line 2"),
        ("a,1\na,80\n", True, "unknown article id 80 at line 3"),
        (f"a,1\nb,{2**63}\n", False, f"unknown article id {2**63} at line 3"),
        (f"a,1\nb,{2**62}\n", False, ""),
        ("", False, "no sessions"),
        ("", True, "no sessions"),
    ])
    def test_malformed_file_is_one_error_line(self, system_path, tmp_path, capsys,
                                              command, rows, declared, message):
        clicks = tmp_path / "clicks.csv"
        clicks.write_text(f"session_id,article_id\n{rows}")
        system = ["--system", system_path] if declared else []
        assert run([*command, *system, "--sessions", clicks,
                    "--out", tmp_path / "o.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    def test_ids_too_large_for_pair_keys_are_one_error_line(self, tmp_path, capsys):
        clicks = tmp_path / "clicks.csv"
        clicks.write_text(f"session_id,article_id\na,1\na,{2**62}\n")
        out = tmp_path / "o.csv"
        assert run(["cluster", "--sessions", clicks, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: article id {2**62} is too large")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_undeclared_ids_with_gaps_are_all_articles(self, tmp_path):
        clicks, out = tmp_path / "clicks.csv", tmp_path / "p.csv"
        clicks.write_text("session_id,article_id\na,1\na,2\nb,2\nb,50000\n")
        assert run(["cluster", "--sessions", clicks, "--out", out]) == 0
        header, *rows = read_rows(out)
        assert header == PARTITION_HEADER
        # 1, 2 and 50000 form one cluster; every id nobody viewed is a cluster alone.
        cluster = {0: 0, 1: 1, 2: 1, 50000: 1}
        assert rows == [[str(i), str(cluster.get(i, i - 1))] for i in range(50001)]

    @pytest.mark.parametrize("command", [["cluster"], ["exposure", "--strategy", "article"]])
    def test_empty_file_is_one_error_line(self, tmp_path, capsys, command):
        clicks = tmp_path / "clicks.csv"
        clicks.write_text("")
        assert run([*command, "--sessions", clicks, "--out", tmp_path / "o.csv"]) == 1
        assert capsys.readouterr().err == f"error: {clicks}: no sessions\n"


class TestFrontier:
    def test_frontier_csv_sorted_by_gamma(self, system_path, tmp_path):
        out = tmp_path / "front.csv"
        assert run(["frontier", "--system", system_path, "--n-sessions", "1500",
                    "--gammas", "2,0.8", "--p", "16", "--seed", "9",
                    "--workers", "1", "--exposure-draws", "4",
                    "--out", out]) == 0
        rows = read_rows(out)
        assert rows[0] == FRONTIER_HEADER
        gammas = [float(r[0]) for r in rows[1:]]
        assert gammas == sorted(gammas)

    @pytest.mark.parametrize("gammas", ["nan,1", "1,inf", "0,1"])
    def test_bad_gamma_is_one_error_line(self, system_path, tmp_path, capsys, gammas):
        out = tmp_path / "front.csv"
        assert run(["frontier", "--system", system_path, "--n-sessions", "300",
                    "--gammas", gammas, "--p", "4", "--workers", "2",
                    "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gamma must be finite") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--gammas", ","], "error: empty gamma list: ','\n"),
        (["--gammas", "1", "--exposure-draws", "0"],
         "error: exposure_draws must be >= 1, not 0\n"),
    ])
    def test_empty_or_zero_input_is_one_error_line(self, system_path, tmp_path, capsys,
                                                   flags, message):
        out = tmp_path / "front.csv"
        assert run(["frontier", "--system", system_path, "--n-sessions", "300",
                    *flags, "--p", "4", "--workers", "1", "--out", out]) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_written_sessions_give_the_bytes_of_synthesis(self, system_path, tmp_path):
        sessions = generate_sessions(DemandSystem.load(system_path).partition,
                                     1500, 2, 5, 0.9, seed=9)
        clicks = tmp_path / "clicks.csv"
        write_sessions(sessions, clicks)
        common = ["--gammas", "2,0.8", "--p", "8", "--seed", "9", "--workers", "1",
                  "--exposure-draws", "4"]
        synthesized, from_file = tmp_path / "synth.csv", tmp_path / "file.csv"
        assert run(["frontier", "--system", system_path, "--n-sessions", "1500", *common,
                    "--out", synthesized]) == 0
        assert run(["frontier", "--system", system_path, "--sessions", clicks, *common,
                    "--out", from_file]) == 0
        assert from_file.read_bytes() == synthesized.read_bytes()

    @pytest.mark.parametrize("text,message", [
        ("", "no sessions"),
        ("session_id,article_id\n", "no sessions"),
        ("session_id,article_id\na,1\nb\n", "malformed row at line 3"),
    ])
    def test_bad_sessions_file_is_one_error_line(self, system_path, tmp_path, capsys,
                                                 text, message):
        clicks = tmp_path / "clicks.csv"
        clicks.write_text(text)
        out = tmp_path / "front.csv"
        assert run(["frontier", "--system", system_path, "--sessions", clicks,
                    "--p", "4", "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {clicks}: {message}\n"
        assert not out.exists()


class TestPublicFunctions:
    """The session commands run the library's public clickstream and clustering functions."""

    SPIED = {clickstream: ["read_sessions", "generate_sessions", "build_graph",
                           "exposure_share"],
             clustering: ["louvain", "frontier"]}

    def test_commands_call_the_public_names(self, system_path, tmp_path, monkeypatch):
        clicks = tmp_path / "clicks.csv"
        write_sessions(generate_sessions(DemandSystem.load(system_path).partition,
                                         500, 2, 5, 0.9, seed=6), clicks)
        # command -> (its flags, the spied names it must call)
        commands = {
            "cluster": (["--sessions", clicks], {"read_sessions", "build_graph", "louvain"}),
            "exposure": (["--sessions", clicks], {"read_sessions", "exposure_share"}),
            "frontier": (["--n-sessions", "500", "--gammas", "2,0.8", "--p", "8",
                          "--exposure-draws", "4"],
                         {"generate_sessions", "frontier", "build_graph", "exposure_share"}),
        }

        def output(command, tag):
            out = tmp_path / f"{tag}-{command}.csv"
            assert run([command, "--system", system_path, *commands[command][0],
                        "--seed", "6", "--workers", "1", "--out", out]) == 0
            return out.read_bytes()

        plain = {command: output(command, "plain") for command in commands}
        called = []
        for module, names in self.SPIED.items():
            for name in names:
                original = getattr(module, name)

                def spy(*args, _name=name, _original=original, **kwargs):
                    called.append(_name)
                    return _original(*args, **kwargs)

                # clustering calls the build_graph and exposure_share it imports.
                for owner in (clickstream, clustering):
                    if owner.__dict__.get(name) is original:
                        monkeypatch.setattr(owner, name, spy)
        for command, (_, names) in commands.items():
            called.clear()
            assert output(command, "spied") == plain[command]
            assert names <= set(called), command


class TestSessionSource:
    """``--sessions`` and ``--n-sessions`` together, on the command line or from ``--config``."""

    EXTRA = {"cluster": [], "exposure": [], "frontier": ["--gammas", "1", "--p", "4"]}

    @pytest.mark.parametrize("command", ["cluster", "exposure", "frontier"])
    @pytest.mark.parametrize("in_config", [None, "sessions", "n_sessions"])
    @pytest.mark.parametrize("file_exists", [True, False])
    def test_both_is_one_error_line_before_the_file_is_read(
            self, system_path, tmp_path, capsys, command, in_config, file_exists):
        clicks = tmp_path / "clicks.csv"
        if file_exists:
            clicks.write_text("session_id,article_id\na,1\na,2\nb,2\nb,3\n")
        values = {"sessions": str(clicks), "n_sessions": 5}
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()
                 if key != in_config]
        if in_config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({in_config: values[in_config]}))
            flags += ["--config", cfg]
        out = tmp_path / "o.csv"
        assert run([command, "--system", system_path, *self.EXTRA[command], *flags,
                    "--workers", "1", "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: provide --sessions, or --n-sessions for synthesis, but not both\n")
        assert not out.exists()


class TestMeta:
    def test_reference_table(self, tmp_path):
        infile = tmp_path / "meta_in.csv"
        infile.write_text("label,est_clustered,ci_halfwidth,est_article\n"
                          "a,0.41,0.05,0.61\n"
                          "b,0.35,0.08,0.62\n")
        out = tmp_path / "meta.csv"
        assert run(["meta", "--in", infile, "--out", out]) == 0
        rows = read_rows(out)
        assert rows[0] == META_HEADER
        assert float(rows[1][4]) == pytest.approx(0.4878, abs=1e-4)
        assert float(rows[2][4]) == pytest.approx(0.7714, abs=1e-4)

    @pytest.mark.parametrize("row,flags", [("a,nan,0.05,0.61", []), ("a,0.41,inf,0.61", []),
                                           ("a,0.41,1e-320,0.61", []),
                                           ("a,0.41,0.05,0.61", ["--ci-divisor", "inf"])])
    def test_non_finite_input_is_one_error_line(self, tmp_path, capsys, row, flags):
        infile = tmp_path / "meta_in.csv"
        infile.write_text(f"label,est_clustered,ci_halfwidth,est_article\n{row}\n")
        out = tmp_path / "meta.csv"
        assert run(["meta", "--in", infile, *flags, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()


    def test_label_with_a_carriage_return_is_one_error_line(self, tmp_path, capsys):
        infile = tmp_path / "meta_in.csv"
        infile.write_bytes(b'label,est_clustered,ci_halfwidth,est_article\n'
                           b'"q\r3",0.41,0.05,0.61\n')
        out = tmp_path / "meta.csv"
        assert run(["meta", "--in", infile, "--out", out]) == 1
        assert capsys.readouterr().err == \
            f"error: {out}: cannot write a value holding a carriage return\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--ci-divisor", "nan"]])
    def test_header_only_table_is_one_error_line(self, tmp_path, capsys, flags):
        infile = tmp_path / "meta_in.csv"
        infile.write_text("label,est_clustered,ci_halfwidth,est_article\n")
        out = tmp_path / "meta.csv"
        assert run(["meta", "--in", infile, *flags, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {infile}: no rows\n"
        assert not out.exists()


class TestUnreadableInputFile:
    """An oversized field or a byte that is not UTF-8, in each CSV input of each command."""

    HEADERS = {"sessions": "session_id,article_id", "partition": "article_id,cluster_id",
               "meta": "label,est_clustered,ci_halfwidth,est_article"}
    COMMANDS = [("sessions", ["cluster", "--sessions"]),
                ("sessions", ["exposure", "--sessions"]),
                ("sessions", ["frontier", "--p", "4", "--sessions"]),
                ("partition", ["simulate", "--strategy", "cluster", "--p", "4", "--partition"]),
                ("meta", ["meta", "--in"])]

    @pytest.mark.parametrize("kind,command", COMMANDS)
    @pytest.mark.parametrize("field,message", [
        (b"1" * 200_000, "field larger than field limit"),
        (b"\xff", "'utf-8' codec can't decode byte 0xff")], ids=["oversized", "not-utf8"])
    def test_is_one_error_line_naming_the_file(self, system_path, tmp_path, capsys, kind,
                                               command, field, message):
        infile = tmp_path / "in.csv"
        width = self.HEADERS[kind].count(",")
        infile.write_bytes(self.HEADERS[kind].encode() + b"\n0" + b",0" * (width - 1)
                           + b"," + field + b"\n")
        system = [] if kind == "meta" else ["--system", system_path]
        out = tmp_path / "o.csv"
        assert run([*command, infile, *system, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {infile}: ") and message in err
        assert err.count("\n") == 1 and not out.exists()


class TestCoverage:
    def test_coverage_csv(self, system_path, tmp_path):
        out = tmp_path / "cov.csv"
        assert run(["coverage", "--system", system_path, "--p", "40",
                    "--metric", "units", "--seed", "4", "--workers", "1",
                    "--out", out]) == 0
        rows = read_rows(out)
        assert rows[0] == COVERAGE_HEADER
        assert 0.0 <= float(rows[1][1]) <= 1.0


class TestWorkerPool:
    """Each command runs on one pool, and no worker process outlives the command."""

    FRONTIER = ["frontier", "--n-sessions", "1500", "--gammas", "0.5,1,4", "--p", "8",
                "--exposure-draws", "4"]
    SWEEP = ["sweep", "--n", "80", "--phis", "0.1,0.3,0.6", "--p", "8"]

    @pytest.fixture()
    def pools(self, monkeypatch):
        built = []

        class Counted(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
        return built

    def _run(self, command, system_path, out, workers=2):
        system = ["--system", system_path] if command[0] == "frontier" else []
        return run([*command, *system, "--workers", workers, "--out", out])

    @pytest.mark.parametrize("command", [FRONTIER, SWEEP], ids=["frontier", "sweep"])
    def test_one_pool_per_command(self, system_path, tmp_path, pools, command):
        pooled, serial = tmp_path / "pooled.csv", tmp_path / "serial.csv"
        assert self._run(command, system_path, pooled) == 0
        assert len(pools) == 1
        assert multiprocessing.active_children() == []
        assert self._run(command, system_path, serial, workers=1) == 0
        assert pooled.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("command,n_pools", [
        (FRONTIER, 1), (SWEEP, 1),
        # Every gamma leaves one cluster, so there is no draw to run and no pool to build.
        (FRONTIER[:4] + ["1e-9,2e-9"] + FRONTIER[5:], 0),
    ], ids=["frontier", "sweep", "frontier-without-draws"])
    def test_all_draws_go_to_one_map(self, system_path, tmp_path, monkeypatch, pools, command,
                                     n_pools):
        calls, parallel_map = [], cli.experiment._parallel_map

        def counting_map(fn, jobs, workers):
            calls.append(len(jobs))
            return parallel_map(fn, jobs, workers)

        monkeypatch.setattr(cli.experiment, "_parallel_map", counting_map)
        assert self._run(command, system_path, tmp_path / "o.csv") == 0
        assert len(calls) == 1 and len(pools) == n_pools
        assert multiprocessing.active_children() == []

    def test_pool_size_is_capped_at_the_cpus_this_process_may_use(self, monkeypatch, pools):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cli.experiment._parallel_map(abs, [(-1,)], 10**6)
        assert [pool._max_workers for pool in pools] == [2]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command,message,n_pools", [
        # Every session views one article, so Louvain raises here before the pool is built.
        (FRONTIER + ["--views-min", "1", "--views-max", "1"],
         "louvain requires a graph with positive total weight", 0),
        # The first gamma fails in this process, before the pool is built.
        (FRONTIER + ["--multiplier", "1e-300"], "the global treatment effect is not finite", 0),
        # The phis are checked before the pool is built.
        (SWEEP[:4] + ["0.1,1.5"] + SWEEP[5:], "phi values must lie in [0, 1)", 0),
    ], ids=["frontier-job", "frontier-parent", "sweep"])
    def test_failure_is_one_error_line_and_leaves_no_worker(self, system_path, tmp_path, capfd,
                                                            pools, command, message, n_pools):
        out = tmp_path / "o.csv"
        assert self._run(command, system_path, out) == 1
        err = capfd.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert len(pools) == n_pools
        assert multiprocessing.active_children() == []
        assert not out.exists()


class TestConfigFile:
    def test_file_supplies_options_and_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 40, "seed": 3, "cluster_size_min": 2,
                                   "cluster_size_max": 4}))
        from_file = tmp_path / "file.json"
        assert run(["gen", "--config", cfg, "--out", from_file]) == 0
        assert DemandSystem.load(from_file).n == 40

        overridden = tmp_path / "override.json"
        assert run(["gen", "--config", cfg, "--n", "50",
                    "--out", overridden]) == 0
        assert DemandSystem.load(overridden).n == 50

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frobnicate": 1}))
        assert run(["gen", "--config", cfg, "--out", tmp_path / "x.json"]) == 1
        assert "frobnicate" in capsys.readouterr().err

    def test_values_are_converted_like_flags(self, system_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": "10", "metric": "units"}))
        out = tmp_path / "o.csv"
        assert run(["simulate", "--config", cfg, "--system", system_path,
                    "--workers", "1", "--out", out]) == 0
        assert read_rows(out)[1][BIAS_HEADER.index("p")] == "10"

    @pytest.mark.parametrize("values,message", [({"p": "ten"}, "invalid value for 'p'"),
                                                ({"p": 2.5}, "invalid value for 'p'"),
                                                ({"metric": "profit"}, "'metric' must be one of")])
    def test_bad_value_is_usage_error(self, system_path, tmp_path, capsys, values, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--config", cfg, "--system", system_path,
                 "--out", tmp_path / "o.csv"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_strategy_from_file_applies_and_flag_overrides(self, system_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strategy": "cluster", "p": 10, "workers": 1}))
        from_file, overridden = tmp_path / "file.csv", tmp_path / "flag.csv"
        assert run(["simulate", "--config", cfg, "--system", system_path,
                    "--out", from_file]) == 0
        assert read_rows(from_file)[1][BIAS_HEADER.index("strategy")] == "cluster"
        assert run(["simulate", "--config", cfg, "--strategy", "article",
                    "--system", system_path, "--out", overridden]) == 0
        assert read_rows(overridden)[1][BIAS_HEADER.index("strategy")] == "article"

    def test_force_from_file_overwrites(self, system_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"force": True}))
        assert run(["gen", *GEN_SMALL, "--seed", "4", "--config", cfg,
                    "--out", system_path]) == 0
        assert DemandSystem.load(system_path).seed == 4

    @pytest.mark.parametrize("value", ["false", 1, None])
    def test_non_boolean_switch_is_usage_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"force": value}))
        with pytest.raises(SystemExit) as exc:
            run(["gen", *GEN_SMALL, "--config", cfg, "--out", tmp_path / "x.json"])
        assert exc.value.code == 2
        assert "'force' must be true or false" in capsys.readouterr().err

    # Each command with the flags it requires, and small sizes for the rest.
    REQUIRED_FLAGS = {
        "gen": GEN_SMALL,
        "simulate": ["--system", "sys.json"],
        "sweep": [*GEN_SMALL, "--phis", "0", "--p", "4"],
        "cluster": ["--n-sessions", "10"],
        "exposure": ["--n-sessions", "10"],
        "frontier": ["--system", "sys.json"],
        "meta": ["--in", "meta_in.csv"],
        "coverage": ["--system", "sys.json"],
    }

    @pytest.mark.parametrize("command,key,flag", [
        *[(command, "out", "--out") for command in REQUIRED_FLAGS],
        *[(command, "system", "--system") for command in ("simulate", "frontier", "coverage")],
        ("meta", "infile", "--in")])
    def test_key_of_a_required_flag_is_rejected(self, tmp_path, capsys, command, key, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "elsewhere"}))
        out = tmp_path / "o.csv"
        assert run([command, *self.REQUIRED_FLAGS[command], "--config", cfg,
                    "--workers", "1", "--out", out]) == 1
        assert capsys.readouterr().err == (f"error: config file {cfg}: '{key}' must be given "
                                           f"on the command line as {flag}\n")
        assert not out.exists()

    def test_unreadable_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["gen", "--config", cfg, "--out", tmp_path / "x.json"]) == 1
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        b"{not json", b'{"n": "\xff"}', b"[" * 100_000 + b"]" * 100_000, None],
        ids=["not-json", "not-utf8", "too-deep", "missing"])
    def test_unreadable_config_is_one_error_line_naming_it(self, tmp_path, data):
        # Run as a child process, as the system-file overflow tests are.
        cfg, out = tmp_path / "cfg.json", tmp_path / "x.json"
        if data is not None:
            cfg.write_bytes(data)
        proc = subprocess.run(
            [sys.executable, "-m", "interference_lab.cli", "gen", "--config", str(cfg),
             "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: cannot read config file")
        assert str(cfg) in proc.stderr
        assert proc.stderr.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["frontier", "--system", "{sys}", "--n-sessions", "300", "--gammas", "a,b", "--p", "4"],
     "cannot parse gamma list: 'a,b'"),
    (["gen", "--config", "{pair}"], "config file {pair} must hold a JSON object"),
    (["cluster", "--n-sessions", "10"], "session synthesis needs --partition or --system"),
    (["gen", "--own-spread=-1"], "own_spread must be >= 0"),
    (["simulate", "--system", "{one}"], "demand system must be a JSON object"),
], ids=["gamma-list", "config-array", "synthesis-space", "own-spread", "system-array"])
def test_input_error_is_one_error_line(system_path, tmp_path, capsys, argv, message):
    files = {"sys": system_path, "pair": tmp_path / "pair.json", "one": tmp_path / "one.json"}
    files["pair"].write_text("[1, 2]")
    files["one"].write_text("[1]")
    out = tmp_path / "out"
    assert run([a.format(**files) for a in argv] + ["--workers", "1", "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message.format(**files)}\n"
    assert not out.exists()


class TestSeedResolution:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "3")
        from_env = tmp_path / "env.json"
        assert run(["gen", *GEN_SMALL, "--out", from_env]) == 0
        explicit = tmp_path / "flag.json"
        assert run(["gen", *GEN_SMALL, "--seed", "3", "--out", explicit]) == 0
        assert from_env.read_bytes() == explicit.read_bytes()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "999")
        out = tmp_path / "s.json"
        assert run(["gen", *GEN_SMALL, "--seed", "3", "--out", out]) == 0
        assert DemandSystem.load(out).seed == 3

    @pytest.mark.parametrize("flags,env,source,value", [
        (["--seed", "-1"], None, "--seed", "-1"),
        ([], "-3", "$INTERFERENCE_LAB_SEED", "'-3'"),
        ([], "x", "$INTERFERENCE_LAB_SEED", "'x'"),
    ], ids=["flag-negative", "env-negative", "env-not-an-integer"])
    def test_bad_seed_names_its_source(self, tmp_path, monkeypatch, capsys, flags, env,
                                       source, value):
        if env is None:
            monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(cli.SEED_ENV_VAR, env)
        out = tmp_path / "s.json"
        assert run(["gen", *GEN_SMALL, *flags, "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {source} must be a non-negative integer, not {value}\n")
        assert not out.exists()

    def test_bad_workers(self, system_path, tmp_path, capsys):
        code = run(["simulate", "--system", system_path, "--workers", "0",
                    "--p", "10", "--out", tmp_path / "o.csv"])
        assert code == 1
        assert "--workers" in capsys.readouterr().err


class TestArticleSpace:
    """``--partition`` and ``--system`` must cover the same articles."""

    @pytest.mark.parametrize("n", [40, 120], ids=["smaller", "larger"])
    @pytest.mark.parametrize("command", [
        ["simulate", "--strategy", "cluster", "--p", "4"],
        ["coverage", "--strategy", "cluster", "--p", "4"],
        ["cluster", "--n-sessions", "200"],
        ["exposure", "--n-sessions", "200"],
        ["frontier", "--n-sessions", "200", "--gammas", "1", "--p", "4",
         "--exposure-draws", "2"],
    ], ids=lambda c: c[0])
    def test_count_mismatch_is_one_error_line_naming_both_files(
            self, system_path, tmp_path, capsys, command, n):
        part = tmp_path / f"part{n}.csv"
        part.write_text("article_id,cluster_id\n"
                        + "".join(f"{i},{i // 4}\n" for i in range(n)))
        out = tmp_path / "o.csv"
        assert run([*command, "--system", system_path, "--partition", part,
                    "--workers", "1", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(part) in err and str(system_path) in err
        assert f"{n} articles" in err and "80" in err
        assert not out.exists()

    def test_exposure_needs_a_partition_before_reading_sessions(self, tmp_path, capsys):
        clicks = tmp_path / "clicks.csv"
        clicks.write_text("session_id,article_id\na,1\nb\n")
        assert run(["exposure", "--strategy", "cluster", "--sessions", clicks,
                    "--out", tmp_path / "o.csv"]) == 1
        assert capsys.readouterr().err == (
            "error: cluster strategy needs --partition or --system\n")


class TestWorkerResolution:
    # The fewest arguments each subcommand parses with; none of the files is read.
    MINIMAL = {
        "gen": [], "simulate": ["--system", "s.json"], "sweep": [], "cluster": [],
        "exposure": [], "frontier": ["--system", "s.json"], "meta": ["--in", "m.csv"],
        "coverage": ["--system", "s.json"],
    }

    def test_minimal_arguments_cover_every_subcommand(self):
        assert set(self.MINIMAL) == set(subcommands(cli.build_parser()))

    @pytest.mark.parametrize("command", sorted(MINIMAL))
    def test_zero_workers_is_rejected_by_every_subcommand(self, tmp_path, capsys, command):
        out = tmp_path / "o.csv"
        assert run([command, *self.MINIMAL[command], "--workers", "0", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--workers" in err and err.count("\n") == 1
        assert not out.exists()

    def test_default_counts_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert cli._resolve_workers(argparse.Namespace(workers=None)) == 1
        assert cli._resolve_workers(argparse.Namespace(workers=3)) == 3

    @pytest.mark.parametrize("cpus,expected", [(4, 4), (None, 1)])
    def test_default_falls_back_to_cpu_count(self, monkeypatch, cpus, expected):
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert cli._resolve_workers(argparse.Namespace(workers=None)) == expected


class TestOptionTable:
    # Each subcommand's options as (option strings, default, required, choices).
    MC = {(("--metric",), "revenue", False, ("units", "revenue")),
          (("--multiplier",), 0.95, False, None), (("--p",), 1000, False, None)}
    SESSIONS = {(("--sessions",), None, False, None), (("--n-sessions",), None, False, None),
                (("--views-min",), 2, False, None), (("--views-max",), 5, False, None),
                (("--purity",), 0.9, False, None)}
    GENERATOR = {(("--n",), 10000, False, None), (("--cluster-size-min",), 2, False, None),
                 (("--cluster-size-max",), 20, False, None),
                 (("--own-mean",), -2.5, False, None), (("--own-spread",), 0.5, False, None),
                 (("--phi",), 0.3, False, None), (("--phi-bg",), 0.05, False, None),
                 (("--price-min",), 10.0, False, None), (("--price-max",), 100.0, False, None),
                 (("--quantity-min",), 10.0, False, None),
                 (("--quantity-max",), 100.0, False, None)}
    STRATEGY = ("article", "cluster")
    TABLE = {
        "gen": GENERATOR | {(("--force",), False, False, None)},
        "simulate": MC | {(("--system",), None, True, None),
                          (("--partition",), None, False, None),
                          (("--strategy",), "article", False, STRATEGY)},
        "sweep": GENERATOR - {(("--phi",), 0.3, False, None)} | MC | {
            (("--phis",), "0.1,0.2,0.3,0.4,0.5,0.6", False, None),
            (("--strategies",), "article,cluster", False, None)},
        "cluster": SESSIONS | {(("--system",), None, False, None),
                               (("--partition",), None, False, None),
                               (("--gamma",), 1.0, False, None)},
        "exposure": SESSIONS | {(("--system",), None, False, None),
                                (("--partition",), None, False, None),
                                (("--strategy",), "cluster", False, STRATEGY)},
        "frontier": SESSIONS | MC | {(("--system",), None, True, None),
                                     (("--partition",), None, False, None),
                                     (("--gammas",), "0.25,0.5,1,2,4,8", False, None),
                                     (("--exposure-draws",), 32, False, None)},
        "meta": {(("--in",), None, True, None), (("--ci-divisor",), 1.96, False, None)},
        "coverage": MC | {(("--system",), None, True, None),
                          (("--partition",), None, False, None),
                          (("--strategy",), "article", False, STRATEGY),
                          (("--noise-sigma",), 0.05, False, None)},
    }
    # Every subcommand takes these; the benchmark appends --out, --seed and --workers.
    COMMON = {(("--config",), None, False, None), (("--seed",), None, False, None),
              (("--workers",), None, False, None), (("--out",), None, True, None)}

    def test_every_subcommand_takes_the_common_options(self):
        for name, command in subcommands(cli.build_parser()).items():
            flags = {s for a in command._actions for s in a.option_strings}
            assert {"--out", "--seed", "--workers", "--config"} <= flags, name

    def test_options_defaults_and_choices_are_unchanged(self):
        table = {name: {(tuple(a.option_strings), a.default, a.required,
                         tuple(a.choices) if a.choices is not None else None)
                        for a in command._actions if a.dest != "help"}
                 for name, command in subcommands(cli.build_parser()).items()}
        assert table == {name: options | self.COMMON for name, options in self.TABLE.items()}


def test_readme_quick_start_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (CLI)", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    lines = [shlex.split(line) for line in block.splitlines()
             if line.startswith("interference-lab ")]
    assert len(lines) == 8
    parser = cli.build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])


# Each fuzzed flag's values: malformed, out of range, and in range. No value
# asks for more than 40 articles, 40 sessions or 8 draws, and --workers is
# never above 1, so every example runs in this process in milliseconds.
FUZZ_FLAGS = {
    "--seed": ["0", "5", "-1", "x", ""],
    "--workers": ["1", "0", "-1", "x"],
    "--p": ["-1", "0", "1", "2", "8", "x", "nan"],
    "--multiplier": ["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "0.95", "x"],
    "--metric": ["units", "revenue", "profit"],
    "--strategy": ["article", "cluster", "x"],
    "--n": ["-1", "0", "1", "2", "40", "x"],
    "--cluster-size-min": ["-1", "0", "1", "3", "41"],
    "--cluster-size-max": ["0", "1", "5", "40"],
    "--own-mean": ["nan", "inf", "-inf", "0", "-2.5", "1", "-1e308"],
    "--own-spread": ["nan", "-1", "0", "3"],
    "--phi": ["nan", "-0.1", "0", "0.5", "0.99", "1"],
    "--phi-bg": ["nan", "-0.1", "0", "0.5", "0.99"],
    "--price-min": ["nan", "-1", "0", "10", "1e308"],
    "--price-max": ["inf", "0", "5", "100", "1e308"],
    "--quantity-min": ["nan", "-1", "0", "10", "1e308"],
    "--quantity-max": ["inf", "0", "5", "100", "1e308"],
    "--phis": ["", ",", "nan", "inf", "0", "-0.1", "0.1,0.99", "1", "x", "0.2,,0.4"],
    "--strategies": ["", ",", "article", "cluster", "article,banana", "cluster,cluster"],
    "--n-sessions": ["-1", "0", "1", "30", "x"],
    "--views-min": ["-1", "0", "1", "3"],
    "--views-max": ["-1", "0", "1", "4"],
    "--purity": ["nan", "inf", "-0.5", "0", "1", "1.5"],
    "--gamma": ["nan", "inf", "-inf", "0", "-1", "1", "1e308", "1e-308", "x"],
    "--gammas": ["", ",", "nan", "inf", "0", "-1", "1,4", "1e-308,1e308", "x,1", "0.001,1"],
    "--exposure-draws": ["-1", "0", "1", "3", "x"],
    "--noise-sigma": ["nan", "inf", "-1", "0", "0.05", "1e300"],
    "--ci-divisor": ["nan", "inf", "-inf", "0", "-1", "1.96", "1e-320"],
}
# Flags that name files, and --force, which takes no value.
FUZZ_FILE_FLAGS = {"--config", "--out", "--system", "--partition", "--sessions", "--in",
                   "--force"}
# JSON values put in place of system and config values; each draw is a fresh copy.
FUZZ_JUNK = st.sampled_from([None, True, False, 0, -1, 2, 10**30, -(10**30), 0.5, -2.5,
                             1e308, -1e308, 5e-324, math.nan, math.inf, "x", "", "nan", [],
                             [1, [2]], {}, {"a": 1}]).map(copy.deepcopy)


class TestFuzz:
    """``cli.main`` on malformed files and flag values.

    Each run exits 0, or 1 with exactly one stderr line starting ``error:``, or
    2 from argparse. No other exception and no warning escapes. A failed run
    leaves no output file, and a file written with exit 0 holds ``nan`` only in
    rows its report defines as undefined, and ``inf`` nowhere.
    """

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        """Holds ``base.json``, the system that the file fuzzers mutate, and ``meta.csv``."""
        path = tmp_path_factory.mktemp("fuzz")
        assert run(["gen", "--n", "24", "--cluster-size-max", "5", "--seed", "1",
                    "--out", path / "base.json"]) == 0
        (path / "meta.csv").write_text("label,est_clustered,ci_halfwidth,est_article\n"
                                       "q3,0.41,0.05,0.61\n")
        return path

    @staticmethod
    def base_args(command: str, workdir: Path) -> list[str]:
        """Arguments that make ``command`` run on the fuzz system; fuzzed flags follow."""
        system = ["--system", str(workdir / "base.json")]
        sessions = ["--n-sessions", "30"]
        return {
            "gen": ["--n", "24", "--cluster-size-max", "5"],
            "simulate": [*system, "--p", "4"],
            "sweep": ["--n", "24", "--cluster-size-max", "5", "--phis", "0.1,0.5", "--p", "4"],
            "cluster": [*system, *sessions],
            "exposure": [*system, *sessions],
            "frontier": [*system, *sessions, "--gammas", "1,4", "--p", "4",
                         "--exposure-draws", "2"],
            "meta": ["--in", str(workdir / "meta.csv")],
            "coverage": [*system, "--p", "4"],
        }[command]

    @staticmethod
    def check_run(argv: list, out: Path) -> int:
        out.unlink(missing_ok=True)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                code = cli.main([str(a) for a in [*argv, "--out", out]])
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
        err = stderr.getvalue()
        if code == 2:
            assert "error:" in err
        elif code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert code == 0 and err == "", (code, err)
            TestFuzz.check_output(out)
        assert code == 0 or not out.exists()
        return code

    @staticmethod
    def check_output(out: Path) -> None:
        if out.suffix == ".json":
            text = out.read_text()
            assert "NaN" not in text and "Infinity" not in text
            return
        header, *rows = read_rows(out)
        for row in rows:
            cells = dict(zip(header, row))
            undefined = set()
            if header == FRONTIER_HEADER and int(cells["n_clusters"]) < 2:
                undefined = {"share_both", "mean_bias", "relative_sd"}
            if header == COVERAGE_HEADER and float(cells["aa_sd"]) == 0:
                undefined = {"coverage_rate", "mean_z"}
            for name, value in cells.items():
                if name in undefined:
                    assert value == "nan", (name, row)
                elif name not in ("strategy", "label") and not (name == "phi" and value == ""):
                    assert math.isfinite(float(value)), (name, row)

    def test_every_flag_with_a_value_is_fuzzed(self):
        for name, command in subcommands(cli.build_parser()).items():
            flags = {s for a in command._actions for s in a.option_strings} - {"-h", "--help"}
            assert flags - FUZZ_FILE_FLAGS <= set(FUZZ_FLAGS), name

    @settings(max_examples=90, deadline=None)
    @given(data=st.data())
    def test_flag_values(self, workdir, data):
        parser = subcommands(cli.build_parser())
        command = data.draw(st.sampled_from(sorted(parser)))
        options = sorted({s for a in parser[command]._actions for s in a.option_strings}
                         & set(FUZZ_FLAGS))
        flags = data.draw(st.lists(st.sampled_from(options), min_size=1, max_size=4))
        values = [f"{flag}={data.draw(st.sampled_from(FUZZ_FLAGS[flag]))}" for flag in flags]
        self.check_run([command, *self.base_args(command, workdir), "--workers", "1",
                        *values], workdir / "out.csv")

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_system_file(self, workdir, data):
        system = json.loads((workdir / "base.json").read_text())
        for _ in range(data.draw(st.integers(1, 3))):
            key = data.draw(st.sampled_from(sorted(system) + ["config"]))
            how = data.draw(st.sampled_from(["drop", "replace", "entry", "resize"]))
            value = system.get(key)
            if how == "drop":
                system.pop(key, None)
            elif how == "replace" or not value:
                system[key] = data.draw(FUZZ_JUNK)
            elif how == "resize" and isinstance(value, list):
                system[key] = value[:-1] if data.draw(st.booleans()) else value + value[:1]
            elif isinstance(value, (list, dict)):
                at = data.draw(st.sampled_from(sorted(value) if isinstance(value, dict)
                                               else range(len(value))))
                value[at] = data.draw(FUZZ_JUNK)
        path = workdir / "sys.json"
        path.write_text(json.dumps(system))
        command = data.draw(st.sampled_from(["simulate", "coverage", "frontier", "cluster",
                                             "exposure"]))
        args = self.base_args(command, workdir)
        args[args.index("--system") + 1] = path
        strategy = [] if command in ("cluster", "frontier") else data.draw(
            st.sampled_from([[], ["--strategy", "cluster"]]))
        self.check_run([command, *args, *strategy, "--workers", "1"], workdir / "out.csv")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_config_file(self, workdir, data):
        parser = subcommands(cli.build_parser())
        command = data.draw(st.sampled_from(sorted(parser)))
        keys = sorted({a.dest for a in parser[command]._actions} - {"help"}) + ["frobnicate"]
        cfg = workdir / "cfg.json"
        if data.draw(st.integers(0, 5)) == 0:
            cfg.write_bytes(data.draw(st.sampled_from(
                [b"", b"\xff", b"[" * 5000, b"[]", b"null", b"1", b'{"p": }', b"{}"])))
        else:
            cfg.write_text(json.dumps(data.draw(st.dictionaries(
                st.sampled_from(keys), FUZZ_JUNK | st.sampled_from(
                    ["1", "4", "0.5", "units", "cluster", "article,cluster", "1,4"]),
                max_size=3))))
        self.check_run([command, *self.base_args(command, workdir), "--workers", "1",
                        "--config", cfg], workdir / "out.csv")

    CSV_CELLS = ["", "x", "-1", "1.5", " 7", "+7", "nan", "inf", "0", "1e308", "1e-320",
                 str(2**62), str(2**63), str(2**64), '"a,b"', '"a\rb"']

    @settings(max_examples=70, deadline=None)
    @given(data=st.data())
    def test_csv_file(self, workdir, data):
        partition = json.loads((workdir / "base.json").read_text())["partition"]
        kind = data.draw(st.sampled_from(["partition", "sessions", "meta"]))
        header, rows = {
            "partition": ("article_id,cluster_id",
                          [[str(i), str(c)] for i, c in enumerate(partition)]),
            "sessions": ("session_id,article_id",
                         [[f"s{i // 3}", str(5 * i % 24)] for i in range(12)]),
            "meta": ("label,est_clustered,ci_halfwidth,est_article",
                     [["q3", "0.41", "0.05", "0.61"], ["q4", "0.35", "0.08", "0.62"]]),
        }[kind]
        for _ in range(data.draw(st.integers(1, 3))):
            how = data.draw(st.sampled_from(["cell", "cell", "drop", "repeat", "blank",
                                             "long", "short", "header"]))
            at = data.draw(st.integers(0, len(rows) - 1)) if rows else 0
            if how == "header":
                header = data.draw(st.sampled_from(["", "a,b", f" {header} ", header + ",x"]))
            elif how == "blank" or not rows:
                rows.insert(at, [])
            elif how == "cell":
                row = rows[at] or [""]
                row[data.draw(st.integers(0, len(row) - 1))] = \
                    data.draw(st.sampled_from(self.CSV_CELLS))
                rows[at] = row
            else:
                row = rows.pop(at)
                rows[at:at] = {"drop": [], "repeat": [row, row], "long": [row + ["1"]],
                               "short": [row[:1]]}[how]
        path = workdir / "in.csv"
        path.write_text("\n".join([header, *map(",".join, rows)]) + "\n")
        system = ["--system", workdir / "base.json"]
        if kind == "meta":
            argv = ["meta", "--in", path]
        elif kind == "partition":
            argv = data.draw(st.sampled_from([
                ["simulate", *system, "--strategy", "cluster", "--p", "4"],
                ["coverage", *system, "--strategy", "cluster", "--p", "4"],
                ["exposure", "--n-sessions", "30"], ["cluster", "--n-sessions", "30"],
                ["frontier", *self.base_args("frontier", workdir)]]))
            argv += ["--partition", path]
        else:
            argv = data.draw(st.sampled_from([
                ["cluster"], ["cluster", *system], ["exposure", *system],
                ["exposure", "--strategy", "article"], ["frontier", *system, "--p", "4",
                                                        "--gammas", "1,4",
                                                        "--exposure-draws", "2"]]))
            argv += ["--sessions", path]
        self.check_run([*argv, "--workers", "1"], workdir / "out.csv")
