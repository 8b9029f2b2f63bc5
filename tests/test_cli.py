"""End-to-end tests for the command-line interface."""

import csv
import json

import pytest

from interference_lab import DemandSystem, cli
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


class TestExposure:
    def test_exposure_csv(self, system_path, tmp_path):
        out = tmp_path / "exp.csv"
        assert run(["exposure", "--system", system_path, "--n-sessions", "500",
                    "--seed", "8", "--out", out]) == 0
        rows = read_rows(out)
        assert rows[0] == EXPOSURE_HEADER
        shares = [float(x) for x in rows[1][:3]]
        assert sum(shares) == pytest.approx(1.0)


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


class TestCoverage:
    def test_coverage_csv(self, system_path, tmp_path):
        out = tmp_path / "cov.csv"
        assert run(["coverage", "--system", system_path, "--p", "40",
                    "--metric", "units", "--seed", "4", "--workers", "1",
                    "--out", out]) == 0
        rows = read_rows(out)
        assert rows[0] == COVERAGE_HEADER
        assert 0.0 <= float(rows[1][1]) <= 1.0


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

    def test_unreadable_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["gen", "--config", cfg, "--out", tmp_path / "x.json"]) == 1
        assert "cannot read config file" in capsys.readouterr().err


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

    def test_bad_workers(self, system_path, tmp_path, capsys):
        code = run(["simulate", "--system", system_path, "--workers", "0",
                    "--p", "10", "--out", tmp_path / "o.csv"])
        assert code == 1
        assert "--workers" in capsys.readouterr().err
