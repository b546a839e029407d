import json
import math
import os
import subprocess
import sys

import pytest

import eigrates
from eigrates import cli, estimate_tail, rate_wishart, wishart_t_star
from eigrates.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    ExperimentConfig,
    main,
    parse_alpha_grid,
    read_output,
    run_compare,
)
from eigrates.errors import DomainError


def run(args):
    return main([str(a) for a in args])


class TestAlphaGrid:
    def test_inclusive_endpoint(self):
        grid = parse_alpha_grid("0.1:0.5:0.1")
        assert len(grid) == 5
        assert grid[-1] == pytest.approx(0.5, abs=1e-12)

    def test_single_value(self):
        assert parse_alpha_grid("1.3") == (1.3,)

    def test_bad_spec(self):
        with pytest.raises(DomainError):
            parse_alpha_grid("1:2")
        with pytest.raises(DomainError):
            parse_alpha_grid("1:2:-0.5")


class TestConfigRoundTrip:
    def test_round_trips_unchanged(self):
        config = ExperimentConfig(subcommand="mc", dist="normal", k=2, n=50,
                                  alpha_grid=(1.1, 1.2), side="max_above",
                                  trials=100, seed=7, out="x.jsonl", format="jsonl")
        assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


class TestRateCommand:
    def test_normal_curve_matches_closed_form(self, tmp_path):
        out = tmp_path / "rate.csv"
        assert run(["rate", "--dist", "normal", "--alpha-grid", "0.1:5:0.1",
                    "--out", out]) == EXIT_OK
        config, rows = read_output(out)
        assert config.subcommand == "rate"
        assert len(rows) == 50
        for row in rows:
            assert row["rate"] == pytest.approx(rate_wishart(row["alpha"]), abs=1e-9)
            assert row["t_star"] == pytest.approx(wishart_t_star(row["alpha"]), abs=1e-8)

    def test_domain_violation_leaves_no_output(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        for args in (["rate", "--dist", "normal", "--alpha-grid", "-1"],
                     ["rate", "--dist", "normal", "--alpha-grid", "nan"],
                     ["rate", "--dist", "rademacher", "--k", 3, "--alpha-grid", "nan"],
                     ["rate", "--dist", "uniform", "--k", 2, "--alpha-grid", "nan"],
                     ["covering", "--k", 3, "--radius-ratio", "nan"]):
            assert run(args + ["--out", out]) == EXIT_DOMAIN
            assert not out.exists()
            err = capsys.readouterr().err
            assert json.loads(err)["error"] == "domain"

    def test_rademacher_with_k(self, tmp_path):
        out = tmp_path / "rk.csv"
        assert run(["rate", "--dist", "rademacher", "--k", 3, "--alpha-grid", "1.5",
                    "--restarts", 2, "--out", out]) == EXIT_OK
        _, rows = read_output(out)
        assert rows[0]["rate"] >= rate_wishart(1.5) - 1e-8

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["rate", "--dist", "lognormal", "--alpha-grid", "1", "--out", "x.csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("args", [
        ["zero", "--k", 2, "--l", 1, "--n-list", "6,x", "--trials", 10, "--out", "o.jsonl"],
        ["rate", "--dist", "normal", "--alpha-grid", "abc", "--out", "o.csv"],
        ["mc", "--dist", "normal", "--k", 2, "--n", 8, "--alpha-grid", "1:x:0.1",
         "--side", "max_above", "--trials", 10, "--out", "o.jsonl"],
        ["sdpic", "--k", 2, "--n", 8, "--s", "x", "--trials", 10, "--out", "o.jsonl"],
        ["compare", "--rates", "missing.csv", "--mc", "missing.jsonl"],
        ["compare", "--rates", "bad.jsonl", "--mc", "bad.jsonl"],
    ])
    def test_malformed_input_exit_2(self, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.jsonl").write_text("{not json\n")
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == 2
        assert [p.name for p in tmp_path.iterdir()] == ["bad.jsonl"]

    def test_negative_restarts_exit_3(self, tmp_path):
        out = tmp_path / "rk.csv"
        assert run(["rate", "--dist", "rademacher", "--k", 3, "--alpha-grid", "0.5",
                    "--restarts", -1, "--out", out]) == EXIT_DOMAIN
        assert not out.exists()


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "a.jsonl"
        args = ["mc", "--dist", "rademacher", "--k", 2, "--n", 8, "--alpha-grid",
                "0.5:1:0.25", "--side", "min_below", "--trials", 2000, "--seed", 5,
                "--out", out]
        assert run(args) == EXIT_OK
        first = out.read_bytes()
        assert run(args) == EXIT_OK
        assert out.read_bytes() == first

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EIGRATES_SEED", "31337")
        out = tmp_path / "seeded.csv"
        assert run(["phase", "--out", out]) == EXIT_OK
        config, _ = read_output(out)
        assert config.seed == 31337


class TestMcLevelGrid:
    # every level of --alpha-grid is counted on one sampling pass, with the
    # records of a separate run per level
    @pytest.mark.parametrize("dist, k, n, grid, side, fmt", [
        ("rademacher", 3, 8, "0.3:0.7:0.1", "min_below", "jsonl"),
        ("normal", 2, 20, "1.2:1.6:0.1", "max_above", "csv"),
    ])
    def test_grid_equals_one_level_runs(self, tmp_path, monkeypatch, dist, k, n, grid,
                                        side, fmt):
        args = ["mc", "--dist", dist, "--k", k, "--n", n, "--side", side,
                "--trials", 70000, "--seed", 11, "--format", fmt]
        levels = parse_alpha_grid(grid)
        assert len(levels) == 5
        out = tmp_path / "grid"  # the header names the output path
        assert run(args + ["--alpha-grid", grid, "--out", out]) == EXIT_OK
        one_pass = out.read_bytes()

        def level_by_level(dist, k, n, alphas, side, trials, seed):
            return [estimate_tail(dist, k, n, a, side, trials, seed) for a in alphas]

        with monkeypatch.context() as mp:
            mp.setattr(cli, "estimate_tails", level_by_level)
            assert run(args + ["--alpha-grid", grid, "--out", out]) == EXIT_OK
        assert out.read_bytes() == one_pass

        # and each record line is that of a one-level run
        rows = []
        for i, alpha in enumerate(levels):
            level = tmp_path / f"level_{i}"
            assert run(args + ["--alpha-grid", repr(alpha), "--out", level]) == EXIT_OK
            rows += level.read_text().splitlines()[1 if fmt == "jsonl" else 3:]
        assert one_pass.decode().splitlines()[1 if fmt == "jsonl" else 3:] == rows


class TestPhaseCommand:
    def test_limit_point(self, tmp_path):
        out = tmp_path / "phase.csv"
        assert run(["phase", "--out", out]) == EXIT_OK
        _, rows = read_output(out)
        assert math.isinf(rows[0]["k"])
        assert rows[0]["alpha_star"] == pytest.approx(0.253, abs=0.005)

    def test_k3(self, tmp_path):
        out = tmp_path / "phase3.csv"
        assert run(["phase", "--k", 3, "--out", out]) == EXIT_OK
        _, rows = read_output(out)
        assert rows[0]["alpha_star"] == pytest.approx(0.425, abs=0.015)


class TestMcZeroSdpic:
    def test_mc_jsonl_self_describes(self, tmp_path):
        out = tmp_path / "mc.jsonl"
        assert run(["mc", "--dist", "normal", "--k", 2, "--n", 20, "--alpha-grid", "1.4",
                    "--side", "max_above", "--trials", 500, "--seed", 3,
                    "--out", out]) == EXIT_OK
        lines = out.read_text().splitlines()
        head = json.loads(lines[0])
        assert head["record"] == "config" and head["version"]
        row = json.loads(lines[1])
        assert row["trials"] == 500 and 0 <= row["p_hat"] <= 1

    def test_zero_command(self, tmp_path):
        out = tmp_path / "zero.jsonl"
        assert run(["zero", "--k", 2, "--l", 1, "--n-list", "6,10", "--trials", 100,
                    "--seed", 2, "--out", out]) == EXIT_OK
        rows = [json.loads(line) for line in out.read_text().splitlines()[1:]]
        assert rows[0]["method"] == "exact"
        assert rows[0]["p_hat"] == 2.0**-5

    def test_sdpic_command_with_trace(self, tmp_path):
        out = tmp_path / "ber.jsonl"
        trace = tmp_path / "trace.csv"
        assert run(["sdpic", "--k", 2, "--n", 12, "--s", "inf", "--trials", 2000,
                    "--seed", 4, "--out", out, "--trace", trace,
                    "--trace-stages", 6]) == EXIT_OK
        row = json.loads(out.read_text().splitlines()[1])
        assert row["s"] == "inf"
        assert len(trace.read_text().splitlines()) == 3 + 6  # header lines + rows

    @pytest.mark.parametrize("s, trials", [(0, 100), (2, 0)])
    def test_sdpic_domain_error_writes_no_trace(self, tmp_path, s, trials):
        out = tmp_path / "ber.jsonl"
        trace = tmp_path / "trace.csv"
        assert run(["sdpic", "--k", 3, "--n", 16, "--s", s, "--trials", trials,
                    "--out", out, "--trace", trace]) == EXIT_DOMAIN
        assert not out.exists() and not trace.exists()

    def test_sdpic_weight_at_infinite_stage_is_rejected(self, tmp_path):
        out = tmp_path / "ber.jsonl"
        assert run(["sdpic", "--k", 3, "--n", 16, "--s", "inf", "--weight", 1.5,
                    "--trials", 2000, "--seed", 5, "--out", out]) == EXIT_DOMAIN
        assert not out.exists()

    def test_zero_csv_reads_back_as_the_jsonl_record(self, tmp_path):
        args = ["zero", "--k", 2, "--l", 1, "--n-list", "6,14", "--trials", 1000, "--seed", 1]
        csv_out, jsonl_out = tmp_path / "zero.csv", tmp_path / "zero.jsonl"
        assert run(args + ["--format", "csv", "--out", csv_out]) == EXIT_OK
        assert run(args + ["--out", jsonl_out]) == EXIT_OK
        _, csv_rows = read_output(csv_out)
        _, records = read_output(jsonl_out)
        assert [r["method"] for r in records] == ["exact", "mc"]
        assert records[1]["hits"] == 0 and records[1]["ci"][1] > 0
        for row, rec in zip(csv_rows, records, strict=True):
            ci_low, ci_high = rec["ci"] or (None, None)
            assert row == {"n": rec["n"], "method": rec["method"], "trials": rec["trials"],
                           "hits": rec["hits"], "p_hat": rec["p_hat"], "ci_low": ci_low,
                           "ci_high": ci_high, "empirical_rate": rec["empirical_rate"]}

    def test_covering_command(self, tmp_path):
        out = tmp_path / "cov.csv"
        assert run(["covering", "--k", 4, "--grid-l", 8, "--radius-ratio", 3.0,
                    "--out", out]) == EXIT_OK
        _, rows = read_output(out)
        kinds = {r["kind"] for r in rows}
        assert kinds == {"grid", "rogers_log"}

    @pytest.mark.parametrize("args", [
        ["zero", "--k", 2, "--l", 1, "--n-list", 16, "--trials", 0],
        ["hist", "--dist", "normal", "--k", 2, "--n", 0, "--trials", 100, "--bins", 10],
    ])
    def test_empty_budget_or_shape_exit_3(self, tmp_path, args):
        out = tmp_path / "out.txt"
        assert run(args + ["--out", out]) == EXIT_DOMAIN
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["sdpic", "--k", 2, "--n", 8, "--s", 2, "--trials", 10, "--format", "csv"],
        ["hist", "--dist", "normal", "--k", 2, "--n", 8, "--trials", 100, "--bins", 10,
         "--format", "jsonl"],
    ])
    def test_format_not_written_in_full_is_usage_error(self, tmp_path, args):
        out = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as exc:
            run(args + ["--out", out])
        assert exc.value.code == 2
        assert not out.exists()

    def test_hist_command(self, tmp_path):
        out = tmp_path / "hist.csv"
        assert run(["hist", "--dist", "normal", "--k", 5, "--n", 40, "--trials", 200,
                    "--bins", 12, "--seed", 6, "--out", out]) == EXIT_OK
        text = out.read_text()
        assert "# outside_fraction" in text
        _, rows = read_output(out)
        assert sum(r["mass"] for r in rows) == pytest.approx(1.0, abs=1e-9)


class TestCompare:
    def _write_pair(self, tmp_path, alphas="1.2:1.4:0.2"):
        rate_file = tmp_path / "rates.csv"
        mc_file = tmp_path / "mc.jsonl"
        assert run(["rate", "--dist", "normal", "--alpha-grid", alphas,
                    "--out", rate_file]) == EXIT_OK
        assert run(["mc", "--dist", "normal", "--k", 2, "--n", 60, "--alpha-grid", alphas,
                    "--side", "max_above", "--trials", 40000, "--seed", 11,
                    "--out", mc_file]) == EXIT_OK
        return rate_file, mc_file

    def test_contained_verdict(self, tmp_path):
        rate_file, mc_file = self._write_pair(tmp_path)
        report = run_compare(str(rate_file), str(mc_file))
        assert {r["verdict"] for r in report} <= {"contained", "below", "above", "no_hits"}
        assert any(r["verdict"] == "contained" for r in report)

    def test_mean_case_row(self, tmp_path):
        rate_file, mc_file = self._write_pair(tmp_path, alphas="1")
        report = run_compare(str(rate_file), str(mc_file))
        assert report[0]["rate"] == 0.0
        assert report[0]["verdict"] == "contained"

    def test_empty_intersection_fails(self, tmp_path):
        rate_file = tmp_path / "rates.csv"
        mc_file = tmp_path / "mc.jsonl"
        assert run(["rate", "--dist", "normal", "--alpha-grid", "2.0",
                    "--out", rate_file]) == EXIT_OK
        assert run(["mc", "--dist", "normal", "--k", 2, "--n", 20, "--alpha-grid", "1.3",
                    "--side", "max_above", "--trials", 200, "--seed", 1,
                    "--out", mc_file]) == EXIT_OK
        with pytest.raises(DomainError):
            run_compare(str(rate_file), str(mc_file))

    def test_cli_exit_codes(self, tmp_path):
        rate_file, mc_file = self._write_pair(tmp_path)
        assert run(["compare", "--rates", rate_file, "--mc", mc_file]) == EXIT_OK
        other_rates = tmp_path / "other.csv"
        assert run(["rate", "--dist", "normal", "--alpha-grid", "3.0",
                    "--out", other_rates]) == EXIT_OK
        assert run(["compare", "--rates", other_rates, "--mc", mc_file]) == EXIT_DOMAIN


def test_cli_import_leaves_out_scipy_stats():
    src = os.path.dirname(os.path.dirname(eigrates.__file__))
    code = "import sys, eigrates.cli; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": src})
