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
        assert len(parse_alpha_grid("0:9999:1")) == cli.GRID_MAX_POINTS

    def test_single_value(self):
        assert parse_alpha_grid("1.3") == (1.3,)
        assert parse_alpha_grid("inf") == (math.inf,)  # mc counts at any level

    def test_bad_spec(self):
        # a wrongly shaped range is a usage error (exit 2), like an
        # unbounded one
        for text in ("1:2", "1:2:3:4", "1:2:-0.5", "1:2:0", "1:2:nan"):
            with pytest.raises(ValueError) as exc:
                parse_alpha_grid(text)
            assert type(exc.value) is ValueError, text

    @pytest.mark.parametrize("text", ["0.1:inf:0.1", "nan:1:0.1", "0:1:inf", "0:1:1e-300",
                                      "-1e308:1e308:1", "0:10000:1"])
    def test_unbounded_range_is_a_usage_error(self, text):
        # ValueError, not DomainError: the CLI exits 2 on it, before any work
        with pytest.raises(ValueError) as exc:
            parse_alpha_grid(text)
        assert type(exc.value) is ValueError


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
                     ["covering", "--k", 3, "--radius-ratio", "nan"],
                     ["rate", "--dist", "normal", "--alpha-grid", "1:0:0.5"],
                     ["rate", "--dist", "rademacher", "--alpha-grid", "1.5"],
                     ["covering", "--k", 3]):
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
        ["rate", "--dist", "normal", "--alpha-grid", "0.1:inf:0.1", "--out", "o.csv"],
        ["mc", "--dist", "normal", "--k", 2, "--n", 8, "--alpha-grid", "0:1:1e-300",
         "--side", "max_above", "--trials", 10, "--out", "o.jsonl"],
        ["rate", "--dist", "normal", "--alpha-grid", "1:2", "--out", "o.csv"],
        ["mc", "--dist", "normal", "--k", 2, "--n", 8, "--alpha-grid", "1:2:-0.5",
         "--side", "max_above", "--trials", 10, "--out", "o.jsonl"],
        # an empty grid or n list is malformed, not a run with no rows
        ["rate", "--dist", "rademacher", "--k", 3, "--alpha-grid", "", "--out", "o.csv"],
        ["mc", "--dist", "normal", "--k", 2, "--n", 8, "--alpha-grid", "",
         "--side", "max_above", "--trials", 10, "--out", "o.jsonl"],
        ["zero", "--k", 2, "--l", 1, "--n-list", "", "--trials", 10, "--out", "o.jsonl"],
    ])
    def test_malformed_input_exit_2(self, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.jsonl").write_text("{not json\n")
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == 2
        assert [p.name for p in tmp_path.iterdir()] == ["bad.jsonl"]

    @pytest.mark.parametrize("args", [
        ["phase"],
        ["mc", "--dist", "normal", "--k", 2, "--n", 8, "--alpha-grid", "1.3",
         "--side", "max_above", "--trials", 10],
    ])
    def test_malformed_env_seed_exit_2(self, tmp_path, monkeypatch, capsys, args):
        monkeypatch.setenv("EIGRATES_SEED", "abc")
        out = tmp_path / "o.jsonl"
        with pytest.raises(SystemExit) as exc:
            run(args + ["--out", out])
        assert exc.value.code == 2
        assert "EIGRATES_SEED" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, env", [
        (["rate", "--dist", "rademacher", "--k", 3, "--alpha-grid", 1.5, "--seed", -1], None),
        (["mc", "--dist", "normal", "--k", 2, "--n", 8, "--alpha-grid", "1.3",
          "--side", "max_above", "--trials", 10], "-4"),
        (["zero", "--k", 2, "--l", 1, "--n-list", 14, "--trials", 10, "--seed", -1], None),
        (["sdpic", "--k", 3, "--n", 16, "--s", "inf", "--trials", 10, "--seed", -1], None),
        (["hist", "--dist", "normal", "--k", 4, "--n", 8, "--trials", 10, "--bins", 2,
          "--seed", -1], None),
    ])
    def test_negative_seed_exit_3(self, tmp_path, monkeypatch, capsys, args, env):
        if env is not None:
            monkeypatch.setenv("EIGRATES_SEED", env)
        out = tmp_path / "o.out"
        assert run(args + ["--out", out]) == EXIT_DOMAIN
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "domain" and "seed" in record["message"]
        assert not out.exists()

    def test_parser_built_once(self, tmp_path, capsys):
        cli._parser.cache_clear()
        with pytest.raises(SystemExit):
            run(["--help"])
        first = capsys.readouterr().out
        assert run(["rate", "--dist", "normal", "--alpha-grid", "2", "--out",
                    tmp_path / "r.csv"]) == EXIT_OK
        with pytest.raises(SystemExit):
            run(["--help"])
        assert capsys.readouterr().out == first
        assert cli._parser.cache_info().misses == 1

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
        # a law mismatch and a file this runner did not write: exit 3, no output
        uniform_mc, stray, out = (tmp_path / name for name in ("u.jsonl", "stray.csv", "o"))
        assert run(["mc", "--dist", "uniform", "--k", 2, "--n", 20, "--alpha-grid", "1.2",
                    "--side", "max_above", "--trials", 100, "--out", uniform_mc]) == EXIT_OK
        stray.write_text("alpha,rate\n1.2,0.1\n")
        for rates, mc in ((rate_file, uniform_mc), (stray, mc_file), (rate_file, stray)):
            assert run(["compare", "--rates", rates, "--mc", mc, "--out", out]) == EXIT_DOMAIN
            assert not out.exists()

    @pytest.mark.parametrize("flag, wanted, got", [("--rates", "rate", "mc"),
                                                   ("--mc", "mc", "rate")])
    def test_file_of_the_wrong_subcommand_is_refused(self, tmp_path, capsys, flag, wanted, got):
        # one file as both: an mc output has no rate column and a rate output
        # no tail side, so the first flag that names the wrong one is refused
        files = dict(zip(("rate", "mc"), self._write_pair(tmp_path)))
        out = tmp_path / "o"
        capsys.readouterr()
        assert run(["compare", "--rates", files[got], "--mc", files[got],
                    "--out", out]) == EXIT_DOMAIN
        assert f"{flag} takes a `{wanted}` output, not `{got}`" in capsys.readouterr().err
        assert not out.exists()

    def test_k_mismatch_is_refused(self, tmp_path, capsys):
        # a +/-1 curve for k = 3 says nothing about a k = 8 run
        rate_file, out = tmp_path / "rk3.csv", tmp_path / "o"
        assert run(["rate", "--dist", "rademacher", "--k", 3, "--alpha-grid", 1.5,
                    "--restarts", 0, "--out", rate_file]) == EXIT_OK
        for k in (3, 8):
            assert run(["mc", "--dist", "rademacher", "--k", k, "--n", 40, "--alpha-grid", 1.5,
                        "--side", "max_above", "--trials", 1000, "--seed", 2,
                        "--out", tmp_path / f"mc{k}.jsonl"]) == EXIT_OK
        assert len(run_compare(str(rate_file), str(tmp_path / "mc3.jsonl"))) == 1
        capsys.readouterr()
        assert run(["compare", "--rates", rate_file, "--mc", tmp_path / "mc8.jsonl",
                    "--out", out]) == EXIT_DOMAIN
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_below_and_no_hits_verdicts(self, tmp_path):
        # k = 8 at n = 8 reaches 1.4 almost surely (rate near 0, far below I);
        # at n = 60 no trial of 200 reaches 3
        rate_file = tmp_path / "rates.csv"
        assert run(["rate", "--dist", "normal", "--alpha-grid", "1.4:3:1.6",
                    "--out", rate_file]) == EXIT_OK
        verdicts = {}
        for k, n, alpha in ((8, 8, "1.4"), (2, 60, "3")):
            mc_file = tmp_path / f"mc{k}.jsonl"
            assert run(["mc", "--dist", "normal", "--k", k, "--n", n, "--alpha-grid", alpha,
                        "--side", "max_above", "--trials", 200, "--seed", 3,
                        "--out", mc_file]) == EXIT_OK
            report = run_compare(str(rate_file), str(mc_file))
            verdicts[alpha] = [r["verdict"] for r in report]
        assert verdicts == {"1.4": ["below"], "3": ["no_hits"]}

    def test_csv_mc_file_carries_its_interval(self, tmp_path):
        # the same run written as JSON lines and as CSV reports the same rows,
        # each with its Clopper-Pearson interval
        rate_file = tmp_path / "rates.csv"
        assert run(["rate", "--dist", "normal", "--alpha-grid", "1.2:1.4:0.2",
                    "--out", rate_file]) == EXIT_OK
        reports = []
        for fmt in ("jsonl", "csv"):
            mc_file = tmp_path / f"mc.{fmt}"
            assert run(["mc", "--dist", "normal", "--k", 2, "--n", 60, "--alpha-grid",
                        "1.2:1.4:0.2", "--side", "max_above", "--trials", 4000, "--seed", 11,
                        "--format", fmt, "--out", mc_file]) == EXIT_OK
            reports.append(run_compare(str(rate_file), str(mc_file)))
        assert reports[0] == reports[1]
        _, rows = read_output(tmp_path / "mc.csv")
        assert [r["ci"] for r in reports[1]] == [[r["ci_low"], r["ci_high"]] for r in rows]
        assert all(lo < hi for lo, hi in (r["ci"] for r in reports[1]))

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_records_join_only_their_tail(self, tmp_path, fmt):
        # a curve point at alpha < 1 is a lower-tail rate and one at alpha > 1
        # an upper-tail rate; alpha = 1 (rate 0) belongs to both tails
        rate_file = tmp_path / "rates.csv"
        assert run(["rate", "--dist", "normal", "--alpha-grid", "0.5:1.5:0.5",
                    "--out", rate_file]) == EXIT_OK
        joined = {}
        for side in ("min_below", "max_above"):
            mc_file = tmp_path / f"{side}.{fmt}"
            assert run(["mc", "--dist", "normal", "--k", 2, "--n", 40, "--alpha-grid",
                        "0.5:1.5:0.5", "--side", side, "--trials", 2000, "--seed", 5,
                        "--format", fmt, "--out", mc_file]) == EXIT_OK
            joined[side] = [r["alpha"] for r in run_compare(str(rate_file), str(mc_file))]
        assert joined == {"min_below": [0.5, 1.0], "max_above": [1.0, 1.5]}
        # a lower-tail run at a level above 1 has nothing to join
        mc_file = tmp_path / f"far.{fmt}"
        assert run(["mc", "--dist", "normal", "--k", 2, "--n", 40, "--alpha-grid", "1.5",
                    "--side", "min_below", "--trials", 200, "--seed", 5,
                    "--format", fmt, "--out", mc_file]) == EXIT_OK
        with pytest.raises(DomainError):
            run_compare(str(rate_file), str(mc_file))


def test_cli_import_leaves_out_scipy_stats():
    src = os.path.dirname(os.path.dirname(eigrates.__file__))
    code = "import sys, eigrates.cli; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": src})
