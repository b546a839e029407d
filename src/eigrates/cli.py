"""Reproducible experiment runner.

Every subcommand maps onto one library operation, echoes its full config
(plus the artifact version) into the output file header, and writes either
CSV (curves) or JSON-lines (Monte Carlo streams).  Outputs carry no
timestamps or host details, so identical configs give byte-identical files.

Exit codes: 0 success, 2 usage error, 3 numeric-domain error.  The default
seed can be overridden with the EIGRATES_SEED environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .core import EntryDistribution, UnitVector, derive_rng, sample_matrix
from .errors import DomainError
from .mclab import TailSide, estimate_tail, spectrum_histogram, zero_eigen_rate
from .rates import (
    CgfSpec,
    OptimizerSettings,
    grid_covering,
    legendre_solve,
    phase_transition_alpha_star,
    phase_transition_alpha_star_k,
    rate_k,
    rogers_covering,
)
from .sdpic import ber_experiment, stage_trace

DEFAULT_SEED = 20252025
SEED_ENV_VAR = "EIGRATES_SEED"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3


@dataclass(frozen=True)
class ExperimentConfig:
    """Serializable echo of one run; round-trips through JSON unchanged."""

    subcommand: str
    dist: str | None = None
    k: int | None = None
    l: int | None = None
    n: int | None = None
    n_list: tuple[int, ...] | None = None
    alpha_grid: tuple[float, ...] | None = None
    side: str | None = None
    s: str | None = None
    weight: float | None = None
    trials: int | None = None
    bins: int | None = None
    grid_l: int | None = None
    radius_ratio: float | None = None
    restarts: int | None = None
    seed: int | None = None
    out: str | None = None
    format: str = "csv"

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["n_list"] = list(self.n_list) if self.n_list is not None else None
        d["alpha_grid"] = list(self.alpha_grid) if self.alpha_grid is not None else None
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        if d.get("n_list") is not None:
            d["n_list"] = tuple(d["n_list"])
        if d.get("alpha_grid") is not None:
            d["alpha_grid"] = tuple(d["alpha_grid"])
        return cls(**d)


def parse_alpha_grid(text: str) -> tuple[float, ...]:
    """start:stop:step, inclusive of stop when it lands within 1e-9 of a point."""
    parts = text.split(":")
    if len(parts) == 1:
        return (float(parts[0]),)
    if len(parts) != 3:
        raise DomainError(f"alpha grid must be 'start:stop:step' or a number, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if step <= 0:
        raise DomainError("alpha grid step must be positive")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    if count < 1:
        raise DomainError(f"empty alpha grid {text!r}")
    return tuple(start + i * step for i in range(count))


def _config_header_lines(config: ExperimentConfig) -> list[str]:
    payload = json.dumps(config.to_dict(), sort_keys=True)
    return [f"# eigrates {__version__}", f"# config {payload}"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def write_csv(path: str, config: ExperimentConfig, columns: list[str], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in _config_header_lines(config):
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_jsonl(path: str, config: ExperimentConfig, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        head = {"record": "config", "version": __version__, "config": config.to_dict()}
        fh.write(json.dumps(head, sort_keys=True) + "\n")
        for rec in records:
            fh.write(json.dumps({"record": "row", **rec}, sort_keys=True) + "\n")


def write_rows(config: ExperimentConfig, columns: list[str], rows: list[tuple]) -> None:
    if config.format == "jsonl":
        records = [dict(zip(columns, row)) for row in rows]
        write_jsonl(config.out, config, records)
    else:
        write_csv(config.out, config, columns, rows)


def read_output(path: str) -> tuple[ExperimentConfig, list[dict]]:
    """Parse a file written by this runner back into config + row dicts."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if first.startswith("{"):
            head = json.loads(first)
            config = ExperimentConfig.from_dict(head["config"])
            rows = [json.loads(line) for line in fh if line.strip()]
            return config, rows
        if not first.startswith("# eigrates"):
            raise DomainError(f"{path} is not an eigrates output file")
        config_line = fh.readline()
        config = ExperimentConfig.from_dict(json.loads(config_line[len("# config "):]))
        columns = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            if not line.strip() or line.startswith("#"):
                continue
            values = line.rstrip("\n").split(",")
            rows.append({c: _parse_cell(v) for c, v in zip(columns, values)})
        return config, rows


def _parse_cell(text: str):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------

def _run_rate(config: ExperimentConfig) -> None:
    dist = EntryDistribution.parse(config.dist)
    alphas = config.alpha_grid
    for a in alphas:
        if a <= 0:
            raise DomainError(f"alpha must be positive, got {a}")
        if dist is EntryDistribution.UNIFORM_SYM and a < 1:
            raise DomainError("uniform entries support alpha >= 1 only")
    rows = []
    if config.k is None:
        if dist is not EntryDistribution.STD_NORMAL:
            raise DomainError("--k is required unless --dist normal (k-independent rate)")
        spec = CgfSpec.for_direction(dist, UnitVector.uniform(2))
        for a in alphas:
            sol = legendre_solve(spec, a)
            rows.append((a, sol.rate, sol.t_star, sol.converged, 0))
    else:
        opts = OptimizerSettings(seed=config.seed,
                                 random_restarts=config.restarts
                                 if config.restarts is not None else 32)
        for a in alphas:
            res = rate_k(dist, config.k, a, opts)
            rows.append((a, res.rate, res.t_star, res.converged, res.restarts_used))
    write_rows(config, ["alpha", "rate", "t_star", "converged", "restarts_used"], rows)


def _run_phase(config: ExperimentConfig) -> None:
    if config.k is None:
        value = phase_transition_alpha_star()
        rows = [("inf", value)]
    else:
        rows = [(config.k, phase_transition_alpha_star_k(config.k))]
    write_rows(config, ["k", "alpha_star"], rows)


def _run_mc(config: ExperimentConfig) -> None:
    dist = EntryDistribution.parse(config.dist)
    side = TailSide.parse(config.side)
    records = []
    for a in config.alpha_grid:
        est = estimate_tail(dist, config.k, config.n, a, side, config.trials, config.seed)
        records.append(est.record())
    if config.format == "csv":
        columns = ["alpha", "trials", "hits", "p_hat", "ci_low", "ci_high", "empirical_rate"]
        rows = [(r["alpha"], r["trials"], r["hits"], r["p_hat"], r["ci"][0], r["ci"][1],
                 r["empirical_rate"]) for r in records]
        write_csv(config.out, config, columns, rows)
    else:
        write_jsonl(config.out, config, records)


def _run_zero(config: ExperimentConfig) -> None:
    points = zero_eigen_rate(config.k, config.l, list(config.n_list), config.trials, config.seed)
    records = [p.record() for p in points]
    if config.format == "csv":
        columns = ["n", "method", "p_hat", "empirical_rate"]
        rows = [(r["n"], r["method"], r["p_hat"], r["empirical_rate"]) for r in records]
        write_csv(config.out, config, columns, rows)
    else:
        write_jsonl(config.out, config, records)


def _run_sdpic(config: ExperimentConfig) -> None:
    s = math.inf if config.s == "inf" else int(config.s)
    est = ber_experiment(config.k, config.n, s, config.trials, config.seed,
                         weight=config.weight)
    write_jsonl(config.out, config, [est.record()])


def _run_sdpic_trace(config: ExperimentConfig, trace_path: str, stages: int) -> None:
    c = sample_matrix(EntryDistribution.RADEMACHER, config.k, config.n, config.seed)
    bits = (derive_rng(config.seed, 1).integers(0, 2, config.k) * 2 - 1).astype(float)
    rows = stage_trace(c, bits, stages, coin_seed=config.seed)
    write_csv(trace_path, config, ["stage", "deviation_inf", "bit_errors"], rows)


def _run_covering(config: ExperimentConfig) -> None:
    rows = []
    if config.grid_l is not None:
        d_bound, count = grid_covering(config.k, config.grid_l)
        rows.append(("grid", config.k, config.grid_l, d_bound, count))
    if config.radius_ratio is not None:
        log_count = rogers_covering(config.k, config.radius_ratio)
        rows.append(("rogers_log", config.k, config.radius_ratio, log_count, None))
    if not rows:
        raise DomainError("covering needs --grid-l and/or --radius-ratio")
    write_rows(config, ["kind", "k", "parameter", "value", "count_bound"], rows)


def _run_hist(config: ExperimentConfig) -> None:
    dist = EntryDistribution.parse(config.dist)
    hist = spectrum_histogram(dist, config.k, config.n, config.trials, config.bins,
                              config.seed)
    write_csv(config.out, config, ["bin_left", "bin_right", "mass"], hist.rows())
    # trailing summary: fraction of eigenvalue mass outside the bulk edges
    with open(config.out, "a", encoding="utf-8") as fh:
        fh.write(f"# outside_fraction {hist.outside_fraction!r}\n")


def run_compare(rates_path: str, mc_path: str):
    """Join a rate curve with MC tail records on alpha and band-check them.

    Verdict per row: "contained" when the empirical rate sits inside
    [0.5 I, 1.5 I] (the wide band acknowledging the subexponential
    prefactor), "below"/"above" when outside, "no_hits" when the MC run
    saw none.
    """
    rate_config, rate_rows = read_output(rates_path)
    mc_config, mc_rows = read_output(mc_path)
    if rate_config.dist != mc_config.dist:
        raise DomainError(
            f"distribution mismatch: {rate_config.dist!r} vs {mc_config.dist!r}"
        )
    mc_rows = [r for r in mc_rows if "alpha" in r]
    report = []
    for mc_row in mc_rows:
        alpha = mc_row["alpha"]
        match = [r for r in rate_rows if abs(r["alpha"] - alpha) <= 1e-9]
        if not match:
            continue
        rate_val = match[0]["rate"]
        emp = mc_row.get("empirical_rate")
        if emp is None:
            verdict = "no_hits"
        elif rate_val == 0.0:
            verdict = "contained" if abs(emp) <= 0.05 else "above"
        elif emp < 0.5 * rate_val:
            verdict = "below"
        elif emp > 1.5 * rate_val:
            verdict = "above"
        else:
            verdict = "contained"
        report.append({
            "alpha": alpha,
            "rate": rate_val,
            "empirical_rate": emp,
            "ci": mc_row.get("ci"),
            "verdict": verdict,
        })
    if not report:
        raise DomainError("no common alpha keys between the rate and MC files")
    return report


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigrates",
        description="Extreme-eigenvalue deviation rates: curves, Monte Carlo, SD-PIC.",
    )
    parser.add_argument("--version", action="version", version=f"eigrates {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, formats=("csv", "jsonl")):
        # only formats the subcommand writes in full; the first is the default
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", required=True, help="output file path")

    p = sub.add_parser("rate", help="rate-function curve over an alpha grid")
    p.add_argument("--dist", required=True, choices=["rademacher", "uniform", "normal"])
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--alpha-grid", required=True)
    p.add_argument("--restarts", type=int, default=None)
    add_common(p)

    p = sub.add_parser("phase", help="strategy phase-transition point")
    p.add_argument("--k", type=int, default=None)
    add_common(p)

    p = sub.add_parser("mc", help="Monte Carlo eigenvalue tail estimate")
    p.add_argument("--dist", required=True, choices=["rademacher", "uniform", "normal"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha-grid", required=True)
    p.add_argument("--side", required=True, choices=["min_below", "max_above"])
    p.add_argument("--trials", type=int, required=True)
    add_common(p, ("jsonl", "csv"))

    p = sub.add_parser("zero", help="zero-eigenvalue probability sweep over n")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n-list", required=True, help="comma-separated n values")
    p.add_argument("--trials", type=int, required=True)
    add_common(p, ("jsonl", "csv"))

    p = sub.add_parser("sdpic", help="SD-PIC bit-error-rate experiment")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", required=True, help="stage count or 'inf'")
    p.add_argument("--weight", type=float, default=None)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--trace", default=None, help="also write a per-stage trace CSV here")
    p.add_argument("--trace-stages", type=int, default=16)
    add_common(p, ("jsonl",))

    p = sub.add_parser("covering", help="sphere covering bounds")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--grid-l", type=int, default=None)
    p.add_argument("--radius-ratio", type=float, default=None)
    add_common(p)

    p = sub.add_parser("hist", help="pooled eigenvalue histogram")
    p.add_argument("--dist", required=True, choices=["rademacher", "uniform", "normal"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--bins", type=int, required=True)
    add_common(p, ("csv",))

    p = sub.add_parser("compare", help="join a rate curve with MC tail records")
    p.add_argument("--rates", required=True)
    p.add_argument("--mc", required=True)
    p.add_argument("--out", default=None)
    return parser


def _default_seed() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    return int(env) if env else DEFAULT_SEED


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    seed = args.seed if getattr(args, "seed", None) is not None else _default_seed()
    return ExperimentConfig(
        subcommand=args.subcommand,
        dist=getattr(args, "dist", None),
        k=getattr(args, "k", None),
        l=getattr(args, "l", None),
        n=getattr(args, "n", None),
        n_list=tuple(int(v) for v in args.n_list.split(",")) if getattr(args, "n_list", None) else None,
        alpha_grid=parse_alpha_grid(args.alpha_grid) if getattr(args, "alpha_grid", None) else None,
        side=getattr(args, "side", None),
        s=str(getattr(args, "s")) if getattr(args, "s", None) is not None else None,
        weight=getattr(args, "weight", None),
        trials=getattr(args, "trials", None),
        bins=getattr(args, "bins", None),
        grid_l=getattr(args, "grid_l", None),
        radius_ratio=getattr(args, "radius_ratio", None),
        restarts=getattr(args, "restarts", None),
        seed=seed,
        out=getattr(args, "out", None),
        format=args.format,
    )


_RUNNERS = {
    "rate": _run_rate,
    "phase": _run_phase,
    "mc": _run_mc,
    "zero": _run_zero,
    "sdpic": _run_sdpic,
    "covering": _run_covering,
    "hist": _run_hist,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "compare":
            report = run_compare(args.rates, args.mc)
            lines = [
                f"{r['alpha']}\t{r['rate']}\t{r['empirical_rate']}\t{r['verdict']}"
                for r in report
            ]
            text = "alpha\trate\tempirical_rate\tverdict\n" + "\n".join(lines) + "\n"
            sys.stdout.write(text)
            if args.out:
                config = ExperimentConfig(subcommand="compare", out=args.out, format="jsonl")
                write_jsonl(args.out, config, report)
            return EXIT_OK
        config = _config_from_args(args)
        if args.subcommand == "sdpic" and args.trace:
            _run_sdpic_trace(config, args.trace, args.trace_stages)
        _RUNNERS[args.subcommand](config)
        return EXIT_OK
    except DomainError as err:
        sys.stderr.write(json.dumps({"error": "domain", "message": str(err)}) + "\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
