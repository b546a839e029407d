"""Reproducible experiment runner.

Every subcommand maps onto one library operation, echoes its full config
(plus the artifact version) into the output file header, and writes either
CSV (curves) or JSON-lines (Monte Carlo streams).  Outputs carry no
timestamps or host details, so identical configs give byte-identical files,
and no file is opened until every result of the run is computed.

Exit codes: 0 success, 2 usage error, 3 numeric-domain error.  The default
seed can be overridden with the EIGRATES_SEED environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

from . import __version__
from .core import EntryDistribution, derive_rng, sample_matrix
from .errors import DomainError
from .mclab import TailSide, estimate_tails, spectrum_histogram, zero_eigen_rate
from .rates import (
    OptimizerSettings,
    grid_covering,
    phase_transition_alpha_star,
    phase_transition_alpha_star_k,
    rate_k,
    rate_wishart,
    rogers_covering,
    wishart_t_star,
)
from .sdpic import ber_experiment, stage_trace

DEFAULT_SEED = 20252025
SEED_ENV_VAR = "EIGRATES_SEED"

EXIT_OK = 0
EXIT_DOMAIN = 3

# Points allowed in one --alpha-grid range; the README and tests use 50 or fewer.
GRID_MAX_POINTS = 10_000


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
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        if d.get("n_list") is not None:
            d["n_list"] = tuple(d["n_list"])
        if d.get("alpha_grid") is not None:
            d["alpha_grid"] = tuple(d["alpha_grid"])
        return cls(**d)


def parse_alpha_grid(text: str) -> tuple[float, ...]:
    """start:stop:step, inclusive of stop when it lands within 1e-9 of a point.
    A range needs three parts, a positive step, a finite start, stop and
    step, and at most GRID_MAX_POINTS points (ValueError otherwise, a usage
    error); a range with no point is a DomainError.  A single level may be
    any float."""
    parts = text.split(":")
    if len(parts) == 1:
        return (float(parts[0]),)
    if len(parts) != 3:
        raise ValueError(f"alpha grid must be 'start:stop:step' or a number, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not step > 0:
        raise ValueError("alpha grid step must be positive")
    span = (stop - start) / step + 1e-9  # inf when the quotient overflows
    if not (all(math.isfinite(v) for v in (start, stop, step)) and span < GRID_MAX_POINTS):
        raise ValueError(f"alpha grid {text!r} needs a finite start, stop and step "
                         f"and at most {GRID_MAX_POINTS} points")
    count = int(math.floor(span)) + 1
    if count < 1:
        raise DomainError(f"empty alpha grid {text!r}")
    return tuple(start + i * step for i in range(count))


def _fmt(value) -> str:
    # str of a float (np.float64 too) is its shortest round-trip repr
    return "" if value is None else str(value)


def _cells(record: dict, columns: list[str]) -> str:
    """A record's CSV row: its values under `columns`, a "ci" pair read as
    ci_low and ci_high (empty cells when the record has no interval)."""
    ci_low, ci_high = record.get("ci") or (None, None)
    flat = {**record, "ci_low": ci_low, "ci_high": ci_high}
    return ",".join(_fmt(flat[c]) for c in columns)


def _write(path: str, config: ExperimentConfig, fmt: str, columns: list[str],
           records: list[dict], trailer: tuple[str, ...] = ()) -> None:
    """The one writer: a config header, then one line per record.

    JSON lines hold whole records; CSV projects them onto `columns` and ends
    with the `trailer` comment lines.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "jsonl":
            head = {"record": "config", "version": __version__, "config": config.to_dict()}
            fh.write(json.dumps(head, sort_keys=True) + "\n")
            for rec in records:
                fh.write(json.dumps({"record": "row", **rec}, sort_keys=True) + "\n")
        else:
            fh.write(f"# eigrates {__version__}\n")
            fh.write(f"# config {json.dumps(config.to_dict(), sort_keys=True)}\n")
            fh.write(",".join(columns) + "\n")
            for rec in records:
                fh.write(_cells(rec, columns) + "\n")
            for line in trailer:
                fh.write(f"# {line}\n")


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

def _rows(columns: list[str], rows) -> tuple[list[str], list[dict]]:
    return columns, [dict(zip(columns, row)) for row in rows]


def _run_rate(config: ExperimentConfig):
    dist = EntryDistribution.parse(config.dist)
    if config.k is None:
        if dist is not EntryDistribution.STD_NORMAL:
            raise DomainError("--k is required unless --dist normal (k-independent rate)")
        rows = [(a, rate_wishart(a), wishart_t_star(a), True, 0) for a in config.alpha_grid]
    else:
        opts = OptimizerSettings(seed=config.seed)
        if config.restarts is not None:
            opts = dataclasses.replace(opts, random_restarts=config.restarts)
        results = [rate_k(dist, config.k, a, opts) for a in config.alpha_grid]
        rows = [(r.alpha, r.rate, r.t_star, r.converged, r.restarts_used) for r in results]
    return _rows(["alpha", "rate", "t_star", "converged", "restarts_used"], rows)


def _run_phase(config: ExperimentConfig):
    if config.k is None:
        row = ("inf", phase_transition_alpha_star())
    else:
        row = (config.k, phase_transition_alpha_star_k(config.k))
    return _rows(["k", "alpha_star"], [row])


def _run_mc(config: ExperimentConfig):
    dist = EntryDistribution.parse(config.dist)
    side = TailSide.parse(config.side)
    records = [est.record() for est in estimate_tails(dist, config.k, config.n,
                                                      config.alpha_grid, side,
                                                      config.trials, config.seed)]
    return ["alpha", "trials", "hits", "p_hat", "ci_low", "ci_high", "empirical_rate"], records


def _run_zero(config: ExperimentConfig):
    points = zero_eigen_rate(config.k, config.l, list(config.n_list), config.trials, config.seed)
    columns = ["n", "method", "trials", "hits", "p_hat", "ci_low", "ci_high", "empirical_rate"]
    return columns, [p.record() for p in points]


def _run_sdpic(config: ExperimentConfig):
    s = math.inf if config.s == "inf" else int(config.s)
    est = ber_experiment(config.k, config.n, s, config.trials, config.seed,
                         weight=config.weight)
    return [], [est.record()]


def _run_sdpic_trace(config: ExperimentConfig, stages: int):
    c = sample_matrix(EntryDistribution.RADEMACHER, config.k, config.n, config.seed)
    bits = EntryDistribution.RADEMACHER.sample(derive_rng(config.seed, 1), config.k)
    rows = stage_trace(c, bits, stages, coin_seed=config.seed)
    return _rows(["stage", "deviation_inf", "bit_errors"], rows)


def _run_covering(config: ExperimentConfig):
    rows = []
    if config.grid_l is not None:
        d_bound, count = grid_covering(config.k, config.grid_l)
        rows.append(("grid", config.k, config.grid_l, d_bound, count))
    if config.radius_ratio is not None:
        log_count = rogers_covering(config.k, config.radius_ratio)
        rows.append(("rogers_log", config.k, config.radius_ratio, log_count, None))
    if not rows:
        raise DomainError("covering needs --grid-l and/or --radius-ratio")
    return _rows(["kind", "k", "parameter", "value", "count_bound"], rows)


def _run_hist(config: ExperimentConfig):
    dist = EntryDistribution.parse(config.dist)
    hist = spectrum_histogram(dist, config.k, config.n, config.trials, config.bins,
                              config.seed)
    # trailing summary: fraction of eigenvalue mass outside the bulk edges
    return (*_rows(["bin_left", "bin_right", "mass"], hist.rows()),
            (f"outside_fraction {hist.outside_fraction!r}",))


def run_compare(rates_path: str, mc_path: str):
    """Join a rate curve with MC tail records on alpha and band-check them.

    A record joins only a curve point on its tail: alpha <= 1 for a
    min_below run, alpha >= 1 for max_above.  Its interval is the JSONL
    "ci" pair or the CSV ci_low, ci_high cells.  Verdict per row:
    "contained" when the empirical rate sits inside [0.5 I, 1.5 I] (the
    wide band acknowledging the subexponential prefactor), "below"/"above"
    when outside, "no_hits" when the MC run saw none.  The files must be a
    rate and an mc output that share the entry law, and k if the rate file
    has one.
    """
    rate_config, rate_rows = read_output(rates_path)
    mc_config, mc_rows = read_output(mc_path)
    for flag, config, wanted in (("--rates", rate_config, "rate"), ("--mc", mc_config, "mc")):
        if config.subcommand != wanted:
            raise DomainError(f"{flag} takes a `{wanted}` output, not `{config.subcommand}`")
    if rate_config.dist != mc_config.dist:
        raise DomainError(
            f"distribution mismatch: {rate_config.dist!r} vs {mc_config.dist!r}"
        )
    if rate_config.k is not None and rate_config.k != mc_config.k:
        raise DomainError(f"k mismatch: {rate_config.k} vs {mc_config.k}")
    below = TailSide.parse(mc_config.side) is TailSide.MIN_BELOW
    report = []
    for mc_row in mc_rows:
        alpha = mc_row["alpha"]
        rate_val = next((r["rate"] for r in rate_rows if abs(r["alpha"] - alpha) <= 1e-9
                         and (r["alpha"] <= 1.0 if below else r["alpha"] >= 1.0)), None)
        if rate_val is None:
            continue
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
        ci_low, ci_high = mc_row.get("ci") or (mc_row.get("ci_low"), mc_row.get("ci_high"))
        report.append({"alpha": alpha, "rate": rate_val, "empirical_rate": emp, "verdict": verdict,
                       "ci": None if ci_low is None else [ci_low, ci_high]})
    if not report:
        raise DomainError("no common alpha keys between the rate and MC files")
    return report


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first main() call and reused."""
    parser = argparse.ArgumentParser(
        prog="eigrates",
        description="Extreme-eigenvalue deviation rates: curves, Monte Carlo, SD-PIC.",
    )
    parser.add_argument("--version", action="version", version=f"eigrates {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    dists = [dist.value for dist in EntryDistribution]

    def add_common(p, formats=("csv", "jsonl")):
        # only formats the subcommand writes in full; the first is the default
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", required=True, help="output file path")

    p = sub.add_parser("rate", help="rate-function curve over an alpha grid")
    p.add_argument("--dist", required=True, choices=dists)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--alpha-grid", required=True)
    p.add_argument("--restarts", type=int, default=None)
    add_common(p)

    p = sub.add_parser("phase", help="strategy phase-transition point")
    p.add_argument("--k", type=int, default=None)
    add_common(p)

    p = sub.add_parser("mc", help="Monte Carlo eigenvalue tail estimate")
    p.add_argument("--dist", required=True, choices=dists)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha-grid", required=True)
    p.add_argument("--side", required=True, choices=[side.value for side in TailSide])
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
    p.add_argument("--dist", required=True, choices=dists)
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
    if not env:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


def _config_from_args(args: argparse.Namespace,
                      parser: argparse.ArgumentParser) -> ExperimentConfig:
    values = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(ExperimentConfig)}
    try:
        if values["seed"] is None:
            values["seed"] = _default_seed()
        if values["n_list"] is not None:
            values["n_list"] = tuple(int(v) for v in values["n_list"].split(","))
        if values["alpha_grid"] is not None:
            values["alpha_grid"] = parse_alpha_grid(values["alpha_grid"])
        if values["s"] not in (None, "inf"):
            int(values["s"])  # only to reject a malformed stage count here
    except DomainError:
        raise
    except ValueError as err:  # a malformed number is a usage error, not a domain one
        parser.error(str(err))
    return ExperimentConfig(**values)


_RUNNERS = {
    "rate": _run_rate,
    "phase": _run_phase,
    "mc": _run_mc,
    "zero": _run_zero,
    "sdpic": _run_sdpic,
    "covering": _run_covering,
    "hist": _run_hist,
}


def _compare(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """The compare table for stdout, and its output when --out is given."""
    try:
        report = run_compare(args.rates, args.mc)
    except (OSError, json.JSONDecodeError) as err:
        parser.error(str(err))
    lines = [f"{r['alpha']}\t{r['rate']}\t{r['empirical_rate']}\t{r['verdict']}"
             for r in report]
    text = "alpha\trate\tempirical_rate\tverdict\n" + "\n".join(lines) + "\n"
    config = ExperimentConfig(subcommand="compare", out=args.out, format="jsonl")
    return text, ([(args.out, config, "jsonl", [], report)] if args.out else [])


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "compare":
            text, outputs = _compare(args, parser)
        else:
            text = ""
            config = _config_from_args(args, parser)
            outputs = [(config.out, config, config.format,
                        *_RUNNERS[args.subcommand](config))]
            if args.subcommand == "sdpic" and args.trace:
                outputs.append((args.trace, config, "csv",
                                *_run_sdpic_trace(config, args.trace_stages)))
    except DomainError as err:
        sys.stderr.write(json.dumps({"error": "domain", "message": str(err)}) + "\n")
        return EXIT_DOMAIN
    # every result is in: only now is any file written
    sys.stdout.write(text)
    for output in outputs:
        _write(*output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
