"""Spans around the calls into eigrates' modules, recorded from outside.

`Tracer.install` replaces every public function of the layers in every
eigrates namespace that holds it (modules import names directly, so
`eigrates.cli.estimate_tail` and `eigrates.mclab.estimate_tail` are both
wrapped, by one shared wrapper).  Module globals are looked up at call
time, so calls between the library's own functions are traced too.  Each
call appends a span (name, start, end, parent, detail) to an in-memory
list; `layer_metrics` turns the spans of one pass into the per-layer
metrics.  Private functions, methods and classes are not wrapped.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("core", "rates", "mclab", "sdpic", "cli")

# (metric, unit, better) for the traced run, in report order.
PER_LAYER = (
    ("core.sample_s", "s", "lower"),
    ("core.sample_draws", "count", "lower"),
    ("core.covariance_s", "s", "lower"),
    ("core.covariance_bytes_in", "B", "lower"),
    ("core.eig_batch_s", "s", "lower"),
    ("core.eig_batch_matrices", "count", "lower"),
    ("core.spectrum_s", "s", "lower"),
    ("core.spectrum_calls", "count", "lower"),
    ("core.substreams", "count", "lower"),
    ("mclab.self_s", "s", "lower"),
    ("mclab.enum_s", "s", "lower"),
    ("mclab.enum_matrices", "count", "lower"),
    ("mclab.hit_frac", "ratio", "higher"),
    ("rates.legendre_solve_calls", "count", "lower"),
    ("rates.legendre_solve_s", "s", "lower"),
    ("rates.cgf_calls", "count", "lower"),
    ("rates.cgf_derivative_calls", "count", "lower"),
    ("rates.self_s", "s", "lower"),
    ("rates.converged_frac", "ratio", "higher"),
    ("sdpic.self_s", "s", "lower"),
    ("sdpic.cap_hit_frac", "ratio", "lower"),
    ("sdpic.oscillation_count", "count", "lower"),
    ("sdpic.instance_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _size(fn: str, args: dict):
    """Work size of a call to `fn`, from its bound arguments."""
    if fn == "sample_batch":
        return args["m"] * args["k"] * args["n"]
    if fn == "sample_matrix":
        return args["k"] * args["n"]
    if fn == "covariance_batch":
        return args["entries"].nbytes
    if fn == "covariance":
        return args["c"].entries.nbytes
    if fn == "eigvalues_batch":
        w = args["w"]
        return w.shape[0] if w.ndim == 3 else 1
    return 1 << (args["k"] * args["n"])  # enumerate_exact: matrices walked


_SIZED = {"sample_batch", "sample_matrix", "covariance_batch", "covariance",
          "eigvalues_batch", "enumerate_exact"}


def _result_detail(fn: str, result):
    """Counts the metrics need from a call's result."""
    if fn == "estimate_tail":
        return (result.hits, result.trials)
    if fn == "zero_eigen_rate":
        mc = [p for p in result if p.method == "mc"]
        return (sum(p.hits for p in mc), sum(p.trials for p in mc))
    if fn == "ber_experiment":
        return (result.cap_hit_count, result.oscillation_count, result.trials)
    if fn == "rate_k":
        return result.converged
    return None


class Tracer:
    """Records spans while installed; `uninstall` restores every name."""

    def __init__(self, modules):
        self.modules = modules
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def install(self) -> None:
        layer_of = {f"eigrates.{name}": name for name in LAYERS}
        wrappers = {}
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = layer_of.get(value.__module__)
                if layer is None:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, layer)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def take(self) -> list:
        """The spans recorded since the last take; call between passes."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def _wrap(self, fn, layer):
        name = f"{layer}.{fn.__name__}"
        short = fn.__name__
        sig = inspect.signature(fn) if short in _SIZED else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if sig is not None:
                span[4] = _size(short, sig.bind(*args, **kwargs).arguments)
            else:
                span[4] = _result_detail(short, result)
            return result

        return wrapper


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced pass (all but trace.overhead_s).

    A span's self time is its duration minus its direct children's; a
    layer's self time sums the self time of its spans, which is the time
    in the layer minus the time in other layers it calls.  rates.self_s is
    narrower: the self time of rate_k spans only, that is the sphere
    descent around its Legendre solves.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start

    sums: dict = {}
    counts: dict = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    sizes: dict = {}
    details: dict = {}
    for i, (name, start, end, parent, detail) in enumerate(spans):
        dur = end - start
        layer, fn = name.split(".", 1)
        self_by_layer[layer] += dur - child_time[i]
        counts[fn] = counts.get(fn, 0) + 1
        if parent is None or spans[parent][0] != name:
            sums[fn] = sums.get(fn, 0.0) + dur
        if isinstance(detail, int) and not isinstance(detail, bool):
            sizes[fn] = sizes.get(fn, 0) + detail
        elif detail is not None:
            details.setdefault(fn, []).append(detail)
        if fn == "rate_k":
            sums["rate_k_self"] = sums.get("rate_k_self", 0.0) + dur - child_time[i]
        if layer == "sdpic" and fn != "ber_experiment" and (
                parent is None or not spans[parent][0].startswith("sdpic.")):
            sums["sdpic_instance"] = sums.get("sdpic_instance", 0.0) + dur

    def total(*fns):
        return sum(sums.get(f, 0.0) for f in fns)

    def size(*fns):
        return sum(sizes.get(f, 0) for f in fns)

    def ratio(num, den):
        return num / den if den else 0.0

    tail = details.get("estimate_tail", []) + details.get("zero_eigen_rate", [])
    ber = details.get("ber_experiment", [])
    rates_conv = details.get("rate_k", [])
    return {
        "core.sample_s": total("sample_batch", "sample_matrix"),
        "core.sample_draws": size("sample_batch", "sample_matrix"),
        "core.covariance_s": total("covariance_batch", "covariance"),
        "core.covariance_bytes_in": size("covariance_batch", "covariance"),
        "core.eig_batch_s": total("eigvalues_batch"),
        "core.eig_batch_matrices": size("eigvalues_batch"),
        "core.spectrum_s": total("spectrum"),
        "core.spectrum_calls": counts.get("spectrum", 0),
        "core.substreams": counts.get("derive_rng", 0),
        "mclab.self_s": self_by_layer["mclab"],
        "mclab.enum_s": total("enumerate_exact"),
        "mclab.enum_matrices": size("enumerate_exact"),
        "mclab.hit_frac": ratio(sum(h for h, _ in tail), sum(t for _, t in tail)),
        "rates.legendre_solve_calls": counts.get("legendre_solve", 0),
        "rates.legendre_solve_s": total("legendre_solve"),
        "rates.cgf_calls": counts.get("cgf", 0),
        "rates.cgf_derivative_calls": counts.get("cgf_derivative", 0),
        "rates.self_s": total("rate_k_self"),
        "rates.converged_frac": ratio(sum(rates_conv), len(rates_conv)),
        "sdpic.self_s": self_by_layer["sdpic"],
        "sdpic.cap_hit_frac": ratio(sum(b[0] for b in ber), sum(b[2] for b in ber)),
        "sdpic.oscillation_count": sum(b[1] for b in ber),
        "sdpic.instance_s": total("sdpic_instance"),
        "cli.self_s": self_by_layer["cli"],
    }
