"""Metric tables and the arithmetic that turns timed passes into metrics.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names,
units and directions written into ``BENCHMARK.json``; the self-check in
``test_perfbench.py`` holds the two in step.  Each per-layer entry also
records which end-to-end metric it should move and on which workload,
written down before any optimisation is measured.

Every time is measured in seconds at a reference host speed: raw
intervals are multiplied by ``hostspeed``'s factor for the interval they
took (see that module for why), and rates are computed from the scaled
times.  Pass-level figures are medians over passes; latency percentiles
pool every operation of the run; ``setup_s`` is the median of probes
spread over the run.  Raw times are kept in the ``.perfbench/`` record.

Every per-layer time is the time one pass spent in spans of that name
(its busy time), median over the traced passes.  A layer a workload does
not call reads 0 on that workload.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("wall_s", "s", "lower", 0.24),
    EndToEnd("cpu_s", "s", "lower", 0.24),
    EndToEnd("settled_rows_per_s", "1/s", "higher", 0.24),
    EndToEnd("ops_per_s", "1/s", "higher", 0.24),
    EndToEnd("op_ms_p50", "ms", "lower", 0.24),
    EndToEnd("op_ms_tail", "ms", "lower", 0.24),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    source: tuple  # how the value is computed, see ``_pass_layers``
    moves: str     # the end-to-end metric and workload it should move


_SPECTRAL_TAIL = "op_ms_tail and ops_per_s on spectral"
_SPECTRAL_P50 = "op_ms_p50 on spectral"

PER_LAYER = (
    Layer("search.exhaustive.ms", "ms", "lower", ("busy", "search.exhaustive"),
          "settled_rows_per_s and wall_s on walk; flat on spectral"),
    Layer("search.weight.ms", "ms", "lower", ("busy", "search.weight"),
          "settled_rows_per_s and wall_s on walk; flat on spectral"),
    Layer("search.exhaustive.nodes_per_s", "1/s", "higher",
          ("rate", "search.exhaustive.nodes", "search.exhaustive"),
          "settled_rows_per_s and wall_s on walk; flat on spectral"),
    Layer("search.dfs.ms", "ms", "lower", ("busy", "search.dfs"),
          "settled_rows_per_s on dfs; flat on walk and spectral"),
    Layer("search.dfs_weight.ms", "ms", "lower", ("busy", "search.dfs_weight"),
          "settled_rows_per_s on dfs; flat on walk and spectral"),
    Layer("search.dfs.nodes_per_s", "1/s", "higher", ("rate", "search.dfs.nodes", "search.dfs"),
          "settled_rows_per_s on dfs; flat on walk and spectral"),
    Layer("search.dfs.nodes_per_row", "ratio", "lower",
          ("ratio", "search.dfs.nodes", "search.dfs.rows"),
          "pruning waste on dfs: fewer nodes per settled row raise settled_rows_per_s"),
    Layer("search.checkpoint.write_pass.ms", "ms", "lower", ("busy", "search.checkpoint.write_pass"),
          "wall_s and cpu_s on resume; flat on walk"),
    Layer("search.checkpoint.resume.ms", "ms", "lower", ("busy", "search.checkpoint.resume"),
          "wall_s and cpu_s on resume; flat on walk"),
    Layer("search.checkpoint.load.ms", "ms", "lower", ("busy", "search.checkpoint.load"),
          "wall_s and cpu_s on resume; flat on walk"),
    Layer("search.report.roundtrip.ms", "ms", "lower", ("busy", "search.report.roundtrip"),
          "wall_s and cpu_s on resume; flat on walk"),
    Layer("search.revalidate_report.ms", "ms", "lower", ("busy", "search.revalidate_report"),
          "wall_s and cpu_s on resume; flat on walk"),
    Layer("spectra.spectral_verdict.ms.n36", "ms", "lower", ("busy", "spectra.spectral_verdict.n36"),
          _SPECTRAL_TAIL),
    Layer("spectra.spectral_verdict.ms.n64", "ms", "lower", ("busy", "spectra.spectral_verdict.n64"),
          _SPECTRAL_TAIL),
    Layer("spectra.spectral_verdict.ms.n100", "ms", "lower", ("busy", "spectra.spectral_verdict.n100"),
          _SPECTRAL_TAIL),
    Layer("spectra.spectral_verdict.ms.n144", "ms", "lower", ("busy", "spectra.spectral_verdict.n144"),
          _SPECTRAL_TAIL),
    Layer("spectra.difference_counts.us", "us", "lower", ("busy", "spectra.difference_counts"),
          _SPECTRAL_TAIL),
    Layer("spectra.basis_coefficients.us", "us", "lower", ("busy", "spectra.basis_coefficients"),
          _SPECTRAL_TAIL),
    Layer("cyclotomic.is_zero.us", "us", "lower", ("busy", "cyclotomic.is_zero"),
          "op_ms_tail and setup_s on spectral"),
    Layer("cyclotomic.real_basis_rank.ms", "ms", "lower", ("busy", "cyclotomic.real_basis_rank"),
          "op_ms_tail and setup_s on spectral"),
    Layer("cyclotomic.first_is_zero.ms", "ms", "lower", ("cold",),
          "setup_s on spectral (cold cyclotomic caches at n = 144)"),
    Layer("sequences.is_circulant_hadamard.us", "us", "lower",
          ("busy", "sequences.is_circulant_hadamard"),
          "op_ms_p50 on spectral; search.revalidate_report.ms on resume"),
    Layer("sequences.has_orthogonal_rows.us", "us", "lower",
          ("busy", "sequences.has_orthogonal_rows"),
          "op_ms_p50 on spectral; search.revalidate_report.ms on resume"),
    Layer("sequences.has_flat_spectrum.us", "us", "lower", ("busy", "sequences.has_flat_spectrum"),
          _SPECTRAL_P50),
    Layer("sequences.autocorrelation.us", "us", "lower", ("busy", "sequences.autocorrelation"),
          _SPECTRAL_P50),
    Layer("search.canonicalize.us", "us", "lower", ("busy", "search.canonicalize"),
          "op_ms_p50 on spectral; search.revalidate_report.ms on resume"),
    Layer("congruences.half_period_report.us", "us", "lower",
          ("busy", "congruences.half_period_report"),
          "op_ms_p50 on spectral; expected to stay negligible"),
    Layer("congruences.solve_linear_congruence.us", "us", "lower",
          ("busy", "congruences.solve_linear_congruence"),
          "op_ms_p50 on spectral; expected to stay negligible"),
    Layer("cli.main.ms.verify", "ms", "lower", ("busy", "cli.main.verify"), _SPECTRAL_P50),
    Layer("cli.main.ms.analyze", "ms", "lower", ("busy", "cli.main.analyze"), _SPECTRAL_P50),
    Layer("cli.main.ms.lemma", "ms", "lower", ("busy", "cli.main.lemma"), _SPECTRAL_P50),
    Layer("cli.main.ms.basis-rank", "ms", "lower", ("busy", "cli.main.basis-rank"), _SPECTRAL_P50),
    Layer("cli.self_ms", "ms", "lower", ("cli_self",),
          "op_ms_p50 on spectral (cli.main spans minus the library calls they wrap)"),
    Layer("search.exhaustive.nodes", "count", "lower", ("count", "search.exhaustive.nodes"),
          "exact work count on walk"),
    Layer("search.weight.nodes", "count", "lower", ("count", "search.weight.nodes"),
          "exact work count on walk"),
    Layer("search.dfs.nodes", "count", "lower", ("count", "search.dfs.nodes"),
          "exact work count on dfs"),
    Layer("search.dfs_weight.nodes", "count", "lower", ("count", "search.dfs_weight.nodes"),
          "exact work count on dfs and resume"),
    Layer("search.shards", "count", "lower", ("count", "search.shards"),
          "orchestration work on resume: cpu_s and wall_s"),
    Layer("search.checkpoint.lines", "count", "lower", ("count", "search.checkpoint.lines"),
          "checkpoint I/O on resume: wall_s"),
    Layer("search.checkpoint.bytes", "count", "lower", ("count", "search.checkpoint.bytes"),
          "checkpoint I/O on resume: wall_s"),
    Layer("op_count", "count", "higher", ("op_count",),
          "sample size behind op_ms_p50 and op_ms_tail"),
    Layer("trace_overhead_ratio", "ratio", "lower", ("overhead",),
          "cost of the spans themselves; end-to-end runs are untraced"),
)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that percentile.

    With ten or fewer samples no percentile has ten beyond it, and the
    maximum (percentile 100) is reported instead.
    """
    ordered = sorted(values)
    count = len(ordered)
    index = count - 11 if count >= 11 else count - 1
    return float(ordered[index]), 100.0 * (index + 1) / count


@dataclass
class PassRecord:
    """What one timed pass measured."""

    traced: bool
    wall_s: float
    cpu_s: float
    latencies_ms: list[float]
    rows: int
    rows_s: float
    problems: list[list[str]]  # one non-empty list per failed operation
    raw_wall_s: float
    raw_latencies_ms: list[float]
    tracer: object = None  # the pass's Tracer when traced


def end_to_end(passes: list[PassRecord], setup_times: list[float], peak_rss_mb: float) -> dict:
    latencies = [ms for p in passes for ms in p.latencies_ms]
    tail_ms, _ = tail(latencies)
    return {
        "setup_s": median(setup_times),
        "wall_s": median(p.wall_s for p in passes),
        "cpu_s": median(p.cpu_s for p in passes),
        "settled_rows_per_s": median(p.rows / p.rows_s for p in passes if p.rows_s > 0),
        "ops_per_s": median(len(p.latencies_ms) / p.wall_s for p in passes),
        "op_ms_p50": median(latencies),
        "op_ms_tail": tail_ms,
        "peak_rss_mb": peak_rss_mb,
    }


_SCALE = {"ms": 1e-6, "us": 1e-3}


def _pass_layers(record: PassRecord, factor) -> dict:
    busy: dict[str, float] = defaultdict(float)
    wrapped_ns = 0.0
    for sp in record.tracer.spans:
        ns = sp.duration_ns * factor(sp.start_ns * 1e-9, sp.end_ns * 1e-9)
        busy[sp.name] += ns
        if sp.attrs.get("wrapped"):
            wrapped_ns += ns
    counts = record.tracer.counts
    values = {}
    for layer in PER_LAYER:
        kind = layer.source[0]
        if kind == "busy":
            values[layer.name] = busy[layer.source[1]] * _SCALE[layer.unit]
        elif kind == "rate":
            ns = busy[layer.source[2]]
            values[layer.name] = counts.get(layer.source[1], 0) / (ns * 1e-9) if ns else 0.0
        elif kind == "ratio":
            den = counts.get(layer.source[2], 0)
            values[layer.name] = counts.get(layer.source[1], 0) / den if den else 0.0
        elif kind == "count":
            values[layer.name] = counts.get(layer.source[1], 0)
        elif kind == "cli_self":
            cli_ns = sum(ns for name, ns in busy.items() if name.startswith("cli.main."))
            values[layer.name] = (cli_ns - wrapped_ns) * 1e-6 if cli_ns else 0.0
    return values


def per_layer(passes: list[PassRecord], cold_ms: float, factor) -> dict:
    """Per-layer metrics; ``factor(start, end)`` scales an interval to the reference speed."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    per_pass = [_pass_layers(p, factor) for p in traced]
    out = {}
    for layer in PER_LAYER:
        kind = layer.source[0]
        if kind == "cold":
            value = cold_ms
        elif kind == "op_count":
            value = sum(len(p.latencies_ms) for p in passes)
        elif kind == "overhead":
            value = median(p.wall_s for p in traced) / median(p.wall_s for p in untraced)
        else:
            value = median(v[layer.name] for v in per_pass)
        out[layer.name] = int(value) if layer.unit == "count" else value
    return out
