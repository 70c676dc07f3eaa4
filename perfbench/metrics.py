"""Reduction of the benchmark program's raw measurements to its metrics.

Pure functions, no I/O: perfbench/run.py feeds them the JSON object the
program (bench.cpp) prints and the parsed BENCHMARK.json, which names the
metrics and their units; perfbench/test_perfbench.py tests them directly.
"""

import math
import re
import statistics

# A metric name: letters, digits, '_', '.', '-'; starts with a letter or
# digit; at most 64 characters.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

# Rounds that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def units(spec, kind):
    """{name: unit} of the metrics BENCHMARK.json lists under `kind`
    ("end_to_end" or "per_layer")."""
    return {m["name"]: m["unit"] for m in spec[kind]}


def valid_name(name):
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def tail_percentile(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile). With n samples sorted ascending, the
    value at rank n - beyond (1-based) has `beyond` samples after it and
    sits at percentile 100 * (n - beyond) / n.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    rank = n - beyond
    return sorted(values)[rank - 1], 100.0 * rank / n


def paired_overhead(on, off):
    """Median over ABBA pairs of on/off - 1: the relative cost of `on`."""
    if not on or len(on) != len(off):
        raise ValueError("need equal, non-empty paired samples")
    return statistics.median(a / b for a, b in zip(on, off)) - 1.0


def at_reference_speed(times, gauges, reference):
    """Wall times rescaled to the reference host speed.

    gauges[i] and gauges[i + 1] are the seconds of the host gauge passes
    (bench.cpp, HostGauge) taken just before and just after times[i];
    `reference` is a pass's seconds at the reference speed. The host's
    speed drifts over minutes; the timed work and the gauge slow down
    together, so the time over the mean of its two gauge passes, times
    `reference`, stays put while the program's own speed shows in full.
    """
    if len(gauges) != len(times) + 1:
        raise ValueError(f"need {len(times) + 1} gauge passes, "
                         f"got {len(gauges)}")
    return [t * reference / (0.5 * (before + after))
            for t, before, after in zip(times, gauges, gauges[1:])]


def _metric(value, unit):
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"non-finite metric value {value!r}")
    return {"value": value, "unit": unit}


def _metrics(values, table):
    missing = set(table) - set(values)
    if missing:
        raise ValueError(f"no computation for metrics {sorted(missing)}")
    return {k: _metric(values[k], u) for k, u in table.items()}


def end_to_end(raw, table):
    """Metrics of an untraced run, plus details that do not fit a metric.
    Every time is at the reference host speed; the details keep the wall
    medians and the gauge."""
    reference = raw["gauge_reference_s"]
    rounds = at_reference_speed(raw["round_s"], raw["round_gauge_s"],
                                reference)
    setups = at_reference_speed(raw["setup_s"], raw["setup_gauge_s"],
                                reference)
    tail, pct = tail_percentile(rounds)
    values = {
        "systems_per_s": raw["attempted"] / sum(rounds),
        "round_s_p50": statistics.median(rounds),
        "round_s_tail": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    metrics = _metrics(values, table)
    details = {
        "rounds": len(rounds),
        "round_s_tail_percentile": pct,
        "wall_round_s_p50": statistics.median(raw["round_s"]),
        "wall_setup_s": statistics.median(raw["setup_s"]),
        "gauge_s_p50": statistics.median(raw["round_gauge_s"]),
        "gauge_reference_s": reference,
        "setup_repeats": len(raw["setup_s"]),
        "failed_frac": raw["failed"] / raw["attempted"],
        "residual_gap_systems": raw["gap_systems"],
        "true_residual_max_ratio": raw["max_residual_ratio"],
    }
    return metrics, details


def per_layer(raw, table):
    """Metrics of a traced run, plus details that do not fit a metric."""
    med = statistics.median
    traced_p50 = med(raw["traced_round_s"])
    calls = raw["solve_calls"]
    call_s = raw["solve_s"] / calls
    bytes_per_call = raw["ledger_bytes"] / calls
    flops_per_call = raw["ledger_flops"] / calls
    assemble_s = med(raw["assemble_s"])
    attempted, failed = attempts(raw)
    values = {
        "failed_frac": failed / attempted,
        "xgc.step.self_s": med(raw["step_self_s"]),
        "xgc.assemble.call_s": assemble_s,
        "xgc.assemble.step_share":
            raw["picard_iterations_per_round"] * assemble_s / traced_p50,
        "xgc.cpu_util":
            raw["traced_cpu_s"] / (raw["traced_wall_s"] * raw["threads"]),
        "xgc.conservation_err_max": raw["conservation_err_max"],
        "xgc.nonlinear_residual": raw["nonlinear_residual_max"],
        "core.solve.call_s": call_s,
        "core.solve.calls": calls,
        "core.iters_mean": raw["iterations"] / raw["attempted"],
        "core.iters_max": raw["max_iterations"],
        "core.failed": raw["not_converged"],
        "core.residual_gap.systems": raw["gap_systems"],
        "core.true_residual.max_ratio": raw["max_residual_ratio"],
        "core.ledger.bytes": bytes_per_call,
        "core.ledger.flops": flops_per_call,
        "core.ledger.gbps": bytes_per_call / call_s / 1e9,
        "core.ledger.flops_per_byte": flops_per_call / bytes_per_call,
        "core.precond_setup.call_ns": med(raw["precond_setup_ns"]),
        "matrix.spmv_csr.call_ns": med(raw["spmv_ns"]),
        "blas.reduction.call_ns": med(raw["reduction_ns"]),
        "blas.update.call_ns": med(raw["update_ns"]),
        "blas.lanes8.pack_ns": med(raw["lanes8_pack_ns"]),
        "obs.overhead_frac":
            paired_overhead(raw["telemetry_on_s"], raw["telemetry_off_s"]),
        "obs.overhead.pairs": len(raw["telemetry_on_s"]),
        "obs.monitor.sample_s": med(raw["monitor_sample_s"]),
        "obs.monitor.ticks": raw["monitor_ticks"],
        "bench.trace_overhead_frac":
            paired_overhead(raw["traced_round_s"], raw["untraced_round_s"]),
        "bench.rounds": len(raw["traced_round_s"]),
    }
    metrics = _metrics(values, table)
    details = {
        "traced_round_s_p50": traced_p50,
        "ledger": "computed by obs::work_ledger from array sizes, "
                  "not measured traffic",
        "trace_file": raw.get("trace_file", ""),
    }
    return metrics, details


def attempts(raw):
    """(attempted, failed) system solves over every round of a run."""
    attempted = raw["attempted"]
    failed = raw["failed"]
    for prefix in ("untraced_", "telemetry_"):
        attempted += raw.get(prefix + "attempted", 0)
        failed += raw.get(prefix + "failed", 0)
    return int(attempted), int(failed)


def result(raw, trace, spec):
    """The final result object and the details record of one run; `spec`
    is the parsed BENCHMARK.json."""
    attempted, failed = attempts(raw)
    if trace:
        metrics, details = per_layer(raw, units(spec, "per_layer"))
    else:
        metrics, details = end_to_end(raw, units(spec, "end_to_end"))
    correct = attempted >= 1 and failed == 0
    return ({"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": metrics}, details)
