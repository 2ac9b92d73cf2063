"""End-to-end benchmark of sbpp: search -> unlock -> audit, plus the attack ladder.

    python3 perfbench/run.py --workload full-1km --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Passes of the workload's op list repeat until ``--seconds`` have
gone by.  With ``--trace 0`` the run is untraced and reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes over the
same ops and reports the per-layer metrics (see README.md).  Reported times
are scaled to a fixed reference host speed by a reference slice timed
between ops (gauge.py).  Earlier lines of standard output are for people;
the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}

The exit code is 0 only if every op gave the expected verdict and passed
its correctness checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_MIN_REPEATS = 5

END_TO_END_UNITS = {
    "search_ms.p50": "ms",
    "search_ms.p90": "ms",
    "unlock_ms.p50": "ms",
    "unlock_ms.p90": "ms",
    "audit_ms.p50": "ms",
    "audit_ms.p90": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    from tracing import COUNT, INSTRUMENTS
    from workloads import PROTOCOL_REASONS, VARIANT_REASONS
    from sbpp.variants import VARIANT_KINDS

    units: dict[str, str] = {}
    for name, kind, _ in INSTRUMENTS:
        units[f"{name}.calls"] = "count"
        if kind != COUNT:
            units[f"{name}.self_ms"] = "ms"
        if name == "geoindex.match":
            units["geoindex.match.ids"] = "count"
            units["geoindex.match.in_radius_ratio"] = "ratio"
    units["session.table_len"] = "count"
    units.update({f"protocol.rejects.{r}": "count" for r in PROTOCOL_REASONS})
    units.update({f"variants.rejects.{r}": "count" for r in VARIANT_REASONS})
    units.update({f"attacks.rung_s.{k}": "s" for k in VARIANT_KINDS})
    units["trace_overhead"] = "ratio"
    units["untraced_share"] = "ratio"
    return units


def time_setup(build, times: list[float]) -> list[float]:
    """Top ``times`` up with timed builds, scaled to the reference host speed,
    until there are enough for a median."""
    from gauge import SpeedGauge

    times, gauge = list(times), SpeedGauge()
    while len(times) < SETUP_MIN_REPEATS:
        t0 = perf_counter()
        build()
        times.append(gauge.scaled_now(perf_counter() - t0))
    return times


def mean_over_passes(passes, stat) -> float:
    """Mean over passes of a per-pass statistic; passes without one are skipped.

    The per-pass statistics are already scaled to the reference host speed
    (gauge.py); the mean smooths what the scaling leaves of the host's speed
    levels, where a median over passes jumps from one level to another.
    """
    values = [v for v in map(stat, passes) if v is not None]
    return statistics.mean(values) if values else 0.0


def ops_per_s(tally) -> float:
    op_s = sum(p.op_s for p in tally.passes)
    return sum(p.ops for p in tally.passes) / op_s if op_s else 0.0


def max_rss_mb() -> float:
    """Resident high-water mark of this process so far.

    Read after the first pass: later passes repeat the same work, and only
    add allocator drift that depends on how many passes a run fits in."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def slice_summary(passes) -> dict[str, float]:
    """Spread of the gauge's slice times over a run, in ms: how much the host
    speed moved while it ran."""
    slices = sorted(s for p in passes for s in p.gauge.slices)
    if len(slices) < 2:
        return {}
    q = statistics.quantiles(slices, n=10)
    return {"p10": q[0] * 1e3, "p50": statistics.median(slices) * 1e3, "p90": q[-1] * 1e3}


def percentile(key: str, index: int):
    return lambda p: p.percentiles[key][index] if key in p.percentiles else None


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, "Tally"]:
    """(metrics, metadata, tally) of one run."""
    import cryptography
    from tracing import SETUP_SPANS, SPAN, INSTRUMENTS, Instrumentation, Tracer
    from workloads import TIMINGS, WORKLOADS, Tally

    workload = WORKLOADS[workload_name](seed)
    untraced, traced, tracer = Tally(), Tally(), Tracer()
    deadline = perf_counter() + seconds
    missing: list[str] = []
    peak_rss_mb = 0.0
    while True:  # whole passes, at least one
        workload.run_pass(untraced)
        if not peak_rss_mb:
            peak_rss_mb = max_rss_mb()
        if trace:
            # Same ops as the untraced pass, so every traced pass makes the
            # same calls and the per-op counts repeat exactly.
            with Instrumentation(tracer) as inst:
                workload.run_pass(traced, tracer)
            missing = inst.missing
        if perf_counter() >= deadline:
            break
    if missing:
        print(f"# not instrumented (absent from the program): {missing}")

    tally = untraced
    if trace:
        tally = Tally(
            attempted=untraced.attempted + traced.attempted,
            failed=untraced.failed + traced.failed,
            failures=untraced.failures + traced.failures,
        )
    setup_times = time_setup(workload.build, [p.setup_s for p in untraced.passes])
    untraced_rate = ops_per_s(untraced)
    metrics: dict[str, float] = {}
    if not trace:
        for key in TIMINGS:
            metrics[f"{key}.p50"] = mean_over_passes(untraced.passes, percentile(key, 0))
            metrics[f"{key}.p90"] = mean_over_passes(untraced.passes, percentile(key, 1))
        metrics["ops_per_s"] = untraced_rate
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = peak_rss_mb
    else:
        ops = tracer.totals["op"]
        setups = tracer.totals["setup"]
        for name in per_layer_units():
            metrics[name] = 0.0
        for name, kind, _ in INSTRUMENTS:
            # set-up spans per pass (one server, or nine rungs), the rest per op
            totals, per = (setups, len(traced.passes)) if name in SETUP_SPANS else (ops, ops.scopes)
            per = max(per, 1)
            if kind == SPAN:
                metrics[f"{name}.calls"] = totals.calls[name] / per
                metrics[f"{name}.self_ms"] = totals.self_ns[name] / per / 1e6
            else:
                metrics[f"{name}.calls"] = totals.counts[name] / per
        instrumented = {name for name, _, _ in INSTRUMENTS}
        unknown = []
        for counter, n in ops.counts.items():
            if counter in metrics:
                metrics[counter] = n / max(ops.scopes, 1)
            elif counter not in instrumented:
                unknown.append(counter)
        if unknown:
            print(f"# counters with no declared metric: {unknown}")
        if traced.returned_ids:
            metrics["geoindex.match.in_radius_ratio"] = traced.in_radius_ids / traced.returned_ids
        metrics["session.table_len"] = float(workload.table_len)
        for kind, secs in getattr(workload, "rung_s", {}).items():
            metrics[f"attacks.rung_s.{kind}"] = secs / workload.rung_trials[kind]
        traced_rate = ops_per_s(traced)
        if untraced_rate:
            metrics["trace_overhead"] = 1.0 - traced_rate / untraced_rate
        if ops.wall_ns:
            metrics["untraced_share"] = 1.0 - ops.covered_ns / ops.wall_ns

    meta = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        **workload.meta(),
        "passes": len(untraced.passes),
        "samples": {k: sum(p.counts[k] for p in untraced.passes) for k in TIMINGS},
        "setup_repeats": len(setup_times),
        "peak_rss_mb_end": max_rss_mb(),
        "raw_ops_per_s": sum(p.ops for p in untraced.passes) / max(sum(p.raw_op_s for p in untraced.passes), 1e-9),
        "gauge_slice_ms": slice_summary(untraced.passes),
        "traced_ops": traced.attempted,
        "failures": dict(tally.failures),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "commit": commit(),
    }
    return metrics, meta, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("full-1km", "core-1km", "ladder"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sbpp" / "__init__.py").is_file():
        print(f"error: no sbpp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sbpp

    if Path(sbpp.__file__).resolve().parent != SRC / "sbpp":
        print(f"error: imported sbpp from {sbpp.__file__}, not {SRC}", file=sys.stderr)
        return 2

    metrics, meta, tally = run(args.workload, args.seed, args.seconds, bool(args.trace))
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, unit in units.items():
        print(f"# {name:<40} {metrics[name]:>14.6g} {unit}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
