"""Catalogue of the benchmark's metrics.

``BENCHMARK.json`` lists the same names, units and directions; the smoke
test keeps the two in step. Each per-layer entry also names its layer and
the end-to-end metric and workload it is expected to move, written down
before any optimisation so a later change can be held to it. Where it names
``wall_s``, the gated ``wall_ref_s`` moves with it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    layer: str
    moves: str


# End-to-end metrics the final JSON line carries with --trace 0.
END_TO_END = (
    Metric("wall_ref_s", "s", "lower", "all", "median pass time, in seconds at the reference CPU speed"),
    Metric("setup_s", "s", "lower", "all", "import, generation and op list: median of repeats, at reference speed"),
    Metric("peak_rss_mb", "MB", "lower", "all", "peak resident memory of the workload's process"),
    Metric("agreement_frac", "fraction", "higher", "all", "verdicts equal to ground truth"),
)

# Printed in the summary lines only. Raw wall_s and setup_raw_s are what a
# user waits, but on a shared host their run-to-run spread exceeds the
# largest bound a gated metric may have; output_mb and failed_frac read 0 on
# some or all workloads, and the result line carries failures as its own
# `failed`/`attempted` keys.
SUMMARY_ONLY = (
    Metric("wall_s", "s", "lower", "all", "headline: median wall time of one pass over the operations"),
    Metric("setup_raw_s", "s", "lower", "all", "median wall time of one set-up"),
    Metric("output_mb", "MB", "lower", "all", "bytes operations write: dumps, report.json, samples.csv"),
    Metric("failed_frac", "fraction", "lower", "all", "operations that raised or failed a check"),
)

# Per-layer metrics the final JSON line carries with --trace 1.
PER_LAYER = (
    Metric("rtm.parse_s", "s", "lower", "rtm", "wall_s on validate-wide"),
    Metric("rtm.sweep_s", "s", "lower", "rtm", "wall_s on validate-wide"),
    Metric("rtm.sweep_configs", "count", "lower", "rtm", "wall_s on validate-wide"),
    Metric("rtm.configs_per_s", "1/s", "higher", "rtm", "wall_s on validate-wide"),
    Metric("rtm.run_s", "s", "lower", "rtm", "wall_s on validate-wide"),
    Metric("rtm.run_steps", "count", "lower", "rtm", "wall_s on validate-wide"),
    Metric("rtm.self_s", "s", "lower", "rtm", "wall_s on validate-wide"),
    Metric("circuits.compile_s", "s", "lower", "circuits", "wall_s on corpus-merged, less on orbit-scaled"),
    Metric("circuits.gates", "count", "lower", "circuits", "wall_s on corpus-merged"),
    Metric("circuits.table_entries", "count", "lower", "circuits", "wall_s on corpus-merged; peak_rss_mb"),
    Metric("circuits.entries_per_s", "1/s", "higher", "circuits", "wall_s on corpus-merged, less on orbit-scaled"),
    Metric("circuits.dump_s", "s", "lower", "circuits", "wall_s and output_mb on corpus-merged"),
    Metric("circuits.dump_bytes", "B", "lower", "circuits", "output_mb on corpus-merged"),
    Metric("circuits.self_s", "s", "lower", "circuits", "wall_s on corpus-merged"),
    Metric("clock.orbit_s", "s", "lower", "clock", "wall_s and peak_rss_mb on orbit-scaled"),
    Metric("clock.orbit_steps", "count", "lower", "clock", "wall_s on orbit-scaled"),
    Metric("clock.steps_per_s", "1/s", "higher", "clock", "wall_s on orbit-scaled"),
    Metric("clock.locality_s", "s", "lower", "clock", "small everywhere; tracked for regressions"),
    Metric("clock.spectrum_s", "s", "lower", "clock", "small everywhere; tracked for regressions"),
    Metric("clock.self_s", "s", "lower", "clock", "wall_s on orbit-scaled"),
    Metric("metrology.sample_s", "s", "lower", "metrology", "wall_s on sampling"),
    Metric("metrology.samples", "count", "lower", "metrology", "wall_s on sampling"),
    Metric("metrology.samples_per_s", "1/s", "higher", "metrology", "wall_s on sampling"),
    Metric("metrology.decide_s", "s", "lower", "metrology", "wall_s on sampling"),
    Metric("metrology.kept", "count", "higher", "metrology", "fixed by model and seed: a correctness signal"),
    Metric("metrology.kept_ratio", "fraction", "higher", "metrology", "fixed by model and seed: a correctness signal"),
    Metric("metrology.self_s", "s", "lower", "metrology", "wall_s on sampling"),
    Metric("harness.self_s", "s", "lower", "harness", "wall_s and output_mb on sampling"),
    Metric("harness.report_bytes", "B", "lower", "harness", "output_mb on sampling"),
    Metric("cli.self_s", "s", "lower", "cli", "wall_s on corpus-merged"),
    Metric("bench.self_s", "s", "lower", "bench", "benchmark loop outside every layer span"),
    Metric("trace.wall_s", "s", "lower", "bench", "wall time of the fastest traced pass"),
    Metric("trace.overhead_frac", "fraction", "lower", "bench", "traced over untraced wall_ref_s, minus 1"),
)
