#!/usr/bin/env python3
"""CI perf-regression gate over the BENCH_*.json bench records.

Compares a fresh bench run (``results_dir``, produced by bench/run_all.sh)
against the checked-in snapshot in ``baseline_dir`` and exits non-zero when
any gated metric regressed by more than the threshold (default 25%).

The baseline defines the contract: every metric stored in a baseline file
must exist in the fresh results and stay within the threshold. The reverse
is deliberately soft — a gateable metric that exists in the fresh run but
not in the baseline (a metric added by the PR under test) is reported as a
warning and passes, so new metrics never require a synchronized baseline
refresh; they start gating once ``--snapshot`` is re-run. Direction is
derived from the metric name:

* higher-is-better: names containing ``speedup``, ``improvement``,
  ``identical``, ``wins``, or ``per_sec`` (ratios, quality scores, and
  throughputs — this covers the fleet arm's
  ``fleet_migration_improvement_*`` / ``fleet_migration_wins_8x64`` /
  ``fleet_single_pm_identical`` and the probe-kernel
  ``whatif_probes_per_sec_*``; the ``per_sec`` check runs before the
  latency check, so the trailing ``sec`` segment of a throughput name
  never flips it to lower-is-better);
* lower-is-better: names ending in ``_ms``, ``_seconds``, ``_sec``, or
  containing ``latency`` (wall-clock style metrics, e.g. the fleet
  arm's ``fleet_solve_latency_ms_*``).

The service bench's multi-worker arms emit the
``service_throughput_events_per_sec_w{1,2,4,8}`` family (events per
second through the sharded repair loop at each worker count), which
gates higher-is-better via the ``per_sec`` token once snapshotted —
until the next ``--snapshot`` refresh it warns-and-passes like any
PR-added metric. ``service_worker_scaling_w4`` (the w4/w1 ratio) stays
informational here: like the parallel-speedup floors it degenerates to
~1x on few-core hosts, so the bench's own exit code enforces it
hardware-conditionally instead, alongside the correctness gates
(multi-worker final state bit-identical to ``workers=1``, coalesced
storm equal to the uncoalesced replay with fewer repairs).

The search-strategy sweep follows the same rules: the ablation bench's
``strategy_<name>_objective_sec`` / ``strategy_<name>_latency_ms``
families (plain, ``_m4``, and the dp_prune optimality sweep's
``strategy_{dp_prune,annealing,greedy}_n{2,4,8,16}_*`` variants) all
gate lower-is-better once snapshotted, and warn-and-pass until then.
The dp_prune scale gate (beats-or-ties on-grid greedy at N = 16 under
the latency ceiling) is enforced by ``ablation_design_choices``'s own
exit code, independent of any baseline; its bit-exactness against the
brute-force grid walk at N <= 4 is a tier-1 test (dp_prune_test).

Anything else (counts, shares, candidates, ...) is reported informationally
but never gates. Latency metrics where both sides sit under
``--latency-floor-ms`` are skipped: absolute micro-timings are dominated by
scheduler noise and by how the baseline host compares to the CI runner, so
only latencies large enough to dwarf both gate by default. Ratio metrics
(speedups) are machine-portable and always gate. When the committed
baseline comes from the same machine class as CI, lower the floor to
tighten the latency gate.

Refreshing the snapshot after an intentional change::

    bench/run_all.sh build bench_results
    python3 bench/compare_bench.py bench_results bench/baseline --snapshot

``--snapshot`` rewrites the baseline from the fresh results, keeping only
gateable metrics (the volatile per-run ``wall_seconds`` is dropped) plus
the ``hardware_threads`` provenance metric, which documents how parallel
the snapshot's source host was. A snapshot taken on a single-core host
records degenerate parallel-speedup floors (fan-out speedups collapse to
~1x there), so ``--snapshot`` refuses to run when the host has only one
CPU unless ``--force`` is also given — forcing is legitimate when the
single-core host IS the machine class the gate runs on, and the
``hardware_threads`` provenance metric records that choice. See
docs/benchmarks.md for the full harness / schema / refresh walkthrough.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

# Checked before the latency segments, so `whatif_probes_per_sec_scalar`
# gates higher-is-better despite its trailing `sec` segment.
HIGHER_BETTER_TOKENS = ("speedup", "improvement", "identical", "wins",
                        "per_sec")
# Matched as name *segments* so `sequential_ms_n16` gates like `foo_ms`.
LOWER_BETTER_SEGMENTS = ("ms", "seconds", "sec", "latency")
# Never gated, but kept by --snapshot as provenance: records how parallel
# the snapshot's source host was (speedup floors from a 1-core host are
# conservative; multi-core CI only clears them more easily).
PROVENANCE_METRICS = ("hardware_threads",)


def is_latency(name: str) -> bool:
    return any(seg in name.lower().split("_") for seg in LOWER_BETTER_SEGMENTS)


def direction(name: str) -> str:
    """'higher', 'lower', or 'none' (not gated)."""
    lowered = name.lower()
    if any(tok in lowered for tok in HIGHER_BETTER_TOKENS):
        return "higher"
    if is_latency(name):
        return "lower"
    return "none"


def load_metrics(path: pathlib.Path) -> dict[str, float]:
    with path.open() as fh:
        record = json.load(fh)
    metrics = record.get("metrics", {})
    return {
        name: value
        for name, value in metrics.items()
        if isinstance(value, (int, float)) and value is not True
        and value is not False
    }


def snapshot(results_dir: pathlib.Path, baseline_dir: pathlib.Path,
             force: bool) -> int:
    cpus = os.cpu_count() or 1
    if cpus <= 1 and not force:
        print(
            "error: refusing to snapshot on a single-core host: parallel "
            "speedup metrics degenerate to ~1x here and would set useless "
            "baseline floors. Re-run with --force if this host is "
            "representative of where the gate runs (the hardware_threads "
            "provenance metric records it).",
            file=sys.stderr,
        )
        return 2
    baseline_dir.mkdir(parents=True, exist_ok=True)
    for stale in baseline_dir.glob("BENCH_*.json"):
        stale.unlink()
    written = 0
    for path in sorted(results_dir.glob("BENCH_*.json")):
        gated = {
            name: value
            for name, value in load_metrics(path).items()
            if direction(name) != "none" or name in PROVENANCE_METRICS
        }
        if not gated:
            continue
        out = baseline_dir / path.name
        out.write_text(
            json.dumps({"artifact": path.stem, "metrics": gated},
                       indent=2, sort_keys=True) + "\n"
        )
        written += 1
    print(f"snapshot: wrote {written} baseline file(s) to {baseline_dir}")
    return 0


def compare(results_dir: pathlib.Path, baseline_dir: pathlib.Path,
            threshold: float, latency_floor_ms: float) -> int:
    baseline_files = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baseline_files:
        print(f"error: no BENCH_*.json baselines in {baseline_dir}",
              file=sys.stderr)
        return 2

    failures: list[str] = []
    warnings: list[str] = []
    compared = 0
    for base_path in baseline_files:
        result_path = results_dir / base_path.name
        if not result_path.exists():
            failures.append(
                f"{base_path.name}: missing from {results_dir} "
                "(bench disappeared or failed before writing JSON)"
            )
            continue
        base_metrics = load_metrics(base_path)
        new_metrics = load_metrics(result_path)
        for name, base_value in sorted(base_metrics.items()):
            sense = direction(name)
            if sense == "none":
                continue
            if name not in new_metrics:
                failures.append(
                    f"{base_path.name}: metric '{name}' vanished from the "
                    "fresh run"
                )
                continue
            new_value = new_metrics[name]
            compared += 1
            if sense == "lower" and "ms" in name.lower().split("_") and (
                abs(base_value) < latency_floor_ms
                and abs(new_value) < latency_floor_ms
            ):
                continue  # sub-floor micro-timing: noise, not signal
            if base_value == 0:
                regressed = sense == "higher" and new_value < -threshold
                ratio_text = "baseline 0"
            elif sense == "higher":
                change = (new_value - base_value) / abs(base_value)
                regressed = change < -threshold
                ratio_text = f"{change:+.1%}"
            else:
                change = (new_value - base_value) / abs(base_value)
                regressed = change > threshold
                ratio_text = f"{change:+.1%}"
            marker = "FAIL" if regressed else "ok"
            print(f"[{marker:>4}] {base_path.name}:{name}: "
                  f"baseline {base_value:g} -> {new_value:g} ({ratio_text}, "
                  f"{sense}-is-better)")
            if regressed:
                failures.append(
                    f"{base_path.name}: '{name}' regressed beyond "
                    f"{threshold:.0%}: {base_value:g} -> {new_value:g}"
                )

    # Gateable metrics present in the fresh run but absent from the
    # baseline are warn-and-pass, not failures: a newly added metric must
    # not force a synchronized baseline refresh in the same PR. It starts
    # gating once the snapshot is refreshed.
    baseline_names = {p.name for p in baseline_files}
    unsnapshotted: dict[str, list[str]] = {}
    for result_path in sorted(results_dir.glob("BENCH_*.json")):
        base_path = baseline_dir / result_path.name
        base_metrics = (load_metrics(base_path)
                        if result_path.name in baseline_names else {})
        for name, value in sorted(load_metrics(result_path).items()):
            if direction(name) == "none" or name in base_metrics:
                continue
            unsnapshotted.setdefault(result_path.name, []).append(name)
            warnings.append(f"{result_path.name}: new metric '{name}' "
                            f"({value:g}) has no baseline yet")
            print(f"[warn] {result_path.name}:{name}: {value:g} "
                  "(not in baseline; gates after the next --snapshot)")

    print(f"\ncompared {compared} gated metric(s) across "
          f"{len(baseline_files)} artifact(s)")
    # One line per artifact at exit, so metrics riding ungated are visible
    # in the job's last screen of output, not buried mid-log: these are
    # gateable by name but have no snapshot, i.e. a regression in them
    # passes CI until someone runs the baseline-refresh workflow.
    if unsnapshotted:
        print(f"{len(warnings)} gateable metric(s) have no baseline yet "
              "(warn-and-pass; run the baseline-refresh workflow and commit "
              "the artifact to start gating them):")
        for artifact, names in sorted(unsnapshotted.items()):
            print(f"warning: {artifact}: un-snapshotted: {', '.join(names)}")
    if failures:
        print(f"\nPERF GATE FAILED ({len(failures)} issue(s)):",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        print("\nIf the change is intentional, refresh the snapshot with "
              "'python3 bench/compare_bench.py <results> bench/baseline "
              "--snapshot' and commit it.", file=sys.stderr)
        return 1
    print("perf gate: OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results_dir", type=pathlib.Path,
                        help="fresh bench output (bench/run_all.sh results)")
    parser.add_argument("baseline_dir", type=pathlib.Path,
                        help="checked-in snapshot (bench/baseline)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max allowed relative regression (default 0.25)")
    parser.add_argument("--latency-floor-ms", type=float, default=75.0,
                        help="skip *_ms comparisons when both sides are "
                             "below this (default 75ms: sub-floor timings "
                             "are scheduler/host noise, not regressions)")
    parser.add_argument("--snapshot", action="store_true",
                        help="rewrite the baseline from results_dir instead "
                             "of comparing")
    parser.add_argument("--force", action="store_true",
                        help="allow --snapshot on a single-core host "
                             "(normally refused: parallel speedup floors "
                             "from such a host are degenerate)")
    args = parser.parse_args()

    if not args.results_dir.is_dir():
        print(f"error: results dir {args.results_dir} not found",
              file=sys.stderr)
        return 2
    if args.snapshot:
        return snapshot(args.results_dir, args.baseline_dir, args.force)
    return compare(args.results_dir, args.baseline_dir, args.threshold,
                   args.latency_floor_ms)


if __name__ == "__main__":
    sys.exit(main())
