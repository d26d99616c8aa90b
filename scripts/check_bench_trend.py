#!/usr/bin/env python3
"""Perf-trend regression gate over bench_* JSON records.

Compares the current commit's bench records (bench_parallel.json /
bench_corpus.json, arrays of
{"metric": ..., "value": ...} -- or
{"metric": ..., "values": [...]} for multi-sample records, aggregated
by mean; a record with zero samples is skipped with a warning, never a
crash) against a baseline set downloaded from the previous
`bench-records-*` artifact on main, and fails on a >threshold relative
drop in any watched higher-is-better metric:

  * parallel.speedup/workers=N                 (N in BOTH sweeps)
  * corpus.trojan_yield[/<family>]             (bench_corpus)

Lower-is-better metrics invert the comparison: the gate fails on a
>threshold relative RISE instead of a drop. Currently that is
corpus.queries_per_protocol[/<family>] -- solver effort per corpus
protocol creeping up is the regression, not shrinking. Corpus metrics
absent from the baseline (e.g. the artifact predates bench_corpus, or
a new sampled family appeared) follow the one-sided rule and are
skipped -- warn-only by construction.

Sweep matching: a per-worker parallel metric is only compared when both
record sets carry its `parallel.swept/workers=N` marker (bench_parallel
emits one per worker count actually run), so a truncated or widened
sweep never produces a bogus comparison. Baselines that predate the
markers fall back to metric presence. Metrics absent from the baseline
(e.g. the ablations added later) are reported one-sided and skipped --
warn-only by construction.

Nested records: {"metric": <name>, "nested": {...}} (the benches'
observability summary) flattens to "<name>.<key>" entries, so flat
lookups and the watch patterns keep working.

Absolute ceilings: some metrics are gated against a fixed bound rather
than the baseline -- obs.overhead_pct (the observability layer's
measured wall-clock cost) must stay under 5%. Ceilings apply to the
current records alone, so they hold even on first runs with no
baseline artifact.

Exit codes: 0 ok / nothing to compare (first run, forks), 1 regression
or ceiling violation (suppressed by --warn-only), 2 usage error.
"""

import argparse
import fnmatch
import json
import pathlib
import sys

WATCHED_PATTERNS = [
    "parallel.speedup/workers=*",
    "corpus.trojan_yield",
    "corpus.trojan_yield/*",
]
# Watched metrics where a relative RISE beyond the threshold fails.
LOWER_IS_BETTER_PATTERNS = [
    "corpus.queries_per_protocol",
    "corpus.queries_per_protocol/*",
]
# Per-worker metrics gated on the sweep markers both record sets carry.
SWEEP_METRIC_PREFIXES = ("parallel.speedup/workers=",)
SWEEP_MARKER_PREFIX = "parallel.swept/workers="
# metric -> highest acceptable value, checked against current alone.
CEILING_METRICS = {
    "obs.overhead_pct": 5.0,
}


def record_value(record):
    """Scalar value of one record: its "value", or the mean of its
    "values" samples. Returns None for a zero-sample record (a metric
    that was declared but never measured -- e.g. a truncated sweep's
    flush); the caller skips it instead of dividing by zero."""
    if "values" in record:
        samples = [float(v) for v in record["values"]]
        if not samples:
            return None
        return sum(samples) / len(samples)
    return float(record["value"])


def load_records(paths):
    """Merge {"metric": v} maps from a list of JSON record files."""
    merged = {}
    for path in paths:
        try:
            records = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"trend: unreadable record file {path}: {err}")
            continue
        for record in records:
            try:
                metric = str(record["metric"])
                if "nested" in record:
                    # Observability summary: one object of name -> value
                    # entries, flattened to "<metric>.<name>".
                    for name, value in dict(record["nested"]).items():
                        merged[f"{metric}.{name}"] = float(value)
                    continue
                value = record_value(record)
            except (KeyError, TypeError, ValueError):
                print(f"trend: malformed record in {path}: {record!r}")
                continue
            if value is None:
                print(f"trend: zero-sample metric in {path}: "
                      f"{record.get('metric')!r}; skipped")
                continue
            merged[metric] = value
    return merged


def swept_workers(records):
    """Worker counts a record set actually ran, or None (no markers)."""
    swept = {
        metric[len(SWEEP_MARKER_PREFIX):]
        for metric in records
        if metric.startswith(SWEEP_MARKER_PREFIX)
    }
    return swept or None


def comparable(metric, current, baseline):
    """Apply the sweep-intersection rule for per-worker metrics."""
    prefix = next(
        (p for p in SWEEP_METRIC_PREFIXES if metric.startswith(p)), None)
    if prefix is None:
        return True
    workers = metric[len(prefix):]
    for records in (current, baseline):
        swept = swept_workers(records)
        if swept is not None and workers not in swept:
            return False
    return True


def ceiling_violations(current):
    """(metric, value, ceiling) for every current metric over its
    absolute bound. Absent metrics pass (the bench may not have run
    with the relevant flag)."""
    return [
        (metric, current[metric], ceiling)
        for metric, ceiling in sorted(CEILING_METRICS.items())
        if metric in current and current[metric] > ceiling
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", nargs="+", type=pathlib.Path,
                        required=True,
                        help="bench JSON files for this commit")
    parser.add_argument("--baseline-dir", type=pathlib.Path,
                        required=True,
                        help="directory holding the previous artifact's "
                             "JSON files (may be missing: warn-only)")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="relative drop that fails (default 0.20)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0 (forks, "
                             "first runs)")
    args = parser.parse_args()
    if not 0 < args.threshold < 1:
        print(f"trend: bad threshold {args.threshold}")
        return 2

    current = load_records([p for p in args.current if p.exists()])
    if not current:
        print("trend: no current records; nothing to gate")
        return 0

    # Absolute ceilings hold with or without a baseline.
    ceilings = ceiling_violations(current)
    for metric, value, ceiling in ceilings:
        print(f"trend: {metric} = {value:.3f} exceeds its absolute "
              f"ceiling of {ceiling:.3f}")
    if ceilings and not args.warn_only:
        return 1
    if ceilings:
        print("trend: --warn-only set; not failing the job")

    baseline_files = (sorted(args.baseline_dir.glob("*.json"))
                      if args.baseline_dir.is_dir() else [])
    baseline = load_records(baseline_files)
    if not baseline:
        print(f"trend: no baseline under {args.baseline_dir} "
              "(first run or fork); skipping the gate")
        return 0

    watched = sorted(
        metric for metric in set(current) | set(baseline)
        if any(fnmatch.fnmatchcase(metric, pat)
               for pat in WATCHED_PATTERNS + LOWER_IS_BETTER_PATTERNS))

    regressions = []
    print(f"{'metric':44s} {'baseline':>10s} {'current':>10s} "
          f"{'delta':>8s}")
    for metric in watched:
        if metric not in current or metric not in baseline:
            print(f"{metric:44s} {'-':>10s} {'-':>10s} "
                  f"{'(one-sided, skipped)':>8s}")
            continue
        if not comparable(metric, current, baseline):
            print(f"{metric:44s} {'-':>10s} {'-':>10s} "
                  f"{'(sweep mismatch, skipped)':>8s}")
            continue
        base, cur = baseline[metric], current[metric]
        if base <= 0:
            print(f"{metric:44s} {base:10.3f} {cur:10.3f} "
                  f"{'(bad baseline, skipped)':>8s}")
            continue
        lower_better = any(fnmatch.fnmatchcase(metric, pat)
                           for pat in LOWER_IS_BETTER_PATTERNS)
        delta = (cur - base) / base
        print(f"{metric:44s} {base:10.3f} {cur:10.3f} {delta:+7.1%}"
              f"{'  (lower is better)' if lower_better else ''}")
        regressed = (delta > args.threshold if lower_better
                     else delta < -args.threshold)
        if regressed:
            regressions.append((metric, base, cur, delta))

    if regressions:
        print(f"\ntrend: {len(regressions)} metric(s) regressed more "
              f"than {args.threshold:.0%}:")
        for metric, base, cur, delta in regressions:
            print(f"  {metric}: {base:.3f} -> {cur:.3f} ({delta:+.1%})")
        if args.warn_only:
            print("trend: --warn-only set; not failing the job")
            return 0
        return 1
    print("\ntrend: no regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
