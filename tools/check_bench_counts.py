#!/usr/bin/env python3
"""Compare a bench JSON emission against its checked-in baseline.

Usage: check_bench_counts.py BASELINE.json CURRENT.json

Benches emit BENCH_<name>.json (see bench/bench_util.h) with one entry
per measured configuration. Only entries the baseline marks
deterministic are checked:

  - the entry must still exist in the current emission,
  - logical probe counts must match exactly (they are a property of the
    query plans, not the machine),
  - physical descents must not exceed the baseline (the batched probe
    layer's amortization must never regress).

Wall-clock times are never compared — CI machines are not lab machines.
Exit status 0 on success, 1 with a per-entry report on any violation.

With --shard-counters the current emission's trailing "metrics" snapshot
is additionally validated against the run-sharding accounting invariant
(DESIGN.md §11): the provenance/shards gauge must be present, per-shard
provenance/shard<k>/rows counters must form a gapless range starting at
shard 0, and their sum must equal provenance/rows_ingested — every row
the process ingested was credited to exactly one shard.

With --compress-ratios the emission is validated against the segment
tier accounting (DESIGN.md §13): the footprint entries must show a
compression ratio >= 1 (sealed never larger than hot), the per-shard
provenance/shard<k>/segments counters must form a gapless range
starting at shard 0, and the segment_rows + hot_rows gauges must sum to
provenance/rows_ingested — sealing moves rows between tiers, it never
drops or duplicates them. Two checks pin the seal itself: every
provenance/shard<k>/segment_bytes gauge must equal the baseline's
exactly (the encoding is deterministic, so a seal that feeds the
encoder other rows or another row order shows up as a byte change),
and storage/deletes must equal the summed segment_rows gauges (each
sealed row leaves the hot tier as exactly one counted delete). (The
gauge invariants assume a single-store process that never deletes a
run, which every bench that emits these metrics is.)
"""

import argparse
import json
import re
import sys


def load_doc(path):
    with open(path) as f:
        return json.load(f)


def load_entries(doc):
    return doc.get("bench", "?"), {e["label"]: e for e in doc["entries"]}


def check_shard_counters(doc):
    """Returns a list of violations of the per-shard row accounting."""
    metrics = doc.get("metrics") or {}
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}
    failures = []
    if "provenance/shards" not in gauges:
        failures.append("metrics: gauge provenance/shards missing")
    shard_rows = {}
    for name, value in counters.items():
        m = re.fullmatch(r"provenance/shard(\d+)/rows", name)
        if m:
            shard_rows[int(m.group(1))] = value
    if not shard_rows:
        failures.append("metrics: no provenance/shard<k>/rows counters")
        return failures
    expected = set(range(max(shard_rows) + 1))
    missing = expected - set(shard_rows)
    if missing:
        failures.append(
            f"metrics: shard rows counters have gaps (missing shards "
            f"{sorted(missing)})"
        )
    total = counters.get("provenance/rows_ingested")
    if total is None:
        failures.append("metrics: counter provenance/rows_ingested missing")
    elif sum(shard_rows.values()) != total:
        failures.append(
            f"metrics: per-shard rows sum {sum(shard_rows.values())} != "
            f"provenance/rows_ingested {total}"
        )
    return failures


def check_compress_ratios(doc, baseline_doc):
    """Returns a list of violations of the segment tier accounting."""
    failures = []

    # Footprint: the sealed tier never exceeds the hot tier it replaced.
    entries = {e["label"]: e for e in doc.get("entries", [])}
    hot = entries.get("footprint_hot_bytes")
    sealed = entries.get("footprint_sealed_bytes")
    if hot is None or sealed is None:
        failures.append(
            "entries: footprint_hot_bytes / footprint_sealed_bytes missing "
            "(bench did not record the tier footprints)"
        )
    elif sealed["probes"] <= 0:
        failures.append("entries: footprint_sealed_bytes is zero — nothing sealed")
    elif hot["probes"] < sealed["probes"]:
        failures.append(
            f"entries: compression ratio "
            f"{hot['probes'] / sealed['probes']:.2f} < 1 "
            f"(hot {hot['probes']} bytes, sealed {sealed['probes']} bytes)"
        )

    metrics = doc.get("metrics") or {}
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}

    # Per-shard segment counters are gapless from shard 0.
    segments = {}
    for name, value in counters.items():
        m = re.fullmatch(r"provenance/shard(\d+)/segments", name)
        if m:
            segments[int(m.group(1))] = value
    if not segments:
        failures.append("metrics: no provenance/shard<k>/segments counters")
        return failures
    missing = set(range(max(segments) + 1)) - set(segments)
    if missing:
        failures.append(
            f"metrics: segment counters have gaps (missing shards "
            f"{sorted(missing)})"
        )

    # Tier row accounting: every ingested row is resident in exactly one
    # tier (the benches never delete).
    segment_rows = sum(
        value
        for name, value in gauges.items()
        if re.fullmatch(r"provenance/shard\d+/segment_rows", name)
    )
    hot_rows = sum(
        value
        for name, value in gauges.items()
        if re.fullmatch(r"provenance/shard\d+/hot_rows", name)
    )
    total = counters.get("provenance/rows_ingested")
    if total is None:
        failures.append("metrics: counter provenance/rows_ingested missing")
    elif segment_rows + hot_rows != total:
        failures.append(
            f"metrics: segment_rows {segment_rows} + hot_rows {hot_rows} "
            f"!= provenance/rows_ingested {total}"
        )

    # Sealed rows leave the hot tier as counted deletes, one each.
    deletes = counters.get("storage/deletes")
    if deletes is None:
        failures.append("metrics: counter storage/deletes missing")
    elif deletes != segment_rows:
        failures.append(
            f"metrics: storage/deletes {deletes} != segment_rows "
            f"{segment_rows} (a seal deleted rows it did not encode)"
        )

    # Segment bytes are deterministic: same rows, same order, same bytes.
    def segment_bytes(gauge_map):
        return {
            name: value
            for name, value in gauge_map.items()
            if re.fullmatch(r"provenance/shard\d+/segment_bytes", name)
        }

    base_gauges = ((baseline_doc.get("metrics") or {}).get("gauges")) or {}
    base_bytes = segment_bytes(base_gauges)
    cur_bytes = segment_bytes(gauges)
    if not base_bytes:
        failures.append("baseline: no provenance/shard<k>/segment_bytes gauges")
    for name in sorted(set(base_bytes) | set(cur_bytes)):
        if base_bytes.get(name) != cur_bytes.get(name):
            failures.append(
                f"metrics: {name} {base_bytes.get(name)} -> "
                f"{cur_bytes.get(name)} (sealed segments are not "
                "byte-identical to the baseline)"
            )
    return failures


def main(argv):
    parser = argparse.ArgumentParser(
        description="Compare a bench JSON emission against its checked-in "
        "baseline (deterministic probe/descent counts only; wall-clock is "
        "never compared)."
    )
    parser.add_argument("baseline", help="checked-in BENCH_<name>.json baseline")
    parser.add_argument("current", help="freshly emitted BENCH_<name>.json")
    parser.add_argument(
        "--shard-counters",
        action="store_true",
        help="also validate the current emission's per-shard row counters: "
        "sum(provenance/shard<k>/rows) == provenance/rows_ingested and the "
        "provenance/shards gauge is present",
    )
    parser.add_argument(
        "--compress-ratios",
        action="store_true",
        help="also validate the current emission's segment tier accounting: "
        "footprint compression ratio >= 1, gapless per-shard "
        "provenance/shard<k>/segments counters, segment_rows + hot_rows "
        "gauges summing to provenance/rows_ingested, storage/deletes equal "
        "to the segment_rows sum, and every segment_bytes gauge equal to "
        "the baseline's",
    )
    args = parser.parse_args(argv)

    try:
        baseline_doc = load_doc(args.baseline)
        bench, baseline = load_entries(baseline_doc)
        current_doc = load_doc(args.current)
        _, current = load_entries(current_doc)
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
        print(f"error: unreadable or malformed bench JSON: {e}", file=sys.stderr)
        return 1

    failures = []
    if args.shard_counters:
        failures.extend(check_shard_counters(current_doc))
    if args.compress_ratios:
        failures.extend(check_compress_ratios(current_doc, baseline_doc))
    checked = 0
    for label, base in sorted(baseline.items()):
        if not base.get("deterministic", False):
            continue
        checked += 1
        cur = current.get(label)
        if cur is None:
            failures.append(f"{label}: missing from current emission")
            continue
        if cur["probes"] != base["probes"]:
            failures.append(
                f"{label}: probes {base['probes']} -> {cur['probes']} "
                "(plan or probe-generation change)"
            )
        if cur["descents"] > base["descents"]:
            failures.append(
                f"{label}: descents {base['descents']} -> {cur['descents']} "
                "(batched-probe amortization regressed)"
            )

    if failures:
        print(f"[{bench}] {len(failures)} baseline violation(s):")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"[{bench}] {checked} deterministic entries match the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
