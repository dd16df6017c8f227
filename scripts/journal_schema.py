#!/usr/bin/env python3
"""BENCH_journal.json schema validator.

Checks the journal_throughput bench output (bench::JsonReport shape) for
the series the segmented journal store promises: write and read
events/sec of the JSONL segments, on-disk bytes/event, segment count, and
the offline-compaction rate and drop ratio.  Values must be finite and
non-negative, the throughput series must share one rep count, rotation
must produce at least two segments, and the drop ratio must sit in
(0.5, 1] — the bench's event mix is mostly superseded by construction,
so a lower ratio means compaction stopped recognizing supersession.

Usage:
  scripts/journal_schema.py BENCH_journal.json

Exit status: 0 = schema OK, 1 = violation (or unreadable input).
"""

import json
import math
import sys

THROUGHPUT = ("jsonl_write_events_per_sec", "jsonl_read_events_per_sec",
              "compact_events_per_sec")
SINGLETONS = ("jsonl_bytes_per_event", "segments_per_run",
              "compact_drop_ratio")


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    path = sys.argv[1]
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"journal_schema: cannot read {path}: {e}", file=sys.stderr)
        return 1

    errors = []
    if doc.get("bench") != "journal_throughput":
        errors.append(
            f'bench is {doc.get("bench")!r}, want "journal_throughput"')

    rows = {}
    for row in doc.get("results", []):
        name = row.get("name")
        if not isinstance(name, str):
            errors.append(f"result without a string name: {row!r}")
            continue
        for field in ("reps", "median", "p95"):
            v = row.get(field)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                errors.append(f"{name}.{field} is not a finite number: {v!r}")
            elif v < 0:
                errors.append(f"{name}.{field} is negative: {v!r}")
        rows[name] = row

    reps = None
    for series in THROUGHPUT:
        if series not in rows:
            errors.append(f"missing series {series}")
            continue
        if rows[series].get("median", 0) <= 0:
            errors.append(f"{series}.median is not positive")
        r = rows[series].get("reps")
        if reps is None:
            reps = r
        elif r != reps:
            errors.append(f"{series}.reps = {r}, other series have {reps}")
    for series in SINGLETONS:
        if series not in rows:
            errors.append(f"missing series {series}")

    if not errors:
        drop = rows["compact_drop_ratio"]["median"]
        if not 0.5 < drop <= 1.0:
            errors.append(f"compact_drop_ratio {drop!r} outside (0.5, 1]: "
                          "compaction stopped recognizing supersession")
        if rows["segments_per_run"]["median"] < 2:
            errors.append("segments_per_run < 2: rotation never triggered, "
                          "the bench no longer exercises the segment store")

    for e in errors:
        print(f"SCHEMA  {e}")
    if errors:
        print(f"journal_schema: FAIL ({len(errors)} violation(s))")
        return 1
    print(f"journal_schema: OK ({len(rows)} series, {reps} reps, "
          f"{int(rows['segments_per_run']['median'])} segments/run, "
          f"drop ratio {rows['compact_drop_ratio']['median']:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
