#!/usr/bin/env python3
"""Validates a fcae.metrics JSON artifact against bench/metrics_schema.json.

Stdlib only (CI runs it without installing anything):

    python3 bench/validate_metrics.py metrics.json \
        --schema bench/metrics_schema.json [--trace trace.json]

Checks the structural contract (counters/gauges/histograms objects with
numeric values, every histogram carrying the schema's histogram_fields),
that the schema's nonzero instruments moved (a counter > 0, a histogram
with samples), and — when --trace is given — that the trace export is
loadable chrome://tracing JSON with well-formed events. The instrument
names need no check here: the registry exports exactly the list in
src/obs/instruments.def.
"""

import argparse
import json
import numbers
import sys

errors = []


def fail(msg):
    errors.append(msg)


def is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require_object(root, section):
    obj = root.get(section)
    if not isinstance(obj, dict):
        fail(f"top-level '{section}' missing or not an object")
        return {}
    return obj


def validate_metrics(metrics, schema):
    counters = require_object(metrics, "counters")
    gauges = require_object(metrics, "gauges")
    histograms = require_object(metrics, "histograms")

    for section, obj in (("counter", counters), ("gauge", gauges)):
        for name, value in obj.items():
            if not is_number(value):
                fail(f"{section} '{name}' has non-numeric value {value!r}")
    for name, value in counters.items():
        if is_number(value) and value < 0:
            fail(f"counter '{name}' is negative: {value}")
    fields = schema.get("histogram_fields", [])
    for name, hist in histograms.items():
        if not isinstance(hist, dict):
            fail(f"histogram '{name}' is not an object")
            continue
        for field in fields:
            if not is_number(hist.get(field)):
                fail(f"histogram '{name}' field '{field}' missing/non-numeric")

    for name in schema.get("nonzero", []):
        if name in counters:
            if counters[name] == 0:
                fail(f"counter '{name}' is zero; the workload did not "
                     f"exercise it")
        elif name in histograms:
            if histograms[name].get("count") == 0:
                fail(f"histogram '{name}' recorded no samples")
        else:
            fail(f"nonzero instrument '{name}' is not exported")


def validate_trace(trace):
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("trace: 'traceEvents' missing or empty")
        return
    names = set()
    for i, event in enumerate(events):
        for key in ("name", "cat", "ph", "ts", "pid", "tid"):
            if key not in event:
                fail(f"trace event #{i} missing '{key}'")
                break
        else:
            if event["ph"] not in ("X", "i"):
                fail(f"trace event #{i} has unknown phase {event['ph']!r}")
            if event["ph"] == "X" and "dur" not in event:
                fail(f"trace span #{i} ('{event['name']}') missing 'dur'")
            names.add(event["name"])
    for required in ("flush", "compaction"):
        if required not in names:
            fail(f"trace: no '{required}' span recorded")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("metrics", help="fcae.metrics JSON file")
    parser.add_argument("--schema", required=True,
                        help="metrics_schema.json path")
    parser.add_argument("--trace", help="optional fcae.trace JSON file")
    args = parser.parse_args()

    with open(args.schema) as f:
        schema = json.load(f)
    with open(args.metrics) as f:
        metrics = json.load(f)
    validate_metrics(metrics, schema)

    if args.trace:
        with open(args.trace) as f:
            trace = json.load(f)
        validate_trace(trace)

    if errors:
        for e in errors:
            print(f"FAIL: {e}", file=sys.stderr)
        sys.exit(1)
    counted = sum(len(metrics.get(s, {}))
                  for s in ("counters", "gauges", "histograms"))
    print(f"OK: {args.metrics} valid ({counted} instruments)")


if __name__ == "__main__":
    main()
