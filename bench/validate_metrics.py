#!/usr/bin/env python3
"""Validates a fcae.metrics JSON artifact against bench/metrics_schema.json.

Stdlib only (CI runs it without installing anything):

    python3 bench/validate_metrics.py metrics.json \
        --schema bench/metrics_schema.json [--trace trace.json]

Checks the structural contract (counters/gauges/histograms objects with
numeric values), that every exported instrument is known to the schema
with the matching kind, the schema's required/nonzero flags, and — when
--trace is given — that the trace export is loadable chrome://tracing
JSON with well-formed events. A required glob entry
('health.card*.quarantined') needs at least one matching instrument.

Understands both schema formats: the current dict sections
(counters/gauges/histograms mapping name -> {description, required,
nonzero}) and the legacy required_*/known_*/nonzero_counters lists.
"""

import argparse
import fnmatch
import json
import numbers
import sys

errors = []


def fail(msg):
    errors.append(msg)


def load_schema_section(schema, kind):
    """Returns (known, required, nonzero) name sets for one instrument
    kind ('counter' | 'gauge' | 'histogram')."""
    known, required, nonzero = set(), set(), set()
    section = schema.get(kind + "s")
    if isinstance(section, dict):
        for name, info in section.items():
            known.add(name)
            if isinstance(info, dict):
                if info.get("required"):
                    required.add(name)
                if info.get("nonzero"):
                    nonzero.add(name)
    for name in schema.get(f"required_{kind}s", []):
        known.add(name)
        required.add(name)
    known.update(schema.get(f"known_{kind}s", []))
    if kind == "counter":
        nonzero.update(schema.get("nonzero_counters", []))
    return known, required, nonzero


def matching(name, exported):
    """Exported names a schema entry covers: the name itself, or every
    match when the entry is an fnmatch glob ('.' is no glob character,
    so a plain dotted name matches only itself)."""
    return [n for n in exported if fnmatch.fnmatchcase(n, name)]


def require_numeric_object(root, section):
    obj = root.get(section)
    if not isinstance(obj, dict):
        fail(f"top-level '{section}' missing or not an object")
        return {}
    for name, value in obj.items():
        if section == "histograms":
            if not isinstance(value, dict):
                fail(f"histogram '{name}' is not an object")
        elif not isinstance(value, numbers.Real) or isinstance(value, bool):
            fail(f"{section[:-1]} '{name}' has non-numeric value {value!r}")
    return obj


def validate_metrics(metrics, schema):
    counters = require_numeric_object(metrics, "counters")
    gauges = require_numeric_object(metrics, "gauges")
    histograms = require_numeric_object(metrics, "histograms")

    known_c, required_c, nonzero_c = load_schema_section(schema, "counter")
    known_g, required_g, _ = load_schema_section(schema, "gauge")
    known_h, required_h, _ = load_schema_section(schema, "histogram")

    # Every exported instrument must be a schema-known name of the same
    # kind: an unknown name here means code and schema drifted (or a
    # metric was renamed without updating the contract). Schema names
    # may be fnmatch globs ('health.card*.probes') covering families of
    # runtime-parameterized instruments (per offload card).
    for exported, known, kind in ((counters, known_c, "counter"),
                                  (gauges, known_g, "gauge"),
                                  (histograms, known_h, "histogram")):
        globs = [g for g in known if "*" in g or "?" in g or "[" in g]
        for name in exported:
            if name in known:
                continue
            if any(fnmatch.fnmatchcase(name, g) for g in globs):
                continue
            fail(f"exported {kind} '{name}' is not in the schema — "
                 f"add it to bench/metrics_schema.json")

    for name in sorted(required_c):
        found = matching(name, counters)
        if not found:
            fail(f"missing required counter '{name}'")
        for n in found:
            if counters[n] < 0:
                fail(f"counter '{n}' is negative: {counters[n]}")
    for name in sorted(nonzero_c):
        if counters.get(name, 0) == 0:
            fail(f"counter '{name}' is zero; the workload did not exercise it")
    for name in sorted(required_g):
        if not matching(name, gauges):
            fail(f"missing required gauge '{name}'")

    fields = schema.get("histogram_fields", [])
    for name in sorted(required_h):
        found = matching(name, histograms)
        if not found:
            fail(f"missing required histogram '{name}'")
        for n in found:
            hist = histograms[n]
            for field in fields:
                value = hist.get(field)
                if (not isinstance(value, numbers.Real)
                        or isinstance(value, bool)):
                    fail(f"histogram '{n}' field '{field}' "
                         f"missing/non-numeric")
            if (isinstance(hist.get("count"), numbers.Real)
                    and hist["count"] == 0):
                fail(f"histogram '{n}' recorded no samples")


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
