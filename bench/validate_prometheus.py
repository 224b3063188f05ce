#!/usr/bin/env python3
"""Validates a Prometheus text export (--metrics_prom_out) against
bench/metrics_schema.json.

Stdlib only (CI runs it without installing anything):

    python3 bench/validate_prometheus.py metrics.prom \
        --schema bench/metrics_schema.json

The exporter (obs::MetricsRegistry::ExportPrometheus) mangles dotted
metric names to `fcae_` + [non-alphanumeric -> '_'] and emits counters
and gauges as single samples and histograms as summaries (quantile
samples plus _sum/_count). This checker parses the text format and
enforces:

  - every sample belongs to a family announced by a `# TYPE` line, and
    every family is a counter, gauge or summary with samples;
  - the schema's nonzero instruments are present and moved (a counter
    > 0, a summary with _count > 0);
  - summaries carry the expected quantiles plus _sum and _count.

That each instrument is exported once, under a name no other mangles
to, is pinned by obs_test against src/obs/instruments.def.
"""

import argparse
import json
import re
import sys

errors = []


def fail(msg):
    errors.append(msg)


def mangle(name):
    return "fcae_" + "".join(c if c.isalnum() else "_" for c in name)


SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(-?[0-9.eE+-]+|NaN)$")
TYPE_RE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (\w+)$")


def parse_export(text):
    """Returns ({family: type}, {family: [(labels, value)]}). Samples of
    a summary's _sum/_count series are folded into their family."""
    types = {}
    samples = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            m = TYPE_RE.match(line)
            if m:
                types[m.group(1)] = m.group(2)
            elif not line.startswith(("# HELP", "# EOF")):
                fail(f"line {lineno}: unrecognised comment {line!r}")
            continue
        m = SAMPLE_RE.match(line)
        if m is None:
            fail(f"line {lineno}: unparsable sample {line!r}")
            continue
        name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        try:
            value = float(value)
        except ValueError:
            fail(f"line {lineno}: non-numeric value in {line!r}")
            continue
        family = name
        for suffix in ("_sum", "_count"):
            base = name[:-len(suffix)] if name.endswith(suffix) else None
            if base is not None and types.get(base) == "summary":
                family = base
                break
        samples.setdefault(family, []).append((name, labels, value))
    return types, samples


def validate(text, schema):
    types, samples = parse_export(text)

    for family in samples:
        if family not in types:
            fail(f"family '{family}' has samples but no # TYPE line")
    for family, ftype in types.items():
        if ftype not in ("counter", "gauge", "summary"):
            fail(f"family '{family}' has unexpected type {ftype}")
        if family not in samples:
            fail(f"family '{family}' announced by # TYPE but has no samples")

    for name in schema.get("nonzero", []):
        family = mangle(name)
        if family not in samples:
            fail(f"nonzero instrument '{name}' ('{family}') is not exported")
            continue
        summary = types.get(family) == "summary"
        series = family + "_count" if summary else family
        total = sum(v for (n, _l, v) in samples[family] if n == series)
        if total == 0:
            fail(f"instrument '{name}' is zero; the workload did not "
                 f"exercise it")

    for family, ftype in types.items():
        if ftype != "summary" or family not in samples:
            continue
        series = {name for (name, _l, _v) in samples[family]}
        quantiles = {labels for (name, labels, _v) in samples[family]
                     if name == family}
        for want in ('{quantile="0.5"}', '{quantile="0.9"}',
                     '{quantile="0.99"}'):
            if want not in quantiles:
                fail(f"summary '{family}' missing {want} sample")
        for suffix in ("_sum", "_count"):
            if family + suffix not in series:
                fail(f"summary '{family}' missing {family}{suffix}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("export", help="Prometheus text file")
    parser.add_argument("--schema", required=True,
                        help="metrics_schema.json path")
    args = parser.parse_args()

    with open(args.schema) as f:
        schema = json.load(f)
    with open(args.export) as f:
        text = f.read()
    validate(text, schema)

    if errors:
        for e in errors:
            print(f"FAIL: {e}", file=sys.stderr)
        sys.exit(1)
    _types, samples = parse_export(text)
    print(f"OK: {args.export} valid ({len(samples)} families)")


if __name__ == "__main__":
    main()
