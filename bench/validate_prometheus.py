#!/usr/bin/env python3
"""Validates a Prometheus text export (--metrics_prom_out) against
bench/metrics_schema.json.

Stdlib only (CI runs it without installing anything):

    python3 bench/validate_prometheus.py metrics.prom \
        --schema bench/metrics_schema.json

The exporter (obs::MetricsRegistry::ExportPrometheus) mangles dotted
metric names to `fcae_` + [non-alphanumeric -> '_'] and emits counters
and gauges as single samples and histograms as summaries (quantile
samples plus _sum/_count). This checker parses the text format, maps
every family back to its schema instrument, and enforces:

  - every sample belongs to a family announced by a `# TYPE` line;
  - every family maps to exactly one schema instrument of the matching
    kind (counter -> counter, gauge -> gauge, histogram -> summary);
  - required instruments are present (a required glob entry needs at
    least one matching family) and nonzero counters are > 0;
  - summaries carry the expected quantiles plus _sum and _count.
"""

import argparse
import fnmatch
import json
import re
import sys

errors = []


def fail(msg):
    errors.append(msg)


def mangle(name):
    return "fcae_" + "".join(c if c.isalnum() else "_" for c in name)


def mangle_glob(name):
    # Like mangle(), but keeps '*' so an fnmatch pattern in the schema
    # ('health.card*.probes') still matches mangled family names.
    return "fcae_" + "".join(c if (c.isalnum() or c == "*") else "_"
                             for c in name)


def load_schema(schema):
    """Returns ({mangled: (name, prom_kind)}, glob_families,
    required, nonzero) where glob_families is [(mangled_glob, name,
    prom_kind)] for schema names containing '*' (per-card instrument
    families) and required/nonzero map a mangled name or glob to its
    schema name. Understands both the dict and the legacy list formats."""
    by_mangled = {}
    glob_families = []
    required = {}
    nonzero = {}
    kinds = (("counter", "counter"), ("gauge", "gauge"),
             ("histogram", "summary"))
    for kind, prom_kind in kinds:
        names = {}
        section = schema.get(kind + "s")
        if isinstance(section, dict):
            for name, info in section.items():
                names[name] = info if isinstance(info, dict) else {}
        for name in schema.get(f"required_{kind}s", []):
            names.setdefault(name, {})["required"] = True
        for name in schema.get(f"known_{kind}s", []):
            names.setdefault(name, {})
        if kind == "counter":
            for name in schema.get("nonzero_counters", []):
                names.setdefault(name, {})["nonzero"] = True
        for name, info in names.items():
            if "*" in name:
                m = mangle_glob(name)
                glob_families.append((m, name, prom_kind))
            else:
                m = mangle(name)
                if m in by_mangled:
                    fail(f"schema names '{by_mangled[m][0]}' and '{name}' "
                         f"both mangle to '{m}'")
                by_mangled[m] = (name, prom_kind)
            if info.get("required"):
                required[m] = name
            if info.get("nonzero"):
                nonzero[m] = name
    return by_mangled, glob_families, required, nonzero


def matching(pattern, samples):
    """Families a mangled schema name covers: itself, or every match of
    a mangled glob (a plain mangled name has no glob characters)."""
    return [f for f in samples if fnmatch.fnmatchcase(f, pattern)]


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
    by_mangled, glob_families, required, nonzero = load_schema(schema)
    types, samples = parse_export(text)

    for family in samples:
        if family not in types:
            fail(f"family '{family}' has samples but no # TYPE line")

    for family, ftype in types.items():
        known = by_mangled.get(family)
        if known is None:
            for pattern, name, prom_kind in glob_families:
                if fnmatch.fnmatchcase(family, pattern):
                    known = (name, prom_kind)
                    break
        if known is None:
            fail(f"family '{family}' does not map to any schema instrument")
            continue
        name, expected_type = known
        if ftype != expected_type:
            fail(f"family '{family}' ('{name}') is exported as {ftype}, "
                 f"schema expects {expected_type}")
        if family not in samples:
            fail(f"family '{family}' announced by # TYPE but has no samples")

    for family, name in sorted(required.items()):
        if not matching(family, samples):
            fail(f"missing required instrument '{name}' ('{family}')")
    for family, name in sorted(nonzero.items()):
        total = sum(v for f in matching(family, samples)
                    for (_n, _l, v) in samples[f])
        if total == 0:
            fail(f"counter '{name}' is zero; the workload did not "
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
