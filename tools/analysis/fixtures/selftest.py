"""Fixture self-test for fcae_check: proves every rule fires on its
seeded violation and stays quiet when waived or clean.

Each fixture directory is a miniature repo (a src/ tree) run through
the same discover_sources + run_checks pipeline as the real tree. Run
via:

    python3 tools/analysis/fcae_check.py --selftest
"""

import collections
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import fcae_check  # noqa: E402

FIXTURES_DIR = os.path.dirname(os.path.abspath(__file__))

# fixture directory -> exact expected {rule: violation count}. A fixture
# whose waivers stop working shows up here as an unexpected extra count
# (or an unused-waiver), so the waiver machinery is covered too.
CASES = [
    ("clean", {}),
    ("raw_io", {"raw-io": 3}),
    ("crash_point", {"crash-point": 1}),
    ("guarded_const_cast", {"guarded-const-cast": 1}),
    ("unused_waiver", {"unused-waiver": 1}),
]


def run(_repo_root=None):
    failures = 0
    for name, expected in CASES:
        root = os.path.join(FIXTURES_DIR, name)
        file_map = fcae_check.discover_sources(root, None)
        if not file_map:
            print(f"selftest FAIL [{name}]: no sources found under {root}")
            failures += 1
            continue
        violations = fcae_check.run_checks(root, file_map)
        if violations is None:
            print(f"selftest FAIL [{name}]: checker error")
            failures += 1
            continue
        got = dict(collections.Counter(v.rule for v in violations))
        if got != expected:
            failures += 1
            print(f"selftest FAIL [{name}]: expected {expected}, got {got}")
            for v in violations:
                print(f"    {v}")
        else:
            print(f"selftest ok   [{name}]: {expected if expected else 'clean'}")
    if failures:
        print(f"selftest: {failures} of {len(CASES)} case(s) FAILED",
              file=sys.stderr)
        return 1
    print(f"selftest: all {len(CASES)} cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(run())
