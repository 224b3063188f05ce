#!/usr/bin/env python3
"""fcae_check: project-invariant static analysis for the fcae tree.

Generic linters (clang-tidy, -Wthread-safety) cannot check the invariants
this engine's test harnesses rely on. This checker enforces them as named
rules over the first-party sources discovered from compile_commands.json:

  raw-io              All filesystem / clock / sleep access goes through
                      fcae::Env. A raw libc (or std::chrono / std::this_thread)
                      call anywhere but env_posix.cc / crash_env.cc escapes
                      the crash model (CrashInjectionEnv cannot see the
                      write) and the fake-clock tests (HookedEnv cannot
                      advance time), silently voiding what they prove.

  crash-point         Every durability edge (WritableFile::Sync, Env::SyncDir,
                      Env::RenameFile) in the install-protocol files must be
                      bracketed by an FCAE_CRASH_POINT within
                      CRASH_POINT_WINDOW lines, so the crash matrix can cut
                      power at that edge.

  guarded-const-cast  No field annotated GUARDED_BY may be reached through a
                      const_cast: casting away constness around a capability
                      annotation is exactly how code sneaks past
                      -Wthread-safety.

  unused-waiver       Every waiver comment must still suppress something;
                      stale waivers are errors so they cannot rot in place.

Waiver syntax (same line or the directly preceding comment line):

    // fcae-check: allow(<rule-name>): <reason>

The reason is mandatory.

Usage:
    python3 tools/analysis/fcae_check.py [--build-dir build]
    python3 tools/analysis/fcae_check.py --selftest   # fixture self-test

Exit status: 0 clean, 1 violations, 2 usage/environment error.
"""

import argparse
import json
import os
import re
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

# ---------------------------------------------------------------------------
# Rule configuration
# ---------------------------------------------------------------------------

RULES = ("raw-io", "crash-point", "guarded-const-cast", "unused-waiver")

# Files allowed to touch libc filesystem/clock/sleep primitives directly:
# the real Env and the crash-model Env that must mirror it.
RAW_IO_EXEMPT = {
    "src/util/env_posix.cc",
    "src/util/crash_env.cc",
}

# Banned free functions (libc filesystem, clock, and sleep). Matched as a
# whole identifier followed by `(`, not preceded by `.`, `->`, `::` scope
# of a project type, or an identifier character — so `file->Close()` or
# `set.erase(...)` never match, while `close(fd)` and `::close(fd)` do.
RAW_IO_BANNED_CALLS = {
    # filesystem
    "open", "openat", "creat", "fopen", "freopen", "fdopen", "tmpfile",
    "mkstemp", "mkostemp", "close", "fclose", "read", "write", "pread",
    "pwrite", "fread", "fwrite", "lseek", "fseek", "ftell", "rewind",
    "remove", "rename", "renameat", "unlink", "unlinkat", "mkdir",
    "mkdirat", "rmdir", "link", "symlink", "readlink", "realpath",
    "stat", "lstat", "fstat", "statvfs", "access", "faccessat",
    "truncate", "ftruncate", "opendir", "readdir", "closedir", "scandir",
    "fsync", "fdatasync", "syncfs", "flock", "fcntl", "chmod", "chown",
    "dup", "dup2", "getcwd",
    # clocks
    "time", "gettimeofday", "clock_gettime", "timespec_get", "localtime",
    "gmtime", "mktime", "ftime",
    # sleeps
    "sleep", "usleep", "nanosleep",
}

# Banned qualified patterns (substring match against comment-stripped code).
RAW_IO_BANNED_PATTERNS = (
    ("std::this_thread::sleep_for", "sleep outside Env"),
    ("std::this_thread::sleep_until", "sleep outside Env"),
    ("std::chrono::system_clock::now", "wall clock outside Env"),
    ("std::chrono::steady_clock::now", "wall clock outside Env"),
    ("std::chrono::high_resolution_clock::now", "wall clock outside Env"),
)

# Install-protocol files whose durability edges the crash matrix must be
# able to cut, and the maximum distance (in lines) from a durability call
# to its bracketing FCAE_CRASH_POINT.
CRASH_POINT_FILES = {
    "src/lsm/builder.cc",
    "src/lsm/db_impl.cc",
    "src/lsm/filename.cc",
    "src/lsm/version_set.cc",
}
CRASH_POINT_WINDOW = 15
DURABILITY_CALL_RE = re.compile(
    r"(?:->|\.)Sync\s*\(\s*\)|\bSyncDir\s*\(|\bRenameFile\s*\(")

WAIVER_RE = re.compile(r"fcae-check:\s*allow\(([a-z-]+)\)\s*:\s*(\S.*)")


# ---------------------------------------------------------------------------
# C++ comment/string-aware line model
# ---------------------------------------------------------------------------

class SourceFile:
    """Splits a C++ file into per-line (code, comment) halves.

    String and char literal *contents* are blanked out of the code half so
    rule patterns never match inside them.
    """

    def __init__(self, path, text):
        self.path = path
        self.raw_lines = text.split("\n")
        n = len(self.raw_lines)
        self.code = [""] * n
        self.comment = [""] * n
        self._scan(text)

    def _scan(self, text):
        code_parts = [[] for _ in self.raw_lines]
        comment_parts = [[] for _ in self.raw_lines]
        i, line = 0, 0
        length = len(text)
        state = "code"  # code | line_comment | block_comment | string | char
        while i < length:
            c = text[i]
            nxt = text[i + 1] if i + 1 < length else ""
            if c == "\n":
                if state == "line_comment":
                    state = "code"
                line += 1
                i += 1
                continue
            if state == "code":
                if c == "/" and nxt == "/":
                    state = "line_comment"
                    i += 2
                    continue
                if c == "/" and nxt == "*":
                    state = "block_comment"
                    i += 2
                    continue
                if c == '"':
                    state = "string"
                    code_parts[line].append('"')
                    i += 1
                    continue
                if c == "'":
                    state = "char"
                    code_parts[line].append("'")
                    i += 1
                    continue
                code_parts[line].append(c)
                i += 1
            elif state == "line_comment":
                comment_parts[line].append(c)
                i += 1
            elif state == "block_comment":
                if c == "*" and nxt == "/":
                    state = "code"
                    i += 2
                else:
                    comment_parts[line].append(c)
                    i += 1
            elif state == "string":
                if c == "\\":
                    i += 2
                elif c == '"':
                    state = "code"
                    code_parts[line].append('"')
                    i += 1
                else:
                    i += 1
            elif state == "char":
                if c == "\\":
                    i += 2
                elif c == "'":
                    state = "code"
                    code_parts[line].append("'")
                    i += 1
                else:
                    i += 1
        for idx in range(len(self.raw_lines)):
            self.code[idx] = "".join(code_parts[idx])
            self.comment[idx] = "".join(comment_parts[idx])


# ---------------------------------------------------------------------------
# Violations and waivers
# ---------------------------------------------------------------------------

class Violation:
    def __init__(self, rule, path, lineno, message):
        self.rule = rule
        self.path = path
        self.lineno = lineno
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.lineno}: [{self.rule}] {self.message}"


class WaiverSet:
    """Waivers per file: {lineno: {rule: used_flag}}. A waiver on line N
    covers violations on N and N+1 (comment directly above the code)."""

    def __init__(self, src):
        self.by_line = {}
        for idx, comment in enumerate(src.comment):
            m = WAIVER_RE.search(comment)
            if m:
                rule = m.group(1)
                self.by_line.setdefault(idx + 1, {})[rule] = False

    def covers(self, rule, lineno):
        for cand in (lineno, lineno - 1):
            rules = self.by_line.get(cand)
            if rules is not None and rule in rules:
                rules[rule] = True
                return True
        return False

    def unused(self):
        out = []
        for lineno, rules in sorted(self.by_line.items()):
            for rule, used in sorted(rules.items()):
                if not used:
                    out.append((lineno, rule))
        return out


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_CALL_RES = {
    name: re.compile(
        r"(?<![A-Za-z0-9_.>:])(?:::\s*)?\b" + name + r"\s*\(")
    for name in RAW_IO_BANNED_CALLS
}
# `(?<![...>:])` rejects `.name(`, `>name(` (from ->), `:name(` (from
# qualified project scopes like Env::RenameFile handled separately), and
# `xname(`; the optional leading `::` is then re-allowed explicitly.
_GLOBAL_NS_RES = {
    name: re.compile(r"::\s*" + name + r"\s*\(") for name in RAW_IO_BANNED_CALLS
}


def check_raw_io(relpath, src, waivers, violations):
    if relpath in RAW_IO_EXEMPT:
        return
    for idx, code in enumerate(src.code):
        lineno = idx + 1
        hits = []
        for name, cre in _CALL_RES.items():
            if name not in code:
                continue
            if cre.search(code) or _GLOBAL_NS_RES[name].search(code):
                hits.append(f"raw libc call '{name}()'")
        for pattern, what in RAW_IO_BANNED_PATTERNS:
            if pattern in code:
                hits.append(f"{what}: '{pattern}'")
        for msg in hits:
            if waivers.covers("raw-io", lineno):
                continue
            violations.append(Violation(
                "raw-io", relpath, lineno,
                f"{msg} — all I/O, clocks, and sleeps must go through "
                f"fcae::Env (crash model + fake-clock tests depend on it)"))


def check_crash_points(relpath, src, waivers, violations):
    if relpath not in CRASH_POINT_FILES:
        return
    point_lines = [idx + 1 for idx, code in enumerate(src.code)
                   if "FCAE_CRASH_POINT" in code]
    for idx, code in enumerate(src.code):
        if not DURABILITY_CALL_RE.search(code):
            continue
        lineno = idx + 1
        if any(abs(p - lineno) <= CRASH_POINT_WINDOW for p in point_lines):
            continue
        if waivers.covers("crash-point", lineno):
            continue
        violations.append(Violation(
            "crash-point", relpath, lineno,
            f"durability edge (Sync/SyncDir/RenameFile) without an "
            f"FCAE_CRASH_POINT within {CRASH_POINT_WINDOW} lines — the "
            f"crash matrix cannot cut power at this edge"))


def _collect_guarded_fields(sources):
    guarded = set()
    decl_re = re.compile(r"\b(" + _IDENT + r")\s+GUARDED_BY\s*\(")
    for src in sources.values():
        for code in src.code:
            for m in decl_re.finditer(code):
                guarded.add(m.group(1))
    guarded.discard("GUARDED_BY")
    return guarded


def check_guarded_const_cast(relpath, src, waivers, violations, guarded):
    if not guarded:
        return
    for idx, code in enumerate(src.code):
        if "const_cast" not in code:
            continue
        lineno = idx + 1
        # The cast argument may wrap onto following lines; take a small
        # window from the cast keyword onward.
        window = " ".join(src.code[idx:idx + 3])
        pos = window.find("const_cast")
        window = window[pos:pos + 240]
        for field in guarded:
            if re.search(r"\b" + re.escape(field) + r"\b", window):
                if waivers.covers("guarded-const-cast", lineno):
                    break
                violations.append(Violation(
                    "guarded-const-cast", relpath, lineno,
                    f"const_cast reaches GUARDED_BY field '{field}' — "
                    f"casting around a capability annotation defeats "
                    f"-Wthread-safety"))
                break


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def discover_sources(repo_root, compile_commands):
    """Returns {relpath: abspath} for first-party sources: the TUs listed
    in compile_commands.json that live under src/, plus every header under
    src/ (headers never appear in the database)."""
    files = {}
    if compile_commands:
        try:
            with open(compile_commands, encoding="utf-8") as f:
                entries = json.load(f)
        except (OSError, ValueError) as e:
            print(f"fcae_check: cannot read {compile_commands}: {e}",
                  file=sys.stderr)
            return None
        for entry in entries:
            path = os.path.normpath(
                os.path.join(entry.get("directory", ""), entry["file"]))
            rel = os.path.relpath(path, repo_root)
            if rel.startswith("src" + os.sep):
                files[rel.replace(os.sep, "/")] = path
    src_dir = os.path.join(repo_root, "src")
    for dirpath, _dirnames, filenames in os.walk(src_dir):
        for fn in filenames:
            if fn.endswith((".h", ".hpp")) or (not compile_commands and
                                               fn.endswith(".cc")):
                path = os.path.join(dirpath, fn)
                rel = os.path.relpath(path, repo_root).replace(os.sep, "/")
                files[rel] = path
    return files


def run_checks(repo_root, file_map):
    sources = {}
    for rel, path in sorted(file_map.items()):
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                sources[rel] = SourceFile(rel, f.read())
        except OSError as e:
            print(f"fcae_check: cannot read {path}: {e}", file=sys.stderr)
            return None

    waiver_sets = {rel: WaiverSet(src) for rel, src in sources.items()}
    violations = []
    guarded = _collect_guarded_fields(sources)

    for rel, src in sources.items():
        waivers = waiver_sets[rel]
        check_raw_io(rel, src, waivers, violations)
        check_crash_points(rel, src, waivers, violations)
        check_guarded_const_cast(rel, src, waivers, violations, guarded)

    for rel, waivers in sorted(waiver_sets.items()):
        for lineno, rule in waivers.unused():
            violations.append(Violation(
                "unused-waiver", rel, lineno,
                f"waiver for '{rule}' suppresses nothing — remove it"))

    violations.sort(key=lambda v: (v.path, v.lineno, v.rule))
    return violations


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Project-invariant static analysis for fcae.")
    parser.add_argument("--repo-root", default=REPO_ROOT)
    parser.add_argument("--build-dir", default=None,
                        help="build tree containing compile_commands.json "
                             "(default: <repo>/build if present)")
    parser.add_argument("--compile-commands", default=None,
                        help="explicit path to compile_commands.json")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--selftest", action="store_true",
                        help="run the seeded-fixture self-test and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0

    if args.selftest:
        from fixtures import selftest  # noqa: PLC0415  (lazy, test-only)
        return selftest.run(args.repo_root)

    repo_root = os.path.abspath(args.repo_root)
    cc = args.compile_commands
    if cc is None:
        build_dir = args.build_dir or os.path.join(repo_root, "build")
        cand = os.path.join(build_dir, "compile_commands.json")
        if os.path.exists(cand):
            cc = cand
        else:
            print(f"fcae_check: note: {cand} not found; falling back to a "
                  f"walk of src/ (configure with CMake to get an exact TU "
                  f"list)", file=sys.stderr)

    file_map = discover_sources(repo_root, cc)
    if file_map is None:
        return 2
    if not file_map:
        print("fcae_check: no sources found under src/", file=sys.stderr)
        return 2

    violations = run_checks(repo_root, file_map)
    if violations is None:
        return 2
    for v in violations:
        print(v)
    if violations:
        print(f"fcae_check: {len(violations)} violation(s) in "
              f"{len({v.path for v in violations})} file(s)", file=sys.stderr)
        return 1
    print(f"fcae_check: OK ({len(file_map)} files checked)")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
