#!/usr/bin/env python3
"""Self-test for the analyzer: run every fixture and require an exact
match between findings and `EXPECT[CHECK]` markers.

Marker grammar (inside any comment in a fixture):
  EXPECT[CHECK-ID]        a CHECK-ID finding is required on this line
  EXPECT[CHECK-ID]@+N     ... on the line N below the marker
  ANALYZE-HOT-ROOT: Q     pass Q to analyze.py as --hot-root

`*_bad.*` fixtures must produce exactly their marked findings (exit 1);
`*_ok.*` fixtures must be clean (exit 0). The test therefore pins both
directions: every seeded violation is detected at the right file:line,
and the checks stay quiet on conforming code, so a regression in the
frontend (cpplex.py + ir.py) shows up here rather than as silent
acceptance.

Exit status: 0 all fixtures pass, 1 otherwise.
"""

import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"

EXPECT_RE = re.compile(r"EXPECT\[([A-Z-]+)\](?:@\+(\d+))?")
HOT_ROOT_RE = re.compile(r"ANALYZE-HOT-ROOT:\s*(\S+)")
FINDING_RE = re.compile(r"^([A-Z-]+)\s+(\S+?):(\d+)\s")


def read_directives(path):
    expected, hot_roots = [], []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        for m in EXPECT_RE.finditer(line):
            expected.append((m.group(1), lineno + int(m.group(2) or 0)))
        m = HOT_ROOT_RE.search(line)
        if m:
            hot_roots.append(m.group(1))
    return sorted(expected), hot_roots


def parse_findings(stdout, fixture_name):
    got = []
    for line in stdout.splitlines():
        m = FINDING_RE.match(line)
        if m and Path(m.group(2)).name == fixture_name:
            got.append((m.group(1), int(m.group(3))))
    return sorted(got)


def run_fixture(path):
    expected, hot_roots = read_directives(path)
    cmd = [sys.executable, str(HERE / "analyze.py"), str(path)]
    for root in hot_roots:
        cmd += ["--hot-root", root]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    got = parse_findings(proc.stdout, path.name)

    errors = []
    is_bad = "_bad" in path.stem
    want_exit = 1 if is_bad else 0
    if proc.returncode != want_exit:
        errors.append(f"exit {proc.returncode}, expected {want_exit}")
    if proc.returncode >= 2 or "Traceback" in proc.stderr:
        errors.append(f"analyzer error: {proc.stderr.strip()}")
    for miss in [e for e in expected if e not in got]:
        errors.append(f"missed seeded violation {miss[0]} at line {miss[1]}")
    for extra in [g for g in got if g not in expected]:
        errors.append(f"unexpected finding {extra[0]} at line {extra[1]}")
    return errors, proc


def main():
    fixtures = sorted(FIXTURES.glob("*.h"))
    if not fixtures:
        print(f"no fixtures under {FIXTURES}", file=sys.stderr)
        return 1
    failed = 0
    for path in fixtures:
        errors, proc = run_fixture(path)
        status = "PASS" if not errors else "FAIL"
        print(f"[{status}] {path.name}")
        if errors:
            failed += 1
            for e in errors:
                print(f"    {e}")
            if proc.stdout.strip():
                print("    --- analyzer output ---")
                for line in proc.stdout.splitlines():
                    print(f"    {line}")
    print(f"fixtures: {len(fixtures) - failed}/{len(fixtures)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
