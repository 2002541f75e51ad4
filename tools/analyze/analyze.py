#!/usr/bin/env python3
"""Whole-program static analyzer: GUARDED-BY coverage, blocking-under-lock,
hot-path allocation, and AST-grade MEM-ORDER.

Usage:
  analyze.py [--root DIR] [--check NAME ...] [--explain] [files ...]

With no file arguments, analyzes every .h/.cc under <root>/src with the
repo allowlists of config.py. Explicit file arguments switch to fixture
mode: no repo allowlists, roots overridable with --hot-root.

Lock order is not checked here: the LockRank table in
src/common/lock_rank.h is enforced at runtime by the deadlock detector
(`deadlock` preset), which sees every chain the test suite schedules.

The source is read by a self-contained token/structure frontend
(cpplex.py + ir.py) that needs nothing beyond Python.

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import ir      # noqa: E402

CHECKS = {
    "guarded-by": checks.check_guarded_by,
    "blocking": checks.check_blocking,
    "hot-alloc": checks.check_hot_alloc,
    "mem-order": checks.check_mem_order,
}


def find_repo_root(start):
    p = Path(start).resolve()
    while p != p.parent:
        if (p / "CMakeLists.txt").exists() and (p / "src").is_dir():
            return p
        p = p.parent
    return Path(start).resolve()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("files", nargs="*")
    ap.add_argument("--root", default=None)
    ap.add_argument("--check", action="append", choices=sorted(CHECKS),
                    help="run only the named check(s)")
    ap.add_argument("--hot-root", action="append", default=None,
                    help="override hot-path roots (fixture mode)")
    ap.add_argument("--explain", action="store_true",
                    help="print every allowlist entry and its reason")
    args = ap.parse_args(argv)

    root = find_repo_root(args.root or Path(__file__).parent)

    if args.explain:
        import config
        for table in ("BLOCKING_ALLOWLIST", "HOT_PRUNE",
                      "HOT_FILE_ALLOWLIST"):
            print(f"[{table}]")
            for k, v in getattr(config, table).items():
                print(f"  {k}: {v}")
        return 0

    fixture_mode = bool(args.files)
    if fixture_mode:
        files = [Path(f).resolve() for f in args.files]
    else:
        files = sorted((root / "src").rglob("*.h")) + \
            sorted((root / "src").rglob("*.cc"))
    missing = [f for f in files if not Path(f).exists()]
    if missing:
        print(f"analyze: missing inputs: {missing}", file=sys.stderr)
        return 2

    program = ir.load_program(files)

    def rel(p):
        try:
            return str(Path(p).resolve().relative_to(root))
        except ValueError:
            return str(Path(p).name)

    line_cache = {}

    def read_lines(p):
        if p not in line_cache:
            line_cache[p] = Path(p).read_text(
                errors="replace").splitlines()
        return line_cache[p]

    opts = {
        "rel": rel,
        "read_lines": read_lines,
        "allowlists": not fixture_mode,
    }
    if args.hot_root:
        opts["hot_roots"] = args.hot_root
    elif fixture_mode:
        opts["hot_roots"] = []

    selected = args.check or sorted(CHECKS)
    all_findings = []
    for name in selected:
        all_findings.extend(CHECKS[name](program, opts))

    all_findings.sort(key=lambda f: (f.check, rel(f.file), f.line))
    for f in all_findings:
        print(f.render(rel))
    print(f"analyze: {len(files)} files, {len(all_findings)} finding(s)",
          file=sys.stderr)
    return 1 if all_findings else 0


if __name__ == "__main__":
    sys.exit(main())
