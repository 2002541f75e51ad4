#!/usr/bin/env python3
"""Whole-program static analyzer: lock graph, blocking-under-lock,
hot-path allocation, and AST-grade MEM-ORDER.

Usage:
  analyze.py [--root DIR] [--check NAME ...] [--json OUT] [files ...]

With no file arguments, analyzes every .h/.cc under <root>/src plus the
README rank table and tools/analyze/expected_lock_edges.txt lockstep.
Explicit file arguments switch to fixture mode: no repo allowlists, no
README/expected-edge cross-checks, roots overridable with --hot-root.

The source is read by a self-contained token/structure frontend
(cpplex.py + ir.py) that needs nothing beyond Python.

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

import argparse
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import ir      # noqa: E402

CHECKS = {
    "lock-graph": checks.check_lock_graph,
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


def parse_readme_ranks(readme_path):
    """{'kName': value} from the README rank table."""
    out = {}
    if not readme_path.exists():
        return None
    row = re.compile(r"^\|\s*`(k\w+)`\s*\|\s*(\d+)\s*\|")
    for line in readme_path.read_text().splitlines():
        m = row.match(line.strip())
        if m:
            out[m.group(1)] = int(m.group(2))
    return out or None


def parse_expected_edges(path):
    out = set()
    if not path.exists():
        return None
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"(k\w+)\s*->\s*(k\w+)$", line)
        if m:
            out.add((m.group(1), m.group(2)))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("files", nargs="*")
    ap.add_argument("--root", default=None)
    ap.add_argument("--check", action="append", choices=sorted(CHECKS),
                    help="run only the named check(s)")
    ap.add_argument("--json", default=None,
                    help="write edges/stats artifact to this path")
    ap.add_argument("--hot-root", action="append", default=None,
                    help="override hot-path roots (fixture mode)")
    ap.add_argument("--explain", action="store_true",
                    help="print every allowlist entry and its reason")
    ap.add_argument("--list-edges", action="store_true",
                    help="print the discovered lock edges and exit")
    args = ap.parse_args(argv)

    root = find_repo_root(args.root or Path(__file__).parent)

    if args.explain:
        import config
        for table in ("UNACQUIRED_RANK_ALLOWLIST", "BLOCKING_ALLOWLIST",
                      "HOT_PRUNE", "HOT_FILE_ALLOWLIST"):
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
        "unused_ranks": not fixture_mode,
        "rank_file": str(root / "src/common/lock_rank.h"),
        "readme_path": str(root / "README.md"),
    }
    if not fixture_mode:
        opts["readme_ranks"] = parse_readme_ranks(root / "README.md")
        edges_path = root / "tools/analyze/expected_lock_edges.txt"
        opts["expected_edges"] = parse_expected_edges(edges_path)
        opts["edges_path"] = str(edges_path)
    else:
        opts["readme_ranks"] = None
        opts["expected_edges"] = None
    if args.hot_root:
        opts["hot_roots"] = args.hot_root
    elif fixture_mode:
        opts["hot_roots"] = []

    selected = args.check or sorted(CHECKS)
    all_findings = []
    all_stats = {"files": len(files)}
    for name in selected:
        findings, stats = CHECKS[name](program, opts)
        all_findings.extend(findings)
        if stats:
            all_stats[name] = stats

    if args.list_edges:
        for edge in all_stats.get("lock-graph", {}).get("edges", []):
            print(edge)
        return 0

    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(all_stats, indent=2) + "\n")

    all_findings.sort(key=lambda f: (f.check, rel(f.file), f.line))
    for f in all_findings:
        print(f.render(rel))
    n = all_stats.get("lock-graph", {})
    print(f"analyze: {len(files)} files, "
          f"{len(all_findings)} finding(s)"
          + (f", {len(n.get('edges', []))} lock edge(s)" if n else ""),
          file=sys.stderr)
    return 1 if all_findings else 0


if __name__ == "__main__":
    sys.exit(main())
