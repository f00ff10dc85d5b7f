#!/usr/bin/env python3
"""Code-line counts of the source tree, the size figures ROADMAP.md cites.

A code line is a non-blank line that is not comment-only (its first
non-blank characters are not "//"). With no arguments the script prints
one row per layer (each directory under src/) and the src/ total; with
paths (files or directories, relative to the repo root, or absolute
paths anywhere) it prints one row per path, named as given, and their
total instead.

Usage:
    python3 scripts/code_lines.py
    python3 scripts/code_lines.py src/support/telemetry.hpp src/support/trace.cpp

Prints only; the exit code is 0 unless a named path does not exist.
No dependencies beyond the standard library.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}


def file_code_lines(path: pathlib.Path) -> int:
    count = 0
    for line in path.read_text(encoding="utf-8", errors="replace").splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            count += 1
    return count


def code_lines(path: pathlib.Path) -> int:
    if path.is_file():
        return file_code_lines(path)
    return sum(file_code_lines(p) for p in sorted(path.rglob("*"))
               if p.is_file() and p.suffix in SUFFIXES)


def main(argv: list[str]) -> int:
    if argv:
        # Named paths print as given: an absolute path outside the repo
        # (say, a parent checkout) has no repo-relative name.
        named = [(arg, ROOT / arg) for arg in argv]
        missing = [str(p) for _, p in named if not p.exists()]
        if missing:
            print("no such path: " + ", ".join(missing), file=sys.stderr)
            return 1
        total_label = "total"
    else:
        named = [(str(p.relative_to(ROOT)), p)
                 for p in sorted((ROOT / "src").iterdir()) if p.is_dir()]
        total_label = "src/"
    rows = [(name, code_lines(p)) for name, p in named]
    width = max(len(total_label), *(len(name) for name, _ in rows))
    for name, count in rows:
        print(f"{name:<{width}}  {count:>6,}")
    print(f"{total_label:<{width}}  {sum(count for _, count in rows):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
