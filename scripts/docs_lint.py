#!/usr/bin/env python3
"""Docs lint: keep the prose as trustworthy as the artifacts.

Three checks, all cheap enough to run on every commit:

1. Markdown link check — every relative link in README.md,
   EXPERIMENTS.md and docs/*.md must resolve to an existing file or
   directory inside the repo (anchors are stripped; external
   http(s)/mailto links are skipped).
2. Architecture coverage — every subsystem directory under src/ must
   be mentioned in docs/ARCHITECTURE.md, so the subsystem map cannot
   silently rot as the tree grows.
3. Code-to-docs references — every *.md filename mentioned in src/,
   tests/, bench/ or examples/ must resolve, relative to the repo root
   or to the mentioning file's directory.

Exit 0 with a one-line summary when clean; exit 1 listing every
violation otherwise. No dependencies beyond the standard library.

Usage: python3 scripts/docs_lint.py [repo_root]
"""

from __future__ import annotations

import pathlib
import re
import sys

# [text](target) — excluding images' leading "!" is unnecessary: image
# targets must resolve too. Targets with a scheme (http:, https:,
# mailto:) are external and skipped.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SCHEME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")

DOC_FILES = ["README.md", "EXPERIMENTS.md"]
DOC_GLOBS = ["docs/*.md"]

# A markdown filename as code comments cite it: `EXPERIMENTS.md`,
# `docs/NUMERICS.md`.
MD_MENTION_RE = re.compile(r"[\w./-]*\w\.md\b")
CODE_DIRS = ["src", "tests", "bench", "examples"]


def lint_links(root: pathlib.Path) -> list[str]:
    errors: list[str] = []
    files = [root / name for name in DOC_FILES]
    for pattern in DOC_GLOBS:
        files.extend(sorted(root.glob(pattern)))
    for doc in files:
        if not doc.exists():
            errors.append(f"{doc.relative_to(root)}: file listed for lint is missing")
            continue
        in_fence = False
        for lineno, line in enumerate(doc.read_text(encoding="utf-8").splitlines(), 1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for match in LINK_RE.finditer(line):
                target = match.group(1)
                if SCHEME_RE.match(target) or target.startswith("#"):
                    continue
                path_part = target.split("#", 1)[0]
                if not path_part:
                    continue
                resolved = (doc.parent / path_part).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{doc.relative_to(root)}:{lineno}: broken link"
                        f" '{target}' -> {path_part}"
                    )
    return errors


def lint_architecture_coverage(root: pathlib.Path) -> list[str]:
    arch = root / "docs" / "ARCHITECTURE.md"
    if not arch.exists():
        return ["docs/ARCHITECTURE.md is missing"]
    text = arch.read_text(encoding="utf-8")
    errors: list[str] = []
    for subsystem in sorted(p.name for p in (root / "src").iterdir() if p.is_dir()):
        # A subsystem counts as covered when its directory name appears
        # with the trailing slash the map and bullets use (`numeric/`).
        if f"{subsystem}/" not in text:
            errors.append(
                f"docs/ARCHITECTURE.md: no entry for src/{subsystem}/ —"
                " add it to the subsystem map"
            )
    return errors


def lint_code_mentions(root: pathlib.Path) -> list[str]:
    errors: list[str] = []
    for directory in CODE_DIRS:
        for path in sorted((root / directory).rglob("*")):
            if not path.is_file():
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for lineno, line in enumerate(text.splitlines(), 1):
                for match in MD_MENTION_RE.finditer(line):
                    name = match.group(0)
                    if not ((root / name).exists() or (path.parent / name).exists()):
                        errors.append(
                            f"{path.relative_to(root)}:{lineno}: mentions '{name}',"
                            " which does not exist"
                        )
    return errors


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    errors = (
        lint_links(root) + lint_architecture_coverage(root) + lint_code_mentions(root)
    )
    if errors:
        for error in errors:
            print(f"docs-lint: {error}", file=sys.stderr)
        print(f"docs-lint: FAILED ({len(errors)} problem(s))", file=sys.stderr)
        return 1
    print(
        "docs-lint: ok (links resolve, every src/ subsystem documented,"
        " every .md mentioned in code exists)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
