#!/usr/bin/env python3
"""Fails when README.md names a repo path that does not exist.

usage: readme_paths.py [REPO_ROOT]

A path is an inline code span (single backticks, outside fenced code
blocks) that starts with `crates/`, `tests/`, `examples/`, `tools/` or
`src/`. What follows a space or `::` (a test name, a command's
arguments) is not part of it. `examples/<name>` names an example, so it
also resolves as `examples/<name>.rs`.

Exit 0 when every such path exists; exit 1 after printing each one that
does not as `README.md:line: path`.
"""

import pathlib
import re
import sys

PREFIXES = ("crates/", "tests/", "examples/", "tools/", "src/")
SPAN = re.compile(r"`([^`\n]+)`")


def paths(readme):
    """Yields `(line number, path)` for every path the README names."""
    fenced = False
    for number, line in enumerate(readme.read_text().splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if fenced:
            continue
        for span in SPAN.findall(line):
            if span.startswith(PREFIXES):
                yield number, span.split()[0].split("::")[0]


def resolves(root, path):
    if (root / path).exists():
        return True
    return path.startswith("examples/") and (root / (path + ".rs")).is_file()


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    missing = [
        (number, path)
        for number, path in paths(root / "README.md")
        if not resolves(root, path)
    ]
    for number, path in missing:
        print(f"README.md:{number}: {path}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
