#!/usr/bin/env python3
"""Fails when the library crates' non-test code grows past a limit.

usage: size_ratchet.py [REPO_ROOT] [--files]

Counts the lines of every `.rs` file under
`crates/{core,sim,spec,workload}/src` above the file's top-level test
module: the `#[cfg(test)]` line just before a `mod tests` (or `pub(crate)
mod tests`) at the start of a line, or the whole file when it has none. `engine/conformance.rs`
(a test suite of its own) and `testutil.rs` (test helpers) are left
out. This is how ROADMAP.md counts non-test lines.

Exit 0 when the total is at or under LIMIT; exit 1 after printing the
total and the limit. `--files` also prints each file's count. Lower
LIMIT as the code shrinks; raising it is a decision to write down.
"""

import pathlib
import sys

LIMIT = 22_118
LIBRARY_SRC = ("crates/core/src", "crates/sim/src", "crates/spec/src", "crates/workload/src")
LEFT_OUT = ("crates/core/src/engine/conformance.rs", "crates/core/src/testutil.rs")


def non_test_lines(path):
    """Lines above the top-level test module (all of them without one)."""
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[:-1]):
        module = lines[i + 1].removeprefix("pub(crate) ")
        if line.startswith("#[cfg(test)]") and module.startswith("mod tests"):
            return i
    return len(lines)


def counts(root):
    for src in LIBRARY_SRC:
        for path in sorted((root / src).rglob("*.rs")):
            rel = path.relative_to(root).as_posix()
            if rel not in LEFT_OUT:
                yield rel, non_test_lines(path)


def main(argv):
    args = [a for a in argv[1:] if a != "--files"]
    root = pathlib.Path(args[0] if args else ".")
    total = 0
    for rel, n in counts(root):
        total += n
        if "--files" in argv:
            print(f"{n:6} {rel}")
    print(f"non-test library lines: {total}, limit {LIMIT}")
    return 0 if total <= LIMIT else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
