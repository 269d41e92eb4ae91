#!/usr/bin/env python3
"""Names every public item of the library crates that nothing names.

usage: uncalled.py [REPO_ROOT]

An item is a `pub` or `pub(crate)` `fn`, `struct`, `enum`, `trait`,
`const`, `static`, `type` or `mod` defined under
`crates/{core,sim,spec,workload}/src`. It counts as named when its name
appears as a word in any `.rs` file under `crates/` (the benchmark's
`ledger` included), `src/`, `tests/` or `examples/`, outside the lines
that define an item of that name, `use` statements and `//` comments
(doc comments included); a `mod`, reached only through paths, is also
named by a `use`. Tests count as callers: an item whose only caller is
its own unit test is found by reading, not by this script.

Exit 0 when every item is named somewhere; exit 1 after printing each
unnamed one as `path:line: kind name`, sorted by name.
"""

import pathlib
import re
import sys

LIBRARY_SRC = ("crates/core/src", "crates/sim/src", "crates/spec/src", "crates/workload/src")
SEARCHED = ("crates", "src", "tests", "examples")
DEFINITION = re.compile(
    r"^\s*pub(?:\(crate\))?\s+"
    r"(?:(?:const|async|unsafe|extern\s+\"[^\"]*\")\s+)*"
    r"(fn|struct|enum|trait|const|static|type|mod)\s+"
    r"([A-Za-z_][A-Za-z0-9_]*)"
)
USE = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?use\s")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def rust_files(root, dirs):
    for d in dirs:
        for path in sorted((root / d).rglob("*.rs")):
            if "target" not in path.relative_to(root).parts:
                yield path


def code_lines(path):
    """Yields `(line number, code, in a use statement)` with `//`
    comments cut; a `use` statement may span lines."""
    in_use = False
    for number, line in enumerate(path.read_text().splitlines(), 1):
        code = line.split("//", 1)[0]
        is_use = in_use or bool(USE.match(code))
        in_use = is_use and ";" not in code
        yield number, code, is_use


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    definitions = []
    defining = set()
    for path in rust_files(root, LIBRARY_SRC):
        for number, code, _ in code_lines(path):
            m = DEFINITION.match(code)
            if m:
                kind, name = m.groups()
                definitions.append((name, kind, path.relative_to(root), number))
                defining.add((path, number, name))
    named, imported = set(), set()
    for path in rust_files(root, SEARCHED):
        for number, code, is_use in code_lines(path):
            for word in WORD.findall(code):
                if is_use:
                    imported.add(word)
                elif (path, number, word) not in defining:
                    named.add(word)
    # A module is only ever reached through a path, so a `use` names it.
    unnamed = sorted(
        d for d in definitions if d[0] not in named and not (d[1] == "mod" and d[0] in imported)
    )
    for name, kind, path, number in unnamed:
        print(f"{path}:{number}: {kind} {name}")
    return 1 if unnamed else 0


if __name__ == "__main__":
    sys.exit(main())
