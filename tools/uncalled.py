#!/usr/bin/env python3
"""Names every public item of the library crates that nothing names,
and every enum variant of them that nothing constructs.

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

A variant of an enum (any visibility) defined under the same four
directories counts as constructed when some line of the same `.rs`
files names it — as `Enum::Variant`, as `Self::Variant` inside an
`impl Enum`, or bare after a `use` of it — anywhere but in a pattern: a
match arm, `if let`, `while let`, `let … else` or `matches!`. A variant
that only patterns name is input no run can set, and the branches
behind it are dead. Comments, doc tests and string literals do not
count.

Exit 0 when every item is named and every variant constructed
somewhere; exit 1 after printing each unnamed item as `path:line: kind
name`, sorted by name, then each unconstructed variant as `path:line:
Enum::Variant`, sorted by path and line.
"""

import bisect
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


# Comments, string and char literals, blanked to keep line numbers.
NOT_CODE = re.compile(
    r"//[^\n]*|/\*.*?\*/"
    r"|\br(#*)\".*?\"\1"
    r"|b?\"(?:\\.|[^\"\\])*\""
    r"|b?'(?:\\(?:u\{[0-9a-fA-F]*\}|x[0-9a-fA-F]{2}|.)|[^'\\\n])'",
    re.S,
)
TOKEN = re.compile(r"'[A-Za-z_]\w*|[A-Za-z_]\w*|::|=>|->|[=!<>+\-*/%^&|]=|\d\w*|\S")
OPEN, CLOSE = "([{", ")]}"
# Tokens that end a pattern search: a new statement or item began.
STATEMENT = {"let", "fn", "impl", "struct", "enum", "mod", "trait", "use", "return"}
# Before a path, these make the `{` after it a block, not a struct body.
BLOCK_PATH = {"->", "impl", "struct", "enum", "trait", "for", "mod", "union", "where", "dyn", ":"}


class Tokens:
    """A file's code as tokens, with each bracket's partner and each
    token's innermost enclosing open bracket."""

    def __init__(self, path):
        text = path.read_text()
        text = NOT_CODE.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)
        newlines = [i for i, c in enumerate(text) if c == "\n"]
        found = list(TOKEN.finditer(text))
        self.tok = [m.group(0) for m in found]
        self.line = [bisect.bisect_left(newlines, m.start()) + 1 for m in found]
        self.partner, self.parent, stack = {}, [], []
        for i, t in enumerate(self.tok):
            if t in CLOSE and stack:
                o = stack.pop()
                self.partner[o], self.partner[i] = i, o
            self.parent.append(stack[-1] if stack else None)
            if t in OPEN:
                stack.append(i)

    def __len__(self):
        return len(self.tok)

    def struct_brace(self, o):
        """Whether the `{` at `o` opens a struct literal or pattern."""
        j = o - 1
        if j < 0 or not self.tok[j][:1].isupper():
            return False
        while j >= 2 and self.tok[j - 1] == "::":
            j -= 2
        return j == 0 or self.tok[j - 1] not in BLOCK_PATH

    def in_pattern(self, i):
        """Whether the name at token `i` sits in a pattern: scans forward
        out of the groups around it to what decides (`=>`, a `let`'s
        `=`, a guard's `if`, the close of `matches!`)."""
        j = i + 1
        while j < len(self):
            t = self.tok[j]
            if t in OPEN and j in self.partner:
                j = self.partner[j] + 1
                continue
            if t in CLOSE:
                o = self.partner.get(j)
                if o is None:
                    return False
                if t == ")" and o >= 2 and self.tok[o - 2 : o] == ["matches", "!"]:
                    return True
                if t == "}" and not self.struct_brace(o):
                    return False
            elif t in ("=>", "=", "if"):
                return True
            elif t == ";" or t in STATEMENT:
                return False
            elif t == "," and self.parent[j] is not None:
                o = self.parent[j]
                if self.tok[o] == "{" and not self.struct_brace(o):
                    return False
            j += 1
        return False


def enum_variants(path, toks):
    """Yields `(enum, variant, line)` for every enum defined in `toks`."""
    for i, t in enumerate(toks.tok):
        if t != "enum" or i + 1 >= len(toks) or not toks.tok[i + 1][:1].isupper():
            continue
        o = i + 2
        while o < len(toks) and toks.tok[o] != "{":
            o += 1
        end = toks.partner.get(o)
        j = o + 1
        while end is not None and j < end:
            if toks.tok[j] == "#" and toks.tok[j + 1] == "[":
                j = toks.partner[j + 1] + 1
                continue
            yield toks.tok[i + 1], toks.tok[j], toks.line[j]
            while j < end and toks.tok[j] != ",":
                j = toks.partner[j] + 1 if toks.tok[j] in OPEN else j + 1
            j += 1


def impl_types(toks):
    """Maps each token inside an `impl` block to the implemented type."""
    owner = {}
    for i, t in enumerate(toks.tok):
        if t != "impl":
            continue
        j, name, depth = i + 1, None, 0
        while j < len(toks) and not (toks.tok[j] == "{" and depth == 0):
            u = toks.tok[j]
            depth += (u == "<") - (u == ">")
            if u == "for":
                name = None
            elif depth == 0 and u[:1].isalpha() and u not in ("dyn", "where") and name is None:
                name = u
            elif depth == 0 and u == "::":
                name = None
            j += 1
        if j < len(toks):
            for k in range(j, toks.partner.get(j, j) + 1):
                owner[k] = name
    return owner


def unconstructed_variants(root):
    library = {}
    for path in rust_files(root, LIBRARY_SRC):
        for enum, variant, line in enum_variants(path, Tokens(path)):
            library.setdefault((enum, variant), (path.relative_to(root), line))
    variants_of = {}
    for enum, variant in library:
        variants_of.setdefault(variant, set()).add(enum)
    constructed = set()
    for path in rust_files(root, SEARCHED):
        toks = Tokens(path)
        owner = impl_types(toks)
        imported, i = {}, 0
        while i < len(toks):
            if toks.tok[i] == "use" and (i == 0 or toks.tok[i - 1] in ";{}"):
                j = i
                while j < len(toks) and toks.tok[j] != ";":
                    j += 1
                words = toks.tok[i:j]
                for k, w in enumerate(words[:-1]):
                    if words[k + 1] == "::":
                        for v in words[k + 2 :]:
                            if w in variants_of.get(v, ()):
                                imported[v] = w
                i = j
                continue
            t = toks.tok[i]
            if t in variants_of:
                if i >= 2 and toks.tok[i - 1] == "::":
                    prev = toks.tok[i - 2]
                    enum = owner.get(i) if prev == "Self" else prev
                else:
                    enum = imported.get(t)
                if enum in variants_of[t] and not toks.in_pattern(i):
                    constructed.add((enum, t))
            i += 1
    return sorted((where, key) for key, where in library.items() if key not in constructed)


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
    idle = unconstructed_variants(root)
    for (path, number), (enum, variant) in idle:
        print(f"{path}:{number}: {enum}::{variant}")
    return 1 if unnamed or idle else 0


if __name__ == "__main__":
    sys.exit(main())
