#!/usr/bin/env python3
"""Symbolise a prof.c dump and print self and inclusive shares.

    python3 sym.py prof.out [--under REGEX] [--stacks N [--depth D]]

Each frame is rebased against the mapping it fell in (/proc/self/maps is
the head of the dump) and handed to `addr2line -a -f -i -C`, one batch per
binary. `--under` keeps only the samples with a frame matching REGEX below
the interrupted one (`Progress::run_until` = the ledger's measured window)
and counts nothing at or outside that frame. Shares are of the samples
kept. A sample's self symbol is its innermost frame; its inclusive symbols
are every distinct symbol on its stack. The 40 largest of each are printed,
named as `addr2line -f` names an address: the innermost function inlined
there. `--stacks N` then prints the N most common call chains, each of its
D innermost frames (default 12) with the functions inlined into it, the
innermost first, and its file and line; there `--under` matches inlined
frames too.
"""
import argparse
import bisect
import collections
import re
import subprocess


def load(path):
    """(mappings sorted by start, samples as lists of addresses, innermost first)."""
    maps, samples, in_samples = [], [], False
    for line in open(path):
        if line.startswith("---"):
            in_samples = True
        elif in_samples:
            samples.append([int(a, 16) for a in line.split()])
        else:
            f = line.split()
            if len(f) >= 6 and f[5].startswith("/"):
                start, end = (int(x, 16) for x in f[0].split("-"))
                maps.append((start, end, f[5]))
    maps.sort()
    return maps, samples


def symbolise(maps, samples):
    """address -> its frames, the innermost inlined function first, each
    a (function, "file:line") pair."""
    starts = [m[0] for m in maps]
    base = {}  # file -> load address: where its lowest mapping starts
    for start, _, path in maps:
        base.setdefault(path, start)
    by_file = collections.defaultdict(set)
    for stack in samples:
        for addr in stack:
            i = bisect.bisect_right(starts, addr) - 1
            if i >= 0 and addr < maps[i][1]:
                by_file[maps[i][2]].add(addr)
    frames = {}
    for path, addrs in by_file.items():
        addrs = sorted(addrs)
        # A return address points after the call; one byte back is inside it.
        rel = [hex(a - base[path] - 1) for a in addrs]
        out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", path] + rel,
                             capture_output=True, text=True).stdout.splitlines()
        # `-a` heads each address's group of (function, file:line) lines.
        groups = []
        for line in out:
            if line.startswith("0x"):
                groups.append([])
            elif groups:
                groups[-1].append(line)
        binary = path.rsplit("/", 1)[-1]
        for addr, lines in zip(addrs, groups):
            pairs = [(lines[k], lines[k + 1] if k + 1 < len(lines) else "??")
                     for k in range(0, len(lines), 2)]
            frames[addr] = [(f if f != "??" else "?? in " + binary, where)
                            for f, where in pairs] or [("?? in " + binary, "??")]
    return frames


def chains(samples, frames, under, depth):
    """Each kept sample's innermost `depth` frames, inlined ones included,
    as `function (file:line)` strings."""
    out = []
    for stack in samples:
        expanded = [(f, where) for a in stack for f, where in frames.get(a, [("??", "??")])]
        if expanded and "on_sigprof" in expanded[0][0]:
            # The shim's handler and the trampoline the signal ran on.
            expanded = expanded[next((i for i, (f, _) in enumerate(expanded)
                                      if "on_sigprof" not in f), 0) + 1:]
        if under:
            hit = next((i for i, (f, _) in enumerate(expanded) if re.search(under, f)), None)
            if not hit:
                continue
            expanded = expanded[:hit]
        if expanded:
            where = lambda w: w.rsplit("/", 1)[-1].split(" ")[0]
            out.append(tuple(f"{f} ({where(w)})" for f, w in expanded[:depth]))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dump")
    ap.add_argument("--under", help="keep samples with a frame matching this regex; count only what it called")
    ap.add_argument("--stacks", type=int, default=0, metavar="N",
                    help="also print the N most common call chains, inlined frames included")
    ap.add_argument("--depth", type=int, default=12, metavar="D",
                    help="innermost frames a call chain keeps (default 12)")
    args = ap.parse_args()
    maps, samples = load(args.dump)
    frames = symbolise(maps, samples)
    names = {addr: fs[0][0] for addr, fs in frames.items()}
    self_n, incl_n, kept = collections.Counter(), collections.Counter(), 0
    for stack in samples:
        syms = [names.get(a, "??") for a in stack]
        # Drop the shim's handler and the frame under it: the signal
        # trampoline, which libc names after whatever symbol precedes it.
        if syms and "on_sigprof" in syms[0]:
            del syms[:2]
        if args.under:
            hit = next((i for i, s in enumerate(syms) if re.search(args.under, s)), None)
            if not hit:  # no such frame, or it is the innermost: nothing under it
                continue
            syms = syms[:hit]
        if not syms:
            continue
        kept += 1
        self_n[syms[0]] += 1
        incl_n.update(set(syms))
    print(f"{kept} of {len(samples)} samples kept")
    for title, counts in (("self", self_n), ("inclusive", incl_n)):
        print(f"\n{title:>9}  symbol")
        for sym, n in counts.most_common(40):
            print(f"{100 * n / max(kept, 1):8.1f}%  {sym}")
    if args.stacks:
        found = collections.Counter(chains(samples, frames, args.under, args.depth))
        total = max(sum(found.values()), 1)
        print(f"\n{'chains':>9}  innermost frame first, inlined frames included")
        for chain, n in found.most_common(args.stacks):
            print(f"{100 * n / total:8.1f}%  " + "\n           <- ".join(chain))


if __name__ == "__main__":
    main()
