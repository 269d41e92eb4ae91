#!/usr/bin/env python3
"""Symbolise a prof.c dump and print self and inclusive shares.

    python3 sym.py prof.out [--under REGEX]

Each frame is rebased against the mapping it fell in (/proc/self/maps is
the head of the dump) and handed to `addr2line -f -C`, one batch per
binary. `--under` keeps only the samples with a frame matching REGEX below
the interrupted one (`Progress::run_until` = the ledger's measured window)
and counts nothing at or outside that frame. Shares are of the samples
kept. A sample's self symbol is its innermost frame; its inclusive symbols
are every distinct symbol on its stack. The 40 largest of each are printed.
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
    """address -> symbol, for every address in `samples`."""
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
    names = {}
    for path, addrs in by_file.items():
        addrs = sorted(addrs)
        # A return address points after the call; one byte back is inside it.
        rel = [hex(a - base[path] - 1) for a in addrs]
        out = subprocess.run(["addr2line", "-f", "-C", "-e", path] + rel,
                             capture_output=True, text=True).stdout.split("\n")
        for k, addr in enumerate(addrs):
            name = out[2 * k] if 2 * k < len(out) else "??"
            names[addr] = name if name != "??" else "?? in " + path.rsplit("/", 1)[-1]
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dump")
    ap.add_argument("--under", help="keep samples with a frame matching this regex; count only what it called")
    args = ap.parse_args()
    maps, samples = load(args.dump)
    names = symbolise(maps, samples)
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


if __name__ == "__main__":
    main()
