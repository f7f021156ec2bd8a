#!/usr/bin/env python3
"""Report of a pcprof sample file (see README.md).

  python3 tools/pcprof/report.py EXE pcprof.PID.out [--top N]

Prints the share of samples per function (symbols from `nm`, code
bounds from `readelf`), per
`file:line` (from `addr2line`), and, for samples in a C function of the
runtime, the OCaml caller: the first word of the recorded stack that
falls inside OCaml code. That finds the caller of noalloc primitives
such as caml_modify, which run on the OCaml stack; a primitive entered
through caml_c_call runs on the C stack, and its caller shows as
"(not found)".
"""

import argparse
import bisect
import collections
import struct
import subprocess
import sys

MAGIC = 0x31464F5250435050
OUTSIDE = "(outside the executable)"


def load(path):
    with open(path, "rb") as f:
        data = f.read()
    magic, bias, words, count = struct.unpack_from("<4Q", data, 0)
    if magic != MAGIC:
        sys.exit("%s: not a pcprof file" % path)
    body = struct.unpack_from("<%dQ" % (words * count), data, 32)
    samples = [body[i * words:(i + 1) * words] for i in range(count)]
    return bias, samples


def text_end(exe):
    """End address of the executable's last code section."""
    out = subprocess.run(
        ["readelf", "-SW", exe],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    end = 0
    for line in out.splitlines():
        parts = line.replace("[ ", "[").split()
        # [Nr] Name Type Address Off Size ES Flg ...
        if len(parts) > 7 and parts[0].startswith("[") and "X" in parts[7]:
            end = max(end, int(parts[3], 16) + int(parts[5], 16))
    return end


def symbols(exe):
    """Sorted (address, name) of the executable's code symbols, closed
    by the end of its code: an address past it (a shared library, the
    vDSO) is named OUTSIDE."""
    out = subprocess.run(
        ["nm", "-n", "--defined-only", exe],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    end = text_end(exe)
    syms = []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "tTwW" and int(parts[0], 16) < end:
            syms.append((int(parts[0], 16), parts[2]))
    return syms + [(end, OUTSIDE)]


def is_ocaml(name):
    # OCaml code symbols are caml<Module>__<name>_<stamp> or
    # caml<Module>__code_begin; the runtime's are caml_<name>.
    return name.startswith("caml") and "__" in name and not name.startswith("caml_")


def addr2line(exe, addrs):
    """file:line of each address."""
    addrs = sorted(set(addrs))
    out = subprocess.run(
        ["addr2line", "-e", exe] + ["%x" % a for a in addrs],
        stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
    return dict(zip(addrs, (l.rsplit("/", 1)[-1].split(" ")[0] for l in out)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("exe")
    ap.add_argument("samples")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()
    bias, samples = load(args.samples)
    syms = symbols(args.exe)
    starts = [a for a, _ in syms]

    def name_of(addr):
        k = bisect.bisect_right(starts, addr) - 1
        return syms[k][1] if k >= 0 else "?"

    def share(c):
        return 100.0 * c / len(samples)

    if not samples:
        sys.exit("no samples")
    pcs = [s[0] - bias for s in samples]
    funcs = collections.Counter(name_of(pc) for pc in pcs)
    print("%d samples" % len(samples))
    print("\n-- by function")
    for name, c in funcs.most_common(args.top):
        print("%6.1f%%  %6d  %s" % (share(c), c, name))

    where = addr2line(args.exe, pcs)
    lines = collections.Counter(where[pc] for pc in pcs)
    print("\n-- by file:line")
    for loc, c in lines.most_common(args.top):
        print("%6.1f%%  %6d  %s" % (share(c), c, loc))

    # The caller of a runtime function: the first stack word that is a
    # return address into OCaml code (the call is the byte before it).
    callers = collections.defaultdict(collections.Counter)
    for s in samples:
        fn = name_of(s[0] - bias)
        if is_ocaml(fn):
            continue
        ret = next((w - bias for w in s[1:]
                    if w > bias and is_ocaml(name_of(w - bias))), None)
        callers[fn][ret] += 1
    sites = addr2line(args.exe, [r - 1 for c in callers.values()
                                 for r in c if r is not None])
    print("\n-- OCaml callers of runtime functions")
    for fn, _ in funcs.most_common(args.top):
        if fn not in callers:
            continue
        print("%s (%.1f%%)" % (fn, share(funcs[fn])))
        for ret, c in callers[fn].most_common(5):
            who = ("(not found)" if ret is None
                   else "%s %s" % (name_of(ret), sites[ret - 1]))
            print("  %6.1f%%  %s" % (share(c), who))


if __name__ == "__main__":
    main()
