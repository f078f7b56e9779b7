#!/usr/bin/env python3
"""Self and inclusive profile shares from sigprof records.

    report.py DIR [--top N] [--pid PID]

Reads every DIR/sigprof.<pid>.bin with its sigprof.<pid>.maps, maps each
address to (object file, address within it) through that process's own
mappings, resolves them with one `addr2line` call per object, and
prints the functions with the largest self share (samples whose
interrupted pc is in the function's code, inlined callees included) and
inclusive share (samples with the function anywhere on the stack, as a
call or inlined, counted once per sample).  An address in a stripped
object (a system libc) resolves to the nearest exported symbol at best,
and its name is marked so.
"""
import argparse
import collections
import glob
import os
import re
import struct
import subprocess
import sys

PTR = struct.calcsize("P")
MAPS_LINE = re.compile(r"^([0-9a-f]+)-([0-9a-f]+) (\S+) ([0-9a-f]+) \S+ \d+\s*(.*)$")


def read_maps(path):
    maps = []
    with open(path) as f:
        for line in f:
            m = MAPS_LINE.match(line)
            if m and "x" in m.group(3) and m.group(5).startswith("/"):
                maps.append((int(m.group(1), 16), int(m.group(2), 16),
                             int(m.group(4), 16), m.group(5)))
    return maps


def read_samples(path):
    """Each record: frame count n, the interrupted pc, n - 1 frames."""
    data = open(path, "rb").read()
    samples, off = [], 0
    while off + PTR <= len(data):
        n = struct.unpack_from("<I", data, off)[0]
        end = off + PTR * (1 + n)
        if n == 0 or end > len(data):
            break
        frames = struct.unpack_from(f"<{n}Q", data, off + PTR)
        off = end
        pc, stack = frames[0], list(frames[1:])
        # backtrace() starts in the signal handler and its trampoline;
        # the interrupted pc marks where the real stack begins.
        if pc in stack:
            stack = stack[stack.index(pc) + 1:]
        else:
            stack = stack[2:]
        samples.append([pc] + [a - 1 for a in stack])  # return -> call site
    return samples


_elf = {}


def elf_info(obj):
    """(PT_LOAD segments, whether the object keeps a full symbol table)."""
    if obj not in _elf:
        segs, symtab = [], False
        with open(obj, "rb") as f:
            hdr = f.read(64)
            if hdr[:4] == b"\x7fELF" and hdr[4] == 2:
                phoff, shoff = struct.unpack_from("<QQ", hdr, 32)
                phentsize, phnum, shentsize, shnum = struct.unpack_from(
                    "<HHHH", hdr, 54)
                f.seek(phoff)
                for _ in range(phnum):
                    p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack(
                        "<IIQQQQ", f.read(phentsize)[:40])
                    if p_type == 1:  # PT_LOAD
                        segs.append((p_offset, p_filesz, p_vaddr))
                f.seek(shoff)
                for _ in range(shnum):
                    sh = f.read(shentsize)
                    symtab |= len(sh) >= 8 and struct.unpack_from(
                        "<I", sh, 4)[0] == 2  # SHT_SYMTAB
        _elf[obj] = (segs, symtab)
    return _elf[obj]


def elf_vaddr(obj, file_off):
    """File offset in `obj` -> the link-time address addr2line expects."""
    for p_offset, p_filesz, p_vaddr in elf_info(obj)[0]:
        if p_offset <= file_off < p_offset + p_filesz:
            return file_off - p_offset + p_vaddr
    return file_off


def locate(maps, addr):
    for lo, hi, offset, obj in maps:
        if lo <= addr < hi:
            return obj, elf_vaddr(obj, addr - lo + offset)
    return None, addr


def symbolize(wanted):
    """{obj: set(addr)} -> {(obj, addr): [function, its inline callers...]}."""
    names = {}
    for obj, addrs in wanted.items():
        out = []
        try:
            out = subprocess.run(
                ["addr2line", "-a", "-i", "-f", "-C", "-e", obj],
                input="\n".join(hex(a) for a in addrs), check=True,
                capture_output=True, text=True).stdout.splitlines()
        except (OSError, subprocess.CalledProcessError):
            pass
        # -a heads each address's block; -i fills it with function and
        # file:line pairs, from the innermost inlined function outwards.
        blocks, addr = {}, None
        for line in out:
            if line.startswith("0x"):
                addr = int(line, 16)
                blocks[addr] = []
            elif addr is not None:
                blocks[addr].append(line)
        base = os.path.basename(obj)
        stripped = not elf_info(obj)[1]
        for a in addrs:
            fns = [f for f in blocks.get(a, [])[0::2] if f != "??"]
            if stripped:
                # Only exported symbols: the nearest one, often wrong.
                fns = [f"{f} ({base}, stripped)" for f in fns]
            names[(obj, a)] = fns or [f"[{base}+{a:#x}]"]
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--pid", type=int)
    args = ap.parse_args()
    stacks = []  # [(obj, addr), ...] per sample, leaf first
    for binf in sorted(glob.glob(os.path.join(args.dir, "sigprof.*.bin"))):
        pid = int(binf.split(".")[-2])
        if args.pid is not None and pid != args.pid:
            continue
        maps = read_maps(binf[:-4] + ".maps")
        samples = read_samples(binf)
        print(f"pid {pid}: {len(samples)} samples", file=sys.stderr)
        stacks += [[locate(maps, a) for a in s] for s in samples]
    if not stacks:
        print("report.py: no samples", file=sys.stderr)
        return 1
    wanted = collections.defaultdict(set)
    for s in stacks:
        for obj, a in s:
            if obj is not None:
                wanted[obj].add(a)
    names = symbolize(wanted)
    name = lambda f: names.get(f, [f"[{f[1]:#x}]"])
    self_n, incl_n = collections.Counter(), collections.Counter()
    for s in stacks:
        self_n[name(s[0])[-1]] += 1  # the symbol, not what it inlined
        for fn in {fn for f in s for fn in name(f)}:
            incl_n[fn] += 1
    total = len(stacks)
    for title, counts in (("self", self_n), ("inclusive", incl_n)):
        print(f"== {title} ({total} samples)")
        for fn, n in counts.most_common(args.top):
            print(f"{100.0 * n / total:6.2f}%  {fn}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
