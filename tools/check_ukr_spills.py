#!/usr/bin/env python3
"""Fail when a micro-kernel spills vector registers in its k-loop.

Usage: tools/check_ukr_spills.py LIBRARY [--objdump PATH]

Disassembles every vector micro-kernel of LIBRARY (e.g.
build/src/libgep_simd.a), that is every function whose name contains
`ukr_avx` (ukr_avx2, ukr_avx512, one instantiation per semiring), finds
its k-loops (innermost loops, i.e. backward branches enclosing no other
one, that contain a semiring op: an FMA for (+, x), a vector min for
min-plus, a max for max-min, an or / and / ternary-logic op for or-and),
and
reports any k-loop that stores an xmm/ymm/zmm register to the stack (an
address based on %rsp or %rbp). Such a store means the
accumulator tile did not stay in registers, so every k-step writes the
whole tile to memory and the kernel runs store-bound. The scalar
reference instantiation (ukr_scalar) is not checked: its 48 one-lane
accumulators cannot all live in the 16 registers of baseline x86-64.
Exits 1 on any finding or when no micro-kernel was found, 0 otherwise.
"""
import argparse
import re
import subprocess
import sys

FUNC = re.compile(r"^([0-9a-f]+) <(.+)>:$")
INSN = re.compile(r"^\s*([0-9a-f]+):\s+(\S+)\s*(.*)$")
BRANCH_TARGET = re.compile(r"^([0-9a-f]+) <")
STACK_STORE = re.compile(r"%[xyz]mm\d+,.*\(%r[sb]p\)")
SEMIRING_OPS = ("vfmadd", "vfnmadd", "vminp", "vmaxp", "vpor", "vpand",
                "vpternlog")


def functions(text):
    """Yields (name, [(addr, mnemonic, operands)]) per disassembled symbol."""
    name, body = None, []
    for line in text.splitlines():
        m = FUNC.match(line)
        if m:
            if name is not None:
                yield name, body
            name, body = m.group(2), []
            continue
        m = INSN.match(line)
        if m and name is not None:
            body.append((int(m.group(1), 16), m.group(2), m.group(3)))
    if name is not None:
        yield name, body


def k_loops(body):
    """(head, tail) address ranges of the innermost loops holding a
    semiring op."""
    loops = []
    for addr, mnem, ops in body:
        t = BRANCH_TARGET.match(ops) if mnem.startswith("j") else None
        if t and int(t.group(1), 16) < addr:
            loops.append((int(t.group(1), 16), addr))
    innermost = [(h, t) for h, t in loops
                 if not any(h <= h2 and t2 <= t and (h2, t2) != (h, t)
                            for h2, t2 in loops)]
    return [(h, t) for h, t in innermost
            if any(h <= a <= t and m.startswith(SEMIRING_OPS)
                   for a, m, _ in body)]


def loop_spills(body):
    """Stack stores of vector registers inside any k-loop."""
    return sorted({f"{a:x}: {m} {o}" for h, t in k_loops(body)
                   for a, m, o in body
                   if h <= a <= t and m.startswith("vmov") and
                   STACK_STORE.search(o)})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("library")
    ap.add_argument("--objdump", default="objdump")
    args = ap.parse_args()
    text = subprocess.run(
        [args.objdump, "-d", "-C", "--no-show-raw-insn", args.library],
        check=True, capture_output=True, text=True).stdout
    checked, bad = 0, 0
    for name, body in functions(text):
        if "ukr_avx" not in name:
            continue
        checked += 1
        if not k_loops(body):
            bad += 1
            print(f"NO K-LOOP {name}")
            continue
        spills = loop_spills(body)
        if spills:
            bad += 1
            print(f"SPILL {name}")
            for s in spills[:8]:
                print(f"    {s}")
        else:
            print(f"ok    {name}")
    if checked == 0:
        print(f"no ukr_avx functions in {args.library}", file=sys.stderr)
        return 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
