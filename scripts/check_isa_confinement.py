#!/usr/bin/env python3
"""Fail when an AVX-512 instruction lies outside the 16-lane matmul kernels.

The simd backend's 16-lane kernels (src/tensor/backend/simd_avx512.cpp)
are compiled with -mavx512f in every build and run only where cpuid
reports avx512f. Any other function that carries an EVEX-encoded
instruction would crash an AVX2-only host with SIGILL: typically an
AVX-512 copy of a shared inline function (say std::vector<float>::resize)
that the 16-lane unit instantiated and the linker kept for the whole
program. This script disassembles linked binaries with `objdump -d` and
allows EVEX code only inside functions whose symbol contains the 16-lane
lane type's name (`Lanes16`; every function simd_avx512.cpp defines is a
member of Matmul<Lanes16>). Meaningful on a build without -march=native
(DPOAF_NATIVE_ARCH=OFF), where nothing else may use AVX-512.

An instruction is EVEX-encoded when its first opcode byte (after segment
and address-size prefixes) is 0x62 in 64-bit mode, or when it names a zmm
register, a mask register k0-k7, or xmm16-31/ymm16-31.

usage: check_isa_confinement.py PATH...
  PATH is an ELF binary or a directory whose ELF files are all checked.
  Exits 1 on a violation, 2 on bad input.
"""
import os
import re
import subprocess
import sys

ALLOWED = "Lanes16"
# Segment overrides and the address-size prefix may precede an EVEX
# prefix; any other legacy or REX prefix before 0x62 is invalid.
PREFIXES = {"26", "2e", "36", "3e", "64", "65", "67"}
EVEX_REGISTER = re.compile(r"%(zmm\d+|k[0-7]\b|[xy]mm(1[6-9]|2\d|3[01])\b)")
SYMBOL = re.compile(r"^[0-9a-f]+ <(.+)>:$")


def is_elf(path):
    try:
        with open(path, "rb") as f:
            return f.read(4) == b"\x7fELF"
    except OSError:
        return False


def binaries(paths):
    for path in paths:
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                full = os.path.join(path, name)
                if os.path.isfile(full) and is_elf(full):
                    yield full
        elif is_elf(path):
            yield path
        else:
            sys.exit(f"check_isa_confinement: {path}: not an ELF file or directory")


def is_evex(raw, text):
    opcode = next((b for b in raw.split() if b not in PREFIXES), "")
    return opcode == "62" or EVEX_REGISTER.search(text) is not None


def scan(binary):
    """Yields (symbol, instruction) for every EVEX instruction."""
    out = subprocess.run(["objdump", "-d", "-w", binary], check=True,
                         capture_output=True, text=True).stdout
    symbol = "?"
    for line in out.splitlines():
        m = SYMBOL.match(line)
        if m:
            symbol = m.group(1)
            continue
        fields = line.split("\t")
        if len(fields) < 3 or not fields[0].rstrip().endswith(":"):
            continue
        if is_evex(fields[1], fields[2]):
            yield symbol, fields[2].strip()


def host_has_avx512f():
    try:
        with open("/proc/cpuinfo") as f:
            return any(line.startswith("flags") and " avx512f" in line
                       for line in f)
    except OSError:
        return False


def main(argv):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 2
    print(f"host cpu has avx512f: {'yes' if host_has_avx512f() else 'no'}")
    checked = 0
    kernels = set()
    bad = {}
    for binary in binaries(argv):
        checked += 1
        for symbol, insn in scan(binary):
            if ALLOWED in symbol:
                kernels.add(symbol)
            else:
                bad.setdefault((binary, symbol), insn)
    if checked == 0:
        print("check_isa_confinement: no ELF binaries found", file=sys.stderr)
        return 2
    print(f"{checked} binaries, {len(kernels)} 16-lane kernel functions "
          "with EVEX code")
    for (binary, symbol), insn in sorted(bad.items()):
        print(f"FAIL {binary}: EVEX instruction outside the 16-lane kernels "
              f"in <{symbol}>: {insn}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
