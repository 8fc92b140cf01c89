#!/usr/bin/env python3
"""Fails on library functions that no linked program keeps.

Build every program with one section per function and let the linker
drop the sections nothing reaches, at -O0 so no used function vanishes
by being inlined everywhere:

    cmake -B build-gc -S . -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS=-ffunction-sections \\
        -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
    cmake --build build-gc
    python3 tools/check_unlinked.py build-gc/libfideslib.a \\
        build-gc/fideslib_tests build-gc/examples/* build-gc/bench/*

Every global function the archive defines (nm type T) that none of the
given programs keeps is printed, demangled, one per line, and the
script exits 1. It exits 0, printing nothing, when every one is kept.
"""

import subprocess
import sys


def defined(path, types):
    """Mangled names of @p path's defined symbols of nm type in @p types."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in types:
            names.add(fields[2])
    return names


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    library, programs = argv[1], argv[2:]
    kept = set()
    for program in programs:
        kept |= defined(program, "Tt")
    unlinked = sorted(defined(library, "T") - kept)
    if not unlinked:
        return 0
    names = subprocess.run(["c++filt"], input="\n".join(unlinked),
                           check=True, capture_output=True,
                           text=True).stdout.split("\n")
    print(f"{len(unlinked)} functions of {library} are linked by none of "
          f"{len(programs)} programs:")
    for name in sorted(n for n in names if n):
        print(f"  {name}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
