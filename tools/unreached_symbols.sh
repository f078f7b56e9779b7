#!/usr/bin/env bash
# Reachability scan of the production libraries.
#
#   tools/unreached_symbols.sh [BUILD_DIR]        (default: build-unreached)
#
# Builds every example and bench/ binary, and benchmark/'s bench_e2e and
# bench_e2e_traced, at -O0 with one section per function, linked with
# --gc-sections: nothing is inlined away, and a binary keeps exactly the
# functions it can reach.  -fkeep-inline-functions emits the inline
# functions of every header too, so they are compared like the rest; only
# inline special members (default, copy and move constructors, destructors
# and assignments) are skipped, because GCC expands the implicitly
# declared ones in place even at -O0 and no binary keeps a copy.  A T/W
# symbol that a production archive defines and no binary keeps is
# unreached.  Symbols are compared by demangled
# signature and reported by qualified function name (a lambda counts as
# its enclosing function).
#
# Exits 1 when an unreached first-party function is not listed in
# tools/unreached_allowlist.txt, or when an allowlist line names a
# function that is now reached or no longer defined.  A simd::Ops kernel
# is only reached through the dispatch table, which the symbols cannot
# show, so a field of struct Ops with no call site in src/ outside the
# SIMD backends and the reference kernels fails too.  The reference
# kernels (nsync_dsp_reference) and the chaos relay (nsync_chaos_proxy)
# are test support and are not scanned; neither are nsync_baselines and
# nsync_eval, which exist for the experiment binaries.  JOBS sets the
# build parallelism (default: nproc).
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$root/build-unreached"}
allowlist="$root/tools/unreached_allowlist.txt"
jobs=${JOBS:-$(nproc)}

flags=(-DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -fkeep-inline-functions -ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
gen=()
command -v ninja > /dev/null && gen=(-G Ninja)

cmake -S "$root" -B "$build/repo" "${gen[@]}" "${flags[@]}" \
  -DNSYNC_BUILD_TESTS=OFF > /dev/null
cmake --build "$build/repo" -j "$jobs"
cmake -S "$root/benchmark" -B "$build/benchmark" "${gen[@]}" "${flags[@]}" \
  > /dev/null
cmake --build "$build/benchmark" -j "$jobs" --target bench_e2e bench_e2e_traced

libs=()
for lib in runtime dsp/simd signal dsp gcode printer sensors core engine; do
  libs+=("$build/repo/src/$lib/libnsync_${lib##*/}.a")
done
bins=()
while IFS= read -r b; do bins+=("$b"); done < <(
  find "$build/repo/examples" "$build/repo/bench" -maxdepth 1 -type f \
    -perm -u+x
  echo "$build/benchmark/bench_e2e"
  echo "$build/benchmark/bench_e2e_traced")

# Kernels behind the dispatch table: each needs a `.field(` call site.
ops_failed=0
for field in $(awk '/^struct Ops \{/,/^\};/' "$root/src/dsp/simd/simd.hpp" \
                 | grep -oE '\(\*[a-z0-9_]+\)' | tr -d '(*)'); do
  if ! grep -rqE --include='*.cpp' --include='*.hpp' --exclude-dir=simd \
       --exclude-dir=reference "\.\s*${field}\s*\(" "$root/src"; then
    echo "unreached: nsync::dsp::simd::Ops::${field} (no call site outside" \
         "src/dsp/simd/)"
    ops_failed=1
  fi
done

# "T|W signature" per defined function.
text_symbols() {
  nm -C --defined-only "$@" 2> /dev/null \
    | awk '$2 == "T" || $2 == "W" { t = $2; sub(/^[0-9a-f]+ [TW] /, "");
                                    print t " " $0 }' \
    | sort -u
}

scan_failed=0
python3 - "$allowlist" <(text_symbols "${libs[@]}") \
  <(text_symbols "${bins[@]}") <<'PY' || scan_failed=1
import re
import sys


def qualified_name(sig):
    """The function a demangled signature belongs to: the text before its
    parameter list, without a template instantiation's return type."""
    depth, i, start = 0, 0, 0
    while i < len(sig):
        if sig.startswith("(anonymous namespace)", i):
            i += len("(anonymous namespace)")
            continue
        if sig.startswith("operator", i) and depth == 0:
            i += len("operator")
            if sig.startswith("()", i):
                i += 2
            while i < len(sig) and sig[i] != "(":
                i += 1
            break
        c = sig[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == " " and depth == 0:
            start = i + 1
        elif c == "(" and depth == 0:
            break
        i += 1
    return sig[start:i].replace("[abi:cxx11]", "")


SPECIAL_MEMBER = re.compile(
    r"(?P<cls>(?:[\w:]+::)?(?P<short>\w+))::"
    r"(?:~?(?P=short)|operator=)\((?:(?P=cls)(?: const&|&&))?\)")


allow_path, lib_path, bin_path = sys.argv[1:]
with open(bin_path) as f:
    reached = {line[2:] for line in f.read().splitlines()}
unreached = {}
defined = set()
with open(lib_path) as f:
    for line in f.read().splitlines():
        kind, sig = line[0], line[2:]
        if kind == "W" and SPECIAL_MEMBER.fullmatch(sig):
            continue
        name = qualified_name(sig)
        if not name.startswith("nsync::"):
            continue
        defined.add(name)
        if sig not in reached:
            unreached.setdefault(name, []).append(sig)

allowed = {}
with open(allow_path) as f:
    for n, line in enumerate(f, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" # ")
        if not reason.strip():
            sys.exit(f"{allow_path}:{n}: no reason given for {name}")
        allowed[name.strip()] = n

failed = False
for name in sorted(unreached):
    if name in allowed:
        continue
    failed = True
    print(f"unreached: {name}")
    for sig in unreached[name]:
        print(f"    {sig}")
for name, n in sorted(allowed.items(), key=lambda kv: kv[1]):
    if name not in defined:
        failed = True
        print(f"{allow_path}:{n}: {name} is no longer defined")
    elif name not in unreached:
        failed = True
        print(f"{allow_path}:{n}: {name} is reached by a binary")

count = sum(len(v) for v in unreached.values())
print(f"{count} unreached symbols under {len(unreached)} first-party names, "
      f"{len(allowed)} allowlisted")
sys.exit(1 if failed else 0)
PY
exit $((scan_failed || ops_failed))
