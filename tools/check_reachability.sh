#!/usr/bin/env bash
# Reachability gate: src/ keeps no function that only tests reach.
#
# Usage: tools/check_reachability.sh [scan-dir]
#
#   scan-dir   where the scan builds go (default: build-reach). Reused
#              across runs, so a second scan only rebuilds what changed.
#
# The scan builds every non-test binary -- the CLI, every bench
# (bench_micro_engine included, so google-benchmark must be installed),
# the examples, and perfbench from perfbench/CMakeLists.txt -- with
#
#   -O0 -fno-inline -ffunction-sections -fkeep-inline-functions
#
# and links them with -Wl,--gc-sections.  Every function then sits in its
# own section and is never inlined away, header-inline ones included
# (-fkeep-inline-functions emits them all), and the linker drops each
# section that no binary's entry point reaches through calls or taken
# addresses.  The functions defined in the src/ module archives (libpe_*.a)
# that no binary still contains are the unreachable set.  It is compared
# with tools/reachability_allowlist.txt, one demangled name per line
# followed by " # reason"; the gate fails, naming them, on any unreachable
# function the allowlist lacks, and on any allowlist entry that is
# reachable again or gone.
#
# What the scan counts:
#  * Only functions declared in namespace pe, local ones (lambdas)
#    included: mangled names that start with _ZN2pe or _ZZN2pe (after any
#    cv/ref qualifiers).  That drops the std:: instantiations over pe types
#    (std::vector<pe::...>::..., std::forward<lambda>), which mangle under
#    std.
#  * Compiler-generated members are dropped by signature: destructors,
#    default constructors, copy/move constructors and copy/move
#    assignment.  The compiler emits them for any class used by value
#    whether or not a source line declares them, so they say nothing
#    about dead code.  A user-written constructor with other parameters
#    still counts.  Also dropped: a captureless lambda's conversion to a
#    function pointer and its static invoker (_FUN), which
#    -fkeep-inline-functions emits even where the lambda is only called.
#  * --gc-sections keeps every virtual of a class whose vtable is live
#    (the vtable references each slot), so an override nothing calls
#    still counts as reached; the scan cannot see those.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
scan_dir="${1:-${repo_root}/build-reach}"
allowlist="${repo_root}/tools/reachability_allowlist.txt"
jobs="$(nproc 2>/dev/null || echo 2)"

scan_flags=(
  -DCMAKE_BUILD_TYPE=None
  "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections -fkeep-inline-functions"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)

echo "--- configuring and building the scan tree (${scan_dir}) ---" >&2
cmake -S "${repo_root}" -B "${scan_dir}/tree" "${scan_flags[@]}" \
  -DPE_BUILD_TESTS=OFF > /dev/null
cmake --build "${scan_dir}/tree" -j "${jobs}" > /dev/null
cmake -S "${repo_root}/perfbench" -B "${scan_dir}/perfbench" \
  "${scan_flags[@]}" > /dev/null
cmake --build "${scan_dir}/perfbench" -j "${jobs}" --target perfbench \
  > /dev/null

if [[ ! -x "${scan_dir}/tree/bench/bench_micro_engine" ]]; then
  echo "error: bench_micro_engine was not built (install google-benchmark);" \
       "without it the scan misses its callers" >&2
  exit 2
fi

binaries=("${scan_dir}/perfbench/perfbench")
for dir in tools bench examples; do
  while IFS= read -r bin; do binaries+=("${bin}"); done < <(
    find "${scan_dir}/tree/${dir}" -maxdepth 1 -type f -perm -u+x | sort)
done
mapfile -t archives < <(find "${scan_dir}/tree/src" -name 'libpe_*.a' | sort)
echo "--- scanning ${#archives[@]} archives against" \
     "${#binaries[@]} binaries ---" >&2

# Mangled names of the functions (text symbols) the inputs define.
defined_functions() {
  nm --defined-only "$@" 2>/dev/null |
    sed -n 's/^[0-9a-f]* [TtWw] //p' | LC_ALL=C sort -u
}

# Keeps the pe:: functions, demangled, minus compiler-generated members.
user_written() {
  grep -E '^_ZZ?N[rVKRO]*2pe' | c++filt |
    grep -Ev '::~[A-Za-z_0-9]+\(' |
    grep -Ev '::([A-Za-z_0-9]+)::\1\(\)$' |
    grep -Ev '::([A-Za-z_0-9]+)::\1\(pe::([A-Za-z_0-9]+::)*\1( const)?(&|&&)\)$' |
    grep -Ev '::([A-Za-z_0-9]+)::operator=\(pe::([A-Za-z_0-9]+::)*\1( const)?(&|&&)\)' |
    grep -Ev '\}::(_FUN\(|operator [^(]*\(\*\))' |
    LC_ALL=C sort -u || true
}

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT
# Compared demangled: a binary that keeps only the complete-object
# constructor (C1) still reaches the base-object one (C2) it shares a
# name with.
defined_functions "${archives[@]}" | user_written > "${tmp}/library"
defined_functions "${binaries[@]}" | c++filt | LC_ALL=C sort -u \
  > "${tmp}/reached"
LC_ALL=C comm -23 "${tmp}/library" "${tmp}/reached" > "${tmp}/unreached"
sed -e 's/ # .*$//' -e 's/[[:space:]]*$//' -e '/^$/d' -e '/^#/d' \
  "${allowlist}" | LC_ALL=C sort -u > "${tmp}/allowed"

status=0
if grep -Evq '^$|^#| # [^[:space:]]' "${allowlist}"; then
  echo "FAIL: allowlist entries without a \" # reason\":" >&2
  grep -Ev '^$|^#| # [^[:space:]]' "${allowlist}" >&2
  status=1
fi
LC_ALL=C comm -23 "${tmp}/unreached" "${tmp}/allowed" > "${tmp}/new"
LC_ALL=C comm -13 "${tmp}/unreached" "${tmp}/allowed" > "${tmp}/stale"
if [[ -s "${tmp}/new" ]]; then
  echo "FAIL: src/ functions that no binary reaches:" >&2
  sed 's/^/  /' "${tmp}/new" >&2
  echo "Delete them, move them into tests/, or allowlist each with a" \
       "reason in tools/reachability_allowlist.txt." >&2
  status=1
fi
if [[ -s "${tmp}/stale" ]]; then
  echo "FAIL: allowlist entries that are reached or no longer exist:" >&2
  sed 's/^/  /' "${tmp}/stale" >&2
  status=1
fi
echo "reachability: $(wc -l < "${tmp}/library") src/ functions," \
     "$(wc -l < "${tmp}/unreached") unreachable," \
     "$(wc -l < "${tmp}/allowed") allowlisted" >&2
exit "${status}"
