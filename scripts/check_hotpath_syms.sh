#!/usr/bin/env bash
# Binary backstop for the D9 hot-path discipline (DESIGN.md §13)
# and the D12 artifact-determinism discipline (DESIGN.md §15).
#
# The source-level analyzer (scripts/starnuma_hotpath.py) reasons
# over names and can be fooled by calls through function pointers,
# operator call sites, or std:: methods it cannot see into. The
# disassembly cannot: this script objdump-disassembles the built
# test binary (which links every library) and verifies that no
# hot-path symbol's main body contains a direct call to the
# allocator, the exception machinery, or pthread mutex locking.
#
# Scope notes:
#   * GCC's `[clone .cold]` sections are excluded — they hold the
#     outlined sn_assert/panic paths, which are [[noreturn]]
#     invariant failures and allowed on the hot path (D9's
#     NORETURN_OK set). Other clones (`.constprop`, `.isra`, `.part`)
#     are audited like the main symbol: at -O3 (a Release build, which
#     scripts/run_ci.sh checks too) PageAccessStats::record survives
#     only as a `.constprop` clone.
#   * TraceSim::runDynamic (the one replay loop), runStaticOracle
#     and decodeColumnar are covered by the analyzer but not checked
#     here: their phase setup, checkpoint snapshots, and output
#     sizing are line-level
#     cold-path escapes that stay lexically inside the function, so
#     their bodies legitimately contain allocator calls.
#   * Indirect calls (`call *%rax`) carry no symbol and cannot be
#     checked; the analyzer's over-approximation covers those.
#
# Second audit: artifact-writer symbols (the serializers behind
# scripts/artifact_inputs.json) must not TRANSITIVELY call the
# nondeterminism family — wall-clock reads, host RNG, environment
# reads. Unlike the hot-path audit this one follows direct call
# edges through the whole binary (BFS over the disassembly), since
# a clock read two frames below the serializer corrupts the
# artifact just the same.
#
# Usage: scripts/check_hotpath_syms.sh [build-dir]   (default: build)
#
# Exit status: 0 clean, 1 on banned calls or a missing manifest
# symbol (a rename silently voiding the check must fail loudly).
set -uo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
BIN="${BUILD_DIR}/tests/starnuma_tests"

if [ ! -x "${BIN}" ]; then
    echo "check-hotpath-syms: ${BIN} missing; building it" >&2
    cmake -B "${BUILD_DIR}" -S . >/dev/null &&
        cmake --build "${BUILD_DIR}" -j "$(nproc)" \
              --target starnuma_tests >/dev/null || exit 1
fi

if ! command -v objdump >/dev/null 2>&1; then
    echo "check-hotpath-syms: objdump not installed; skipping" \
         "(binary backstop is advisory without binutils)" >&2
    exit 0
fi

# The disassembly goes through a file: the heredoc below owns
# python's stdin, so piping objdump into it would be silently lost.
DIS=$(mktemp) || exit 1
trap 'rm -f "${DIS}"' EXIT
objdump -d -C "${BIN}" > "${DIS}" || exit 1

python3 - "${BIN}" "${DIS}" <<'EOF'
import re
import sys

# Demangled-name regexes of the hot-path symbols to audit. Every
# entry must match at least one symbol in the binary that is not a
# `.cold` section.
MANIFEST = [
    r"starnuma::driver::TraceSim::run\(",
    r"starnuma::core::TlbAnnex::recordAccess\(",
    r"starnuma::core::TlbAnnex::recordAccessRun\(",
    r"starnuma::core::TlbDirectory::evict\(",
    r"starnuma::core::TlbDirectory::shootdown\(",
    r"starnuma::core::RegionTracker::record\(",
    r"starnuma::core::PageAccessStats::record\(",
    r"starnuma::mem::PageMap::touch\(",
    r"starnuma::driver::\(anonymous namespace\)::PhaseSim::run\(",
]

# A call target starting with any of these is a hot-path violation.
BANNED_PREFIXES = (
    "operator new",
    "__cxa_throw",
    "__cxa_rethrow",
    "__cxa_allocate_exception",
    "pthread_mutex_lock",
    "pthread_mutex_trylock",
    "malloc",
    "calloc",
    "realloc",
    "aligned_alloc",
    "strdup",
)

SYM_HEAD = re.compile(r"^[0-9a-f]+ <(.+)>:$")
CALL_TARGET = re.compile(r"\bcall\w*\s+[0-9a-f]+\s+<([^>]+)>")

bodies = {}
cur = None
for line in open(sys.argv[2]):
    m = SYM_HEAD.match(line)
    if m:
        cur = m.group(1)
        bodies.setdefault(cur, [])
        continue
    if cur is not None and line.strip():
        bodies[cur].append(line.rstrip("\n"))

fail = False
checked = 0
for pat in MANIFEST:
    rx = re.compile(pat)
    syms = [s for s in bodies
            if rx.search(s) and "[clone .cold]" not in s]
    if not syms:
        print("check-hotpath-syms: FAIL: no symbol matches /%s/ in "
              "%s (renamed? add the new name to the manifest)"
            % (pat, sys.argv[1]))
        fail = True
        continue
    for sym in sorted(syms):
        checked += 1
        for insn in bodies[sym]:
            m = CALL_TARGET.search(insn)
            if not m:
                continue
            target = m.group(1)
            for banned in BANNED_PREFIXES:
                if target.startswith(banned):
                    print("check-hotpath-syms: FAIL: hot symbol\n"
                          "    %s\n  calls banned target\n    %s"
                          % (sym, target))
                    fail = True
                    break

print("check-hotpath-syms: %d hot symbols audited across %d "
      "manifest entries: %s"
      % (checked, len(MANIFEST), "FAIL" if fail else "clean"))

# ---- Artifact-writer determinism audit (transitive) ----------------

# Demangled-name regexes of artifact serializer entry points. Every
# entry must match at least one defined symbol.
ARTIFACT_MANIFEST = [
    r"starnuma::driver::TraceSimResult::serialize\(",
    r"starnuma::trace::encodeColumnar\(",
]

# Base call-target names (before '(' or '@') that make an artifact
# nondeterministic when reached from a serializer.
ARTIFACT_BANNED = frozenset((
    "clock_gettime", "gettimeofday", "time", "clock",
    "getenv", "secure_getenv",
    "rand", "srand", "random", "srandom", "rand_r", "drand48",
    "pthread_self", "gettid",
))
# Demangled prefixes banned outright (any std::chrono clock read).
ARTIFACT_BANNED_PREFIXES = (
    "std::chrono::_V2::steady_clock::now",
    "std::chrono::_V2::system_clock::now",
    "std::chrono::steady_clock::now",
    "std::chrono::system_clock::now",
)


def base_name(target):
    """'getenv@plt' -> 'getenv'; 'f(int)' -> 'f'."""
    return re.split(r"[@(]", target, 1)[0].strip()


# Direct call edges per defined symbol (main bodies and clones both
# count: a .cold outlined path still executes).
edges = {}
for sym, insns in bodies.items():
    outs = set()
    for insn in insns:
        m = CALL_TARGET.search(insn)
        if m:
            outs.add(m.group(1))
    edges[sym] = outs

afail = False
aroots = 0
for pat in ARTIFACT_MANIFEST:
    rx = re.compile(pat)
    roots = [s for s in bodies if rx.search(s)]
    if not roots:
        print("check-hotpath-syms: FAIL: no artifact symbol matches "
              "/%s/ in %s (renamed? update ARTIFACT_MANIFEST)"
              % (pat, sys.argv[1]))
        afail = True
        continue
    aroots += len(roots)
    for root in sorted(roots):
        # BFS with parent pointers so a hit reports its witness path.
        parent = {root: None}
        queue = [root]
        while queue:
            sym = queue.pop(0)
            for target in sorted(edges.get(sym, ())):
                hit = (base_name(target) in ARTIFACT_BANNED or
                       target.startswith(ARTIFACT_BANNED_PREFIXES))
                if hit:
                    chain = [target, sym]
                    p = parent[sym]
                    while p is not None:
                        chain.append(p)
                        p = parent[p]
                    print("check-hotpath-syms: FAIL: artifact writer"
                          " reaches nondeterministic call:\n    "
                          + "\n    -> ".join(reversed(chain)))
                    afail = True
                if target in bodies and target not in parent:
                    parent[target] = sym
                    queue.append(target)

print("check-hotpath-syms: %d artifact writer symbols audited "
      "across %d manifest entries: %s"
      % (aroots, len(ARTIFACT_MANIFEST),
         "FAIL" if afail else "clean"))
sys.exit(1 if (fail or afail) else 0)
EOF
