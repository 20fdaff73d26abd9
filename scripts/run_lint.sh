#!/usr/bin/env bash
# Run the static checks (DESIGN.md §8, §10, §13) and exit nonzero on
# any finding:
#
#   python     scripts/starnuma_lint.py   determinism & style rules
#                                         D1-D5 plus layering/lock-
#                                         discipline rules D6-D8,
#              scripts/starnuma_hotpath.py  interprocedural hot-path
#                                         discipline D9-D11 (both
#                                         with their fixture
#                                         self-tests),
#   taint      scripts/starnuma_taint.py  determinism-taint D12,
#                                         cache-key purity D13, sink
#                                         registration D14, plus the
#                                         artifact_inputs.json
#                                         manifest check and the
#                                         lexer unit tests,
#   werror     the STARNUMA_WERROR build  -Wshadow -Wconversion
#                                         -Wdouble-promotion as hard
#                                         errors (host compiler),
#   clang-tsa  Clang thread-safety build  the same WERROR config
#                                         under clang++, adding
#                                         -Wthread-safety
#                                         -Werror=thread-safety over
#                                         the sim/annotations.hh
#                                         capability annotations,
#   clang-tidy clang-tidy                 bugprone-*/performance-*/
#                                         concurrency-* over the
#                                         exported
#                                         compile_commands.json.
#
# Each stage reports its wall time, and the linters print per-rule
# finding counts, so runtime regressions in the gate itself are
# visible from the log.
#
# Usage: scripts/run_lint.sh [stage ...]
#   stages: python taint werror clang-tsa clang-tidy
#   (default: all five; the clang stages print a skip notice when
#    LLVM is not installed)
#
# Exit status: 0 clean, 1 on findings/build errors, 2 on usage
# errors, 3 when every *requested* stage was skipped for a missing
# tool (scripts/run_ci.sh maps that to an explicit SKIP row).
set -uo pipefail

cd "$(dirname "$0")/.."

stages=("$@")
if [ ${#stages[@]} -eq 0 ]; then
    stages=(python taint werror clang-tsa clang-tidy)
fi

fail=0
ran=0
stage_t0=0

stage_begin() {
    echo "=== $1 ==="
    stage_t0=$(date +%s)
}

stage_end() {
    local status=$1
    local dt=$(( $(date +%s) - stage_t0 ))
    echo "--- stage took ${dt}s ---"
    ran=1
    if [ "${status}" -ne 0 ]; then
        fail=1
    fi
}

# All python-analyzer stages share one runner: a title plus a list
# of commands, each of which must exit 0. Adding a checker is one
# line in the relevant stage's list.
run_checkers() {
    local title=$1
    shift
    stage_begin "${title}"
    local status=0 cmd
    for cmd in "$@"; do
        ${cmd} || status=1
    done
    stage_end "${status}"
}

stage_python() {
    run_checkers "starnuma_lint + starnuma_hotpath: rules D1-D11" \
        "python3 scripts/starnuma_lint.py --self-test" \
        "python3 scripts/starnuma_lint.py" \
        "python3 scripts/starnuma_hotpath.py --self-test" \
        "python3 scripts/starnuma_hotpath.py"
}

stage_taint() {
    run_checkers "starnuma_taint: rules D12-D14 + artifact manifest" \
        "python3 scripts/test_lint_core.py" \
        "python3 scripts/starnuma_taint.py --self-test" \
        "python3 scripts/starnuma_taint.py" \
        "python3 scripts/starnuma_taint.py --check-manifest"
}

stage_werror() {
    stage_begin "STARNUMA_WERROR build"
    local status=0
    cmake -B build-werror -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSTARNUMA_WERROR=ON >/dev/null || status=1
    if [ "${status}" -eq 0 ]; then
        cmake --build build-werror -j "$(nproc)" || status=1
    fi
    stage_end "${status}"
}

stage_clang_tsa() {
    if ! command -v clang++ >/dev/null 2>&1; then
        echo "=== clang++ not installed; skipping thread-safety" \
             "build (gate is advisory on machines without LLVM) ==="
        return 3
    fi
    stage_begin "Clang thread-safety build (-Werror=thread-safety)"
    local status=0
    cmake -B build-werror-clang -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_COMPILER=clang++ \
        -DSTARNUMA_WERROR=ON >/dev/null || status=1
    if [ "${status}" -eq 0 ]; then
        cmake --build build-werror-clang -j "$(nproc)" || status=1
    fi
    stage_end "${status}"
}

stage_clang_tidy() {
    if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "=== clang-tidy not installed; skipping (gate is" \
             "advisory on machines without LLVM) ==="
        return 3
    fi
    stage_begin "clang-tidy (bugprone-*, performance-*, concurrency-*)"
    local status=0
    # The WERROR tree exports the compilation database; configure it
    # if the werror stage did not run first. Run over the library
    # sources (tests inherit via headers through HeaderFilterRegex).
    if [ ! -f build-werror/compile_commands.json ]; then
        cmake -B build-werror -S . \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            -DSTARNUMA_WERROR=ON >/dev/null || status=1
    fi
    if [ "${status}" -eq 0 ]; then
        mapfile -t srcs < <(find src -name '*.cc' | sort)
        if command -v run-clang-tidy >/dev/null 2>&1; then
            run-clang-tidy -quiet -p build-werror "${srcs[@]}" ||
                status=1
        else
            clang-tidy -quiet -p build-werror "${srcs[@]}" ||
                status=1
        fi
    fi
    stage_end "${status}"
}

for stage in "${stages[@]}"; do
    case "${stage}" in
      python)     stage_python ;;
      taint)      stage_taint ;;
      werror)     stage_werror ;;
      clang-tsa)  stage_clang_tsa || true ;;
      clang-tidy) stage_clang_tidy || true ;;
      *)
        echo "run_lint.sh: unknown stage '${stage}'" \
             "(expected python|taint|werror|clang-tsa|clang-tidy)" >&2
        exit 2
        ;;
    esac
done

if [ "${fail}" -ne 0 ]; then
    echo "=== lint FAILED ==="
    exit 1
fi
if [ "${ran}" -eq 0 ]; then
    # Everything requested was skipped for a missing tool.
    echo "=== all requested lint stages skipped ==="
    exit 3
fi
echo "=== all lint checks clean ==="
