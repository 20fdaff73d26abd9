#!/usr/bin/env python3
"""starnuma-lint: project determinism and style rules (DESIGN.md §8).

Rules
-----
D1  Range-for over an ``unordered_map``/``unordered_set`` in a
    result-affecting directory (``src/sim``, ``src/core``,
    ``src/mem``, ``src/driver``) without a
    ``// lint: order-independent`` annotation on the loop line or the
    line directly above. Hash iteration order is not part of the
    simulator's contract; any loop whose effect depends on it is a
    determinism bug. ``FlatMap``/``FlatSet`` (sim/flat_map.hh)
    iterate in insertion order and are order-deterministic: a name
    declared flat in the same file is exempt — unless the same file
    also declares it unordered, in which case the lint stays
    conservative and flags the loop.
D2  Banned nondeterminism sources anywhere outside ``src/sim/rng.*``:
    ``std::rand``, ``random_device``, ``time(nullptr)``/``time(NULL)``,
    ``high_resolution_clock``. All randomness must flow through the
    seeded ``sim/rng`` facility.
D3  Floating-point equality: a ``==``/``!=`` whose operand is a
    floating literal, or ``EXPECT_EQ``/``ASSERT_EQ``/``EXPECT_NE``/
    ``ASSERT_NE`` applied to a floating literal. Use an epsilon
    comparison (or ``EXPECT_DOUBLE_EQ``/``EXPECT_NEAR`` in tests).
D4  Include-guard naming: headers under ``src/<dir>/<file>.hh`` must
    guard with ``STARNUMA_<DIR>_<FILE>_HH``.
D5  Raw stdio in library code: ``printf``/``fprintf`` (and their
    ``v`` variants) or ``std::cout`` anywhere under ``src/`` outside
    ``src/sim/logging.cc``, ``src/sim/table.cc``, and ``src/sim/obs/``.
    Diagnostics must route through ``sim/logging`` (whose single-write
    path keeps multi-threaded output unscrambled) and structured
    output through ``sim/table`` or the observability exporters.
    ``snprintf``-style formatting into buffers is fine.
D6  Layering (DESIGN.md §10): the ``src/`` include graph must follow
    the declared layer DAG (``sim`` → ``topology`` → ``mem`` →
    ``core`` → ``trace``/``workloads`` → ``analytic`` → ``driver``,
    with each directory's allowed includes mirroring the library
    dependencies in ``src/CMakeLists.txt``). An upward or
    cross-layer include needs a justified
    ``// lint: layer-exception`` annotation on the include line or
    the line above. Include cycles are rejected unconditionally —
    there is no escape hatch for a cycle.
D7  Lock discipline: a class/struct that declares a
    ``std::mutex``/``std::shared_mutex``/``Mutex`` member must have
    every other mutable data member either
    ``STARNUMA_GUARDED_BY``-annotated, of an internally-synchronized
    type (``std::atomic``, ``condition_variable``/``CondVar``,
    ``once_flag``), ``const``, or annotated ``// lint: lock-free``
    with a reason (on the member's line or the comment block
    directly above).
D8  RAII locking: no naked ``.lock()``/``.unlock()`` calls under
    ``src/`` — mutexes are taken via ``MutexLock`` (or
    ``lock_guard``/``unique_lock``/``scoped_lock``). Exempt:
    ``sim/parallel.*`` (the pool's claim loops interleave lock and
    task execution; Clang's thread-safety analysis still checks
    them) and ``sim/sync.hh`` (the wrapper that implements the RAII
    layer).

Usage
-----
    starnuma_lint.py [paths...]    # default: src tests (repo root)
    starnuma_lint.py --self-test   # run against scripts/lint_fixtures

Exit status: 0 when clean, 1 on findings, 2 on usage errors.
"""

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from starnuma_lint_core import (
    Finding,
    INCLUDE_RE,
    SOURCE_EXTS,
    collect_decl_names,
    file_includes,
    has_annotation_above,
    iter_source_files,
    mask_nested_parens,
    read_source,
    strip_comments_and_strings,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Directories whose code influences simulation results: D1 applies.
RESULT_DIRS = ("src/sim", "src/core", "src/mem", "src/driver")

ORDER_ANNOTATION = "lint: order-independent"

BANNED_TOKENS = (
    ("std::rand", "use the seeded sim/rng facility"),
    ("random_device", "use the seeded sim/rng facility"),
    ("time(nullptr)", "wall-clock time is nondeterministic"),
    ("time(NULL)", "wall-clock time is nondeterministic"),
    ("high_resolution_clock", "wall-clock time is nondeterministic"),
)

FLOAT_LITERAL = r"(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fF]?"
D3_OPERATOR = re.compile(
    r"(?:[=!]=\s*[+-]?{lit})|(?:{lit}\s*[=!]=)".format(lit=FLOAT_LITERAL)
)
D3_GTEST_OPEN = re.compile(r"\b(?:EXPECT|ASSERT)_(?:EQ|NE)\s*\(")
D3_FLOAT = re.compile(r"(?<![\w.]){lit}".format(lit=FLOAT_LITERAL))

# D5: word boundaries keep snprintf/vsnprintf from matching.
D5_RAW_STDIO = re.compile(
    r"\b(?:printf|fprintf|vprintf|vfprintf)\s*\("
    r"|\bstd\s*::\s*cout\b"
)
D5_ALLOWED_FILES = ("src/sim/logging.cc", "src/sim/table.cc")
# The obs exporters (stats, time-series and audit sinks) write
# their artifacts with raw stdio by design; the whole directory is
# allowed. lint_fixtures/src/sim/obs/ proves the allowance in
# --self-test.
D5_ALLOWED_DIRS = ("src/sim/obs/",)

UNORDERED_DECL = re.compile(r"\bunordered_(?:map|set)\s*<")
# Insertion-order-deterministic flat containers (sim/flat_map.hh).
FLAT_DECL = re.compile(r"\bFlat(?:Map|Set)\s*<")
RANGE_FOR = re.compile(
    r"\bfor\s*\([^;()]*?:\s*&?\s*([A-Za-z_][\w.\->]*)\s*\)"
)

RULES = ("D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8")

# D6: per-directory allowed include targets, mirroring the library
# link graph in src/CMakeLists.txt. Keys and values are the
# directories directly under src/.
LAYER_ALLOWED = {
    "sim": ("sim",),
    "topology": ("topology", "sim"),
    "mem": ("mem", "sim", "topology"),
    "core": ("core", "sim", "mem", "topology"),
    "trace": ("trace", "sim"),
    "workloads": ("workloads", "sim", "trace"),
    "analytic": ("analytic", "sim", "topology"),
    "driver": ("driver", "sim", "topology", "mem", "core", "trace",
               "workloads", "analytic"),
}
LAYER_EXCEPTION = "lint: layer-exception"

# D7 annotations and type classes.
LOCK_FREE_ANNOTATION = "lint: lock-free"
D7_MUTEX_TYPE = re.compile(
    r"\b(?:std\s*::\s*)?"
    r"(?:mutex|shared_mutex|recursive_mutex|Mutex|SharedMutex)\b")
D7_SYNCHRONIZED_TYPE = re.compile(
    r"\batomic(?:_\w+)?\b|\bcondition_variable(?:_any)?\b"
    r"|\bCondVar\b|\bonce_flag\b")
D7_SKIP_KEYWORDS = frozenset((
    "using", "typedef", "friend", "template", "static_assert",
    "struct", "class", "enum", "union", "operator", "public",
    "private", "protected",
))
CLASS_HEAD = re.compile(r"(?<![\w:])(?:class|struct)\b[^;{}]*?{")

# D8: member access followed by a bare lock()/unlock() call.
D8_NAKED_LOCK = re.compile(
    r"[\w)\]]\s*(?:\.|->)\s*(?:lock|unlock)\s*\(")
D8_EXEMPT = ("src/sim/parallel.cc", "src/sim/parallel.hh",
             "src/sim/sync.hh")


def relpath(path):
    return os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")


def is_result_path(rel):
    return any(
        rel == d or rel.startswith(d + "/") for d in RESULT_DIRS
    )


def check_d1(rel, raw_lines, code_lines, unordered_names,
             local_flat, local_unordered, findings):
    if not is_result_path(rel):
        return
    for idx, code in enumerate(code_lines):
        if "for" not in code:
            continue
        # A wrapped loop header may put `: container)` on the lines
        # after `for (`; join a small window before matching, but
        # only accept matches that start on this line.
        window = " ".join(code_lines[idx:idx + 3])
        m = next((m for m in RANGE_FOR.finditer(window)
                  if m.start() <= len(code)), None)
        if not m:
            continue
        target = m.group(1).split(".")[-1].split("->")[-1]
        # A name declared FlatMap/FlatSet in this same file iterates
        # in insertion order; exempt unless the file also declares
        # the name unordered (ambiguous -> stay conservative).
        if target in local_flat and target not in local_unordered:
            continue
        if target not in unordered_names:
            continue
        annotated = any(
            ORDER_ANNOTATION in raw_lines[j]
            for j in range(max(0, idx - 2), min(len(raw_lines),
                                                idx + 3))
        )
        if not annotated:
            findings.append(Finding(
                "D1", rel, idx + 1,
                "iteration over unordered container '%s' without "
                "'// %s' annotation" % (target, ORDER_ANNOTATION)))


def check_d2(rel, code_lines, findings):
    base = os.path.basename(rel)
    if rel.startswith("src/sim/") and base.startswith("rng."):
        return
    for idx, code in enumerate(code_lines):
        squashed = re.sub(r"\s+", "", code)
        for token, why in BANNED_TOKENS:
            if re.sub(r"\s+", "", token) in squashed:
                findings.append(Finding(
                    "D2", rel, idx + 1,
                    "banned nondeterminism source '%s' (%s)"
                    % (token, why)))


def gtest_compares_float(window, line_len):
    """True when an EXPECT/ASSERT_(EQ|NE) starting within the first
    @p line_len chars of @p window has a floating literal as a
    top-level piece of one of its arguments (a literal buried in a
    nested call like nsToCycles(50.0) does not count)."""
    for m in D3_GTEST_OPEN.finditer(window):
        if m.start() > line_len:
            continue
        i, depth, arg_start, args = m.end(), 1, m.end(), []
        while i < len(window) and depth:
            c = window[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    args.append(window[arg_start:i])
            elif c == "," and depth == 1:
                args.append(window[arg_start:i])
                arg_start = i + 1
            i += 1
        for arg in args:
            if D3_FLOAT.search(mask_nested_parens(arg)):
                return True
    return False


def check_d3(rel, code_lines, findings):
    for idx, code in enumerate(code_lines):
        if D3_OPERATOR.search(code):
            findings.append(Finding(
                "D3", rel, idx + 1,
                "floating-point ==/!= comparison; use an epsilon"))
            continue
        window = " ".join(code_lines[idx:idx + 3])
        if gtest_compares_float(window, len(code)):
            findings.append(Finding(
                "D3", rel, idx + 1,
                "EXPECT/ASSERT_(EQ|NE) on a floating literal; use "
                "EXPECT_DOUBLE_EQ or EXPECT_NEAR"))


def check_d4(rel, raw_lines, findings):
    if not rel.endswith((".hh", ".hpp")) or not rel.startswith("src/"):
        return
    parts = rel.split("/")
    if len(parts) != 3:
        return
    stem = os.path.splitext(parts[2])[0]
    expected = "STARNUMA_%s_%s_HH" % (
        parts[1].upper(), re.sub(r"\W", "_", stem).upper())
    guard = None
    for idx, line in enumerate(raw_lines):
        m = re.match(r"\s*#ifndef\s+(\w+)", line)
        if m:
            guard = (idx + 1, m.group(1))
            break
    if guard is None:
        findings.append(Finding(
            "D4", rel, 1, "missing include guard (expected %s)"
            % expected))
    elif guard[1] != expected:
        findings.append(Finding(
            "D4", rel, guard[0],
            "include guard '%s' should be '%s'"
            % (guard[1], expected)))


def check_d5(rel, code_lines, findings):
    if not rel.startswith("src/"):
        return
    if rel in D5_ALLOWED_FILES:
        return
    if any(rel.startswith(d) for d in D5_ALLOWED_DIRS):
        return
    for idx, code in enumerate(code_lines):
        m = D5_RAW_STDIO.search(code)
        if m:
            findings.append(Finding(
                "D5", rel, idx + 1,
                "raw stdio '%s' in library code; route through "
                "sim/logging, sim/table, or sim/obs"
                % m.group(0).strip().rstrip("(").strip()))


def src_layer(rel):
    """Top-level src/ directory of @p rel, or None when the file is
    outside the layered tree."""
    parts = rel.split("/")
    if len(parts) >= 3 and parts[0] == "src" and \
            parts[1] in LAYER_ALLOWED:
        return parts[1]
    return None


def check_d6_layering(rel, raw_lines, findings):
    layer = src_layer(rel)
    if layer is None:
        return
    for idx, inc in file_includes(raw_lines):
        target = inc.split("/")[0]
        if target not in LAYER_ALLOWED:
            continue # not one of the layered directories
        if target in LAYER_ALLOWED[layer]:
            continue
        if has_annotation_above(raw_lines, idx, LAYER_EXCEPTION):
            continue
        findings.append(Finding(
            "D6", rel, idx + 1,
            "layer violation: %s/ may not include %s/ (layer DAG "
            "sim -> topology -> mem -> core -> trace/workloads -> "
            "analytic -> driver); annotate '// %s' with a reason if "
            "this dependency is deliberate"
            % (layer, target, LAYER_EXCEPTION)))


def check_d6_cycles(texts_by_rel, findings):
    """Reject cycles in the src/ include graph. Edges are resolved
    within the scanned file set only, so the rule works identically
    on the real tree and on the self-test fixtures."""
    nodes = {rel: incs for rel, incs in (
        (rel, file_includes(raw))
        for rel, (raw, _) in sorted(texts_by_rel.items())
        if rel.startswith("src/")) }
    edges = {}
    for rel, incs in nodes.items():
        edges[rel] = [("src/" + inc, idx) for idx, inc in incs
                      if "src/" + inc in nodes]

    # Iterative DFS cycle detection with a deterministic visit
    # order; each cycle is reported once, anchored at its
    # lexicographically-first member.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {rel: WHITE for rel in nodes}
    cycles = []

    def dfs(root):
        stack = [(root, iter(edges[root]))]
        path = [root]
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt, _ in it:
                if color[nxt] == GRAY:
                    cyc = tuple(path[path.index(nxt):])
                    cycles.append(cyc)
                elif color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(edges[nxt])))
                    path.append(nxt)
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()

    for rel in sorted(nodes):
        if color[rel] == WHITE:
            dfs(rel)

    seen = set()
    for cyc in cycles:
        key = frozenset(cyc)
        if key in seen:
            continue
        seen.add(key)
        anchor = min(cyc)
        members = set(cyc)
        # Anchor the finding at the include line that enters the
        # cycle from its first member.
        line = 1
        for nxt, idx in edges[anchor]:
            if nxt in members:
                line = idx + 1
                break
        order = list(cyc)
        start = order.index(anchor)
        chain = order[start:] + order[:start] + [anchor]
        findings.append(Finding(
            "D6", anchor, line,
            "include cycle: %s" % " -> ".join(chain)))


def iter_class_bodies(code):
    """Yield (name, body_start, body_end) for every class/struct
    definition in comment-stripped @p code. body_start/body_end are
    the offsets just inside the braces."""
    for m in CLASS_HEAD.finditer(code):
        head = code[m.start():m.end() - 1]
        if re.search(r"\benum\s*$", code[:m.start()]):
            continue # enum class
        # Drop the base-clause (single ':' only; '::' is a scope).
        head_no_base = re.split(r":(?!:)", head)[0]
        idents = re.findall(r"[A-Za-z_]\w*", head_no_base)
        idents = [t for t in idents if t not in
                  ("class", "struct", "final", "alignas")]
        name = idents[-1] if idents else "<anonymous>"
        depth = 1
        i = m.end()
        while i < len(code) and depth:
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
            i += 1
        yield name, m.end(), i - 1


def class_members(code, body_start, body_end):
    """Data members of one class body: [(stmt_text, start_offset)].
    Statements inside nested braces (methods, nested types,
    brace-initializers) are skipped or folded per D7's tokenizer
    rules; a statement whose brace block is followed by anything but
    ';' is a function definition and is dropped."""
    out = []
    buf = []
    buf_start = None
    closed_block = False
    depth = 0
    i = body_start
    while i < body_end:
        c = code[i]
        if c == "{":
            depth += 1
            i += 1
            continue
        if c == "}":
            depth -= 1
            if depth == 0:
                closed_block = True
            i += 1
            continue
        if depth > 0:
            i += 1
            continue
        if c == ";":
            if buf_start is not None:
                out.append(("".join(buf), buf_start))
            buf, buf_start, closed_block = [], None, False
            i += 1
            continue
        if closed_block and not c.isspace():
            # Non-';' after a closed brace block: the block was a
            # function body, not a brace-initializer.
            buf, buf_start, closed_block = [], None, False
        if buf_start is None and not c.isspace():
            buf_start = i
        buf.append(c)
        i += 1
    return out


def classify_member(stmt):
    """One of 'skip', 'annotated', 'function', 'mutex',
    'synchronized', 'immutable', or 'plain' for a class-body
    statement."""
    s = re.sub(r"^(?:\s*(?:public|private|protected)\s*:)+", "",
               stmt).strip()
    if not s:
        return "skip"
    first = re.match(r"[A-Za-z_]\w*", s)
    if not first or first.group(0) in D7_SKIP_KEYWORDS:
        return "skip"
    if "STARNUMA_GUARDED_BY" in s or "STARNUMA_PT_GUARDED_BY" in s:
        return "annotated"
    if "(" in s:
        return "function"
    decl = s.split("=")[0]
    if D7_MUTEX_TYPE.search(decl):
        return "mutex"
    if D7_SYNCHRONIZED_TYPE.search(decl):
        return "synchronized"
    if re.search(r"\b(?:const|constexpr)\b", decl):
        return "immutable"
    return "plain"


def check_d7(rel, raw_lines, code_text, findings):
    if not rel.startswith("src/"):
        return
    for name, body_start, body_end in iter_class_bodies(code_text):
        members = class_members(code_text, body_start, body_end)
        kinds = [(stmt, off, classify_member(stmt))
                 for stmt, off in members]
        if not any(k == "mutex" for _, _, k in kinds):
            continue
        for stmt, off, kind in kinds:
            if kind != "plain":
                continue
            line = code_text.count("\n", 0, off) + 1
            # The statement may span lines; the annotation counts on
            # any of them or in the comment block above the first.
            stmt_lines = stmt.count("\n")
            tail = any(
                LOCK_FREE_ANNOTATION in raw_lines[j]
                for j in range(line - 1,
                               min(len(raw_lines),
                                   line + stmt_lines + 1)))
            if tail or has_annotation_above(raw_lines, line - 1,
                                            LOCK_FREE_ANNOTATION):
                continue
            decl = re.sub(r"\[[^\]]*\]", "", stmt.split("=")[0])
            member = re.findall(r"[A-Za-z_]\w*", decl)
            member = member[-1] if member else "<member>"
            findings.append(Finding(
                "D7", rel, line,
                "class %s has a mutex member, but member '%s' is "
                "neither STARNUMA_GUARDED_BY-annotated, atomic, nor "
                "'// %s' (with a reason)"
                % (name, member, LOCK_FREE_ANNOTATION)))


def check_d8(rel, code_lines, findings):
    if not rel.startswith("src/") or rel in D8_EXEMPT:
        return
    for idx, code in enumerate(code_lines):
        m = D8_NAKED_LOCK.search(code)
        if m:
            findings.append(Finding(
                "D8", rel, idx + 1,
                "naked %s call; take mutexes via RAII "
                "(MutexLock / lock_guard / scoped_lock)"
                % m.group(0).strip()))


def lint_files(paths):
    files = iter_source_files(paths)

    texts = {}
    unordered_names = set()
    local_decls = {}
    for f in files:
        raw = read_source(f)
        code = strip_comments_and_strings(raw)
        texts[f] = (raw.splitlines(), code.splitlines(), code)
        local_unordered = collect_decl_names(code, UNORDERED_DECL)
        local_decls[f] = (collect_decl_names(code, FLAT_DECL),
                          local_unordered)
        unordered_names |= local_unordered

    findings = []
    for f in files:
        rel = relpath(f)
        raw_lines, code_lines, code_text = texts[f]
        local_flat, local_unordered = local_decls[f]
        check_d1(rel, raw_lines, code_lines, unordered_names,
                 local_flat, local_unordered, findings)
        check_d2(rel, code_lines, findings)
        check_d3(rel, code_lines, findings)
        check_d4(rel, raw_lines, findings)
        check_d5(rel, code_lines, findings)
        check_d6_layering(rel, raw_lines, findings)
        check_d7(rel, raw_lines, code_text, findings)
        check_d8(rel, code_lines, findings)

    texts_by_rel = {
        relpath(f): (t[0], t[1]) for f, t in texts.items()
    }
    check_d6_cycles(texts_by_rel, findings)
    return findings


def self_test():
    """Each fixture marks its expected findings with
    `expect-lint: <rule>` comments; the lint must report exactly the
    expected (file, line, rule) set and nothing else."""
    global REPO_ROOT
    fixture_dir = os.path.join(REPO_ROOT, "scripts", "lint_fixtures")
    expected = set()
    for root, _, names in sorted(os.walk(fixture_dir)):
        for name in sorted(names):
            if not name.endswith(SOURCE_EXTS):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                for idx, line in enumerate(fh):
                    # \b keeps D10/D11 markers (starnuma_hotpath's
                    # rules) from being misread as D1; markers for
                    # rules this tool does not own are ignored.
                    for rule in re.findall(r"expect-lint:\s*(D\d+)\b",
                                           line):
                        if rule in RULES:
                            expected.add(
                                (relpath(path), idx + 1, rule))

    # Fixtures live outside src/, so map them into the tree the
    # rules key off (src/core for D1, src/<dir> for D4).
    real_root = REPO_ROOT
    REPO_ROOT = fixture_dir
    try:
        findings = lint_files([fixture_dir])
    finally:
        REPO_ROOT = real_root
    got = {
        (relpath(os.path.join(fixture_dir, f.path)), f.line, f.rule)
        for f in findings
    }
    ok = True
    for miss in sorted(expected - got):
        print("self-test: MISSED expected finding %s:%d [%s]" % miss)
        ok = False
    for extra in sorted(got - expected):
        print("self-test: UNEXPECTED finding %s:%d [%s]" % extra)
        ok = False
    print("self-test: %d expected findings, %d reported, %s"
          % (len(expected), len(got), "OK" if ok else "FAIL"))
    return 0 if ok and expected else 1


def main(argv):
    if "--self-test" in argv:
        # The D1-D8 fixtures only: starnuma_hotpath.py and
        # starnuma_taint.py each self-test their own rules.
        return self_test()
    paths = [a for a in argv if not a.startswith("-")]
    if not paths:
        paths = [os.path.join(REPO_ROOT, "src"),
                 os.path.join(REPO_ROOT, "tests")]
    bad = [p for p in paths if not os.path.exists(p)]
    if bad:
        print("starnuma-lint: no such path: %s" % ", ".join(bad),
              file=sys.stderr)
        return 2
    findings = lint_files(paths)
    for f in findings:
        print(f)
    # Per-rule counts keep regressions visible even when the run is
    # clean (scripts/run_lint.sh surfaces them next to wall times).
    print("starnuma-lint: rule counts: " +
          " ".join("%s=%d" % (r, sum(1 for f in findings
                                     if f.rule == r))
                   for r in RULES))
    if findings:
        print("starnuma-lint: %d finding(s)" % len(findings))
        return 1
    print("starnuma-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
