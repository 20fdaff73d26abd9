#!/usr/bin/env python3
"""starnuma-taint: interprocedural determinism-taint and cache-key
purity analyzer (DESIGN.md §15). Built on the shared tokenizer,
function indexer and name-based call graph in starnuma_lint_core.py;
clang-free like the rest of the D-rule family.

Rules
-----
D12 Nondeterminism taint. Values originating at a taint source must
    not reach an artifact sink. Sources: wall-clock reads
    (``steady_clock``/``system_clock``/``clock_gettime``/...)
    outside the trusted ``src/sim/obs/`` layer, thread ids,
    pointer-to-integer ``reinterpret_cast``, ``getenv`` outside a
    documented ``STARNUMA_*`` gate line, host RNG outside
    ``src/sim/rng.*``, and iteration over a non-Flat unordered
    container not annotated ``// lint: order-independent``. Sinks:
    the checkpoint/trace serializers (``putVarint``/``putDouble``/
    ``encodeColumnar``), ``obs::Registry``/``TimeSeries``/
    ``AuditLog`` emission and the ``RunSink``/``Snapshot``
    aggregation methods, bench-JSON ``recordResult``, and member
    stores into the artifact structs (``TraceSimResult``/
    ``Checkpoint``/``WorkloadTrace``/``AuditRecord``). Taint
    propagates over the call graph through assignments, returns,
    call arguments and class members; findings report the full
    source -> fn -> ... -> sink chain. Escape: ``// lint: taint-ok <reason>`` on the source
    or the sink line.

D13 Cache-key purity. Functions annotated ``// lint: artifact-root
    <name>`` are the writers of artifact <name> (``step_a_trace``,
    ``step_b_checkpoint``); every function reachable from a root may
    read only declared inputs — anything in the D12 source
    vocabulary found in reachable code is an undeclared input.
    ``getenv`` of a ``STARNUMA_*`` variable is a documented gate: it
    is allowed and recorded in the artifact's manifest instead. The
    per-artifact input manifest (``scripts/artifact_inputs.json``:
    roots, cache-key schema, declared env, escapes) is pinned by a
    ctest golden (``--check-manifest``). Escape: ``// lint:
    declared-input <reason>`` (a reviewed legitimate input) or
    ``// lint: taint-ok <reason>`` (reviewed: does not influence
    artifact bytes) on the line. Key schema: the literal
    ``field(k, "<name>", ...)`` names of each ``cache_key`` root must
    be exactly ``CACHE_KEYS`` of the kind its ``"kind"`` field names
    (``env.*`` gates aside).

D14 Sink-registration discipline. Every stats/time-series/audit
    emission site (``Registry::add*``, ``TimeSeries::sample``/
    ``addStream``, ``AuditLog::append``) outside ``src/sim/obs/``
    must sit in a function that is a cold root — annotated
    ``// lint: cold-path``, carrying ``STARNUMA_COLD_PATH``, or
    named ``registerStats`` — or is reachable from one, so no
    hot-path emission can be added unguarded. Escape: ``// lint:
    sink-ok <reason>`` on the emission line.

The engine is deliberately over-approximate (name-based call graph,
statement-level flow granularity, per-class member smearing); the
escape annotations carry the reviewed exceptions, and
scripts/check_hotpath_syms.sh backstops the artifact paths at the
binary level.

Usage
-----
    starnuma_taint.py [paths...]      # default: src bench (repo root)
    starnuma_taint.py --self-test     # run against scripts/lint_fixtures
    starnuma_taint.py --write-manifest [PATH]
    starnuma_taint.py --check-manifest [PATH]
    starnuma_taint.py --dump-reach    # list artifact-reachable functions

Exit status: 0 when clean, 1 on findings/manifest drift, 2 on usage
errors.
"""

import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import starnuma_lint_core as core  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RULES = ("D12", "D13", "D14")

TAINT_OK = "lint: taint-ok"
DECLARED_INPUT = "lint: declared-input"
SINK_OK = "lint: sink-ok"
COLD_ANNOTATION = "lint: cold-path"
ORDER_ANNOTATION = "lint: order-independent"
COLD_ATTRIBUTE = "STARNUMA_COLD_PATH"
ARTIFACT_ROOT_RE = re.compile(r"lint:\s*artifact-root\s+([A-Za-z_]\w*)")
KEY_FIELD_RE = re.compile(r'\bfield\(\s*\w+\s*,\s*"([^"]*)"')
KEY_KIND_RE = re.compile(
    r'\bfield\(\s*\w+\s*,\s*"kind"\s*,\s*(?:std::string\(\s*)?"([^"]*)"')
ENV_NAME_RE = re.compile(r"STARNUMA_\w+")

MANIFEST_DEFAULT = os.path.join(REPO_ROOT, "scripts",
                                "artifact_inputs.json")
MANIFEST_SCHEMA = "starnuma-artifact-inputs-v1"

# --- D12/D13 source vocabulary --------------------------------------

# Wall-clock reads. src/sim/obs/ is the one place host time is
# legitimate (Chrome-trace timestamps, wall-time stats channels).
WALLCLOCK = frozenset((
    "steady_clock", "system_clock", "high_resolution_clock",
    "clock_gettime", "gettimeofday",
))
THREAD_ID = frozenset(("get_id", "pthread_self", "gettid"))
# Host randomness; src/sim/rng.* is the seeded facility the repo
# funnels all randomness through (D2) and is exempt.
HOST_RNG_CALLS = frozenset(("rand", "srand"))
HOST_RNG_TYPES = frozenset((
    "random_device", "mt19937", "mt19937_64", "minstd_rand",
    "minstd_rand0", "default_random_engine",
))
GETENV = frozenset(("getenv", "secure_getenv"))
# reinterpret_cast to one of these launders an address into an
# integer — pointer values differ run to run under ASLR.
INT_CAST_TYPES = frozenset((
    "uintptr_t", "intptr_t", "uint64_t", "int64_t", "uint32_t",
    "size_t", "ptrdiff_t",
))

OBS_DIR = "src/sim/obs/"

UNORDERED_DECL = re.compile(r"\bunordered_(?:map|set|multimap|"
                            r"multiset)\s*<")
FLAT_DECL = re.compile(r"\bFlat(?:Map|Set)\s*<")
RANGE_FOR = re.compile(
    r"\bfor\s*\(([^;()]*?):\s*&?\s*([A-Za-z_][\w.\->]*)\s*\)")

# --- D12 sink vocabulary --------------------------------------------

# method name -> receiver classes it is a sink on (receivers are
# matched through a tree-wide declared-variable-name table, so
# stats::Mean::sample does not alias TimeSeries::sample).
METHOD_SINKS = {
    "sample": ("TimeSeries",),
    "addStream": ("TimeSeries",),
    "append": ("AuditLog",),
    "addCounter": ("Registry",),
    "addCounterFn": ("Registry",),
    "addGauge": ("Registry",),
    "addGaugeFn": ("Registry",),
    "addMean": ("Registry",),
    "addHistogram": ("Registry",),
    "add": ("RunSink",),
    "set": ("Snapshot",),
    "setCount": ("Snapshot",),
    # Writes into the content-addressed artifact store persist
    # artifact bytes (DESIGN.md §16).
    "putObject": ("Store",),
}
# Free/utility functions that serialize artifact bytes directly.
BARE_SINKS = frozenset((
    "recordResult", "putVarint", "putDouble", "encodeColumnar",
))
# Member stores into these structs become artifact bytes.
SINK_STORE_CLASSES = ("TraceSimResult", "Checkpoint",
                      "WorkloadTrace", "AuditRecord")

# --- D14 emission vocabulary (registration-gated subset: the
# RunSink's own add() runs behind its enabled() gate and is not the
# hazard) ------------------------------------------------------------

EMISSION_METHODS = {
    "sample": ("TimeSeries",),
    "addStream": ("TimeSeries",),
    "append": ("AuditLog",),
    "addCounter": ("Registry",),
    "addCounterFn": ("Registry",),
    "addGauge": ("Registry",),
    "addGaugeFn": ("Registry",),
    "addMean": ("Registry",),
    "addHistogram": ("Registry",),
}

RECEIVER_CLASSES = sorted(
    {c for v in METHOD_SINKS.values() for c in v} |
    {c for v in EMISSION_METHODS.values() for c in v} |
    set(SINK_STORE_CLASSES))

# Declared-input schema for ROADMAP item 5's cache keys: every byte
# of the artifact must be a function of these fields (plus the
# declared_env gates the analyzer discovers).
CACHE_KEYS = {
    "step_a_trace": [
        "workload.name",
        "workload.parameters",
        "scale",
        "trace.format_version",
        "code.epoch",
    ],
    "step_b_checkpoint": [
        "trace.content",
        "setup.topology",
        "setup.policy",
        "scale",
        "rng.seed",
        "checkpoint.format_version",
    ],
    # Full experiment-result bundles ("STARRES2"): metrics + the
    # embedded step-B artifact. Observed runs never use this tier.
    "experiment_result": [
        "workload.name",
        "trace.content",
        "setup.topology",
        "setup.policy",
        "scale",
        "rng.seed",
        "checkpoint.format_version",
        "result.format_version",
        "code.epoch",
    ],
    # The key-derivation functions themselves (driver/artifact_key.cc)
    # are artifact roots so D12 proves the keys read only declared,
    # deterministic inputs; they have no key of their own.
    "cache_key": [],
}

def rng_exempt(rel):
    base = os.path.basename(rel)
    return rel.startswith("src/sim/") and base.startswith("rng.")


def trusted(rel):
    """The obs implementation layer and the seeded RNG facility are
    trusted kernels: sources inside them are legitimate, and taint
    is not propagated through their bodies."""
    return rel.startswith(OBS_DIR) or rng_exempt(rel)


class_of = core.class_of


class Flow:
    """One taint flow: the source occurrence plus the function chain
    it travelled (first discovery wins, so chains are stable and the
    fixpoint terminates on key growth alone)."""

    __slots__ = ("kind", "rel", "line", "chain")

    def __init__(self, kind, rel, line, chain):
        self.kind = kind
        self.rel = rel
        self.line = line
        self.chain = chain


def extend(flow, qualname):
    if qualname in flow.chain:
        return flow
    return Flow(flow.kind, flow.rel, flow.line,
                flow.chain + (qualname,))


def merge(dst, src, via=None):
    """Add @p src flows into @p dst (first-wins per source id);
    returns whether anything new appeared."""
    changed = False
    for fid, fl in src.items():
        if fid not in dst:
            dst[fid] = extend(fl, via) if via else fl
            changed = True
    return changed


class Analyzer:
    def __init__(self, tree):
        self.tree = tree
        self.graph = core.CallGraph(tree, RECEIVER_CLASSES)
        self.decl = self._build_decl_table()
        self.params = {}       # id(f) -> [param name or None]
        self.stmts = {}        # id(f) -> [(tok_start, tok_end)]
        self.edges = {}        # id(f) -> [FunctionDef]
        self.has_source = {}   # id(f) -> bool
        self.range_sites = {}  # rel -> [(line, varname)]
        self.fn_param = {}     # id(f) -> {pname: {src_id: Flow}}
        self.fn_ret = {}       # id(f) -> {src_id: Flow}
        self.member = {}       # "Cls::name" -> {src_id: Flow}
        self.env_gates = {}    # (rel, line) -> (env_name, f)
        self.findings = []
        self.seen = set()
        self.artifacts = {}    # name -> {"roots", "reach", "env",
                               #          "escapes"}
        self.n_cold_roots = 0
        self._prepare()

    # --- one-time prep ----------------------------------------------

    def _build_decl_table(self):
        """Per-sink-class view of the call graph's declared-variable
        table: sink receiver class -> names declared with it."""
        table = {cls: set() for cls in RECEIVER_CLASSES}
        for name, owners in self.graph.var_classes.items():
            for cls in owners:
                if cls in table:
                    table[cls].add(name)
        return table

    def _resolve(self, name, qual, recv):
        return self.graph.resolve(name, qual, recv)

    def _prepare(self):
        for rel in sorted(self.tree):
            sf = self.tree[rel]
            self.range_sites[rel] = self._find_range_sites(sf)
            for f in sf.funcs:
                self.params[id(f)] = core.param_names(sf.toks, f)
                self.stmts[id(f)] = self._segment(sf, f)
                self.edges[id(f)] = self._call_edges(sf, f)
                self.has_source[id(f)] = self._scan_sources(sf, f)

    def _find_range_sites(self, sf):
        """(line, loop_var) for every range-for over a non-Flat
        unordered container not annotated order-independent."""
        code = "\n".join(sf.code_lines)
        unordered = core.collect_decl_names(code, UNORDERED_DECL) - \
            core.collect_decl_names(code, FLAT_DECL)
        sites = []
        if not unordered:
            return sites
        for idx, line_code in enumerate(sf.code_lines):
            window = " ".join(sf.code_lines[idx:idx + 2])
            m = RANGE_FOR.search(window)
            if not m or m.start() > len(line_code):
                continue
            container = re.split(r"[.\->\[]", m.group(2))[0]
            if container not in unordered:
                continue
            if core.line_annotated(sf, idx + 1, ORDER_ANNOTATION):
                continue
            for var in re.findall(r"[A-Za-z_]\w*", m.group(1)):
                if var not in core.NON_CALL_KEYWORDS:
                    sites.append((idx + 1, var))
        return sites

    def _segment(self, sf, f):
        """Statement token ranges: split the body at ';'/'{'/'}'
        outside parentheses (so a lambda passed as a call argument
        stays inside the call's statement and its captures reach the
        sink check)."""
        toks = sf.toks
        out = []
        start = f.body_start
        depth = 0
        j = f.body_start
        while j < f.body_end:
            t = toks[j].text
            if t == "(":
                depth += 1
            elif t == ")":
                depth = max(0, depth - 1)
            elif depth == 0 and t in (";", "{", "}"):
                if j > start:
                    out.append((start, j))
                start = j + 1
            j += 1
        if f.body_end > start:
            out.append((start, f.body_end))
        return out

    def _call_edges(self, sf, f):
        """Outgoing call targets (resolved calls + constructor
        mentions), for the D13/D14 reachability walks."""
        toks = sf.toks
        out = []
        seen = set()
        j = f.body_start
        while j < f.body_end:
            t = toks[j].text
            if core.is_ident(t):
                nxt = toks[j + 1].text if j + 1 < f.body_end else ""
                prv = toks[j - 1].text if j > 0 else ""
                targets = ()
                if nxt == "(" and t not in core.NON_CALL_KEYWORDS:
                    qual, recv = self._call_context(toks, j)
                    targets = self._resolve(t, qual, recv)
                elif nxt != "(" and t in self.graph.ctor_classes:
                    targets = self.graph.ctor_classes[t]
                for tgt in targets:
                    if id(tgt) not in seen:
                        seen.add(id(tgt))
                        out.append(tgt)
            j += 1
        return out

    # --- source classification --------------------------------------

    def _source_kind(self, sf, f, j, honor_escape=True):
        """Source description for the token at @p j, or None.
        Records STARNUMA_* getenv gates as a side effect. With
        @p honor_escape a `// lint: taint-ok` line reads as no
        source; D13 passes False so reviewed escapes still land in
        the manifest."""
        toks = sf.toks
        t = toks[j].text
        rel = sf.rel
        if rel.startswith(OBS_DIR):
            return None
        line = toks[j].line
        nxt = toks[j + 1].text if j + 1 < len(toks) else ""
        kind = None
        if t in WALLCLOCK:
            kind = "wall-clock read ('%s')" % t
        elif t in THREAD_ID and nxt == "(":
            kind = "thread-id read ('%s')" % t
        elif t in HOST_RNG_CALLS and nxt == "(" and \
                not rng_exempt(rel):
            kind = "host RNG ('%s')" % t
        elif t in HOST_RNG_TYPES and not rng_exempt(rel):
            kind = "host RNG ('%s')" % t
        elif t in GETENV and nxt == "(":
            raw = sf.raw_lines[line - 1] \
                if line <= len(sf.raw_lines) else ""
            gate = ENV_NAME_RE.search(raw)
            if gate:
                self.env_gates[(rel, line)] = (gate.group(0), f)
                return None
            kind = "environment read ('%s')" % t
        elif t == "reinterpret_cast" and nxt == "<":
            k = j + 2
            depth = 1
            while k < len(toks) and depth:
                tt = toks[k].text
                if tt == "<":
                    depth += 1
                elif tt == ">":
                    depth -= 1
                elif depth == 1 and tt in INT_CAST_TYPES:
                    kind = ("pointer-to-integer cast "
                            "('reinterpret_cast<%s>')" % tt)
                k += 1
        if kind and honor_escape and \
                core.line_annotated(sf, line, TAINT_OK):
            return None
        return kind

    def _scan_sources(self, sf, f):
        found = False
        j = f.body_start
        while j < f.body_end:
            if core.is_ident(sf.toks[j].text) and \
                    self._source_kind(sf, f, j):
                found = True
            j += 1
        if any(f.body_open_line <= line <= f.body_close_line
               for line, _ in self.range_sites[sf.rel]):
            found = True
        return found

    # --- D12 dataflow -----------------------------------------------

    def _call_context(self, toks, j):
        """(qual, receiver) for the call at token @p j."""
        prv = toks[j - 1].text if j > 0 else ""
        if prv == "::" and j >= 2 and core.is_ident(toks[j - 2].text):
            return toks[j - 2].text, None
        if prv in (".", "->") and j >= 2 and \
                core.is_ident(toks[j - 2].text):
            return None, toks[j - 2].text
        return None, None

    def _split_args(self, toks, a, b):
        """Argument token ranges of a call whose '(' is at a-1 and
        whose matching ')' is at b."""
        args = []
        start = a
        depth = 0
        j = a
        while j < b:
            t = toks[j].text
            if t in ("(", "[", "{"):
                depth += 1
            elif t in (")", "]", "}"):
                depth -= 1
            elif t == "," and depth == 0:
                args.append((start, j))
                start = j + 1
            j += 1
        if b > start:
            args.append((start, b))
        return args

    def _slice_flows(self, sf, f, a, b, env):
        """Taint flows carried by the expression tokens [a, b)."""
        toks = sf.toks
        out = {}
        cls = class_of(f)
        j = a
        while j < b:
            t = toks[j].text
            if not core.is_ident(t):
                j += 1
                continue
            line = toks[j].line
            nxt = toks[j + 1].text if j + 1 < b else ""
            prv = toks[j - 1].text if j > a else ""
            kind = self._source_kind(sf, f, j)
            if kind:
                fid = (kind, sf.rel, line)
                out.setdefault(
                    fid, Flow(kind, sf.rel, line, (f.qualname,)))
            elif nxt == "(" and t not in core.NON_CALL_KEYWORDS:
                qual, recv = self._call_context(toks, j)
                for tgt in self._resolve(t, qual, recv):
                    if trusted(tgt.file_key):
                        continue
                    merge(out, self.fn_ret.get(id(tgt), {}),
                          via=f.qualname)
            elif prv not in (".", "->", "::"):
                if t in env:
                    merge(out, env[t])
                elif cls:
                    merge(out, self.member.get(
                        "%s::%s" % (cls, t), {}), via=f.qualname)
            elif prv in (".", "->") and j >= 2 and \
                    toks[j - 2].text == "this" and cls:
                merge(out, self.member.get(
                    "%s::%s" % (cls, t), {}), via=f.qualname)
            j += 1
        return out

    def _find_assign(self, toks, a, b):
        """Token index of the statement's top-level assignment '=',
        or None. Skips ==/!=/<=/>= and template/paren nesting."""
        depth = 0
        j = a
        while j < b:
            t = toks[j].text
            if t in ("(", "[", "{"):
                depth += 1
            elif t in (")", "]", "}"):
                depth -= 1
            elif t == "=" and depth == 0:
                prv = toks[j - 1].text if j > a else ""
                nxt = toks[j + 1].text if j + 1 < b else ""
                if prv not in ("=", "!", "<", ">") and nxt != "=":
                    return j
            j += 1
        return None

    def _lhs_target(self, toks, a, eq):
        """(field, obj) for the assignment target ending at @p eq:
        obj is the '.'/'->' base (or None for a plain identifier),
        with index groups skipped."""
        end = eq
        while end - 1 > a and toks[end - 1].text in (
                "+", "-", "*", "/", "%", "&", "|", "^", "<", ">"):
            end -= 1
        k = end - 1
        depth = 0
        while k >= a:
            t = toks[k].text
            if t == "]":
                depth += 1
            elif t == "[":
                depth -= 1
            elif depth == 0 and core.is_ident(t):
                break
            elif depth == 0 and t == ")":
                return None, None
            k -= 1
        if k < a or not core.is_ident(toks[k].text):
            return None, None
        field = toks[k].text
        obj = None
        if k - 1 >= a and toks[k - 1].text in (".", "->"):
            m = k - 2
            depth = 0
            while m >= a:
                t = toks[m].text
                if t == "]":
                    depth += 1
                elif t == "[":
                    depth -= 1
                elif depth == 0 and core.is_ident(t):
                    break
                elif depth == 0 and t == ")":
                    return field, None
                m -= 1
            if m >= a and core.is_ident(toks[m].text):
                obj = toks[m].text
        return field, obj

    def _report_d12(self, sf, line, sink_desc, flows):
        if sf.rel.startswith(OBS_DIR):
            return
        if core.line_annotated(sf, line, TAINT_OK):
            return
        for fid in sorted(flows):
            key = (sf.rel, line, fid)
            if key in self.seen:
                continue
            self.seen.add(key)
            fl = flows[fid]
            self.findings.append(core.Finding(
                "D12", sf.rel, line,
                "%s at %s:%d reaches artifact sink %s (flow: %s); "
                "fix the flow or annotate '// %s <reason>' on the "
                "source or sink line"
                % (fl.kind, fl.rel, fl.line, sink_desc,
                   " -> ".join(fl.chain), TAINT_OK)))

    def _pass_function(self, sf, f, report):
        toks = sf.toks
        cls = class_of(f)
        env = {}
        for p, flows in self.fn_param.get(id(f), {}).items():
            env[p] = dict(flows)
        for line, var in self.range_sites[sf.rel]:
            if f.body_open_line <= line <= f.body_close_line:
                kind = "unordered-container iteration"
                fid = (kind, sf.rel, line)
                env.setdefault(var, {}).setdefault(
                    fid, Flow(kind, sf.rel, line, (f.qualname,)))
        changed = False
        rounds = 2 + (1 if report else 0)
        for rnd in range(rounds):
            reporting = report and rnd == rounds - 1
            for a, b in self.stmts[id(f)]:
                # Assignment.
                eq = self._find_assign(toks, a, b)
                if eq is not None:
                    rhs = self._slice_flows(sf, f, eq + 1, b, env)
                    if rhs:
                        field, obj = self._lhs_target(toks, a, eq)
                        if field and obj is None:
                            dst = env.setdefault(field, {})
                            merge(dst, rhs)
                            if cls and field not in \
                                    self.params.get(id(f), ()):
                                changed |= merge(
                                    self.member.setdefault(
                                        "%s::%s" % (cls, field), {}),
                                    rhs)
                        elif field and obj == "this" and cls:
                            changed |= merge(
                                self.member.setdefault(
                                    "%s::%s" % (cls, field), {}),
                                rhs)
                        elif field and obj:
                            merge(env.setdefault(obj, {}), rhs)
                            if reporting:
                                stores = [
                                    c for c in SINK_STORE_CLASSES
                                    if obj in self.decl[c]]
                                if stores:
                                    self._report_d12(
                                        sf, toks[eq].line,
                                        "%s member store '%s.%s'"
                                        % (stores[0], obj, field),
                                        rhs)
                # Return.
                if toks[a].text == "return":
                    rf = self._slice_flows(sf, f, a + 1, b, env)
                    if rf:
                        changed |= merge(
                            self.fn_ret.setdefault(id(f), {}), rf)
                # Calls: argument -> parameter edges, sink checks.
                j = a
                while j < b:
                    t = toks[j].text
                    if not (core.is_ident(t) and j + 1 < b and
                            toks[j + 1].text == "(" and
                            t not in core.NON_CALL_KEYWORDS):
                        j += 1
                        continue
                    close = core._match_paren(toks, j + 1) - 1
                    args = self._split_args(
                        toks, j + 2, min(close, f.body_end))
                    argflows = [
                        self._slice_flows(sf, f, s, e, env)
                        for s, e in args]
                    qual, recv = self._call_context(toks, j)
                    for tgt in self._resolve(t, qual, recv):
                        if trusted(tgt.file_key):
                            continue
                        ps = self.params.get(id(tgt))
                        if ps is None:
                            continue
                        store = self.fn_param.setdefault(
                            id(tgt), {})
                        for k, fl in enumerate(argflows):
                            if not fl or k >= len(ps) or \
                                    ps[k] is None:
                                continue
                            changed |= merge(
                                store.setdefault(ps[k], {}), fl,
                                via=tgt.qualname)
                    if reporting:
                        sink = None
                        if t in BARE_SINKS and recv is None:
                            sink = "%s()" % t
                        elif recv is not None and \
                                t in METHOD_SINKS:
                            for c in METHOD_SINKS[t]:
                                if recv in self.decl[c]:
                                    sink = "%s::%s (via '%s')" \
                                        % (c, t, recv)
                                    break
                        if sink:
                            tainted = {}
                            for fl in argflows:
                                merge(tainted, fl)
                            if tainted:
                                self._report_d12(
                                    sf, toks[j].line, sink, tainted)
                    j += 1
        return changed

    def run_taint(self):
        order = [(rel, f) for rel in sorted(self.tree)
                 for f in self.tree[rel].funcs
                 if not trusted(rel)]
        for _ in range(20):
            changed = False
            for rel, f in order:
                if not self._maybe_tainted(f):
                    continue
                changed |= self._pass_function(
                    self.tree[rel], f, report=False)
            if not changed:
                break
        for rel, f in order:
            if self._maybe_tainted(f):
                self._pass_function(self.tree[rel], f, report=True)

    def _maybe_tainted(self, f):
        if self.has_source.get(id(f)) or self.fn_param.get(id(f)):
            return True
        cls = class_of(f)
        if cls and any(k.startswith(cls + "::")
                       for k in self.member):
            return True
        return any(self.fn_ret.get(id(t))
                   for t in self.edges[id(f)])

    # --- D13: artifact purity + manifest ----------------------------

    def _artifact_names(self, sf, f):
        lo = max(0, f.decl_line - 1)
        hi = min(f.body_open_line, len(sf.raw_lines))
        names = []
        for j in range(lo, hi):
            names += ARTIFACT_ROOT_RE.findall(sf.raw_lines[j])
        k = lo - 1
        while k >= 0:
            stripped = sf.raw_lines[k].strip()
            if not (stripped.startswith("//") or
                    stripped.startswith("*") or
                    stripped.startswith("/*") or stripped == ""):
                break
            names += ARTIFACT_ROOT_RE.findall(sf.raw_lines[k])
            k -= 1
        return names

    def _bfs(self, roots):
        visited = {}
        work = []
        for r in roots:
            visited[id(r)] = r
            work.append(r)
        while work:
            f = work.pop(0)
            for tgt in self.edges[id(f)]:
                if id(tgt) in visited:
                    continue
                if tgt.file_key.startswith(OBS_DIR) or \
                        rng_exempt(tgt.file_key):
                    continue
                visited[id(tgt)] = tgt
                work.append(tgt)
        return visited

    def check_d13(self):
        roots = {}
        for rel in sorted(self.tree):
            sf = self.tree[rel]
            for f in sf.funcs:
                for name in self._artifact_names(sf, f):
                    roots.setdefault(name, []).append(f)
        seen = set()
        for f in roots.get("cache_key", []):
            self._check_key_schema(self.tree[f.file_key], f)
        for name in sorted(roots):
            reach = self._bfs(roots[name])
            env = set()
            escapes = set()
            for f in sorted(reach.values(),
                            key=lambda f: (f.file_key, f.name_line)):
                sf = self.tree[f.file_key]
                self._scan_impure(sf, f, name, env, escapes, seen)
            self.artifacts[name] = {
                "roots": roots[name],
                "reach": reach,
                "env": env,
                "escapes": escapes,
            }
        return len(roots)

    def _check_key_schema(self, sf, f):
        lines = range(f.body_open_line, f.body_close_line + 1)
        text = "\n".join(sf.raw_lines[i - 1] for i in lines)
        kind = KEY_KIND_RE.search(text)
        declared = CACHE_KEYS.get(kind.group(1)) if kind else None
        if declared is None:
            declared = []
            self._key_finding(sf, f.name_line, f, "no CACHE_KEYS kind")
        written = set()
        for i in lines:
            for name in KEY_FIELD_RE.findall(sf.raw_lines[i - 1]):
                written.add(name)
                if name != "kind" and not name.startswith("env.") \
                        and name not in declared:
                    self._key_finding(sf, i, f, "undeclared field "
                                      "'%s'" % name)
        for name in sorted(set(declared) - written):
            self._key_finding(sf, f.name_line, f, "no declared field "
                              "'%s'" % name)

    def _key_finding(self, sf, line, f, what):
        self.findings.append(core.Finding(
            "D13", sf.rel, line, "cache_key root '%s' writes %s; its "
            "field names must match CACHE_KEYS of its kind"
            % (f.qualname, what)))

    def _scan_impure(self, sf, f, artifact, env, escapes, seen):
        toks = sf.toks
        j = f.body_start
        while j < f.body_end:
            t = toks[j].text
            if core.is_ident(t):
                line = toks[j].line
                gate = self.env_gates.get((sf.rel, line))
                if gate is not None and t in GETENV:
                    env.add(gate[0])
                else:
                    kind = self._source_kind(sf, f, j,
                                             honor_escape=False)
                    if kind:
                        if core.line_annotated(
                                sf, line, DECLARED_INPUT) or \
                                core.line_annotated(sf, line,
                                                    TAINT_OK):
                            escapes.add("%s:%d" % (sf.rel, line))
                        elif (sf.rel, line, kind) not in seen:
                            seen.add((sf.rel, line, kind))
                            self.findings.append(core.Finding(
                                "D13", sf.rel, line,
                                "'%s' is reachable from artifact "
                                "'%s' roots but reads an undeclared "
                                "input: %s; artifact bytes must be "
                                "a function of the declared cache "
                                "key only — remove it or annotate "
                                "'// %s <reason>' (or '// %s "
                                "<reason>' if reviewed as "
                                "non-flowing)"
                                % (f.qualname, artifact, kind,
                                   DECLARED_INPUT, TAINT_OK)))
            j += 1

    def manifest(self):
        arts = {}
        for name in sorted(self.artifacts):
            a = self.artifacts[name]
            arts[name] = {
                "cache_key": CACHE_KEYS.get(name, []),
                "declared_env": sorted(a["env"]),
                "escapes": sorted(a["escapes"]),
                "roots": sorted(f.qualname for f in a["roots"]),
            }
        doc = {"schema": MANIFEST_SCHEMA, "artifacts": arts}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    # --- D14: sink-registration discipline --------------------------

    def check_d14(self):
        cold = []
        for rel in sorted(self.tree):
            sf = self.tree[rel]
            for f in sf.funcs:
                if f.name == "registerStats" or \
                        core.func_annotated(sf, f, COLD_ANNOTATION) \
                        or core.func_annotated(sf, f,
                                               COLD_ATTRIBUTE):
                    cold.append(f)
        self.n_cold_roots = len(cold)
        reach = self._bfs(cold)
        for rel in sorted(self.tree):
            if rel.startswith(OBS_DIR):
                continue
            sf = self.tree[rel]
            for f in sf.funcs:
                if id(f) in reach:
                    continue
                self._scan_emissions(sf, f)
        return len(cold)

    def _scan_emissions(self, sf, f):
        toks = sf.toks
        j = f.body_start
        while j < f.body_end:
            t = toks[j].text
            if core.is_ident(t) and t in EMISSION_METHODS and \
                    j + 1 < f.body_end and toks[j + 1].text == "(":
                _, recv = self._call_context(toks, j)
                hit = None
                if recv is not None:
                    for c in EMISSION_METHODS[t]:
                        if recv in self.decl[c]:
                            hit = c
                            break
                line = toks[j].line
                if hit and not core.line_annotated(sf, line,
                                                   SINK_OK):
                    self.findings.append(core.Finding(
                        "D14", sf.rel, line,
                        "%s::%s emission in '%s', which is neither "
                        "a cold-annotated root (// %s, %s, or "
                        "registerStats) nor reachable from one; "
                        "move it behind a registered root or "
                        "annotate '// %s <reason>'"
                        % (hit, t, f.qualname, COLD_ANNOTATION,
                           COLD_ATTRIBUTE, SINK_OK)))
            j += 1


def analyze(paths, root):
    tree = core.load_tree(paths, root)
    an = Analyzer(tree)
    an.run_taint()
    n_art = an.check_d13()
    an.check_d14()
    an.findings.sort(key=lambda f: (f.path, f.line, f.rule,
                                    f.message))
    return an, n_art


def self_test():
    """Fixtures mark expected findings with `expect-lint: D<n>`; the
    analyzer must report exactly the expected (file, line, rule) set
    for its rules D12-D14 and nothing else."""
    fixture_dir = os.path.join(REPO_ROOT, "scripts", "lint_fixtures")
    expected = set()
    for path in core.iter_source_files([fixture_dir]):
        with open(path, encoding="utf-8") as fh:
            for idx, text in enumerate(fh):
                for rule in re.findall(r"expect-lint:\s*(D\d+)\b",
                                       text):
                    if rule in RULES:
                        expected.add(
                            (core.relpath(path, fixture_dir),
                             idx + 1, rule))
    an, _ = analyze([fixture_dir], fixture_dir)
    got = {(f.path, f.line, f.rule) for f in an.findings}
    ok = True
    for miss in sorted(expected - got):
        print("taint self-test: MISSED expected finding "
              "%s:%d [%s]" % miss)
        ok = False
    for extra in sorted(got - expected):
        print("taint self-test: UNEXPECTED finding %s:%d [%s]"
              % extra)
        ok = False
    print("taint self-test: %d expected findings, %d reported, %s"
          % (len(expected), len(got), "OK" if ok else "FAIL"))
    return 0 if ok and expected else 1


def main(argv):
    if "--self-test" in argv:
        return self_test()
    write_manifest = "--write-manifest" in argv
    check_manifest = "--check-manifest" in argv
    dump_reach = "--dump-reach" in argv
    paths = [a for a in argv if not a.startswith("-")]
    manifest_path = MANIFEST_DEFAULT
    if paths and paths[-1].endswith(".json"):
        manifest_path = paths.pop()
    if not paths:
        paths = [os.path.join(REPO_ROOT, "src"),
                 os.path.join(REPO_ROOT, "bench")]
    bad = [p for p in paths if not os.path.exists(p)]
    if bad:
        print("starnuma-taint: no such path: %s" % ", ".join(bad),
              file=sys.stderr)
        return 2
    an, n_art = analyze(paths, REPO_ROOT)
    for f in an.findings:
        print(f)
    print("starnuma-taint: artifacts=%d cold-roots=%d" %
          (n_art, an.n_cold_roots))
    print("starnuma-taint: rule counts: " +
          " ".join("%s=%d" % (r, sum(1 for f in an.findings
                                     if f.rule == r))
                   for r in RULES))
    if dump_reach:
        for name in sorted(an.artifacts):
            for f in sorted(an.artifacts[name]["reach"].values(),
                            key=lambda f: (f.file_key, f.name_line)):
                print("reach[%s]: %s (%s:%d)"
                      % (name, f.qualname, f.file_key, f.name_line))
    rc = 0
    if n_art == 0:
        print("starnuma-taint: ERROR: no '// lint: artifact-root' "
              "functions found — the purity audit is vacuous "
              "(annotations deleted?)", file=sys.stderr)
        rc = 1
    if an.n_cold_roots == 0:
        print("starnuma-taint: ERROR: no cold-annotated/"
              "registerStats roots found — the sink audit is "
              "vacuous (annotations deleted?)", file=sys.stderr)
        rc = 1
    if write_manifest:
        with open(manifest_path, "w", encoding="utf-8") as fh:
            fh.write(an.manifest())
        print("starnuma-taint: wrote %s"
              % core.relpath(manifest_path, REPO_ROOT))
    elif check_manifest:
        want = an.manifest()
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                have = fh.read()
        except OSError:
            have = None
        if have != want:
            print("starnuma-taint: MANIFEST DRIFT: %s does not "
                  "match the analyzed tree; regenerate with "
                  "--write-manifest and review the diff"
                  % core.relpath(manifest_path, REPO_ROOT),
                  file=sys.stderr)
            rc = 1
        else:
            print("starnuma-taint: manifest matches (%s)"
                  % core.relpath(manifest_path, REPO_ROOT))
    if an.findings:
        print("starnuma-taint: %d finding(s)" % len(an.findings))
        return 1
    if rc == 0:
        print("starnuma-taint: clean")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
