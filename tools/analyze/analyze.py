#!/usr/bin/env python3
"""Multi-pass, compiler-free static analyzer for repo architecture and
conventions.

It tokenizes every C++ source under src/, bench/, tests/ and examples/ and
checks facts the type system cannot express, both structural ones that
only exist across files and per-file conventions:

  Pass 1 — layering.  The #include graph over src/ is checked against the
      declared layer DAG (tools/analyze/layers.json): every edge must go to
      the same layer or to a layer the source layer is allowed to depend on,
      file-level include cycles are reported, test-only layers (datagen) may
      not be included from product layers, and the condensed layer graph is
      emitted as a checked-in Graphviz artifact (include_graph.dot). Specific
      legacy edges are allowlisted per-file in layers.json with a reason —
      there is no blanket suppression.

  Pass 2 — observability schema.  tools/analyze/obs_schema.json is the
      canonical registry of every counter/gauge/histogram/span name.
      src/obs/obs_schema.gen.h is generated from it (constexpr kObs*
      constants plus the all-names table the Prometheus golden test checks
      against); this pass verifies the header is byte-identical to what the
      manifest renders (--fix regenerates it), that every name literal at an
      obs call site is registered, that every registered name is actually
      referenced somewhere (drift: a typo'd counter can no longer silently
      fork a series), that manifest names obey the layer.noun[_verb]
      grammar, and that subsystem prefix rules (net., query.) hold for both
      literals and schema-constant references.

  Pass 3 — codec exhaustiveness.  For the enums named in layers.json
      ("exhaustive_enums": wire MessageType/ErrCode/StreamEndReason, job
      states, ...), every switch over the enum must name every enumerator
      explicitly — a `default:` label does not excuse a missing case, so
      adding a frame type without confronting every codec and dispatch
      switch fails this gate instead of becoming a runtime protocol error.

  Pass 4 — conventions.  Per-file rules over code tokens, so comments
      never match: nested-rowid, naked-mutex, header-guard, nondeterminism,
      rpc-obs-prefix, naked-http, naked-socket and naked-thread. Each rule
      sweeps its own trees and exempts its home files (CONVENTION_RULES;
      the table in DESIGN.md "Architecture conformance" gives the reasons).

Suppress one occurrence with `// analyze-allow: <rule>` on the offending
line (rules: layering, include-cycle, obs-schema, exhaustive, and the pass 4
rule names above), with a comment giving the reason.

Usage:
  analyze.py [--root DIR] [--config DIR]   run all passes (exit 1 on findings)
  analyze.py --fix                         regenerate obs_schema.gen.h + .dot
  analyze.py --self-test                   prove every rule fires and passes
  analyze.py --dump-names                  list scanned obs names (dev aid)
"""

import argparse
import functools
import json
import os
import re
import sys

SOURCE_EXTS = (".h", ".cc", ".cpp")
GEN_HEADER_REL = os.path.join("src", "obs", "obs_schema.gen.h")
DOT_NAME = "include_graph.dot"

SUPPRESS_RE = re.compile(r"//\s*analyze-allow:\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)")

# A legal obs name (DESIGN.md "Observability"): dotted lowercase, >= 2
# segments, layer.noun[_verb], first segment = owning subsystem.
OBS_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")

# Directory -> mandatory first segment for obs names used there, so each
# subsystem's telemetry stays greppable and dashboard-stable.
PREFIX_RULES = {"src/net/": "net.", "src/query/": "query."}


def required_prefix(path):
    """The name prefix obs names in `path` must carry, or None."""
    return next((prefix for directory, prefix in PREFIX_RULES.items()
                 if path.startswith(directory)), None)


# ------------------------------------------------------------------ tokenizer

TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*.*?\*/)
    | (?P<raw_string>R"(?P<delim>[^()\s\\]{0,16})\(.*?\)(?P=delim)")
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<char>'(?:[^'\\\n]|\\.)*')
    | (?P<ident>[A-Za-z_]\w*)
    | (?P<number>\.?\d(?:[eEpP][+-]|[\w.'])*)
    | (?P<punct>::|->|\#|[{}()\[\];:,<>=+\-*/%!&|^~?.@\\])
    """,
    re.X | re.S,
)


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line})"


# Memoized: every pass lexes each file once per run. Do not mutate the result.
@functools.lru_cache(maxsize=None)
def tokenize(text):
    """Lexes C++ source into (kind, text, line) tokens, dropping whitespace
    and comments. Strings keep their quotes; use str_value() for content."""
    tokens = []
    line = 1
    pos = 0
    n = len(text)
    while pos < n:
        m = TOKEN_RE.match(text, pos)
        if m is None:  # stray byte (e.g. inside a #error message): skip it
            if text[pos] == "\n":
                line += 1
            pos += 1
            continue
        kind = m.lastgroup
        if kind == "delim":  # inner group of raw_string
            kind = "raw_string"
        tok_text = m.group(0)
        if kind not in ("ws", "line_comment", "block_comment"):
            k = "string" if kind == "raw_string" else kind
            tokens.append(Token(k, tok_text, line))
        line += tok_text.count("\n")
        pos = m.end()
    return tokens


def str_value(token):
    """The content of a string token (no un-escaping: obs names and include
    paths never carry escapes)."""
    text = token.text
    if text.startswith('R"'):
        open_paren = text.index("(")
        return text[open_paren + 1 : text.rindex(")")]
    return text[1:-1]


# ------------------------------------------------------------------- findings


class Finding:
    def __init__(self, path, line_no, rule, message):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


def suppressed(rule, tree, path, line_no):
    lines = tree.get(path, "").splitlines()
    if 1 <= line_no <= len(lines):
        m = SUPPRESS_RE.search(lines[line_no - 1])
        if m and rule in {r.strip() for r in m.group(1).split(",")}:
            return True
    return False


# ---------------------------------------------------------- pass 1: layering


def file_layer(relpath):
    """Layer of a src-relative file: its first path component under src/."""
    parts = relpath.replace(os.sep, "/").split("/")
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


def collect_includes(tokens):
    """(target, line) for every `#include "..."` token triple."""
    out = []
    for i in range(len(tokens) - 2):
        if (
            tokens[i].text == "#"
            and tokens[i + 1].kind == "ident"
            and tokens[i + 1].text == "include"
            and tokens[i + 2].kind == "string"
        ):
            out.append((str_value(tokens[i + 2]), tokens[i + 2].line))
    return out


def validate_layer_config(cfg):
    """Raises ValueError if the declared layer DAG is malformed or cyclic."""
    layers = cfg.get("layers", {})
    for layer, deps in layers.items():
        for dep in deps:
            if dep not in layers:
                raise ValueError(f"layer {layer!r} depends on unknown layer {dep!r}")
    # Toposort: the *declared* DAG must be acyclic, or "allowed dependency"
    # stops meaning "strictly lower".
    state = {}  # 0=visiting, 1=done

    def visit(layer, trail):
        if state.get(layer) == 1:
            return
        if state.get(layer) == 0:
            cycle = " -> ".join(trail + [layer])
            raise ValueError(f"declared layer DAG has a cycle: {cycle}")
        state[layer] = 0
        for dep in layers[layer]:
            visit(dep, trail + [layer])
        state[layer] = 1

    for layer in layers:
        visit(layer, [])
    for layer in cfg.get("test_only", []):
        if layer not in layers:
            raise ValueError(f"test_only names unknown layer {layer!r}")


def match_exception(exc, src_file, dst_file):
    """True if allowlist entry `exc` covers the edge src_file -> dst_file.
    `from`/`to` each name either a src-relative file ("util/thread_pool.cc")
    or a whole layer ("obs")."""

    def matches(spec, relpath):
        bare = relpath.replace(os.sep, "/")
        if bare.startswith("src/"):
            bare = bare[len("src/") :]
        return spec == bare or spec == bare.split("/")[0]

    return matches(exc["from"], src_file) and matches(exc["to"], dst_file)


def pass_layering(tree, cfg):
    """Returns (findings, edges) where edges is
    {(src_layer, dst_layer): {"count": n, "status": ok|exception|violation,
                              "examples": [...]}} for the .dot artifact."""
    findings = []
    layers = cfg.get("layers", {})
    test_only = set(cfg.get("test_only", []))
    exceptions = cfg.get("exceptions", [])
    exception_used = [False] * len(exceptions)

    src_files = {p for p in tree if p.replace(os.sep, "/").startswith("src/")}
    graph = {}  # relpath -> [(target relpath, line)]
    for path in sorted(src_files):
        layer = file_layer(path)
        if layer is None:
            continue
        includes = []
        for target, line in collect_includes(tokenize(tree[path])):
            resolved = "src/" + target
            if resolved in src_files:
                includes.append((resolved, line))
        graph[path] = includes

    edges = {}
    for path in sorted(graph):
        src_layer = file_layer(path)
        if src_layer not in layers:
            findings.append(
                Finding(path, 1, "layering",
                        f"layer {src_layer!r} is not declared in layers.json"))
            continue
        for target, line in graph[path]:
            dst_layer = file_layer(target)
            if dst_layer == src_layer:
                continue
            key = (src_layer, dst_layer)
            entry = edges.setdefault(
                key, {"count": 0, "status": "ok", "examples": []})
            entry["count"] += 1
            if len(entry["examples"]) < 3:
                entry["examples"].append(f"{path}:{line} -> {target}")
            legal = dst_layer in layers.get(src_layer, [])
            if legal and dst_layer in test_only:
                legal = False  # test-only layers are not importable, period
            if legal:
                continue
            excused = False
            for idx, exc in enumerate(exceptions):
                if match_exception(exc, path, target):
                    exception_used[idx] = True
                    excused = True
                    break
            if excused:
                if entry["status"] == "ok":
                    entry["status"] = "exception"
                continue
            if suppressed("layering", tree, path, line):
                continue
            entry["status"] = "violation"
            reason = (
                f"test-only layer '{dst_layer}' included from '{src_layer}'"
                if dst_layer in test_only
                else f"layer '{src_layer}' may not depend on '{dst_layer}'"
            )
            findings.append(
                Finding(path, line, "layering",
                        f"illegal include of {target}: {reason} "
                        "(declare the edge in tools/analyze/layers.json with "
                        "a reason, or break the dependency)"))

    for idx, used in enumerate(exception_used):
        if not used:
            exc = exceptions[idx]
            findings.append(
                Finding("tools/analyze/layers.json", 1, "layering",
                        f"stale allowlist entry {exc['from']} -> {exc['to']}: "
                        "no such edge exists anymore; delete it"))

    findings.extend(find_include_cycles(tree, graph))
    return findings, edges


def find_include_cycles(tree, graph):
    """File-level include cycles via iterative DFS (header guards hide them
    from the compiler; they still mean the layering is lying)."""
    findings = []
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {p: WHITE for p in graph}
    reported = set()
    for root in sorted(graph):
        if color[root] != WHITE:
            continue
        stack = [(root, iter(graph.get(root, ())))]
        trail = [root]
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for target, line in it:
                if target not in graph:
                    continue
                if color[target] == GRAY:
                    start = trail.index(target)
                    cycle = tuple(sorted(trail[start:]))
                    if cycle not in reported:
                        reported.add(cycle)
                        if not suppressed("include-cycle", tree, node, line):
                            pretty = " -> ".join(trail[start:] + [target])
                            findings.append(
                                Finding(node, line, "include-cycle",
                                        f"include cycle: {pretty}"))
                elif color[target] == WHITE:
                    color[target] = GRAY
                    trail.append(target)
                    stack.append((target, iter(graph.get(target, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                trail.pop()
                stack.pop()
    return findings


def render_dot(cfg, edges):
    """Condensed layer graph, deterministic; checked in next to layers.json
    so reviews see architecture drift as a diff."""
    layers = cfg.get("layers", {})
    test_only = set(cfg.get("test_only", []))
    out = []
    out.append("// GENERATED by tools/analyze/analyze.py --fix; DO NOT EDIT.")
    out.append("// Condensed #include graph over src/, one node per layer.")
    out.append("// Solid: declared-legal edge. Dashed: allowlisted exception")
    out.append("// (see layers.json). Bold red: violation (the gate fails).")
    out.append("digraph dhyfd_layers {")
    out.append("  rankdir=BT;")
    out.append('  node [shape=box, fontname="Helvetica"];')
    for layer in sorted(layers):
        attrs = ""
        if layer in test_only:
            attrs = ' [style=dotted, label="%s\\n(test-only)"]' % layer
        out.append(f'  "{layer}"{attrs};')
    for (src, dst), entry in sorted(edges.items()):
        style = {
            "ok": "",
            "exception": " style=dashed",
            "violation": " style=bold color=red",
        }[entry["status"]]
        out.append(
            f'  "{src}" -> "{dst}" [label="{entry["count"]}"{style}];')
    out.append("}")
    return "\n".join(out) + "\n"


# ------------------------------------------------------ pass 2: obs schema


def mangle(name):
    """Obs name -> schema constant: discover.validator.calls ->
    kObsDiscoverValidatorCalls."""
    return "kObs" + "".join(
        seg.capitalize() for seg in re.split(r"[._]", name))


def pattern_regex(pattern):
    """'*' matches within one dotted segment (mirrors ObsWildcardMatch in
    the generated header)."""
    return re.compile(
        "^" + "".join("[^.]*" if c == "*" else re.escape(c) for c in pattern)
        + "$")


def validate_manifest(manifest):
    findings = []
    seen = set()
    kinds = {"counter", "gauge", "histogram", "span"}
    loc = "tools/analyze/obs_schema.json"
    constants = set()
    for entry in manifest.get("names", []):
        name = entry.get("name", "")
        if name in seen:
            findings.append(Finding(loc, 1, "obs-schema",
                                    f"duplicate schema name {name!r}"))
        seen.add(name)
        if not OBS_NAME_RE.match(name):
            findings.append(
                Finding(loc, 1, "obs-schema",
                        f"schema name {name!r} violates the layer.noun[_verb] "
                        "grammar (dotted lowercase, first segment = "
                        "subsystem; see DESIGN.md)"))
        if entry.get("kind") not in kinds:
            findings.append(
                Finding(loc, 1, "obs-schema",
                        f"schema name {name!r} has unknown kind "
                        f"{entry.get('kind')!r}"))
        const = mangle(name)
        if const in constants:
            findings.append(
                Finding(loc, 1, "obs-schema",
                        f"schema constant collision: {const} (from {name!r})"))
        constants.add(const)
    for entry in manifest.get("patterns", []):
        pat = entry.get("pattern", "")
        if "*" not in pat:
            findings.append(
                Finding(loc, 1, "obs-schema",
                        f"pattern {pat!r} has no wildcard; register it as an "
                        "exact name instead"))
        if entry.get("kind") not in kinds:
            findings.append(
                Finding(loc, 1, "obs-schema",
                        f"pattern {pat!r} has unknown kind "
                        f"{entry.get('kind')!r}"))
        if not entry.get("witness"):
            findings.append(
                Finding(loc, 1, "obs-schema",
                        f"pattern {pat!r} needs a witness literal (the exact "
                        "string the code composes the family from)"))
    return findings


def render_header(manifest):
    """Deterministic C++ header from the manifest. Byte-stable: same manifest
    -> same bytes, so CI can `git diff --exit-code` after regeneration."""
    names = sorted(manifest.get("names", []), key=lambda e: e["name"])
    patterns = sorted(manifest.get("patterns", []), key=lambda e: e["pattern"])
    by_layer = {}
    for entry in names:
        by_layer.setdefault(entry["name"].split(".")[0], []).append(entry)

    out = []
    a = out.append
    a("// GENERATED by tools/analyze/analyze.py --fix; DO NOT EDIT.")
    a("//")
    a("// Canonical observability schema: one constant per registered")
    a("// counter/gauge/histogram/span name. Call sites reference these")
    a("// constants instead of string literals, so a typo'd name is a")
    a("// compile error instead of a silently forked metric series.")
    a("//")
    a("// Source of truth: tools/analyze/obs_schema.json.")
    a("// Regenerate:      python3 tools/analyze/analyze.py --fix")
    a("// Verified by:     tools/analyze/analyze.py (schema pass) in ci.sh")
    a("#ifndef DHYFD_OBS_OBS_SCHEMA_GEN_H_")
    a("#define DHYFD_OBS_OBS_SCHEMA_GEN_H_")
    a("")
    a("#include <cstddef>")
    a("#include <string_view>")
    a("")
    a("namespace dhyfd {")
    for layer in sorted(by_layer):
        a("")
        a(f"// --- {layer} ".ljust(78, "-"))
        for entry in by_layer[layer]:
            decl = f"inline constexpr char {mangle(entry['name'])}[] ="
            lit = f'    "{entry["name"]}";'
            a(decl)
            a(f"{lit}  // {entry['kind']}")
    a("")
    a("/// Every exact schema name, sorted (spans included); the Prometheus")
    a("/// golden test asserts exposition names are a subset of this table")
    a("/// plus the patterns below.")
    a("inline constexpr std::string_view kObsSchemaNames[] = {")
    for entry in names:
        a(f'    "{entry["name"]}",')
    a("};")
    a("")
    a("/// Dynamic name families composed at runtime; '*' matches within one")
    a("/// dotted segment.")
    a("inline constexpr std::string_view kObsSchemaPatterns[] = {")
    for entry in patterns:
        a(f'    "{entry["pattern"]}",  // {entry["kind"]}, witness '
          f'"{entry["witness"]}"')
    a("};")
    a("")
    a("inline constexpr std::size_t kObsSchemaNameCount =")
    a("    sizeof(kObsSchemaNames) / sizeof(kObsSchemaNames[0]);")
    a("")
    a("/// Wildcard match where '*' never crosses a '.' (segment-scoped).")
    a("inline bool ObsWildcardMatch(std::string_view pat,")
    a("                             std::string_view name) {")
    a("  std::size_t p = 0, n = 0;")
    a("  std::size_t star_p = std::string_view::npos, star_n = 0;")
    a("  while (n < name.size()) {")
    a("    if (p < pat.size() && pat[p] != '*' && pat[p] == name[n]) {")
    a("      ++p;")
    a("      ++n;")
    a("    } else if (p < pat.size() && pat[p] == '*') {")
    a("      star_p = p++;")
    a("      star_n = n;")
    a("    } else if (star_p != std::string_view::npos &&")
    a("               name[star_n] != '.') {")
    a("      p = star_p + 1;")
    a("      n = ++star_n;")
    a("    } else {")
    a("      return false;")
    a("    }")
    a("  }")
    a("  while (p < pat.size() && pat[p] == '*') ++p;")
    a("  return p == pat.size();")
    a("}")
    a("")
    a("/// True iff `name` is an exact schema name or matches a pattern.")
    a("inline bool ObsSchemaMatches(std::string_view name) {")
    a("  std::size_t lo = 0, hi = kObsSchemaNameCount;")
    a("  while (lo < hi) {  // kObsSchemaNames is sorted: binary search")
    a("    std::size_t mid = lo + (hi - lo) / 2;")
    a("    if (kObsSchemaNames[mid] == name) return true;")
    a("    if (kObsSchemaNames[mid] < name) {")
    a("      lo = mid + 1;")
    a("    } else {")
    a("      hi = mid;")
    a("    }")
    a("  }")
    a("  for (std::string_view pat : kObsSchemaPatterns) {")
    a("    if (ObsWildcardMatch(pat, name)) return true;")
    a("  }")
    a("  return false;")
    a("}")
    a("")
    a("}  // namespace dhyfd")
    a("")
    a("#endif  // DHYFD_OBS_OBS_SCHEMA_GEN_H_")
    return "\n".join(out) + "\n"


# Idents whose first string/constant argument is an obs name, with the kind
# the usage implies. TraceSpan may carry a declarator ident before '(';
# TraceEvent is brace-initialized.
OBS_SCAN_IDENTS = {
    "ObsAdd": "counter",
    "counter": "counter",
    "gauge": "gauge",
    "histogram": "histogram",
    "record_span": "span",
    "TraceSpan": "span",
    "TraceEvent": "span",
}


def scan_obs_usages(tree):
    """(literals, constants, all_strings) where
    literals:  [(path, line, kind, name)] for string-literal call sites
    constants: [(path, line, kind_or_None, const_ident)] for kObs* references
    all_strings: set of every string literal in src/ (witness checks)."""
    literals = []
    constants = []
    all_strings = set()
    gen_rel = GEN_HEADER_REL.replace(os.sep, "/")
    for path in sorted(tree):
        norm = path.replace(os.sep, "/")
        if not norm.startswith("src/") or norm == gen_rel:
            continue
        lits, consts, strings = scan_obs_tokens(tokenize(tree[path]))
        literals.extend((path,) + u for u in lits)
        constants.extend((path,) + u for u in consts)
        all_strings |= strings
    return literals, constants, all_strings


def scan_obs_tokens(tokens):
    """One file's ([(line, kind, name)], [(line, kind_or_None, const)],
    strings) for scan_obs_usages()."""
    literals = []
    constants = []
    strings = set()
    # Kind implied for a kObs constant passed as a call's first argument,
    # keyed by that argument's token index (the sweep reaches it later).
    arg_kinds = {}
    for i, tok in enumerate(tokens):
        if tok.kind == "string":
            strings.add(str_value(tok))
        if tok.kind != "ident":
            continue
        if tok.text.startswith("kObs"):
            constants.append((tok.line, arg_kinds.get(i), tok.text))
            continue
        kind = OBS_SCAN_IDENTS.get(tok.text)
        if kind is None:
            continue
        j = i + 1
        if (tok.text == "TraceSpan" and j < len(tokens)
                and tokens[j].kind == "ident"):
            j += 1  # declarator: TraceSpan span("...")
        if j >= len(tokens):
            continue
        opener = "{" if tok.text == "TraceEvent" else "("
        if tokens[j].text != opener:
            continue
        j += 1
        if j >= len(tokens):
            continue
        arg = tokens[j]
        if arg.kind == "string":
            literals.append((arg.line, kind, str_value(arg)))
        elif arg.kind == "ident" and arg.text.startswith("kObs"):
            # Tag the argument's index so the kObs sweep records the
            # same kind check literals get when it reaches that token.
            arg_kinds[j] = kind
    return literals, constants, strings


def pass_schema(tree, manifest, disk_header, disk_header_path=GEN_HEADER_REL):
    findings = list(validate_manifest(manifest))
    loc = "tools/analyze/obs_schema.json"

    exact = {e["name"]: e for e in manifest.get("names", [])}
    patterns = [
        (pattern_regex(e["pattern"]), e) for e in manifest.get("patterns", [])
    ]
    const_to_name = {mangle(n): n for n in exact}

    rendered = render_header(manifest)
    if disk_header is None:
        findings.append(
            Finding(disk_header_path, 1, "obs-schema",
                    "generated header is missing; run analyze.py --fix"))
    elif disk_header != rendered:
        findings.append(
            Finding(disk_header_path, 1, "obs-schema",
                    "generated header is stale (does not match "
                    "obs_schema.json); run analyze.py --fix"))

    literals, constants, all_strings = scan_obs_usages(tree)
    used = set()

    for path, line, kind, name in literals:
        if suppressed("obs-schema", tree, path, line):
            continue
        entry = exact.get(name)
        pat_entry = None
        if entry is None:
            for regex, pe in patterns:
                if regex.match(name):
                    pat_entry = pe
                    break
        if entry is None and pat_entry is None:
            findings.append(
                Finding(path, line, "obs-schema",
                        f'obs name "{name}" is not registered in {loc}; '
                        "add it (and prefer the generated kObs* constant)"))
            continue
        used.add(name)
        expected = (entry or pat_entry)["kind"]
        if expected != kind:
            findings.append(
                Finding(path, line, "obs-schema",
                        f'"{name}" is registered as a {expected} but used '
                        f"as a {kind}"))
        prefix = required_prefix(path)
        if prefix and not name.startswith(prefix):
            findings.append(
                Finding(path, line, "obs-schema",
                        f'obs name "{name}" used in this subsystem must '
                        f'start with "{prefix}" (PREFIX_RULES)'))

    for path, line, kind, const in constants:
        if suppressed("obs-schema", tree, path, line):
            continue
        name = const_to_name.get(const)
        if name is None:
            findings.append(
                Finding(path, line, "obs-schema",
                        f"{const} is not a schema constant (no matching "
                        f"name in {loc}); the build would fail too"))
            continue
        used.add(name)
        if kind is not None and exact[name]["kind"] != kind:
            findings.append(
                Finding(path, line, "obs-schema",
                        f'{const} ("{name}") is registered as a '
                        f"{exact[name]['kind']} but used as a {kind}"))
        prefix = required_prefix(path)
        if prefix and not name.startswith(prefix):
            findings.append(
                Finding(path, line, "obs-schema",
                        f'{const} ("{name}") used in this subsystem must '
                        f'start with "{prefix}" (PREFIX_RULES)'))

    for name in sorted(exact):
        if name not in used:
            findings.append(
                Finding(loc, 1, "obs-schema",
                        f'registered name "{name}" is never referenced in '
                        "src/ (neither as a literal nor via "
                        f"{mangle(name)}); delete it or wire it up"))
    for regex, entry in patterns:
        if entry["witness"] not in all_strings:
            findings.append(
                Finding(loc, 1, "obs-schema",
                        f'pattern "{entry["pattern"]}" witness literal '
                        f'"{entry["witness"]}" does not appear in src/; the '
                        "family is dead or composed differently now"))
    return findings


# ------------------------------------------- pass 3: switch exhaustiveness


def collect_enums(tree):
    """enum name -> list of enumerators, over every file under src/.
    Name collisions keep the first definition (project enums are unique)."""
    enums = {}
    for path in sorted(tree):
        if not path.startswith("src/"):
            continue
        tokens = tokenize(tree[path])
        i = 0
        n = len(tokens)
        while i < n:
            if not (tokens[i].kind == "ident" and tokens[i].text == "enum"):
                i += 1
                continue
            j = i + 1
            if j < n and tokens[j].text in ("class", "struct"):
                j += 1
            if j >= n or tokens[j].kind != "ident":
                i = j
                continue
            name = tokens[j].text
            j += 1
            while j < n and tokens[j].text not in ("{", ";"):
                j += 1
            if j >= n or tokens[j].text != "{":
                i = j  # forward declaration / opaque enum
                continue
            j += 1
            depth = 1
            values = []
            expect_name = True
            while j < n and depth > 0:
                t = tokens[j]
                if t.text == "{":
                    depth += 1
                elif t.text == "}":
                    depth -= 1
                elif depth == 1:
                    if expect_name and t.kind == "ident":
                        values.append(t.text)
                        expect_name = False
                    elif t.text == ",":
                        expect_name = True
                j += 1
            if name not in enums:
                enums[name] = values
            i = j
    return enums


def pass_exhaustive(tree, exhaustive_names, enums=None):
    if enums is None:
        enums = collect_enums(tree)
    findings = []
    watched = {
        name: set(vals)
        for name, vals in enums.items()
        if name in exhaustive_names
    }
    for name in sorted(exhaustive_names):
        if name not in enums:
            findings.append(
                Finding("tools/analyze/layers.json", 1, "exhaustive",
                        f"exhaustive_enums names {name!r} but no such enum "
                        "is defined anywhere in the tree"))

    for path in sorted(tree):
        if not path.replace(os.sep, "/").startswith("src/"):
            continue
        tokens = tokenize(tree[path])
        n = len(tokens)
        depth = 0
        # Each open switch: [entry_depth, line, {enum: set(values)}, pending]
        stack = []
        i = 0
        while i < n:
            t = tokens[i]
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
                while stack and depth < stack[-1][0]:
                    entry_depth, line, labels = stack.pop()
                    evaluate_switch(tree, path, line, labels, watched,
                                    findings)
            elif t.kind == "ident" and t.text == "switch":
                # Skip the controlling expression's balanced parens.
                j = i + 1
                if j < n and tokens[j].text == "(":
                    pdepth = 1
                    j += 1
                    while j < n and pdepth > 0:
                        if tokens[j].text == "(":
                            pdepth += 1
                        elif tokens[j].text == ")":
                            pdepth -= 1
                        j += 1
                if j < n and tokens[j].text == "{":
                    stack.append([depth + 1, t.line, {}])
                    depth += 1
                    i = j
            elif t.kind == "ident" and t.text == "case" and stack:
                # Label tokens run until ':' ('::' is a distinct token).
                j = i + 1
                parts = []
                while j < n and tokens[j].text != ":":
                    if tokens[j].kind == "ident":
                        parts.append(tokens[j].text)
                    j += 1
                if len(parts) >= 2:
                    stack[-1][2].setdefault(parts[-2], set()).add(parts[-1])
                i = j
            i += 1
        while stack:  # unbalanced braces (macro trickery): close out
            entry_depth, line, labels = stack.pop()
            evaluate_switch(tree, path, line, labels, watched, findings)
    return findings


def evaluate_switch(tree, path, line, labels, watched, findings):
    for enum_name, present in sorted(labels.items()):
        if enum_name not in watched:
            continue
        missing = sorted(watched[enum_name] - present)
        if not missing:
            continue
        if suppressed("exhaustive", tree, path, line):
            continue
        findings.append(
            Finding(path, line, "exhaustive",
                    f"switch over {enum_name} does not handle: "
                    f"{', '.join(missing)} (a default: label does not "
                    "count — every codec must confront every value)"))


# ---------------------------------------------------- pass 4: conventions


def std_uses(tokens, names):
    """(token index, X) for every std::X with X in `names`."""
    return [(i, tokens[i + 2].text) for i in range(len(tokens) - 2)
            if tokens[i].text == "std" and tokens[i + 1].text == "::"
            and tokens[i + 2].text in names]


def texts(tokens, begin, count):
    return [t.text for t in tokens[begin:begin + count]]


def check_nested_rowid(tokens):
    for i, _ in std_uses(tokens, {"vector"}):
        if texts(tokens, i + 3, 6) == ["<", "std", "::", "vector", "<", "RowId"]:
            yield tokens[i].line, "nested std::vector<std::vector<RowId>>"


def check_naked_mutex(tokens):
    for i, name in std_uses(tokens, {
            "mutex", "timed_mutex", "recursive_mutex", "shared_mutex",
            "condition_variable", "condition_variable_any", "lock_guard",
            "unique_lock", "scoped_lock", "shared_lock"}):
        yield tokens[i].line, f"naked std::{name}"


def check_header_guard(tokens):
    first = {}  # directive -> operand of its first occurrence
    for i in range(len(tokens) - 2):
        if tokens[i].text == "#":
            if texts(tokens, i + 1, 2) == ["pragma", "once"]:
                return
            first.setdefault(tokens[i + 1].text, tokens[i + 2].text)
    if "ifndef" in first and first["ifndef"] == first.get("define"):
        return
    yield 1, "header lacks an include guard"


def check_nondeterminism(tokens):
    for i, name in std_uses(tokens, {"random_device", "mt19937",
                                     "mt19937_64"}):
        yield tokens[i].line, f"nondeterministic source 'std::{name}'"
    for i, tok in enumerate(tokens[:-1]):
        if (tok.text in ("rand", "srand") and tokens[i + 1].text == "("
                and (i == 0 or tokens[i - 1].text != "::")):
            yield tok.line, f"nondeterministic source '{tok.text}'"


# An rpc. or http. segment anywhere in an obs name.
RPC_SEGMENT_RE = re.compile(r"(?:^|\.)(rpc|http)\.")


def check_rpc_obs_prefix(tokens):
    for line, _, name in scan_obs_tokens(tokens)[0]:
        seg = RPC_SEGMENT_RE.search(name)
        if seg and not name.startswith(f"net.{seg.group(1)}."):
            yield line, f'obs name "{name}" carries an rpc./http. segment'


# A request line or an HTTP/1.x version inside a string literal.
NAKED_HTTP_RE = re.compile(
    r'"(?:GET|POST|HEAD|PUT|DELETE|OPTIONS) /|HTTP/1\.[01]')


def check_naked_http(tokens):
    for tok in tokens:
        if tok.kind == "string":
            for _ in NAKED_HTTP_RE.finditer(tok.text):
                yield tok.line, "hand-rolled HTTP literal"


# `shutdown` is deliberately absent: it is a ubiquitous method name, and no
# socket can exist to shut down unless one of these calls appeared first.
SOCKET_CALLS = {
    "socket", "bind", "listen", "accept", "accept4", "connect", "recvfrom",
    "recvmsg", "recv", "sendto", "sendmsg", "send", "setsockopt",
    "getsockopt", "getsockname", "getpeername", "inet_pton", "inet_ntop",
    "poll", "ppoll", "epoll_create", "epoll_create1", "epoll_ctl",
    "epoll_wait",
}

# Keywords that can directly precede a global-scope `::name`.
EXPRESSION_KEYWORDS = {"return", "throw", "case", "else", "do", "co_return",
                       "co_yield", "co_await", "new", "delete", "sizeof"}


def check_naked_socket(tokens):
    for i, tok in enumerate(tokens[:-1]):
        if tok.text not in SOCKET_CALLS or tokens[i + 1].text != "(":
            continue
        prev = tokens[i - 1].text if i > 0 else ""
        if prev in (".", "->"):
            continue  # member call: obj.send(...), self->poll(...)
        if prev == "::" and i > 1 and tokens[i - 2].kind == "ident" and \
                tokens[i - 2].text not in EXPRESSION_KEYWORDS:
            continue  # qualified: std::bind(...), Client::send(...)
        yield tok.line, f"naked socket syscall '{tok.text}'"


def check_naked_thread(tokens):
    for i, name in std_uses(tokens, {"thread", "jthread"}):
        # hardware_concurrency() is a capacity query, no thread behind it.
        if texts(tokens, i + 3, 2) != ["::", "hardware_concurrency"]:
            yield tokens[i].line, f"raw std::{name}"


# (rule, check, trees swept, which files in them, remedy). Bench rows and
# demo output are diffed across runs, so determinism and the net rules also
# sweep bench/ and examples/.
CONVENTION_RULES = [
    ("nested-rowid", check_nested_rowid, ("src",), lambda p: p.endswith(".h"),
     "use the flat CSR StrippedPartition arena instead"),
    ("naked-mutex", check_naked_mutex, ("src",),
     lambda p: p != "src/util/mutex.h",
     "use the annotated Mutex/MutexLock/CondVar shims from util/mutex.h so "
     "thread-safety analysis can see the lock"),
    ("header-guard", check_header_guard,
     ("src", "bench", "tests", "examples"), lambda p: p.endswith(".h"),
     "add #pragma once or a matching #ifndef/#define pair"),
    ("nondeterminism", check_nondeterminism, ("src", "bench", "examples"),
     lambda p: p != "src/util/random.h",
     "seed a dhyfd::Random (util/random.h) instead so runs reproduce across "
     "platforms"),
    ("rpc-obs-prefix", check_rpc_obs_prefix, ("src",),
     lambda p: p.startswith("src/net/"),
     "put it under net.rpc. / net.http., the namespaces the /metrics "
     "dashboards and the bench's server-side percentiles key on"),
    ("naked-http", check_naked_http, ("src", "bench", "examples"),
     lambda p: not p.startswith("src/net/"),
     "parse and render through net/http.h so the accepted grammar stays in "
     "one audited file"),
    ("naked-socket", check_naked_socket, ("src", "bench", "examples"),
     lambda p: not p.startswith("src/net/"),
     "use the Socket/Poller wrappers from net/socket.h, which own the fd "
     "lifecycle and the EINTR/EAGAIN edge cases"),
    ("naked-thread", check_naked_thread, ("src",),
     lambda p: not p.startswith("src/util/"),
     "fan work out through ThreadPool (run_shards/parallel_for) so slot "
     "accounting, trace propagation, and obs-delta relay hold"),
]


def pass_conventions(tree):
    findings = []
    for path in sorted(tree):
        rules = [(rule, check, remedy)
                 for rule, check, roots, applies, remedy in CONVENTION_RULES
                 if path.split("/")[0] in roots and applies(path)]
        tokens = tokenize(tree[path]) if rules else []
        for rule, check, remedy in rules:
            for line, what in check(tokens):
                if not suppressed(rule, tree, path, line):
                    findings.append(Finding(path, line, rule,
                                            f"{what}; {remedy}"))
    return findings


# ------------------------------------------------------------------- driver


def load_tree(root):
    tree = {}
    # Passes 1-3 look at src/ only; pass 4 scopes each rule itself.
    for scope in ("src", "bench", "tests", "examples"):
        base = os.path.join(root, scope)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            for fname in sorted(filenames):
                if not fname.endswith(SOURCE_EXTS):
                    continue
                path = os.path.join(dirpath, fname)
                rel = os.path.relpath(path, root)
                with open(path, encoding="utf-8", errors="replace") as f:
                    tree[rel.replace(os.sep, "/")] = f.read()
    return tree


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def run(root, config_dir, fix=False, dump_names=False):
    tree = load_tree(root)
    layers_path = os.path.join(config_dir, "layers.json")
    schema_path = os.path.join(config_dir, "obs_schema.json")
    cfg = load_json(layers_path)
    manifest = load_json(schema_path)
    try:
        validate_layer_config(cfg)
    except ValueError as err:
        print(f"{layers_path}: {err}")
        return 1

    if dump_names:
        literals, constants, _ = scan_obs_usages(tree)
        for path, line, kind, name in sorted(literals, key=lambda u: u[3]):
            print(f"{kind:9s} {name:40s} {path}:{line}")
        return 0

    findings = []

    # Pass 1: layering + dot artifact.
    layer_findings, edges = pass_layering(tree, cfg)
    findings.extend(layer_findings)
    dot_path = os.path.join(config_dir, DOT_NAME)
    rendered_dot = render_dot(cfg, edges)
    disk_dot = None
    if os.path.exists(dot_path):
        with open(dot_path, encoding="utf-8") as f:
            disk_dot = f.read()
    if fix:
        if disk_dot != rendered_dot:
            with open(dot_path, "w", encoding="utf-8") as f:
                f.write(rendered_dot)
            print(f"analyze --fix: wrote {dot_path}")
    elif disk_dot != rendered_dot:
        findings.append(
            Finding(os.path.relpath(dot_path, root), 1, "layering",
                    "include_graph.dot is stale; run analyze.py --fix"))

    # Pass 2: obs schema + generated header.
    header_path = os.path.join(root, GEN_HEADER_REL)
    disk_header = None
    if os.path.exists(header_path):
        with open(header_path, encoding="utf-8") as f:
            disk_header = f.read()
    if fix:
        rendered = render_header(manifest)
        if disk_header != rendered:
            os.makedirs(os.path.dirname(header_path), exist_ok=True)
            with open(header_path, "w", encoding="utf-8") as f:
                f.write(rendered)
            print(f"analyze --fix: wrote {header_path}")
        disk_header = rendered
    findings.extend(pass_schema(tree, manifest, disk_header))

    # Pass 3: switch exhaustiveness.
    findings.extend(pass_exhaustive(tree, set(cfg.get("exhaustive_enums", []))))

    # Pass 4: per-file conventions.
    findings.extend(pass_conventions(tree))

    for f in findings:
        print(f)
    if findings:
        print(f"analyze: {len(findings)} finding(s)")
        return 1
    print("analyze: OK (layering + obs schema + exhaustiveness + conventions)")
    return 0


# ---------------------------------------------------------------- self-test


def selftest_layer_cfg():
    return {
        "layers": {"util": [], "mid": ["util"], "top": ["util", "mid"]},
        "test_only": ["datagen"],
        "exceptions": [],
    }


def _lay(tree, cfg=None):
    return pass_layering(tree, cfg or selftest_layer_cfg())[0]


def _schema(tree, manifest, header="RENDERED"):
    disk = render_header(manifest) if header == "RENDERED" else header
    return pass_schema(tree, manifest, disk)


def _exh(tree, names):
    return pass_exhaustive(tree, set(names))


def _obs(path, snippet):
    """Pass 2 over one file, with every literal it uses (suppressed lines
    aside) registered under the kind its call site implies."""
    tree = {path: snippet}
    names = {(name, kind) for _, line, kind, name in scan_obs_usages(tree)[0]
             if not suppressed("obs-schema", tree, path, line)}
    return _schema(tree, {
        "names": [{"name": n, "kind": k} for n, k in sorted(names)],
        "patterns": [],
    })


def _conv(rule, path, snippet):
    """Pass 4 over one file, keeping only `rule`'s findings."""
    return [f for f in pass_conventions({path: snippet}) if f.rule == rule]


BASIC_MANIFEST = {
    "names": [{"name": "mid.widgets", "kind": "counter"}],
    "patterns": [],
}

# (label, callable, expected finding count, expected rules)
FIXTURES = [
    # -- pass 1: layering ---------------------------------------------------
    ("layering: upward include fires with provenance",
     lambda: _lay({
         "src/util/a.h": "#pragma once\n#include \"top/b.h\"\n",
         "src/top/b.h": "#pragma once\n",
     }), 1, {"layering"}),
    ("layering: downward include passes",
     lambda: _lay({
         "src/top/b.cc": "#include \"util/a.h\"\n#include \"mid/m.h\"\n",
         "src/util/a.h": "#pragma once\n",
         "src/mid/m.h": "#pragma once\n",
     }), 0, set()),
    ("layering: allowlisted exception passes, stale entry fires",
     lambda: _lay({
         "src/util/a.cc": "#include \"mid/m.h\"\n",
         "src/mid/m.h": "#pragma once\n",
     }, {
         "layers": {"util": [], "mid": ["util"]},
         "test_only": [],
         "exceptions": [
             {"from": "util/a.cc", "to": "mid", "reason": "test"},
             {"from": "mid", "to": "top", "reason": "stale"},
         ],
     }), 1, {"layering"}),
    ("layering: test-only layer import fires",
     lambda: _lay({
         "src/mid/m.cc": "#include \"datagen/gen.h\"\n",
         "src/datagen/gen.h": "#pragma once\n",
     }, {
         "layers": {"mid": ["datagen"], "datagen": []},
         "test_only": ["datagen"],
         "exceptions": [],
     }), 1, {"layering"}),
    ("layering: synthetic include cycle detected",
     lambda: _lay({
         "src/mid/a.h": "#include \"mid/b.h\"\n",
         "src/mid/b.h": "#include \"mid/c.h\"\n",
         "src/mid/c.h": "#include \"mid/a.h\"\n",
     }), 1, {"include-cycle"}),
    ("layering: analyze-allow suppression honored",
     lambda: _lay({
         "src/util/a.cc":
             "#include \"mid/m.h\"  // analyze-allow: layering\n",
         "src/mid/m.h": "#pragma once\n",
     }), 0, set()),
    # -- pass 2: obs schema -------------------------------------------------
    ("schema: registered literal passes; usage recorded",
     lambda: _schema({
         "src/mid/m.cc": 'void f() { ObsAdd("mid.widgets"); }\n',
     }, BASIC_MANIFEST), 0, set()),
    ("schema: unregistered literal fires",
     lambda: _schema({
         "src/mid/m.cc":
             'void f() { ObsAdd("mid.widgets"); ObsAdd("mid.wigdets"); }\n',
     }, BASIC_MANIFEST), 1, {"obs-schema"}),
    ("schema: literal in a comment or string soup is ignored",
     lambda: _schema({
         "src/mid/m.cc":
             '// ObsAdd("not.a.counter")\n'
             '/* counter("also.not") */\n'
             'void f() { ObsAdd("mid.widgets"); }\n',
     }, BASIC_MANIFEST), 0, set()),
    ("schema: registered-but-never-referenced drift fires",
     lambda: _schema({
         "src/mid/m.cc": 'void f() { ObsAdd("mid.widgets"); }\n',
     }, {
         "names": [
             {"name": "mid.widgets", "kind": "counter"},
             {"name": "mid.orphans", "kind": "counter"},
         ],
         "patterns": [],
     }), 1, {"obs-schema"}),
    ("schema: kind mismatch fires (counter used as histogram)",
     lambda: _schema({
         "src/mid/m.cc": 'void f() { h.histogram("mid.widgets"); }\n',
     }, BASIC_MANIFEST), 1, {"obs-schema"}),
    ("schema: bad grammar in manifest fires",
     lambda: _schema({
         "src/mid/m.cc": 'void f() { ObsAdd("BadName"); }\n',
     }, {
         "names": [{"name": "BadName", "kind": "counter"}],
         "patterns": [],
     }), 1, {"obs-schema"}),
    ("schema: constant reference counts as usage; unknown constant fires",
     lambda: _schema({
         "src/mid/m.cc":
             "void f() { ObsAdd(kObsMidWidgets); ObsAdd(kObsMidWigdets); }\n",
     }, BASIC_MANIFEST), 1, {"obs-schema"}),
    ("schema: pattern matches dynamic family; witness enforced",
     lambda: _schema({
         "src/mid/m.cc":
             'void f() { m.histogram("mid.rpc.a.ok_seconds");\n'
             '  std::string n = std::string("mid.rpc.") + t; }\n',
     }, {
         "names": [],
         "patterns": [{"pattern": "mid.rpc.*.*_seconds",
                       "kind": "histogram", "witness": "mid.rpc."}],
     }), 0, set()),
    ("schema: missing witness literal fires",
     lambda: _schema({
         "src/mid/m.cc": "void f() {}\n",
     }, {
         "names": [],
         "patterns": [{"pattern": "mid.rpc.*.*_seconds",
                       "kind": "histogram", "witness": "mid.rpc."}],
     }), 1, {"obs-schema"}),
    ("schema: net. prefix rule applies to constants too",
     lambda: _schema({
         "src/net/m.cc": "void f() { ObsAdd(kObsMidWidgets); }\n",
     }, BASIC_MANIFEST), 1, {"obs-schema"}),
    ("schema: stale generated header fires",
     lambda: _schema({
         "src/mid/m.cc": 'void f() { ObsAdd("mid.widgets"); }\n',
     }, BASIC_MANIFEST, header="// stale bytes\n"), 1, {"obs-schema"}),
    # -- pass 3: exhaustiveness ---------------------------------------------
    ("exhaustive: missing enumerator fires (default does not excuse)",
     lambda: _exh({
         "src/mid/m.cc":
             "enum class Color { kRed, kGreen, kBlue };\n"
             "int f(Color c) { switch (c) {\n"
             "  case Color::kRed: return 1;\n"
             "  default: return 0;\n"
             "} }\n",
     }, {"Color"}), 1, {"exhaustive"}),
    ("exhaustive: full coverage passes",
     lambda: _exh({
         "src/mid/m.cc":
             "enum class Color { kRed, kGreen, kBlue };\n"
             "int f(Color c) { switch (c) {\n"
             "  case Color::kRed: return 1;\n"
             "  case Color::kGreen:\n"
             "  case Color::kBlue: return 2;\n"
             "} return 0; }\n",
     }, {"Color"}), 0, set()),
    ("exhaustive: unwatched enums are out of scope",
     lambda: _exh({
         "src/mid/m.cc":
             "enum class Other { kA, kB };\n"
             "int f(Other o) { switch (o) { case Other::kA: return 1; "
             "default: return 0; } }\n",
     }, {"Color"}), 1, {"exhaustive"}),  # config names a missing enum
    ("exhaustive: nested switches attribute cases correctly",
     lambda: _exh({
         "src/mid/m.cc":
             "enum class A { kX, kY };\n"
             "enum class B { kP, kQ };\n"
             "int f(A a, B b) { switch (a) {\n"
             "  case A::kX:\n"
             "    switch (b) { case B::kP: case B::kQ: return 1; }\n"
             "    return 2;\n"
             "  case A::kY: return 3;\n"
             "} return 0; }\n",
     }, {"A", "B"}), 0, set()),
    ("exhaustive: suppression on the switch line passes",
     lambda: _exh({
         "src/mid/m.cc":
             "enum class Color { kRed, kGreen };\n"
             "int f(Color c) { switch (c) {  // analyze-allow: exhaustive\n"
             "  case Color::kRed: return 1;\n"
             "} return 0; }\n",
     }, {"Color"}), 0, set()),
    ("exhaustive: switch-in-string and comment are ignored",
     lambda: _exh({
         "src/mid/m.cc":
             "enum class Color { kRed, kGreen };\n"
             '// switch (c) { case Color::kRed: break; }\n'
             'const char* s = "switch (c) { case Color::kRed: }";\n'
             "int f(Color c) { switch (c) {\n"
             "  case Color::kRed:\n"
             "  case Color::kGreen: return 1;\n"
             "} return 0; }\n",
     }, {"Color"}), 0, set()),
]


# Pass 2 naming and prefix fixtures, in the pass 4 fixture format. A badly
# named literal fires whether or not it is registered: unlisted, it is
# unregistered; listed (as here), the manifest grammar check rejects it.
OBS_FIXTURES = [
    ("obs-naming", "src/algo/bad.cc", 'ObsAdd("validatorCalls");\n', 1),
    ("obs-naming", "src/algo/bad2.cc",
     'metrics_->counter("jobsSubmitted").inc();\n', 1),
    ("obs-naming", "src/algo/bad3.cc",
     'TraceSpan span("Discover.Sampling");\n', 1),
    ("obs-naming", "src/algo/good.cc",
     'ObsAdd("discover.validator.calls");\n'
     'TraceSpan span("discover.sampling");\n'
     'metrics_->histogram("jobs.run_seconds").record(s);\n'
     'tracer.record_span("svc.queue_wait", id, a, b);\n', 0),
    ("obs-naming", "src/algo/nonliteral.cc",
     "metrics_->histogram(stage_name).record(s);\n", 0),
    ("obs-naming", "src/algo/comment.cc",
     '// ObsAdd("NotAName") in a comment is fine\n', 0),
    ("obs-prefix", "src/net/bad.cc",
     'metrics_->counter("conns.accepted").inc();\n', 1),
    ("obs-prefix", "src/net/bad2.cc", 'TraceSpan span("svc.request");\n', 1),
    ("obs-prefix", "src/net/good.cc",
     'metrics_->counter("net.frames_rx").inc();\n'
     'metrics_->gauge("net.connections").add(1);\n'
     'TraceSpan span("net.request");\n', 0),
    ("obs-prefix", "src/service/other.cc",
     'metrics_->counter("jobs.submitted").inc();\n', 0),
    ("obs-prefix", "src/net/allowed.cc",
     'counter("legacy.name")  // analyze-allow: obs-schema\n', 0),
    ("obs-prefix", "src/query/bad.cc", 'ObsAdd("topk.validations");\n', 1),
    ("obs-prefix", "src/query/bad2.cc",
     'TraceSpan span("engine.execute");\n', 1),
    ("obs-prefix", "src/query/good.cc",
     'ObsAdd("query.validations");\n'
     'TraceSpan span("query.lattice_level");\n'
     'metrics_->counter("query.executes").inc();\n', 0),
    ("obs-prefix", "src/ranking/other.cc", 'ObsAdd("rank.scored");\n', 0),
    ("obs-prefix", "src/query/allowed.cc",
     'counter("legacy.name")  // analyze-allow: obs-schema\n', 0),
]

# Pass 4 fixtures: (rule, virtual path, snippet, expected finding count).
CONVENTION_FIXTURES = [
    ("nested-rowid", "src/partition/bad.h",
     "std::vector<std::vector<RowId>> clusters_;\n", 1),
    ("nested-rowid", "src/partition/bad_spaced.h",
     "std::vector< std::vector< RowId > > clusters_;\n", 1),
    ("nested-rowid", "src/partition/good.h",
     "std::vector<RowId> arena_;\nstd::vector<uint32_t> offsets_;\n", 0),
    ("nested-rowid", "src/partition/allowed.h",
     "std::vector<std::vector<RowId>> g_;  // analyze-allow: nested-rowid\n",
     0),
    ("nested-rowid", "src/partition/scratch.cc",
     "std::vector<std::vector<RowId>> tmp;\n", 0),
    ("naked-mutex", "src/service/bad.h", "mutable std::mutex mu_;\n", 1),
    ("naked-mutex", "src/service/bad2.cc",
     "std::lock_guard<std::mutex> lock(mu_);\n", 2),
    ("naked-mutex", "src/service/bad3.h", "std::condition_variable cv_;\n", 1),
    ("naked-mutex", "src/service/good.h",
     "mutable Mutex mu_;\nCondVar cv_;\nMutexLock lock(&mu_);\n", 0),
    ("naked-mutex", "src/util/mutex.h", "class Mutex { std::mutex mu_; };\n",
     0),
    ("naked-mutex", "src/service/comment.cc",
     "// std::mutex is banned outside util/mutex.h\n", 0),
    ("header-guard", "src/util/bad.h", "namespace dhyfd {}\n", 1),
    ("header-guard", "src/util/pragma.h",
     "#pragma once\nnamespace dhyfd {}\n", 0),
    ("header-guard", "src/util/late_pragma.h",
     "#pragma GCC system_header\n#pragma once\n", 0),
    ("header-guard", "src/util/classic.h",
     "#ifndef DHYFD_UTIL_CLASSIC_H_\n#define DHYFD_UTIL_CLASSIC_H_\n"
     "#endif\n", 0),
    ("header-guard", "src/util/mismatched.h",
     "#ifndef GUARD_A\n#define GUARD_B\n#endif\n", 1),
    ("header-guard", "src/util/impl.cc", "namespace dhyfd {}\n", 0),
    ("nondeterminism", "src/datagen/bad.cc", "int x = rand() % 10;\n", 1),
    ("nondeterminism", "src/datagen/bad2.cc",
     "std::random_device rd;\nstd::mt19937 gen(rd());\n", 2),
    ("nondeterminism", "src/datagen/bad3.cc", "srand(time(nullptr));\n", 1),
    ("nondeterminism", "src/datagen/good.cc",
     "Random rng(42);\nuint64_t v = rng.next_u64();\n", 0),
    ("nondeterminism", "src/util/random.h",
     "// splitmix64, no std::random_device anywhere\n", 0),
    ("nondeterminism", "src/datagen/operand.cc",
     "int operand(int a);\nint brand(int b);\n", 0),
    ("rpc-obs-prefix", "src/net/bad.cc",
     'metrics_->counter("rpc.requests").inc();\n', 1),
    ("rpc-obs-prefix", "src/net/bad2.cc",
     'metrics_->gauge("http.connections").add(1);\n', 1),
    ("rpc-obs-prefix", "src/net/bad3.cc",
     'metrics_->histogram("svc.rpc.run_seconds").record(s);\n', 1),
    ("rpc-obs-prefix", "src/net/good.cc",
     'metrics_->counter("net.rpc.requests").inc();\n'
     'metrics_->gauge("net.http.connections").add(1);\n'
     'metrics_->histogram("net.rpc.queue_seconds").record(s);\n'
     'metrics_->counter("net.frames_rx").inc();\n', 0),
    ("rpc-obs-prefix", "src/service/other.cc",
     'metrics_->counter("rpc.requests").inc();\n', 0),
    ("rpc-obs-prefix", "src/net/allowed.cc",
     'counter("rpc.legacy")  // analyze-allow: rpc-obs-prefix\n', 0),
    ("naked-http", "src/service/bad.cc",
     'std::string req = "GET /metrics HTTP/1.0\\r\\n\\r\\n";\n', 2),
    ("naked-http", "src/obs/bad2.cc", 'out += "HTTP/1.1 200 OK";\n', 1),
    ("naked-http", "src/net/http.cc",
     '"GET /metrics HTTP/1.0\\r\\n\\r\\n";\n', 0),
    ("naked-http", "src/service/good.cc",
     'std::string path = "/metrics";  // served by net/http.h\n', 0),
    ("naked-http", "src/service/comment.cc",
     '// a "GET /metrics HTTP/1.0" example in a comment is fine\n', 0),
    ("naked-socket", "src/service/bad.cc",
     "int fd = socket(AF_INET, SOCK_STREAM, 0);\n", 1),
    ("naked-socket", "src/service/bad2.cc",
     "::connect(fd, addr, len);\nrecv(fd, buf, n, 0);\n", 2),
    ("naked-socket", "src/service/returned.cc",
     "int f() { return ::socket(AF_INET, SOCK_STREAM, 0); }\n", 1),
    ("naked-socket", "src/service/bad3.cc",
     "setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);\n"
     "poll(fds, n, timeout);\n", 2),
    ("naked-socket", "src/service/good.cc",
     "Socket s = ConnectTcp(host, port);\n"
     "auto f = std::bind(&T::run, this);\n"
     "client.send_frame(type, id, payload);\n"
     "sock.connect_timeout();\nobj->sendto_queue(x);\n", 0),
    ("naked-socket", "src/net/socket.cc",
     "int fd = ::socket(AF_INET, SOCK_STREAM, 0);\n", 0),
    ("naked-socket", "src/service/member.cc",
     "pool_.shutdown();\nbus.send(msg);\nself->poll(1);\n", 0),
    ("naked-socket", "src/service/comment.cc",
     "// recv(fd, ...) in a comment is fine\n", 0),
    ("naked-socket", "src/service/allowed.cc",
     "poll(fds, n, t);  // analyze-allow: naked-socket\n", 0),
    ("naked-thread", "src/service/bad.cc",
     "std::thread worker([] { run(); });\n", 1),
    ("naked-thread", "src/net/bad2.h", "std::jthread loop_;\n", 1),
    ("naked-thread", "src/service/bad3.h",
     "std::vector<std::thread> workers_;\n", 1),
    ("naked-thread", "src/service/good.cc",
     "unsigned hw = std::thread::hardware_concurrency();\n"
     "pool_.parallel_for(n, par, body);\n", 0),
    ("naked-thread", "src/util/thread_pool.cc",
     "std::vector<std::thread> to_join;\n", 0),
    ("naked-thread", "src/service/member.cc",
     "my::thread t;\nobj.thread();\n", 0),
    ("naked-thread", "src/net/allowed.cc",
     "std::thread loop_;  // analyze-allow: naked-thread\n", 0),
    ("naked-thread", "src/service/comment.cc",
     "// std::thread is banned outside src/util/\n", 0),
    # Directory scopes.
    ("header-guard", "tests/bad_util.h", "namespace dhyfd {}\n", 1),
    ("nondeterminism", "bench/bad.cc", "int x = rand() % 10;\n", 1),
    ("naked-socket", "examples/bad.cc", "poll(fds, n, t);\n", 1),
    ("naked-http", "bench/bad.cc", 'out += "HTTP/1.1 200 OK";\n', 1),
    ("naked-mutex", "tests/ok.cc", "std::mutex mu;\n", 0),
    ("naked-thread", "bench/ok.cc", "std::thread t(run);\n", 0),
    ("nondeterminism", "tests/ok.cc", "std::mt19937 gen(7);\n", 0),
]

FIXTURES += [
    (f"{rule}: {path}", lambda p=path, s=snippet: _obs(p, s), expected,
     {"obs-schema"} if expected else set())
    for rule, path, snippet, expected in OBS_FIXTURES
] + [
    (f"{rule}: {path}", lambda r=rule, p=path, s=snippet: _conv(r, p, s),
     expected, {rule} if expected else set())
    for rule, path, snippet, expected in CONVENTION_FIXTURES
]


def self_test():
    failures = 0
    for label, thunk, expected, rules in FIXTURES:
        got = thunk()
        got_rules = {f.rule for f in got}
        ok = len(got) == expected and (not rules or rules == got_rules)
        if not ok:
            failures += 1
        print(f"[{'ok' if ok else 'FAIL'}] {label}: expected {expected} "
              f"finding(s), got {len(got)}")
        if not ok:
            for f in got:
                print(f"       {f}")
    # Provenance spot-check: the layering fixture reports file:line.
    prov = _lay({
        "src/util/a.h": "#pragma once\n#include \"top/b.h\"\n",
        "src/top/b.h": "#pragma once\n",
    })
    if not (prov and prov[0].path == "src/util/a.h" and prov[0].line_no == 2):
        failures += 1
        print("[FAIL] layering provenance: expected src/util/a.h:2, got "
              f"{prov[0].path}:{prov[0].line_no}" if prov else "no finding")
    else:
        print("[ok] layering provenance: src/util/a.h:2")
    # The python wildcard matcher mirrors the generated C++ matcher.
    checks = [
        ("net.rpc.*.*_seconds", "net.rpc.submit_query.ok_seconds", True),
        ("net.rpc.*.*_seconds", "net.rpc.queue_seconds", False),
        ("stage.*_seconds", "stage.encode_seconds", True),
        ("stage.*_seconds", "stage.encode.seconds", False),
    ]
    for pat, name, want in checks:
        got_match = pattern_regex(pat).match(name) is not None
        if got_match != want:
            failures += 1
        print(f"[{'ok' if got_match == want else 'FAIL'}] wildcard "
              f"{pat!r} vs {name!r} -> {got_match}")
    if failures:
        print(f"self-test: {failures} fixture(s) failed")
        return 1
    print(f"self-test: all {len(FIXTURES)} fixtures + provenance + wildcard "
          "checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above this file)")
    parser.add_argument("--config", default=None,
                        help="directory holding layers.json + obs_schema.json "
                             "(default: this script's directory)")
    parser.add_argument("--fix", action="store_true",
                        help="regenerate obs_schema.gen.h and "
                             "include_graph.dot instead of reporting drift")
    parser.add_argument("--self-test", action="store_true",
                        help="run the rule fixtures instead of analyzing")
    parser.add_argument("--dump-names", action="store_true",
                        help="print every scanned obs name literal (dev aid)")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    here = os.path.dirname(os.path.abspath(__file__))
    root = args.root or os.path.dirname(os.path.dirname(here))
    config_dir = args.config or here
    return run(root, config_dir, fix=args.fix, dump_names=args.dump_names)


if __name__ == "__main__":
    sys.exit(main())
