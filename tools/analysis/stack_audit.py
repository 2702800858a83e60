#!/usr/bin/env python3
"""Worst-case stack-depth auditor for fiber-run process code.

PR 9 moved every simulated process onto pooled fixed-size fiber stacks
(512 KiB by default, `BRIDGE_SIM_STACK_KB`).  A deep call chain or a fat
stack frame anywhere under a process body is therefore a latent guard-page
crash that no functional test sees until the exact workload shape hits it.
This tool makes that failure mode a *compile-time* error:

 1. Every GCC compile already emits, next to each object file,
      <tu>.su  per-function stack usage  (-fstack-usage)
      <tu>.ci  per-TU call graph in VCG form (-fcallgraph-info=su)
    (wired up unconditionally in the top-level CMakeLists.txt).

 2. This script merges all .ci files under the build directory into one
    interprocedural call graph, discovers every fiber entry point (each
    `std::function` invoker instantiated for a `<lambda(bridge::sim::
    Context&)>` spawn body — i.e. every process body in src/ and bench/),
    and computes the worst-case stack depth of each entry by a longest-path
    walk over its call tree.

 3. Each entry's depth (plus the fixed fiber-harness prefix: fiber entry
    thunk, run_process_body, the Runtime spawn wrapper) must stay within a
    budget — by default 25% of the fiber stack — or the build's `analyze`
    target and the CI `analyze` job fail, printing the heaviest chain.

Soundness policy (everything suspicious is loud, nothing is silent):

  recursion      A cycle reachable from an entry point is an ERROR unless a
                 function in the cycle carries a STACK_AUDIT bound
                 annotation (see below).
  indirect calls Call sites through function pointers / virtuals / erased
                 std::functions appear as `__indirect_call` edges.  Each
                 unresolved indirect site is charged a conservative default
                 (`indirect_default_bytes`) and listed in the report;
                 known seams can be resolved to their real targets via the
                 config's `indirect_resolutions`.
  externals      Calls into functions with no graph node (libc/libstdc++)
                 are charged `external_default_bytes` as leaves, with a
                 table of tighter bounds for common primitives.
  dynamic frames A frame GCC reports as `dynamic` (unbounded alloca/VLA)
                 is an ERROR unless annotated; `dynamic,bounded` uses the
                 reported maximum.

Annotation syntax, in the source line(s) directly above the function's
declarator (the location GCC reports for the node):

    // STACK_AUDIT: bound=<bytes> <mandatory reason>

`bound` replaces the whole subtree below (and including) that function with
a fixed byte count — the escape hatch for recursion and for indirect calls
that the resolution table cannot express.  A reasonless or unmatched
annotation is itself an error, mirroring the determinism lint's waiver
hygiene.

Usage:

    python3 tools/analysis/stack_audit.py --build-dir build
    cmake --build build --target analyze          # same, plus the lint

Exit status 0 when every entry point is within budget and annotation
hygiene is clean; 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# Per-call-edge overhead: the return address pushed by `call` on x86-64 is
# not part of the callee's -fstack-usage frame.
CALL_OVERHEAD_BYTES = 8

DEFAULT_CONFIG = {
    # Budget = budget_fraction * stack bytes.  stack_kb mirrors the fiber
    # stack default (scheduler.cpp); override with --stack-kb to audit
    # against a different BRIDGE_SIM_STACK_KB deployment.
    "stack_kb": 512,
    "budget_fraction": 0.25,
    # Conservative charge for one unresolved indirect call site (treated as
    # a leaf of this size at the deepest point it appears).
    "indirect_default_bytes": 4096,
    # Conservative leaf charge for a call into code we have no graph node
    # for (libc, libstdc++.so).  vfprintf and friends are the deepest
    # common offenders at ~6-7 KiB of scratch.
    "external_default_bytes": 8192,
    # Tighter leaf bounds for ubiquitous primitives; everything not listed
    # gets external_default_bytes.
    "external_bounds": {
        "memcpy": 256,
        "memset": 256,
        "memmove": 256,
        "memcmp": 256,
        "strlen": 256,
        "__errno_location": 64,
        "sysconf": 512,
        "_Unwind_Resume": 2048,
        "__cxa_begin_catch": 1024,
        "__cxa_end_catch": 1024,
        "__cxa_rethrow": 1024,
        "__cxa_allocate_exception": 2048,
        "__cxa_free_exception": 1024,
        "__cxa_throw": 2048,
        # glibc malloc's fast paths stay under ~1.5 KiB; charge 2 KiB for
        # every allocator entry point (mangled and demangled spellings —
        # GCC emits whichever the TU referenced).
        "malloc": 2048,
        "free": 2048,
        "calloc": 2048,
        "realloc": 2048,
        "_Znwm": 2048,
        "_Znam": 2048,
        "_ZdlPv": 2048,
        "_ZdlPvm": 2048,
        "_ZdaPv": 2048,
        "_ZdaPvm": 2048,
        "operator new(unsigned long)": 2048,
        "operator new[](unsigned long)": 2048,
        "operator delete(void*)": 2048,
        "operator delete(void*, unsigned long)": 2048,
        "operator delete[](void*)": 2048,
        "operator delete[](void*, unsigned long)": 2048,
    },
    # Only TU directories matching one of these substrings are scanned:
    # process bodies live in the libraries and bench drivers; tests and
    # examples spawn throwaway bodies that do not ship.
    "tu_path_filters": ["/src/", "/bench/"],
    # Fiber-harness frames that sit under EVERY process body, charged on top
    # of each entry's own depth.  Patterns are regexes over demangled names;
    # a pattern matching nothing is reported (GCC may have inlined it away)
    # but is not an error.
    "harness_chain": [
        r"\bbridge_fiber_entry\b",
        r"bridge::sim::Scheduler::fiber_entry",
        r"bridge::sim::Scheduler::run_process_body",
        r"_Functor = bridge::sim::Runtime::spawn",
    ],
    # Entry-point discovery: every std::_Function_handler invoker whose
    # erased functor is a spawn-body lambda taking bridge::sim::Context&.
    # This is how Runtime::spawn type-erases every process body, so the set
    # is exactly "all fiber entry points" with no per-site registration.
    "entry_functor_re": r"_Functor = (?P<functor>[^;]*<lambda\((?:bridge::sim::)?Context&[^)]*\)>[^;]*); _ArgTypes",
    # Belt-and-braces: names that MUST appear among the discovered entries'
    # call trees.  A refactor that renames a serve loop without updating the
    # audit config fails loudly instead of silently auditing nothing.
    "required_functions": [
        r"bridge::efs::EfsServer::serve",
        r"bridge::core::BridgeServer::serve",
    ],
    # Indirect-call seams with statically known target sets.  Every entry
    # has `caller` (regex over the calling function's demangled name),
    # `targets` (regexes over demangled names; all matching nodes become
    # callees) and a mandatory `reason`.
    "indirect_resolutions": [],
}


# ---------------------------------------------------------------------------
# .ci (VCG callgraph) parsing
# ---------------------------------------------------------------------------

_QUOTED = r'"((?:[^"\\]|\\.)*)"'
NODE_RE = re.compile(r"node:\s*\{\s*title:\s*" + _QUOTED + r"(?:\s*label:\s*" + _QUOTED + r")?")
EDGE_RE = re.compile(
    r"edge:\s*\{\s*sourcename:\s*" + _QUOTED + r"\s*targetname:\s*" + _QUOTED
)
USAGE_RE = re.compile(r"(\d+)\s+bytes\s+\((static|dynamic,bounded|dynamic)\)")
LOC_RE = re.compile(r"^(.*):(\d+):(\d+)$")

INDIRECT = "__indirect_call"


@dataclass
class Node:
    """One function in the merged interprocedural graph."""

    name: str                      # mangled name (TU-local prefix stripped)
    demangled: str = ""
    label: str = ""                # raw label text (demangled sig for lambdas)
    file: str = ""
    line: int = 0
    su_bytes: int = -1             # -1: no usage info (external declaration)
    su_qual: str = ""              # static | dynamic,bounded | dynamic
    callees: set[str] = field(default_factory=set)
    indirect_sites: int = 0        # calls through __indirect_call


def strip_tu_prefix(title: str) -> str:
    """TU-local symbols are emitted as "<path>:<mangled>"; merge by the
    mangled part (COMDAT instantiations repeat per TU)."""
    if title == INDIRECT:
        return title
    idx = title.rfind(":")
    if idx > 0 and "/" in title[:idx]:
        return title[idx + 1 :]
    return title


def parse_ci_text(text: str, graph: dict[str, Node] | None = None) -> dict[str, Node]:
    """Parse one .ci file's worth of VCG callgraph text into `graph`,
    merging duplicate nodes by max stack usage and edge union."""
    if graph is None:
        graph = {}
    for line in text.splitlines():
        m = NODE_RE.search(line)
        if m:
            name = strip_tu_prefix(m.group(1))
            label = (m.group(2) or "").replace('\\"', '"')
            node = graph.get(name)
            if node is None:
                node = Node(name=name)
                graph[name] = node
            parts = label.split("\\n")
            # label = demangled-ish signature \n file:line:col [\n usage]
            if parts and parts[0] and not node.label:
                node.label = parts[0]
            for part in parts[1:]:
                loc = LOC_RE.match(part)
                if loc and not node.file:
                    node.file = loc.group(1)
                    node.line = int(loc.group(2))
            um = USAGE_RE.search(label)
            if um:
                bytes_ = int(um.group(1))
                qual = um.group(2)
                if bytes_ > node.su_bytes:
                    node.su_bytes = bytes_
                # "dynamic" taints the node even if another TU's copy is
                # static (conservative).
                rank = {"": 0, "static": 1, "dynamic,bounded": 2, "dynamic": 3}
                if rank[qual] > rank.get(node.su_qual, 0):
                    node.su_qual = qual
            continue
        m = EDGE_RE.search(line)
        if m:
            src = strip_tu_prefix(m.group(1))
            dst = strip_tu_prefix(m.group(2))
            node = graph.get(src)
            if node is None:
                node = Node(name=src)
                graph[src] = node
            if dst == INDIRECT:
                node.indirect_sites += 1
            else:
                node.callees.add(dst)
    return graph


def demangle_all(graph: dict[str, Node]) -> None:
    """Fill Node.demangled via one batched c++filt run (fall back to the
    mangled name / label when c++filt is unavailable)."""
    names = sorted(graph.keys())
    filt: dict[str, str] = {}
    try:
        proc = subprocess.run(
            ["c++filt"],
            input="\n".join(names),
            capture_output=True,
            text=True,
            check=True,
        )
        out = proc.stdout.splitlines()
        if len(out) == len(names):
            filt = dict(zip(names, out))
    except (OSError, subprocess.CalledProcessError):
        pass
    for name, node in graph.items():
        node.demangled = filt.get(name, "") or node.label or name

# ---------------------------------------------------------------------------
# STACK_AUDIT source annotations
# ---------------------------------------------------------------------------

ANNOT_RE = re.compile(r"//\s*STACK_AUDIT:\s*bound=(\d+)\s*(.*)")

# How many lines below an annotation comment the function's declarator (the
# location GCC reports) may start: template heads / attributes / multi-line
# signatures sit in between.
ANNOT_WINDOW = 6


@dataclass
class Annotation:
    file: str
    line: int          # 1-based line of the annotation comment
    bound: int
    reason: str
    used: bool = False


def collect_annotations(roots: list[str]) -> list[Annotation]:
    annots: list[Annotation] = []
    exts = {".cpp", ".hpp", ".cc", ".hh", ".h"}
    for root in roots:
        if os.path.isfile(root):
            paths = [root]
        else:
            paths = []
            for dirpath, dirnames, filenames in os.walk(root):
                dirnames[:] = [d for d in dirnames if d not in ("build", ".git")]
                for fn in sorted(filenames):
                    if os.path.splitext(fn)[1] in exts:
                        paths.append(os.path.join(dirpath, fn))
        for path in paths:
            with open(path, encoding="utf-8", errors="replace") as f:
                for lineno, line in enumerate(f, start=1):
                    m = ANNOT_RE.search(line)
                    if m:
                        annots.append(
                            Annotation(
                                file=os.path.abspath(path),
                                line=lineno,
                                bound=int(m.group(1)),
                                reason=m.group(2).strip(),
                            )
                        )
    return annots


def attach_annotations(
    graph: dict[str, Node], annots: list[Annotation], errors: list[str]
) -> dict[str, Annotation]:
    """Map node name -> annotation by (file, declarator-line-window)."""
    by_file: dict[str, list[Annotation]] = {}
    for a in annots:
        if not a.reason:
            errors.append(
                f"{a.file}:{a.line}: STACK_AUDIT annotation requires a reason: "
                "// STACK_AUDIT: bound=<bytes> <why this bound is sound>"
            )
        by_file.setdefault(a.file, []).append(a)
    bound_of: dict[str, Annotation] = {}
    for node in graph.values():
        if not node.file:
            continue
        for a in by_file.get(os.path.abspath(node.file), []):
            if a.line < node.line <= a.line + ANNOT_WINDOW:
                bound_of[node.name] = a
                a.used = True
    for a in annots:
        if not a.used and a.reason:
            errors.append(
                f"{a.file}:{a.line}: STACK_AUDIT annotation matches no compiled "
                "function within the next "
                f"{ANNOT_WINDOW} lines; remove it or move it directly above the "
                "function it bounds"
            )
    return bound_of


# ---------------------------------------------------------------------------
# Entry-point discovery
# ---------------------------------------------------------------------------

@dataclass
class Entry:
    name: str        # human name (the spawn-body lambda's enclosing scope)
    node: str        # graph node name


def discover_entries(graph: dict[str, Node], config: dict) -> list[Entry]:
    functor_re = re.compile(config["entry_functor_re"])
    entries: list[Entry] = []
    for node in graph.values():
        if "_M_invoke" not in node.name:
            continue
        m = functor_re.search(node.label) or functor_re.search(node.demangled)
        if m:
            entries.append(Entry(name=m.group("functor").strip(), node=node.name))
    entries.sort(key=lambda e: e.name)
    # One body can instantiate several invoker specializations; keep the
    # first node per functor name (they merge to identical subtrees anyway).
    seen: set[str] = set()
    unique: list[Entry] = []
    for e in entries:
        if e.name not in seen:
            seen.add(e.name)
            unique.append(e)
    return unique


# ---------------------------------------------------------------------------
# Worst-case depth computation
# ---------------------------------------------------------------------------

class CycleError(Exception):
    def __init__(self, cycle: list[str]):
        super().__init__("recursive cycle: " + " -> ".join(cycle))
        self.cycle = cycle


@dataclass
class Chain:
    """Worst-case result for one function: total bytes for the subtree and
    the heaviest chain below (list of (name, frame_bytes, note))."""

    total: int
    frames: list[tuple[str, int, str]]


class Auditor:
    def __init__(self, graph: dict[str, Node], config: dict,
                 bound_of: dict[str, Annotation]):
        self.graph = graph
        self.config = config
        self.bound_of = bound_of
        self.memo: dict[str, Chain] = {}
        self.errors: list[str] = []
        self.unresolved_indirect: dict[str, int] = {}
        self.externals_charged: dict[str, int] = {}
        # caller-name -> extra callee node names from indirect_resolutions
        self.resolved: dict[str, list[str]] = {}
        self._apply_resolutions()

    def _apply_resolutions(self) -> None:
        for rule in self.config.get("indirect_resolutions", []):
            if not rule.get("reason"):
                self.errors.append(
                    f"indirect_resolutions rule for caller '{rule.get('caller')}' "
                    "has no reason; every resolution must explain why the "
                    "target set is complete"
                )
            caller_re = re.compile(rule["caller"])
            target_res = [re.compile(t) for t in rule["targets"]]
            targets = [
                n.name
                for n in self.graph.values()
                if any(t.search(n.demangled) or t.search(n.label) for t in target_res)
            ]
            if not targets:
                self.errors.append(
                    f"indirect_resolutions rule for caller '{rule['caller']}' "
                    "matched no target functions; fix the patterns or drop it"
                )
            matched_caller = False
            for n in self.graph.values():
                if caller_re.search(n.demangled) or caller_re.search(n.label):
                    matched_caller = True
                    self.resolved.setdefault(n.name, []).extend(targets)
            if not matched_caller:
                self.errors.append(
                    f"indirect_resolutions rule for caller '{rule['caller']}' "
                    "matched no calling function; fix the pattern or drop it"
                )

    def pretty(self, name: str) -> str:
        node = self.graph.get(name)
        if node is None:
            return name
        return node.demangled or node.label or name

    def external_leaf_bytes(self, name: str) -> int:
        table = self.config.get("external_bounds", {})
        base = name.split("@")[0]
        if base in table:
            return int(table[base])
        return int(self.config["external_default_bytes"])

    def worst(self, name: str, stack: list[str] | None = None) -> Chain:
        """Worst-case subtree depth for `name` (bytes), memoized."""
        if name in self.memo:
            return self.memo[name]
        if stack is None:
            stack = []
        if name in stack:
            cycle = stack[stack.index(name):] + [name]
            raise CycleError([self.pretty(n) for n in cycle])

        annot = self.bound_of.get(name)
        if annot is not None:
            chain = Chain(annot.bound,
                          [(name, annot.bound, f"bound: {annot.reason}")])
            self.memo[name] = chain
            return chain

        node = self.graph.get(name)
        if node is None or node.su_bytes < 0:
            # External declaration: charge the leaf bound.
            bytes_ = self.external_leaf_bytes(name)
            self.externals_charged[name] = bytes_
            chain = Chain(bytes_, [(name, bytes_, "external leaf bound")])
            self.memo[name] = chain
            return chain

        if node.su_qual == "dynamic":
            self.errors.append(
                f"{node.file}:{node.line}: '{self.pretty(name)}' has an "
                "UNBOUNDED dynamic stack frame (alloca/VLA); bound it or add "
                "a STACK_AUDIT annotation"
            )

        frame = node.su_bytes
        stack.append(name)
        try:
            best = Chain(0, [])
            for callee in sorted(node.callees):
                try:
                    sub = self.worst(callee, stack)
                except CycleError as err:
                    # A cycle is only fatal when reachable; report once.
                    msg = (
                        f"{node.file}:{node.line}: unannotated recursion "
                        f"reachable from fiber code: {err}"
                    )
                    if msg not in self.errors:
                        self.errors.append(msg)
                    continue
                if sub.total + CALL_OVERHEAD_BYTES > best.total:
                    best = Chain(sub.total + CALL_OVERHEAD_BYTES, sub.frames)
            if node.indirect_sites > 0:
                extra_targets = self.resolved.get(name, [])
                if extra_targets:
                    for callee in sorted(set(extra_targets)):
                        try:
                            sub = self.worst(callee, stack)
                        except CycleError as err:
                            msg = (
                                f"{node.file}:{node.line}: unannotated "
                                f"recursion via resolved indirect call: {err}"
                            )
                            if msg not in self.errors:
                                self.errors.append(msg)
                            continue
                        if sub.total + CALL_OVERHEAD_BYTES > best.total:
                            best = Chain(sub.total + CALL_OVERHEAD_BYTES,
                                         sub.frames)
                else:
                    bytes_ = int(self.config["indirect_default_bytes"])
                    self.unresolved_indirect[name] = node.indirect_sites
                    if bytes_ + CALL_OVERHEAD_BYTES > best.total:
                        best = Chain(
                            bytes_ + CALL_OVERHEAD_BYTES,
                            [("(unresolved indirect call)", bytes_,
                              "default indirect bound")],
                        )
        finally:
            stack.pop()

        chain = Chain(frame + best.total,
                      [(name, frame, node.su_qual or "static")] + best.frames)
        self.memo[name] = chain
        return chain

# ---------------------------------------------------------------------------
# Reporting and the main driver
# ---------------------------------------------------------------------------

def find_nodes(graph: dict[str, Node], pattern: str) -> list[Node]:
    pat = re.compile(pattern)
    return [
        n
        for n in graph.values()
        if pat.search(n.demangled) or pat.search(n.label) or pat.search(n.name)
    ]


def harness_prefix_bytes(graph: dict[str, Node], config: dict,
                         notes: list[str]) -> int:
    total = 0
    for pattern in config["harness_chain"]:
        nodes = find_nodes(graph, pattern)
        with_su = [n for n in nodes if n.su_bytes >= 0]
        if not with_su:
            notes.append(f"harness frame '{pattern}': not found (inlined?)")
            continue
        biggest = max(with_su, key=lambda n: n.su_bytes)
        total += biggest.su_bytes + CALL_OVERHEAD_BYTES
    return total


def discover_ci_files(build_dir: str, filters: list[str]) -> list[str]:
    out: list[str] = []
    for dirpath, _dirnames, filenames in os.walk(build_dir):
        norm = dirpath.replace(os.sep, "/") + "/"
        if filters and not any(f in norm for f in filters):
            continue
        for fn in sorted(filenames):
            if fn.endswith(".ci"):
                out.append(os.path.join(dirpath, fn))
    return sorted(out)


def load_config(path: str | None) -> dict:
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path:
        with open(path, encoding="utf-8") as f:
            user = json.load(f)
        for key, value in user.items():
            if key == "external_bounds":
                config["external_bounds"].update(value)
            else:
                config[key] = value
    return config


def kib(n: int) -> str:
    return f"{n / 1024:.1f} KiB"


def run_audit(ci_files: list[str], config: dict, source_roots: list[str],
              out, json_path: str | None = None) -> int:
    graph: dict[str, Node] = {}
    for path in ci_files:
        with open(path, encoding="utf-8", errors="replace") as f:
            parse_ci_text(f.read(), graph)
    demangle_all(graph)

    errors: list[str] = []
    annots = collect_annotations(source_roots)
    bound_of = attach_annotations(graph, annots, errors)

    entries = discover_entries(graph, config)
    if not entries:
        errors.append(
            "no fiber entry points discovered — did the build emit .ci files "
            "(BRIDGE_STACK_AUDIT_INFO=ON, GCC)?"
        )

    auditor = Auditor(graph, config, bound_of)
    errors.extend(auditor.errors)

    budget = int(config["stack_kb"] * 1024 * config["budget_fraction"])
    notes: list[str] = []
    prefix = harness_prefix_bytes(graph, config, notes)

    rows = []
    for entry in entries:
        try:
            chain = auditor.worst(entry.node)
        except CycleError as err:
            errors.append(f"entry '{entry.name}': {err}")
            continue
        total = chain.total + prefix
        rows.append((entry, total, chain))
    rows.sort(key=lambda r: (-r[1], r[0].name))

    # Belt-and-braces: the named serve loops must be inside some audited tree.
    for pattern in config["required_functions"]:
        nodes = find_nodes(graph, pattern)
        if not any(n.name in auditor.memo for n in nodes):
            errors.append(
                f"required function '{pattern}' was not reached by any audited "
                "entry point; the entry discovery or the config is stale"
            )

    over = [(e, t) for e, t, _ in rows if t > budget]

    print("stack_audit: worst-case stack depth per fiber entry point", file=out)
    print(
        f"  stack {config['stack_kb']} KiB"
        f" | budget {kib(budget)} ({config['budget_fraction']:.0%})"
        f" | harness prefix {prefix} B"
        f" | {len(graph)} functions from {len(ci_files)} TUs",
        file=out,
    )
    print(file=out)
    print(f"  {'worst':>10}  {'%budget':>8}  entry", file=out)
    for entry, total, _chain in rows:
        flag = " OVER" if total > budget else ""
        print(
            f"  {total:>10}  {100.0 * total / budget:>7.1f}%  {entry.name}{flag}",
            file=out,
        )
    print(file=out)

    if rows:
        worst_entry, worst_total, worst_chain = rows[0]
        print(f"  heaviest chain — {worst_entry.name} "
              f"({worst_total} B incl. {prefix} B harness prefix):", file=out)
        for name, frame, note in worst_chain.frames:
            print(f"    {frame:>8} B  {auditor.pretty(name)}  [{note}]", file=out)
        print(file=out)

    if auditor.unresolved_indirect:
        sites = sum(auditor.unresolved_indirect.values())
        print(
            f"  {len(auditor.unresolved_indirect)} functions with "
            f"{sites} unresolved indirect call sites (each charged "
            f"{config['indirect_default_bytes']} B); deepest offenders:",
            file=out,
        )
        for name in sorted(auditor.unresolved_indirect)[:10]:
            print(f"    {auditor.pretty(name)}", file=out)
        print(file=out)

    for note in notes:
        print(f"  note: {note}", file=out)

    for err in sorted(set(errors)):
        print(f"stack_audit: ERROR: {err}", file=out)
    for entry, total in over:
        print(
            f"stack_audit: ERROR: entry '{entry.name}' worst-case "
            f"{total} B exceeds budget {budget} B "
            f"({kib(total)} > {kib(budget)})",
            file=out,
        )

    if json_path:
        doc = {
            "schema": "bridge.stack_audit.v1",
            "stack_kb": config["stack_kb"],
            "budget_bytes": budget,
            "harness_prefix_bytes": prefix,
            "entries": [
                {
                    "entry": e.name,
                    "worst_bytes": t,
                    "over_budget": t > budget,
                    "chain": [
                        {"function": auditor.pretty(n), "frame_bytes": b,
                         "note": note}
                        for n, b, note in c.frames
                    ],
                }
                for e, t, c in rows
            ],
            "errors": sorted(set(errors))
            + [
                f"entry '{e.name}' over budget: {t} > {budget}"
                for e, t in over
            ],
        }
        with open(json_path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")

    if errors or over:
        print(
            f"stack_audit: FAILED ({len(errors)} error(s), "
            f"{len(over)} entry point(s) over budget)",
            file=out,
        )
        return 1
    print(f"stack_audit: OK ({len(rows)} entry points within budget)", file=out)
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build",
                        help="CMake build dir to scan for .ci files")
    parser.add_argument("--config", default=None,
                        help="JSON config overriding the built-in defaults")
    parser.add_argument("--stack-kb", type=int, default=None,
                        help="audit against this BRIDGE_SIM_STACK_KB")
    parser.add_argument("--budget-fraction", type=float, default=None)
    parser.add_argument("--json", default=None,
                        help="write the machine-readable depth table here")
    parser.add_argument("--source-root", action="append", default=None,
                        help="roots scanned for STACK_AUDIT annotations "
                             "(default: src bench)")
    args = parser.parse_args(argv[1:])

    config_path = args.config
    if config_path is None and os.path.isfile(
        os.path.join("tools", "analysis", "stack_audit_config.json")
    ):
        config_path = os.path.join("tools", "analysis", "stack_audit_config.json")
    config = load_config(config_path)
    if args.stack_kb is not None:
        config["stack_kb"] = args.stack_kb
    if args.budget_fraction is not None:
        config["budget_fraction"] = args.budget_fraction

    ci_files = discover_ci_files(args.build_dir, config["tu_path_filters"])
    if not ci_files:
        print(
            f"stack_audit: no .ci files under '{args.build_dir}' — build with "
            "GCC and BRIDGE_STACK_AUDIT_INFO=ON first",
            file=sys.stderr,
        )
        return 2
    roots = args.source_root or ["src", "bench"]
    roots = [r for r in roots if os.path.exists(r)]
    return run_audit(ci_files, config, roots, sys.stdout, args.json)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
