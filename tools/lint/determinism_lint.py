#!/usr/bin/env python3
"""Determinism lint for the Bridge simulator.

The whole value of the simulator rests on one property: the same seed
produces the same trace, byte for byte, on any machine.  This linter scans
the C++ sources for constructs that silently break that property:

  bridge-wall-clock      Wall-clock reads (std::chrono::system_clock,
                         time(), clock_gettime, gettimeofday).  Virtual time
                         comes from sim::Context::now(); host time must never
                         leak into simulation state or output.
  bridge-unseeded-random Nondeterministic randomness (std::random_device,
                         rand()/srand()).  All randomness must derive from
                         the run seed via sim::Rng.
  bridge-unordered-iter  Iteration over std::unordered_map/std::unordered_set.
                         Bucket order depends on libstdc++ version, insertion
                         history and pointer values; any iteration whose order
                         can escape (serialization, RPC issue order,
                         scheduling) is a reproducibility bug.  Sites that are
                         provably order-insensitive carry a NOLINT waiver.
  bridge-pointer-key-map Ordered containers (std::map/std::set) keyed on a
                         pointer type.  Pointer comparison order is ASLR
                         order; iterating such a container is nondeterministic
                         across runs even with identical seeds.
  bridge-uninit-pod      POD members of wire-protocol structs without an
                         initializer.  Uninitialized padding/fields serialize
                         garbage bytes, breaking trace and message byte
                         identity.

Fiber-safety rules (PR 10): process bodies run on pooled fixed-size fiber
stacks, cooperatively scheduled on ONE OS thread.  An OS-level block inside a
process body stalls the whole simulation, and a fat stack frame is a latent
guard-page crash (see tools/analysis/stack_audit.py for the interprocedural
version of that check):

  bridge-fiber-thread-primitive
                         std::mutex / condition_variable / std::(j)thread /
                         pthread_* anywhere in the scanned tree, scheduler
                         and fiber code included: every process runs on the
                         one controller thread and coordinates through sim
                         channels and events.
  bridge-fiber-blocking  Blocking host calls (sleep/usleep/nanosleep,
                         std::this_thread::*, poll/select/epoll_wait,
                         sem_wait, fsync...).  Simulated waiting is
                         Context::sleep_until / channel recv; a host block
                         freezes every fiber at once.
  bridge-large-frame     A fixed-size local array of >= 16 KiB.  That is
                         12.5%+ of the default 128 KiB stack budget in one
                         frame; hoist it to the heap or a pooled buffer.
  bridge-ignored-result  A `(void)` cast discarding a call result with no
                         reason.  util::Status / util::Result are
                         [[nodiscard]]; `(void)` is the sanctioned override
                         but must carry a trailing `// why` comment (or a
                         comment directly above) so every dropped error is
                         a documented decision.

Waivers: a finding is suppressed by a comment on the same line or the line
directly above:

    // NOLINT(bridge-<rule>): <non-empty reason>

The reason is mandatory; a bare NOLINT without a justification is itself an
error.  Run from the repo root:

    python3 tools/lint/determinism_lint.py        # lint src/ bench/ tests/
    python3 tools/lint/determinism_lint.py src/efs  # or specific paths

Exit status is 0 when no findings, 1 otherwise.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass, field

DEFAULT_ROOTS = ["src", "bench", "tests"]
CXX_EXTENSIONS = {".cpp", ".hpp", ".cc", ".hh", ".h"}

# Protocol headers whose structs go on the wire: every POD member must have
# an initializer.
PROTOCOL_HEADERS = {
    os.path.join("src", "core", "protocol.hpp"),
    os.path.join("src", "efs", "protocol.hpp"),
}

NOLINT_RE = re.compile(r"//\s*NOLINT\((bridge-[a-z-]+)\)\s*(?::\s*(.*))?")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    path: str
    raw_lines: list[str]
    # Lines with comments and string/char literals blanked out, so regexes
    # never match inside them.  Same line count / column layout as raw_lines.
    code_lines: list[str] = field(default_factory=list)
    # line number (1-based) -> (rule, reason or None)
    waivers: dict[int, tuple[str, str | None]] = field(default_factory=dict)


def _is_digit_separator(line: str, i: int) -> bool:
    """True when the quote at line[i] is a C++14 digit separator (1'000'000,
    0xFF'FF) rather than the start of a char literal: the quote sits inside a
    pp-number, i.e. the maximal alnum/quote/dot run ending just before i
    starts with a digit.  (Known blind spot: prefixed char literals such as
    u8'a' look like a pp-number and are misread; none exist in this tree.)"""
    j = i - 1
    while j >= 0 and (line[j].isalnum() or line[j] in "'._"):
        j -= 1
    start = j + 1
    return start < i and line[start].isdigit()


def strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Blank out comments and string/char/raw-string literals, preserving
    layout.  Digit separators (1'000'000) are not treated as quotes."""
    out: list[str] = []
    in_block_comment = False
    raw_end: str | None = None  # inside R"delim( ... when set, holds )delim"
    for line in lines:
        buf: list[str] = []
        i = 0
        n = len(line)
        while i < n:
            if raw_end is not None:
                end = line.find(raw_end, i)
                if end == -1:
                    buf.append(" " * (n - i))
                    i = n
                else:
                    buf.append(" " * (end - i + len(raw_end)))
                    i = end + len(raw_end)
                    raw_end = None
                continue
            if in_block_comment:
                if line.startswith("*/", i):
                    in_block_comment = False
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
                continue
            two = line[i : i + 2]
            if two == "//":
                buf.append(" " * (n - i))
                break
            if two == "/*":
                in_block_comment = True
                buf.append("  ")
                i += 2
                continue
            ch = line[i]
            if (
                ch == '"'
                and i > 0
                and line[i - 1] == "R"
                and (i < 2 or not (line[i - 2].isalnum() or line[i - 2] == "_"))
            ):
                # Raw string R"delim( ... )delim"; contents may span lines.
                paren = line.find("(", i + 1)
                if paren != -1:
                    raw_end = ")" + line[i + 1 : paren] + '"'
                    buf.append('"')
                    buf.append(" " * (paren - i))
                    i = paren + 1
                    continue
                # No '(' on the line: malformed raw string; fall through and
                # treat it as an ordinary string literal.
            if ch == "'" and _is_digit_separator(line, i):
                buf.append(" ")
                i += 1
                continue
            if ch == '"' or ch == "'":
                quote = ch
                buf.append(quote)
                i += 1
                while i < n:
                    if line[i] == "\\":
                        buf.append("  ")
                        i += 2
                        continue
                    if line[i] == quote:
                        buf.append(quote)
                        i += 1
                        break
                    buf.append(" ")
                    i += 1
                continue
            buf.append(ch)
            i += 1
        out.append("".join(buf))
    return out


def load_file(path: str) -> SourceFile:
    with open(path, encoding="utf-8", errors="replace") as f:
        raw = f.read().splitlines()
    sf = SourceFile(path=path, raw_lines=raw)
    sf.code_lines = strip_comments_and_strings(raw)
    for lineno, line in enumerate(raw, start=1):
        m = NOLINT_RE.search(line)
        if m:
            reason = m.group(2)
            reason = reason.strip() if reason else None
            sf.waivers[lineno] = (m.group(1), reason or None)
    return sf


class Linter:
    def __init__(self) -> None:
        self.findings: list[Finding] = []
        self.used_waivers: set[tuple[str, int]] = set()

    def report(self, sf: SourceFile, lineno: int, rule: str, message: str) -> None:
        """Record a finding unless a valid waiver covers it.

        A waiver applies on the same line or anywhere in the contiguous
        comment block directly above (so the justification can wrap).
        """
        candidates = [lineno]
        wline = lineno - 1
        while wline >= 1 and sf.raw_lines[wline - 1].strip().startswith("//"):
            candidates.append(wline)
            wline -= 1
        for wline in candidates:
            waiver = sf.waivers.get(wline)
            if waiver and waiver[0] == rule:
                self.used_waivers.add((sf.path, wline))
                if waiver[1] is None:
                    self.findings.append(
                        Finding(
                            sf.path,
                            wline,
                            rule,
                            "NOLINT waiver requires a reason: "
                            f"// NOLINT({rule}): <why this is safe>",
                        )
                    )
                return
        self.findings.append(Finding(sf.path, lineno, rule, message))

    # ---- simple pattern rules -------------------------------------------

    WALL_CLOCK_PATTERNS = [
        (re.compile(r"std::chrono::system_clock"), "std::chrono::system_clock"),
        (re.compile(r"std::chrono::steady_clock"), "std::chrono::steady_clock"),
        (
            re.compile(r"std::chrono::high_resolution_clock"),
            "std::chrono::high_resolution_clock",
        ),
        (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"), "time()"),
        (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
        (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
        (re.compile(r"\blocaltime(?:_r)?\s*\("), "localtime()"),
    ]

    RANDOM_PATTERNS = [
        (re.compile(r"std::random_device"), "std::random_device"),
        (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    ]

    def lint_patterns(self, sf: SourceFile) -> None:
        for lineno, line in enumerate(sf.code_lines, start=1):
            for pat, what in self.WALL_CLOCK_PATTERNS:
                if pat.search(line):
                    self.report(
                        sf,
                        lineno,
                        "bridge-wall-clock",
                        f"{what} reads host time; simulation code must use "
                        "sim::Context::now() so runs are reproducible",
                    )
            for pat, what in self.RANDOM_PATTERNS:
                if pat.search(line):
                    self.report(
                        sf,
                        lineno,
                        "bridge-unseeded-random",
                        f"{what} is not derived from the run seed; use "
                        "sim::Rng (Context::rng()) instead",
                    )

    POINTER_KEY_RE = re.compile(r"std::(?:map|set)\s*<\s*[\w:]+(?:\s*<[^<>]*>)?\s*\*")

    def lint_pointer_keys(self, sf: SourceFile) -> None:
        for lineno, line in enumerate(sf.code_lines, start=1):
            if self.POINTER_KEY_RE.search(line):
                self.report(
                    sf,
                    lineno,
                    "bridge-pointer-key-map",
                    "ordered container keyed on a pointer iterates in address "
                    "order, which varies run to run under ASLR; key on a "
                    "stable id instead",
                )

    # ---- unordered-container iteration ----------------------------------

    UNORDERED_DECL_RE = re.compile(
        r"std::unordered_(?:map|set)\s*<[^;]*>\s+(\w+)\s*[;{=]"
    )
    # `for (... : name)` and `name.begin()`
    RANGE_FOR_RE = re.compile(r"for\s*\([^;)]*:\s*(?:this\s*->\s*)?(\w+)\s*\)")
    BEGIN_RE = re.compile(r"(?<![\w.])(\w+)\s*\.\s*(?:begin|cbegin)\s*\(")

    def collect_unordered_names(self, sf: SourceFile) -> set[str]:
        names: set[str] = set()
        for line in sf.code_lines:
            for m in self.UNORDERED_DECL_RE.finditer(line):
                names.add(m.group(1))
        return names

    def lint_unordered_iteration(self, sf: SourceFile, extra_names: set[str]) -> None:
        names = self.collect_unordered_names(sf) | extra_names
        if not names:
            return
        for lineno, line in enumerate(sf.code_lines, start=1):
            hits: set[str] = set()
            for m in self.RANGE_FOR_RE.finditer(line):
                if m.group(1) in names:
                    hits.add(m.group(1))
            for m in self.BEGIN_RE.finditer(line):
                if m.group(1) in names:
                    hits.add(m.group(1))
            for name in sorted(hits):
                self.report(
                    sf,
                    lineno,
                    "bridge-unordered-iter",
                    f"iterating unordered container '{name}': bucket order is "
                    "not deterministic across libraries/runs; sort a snapshot "
                    "first, or waive with a reason if order cannot escape",
                )

    # ---- fiber hazards ---------------------------------------------------

    THREAD_PRIMITIVE_PATTERNS = [
        (
            re.compile(r"std::(?:recursive_|shared_|timed_|recursive_timed_)?mutex\b"),
            "std::mutex family",
        ),
        (re.compile(r"std::condition_variable(?:_any)?\b"), "std::condition_variable"),
        (re.compile(r"std::j?thread\b"), "std::thread"),
        (re.compile(r"\bpthread_\w+\s*\("), "pthread_*"),
    ]

    BLOCKING_PATTERNS = [
        (re.compile(r"std::this_thread::\w+"), "std::this_thread"),
        (re.compile(r"(?<![\w:.])(?:u|nano)?sleep\s*\("), "sleep()"),
        (
            re.compile(r"(?<![\w:.])(?:poll|ppoll|select|pselect|epoll_wait)\s*\("),
            "blocking I/O multiplex syscall",
        ),
        (
            re.compile(r"(?<![\w:.])(?:sem_wait|sem_timedwait|flock|fsync|fdatasync|msync)\s*\("),
            "blocking syscall",
        ),
    ]

    def lint_fiber_hazards(self, sf: SourceFile) -> None:
        for lineno, line in enumerate(sf.code_lines, start=1):
            for pat, what in self.THREAD_PRIMITIVE_PATTERNS:
                if pat.search(line):
                    self.report(
                        sf,
                        lineno,
                        "bridge-fiber-thread-primitive",
                        f"{what} in code that runs on a cooperative fiber; "
                        "the simulation has no OS threads — coordinate "
                        "through sim channels/events instead",
                    )
            for pat, what in self.BLOCKING_PATTERNS:
                if pat.search(line):
                    self.report(
                        sf,
                        lineno,
                        "bridge-fiber-blocking",
                        f"{what} blocks the host thread, freezing every fiber "
                        "in the simulation; use Context::sleep_until / "
                        "channel recv for simulated waiting",
                    )

    # ---- large stack frames ----------------------------------------------

    LARGE_FRAME_THRESHOLD = 16 * 1024

    TYPE_SIZES = {
        "bool": 1, "char": 1, "unsigned char": 1, "signed char": 1,
        "std::byte": 1, "byte": 1,
        "std::int8_t": 1, "std::uint8_t": 1, "int8_t": 1, "uint8_t": 1,
        "std::int16_t": 2, "std::uint16_t": 2, "int16_t": 2, "uint16_t": 2,
        "short": 2, "unsigned short": 2,
        "std::int32_t": 4, "std::uint32_t": 4, "int32_t": 4, "uint32_t": 4,
        "int": 4, "unsigned": 4, "unsigned int": 4, "float": 4,
        "std::int64_t": 8, "std::uint64_t": 8, "int64_t": 8, "uint64_t": 8,
        "std::size_t": 8, "size_t": 8, "long": 8, "unsigned long": 8,
        "long long": 8, "unsigned long long": 8, "double": 8, "void*": 8,
    }

    C_ARRAY_RE = re.compile(
        r"\b(?P<type>[\w:]+(?:\s+(?:char|short|int|long))*)\s+"
        r"(?P<name>\w+)\s*\[(?P<dim>[^\]\[]+)\](?:\s*\[(?P<dim2>[^\]\[]+)\])?\s*[;={]"
    )
    STD_ARRAY_RE = re.compile(
        r"std::array\s*<\s*(?P<type>[^,<>]+?)\s*,\s*(?P<dim>[^<>]+?)\s*>"
    )
    DIM_CHARS_RE = re.compile(r"[0-9a-fA-FxX'uUlL\s*+()-]+")

    @classmethod
    def _eval_dim(cls, text: str) -> int | None:
        """Evaluate a constant array dimension; None when not a literal
        expression (identifiers/sizeof need the real compiler — the
        interprocedural auditor covers those via -fstack-usage)."""
        if not cls.DIM_CHARS_RE.fullmatch(text):
            return None
        cleaned = text.replace("'", "")
        cleaned = re.sub(r"(?<=[0-9a-fA-F])[uUlL]+\b", "", cleaned)
        try:
            value = eval(cleaned, {"__builtins__": {}}, {})  # noqa: S307
        except Exception:
            return None
        return int(value) if isinstance(value, int) and value >= 0 else None

    def lint_large_frames(self, sf: SourceFile) -> None:
        for lineno, line in enumerate(sf.code_lines, start=1):
            candidates: list[tuple[str, int | None]] = []
            for m in self.C_ARRAY_RE.finditer(line):
                if m.group("type") in ("return", "case", "goto", "delete"):
                    continue
                count = self._eval_dim(m.group("dim"))
                if count is not None and m.group("dim2"):
                    inner = self._eval_dim(m.group("dim2"))
                    count = count * inner if inner is not None else None
                candidates.append((m.group("type").strip(), count))
            for m in self.STD_ARRAY_RE.finditer(line):
                candidates.append(
                    (m.group("type").strip(), self._eval_dim(m.group("dim")))
                )
            for type_name, count in candidates:
                if count is None:
                    continue
                elem = self.TYPE_SIZES.get(type_name)
                # Unknown element type: only flag when the element COUNT
                # alone crosses the threshold (sizeof >= 1 regardless).
                bytes_ = count * elem if elem is not None else count
                if bytes_ >= self.LARGE_FRAME_THRESHOLD:
                    self.report(
                        sf,
                        lineno,
                        "bridge-large-frame",
                        f"fixed-size array of ~{bytes_} bytes; on a pooled "
                        "fiber stack that is a guard-page crash waiting for a "
                        "deep call chain — hoist it to the heap or a pooled "
                        "buffer (budget: see tools/analysis/stack_audit.py)",
                    )

    # ---- ignored results -------------------------------------------------

    VOID_CAST_RE = re.compile(r"\(\s*void\s*\)\s*[A-Za-z_][\w:.>\[\]-]*\s*\(")

    def lint_ignored_results(self, sf: SourceFile) -> None:
        for lineno, line in enumerate(sf.code_lines, start=1):
            m = self.VOID_CAST_RE.search(line)
            if not m:
                continue
            raw = sf.raw_lines[lineno - 1]
            # A trailing comment on the line, or a comment directly above,
            # counts as the mandatory reason.
            if "//" in raw[m.start():] or "/*" in raw[m.start():]:
                continue
            if lineno >= 2 and sf.raw_lines[lineno - 2].strip().startswith("//"):
                continue
            self.report(
                sf,
                lineno,
                "bridge-ignored-result",
                "(void)-discarded call result with no reason; append "
                "`// <why dropping this is safe>` or handle the error — "
                "silent drops on rename/replication/fsck paths corrupt state",
            )

    # ---- uninitialized POD members in protocol structs -------------------

    POD_TYPES = (
        r"(?:std::)?u?int(?:8|16|32|64)_t|std::size_t|std::byte|bool|float|"
        r"double|char|(?:un)?signed(?:\s+\w+)?|short|long(?:\s+long)?|int"
    )
    POD_MEMBER_RE = re.compile(
        r"^\s*(?:static\s+constexpr\s+|constexpr\s+|mutable\s+)?"
        rf"(?P<type>{POD_TYPES})\s+"
        r"(?P<name>\w+)\s*(?P<init>=[^;]+|\{[^;]*\})?\s*;"
    )

    def lint_uninit_pod(self, sf: SourceFile) -> None:
        in_struct_depth: list[int] = []  # brace depths where a struct body opened
        depth = 0
        for lineno, line in enumerate(sf.code_lines, start=1):
            stripped = line.strip()
            if re.match(r"(?:struct|class)\s+\w+[^;]*\{", stripped):
                in_struct_depth.append(depth)
            opens = line.count("{")
            closes = line.count("}")
            if in_struct_depth and depth + opens > in_struct_depth[-1]:
                m = self.POD_MEMBER_RE.match(line)
                if m and not m.group("init"):
                    if "static" not in line and "constexpr" not in line:
                        self.report(
                            sf,
                            lineno,
                            "bridge-uninit-pod",
                            f"protocol struct member '{m.group('name')}' has no "
                            "initializer; uninitialized bytes serialize as "
                            "garbage and break byte-identical replay",
                        )
            depth += opens - closes
            while in_struct_depth and depth <= in_struct_depth[-1]:
                if closes > 0 and depth <= in_struct_depth[-1]:
                    in_struct_depth.pop()
                else:
                    break

    # ---- waiver hygiene --------------------------------------------------

    def lint_unused_waivers(self, files: list[SourceFile]) -> None:
        for sf in files:
            for lineno, (rule, _reason) in sf.waivers.items():
                if (sf.path, lineno) not in self.used_waivers:
                    self.findings.append(
                        Finding(
                            sf.path,
                            lineno,
                            rule,
                            f"NOLINT({rule}) waiver matches no finding; "
                            "remove it so waivers stay meaningful",
                        )
                    )


def discover(paths: list[str]) -> list[str]:
    files: list[str] = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
            continue
        for dirpath, dirnames, filenames in os.walk(p):
            dirnames[:] = [d for d in dirnames if d not in ("build", ".git")]
            for fn in sorted(filenames):
                if os.path.splitext(fn)[1] in CXX_EXTENSIONS:
                    files.append(os.path.join(dirpath, fn))
    return sorted(files)


def sibling_header_names(path: str, linter: Linter) -> set[str]:
    """Unordered-container members declared in the matching .hpp of a .cpp."""
    base, ext = os.path.splitext(path)
    if ext not in (".cpp", ".cc"):
        return set()
    for hext in (".hpp", ".hh", ".h"):
        header = base + hext
        if os.path.isfile(header):
            return linter.collect_unordered_names(load_file(header))
    return set()


def main(argv: list[str]) -> int:
    roots = argv[1:] or DEFAULT_ROOTS
    roots = [r for r in roots if os.path.exists(r)]
    if not roots:
        print("determinism_lint: no input paths found", file=sys.stderr)
        return 2

    linter = Linter()
    files = [load_file(p) for p in discover(roots)]
    for sf in files:
        linter.lint_patterns(sf)
        linter.lint_pointer_keys(sf)
        linter.lint_fiber_hazards(sf)
        linter.lint_large_frames(sf)
        linter.lint_ignored_results(sf)
        extra = sibling_header_names(sf.path, linter)
        linter.lint_unordered_iteration(sf, extra)
        norm = os.path.normpath(sf.path)
        if norm in PROTOCOL_HEADERS or os.path.basename(norm) == "protocol.hpp":
            linter.lint_uninit_pod(sf)
    linter.lint_unused_waivers(files)

    for finding in sorted(
        linter.findings, key=lambda f: (f.path, f.line, f.rule)
    ):
        print(finding.render())
    if linter.findings:
        print(
            f"determinism_lint: {len(linter.findings)} finding(s) in "
            f"{len(files)} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"determinism_lint: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
