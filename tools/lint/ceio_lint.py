#!/usr/bin/env python3
"""Static checker for the CEIO simulator: project conventions and the
determinism rules, in one rule table.

The rules encode what clang-tidy cannot express. Eight are conventions that
complement the compile-time unit types (src/common/units.h) and the runtime
invariant auditor (src/audit/). Four guard the repo's headline correctness
property, *bitwise determinism*: the same scenario produces byte-identical
reports at any shard count and any sweep parallelism (DESIGN.md, "Determinism
rules"). `--list-rules` prints every rule with its scope; the docstring of
each `check_*` function below gives its rationale.

Every rule runs over one source model per file: the text with comments and
string/char literals blanked (line structure kept), so no rule matches inside
documentation or log messages. Suppressions are read from the raw lines.

Suppression: append `// lint: allow-<rule>` to the offending line, where
<rule> is the exact rule name; a short reason after it is the convention
(`// lint: allow-packet-copy (domain entry)`).

Usage
-----
    tools/lint/ceio_lint.py                 # check the tree
    tools/lint/ceio_lint.py --rule R ...    # only rule R (repeatable)
    tools/lint/ceio_lint.py --list-rules
    tools/lint/ceio_lint.py --root DIR      # check another tree (the fixtures)

Exit codes: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

REPO_ROOT = Path(__file__).resolve().parents[2]

SOURCES = (".h", ".cc", ".cpp")
HEADERS = (".h",)
# Subtrees never scanned: fixtures carry deliberately seeded violations,
# build trees carry generated code.
EXCLUDE_PARTS = frozenset(("fixtures", "build", "build-check", "golden"))

SUPPRESS_RE = re.compile(r"lint:\s*allow-([a-z][a-z-]*)")


# ---------------------------------------------------------------------------
# Source model
# ---------------------------------------------------------------------------

# Comments, raw strings, strings and char literals. A quote right after a
# hex digit is a digit separator (1'000'000), not a char literal.
TOKEN_RE = re.compile(
    r"//[^\n]*|/\*.*?\*/"
    r'|\bR"([^ ()\\\t\n]{0,16})\(.*?\)\1"'
    r'|"(?:\\.|[^"\\\n])*"'
    r"|(?<![0-9A-Fa-f])'(?:\\.|[^'\\\n])*'",
    re.S)


def _blank(m: re.Match) -> str:
    tok = m.group(0)
    if tok[0] == "/":
        return re.sub(r"[^\n]", " ", tok)
    open_end = 2 if tok[0] == "R" else 1  # keep the quotes, blank the body
    return tok[:open_end] + re.sub(r"[^\n]", " ", tok[open_end:-1]) + tok[-1]


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure."""
    return TOKEN_RE.sub(_blank, text)


class SourceFile:
    def __init__(self, path: Path, rel: str):
        self.path = path
        self.rel = rel
        raw = path.read_text()
        self.raw_lines = raw.split("\n")
        self.code = strip_comments_and_strings(raw)
        self.code_lines = self.code.split("\n")

    def suppressed(self, rule: str, lineno: int) -> bool:
        """True when line `lineno` (1-based) carries `// lint: allow-<rule>`."""
        return rule in SUPPRESS_RE.findall(self.raw_lines[lineno - 1])


class Scope(NamedTuple):
    dirs: tuple[str, ...]
    suffixes: tuple[str, ...] = SOURCES
    skip: str | None = None  # regex over the root-relative path


class Finding(NamedTuple):
    rel: str
    lineno: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.rel}:{self.lineno}: [{self.rule}] {self.message}"


# A check yields (file, 1-based line, message); the driver applies the
# suppressions.
Hit = tuple[SourceFile, int, str]


class Tree:
    """The scanned tree: each file is read and stripped once, whatever the
    number of rules that visit it."""

    def __init__(self, root: Path):
        self.root = root
        self._sources: dict[Path, SourceFile] = {}
        self._index: SymbolIndex | None = None
        self._loops: dict[Path, list[LoopSite]] = {}

    def files(self, scope: Scope) -> list[SourceFile]:
        out = []
        for d in scope.dirs:
            base = self.root / d
            if not base.exists():
                continue
            for path in sorted(base.rglob("*")):
                if path.suffix not in scope.suffixes or not path.is_file():
                    continue
                rel = path.relative_to(self.root).as_posix()
                if EXCLUDE_PARTS.intersection(rel.split("/")):
                    continue
                if scope.skip and re.search(scope.skip, rel):
                    continue
                if path not in self._sources:
                    self._sources[path] = SourceFile(path, rel)
                out.append(self._sources[path])
        return out

    @property
    def index(self) -> SymbolIndex:
        """Classes, members and container aliases over the whole tree."""
        if self._index is None:
            self._index = SymbolIndex(self.files(WHOLE_TREE))
        return self._index

    def unordered_loops(self, src: SourceFile) -> list[LoopSite]:
        if src.path not in self._loops:
            scope = file_local_unordered_vars(src, self.index)
            for cls in implemented_classes(src, self.index):
                scope |= self.index.members(cls, "unordered_members")
            self._loops[src.path] = find_unordered_loops(src, scope)
        return self._loops[src.path]


def line_hits(files: list[SourceFile], pattern: re.Pattern,
              message: Callable[[re.Match], str]) -> Iterator[Hit]:
    for src in files:
        for lineno, line in enumerate(src.code_lines, 1):
            m = pattern.search(line)
            if m:
                yield src, lineno, message(m)


# ---------------------------------------------------------------------------
# Convention rules
# ---------------------------------------------------------------------------

# Names that mark a raw scalar as a time, size or rate quantity.
UNIT_NAME = (
    r"(?:[A-Za-z0-9_]*_)?(?:ns|nanos|micros|millis|time|latency|delay|timeout|"
    r"duration|deadline|bytes|gbps|bps)(?:_[A-Za-z0-9_]*)?"
)
RAW_UNIT_RE = re.compile(
    rf"\b(?:std::)?(?:int64_t|uint64_t|double)\s+({UNIT_NAME})\s*[;,={{)]"
)


def check_raw_unit_param(tree: Tree, files: list[SourceFile]) -> Iterator[Hit]:
    """int64_t/double named like a time, size or rate in a model header.

    Those are exactly the values the strong unit types exist for; use
    Nanos/Bytes/BitsPerSec (common/units.h), the one file exempt.
    """
    return line_hits(files, RAW_UNIT_RE, lambda m: (
        f"'{m.group(1)}' is a unit quantity declared as a raw scalar; "
        "use Nanos/Bytes/BitsPerSec (common/units.h)"))


def check_std_function_hot_path(tree: Tree, files: list[SourceFile]) -> Iterator[Hit]:
    """std::function in the allocation-free event core headers.

    Callbacks in src/sim/ and src/common/ are InlineFunction; std::function
    there reintroduces per-event heap traffic.
    """
    return line_hits(files, re.compile(r"\bstd::function\b"), lambda m: (
        "std::function in the allocation-free event core; "
        "use InlineFunction (common/inline_function.h)"))


SCHEDULE_AT_RE = re.compile(r"\bschedule_at\s*\(([^;{]*?),")


def check_past_schedule(tree: Tree, files: list[SourceFile]) -> Iterator[Hit]:
    """schedule_at whose time argument subtracts.

    EventScheduler::schedule_at clamps past timestamps to now(), so a call
    site computing `t - something` can silently distort timing instead of
    failing; tests deliberately probing the clamp annotate.
    """
    for src, lineno, time_arg in line_hits(files, SCHEDULE_AT_RE, lambda m: m.group(1)):
        if "-" in time_arg:
            yield src, lineno, (
                f"time argument '{time_arg.strip()}' subtracts; schedule_at "
                "clamps past times to now() — clamp explicitly or annotate")


# \bprintf does not match fprintf (no word boundary inside "fprintf"), so
# FILE*-targeted exporters stay legal; bare console printing does not.
RAW_STDOUT_RE = re.compile(r"\bprintf\s*\(|\bstd::cout\b|\bstd::cerr\b")


def check_raw_stdout(tree: Tree, files: list[SourceFile]) -> Iterator[Hit]:
    """Raw printf/std::cout/std::cerr in model code.

    Diagnostics go through common/logging.h (the one exempt backend) and
    measurements through src/telemetry/; deliberate display helpers annotate.
    """
    return line_hits(files, RAW_STDOUT_RE, lambda m: (
        "raw console output in model code; use CEIO_LOG (common/logging.h) or "
        "telemetry, or annotate '// lint: allow-raw-stdout' for deliberate "
        "display code"))


# Headers: any function-looking declarator returning std::vector<Packet>.
# Sources: only qualified member definitions (Class::name), so locals like
# `std::vector<Packet> out(n);` don't trip the rule.
VECTOR_RETURN_DECL_RE = re.compile(r"\bstd::vector<\s*Packet\s*>\s+(?:\w+::)*\w+\s*\(")
VECTOR_RETURN_DEF_RE = re.compile(r"\bstd::vector<\s*Packet\s*>\s+(?:\w+::)+\w+\s*\(")
# `\bPacket\b\s+\w+` deliberately fails on `Packet&`, `const Packet&` and
# `Packet*` (no whitespace after the type name) and on PacketRef/PacketBurst/
# PacketWork (no word boundary), so only genuine by-value parameters match.
PACKET_BY_VALUE_RE = re.compile(r"\bPacket\b\s+\w+\s*[,)]")


def check_packet_copy(tree: Tree, files: list[SourceFile]) -> Iterator[Hit]:
    """Packet by value in a header API, or std::vector<Packet> returned.

    Inside an event domain packets travel as 4-byte PacketRef handles into
    the domain's one PacketPool; a by-value Packet parameter copies ~80 bytes
    per hop and a vector return allocates per receive call. Parameters are
    checked in headers only (definitions mirror their declaration). The
    genuine value sinks, where a packet enters or leaves the pool, annotate.
    """
    for src in files:
        header = src.path.suffix == ".h"
        vector_re = VECTOR_RETURN_DECL_RE if header else VECTOR_RETURN_DEF_RE
        for lineno, line in enumerate(src.code_lines, 1):
            if vector_re.search(line):
                yield src, lineno, (
                    "std::vector<Packet> returned by value; drain into a "
                    "caller-provided PacketBurst/span instead, or annotate "
                    "'// lint: allow-packet-copy'")
            if header and PACKET_BY_VALUE_RE.search(line):
                yield src, lineno, (
                    "by-value Packet parameter copies ~80 bytes per hop; take "
                    "a PacketRef (or const Packet&), or annotate a genuine "
                    "value sink with '// lint: allow-packet-copy'")


CONFIG_STRUCT_RE = re.compile(r"\bstruct\s+(\w*Config)\b\s*(?:\{|$)")
VISIT_FIELDS_RE = re.compile(r"\bvisit_fields\(\s*(?:\w+::)*(\w+)\s*&")


def check_unreflected_config(tree: Tree, files: list[SourceFile]) -> Iterator[Hit]:
    """`struct *Config` in a header with no visit_fields registration.

    Without one (normally in src/config/schema.h) scenario files, `--set`
    overrides, printing and validation cannot see the type.
    """
    reflected = {m.group(1) for src in files for m in VISIT_FIELDS_RE.finditer(src.code)}
    headers = [src for src in files if src.path.suffix == ".h"]
    for src, lineno, name in line_hits(headers, CONFIG_STRUCT_RE, lambda m: m.group(1)):
        if name not in reflected:
            yield src, lineno, (
                f"'{name}' has no visit_fields registration; add one "
                "(src/config/schema.h) so scenario files and --set can reach "
                "it, or annotate '// lint: allow-unreflected-config'")


# Actuator setters reachable through PolicyHost (plus the CEIO credit-budget
# reset). Only matched as member calls (`.` / `->`), so defining the setters
# inside the backends stays legal.
RAW_ACTUATOR_RE = re.compile(
    r"(?:\.|->)\s*(set_credit_scale|set_flow_path|set_kind_path|set_landed_caps|"
    r"set_backpressure_scale|set_total_credits)\s*\("
)


def check_raw_actuator(tree: Tree, files: list[SourceFile]) -> Iterator[Hit]:
    """A PolicyHost actuator mutated outside src/policy/.

    The actuators (credit scale, steer-path overrides, landing caps,
    backpressure scale, credit-budget resets) are the governor's write
    surface; a direct push bypasses its decision ladder, grant-hold rules
    and Perfetto decision track. Owning call sites (the sharded credit
    arbiter, the tenant bed) annotate.
    """
    return line_hits(files, RAW_ACTUATOR_RE, lambda m: (
        f"'{m.group(1)}' is a policy actuator mutated outside src/policy/; "
        "route the change through the governor (policy/governor.h) or "
        "annotate '// lint: allow-raw-actuator' on an owning call site"))


def check_cross_shard(tree: Tree, files: list[SourceFile]) -> Iterator[Hit]:
    """FlowSource referenced from receiver-side model code.

    In sharded runs the source lives in another event domain, so a direct
    reference is a cross-shard mutable-state access that breaks bitwise
    shards=1 vs shards=N determinism. Feedback goes through FlowFeedback
    (net/flow_feedback.h), which the harness proxies across domains. The
    single-domain Testbed (iopath/testbed.{h,cc}) owns its sources and is
    exempt.
    """
    return line_hits(files, re.compile(r"\bFlowSource\b"), lambda m: (
        "direct FlowSource access from single-domain model code; feedback "
        "must go through FlowFeedback (net/flow_feedback.h) so sharded runs "
        "can proxy it across domains, or annotate '// lint: allow-cross-shard'"))


# ---------------------------------------------------------------------------
# Determinism rules: a symbol index over the stripped source model
# ---------------------------------------------------------------------------

UNORDERED_TYPE_RE = re.compile(r"\b(?:std::)?unordered_(?:map|set|multimap|multiset)\s*<")
USING_ALIAS_RE = re.compile(r"\busing\s+(\w+)\s*=\s*([^;]+);")
TYPEDEF_RE = re.compile(r"\btypedef\s+(.+?)\s+(\w+)\s*;")
CLASS_RE = re.compile(r"\b(class|struct)\s+([A-Za-z_]\w*)\b")
FLOAT_DECL_RE = re.compile(r"\b(?:float|double)\s+([A-Za-z_]\w*)\s*[;={,)]")
DOMAIN_MESSAGE_RE = re.compile(r"\bCEIO_DOMAIN_MESSAGE\(\s*([\w:]+)\s*\)")
MAILBOX_PTR_RE = re.compile(r"\bSpscMailbox\s*<\s*[^;>]*[*&][^;>]*>")
# A member declaration ending in a pointer or reference: `Foo* p;`,
# `const Bar& ref_;`. Function declarations (contain '(') are excluded.
PTR_REF_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:const\s+)?[\w:<>,\s]+[*&]\s*(\w+)\s*(?:=[^;()]*)?;\s*$"
)
DECLARED_NAME_RE = re.compile(r"^[\s&*]*([A-Za-z_]\w*)\s*([;={,)(]|$)")


def balanced_angle_extent(text: str, open_idx: int) -> int:
    """Given the index of a '<', returns one past its matching '>' or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}":
            return -1
    return -1


def declared_names_after(text: str, idx: int) -> list[str]:
    """The variable declared by a container type ending at `idx`: handles
    `Type name;`, `Type name{...}`, `Type name = ...` and parameter forms
    `const Type& name,`; a function returning the container declares none."""
    m = DECLARED_NAME_RE.match(text[idx:])
    return [m.group(1)] if m and m.group(2) != "(" else []


def parse_base_clause(clause: str) -> list[str]:
    bases = []
    for part in clause.split(","):
        part = re.sub(r"\b(public|protected|private|virtual)\b", "", part)
        ids = re.findall(r"[A-Za-z_]\w*", part.split("<")[0])
        if ids:
            bases.append(ids[-1])
    return bases


class ClassInfo:
    def __init__(self, name: str, src: SourceFile, bases: list[str]):
        self.name = name
        self.src = src
        self.bases = bases
        self.unordered_members: set[str] = set()
        self.float_members: set[str] = set()
        self.ptr_ref_members: list[tuple[int, str]] = []  # (lineno, name)


class SymbolIndex:
    """Tree-wide index of classes, their members, unordered-container aliases
    and CEIO_DOMAIN_MESSAGE types."""

    def __init__(self, sources: list[SourceFile]):
        self.classes: dict[str, ClassInfo] = {}
        self.unordered_aliases: set[str] = set()
        self.message_types: set[str] = set()
        for src in sources:
            self._index_file(src)
            for m in DOMAIN_MESSAGE_RE.finditer(src.code):
                self.message_types.add(m.group(1).split("::")[-1])

    def members(self, class_name: str, attr: str) -> set[str]:
        """`attr` members of `class_name` and, transitively, its bases."""
        out: set[str] = set()
        stack, visited = [class_name], set()
        while stack:
            name = stack.pop()
            if name in visited or name not in self.classes:
                continue
            visited.add(name)
            out |= getattr(self.classes[name], attr)
            stack.extend(self.classes[name].bases)
        return out

    def _index_file(self, src: SourceFile) -> None:
        for m in USING_ALIAS_RE.finditer(src.code):
            if UNORDERED_TYPE_RE.search(m.group(2)):
                self.unordered_aliases.add(m.group(1))
        for m in TYPEDEF_RE.finditer(src.code):
            if UNORDERED_TYPE_RE.search(m.group(1)):
                self.unordered_aliases.add(m.group(2))

        # Class bodies with brace tracking; members are classified at relative
        # brace depth 1 (method bodies sit deeper and are skipped).
        lines = src.code_lines
        depth = 0  # '{' minus '}' so far
        stack: list[tuple[ClassInfo, int]] = []  # (class, entry depth)
        pending: ClassInfo | None = None  # class seen, waiting for its '{'
        for i, line in enumerate(lines):
            for cm in CLASS_RE.finditer(line):
                # Forward declarations (`class X;`) and uses in template args
                # are filtered by requiring a '{' before the next ';'.
                gathered = line[cm.end():]
                j = i
                while ";" not in gathered and "{" not in gathered \
                        and j + 1 < len(lines) and j - i < 3:
                    j += 1
                    gathered += " " + lines[j]
                brace = gathered.find("{")
                semi = gathered.find(";")
                if brace == -1 or (semi != -1 and semi < brace):
                    continue
                colon = re.search(r"(?<!:):(?!:)", gathered[:brace])
                bases = parse_base_clause(gathered[:brace][colon.end():]) if colon else []
                pending = ClassInfo(cm.group(2), src, bases)

            for ch in line:
                if ch == "{":
                    depth += 1
                    if pending is not None:
                        stack.append((pending, depth))
                        self.classes.setdefault(pending.name, pending)
                        pending = None
                elif ch == "}":
                    if stack and stack[-1][1] == depth:
                        stack.pop()
                    depth -= 1

            # Member classification: the innermost open class whose body we
            # are directly inside.
            if stack and depth == stack[-1][1]:
                self._classify_member(stack[-1][0], lines, i)

    def _classify_member(self, info: ClassInfo, lines: list[str], i: int) -> None:
        joined = lines[i]
        k = i
        # Join continuation lines of a multi-line member declaration.
        while ("<" in joined and balanced_angle_extent(joined, joined.find("<")) == -1
               and k + 1 < len(lines) and k - i < 4):
            k += 1
            joined += " " + lines[k]
        um = UNORDERED_TYPE_RE.search(joined)
        if um:
            close = balanced_angle_extent(joined, um.end() - 1)
            if close != -1:
                info.unordered_members.update(declared_names_after(joined, close))
        else:
            first = re.match(r"\s*(?:mutable\s+)?(?:const\s+)?(?:\w+::)*(\w+)", joined)
            if first and first.group(1) in self.unordered_aliases:
                dm = re.match(r"\s+(\w+)\s*[;={]", joined[first.end():])
                if dm:
                    info.unordered_members.add(dm.group(1))
        info.float_members.update(m.group(1) for m in FLOAT_DECL_RE.finditer(joined))
        pm = PTR_REF_MEMBER_RE.match(lines[i])
        if pm and "operator" not in lines[i]:
            info.ptr_ref_members.append((i + 1, pm.group(1)))


def file_local_unordered_vars(src: SourceFile, index: SymbolIndex) -> set[str]:
    """All names declared with an unordered container type anywhere in the
    file: members, locals and parameters alike. Name-based scoping is
    per-file plus implemented-class members, which keeps same-named ordered
    members in other classes (e.g. an OrderedMap flows_) from colliding."""
    out: set[str] = set()
    for m in UNORDERED_TYPE_RE.finditer(src.code):
        close = balanced_angle_extent(src.code, m.end() - 1)
        if close != -1:
            out.update(declared_names_after(src.code, close))
    for alias in index.unordered_aliases:
        for m in re.finditer(rf"\b{re.escape(alias)}\s*[&*]?\s+(\w+)\s*[;={{,)]", src.code):
            out.add(m.group(1))
    return out


def implemented_classes(src: SourceFile, index: SymbolIndex) -> set[str]:
    """Classes whose members are in scope for this file: those defined in it
    plus (for .cc files) those with out-of-line `X::member` definitions."""
    names = {info.name for info in index.classes.values() if info.src is src}
    if src.path.suffix != ".h":
        for m in re.finditer(r"\b([A-Z]\w*)::\w+\s*\(", src.code):
            if m.group(1) in index.classes:
                names.add(m.group(1))
    return names


class LoopSite(NamedTuple):
    lineno: int  # 1-based line of the `for`
    var: str
    body_start: int  # 0-based inclusive
    body_end: int  # 0-based inclusive


def split_range_for(header: str) -> str | None:
    """The range expression of a range-for header (after a lone ':')."""
    m = re.search(r"(?<!:):(?!:)", header)
    return header[m.end():] if m else None


def find_unordered_loops(src: SourceFile, unordered: set[str]) -> list[LoopSite]:
    sites: list[LoopSite] = []
    lines = src.code_lines
    for i, line in enumerate(lines):
        for fm in re.finditer(r"\bfor\s*\(", line):
            # Gather the parenthesized header (may span up to 4 lines).
            text, row, j = line, i, fm.end() - 1
            depth = 0
            header: list[str] = []
            while True:
                if j >= len(text):
                    if row + 1 - i > 4 or row + 1 >= len(lines):
                        break
                    row += 1
                    text, j = lines[row], 0
                    header.append(" ")
                    continue
                c = text[j]
                header.append(c)
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if depth != 0:
                continue
            head = "".join(header)[1:-1]
            var: str | None = None
            range_expr = split_range_for(head)
            if range_expr is not None:
                m = re.search(r"([A-Za-z_]\w*)\s*$", range_expr.strip())
                var = m.group(1) if m else None
                if var is not None and re.search(rf"\b{re.escape(var)}\s*\(", range_expr):
                    var = None  # method call, e.g. `: snapshot()`
            else:
                im = re.search(r"=\s*(\w+)(?:\.|->)c?begin\s*\(", head)
                var = im.group(1) if im else None
            if var is None or var not in unordered:
                continue
            body_start, body_end = loop_body_extent(lines, row, j)
            sites.append(LoopSite(i + 1, var, body_start, body_end))
    return sites


def loop_body_extent(lines: list[str], hdr_row: int, hdr_col: int) -> tuple[int, int]:
    """Rows (0-based, inclusive) of the loop body after the header's closing
    paren at (hdr_row, hdr_col)."""
    row, col = hdr_row, hdr_col + 1
    while row < len(lines):
        rest = lines[row][col:]
        stripped = rest.lstrip()
        if stripped:
            if stripped[0] == "{":
                return brace_extent(lines, row, col + rest.index("{"))
            # Single-statement body: runs to the next ';'.
            end_row = row
            while end_row < len(lines) and ";" not in lines[end_row][col if end_row == row else 0:]:
                end_row += 1
            return (row, min(end_row, len(lines) - 1))
        row, col = row + 1, 0
    return (hdr_row, hdr_row)


def brace_extent(lines: list[str], row: int, col: int) -> tuple[int, int]:
    depth = 0
    for r in range(row, len(lines)):
        for ch in lines[r][col if r == row else 0:]:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    return (row, r)
    return (row, len(lines) - 1)


NONDET_PATTERNS: list[tuple[re.Pattern, str]] = [
    (re.compile(r"\bstd::random_device\b"),
     "std::random_device is nondeterministic across runs; use the seeded config RNG"),
    (re.compile(r"(?<![\w.:>])s?rand\s*\("),
     "rand()/srand() draw from ambient global state; use the seeded config RNG"),
    (re.compile(r"(?<![\w.:>])time\s*\(|\bstd::time\s*\("),
     "time() reads the wall clock; simulated time comes from EventScheduler::now()"),
    (re.compile(r"\bstd::chrono::system_clock\b|\bsystem_clock::now\b"),
     "system_clock is wall-clock time; bench timing uses steady_clock, model "
     "time uses EventScheduler::now()"),
    (re.compile(r"\bgettimeofday\s*\(|\bclock_gettime\s*\("),
     "raw clock syscall; simulated time comes from EventScheduler::now()"),
    (re.compile(r"\b(?:std::)?(?:unordered_)?(?:map|multimap)\s*<\s*[^,<>()]*\*\s*,"),
     "pointer-keyed map: iteration/compare order follows addresses, which "
     "differ across runs under ASLR — key by a stable id instead"),
    (re.compile(r"\b(?:std::)?(?:unordered_)?(?:set|multiset)\s*<\s*[^,<>()]*\*\s*[,>]"),
     "pointer-keyed set: iteration order follows addresses, which differ "
     "across runs under ASLR — key by a stable id instead"),
]


def check_nondet_source(tree: Tree, files: list[SourceFile]) -> Iterator[Hit]:
    """Ambient clocks, RNG state or pointer-keyed containers.

    Banned: std::random_device, rand()/srand(), time()/gettimeofday()/
    clock_gettime, std::chrono::system_clock, and pointer values as
    associative-container keys (address order differs across runs under
    ASLR). Simulation randomness comes from the seeded config RNG; wall-clock
    reads belong only in bench timing (steady_clock, deliberately permitted).
    """
    for src in files:
        for lineno, line in enumerate(src.code_lines, 1):
            msg = next((msg for pattern, msg in NONDET_PATTERNS if pattern.search(line)), None)
            if msg:
                yield src, lineno, msg


def check_unordered_iter(tree: Tree, files: list[SourceFile]) -> Iterator[Hit]:
    """Iteration over a std::unordered_map/set.

    Its order is an artifact of hashing, bucket count and operation history;
    any such order escaping into a report, credit assignment or buffer
    release breaks bitwise reproducibility. Use det::OrderedMap/OrderedSet or
    det::for_sorted / det::sorted_keys (src/common/det_map.h), or suppress
    with a justification when the loop is provably order-invariant.
    """
    for src in files:
        for site in tree.unordered_loops(src):
            yield src, site.lineno, (
                f"iteration over hash-ordered container '{site.var}'; use "
                "det::OrderedMap / det::for_sorted (common/det_map.h) or "
                "suppress with a justification if provably order-invariant")


def check_cross_domain(tree: Tree, files: list[SourceFile]) -> Iterator[Hit]:
    """Raw pointers/references crossing sharded-domain boundaries.

    A pointer or reference member in a CEIO_DOMAIN_MESSAGE type, or a
    pointer/reference SpscMailbox payload, aliases the producing domain's
    mutable state from the consuming domain: a data race the epoch barriers
    cannot see. Ship owned values; share read-only state via
    SharedImmutable<T> (src/common/domain_annotations.h).
    """
    for src, lineno, msg in line_hits(files, MAILBOX_PTR_RE, lambda m: (
            "SpscMailbox payload carries a pointer/reference; it aliases the "
            "producing domain's state from the consuming domain — ship an "
            "owned value")):
        yield src, lineno, msg
    index = tree.index
    for name in sorted(index.message_types):
        info = index.classes.get(name)
        if info is None:
            continue
        for lineno, member in info.ptr_ref_members:
            yield info.src, lineno, (
                f"'{member}' is a raw pointer/reference member of domain "
                f"message '{name}'; the consuming domain would alias producer "
                "state — ship an owned value or SharedImmutable")


ACCUM_RE = re.compile(r"\b(\w+)\s*(?:\+=|-=|\*=)")
SELF_ACCUM_RE = re.compile(r"\b(\w+)\s*=\s*\1\s*[+*]")


def check_float_accum(tree: Tree, files: list[SourceFile]) -> Iterator[Hit]:
    """float/double accumulated across an unordered iteration.

    Floating-point addition is not associative, so the sum depends on the
    visit order even when the visited set is identical. Accumulate in
    integers, iterate in sorted order, or restructure the reduction.
    """
    for src in files:
        loops = tree.unordered_loops(src)
        if not loops:
            continue
        floats = {m.group(1) for m in FLOAT_DECL_RE.finditer(src.code)}
        for cls in implemented_classes(src, tree.index):
            floats |= tree.index.members(cls, "float_members")
        for site in loops:
            for row in range(site.body_start, site.body_end + 1):
                line = src.code_lines[row]
                names = {m.group(1) for m in ACCUM_RE.finditer(line)}
                names |= {m.group(1) for m in SELF_ACCUM_RE.finditer(line)}
                for n in sorted(names & floats):
                    yield src, row + 1, (
                        f"float accumulation into '{n}' across hash-ordered "
                        f"iteration of '{site.var}': float addition is not "
                        "associative, so the sum is order-dependent — "
                        "accumulate in integers or iterate sorted")


# ---------------------------------------------------------------------------
# Rule table and driver
# ---------------------------------------------------------------------------

WHOLE_TREE = Scope(("src", "tests", "bench", "examples", "tools"))

RULES: dict[str, tuple[Callable[[Tree, list[SourceFile]], Iterator[Hit]], Scope]] = {
    "cross-domain": (check_cross_domain, WHOLE_TREE),
    "cross-shard": (check_cross_shard, Scope(
        ("src/iopath", "src/baselines", "src/ceio", "src/nic", "src/pcie", "src/host"),
        skip=r"(^|/)testbed\.(h|cc)$")),
    "float-accum": (check_float_accum, WHOLE_TREE),
    "nondet-source": (check_nondet_source, WHOLE_TREE),
    "packet-copy": (check_packet_copy, Scope(("src",))),
    "past-schedule": (check_past_schedule, WHOLE_TREE),
    "raw-actuator": (check_raw_actuator, Scope(("src",), skip=r"^src/policy/")),
    "raw-stdout": (check_raw_stdout, Scope(("src",), skip=r"(^|/)common/logging\.\w+$")),
    "raw-unit-param": (check_raw_unit_param, Scope(("src",), HEADERS, skip=r"(^|/)units\.h$")),
    "std-function-hot-path": (check_std_function_hot_path, Scope(
        ("src/sim", "src/common"), HEADERS, skip=r"(^|/)inline_function\.h$")),
    "unordered-iter": (check_unordered_iter, WHOLE_TREE),
    "unreflected-config": (check_unreflected_config, Scope(("src",))),
}


def run(root: Path, rules: list[str]) -> list[Finding]:
    tree = Tree(root)
    findings = set()
    for rule in rules:
        check, scope = RULES[rule]
        for src, lineno, message in check(tree, tree.files(scope)):
            if not src.suppressed(rule, lineno):
                findings.add(Finding(src.rel, lineno, rule, message))
    return sorted(findings)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rule", action="append", choices=sorted(RULES),
                        help="run only this rule (repeatable; default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list the rules with their scopes and exit")
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="check this tree instead of the repo")
    args = parser.parse_args()
    if not args.root.is_dir():
        parser.error(f"--root {args.root} is not a directory")

    if args.list_rules:
        for name, (check, scope) in sorted(RULES.items()):
            summary = check.__doc__.split("\n", 1)[0]
            where = ", ".join(scope.dirs) + (" (headers)" if scope.suffixes == HEADERS else "")
            print(f"{name}: {summary} [{where}]")
        return 0

    findings = run(args.root.resolve(), args.rule or sorted(RULES))
    for f in findings:
        print(f)
    if findings:
        print(f"ceio_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("ceio_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
