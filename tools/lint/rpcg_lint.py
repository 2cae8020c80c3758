#!/usr/bin/env python3
"""rpcg-lint: project-specific static checks for invariants clang-tidy
cannot express.

The repo's core guarantees — threaded == sequential bit-for-bit solves,
byte-identical sim-time charging on factorization-cache hits, and a
deterministic ``rpcg-solve-report/v2`` JSON surface — all reduce to a few
source-level disciplines. This tool encodes them as mechanical rules so a
new solver or ``register_solver()`` contribution cannot quietly break them
before a single test runs.

Rules (run with --list-rules for the one-line form):

  nondeterminism       No nondeterminism sources outside the sanctioned RNG
                       (src/util/rng.hpp): std::rand/srand, std::random_device,
                       C time(), std::chrono::system_clock, and pointer-keyed
                       or pointer-hashed associative containers (iteration
                       order / hash values depend on allocator addresses).
                       std::chrono::steady_clock is allowed: it only feeds
                       wall_seconds, which is documented as host-dependent.

  unordered-iteration  No iteration over std::unordered_map/unordered_set
                       (range-for or .begin()). Traversal order is
                       implementation-defined, so any such loop that feeds
                       SolveReport, JSON emission, or a reduction breaks
                       cross-platform determinism. Lookups (find/at/count)
                       are fine; iterate a sorted or insertion-ordered
                       structure instead.

  split-phase          Every translation unit that posts a split-phase
                       reduction (post_allreduce / iallreduce_sum / idot /
                       idot_pair / ipipelined_dots / ipipelined_gram /
                       ipipelined_cr_dots) must also contain a .wait() call:
                       an unpaired post silently drops the latency charge and
                       under-reports simulated time. A TU that *reassigns* a
                       post into a stored slot (`ring[i] = idot(...)`,
                       `slot.red = ipipelined_gram(...)` — the reduction-ring
                       pattern, where handles outlive the posting statement)
                       must additionally contain a drain loop (a for/while
                       whose body wait()s): without one, in-flight handles
                       are destroyed or overwritten on flush paths and their
                       latency silently vanishes.

  sim-time             Outside src/sim/, simulated time may only be charged
                       through the Cluster API (charge / charge_compute /
                       charge_parallel_seconds / charge_allreduce, ClockPause);
                       direct SimClock mutation (clock().advance/.set_noise/
                       .set_paused/.reset) bypasses the single point where
                       noise, pause state, and phase accounting are applied.
                       src/service/ is held to a stricter bar: the service
                       layer is host-side orchestration, so even the charging
                       API (.charge/.charge_compute/.charge_parallel_seconds/
                       .charge_allreduce/.set_clock_noise) is banned there —
                       simulated costs belong inside the engine a job runs,
                       never in the scheduler around it.

  typed-errors         No raw ``throw std::runtime_error(...)`` under
                       src/core/, src/solver/, or src/service/: failures in
                       taxonomy-covered layers must throw a classified
                       SolverError subclass (core/errors.hpp) — or
                       std::invalid_argument for config-shaped errors — so
                       the service's retry/escalation machinery can act on
                       the error class instead of parsing message strings.

  header-pragma-once   Every header starts with #pragma once (first
                       non-comment, non-blank line).

  header-using-namespace
                       No using-directive (`using namespace`) in headers;
                       it leaks into every includer.

Suppression etiquette: a finding is suppressed by a comment on the same
line or the line directly above::

    // rpcg-lint: allow(unordered-iteration): order is sorted into a vector
    for (const auto& [k, v] : halo_slot) ...

The reason after the colon is mandatory; an allow() without one is itself
reported. File-level suppression (generated files, sanctioned homes of an
API) uses ``rpcg-lint: allow-file(<rule>): reason`` within the first 40
lines.

Exit status: 0 when clean, 1 when findings were reported, 2 on usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h"}
HEADER_SUFFIXES = {".hpp", ".hh", ".h"}

# Directories never scanned when walking a tree: lint fixture corpora are
# *intentionally* full of violations, and build trees contain generated TUs.
SKIPPED_DIR_PARTS = {"fixtures", "build", ".git", "CMakeFiles"}

ALLOW_RE = re.compile(r"rpcg-lint:\s*allow\(([\w\-, ]+)\)\s*(?::\s*(\S.*))?")
ALLOW_FILE_RE = re.compile(r"rpcg-lint:\s*allow-file\(([\w\-, ]+)\)\s*(?::\s*(\S.*))?")

# Sanctioned homes for otherwise-banned constructs, keyed by rule id.
# Paths are repo-root-relative, matched as prefixes.
RULE_EXEMPT_PATHS = {
    "nondeterminism": ("src/util/rng.hpp",),
    # collectives.hpp declares the post_* API itself; its .cpp pairs every
    # wrapper with a wait() and is checked like any other TU.
    "split-phase": ("src/sim/collectives.hpp",),
}

NONDET_PATTERNS = (
    (re.compile(r"\bstd::s?rand\b"), "std::rand/std::srand"),
    (re.compile(r"(?<![\w:.>])s?rand\s*\("), "C rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w:.>])time\s*\("), "C time()"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (
        re.compile(r"\b(?:unordered_)?(?:map|set)\s*<\s*(?:const\s+)?[\w:<>\s]*?\*\s*[,>]"),
        "pointer-keyed associative container (address-dependent order)",
    ),
    (
        re.compile(r"\bstd::hash\s*<[^<>]*\*\s*>"),
        "std::hash over a pointer type (address-dependent hash)",
    ),
)

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*>\s*[&*]{0,2}\s*"
    r"(\w+)\s*[;,)({=]"
)
POST_NAMES = (
    r"(?:post_allreduce|iallreduce_sum|idot|idot_pair|ipipelined_dots"
    r"|ipipelined_gram|ipipelined_cr_dots)"
)
POST_RE = re.compile(r"\b" + POST_NAMES + r"\s*\(")
# A post whose result is *assigned* into a subscripted element or a member —
# the reduction-ring pattern: the handle outlives the posting statement.
RING_POST_RE = re.compile(r"(?:\]|\.\s*\w+)\s*=\s*" + POST_NAMES + r"\s*\(")
WAIT_RE = re.compile(r"\.\s*wait\s*\(")
LOOP_RE = re.compile(r"\b(?:for|while)\s*\(")
SIM_TIME_RE = re.compile(
    r"(?:\.\s*clock\s*\(\s*\)|\bclock_)\s*\.\s*(?:advance|set_noise|set_paused|reset)\s*\("
)
# The sim-time charging API, banned wholesale under src/service/ (the
# scheduler must stay off the model clock entirely).
SERVICE_CHARGE_RE = re.compile(
    r"\.\s*(?:charge_compute|charge_parallel_seconds|charge_allreduce"
    r"|charge|set_clock_noise)\s*\("
)
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b")
# Raw runtime_error throws in taxonomy-covered layers; constructing the base
# inside a SolverError subclass is fine (no `throw` keyword in front).
TYPED_ERRORS_RE = re.compile(r"\bthrow\s+std::runtime_error\s*\(")
TYPED_ERROR_DIRS = ("src/core/", "src/solver/", "src/service/")
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")


class Finding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literal contents, preserving line
    structure, so rule regexes only see code. Suppression comments are read
    from the raw text separately."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            chunk = text[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


class FileContext:
    def __init__(self, rel_path: str, raw: str):
        self.rel = rel_path
        self.raw_lines = raw.splitlines()
        self.code_lines = strip_comments_and_strings(raw).splitlines()
        self.findings: list[Finding] = []
        self.allow_file: dict[str, bool] = {}
        self.allow_line: dict[int, set[str]] = {}
        self._collect_suppressions()

    def _collect_suppressions(self) -> None:
        for idx, line in enumerate(self.raw_lines, start=1):
            m = ALLOW_FILE_RE.search(line)
            if m and idx <= 40:
                if not m.group(2):
                    self.findings.append(
                        Finding(self.rel, idx, "suppression",
                                "allow-file() without a reason — state why"))
                for rule in re.split(r"[,\s]+", m.group(1).strip()):
                    if rule:
                        self.allow_file[rule] = True
                continue
            m = ALLOW_RE.search(line)
            if m:
                if not m.group(2):
                    self.findings.append(
                        Finding(self.rel, idx, "suppression",
                                "allow() without a reason — state why"))
                rules = {r for r in re.split(r"[,\s]+", m.group(1).strip()) if r}
                # A suppression covers its own line and the next one.
                self.allow_line.setdefault(idx, set()).update(rules)
                self.allow_line.setdefault(idx + 1, set()).update(rules)

    def suppressed(self, rule: str, line: int) -> bool:
        if self.allow_file.get(rule):
            return True
        return rule in self.allow_line.get(line, set())

    def report(self, rule: str, line: int, message: str) -> None:
        for prefix in RULE_EXEMPT_PATHS.get(rule, ()):
            if self.rel == prefix or self.rel.startswith(prefix.rstrip("/") + "/"):
                return
        if not self.suppressed(rule, line):
            self.findings.append(Finding(self.rel, line, rule, message))

    @property
    def is_header(self) -> bool:
        return Path(self.rel).suffix in HEADER_SUFFIXES

    def in_dir(self, prefix: str) -> bool:
        return self.rel.startswith(prefix)


def check_nondeterminism(ctx: FileContext) -> None:
    for lineno, line in enumerate(ctx.code_lines, start=1):
        for pattern, what in NONDET_PATTERNS:
            if pattern.search(line):
                ctx.report(
                    "nondeterminism", lineno,
                    f"{what} — nondeterminism source; use util/rng.hpp (Rng) "
                    "or a deterministic structure instead")


def check_unordered_iteration(ctx: FileContext) -> None:
    code = "\n".join(ctx.code_lines)
    names = set(UNORDERED_DECL_RE.findall(code))
    if not names:
        return
    alts = "|".join(re.escape(n) for n in sorted(names))
    range_for = re.compile(
        r"for\s*\([^;()]*:\s*\*?\s*(?:this->)?(" + alts + r")\s*\)")
    begin_call = re.compile(
        r"\b(" + alts + r")\s*\.\s*c?begin\s*\(")
    for lineno, line in enumerate(ctx.code_lines, start=1):
        m = range_for.search(line) or begin_call.search(line)
        if m:
            ctx.report(
                "unordered-iteration", lineno,
                f"iteration over unordered container '{m.group(1)}' — "
                "traversal order is implementation-defined; sort keys into a "
                "vector first (or use an ordered container)")


def check_split_phase(ctx: FileContext) -> None:
    first_post = None
    first_ring_post = None
    has_wait = False
    has_drain_loop = False
    for lineno, line in enumerate(ctx.code_lines, start=1):
        if first_post is None and POST_RE.search(line):
            first_post = lineno
        if first_ring_post is None and RING_POST_RE.search(line):
            first_ring_post = lineno
        if WAIT_RE.search(line):
            has_wait = True
            # A wait inside (or directly under) a for/while header is a
            # drain loop: the whole ring of stored handles completes, not
            # just the one the current iteration touches.
            lo = max(0, lineno - 4)
            if any(LOOP_RE.search(prev)
                   for prev in ctx.code_lines[lo:lineno]):
                has_drain_loop = True
    if first_post is not None and not has_wait:
        ctx.report(
            "split-phase", first_post,
            "translation unit posts a split-phase reduction but never calls "
            ".wait() — the latency charge is silently dropped and simulated "
            "time is under-reported")
    if first_ring_post is not None and has_wait and not has_drain_loop:
        ctx.report(
            "split-phase", first_ring_post,
            "reduction posted into a stored slot (reduction-ring pattern) "
            "but the TU has no drain loop — flush paths that overwrite or "
            "destroy in-flight handles silently drop their latency; wait() "
            "every ring entry in a for/while before reuse")


def check_sim_time(ctx: FileContext) -> None:
    # Solver/engine/precond code must charge time through the Cluster API;
    # only the sim layer itself may touch the clock. Tests and benches may
    # drive the clock directly (they are the harness, not charged code).
    if not ctx.in_dir("src/") or ctx.in_dir("src/sim/"):
        return
    for lineno, line in enumerate(ctx.code_lines, start=1):
        if SIM_TIME_RE.search(line):
            ctx.report(
                "sim-time", lineno,
                "direct SimClock mutation outside src/sim/ — charge time via "
                "Cluster::charge()/charge_compute()/charge_allreduce() (or "
                "ClockPause) so phase accounting, pause state, and noise are "
                "applied in one place")
    if ctx.in_dir("src/service/"):
        for lineno, line in enumerate(ctx.code_lines, start=1):
            if SERVICE_CHARGE_RE.search(line):
                ctx.report(
                    "sim-time", lineno,
                    "sim-time charge in src/service/ — the service layer is "
                    "host-side orchestration and must never touch the "
                    "simulated clock; charge inside the engine the job runs, "
                    "not in the scheduler around it")


def check_typed_errors(ctx: FileContext) -> None:
    if not any(ctx.in_dir(d) for d in TYPED_ERROR_DIRS):
        return
    for lineno, line in enumerate(ctx.code_lines, start=1):
        if TYPED_ERRORS_RE.search(line):
            ctx.report(
                "typed-errors", lineno,
                "raw 'throw std::runtime_error' in a taxonomy-covered layer — "
                "throw a classified SolverError subclass from core/errors.hpp "
                "(UnrecoverableFailure, DivergenceError, BudgetExceeded, "
                "CacheBuildFailure, or SolverError{ErrorClass::..., msg}) so "
                "the service can classify the failure without parsing strings")


def check_header_hygiene(ctx: FileContext) -> None:
    if not ctx.is_header:
        return
    for lineno, line in enumerate(ctx.code_lines, start=1):
        if not line.strip():
            continue
        if not PRAGMA_ONCE_RE.match(line):
            ctx.report(
                "header-pragma-once", lineno,
                "first non-comment line of a header must be '#pragma once'")
        break
    else:
        ctx.report("header-pragma-once", 1,
                   "header has no '#pragma once'")
    for lineno, line in enumerate(ctx.code_lines, start=1):
        if USING_NAMESPACE_RE.match(line):
            ctx.report(
                "header-using-namespace", lineno,
                "'using namespace' in a header leaks into every includer — "
                "qualify names or use targeted using-declarations in a scope")


CHECKS = (
    check_nondeterminism,
    check_unordered_iteration,
    check_split_phase,
    check_sim_time,
    check_typed_errors,
    check_header_hygiene,
)

RULE_SUMMARY = {
    "nondeterminism": "no rand/random_device/time()/system_clock/pointer-keyed"
                      " maps outside src/util/rng.hpp",
    "unordered-iteration": "no iteration over unordered_map/unordered_set"
                           " (order is implementation-defined)",
    "split-phase": "every TU that posts a reduction (post_*/i*) also wait()s;"
                   " ring-stored posts need a drain loop",
    "sim-time": "SimClock is mutated only under src/sim/; charge via Cluster"
                " (and src/service/ never charges at all)",
    "typed-errors": "no raw 'throw std::runtime_error' in src/{core,solver,"
                    "service}/ — throw a classified SolverError subclass",
    "header-pragma-once": "headers start with #pragma once",
    "header-using-namespace": "no using-directives in headers",
    "suppression": "every allow()/allow-file() states a reason",
}


def iter_sources(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        if p.is_file():
            if p.suffix in CXX_SUFFIXES:
                files.append(p)
        elif p.is_dir():
            for f in sorted(p.rglob("*")):
                if f.suffix not in CXX_SUFFIXES or not f.is_file():
                    continue
                if SKIPPED_DIR_PARTS.intersection(f.parts):
                    continue
                files.append(f)
        else:
            print(f"rpcg-lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rpcg_lint.py",
        description="Project-specific determinism / sim-time / header checks.")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to scan")
    parser.add_argument("--root", type=Path, default=None,
                        help="repo root for path-scoped rules "
                             "(default: auto-detected from this script)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule ids and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, summary in RULE_SUMMARY.items():
            print(f"{rule:24} {summary}")
        return 0
    if not args.paths:
        parser.error("no paths given (try: src bench tests examples)")

    root = (args.root or Path(__file__).resolve().parent.parent.parent).resolve()

    findings: list[Finding] = []
    for path in iter_sources(args.paths):
        resolved = path.resolve()
        try:
            rel = resolved.relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        try:
            raw = resolved.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            print(f"rpcg-lint: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        ctx = FileContext(rel, raw)
        for check in CHECKS:
            check(ctx)
        findings.extend(ctx.findings)

    for finding in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        print(finding)
    if findings:
        print(f"rpcg-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
