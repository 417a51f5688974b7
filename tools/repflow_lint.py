#!/usr/bin/env python3
"""repflow_lint: repo-specific static checks for the repflow C++ tree.

Rules (each has a stable id; docs/ANALYSIS.md carries the catalog):

  MO01  every explicit std::memory_order_{relaxed,acquire,release,acq_rel}
        site must carry (or sit within a few lines below) a `mo:` audit tag
        justifying the ordering — the machine-checked form of the relaxed-
        atomics audit convention the concurrency docs established.
  RAW01 no raw `new[]` / `malloc` / `std::endl` in src/ — containers own
        memory, and endl is a hidden flush on hot logging paths.
  LOCK01 annotated concurrency modules must use the support::Mutex /
        support::MutexLock / support::CondVar wrappers, never bare
        std::mutex / std::lock_guard / std::condition_variable /
        std::unique_lock — otherwise Clang thread-safety analysis silently
        loses sight of the lock discipline.  support/thread_annotations.h
        itself is the one allowed exception (it *implements* the wrappers).
  MET01 every registered metric-name literal (`counter("x.y")`,
        `histogram("a.b")`, ...) must be documented in
        docs/OBSERVABILITY.md, whose prose may use one-level brace groups
        (`router.{admitted,shed}`) and `<...>` wildcards (`disk.<j>.busy_ms`).
  MET02 the converse: every exact metric name listed under "Who records
        what" in docs/OBSERVABILITY.md must be registered somewhere in src/,
        as a literal or through a string paste (`"solver." id ".solves"`)
        whose prefix and suffix bracket it — so a deleted mechanism cannot
        leave its metric lines behind.  Needs the whole src/ tree.
  DEAD01 every header under src/ must be #included by some file under
        src/, bench/, examples/, fuzz/ or perfbench/ other than its own
        .cpp — code that only its own tests reach is dead.  The test
        oracles (TEST_ORACLES) are exempt: tests compare against them.

Exit status: 0 when clean, 1 when any violation is reported, 2 on usage
errors.  Run from anywhere inside the repo:

    python3 tools/repflow_lint.py            # lint the whole tree
    python3 tools/repflow_lint.py --rule MO01 src/obs  # one rule, one dir
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Iterable, List, Tuple

# A `mo:` tag covers its own line and the next MO_TAG_WINDOW source lines,
# so one tag can vouch for a small cluster of loads/stores it describes.
MO_TAG_WINDOW = 5

MEMORY_ORDER_RE = re.compile(
    r"memory_order_(?:relaxed|acquire|release|acq_rel|seq_cst)")
MO_TAG_RE = re.compile(r"//.*\bmo:")

RAW_PATTERNS = [
    (re.compile(r"\bnew\s+[A-Za-z_][A-Za-z0-9_:<>, ]*\["), "raw array new[]"),
    (re.compile(r"\bmalloc\s*\("), "malloc()"),
    (re.compile(r"\bstd::endl\b"), "std::endl (hidden flush; use '\\n')"),
]

BARE_SYNC_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|shared_mutex|timed_mutex|"
    r"lock_guard|scoped_lock|unique_lock|shared_lock|"
    r"condition_variable(?:_any)?)\b")

# Modules whose lock discipline is compile-time annotated; any mutex they
# grow must go through the support wrappers so the analysis keeps seeing it.
ANNOTATED_MODULES = [
    "src/core/batch.h",
    "src/core/batch.cpp",
    "src/core/router.h",
    "src/core/router.cpp",
    "src/core/solver_pool.h",
    "src/core/solver_pool.cpp",
    "src/core/stream.h",
    "src/core/stream.cpp",
    "src/obs/flight_recorder.h",
    "src/obs/flight_recorder.cpp",
    "src/obs/http_exporter.h",
    "src/obs/http_exporter.cpp",
    "src/obs/metrics.h",
    "src/obs/metrics.cpp",
    "src/obs/serving.h",
    "src/obs/serving.cpp",
    "src/obs/slo.h",
    "src/obs/slo.cpp",
    "src/obs/span.h",
    "src/obs/span.cpp",
    "src/obs/window.h",
    "src/obs/window.cpp",
    "src/parallel/mpmc_queue.h",
    "src/parallel/worker_pool.h",
]

# The single file allowed to name bare std sync types: it implements the
# annotated wrappers.
LOCK_EXEMPT = {"src/support/thread_annotations.h"}

METRIC_CALL_RE = re.compile(
    r"\b(?:counter|gauge|accumulator|histogram)\s*\(\s*\"([a-z0-9_.]+)\"")
METRIC_PREFIX_CALL_RE = re.compile(
    r"\b(?:counter|gauge|accumulator|histogram)\s*\(\s*prefix\s*\+\s*"
    r"\"(\.[a-z0-9_.]+)\"")
# Compile-time paste `counter("solver." id ".solves")`: (prefix, suffix).
METRIC_PASTE_CALL_RE = re.compile(
    r"\b(?:counter|gauge|accumulator|histogram)\s*\(\s*\"([a-z0-9_.]+\.)\""
    r"\s*[A-Za-z_]\w*\s*\"(\.[a-z0-9_.]+)\"")

# The OBSERVABILITY.md section whose exact names MET02 holds to src/.
WHO_RECORDS_WHAT = "### Who records what"

CPP_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")

# DEAD01: the trees whose #includes keep a src/ header alive (tests/ does
# not count), and the headers kept for the tests alone.
INCLUDER_DIRS = ["src", "bench", "examples", "fuzz", "perfbench"]
TEST_ORACLES = {"core/brute_force.h", "core/simulator.h"}
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


class Violation:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def find_repo_root(start: str) -> str:
    path = os.path.abspath(start)
    while True:
        if os.path.isdir(os.path.join(path, ".git")) or os.path.isfile(
                os.path.join(path, "ROADMAP.md")):
            return path
        parent = os.path.dirname(path)
        if parent == path:
            return os.path.abspath(start)
        path = parent


def iter_cpp_files(root: str, subdirs: Iterable[str]) -> Iterable[str]:
    for sub in subdirs:
        base = os.path.join(root, sub)
        if os.path.isfile(base):
            yield os.path.relpath(base, root)
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            for name in sorted(filenames):
                if name.endswith(CPP_EXTENSIONS):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


def read_lines(root: str, rel: str) -> List[str]:
    with open(os.path.join(root, rel), encoding="utf-8") as f:
        return f.read().splitlines()


# --- MO01 -----------------------------------------------------------------

def check_mo_tags(root: str, files: Iterable[str]) -> List[Violation]:
    out: List[Violation] = []
    for rel in files:
        lines = read_lines(root, rel)
        covered_until = -1  # last line index covered by a preceding mo: tag
        for i, line in enumerate(lines):
            if MO_TAG_RE.search(line):
                covered_until = i + MO_TAG_WINDOW
            if not MEMORY_ORDER_RE.search(line):
                continue
            if i <= covered_until:
                continue
            out.append(Violation(
                "MO01", rel, i + 1,
                "memory_order site without a `// mo:` audit tag within "
                f"{MO_TAG_WINDOW} lines above"))
    return out


# --- RAW01 ----------------------------------------------------------------

def check_raw(root: str, files: Iterable[str]) -> List[Violation]:
    out: List[Violation] = []
    for rel in files:
        for i, line in enumerate(read_lines(root, rel)):
            stripped = line.lstrip()
            if stripped.startswith("//") or stripped.startswith("*"):
                continue
            for pattern, what in RAW_PATTERNS:
                if pattern.search(line):
                    out.append(Violation("RAW01", rel, i + 1,
                                         f"forbidden construct: {what}"))
    return out


# --- LOCK01 ---------------------------------------------------------------

def check_bare_locks(root: str, files: Iterable[str]) -> List[Violation]:
    out: List[Violation] = []
    annotated = set(ANNOTATED_MODULES)
    for rel in files:
        if rel.replace(os.sep, "/") not in annotated:
            continue
        for i, line in enumerate(read_lines(root, rel)):
            stripped = line.lstrip()
            if stripped.startswith("//") or stripped.startswith("*"):
                continue
            match = BARE_SYNC_RE.search(line)
            if match:
                out.append(Violation(
                    "LOCK01", rel, i + 1,
                    f"bare {match.group(0)} in an annotated module; use the "
                    "support::Mutex/MutexLock/CondVar wrappers "
                    "(support/thread_annotations.h)"))
    return out


# --- MET01 ----------------------------------------------------------------

def documented_metric_names(
        doc_text: str) -> Tuple[set, List[re.Pattern], List[str]]:
    """Expand the doc's metric-name notation into exact names + wildcard
    patterns.  Notation: brace groups `a.{b,c}.d` (may wrap across lines
    after a comma), angle wildcards `disk.<j>.busy_ms` (the `<...>` segment
    matches one dot-free token), and `family.*` tails.  Also returns the
    raw expanded spellings for prefix/suffix matching."""
    # Brace groups wrap in the prose ("graph.{augmentations,\n  pushes}");
    # join a comma followed by a newline so the tokenizer sees one token.
    doc_text = re.sub(r",\s*\n\s*", ",", doc_text)
    token_re = re.compile(r"[a-z0-9_.<>{},*]*[a-z0-9_][a-z0-9_.<>{},*]*")
    exact: set = set()
    wildcards: List[re.Pattern] = []
    spellings: List[str] = []
    for raw in token_re.findall(doc_text):
        if "." not in raw:
            continue
        candidates = [raw]
        while True:
            expanded = []
            changed = False
            for cand in candidates:
                m = re.search(r"\{([^{}]*)\}", cand)
                if not m:
                    expanded.append(cand)
                    continue
                changed = True
                for alt in m.group(1).split(","):
                    expanded.append(cand[:m.start()] + alt.strip() +
                                    cand[m.end():])
            candidates = expanded
            if not changed:
                break
        for cand in candidates:
            cand = cand.strip(",").rstrip(".").lstrip(".")
            if not cand or "." not in cand:
                continue
            if "<" in cand or "*" in cand:
                if not re.fullmatch(r"[a-z0-9_.<>*]+", cand):
                    continue
                spellings.append(cand)
                # re.escape leaves `<`/`>` alone (Python >= 3.7); `*`
                # escapes to `\*`.
                pattern = re.escape(cand)
                pattern = re.sub(r"<[^<>]*>", r"[a-z0-9_]+", pattern)
                pattern = pattern.replace(r"\.\*", r"\.[a-z0-9_.]+")
                wildcards.append(re.compile(r"\A" + pattern + r"\Z"))
            elif re.fullmatch(r"[a-z0-9_.]+", cand):
                exact.add(cand)
                spellings.append(cand)
    return exact, wildcards, spellings


def check_metric_docs(root: str, files: Iterable[str]) -> List[Violation]:
    doc_path = os.path.join(root, "docs", "OBSERVABILITY.md")
    if not os.path.isfile(doc_path):
        return [Violation("MET01", "docs/OBSERVABILITY.md", 1,
                          "missing docs/OBSERVABILITY.md (metric contract)")]
    with open(doc_path, encoding="utf-8") as f:
        exact, wildcards, spellings = documented_metric_names(f.read())

    out: List[Violation] = []
    for rel in files:
        for i, line in enumerate(read_lines(root, rel)):
            # `registry.counter(prefix + ".suffix")` registration: pass when
            # some documented spelling ends with the suffix (e.g. `.busy_ms`
            # matches `disk.<j>.busy_ms`, `.pushes` matches the expanded
            # `parallel.pushes`).
            for suffix in METRIC_PREFIX_CALL_RE.findall(line):
                if any(s.endswith(suffix) for s in spellings):
                    continue
                out.append(Violation(
                    "MET01", rel, i + 1,
                    f"metric suffix `{suffix}` (registered via prefix "
                    "concatenation) not documented in docs/OBSERVABILITY.md"))
            for name in METRIC_CALL_RE.findall(line):
                if "." not in name:
                    continue  # not a dotted metric name (e.g. test literals)
                if name.endswith("."):
                    # String-paste prefix ("solver." id ".solve_ms" or
                    # "slo." + name): pass when a documented spelling
                    # carries the prefix.
                    if any(s.startswith(name) for s in spellings):
                        continue
                    out.append(Violation(
                        "MET01", rel, i + 1,
                        f"metric prefix `{name}` has no documented family "
                        "in docs/OBSERVABILITY.md"))
                    continue
                if name in exact or any(p.match(name) for p in wildcards):
                    continue
                out.append(Violation(
                    "MET01", rel, i + 1,
                    f"metric `{name}` registered here but not documented in "
                    "docs/OBSERVABILITY.md"))
    return out


# --- MET02 ----------------------------------------------------------------

def check_metric_registrations(root: str,
                               files: Iterable[str]) -> List[Violation]:
    doc_rel = "docs/OBSERVABILITY.md"
    doc_path = os.path.join(root, doc_rel)
    if not os.path.isfile(doc_path):
        return [Violation("MET02", doc_rel, 1,
                          "missing docs/OBSERVABILITY.md (metric contract)")]
    with open(doc_path, encoding="utf-8") as f:
        text = f.read()
    start = text.find(WHO_RECORDS_WHAT)
    if start < 0:
        return [Violation("MET02", doc_rel, 1,
                          f"no `{WHO_RECORDS_WHAT}` section")]
    heading_line = text.count("\n", 0, start) + 1
    body = text[start + len(WHO_RECORDS_WHAT):]
    next_heading = re.search(r"\n#{1,3} ", body)
    if next_heading:
        body = body[:next_heading.start()]
    documented, _, _ = documented_metric_names(body)

    literals: set = set()
    pastes: List[Tuple[str, str]] = []
    for rel in files:
        for line in read_lines(root, rel):
            literals.update(METRIC_CALL_RE.findall(line))
            pastes.extend(METRIC_PASTE_CALL_RE.findall(line))

    def pasted(name: str) -> bool:
        for prefix, suffix in pastes:
            middle = name[len(prefix):len(name) - len(suffix)]
            if (name.startswith(prefix) and name.endswith(suffix) and
                    middle and "." not in middle):
                return True
        return False

    return [Violation("MET02", doc_rel, heading_line,
                      f"documented metric `{name}` is not registered in src/")
            for name in sorted(documented)
            if name not in literals and not pasted(name)]


# --- DEAD01 ---------------------------------------------------------------

def check_dead_headers(root: str, files: Iterable[str]) -> List[Violation]:
    # src/ is the include root: `#include "core/x.h"` names src/core/x.h.
    includers: dict = {}  # include path -> set of including files
    for rel in iter_cpp_files(root, [d for d in INCLUDER_DIRS
                                     if os.path.isdir(os.path.join(root, d))]):
        rel = rel.replace(os.sep, "/")
        for line in read_lines(root, rel):
            m = INCLUDE_RE.match(line)
            if m:
                includers.setdefault(m.group(1), set()).add(rel)

    out: List[Violation] = []
    for rel in files:
        rel = rel.replace(os.sep, "/")
        if not rel.startswith("src/") or not rel.endswith((".h", ".hpp")):
            continue
        header = rel[len("src/"):]
        if header in TEST_ORACLES:
            continue
        own_cpp = os.path.splitext(rel)[0] + ".cpp"
        if includers.get(header, set()) - {own_cpp}:
            continue
        out.append(Violation(
            "DEAD01", rel, 1,
            "header is not #included outside tests/ and its own .cpp; "
            "delete it or add it to TEST_ORACLES"))
    return out


RULES = {
    "MO01": (check_mo_tags, ["src"]),
    "RAW01": (check_raw, ["src"]),
    "LOCK01": (check_bare_locks, ["src"]),
    "MET01": (check_metric_docs, ["src"]),
    "MET02": (check_metric_registrations, ["src"]),
    "DEAD01": (check_dead_headers, ["src"]),
}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="subtrees or files to lint (default: src/)")
    parser.add_argument("--rule", action="append", choices=sorted(RULES),
                        help="run only these rules (repeatable)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: auto-detected)")
    args = parser.parse_args(argv)

    root = args.root or find_repo_root(os.path.dirname(__file__) or ".")
    if not os.path.isdir(root):
        print(f"repflow_lint: no such root: {root}", file=sys.stderr)
        return 2

    rule_names = args.rule or sorted(RULES)
    violations: List[Violation] = []
    for rule in rule_names:
        checker, default_paths = RULES[rule]
        paths = args.paths or default_paths
        files = list(iter_cpp_files(root, paths))
        violations.extend(checker(root, files))

    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    for v in violations:
        print(v)
    if violations:
        print(f"repflow_lint: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
