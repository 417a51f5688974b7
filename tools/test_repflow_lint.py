#!/usr/bin/env python3
"""Self-tests for tools/repflow_lint.py.

Runs as plain python3 (no pytest dependency) and doubles as a pytest
module: every test is a `test_*` function that raises AssertionError on
failure.

    python3 tools/test_repflow_lint.py
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import repflow_lint as lint  # noqa: E402


class FixtureTree:
    """A throwaway repo root with ROADMAP.md (the root marker) and helpers
    for dropping fixture files."""

    def __init__(self):
        self.root = tempfile.mkdtemp(prefix="repflow_lint_test_")
        with open(os.path.join(self.root, "ROADMAP.md"), "w") as f:
            f.write("fixture\n")

    def write(self, rel, text):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(text)
        return rel

    def cleanup(self):
        shutil.rmtree(self.root, ignore_errors=True)


def run_rule(tree, rule, files):
    checker, _ = lint.RULES[rule]
    return checker(tree.root, files)


# --- MO01 -----------------------------------------------------------------

def test_mo01_flags_untagged_site():
    tree = FixtureTree()
    try:
        rel = tree.write("src/x.cpp",
                         "void f(std::atomic<int>& a) {\n"
                         "  a.store(1, std::memory_order_relaxed);\n"
                         "}\n")
        violations = run_rule(tree, "MO01", [rel])
        assert len(violations) == 1, violations
        assert violations[0].rule == "MO01" and violations[0].line == 2
    finally:
        tree.cleanup()


def test_mo01_accepts_tag_on_site_line_and_within_window():
    tree = FixtureTree()
    try:
        rel = tree.write(
            "src/x.cpp",
            "void f(std::atomic<int>& a) {\n"
            "  a.store(1, std::memory_order_relaxed);  // mo: relaxed — x\n"
            "  // mo: relaxed — covers the cluster below.\n"
            "  a.store(2, std::memory_order_relaxed);\n"
            "  a.store(3, std::memory_order_relaxed);\n"
            "}\n")
        assert run_rule(tree, "MO01", [rel]) == []
    finally:
        tree.cleanup()


def test_mo01_window_expires():
    tree = FixtureTree()
    try:
        filler = "  int unused%d = 0;\n"
        body = ("void f(std::atomic<int>& a) {\n"
                "  // mo: relaxed — too far away.\n" +
                "".join(filler % i for i in range(lint.MO_TAG_WINDOW)) +
                "  a.store(1, std::memory_order_relaxed);\n"
                "}\n")
        rel = tree.write("src/x.cpp", body)
        violations = run_rule(tree, "MO01", [rel])
        assert len(violations) == 1, violations
    finally:
        tree.cleanup()


# --- RAW01 ----------------------------------------------------------------

def test_raw01_flags_each_construct():
    tree = FixtureTree()
    try:
        rel = tree.write("src/x.cpp",
                         "void f() {\n"
                         "  int* p = new int[8];\n"
                         "  void* q = malloc(8);\n"
                         "  std::cout << std::endl;\n"
                         "}\n")
        violations = run_rule(tree, "RAW01", [rel])
        assert len(violations) == 3, violations
        assert {v.line for v in violations} == {2, 3, 4}
    finally:
        tree.cleanup()


def test_raw01_ignores_comments_and_clean_code():
    tree = FixtureTree()
    try:
        rel = tree.write("src/x.cpp",
                         "// new int[8] and malloc( in a comment are fine\n"
                         "void f() {\n"
                         "  std::vector<int> v(8);\n"
                         "  auto p = std::make_unique<int>(1);\n"
                         "}\n")
        assert run_rule(tree, "RAW01", [rel]) == []
    finally:
        tree.cleanup()


# --- LOCK01 ---------------------------------------------------------------

def test_lock01_flags_bare_mutex_in_annotated_module():
    tree = FixtureTree()
    try:
        rel = tree.write("src/parallel/worker_pool.h",
                         "class P {\n"
                         "  std::mutex mutex_;\n"
                         "  std::condition_variable cv_;\n"
                         "};\n")
        violations = run_rule(tree, "LOCK01", [rel])
        assert len(violations) == 2, violations
    finally:
        tree.cleanup()


def test_lock01_ignores_unlisted_files_and_wrappers():
    tree = FixtureTree()
    try:
        other = tree.write("src/misc/scratch.h", "std::mutex m;\n")
        wrapped = tree.write("src/obs/window.cpp",
                             "void f() { support::MutexLock lock(mutex_); }\n")
        assert run_rule(tree, "LOCK01", [other, wrapped]) == []
    finally:
        tree.cleanup()


def test_lock01_every_annotated_module_is_wrapper_only_in_repo():
    """The real tree must hold the discipline the fixture checks."""
    root = lint.find_repo_root(os.path.dirname(lint.__file__))
    present = [m for m in lint.ANNOTATED_MODULES
               if os.path.isfile(os.path.join(root, m))]
    assert present, "annotated module list matches nothing in the repo"
    assert lint.check_bare_locks(root, present) == []


# --- MET01 ----------------------------------------------------------------

DOC = """# Observability
Counters: `router.{admitted,shed}` and per-disk `disk.<j>.busy_ms`;
per-thread `parallel.thread<i>.*` counters; brace groups may wrap:
`graph.{augmentations,
  pushes}` across lines.  Families: `solver.<id>.solve_ms`.
"""


def _met01_tree():
    tree = FixtureTree()
    tree.write("docs/OBSERVABILITY.md", DOC)
    return tree


def test_met01_exact_and_brace_names_pass():
    tree = _met01_tree()
    try:
        rel = tree.write(
            "src/x.cpp",
            'auto& c = reg.counter("router.admitted");\n'
            'auto& d = reg.counter("router.shed");\n'
            'auto& e = reg.counter("graph.pushes");\n')
        assert run_rule(tree, "MET01", [rel]) == []
    finally:
        tree.cleanup()


def test_met01_wildcard_and_prefix_names_pass():
    tree = _met01_tree()
    try:
        rel = tree.write(
            "src/x.cpp",
            'auto& a = reg.accumulator(prefix + ".busy_ms");\n'
            'auto& b = reg.histogram("solver." id ".solve_ms");\n'
            'auto& c = reg.counter("disk.7.busy_ms");\n')
        assert run_rule(tree, "MET01", [rel]) == []
    finally:
        tree.cleanup()


def test_met01_flags_undocumented_name():
    tree = _met01_tree()
    try:
        rel = tree.write("src/x.cpp",
                         'auto& c = reg.counter("router.vanished");\n')
        violations = run_rule(tree, "MET01", [rel])
        assert len(violations) == 1, violations
        assert "router.vanished" in violations[0].message
    finally:
        tree.cleanup()


def test_met01_flags_undocumented_suffix_and_prefix():
    tree = _met01_tree()
    try:
        rel = tree.write(
            "src/x.cpp",
            'auto& a = reg.counter(prefix + ".unheard_of");\n'
            'auto& b = reg.counter("nosuchfamily." id ".solves");\n')
        violations = run_rule(tree, "MET01", [rel])
        assert len(violations) == 2, violations
    finally:
        tree.cleanup()


# --- MET02 ----------------------------------------------------------------

WHO_DOC = """# Observability
## Metrics registry
### Who records what
- `router.{admitted,shed}` counters, `disk.<j>.busy_ms`, and
  `solver.alg6.solves`.
## Span tracer
`tracer.only_in_prose` is outside the section.
"""


def _met02_tree():
    tree = FixtureTree()
    tree.write("docs/OBSERVABILITY.md", WHO_DOC)
    return tree


def test_met02_literal_and_pasted_names_pass():
    tree = _met02_tree()
    try:
        rel = tree.write(
            "src/x.cpp",
            'auto& a = reg.counter("router.admitted");\n'
            'auto& b = reg.counter("router.shed");\n'
            'auto& c = reg.counter("solver." id ".solves");\n')
        assert run_rule(tree, "MET02", [rel]) == []
    finally:
        tree.cleanup()


def test_met02_flags_unregistered_name():
    tree = _met02_tree()
    try:
        rel = tree.write(
            "src/x.cpp",
            'auto& a = reg.counter("router.admitted");\n'
            'auto& c = reg.counter("solver." id ".solve_ms");\n')
        violations = run_rule(tree, "MET02", [rel])
        names = sorted(v.message.split("`")[1] for v in violations)
        assert names == ["router.shed", "solver.alg6.solves"], violations
        assert all(v.line == 3 for v in violations), violations
    finally:
        tree.cleanup()


def test_met02_flags_missing_section():
    tree = FixtureTree()
    try:
        tree.write("docs/OBSERVABILITY.md", DOC)
        rel = tree.write("src/x.cpp", "int f() { return 0; }\n")
        violations = run_rule(tree, "MET02", [rel])
        assert len(violations) == 1, violations
        assert "Who records what" in violations[0].message
    finally:
        tree.cleanup()


# --- DEAD01 ---------------------------------------------------------------

def _dead01_tree():
    tree = FixtureTree()
    tree.write(lint.CI_WORKFLOW, "jobs: {}\n")
    # Reached only by its own .cpp and a test: dead.
    tree.write("src/workload/gen.h", "int gen();\n")
    tree.write("src/workload/gen.cpp", '#include "workload/gen.h"\n')
    tree.write("tests/gen_test.cpp", '#include "workload/gen.h"\n')
    # Reached from bench/ and from another src/ file: alive.
    tree.write("src/core/live.h", "int live();\n")
    tree.write("bench/b.cpp", '#include "core/live.h"\n')
    tree.write("src/graph/engine.h", "int engine();\n")
    tree.write("src/core/user.cpp", '#include "graph/engine.h"\n')
    # A test oracle reached only by tests: exempt.
    tree.write("src/core/brute_force.h", "int brute();\n")
    tree.write("tests/oracle_test.cpp", '#include "core/brute_force.h"\n')
    return tree


def test_dead01_flags_header_only_tests_reach():
    tree = _dead01_tree()
    try:
        headers = ["src/workload/gen.h", "src/core/live.h",
                   "src/graph/engine.h", "src/core/brute_force.h"]
        violations = run_rule(tree, "DEAD01", headers)
        assert [v.path for v in violations] == ["src/workload/gen.h"], \
            violations
        assert violations[0].rule == "DEAD01"
        # One includer outside tests/ and the header's own .cpp revives it.
        tree.write("examples/tool.cpp", '#include "workload/gen.h"\n')
        assert run_rule(tree, "DEAD01", headers) == []
    finally:
        tree.cleanup()


def test_dead01_flags_missing_ci_workflow():
    tree = _dead01_tree()
    try:
        os.remove(os.path.join(tree.root, lint.CI_WORKFLOW))
        violations = run_rule(tree, "DEAD01", ["src/core/live.h"])
        assert [(v.path, v.line) for v in violations] == \
            [(lint.CI_WORKFLOW, 1)], violations
    finally:
        tree.cleanup()


DEAD01_TARGET_HEADERS = ["src/core/live.h", "src/decluster/extra.h",
                         "src/graph/fast.h", "src/workload/demo.h"]


def _dead01_targets_tree(ci):
    tree = FixtureTree()
    tree.write(lint.CI_WORKFLOW, ci)
    tree.write("bench/CMakeLists.txt",
               "add_library(bench_common STATIC common.cpp)\n"
               "function(repflow_bench name)\n"
               "  add_executable(${name} ${name}.cpp)\n"
               "endfunction()\n"
               "repflow_bench(extension_study)\n"
               "add_executable(micro micro.cpp)\n")
    tree.write("examples/CMakeLists.txt", "repflow_example(demo)\n")
    # Each reached only by the main file of one target.
    tree.write("src/decluster/extra.h", "int extra();\n")
    tree.write("bench/extension_study.cpp", '#include "decluster/extra.h"\n')
    tree.write("src/graph/fast.h", "int fast();\n")
    tree.write("bench/micro.cpp", '#include "graph/fast.h"\n')
    tree.write("src/workload/demo.h", "int demo();\n")
    tree.write("examples/demo.cpp", '#include "workload/demo.h"\n')
    # Reached by the bench library, which is no target: alive.
    tree.write("src/core/live.h", "int live();\n")
    tree.write("bench/common.cpp", '#include "core/live.h"\n')
    return tree


def test_dead01_ignores_targets_ci_never_names():
    # CI runs micro; demo appears only in a comment.
    tree = _dead01_targets_tree("jobs:\n"
                                "  smoke:\n"
                                "    # demo is not run here\n"
                                "    run: ./build/bench/micro\n")
    try:
        violations = run_rule(tree, "DEAD01", DEAD01_TARGET_HEADERS)
        assert sorted(v.path for v in violations) == \
            ["src/decluster/extra.h", "src/workload/demo.h"], violations
    finally:
        tree.cleanup()


def test_dead01_counts_targets_ci_names():
    tree = _dead01_targets_tree("jobs:\n"
                                "  smoke:\n"
                                "    run: |\n"
                                "      ./build/bench/micro\n"
                                "      ./build/bench/extension_study\n"
                                "      ./build/examples/demo\n")
    try:
        assert run_rule(tree, "DEAD01", DEAD01_TARGET_HEADERS) == []
    finally:
        tree.cleanup()


# --- LAYER01 --------------------------------------------------------------

def test_layer01_flags_core_include_below_core():
    tree = FixtureTree()
    try:
        rel = tree.write("src/parallel/engine.h",
                         '#include <vector>\n'
                         '#include "graph/maxflow.h"\n'
                         '#include "core/engine.h"\n')
        violations = run_rule(tree, "LAYER01", [rel])
        assert len(violations) == 1, violations
        assert violations[0].rule == "LAYER01" and violations[0].line == 3
    finally:
        tree.cleanup()


def test_layer01_accepts_clean_layers_and_core_itself():
    tree = FixtureTree()
    try:
        files = [tree.write(f"{layer}/x.cpp",
                            '#include "graph/flow_network.h"\n'
                            '#include "support/rng.h"\n')
                 for layer in lint.LOWER_LAYERS]
        # core/ and analysis/ sit above the rule's layers.
        files.append(tree.write("src/core/solver.cpp",
                                '#include "core/problem.h"\n'))
        files.append(tree.write("src/analysis/check.cpp",
                                '#include "core/schedule.h"\n'))
        assert run_rule(tree, "LAYER01", files) == []
    finally:
        tree.cleanup()


# --- FLT01 ----------------------------------------------------------------

FLIGHT_DOC = """# Observability
## Query flight recorder
A routed query's chain reads admit -> solve.

| kind | recorded by |
|---|---|
| `admit` | router |
| `solve` | context |
## HTTP exporter
| `ghost` | outside the section |
"""

FLIGHT_CASES = ('const char* flight_event_kind_name(FlightEventKind kind) {\n'
                '  switch (kind) {\n'
                '    case FlightEventKind::kAdmit: return "admit";\n'
                '    case FlightEventKind::kSolve: return "solve";\n'
                '  }\n'
                '  return "?";\n'
                '}\n')


def test_flt01_documented_labels_pass():
    tree = FixtureTree()
    try:
        tree.write("docs/OBSERVABILITY.md", FLIGHT_DOC)
        rel = tree.write("src/obs/flight_recorder.cpp", FLIGHT_CASES)
        assert run_rule(tree, "FLT01", [rel]) == []
    finally:
        tree.cleanup()


def test_flt01_flags_undocumented_and_stale_labels():
    tree = FixtureTree()
    try:
        tree.write("docs/OBSERVABILITY.md", FLIGHT_DOC)
        # `policy` is returned but not documented; `solve` is documented
        # but no longer returned.
        rel = tree.write(
            "src/obs/flight_recorder.cpp",
            FLIGHT_CASES.replace('kSolve: return "solve"',
                                 'kPolicy: return "policy"'))
        violations = run_rule(tree, "FLT01", [rel])
        found = sorted((v.path, v.line, v.message.split("`")[1])
                       for v in violations)
        assert found == [("docs/OBSERVABILITY.md", 2, "solve"),
                         ("src/obs/flight_recorder.cpp", 4, "policy")], \
            violations
        assert all(v.rule == "FLT01" for v in violations), violations
    finally:
        tree.cleanup()


def test_flt01_flags_missing_section():
    tree = FixtureTree()
    try:
        tree.write("docs/OBSERVABILITY.md", WHO_DOC)
        rel = tree.write("src/obs/flight_recorder.cpp", FLIGHT_CASES)
        violations = run_rule(tree, "FLT01", [rel])
        assert len(violations) == 1, violations
        assert "Query flight recorder" in violations[0].message
    finally:
        tree.cleanup()


# --- OBS01 ----------------------------------------------------------------

def test_obs01_flags_directives_outside_the_switch_header():
    tree = FixtureTree()
    try:
        files = [
            tree.write("src/obs/metrics.h",
                       "// REPFLOW_OBS_DISABLED in a comment is fine.\n"
                       "#if !defined(REPFLOW_OBS_DISABLED)\n"
                       "class Counter {};\n"
                       "#else  // REPFLOW_OBS_DISABLED\n"
                       "class Counter {};\n"
                       "#endif\n"
                       "  #  ifdef REPFLOW_OBS_DISABLED\n"
                       "#endif\n"),
            tree.write("tests/obs_test.cpp",
                       "#if !defined(REPFLOW_OBS_DISABLED)\n"
                       "TEST(Counter, Adds) {}\n"
                       "#endif  // REPFLOW_OBS_DISABLED\n"),
        ]
        violations = run_rule(tree, "OBS01", files)
        assert [(v.rule, v.path, v.line) for v in violations] == [
            ("OBS01", files[0], 2), ("OBS01", files[0], 4),
            ("OBS01", files[0], 7), ("OBS01", files[1], 1),
            ("OBS01", files[1], 3)], violations
    finally:
        tree.cleanup()


def test_obs01_accepts_the_switch_header_and_the_constant():
    tree = FixtureTree()
    try:
        files = [
            tree.write(lint.KILL_SWITCH_HEADER,
                       "#if defined(REPFLOW_OBS_DISABLED)\n"
                       "inline constexpr bool kEnabled = false;\n"
                       "#else\n"
                       "inline constexpr bool kEnabled = true;\n"
                       "#endif\n"),
            tree.write("src/obs/metrics.h",
                       '#include "obs/kill_switch.h"\n'
                       "// Off under REPFLOW_OBS_DISABLED.\n"
                       "void add() {\n"
                       "  if constexpr (kEnabled) ++value;\n"
                       "}\n"),
            tree.write("tests/obs_test.cpp",
                       "// Skips under REPFLOW_OBS_DISABLED.\n"
                       "TEST(Counter, Adds) {\n"
                       "  if constexpr (!obs::kEnabled) GTEST_SKIP();\n"
                       "}\n"),
        ]
        assert run_rule(tree, "OBS01", files) == []
    finally:
        tree.cleanup()


def test_obs01_lints_tests_by_default():
    tree = FixtureTree()
    try:
        tree.write("src/clean.cpp", "int f() { return 0; }\n")
        assert lint.main(["--root", tree.root, "--rule", "OBS01"]) == 0
        tree.write("tests/obs_test.cpp",
                   "#ifdef REPFLOW_OBS_DISABLED\n#endif\n")
        assert lint.main(["--root", tree.root, "--rule", "OBS01"]) == 1
    finally:
        tree.cleanup()


# --- end-to-end -----------------------------------------------------------

def test_main_exit_codes():
    tree = FixtureTree()
    try:
        tree.write("docs/OBSERVABILITY.md",
                   WHO_DOC + "## Query flight recorder\nNo events.\n")
        tree.write(lint.CI_WORKFLOW, "jobs: {}\n")
        tree.write("src/clean.cpp",
                   'void f() {\n'
                   '  reg.counter("router.admitted");\n'
                   '  reg.counter("router.shed");\n'
                   '  reg.counter("solver." id ".solves");\n'
                   '}\n')
        assert lint.main(["--root", tree.root]) == 0
        tree.write("src/dirty.cpp", "int* p = new int[8];\n")
        assert lint.main(["--root", tree.root]) == 1
    finally:
        tree.cleanup()


def test_repo_tree_is_clean():
    """The checked-in tree must lint clean — the CI contract."""
    root = lint.find_repo_root(os.path.dirname(lint.__file__))
    assert lint.main(["--root", root]) == 0


def _run_all():
    failures = 0
    for name, fn in sorted(globals().items()):
        if not name.startswith("test_") or not callable(fn):
            continue
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as e:
            failures += 1
            print(f"FAIL {name}: {e}")
    if failures:
        print(f"{failures} test(s) failed", file=sys.stderr)
        return 1
    print("all lint self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(_run_all())
