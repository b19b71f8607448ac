"""Self-tests for ``repro.analysis`` (repro-lint).

Each rule code has a deliberately-broken fixture under
``tests/fixtures/lint`` plus a clean counterpart; the tests pin exact
rule codes and line numbers so rule regressions (missed violations *and*
new false positives) both fail loudly.  The suite ends with the
self-hosting check: the real ``src/repro`` tree must lint clean.
"""

import io
import json
import os
import subprocess
import sys
import unittest
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from repro.analysis import lint_paths
from repro.analysis.cli import main as cli_main
from repro.analysis.docs import seed_table_block
from repro.analysis.engine import module_name
from repro.analysis.rules import ALL_RULES
from repro.analysis.seeds import (
    REGISTRY,
    SeedSlot,
    absolute_derivation,
    slots_by_name,
    validate_registry,
)
from repro.analysis.violations import parse_suppressions

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")


def fixture(*parts: str) -> str:
    return os.path.join(FIXTURES, "repro", *parts)


def lint_fixture(*parts: str):
    """Lint one fixture file with the fixture tree as the module root."""
    result = lint_paths([fixture(*parts)], src_root=FIXTURES)
    return [(v.code, v.line) for v in result.violations]


def _slot(**overrides) -> SeedSlot:
    base = dict(
        name="fx",
        base="workload_seed",
        symbol="seed",
        multiplier=1,
        offset=0,
        module="repro.simulation.fx",
        consumer="repro.simulation",
        subsystem="fixture",
        description="fixture slot",
    )
    base.update(overrides)
    return SeedSlot(**base)


#: slots the provenance fixtures declare (passed via ``seed_registry`` so
#: the production registry stays fixture-free)
FIXTURE_SLOTS = (
    _slot(name="fx-churn", offset=99, module="repro.simulation.det150_clean"),
    _slot(
        name="fx-collide-a",
        offset=31,
        module="repro.simulation.det151_collision",
    ),
    _slot(
        name="fx-collide-b",
        offset=31,
        module="repro.topology.det152_sink",
        consumer="repro.topology",
    ),
    _slot(name="fx-escape", offset=13, module="repro.simulation.det152_escape"),
    _slot(
        name="fx-sanctioned",
        offset=14,
        module="repro.simulation.det152_clean",
        consumer="repro.topology",
    ),
    _slot(name="fx-burst", offset=21, module="repro.simulation.det153_clean"),
)


def lint_fixtures(names, registry=None):
    """Lint several fixture files together (whole-program rules need the
    full context); ``names`` are slash-separated fixture-relative paths."""
    paths = [fixture(*name.split("/")) for name in names]
    result = lint_paths(paths, src_root=FIXTURES, seed_registry=registry)
    return [(v.code, v.line) for v in result.violations]


class DeterminismRuleTest(unittest.TestCase):
    def test_det101_catches_every_global_rng_shape(self):
        found = lint_fixture("topology", "det101_global_random.py")
        self.assertEqual(
            found,
            [
                ("DET101", 4),   # from random import choice, shuffle
                ("DET101", 8),   # random.Random()
                ("DET101", 9),   # Random()
                ("DET101", 14),  # random.random()
                ("DET101", 15),  # random.randint()
                ("DET101", 20),  # the module object as an RNG value
                ("DET101", 25),  # np.random.shuffle
                ("DET101", 26),  # np.random.default_rng()
            ],
        )

    def test_det101_clean_counterpart(self):
        self.assertEqual(lint_fixture("topology", "det101_clean.py"), [])

    def test_det102_catches_wallclock_reads(self):
        found = lint_fixture("topology", "det102_wallclock.py")
        self.assertEqual(
            found,
            [
                ("DET102", 4),   # from time import perf_counter
                ("DET102", 9),   # time.time()
                ("DET102", 10),  # time.monotonic()
                ("DET102", 11),  # perf_counter()
                ("DET102", 12),  # datetime.now()
            ],
        )

    def test_det102_allows_the_observability_timer_module(self):
        self.assertEqual(lint_fixture("observability", "recorder.py"), [])

    def test_det103_catches_unordered_iteration(self):
        found = lint_fixture("topology", "det103_set_iter.py")
        self.assertEqual(
            found,
            [
                ("DET103", 7),   # for over a set literal
                ("DET103", 13),  # list(set-typed local)
                ("DET103", 17),  # for over dict.keys()
                ("DET103", 22),  # rng.sample(annotated set param)
                ("DET103", 27),  # comprehension over a set union
            ],
        )

    def test_det103_clean_counterpart(self):
        self.assertEqual(lint_fixture("topology", "det103_clean.py"), [])


class LayeringRuleTest(unittest.TestCase):
    def test_lay201_upward_import(self):
        found = lint_fixture("simulation", "lay201_upward.py")
        self.assertEqual(found, [("LAY201", 3)])

    def test_lay202_cycle_reports_the_chain(self):
        result = lint_paths(
            [fixture("alpha"), fixture("beta")], src_root=FIXTURES
        )
        codes = sorted((v.code, v.line) for v in result.violations)
        # one cycle, plus each file flagging both undeclared packages
        self.assertEqual(
            codes, [("LAY202", 3)] + [("LAY203", 3)] * 4
        )
        cycle = [v for v in result.violations if v.code == "LAY202"][0]
        self.assertIn("alpha", cycle.message)
        self.assertIn("beta", cycle.message)
        self.assertIn("->", cycle.message)

    def test_lay203_undeclared_package(self):
        found = lint_fixture("mystery", "outsider.py")
        self.assertEqual(found, [("LAY203", 3)])

    def test_layering_needs_a_src_root(self):
        # without module names there is no layer information to check
        result = lint_paths(
            [fixture("simulation", "lay201_upward.py")], src_root=None
        )
        self.assertEqual(result.violations, [])


class RecorderDisciplineRuleTest(unittest.TestCase):
    def test_rec301_catches_unguarded_calls_on_hot_paths(self):
        found = lint_fixture("core", "hot_unguarded.py")
        self.assertEqual(
            found,
            [
                ("REC301", 5),
                ("REC301", 7),
                ("REC301", 8),
                ("REC301", 17),
            ],
        )

    def test_rec301_accepts_every_guard_shape(self):
        self.assertEqual(lint_fixture("core", "hot_guarded.py"), [])

    def test_rec301_ignores_cold_paths(self):
        self.assertEqual(lint_fixture("simulation", "cold_path.py"), [])


class RngFlowRuleTest(unittest.TestCase):
    def test_det150_undeclared_derivations(self):
        found = lint_fixtures(
            ["simulation/det150_undeclared.py"], FIXTURE_SLOTS
        )
        self.assertEqual(
            found,
            [
                ("DET150", 7),   # Random(seed + 99), no slot
                ("DET150", 8),   # Random(seed * 5 + 2), no slot
                ("DET150", 13),  # seed=workload_seed + 7 keyword site
            ],
        )

    def test_det150_declared_and_passthrough_are_clean(self):
        self.assertEqual(
            lint_fixtures(["simulation/det150_clean.py"], FIXTURE_SLOTS), []
        )

    def test_det151_colliding_slots(self):
        found = lint_fixtures(
            ["simulation/det151_collision.py"], FIXTURE_SLOTS
        )
        self.assertEqual(found, [("DET151", 11)])

    def test_det152_stream_escaping_its_consumer(self):
        found = lint_fixtures(
            ["simulation/det152_escape.py", "topology/det152_sink.py"],
            FIXTURE_SLOTS,
        )
        self.assertEqual(found, [("DET152", 15)])

    def test_det152_flow_into_declared_consumer_is_clean(self):
        self.assertEqual(
            lint_fixtures(
                ["simulation/det152_clean.py", "topology/det152_sink.py"],
                FIXTURE_SLOTS,
            ),
            [],
        )

    def test_det153_config_dependent_interleaving(self):
        found = lint_fixtures(
            ["simulation/det153_interleave.py"], FIXTURE_SLOTS
        )
        self.assertEqual(found, [("DET153", 10)])

    def test_det153_branch_with_its_own_stream_is_clean(self):
        self.assertEqual(
            lint_fixtures(["simulation/det153_clean.py"], FIXTURE_SLOTS), []
        )


class ShardSafetyRuleTest(unittest.TestCase):
    """SHR403, the one rule kept from the shard-safety family."""

    def test_shr403_listener_without_teardown(self):
        found = lint_fixture("topology", "shr403_listener.py")
        self.assertEqual(found, [("SHR403", 7)])

    def test_shr403_close_teardown_is_clean(self):
        self.assertEqual(lint_fixture("topology", "shr403_clean.py"), [])


class HotPathRuleTest(unittest.TestCase):
    def test_hot5xx_budget_violations(self):
        found = lint_fixture("core", "hot5xx_budget.py")
        self.assertEqual(
            found,
            [
                ("HOT501", 16),  # sorted(self._table.items())
                ("HOT502", 17),  # np.zeros((len(pool), len(pool)))
                ("HOT503", 18),  # for over self._table.items()
                ("HOT504", 20),  # unguarded f-string
                ("HOT505", 21),  # print()
                ("HOT506", 29),  # budget="fast" is not O(...)
                ("HOT501", 34),  # list(network.nodes) in a resolved callee
            ],
        )

    def test_hot5xx_guarded_and_bounded_is_clean(self):
        self.assertEqual(lint_fixture("core", "hot5xx_clean.py"), [])

    def test_hot506_budget_table_function_missing_marker(self):
        # the fixture tree reuses the real module/class names so the
        # REQUIRED_HOT_PATHS table matches
        found = lint_fixture("core", "prober.py")
        self.assertEqual(found, [("HOT506", 9)])


class SeedRegistryTest(unittest.TestCase):
    def test_registry_is_structurally_sound(self):
        self.assertEqual(validate_registry(), [])

    def test_absolute_offsets_match_the_determinism_contract(self):
        by_name = slots_by_name()
        absolute = {
            slot.name: absolute_derivation(slot, by_name)
            for slot in REGISTRY
        }
        self.assertEqual(
            absolute["composition-rng"], ("workload_seed", 1, 17)
        )
        self.assertEqual(absolute["churn-injector"], ("workload_seed", 1, 31))
        self.assertEqual(
            absolute["control-plane-faults"], ("workload_seed", 1, 41)
        )
        # chained: state-update-loss = control-plane-faults + 1
        self.assertEqual(
            absolute["state-update-loss"], ("workload_seed", 1, 42)
        )
        self.assertEqual(
            absolute["population-workload"], ("workload_seed", 1, 43)
        )
        self.assertEqual(
            absolute["population-arrivals"], ("workload_seed", 1, 44)
        )
        self.assertEqual(
            absolute["population-regions"], ("workload_seed", 1, 45)
        )
        self.assertEqual(absolute["workload-root"], ("system_seed", 1, 1000))
        self.assertEqual(
            absolute["component-templates"], ("system_seed", 7, 1)
        )
        self.assertEqual(absolute["overlay-build"], ("system_seed", 7, 3))

    def test_validate_registry_reports_collisions_and_bad_chains(self):
        colliding = REGISTRY + (
            _slot(name="fx-dup", offset=17, symbol="workload_seed"),
        )
        errors = validate_registry(colliding)
        self.assertTrue(any("composition-rng" in e for e in errors))
        dangling = REGISTRY + (_slot(name="fx-dangling", base="no-such"),)
        errors = validate_registry(dangling)
        self.assertTrue(any("bad base chain" in e for e in errors))

    def test_development_md_table_is_in_sync(self):
        """Doc-drift gate: ``make docs-seeds`` must be a no-op."""
        with open(
            os.path.join(REPO_ROOT, "DEVELOPMENT.md"), encoding="utf-8"
        ) as handle:
            self.assertIn(seed_table_block(), handle.read())


class SuppressionTest(unittest.TestCase):
    def test_fixture_suppressions(self):
        # trailing, standalone-above, and disable=all forms all hold; the
        # wrong-code suppression does not hide the real violation
        found = lint_fixture("topology", "suppressed.py")
        self.assertEqual(found, [("DET103", 24)])

    def test_par002_flags_codes_that_name_no_rule(self):
        # misspelt and retired codes are reported at the line they anchor
        # to and silence nothing; real codes and "all" pass
        found = lint_fixture("topology", "par002_unknown_code.py")
        self.assertEqual(
            sorted(found),
            [("DET103", 7), ("PAR002", 7), ("PAR002", 11), ("PAR002", 16)],
        )
        messages = [
            v.message
            for v in lint_paths(
                [fixture("topology", "par002_unknown_code.py")], src_root=FIXTURES
            ).violations
            if v.code == "PAR002"
        ]
        self.assertEqual(
            messages,
            [
                "suppression names no rule: DTE103",
                "suppression names no rule: SHR404",
                "suppression names no rule: NOPE999",
            ],
        )

    def test_parse_trailing_and_standalone(self):
        source = (
            "x = 1  # repro-lint: disable=DET101\n"
            "# repro-lint: disable=DET103,REC301 -- justification\n"
            "y = 2\n"
        )
        suppressions = parse_suppressions(source)
        self.assertEqual(suppressions[1], frozenset({"DET101"}))
        self.assertEqual(suppressions[3], frozenset({"DET103", "REC301"}))

    def test_marker_inside_string_is_ignored(self):
        source = 'text = "# repro-lint: disable=DET101"\n'
        self.assertEqual(parse_suppressions(source), {})

    def test_anchor_fixture_shields_both_hard_shapes(self):
        # a marker above a multi-line call anchors to the call's first
        # line; a marker above a decorated def anchors to the def line
        self.assertEqual(
            lint_fixture("topology", "suppressed_anchors.py"), []
        )

    def test_anchor_skips_stacked_comments_and_blanks(self):
        source = (
            "# repro-lint: disable=DET103 -- first of a stack\n"
            "# a second explanatory comment\n"
            "\n"
            "value = compute()\n"
        )
        self.assertEqual(parse_suppressions(source), {4: frozenset({"DET103"})})

    def test_anchor_travels_past_decorators_to_the_def(self):
        source = (
            "# repro-lint: disable=HOT506 -- decorated def below\n"
            "@hot_path(budget=\"sketchy\")\n"
            "@wraps(inner)\n"
            "def sketch():\n"
            "    return None\n"
        )
        self.assertEqual(parse_suppressions(source), {4: frozenset({"HOT506"})})

    def test_trailing_marker_on_a_multiline_statement_first_line(self):
        source = (
            "result = compute(  # repro-lint: disable=DET103 -- trailing\n"
            "    argument,\n"
            ")\n"
        )
        self.assertEqual(parse_suppressions(source), {1: frozenset({"DET103"})})


class ParseErrorTest(unittest.TestCase):
    def test_broken_file_reports_par001(self):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "broken.py")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("def broken(:\n")
            result = lint_paths([path])
            self.assertEqual(len(result.violations), 1)
            self.assertEqual(result.violations[0].code, "PAR001")


class EngineTest(unittest.TestCase):
    def test_module_name_resolution(self):
        self.assertEqual(
            module_name(fixture("core", "hot_guarded.py"), FIXTURES),
            "repro.core.hot_guarded",
        )
        self.assertEqual(
            module_name(fixture("core", "__init__.py"), FIXTURES),
            "repro.core",
        )
        self.assertIsNone(module_name("/elsewhere/thing.py", FIXTURES))
        self.assertIsNone(module_name(fixture("core", "hot_guarded.py"), None))

    def test_every_emitted_code_is_in_the_catalog(self):
        result = lint_paths([FIXTURES], src_root=FIXTURES)
        for violation in result.violations:
            self.assertIn(violation.code, ALL_RULES)

    def test_every_rule_has_a_violation_fixture(self):
        """Fixture discovery: linting the whole tree must exercise every
        catalog code, even for rules without a clean counterpart file
        (PAR001's broken file is a tempfile, see ParseErrorTest)."""
        result = lint_paths([FIXTURES], src_root=FIXTURES, seed_registry=FIXTURE_SLOTS)
        emitted = {v.code for v in result.violations}
        self.assertEqual(result.internal_errors, [])
        expected = set(ALL_RULES) - {"PAR001"}
        self.assertEqual(expected - emitted, set())

    def test_crashed_rule_pass_is_an_internal_error(self):
        with mock.patch(
            "repro.analysis.engine.check_determinism",
            side_effect=RuntimeError("rule exploded"),
        ):
            result = lint_paths(
                [fixture("core", "hot_guarded.py")], src_root=FIXTURES
            )
        self.assertFalse(result.ok)
        self.assertTrue(result.internal_errors)
        self.assertIn("determinism crashed", result.internal_errors[0])
        self.assertIn("rule exploded", result.internal_errors[0])

    def test_crashed_program_pass_still_reports_other_families(self):
        with mock.patch(
            "repro.analysis.engine.check_listener_teardown",
            side_effect=RuntimeError("pass exploded"),
        ):
            result = lint_paths(
                [fixture("core", "hot5xx_budget.py")], src_root=FIXTURES
            )
        self.assertTrue(result.internal_errors)
        # the hot-path family still ran and found its violations
        self.assertIn("HOT501", {v.code for v in result.violations})


class OutputFormatTest(unittest.TestCase):
    def _result(self):
        return lint_paths(
            [fixture("core", "hot_unguarded.py")], src_root=FIXTURES
        )

    def test_text_format_is_path_line_col_code(self):
        line = self._result().formatted().splitlines()[0]
        self.assertRegex(line, r"hot_unguarded\.py:5:\d+: REC301 ")

    def test_json_format_round_trips(self):
        document = json.loads(self._result().formatted_json())
        self.assertFalse(document["clean"])
        self.assertEqual(document["files_checked"], 1)
        self.assertEqual(document["internal_errors"], [])
        codes = {entry["code"] for entry in document["violations"]}
        self.assertEqual(codes, {"REC301"})
        first = document["violations"][0]
        self.assertEqual(
            sorted(first), ["code", "col", "line", "message", "path"]
        )
        self.assertEqual(first["line"], 5)

    def test_json_format_clean_tree(self):
        result = lint_paths(
            [fixture("core", "hot_guarded.py")], src_root=FIXTURES
        )
        document = json.loads(result.formatted_json())
        self.assertTrue(document["clean"])
        self.assertEqual(document["violations"], [])

    def test_github_format_emits_workflow_commands(self):
        lines = self._result().formatted_github().splitlines()
        self.assertTrue(lines)
        for line in lines:
            self.assertRegex(
                line, r"^::error file=.*,line=\d+,col=\d+,title=REC301::"
            )


class CliTest(unittest.TestCase):
    def run_cli(self, *argv: str) -> "subprocess.CompletedProcess[str]":
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )

    def test_list_rules(self):
        proc = self.run_cli("--list-rules")
        self.assertEqual(proc.returncode, 0)
        for code in ALL_RULES:
            self.assertIn(code, proc.stdout)

    def test_violations_exit_nonzero_with_locations(self):
        proc = self.run_cli(
            os.path.join(
                "tests", "fixtures", "lint", "repro", "core", "hot_unguarded.py"
            ),
            "--src-root",
            os.path.join("tests", "fixtures", "lint"),
        )
        self.assertEqual(proc.returncode, 1)
        self.assertIn("REC301", proc.stdout)
        self.assertIn("hot_unguarded.py:5:", proc.stdout)

    def test_default_invocation_is_clean(self):
        proc = self.run_cli()
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("clean", proc.stdout)

    FIXTURE_ARGS = (
        os.path.join(
            "tests", "fixtures", "lint", "repro", "core", "hot_unguarded.py"
        ),
        "--src-root",
        os.path.join("tests", "fixtures", "lint"),
    )

    def test_format_json(self):
        proc = self.run_cli(*self.FIXTURE_ARGS, "--format", "json")
        self.assertEqual(proc.returncode, 1)
        document = json.loads(proc.stdout)
        self.assertFalse(document["clean"])
        self.assertEqual(
            {entry["code"] for entry in document["violations"]}, {"REC301"}
        )

    def test_format_github(self):
        proc = self.run_cli(*self.FIXTURE_ARGS, "--format", "github")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("::error file=", proc.stdout)
        self.assertIn("title=REC301::", proc.stdout)

    def test_format_text_is_the_default(self):
        proc = self.run_cli(*self.FIXTURE_ARGS)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("hot_unguarded.py:5:", proc.stdout)
        self.assertNotIn("::error", proc.stdout)
        self.assertNotIn("{", proc.stdout)

    def test_layers_round_trip(self):
        proc = self.run_cli("--layers")
        self.assertEqual(proc.returncode, 0)
        # every declared rank and both universal/tool rows print
        for package in ("model", "topology", "core", "simulation", "cli"):
            self.assertIn(package, proc.stdout)
        self.assertIn("observability", proc.stdout)
        self.assertIn("analysis", proc.stdout)

    def test_seed_table_round_trip(self):
        proc = self.run_cli("--seed-table")
        self.assertEqual(proc.returncode, 0)
        for slot in REGISTRY:
            self.assertIn(slot.name, proc.stdout)

    def test_crashed_rule_exits_two(self):
        # in-process so the broken rule can be injected with mock.patch
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch(
            "repro.analysis.engine.check_determinism",
            side_effect=RuntimeError("rule exploded"),
        ), redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli_main(
                [fixture("core", "hot_guarded.py"), "--src-root", FIXTURES]
            )
        self.assertEqual(code, 2)
        self.assertIn("internal error", stderr.getvalue())

    def test_crashed_rule_exits_two_in_github_format(self):
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch(
            "repro.analysis.engine.check_determinism",
            side_effect=RuntimeError("rule exploded"),
        ), redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli_main(
                [
                    fixture("core", "hot_guarded.py"),
                    "--src-root",
                    FIXTURES,
                    "--format",
                    "github",
                ]
            )
        self.assertEqual(code, 2)
        self.assertIn(
            "::error title=repro-lint internal error::", stdout.getvalue()
        )


class SelfHostingTest(unittest.TestCase):
    def test_src_tree_is_lint_clean(self):
        """The acceptance criterion: zero violations on the real tree."""
        result = lint_paths(
            [os.path.join(SRC_ROOT, "repro")], src_root=SRC_ROOT
        )
        self.assertEqual(
            [v.format() for v in result.violations],
            [],
            "src/repro must stay repro-lint clean",
        )
        self.assertGreater(result.files_checked, 50)


if __name__ == "__main__":
    unittest.main()
