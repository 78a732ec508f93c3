"""Tests for the protocol-aware static analysis engine (repro.analysis).

Three layers: each rule fires on its seeded fixture under
``tests/fixtures/analysis/``; suppressions silence exactly what they name;
and the shipped tree itself analyzes clean (the self-check CI gates on).
"""

import ast
import json
import os
import subprocess
import sys

import pytest

from repro.analysis import AnalysisEngine, all_rules, get_rule, render_json, render_text
from repro.analysis.engine import PARSE_ERROR_RULE_ID, run_analysis
from repro.analysis.registry import SourceFile
from repro.analysis.suppressions import parse_suppressions

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures", "analysis")
REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
SRC = os.path.join(REPO_ROOT, "src")


def fixture(*parts):
    return os.path.normpath(os.path.join(FIXTURES, *parts))


def rule_ids(report):
    return [finding.rule_id for finding in report.findings]


class TestRegistry:
    def test_all_rules_registered(self):
        ids = [rule_class.rule_id for rule_class in all_rules()]
        assert ids == sorted(ids)
        assert {
            "RP01",
            "RP02",
            "RP03",
            "RP04",
            "RP05",
            "RP06",
            "RP07",
            "RP09",
            "RP10",
        } <= set(ids)

    def test_unknown_rule_rejected(self):
        with pytest.raises(KeyError, match="RP99"):
            get_rule("RP99")


class TestRuleFixtures:
    def test_rp01_missing_types_flagged(self):
        report = run_analysis([fixture("rp01_dispatch.py")], select=["RP01"])
        messages = [f.message for f in report.findings]
        # LeakyAutomaton: one missing-coverage finding.  TypoedDeclaration:
        # the unknown name is flagged AND the coverage gap it fails to close.
        assert len(messages) == 3
        leaky = next(m for m in messages if "LeakyAutomaton" in m)
        assert "PreWrite" in leaky  # names what is missing
        assert "Batch" not in leaky  # envelopes carry no obligation
        assert any("ReadAckk" in m for m in messages)  # the typo is a finding

    def test_rp01_delegating_class_exempt(self):
        report = run_analysis([fixture("rp01_dispatch.py")], select=["RP01"])
        assert not any("DelegatingWrapper" in f.message for f in report.findings)

    def test_rp02_registry_violations_flagged(self):
        report = run_analysis([fixture("rp02_registry")], select=["RP02"])
        messages = "\n".join(f.message for f in report.findings)
        assert "tag 1 assigned to both Ping and Pong" in messages
        assert "reserved" in messages and "TAG_VALUE" in messages
        assert "Orphan has no MESSAGE_TAGS entry" in messages
        assert "0x10 reused" in messages
        assert "0x05" in messages and "outside the value plane" in messages
        assert "Payload" in messages and "never register_struct'ed" in messages

    def test_rp03_stray_pickle_import_flagged(self):
        report = run_analysis([fixture("rp03_pickle.py")], select=["RP03"])
        assert rule_ids(report) == ["RP03"]
        assert report.findings[0].line == 3

    def test_rp03_sniffers_are_exempt(self):
        report = run_analysis(
            [
                os.path.join(SRC, "repro", "persist", "wal.py"),
                os.path.join(SRC, "repro", "persist", "snapshot.py"),
            ],
            select=["RP03"],
        )
        assert report.ok

    def test_rp04_wall_clock_and_random_flagged(self):
        report = run_analysis([fixture("core", "rp04_clock.py")], select=["RP04"])
        messages = "\n".join(f.message for f in report.findings)
        assert "'time'" in messages
        assert "'datetime'" in messages
        assert "random.random" in messages
        # time import + datetime import + random.random() call; the bare
        # `import random` is allowed (seeded random.Random is legitimate).
        assert len(report.findings) == 3

    def test_rp04_scope_is_path_based(self):
        # The same source outside core//sim//store//lease is not in scope.
        report = run_analysis([fixture("rp03_pickle.py")], select=["RP04"])
        assert report.ok

    def test_rp05_ack_before_append_flagged(self):
        report = run_analysis([fixture("rp05_durable.py")], select=["RP05"])
        assert rule_ids(report) == ["RP05"]
        assert "BrokenDurableServer" in report.findings[0].message

    def test_rp05_real_durable_server_passes(self):
        report = run_analysis(
            [os.path.join(SRC, "repro", "persist", "durable.py")], select=["RP05"]
        )
        assert report.ok

    def test_rp06_context_free_timer_ids_flagged(self):
        report = run_analysis([fixture("rp06_timers.py")], select=["RP06"])
        assert rule_ids(report) == ["RP06", "RP06"]  # literal + empty f-string
        assert {f.line for f in report.findings} == {10, 11}

    def test_rp07_unslotted_hot_dataclasses_flagged(self):
        report = run_analysis([fixture("rp07", "core", "messages.py")], select=["RP07"])
        assert rule_ids(report) == ["RP07", "RP07"]
        messages = " | ".join(f.message for f in report.findings)
        assert "UnslottedMessage" in messages  # frozen without slots
        assert "BareDataclass" in messages  # bare @dataclass
        assert "SlottedMessage" not in messages
        assert "PlainClass" not in messages

    def test_rp09_uncancelled_round_timer_flagged(self):
        report = run_analysis([fixture("rp09_deadline.py")], select=["RP09"])
        messages = [f.message for f in report.findings]
        assert rule_ids(report) == ["RP09", "RP09"]
        assert "LeakyClient.finish " in messages[0]
        assert "LeakySubclass.finish_differently" in messages[1]  # inherited timer
        # The zero-round completion, the cancelling class and the class whose
        # only timer runs on a lease duration carry no finding.
        assert not any(
            name in message
            for message in messages
            for name in ("finish_from_cache", "TidyClient.", "LeaseOnlyClient")
        )

    def test_rp09_core_automata_cancel_and_declare_the_one_exception(self):
        report = run_analysis(
            [
                os.path.join(SRC, "repro", "core", "writer.py"),
                os.path.join(SRC, "repro", "core", "reader.py"),
            ],
            select=["RP09"],
        )
        assert report.ok
        # The CAS that fails in the query phase, before the PW timer exists.
        assert report.suppressed_count == 1

    def test_rp10_unaddressed_messages_flagged(self):
        report = run_analysis([fixture("core", "rp10_unaddressed.py")], select=["RP10"])
        assert rule_ids(report) == ["RP10", "RP10"]
        assert [f.line for f in report.findings] == [7, 20]
        assert "ReadAck(...)" in report.findings[0].message
        assert "self.role.renew(...)" in report.findings[1].message

    def test_rp10_scope_is_path_based(self):
        # Outside the automata layers (the golden vectors, the wire benches)
        # an unaddressed message is a deliberate single-register value.
        with open(fixture("core", "rp10_unaddressed.py"), encoding="utf-8") as fh:
            source = fh.read()

        def findings_at(path):
            rule = get_rule("RP10")()
            return list(rule.check_file(SourceFile(path, source, ast.parse(source))))

        assert findings_at("src/repro/wire/golden.py") == []
        assert findings_at("src/repro/sim/cluster.py") == []
        for scoped in ("lease/table.py", "variants/x.py", "baselines/x.py", "sim/byzantine.py"):
            assert len(findings_at(f"src/repro/{scoped}")) == 2, scoped

    def test_rp07_scope_is_path_based(self):
        # The same violations outside the hot modules carry no obligation:
        # the rp02 fixture package is full of slot-less dataclasses, but its
        # messages.py does not sit under a hot-path suffix.
        report = run_analysis([fixture("rp02_registry", "messages.py")], select=["RP07"])
        assert report.ok
        report = run_analysis([fixture("rp05_durable.py")], select=["RP07"])
        assert report.ok


class TestSuppressions:
    def test_parse(self):
        source = "import pickle  # repro: ignore[RP03]\nx = 1\ny = 2  # repro: ignore[RP01, RP04]\n"
        assert parse_suppressions(source) == {
            1: frozenset({"RP03"}),
            3: frozenset({"RP01", "RP04"}),
        }

    def test_suppressed_fixture_is_clean_and_counted(self):
        report = run_analysis([fixture("suppressed.py")], select=["RP03"])
        assert report.ok
        assert report.suppressed_count == 1

    def test_suppression_is_rule_specific(self):
        # The same comment does not silence other rules on the same line.
        report = AnalysisEngine(select=["RP03"]).run([fixture("rp03_pickle.py")])
        assert not report.ok  # no suppression present -> still fires

    def test_in_tree_suppression_is_exercised(self):
        # core/writer.py carries the one shipped suppression (a completion in
        # the MWMR query phase, before any PW timer is armed); the clean-tree
        # check below depends on it.
        report = run_analysis([os.path.join(SRC, "repro", "core", "writer.py")], select=["RP09"])
        assert report.ok
        assert report.suppressed_count == 1


class TestEngine:
    def test_syntax_error_becomes_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        report = run_analysis([str(bad)])
        assert rule_ids(report) == [PARSE_ERROR_RULE_ID]

    def test_findings_sorted_and_deduped_paths(self):
        report = run_analysis(
            [fixture("rp03_pickle.py"), fixture("rp03_pickle.py")], select=["RP03"]
        )
        assert len(report.findings) == 1  # same file listed twice is read once

    def test_reporters(self):
        report = run_analysis([fixture("rp03_pickle.py")], select=["RP03"])
        text = render_text(report)
        assert "RP03" in text and text.endswith("(1 files, 0 suppressed)")
        payload = json.loads(render_json(report))
        assert payload["rules"] == ["RP03"]
        assert payload["findings"][0]["rule"] == "RP03"
        assert payload["findings"][0]["line"] == 3


def calls_in(*relative):
    """Names called anywhere under ``src/repro/<relative>``: ``f(`` and ``.f(``."""
    root = os.path.join(SRC, "repro", *relative)
    paths = [root] if root.endswith(".py") else [
        os.path.join(folder, name)
        for folder, _, names in os.walk(root)
        for name in names
        if name.endswith(".py")
    ]  # fmt: skip
    called = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                called.add(name)
    return called


class TestOneProcessHost:
    """The frame -> fence -> WAL-batch -> step -> outbox -> record loop lives in
    ``core/host.py``; neither runtime may grow its own copy back."""

    HOST_ONLY = {"append_batch", "invoke_operation", "make_envelope", "OperationRecord"}

    @pytest.mark.parametrize("module", [("sim", "cluster.py"), ("runtime", "node.py")])
    def test_the_runtimes_step_no_automaton_themselves(self, module):
        forbidden = self.HOST_ONLY | {"handle_message", "on_timer"}
        assert not calls_in(*module) & forbidden

    @pytest.mark.parametrize("package", ["sim", "runtime", "store"])
    def test_scope_envelope_invocation_and_record_are_the_hosts(self, package):
        assert not calls_in(package) & self.HOST_ONLY
        assert self.HOST_ONLY <= calls_in("core", "host.py")


def runtime_module(name):
    with open(os.path.join(SRC, "repro", "runtime", name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def called_names(tree):
    return {
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }


def spawning_functions(tree):
    return {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        and called_names(function) & TestNoTaskPerFrame.SPAWN
    }


class TestNoTaskPerFrame:
    """A frame costs no task: a node makes its one flusher when it starts and
    steps a frame where it lands (no mailbox, no stepper), zero-delay
    in-memory delivery awaits the handler itself, and the per-flush task, its
    lock and the two-read TCP framing stay gone."""

    SPAWN = {"create_task", "ensure_future"}

    def test_a_node_makes_tasks_only_when_it_starts(self):
        node = runtime_module("node.py")
        assert spawning_functions(node) == {"start"}
        assert "Lock" not in called_names(node)  # send order holds by construction

    def test_a_node_has_no_mailbox_and_no_stepper(self):
        node = runtime_module("node.py")
        assert "Queue" not in called_names(node)
        defined = {
            function.name
            for function in ast.walk(node)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        assert "_run" not in defined

    def test_zero_delay_in_memory_delivery_makes_no_task(self):
        transport = runtime_module("transport.py")
        (in_memory,) = [
            n for n in transport.body if getattr(n, "name", "") == "InMemoryTransport"
        ]
        assert spawning_functions(in_memory) == {"_deliver_later"}
        (send,) = [n for n in in_memory.body if getattr(n, "name", "") == "send"]
        (branch,) = [
            n
            for n in ast.walk(send)
            if isinstance(n, ast.If) and "_deliver_later" in called_names(n)
        ]
        assert ast.unparse(branch.test) == "delay > 0"
        assert [ast.unparse(statement) for statement in branch.orelse] == [
            "await handler(source, message)"
        ]

    @pytest.mark.parametrize(
        "name", ["_flush_lock", "_start_flush", "_flush_tasks", "_flush_scheduled", "_read_frame"]
    )
    def test_the_per_frame_plumbing_is_gone(self, name):
        for module in ("node.py", "transport.py"):
            names = {
                getattr(n, "attr", None) or getattr(n, "id", None) or getattr(n, "name", None)
                for n in ast.walk(runtime_module(module))
            }
            assert name not in names, f"{name} is back in runtime/{module}"

    def test_tcp_ingress_reads_whole_chunks(self):
        assert "readexactly" not in called_names(runtime_module("transport.py"))


class TestOneCreationPath:
    """Admission is the only way a register comes to exist: the per-key
    builders have one caller each, and the routers no eager door."""

    def test_per_key_automata_are_built_by_the_admission_factories_only(self):
        callers = {"_create_register_server": set(), "_create_client_register": set()}
        for folder, _, names in os.walk(os.path.join(SRC, "repro")):
            for name in (n for n in names if n.endswith(".py")):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
                for function in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
                    for node in ast.walk(function):
                        callee = getattr(getattr(node, "func", None), "attr", None)
                        if isinstance(node, ast.Call) and callee in callers:
                            callers[callee].add(function.name)
        assert callers == {
            "_create_register_server": {"_admit_server_register"},
            "_create_client_register": {"_admit_client_register"},
        }

    def test_the_routers_take_a_factory_and_no_table(self):
        import inspect

        from repro.store.sharding import ShardedClient, ShardedServer

        for router in (ShardedServer, ShardedClient):
            parameters = inspect.signature(router).parameters
            assert "registers" not in parameters
            assert parameters["factory"].default is inspect.Parameter.empty
        with open(os.path.join(SRC, "repro", "store", "sharding.py"), encoding="utf-8") as fh:
            assert "factory is None" not in fh.read()


class TestOneChecker:
    """Atomicity is defined once: SWMR, MWMR and conditional histories go
    through one per-register sort-and-sweep, and no all-pairs loop grows back."""

    VERIFY = os.path.join(SRC, "repro", "verify")
    MODULES = sorted(name for name in os.listdir(VERIFY) if name.endswith(".py"))

    def verify_module(self, name):
        with open(os.path.join(self.VERIFY, name), encoding="utf-8") as fh:
            return ast.parse(fh.read())

    def test_atomicity_defines_one_class_with_a_check_method(self):
        checkers = [
            node.name
            for node in self.verify_module("atomicity.py").body
            if isinstance(node, ast.ClassDef)
            and any(isinstance(m, ast.FunctionDef) and m.name == "check" for m in node.body)
        ]
        assert checkers == ["AtomicityChecker"]
        assert not any(
            isinstance(node, ast.ClassDef) for node in self.verify_module("regularity.py").body
        )

    def test_the_mirrored_checkers_are_gone(self):
        import repro.verify

        for name in ("MultiWriterAtomicityChecker", "ConditionalOpChecker", "RegularityChecker"):
            assert not hasattr(repro.verify, name)
            assert not hasattr(repro.verify.atomicity, name)

    def test_no_loop_over_operations_nests_another(self):
        loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        (checker,) = (
            node
            for node in self.verify_module("atomicity.py").body
            if isinstance(node, ast.ClassDef) and node.name == "AtomicityChecker"
        )
        nested = [
            (outer.lineno, inner.lineno)
            for outer in ast.walk(checker)
            if isinstance(outer, (ast.For, ast.While))
            for inner in ast.walk(outer)
            if inner is not outer and isinstance(inner, loops)
        ]
        assert nested == []

    @pytest.mark.parametrize("name", MODULES)
    def test_the_package_is_annotated_for_the_strict_typing_gate(self, name):
        # mypy.ini holds repro.verify to the strict bar; mypy is not in every
        # sandbox, so at least keep every signature fully annotated.
        def arguments(function):
            spec = function.args
            named = [*spec.posonlyargs, *spec.args, *spec.kwonlyargs, spec.vararg, spec.kwarg]
            return [arg for arg in named if arg is not None and arg.arg not in ("self", "cls")]

        missing = [
            f"{function.name}:{function.lineno}"
            for function in ast.walk(self.verify_module(name))
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            and (
                function.returns is None
                or any(arg.annotation is None for arg in arguments(function))
            )
        ]
        assert missing == []


class TestSelfCheck:
    def test_shipped_tree_analyzes_clean(self):
        report = run_analysis([SRC])
        assert report.findings == []

    def test_cli_analyze_clean_tree_exits_zero(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "analyze", "src"],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 findings" in result.stdout

    def test_cli_analyze_fixture_exits_nonzero(self):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "analyze",
                fixture("rp03_pickle.py"),
                "--select",
                "RP03",
            ],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "RP03" in result.stdout

    def test_cli_unknown_rule_exits_two(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "analyze", "--select", "RP99", "src"],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert "RP99" in result.stderr
