"""Structural tests: the seams each layer owns stay where they are.

Each class pins one design decision by reading the source tree (``ast``) or
the imported package: one process host, no task per frame, one creation path
for per-key automata, one atomicity checker, one wire format, no pickle
anywhere, and no wall clock or unseeded draw bound in a deterministic layer.
"""

import ast
import datetime
import importlib
import os
import pkgutil
import random
import subprocess
import sys
import time

import pytest

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
SRC = os.path.join(REPO_ROOT, "src")


def source_trees(*relative):
    """The parsed modules under ``src/repro/<relative>``, a file or a package."""
    root = os.path.join(SRC, "repro", *relative)
    paths = [root] if root.endswith(".py") else [
        os.path.join(folder, name)
        for folder, _, names in os.walk(root)
        for name in names
        if name.endswith(".py")
    ]  # fmt: skip
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            yield path, ast.parse(fh.read())


def call_name(call):
    """The name a call calls: ``f`` of ``f(`` and of ``.f(``."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def calls_in(*relative):
    """Names called anywhere under ``src/repro/<relative>``."""
    return {
        call_name(node)
        for _, tree in source_trees(*relative)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }


def imported_modules(tree):
    """``(line, module)`` for every import in *tree*, function-local ones and
    ``import_module("m")`` / ``__import__("m")`` included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, node.module or ""
        elif (
            isinstance(node, ast.Call)
            and call_name(node) in ("import_module", "__import__")
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            yield node.lineno, str(node.args[0].value)


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
    return {call_name(node) for node in ast.walk(tree) if isinstance(node, ast.Call)}


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
    """Admission is the only way a register comes to exist: each per-key
    builder is reached only through its routers' factory partial, the one
    suite method mapping a ``RegisterSpec`` to a client only from client
    admission, and the routers have no eager door."""

    @staticmethod
    def attribute_uses(names):
        """Name → ``(enclosing function, how)`` of every ``.name`` in
        ``src/repro``; *how* is ``partial`` (an argument of
        ``functools.partial``), ``call``, ``super`` (``super().name(``) or
        ``other``."""
        uses = {name: set() for name in names}
        for _, tree in source_trees():
            for function in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
                for parent in ast.walk(function):
                    for child in ast.iter_child_nodes(parent):
                        if not (isinstance(child, ast.Attribute) and child.attr in uses):
                            continue
                        how = "other"
                        if isinstance(parent, ast.Call) and parent.func is child:
                            on_super = isinstance(child.value, ast.Call) and (
                                call_name(child.value) == "super"
                            )
                            how = "super" if on_super else "call"
                        elif isinstance(parent, ast.Call) and call_name(parent) == "partial":
                            how = "partial"
                        uses[child.attr].add((function.name, how))
        return uses

    def test_per_key_automata_are_built_by_the_admission_factories_only(self):
        uses = self.attribute_uses(
            ["_create_register_server", "_create_client_register", "create_client"]
        )
        assert uses == {
            "_create_register_server": {("create_server", "partial")},
            "_create_client_register": {("_create_client", "partial")},
            "create_client": {("_create_client_register", "call"), ("create_client", "super")},
        }

    def test_one_suite_method_maps_a_spec_to_a_client(self):
        defining = {
            node.name
            for _, tree in source_trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(
                isinstance(item, ast.FunctionDef) and item.name == "create_client"
                for item in node.body
            )
        }
        assert defining == {"ProtocolSuite", "LuckyAtomicProtocol"}

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


class TestNoPickle:
    """The versioned binary codec is the only serialization surface: pickle
    runs arbitrary code on load and its frames are not versioned, so no
    module of the package may import it, not even indirectly."""

    PICKLE = ("pickle", "_pickle")

    def test_importing_every_module_loads_no_pickle(self):
        script = (
            "import importlib, pkgutil, sys, repro\n"
            "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    importlib.import_module(info.name)\n"
            "print(sorted({'pickle', '_pickle'} & set(sys.modules)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_no_module_imports_pickle_even_lazily(self):
        """The import above runs module bodies only: a function-local
        ``import pickle`` or ``importlib.import_module("pickle")`` (a lazy
        fallback decoder) is found in the source instead."""
        found = [
            f"{os.path.relpath(path, SRC)}:{line}"
            for path, tree in source_trees()
            for line, module in imported_modules(tree)
            if module.split(".")[0] in self.PICKLE
        ]
        assert found == []


def qualified_functions(node, prefix=""):
    """``(Class.method or function name, node)`` for every function in *node*."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from qualified_functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from qualified_functions(child, f"{prefix}{child.name}.")
        else:
            yield from qualified_functions(child, prefix)


class TestOneWireFormat:
    """``wire/`` decides the bytes of every frame, record and snapshot; the
    other layers call its module functions.  Only a transport is handed a
    ``Codec`` (a subclass changes or times the bytes on a link), and
    ``AsyncCluster`` passes one to its default transport."""

    TAKES_A_CODEC = {
        "runtime/cluster.py:AsyncCluster.__init__",
        "runtime/transport.py:InMemoryTransport.__init__",
        "runtime/transport.py:TcpTransport.__init__",
    }

    def test_only_the_transports_take_a_codec(self):
        package = os.path.join(SRC, "repro")
        found = {
            f"{os.path.relpath(path, package).replace(os.sep, '/')}:{name}"
            for path, tree in source_trees()
            if os.path.relpath(path, package).split(os.sep)[0] != "wire"
            for name, function in qualified_functions(tree)
            if any(
                arg.arg == "codec"
                for arg in (
                    *function.args.posonlyargs,
                    *function.args.args,
                    *function.args.kwonlyargs,
                )
            )
        }
        assert found == self.TAKES_A_CODEC


class TestNoWallClock:
    """core, sim, store and lease run on virtual time and seeded generators,
    so a run replays.  The experiment-fixture test replaces the wall clocks
    and the module-level ``random`` functions while every table runs; a name
    bound at import (``from time import monotonic``, ``from datetime import
    datetime``) escapes that patch, so no module there may hold one."""

    PACKAGES = ("core", "sim", "store", "lease")

    #: ``random``'s module-level functions: methods of its one unseeded generator.
    UNSEEDED_DRAWS = [
        value
        for value in vars(random).values()
        if isinstance(getattr(value, "__self__", None), random.Random)
    ]

    def is_clock_or_draw(self, value):
        return (
            value is time
            or value is datetime
            or getattr(value, "__module__", None) in ("time", "datetime")
            or any(value is draw for draw in self.UNSEEDED_DRAWS)
        )

    @pytest.mark.parametrize("package", PACKAGES)
    def test_no_module_binds_a_wall_clock_or_an_unseeded_draw(self, package):
        root = importlib.import_module(f"repro.{package}")
        modules = [root] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(root.__path__, f"{root.__name__}.")
        ]
        bound = [
            f"{module.__name__}.{name}"
            for module in modules
            for name, value in vars(module).items()
            if self.is_clock_or_draw(value)
        ]
        assert bound == []
