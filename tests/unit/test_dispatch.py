"""Every automaton that dispatches on message type accounts for every type.

An automaton steps a message through the ``isinstance`` chain of its
``handle_message`` and drops whatever the chain does not match.  A dropped
protocol message wedges the operation that waits for it (reader
timestamp-query acks and lease revoke acks were each swallowed once), so
every concrete message type must be matched by the chain *or* named in the
class's ``DISPATCH_IGNORES``, and never both: a declared type the chain
matches is a stale declaration.

The test runs the chain rather than reading it: it replaces ``isinstance`` in
the modules of the class and its bases with a recorder, feeds one instance of
each type from :func:`repro.wire.golden.message_zoo` (``Batch`` excluded: the
host unpacks envelopes before dispatch) to a client that is mid-operation, so
no idle-client guard drops the message first, and records whether any check
matched it.
"""

import builtins
import importlib
import pkgutil
import sys

import pytest

import repro
from repro.baselines.abd import ABDProtocol, ABDReader, ABDServer, ABDWriter
from repro.core.automaton import Automaton
from repro.core.config import SystemConfig
from repro.core.messages import Batch
from repro.core.mwmr import MultiWriterClient
from repro.core.protocol import LuckyAtomicProtocol, RegisterSpec
from repro.core.reader import AtomicReader
from repro.core.server import StorageServer
from repro.core.writer import AtomicWriter
from repro.wire.golden import message_zoo

CONFIG = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1)
LUCKY = LuckyAtomicProtocol(CONFIG)
ABD = ABDProtocol(CONFIG)

#: Automata that define ``handle_message`` but drop nothing themselves: each
#: hands what it does not consume to the automaton it wraps or extends.
FORWARDERS = {
    "LeasedReader",
    "LeasedWriter",
    "LeaseServer",
    "WriterLeaseServer",
    "DurableServer",
    "MaliciousServer",
}


def mid_write(client):
    client.write("v")
    return client


def mid_read(client):
    client.read()
    return client


#: Each class that declares ``DISPATCH_IGNORES``, built ready to dispatch.
AUTOMATA = {
    StorageServer: lambda: LUCKY.create_server("s1"),
    AtomicWriter: lambda: mid_write(LUCKY.create_writer()),
    AtomicReader: lambda: mid_read(LUCKY.create_reader("r1")),
    MultiWriterClient: lambda: mid_write(LUCKY.create_client("c1", RegisterSpec(mwmr=True), 1.0)),
    ABDServer: lambda: ABD.create_server("s1"),
    ABDWriter: lambda: mid_write(ABD.create_writer()),
    ABDReader: lambda: mid_read(ABD.create_reader("r1")),
}

ZOO = {type(message): message for message in message_zoo() if not isinstance(message, Batch)}


def subclasses(cls):
    for subclass in cls.__subclasses__():
        yield subclass
        yield from subclasses(subclass)


@pytest.mark.parametrize(
    "cls, message_type",
    [(cls, message_type) for cls in AUTOMATA for message_type in ZOO],
    ids=lambda value: value.__name__,
)
def test_a_message_type_is_handled_or_declared_ignored(cls, message_type, monkeypatch):
    automaton = AUTOMATA[cls]()
    assert type(automaton) is cls
    message = ZOO[message_type]
    matched = []

    def recording_isinstance(obj, classinfo):
        result = builtins.isinstance(obj, classinfo)
        if result and obj is message:
            matched.append(classinfo)
        return result

    for base in cls.__mro__[:-1]:  # every class but ``object``
        monkeypatch.setattr(
            sys.modules[base.__module__], "isinstance", recording_isinstance, raising=False
        )
    automaton.handle_message(message)

    declared = message_type in cls.DISPATCH_IGNORES
    if declared:
        assert not matched, f"{message_type.__name__} is declared ignored but matched {matched}"
    else:
        assert matched, f"{message_type.__name__} is neither handled nor declared ignored"


def test_every_dispatching_automaton_declares_its_ignores_or_forwards():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    ours = [cls for cls in subclasses(Automaton) if cls.__module__.startswith("repro.")]
    dispatching = {cls.__name__ for cls in ours if "handle_message" in vars(cls)}
    declaring = {cls.__name__ for cls in ours if "DISPATCH_IGNORES" in vars(cls)}
    assert declaring == {cls.__name__ for cls in AUTOMATA}
    assert dispatching - declaring == FORWARDERS
