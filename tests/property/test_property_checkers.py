"""Property-based tests for the consistency checkers.

The atomicity sweep is cross-validated against the exhaustive linearizability
search on randomly generated small histories of all three kinds — single
writer, two or three writers with stamped pairs, conditional writes, open
writes in each — and its structural properties (atomic => regular, sequential
histories are always accepted) are verified.  The search is the reference:
whatever the sweep accepts must be linearizable, and on well-formed
single-writer histories the two agree exactly.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.types import BOTTOM
from repro.verify.atomicity import check_atomicity
from repro.verify.history import History, OperationRecord
from repro.verify.linearizability import is_linearizable
from repro.verify.regularity import check_regularity


@st.composite
def random_histories(draw):
    """Small random histories with unique written values.

    Writes are sequential (single writer, well-formed); reads come from two
    readers, are sequential per reader, and return either ⊥ or one of the
    written values (not necessarily a correct one — that is the point).  The
    writer's last WRITE may be open: its completion never ran.
    """
    num_writes = draw(st.integers(min_value=0, max_value=4))
    last_is_open = draw(st.booleans())
    records = []
    clock = 0.0
    write_values = []
    for index in range(num_writes):
        start = clock + draw(st.floats(min_value=0.1, max_value=2.0))
        duration = draw(st.floats(min_value=0.1, max_value=3.0))
        value = f"v{index + 1}"
        write_values.append(value)
        end = None if last_is_open and index == num_writes - 1 else start + duration
        records.append(OperationRecord("w", "write", value, start, end))
        # The single writer is well formed: the next WRITE starts only after
        # the previous one completed (Section 2.2).  The SWMR atomicity
        # definition relies on this; without it the physical write order no
        # longer determines the value order and the per-property checker is
        # deliberately stricter than plain linearizability.
        clock = start + duration + draw(st.floats(min_value=0.0, max_value=2.0))

    for reader in ("r1", "r2"):
        clock_r = 0.0
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            start = clock_r + draw(st.floats(min_value=0.1, max_value=3.0))
            duration = draw(st.floats(min_value=0.1, max_value=3.0))
            choices = [BOTTOM] + write_values
            value = draw(st.sampled_from(choices))
            records.append(OperationRecord(reader, "read", value, start, start + duration))
            clock_r = start + duration
    return History(records)


@given(random_histories())
@settings(max_examples=150, deadline=None)
def test_atomicity_checker_agrees_with_linearizability(history):
    """The per-property SWMR checker and the exhaustive search must agree."""
    assume(not history.has_duplicate_write_values())
    swmr_ok = check_atomicity(history).ok
    linearizable = is_linearizable(history)
    assert swmr_ok == linearizable


@st.composite
def multi_writer_histories(draw):
    """Two or three writers with stamped pairs, conditionals and open writes.

    Built around a witness: operations take effect one per time unit, each
    write stamping the next timestamp, each CAS observing the pair in force,
    each read returning (and reporting) it; an operation's interval is drawn
    around its point without overlapping its client's neighbours, and a
    client's last write may be open (no completion, no stamp).  That history is
    what a correct run produces.  Then up to two mutations — a read returning
    another write's value, a write's timestamp moved, a CAS observing an older
    pair — make the interesting ones.  Returns ``(history, mutated)``.
    """
    writers = [f"w{n + 1}" for n in range(draw(st.integers(min_value=2, max_value=3)))]
    clients = writers + ["r1", "r2"]
    steps = draw(
        st.lists(st.tuples(st.sampled_from(clients), st.booleans()), min_size=1, max_size=9)
    )
    slack = st.floats(min_value=0.05, max_value=1.8)
    points = {client: [n for n, (c, _) in enumerate(steps) if c == client] for client in clients}
    records, written = [], []  # written: (value, pair) of every write, in effect order
    free_at = dict.fromkeys(clients, -10.0)
    for n, (client, conditional) in enumerate(steps):
        point = float(n)
        later = [m for m in points[client] if m > n]
        start = max(point - draw(slack), free_at[client] + 0.01)
        end = min(point + draw(slack), later[0] - 0.3) if later else point + draw(slack)
        free_at[client] = end
        current = written[-1] if written else None
        metadata = {"register_id": "k"}
        if client in writers:
            pair = (len(written) + 1, client)
            metadata.update(mwmr=True, ts=pair[0], writer_id=client)
            if conditional:
                observed_ts, observed_writer = current[1] if current else (0, None)
                metadata.update(
                    cas=True,
                    observed_ts=observed_ts,
                    observed_writer=observed_writer,
                    observed_bottom=current is None,
                )
            written.append((f"v{n}", pair))
            if not later and draw(st.booleans()):
                end, metadata = None, {"register_id": "k"}
            records.append(OperationRecord(client, "write", f"v{n}", start, end, metadata=metadata))
        else:
            if current:
                metadata.update(ts=current[1][0], writer_id=current[1][1])
            value = current[0] if current else BOTTOM
            records.append(OperationRecord(client, "read", value, start, end, metadata=metadata))

    mutated = False
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        record = draw(st.sampled_from(records))
        if record.kind == "read" and written:
            record.value, (ts, writer) = draw(st.sampled_from(written))
            record.metadata.update(ts=ts, writer_id=writer)
        elif record.metadata.get("cas") and written:
            _, (ts, writer) = draw(st.sampled_from(written))
            if (ts, writer) < (record.metadata["ts"], record.client_id):
                stale = {"observed_ts": ts, "observed_writer": writer, "observed_bottom": False}
                record.metadata.update(stale)
        elif "ts" in record.metadata:
            record.metadata["ts"] = draw(st.integers(min_value=1, max_value=len(written) + 1))
        mutated = True
    return History(records), mutated


def _a_write_overlaps_a_conditional(history):
    """The exemption conditional-isolation grants (and the strict xfail in
    ``tests/unit/test_linearizability.py`` pins): a write concurrent with a
    CAS may land between the observed pair and the CAS's own."""
    writes = history.writes()
    return any(
        other is not cas and other.concurrent_with(cas)
        for cas in writes
        if "observed_ts" in cas.metadata
        for other in writes
    )


@given(multi_writer_histories())
@settings(max_examples=300, deadline=None)
def test_what_the_sweep_accepts_is_linearizable(case):
    """Multi-writer, conditional and open-write histories: the sweep is at
    least as strict as the search (stricter where pairs contradict real time),
    and accepts everything a correct run produces."""
    history, mutated = case
    result = check_atomicity(history, mwmr=True)  # as the store does: the key's spec says so
    if not mutated:
        assert result.ok, result.violations
        assert not result.warnings
    if result.ok and not result.warnings and not _a_write_overlaps_a_conditional(history):
        assert is_linearizable(history)


def test_read_of_an_open_write_is_not_exempt_from_the_order_properties():
    """The counterexample to ``ok => linearizable`` the MWMR mirror had."""
    stamp = {"mwmr": True, "ts": 1, "writer_id": "w1"}
    history = History(
        [
            OperationRecord("w1", "write", "a", 0, 1, metadata=stamp),
            OperationRecord("w2", "write", "b", 2, None),
            OperationRecord("r1", "read", "b", 3, 4, metadata={"ts": 2, "writer_id": "w2"}),
            OperationRecord("r2", "read", "a", 5, 6, metadata={"ts": 1, "writer_id": "w1"}),
        ]
    )
    assert not is_linearizable(history)
    assert not check_atomicity(history, mwmr=True).ok
    assert not check_atomicity(history).ok


@given(random_histories())
@settings(max_examples=150, deadline=None)
def test_atomicity_implies_regularity(history):
    if check_atomicity(history).ok:
        assert check_regularity(history).ok


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=30)
def test_sequential_alternating_history_is_always_atomic(n):
    records = []
    clock = 0.0
    for index in range(n):
        records.append(OperationRecord("w", "write", f"v{index}", clock, clock + 1))
        records.append(OperationRecord("r1", "read", f"v{index}", clock + 2, clock + 3))
        clock += 4
    result = check_atomicity(History(records))
    assert result.ok
    assert is_linearizable(History(records))


@given(random_histories())
@settings(max_examples=100, deadline=None)
def test_checker_is_deterministic(history):
    first = check_atomicity(history)
    second = check_atomicity(history)
    assert first.ok == second.ok
    assert len(first.violations) == len(second.violations)


@given(random_histories(), st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=100, deadline=None)
def test_checker_invariant_under_time_translation(history, offset):
    shifted = History(
        [
            OperationRecord(
                record.client_id,
                record.kind,
                record.value,
                record.invoked_at + offset,
                None if record.completed_at is None else record.completed_at + offset,
            )
            for record in history.records
        ]
    )
    assert check_atomicity(history).ok == check_atomicity(shifted).ok
