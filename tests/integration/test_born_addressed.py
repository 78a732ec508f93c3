"""Every register automaton is born addressed, on both runtimes.

The register routers return an inner automaton's effects untouched, so what
leaves a router must already name its register: every send's message carries
it, every timer id (armed or cancelled) starts with ``<register>::`` and every
completion's metadata names it.  One store holds a key of each of the five
legal :class:`~repro.store.sharding.RegisterSpec` values; a write and a read
on each, with and without a Byzantine server whose strategy addresses nothing
itself, must show only addressed effects.
"""

import asyncio
from dataclasses import dataclass

import pytest

from repro.core.automaton import Effects
from repro.core.config import SystemConfig
from repro.core.messages import Read, ReadAck
from repro.core.protocol import LuckyAtomicProtocol
from repro.core.types import TimestampValue
from repro.runtime.cluster import ShardedAsyncCluster
from repro.sim.byzantine import ByzantineStrategy
from repro.store.sharding import RegisterSpec
from repro.store.sim import ShardedSimStore

CONFIG = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)

#: One key per legal spec: plain, mwmr, leases, mwmr + writer leases, all three.
SPECS = {
    "plain": RegisterSpec(),
    "multi": RegisterSpec(mwmr=True),
    "leased": RegisterSpec(leases=True),
    "wleased": RegisterSpec(mwmr=True, writer_leases=True),
    "both": RegisterSpec(mwmr=True, leases=True, writer_leases=True),
}
CAPABILITIES = {
    capability: [key for key, spec in SPECS.items() if getattr(spec, capability)]
    for capability in ("mwmr", "leases", "writer_leases")
}


@dataclass
class UnaddressedForgery(ByzantineStrategy):
    """Answers READs with a forged pair and leaves the register unset: the
    strategy is adversarial code, so ``MaliciousServer`` addresses it."""

    name = "unaddressed-forgery"

    def respond(self, inner, message):
        if not isinstance(message, Read):
            return None
        forged = TimestampValue(10**9, "FORGED")
        effects = Effects()
        effects.send(
            message.sender,
            ReadAck(
                sender=inner.process_id,
                read_ts=message.read_ts,
                round=message.round,
                pw=forged,
                w=forged,
                vw=forged,
            ),
        )
        return effects


BYZANTINE = {"honest": None, "byzantine": {"s1": UnaddressedForgery}}


class RouterTap:
    """Records, per register, what every router of a store returns."""

    def __init__(self):
        self.steps = []  # (process id, register id, effects)

    def attach(self, router):
        def tapped(method, register_of):
            def call(*args):
                effects = method(*args)
                self.steps.append((router.process_id, register_of(*args), effects))
                return effects

            return call

        router.handle_message = tapped(router.handle_message, lambda m: m.register_id)
        router.on_timer = tapped(router.on_timer, lambda t: t.partition("::")[0])
        for verb in ("write", "read"):
            if hasattr(router, verb):  # clients only
                setattr(router, verb, tapped(getattr(router, verb), lambda key, *_: key))

    def completions(self, process_id=None):
        return [
            completion
            for pid, _, effects in self.steps
            if process_id in (None, pid)
            for completion in effects.completions
        ]

    def assert_born_addressed(self):
        seen = {key: {"sends": 0, "timers": 0, "completions": 0} for key in SPECS}
        for process_id, register_id, effects in self.steps:
            where = f"{process_id} on {register_id!r}"
            for send in effects.sends:
                assert send.message.register_id == register_id, (where, send)
            for timer_id in [timer.timer_id for timer in effects.timers] + effects.cancels:
                assert timer_id.startswith(f"{register_id}::"), (where, timer_id)
            for completion in effects.completions:
                assert completion.metadata["register_id"] == register_id, (where, completion)
            if register_id in seen:
                seen[register_id]["sends"] += len(effects.sends)
                seen[register_id]["timers"] += len(effects.timers)
                seen[register_id]["completions"] += len(effects.completions)
        for key, counts in seen.items():
            assert counts["sends"] and counts["timers"], (key, counts)
            assert counts["completions"] == 2, (key, counts)  # the write and the read


def _routers_of_sim(store):
    return [host.automaton for host in store.hosts.values()]


def _routers_of_asyncio(store):
    nodes = (*store.server_nodes.values(), *store.client_nodes.values())
    return [node.host.automaton for node in nodes]


@pytest.mark.parametrize("byzantine", sorted(BYZANTINE))
def test_the_simulator_routes_only_addressed_effects(byzantine):
    store = ShardedSimStore(
        LuckyAtomicProtocol(CONFIG),
        list(SPECS),
        byzantine=BYZANTINE[byzantine],
        **CAPABILITIES,
    )
    tap = RouterTap()
    for router in _routers_of_sim(store):
        tap.attach(router)
    for key in SPECS:
        store.write(key, f"{key}-v")
        assert store.read(key, "r1").value == f"{key}-v"
    tap.assert_born_addressed()
    assert store.verify_atomic()


@pytest.mark.parametrize("byzantine", sorted(BYZANTINE))
def test_asyncio_routes_only_addressed_effects(byzantine):
    tap = RouterTap()

    async def main():
        async with ShardedAsyncCluster(
            LuckyAtomicProtocol(CONFIG),
            list(SPECS),
            byzantine=BYZANTINE[byzantine],
            timer_delay=100.0,
            **CAPABILITIES,
        ) as store:
            for router in _routers_of_asyncio(store):
                tap.attach(router)
            for key in SPECS:
                await store.write(key, f"{key}-v")
                assert (await store.read(key, "r1")).value == f"{key}-v"
            return store.verify_atomic()

    assert asyncio.run(main())
    tap.assert_born_addressed()


def test_no_two_completions_of_a_client_share_a_metadata_dict():
    """The asyncio client node writes ``latency_s`` into the completion's own
    metadata; that is only sound if no automaton hands out one dict twice —
    not a leased read served from the cache, not a completion a multi-writer
    client forwards from one of its roles."""
    tap = RouterTap()

    async def main():
        async with ShardedAsyncCluster(
            LuckyAtomicProtocol(CONFIG), list(SPECS), timer_delay=100.0, **CAPABILITIES
        ) as store:
            for router in _routers_of_asyncio(store):
                tap.attach(router)
            for key in SPECS:
                await store.write(key, f"{key}-v", client_id="w")
                for _ in range(3):  # leased keys: zero-round reads after the first
                    await store.read(key, "r1")
                if SPECS[key].mwmr:
                    await store.write(key, f"{key}-r1", client_id="r1")

    asyncio.run(main())
    for client_id in ("w", "r1"):
        completions = tap.completions(client_id)
        assert len({id(completion.metadata) for completion in completions}) == len(completions)
        assert all("latency_s" in completion.metadata for completion in completions)
    leased = [c for c in tap.completions("r1") if c.metadata.get("lease")]
    assert len(leased) >= 4  # the zero-round reads were among them
