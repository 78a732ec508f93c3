"""The upper bound (Proposition 2) made observable.

A protocol that grants fast operations beyond ``fw + fr <= t - b`` gives up the
cross-validation quorums that protect readers from malicious servers; the
forged-state adversary from run ``r5`` of the proof then makes a reader return
a value that was never written.  The same adversary is harmless against the
paper's algorithm.
"""

import pytest

from repro.bench.adversary import ForgeQueryReplyStrategy, NaiveFastProtocol
from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.core.types import TimestampValue
from repro.sim.byzantine import ForgeHighTimestampStrategy, ForgedStateStrategy
from repro.sim.cluster import SimCluster
from repro.verify.atomicity import check_atomicity
from repro.verify.linearizability import is_linearizable


def build(suite, byzantine=None):
    return SimCluster(suite, byzantine=byzantine or {})


class TestNaiveProtocolIsUnsafe:
    def test_forged_value_violates_no_creation(self):
        config = SystemConfig(t=1, b=1, fw=0, fr=0, num_readers=1)
        cluster = build(NaiveFastProtocol(config), {"s1": ForgeQueryReplyStrategy()})
        cluster.write("legit")
        cluster.run_for(5.0)
        read = cluster.read("r1")
        assert read.value == "NEVER-WRITTEN"
        result = check_atomicity(cluster.history())
        assert not result.ok
        assert result.violations[0].property_name == "no-creation"
        assert not is_linearizable(cluster.history())

    def test_naive_protocol_is_fine_without_byzantine_servers(self):
        # The naive protocol is only wrong in the Byzantine model it claims to
        # tolerate; without malicious servers the histories it produces are
        # atomic, which is exactly why the bound is easy to overlook.
        config = SystemConfig(t=1, b=1, fw=0, fr=0, num_readers=1)
        cluster = build(NaiveFastProtocol(config))
        cluster.write("legit")
        cluster.run_for(5.0)
        assert cluster.read("r1").value == "legit"
        assert check_atomicity(cluster.history()).ok


class TestPaperAlgorithmIsImmune:
    @pytest.mark.parametrize(
        "strategy",
        [
            ForgeHighTimestampStrategy(),
            ForgedStateStrategy(
                forged_pair=TimestampValue(10**6, "NEVER-WRITTEN"),
                include_w=True,
                include_vw=True,
            ),
        ],
        ids=["forge-high-timestamp", "forged-state"],
    )
    def test_same_adversary_cannot_break_the_paper_algorithm(self, strategy):
        config = SystemConfig(t=1, b=1, fw=0, fr=0, num_readers=1)
        cluster = build(LuckyAtomicProtocol(config), {"s1": strategy})
        cluster.write("legit")
        cluster.run_for(5.0)
        read = cluster.read("r1")
        assert read.value == "legit"
        assert check_atomicity(cluster.history()).ok

    def test_feasible_configurations_reject_over_eager_thresholds(self):
        from repro.core.config import ConfigurationError

        with pytest.raises(ConfigurationError):
            SystemConfig(t=1, b=1, fw=1, fr=0)
        with pytest.raises(ConfigurationError):
            SystemConfig(t=2, b=1, fw=1, fr=1)
