"""Table I — every cell, and the context vocabulary it is written in."""

import pytest

from repro.p2psap.context import ChannelConfig, CommMode, ConnectionKind, Scheme
from repro.p2psap.data_channel import DataChannel
from repro.p2psap.rules import TABLE_I
from repro.simnet.kernel import Simulator
from repro.simnet.network import Network


class TestTableI:
    """The six cells of Table I, verbatim from the paper."""

    @pytest.mark.parametrize(
        "scheme,conn,mode,reliable",
        [
            (Scheme.SYNCHRONOUS, ConnectionKind.INTRA_CLUSTER, CommMode.SYNCHRONOUS, True),
            (Scheme.SYNCHRONOUS, ConnectionKind.INTER_CLUSTER, CommMode.SYNCHRONOUS, True),
            (Scheme.ASYNCHRONOUS, ConnectionKind.INTRA_CLUSTER, CommMode.ASYNCHRONOUS, True),
            (Scheme.ASYNCHRONOUS, ConnectionKind.INTER_CLUSTER, CommMode.ASYNCHRONOUS, False),
            (Scheme.HYBRID, ConnectionKind.INTRA_CLUSTER, CommMode.SYNCHRONOUS, True),
            (Scheme.HYBRID, ConnectionKind.INTER_CLUSTER, CommMode.ASYNCHRONOUS, False),
        ],
    )
    def test_cell(self, scheme, conn, mode, reliable):
        config = TABLE_I[(scheme, conn)]
        assert config.mode is mode
        assert config.reliable is reliable

    def test_htcp_on_synchronous_wan(self):
        """Section II.D: H-TCP for the high speed-latency network."""
        config = TABLE_I[(Scheme.SYNCHRONOUS, ConnectionKind.INTER_CLUSTER)]
        assert config.congestion == "htcp"

    def test_newreno_on_lan(self):
        config = TABLE_I[(Scheme.SYNCHRONOUS, ConnectionKind.INTRA_CLUSTER)]
        assert config.congestion == "newreno"

    def test_unreliable_cells_have_no_congestion_control(self):
        for scheme in (Scheme.ASYNCHRONOUS, Scheme.HYBRID):
            config = TABLE_I[(scheme, ConnectionKind.INTER_CLUSTER)]
            assert config.congestion == "none"

    def test_reliable_cells_are_ordered(self):
        """Paper: 'some reliability and order micro-protocols' -- a
        reliable cell's channel stacks reliability, which also delivers
        in sequence; an unreliable one stacks neither."""
        sim = Simulator()
        net = Network(sim)
        a = net.add_node("a")
        net.add_node("b")
        for port, config in enumerate(TABLE_I.values(), start=1):
            transport = DataChannel(sim, net, a, "b", port, config).transport
            assert transport.has_micro("reliability") is config.reliable

    def test_table_is_total(self):
        assert set(TABLE_I) == {(scheme, conn) for scheme in Scheme
                                for conn in ConnectionKind}


class TestContextValidation:
    def test_scheme_parse(self):
        assert Scheme.parse("SYNCHRONOUS") is Scheme.SYNCHRONOUS
        assert Scheme.parse(Scheme.HYBRID) is Scheme.HYBRID
        with pytest.raises(ValueError):
            Scheme.parse("bogus")

    def test_channel_config_validation(self):
        with pytest.raises(ValueError):
            ChannelConfig(mode=CommMode.SYNCHRONOUS, reliable=True,
                          congestion="bogus")

    def test_describe(self):
        c = ChannelConfig(mode=CommMode.ASYNCHRONOUS, reliable=False,
                          congestion="none")
        assert c.describe() == "async/unreliable/none"

    def test_scheme_parse_rejects_what_is_not_a_name(self):
        for value in (None, 3, "sync"):
            with pytest.raises(ValueError, match="unknown scheme"):
                Scheme.parse(value)

    def test_congestion_defaults_to_newreno(self):
        assert ChannelConfig(mode=CommMode.SYNCHRONOUS,
                             reliable=True).congestion == "newreno"

    def test_channel_config_is_a_frozen_value(self):
        """A session's config is fixed for its life: no field can be set,
        and equal configs are interchangeable as dict keys."""
        config = TABLE_I[(Scheme.HYBRID, ConnectionKind.INTER_CLUSTER)]
        with pytest.raises(AttributeError):
            config.reliable = True
        twin = ChannelConfig(mode=CommMode.ASYNCHRONOUS, reliable=False,
                             congestion="none")
        assert {config: "cell"}[twin] == "cell"

    @pytest.mark.parametrize(
        "scheme,conn,text",
        [
            (Scheme.SYNCHRONOUS, ConnectionKind.INTRA_CLUSTER, "sync/reliable/newreno"),
            (Scheme.SYNCHRONOUS, ConnectionKind.INTER_CLUSTER, "sync/reliable/htcp"),
            (Scheme.ASYNCHRONOUS, ConnectionKind.INTRA_CLUSTER, "async/reliable/newreno"),
            (Scheme.ASYNCHRONOUS, ConnectionKind.INTER_CLUSTER, "async/unreliable/none"),
            (Scheme.HYBRID, ConnectionKind.INTRA_CLUSTER, "sync/reliable/newreno"),
            (Scheme.HYBRID, ConnectionKind.INTER_CLUSTER, "async/unreliable/none"),
        ],
    )
    def test_describe_every_cell(self, scheme, conn, text):
        """The Table I audit reports cells in this form."""
        assert TABLE_I[(scheme, conn)].describe() == text
