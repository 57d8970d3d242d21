"""Tests for sidecar wire messages and the host/proxy agents."""

import pytest

from repro import obs
from repro.ids import IdentifierFactory
from repro.netsim.core import Simulator
from repro.netsim.node import Host, Router
from repro.netsim.packet import Packet, PacketKind
from repro.netsim.topology import HopSpec, build_path
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar.agents import EmitterAgent, ServerSidecar
from repro.sidecar.frequency import IntervalFrequency, PacketCountFrequency
from repro.sidecar.protocol import (
    ConfigMessage,
    QuackMessage,
    ResetMessage,
    config_packet,
    control_packet,
    quack_packet,
)
from repro.transport.connection import ReceiverConnection, SenderConnection


class TestProtocolMessages:
    def test_quack_packet_roundtrip(self):
        quack = PowerSumQuack(threshold=4)
        quack.insert_many([7, 8, 9])
        packet = quack_packet("client", "proxy", quack, "flow0", now=1.5)
        assert packet.kind is PacketKind.QUACK
        assert packet.src == "client" and packet.dst == "proxy"
        assert packet.identifier is None
        message = packet.payload
        assert isinstance(message, QuackMessage)
        assert message.quack() == quack

    def test_quack_packet_size_tracks_payload(self):
        small = PowerSumQuack(threshold=4)
        large = PowerSumQuack(threshold=40)
        p_small = quack_packet("a", "b", small, "f", 0.0)
        p_large = quack_packet("a", "b", large, "f", 0.0)
        assert p_large.size_bytes - p_small.size_bytes == 36 * 4

    def test_quack_packet_without_count(self):
        quack = PowerSumQuack(threshold=4)
        quack.insert_many([1, 2, 3])
        packet = quack_packet("a", "b", quack, "f", 0.0, include_count=False)
        message = packet.payload
        assert message.quack(implicit_count=3) == quack

    def test_quack_message_rejects_non_power_sum(self):
        from repro.quack import wire
        from repro.quack.strawman import EchoQuack
        message = QuackMessage(frame=wire.encode(EchoQuack()), flow_id="f")
        with pytest.raises(TypeError):
            message.quack()

    def test_config_packet(self):
        message = ConfigMessage(flow_id="f", every_n=64)
        packet = config_packet("p1", "p2", message, now=2.0)
        assert packet.kind is PacketKind.CONTROL
        assert packet.payload.every_n == 64


def build_scenario(total_bytes=1460 * 40):
    sim = Simulator()
    server = Host(sim, "server")
    proxy = Router(sim, "proxy")
    client = Host(sim, "client")
    build_path(sim, [server, proxy, client],
               [HopSpec(bandwidth_bps=20e6, delay_s=0.005),
                HopSpec(bandwidth_bps=20e6, delay_s=0.005)])
    receiver = ReceiverConnection(sim, client, "server", total_bytes)
    sender = SenderConnection(sim, server, "client", total_bytes)
    return sim, server, proxy, client, sender, receiver


class TestEmitterAgentOnHost:
    def test_emits_quacks_toward_peer(self):
        sim, server, proxy, client, sender, receiver = build_scenario()
        agent = EmitterAgent(sim, client, peer="proxy", flow_id="flow0",
                             policy=PacketCountFrequency(8), threshold=8)
        seen = []
        proxy.add_tap(lambda p: seen.append(p)
                      if p.kind is PacketKind.QUACK else None)
        sender.start()
        sim.run(until=10)
        assert receiver.complete
        assert agent.quacks_sent >= 4
        assert len(seen) == agent.quacks_sent

    def test_interval_timer_flushes_partial_batches(self):
        sim, server, proxy, client, sender, receiver = build_scenario(
            total_bytes=1460 * 3)
        agent = EmitterAgent(sim, client, peer="proxy", flow_id="flow0",
                             policy=IntervalFrequency(0.020), threshold=8)
        sender.start()
        sim.run(until=1.0)
        assert receiver.complete
        # 3 packets never hit a packet-count trigger; the timer must fire.
        assert agent.quacks_sent >= 1

    def test_ignores_other_flows(self):
        sim, server, proxy, client, sender, receiver = build_scenario()
        agent = EmitterAgent(sim, client, peer="proxy",
                             flow_id="other-flow",
                             policy=PacketCountFrequency(1))
        sender.start()
        sim.run(until=5)
        assert agent.quacks_sent == 0


class TestServerSidecar:
    def test_receipts_credit_the_window(self):
        sim, server, proxy, client, sender, receiver = build_scenario()
        tap = EmitterAgent(sim, proxy, peer="server", client="client",
                           flow_id="flow0",
                           policy=PacketCountFrequency(2), threshold=8)
        sidecar = ServerSidecar(sim, sender, threshold=8, grace=2)
        sender.start()
        sim.run(until=10)
        assert receiver.complete
        assert sidecar.stats.quacks_received > 0
        assert sidecar.stats.decode_failures == 0
        assert sender.stats.sidecar_releases > 0

    def test_consumer_log_drains(self):
        sim, server, proxy, client, sender, receiver = build_scenario()
        EmitterAgent(sim, proxy, peer="server", client="client",
                     flow_id="flow0", policy=PacketCountFrequency(2),
                     threshold=8)
        sidecar = ServerSidecar(sim, sender, threshold=8, grace=2)
        sender.start()
        sim.run(until=10)
        # Everything was delivered and quACKed; nearly nothing outstanding
        # (at most the final sub-batch that never triggered a quACK).
        assert sidecar.consumer.outstanding <= 2


class TestEmitterAgentOnRouter:
    def test_only_data_toward_client_counts(self):
        sim, server, proxy, client, sender, receiver = build_scenario()
        tap = EmitterAgent(sim, proxy, peer="server", client="client",
                           flow_id="flow0",
                           policy=PacketCountFrequency(2), threshold=8)
        # No sidecar library on the server in this test: sink its quACKs.
        server.add_handler(PacketKind.QUACK, lambda p: None)
        sender.start()
        sim.run(until=10)
        assert receiver.complete
        # ACKs flowed through the proxy too, but only DATA was observed.
        assert tap.emitter.stats.observed == receiver.stats.packets_received

    def test_router_placement_needs_the_client(self):
        sim, server, proxy, client, sender, receiver = build_scenario()
        with pytest.raises(ValueError):
            EmitterAgent(sim, proxy, "server", "flow0",
                         PacketCountFrequency(2))


def drive_emitter(on_router, policy):
    """Feed a fixed identifier stream, with a reset midway, through an
    emitter agent bound to a router or to a host.

    Returns the agent, the quACK messages its peer received, and the
    ``sidecar.quack_emit`` events it traced.
    """
    sim = Simulator()
    server = Host(sim, "server")
    client = Host(sim, "client")
    if on_router:
        node = Router(sim, "proxy")
        build_path(sim, [server, node, client], [HopSpec(), HopSpec()])
        client.add_handler(PacketKind.DATA, lambda p: None)
    else:
        node = client
        build_path(sim, [server, client], [HopSpec()])
    agent = EmitterAgent(sim, node, "server", "flow0", policy,
                         client="client", threshold=8)
    messages = []
    server.add_handler(PacketKind.QUACK,
                       lambda p: messages.append(p.payload))
    factory = IdentifierFactory(b"parity")
    for i in range(24):
        packet = Packet(src="server", dst="client", size_bytes=1000,
                        kind=PacketKind.DATA,
                        identifier=factory.identifier(i), flow_id="flow0")
        sim.schedule(0.001 * (i + 1), node.receive, packet)
    reset = control_packet("server", node.name,
                           ResetMessage(flow_id="flow0", epoch=1), 0.0)
    sim.schedule(0.0125, node.receive, reset)
    sink = obs.enable()
    try:
        sim.run(until=0.1)
        events = [event.to_dict() for event in sink.events
                  if event.type == "sidecar.quack_emit"]
    finally:
        obs.disable()
        obs.reset()
    return agent, messages, events


@pytest.mark.parametrize("make_policy", [
    lambda: PacketCountFrequency(4),
    lambda: IntervalFrequency(0.005),
], ids=["packet-count", "interval"])
def test_host_and_router_placements_emit_identically(make_policy):
    host, host_messages, host_events = drive_emitter(False, make_policy())
    proxy, proxy_messages, proxy_events = drive_emitter(True, make_policy())
    assert (host.role, proxy.role) == ("host", "proxy")
    # Byte-identical quACK frames, under the same epochs.
    assert len(host_messages) >= 4
    assert [(m.frame, m.epoch) for m in host_messages] == \
        [(m.frame, m.epoch) for m in proxy_messages]
    # The reset moved the epoch the same way on both placements.
    assert {m.epoch for m in host_messages} == {0, 1}
    assert (host.epoch, host.resets_applied) == (1, 1)
    assert (proxy.epoch, proxy.resets_applied) == (1, 1)
    # Identical trace events apart from the role label.
    assert len(host_events) == len(host_messages)
    assert {e.pop("role") for e in host_events} == {"host"}
    assert {e.pop("role") for e in proxy_events} == {"proxy"}
    assert host_events == proxy_events


class TestForgedRetune:
    """A ConfigMessage comes off the network: only a loss-adaptive
    cadence may be retuned by it, every other policy ignores it."""

    @pytest.mark.parametrize("on_router", [True, False],
                             ids=["router-packet-count", "host-interval"])
    def test_forged_config_leaves_cadence_alone(self, on_router):
        sim, server, proxy, client, sender, receiver = build_scenario()
        seen = []
        if on_router:
            policy = PacketCountFrequency(4)
            agent = EmitterAgent(sim, proxy, "server", "flow0", policy,
                                 client="client")
            proxy.add_tap(seen.append)
        else:
            policy = IntervalFrequency(0.020)
            agent = EmitterAgent(sim, client, "proxy", "flow0", policy)
            client.add_handler(PacketKind.CONTROL, seen.append)
        cadence = dict(vars(policy))
        forged = ConfigMessage(flow_id="flow0", every_n=3)
        server.send(config_packet("server", agent.node.name, forged, 0.0))
        sim.run(until=0.5)
        assert len(seen) == 1  # the forged message did reach the agent
        assert vars(policy) == cadence
        assert agent.retunes_applied == 0
