"""Tests for sidecar discovery (extension X2)."""

import random

import pytest

from repro import obs
from repro.netsim.core import Simulator
from repro.netsim.loss import BernoulliLoss, DeterministicLoss
from repro.netsim.node import Host, Router
from repro.netsim.packet import PacketKind
from repro.netsim.topology import HopSpec, build_path
from repro.sidecar.discovery import (
    PROTOCOL_ACK_REDUCTION,
    PROTOCOL_CC_DIVISION,
    DiscoveringProxy,
    DiscoveringServerSidecar,
    SidecarOffer,
)
from repro.transport.connection import ReceiverConnection, SenderConnection


def build(total=1460 * 60, loss_down=None):
    sim = Simulator()
    server = Host(sim, "server")
    proxy = Router(sim, "proxy")
    client = Host(sim, "client")
    build_path(sim, [server, proxy, client],
               [HopSpec(bandwidth_bps=20e6, delay_s=0.005,
                        loss_down=loss_down),
                HopSpec(bandwidth_bps=20e6, delay_s=0.005)])
    receiver = ReceiverConnection(sim, client, "server", total)
    sender = SenderConnection(sim, server, "client", total)
    return sim, server, proxy, client, sender, receiver


def run_to_completion(sim, sender, receiver, deadline=30.0):
    while sim.now < deadline:
        sim.run(until=min(sim.now + 0.5, deadline))
        if sender.complete and receiver.complete:
            break
        if sim.peek_next_time() is None:
            break


class TestHandshake:
    def test_offer_accept_then_quacks_flow(self):
        sim, server, proxy, client, sender, receiver = build()
        proxy_agent = DiscoveringProxy(sim, proxy)
        host_agent = DiscoveringServerSidecar(sim, sender)
        sender.start()
        run_to_completion(sim, sender, receiver)
        assert receiver.complete
        assert host_agent.accepted_from == "proxy"
        flow = proxy_agent.flows[sender.flow_id]
        assert flow.accepted
        assert flow.agent.quacks_sent > 0
        assert host_agent.sidecar is not None
        assert host_agent.sidecar.stats.quacks_received > 0
        assert host_agent.sidecar.stats.decode_failures == 0
        assert sender.stats.sidecar_releases > 0

    def test_host_without_library_stays_unassisted(self):
        sim, server, proxy, client, sender, receiver = build()
        proxy_agent = DiscoveringProxy(sim, proxy, max_offers=3)
        # The host has no discovery library: sink control packets like an
        # application that ignores unknown datagrams.
        server.add_handler(PacketKind.CONTROL, lambda p: None)
        sender.start()
        run_to_completion(sim, sender, receiver)
        assert receiver.complete
        flow = proxy_agent.flows[sender.flow_id]
        assert not flow.accepted
        assert flow.agent is None
        assert flow.offers_sent == 3  # offered, gave up

    def test_protocol_mismatch_declined_by_silence(self):
        sim, server, proxy, client, sender, receiver = build()
        proxy_agent = DiscoveringProxy(
            sim, proxy, protocols=(PROTOCOL_CC_DIVISION,), max_offers=2)
        host_agent = DiscoveringServerSidecar(
            sim, sender, accept_protocols=(PROTOCOL_ACK_REDUCTION,))
        sender.start()
        run_to_completion(sim, sender, receiver)
        assert receiver.complete
        assert host_agent.offers_seen > 0
        assert host_agent.accepted_from is None
        assert not proxy_agent.flows[sender.flow_id].accepted

    def test_lost_offers_are_retried(self):
        # Drop the first two control packets toward the server.
        sim, server, proxy, client, sender, receiver = build(
            loss_down=DeterministicLoss({0, 1}))
        proxy_agent = DiscoveringProxy(sim, proxy, offer_interval_s=0.05)
        host_agent = DiscoveringServerSidecar(sim, sender)
        sender.start()
        run_to_completion(sim, sender, receiver)
        assert receiver.complete
        flow = proxy_agent.flows[sender.flow_id]
        assert flow.offers_sent >= 2
        # Some quACKs or ACKs were also on that lossy reverse path; the
        # handshake must still have landed eventually.
        assert host_agent.accepted_from == "proxy" or flow.offers_sent >= 3

    def test_negotiated_parameters_are_used(self):
        sim, server, proxy, client, sender, receiver = build()
        proxy_agent = DiscoveringProxy(sim, proxy, threshold=12, bits=16)
        host_agent = DiscoveringServerSidecar(sim, sender, quack_every=4)
        sender.start()
        run_to_completion(sim, sender, receiver)
        flow = proxy_agent.flows[sender.flow_id]
        assert flow.accepted
        assert flow.agent.emitter.quack.threshold == 12
        assert flow.agent.emitter.quack.bits == 16
        assert flow.agent.emitter.policy.every_n == 4
        assert host_agent.sidecar.consumer.threshold == 12

    def test_duplicate_accepts_ignored(self):
        sim, server, proxy, client, sender, receiver = build()
        proxy_agent = DiscoveringProxy(sim, proxy, offer_interval_s=0.02,
                                       max_offers=5)
        host_agent = DiscoveringServerSidecar(sim, sender)
        sender.start()
        run_to_completion(sim, sender, receiver)
        # Several offers -> several accepts; exactly one sidecar instance.
        assert host_agent.offers_seen >= 1
        assert host_agent.sidecar is not None
        assert proxy_agent.flows[sender.flow_id].accepted


class TestDiscoveryTracing:
    def test_every_proxy_quack_is_traced(self):
        sim, server, proxy, client, sender, receiver = build()
        proxy_agent = DiscoveringProxy(sim, proxy)
        DiscoveringServerSidecar(sim, sender)
        sink = obs.enable()
        try:
            sender.start()
            run_to_completion(sim, sender, receiver)
            emits = [event for event in sink.events
                     if event.type == "sidecar.quack_emit"]
        finally:
            obs.disable()
            obs.reset()
        assert receiver.complete
        agent = proxy_agent.flows[sender.flow_id].agent
        assert agent.quacks_sent > 0
        assert len(emits) == agent.quacks_sent
        assert {event.fields["role"] for event in emits} == {"proxy"}
