"""Discovery with multiple volunteering proxies (extension X2)."""

import pytest

from repro.netsim.core import Simulator
from repro.netsim.node import Host, Router
from repro.netsim.topology import HopSpec, build_path
from repro.sidecar.discovery import (
    DiscoveringProxy,
    DiscoveringServerSidecar,
)
from repro.transport.connection import ReceiverConnection, SenderConnection


def build_two_proxy_chain(total=1460 * 60):
    """server -- proxyA -- proxyB -- client, both proxies volunteering."""
    sim = Simulator()
    server = Host(sim, "server")
    proxy_a = Router(sim, "proxyA")
    proxy_b = Router(sim, "proxyB")
    client = Host(sim, "client")
    build_path(sim, [server, proxy_a, proxy_b, client],
               [HopSpec(bandwidth_bps=20e6, delay_s=0.004)] * 3)
    receiver = ReceiverConnection(sim, client, "server", total)
    sender = SenderConnection(sim, server, "client", total)
    agent_a = DiscoveringProxy(sim, proxy_a)
    agent_b = DiscoveringProxy(sim, proxy_b)
    host_agent = DiscoveringServerSidecar(sim, sender)
    return sim, sender, receiver, agent_a, agent_b, host_agent


def run(sim, sender, receiver, deadline=30.0):
    while sim.now < deadline:
        sim.run(until=min(sim.now + 0.5, deadline))
        if sender.complete and receiver.complete:
            break
        if sim.peek_next_time() is None:
            break


class TestTwoProxies:
    @pytest.fixture(scope="class")
    def world(self):
        sim, sender, receiver, a, b, host = build_two_proxy_chain()
        sender.start()
        run(sim, sender, receiver)
        return sender, receiver, a, b, host

    def test_transfer_completes(self, world):
        _, receiver, *_ = world
        assert receiver.complete

    def test_exactly_one_proxy_accepted(self, world):
        sender, _, a, b, host = world
        accepted = [agent for agent in (a, b)
                    if agent.flows[sender.flow_id].accepted]
        assert len(accepted) == 1
        assert host.accepted_from == accepted[0].router.name

    def test_accepted_proxy_quacks_and_session_works(self, world):
        sender, _, a, b, host = world
        winner = a if a.flows[sender.flow_id].accepted else b
        assert winner.flows[sender.flow_id].agent.quacks_sent > 0
        assert host.sidecar is not None
        assert host.sidecar.stats.decode_failures == 0
        assert sender.stats.sidecar_releases > 0

    def test_loser_gave_up_offering(self, world):
        sender, _, a, b, host = world
        loser = b if a.flows[sender.flow_id].accepted else a
        flow = loser.flows[sender.flow_id]
        assert not flow.accepted
        assert flow.agent is None
        assert flow.offers_sent <= loser.max_offers
