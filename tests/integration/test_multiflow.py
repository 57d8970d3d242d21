"""Extension X5: multiple flows sharing a bottleneck.

Two transfers between the same pair of hosts (distinct flow ids) share
every link.  Checks that the transport multiplexes correctly (no
cross-flow interference bugs) and that congestion control shares the
bottleneck roughly fairly; then verifies the sidecar keeps per-flow
state separate when only one flow is assisted.
"""

import pytest

pytestmark = pytest.mark.slow

from repro.netsim.core import Simulator
from repro.netsim.node import Host, Router
from repro.netsim.topology import HopSpec, build_path
from repro.sidecar.agents import EmitterAgent, ServerSidecar
from repro.sidecar.frequency import PacketCountFrequency
from repro.transport.connection import ReceiverConnection, SenderConnection


def build_two_flows(total=600_000, assisted_flows=()):
    sim = Simulator()
    server = Host(sim, "server")
    proxy = Router(sim, "proxy")
    client = Host(sim, "client")
    build_path(sim, [server, proxy, client],
               [HopSpec(bandwidth_bps=40e6, delay_s=0.01),
                HopSpec(bandwidth_bps=10e6, delay_s=0.01,
                        queue_packets=128)])
    flows = {}
    for flow_id in ("flow-a", "flow-b"):
        key = flow_id.encode()
        receiver = ReceiverConnection(sim, client, "server", total,
                                      key=key, flow_id=flow_id)
        sender = SenderConnection(sim, server, "client", total,
                                  key=key, flow_id=flow_id)
        sidecar = None
        if flow_id in assisted_flows:
            EmitterAgent(sim, proxy, peer="server", client="client",
                         flow_id=flow_id,
                         policy=PacketCountFrequency(2), threshold=16)
            sidecar = ServerSidecar(sim, sender, threshold=16, grace=2,
                                    apply_losses=False)
        flows[flow_id] = (sender, receiver, sidecar)
    return sim, flows


def run_all(sim, flows, deadline=60.0):
    while sim.now < deadline:
        sim.run(until=min(sim.now + 0.5, deadline))
        if all(s.complete and r.complete for s, r, _ in flows.values()):
            break
        if sim.peek_next_time() is None:
            break


class TestTwoPlainFlows:
    @pytest.fixture(scope="class")
    def flows(self):
        sim, flows = build_two_flows()
        for sender, _, _ in flows.values():
            sender.start()
        run_all(sim, flows)
        return flows

    def test_both_complete_exactly(self, flows):
        for sender, receiver, _ in flows.values():
            assert sender.complete and receiver.complete
            assert receiver.stats.bytes_received == 600_000

    def test_no_cross_flow_leakage(self, flows):
        # Each receiver only counted its own packets.
        (sa, ra, _), (sb, rb, _) = flows.values()
        assert ra.stats.packets_received <= sa.stats.packets_sent
        assert rb.stats.packets_received <= sb.stats.packets_sent

    def test_rough_fairness(self, flows):
        goodputs = [r.monitor.goodput_bps(r.completed_at)
                    for _, r, _ in flows.values()]
        assert max(goodputs) < 3 * min(goodputs)

    def test_bottleneck_respected(self, flows):
        finish = max(r.completed_at for _, r, _ in flows.values())
        aggregate = 2 * 600_000 * 8 / finish
        assert aggregate <= 10e6 * 1.05  # never above the bottleneck


class TestSelectiveAssistance:
    def test_sidecar_state_is_per_flow(self):
        sim, flows = build_two_flows(assisted_flows=("flow-a",))
        for sender, _, _ in flows.values():
            sender.start()
        run_all(sim, flows)
        (sa, ra, sca), (sb, rb, scb) = flows.values()
        assert ra.complete and rb.complete
        assert sca is not None and scb is None
        assert sca.stats.quacks_received > 0
        assert sca.stats.decode_failures == 0
        # The unassisted flow saw no sidecar activity at all.
        assert sb.stats.sidecar_releases == 0
        assert sa.stats.sidecar_releases > 0
