"""Extension X6: multipath transfers and per-path sidecars (paper §5).

"How would a proxy interact with multipath transport protocols?" --
each subflow is an ordinary paranoid connection with its own flow id and
identifier key, so each on-path proxy runs an ordinary per-subflow quACK
session.  These tests cover the multipath machinery itself and that
composition.
"""

import random

import pytest

pytestmark = pytest.mark.slow

from repro.errors import TransportError
from repro.netsim.core import Simulator
from repro.netsim.loss import BernoulliLoss
from repro.netsim.node import Host, Router
from repro.netsim.topology import HopSpec, build_parallel_paths
from repro.sidecar.agents import EmitterAgent, ServerSidecar
from repro.sidecar.frequency import PacketCountFrequency
from repro.transport.multipath import (
    MultipathTransfer,
    PathSpec,
    SharedStream,
)

TOTAL = 1_000_000


def two_path_setup(path0=(10e6, 0.02), path1=(10e6, 0.02),
                   loss1=0.0, seed=5):
    sim = Simulator()
    server, client = Host(sim, "server"), Host(sim, "client")
    p0, p1 = Router(sim, "p0"), Router(sim, "p1")
    loss_model = BernoulliLoss(loss1, random.Random(seed)) if loss1 else None
    build_parallel_paths(sim, server, client, [p0, p1], [
        (HopSpec(bandwidth_bps=path0[0], delay_s=path0[1]),
         HopSpec(bandwidth_bps=path0[0], delay_s=path0[1])),
        (HopSpec(bandwidth_bps=path1[0], delay_s=path1[1],
                 loss_up=loss_model),
         HopSpec(bandwidth_bps=path1[0], delay_s=path1[1])),
    ])
    return sim, server, client, p0, p1


def run(sim, transfer, deadline=60.0):
    transfer.start()
    while sim.now < deadline:
        sim.run(until=min(sim.now + 0.5, deadline))
        if transfer.complete and all(s.sender.complete
                                     for s in transfer.subflows):
            break
        if sim.peek_next_time() is None:
            break


class TestSharedStream:
    def test_sequential_chunks(self):
        stream = SharedStream(3500, mss=1000)
        chunks = [stream.next_chunk() for _ in range(4)]
        assert chunks == [(0, 1000), (1000, 1000), (2000, 1000), (3000, 500)]
        assert stream.next_chunk() is None
        assert stream.exhausted()

    def test_push_back_reoffers(self):
        stream = SharedStream(2000, mss=1000)
        first = stream.next_chunk()
        stream.push_back(*first)
        assert not stream.exhausted()
        assert stream.next_chunk() == first

    def test_validation(self):
        with pytest.raises(TransportError):
            SharedStream(0)


class TestMultipathTransfer:
    def test_aggregates_bandwidth(self):
        """Two 10 Mbps paths must beat one of them used alone."""
        sim, server, client, p0, p1 = two_path_setup()
        transfer = MultipathTransfer(sim, server, client, TOTAL,
                                     [PathSpec("p0", "p0"),
                                      PathSpec("p1", "p1")])
        run(sim, transfer)
        assert transfer.complete
        assert transfer.goodput_bps > 10e6  # above a single path's cap

    def test_exact_reassembly(self):
        sim, server, client, p0, p1 = two_path_setup()
        transfer = MultipathTransfer(sim, server, client, TOTAL,
                                     [PathSpec("p0", "p0"),
                                      PathSpec("p1", "p1")])
        run(sim, transfer)
        assert len(transfer.received) == TOTAL
        assert transfer.received.covers_contiguously(0, TOTAL - 1)

    def test_stream_split_is_disjoint_and_complete(self):
        sim, server, client, p0, p1 = two_path_setup()
        transfer = MultipathTransfer(sim, server, client, TOTAL,
                                     [PathSpec("p0", "p0"),
                                      PathSpec("p1", "p1")])
        run(sim, transfer)
        a, b = (sub.sender.assigned_offsets for sub in transfer.subflows)
        assert len(a) + len(b) == TOTAL
        # Disjoint: no offset assigned to both subflows.
        for lo, hi in a.ranges:
            assert not b.covers_contiguously(lo, lo)

    def test_pull_scheduling_favors_faster_path(self):
        sim, server, client, p0, p1 = two_path_setup(path0=(20e6, 0.02),
                                                     path1=(5e6, 0.02))
        transfer = MultipathTransfer(sim, server, client, TOTAL,
                                     [PathSpec("p0", "p0"),
                                      PathSpec("p1", "p1")])
        run(sim, transfer)
        split = transfer.bytes_by_subflow()
        # 20 vs 5 Mbps would be 4:1 in steady state; slow start softens
        # the skew on a 1 MB transfer, so assert a conservative margin.
        assert split["mp-0"] > 1.5 * split["mp-1"]

    def test_survives_one_lossy_path(self):
        sim, server, client, p0, p1 = two_path_setup(loss1=0.05)
        transfer = MultipathTransfer(sim, server, client, TOTAL,
                                     [PathSpec("p0", "p0"),
                                      PathSpec("p1", "p1")])
        run(sim, transfer)
        assert transfer.complete
        assert len(transfer.received) == TOTAL

    def test_single_path_degenerate(self):
        sim, server, client, p0, p1 = two_path_setup()
        transfer = MultipathTransfer(sim, server, client, 200_000,
                                     [PathSpec("p0", "p0")])
        run(sim, transfer)
        assert transfer.complete

    def test_needs_at_least_one_path(self):
        sim, server, client, p0, p1 = two_path_setup()
        with pytest.raises(TransportError):
            MultipathTransfer(sim, server, client, 1000, [])


class TestPerPathSidecars:
    def test_each_proxy_quacks_its_own_subflow(self):
        """The §5 answer in running code: one quACK session per path."""
        sim, server, client, p0, p1 = two_path_setup(loss1=0.02)
        transfer = MultipathTransfer(sim, server, client, TOTAL,
                                     [PathSpec("p0", "p0"),
                                      PathSpec("p1", "p1")])
        taps = []
        sidecars = []
        for proxy, subflow in zip((p0, p1), transfer.subflows):
            taps.append(EmitterAgent(
                sim, proxy, peer="server", client="client",
                flow_id=subflow.flow_id,
                policy=PacketCountFrequency(4), threshold=16))
            sidecars.append(ServerSidecar(
                sim, subflow.sender, threshold=16, grace=2,
                apply_losses=False))
        run(sim, transfer)
        assert transfer.complete
        for tap, sidecar, subflow in zip(taps, sidecars, transfer.subflows):
            assert tap.quacks_sent > 0
            assert sidecar.stats.decode_failures == 0
            assert subflow.sender.stats.sidecar_releases > 0
            # Each tap saw only its own subflow's packets.
            assert tap.emitter.stats.observed <= \
                subflow.sender.stats.packets_sent
