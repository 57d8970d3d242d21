"""Failure injection: the sidecar must degrade, never crash or lie.

Sidecar datagrams cross real networks: they get corrupted, truncated,
duplicated, replayed, and misdelivered.  Because the quACK state is
cumulative, every one of these is recoverable by simply waiting for the
next snapshot -- provided the agents treat bad input as data, not as an
exception.  These tests inject each failure into a live scenario.
"""

import random

import pytest

from repro.netsim.core import Simulator
from repro.netsim.node import Host, Router
from repro.netsim.packet import Packet, PacketKind
from repro.netsim.topology import HopSpec, build_path
from repro.quack.base import DecodeStatus
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar.agents import EmitterAgent, ServerSidecar
from repro.sidecar.consumer import QuackConsumer
from repro.sidecar.frequency import PacketCountFrequency
from repro.sidecar.protocol import QuackMessage, quack_packet
from repro.transport.connection import ReceiverConnection, SenderConnection


def build_assisted(total=1460 * 80):
    sim = Simulator()
    server = Host(sim, "server")
    proxy = Router(sim, "proxy")
    client = Host(sim, "client")
    build_path(sim, [server, proxy, client],
               [HopSpec(bandwidth_bps=20e6, delay_s=0.005),
                HopSpec(bandwidth_bps=20e6, delay_s=0.005)])
    receiver = ReceiverConnection(sim, client, "server", total)
    sender = SenderConnection(sim, server, "client", total)
    tap = EmitterAgent(sim, proxy, peer="server", client="client",
                       flow_id="flow0", policy=PacketCountFrequency(4),
                       threshold=16)
    sidecar = ServerSidecar(sim, sender, threshold=16, grace=2,
                            apply_losses=False)
    return sim, server, proxy, sender, receiver, tap, sidecar


def run(sim, sender, receiver, deadline=30.0):
    while sim.now < deadline:
        sim.run(until=min(sim.now + 0.5, deadline))
        if sender.complete and receiver.complete:
            break
        if sim.peek_next_time() is None:
            break


class TestCorruptFrames:
    def inject(self, corrupt):
        """Run an assisted transfer with a proxy that mangles quACKs."""
        sim, server, proxy, sender, receiver, tap, sidecar = build_assisted()
        original_send = tap._send
        counter = [0]

        def mangling_send(snapshot):
            counter[0] += 1
            if counter[0] % 3 == 0:  # corrupt every third quACK
                from repro.quack import wire
                frame = bytearray(wire.encode(snapshot))
                corrupt(frame)
                packet = Packet(src=proxy.name, dst="server",
                                size_bytes=28 + len(frame),
                                kind=PacketKind.QUACK, flow_id="flow0",
                                payload=QuackMessage(frame=bytes(frame),
                                                     flow_id="flow0"))
                tap.quacks_sent += 1
                proxy.send(packet)
            else:
                original_send(snapshot)

        tap._send = mangling_send
        sender.start()
        run(sim, sender, receiver)
        return sender, receiver, sidecar

    def test_bitflips_in_power_sums(self):
        def flip(frame):
            frame[-1] ^= 0xFF
            frame[-5] ^= 0x10

        sender, receiver, sidecar = self.inject(flip)
        assert receiver.complete and sender.complete
        assert sidecar.stats.decode_failures > 0      # corruption noticed
        assert sender.stats.sidecar_releases > 0      # clean quacks worked

    def test_truncated_frames(self):
        def truncate(frame):
            del frame[len(frame) // 2:]

        sender, receiver, sidecar = self.inject(truncate)
        assert receiver.complete
        assert sidecar.stats.decode_failures > 0

    def test_garbage_frames(self):
        def garbage(frame):
            frame[:] = b"\xde\xad\xbe\xef" * 4

        sender, receiver, sidecar = self.inject(garbage)
        assert receiver.complete
        assert sidecar.stats.decode_failures > 0

    def test_corrupted_count_field(self):
        def poke_count(frame):
            # Count lives right after the 9-byte header+params prefix.
            frame[9] ^= 0x80

        sender, receiver, sidecar = self.inject(poke_count)
        assert receiver.complete


class TestReplayAndDuplication:
    def test_duplicated_quacks_are_harmless(self):
        """Processing the same cumulative snapshot twice must be a no-op
        the second time (everything already resolved)."""
        consumer = QuackConsumer(threshold=8, grace=1)
        theirs = PowerSumQuack(8)
        for i in range(6):
            consumer.record_send(1000 + i, i, float(i))
            theirs.insert(1000 + i)
        first = consumer.on_quack(theirs.copy(), 6.0)
        assert len(first.received) == 6
        second = consumer.on_quack(theirs.copy(), 6.5)
        assert second.ok
        assert second.received == [] and second.lost == []

    def test_stale_quack_after_progress(self):
        """A delayed (replayed) older snapshot arrives after a newer one
        was already processed: counts go 'backwards'.  The consumer must
        report rather than mis-decode."""
        consumer = QuackConsumer(threshold=8, grace=1)
        theirs = PowerSumQuack(8)
        for i in range(4):
            consumer.record_send(2000 + i, i, float(i))
            theirs.insert(2000 + i)
        stale = theirs.copy()
        for i in range(4, 8):
            consumer.record_send(2000 + i, i, float(i))
            theirs.insert(2000 + i)
        fresh = consumer.on_quack(theirs.copy(), 9.0)
        assert len(fresh.received) == 8
        replayed = consumer.on_quack(stale, 9.5)
        # All entries already resolved; the stale quACK claims 4 are
        # outstanding, which exceeds the (now empty) log.
        assert replayed.status is DecodeStatus.INCONSISTENT


class TestParameterMismatch:
    def test_mismatched_threshold_reported(self):
        consumer = QuackConsumer(threshold=8)
        alien = PowerSumQuack(16)
        feedback = consumer.on_quack(alien, 0.0)
        assert feedback.status is DecodeStatus.INCONSISTENT
        assert consumer.stats.quacks_failed == 1

    def test_mismatched_bits_reported(self):
        consumer = QuackConsumer(threshold=8, bits=32)
        alien = PowerSumQuack(8, bits=16)
        assert consumer.on_quack(alien, 0.0).status \
            is DecodeStatus.INCONSISTENT

    def test_non_quack_object_reported(self):
        consumer = QuackConsumer(threshold=8)
        assert consumer.on_quack("not a quack", 0.0).status \
            is DecodeStatus.INCONSISTENT


class TestMisdelivery:
    def test_quack_for_another_flow_ignored(self):
        sim, server, proxy, sender, receiver, tap, sidecar = build_assisted()
        # Deliver a quACK tagged with a foreign flow id straight to the
        # server host.
        foreign = PowerSumQuack(16)
        foreign.insert(12345)
        packet = quack_packet("elsewhere", "server", foreign,
                              "other-flow", 0.0)
        server.receive(packet)
        assert sidecar.stats.quacks_received == 0
        sender.start()
        run(sim, sender, receiver)
        assert receiver.complete
        assert sidecar.stats.decode_failures == 0
