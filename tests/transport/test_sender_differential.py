"""Differential test: the sender's indexed ACK path against a full scan.

``SenderConnection`` finds the packets an ACK newly covers by bisecting
its ``_unacked`` index, walks ``_outstanding`` for loss detection, and
picks PTO probes from ``_outstanding``.  :class:`ReferenceSender` keeps
the plain algorithms those indexes replace: every ACK range is walked
packet number by packet number through ``sent.get``, loss detection
scans ``sorted(self.sent)``, and the PTO filters all of ``sent``.

Hypothesis drives both with the same random steps -- ACK frames with
overlapping ranges (truncated to 32, as the receiver sends them), ACKs
for packets already declared lost, sidecar receipts and losses, PTO
firings, and the passage of time -- and after every step asserts that
they agree on every record's flags, the window, the stats and the
retransmit queue, and that the real sender's indexes hold exactly what
their definitions say.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.core import Simulator
from repro.netsim.packet import Packet, PacketKind
from repro.transport.connection import (
    MAX_PTO_BACKOFF,
    RETRANSMIT_CAUSES,
    SenderConnection,
    SentPacketRecord,
)
from repro.transport.frames import DEFAULT_MSS, AckFrame

MAX_ACK_RANGES = 32


class SilentHost:
    """Just enough of a Host for a sender with no network behind it."""

    name = "server"

    def add_handler(self, kind, handler):
        pass

    def send(self, packet, via=None):
        pass


class ReferenceSender(SenderConnection):
    """The sender with every ACK/loss/PTO decision made by a full scan.

    The ``_unacked``/``_outstanding`` fields the inherited ``_transmit``
    fills are never read here.
    """

    def _on_ack_packet(self, packet):
        frame = packet.protected_payload(self.key)
        self.stats.acks_received += 1
        now = self.sim.now
        newly_acked = []
        for lo, hi in frame.ranges:
            for pn in range(lo, hi + 1):
                record = self.sent.get(pn)
                if record is None or record.acked:
                    continue
                record.acked = True
                newly_acked.append(record)
        if newly_acked:
            largest = max(newly_acked, key=lambda r: r.packet_number)
            if (self._largest_acked is None
                    or largest.packet_number > self._largest_acked):
                self._largest_acked = largest.packet_number
                self.rtt.update(now - largest.time_sent, frame.delay_s)
            for record in newly_acked:
                if not record.retired:
                    record.retired = True
                    self.bytes_in_flight -= record.size_bytes
                if not record.cc_credited and self.cc_from_acks:
                    record.cc_credited = True
                    self.cc.on_ack(record.size_bytes, self.rtt.latest, now)
                self.acked_offsets.add_range(
                    record.offset, record.offset + record.length - 1)
            self._pto_backoff = 0
        if frame.ecn_ce_count > self._ce_echoed:
            self._ce_echoed = frame.ecn_ce_count
            if self.cc_from_acks:
                self._congestion_from_largest(now)
        self._detect_losses(now)
        self._check_completion()
        self._maybe_send()

    def _detect_losses(self, now):
        if self._largest_acked is None:
            return
        time_threshold = self.rtt.loss_time_threshold()
        for pn in sorted(self.sent):
            if pn >= self._largest_acked:
                break
            record = self.sent[pn]
            if record.acked or record.lost:
                continue
            reordered_out = self._largest_acked - pn >= self.reorder_threshold
            too_old = now - record.time_sent >= time_threshold
            if reordered_out or too_old:
                self._declare_lost(record, now, congestion=self.cc_from_acks,
                                   trigger="reorder" if reordered_out
                                   else "time")

    def _declare_lost(self, record, now, congestion, trigger="reorder"):
        record.lost = True
        self.stats.losses_detected += 1
        if not record.retired:
            record.retired = True
            self.bytes_in_flight -= record.size_bytes
        if not self.acked_offsets.covers_contiguously(
                record.offset, record.offset + record.length - 1):
            self._retx_queue.append(
                (record.offset, record.length,
                 RETRANSMIT_CAUSES.get(trigger, trigger),
                 now - record.time_sent, record.trace_ctx))
        if congestion:
            self.cc.on_congestion_event(record.time_sent, now)

    def _unresolved(self):
        return [r for r in self.sent.values() if not r.acked and not r.lost]

    def _arm_pto(self):
        if self.complete or not self._unresolved():
            self._pto_timer.cancel()
            return
        interval = self.rtt.pto_interval(self.max_ack_delay,
                                         min(self._pto_backoff, MAX_PTO_BACKOFF))
        self._pto_timer.rearm(interval)

    def _on_pto(self):
        if self.complete:
            return
        self.stats.pto_fired += 1
        self._pto_backoff += 1
        outstanding = sorted(self._unresolved(), key=lambda r: r.offset)
        for record in outstanding[:2]:
            self._declare_lost(record, self.sim.now, congestion=False,
                               trigger="pto")
        self._maybe_send()
        self._arm_pto()


def _flags(record: SentPacketRecord) -> tuple:
    return (record.packet_number, record.offset, record.length,
            record.time_sent, record.acked, record.lost, record.retired,
            record.cc_credited)


def _state(sender: SenderConnection) -> tuple:
    return ([_flags(r) for r in sender.sent.values()],
            sender.bytes_in_flight, sender.stats, list(sender._retx_queue),
            sender.cc.cwnd, sender.cc.ssthresh, sender._largest_acked,
            sender._pto_backoff, sender.rtt.srtt, sender.completed_at,
            sender._pto_timer.next_fire_time)


def _assert_indexes(sender: SenderConnection) -> None:
    assert sender._unacked == [pn for pn, r in sender.sent.items()
                               if not r.acked]
    assert list(sender._outstanding) == [
        pn for pn, r in sender.sent.items() if not r.acked and not r.lost]
    assert all(record is sender.sent[pn]
               for pn, record in sender._outstanding.items())


def _ack_packet(sender: SenderConnection, ranges, delay_s: float,
                ce_count: int) -> Packet:
    frame = AckFrame(largest_acked=max(hi for _, hi in ranges),
                     ranges=tuple(ranges), delay_s=delay_s,
                     ecn_ce_count=ce_count)
    return Packet.sealed(src="client", dst="server", size_bytes=40,
                         key=sender.key, payload=frame, kind=PacketKind.ACK,
                         flow_id=sender.flow_id, created_at=sender.sim.now)


STEP_KINDS = ("ack", "ack", "ack", "spurious-ack", "advance", "receipt",
              "loss", "pto")


def _draw_ranges(data, sender: SenderConnection) -> list[tuple[int, int]]:
    top = sender._next_packet_number + 1
    ranges = []
    for _ in range(data.draw(st.integers(1, 40), label="range count")):
        lo = data.draw(st.integers(0, top), label="lo")
        span = data.draw(st.integers(0, 6), label="span")
        ranges.append((lo, lo + span))
    return ranges[:MAX_ACK_RANGES]


def _draw_packet_numbers(data, sender: SenderConnection) -> list[int]:
    top = sender._next_packet_number + 1
    return data.draw(st.lists(st.integers(0, top), max_size=6),
                     label="packet numbers")


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       packets=st.integers(3, 60),
       reorder_threshold=st.sampled_from([1, 3, 8]),
       cc_from_acks=st.booleans())
def test_indexed_sender_matches_full_scan(data, packets, reorder_threshold,
                                          cc_from_acks):
    senders = [cls(Simulator(), SilentHost(), "client",
                   total_bytes=packets * DEFAULT_MSS,
                   reorder_threshold=reorder_threshold,
                   cc_from_acks=cc_from_acks)
               for cls in (SenderConnection, ReferenceSender)]
    real, reference = senders
    for sender in senders:
        sender.start()
    ce_count = 0
    for _ in range(data.draw(st.integers(1, 40), label="steps")):
        kind = data.draw(st.sampled_from(STEP_KINDS), label="step")
        if kind in ("ack", "spurious-ack"):
            ranges = _draw_ranges(data, real)
            if kind == "spurious-ack":
                lost = [pn for pn, r in real.sent.items()
                        if r.lost and not r.acked]
                if lost:
                    pn = data.draw(st.sampled_from(lost), label="lost pn")
                    ranges = [(pn, pn)] + ranges[:MAX_ACK_RANGES - 1]
            delay = data.draw(st.sampled_from([0.0, 0.001, 0.02]),
                              label="ack delay")
            ce_count += data.draw(st.sampled_from([0, 0, 1]), label="ce")
            for sender in senders:
                sender._on_ack_packet(
                    _ack_packet(sender, ranges, delay, ce_count))
        elif kind == "advance":
            dt = data.draw(st.sampled_from([0.001, 0.01, 0.05, 0.3]),
                           label="dt")
            for sender in senders:
                sender.sim.run(until=sender.sim.now + dt)
        elif kind == "receipt":
            pns = _draw_packet_numbers(data, real)
            sample = data.draw(st.sampled_from([None, 0.02]), label="rtt")
            for sender in senders:
                sender.sidecar_receipt(pns, rtt_sample=sample)
        elif kind == "loss":
            pns = _draw_packet_numbers(data, real)
            congestive = data.draw(st.booleans(), label="congestive")
            for sender in senders:
                sender.sidecar_loss(pns, congestive=congestive)
        else:
            for sender in senders:
                sender._on_pto()
        assert _state(real) == _state(reference)
        _assert_indexes(real)
