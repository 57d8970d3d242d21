"""Sidecar discovery: how a host finds a participating proxy (extension X2).

The paper's Section 5 asks: "How does an end host discover participating
proxies, and how would a proxy interact with multipath transport
protocols?"  This module implements a minimal volunteer/consent
handshake that matches the paper's deployment philosophy ("PEPs could
volunteer their assistance to hosts, and hosts would accept that
assistance or not, without credentialing the PEP", Section 1):

1. A :class:`DiscoveringProxy` watches flows crossing its router.  For
   each new flow it sends a :class:`SidecarOffer` to the flow's *data
   sender*, naming the protocols it can speak and its quACK parameters.
   Offers are re-sent periodically (they are plain datagrams and may be
   lost) up to a retry cap.
2. A host running :class:`DiscoveringServerSidecar` answers offers for
   its flow with a :class:`SidecarAccept` choosing one protocol and the
   final parameters, then instantiates the regular
   :class:`~repro.sidecar.agents.ServerSidecar` machinery.
3. On accept, the proxy binds an
   :class:`~repro.sidecar.agents.EmitterAgent` for the flow to its
   router and starts quACKing.

Hosts that do not consent simply never answer, and the proxy stays a
plain router for that flow -- no ossification, no credentialing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.core import Simulator
from repro.netsim.node import Host, Router
from repro.netsim.packet import Packet, PacketKind
from repro.sidecar.agents import (
    DEFAULT_THRESHOLD,
    EmitterAgent,
    ServerSidecar,
)
from repro.sidecar.frequency import PacketCountFrequency
from repro.sidecar.protocol import SIDECAR_HEADER_BYTES
from repro.transport.connection import SenderConnection

#: Protocol names a proxy can offer (Table 1).
PROTOCOL_ACK_REDUCTION = "ack-reduction"
PROTOCOL_CC_DIVISION = "cc-division"
PROTOCOL_INNET_RETX = "in-network-retransmission"


@dataclass(frozen=True)
class SidecarOffer:
    """Proxy -> host: 'I can help with this flow.'"""

    proxy: str
    flow_id: str
    protocols: tuple[str, ...]
    threshold: int
    bits: int


@dataclass(frozen=True)
class SidecarAccept:
    """Host -> proxy: consent, with the negotiated configuration."""

    host: str
    flow_id: str
    protocol: str
    threshold: int
    bits: int
    quack_every: int


def _control_packet(src: str, dst: str, payload, flow_id: str,
                    now: float) -> Packet:
    return Packet(src=src, dst=dst,
                  size_bytes=SIDECAR_HEADER_BYTES + 24,
                  kind=PacketKind.CONTROL, identifier=None,
                  flow_id=flow_id, created_at=now, payload=payload)


@dataclass
class _FlowCourtship:
    """Proxy-side state for one flow being offered help."""

    data_sender: str
    data_receiver: str
    offers_sent: int = 0
    accepted: bool = False
    agent: EmitterAgent | None = None


class DiscoveringProxy:
    """A router agent that volunteers (currently) ACK-reduction service."""

    def __init__(self, sim: Simulator, router: Router,
                 threshold: int = DEFAULT_THRESHOLD, bits: int = 32,
                 offer_interval_s: float = 0.2, max_offers: int = 5,
                 protocols: tuple[str, ...] = (PROTOCOL_ACK_REDUCTION,)) -> None:
        self.sim = sim
        self.router = router
        self.threshold = threshold
        self.bits = bits
        self.offer_interval_s = offer_interval_s
        self.max_offers = max_offers
        self.protocols = protocols
        self.flows: dict[str, _FlowCourtship] = {}
        router.add_tap(self._tap)

    # -- flow tracking and offers ------------------------------------------------

    def _tap(self, packet: Packet) -> None:
        if packet.dst == self.router.name:
            if (packet.kind is PacketKind.CONTROL
                    and isinstance(packet.payload, SidecarAccept)):
                self._on_accept(packet.payload)
            return
        if packet.kind is not PacketKind.DATA or packet.identifier is None:
            return
        flow = self.flows.get(packet.flow_id)
        if flow is None:
            flow = _FlowCourtship(data_sender=packet.src,
                                  data_receiver=packet.dst)
            self.flows[packet.flow_id] = flow
            self._send_offer(packet.flow_id, flow)

    def _send_offer(self, flow_id: str, flow: _FlowCourtship) -> None:
        if flow.accepted or flow.offers_sent >= self.max_offers:
            return
        flow.offers_sent += 1
        offer = SidecarOffer(proxy=self.router.name, flow_id=flow_id,
                             protocols=self.protocols,
                             threshold=self.threshold, bits=self.bits)
        self.router.send(_control_packet(self.router.name, flow.data_sender,
                                         offer, flow_id, self.sim.now))
        self.sim.schedule(self.offer_interval_s, self._send_offer,
                          flow_id, flow)

    def _on_accept(self, accept: SidecarAccept) -> None:
        flow = self.flows.get(accept.flow_id)
        if flow is None or flow.accepted:
            return
        if accept.protocol not in self.protocols:
            return  # host asked for something we never offered
        flow.accepted = True
        # The agent's own router tap observes the flow from here on.
        flow.agent = EmitterAgent(
            self.sim, self.router, flow.data_sender, accept.flow_id,
            PacketCountFrequency(accept.quack_every),
            client=flow.data_receiver, threshold=accept.threshold,
            bits=accept.bits)


class DiscoveringServerSidecar:
    """Host-side library: answers offers, then runs the usual sidecar."""

    def __init__(self, sim: Simulator, sender: SenderConnection,
                 quack_every: int = 2, grace: int = 2,
                 accept_protocols: tuple[str, ...] = (PROTOCOL_ACK_REDUCTION,),
                 apply_losses: bool = False) -> None:
        self.sim = sim
        self.sender = sender
        self.quack_every = quack_every
        self.grace = grace
        self.accept_protocols = accept_protocols
        self.apply_losses = apply_losses
        self.accepted_from: str | None = None
        self.offers_seen = 0
        self.sidecar: ServerSidecar | None = None
        sender.host.add_handler(PacketKind.CONTROL, self._on_control)

    def _on_control(self, packet: Packet) -> None:
        offer = packet.payload
        if not isinstance(offer, SidecarOffer) \
                or offer.flow_id != self.sender.flow_id:
            return
        self.offers_seen += 1
        chosen = next((p for p in offer.protocols
                       if p in self.accept_protocols), None)
        if chosen is None:
            return  # decline by silence
        if self.accepted_from is None:
            self.accepted_from = offer.proxy
            self.sidecar = ServerSidecar(
                self.sim, self.sender, threshold=offer.threshold,
                bits=offer.bits, grace=self.grace,
                apply_losses=self.apply_losses)
        if self.accepted_from != offer.proxy:
            return  # already working with another proxy
        accept = SidecarAccept(host=self.sender.host.name,
                               flow_id=self.sender.flow_id,
                               protocol=chosen,
                               threshold=offer.threshold, bits=offer.bits,
                               quack_every=self.quack_every)
        self.sender.host.send(_control_packet(
            self.sender.host.name, offer.proxy, accept,
            self.sender.flow_id, self.sim.now))
