"""End-to-end tests of the three sidecar protocol scenarios (E7-E9).

These run the full stack -- simulator, paranoid transport, sidecar agents
-- on scaled-down transfers, asserting the *claims* the paper makes for
each protocol, with comfortable margins so seeds don't flake.
"""

import pytest

from repro.sidecar.ack_reduction import run_ack_reduction
from repro.sidecar.cc_division import run_cc_division
from repro.sidecar.retransmission import run_retransmission

TOTAL = 400_000  # keep the in-test transfers quick


class TestCcDivision:
    @pytest.fixture(scope="class")
    def results(self):
        baseline = run_cc_division(total_bytes=TOTAL, sidecar=False, seed=3)
        sidecar = run_cc_division(total_bytes=TOTAL, sidecar=True, seed=3)
        return baseline, sidecar

    def test_both_complete(self, results):
        baseline, sidecar = results
        assert baseline.completed and sidecar.completed

    def test_sidecar_improves_completion_time(self, results):
        baseline, sidecar = results
        assert sidecar.completion_time < baseline.completion_time

    def test_sidecar_improves_goodput(self, results):
        baseline, sidecar = results
        assert sidecar.goodput_bps > baseline.goodput_bps

    def test_no_decode_failures(self, results):
        _, sidecar = results
        assert sidecar.server_sidecar_failures == 0
        assert sidecar.proxy_stats.decode_failures == 0

    def test_client_actually_quacked(self, results):
        _, sidecar = results
        assert sidecar.client_quacks > 0
        assert sidecar.proxy_stats.quacks_from_client > 0

    def test_proxy_took_custody_of_all_data(self, results):
        _, sidecar = results
        stats = sidecar.proxy_stats
        assert stats.taken_custody == stats.forwarded + stats.buffer_drops \
            + 0  # everything captured was eventually forwarded or dropped

    def test_baseline_has_no_sidecar_artifacts(self, results):
        baseline, _ = results
        assert baseline.client_quacks == 0
        assert baseline.proxy_stats is None


class TestAckReduction:
    @pytest.fixture(scope="class")
    def results(self):
        dense = run_ack_reduction(total_bytes=TOTAL, ack_every=2,
                                  sidecar=False, seed=5)
        sparse = run_ack_reduction(total_bytes=TOTAL, ack_every=32,
                                   sidecar=False, seed=5)
        assisted = run_ack_reduction(total_bytes=TOTAL, ack_every=32,
                                     sidecar=True, seed=5)
        return dense, sparse, assisted

    def test_all_complete(self, results):
        assert all(r.completed for r in results)

    def test_sparse_acks_cut_client_ack_count(self, results):
        dense, sparse, assisted = results
        assert sparse.client_acks_sent < dense.client_acks_sent / 4
        assert assisted.client_acks_sent < dense.client_acks_sent / 2

    def test_naive_thinning_hurts_but_sidecar_recovers(self, results):
        dense, sparse, assisted = results
        assert sparse.completion_time > dense.completion_time
        assert assisted.completion_time < sparse.completion_time

    def test_sidecar_quacks_flowed(self, results):
        _, _, assisted = results
        assert assisted.proxy_quacks_sent > 0
        assert assisted.server_sidecar_failures == 0

    def test_quack_bandwidth_is_modest(self, results):
        dense, _, assisted = results
        # 82 B per 2 x 1500 B data packets ~ 2.7% of the transfer -- and it
        # rides the proxy->server segment, not the client's uplink.
        assert assisted.quack_bytes < TOTAL * 0.03
        # The bytes on the *client uplink* (the constrained direction the
        # protocol is relieving) shrink substantially.
        assert assisted.client_ack_bytes < dense.client_ack_bytes / 2


class TestInNetworkRetransmission:
    @pytest.fixture(scope="class")
    def results(self):
        e2e = run_retransmission(total_bytes=TOTAL, innet_retx=False,
                                 loss_rate=0.05, seed=7)
        local = run_retransmission(total_bytes=TOTAL, innet_retx=True,
                                   loss_rate=0.05, seed=7)
        tolerant = run_retransmission(total_bytes=TOTAL, innet_retx=True,
                                      loss_rate=0.05, seed=7,
                                      reorder_threshold=64)
        return e2e, local, tolerant

    def test_all_complete(self, results):
        assert all(r.completed for r in results)

    def test_proxy_repairs_losses(self, results):
        _, local, tolerant = results
        assert local.proxy_retransmissions > 0
        assert tolerant.proxy_retransmissions > 0

    def test_local_repair_with_tolerant_host_beats_e2e(self, results):
        e2e, _, tolerant = results
        assert tolerant.completion_time < e2e.completion_time
        assert tolerant.server_congestion_events < e2e.server_congestion_events

    def test_tolerant_host_avoids_most_e2e_retransmissions(self, results):
        e2e, _, tolerant = results
        assert tolerant.server_retransmissions < e2e.server_retransmissions

    def test_no_decode_failures(self, results):
        _, local, tolerant = results
        assert local.proxy_decode_failures == 0
        assert tolerant.proxy_decode_failures == 0

    def test_quacks_flowed_and_adapted(self, results):
        _, local, _ = results
        assert local.proxy_quacks > 0


class TestReleasedPacketLostDownstream:
    """Seeds where a quACK-released packet is then lost past the proxy.

    The release takes the packet out of bytes_in_flight before its fate
    is known; the sender must keep its PTO armed until the packet is
    acked or declared lost, or the transfer stalls for good.
    """

    FULL = 1_500_000

    @pytest.mark.parametrize("run", [
        lambda total: run_cc_division(total_bytes=total, sidecar=True, seed=2),
        lambda total: run_ack_reduction(total_bytes=total, ack_every=32,
                                        sidecar=True, seed=38),
    ], ids=["cc-division-seed2", "ack-reduction-seed38"])
    def test_transfer_completes_with_every_byte(self, run):
        result = run(self.FULL)
        assert result.completed
        delivered = round(result.goodput_bps * result.completion_time / 8)
        assert delivered == self.FULL
