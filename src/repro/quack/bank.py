"""A vectorized bank of quACKs for proxies serving many flows.

The paper's Section 5 asks "How do we further optimize the algorithm and
implementation of the quACK towards nearly-zero overhead quACKing?"  A
proxy on a busy link maintains one accumulator per flow; updating them
one Python call at a time costs ~t multiplications of interpreter
overhead per packet.  :class:`QuackBank` keeps *all* flows' power sums
in one ``(flows, t)`` numpy matrix and folds in batches of (flow, id)
observations with O(t) vectorized passes over the whole batch --
amortizing the interpreter overhead across flows and packets.

Semantics are identical to per-flow
:class:`~repro.quack.power_sum.PowerSumQuack` instances (property-tested
in ``tests/quack/test_bank.py``); snapshots inter-operate with the
normal decoder and wire format.  Requires a vectorizable modulus
(``bits <= 32``).  The multi-tenant flow table
(:mod:`repro.sidecar.flowtable`) keeps every admitted flow as one row.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.arith.field import field_for_bits
from repro.errors import ArithmeticDomainError
from repro.quack.power_sum import DEFAULT_COUNT_BITS, PowerSumQuack


class QuackBank:
    """Power-sum accumulators for many flows, updated in batch."""

    def __init__(self, num_flows: int, threshold: int, bits: int = 32,
                 count_bits: int = DEFAULT_COUNT_BITS) -> None:
        if num_flows < 1:
            raise ArithmeticDomainError(f"need >= 1 flow, got {num_flows}")
        if threshold < 1:
            raise ArithmeticDomainError(f"threshold must be >= 1, got {threshold}")
        if bits > 32:
            raise ArithmeticDomainError(
                "QuackBank requires a vectorizable modulus (bits <= 32); "
                "use per-flow PowerSumQuack for 64-bit identifiers"
            )
        self.field = field_for_bits(bits)
        self.num_flows = num_flows
        self.threshold = threshold
        self.bits = bits
        self.count_bits = count_bits
        self._sums = np.zeros((num_flows, threshold), dtype=np.uint64)
        self._counts = np.zeros(num_flows, dtype=np.uint64)

    # -- updates -----------------------------------------------------------

    def observe(self, flow: int, identifier: int) -> None:
        """Fold a single observation (the unbatched path).

        A direct scalar update: the batched path costs two 1-element
        array allocations plus ``t`` vectorized passes of setup per
        call, which at batch size one is all overhead.  Plain Python
        ints over the flow's row are an order of magnitude cheaper per
        packet (``benchmarks/test_quack_bank.py``); the two paths are pinned
        to each other by a differential test in
        ``tests/quack/test_bank.py``.
        """
        if flow < 0 or flow >= self.num_flows:
            raise ArithmeticDomainError(
                f"flow index out of range [0, {self.num_flows})")
        p = self.field.modulus
        x = int(identifier) % p
        power = x
        row = self._sums[flow]
        for k in range(self.threshold):
            row[k] = (int(row[k]) + power) % p
            power = (power * x) % p
        self._counts[flow] = (int(self._counts[flow]) + 1) \
            & ((1 << self.count_bits) - 1)

    def observe_batch(self, flows: Sequence[int] | np.ndarray,
                      identifiers: Sequence[int] | np.ndarray) -> None:
        """Fold a batch of (flow, identifier) observations.

        Cost grows with the batch, not the bank: the batch is grouped by
        flow (duplicates included), each group's ``t`` power sums are
        reduced in one pass, and only the touched rows are read, added
        and reduced mod ``p``.
        """
        flow_idx = np.asarray(flows, dtype=np.int64)
        ids = np.asarray(identifiers, dtype=np.uint64)
        if flow_idx.shape != ids.shape:
            raise ArithmeticDomainError(
                f"flows {flow_idx.shape} and identifiers {ids.shape} differ")
        if flow_idx.size == 0:
            return
        if flow_idx.min() < 0 or flow_idx.max() >= self.num_flows:
            raise ArithmeticDomainError(
                f"flow index out of range [0, {self.num_flows})")
        order = np.argsort(flow_idx, kind="stable")
        flow_idx = flow_idx[order]
        p = np.uint64(self.field.modulus)
        x = ids[order] % p
        # Each power is < p < 2**32, so products fit in uint64 and a
        # group sum overflows only past ~2**32 same-flow entries.
        powers = np.empty((x.size, self.threshold), dtype=np.uint64)
        powers[:, 0] = x
        for k in range(1, self.threshold):
            powers[:, k] = powers[:, k - 1] * x % p
        starts = np.flatnonzero(np.concatenate(
            ([True], flow_idx[1:] != flow_idx[:-1])))
        touched = flow_idx[starts]
        self._sums[touched] = (self._sums[touched]
                               + np.add.reduceat(powers, starts, axis=0)) % p
        per_flow = np.diff(np.append(starts, x.size)).astype(np.uint64)
        mask = np.uint64((1 << self.count_bits) - 1)
        self._counts[touched] = (self._counts[touched] + per_flow) & mask

    def resize(self, num_flows: int, threshold: int | None = None) -> None:
        """Change the row count (and optionally widen to ``threshold``
        power sums); surviving rows keep their state, new cells are 0."""
        threshold = self.threshold if threshold is None else threshold
        if num_flows < 1 or threshold < self.threshold:
            raise ArithmeticDomainError(
                f"cannot resize {self!r} to {num_flows} flows, t={threshold}")
        keep = min(num_flows, self.num_flows)
        sums = np.zeros((num_flows, threshold), dtype=np.uint64)
        sums[:keep, :self.threshold] = self._sums[:keep]
        counts = np.zeros(num_flows, dtype=np.uint64)
        counts[:keep] = self._counts[:keep]
        self._sums, self._counts = sums, counts
        self.num_flows, self.threshold = num_flows, threshold

    # -- reads -----------------------------------------------------------------

    def count(self, flow: int) -> int:
        return int(self._counts[flow])

    def power_sums(self, flow: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self._sums[flow])

    def snapshot(self, flow: int, threshold: int | None = None
                 ) -> PowerSumQuack:
        """Materialize one flow's state as a normal PowerSumQuack.

        ``threshold`` (at most the bank's) keeps only the lowest power
        sums, for a flow whose quACK is narrower than the bank.
        """
        threshold = self.threshold if threshold is None else threshold
        if threshold > self.threshold:
            raise ArithmeticDomainError(
                f"t={threshold} is wider than {self!r}")
        quack = PowerSumQuack(threshold, self.bits, self.count_bits,
                              field=self.field)
        quack._sums = self._sums[flow, :quack.threshold].tolist()
        quack._count = int(self._counts[flow])
        return quack

    def load(self, flow: int, quack: PowerSumQuack) -> None:
        """Overwrite one flow's row with ``quack``'s state (a restore);
        power sums beyond ``quack``'s threshold are zeroed."""
        if (quack.field != self.field or quack.count_bits != self.count_bits
                or quack.threshold > self.threshold):
            raise ArithmeticDomainError(
                f"cannot load a t={quack.threshold}, p={quack.field.modulus} "
                f"quACK into {self!r}")
        self._sums[flow, :] = 0
        self._sums[flow, :quack.threshold] = quack.power_sums
        self._counts[flow] = quack.count

    def reset_flow(self, flow: int) -> None:
        """Restart one flow's accumulator (the epoch-reset hook)."""
        self._sums[flow, :] = 0
        self._counts[flow] = 0

    def __len__(self) -> int:
        return self.num_flows

    def __repr__(self) -> str:
        return (f"QuackBank({self.num_flows} flows, t={self.threshold}, "
                f"b={self.bits})")
