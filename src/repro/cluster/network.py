"""Two-level Hockney communication model and collective cost formulas.

Message time is ``alpha + beta * nbytes`` with distinct (alpha, beta)
pairs for intra-node (shared memory) and inter-node (interconnect)
transfers.  Collectives use the standard algorithm costs (binomial-tree
broadcast, recursive-doubling allreduce/allgather), which is what MPI
implementations select for the small-to-medium messages CG produces
(8-byte dot products, kilobyte halo exchanges).

These formulas are the simulated counterpart of the communication time the
paper measures on its cluster and models after Xu & Hwang [40].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster.topology import ProcessBinding


@dataclass(frozen=True)
class LinkParams:
    """Hockney parameters of one fabric level."""

    latency_s: float
    bandwidth_gbps: float  # gigabytes per second

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency must be non-negative")
        if self.bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")

    @property
    def beta_s_per_byte(self) -> float:
        return 1.0 / (self.bandwidth_gbps * 1e9)

    def message_time(self, nbytes: float) -> float:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.latency_s + nbytes * self.beta_s_per_byte


@dataclass(frozen=True)
class NetworkModel:
    """Two-level network: shared memory inside a node, interconnect across.

    Defaults approximate a 2015-era FDR InfiniBand cluster like the
    paper's: ~1.5 us MPI latency and ~6 GB/s per link inter-node, ~0.4 us
    and ~12 GB/s intra-node.
    """

    inter: LinkParams = LinkParams(latency_s=1.5e-6, bandwidth_gbps=6.0)
    intra: LinkParams = LinkParams(latency_s=0.4e-6, bandwidth_gbps=12.0)

    def p2p_time(self, nbytes: float, *, same_node: bool) -> float:
        """Point-to-point message time."""
        link = self.intra if same_node else self.inter
        return link.message_time(nbytes)


@dataclass(frozen=True)
class CollectiveCosts:
    """Collective operation costs over ``nranks`` ranks.

    When a :class:`ProcessBinding` spans several nodes the inter-node link
    parameters dominate, so collectives conservatively use the slower
    level as soon as more than one node participates.
    """

    network: NetworkModel
    binding: ProcessBinding

    def _level(self) -> LinkParams:
        return (
            self.network.intra
            if self.binding.nodes_used <= 1
            else self.network.inter
        )

    def _rounds(self) -> int:
        return max(1, math.ceil(math.log2(max(2, self.binding.nranks)))) if self.binding.nranks > 1 else 0

    def barrier(self) -> float:
        """Dissemination barrier: ``ceil(log2 p)`` zero-payload rounds."""
        if self.binding.nranks == 1:
            return 0.0
        return self._rounds() * self._level().latency_s

    def bcast(self, nbytes: float) -> float:
        """Binomial-tree broadcast of ``nbytes`` from one root."""
        if self.binding.nranks == 1:
            return 0.0
        return self._rounds() * self._level().message_time(nbytes)

    def reduce(self, nbytes: float) -> float:
        """Binomial-tree reduction; same cost shape as broadcast."""
        return self.bcast(nbytes)

    def allreduce(self, nbytes: float) -> float:
        """Recursive-doubling allreduce: ``2 ceil(log2 p)`` exchange rounds.

        This is the per-iteration synchronisation cost of CG's two dot
        products (``nbytes`` is 8 or 16).
        """
        if self.binding.nranks == 1:
            return 0.0
        return 2.0 * self._rounds() * self._level().message_time(nbytes)

    def allgather(self, nbytes_per_rank: float) -> float:
        """Recursive-doubling allgather.

        Latency is logarithmic but each rank ultimately receives the
        concatenation, so the bandwidth term covers ``(p-1) * nbytes``.
        """
        p = self.binding.nranks
        if p == 1:
            return 0.0
        link = self._level()
        return self._rounds() * link.latency_s + (p - 1) * nbytes_per_rank * link.beta_s_per_byte

    def gather(self, nbytes_per_rank: float) -> float:
        """Gather to a root; bandwidth bound by the root's inbound traffic."""
        p = self.binding.nranks
        if p == 1:
            return 0.0
        link = self._level()
        return self._rounds() * link.latency_s + (p - 1) * nbytes_per_rank * link.beta_s_per_byte
