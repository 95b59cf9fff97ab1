"""Machine topology: the core → complex → socket axis of the memory system.

This module is the single owner of the "which cores share what" questions
the memory layer used to answer with ad-hoc ``cores_per_socket``
arithmetic.  A :class:`Topology` is a *view* of a
:class:`~repro.config.MachineConfig` grouping cores into **domains** — the
units that own a last-level-cache structure:

* :meth:`Topology.socket_view` — one domain per socket.  This is what the
  flat hierarchy backends (inclusive, non-inclusive, prefetching) consume:
  they model one shared L3 per socket regardless of any finer complex
  structure the machine declares.
* :meth:`Topology.complex_view` — one domain per core complex (CCX).  The
  ``complex`` backend consumes this: each domain owns an L3 slice, and
  cross-domain transfers are charged by latency class.

The hierarchy's one access loop is written over domains, so the view is
all that distinguishes the ``complex`` backend from the inclusive one.

Every hop between two domains falls into one of three **latency classes**
(:data:`LATENCY_CLASSES`): intra-complex (free beyond the base L3
latency), cross-complex (two complexes of one socket, through the on-die
fabric), and cross-socket (through the inter-socket link).  The socket
view only ever produces the first and last class, which is exactly the
binary local/remote split the flat hierarchy always had — the refactor is
behavior-preserving by construction, and the ``_reference`` parity
battery asserts it.
"""

from __future__ import annotations

from repro.config import CACHE_LINE_BYTES, MachineConfig

#: The three hop classes a cross-core transfer can fall into, cheapest
#: first.  ``AccessCounters`` tracks one traffic counter per class.
LATENCY_CLASSES = ("intra-complex", "cross-complex", "cross-socket")

INTRA_COMPLEX, CROSS_COMPLEX, CROSS_SOCKET = LATENCY_CLASSES


class Topology:
    """One grouping of a machine's cores into cache-owning domains.

    Attributes:
        machine: The machine configuration this view was built from.
        domains: Per-domain tuples of the core ids it contains.
        domain_of: Per-core domain index (indexable by core id).
        domain_socket: Per-domain socket index.
        domain_mask: Per-domain bitmask over core ids.
        num_domains: Number of domains (``len(domains)``).
    """

    def __init__(
        self, machine: MachineConfig, domains: list[list[int]]
    ) -> None:
        self.machine = machine
        self.domains = tuple(tuple(cores) for cores in domains)
        self.num_domains = len(self.domains)
        self.domain_of = [0] * machine.num_cores
        for index, cores in enumerate(self.domains):
            for core in cores:
                self.domain_of[core] = index
        self.domain_socket = tuple(
            machine.socket_of(cores[0]) for cores in self.domains
        )
        self.domain_mask = tuple(
            sum(1 << core for core in cores) for cores in self.domains
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def socket_view(cls, machine: MachineConfig) -> Topology:
        """One domain per socket — the flat backends' grouping."""
        per_socket = machine.cores_per_socket
        return cls(machine, [
            list(range(s * per_socket, (s + 1) * per_socket))
            for s in range(machine.num_sockets)
        ])

    @classmethod
    def complex_view(cls, machine: MachineConfig) -> Topology:
        """One domain per core complex — the ``complex`` backend's grouping."""
        sizes = machine.socket_complex_sizes
        domains: list[list[int]] = []
        for s in range(machine.num_sockets):
            core = s * machine.cores_per_socket
            for size in sizes:
                domains.append(list(range(core, core + size)))
                core += size
        return cls(machine, domains)

    # ------------------------------------------------------------------
    # Latency classes
    # ------------------------------------------------------------------

    def hop_class(self, from_domain: int, to_domain: int) -> str:
        """The :data:`LATENCY_CLASSES` entry for a domain-to-domain hop."""
        if from_domain == to_domain:
            return INTRA_COMPLEX
        if self.domain_socket[from_domain] == self.domain_socket[to_domain]:
            return CROSS_COMPLEX
        return CROSS_SOCKET

    def hop_extra_cycles(self, from_domain: int, to_domain: int) -> int:
        """Extra cycles beyond the base L3 latency for one hop."""
        hop = self.hop_class(from_domain, to_domain)
        if hop == INTRA_COMPLEX:
            return 0
        if hop == CROSS_COMPLEX:
            return self.machine.topology.cross_complex_extra_cycles
        return self.machine.remote_socket_extra_cycles

    def hop_extra_table(self) -> list[list[int]]:
        """Dense ``[from][to]`` extra-cycle table (hot-path binding)."""
        return [
            [self.hop_extra_cycles(a, b) for b in range(self.num_domains)]
            for a in range(self.num_domains)
        ]


def fabric_min_cycles(machine: MachineConfig, transfers: int) -> float:
    """Minimum region duration the interconnect bandwidth allows (cycles).

    Mirrors :meth:`repro.mem.dram.Dram.min_cycles_for_traffic` for the
    fabric carrying cross-complex and cross-socket line transfers: the
    same line-sized units, charged against the machine's configured
    sustained interconnect bandwidth.  Machines without an
    ``interconnect_gbps`` (every flat machine) are unconstrained.

    Args:
        machine: The machine configuration.
        transfers: Cross-complex plus cross-socket line transfers in the
            region.

    Returns:
        The bandwidth floor in cycles (0.0 when unconstrained).
    """
    gbps = machine.topology.interconnect_gbps
    if gbps is None or transfers <= 0:
        return 0.0
    bytes_per_cycle = gbps / machine.core.frequency_ghz
    return transfers * CACHE_LINE_BYTES / bytes_per_cycle
