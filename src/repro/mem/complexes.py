"""Core-complex (CCX-style) hierarchy backend.

Each complex owns a private slice of the socket's L3 (an equal split of
the socket capacity across its complexes).  Cross-core transfers are
charged by latency class — free within a complex,
``cross_complex_extra_cycles`` between complexes of one socket,
``remote_socket_extra_cycles`` between sockets — and counted per class in
``AccessCounters`` so the region bandwidth model can bound the fabric.

The backend is the base hierarchy's one access loop run over
:meth:`Topology.complex_view` instead of the socket view: probe my
domain's L3 slice, serve dirty lines cache-to-cache from their owner's
private hierarchy, keep the slice inclusive of its domain's private
caches, and charge DRAM traffic to the *socket* whose memory controller
moves the line.  Directory lookup is charged no extra latency (the model
folds directory access into the L3 latency; only actual line movement
pays fabric hops), so the directory is the base hierarchy's one
:class:`~repro.mem.directory.Directory`.  With one complex per socket
the domains *are* the sockets, every hop resolves to the old
local/remote split, and the backend is bit-identical to the flat
inclusive hierarchy — asserted by the degeneracy battery in
``tests/test_mem_backends.py``.
"""

from __future__ import annotations

from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.topology import Topology


class ComplexHierarchy(MemoryHierarchy):
    """Three-level hierarchy with one L3 slice per core complex."""

    topology_view = staticmethod(Topology.complex_view)
