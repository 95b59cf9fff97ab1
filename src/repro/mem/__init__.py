"""Memory-system substrate: caches, MSI directory, DRAM, full hierarchy.

Besides the reference inclusive hierarchy, :mod:`repro.mem.backends`
registers pluggable variants (non-inclusive L3, next-line prefetching,
per-complex L3 slices) selectable by name through
``MachineConfig.hierarchy``; :mod:`repro.mem.topology` owns the
core → complex → socket grouping every backend consumes.
"""

from repro.mem.backends import (
    HIERARCHY_BACKENDS,
    backend_names,
    hierarchy_backend,
)
from repro.mem.cache import CacheStats, SetAssocCache
from repro.mem.complexes import ComplexHierarchy
from repro.mem.directory import Directory
from repro.mem.dram import Dram
from repro.mem.hierarchy import AccessCounters, MemoryHierarchy
from repro.mem.noninclusive import NonInclusiveHierarchy
from repro.mem.prefetch import NextLinePrefetchHierarchy
from repro.mem.topology import LATENCY_CLASSES, Topology, fabric_min_cycles

__all__ = [
    "AccessCounters",
    "CacheStats",
    "ComplexHierarchy",
    "Directory",
    "Dram",
    "HIERARCHY_BACKENDS",
    "LATENCY_CLASSES",
    "MemoryHierarchy",
    "NextLinePrefetchHierarchy",
    "NonInclusiveHierarchy",
    "SetAssocCache",
    "Topology",
    "backend_names",
    "fabric_min_cycles",
    "hierarchy_backend",
]
