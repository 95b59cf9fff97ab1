"""Reference (seed) implementations of the hot-path engines.

These are the pre-optimization implementations, kept runnable for two
purposes only:

* **Parity**: randomized tests drive the fast engines and these references
  with identical inputs and assert bit-identical outputs (stats, stack
  distance histograms, MRU snapshots, simulated cycles and counters, and
  weighted k-means labels, center bytes, distortion and iterations).
* **Perf baselines**: ``benchmarks/test_perf.py`` times the fast cache,
  stack-distance and MRU engines against their references on the real
  workloads and records the speedups in
  ``benchmarks/results/BENCH_perf.json``.  The k-means reference is a
  parity oracle only.

Nothing in the library runtime imports this package.
"""

from repro._reference.cache import ReferenceSetAssocCache
from repro._reference.hierarchy import ReferenceMemoryHierarchy
from repro._reference.kmeans import (
    weighted_kmeans as reference_weighted_kmeans,
)
from repro._reference.ldv import ReferenceLruStackProfiler
from repro._reference.mru import ReferenceMRUTracker
from repro._reference.profiler import ReferenceFunctionalProfiler

__all__ = [
    "ReferenceFunctionalProfiler",
    "ReferenceLruStackProfiler",
    "ReferenceMRUTracker",
    "ReferenceMemoryHierarchy",
    "ReferenceSetAssocCache",
    "reference_weighted_kmeans",
]
