"""Built-in machine specifications.

Machines are declared as plain, TOML-like dicts (see
:mod:`repro.machines.registry` for the schema) and validated into
:class:`~repro.config.MachineConfig` instances on lookup.  The two
``table1-*`` entries reproduce the paper's Table I exactly; the rest are
the cross-architecture sweep targets: core-count, cache-geometry, DRAM
bandwidth-tier, and hierarchy-backend variations the transfer experiment
(section VI-A3 / Fig. 6) is swept across.

A spec may name another spec in ``base``; its own keys are then deep-merged
on top, so variants stay one-line diffs against their parent.
"""

from __future__ import annotations

#: Named DRAM bandwidth tiers (GB/s per socket).  Table I's machine uses
#: the ddr3-1066 figure; the other tiers let sweep machines vary the
#: bandwidth wall without touching latency.
DRAM_TIERS: dict[str, float] = {
    "ddr3-1066": 8.0,
    "ddr3-1333": 10.6,
    "ddr3-1866": 14.9,
    "ddr4-2400": 19.2,
}

#: Named interconnect (fabric) bandwidth tiers (GB/s), bounding the
#: cross-complex / cross-socket line traffic of topology machines the way
#: :data:`DRAM_TIERS` bounds memory traffic.  Figures are in the range of
#: first/second-generation chiplet fabrics and a QPI-class socket link.
FABRIC_TIERS: dict[str, float] = {
    "fabric-gen1": 42.0,
    "fabric-gen2": 50.0,
    "socket-qpi": 19.2,
}

#: The built-in machine registry contents, keyed by machine name.
MACHINE_SPECS: dict[str, dict] = {
    "table1-8core": {
        "description": "Paper Table I: one socket of 8 cores",
        "sockets": 1,
        "cores_per_socket": 8,
        "core": {
            "frequency_ghz": 2.66,
            "dispatch_width": 4,
            "rob_entries": 128,
            "branch_miss_penalty": 8,
            "max_outstanding_misses": 4,
        },
        "caches": {
            "l1i": {"kb": 32, "ways": 4, "latency": 4},
            "l1d": {"kb": 32, "ways": 8, "latency": 4},
            "l2": {"kb": 256, "ways": 8, "latency": 8},
            "l3": {"kb": 8192, "ways": 16, "latency": 30},
        },
        "dram": {"latency_ns": 65.0, "tier": "ddr3-1066"},
        "hierarchy": "inclusive",
    },
    "table1-16core": {
        "description": "Two sockets of the Table I part (16 cores)",
        "base": "table1-8core",
        "sockets": 2,
    },
    "table1-32core": {
        "description": "Paper Table I: four sockets, 32 cores",
        "base": "table1-8core",
        "sockets": 4,
    },
    "table1-8core-noninclusive": {
        "description": "8-core Table I part with a non-inclusive L3",
        "base": "table1-8core",
        "hierarchy": "noninclusive",
    },
    "table1-8core-prefetch": {
        "description": "8-core Table I part with next-line L2 prefetching",
        "base": "table1-8core",
        "hierarchy": "prefetch-nl",
    },
    "bigl3-8core": {
        "description": "8 cores with a doubled, slower L3 and faster DRAM",
        "base": "table1-8core",
        "caches": {"l3": {"kb": 16384, "ways": 16, "latency": 38}},
        "dram": {"latency_ns": 65.0, "tier": "ddr3-1866"},
    },
    "lowbw-32core": {
        "description": "32 cores starved to the ddr3-1066 bandwidth tier",
        "base": "table1-32core",
        "dram": {"latency_ns": 80.0, "tier": "ddr3-1066"},
    },
    "epyc-4x8": {
        "description": "EPYC-like chiplet part: 4 complexes of 8 cores, "
                       "each with its own slice of the socket L3",
        "base": "table1-8core",
        "cores_per_socket": 32,
        "caches": {"l3": {"kb": 32768, "ways": 16, "latency": 34}},
        "dram": {"latency_ns": 75.0, "tier": "ddr4-2400"},
        "hierarchy": "complex",
        "topology": {
            "cores_per_complex": [8, 8, 8, 8],
            "cross_complex_extra_cycles": 40,
            "interconnect": {"tier": "fabric-gen1"},
        },
    },
    "biglittle-6core": {
        "description": "big.LITTLE-style part: a 4-core and a 2-core "
                       "complex sharing one socket",
        "base": "table1-8core",
        "cores_per_socket": 6,
        "hierarchy": "complex",
        "topology": {
            "cores_per_complex": [4, 2],
            "cross_complex_extra_cycles": 30,
            "interconnect": {"bandwidth_gbps": 25.0},
        },
    },
}
