"""Run the complete evaluation battery: ``python -m repro.experiments``.

An alias for ``repro run`` that takes the same options (see
``docs/cli.md``):

    --scale S      workload scale factor (default 1.0)
    --quick        small-scale smoke run (scale 0.3, npb-ft/cg/is)
    --only NAMES   comma-separated experiment names (fig1,...,ablations)
    --workers N    parallel worker processes for the expensive passes
    --no-store     bypass the artifact store

The output of a default run is what EXPERIMENTS.md records.
"""

from __future__ import annotations

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["run", *sys.argv[1:]]))
