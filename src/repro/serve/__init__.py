"""Long-lived experiment service with request coalescing.

``repro serve`` turns the one-shot experiment pipeline into a service: a
stdlib-only HTTP JSON API (:mod:`repro.serve.api`) over a job-queue
supervisor (:mod:`repro.serve.supervisor`) that executes submissions
through the same fault-tolerant fan-out — and therefore the same
artifact store, retry budget, and fault-injection sites — as the batch
CLI, so a served result is byte-identical to a ``repro run`` result.

The service's distinguishing behaviors:

* **request coalescing** — N identical submissions (same canonical job
  spec, same code fingerprint) resolve to one computation and N
  completions; submissions whose artifacts are already cached complete
  instantly;
* a crash-tolerant **job journal** so ``--resume`` restores the backlog
  of a killed server;
* the store **janitor on a cadence** (TTL/quota GC as a background
  service instead of a runner-exit hook);
* **graceful drain** on ``SIGTERM``/``SIGINT``: running jobs finish,
  the queue stays journaled, exit status 0.

See :doc:`docs/serve` for the API reference and lifecycle details.
"""

from repro.serve.jobs import JOB_KINDS, JobRecord, JobSpec
from repro.serve.service import ReproService, configure_serve_logging
from repro.serve.supervisor import (
    JobSupervisor,
    ServiceDrainingError,
    execute_job,
)

__all__ = [
    "JOB_KINDS",
    "JobRecord",
    "JobSpec",
    "JobSupervisor",
    "ReproService",
    "ServiceDrainingError",
    "configure_serve_logging",
    "execute_job",
]
