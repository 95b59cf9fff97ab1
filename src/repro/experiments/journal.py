"""Crash-tolerant run journal: the checkpoint behind ``repro run --resume``.

The journal is an append-only JSONL file under the artifact store's
root, one per runner configuration (the file name is the runner's
fingerprint, so a ``--scale`` change never resumes from the wrong run).
Each line records one completed expensive pass — ``(workload, threads,
machine)`` plus which artifact kinds were produced — flushed and fsynced
as it happens, so a SIGKILLed battery leaves a journal describing
exactly what finished.  The file format is the shared
:class:`~repro.util.journal.Journal`; this module owns only the schema.

On ``--resume`` the runner loads the journal and skips every journaled
pass whose artifacts are still present in the store, recomputing only
the unfinished remainder.
"""

from __future__ import annotations

from repro.util.journal import Journal

#: Journal directory name under the store root.
JOURNAL_DIR = "journal"


class RunJournal(Journal):
    """Append-only completion journal for one runner configuration."""

    @classmethod
    def for_runner(cls, store, runner_fingerprint: str) -> RunJournal | None:
        """The journal a runner configuration checkpoints into.

        Args:
            store: The runner's :class:`~repro.store.ArtifactStore`
                (``None`` or disabled means no journaling).
            runner_fingerprint: The runner's configuration fingerprint.

        Returns:
            The journal, or ``None`` when there is nowhere durable to
            put one.
        """
        if store is None or not store.enabled:
            return None
        return cls(store.root / JOURNAL_DIR / f"{runner_fingerprint}.jsonl")

    def record_pass(
        self,
        key: str,
        name: str,
        num_threads: int,
        machine: str | None,
        kinds: tuple[str, ...],
    ) -> None:
        """Append one completed pass (durably: flush + fsync).

        Args:
            key: The pass's artifact-store key.
            name: Workload name.
            num_threads: Thread count of the pass.
            machine: Registry machine name, or ``None`` for the default
                evaluation machine.
            kinds: Artifact kinds completed (``"profiles"``/``"full"``).
        """
        self.append({
            "event": "pass",
            "key": key,
            "name": name,
            "nt": num_threads,
            "machine": machine,
            "kinds": sorted(kinds),
        })

    def completed_passes(self) -> dict[str, set[str]]:
        """Load the journal: artifact key -> set of completed kinds.

        Returns:
            The completion map (empty when no journal exists yet).
        """
        completed: dict[str, set[str]] = {}
        for entry in self.entries():
            key = entry.get("key")
            kinds = entry.get("kinds")
            if (entry["event"] == "pass" and isinstance(key, str)
                    and isinstance(kinds, list)):
                completed.setdefault(key, set()).update(
                    k for k in kinds if isinstance(k, str)
                )
        return completed
