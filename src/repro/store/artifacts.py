"""Disk-backed, content-keyed artifact store.

Expensive evaluation artifacts — functional profiles, full detailed-run
results, rendered figure outputs — are persisted under a root directory,
keyed by a digest of everything that determines their content (workload,
scale, machine config, code fingerprint; see
:mod:`repro.store.fingerprint`).  Re-running the experiment battery after
a partial failure, in another process, or after a figure-only change then
reuses every artifact whose inputs are unchanged instead of recomputing
two full passes per benchmark configuration.

File format and guarantees:

* every artifact file is ``magic + sha256(body) + body`` where ``body``
  is the pickled payload, so truncated or corrupted files are *detected*
  on load and treated as misses (and unlinked), never crashes;
* writes go through a temporary file and :func:`os.replace`, so
  concurrent writers — the parallel experiment runner's worker processes —
  can never leave a half-written artifact behind;
* a schema version participates in key derivation, so format changes
  simply miss old artifacts rather than misreading them.

Environment knobs (read at store construction):

* ``REPRO_STORE_DIR`` — root directory (default ``.repro-store``);
* ``REPRO_STORE=0`` — disable the store entirely (compute everything);
* ``REPRO_STORE_IO_RETRIES`` — transient-I/O retry count (default 2).

Robustness: reads and writes retry transient ``OSError``\\ s with a short
backoff (flaky network filesystems, injected faults); a read that still
fails after the retries is a *miss*, never a crash.  Successful reads
touch the artifact's mtime, which is the recency signal the janitor's
LRU eviction uses (:mod:`repro.store.janitor`).
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import pickle
import shutil
import tempfile
import time

from repro.faults import maybe_corrupt, maybe_inject
from repro.store.fingerprint import config_fingerprint

#: Bumped whenever the on-disk artifact encoding changes; participates in
#: key derivation so old files become unreachable, not misread.
SCHEMA_VERSION = 1

_MAGIC = b"RPROSTORE1\n"
_DIGEST_BYTES = 32

#: Default store root, relative to the working directory.
DEFAULT_ROOT = ".repro-store"

#: Transient-I/O retry schedule: attempts beyond the first, and the base
#: backoff doubled per retry.  Overridable via ``REPRO_STORE_IO_RETRIES``.
DEFAULT_IO_RETRIES = 2
_IO_BACKOFF_SECONDS = 0.01


#: Process-wide artifact-write counter (monotonic, across *all* store
#: instances).  The serve layer's coalescing proof reads it: N identical
#: concurrent submissions must advance it by the artifact count of one
#: computation, not N.  Read it through :func:`put_count`.
_PUT_COUNT = 0


def put_count() -> int:
    """Total successful artifact writes in this process (all stores).

    Counts every :meth:`ArtifactStore.put` / :meth:`ArtifactStore.put_file`
    that actually wrote a file.  Callers snapshot it before and after an
    operation to assert how many computations hit the disk (the request
    coalescing invariant of ``repro serve``).

    Returns:
        The monotonic write count.
    """
    return _PUT_COUNT


def _count_put() -> None:
    """Advance the process-wide write counter (GIL-atomic increment)."""
    global _PUT_COUNT
    _PUT_COUNT += 1


def _io_retries() -> int:
    """Configured transient-I/O retry count (``$REPRO_STORE_IO_RETRIES``)."""
    return int(os.environ.get("REPRO_STORE_IO_RETRIES", DEFAULT_IO_RETRIES))


def _with_io_retries(operation):
    """Run an I/O operation, retrying transient ``OSError`` with backoff.

    ``operation`` receives the 0-based attempt index (so fault hooks
    inside it can report which attempt they faulted).  A missing file is
    not transient: ``FileNotFoundError`` propagates immediately, keeping
    cold-store misses free.  The final attempt's ``OSError`` propagates
    to the caller, which decides whether that means "miss" (reads) or a
    real failure (writes).

    Args:
        operation: Callable taking the attempt index and doing the I/O.

    Returns:
        ``operation(attempt)``'s result.
    """
    retries = _io_retries()
    for attempt in range(retries + 1):
        try:
            return operation(attempt)
        except FileNotFoundError:
            raise
        except OSError:
            if attempt >= retries:
                raise
            time.sleep(_IO_BACKOFF_SECONDS * (2 ** attempt))


class ArtifactStore:
    """A content-keyed persistent cache of evaluation artifacts.

    Parameters
    ----------
    root:
        Store root directory.  Defaults to ``$REPRO_STORE_DIR`` or
        ``.repro-store`` under the current working directory.
    enabled:
        Force the store on/off.  Defaults to ``$REPRO_STORE != "0"``.

    A disabled store misses every ``get`` and drops every ``put``, so
    callers never need to special-case it.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        enabled: bool | None = None,
    ) -> None:
        if root is None:
            root = os.environ.get("REPRO_STORE_DIR", DEFAULT_ROOT)
        if enabled is None:
            enabled = os.environ.get("REPRO_STORE", "1") != "0"
        self.root = pathlib.Path(root)
        self.enabled = enabled
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------

    @staticmethod
    def derive_key(**parts: object) -> str:
        """Digest keyword parts into an artifact key.

        Args:
            **parts: Everything that determines the artifact's content
                (fingerprints, scalars, sequences).  ``SCHEMA_VERSION``
                is mixed in automatically.

        Returns:
            A hex key string.
        """
        return config_fingerprint(dict(parts, _schema=SCHEMA_VERSION))

    def path_for(self, kind: str, key: str) -> pathlib.Path:
        """Filesystem path of the artifact ``(kind, key)``."""
        return self.root / kind / f"{key}.pkl"

    def path_for_file(
        self, kind: str, key: str, suffix: str = ".rpt"
    ) -> pathlib.Path:
        """Filesystem path of a raw file artifact ``(kind, key)``.

        File artifacts (recorded traces) keep their native format — with
        its own integrity checking — instead of the pickled envelope.

        Args:
            kind: Artifact namespace (``"traces"``, ...).
            key: Key from :meth:`derive_key`.
            suffix: File extension, including the dot.

        Returns:
            The artifact's path.
        """
        return self.root / kind / f"{key}{suffix}"

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def has(self, kind: str, key: str) -> bool:
        """Whether an artifact file exists (without validating it)."""
        return self.enabled and self.path_for(kind, key).is_file()

    def get(self, kind: str, key: str) -> object | None:
        """Load an artifact, or ``None`` on miss or corruption.

        A file that is missing, truncated, or fails its integrity check
        counts as a miss; corrupt files are unlinked so the subsequent
        ``put`` heals the store.

        Args:
            kind: Artifact namespace (``"profiles"``, ``"full"``, ...).
            key: Key from :meth:`derive_key`.

        Returns:
            The stored payload, or ``None``.
        """
        if not self.enabled:
            return None
        path = self.path_for(kind, key)

        def read_once(attempt: int) -> bytes:
            """One read attempt, preceded by the ``store.get`` fault hook."""
            maybe_inject("store.get", key=f"{kind}/{key}", attempt=attempt)
            return path.read_bytes()

        try:
            blob = _with_io_retries(read_once)
        except OSError:
            # Missing file, or an I/O error that survived the retries:
            # either way the artifact is unavailable — a miss, not a crash.
            self.misses += 1
            return None
        loaded = self._decode(blob)
        if loaded is None:
            self.misses += 1
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing cleanup is fine
                pass
            return None
        self.hits += 1
        self._touch(path)
        return loaded[0]

    def put(self, kind: str, key: str, payload: object) -> pathlib.Path | None:
        """Persist an artifact atomically.

        Args:
            kind: Artifact namespace.
            key: Key from :meth:`derive_key`.
            payload: Any picklable object.

        Returns:
            The artifact's path, or ``None`` when the store is disabled.
        """
        if not self.enabled:
            return None
        path = self.path_for(kind, key)
        # The one-tuple wrapper is the on-disk format of every store.
        body = pickle.dumps((payload,), protocol=4)
        blob = _MAGIC + hashlib.sha256(body).digest() + body
        # A torn-write fault truncates the bytes here; the checksum makes
        # the damage detectable, so a later read misses and recomputes.
        blob = maybe_corrupt("store.put", f"{kind}/{key}", blob)
        self._atomic_write(path, key, lambda handle: handle.write(blob),
                           fault_key=f"{kind}/{key}")
        _count_put()
        return path

    @staticmethod
    def _atomic_write(
        path: pathlib.Path, key: str, writer, fault_key: str = "",
    ) -> None:
        """Write an artifact file atomically (temp file + ``os.replace``).

        Shared by :meth:`put` and :meth:`put_file` so the
        concurrent-writer guarantees stay in one place.  Transient write
        errors (including injected ``store.put`` faults, which fire
        between the temp-file write and the rename — where a real crash
        strands an orphan ``.tmp`` for the janitor) are retried.

        Args:
            path: Final artifact path (parent dirs are created).
            key: Artifact key (used for the temp-file prefix).
            writer: Callable receiving the open binary file object.
            fault_key: Identity reported to the ``store.put`` fault site
                (defaults to ``key``).
        """
        path.parent.mkdir(parents=True, exist_ok=True)

        def write_once(attempt: int) -> None:
            """One atomic write attempt (temp file, fault hook, rename)."""
            fd, tmp_name = tempfile.mkstemp(
                prefix=f".{key}.", suffix=".tmp", dir=path.parent
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    writer(handle)
                maybe_inject(
                    "store.put", key=fault_key or key, attempt=attempt
                )
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise

        _with_io_retries(write_once)

    def put_file(
        self, kind: str, key: str, source: str | os.PathLike,
        suffix: str = ".rpt",
    ) -> pathlib.Path | None:
        """Persist a raw file artifact atomically (copy into the store).

        Unlike :meth:`put`, the file is stored byte-for-byte in its native
        format; validation on retrieval is delegated to the caller's
        ``validate`` callback (the format's own checksums).

        Args:
            kind: Artifact namespace.
            key: Key from :meth:`derive_key`.
            source: Path of the file to copy in.
            suffix: Stored file extension, including the dot.

        Returns:
            The artifact's path, or ``None`` when the store is disabled.
        """
        if not self.enabled:
            return None
        path = self.path_for_file(kind, key, suffix)

        def copy_source(handle) -> None:
            """Stream ``source``'s bytes into the open artifact file."""
            with open(source, "rb") as src:
                shutil.copyfileobj(src, handle)

        self._atomic_write(path, key, copy_source, fault_key=f"{kind}/{key}")
        _count_put()
        return path

    def get_file(
        self, kind: str, key: str, suffix: str = ".rpt", validate=None,
    ) -> pathlib.Path | None:
        """Look up a raw file artifact, or ``None`` on miss or corruption.

        Args:
            kind: Artifact namespace.
            key: Key from :meth:`derive_key`.
            suffix: Stored file extension, including the dot.
            validate: Optional callable taking the path; it must raise
                (any exception) for an invalid file.  A failing file is
                counted as a miss and unlinked, exactly like a corrupt
                pickled artifact — e.g. pass
                :func:`repro.trace.capture.validate_trace` so a trace
                with a corrupt chunk reads as a miss, never as garbage.

        Returns:
            The artifact's path, or ``None``.
        """
        if not self.enabled:
            return None
        path = self.path_for_file(kind, key, suffix)
        if not path.is_file():
            self.misses += 1
            return None
        if validate is not None:
            try:
                result = validate(path)
            except Exception:
                self.misses += 1
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - racing cleanup is fine
                    pass
                return None
            close = getattr(result, "close", None)
            if callable(close):
                close()
        self.hits += 1
        self._touch(path)
        return path

    def payload_bytes(self, kind: str, key: str) -> bytes | None:
        """Validated raw payload bytes of an artifact, with miss semantics.

        The artifact-by-key read path of the serve layer: returns the
        pickled payload *body* (the bytes after the magic and checksum
        header) only after the whole-body SHA-256 check passes, so an
        HTTP client can never be handed a torn or corrupted body — a
        file that is missing, truncated, or fails its checksum is a miss
        (``None``), and corrupt files are unlinked so the next ``put``
        heals the store.  Exactly one full read is performed; callers
        stream the returned bytes out in chunks.

        Args:
            kind: Artifact namespace (``"profiles"``, ``"figure"``, ...).
            key: Key from :meth:`derive_key`.

        Returns:
            The validated payload bytes, or ``None`` on miss/corruption.
        """
        if not self.enabled:
            return None
        path = self.path_for(kind, key)

        def read_once(attempt: int) -> bytes:
            """One read attempt, preceded by the ``store.get`` fault hook."""
            maybe_inject("store.get", key=f"{kind}/{key}", attempt=attempt)
            return path.read_bytes()

        try:
            blob = _with_io_retries(read_once)
        except OSError:
            self.misses += 1
            return None
        body = self._validated_body(blob)
        if body is None:
            self.misses += 1
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing cleanup is fine
                pass
            return None
        self.hits += 1
        self._touch(path)
        return body

    def clear(self) -> int:
        """Delete every stored artifact.

        Returns:
            Number of bytes freed.
        """
        freed = 0
        if not self.root.is_dir():
            return freed
        # Concurrent writers (parallel-runner workers) may add or remove
        # entries while we walk; every step tolerates the race.
        for path in sorted(self.root.rglob("*"), reverse=True):
            try:
                if path.is_file():
                    size = path.stat().st_size
                    path.unlink()
                    freed += size
                elif path.is_dir():
                    path.rmdir()
            except OSError:
                continue
        try:
            self.root.rmdir()
        except OSError:  # pragma: no cover - root non-empty or in use
            pass
        return freed

    def size_bytes(self) -> int:
        """Total bytes currently stored."""
        if not self.root.is_dir():
            return 0
        return sum(p.stat().st_size for p in self.root.rglob("*") if p.is_file())

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _touch(path: pathlib.Path) -> None:
        """Bump an artifact's mtime on hit (best effort).

        The mtime is the recency signal the janitor's LRU-by-mtime
        eviction orders by (:func:`repro.store.janitor.collect_garbage`),
        so hot artifacts survive a size-quota sweep.
        """
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - recency is advisory
            pass

    @staticmethod
    def _validated_body(blob: bytes) -> bytes | None:
        """Checksum-validate an artifact file's bytes (``None`` = bad).

        Returns the payload body (the bytes the stored SHA-256 covers)
        only when the magic and digest both check out.
        """
        header = len(_MAGIC) + _DIGEST_BYTES
        if len(blob) < header or not blob.startswith(_MAGIC):
            return None
        digest = blob[len(_MAGIC):header]
        body = blob[header:]
        if hashlib.sha256(body).digest() != digest:
            return None
        return body

    @classmethod
    def _decode(cls, blob: bytes) -> tuple[object] | None:
        """Validate and unpickle an artifact file's bytes (``None`` = bad)."""
        body = cls._validated_body(blob)
        if body is None:
            return None
        try:
            payload = pickle.loads(body)
        except Exception:
            return None
        if not isinstance(payload, tuple) or len(payload) != 1:
            return None
        return payload
