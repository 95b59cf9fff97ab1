"""Versioned, chunked, checksummed binary trace capture (``.rpt`` files).

A recorded program trace (RPT) snapshots the complete deterministic
memory-access trace of a workload — every region, every thread, every
block execution with its line/write reference stream — so it can be
shared, archived as a content-keyed artifact, and replayed bit-identically
through the profiler and any hierarchy backend without regenerating the
workload (see :class:`repro.workloads.replay.ReplayWorkload`).

File layout (all integers little-endian)::

    header   magic ``b"RPTRACE\\x00"`` (8) | version u16 | meta_len u32
             | meta (UTF-8 JSON, meta_len bytes) | meta_crc u32
    chunk*   tag ``b"RCHK"`` | region_index u32 | payload_len u64
             | payload_crc u32 | payload
    footer   tag ``b"REND"`` | file_crc u32 (CRC-32 of every prior byte)

There is exactly one chunk per region, holding all threads' block
executions back to back; a chunk payload is, per thread::

    n_execs u32, then per exec: bb_id u32 | count u64 | n_refs u64,
    then the thread's concatenated lines (int64) and packed write bits.

The metadata JSON carries the workload identity (name, input size, scale,
thread count), the region schedule, the static basic-block table, and the
recording package's code fingerprint.  Every chunk is CRC-checked on
read and the footer CRC covers the whole file, so truncation or bit
corruption raises :class:`~repro.errors.TraceFormatError` — never silent
garbage.  (One layering subtlety: because ``meta_crc`` immediately
follows the metadata bytes, the metadata's contribution to the running
whole-file CRC self-cancels — the CRC-32 residue property — so metadata
integrity rests on ``meta_crc`` itself while the footer CRC guards the
chunks and overall structure.  Content *identity* never relies on CRCs
at all: :func:`trace_fingerprint` is sha256-based.)  ``FORMAT_VERSION`` is bumped on any layout change; readers
reject other versions loudly (no silent migration).

Writing streams region by region and reading decodes one region at a
time (:meth:`TraceReader.region_execs` keeps a tiny LRU window), so
neither side ever materializes the full trace.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pathlib
import struct
import zlib
from collections import OrderedDict
from typing import Iterable, Iterator

import numpy as np

from repro.errors import TraceFormatError
from repro.trace.program import BasicBlock

MAGIC = b"RPTRACE\x00"
#: On-disk format version; readers accept exactly this version.
FORMAT_VERSION = 1

_CHUNK_TAG = b"RCHK"
_END_TAG = b"REND"
_HEAD_FIXED = struct.Struct("<8sHI")       # magic, version, meta_len
_CRC = struct.Struct("<I")
_CHUNK_HEAD = struct.Struct("<4sIQI")      # tag, region_index, len, crc
_EXEC_HEAD = struct.Struct("<IQQ")         # bb_id, count, n_refs
_U32 = struct.Struct("<I")

#: Decoded regions kept resident per reader (bounded-memory replay).
_REGION_WINDOW = 4


def _crc32(data: bytes, value: int = 0) -> int:
    """CRC-32 helper (zlib, masked to uint32)."""
    return zlib.crc32(data, value) & 0xFFFFFFFF


def _meta_from_workload(workload) -> dict:
    """Build the metadata block recorded into a trace header."""
    from repro.store import code_fingerprint

    blocks = sorted(workload._blocks.values(), key=lambda b: b.bb_id)
    return {
        "format": "rpt",
        "version": FORMAT_VERSION,
        "workload": workload.name,
        "input_size": workload.input_size,
        "scale": workload.scale,
        "num_threads": workload.num_threads,
        "num_regions": workload.num_regions,
        "schedule": [
            [inst.phase, inst.iteration, inst.param]
            for inst in (workload.phase_of(i) for i in range(workload.num_regions))
        ],
        "blocks": [
            {
                "bb_id": b.bb_id,
                "name": b.name,
                "instructions": b.instructions,
                "mispredict_rate": b.mispredict_rate,
                "mlp": b.mlp,
                "code_lines": list(b.code_lines),
            }
            for b in blocks
        ],
        "code_fingerprint": code_fingerprint(),
    }


def _encode_region(trace) -> bytes:
    """Serialize one :class:`~repro.trace.program.RegionTrace` payload."""
    out = io.BytesIO()
    for thread in trace.threads:
        out.write(_U32.pack(len(thread.blocks)))
        lines_chunks = []
        writes_chunks = []
        for exec_ in thread.blocks:
            out.write(_EXEC_HEAD.pack(
                exec_.block.bb_id, exec_.count, int(exec_.lines.size)
            ))
            if exec_.lines.size:
                lines_chunks.append(
                    np.ascontiguousarray(exec_.lines, dtype=np.int64)
                )
                writes_chunks.append(exec_.writes)
        if lines_chunks:
            lines = (lines_chunks[0] if len(lines_chunks) == 1
                     else np.concatenate(lines_chunks))
            writes = (writes_chunks[0] if len(writes_chunks) == 1
                      else np.concatenate(writes_chunks))
            out.write(lines.tobytes())
            out.write(np.packbits(writes.astype(np.uint8)).tobytes())
    return out.getvalue()


def record_trace(workload, path: str | os.PathLike) -> pathlib.Path:
    """Snapshot a workload's complete trace into a ``.rpt`` file.

    Streams one region at a time (the workload's own region memoization
    aside, peak memory is one region), writes via a temporary file and
    an atomic rename, and returns the final path.

    Args:
        workload: Any :class:`~repro.workloads.base.Workload` (including
            fuzzer scenarios and other replays).
        path: Destination file path (conventionally ``*.rpt``).

    Returns:
        The written path.
    """
    return _write_rpt(
        path,
        _meta_from_workload(workload),
        (
            (trace.region_index, _encode_region(trace))
            for trace in workload.iter_regions()
        ),
    )


def _write_rpt(
    path: str | os.PathLike,
    meta: dict,
    chunks: Iterable[tuple[int, bytes]],
) -> pathlib.Path:
    """Write one ``.rpt`` file: header, CRC-chained chunks, footer.

    The one writer of the format, shared by :func:`record_trace` and the
    shard splitter.  Writes via a temporary file and an atomic rename;
    on any error (including one raised while ``chunks`` is consumed) the
    temporary file is removed and the destination is left untouched.

    Args:
        path: Destination file path (parent directories are created).
        meta: The metadata dict, serialized as canonical JSON.
        chunks: ``(region_index, payload)`` pairs in file order; consumed
            lazily, so a streaming producer keeps peak memory at one
            payload.

    Returns:
        The written path.
    """
    import tempfile

    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta_raw = json.dumps(
        meta, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    # mkstemp (not a fixed "<out>.tmp") so concurrent writers to the
    # same destination cannot interleave writes or unlink each other's
    # in-flight file; last os.replace wins with a complete trace.
    fd, tmp = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    crc = 0
    try:
        with os.fdopen(fd, "wb") as out:
            def emit(data: bytes) -> None:
                nonlocal crc
                crc = _crc32(data, crc)
                out.write(data)

            emit(_HEAD_FIXED.pack(MAGIC, FORMAT_VERSION, len(meta_raw)))
            emit(meta_raw)
            emit(_CRC.pack(_crc32(meta_raw)))
            for region_index, payload in chunks:
                emit(_CHUNK_HEAD.pack(
                    _CHUNK_TAG, region_index, len(payload), _crc32(payload)
                ))
                emit(payload)
            out.write(_END_TAG + _CRC.pack(crc))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


class TraceReader:
    """Random-access, validating reader of one ``.rpt`` file.

    The constructor validates the header and indexes every chunk (reading
    chunk headers only — payloads are seeked over); payloads are decoded
    lazily per region with CRC validation, and a small LRU window of
    decoded regions bounds memory during sequential replay.

    No file handle is held between operations: every read opens the file
    on demand, so arbitrarily many readers (e.g. the experiment runner's
    workload memo over many traces) cost no file descriptors at rest.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = pathlib.Path(path)
        with self._open() as file:
            self.meta = self._read_header(file)
            self._offsets = self._index_chunks(file)
        self._window: OrderedDict[int, list] = OrderedDict()
        self.blocks = tuple(
            BasicBlock(
                bb_id=b["bb_id"],
                name=b["name"],
                instructions=b["instructions"],
                mispredict_rate=b["mispredict_rate"],
                mlp=b["mlp"],
                code_lines=tuple(b["code_lines"]),
            )
            for b in self.meta["blocks"]
        )

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------

    def _open(self):
        """Open the trace file, translating OS errors to format errors."""
        try:
            return open(self.path, "rb")
        except OSError as exc:
            raise TraceFormatError(
                f"cannot open trace {str(self.path)!r}: {exc}; "
                f"record one with `repro trace record`"
            ) from None

    def _fail(self, detail: str) -> TraceFormatError:
        """Build a uniform, actionable format error."""
        return TraceFormatError(
            f"trace {str(self.path)!r}: {detail} — the file is not a valid "
            f"version-{FORMAT_VERSION} .rpt trace (re-record it with "
            f"`repro trace record`)"
        )

    def _read_exact(self, file, n: int, what: str) -> bytes:
        data = file.read(n)
        if len(data) != n:
            raise self._fail(f"truncated while reading {what}")
        return data

    def _read_header(self, file) -> dict:
        """Validate magic/version and decode the metadata JSON."""
        raw = self._read_exact(file, _HEAD_FIXED.size, "header")
        magic, version, meta_len = _HEAD_FIXED.unpack(raw)
        if magic != MAGIC:
            raise self._fail(f"bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise TraceFormatError(
                f"trace {str(self.path)!r}: format version {version} is not "
                f"supported (this build reads version {FORMAT_VERSION} "
                f"only); re-record the trace with this version of repro"
            )
        meta_raw = self._read_exact(file, meta_len, "metadata")
        (meta_crc,) = _CRC.unpack(
            self._read_exact(file, _CRC.size, "metadata CRC")
        )
        if _crc32(meta_raw) != meta_crc:
            raise self._fail("metadata checksum mismatch")
        try:
            meta = json.loads(meta_raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise self._fail("metadata is not valid JSON") from None
        for field in ("workload", "scale", "num_threads", "num_regions",
                      "schedule", "blocks"):
            if field not in meta:
                raise self._fail(f"metadata is missing {field!r}")
        # Internal consistency: CRCs prove the bytes are as written, not
        # that the metadata describes the chunks — cross-check so a
        # mismatched schedule is a loud error, never an IndexError later
        # or a silent truncation of trailing regions.
        if not isinstance(meta["num_regions"], int) or meta["num_regions"] < 1:
            raise self._fail(f"invalid num_regions {meta['num_regions']!r}")
        if not isinstance(meta["num_threads"], int) or meta["num_threads"] < 1:
            raise self._fail(f"invalid num_threads {meta['num_threads']!r}")
        if len(meta["schedule"]) != meta["num_regions"]:
            raise self._fail(
                f"metadata declares {meta['num_regions']} regions but the "
                f"schedule has {len(meta['schedule'])} entries"
            )
        if not meta["blocks"]:
            raise self._fail("metadata declares no basic blocks")
        return meta

    def _index_chunks(self, file) -> list[tuple[int, int, int]]:
        """Walk chunk headers, returning (offset, length, crc) per region."""
        offsets: list[tuple[int, int, int]] = []
        for expected_region in range(self.meta["num_regions"]):
            raw = self._read_exact(file, _CHUNK_HEAD.size, "chunk header")
            tag, region_index, length, crc = _CHUNK_HEAD.unpack(raw)
            if tag != _CHUNK_TAG:
                raise self._fail(f"bad chunk tag {tag!r}")
            if region_index != expected_region:
                raise self._fail(
                    f"chunk for region {region_index} where region "
                    f"{expected_region} was expected"
                )
            offsets.append((file.tell(), length, crc))
            file.seek(length, os.SEEK_CUR)
        trailer = self._read_exact(file, len(_END_TAG) + _CRC.size, "footer")
        if trailer[: len(_END_TAG)] != _END_TAG:
            raise self._fail("missing end-of-trace footer")
        if file.read(1):
            raise self._fail("trailing bytes after footer")
        return offsets

    # ------------------------------------------------------------------
    # Public accessors
    # ------------------------------------------------------------------

    @property
    def num_regions(self) -> int:
        """Recorded region count."""
        return int(self.meta["num_regions"])

    @property
    def num_threads(self) -> int:
        """Recorded thread count."""
        return int(self.meta["num_threads"])

    def verify(self) -> int:
        """CRC-check every chunk plus the whole-file checksum, in one pass.

        Streams the file once in record order, accumulating the
        whole-file CRC over the same bytes while validating each chunk
        payload against its header CRC — validation I/O is one read of
        the file, not two.

        Returns:
            The number of chunks verified.

        Raises:
            TraceFormatError: On any checksum mismatch.
        """
        with self._open() as file:
            crc = 0
            pos = 0
            for region_index, (offset, length, chunk_crc) in enumerate(
                self._offsets
            ):
                # Header/meta bytes before the first payload, chunk
                # headers between payloads.
                lead = self._read_exact(file, offset - pos, "chunk header")
                crc = _crc32(lead, crc)
                payload = self._read_exact(
                    file, length, f"region {region_index} payload"
                )
                if _crc32(payload) != chunk_crc:
                    raise self._fail(
                        f"region {region_index} chunk checksum mismatch"
                    )
                crc = _crc32(payload, crc)
                pos = offset + length
            trailer = self._read_exact(
                file, len(_END_TAG) + _CRC.size, "footer"
            )
            if trailer[: len(_END_TAG)] != _END_TAG:
                raise self._fail("missing end-of-trace footer")
            (file_crc,) = _CRC.unpack(trailer[len(_END_TAG):])
            if crc != file_crc:
                raise self._fail("whole-file checksum mismatch")
        return self.num_regions

    def file_crc(self) -> int:
        """The recorded whole-file CRC-32 (from the footer, not recomputed)."""
        return read_file_crc(self.path)

    def fingerprint(self) -> str:
        """Content fingerprint of the trace file (sha256-based).

        Delegates to :func:`trace_fingerprint`, which caches per
        ``(path, size, mtime)`` — so repeated key derivations over the
        same unchanged file hash it once.
        """
        return trace_fingerprint(self.path)

    def _read_payload(self, region_index: int) -> bytes:
        """Read and CRC-validate one region's raw payload bytes."""
        from repro.faults import current_task_attempt, maybe_inject

        maybe_inject(
            "trace.read",
            key=f"{self.path}#{region_index}",
            attempt=current_task_attempt(),
        )
        offset, length, crc = self._offsets[region_index]
        with self._open() as file:
            file.seek(offset)
            payload = self._read_exact(
                file, length, f"region {region_index} payload"
            )
        if _crc32(payload) != crc:
            raise self._fail(f"region {region_index} chunk checksum mismatch")
        return payload

    def region_execs(self, region_index: int) -> list[list[tuple]]:
        """Decode one region: per thread, ``(bb_id, count, lines, writes)``.

        Decoded regions are cached in a small LRU window so the per-thread
        calls of a replay touch the disk once per region while sequential
        iteration stays bounded-memory.
        """
        cached = self._window.get(region_index)
        if cached is not None:
            self._window.move_to_end(region_index)
            return cached
        payload = self._read_payload(region_index)
        threads: list[list[tuple]] = []
        view = memoryview(payload)
        pos = 0
        try:
            for _tid in range(self.num_threads):
                (n_execs,) = _U32.unpack_from(view, pos)
                pos += _U32.size
                heads = []
                total_refs = 0
                for _ in range(n_execs):
                    bb_id, count, n_refs = _EXEC_HEAD.unpack_from(view, pos)
                    pos += _EXEC_HEAD.size
                    heads.append((bb_id, count, n_refs))
                    total_refs += n_refs
                lines = np.frombuffer(
                    view, dtype="<i8", count=total_refs, offset=pos
                ).astype(np.int64, copy=False)
                pos += total_refs * 8
                packed_len = (total_refs + 7) // 8
                writes = np.unpackbits(
                    np.frombuffer(view, dtype=np.uint8, count=packed_len,
                                  offset=pos),
                    count=total_refs,
                ).astype(bool)
                pos += packed_len
                execs = []
                cursor = 0
                for bb_id, count, n_refs in heads:
                    execs.append((
                        bb_id, count,
                        lines[cursor:cursor + n_refs],
                        writes[cursor:cursor + n_refs],
                    ))
                    cursor += n_refs
                threads.append(execs)
        except (struct.error, ValueError):
            raise self._fail(
                f"region {region_index} payload is malformed"
            ) from None
        if pos != len(payload):
            raise self._fail(
                f"region {region_index} payload has {len(payload) - pos} "
                f"unconsumed bytes"
            )
        self._window[region_index] = threads
        while len(self._window) > _REGION_WINDOW:
            self._window.popitem(last=False)
        return threads

    def iter_chunk_info(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(region_index, payload_bytes, crc)`` per chunk."""
        for region_index, (_, length, crc) in enumerate(self._offsets):
            yield region_index, length, crc

    def close(self) -> None:
        """Release resources (a no-op: no handle is held between reads).

        Kept so readers can be used with ``with`` and so callers that
        managed the handle-holding implementation keep working.
        """

    def __enter__(self) -> TraceReader:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def validate_trace(path: str | os.PathLike) -> TraceReader:
    """Open and fully verify a trace (header, every chunk CRC, file CRC).

    Args:
        path: The ``.rpt`` file.

    Returns:
        The opened (verified) reader.

    Raises:
        TraceFormatError: On any structural or checksum failure.
    """
    reader = TraceReader(path)
    try:
        reader.verify()
    except BaseException:
        reader.close()
        raise
    return reader


#: ``(resolved path, size, mtime_ns) -> fingerprint`` memo for
#: :func:`trace_fingerprint`; invalidated automatically when the file
#: changes because the stat signature is part of the key.
_FINGERPRINT_CACHE: dict[tuple[str, int, int], str] = {}


def trace_fingerprint(path: str | os.PathLike) -> str:
    """Collision-resistant content fingerprint of a trace file.

    A sha256 over the raw file bytes (the same hash family as every
    other artifact-store key), prefixed with the format version and
    size.  Memoized per ``(path, size, mtime)``, so hot callers — the
    experiment runner derives one store key per (pass, machine) — hash
    an unchanged file once per process.

    Raises:
        TraceFormatError: If the file cannot be read.
    """
    resolved = pathlib.Path(path)
    try:
        stat = resolved.stat()
        key = (str(resolved.resolve()), stat.st_size, stat.st_mtime_ns)
        cached = _FINGERPRINT_CACHE.get(key)
        if cached is not None:
            return cached
        digest = hashlib.sha256()
        with open(resolved, "rb") as handle:
            while True:
                block = handle.read(1 << 20)
                if not block:
                    break
                digest.update(block)
    except OSError as exc:
        raise TraceFormatError(
            f"cannot open trace {str(resolved)!r}: {exc}; "
            f"record one with `repro trace record`"
        ) from None
    fingerprint = (
        f"rpt{FORMAT_VERSION}:{stat.st_size}:{digest.hexdigest()}"
    )
    _FINGERPRINT_CACHE[key] = fingerprint
    return fingerprint


def read_file_crc(path: str | os.PathLike) -> int:
    """The whole-file CRC-32 recorded in a trace's footer (footer read only).

    Args:
        path: The ``.rpt`` file.

    Returns:
        The footer CRC value (not recomputed or validated).

    Raises:
        TraceFormatError: If the file is too short to hold a footer.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(0, os.SEEK_END)
            if handle.tell() < len(_END_TAG) + _CRC.size:
                raise TraceFormatError(
                    f"trace {str(path)!r}: too short to hold a footer"
                )
            handle.seek(-_CRC.size, os.SEEK_END)
            (crc,) = _CRC.unpack(handle.read(_CRC.size))
    except OSError as exc:
        raise TraceFormatError(
            f"cannot open trace {str(path)!r}: {exc}"
        ) from None
    return crc


def trace_store_key(
    workload_name: str, num_threads: int, scale: float,
    code: str | None = None,
) -> str:
    """Artifact-store key of a recorded trace.

    Covers the workload identity and the *recording* code fingerprint (a
    source change means traces would record differently, so old ones
    become unreachable rather than silently reused).

    Args:
        workload_name: The recorded workload's name.
        num_threads: Recorded thread count.
        scale: Recorded scale factor.
        code: The code fingerprint the trace was recorded under
            (``meta["code_fingerprint"]``); defaults to the current
            package's — correct when storing or looking up traces
            recorded by this very code version.

    Returns:
        A hex key string.
    """
    from repro.store import ArtifactStore, code_fingerprint

    return ArtifactStore.derive_key(
        trace=workload_name,
        threads=num_threads,
        scale=scale,
        format=FORMAT_VERSION,
        code=code_fingerprint() if code is None else code,
    )


def store_trace(store, path: str | os.PathLike) -> pathlib.Path | None:
    """Copy a recorded trace into the artifact store, content-keyed.

    The key is derived from the trace's own metadata
    (:func:`trace_store_key`), so :func:`stored_trace` finds it from the
    workload coordinates alone.

    Args:
        store: An :class:`~repro.store.ArtifactStore`.
        path: The ``.rpt`` file to store.

    Returns:
        The stored path, or ``None`` when the store is disabled.
    """
    with TraceReader(path) as reader:
        key = trace_store_key(
            reader.meta["workload"], reader.num_threads,
            reader.meta["scale"],
            code=reader.meta.get("code_fingerprint"),
        )
    return store.put_file("traces", key, path)


def stored_trace(
    store, workload_name: str, num_threads: int, scale: float,
    code: str | None = None,
) -> pathlib.Path | None:
    """Look up a stored trace, fully validated.

    A stored file with a corrupt chunk raises
    :class:`~repro.errors.TraceFormatError` inside validation, which the
    store counts as a miss (and unlinks) — it is never replayed.

    Args:
        store: An :class:`~repro.store.ArtifactStore`.
        workload_name: The recorded workload's name.
        num_threads: Recorded thread count.
        scale: Recorded scale factor.
        code: The recording's code fingerprint; defaults to the current
            package's, so traces recorded under *older* code miss (they
            would no longer match current generation).  Pass the
            archived trace's own ``meta["code_fingerprint"]`` to look it
            up regardless.

    Returns:
        The validated trace path, or ``None`` on miss.
    """
    key = trace_store_key(workload_name, num_threads, scale, code=code)
    return store.get_file("traces", key, validate=validate_trace)


def trace_summary(reader: TraceReader) -> dict:
    """Summarize an open trace reader (``repro trace inspect`` payload).

    Args:
        reader: An open :class:`TraceReader`.

    Returns:
        A dict with the metadata block plus structural facts: file size,
        chunk count, total payload bytes, file CRC, and fingerprint.
    """
    chunk_bytes = sum(length for _, length, _ in reader.iter_chunk_info())
    return {
        "path": str(reader.path),
        "file_bytes": reader.path.stat().st_size,
        "version": FORMAT_VERSION,
        "workload": reader.meta["workload"],
        "input_size": reader.meta.get("input_size", ""),
        "scale": reader.meta["scale"],
        "num_threads": reader.num_threads,
        "num_regions": reader.num_regions,
        "num_blocks": len(reader.blocks),
        "chunk_payload_bytes": chunk_bytes,
        "file_crc": f"{reader.file_crc():08x}",
        "fingerprint": reader.fingerprint(),
        "code_fingerprint": reader.meta.get("code_fingerprint", ""),
    }


def inspect_trace(path: str | os.PathLike) -> dict:
    """Open and summarize a trace file (see :func:`trace_summary`)."""
    with TraceReader(path) as reader:
        return trace_summary(reader)
