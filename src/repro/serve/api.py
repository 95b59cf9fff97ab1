"""HTTP JSON API of the experiment service.

A deliberately small, stdlib-only surface (``http.server`` +
``urllib``-driveable) over the :class:`~repro.serve.supervisor.JobSupervisor`:

=======  ==========================  =========================================
Method   Path                        Meaning
=======  ==========================  =========================================
POST     ``/jobs``                   Submit a job spec (JSON body); returns
                                     the job record — 202 while queued or
                                     running, 200 when served warm.
GET      ``/jobs``                   List every job record.
GET      ``/jobs/<id>``              Poll one job.
GET      ``/artifacts/<kind>/<key>`` Fetch a cached artifact's validated
                                     pickled payload bytes (the exact body
                                     the store holds — byte-identical to a
                                     direct CLI run's artifact).
GET      ``/healthz``                Liveness (``ok`` / ``draining``).
GET      ``/stats``                  Supervisor/store counters.
=======  ==========================  =========================================

Error contract: every failure is a structured JSON body
``{"error": "<message>"}`` with the CLI's message text —
:class:`~repro.errors.ConfigError` / :class:`~repro.errors.WorkloadError`
map to 400, a missing job or artifact to 404, a draining service or an
injected/transient I/O failure to 503, anything else to 500.  The
``serve.request`` fault site fires at dispatch, so injected request
faults surface as structured 5xx responses, never hangs or torn bodies.

Request logging is structured: one JSON line per request
(method, path, status, duration) through the ``repro.serve`` logger.
"""

from __future__ import annotations

import json
import logging
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import unquote, urlsplit

from repro.errors import ConfigError, InjectedFaultError, ReproError, WorkloadError
from repro.faults import maybe_inject
from repro.serve.supervisor import JobSupervisor, ServiceDrainingError

#: Structured request-log channel (one JSON object per line).
log = logging.getLogger("repro.serve")

#: Request-body size cap: job specs are small; anything bigger is abuse.
MAX_BODY_BYTES = 1 << 20


def error_status(exc: BaseException) -> int:
    """The HTTP status an exception maps to (the API's error contract).

    Args:
        exc: The failure raised while handling a request.

    Returns:
        400 for invalid submissions, 503 for draining/injected/transient
        failures, 500 for everything else.
    """
    if isinstance(exc, (ConfigError, WorkloadError)):
        return 400
    if isinstance(exc, (ServiceDrainingError, InjectedFaultError, OSError)):
        return 503
    return 500


class ServeHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`JobSupervisor`.

    Args:
        address: ``(host, port)`` bind address (port 0 = ephemeral).
        supervisor: The job supervisor handling submissions.
    """

    daemon_threads = True
    #: Listen backlog: submission bursts (the coalescing case is exactly
    #: many clients at once) must not see kernel connection resets.
    request_queue_size = 128

    def __init__(
        self, address: tuple[str, int], supervisor: JobSupervisor
    ) -> None:
        super().__init__(address, ServeAPIHandler)
        self.supervisor = supervisor


class ServeAPIHandler(BaseHTTPRequestHandler):
    """One HTTP request against the experiment service."""

    #: Advertised in responses; not load-bearing.
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # -- BaseHTTPRequestHandler plumbing --------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence the stock per-line stderr log (we emit JSON lines)."""

    @property
    def supervisor(self) -> JobSupervisor:
        """The server's job supervisor."""
        return self.server.supervisor

    # -- Dispatch -------------------------------------------------------

    def do_GET(self) -> None:
        """Route a GET request."""
        self._dispatch(self._route_get)

    def do_POST(self) -> None:
        """Route a POST request."""
        self._dispatch(self._route_post)

    def _dispatch(self, route) -> None:
        """Run one route under the fault hook and the error contract."""
        started = time.monotonic()
        path = urlsplit(self.path).path
        status = 500
        try:
            maybe_inject("serve.request", key=f"{self.command} {path}")
            status = route(path)
        except ReproError as exc:
            status = error_status(exc)
            self._send_json({"error": str(exc)}, status=status)
        except OSError as exc:
            status = error_status(exc)
            self._send_json({"error": str(exc)}, status=status)
        except Exception as exc:  # pragma: no cover - defensive
            self._send_json(
                {"error": f"{type(exc).__name__}: {exc}"}, status=500
            )
        finally:
            log.info(json.dumps({
                "method": self.command,
                "path": path,
                "status": status,
                "ms": round((time.monotonic() - started) * 1e3, 3),
            }, sort_keys=True))

    # -- Routes ---------------------------------------------------------

    def _route_get(self, path: str) -> int:
        """Handle a GET; return the response status sent."""
        parts = [unquote(p) for p in path.strip("/").split("/") if p]
        if path == "/healthz":
            state = "draining" if self.supervisor.draining else "ok"
            return self._send_json({"status": state})
        if path == "/stats":
            return self._send_json(self.supervisor.stats())
        if path == "/jobs":
            return self._send_json({
                "jobs": [r.to_dict() for r in self.supervisor.jobs()]
            })
        if len(parts) == 2 and parts[0] == "jobs":
            record = self.supervisor.job(parts[1])
            if record is None:
                return self._send_json(
                    {"error": f"no such job {parts[1]!r}"}, status=404
                )
            return self._send_json(record.to_dict())
        if len(parts) == 3 and parts[0] == "artifacts":
            return self._send_artifact(parts[1], parts[2])
        return self._send_json(
            {"error": f"no such resource {path!r}"}, status=404
        )

    def _route_post(self, path: str) -> int:
        """Handle a POST; return the response status sent."""
        if urlsplit(path).path.rstrip("/") != "/jobs":
            return self._send_json(
                {"error": f"no such resource {path!r}"}, status=404
            )
        record = self.supervisor.submit(self._read_spec())
        status = 200 if record.state == "done" else 202
        return self._send_json(record.to_dict(), status=status)

    def _read_spec(self):
        """Parse and validate the submission body, loudly."""
        from repro.serve.jobs import JobSpec

        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ConfigError("job submission needs a JSON body")
        if length > MAX_BODY_BYTES:
            raise ConfigError(
                f"job submission body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte cap"
            )
        body = self.rfile.read(length)
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"job submission is not valid JSON: {exc}")
        return JobSpec.from_dict(payload)

    # -- Response helpers -----------------------------------------------

    def _send_artifact(self, kind: str, key: str) -> int:
        """Stream one validated artifact body, or a structured 404 miss.

        The body is the store's validated pickled payload — corrupt or
        missing artifacts are a 404 miss (the store's miss semantics),
        never a 500 or a torn body.
        """
        body = self.supervisor.store.payload_bytes(kind, key)
        if body is None:
            return self._send_json(
                {"error": f"no valid artifact {kind}/{key}"}, status=404
            )
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/octet-stream")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("X-Repro-Artifact", f"{kind}/{key}")
            self.end_headers()
            self.wfile.write(body)
        except OSError:  # pragma: no cover - client went away
            pass
        return 200

    def _send_json(self, payload: dict, status: int = 200) -> int:
        """Send one JSON response; return its status."""
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except OSError:  # pragma: no cover - client went away
            pass
        return status
