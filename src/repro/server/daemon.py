"""The constraint-checking daemon: asyncio, line-delimited JSON.

:class:`ReproServer` is a long-lived TCP server answering ``implies``,
``closure``, ``keys``, and ``check`` queries over the protocol of
:mod:`repro.server.protocol`.  It exists so a fleet of clients shares
one set of warm closure engines
(:class:`~repro.server.pool.EnginePool`) instead of each process paying
import and saturation on startup — the per-process caches of the
inference layer, turned into shared infrastructure.  A ``check`` runs
:func:`repro.service.check`, the stream engine ``check`` uses
in-process, built for the request and fed the bundle's JSON rows as
:func:`~repro.server.protocol.parse_bundle_payload` type-checked them.

Operational behaviour, all of it bounded and typed:

* **One thread** — every request runs to completion on the event
  loop: a query's path (bundle parse, pool lookup, the inline engine
  build, the closure batch, key sweep or check) holds no suspension
  point, so requests never interleave and the pool needs no locking.
  Under the GIL, threads would buy nothing: a query's work is Python
  bytecode, and a check moved to the loop's executor measured slower.
* **Deadlines** — with ``connection_deadline`` set, every connection
  gets a wall-clock budget; ``check`` requests thread the remaining
  time into the stream engine's cooperative
  :class:`~repro.nfd.stream_validate.ResourceBudget` (the same
  machinery ``check --stream --deadline`` uses), so even a validation
  that is mid-walk stops at the deadline and answers
  ``deadline_exceeded`` with its progress.
* **Frame bounds** — a request line beyond ``max_frame_bytes`` is
  answered with ``frame_too_large`` and the connection is closed.
* **Observability** — per-request spans when a tracer is attached,
  request/latency/eviction counters in :class:`ServerStats`
  (with p50/p99 per request type over its latest requests), and a
  ``stats`` request (or ``repro serve --metrics-json``) rendering the
  same numbers through a :class:`~repro.obs.RunReport`.

No stack trace ever crosses the wire or lands on stderr: unexpected
handler failures become ``{"error": "internal"}`` responses and a
counter tick, and the warm pool survives them.

:class:`BackgroundServer` runs the same server on a daemon thread for
tests and embedding; the CLI's ``repro serve`` runs :func:`run_server`
in the foreground with signal-driven shutdown.
"""

from __future__ import annotations

# The daemon answers `check`, so it loads the stream engine and the row
# checker at start-up, first: compiled from source inside the first
# check instead, their transient compile memory lands on top of the
# warm pool and raises the daemon's peak RSS.
from ..io import stream as _row_checker  # noqa: F401
from ..nfd.stream_validate import StreamValidator as _engine  # noqa: F401

import asyncio
import math
import threading
import time
from collections import deque
from dataclasses import dataclass

from ..analysis import minimal_keys
from ..errors import ReproError
from ..obs import RunReport, Stats, Tracer
from ..service import answer, check, parse_query
from .pool import EnginePool
from .protocol import (MAX_FRAME_BYTES, PROTOCOL_VERSION,
                       ProtocolError, decode_line, encode,
                       error_response, ok_response,
                       parse_bundle_payload)

__all__ = ["ServerConfig", "ServerStats", "ReproServer",
           "BackgroundServer", "run_server"]


@dataclass
class ServerConfig:
    """Everything ``repro serve`` can tune, in one picklable record."""

    host: str = "127.0.0.1"
    port: int = 0                     # 0 = ephemeral, report after bind
    max_sessions: int = 32            # engine-pool LRU bound
    connection_deadline: float | None = None  # seconds per connection
    max_frame_bytes: int = MAX_FRAME_BYTES
    allow_debug: bool = False         # honour ping {"sleep_ms": ...}
    allow_shutdown: bool = False      # honour the shutdown request

    def validate(self) -> None:
        if self.max_sessions < 1:
            raise ReproError("max-sessions must be at least 1")
        if self.connection_deadline is not None \
                and not self.connection_deadline >= 0:  # NaN too
            raise ReproError("deadline must be >= 0")
        if not (0 < self.port < 65536 or self.port == 0):
            raise ReproError(f"port must be 0..65535, got {self.port}")


#: The request types the daemon answers: administration, then queries.
ADMIN_TYPES = ("hello", "ping", "stats", "shutdown")
QUERY_TYPES = ("implies", "closure", "keys", "check")

#: How many of each request type's latest latencies ``latency_by_type``
#: takes its quantiles over.
LATENCY_WINDOW = 1024


def _quantile(ordered: list, q: float) -> float:
    """The nearest-rank *q* quantile (``0 < q <= 1``) of an ascending
    non-empty list."""
    return ordered[math.ceil(q * len(ordered)) - 1]


class ServerStats(Stats):
    """Cumulative counters of the daemon's lifetime activity, plus each
    request type's latest :data:`LATENCY_WINDOW` latencies, so the
    ``stats`` reply names the slow type (``latency_by_type``).
    ``sheds`` stays in the reply for existing readers and always reads
    0: the daemon sheds nothing."""

    __slots__ = ("started_at", "connections", "connections_active",
                 "requests", "by_type", "ok", "errors", "by_error",
                 "sheds", "deadline_hits", "protocol_errors",
                 "bytes_in", "bytes_out", "latency_total_ms",
                 "latency_max_ms", "recent")
    STATE = ("started_at", "connections_active", "latency_max_ms",
             "recent")
    DEFAULTS = {"started_at": time.monotonic, "by_type": dict,
                "by_error": dict, "latency_max_ms": 0.0,
                # one bounded window per request type the daemon speaks
                "recent": lambda: {kind: deque(maxlen=LATENCY_WINDOW)
                                   for kind in ADMIN_TYPES + QUERY_TYPES}}
    EXPORT = ("uptime_s", "connections", "connections_active",
              "requests", "by_type", "ok", "errors", "by_error", "sheds",
              "deadline_hits", "protocol_errors", "bytes_in",
              "bytes_out", "latency_mean_ms", "latency_max_ms",
              "latency_by_type")

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self.started_at

    @property
    def latency_mean_ms(self) -> float:
        return (self.latency_total_ms / self.requests
                if self.requests else 0.0)

    def observe(self, request_type: str, ok: bool, elapsed_ms: float,
                error_code: str | None = None) -> None:
        self.requests += 1
        # a type the daemon does not speak counts under one key, so
        # clients cannot grow the table (or the stats reply) at will
        kind = request_type if request_type in self.recent else "unknown"
        self.by_type[kind] = self.by_type.get(kind, 0) + 1
        if ok:
            self.ok += 1
        else:
            self.errors += 1
            if error_code is not None:
                self.by_error[error_code] = \
                    self.by_error.get(error_code, 0) + 1
        self.latency_total_ms += elapsed_ms
        if elapsed_ms > self.latency_max_ms:
            self.latency_max_ms = elapsed_ms
        if kind != "unknown":  # an unknown type keeps no window
            self.recent[kind].append(elapsed_ms)

    def latency_by_type(self) -> dict:
        """``{type: {p50_ms, p99_ms, count}}`` over each answered type's
        latest latencies; ``count`` is how many the window holds."""
        result = {}
        for kind, window in self.recent.items():
            if window:
                ordered = sorted(window)
                result[kind] = {"p50_ms": _quantile(ordered, 0.50),
                                "p99_ms": _quantile(ordered, 0.99),
                                "count": len(ordered)}
        return result


class ReproServer:
    """The asyncio daemon.  See the module docstring for semantics."""

    def __init__(self, config: ServerConfig | None = None, *,
                 tracer: Tracer | None = None):
        self.config = config if config is not None else ServerConfig()
        self.config.validate()
        self.tracer = tracer
        self.stats = ServerStats()
        self.pool = EnginePool(max_entries=self.config.max_sessions,
                               tracer=tracer)
        self.host: str | None = None
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stop_event: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and record the actual host/port."""
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connect, self.config.host, self.config.port,
            limit=self.config.max_frame_bytes)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]

    def request_stop(self) -> None:
        """Ask the serve loop to finish (safe from the loop thread)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def wait_stopped(self) -> None:
        await self._stop_event.wait()

    async def close(self) -> None:
        """Stop accepting and drop live connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks,
                                 return_exceptions=True)

    def report(self) -> RunReport:
        """The daemon's consolidated metrics report."""
        return (RunReport(command="serve")
                .add("server", self.stats)
                .add("pool", self.pool))

    # -- connection handling -----------------------------------------------

    async def _on_connect(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self.stats.connections += 1
        self.stats.connections_active += 1
        deadline_at = None
        if self.config.connection_deadline is not None:
            deadline_at = time.monotonic() \
                + self.config.connection_deadline
        greeted = False
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # the frame outgrew the stream limit; the buffer
                    # was discarded, so the stream position is gone —
                    # answer and close
                    self.stats.protocol_errors += 1
                    await self._send(writer, error_response(
                        None, "frame_too_large",
                        f"request line exceeds "
                        f"{self.config.max_frame_bytes} bytes"))
                    break
                if not line:
                    break  # client closed cleanly
                self.stats.bytes_in += len(line)
                if not line.strip():
                    continue
                try:
                    request = decode_line(line)
                except ProtocolError as exc:
                    self.stats.protocol_errors += 1
                    await self._send(writer, error_response(
                        None, exc.code, str(exc)))
                    if exc.close:
                        break
                    continue
                response, close, greeted = await self._dispatch(
                    request, greeted, deadline_at)
                await self._send(writer, response)
                if close:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass  # client vanished mid-stream, or the daemon is closing
        finally:
            self.stats.connections_active -= 1
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _send(self, writer: asyncio.StreamWriter,
                    response: dict) -> None:
        data = encode(response)
        self.stats.bytes_out += len(data)
        writer.write(data)
        await writer.drain()

    # -- dispatch ----------------------------------------------------------

    async def _dispatch(self, request: dict, greeted: bool,
                        deadline_at: float | None) \
            -> tuple[dict, bool, bool]:
        """One request → ``(response, close_connection, greeted)``.

        A coroutine only so the debug ``ping sleep_ms`` can suspend:
        every other request runs to completion without yielding."""
        request_id = request.get("id")
        request_type = request["type"]
        started = time.monotonic()

        def done(response: dict, close: bool = False):
            elapsed_ms = (time.monotonic() - started) * 1000.0
            code = response.get("error")
            self.stats.observe(request_type, response.get("ok", False),
                               elapsed_ms, code)
            return response, close, greeted or request_type == "hello" \
                and response.get("ok", False)

        if not greeted and request_type != "hello":
            return done(error_response(
                request_id, "handshake_required",
                'the first request must be {"type": "hello", '
                f'"version": {PROTOCOL_VERSION}}}'), close=True)
        if request_type == "hello":
            version = request.get("version")
            if version != PROTOCOL_VERSION:
                return done(error_response(
                    request_id, "version_mismatch",
                    f"server speaks protocol {PROTOCOL_VERSION}, "
                    f"client offered {version!r}",
                    server_version=PROTOCOL_VERSION), close=True)
            return done(ok_response(request_id, "hello", {
                "server": "repro",
                "protocol": PROTOCOL_VERSION,
                "types": [*ADMIN_TYPES, *QUERY_TYPES],
            }))
        if request_type == "ping":
            sleep_ms = request.get("sleep_ms", 0)
            if sleep_ms and self.config.allow_debug:
                await asyncio.sleep(sleep_ms / 1000.0)
            return done(ok_response(request_id, "ping",
                                    {"pong": True}))
        if request_type == "stats":
            return done(ok_response(request_id, "stats", {
                "server": self.stats.as_dict(),
                "pool": self.pool.as_metrics(),
            }))
        if request_type == "shutdown":
            if not self.config.allow_shutdown:
                return done(error_response(
                    request_id, "shutdown_disabled",
                    "the daemon was started without "
                    "--allow-shutdown"))
            response, close, greeted = done(ok_response(
                request_id, "shutdown", {"stopping": True}),
                close=True)
            self.request_stop()
            return response, close, greeted
        if request_type not in QUERY_TYPES:
            return done(error_response(
                request_id, "unknown_type",
                f"unknown request type {request_type!r}; this server "
                f"speaks {', '.join(ADMIN_TYPES + QUERY_TYPES)}"))

        # -- query types: run to completion, with no suspension point ----
        try:
            remaining = None
            if deadline_at is not None:
                remaining = max(0.0, deadline_at - time.monotonic())
            tracer = self.tracer
            if tracer is None:
                response = self._handle_query(
                    request_id, request_type, request, remaining)
            else:
                with tracer.span("server.request", type=request_type) \
                        as span:
                    response = self._handle_query(
                        request_id, request_type, request, remaining)
                    span.add("ok", bool(response.get("ok")))
            return done(response)
        except ProtocolError as exc:
            if exc.code == "deadline_exceeded":
                self.stats.deadline_hits += 1
            return done(error_response(request_id, exc.code, str(exc)))
        except ReproError as exc:
            return done(error_response(request_id, "invalid_query",
                                       str(exc)))
        except Exception as exc:
            # no traceback across the wire or onto stderr — the typed
            # response plus a counter is the whole fault surface
            return done(error_response(
                request_id, "internal",
                f"{type(exc).__name__}: {exc}"))

    # -- query handlers ----------------------------------------------------

    @staticmethod
    def _effective_deadline(request: dict,
                            remaining: float | None) -> float | None:
        """The request's cooperative budget: the smaller of the
        connection's remaining time and the request's own ``deadline``
        parameter (``None`` = unbounded)."""
        requested = request.get("deadline")
        if requested is not None:
            if not isinstance(requested, (int, float)) \
                    or isinstance(requested, bool) \
                    or not requested >= 0:  # NaN too
                raise ProtocolError(
                    "invalid_query",
                    f'"deadline" must be a non-negative number, got '
                    f"{requested!r}")
            remaining = requested if remaining is None \
                else min(remaining, float(requested))
        return remaining

    def _handle_query(self, request_id, request_type: str,
                      request: dict, remaining: float | None) -> dict:
        """Parse and answer through :mod:`repro.service`: closures as
        one batch and keys as one sweep on the entry's warm engine
        (trimmed to the pool's bound afterwards), checks through
        :func:`~repro.service.check`."""
        deadline = self._effective_deadline(request, remaining)
        if "bundle" not in request:
            raise ProtocolError(
                "invalid_query",
                f'"{request_type}" requires a "bundle" object')
        schema, sigma, rows, spec = parse_bundle_payload(request["bundle"])
        entry = self.pool.entry_for(schema, sigma, spec)
        if request_type != "check" and deadline is not None \
                and deadline <= 0:
            raise ProtocolError("deadline_exceeded",
                                "the connection deadline has expired")
        query = parse_query(request_type, request, entry.schema, rows)
        if request_type != "check":
            try:
                if request_type == "keys":
                    engine = self.pool.session_for(entry)
                    outcome = minimal_keys(entry.schema, entry.sigma,
                                           query.relation, engine=engine,
                                           nonempty=entry.nonempty)
                else:
                    outcome = self.pool.closure_batch(
                        entry, query.closures)
            finally:
                self.pool.trim(entry)
        else:
            # a deadline stops the stream engine's walk cooperatively,
            # mid-stream
            outcome = check(entry.schema, entry.sigma, rows,
                            deadline=deadline, tracer=self.tracer)
            self.pool.stats.validator_builds += 1
            if outcome.budget_exhausted is not None \
                    and not outcome.violations:
                raise ProtocolError(
                    "deadline_exceeded",
                    f"deadline expired after {outcome.elements_seen} "
                    f"element(s); verdict unknown")
        return ok_response(request_id, request_type,
                           answer(query, outcome,
                                  bounded=deadline is not None))


# ---------------------------------------------------------------- embedding


async def _serve(server: ReproServer, ready) -> None:
    """Start *server*, call ``ready(server)`` once it is bound, serve
    until :meth:`ReproServer.request_stop`, then close it."""
    await server.start()
    ready(server)
    try:
        await server.wait_stopped()
    finally:
        await server.close()


class BackgroundServer:
    """A daemon on a background thread, for tests and embedding.

    ::

        with BackgroundServer(ServerConfig(allow_debug=True)) as bg:
            client = ReproClient(bg.host, bg.port)

    ``start`` blocks until the listener is bound (so ``host``/``port``
    are real), and ``stop`` blocks until the loop thread has exited —
    no sleeps, no races.
    """

    def __init__(self, config: ServerConfig | None = None, *,
                 tracer: Tracer | None = None):
        self.server = ReproServer(config, tracer=tracer)
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._startup_error: BaseException | None = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self, timeout: float = 10.0) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._main,
                                        name="repro-server",
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ReproError("server thread did not start in time")
        if self._startup_error is not None:
            raise ReproError(
                f"server failed to start: {self._startup_error}")
        return self

    def _main(self) -> None:
        try:
            asyncio.run(_serve(self.server, self._on_ready))
        except Exception as exc:
            if self._ready.is_set():
                raise
            self._startup_error = exc  # start() reports it
            self._ready.set()

    def _on_ready(self, server: ReproServer) -> None:
        self._loop = asyncio.get_running_loop()
        self._ready.set()

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread is None:
            return
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(
                    self.server.request_stop)
            except RuntimeError:  # loop already gone
                pass
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - watchdog
            raise ReproError("server thread did not stop in time")
        self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def run_server(config: ServerConfig, *, tracer: Tracer | None = None,
               ready=None) -> RunReport:
    """Run a daemon in the foreground until SIGINT/SIGTERM.

    *ready* (a callable receiving the server) fires after the listener
    is bound — the CLI uses it to print the readiness line holding the
    actual ephemeral port.  Returns the final metrics report.
    """
    import signal

    server = ReproServer(config, tracer=tracer)

    def on_ready(server: ReproServer) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_stop)
            except (NotImplementedError, RuntimeError):
                # platforms without signal handler support fall back
                # to KeyboardInterrupt propagation
                pass
        if ready is not None:
            ready(server)

    try:
        asyncio.run(_serve(server, on_ready))
    except KeyboardInterrupt:  # pragma: no cover - fallback path
        pass
    return server.report()
