"""Client/server split: the constraint-checking daemon and its client.

The per-process engines of the inference and validation layers —
warm :class:`~repro.inference.ImplicationSession` query state,
compiled :class:`~repro.nfd.ValidatorEngine` plans, dense kernel
tables — are fast once warm, but every fresh process pays the warm-up
again.  This package turns them into *fleet-shared* infrastructure:

* :mod:`repro.server.protocol` — the line-delimited JSON wire format
  (versioned ``hello`` handshake, explicit ``id`` correlation, typed
  error responses);
* :mod:`repro.server.pool` — the bounded LRU of warm implication
  sessions keyed by Σ fingerprint, each built on first use;
* :mod:`repro.server.daemon` — the single-threaded asyncio server:
  every request runs to completion on the event loop, under
  cooperative deadlines riding the stream engine's
  :class:`~repro.nfd.stream_validate.ResourceBudget`, with full
  observability through :mod:`repro.obs`;
* :mod:`repro.server.client` — the thin synchronous client the CLI's
  ``repro client`` verbs and ``--server`` passthrough use.

CLI entry points: ``repro serve`` runs the daemon; ``repro client
ping|stats|shutdown`` administer it; ``check`` / ``implies`` /
``closure`` / ``keys`` accept ``--server HOST:PORT`` to answer through
a daemon instead of in-process, with identical stdout and exit codes.
"""

from .. import _lazy

__all__ = _lazy.exports(__name__, {
    "client": "ClientError ReproClient ServerError parse_endpoint",
    "daemon": (
        "BackgroundServer ReproServer ServerConfig ServerStats "
        "run_server"
    ),
    "pool": "EnginePool PoolEntry PoolStats",
    "protocol": "DEFAULT_PORT MAX_FRAME_BYTES PROTOCOL_VERSION ProtocolError",
})
