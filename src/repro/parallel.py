"""Process-parallel fan-out for the normalization sweep.

``normalize --sweep N --jobs J`` synthesizes a design for each of N
generated schemas: *independent* tasks that all consult one shared,
read-only context (the sweep's generator settings).
:func:`process_map` is its fan-out primitive:

* **per-process setup**: each worker process runs ``setup(payload)``
  exactly once (a :class:`~concurrent.futures.ProcessPoolExecutor`
  initializer) and caches the result — the expensive compilation
  (engine construction, plan compilation) happens once per *process*,
  not once per task;
* **pickle-safe payloads**: the payload and the task items cross the
  process boundary, so callers pass serializable specs (bundle-JSON
  strings, path/NFD texts, tuples) rather than live engines;
* **deterministic ordering**: results come back in task order
  (``Executor.map`` semantics), so parallel runs are byte-identical to
  serial runs;
* **serial fallback**: with ``jobs <= 1``, or fewer than
  :data:`PARALLEL_THRESHOLD` tasks (process startup would dominate),
  the same ``setup``/``func`` pair runs inline in the calling process —
  one code path to test, identical answers by construction.
"""

from __future__ import annotations

import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Sequence

__all__ = ["process_map", "RemoteTraceback", "PARALLEL_THRESHOLD"]

#: Below this many tasks a process pool costs more than it saves.
PARALLEL_THRESHOLD = 4

# Per-worker-process context, built once by _initialize.
_CONTEXT: Any = None


class RemoteTraceback(Exception):
    """Carries a worker process's formatted traceback to the caller.

    A pickled exception loses its ``__traceback__`` crossing the
    process boundary, so a worker failure would otherwise surface with
    only the parent's re-raise frames.  :func:`process_map` chains the
    original exception ``from`` one of these, putting the remote stack
    in the caller's error report.
    """

    def __str__(self) -> str:
        return f"\n\n(remote worker traceback)\n{self.args[0]}"


def _initialize(setup: Callable[[Any], Any], payload: Any) -> None:
    global _CONTEXT
    _CONTEXT = setup(payload)


def _invoke(task: tuple[Callable[[Any, Any], Any], Any]) -> Any:
    func, item = task
    try:
        return func(_CONTEXT, item)
    except BaseException as exc:
        # Exception attributes survive pickling; the traceback object
        # itself does not.  Capture the formatted stack here so the
        # parent can chain it into its re-raise.
        exc._worker_traceback = traceback.format_exc()
        raise


def process_map(setup: Callable[[Any], Any], payload: Any,
                func: Callable[[Any, Any], Any], items: Iterable[Any],
                jobs: int = 1, *,
                chunksize: int | None = None) -> list[Any]:
    """Map ``func(context, item)`` over *items*, possibly in parallel.

    ``context = setup(payload)`` is built once per worker process (or
    once inline on the serial path).  *payload*, *items*, and the
    results must be picklable; *setup* and *func* must be module-level
    functions.  Results are returned in item order regardless of which
    worker finished first, so callers are deterministic by
    construction.

    Serial execution is chosen when ``jobs <= 1`` or when there are
    fewer than :data:`PARALLEL_THRESHOLD` items; both paths run the
    exact same ``setup``/``func`` code.
    """
    work: Sequence[Any] = list(items)
    if jobs <= 1 or len(work) < PARALLEL_THRESHOLD:
        context = setup(payload)
        return [func(context, item) for item in work]
    workers = min(jobs, len(work))
    if chunksize is None:
        chunksize = max(1, len(work) // (workers * 4))
    with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_initialize, initargs=(setup, payload),
    ) as pool:
        try:
            return list(pool.map(_invoke,
                                 [(func, item) for item in work],
                                 chunksize=chunksize))
        except BaseException as exc:
            remote = getattr(exc, "_worker_traceback", None)
            if remote is not None:
                raise exc from RemoteTraceback(remote)
            raise
