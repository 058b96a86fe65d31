"""The traced run's span recorder and the layer table it wraps.

Untraced runs never import this module's wrappers into the program:
:func:`install` is the only thing that patches ``repro``, and only the
traced run calls it.  Each wrapper records one span — name, start, end,
parent span — around a call into a layer's public entry point; an
iterator-returning entry point is timed per ``next()``.  Spans stay in
memory until the run ends.

The parent of a span is the innermost open span of the same thread or
asyncio task (a :class:`contextvars.ContextVar`), so daemon requests
interleaved on one event loop keep separate span trees.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import sys
import time

from .stats import self_times, union_length

#: Spans that delimit one operation of a workload; everything else is a
#: layer span.  A layer span's time counts as covered, an operation's
#: time outside every layer span is reported as ``other``.
OP_SPANS = ("cli.main", "cli.process", "server.request")


class SpanRecorder:
    """In-memory spans ``(id, name, start, end, parent)`` of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span",
                                               default=None)

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called *name*."""
        parent = self._current.get()
        span_id = next(self._ids)
        token = self._current.set(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append((span_id, name, start, end, parent))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def wrap_async(self, name: str, fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            parent = self._current.get()
            span_id = next(self._ids)
            token = self._current.set(span_id)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._current.reset(token)
                self.spans.append((span_id, name, start, end, parent))
        return wrapper

    def wrap_iter(self, name: str, fn):
        """Wrap an iterator-returning *fn*: one span per ``next()``."""
        recorder = self

        class _Timed:
            __slots__ = ("_inner",)

            def __init__(self, inner):
                self._inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                return recorder.call(name, next, self._inner)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _Timed(iter(fn(*args, **kwargs)))
        return wrapper

    def adopt(self, spans, parent: int) -> None:
        """Merge another process's spans (same monotonic clock) under
        the span *parent*, renumbering their ids."""
        fresh = {span[0]: next(self._ids) for span in spans}
        for span_id, name, start, end, span_parent in spans:
            self.spans.append((fresh[span_id], name, start, end,
                               fresh.get(span_parent, parent)))

    def current(self) -> int | None:
        """The innermost open span of this thread or task."""
        return self._current.get()


class Counters:
    """Counters read from the program's public stats objects.

    The wrappers register every engine, session and store the program
    creates; :meth:`snapshot` sums their cumulative stats, so a window's
    counts are the difference of two snapshots.  :meth:`release` folds
    the registered objects' counts into totals and drops them, so a
    long window does not keep every finished operation's engines alive.
    """

    def __init__(self):
        self.validators: list = []
        self.sessions: list = []
        self.stores: list = []
        self.released = dict.fromkeys(
            ("plan_compilations", "session_queries", "session_hits",
             "mask_tests", "store_stale", "store_errors"), 0)
        self.stream = {"elements_seen": 0, "rows_emitted": 0, "spills": 0,
                       "rows_spilled": 0, "bytes_spilled": 0,
                       "runs_merged": 0, "intern_hits": 0,
                       "intern_misses": 0}
        self.peak_resident_rows = 0
        self.rows_persisted = 0
        self.resumed_rows_persisted = 0
        self.resumed_elements = 0
        self.synthesized = 0
        self.candidates = 0

    def fold_stream(self, stats) -> None:
        for name in self.stream:
            self.stream[name] += getattr(stats, name)
        self.peak_resident_rows = max(self.peak_resident_rows,
                                      stats.peak_resident_rows)

    def _registered(self) -> dict:
        engines = {id(s.engine): s.engine for s in self.sessions}
        return {
            "plan_compilations": sum(v.stats.plan_compilations
                                     for v in self.validators),
            "session_queries": sum(s.stats.queries for s in self.sessions),
            "session_hits": sum(s.stats.hits for s in self.sessions),
            "mask_tests": sum(e.stats.mask_tests for e in engines.values()),
            "store_stale": sum(s.stats.stale for s in self.stores),
            "store_errors": sum(s.stats.errors for s in self.stores),
        }

    def release(self) -> None:
        for name, value in self._registered().items():
            self.released[name] += value
        self.validators.clear()
        self.sessions.clear()
        self.stores.clear()

    def snapshot(self) -> dict:
        from repro.inference.closure import engine_counters

        global_counts = engine_counters()
        data = dict(self.stream)
        for name, value in self._registered().items():
            data[name] = self.released[name] + value
        data.update(
            rule_attempts=global_counts["attempts"],
            saturations=global_counts["saturations"],
            peak_resident_rows=self.peak_resident_rows,
            rows_persisted=self.rows_persisted,
            resumed_rows_persisted=self.resumed_rows_persisted,
            resumed_elements=self.resumed_elements,
            synthesized=self.synthesized,
            candidates=self.candidates,
        )
        return data


def _patch_name(original, replacement) -> None:
    """Rebind *original* to *replacement* in every ``repro`` module that
    holds it, so call sites that imported the name directly see it."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _register_init(cls, name: str, recorder: SpanRecorder, registry):
    original = cls.__init__

    @functools.wraps(original)
    def __init__(self, *args, **kwargs):
        recorder.call(name, original, self, *args, **kwargs)
        registry.append(self)
    cls.__init__ = __init__


def install(recorder: SpanRecorder, counters: Counters) -> None:
    """Wrap every layer entry point the per-layer metrics name.

    ``repro.cli`` and the layers it imports are always wrapped; the
    store, design and server layers only when already imported, so a
    traced fresh process pays no import it would not pay untraced.
    """
    import repro.cli  # noqa: F401 - binds the names patched below

    _install_core(recorder, counters)
    if "repro.store" in sys.modules:
        _install_store(recorder, counters)
    if "repro.design" in sys.modules:
        _install_design(recorder, counters)
    if "repro.server" in sys.modules:
        _install_server(recorder)


def _install_core(rec: SpanRecorder, counters: Counters) -> None:
    import repro.analysis
    import repro.io
    import repro.values
    from repro.inference import ImplicationSession
    from repro.nfd import ValidatorEngine, Violation
    from repro.nfd.stream_validate import StreamValidator

    _patch_name(repro.io.iter_jsonl_elements,
                rec.wrap_iter("io.jsonl_next",
                              repro.io.iter_jsonl_elements))
    _patch_name(repro.io.load_bundle,
                rec.wrap("io.load_bundle", repro.io.load_bundle))
    _patch_name(repro.io.load_spec,
                rec.wrap("io.load_bundle", repro.io.load_spec))
    Violation.describe = rec.wrap("nfd.describe", Violation.describe)
    _patch_name(repro.values.check_instance,
                rec.wrap("values.check_instance",
                         repro.values.check_instance))
    _register_init(ValidatorEngine, "nfd.plan_compile", rec,
                   counters.validators)
    ValidatorEngine.validate = rec.wrap("nfd.validate",
                                        ValidatorEngine.validate)
    StreamValidator.consume = rec.wrap("nfd.consume",
                                       StreamValidator.consume)
    finalize = StreamValidator.finalize

    def finalize_and_count(self, *args, **kwargs):
        result = rec.call("nfd.finalize", finalize, self, *args, **kwargs)
        counters.fold_stream(result.stats)
        return result
    StreamValidator.finalize = functools.wraps(finalize)(finalize_and_count)
    # checkpoint import/export are store-layer work done by the engine
    StreamValidator.import_tables = rec.wrap(
        "store.checkpoint_import", StreamValidator.import_tables)
    StreamValidator.export_tables = rec.wrap(
        "store.checkpoint_export", StreamValidator.export_tables)
    _register_init(ImplicationSession, "inference.session_build", rec,
                   counters.sessions)
    for method in ("closure_batch", "covers_batch"):
        setattr(ImplicationSession, method, rec.wrap(
            "inference.closure_batch", getattr(ImplicationSession, method)))
    for method in ("implies", "closure"):
        setattr(ImplicationSession, method, rec.wrap(
            "inference.query", getattr(ImplicationSession, method)))
    _patch_name(repro.analysis.minimal_keys,
                rec.wrap("analysis.minimal_keys",
                         repro.analysis.minimal_keys))
    _patch_name(repro.analysis.minimal_cover,
                rec.wrap("analysis.minimal_cover",
                         repro.analysis.minimal_cover))


def _install_store(rec: SpanRecorder, counters: Counters) -> None:
    import repro.store
    from repro.store import CacheStore

    CacheStore.get_stream_source = rec.wrap(
        "store.checkpoint_read", CacheStore.get_stream_source)
    CacheStore.iter_stream_groups = rec.wrap_iter(
        "store.checkpoint_read", CacheStore.iter_stream_groups)
    put = CacheStore.put_stream_source

    def put_and_count(self, source_id, *, groups, **kwargs):
        groups = list(groups)
        counters.rows_persisted += sum(len(rows) for _, rows in groups)
        return rec.call("store.checkpoint_write", put, self, source_id,
                        groups=groups, **kwargs)
    CacheStore.put_stream_source = functools.wraps(put)(put_and_count)
    _register_init(CacheStore, "store.open", rec, counters.stores)
    incremental = repro.store.incremental_stream_validate

    def incremental_and_count(*args, **kwargs):
        before = counters.rows_persisted
        result, info = rec.call("store.incremental", incremental,
                                *args, **kwargs)
        if info["mode"] == "resumed":
            counters.resumed_rows_persisted += \
                counters.rows_persisted - before
            counters.resumed_elements += info["elements_folded"]
        return result, info
    _patch_name(incremental, functools.wraps(incremental)(
        incremental_and_count))


def _install_design(rec: SpanRecorder, counters: Counters) -> None:
    import repro.design
    from repro.generators import (random_design_sigma, random_flat_schema,
                                  random_satisfying_instance)

    # the sweep generates each schema, its Σ and a round-trip instance
    for generate in (random_flat_schema, random_design_sigma,
                     random_satisfying_instance):
        _patch_name(generate, rec.wrap("generators.sweep_input", generate))
    synthesize = repro.design.synthesize_design

    def synthesize_and_count(*args, **kwargs):
        report = rec.call("design.synthesize", synthesize, *args, **kwargs)
        counters.synthesized += 1
        counters.candidates += report.candidates
        return report
    _patch_name(synthesize, functools.wraps(synthesize)(
        synthesize_and_count))


def _install_server(rec: SpanRecorder) -> None:
    import repro.server.daemon  # noqa: F401 - binds the names below
    from repro.server import protocol
    from repro.server.daemon import ReproServer
    from repro.server.pool import EnginePool

    _patch_name(protocol.parse_bundle_payload,
                rec.wrap("server.bundle_parse",
                         protocol.parse_bundle_payload))
    _patch_name(protocol.decode_line,
                rec.wrap("server.frame_codec", protocol.decode_line))
    _patch_name(protocol.encode,
                rec.wrap("server.frame_codec", protocol.encode))
    EnginePool.entry_for = rec.wrap("server.pool_lookup",
                                    EnginePool.entry_for)
    ReproServer._dispatch = rec.wrap_async("server.request",
                                           ReproServer._dispatch)


def intersection_length(a, b) -> float:
    """Length of ``union(a) ∩ union(b)`` for two interval collections."""
    return union_length(a) + union_length(b) - union_length(list(a) + list(b))


def layer_report(spans, ops: int) -> tuple[dict[str, float], float, float]:
    """``(self seconds per op by span name, op wall seconds, covered
    seconds)`` of one traced window.

    The wall is the union of operation spans less the tracer's own
    ``trace.*`` spans; covered is the part of it during which some layer
    span was open.
    """
    own = self_times(spans)
    per_name: dict[str, float] = {}
    for span_id, name, _start, _end, _parent in spans:
        per_name[name] = per_name.get(name, 0.0) + own[span_id]
    op_intervals = [(s, e) for _, n, s, e, _ in spans if n in OP_SPANS]
    tracer_intervals = [(s, e) for _, n, s, e, _ in spans
                        if n.startswith("trace.")]
    layer_intervals = [(s, e) for _, n, s, e, _ in spans
                       if n not in OP_SPANS and not n.startswith("trace.")]
    wall = union_length(op_intervals) \
        - intersection_length(op_intervals, tracer_intervals)
    covered = intersection_length(op_intervals, layer_intervals)
    return ({name: total / max(ops, 1) for name, total in per_name.items()},
            wall, covered)


#: Every per-layer metric: ``(name, unit, better, source)``.  *source*
#: is a span name (self seconds per operation) or ``None`` for a metric
#: derived from counters in :func:`per_layer_metrics`.
PER_LAYER = (
    ("io.jsonl_parse_s", "s/op", "lower", "io.jsonl_next"),
    ("io.jsonl_lines_per_s", "1/s", "higher", None),
    ("io.bundle_load_s", "s/op", "lower", "io.load_bundle"),
    ("values.intern_hit_ratio", "ratio", "higher", None),
    ("values.check_instance_s", "s/op", "lower", "values.check_instance"),
    ("nfd.plan_compile_s", "s/op", "lower", "nfd.plan_compile"),
    ("nfd.consume_s", "s/op", "lower", "nfd.consume"),
    ("nfd.finalize_s", "s/op", "lower", "nfd.finalize"),
    ("nfd.rows_emitted", "count/op", "lower", None),
    ("nfd.spills", "count/op", "lower", None),
    ("nfd.rows_spilled", "count/op", "lower", None),
    ("nfd.spill_bytes_per_row", "B/row", "lower", None),
    ("nfd.runs_merged", "count/op", "lower", None),
    ("nfd.peak_resident_rows", "count", "lower", None),
    ("nfd.validate_s", "s/op", "lower", "nfd.validate"),
    ("nfd.describe_s", "s/op", "lower", "nfd.describe"),
    ("nfd.plan_compilations", "count/op", "lower", None),
    ("store.open_s", "s/op", "lower", "store.open"),
    ("store.scan_s", "s/op", "lower", "store.incremental"),
    ("store.checkpoint_read_s", "s/op", "lower", "store.checkpoint_read"),
    ("store.checkpoint_import_s", "s/op", "lower",
     "store.checkpoint_import"),
    ("store.checkpoint_export_s", "s/op", "lower",
     "store.checkpoint_export"),
    ("store.checkpoint_write_s", "s/op", "lower", "store.checkpoint_write"),
    ("store.groups_rewritten_per_folded_element", "ratio", "lower", None),
    ("store.stale", "count/op", "lower", None),
    ("store.errors", "count/op", "lower", None),
    ("inference.session_build_s", "s/op", "lower",
     "inference.session_build"),
    ("inference.closure_batch_s", "s/op", "lower", "inference.closure_batch"),
    ("inference.query_s", "s/op", "lower", "inference.query"),
    ("inference.rule_attempts", "count/op", "lower", None),
    ("inference.saturations", "count/op", "lower", None),
    ("inference.mask_tests", "count/op", "lower", None),
    ("inference.memo_hit_ratio", "ratio", "higher", None),
    ("analysis.minimal_keys_s", "s/op", "lower", "analysis.minimal_keys"),
    ("analysis.minimal_cover_s", "s/op", "lower", "analysis.minimal_cover"),
    ("design.synthesize_s", "s/op", "lower", "design.synthesize"),
    ("generators.sweep_input_s", "s/op", "lower",
     "generators.sweep_input"),
    ("design.candidates_per_schema", "count", "lower", None),
    ("server.bundle_parse_s", "s/op", "lower", "server.bundle_parse"),
    ("server.frame_codec_s", "s/op", "lower", "server.frame_codec"),
    ("server.pool_lookup_s", "s/op", "lower", "server.pool_lookup"),
    ("server.pool_hit_ratio", "ratio", "higher", None),
    ("server.evictions", "count/op", "lower", None),
    ("server.session_builds", "count/op", "lower", None),
    ("server.validator_builds", "count/op", "lower", None),
    ("server.coalesced_builds", "count/op", "lower", None),
    ("server.batch_size_mean", "count", "higher", None),
    ("server.service_ms_mean", "ms", "lower", None),
    ("server.wait_ms", "ms", "lower", None),
    ("server.sheds", "count/op", "lower", None),
    ("cli.interpreter_s", "s/op", "lower", "cli.interpreter"),
    ("cli.import_s", "s/op", "lower", "cli.import"),
    ("cli.dispatch_s", "s/op", "lower", "cli.main"),
    ("trace.ops", "count", "higher", None),
    ("trace.wall_s", "s", "lower", None),
    ("trace.layer_share", "ratio", "higher", None),
    ("trace.other_s", "s/op", "lower", None),
    ("trace.overhead_ratio", "ratio", "lower", None),
    ("fail_ratio", "ratio", "lower", None),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(spans, ops: int, counts: dict, server: dict | None,
                      *, overhead: float, fail_ratio: float,
                      client_p50_ms: float = 0.0) -> dict[str, float]:
    """Every :data:`PER_LAYER` value of one traced window.

    *counts* is a :meth:`Counters.snapshot` difference over the window,
    *server* the difference of two daemon ``stats`` replies (``None``
    when no daemon ran).
    """
    self_per_op, wall, covered = layer_report(spans, ops)
    per_op = 1.0 / max(ops, 1)
    c = counts
    values = {
        "io.jsonl_lines_per_s": _ratio(
            c["elements_seen"],
            self_per_op.get("io.jsonl_next", 0.0) * max(ops, 1)),
        "values.intern_hit_ratio": _ratio(
            c["intern_hits"], c["intern_hits"] + c["intern_misses"]),
        "nfd.rows_emitted": c["rows_emitted"] * per_op,
        "nfd.spills": c["spills"] * per_op,
        "nfd.rows_spilled": c["rows_spilled"] * per_op,
        "nfd.spill_bytes_per_row": _ratio(c["bytes_spilled"],
                                          c["rows_spilled"]),
        "nfd.runs_merged": c["runs_merged"] * per_op,
        "nfd.peak_resident_rows": c["peak_resident_rows"],
        "nfd.plan_compilations": c["plan_compilations"] * per_op,
        "store.groups_rewritten_per_folded_element": _ratio(
            c["resumed_rows_persisted"], c["resumed_elements"]),
        "store.stale": c["store_stale"] * per_op,
        "store.errors": c["store_errors"] * per_op,
        "inference.rule_attempts": c["rule_attempts"] * per_op,
        "inference.saturations": c["saturations"] * per_op,
        "inference.mask_tests": c["mask_tests"] * per_op,
        "inference.memo_hit_ratio": _ratio(c["session_hits"],
                                           c["session_queries"]),
        "design.candidates_per_schema": _ratio(c["candidates"],
                                               c["synthesized"]),
        "trace.ops": ops,
        "trace.wall_s": wall,
        "trace.layer_share": _ratio(covered, wall),
        "trace.other_s": (wall - covered) * per_op,
        "trace.overhead_ratio": overhead,
        "fail_ratio": fail_ratio,
    }
    server = server or {}
    pool_lookups = server.get("hits", 0) + server.get("misses", 0)
    service_ms = _ratio(server.get("latency_total_ms", 0.0),
                        server.get("latency_count", 0))
    values.update({
        "server.pool_hit_ratio": _ratio(server.get("hits", 0),
                                        pool_lookups),
        "server.evictions": server.get("evictions", 0) * per_op,
        "server.session_builds": server.get("session_builds", 0) * per_op,
        "server.validator_builds": server.get("validator_builds", 0)
        * per_op,
        "server.coalesced_builds": server.get("coalesced_builds", 0)
        * per_op,
        "server.batch_size_mean": _ratio(server.get("batched_queries", 0),
                                         server.get("batches", 0)),
        "server.service_ms_mean": service_ms,
        "server.wait_ms": client_p50_ms - service_ms if server else 0.0,
        "server.sheds": server.get("sheds", 0) * per_op,
    })
    for name, _unit, _better, source in PER_LAYER:
        if source is not None:
            values[name] = self_per_op.get(source, 0.0)
    return values


def counts_delta(before: dict, after: dict) -> dict:
    """*after* minus *before*, except the high-water mark, which is
    the later reading."""
    delta = {name: after[name] - before[name] for name in after}
    delta["peak_resident_rows"] = after["peak_resident_rows"]
    return delta
