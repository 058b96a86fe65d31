"""Nested normalization: design quality and session-vs-fresh cost.

``repro normalize`` (see :mod:`repro.design.synthesize`) turns a flat
relation plus its NFDs into a nested design: minimal cover, 3NF-style
nest candidates, scoring by local enforceability and residual BCNF
redundancy, and a dependency-preservation verdict for the winner.  Two
acceptance gates:

* ``test_preservation_gate`` — on the deterministic 50-schema sweep
  (``--sweep 50`` in the CLI), at least **95% of the winning designs
  must preserve their Sigma** and every round-trip validation (nest a
  generated satisfying instance, re-check the carried NFDs) must be
  clean.
* ``test_synthesis_session_gate`` — running the same sweep through one
  memoized :class:`~repro.inference.ImplicationSession` per phase must
  cost **at least 2x fewer rule applications** (engine attempt/scan
  counters) than the pre-session fresh-engine shape, on identical
  designs.

Both record their numbers into the session-wide ``gate_metrics``
registry; ``design.schemas_per_sec`` is the throughput gauge the
nightly ``--compare`` run checks against the committed
``BENCH_design.json`` snapshot.
"""

import time

from repro.design import sweep_normalize

#: The sweep the gates and the CLI acceptance run share.
SWEEP = 50
SEED = 0


def _records_sans_cost(summary):
    """Sweep records with the cost counter removed — what 'identical
    designs' means across inference modes."""
    return [{key: value for key, value in record.items()
             if key != "rule_applications"}
            for record in summary.records]


def test_preservation_gate(gate_metrics, report):
    """Gate: >=95% of designs preserve Sigma; clean round-trips."""
    start = time.perf_counter()
    summary = sweep_normalize(SWEEP, seed=SEED, mode="session")
    elapsed = time.perf_counter() - start

    gauges = gate_metrics
    gauges.gauge("design.schemas").set(summary.count)
    gauges.gauge("design.preserved_rate").set(summary.preserved_rate)
    gauges.gauge("design.nested_plans").set(summary.nested_plans)
    gauges.gauge("design.bcnf_violations_flat").set(
        summary.violations_flat)
    gauges.gauge("design.bcnf_violations").set(summary.violations)
    gauges.gauge("design.roundtrip_ok").set(summary.roundtrip_ok)
    gauges.gauge("design.roundtrip_violations").set(
        summary.roundtrip_violations)
    gauges.gauge("design.schemas_per_sec").set(
        summary.count / max(elapsed, 1e-9))

    rate = gauges.gauge("design.preserved_rate").value
    report(
        "normalization sweep",
        f"{summary.count} flat schemas normalized in {elapsed:.2f}s "
        f"({gauges.gauge('design.schemas_per_sec').value:.1f}/s); "
        f"{summary.preserved_count} preserved ({rate:.1%}), "
        f"{summary.nested_plans} nested plans, BCNF violations "
        f"{summary.violations_flat} flat -> {summary.violations} "
        f"designed, round-trips ok={summary.roundtrip_ok} "
        f"violations={summary.roundtrip_violations}")
    assert summary.ok(min_preserved=0.95), (
        f"preservation rate {rate:.1%} < 95% or dirty round-trips "
        f"({summary.roundtrip_violations} violation(s))")


def test_synthesis_session_gate(gate_metrics, report):
    """Gate: >=2x fewer rule applications than fresh engines."""
    session_summary = sweep_normalize(SWEEP, seed=SEED, mode="session")
    fresh_summary = sweep_normalize(SWEEP, seed=SEED, mode="fresh")
    assert _records_sans_cost(session_summary) == \
        _records_sans_cost(fresh_summary), \
        "session and fresh modes disagree on a design"

    session_rules = session_summary.rule_applications
    fresh_rules = fresh_summary.rule_applications
    gauges = gate_metrics
    gauges.gauge("design.session_rules").set(session_rules)
    gauges.gauge("design.fresh_rules").set(fresh_rules)
    gauges.gauge("design.rule_ratio").set(
        fresh_rules / max(session_rules, 1))

    ratio = gauges.gauge("design.rule_ratio").value
    report(
        "session vs fresh synthesis",
        f"{SWEEP} schemas: {session_rules} rule applications through "
        f"memoized sessions vs {fresh_rules} with per-query fresh "
        f"engines ({ratio:.2f}x fewer); identical designs")
    assert session_rules * 2 <= fresh_rules, (
        f"session spent {session_rules} rule applications, fresh "
        f"engines spent {fresh_rules}: ratio {ratio:.2f} < 2")


def test_session_sweep(benchmark):
    benchmark.group = "normalization sweep"

    def run():
        return sweep_normalize(20, seed=SEED, mode="session")

    summary = benchmark(run)
    assert summary.count == 20


def test_fresh_sweep(benchmark):
    benchmark.group = "normalization sweep"

    def run():
        return sweep_normalize(20, seed=SEED, mode="fresh")

    summary = benchmark(run)
    assert summary.count == 20
