"""Property tests for the nested normalization pipeline.

Three families of randomized evidence back ``repro normalize``:

* **Round-trip soundness** — nesting a flat instance that satisfies
  Sigma by the winning plan yields a nested instance on which every
  carried NFD (and every structural NFD) holds, in the plain Section
  3.1 reading and with a fully-gated ``NonEmptySpec``.
* **Preservation honesty** — the report's ``preserved`` verdict equals
  a brute-force re-derivation: rebuild the enforced constraint set
  from the winner's :class:`~repro.design.PlanReport` (top-level
  placements, per-set local forms, structural NFDs) and ask the
  naive reference saturation of one fresh engine per carried
  dependency.  The report's cover equals the drop-one minimal cover
  computed over the same reference saturation.
* **Sweep determinism** — ``sweep_normalize(..., jobs=2)`` renders
  byte-identically to the serial sweep, and ``normalize --sweep``
  prints the same bytes under different hash seeds, so CI gate
  numbers cannot depend on worker scheduling or set iteration order.

A deterministic seed sweep guarantees the advertised case count (the
acceptance bar is >= 200 randomized cases across the families)
independent of hypothesis profiles; a hypothesis wrapper adds
shrinking on failure.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design import DependencyPlacement, sweep_normalize, synthesize_design
from repro.generators import (
    random_design_sigma,
    random_flat_schema,
    random_satisfying_instance,
)
from repro.inference import ClosureEngine, NonEmptySpec
from repro.inference.armstrong import nfd_to_fd
from repro.nfd import ValidatorEngine

ROUNDTRIP_SEEDS = 60
PRESERVATION_SEEDS = 60
GATED_PRESERVATION_SEEDS = 30
SWEEP_SEEDS = 5
SWEEP_SIZE = 6


def _draw(seed: int):
    rng = random.Random(seed)
    schema = random_flat_schema(rng, max_fields=5)
    sigma = random_design_sigma(rng, schema, fallback_count=4)
    return rng, schema, sigma


def _check_roundtrip(seed: int, gated: bool) -> None:
    rng, schema, sigma = _draw(seed)
    instance = random_satisfying_instance(rng, schema, sigma,
                                          tuples=3, domain=2)
    if instance is None:
        return  # generator gave up on this Sigma; seed still counts
    spec = NonEmptySpec.all_nonempty() if gated else None
    report = synthesize_design(schema, sigma, nonempty=spec,
                               instance=instance)
    assert report.roundtrip == "ok", \
        (seed, report.roundtrip, report.to_text())
    # the same fact, checked without going through _roundtrip: the
    # nested value satisfies every carried and structural NFD
    nested = report.plan.apply_instance(instance)
    validator = ValidatorEngine(nested.schema,
                                report.plan_report.all_nfds())
    assert validator.check(nested), (seed, report.to_text())


def _brute_force_preserved(report) -> bool:
    """Re-derive the preservation verdict from first principles.

    The enforced set is what a per-set checker maintains: top-level
    carried NFDs verbatim, each deep placement's local form when one
    exists, and the structural NFDs nesting induces.  The design
    preserves Sigma iff that set implies every carried dependency —
    the naive reference saturation of one fresh engine per query,
    sharing nothing with the session machinery under test.
    """
    plan_report = report.plan_report
    enforced = []
    for placement in plan_report.placements:
        if placement.kind == DependencyPlacement.TOP:
            enforced.append(placement.nfd)
        else:
            local = plan_report.local_form(placement)
            if local is not None:
                enforced.append(local)
    enforced.extend(plan_report.structural_nfds())
    return all(
        nfd.rhs in ClosureEngine(plan_report.schema, enforced)
        .reference_closure(nfd.base, nfd.lhs)
        for nfd in plan_report.nfds())


def _reference_implies(schema, sigma, nonempty, nfd) -> bool:
    return nfd.rhs in ClosureEngine(schema, sigma, nonempty) \
        .reference_closure(nfd.base, nfd.lhs)


def _reference_cover(schema, sigma, nonempty=None):
    """The drop-one minimal cover of a flat Sigma, decided by the naive
    reference saturation of one fresh engine per probe: shrink each
    member's LHS (largest path first), then drop every member the rest
    implies.  Shares nothing with the session machinery under test."""
    working = list(sigma)
    for index in range(len(working)):
        current = working[index]
        for path in sorted(current.lhs, reverse=True):
            candidate = current.with_lhs(current.lhs - {path})
            if _reference_implies(schema, working, nonempty, candidate):
                current = working[index] = candidate
    index = 0
    while index < len(working):
        rest = working[:index] + working[index + 1:]
        if _reference_implies(schema, rest, nonempty, working[index]):
            del working[index]
        else:
            index += 1
    return [nfd_to_fd(nfd) for nfd in working]


def _check_preservation(seed: int, gated: bool) -> None:
    _, schema, sigma = _draw(seed)
    spec = NonEmptySpec.all_nonempty() if gated else None
    report = synthesize_design(schema, sigma, nonempty=spec)
    assert report.preserved == _brute_force_preserved(report), \
        (seed, report.to_text())
    assert report.cover == _reference_cover(schema, sigma, spec), \
        (seed, report.to_text())


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(ROUNDTRIP_SEEDS))
    def test_plain(self, seed):
        _check_roundtrip(seed, gated=False)

    @pytest.mark.parametrize("seed",
                             range(ROUNDTRIP_SEEDS, 2 * ROUNDTRIP_SEEDS))
    def test_gated(self, seed):
        _check_roundtrip(seed, gated=True)

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), gated=st.booleans())
    def test_hypothesis(self, seed, gated):
        _check_roundtrip(seed, gated)


class TestPreservationVerdict:
    @pytest.mark.parametrize("seed", range(PRESERVATION_SEEDS))
    def test_plain(self, seed):
        _check_preservation(seed, gated=False)

    @pytest.mark.parametrize("seed",
                             range(GATED_PRESERVATION_SEEDS))
    def test_gated(self, seed):
        _check_preservation(seed, gated=True)

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_hypothesis(self, seed):
        _check_preservation(seed, gated=False)


class TestSweepDeterminism:
    @pytest.mark.parametrize("seed", range(SWEEP_SEEDS))
    def test_jobs_two_matches_serial(self, seed):
        serial = sweep_normalize(SWEEP_SIZE, jobs=1, seed=seed)
        parallel = sweep_normalize(SWEEP_SIZE, jobs=2, seed=seed)
        assert serial.to_text() == parallel.to_text()
        assert serial.records == parallel.records

    def test_fresh_mode_matches_too(self):
        """Fresh interpreters with different hash seeds print the same
        sweep: no design decision depends on set iteration order."""
        src = Path(__file__).resolve().parents[2] / "src"
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(src)] + ([env["PYTHONPATH"]]
                              if env.get("PYTHONPATH") else []))
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "normalize", "--sweep",
                 str(SWEEP_SIZE), "--seed", "1"],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
