"""D5 (ours) — three deciders on the flat fragment, plus repair scaling.

On First-Normal-Form schemas the implication problem has three
implementations in this repository: the classical Armstrong attribute
closure (linear-time), the tableau chase, and the nested closure engine
(which degenerates to Armstrong behaviour).  They must agree; the bench
measures the cost ordering — closure < chase < nested engine is the
expected shape, the engine paying for its generality.
"""

import random

import pytest

from repro.chase import fd_implies_chase, lossless_join, repair
from repro.generators import workloads
from repro.inference import FD, ClosureEngine, fd_implies, fd_to_nfd
from repro.types import parse_schema

ATTRS = ["A", "B", "C", "D", "E"]
FDS = [FD({"A"}, "B"), FD({"B"}, "C"), FD({"C", "D"}, "E")]
CANDIDATE = FD({"A", "D"}, "E")


def test_armstrong_closure(benchmark):
    benchmark.group = "flat implication"
    verdict = benchmark(lambda: fd_implies(FDS, CANDIDATE))
    assert verdict is True


def test_tableau_chase(benchmark):
    benchmark.group = "flat implication"
    verdict = benchmark(lambda: fd_implies_chase(ATTRS, FDS, CANDIDATE))
    assert verdict is True


def test_nested_engine_on_flat(benchmark):
    benchmark.group = "flat implication"
    schema = parse_schema("R = {<A, B, C, D, E>}")
    sigma = [fd_to_nfd("R", fd) for fd in FDS]
    target = fd_to_nfd("R", CANDIDATE)

    def decide():
        return ClosureEngine(schema, sigma).implies(target)

    assert benchmark(decide) is True


def test_three_way_agreement():
    """Not a timing: exhaustive agreement across random flat cases."""
    rng = random.Random(17)
    schema = parse_schema("R = {<A, B, C, D, E>}")
    for _ in range(50):
        fds = [
            FD(set(rng.sample(ATTRS, rng.randint(1, 2))),
               rng.choice(ATTRS))
            for _ in range(rng.randint(1, 4))
        ]
        candidate = FD(set(rng.sample(ATTRS, rng.randint(1, 2))),
                       rng.choice(ATTRS))
        first = fd_implies(fds, candidate)
        second = fd_implies_chase(ATTRS, fds, candidate)
        engine = ClosureEngine(schema, [fd_to_nfd("R", fd)
                                        for fd in fds])
        third = engine.implies(fd_to_nfd("R", candidate))
        assert first == second == third, (fds, candidate)


def test_lossless_join_check(benchmark):
    benchmark.group = "chase applications"
    # A+ = {A, B, C} covers the AB component, so the binary split
    # {AB, ACDE} is lossless; the chase confirms it.
    verdict = benchmark(lambda: lossless_join(
        ATTRS, [["A", "B"], ["A", "C", "D", "E"]], FDS))
    assert verdict is True
    assert not lossless_join(ATTRS, [["A", "B"], ["C", "D", "E"]], FDS)


@pytest.mark.parametrize("courses", [5, 15])
def test_repair_scaling(benchmark, courses):
    """Chase-repair of an instance with one inconsistent age."""
    rng = random.Random(600 + courses)
    instance = workloads.scaled_course_instance(
        rng, courses=courses, students_per_course=3)
    sigma = workloads.course_sigma()
    rows = list(instance.relation("Course"))
    # corrupt one student age to force exactly one repair step
    victim = rows[0]
    students = list(victim.get("students"))
    corrupted = students[0].replace("age", __import__(
        "repro.values", fromlist=["Atom"]).Atom(999))
    from repro.values import SetValue
    rows[0] = victim.replace("students",
                             SetValue([corrupted] + students[1:]))
    dirty = instance.with_relation("Course", rows)
    benchmark.group = f"repair n={courses}"

    fixed = benchmark(lambda: repair(dirty, sigma))
    from repro.nfd import ValidatorEngine
    assert ValidatorEngine(fixed.schema, sigma).check(fixed)
