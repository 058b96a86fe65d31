"""E2/E3 — the Section 2 Course instance and Examples 2.1-2.5.

Regenerates the cis550/cis500 instance, checks the five intro
constraints against it, and benchmarks full constraint-set validation
plus the introduction's motivating implication query.
"""

from repro.generators import workloads
from repro.inference import ClosureEngine
from repro.io import render_relation
from repro.nfd import NFD, ValidatorEngine, satisfies_all


def test_course_constraints_hold(benchmark, report):
    instance = workloads.course_instance()
    sigma = workloads.course_sigma()

    engine = ValidatorEngine(instance.schema, sigma)
    verdict = benchmark(lambda: engine.check(instance))

    report("Section 2 Course instance",
           render_relation(instance.relation("Course")))
    report("Examples 2.1-2.5",
           "\n".join(f"  {nfd}" for nfd in sigma))
    assert verdict is True
    assert satisfies_all(instance, sigma)


def test_intro_inference(benchmark, report):
    """'given a student ID sid, and a time, there is a unique set of
    books used by the student at that time ... the answer is
    affirmative' — the implication the paper motivates the rules with."""
    schema = workloads.course_schema()
    sigma = workloads.course_sigma()
    question = NFD.parse("Course:[students:sid, time -> books]")

    def ask():
        return ClosureEngine(schema, sigma).implies(question)

    verdict = benchmark(ask)
    report("intro implication",
           f"Sigma |= {question} ?  paper: True   measured: {verdict}")
    assert verdict is True


def test_intro_non_inference(benchmark):
    """Without the time, the books are not determined."""
    schema = workloads.course_schema()
    sigma = workloads.course_sigma()
    question = NFD.parse("Course:[students:sid -> books]")
    engine = ClosureEngine(schema, sigma)

    verdict = benchmark(lambda: engine.implies(question))
    assert verdict is False
