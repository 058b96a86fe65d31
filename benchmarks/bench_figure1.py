"""E1 — Figure 1: the instance violating ``R:[B:C -> E:F]``.

Regenerates the figure's nested table, asserts the paper's two claims
(the full instance violates the NFD; the first tuple alone satisfies
it), and benchmarks the satisfaction check that establishes them.
"""

from repro.generators import workloads
from repro.io import render_relation
from repro.nfd import ValidatorEngine, satisfies
from repro.values import Instance


def test_figure1_violation(benchmark, report):
    instance = workloads.figure1_instance()
    nfd = workloads.figure1_nfd()

    engine = ValidatorEngine(instance.schema, [nfd])
    verdict = benchmark(lambda: engine.check(instance))

    report("Figure 1 instance",
           render_relation(instance.relation("R")))
    report("claim", f"I |= {nfd} ?  paper: False   measured: {verdict}")
    assert verdict is False
    assert satisfies(instance, nfd) is False  # literal checker agrees


def test_figure1_first_tuple_satisfies(benchmark):
    schema = workloads.figure1_schema()
    nfd = workloads.figure1_nfd()
    first_only = Instance(schema, {"R": [
        {"A": 1, "B": [{"C": 1, "D": 3}],
         "E": [{"F": 5, "G": 6}, {"F": 5, "G": 7}]},
    ]})

    engine = ValidatorEngine(first_only.schema, [nfd])
    verdict = benchmark(lambda: engine.check(first_only))
    assert verdict is True


def test_figure1_unintuitive_reading(benchmark):
    """'all tuples <F,G> in E have the same value for F when B is not
    empty' — flip one F in the first tuple and the NFD breaks."""
    schema = workloads.figure1_schema()
    nfd = workloads.figure1_nfd()
    flipped = Instance(schema, {"R": [
        {"A": 1, "B": [{"C": 1, "D": 3}],
         "E": [{"F": 5, "G": 6}, {"F": 9, "G": 7}]},
    ]})

    engine = ValidatorEngine(flipped.schema, [nfd])
    verdict = benchmark(lambda: engine.check(flipped))
    assert verdict is False
