"""D8 (ours) — static view-dependency propagation vs dynamic rechecking.

The paper's warehouse pitch quantified: propagating NFDs through a view
expression is a one-time static analysis, after which refreshes only
check the (smaller) propagated set on the view — versus re-deriving
everything from the sources each time.
"""

import random

import pytest

from repro.generators import workloads
from repro.nfd import ValidatorEngine
from repro.values import Instance
from repro.views import Base, evaluate, propagate_nfds, view_schema

EXPRS = {
    "unnest": Base("Course").unnest("students"),
    "select+project": Base("Course").select("time", 10)
                                    .project("cnum", "books"),
    "regroup": Base("Course").unnest("books")
                             .project("cnum", "time", "isbn", "title")
                             .nest("titles", ["isbn", "title"]),
}


@pytest.mark.parametrize("name", EXPRS)
def test_static_propagation(benchmark, name):
    """The one-time analysis."""
    schema = workloads.course_schema()
    sigma = workloads.course_sigma()
    expr = EXPRS[name]
    benchmark.group = f"view {name}"

    carried = benchmark(lambda: propagate_nfds(expr, schema, sigma))
    assert carried


@pytest.mark.parametrize("name", EXPRS)
def test_refresh_check(benchmark, name):
    """The per-refresh work: evaluate + check the propagated set."""
    rng = random.Random(99)
    schema = workloads.course_schema()
    sigma = workloads.course_sigma()
    instance = workloads.scaled_course_instance(
        rng, courses=20, students_per_course=4)
    expr = EXPRS[name]
    carried = propagate_nfds(expr, schema, sigma)
    target_schema = view_schema(expr, schema)
    validator = ValidatorEngine(target_schema, carried)
    benchmark.group = f"view {name}"

    def refresh():
        view = Instance(target_schema,
                        {"View": evaluate(expr, instance)})
        return validator.check(view)

    assert benchmark(refresh) is True
