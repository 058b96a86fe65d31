"""Database design: normal forms, preservation, nesting plans."""

from .. import _lazy

__all__ = _lazy.exports(__name__, {
    "bcnf": "bcnf_decompose bcnf_violations is_bcnf is_superkey project_fds",
    "nested_design": "DependencyPlacement NestPlan PlanReport",
    "preservation": "preserves_dependencies unpreserved_fds",
    "synthesize": (
        "DesignReport SweepSummary candidate_plans sweep_normalize "
        "synthesize_design"
    ),
})
