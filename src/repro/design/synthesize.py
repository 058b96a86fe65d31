"""3NF-style synthesis of nested designs (Section 4 made executable).

The paper's introduction names dependency-preserving design as the
classical payoff of an FD axiomatization, and Section 4 discusses — but
does not mechanize — how nesting interacts with it.  This module is the
mechanization: given a (nested or flat) relation and its Sigma, it

1. flattens the relation (iterated unnest; Sigma is rewritten step by
   step via :func:`repro.analysis.carryover.nfd_through_unnest`),
2. computes a minimal cover through one copy-on-write
   :class:`~repro.inference.session.ImplicationSession`,
3. synthesizes candidate :class:`~repro.design.nested_design.NestPlan`\\ s
   in the classical 3NF-synthesis mold — cover rules are grouped by
   LHS; each group either anchors the top level or becomes one nest
   step — generalized to set-valued paths: instead of emitting one
   relation per group, groups become *set-valued attributes* of a
   single nested relation, with the grouping attributes pinning each
   set (the structural NFDs nesting induces),
4. scores every candidate by enforceability (how many carried
   dependencies admit a per-set local check, decided with
   copy-on-write ``replaced`` probes) and redundancy (BCNF-violating
   FDs left inside any component, via :mod:`repro.design.bcnf`), and
5. verifies dependency preservation of the winner: do the *local*
   forms plus the structural NFDs — the constraints a per-set checker
   actually enforces — jointly imply every carried dependency?  The
   classical projection-based verdict
   (:func:`repro.design.preservation.preserves_dependencies`) is
   reported alongside; nesting preserves inter-set dependencies that
   flat projections lose, which is precisely Section 4's point.

The flat identity plan is always a candidate, so the synthesizer never
does worse than leaving the relation alone; it nests exactly when
nesting removes redundancy without sacrificing enforceability.

:func:`sweep_normalize` runs the pipeline fleet-style over generated
flat schemas through :func:`repro.parallel.process_map`, with per-index
deterministic RNG streams so the output is byte-identical for every
``--jobs`` value, and round-trip validation: a satisfying flat instance
is nested through the winning plan and
:class:`~repro.nfd.batch_validate.ValidatorEngine` must find zero
violations of the carried NFDs.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from ..analysis.carryover import sigma_through_unnest
from ..analysis.cover import minimal_cover
from ..errors import InferenceError
from ..generators.instances import random_satisfying_instance
from ..generators.nfds import random_design_sigma
from ..generators.schemas import random_flat_schema
from ..inference.armstrong import FD, nfd_to_fd
from ..inference.closure import engine_counters
from ..inference.empty_sets import NonEmptySpec
from ..inference.session import ImplicationSession
from ..nfd.batch_validate import ValidatorEngine
from ..nfd.nfd import NFD
from ..parallel import process_map
from ..paths.path import Path
from ..types.printer import format_type
from ..types.schema import Schema
from ..values.build import Instance
from ..values.restructure import flatten_type, flatten_value
from .bcnf import bcnf_violations, project_fds
from .nested_design import DependencyPlacement, NestPlan, PlanReport
from .preservation import preserves_dependencies

__all__ = ["DesignReport", "SweepSummary", "synthesize_design",
           "sweep_normalize"]

# -- report ----------------------------------------------------------------


class DesignReport:
    """The structured outcome of one synthesis run.

    ``as_metrics()`` / ``to_text()`` implement the obs snapshot
    protocol, so a report drops straight into a
    :class:`~repro.obs.RunReport` section and the CLI's
    ``--metrics-json`` output.
    """

    __slots__ = (
        "relation", "attributes", "unnest_order", "sigma_size",
        "dropped", "foreign", "cover", "candidates", "plan",
        "plan_report", "enforceable", "unenforceable",
        "violations_flat", "violations", "components", "preserved",
        "projection_preserved", "roundtrip", "rule_applications",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])

    @property
    def steps(self) -> int:
        return len(self.plan.steps)

    def as_metrics(self) -> dict[str, int | float]:
        placements = self.plan_report.placements
        by_kind = {
            kind: sum(1 for p in placements if p.kind == kind)
            for kind in (DependencyPlacement.TOP,
                         DependencyPlacement.INTRA,
                         DependencyPlacement.INTER)
        }
        return {
            "attributes": len(self.attributes),
            "sigma": self.sigma_size,
            "dropped": self.dropped,
            "foreign": self.foreign,
            "cover": len(self.cover),
            "candidates": self.candidates,
            "steps": self.steps,
            "placements_top": by_kind[DependencyPlacement.TOP],
            "placements_intra": by_kind[DependencyPlacement.INTRA],
            "placements_inter": by_kind[DependencyPlacement.INTER],
            "enforceable": self.enforceable,
            "unenforceable": self.unenforceable,
            "bcnf_violations_flat": self.violations_flat,
            "bcnf_violations": self.violations,
            "preserved": int(self.preserved),
            "projection_preserved": int(self.projection_preserved),
            "roundtrip_ok": int(self.roundtrip == "ok"),
            "rule_applications": self.rule_applications,
        }

    def to_text(self) -> str:
        lines = [
            f"relation {self.relation}: {len(self.attributes)} flat "
            f"attribute(s), {self.sigma_size} rule(s)"
            + (f" ({self.dropped} dropped by flattening)"
               if self.dropped else "")
            + (f" ({self.foreign} foreign ignored)"
               if self.foreign else ""),
            f"minimal cover: {len(self.cover)} rule(s); "
            f"candidates scored: {self.candidates}",
            f"winning plan: " + (
                f"{self.steps} nest step(s)" if self.steps
                else "keep flat"),
        ]
        for label, nested in self.plan.steps:
            lines.append(f"  nest {label} = {{{', '.join(nested)}}}")
        lines.append("schema: "
                     + format_type(self.plan_report.schema.relation_type(
                         self.relation)))
        lines.append(self.plan_report.to_text())
        lines.append(
            f"redundancy: {self.violations_flat} BCNF violation(s) "
            f"flat -> {self.violations} in the winning design")
        lines.append(
            f"preservation: {self.enforceable}/{len(self.cover)} "
            "locally enforceable; "
            f"preserved={'yes' if self.preserved else 'no'} "
            f"(flat projections alone: "
            f"{'yes' if self.projection_preserved else 'no'})")
        lines.append(f"round-trip: {self.roundtrip}")
        return "\n".join(lines)


# -- candidate generation --------------------------------------------------


def _cover_groups(cover: Sequence[FD]) \
        -> list[tuple[frozenset[str], tuple[str, ...]]]:
    """Cover rules grouped by LHS, deterministically ordered."""
    groups: dict[frozenset[str], set[str]] = {}
    for fd in cover:
        groups.setdefault(fd.lhs, set()).add(fd.rhs)
    return sorted(
        ((lhs, tuple(sorted(rhs))) for lhs, rhs in groups.items()),
        key=lambda item: (sorted(item[0]), item[1]),
    )


def _fresh_label(taken: set[str], index: int) -> str:
    label = f"N{index}"
    while label in taken:
        label = "_" + label
    taken.add(label)
    return label


def candidate_plans(relation: str, attributes: Sequence[str],
                    cover: Sequence[FD]) -> list[NestPlan]:
    """The 3NF-style candidate plans for one cover.

    The flat identity plan comes first; then one candidate per choice
    of *root group*: the root's attributes anchor the top level, and
    every other LHS group contributes its not-yet-placed attributes as
    one nest step (in deterministic group order).  Attributes no cover
    rule mentions stay top-level.  Step-identical candidates are
    deduplicated.
    """
    groups = _cover_groups(cover)
    plans = [NestPlan(relation, attributes)]
    seen: set[tuple] = {()}
    for root_index in range(len(groups)):
        root_lhs, root_rhs = groups[root_index]
        plan = NestPlan(relation, attributes)
        assigned = set(root_lhs) | set(root_rhs)
        taken = set(attributes) | {relation}
        label_index = 1
        for index, (lhs, rhs) in enumerate(groups):
            if index == root_index:
                continue
            nested = (set(lhs) | set(rhs)) - assigned
            if not nested:
                continue
            label = _fresh_label(taken, label_index)
            label_index += 1
            plan.nest(label, tuple(a for a in attributes if a in nested))
            assigned |= nested
        signature = tuple(plan.steps)
        if signature in seen:
            continue
        seen.add(signature)
        plans.append(plan)
    return plans


def _plan_components(plan: NestPlan) -> list[tuple[str, ...]]:
    """The original-attribute components the plan induces: the final
    top level plus one component per nest step."""
    paths = plan.attribute_paths()
    components = [tuple(a for a in plan.attributes
                        if len(paths[a]) == 1)]
    original = set(plan.attributes)
    for _, nested in plan.steps:
        components.append(tuple(a for a in nested if a in original))
    return [component for component in components if component]


class _Projection:
    """FD projection onto candidate components, for one synthesis.

    Projection is the query-heavy part of scoring: every LHS
    combination inside every component of every candidate closes under
    the *same* flat cover.  Those closures run through one memoized
    :class:`~repro.inference.session.ImplicationSession`, which makes
    the work visible to the rule-application counter (a size-``k``
    combo seeds from its cached size-``k-1`` sub-combos).  Candidates
    share components and components share combos, so two memos sit in
    front of it: ``combo -> closed attributes`` (:meth:`closure`, the
    ``closure`` oracle of :func:`~repro.design.bcnf.project_fds`) and
    ``component -> BCNF violations`` (:meth:`redundancy`).
    """

    __slots__ = ("attributes", "cover", "relation", "_session",
                 "_paths", "_closed", "_violations")

    def __init__(self, schema: Schema, cover_nfds: Sequence[NFD],
                 nonempty: NonEmptySpec | None, relation: str,
                 attributes: Sequence[str], cover: Sequence[FD]):
        self.attributes = attributes
        self.cover = cover
        self.relation = relation
        self._session = ImplicationSession(schema, cover_nfds, nonempty)
        self._paths = {attribute: Path((attribute,))
                       for attribute in attributes}
        self._closed: dict[tuple[str, ...], frozenset[str]] = {}
        self._violations: dict[tuple[str, ...], int] = {}

    def closure(self, combo: tuple[str, ...]) -> frozenset[str]:
        """The attributes *combo* determines under the cover."""
        closed = self._closed.get(combo)
        if closed is None:
            paths = self._session.closure_simple(
                self.relation, [self._paths[attribute] for attribute in combo])
            closed = frozenset(path.first for path in paths)
            self._closed[combo] = closed
        return closed

    def redundancy(self, components: Iterable[tuple[str, ...]]) -> int:
        """BCNF-violating FDs left inside any component (projected
        cover)."""
        total = 0
        for component in components:
            count = self._violations.get(component)
            if count is None:
                count = len(bcnf_violations(
                    component,
                    project_fds(self.attributes, self.cover, component,
                                closure=self.closure)))
                self._violations[component] = count
            total += count
        return total


# -- the pipeline ----------------------------------------------------------


def _flat_spec(nonempty: NonEmptySpec | None,
               relation: str) -> NonEmptySpec | None:
    """Restrict a spec to the flattened schema, whose only set-valued
    position is the relation itself."""
    if nonempty is None or nonempty.declares_everything:
        return nonempty
    return NonEmptySpec({path for path in nonempty.declared
                         if path == Path((relation,))})


def _nested_spec(nonempty: NonEmptySpec | None) -> NonEmptySpec | None:
    """The spec for reasoning over a *synthesized* schema.

    Every set a plan creates is non-empty by construction (``nest``
    groups at least one tuple per set), so under the gated Section 3.2
    semantics the all-nonempty spec is sound for plan outputs; with no
    spec the plain Section 3.1 engine is used as usual.
    """
    if nonempty is None:
        return None
    return NonEmptySpec.all_nonempty()


def _enforced_sigma(report: PlanReport) -> list[NFD]:
    """The constraints a per-set checker actually maintains: top-level
    NFDs, each deep placement's local form (when one exists), and the
    structural NFDs nesting induces."""
    local_sigma: list[NFD] = []
    for placement in report.placements:
        if placement.kind == DependencyPlacement.TOP:
            local_sigma.append(placement.nfd)
        else:
            local = report.local_form(placement)
            if local is not None:
                local_sigma.append(local)
    local_sigma.extend(report.structural_nfds())
    return local_sigma


def _assess_candidate(report: PlanReport,
                      nonempty: NonEmptySpec | None, tracer) \
        -> tuple[int, bool]:
    """``(unenforceable, preserved)`` for one candidate.

    *preserved* is the joint verdict: do the enforced local forms plus
    the structural NFDs imply every carried dependency?  A joint pass
    entails every per-placement enforceability verdict (each carried
    global NFD implies its own local form, so the per-placement premise
    set is at least as strong as the joint one), which is what keeps
    assessment cheap: one subset-seeded ``implies_all`` batch settles
    the common case, and only a joint *failure* falls back to
    per-placement copy-on-write probes to count the holdouts.  Carried
    NFDs the enforced set states verbatim (every top-level placement)
    are implied by membership and never reach the engine, so a
    candidate with nothing else carried builds no session at all.
    """
    placements = report.placements
    deep = [p for p in placements if p.kind != DependencyPlacement.TOP]
    missing = sum(1 for p in deep if report.local_form(p) is None)
    enforced = _enforced_sigma(report)
    # every Σ member is implied: only the carried NFDs the enforced set
    # does not state need the engine (top-level placements never do)
    stated = set(enforced)
    open_nfds = [nfd for nfd in report.nfds() if nfd not in stated]
    joint = True
    if open_nfds:
        session = ImplicationSession(report.schema, enforced, nonempty,
                                     tracer=tracer)
        joint = session.implies_all(open_nfds)
    if joint:
        return missing, True
    probe_session = report.make_session(nonempty, tracer=tracer)
    failures = sum(
        1 for p in deep
        if not report.locally_enforceable(p, session=probe_session))
    return failures, False


def _roundtrip(plan: NestPlan, report: PlanReport, relation: str,
               flat_schema: Schema, instance: Instance | None,
               unnest_order: list[str], tracer) -> str:
    """Nest an instance through the plan and validate the carried NFDs.

    Returns ``"ok"``, ``"violations=<n>"``, or ``"skipped"`` (no
    instance, or a nested input whose empty sets make the classical
    unnest lossy).
    """
    if instance is None or relation not in instance.schema.relation_names:
        return "skipped"
    from ..errors import ValueError_

    try:
        flat_value = flatten_value(instance.relation(relation),
                                   unnest_order)
    except ValueError_:
        return "skipped"
    flat_instance = Instance(flat_schema, {relation: flat_value})
    nested = plan.apply_instance(flat_instance)
    validator = ValidatorEngine(report.schema, report.all_nfds(),
                                tracer=tracer)
    result = validator.validate(nested, all_violations=True)
    if result.ok:
        return "ok"
    return f"violations={len(result.violations)}"


def synthesize_design(schema: Schema, sigma: Iterable[NFD],
                      relation: str | None = None, *,
                      nonempty: NonEmptySpec | None = None,
                      instance: Instance | None = None,
                      tracer=None) -> DesignReport:
    """Run the full normalization pipeline on one relation.

    See the module docstring for the pipeline; *instance*, when given
    (and flattenable), is round-tripped through the winning plan and
    validated against the carried NFDs.
    """
    sigma_list = list(sigma)
    if relation is None:
        names = schema.relation_names
        if len(names) != 1:
            raise InferenceError(
                "schema declares several relations; name the one to "
                "normalize")
        relation = names[0]
    elif relation not in schema.relation_names:
        raise InferenceError(f"unknown relation {relation!r}")

    attempts_before = engine_counters()["attempts"]
    if tracer is not None:
        with tracer.span("design.synthesize", relation=relation,
                         members=len(sigma_list)) as span:
            report = _synthesize(schema, sigma_list, relation, nonempty,
                                 instance, tracer, span)
    else:
        report = _synthesize(schema, sigma_list, relation, nonempty,
                             instance, tracer, None)
    report.rule_applications = (engine_counters()["attempts"]
                                - attempts_before)
    return report


def _synthesize(schema, sigma_list, relation, nonempty, instance,
                tracer, span) -> DesignReport:
    # 1. flatten the relation; rewrite Sigma through each unnest
    flat_type, unnest_order = flatten_type(schema.relation_type(relation))
    target = [nfd for nfd in sigma_list if nfd.relation == relation]
    foreign = len(sigma_list) - len(target)
    working = list(target)
    for label in unnest_order:
        working = sigma_through_unnest(working, label)
    dropped = len(target) - len(working)
    flat_schema = Schema({relation: flat_type})
    attributes = tuple(label for label, _ in flat_type.element.fields)
    flat_nonempty = _flat_spec(nonempty, relation)

    # 2. minimal cover (one session, drop-one/shrink COW probes)
    cover_nfds = minimal_cover(flat_schema, working, flat_nonempty)
    cover = [nfd_to_fd(nfd) for nfd in cover_nfds]
    if span is not None:
        span.add("cover", len(cover))

    # 3. candidates; 4. score by (unenforceable, redundancy, steps)
    nested_nonempty = _nested_spec(nonempty)
    plans = candidate_plans(relation, attributes, cover)
    best = None
    projection = _Projection(flat_schema, cover_nfds, flat_nonempty,
                             relation, attributes, cover)
    flat_violations = projection.redundancy([attributes])
    for index, plan in enumerate(plans):
        plan_report = plan.report(flat_type, cover)
        unenforceable, joint = _assess_candidate(
            plan_report, nested_nonempty, tracer)
        components = _plan_components(plan)
        violations = projection.redundancy(components)
        score = (unenforceable, violations, len(plan.steps), index)
        if best is None or score < best[0]:
            best = (score, plan, plan_report, components, joint)
    score, plan, plan_report, components, preserved = best
    if span is not None:
        span.add("candidates", len(plans))

    # 5. the winner's verification came with its assessment (the joint
    # enforced-forms check); add the classical projection verdict
    projection_preserved = preserves_dependencies(attributes, cover,
                                                  components,
                                                  closure=projection.closure)
    roundtrip = _roundtrip(plan, plan_report, relation, flat_schema,
                           instance, unnest_order, tracer)

    return DesignReport(
        relation=relation,
        attributes=attributes,
        unnest_order=unnest_order,
        sigma_size=len(target),
        dropped=dropped,
        foreign=foreign,
        cover=cover,
        candidates=len(plans),
        plan=plan,
        plan_report=plan_report,
        enforceable=len(cover) - score[0],
        unenforceable=score[0],
        violations_flat=flat_violations,
        violations=score[1],
        components=components,
        preserved=preserved,
        projection_preserved=projection_preserved,
        roundtrip=roundtrip,
        rule_applications=0,  # patched by synthesize_design
    )


# -- the sweep -------------------------------------------------------------


class SweepSummary:
    """Aggregates of one ``normalize --sweep`` run (obs snapshot)."""

    __slots__ = ("records",)

    def __init__(self, records: list[dict]):
        self.records = records

    @property
    def count(self) -> int:
        return len(self.records)

    @property
    def preserved_count(self) -> int:
        return sum(1 for r in self.records if r["preserved"])

    @property
    def preserved_rate(self) -> float:
        return self.preserved_count / self.count if self.records else 1.0

    @property
    def nested_plans(self) -> int:
        return sum(1 for r in self.records if r["steps"])

    @property
    def roundtrip_ok(self) -> int:
        return sum(1 for r in self.records if r["roundtrip"] == "ok")

    @property
    def roundtrip_skipped(self) -> int:
        return sum(1 for r in self.records
                   if r["roundtrip"] == "skipped")

    @property
    def roundtrip_violations(self) -> int:
        return (self.count - self.roundtrip_ok
                - self.roundtrip_skipped)

    @property
    def violations_flat(self) -> int:
        return sum(r["violations_flat"] for r in self.records)

    @property
    def violations(self) -> int:
        return sum(r["violations"] for r in self.records)

    @property
    def rule_applications(self) -> int:
        return sum(r["rule_applications"] for r in self.records)

    def ok(self, min_preserved: float = 0.95) -> bool:
        return (self.preserved_rate >= min_preserved
                and self.roundtrip_violations == 0)

    def as_metrics(self) -> dict[str, int | float]:
        return {
            "schemas": self.count,
            "preserved": self.preserved_count,
            "preserved_rate": round(self.preserved_rate, 4),
            "nested_plans": self.nested_plans,
            "bcnf_violations_flat": self.violations_flat,
            "bcnf_violations": self.violations,
            "roundtrip_ok": self.roundtrip_ok,
            "roundtrip_skipped": self.roundtrip_skipped,
            "roundtrip_violations": self.roundtrip_violations,
            "rule_applications": self.rule_applications,
        }

    def to_text(self) -> str:
        lines = []
        for record in self.records:
            lines.append(
                "[{index:03d}] attrs={attributes} rules={sigma} "
                "cover={cover} steps={steps} "
                "enforceable={enforceable}/{cover} "
                "redundancy {violations_flat}->{violations} "
                "preserved={p} roundtrip={roundtrip}".format(
                    p="yes" if record["preserved"] else "no", **record))
        lines.append(
            f"sweep: {self.count} schema(s)  "
            f"preserved {self.preserved_count}/{self.count} "
            f"({self.preserved_rate:.1%})  "
            f"nested plans {self.nested_plans}  "
            f"redundancy {self.violations_flat}->{self.violations}  "
            f"roundtrip ok={self.roundtrip_ok} "
            f"skipped={self.roundtrip_skipped} "
            f"violations={self.roundtrip_violations}")
        return "\n".join(lines)


def _sweep_setup(payload):
    return payload


def _sweep_task(payload, index: int) -> dict:
    """Synthesize one generated schema; independent of every other
    index (own RNG stream), so results are identical for any jobs
    count and chunking."""
    seed, rules, max_fields = payload
    rng = random.Random(f"normalize:{seed}:{index}")
    schema = random_flat_schema(rng, max_fields=max_fields)
    sigma = random_design_sigma(rng, schema, fallback_count=rules)
    instance = random_satisfying_instance(rng, schema, sigma, tuples=3,
                                          domain=2)
    report = synthesize_design(schema, sigma, instance=instance)
    metrics = report.as_metrics()
    return {
        "index": index,
        "attributes": metrics["attributes"],
        "sigma": metrics["sigma"],
        "cover": metrics["cover"],
        "steps": metrics["steps"],
        "enforceable": metrics["enforceable"],
        "violations_flat": metrics["bcnf_violations_flat"],
        "violations": metrics["bcnf_violations"],
        "preserved": bool(metrics["preserved"]),
        "roundtrip": report.roundtrip,
        "rule_applications": metrics["rule_applications"],
    }


def sweep_normalize(count: int, *, jobs: int = 1, seed: int = 0,
                    rules: int = 4, max_fields: int = 5) -> SweepSummary:
    """Synthesize designs for *count* generated flat schemas.

    Fans out over :func:`repro.parallel.process_map`; the summary (and
    its ``to_text()``) is byte-identical for every *jobs* value.
    """
    payload = (seed, rules, max_fields)
    records = process_map(_sweep_setup, payload, _sweep_task,
                          range(count), jobs=jobs)
    return SweepSummary(records)
