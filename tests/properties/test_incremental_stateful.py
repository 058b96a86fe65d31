"""Stateful property test: the incremental checker vs batch checking.

Hypothesis drives random insert/remove/dry-run scripts against the
incremental checker while a shadow batch check (re-validating the
materialized instance from scratch) verifies the consistency verdict
after every step.
"""

import random

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.generators import random_instance, random_schema, random_sigma
from repro.incremental import IncrementalChecker
from repro.nfd import ValidatorEngine


class IncrementalCheckerMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(min_value=0, max_value=10_000))
    def setup(self, seed):
        rng = random.Random(seed)
        self.schema = random_schema(rng, relations=1, max_fields=3,
                                    max_depth=2, set_probability=0.5)
        self.relation = self.schema.relation_names[0]
        self.sigma = random_sigma(rng, self.schema,
                                  count=rng.randint(1, 3))
        self.checker = IncrementalChecker(self.schema, self.sigma)
        # a fixed pool so inserts collide often enough to conflict
        self.pool = [
            next(iter(random_instance(rng, self.schema, tuples=1,
                                      domain=2).relation(self.relation)))
            for _ in range(5)
        ]
        self.present: list = []

    @rule(index=st.integers(min_value=0, max_value=4))
    def insert(self, index):
        row = self.pool[index]
        self.checker.insert(self.relation, row)
        if row not in self.present:
            self.present.append(row)

    @precondition(lambda self: self.present)
    @rule(data=st.data())
    def remove(self, data):
        row = data.draw(st.sampled_from(self.present))
        self.present.remove(row)
        self.checker.remove(self.relation, row)

    @rule(index=st.integers(min_value=0, max_value=4))
    def dry_run_does_not_change_state(self, index):
        before = self.checker.conflicts()
        self.checker.check_insert(self.relation, self.pool[index])
        assert self.checker.conflicts() == before

    @invariant()
    def verdict_matches_batch_check(self):
        if not hasattr(self, "checker"):
            return
        instance = self.checker.to_instance()
        assert self.checker.is_consistent() == \
            ValidatorEngine(instance.schema, self.sigma).check(instance)

    @invariant()
    def tuple_count_matches(self):
        if not hasattr(self, "checker"):
            return
        assert len(self.checker) == len(self.present)


IncrementalCheckerMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None)

TestIncrementalCheckerStateful = IncrementalCheckerMachine.TestCase
