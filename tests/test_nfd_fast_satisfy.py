"""The batch engine must agree with the literal Definition 2.4 checker
everywhere, one NFD at a time."""

import random

from repro.generators import random_instance, random_nfd, random_schema
from repro.generators import workloads
from repro.nfd import ValidatorEngine, parse_nfd, satisfies


def _agrees(instance, nfd) -> bool:
    engine = ValidatorEngine(instance.schema, [nfd])
    return engine.check(instance) == satisfies(instance, nfd)


class TestAgreementOnWorkloads:
    def test_course(self):
        instance = workloads.course_instance()
        for nfd in workloads.course_sigma():
            assert _agrees(instance, nfd)

    def test_figure1(self):
        instance = workloads.figure1_instance()
        nfd = workloads.figure1_nfd()
        assert _agrees(instance, nfd)

    def test_example_3_2(self):
        instance = workloads.example_3_2_instance()
        for text in ["R:[A -> B:C]", "R:[B:C -> D]", "R:[A -> D]",
                     "R:[B:C -> E]", "R:[B -> E]", "R:[A, B -> E]"]:
            nfd = parse_nfd(text)
            assert _agrees(instance, nfd), text


class TestAgreementRandomized:
    def test_random_sweep_no_empty_sets(self):
        rng = random.Random(7)
        for _ in range(60):
            schema = random_schema(rng, max_fields=3, max_depth=2)
            instance = random_instance(rng, schema, tuples=2, domain=2)
            nfd = random_nfd(rng, schema, max_lhs=2)
            assert _agrees(instance, nfd), (nfd, instance)

    def test_random_sweep_with_empty_sets(self):
        rng = random.Random(8)
        for _ in range(60):
            schema = random_schema(rng, max_fields=3, max_depth=2)
            instance = random_instance(rng, schema, tuples=2, domain=2,
                                       empty_probability=0.3)
            nfd = random_nfd(rng, schema, max_lhs=2)
            assert _agrees(instance, nfd), (nfd, instance)
