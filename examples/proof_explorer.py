#!/usr/bin/env python3
"""Proof explorer: the paper's Section 3.1 derivation, machine-checked.

Rebuilds the eight-step proof of ``R:A:[B -> E]`` from

    nfd1 = R:[A:B:C, D -> A:E:F]
    nfd2 = R:A:[B -> E:G]

step by step with the rule objects (each application is verified), shows
the logic translation of the hypotheses, cross-checks every step against
the closure engine and the brute-force prover, and finishes with the
Appendix-A counterexample for a claim that does NOT follow.

Run:  python examples/proof_explorer.py
"""

from repro import (
    BruteForceProver,
    ClosureEngine,
    Derivation,
    NFD,
    build_countermodel,
    parse_schema,
)
from repro.generators import workloads
from repro.io import render_relation
from repro.nfd import ValidatorEngine, translate
from repro.paths import parse_path

schema = workloads.section_3_1_schema()
nfd1, nfd2 = workloads.section_3_1_sigma()

print("schema:", "R = {<A: {<B: {<C>}, E: {<F, G>}>}, D>}")
print("nfd1  :", nfd1)
print("nfd2  :", nfd2)
print()
print("nfd1 in logic:")
print(translate(nfd1).to_text())
print()

# ---------------------------------------------------------------------------
# The paper's proof, replayed.  Any wrong step would raise immediately.
# ---------------------------------------------------------------------------
proof = Derivation(schema, {"nfd1": nfd1, "nfd2": nfd2})
proof.locality("1", "nfd1")
proof.prefix("2", "1", parse_path("B:C"))
proof.locality("3", "2")
proof.push_in("4", "3")
proof.locality("5", "nfd2")
proof.push_in("6", "5")
proof.singleton("7", ["4", "6"])
proof.transitivity("8", ["2", "nfd2"], "7")

print("the eight steps (each machine-checked):")
print(proof.to_text())
print()
assert proof.conclusion() == NFD.parse("R:A:[B -> E]")

# ---------------------------------------------------------------------------
# Cross-examination: engine and brute force agree with every step.
# ---------------------------------------------------------------------------
engine = ClosureEngine(schema, [nfd1, nfd2])
prover = BruteForceProver(schema, [nfd1, nfd2])
for step in proof.steps:
    assert engine.implies(step.conclusion)
    assert prover.implies(step.conclusion)
print("closure engine and brute-force prover confirm all 8 steps.")

closure = engine.closure(parse_path("R:A"), {parse_path("B")})
print("closure (R:A, {B})* =", sorted(map(str, closure)))
print()

# ---------------------------------------------------------------------------
# The engine can also produce its OWN machine-checked proof: the
# decision procedure emits certificates in the proof system.
# ---------------------------------------------------------------------------
from repro.inference import compile_proof  # noqa: E402

compiled = compile_proof(engine, NFD.parse("R:A:[B -> E]"))
print("the engine's own compiled proof (every step re-verified):")
print(compiled.to_text())
assert compiled.conclusion() == NFD.parse("R:A:[B -> E]")
print()

# ---------------------------------------------------------------------------
# And a non-theorem: R:A:[E -> B] — with its separating instance.
# ---------------------------------------------------------------------------
non_theorem = NFD.parse("R:A:[E -> B]")
assert not engine.implies(non_theorem)
witness = build_countermodel(engine, non_theorem.base, non_theorem.lhs)
assert ValidatorEngine(witness.schema, (nfd1, nfd2)).check(witness)
assert not ValidatorEngine(witness.schema, [non_theorem]).check(witness)
print(f"{non_theorem} is NOT derivable; Appendix-A witness:")
print(render_relation(witness.relation("R"), title="R:"))
