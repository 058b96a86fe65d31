"""Compiling engine answers into machine-checked derivations.

The closure engine decides implication by saturation; this module turns
the provenance of its naive reference replay
(:meth:`~repro.inference.closure.ClosureEngine.replay`) into an explicit
:class:`~repro.inference.derivation.Derivation`
— a proof script in the paper's rule system (the eight rules plus
full-locality, per the DESIGN.md 3.2.1 analysis) whose every step is
re-verified by the rule objects.  The compiled proof ends with exactly
the queried NFD, so

    proof = compile_proof(engine, nfd)
    proof.conclusion() == nfd          # machine-checked, step by step

holds for every implied NFD.  This closes the loop between the two
halves of the library: the *decision procedure* produces certificates in
the *proof system*.
"""

from __future__ import annotations

from ..errors import InferenceError
from ..nfd.nfd import NFD
from ..nfd.simple_form import to_simple
from ..paths.path import Path
from .closure import ClosureEngine
from .derivation import Derivation

__all__ = ["compile_proof"]


class _Compiler:
    def __init__(self, engine: ClosureEngine, relation: str,
                 provenance: dict):
        self.engine = engine
        self.relation = relation
        self.provenance = provenance
        self.base = Path((relation,))
        hypotheses = {
            f"s{index + 1}": nfd
            for index, nfd in enumerate(engine.sigma)
        }
        self.derivation = Derivation(engine.schema, hypotheses)
        self._counter = 0
        self._path_steps: dict[tuple, str] = {}
        self._usable_steps: dict[tuple, str] = {}

    def _label(self) -> str:
        self._counter += 1
        return str(self._counter)

    # -- [key -> path] facts ------------------------------------------------

    def derive_path(self, path: Path, key: frozenset[Path]) -> str:
        """A step concluding ``R:[key -> path]``; returns its label."""
        memo_key = (key, path)
        if memo_key in self._path_steps:
            return self._path_steps[memo_key]
        if path in key:
            label = self._label()
            self.derivation.reflexivity(label, self.base, key, path)
            self._path_steps[memo_key] = label
            return label
        record = self.provenance.get(key, {}).get(path)
        if record is None:
            raise InferenceError(
                f"no recorded derivation of {path} from "
                f"{sorted(map(str, key))}; is the NFD implied?"
            )
        usable, member_pairs = record
        bridge_label = self.derive_usable(usable)
        # prefix-rule shortenings transform the bridge before use.  Shorter
        # members go first: a chain removes the paths it passes through,
        # so shortening B:C:D via B:C to B before the member B:C itself
        # would leave no B:C in the LHS for that member's own chain.
        for member, used in sorted(member_pairs,
                                   key=lambda pair: len(pair[0])):
            current = member
            while current != used:
                label = self._label()
                self.derivation.prefix(label, bridge_label, current)
                bridge_label = label
                current = current.parent
        premises = [self.derive_path(used, key)
                    for _, used in member_pairs]
        if not premises:
            # degenerate bridge [∅ -> r]: augment up to the key
            label = self._label()
            self.derivation.augmentation(label, bridge_label, key)
            self._path_steps[memo_key] = label
            return label
        label = self._label()
        self.derivation.transitivity(label, premises, bridge_label)
        self._path_steps[memo_key] = label
        return label

    # -- usable NFDs ------------------------------------------------------------

    def derive_usable(self, usable) -> str:
        """A step concluding the usable NFD in simple form."""
        memo_key = usable.key()
        if memo_key in self._usable_steps:
            return self._usable_steps[memo_key]
        if usable.origin == "sigma":
            label = self._derive_sigma(usable.detail)
        elif usable.origin == "localized":
            source, x = usable.detail
            source_label = self.derive_usable(source)
            label = self._label()
            self.derivation.full_locality(label, source_label, x)
        elif usable.origin == "singleton":
            label = self._derive_singleton(usable.detail)
        else:  # pragma: no cover - no other origins
            raise InferenceError(f"unknown origin {usable.origin!r}")
        self._usable_steps[memo_key] = label
        return label

    def _derive_sigma(self, member: NFD) -> str:
        """Push a Sigma member into simple form."""
        index = self.engine.sigma.index(member)
        label = f"s{index + 1}"
        nfd = self.engine.sigma[index]
        while not nfd.is_simple:
            new_label = self._label()
            self.derivation.push_in(new_label, label)
            label = new_label
            nfd = self.derivation.fact(label)
        return label

    def _derive_singleton(self, candidate) -> str:
        """Build a gated singleton NFD: premises, pull-out chain,
        the singleton rule, push-in chain back to simple form."""
        ybar = candidate.split
        premise_labels = []
        for target in sorted(candidate.targets):
            # R:[prefixes(ybar), s -> s:Ai] from the premise query...
            simple_label = self.derive_path(target,
                                            candidate.premise_lhs)
            # ...pulled out |ybar| times to base R:ybar.
            for _ in range(len(ybar)):
                label = self._label()
                self.derivation.pull_out(label, simple_label)
                simple_label = label
            premise_labels.append(simple_label)
        label = self._label()
        self.derivation.singleton(label, premise_labels)
        for _ in range(len(ybar)):
            new_label = self._label()
            self.derivation.push_in(new_label, label)
            label = new_label
        return label

    # -- the final pull-out chain --------------------------------------------

    def finish(self, nfd: NFD) -> Derivation:
        simple = to_simple(nfd)
        label = self.derive_path(simple.rhs, simple.lhs)
        depth = len(nfd.base) - 1
        for _ in range(depth):
            new_label = self._label()
            self.derivation.pull_out(new_label, label)
            label = new_label
        concluded = self.derivation.fact(label)
        if concluded != nfd:  # pragma: no cover - internal invariant
            raise InferenceError(
                f"proof compilation concluded {concluded}, expected {nfd}"
            )
        return self.derivation


def compile_proof(engine: ClosureEngine, nfd: NFD) -> Derivation:
    """A machine-checked derivation of *nfd* from the engine's Sigma.

    Every step is validated by the rule objects as it is recorded; the
    last step concludes exactly *nfd*.  Raises
    :class:`~repro.errors.InferenceError` when the NFD is not implied.
    """
    if not engine.implies(nfd):
        raise InferenceError(
            f"{nfd} is not implied; no proof exists (Theorem 3.1)"
        )
    simple = to_simple(nfd)
    provenance = engine.replay(nfd.relation, frozenset(simple.lhs))
    return _Compiler(engine, nfd.relation, provenance).finish(nfd)
