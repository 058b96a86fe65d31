"""Pinned stdout of the offline commands: ``normalize --sweep`` and
``keys`` on a wide key schema.

These are the two batch-closure workloads (every candidate of a design
sweep, every attribute combination of a key sweep, closed over one
fixed Σ).  Their printed output is a pure function of the inputs, so
any change to how the sweeps share work — memos, seeds, visit order,
skipped re-derivations — must leave these bytes alone.  The digests
were recorded from the tree before the offline sweeps gained their
per-synthesis projection memo, the Σ-member skip in candidate
assessment and the mask-indexed key sweep; they must never move.
"""

import hashlib
import json
import random

import pytest

from repro.cli import main

SWEEP_DIGESTS = {
    (120, 1): "101b1a33f487a80540a2db4b8be1191a1ccd7584d8c68576f6c060a5cfc1b307",
    (50, 0): "c7db386831eadf8a48a02a255d5fc7902bfa401c22c64d2e7448108670ea46ca",
}

KEYS_DIGEST = "09718ff95d9acaa057a428c384e6daf5b2794a392e9ca7fddc4d92cdc39f85a7"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _wide_key_bundle(attributes: int = 11, rules: int = 9,
                     seed: int = 1) -> dict:
    """An ``attributes``-atom relation plus one set-valued attribute,
    with ``rules`` two-attribute FDs drawn from a fixed template, one
    NFD into the set and one inside it.  The template fixes the shape
    (so every seed closes the same number of subsets); *seed* permutes
    which attribute plays which role."""
    template = random.Random("offline-sweep:template")
    slots = range(attributes)
    drawn = []
    for _ in range(rules):
        lhs = template.sample(slots, 2)
        drawn.append((lhs, template.choice([i for i in slots
                                            if i not in lhs])))
    set_lhs = template.sample(slots, 3)
    names = [f"a{i}" for i in slots]
    role = random.Random(f"offline-sweep:{seed}").sample(names,
                                                         len(names))
    schema = ("{<" + ", ".join(f"{name}: int" for name in names)
              + ", s: {<x: int, y: int>}>}")
    nfds = [f"R:[{role[a]}, {role[b]} -> {role[rhs]}]"
            for (a, b), rhs in drawn]
    nfds.append(f"R:[{', '.join(role[i] for i in set_lhs)} -> s]")
    nfds.append("R:s:[x -> y]")
    return {"schema": {"R": schema}, "nfds": nfds}


@pytest.mark.parametrize("count,seed", sorted(SWEEP_DIGESTS))
def test_normalize_sweep_stdout_is_pinned(capsys, count, seed):
    code = main(["normalize", "--sweep", str(count), "--seed", str(seed)])
    out = capsys.readouterr().out
    assert code == 0
    assert _digest(out) == SWEEP_DIGESTS[(count, seed)]


def test_keys_stdout_on_wide_bundle_is_pinned(capsys, tmp_path):
    bundle = tmp_path / "keys.json"
    bundle.write_text(json.dumps(_wide_key_bundle()), encoding="utf-8")
    code = main(["keys", str(bundle)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("R: {")
    assert _digest(out) == KEYS_DIGEST
