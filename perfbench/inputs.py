"""Seeded inputs and oracle answers for the four workloads.

Everything here runs in the load-generating process at set-up.  Inputs
come from :mod:`repro.generators` and are written to files under the
run's work directory; the program under test only ever sees those files
(or, for ``daemon-mix``, the request frames built from them).  Oracle
answers are computed once per seed, in-process, from the paper-level
engines: the batch :class:`~repro.nfd.ValidatorEngine` (spot-checked
against Definition 2.4 in :mod:`repro.nfd.satisfy`), an
:class:`~repro.inference.ImplicationSession` and
:func:`~repro.analysis.minimal_keys`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass

from repro import cli
from repro.analysis import minimal_keys
from repro.design import sweep_normalize
from repro.generators import workloads
from repro.inference import ImplicationSession
from repro.io import dump_bundle, dump_jsonl, iter_set_elements
from repro.nfd import ValidatorEngine, parse_nfd, parse_nfds
from repro.nfd.satisfy import satisfies
from repro.paths import parse_path
from repro.types.parser import parse_schema
from repro.types.printer import format_type
from repro.values.build import Instance, to_python


@dataclass(frozen=True)
class Sizes:
    """Input sizes, chosen so one run fits a 2-core machine."""

    spill_courses: int = 3000
    spill_conflicts: int = 5          # of each kind: root and nested
    spill_rows_divisor: int = 20      # --max-rows = courses / divisor
    resume_courses: int = 2500
    resume_rounds: int = 6            # append rounds per cycle
    daemon_bundles: int = 48          # ~1.5x the default --max-sessions
    daemon_instance_courses: int = 80
    daemon_warmup_requests: int = 150
    key_attributes: int = 11
    key_rules: int = 9
    normalize_schemas: int = 120


FULL = Sizes()
SMOKE = Sizes(spill_courses=240, spill_conflicts=2, resume_courses=200,
              resume_rounds=2, daemon_bundles=6,
              daemon_instance_courses=8, daemon_warmup_requests=10,
              key_attributes=6, key_rules=4, normalize_schemas=4)

COURSE_SIGMA = (
    "Course:[cnum -> time]",
    "Course:[cnum, time -> books]",
    "Course:[books:isbn -> books:title]",
    "Course:students:[sid -> grade]",
)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``repro.cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_text(violations) -> tuple[int, str]:
    """The exact stdout and exit code ``repro check`` prints for
    *violations* (witnesses in engine order)."""
    lines = [f"{v.describe()}\n\n" for v in violations]
    if violations:
        lines.append(f"{len(violations)} violation(s)\n")
        return 1, "".join(lines)
    return 0, "instance satisfies all constraints\n"


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _course_rows(rng: random.Random, courses: int) -> list[dict]:
    """*courses* Course elements as plain dicts."""
    instance = workloads.scaled_course_instance(
        rng, courses, students_per_course=3, books_per_course=2)
    return [to_python(e) for e in instance.relation("Course")]


def _root_conflict(row: dict, tag: int) -> dict:
    """A copy of *row* with a new time: violates ``cnum -> time``."""
    return dict(row, time=row["time"] + 1_000_000 + tag)


def _nested_conflict(row: dict, sid: int) -> dict:
    """*row* plus one student id graded twice: violates
    ``Course:students:[sid -> grade]`` inside this course only."""
    students = list(row["students"]) + [
        {"sid": sid, "age": 20, "grade": "A"},
        {"sid": sid, "age": 20, "grade": "B"}]
    return dict(row, students=students)


# ------------------------------------------------------------ stream-spill


def stream_spill(workdir: str, seed: int, sizes: Sizes) -> dict:
    """A Course JSONL file in set order with injected conflicts.

    Σ has three root NFDs and one nested-anchored NFD; the file holds
    ``2 * spill_conflicts`` injected conflicts and about twice as many
    distinct root antecedent keys as courses, which is 40x ``--max-rows``.
    """
    rng = random.Random(f"stream-spill:{seed}")
    schema = workloads.course_schema()
    sigma = parse_nfds("\n".join(COURSE_SIGMA))
    rows = _course_rows(rng, sizes.spill_courses)
    picked = rng.sample(range(len(rows)), 2 * sizes.spill_conflicts)
    root_marks, nested_marks = [], []
    spot = rows[:24]
    for n, index in enumerate(picked[:sizes.spill_conflicts]):
        rows.append(_root_conflict(rows[index], n))
        root_marks.append(rows[index]["cnum"])
    for n, index in enumerate(picked[sizes.spill_conflicts:]):
        sid = 900_000 + n
        rows[index] = _nested_conflict(rows[index], sid)
        nested_marks.append(str(sid))
    # one conflict of each kind for the Definition 2.4 spot-check
    spot = spot + [rows[picked[0]], rows[-sizes.spill_conflicts],
                   rows[picked[sizes.spill_conflicts]]]
    instance = Instance(schema, {"Course": rows})
    bundle = _write(os.path.join(workdir, "spill-bundle.json"),
                    dump_bundle(schema, sigma))
    stream = os.path.join(workdir, "spill.jsonl")
    count = dump_jsonl(stream, iter_set_elements(instance.relation("Course")))
    return {"bundle": bundle, "stream": stream, "elements": count,
            "max_rows": sizes.spill_courses // sizes.spill_rows_divisor,
            "schema": schema, "sigma": sigma, "instance": instance,
            "root_marks": root_marks, "nested_marks": nested_marks,
            "spot": Instance(schema, {"Course": spot})}


def stream_spill_oracle(inputs: dict) -> tuple[int, str, list[str]]:
    """``(exit code, stdout, problems)`` for the spill workload.

    The expected witnesses are the in-memory engine's; *problems* lists
    every injected conflict that engine missed and every NFD on which it
    disagrees with Definition 2.4 over a small sub-instance.
    """
    schema, sigma = inputs["schema"], inputs["sigma"]
    result = ValidatorEngine(schema, sigma).validate(
        inputs["instance"], all_violations=True)
    problems = []
    by_nfd: dict[str, str] = {}
    for violation in result.violations:
        key = str(violation.nfd)
        by_nfd[key] = by_nfd.get(key, "") + violation.describe()
    for mark in inputs["root_marks"]:
        if mark not in by_nfd.get(COURSE_SIGMA[0], ""):
            problems.append(f"injected root conflict on {mark} not found")
    for mark in inputs["nested_marks"]:
        if f"sid = {mark}" not in by_nfd.get(COURSE_SIGMA[3], ""):
            problems.append(f"injected nested conflict on sid {mark} "
                            "not found")
    problems.extend(_definition_spot_check(inputs))
    code, text = check_text(result.violations)
    return code, text, problems


def _definition_spot_check(inputs: dict) -> list[str]:
    """Compare the engine with :func:`repro.nfd.satisfy.satisfies` per
    NFD on a few courses plus one conflict of each kind."""
    small = inputs["spot"]
    found = {str(v.nfd) for v in ValidatorEngine(
        inputs["schema"], inputs["sigma"]).validate(
            small, all_violations=True).violations}
    problems = []
    for nfd in inputs["sigma"]:
        if satisfies(small, nfd) == (str(nfd) in found):
            problems.append(f"engine and Definition 2.4 disagree on {nfd}")
    if len(found) < 2:
        problems.append("spot-check instance holds no conflict")
    return problems


# ----------------------------------------------------------- stream-resume


def stream_resume(workdir: str, seed: int, sizes: Sizes) -> dict:
    """A base Course JSONL file plus the lines each append round adds.

    Each round appends about 1% new lines: fresh courses, one of them
    with a nested conflict, plus a root conflict with a base course.
    """
    rng = random.Random(f"stream-resume:{seed}")
    schema = workloads.course_schema()
    sigma = parse_nfds("\n".join(COURSE_SIGMA))
    per_round = max(2, sizes.resume_courses // 100)
    fresh = per_round - 1
    rows = _course_rows(rng, sizes.resume_courses
                        + fresh * sizes.resume_rounds)
    base, extra = rows[:sizes.resume_courses], rows[sizes.resume_courses:]
    rounds = []
    for r in range(sizes.resume_rounds):
        lines = extra[r * fresh:(r + 1) * fresh]
        lines[0] = _nested_conflict(lines[0], 910_000 + r)
        lines.append(_root_conflict(rng.choice(base), r))
        rounds.append("".join(json.dumps(line) + "\n" for line in lines))
    base_text = "".join(json.dumps(row) + "\n" for row in base)
    bundle = _write(os.path.join(workdir, "resume-bundle.json"),
                    dump_bundle(schema, sigma))
    base_path = _write(os.path.join(workdir, "resume-base.jsonl"),
                       base_text)
    return {"bundle": bundle, "base": base_path, "rounds": rounds,
            "elements": len(base)}


def stream_resume_oracle(inputs: dict, workdir: str) -> list[list]:
    """``[exit code, stdout]`` of a cold re-stream of the file after
    each round (index 0: the base file alone)."""
    path = os.path.join(workdir, "resume-oracle.jsonl")
    with open(inputs["base"], encoding="utf-8") as handle:
        text = handle.read()
    expected = []
    for r in range(len(inputs["rounds"]) + 1):
        if r:
            text += inputs["rounds"][r - 1]
        _write(path, text)
        code, out, _ = run_cli(["check", inputs["bundle"], "--stream",
                                path])
        expected.append([code, out])
    os.remove(path)
    return expected


# -------------------------------------------------------------- daemon-mix


#: The request mix of daemon-mix, in percent.
DAEMON_MIX = (("implies", 50), ("closure", 25), ("keys", 10),
              ("check", 15))
#: Zipf exponent of the bundle popularity.
DAEMON_ZIPF = 1.0


#: Query templates of every daemon-mix bundle (``Course`` is renamed).
DAEMON_IMPLIES = (
    "Course:[cnum -> students]",
    "Course:[time, students:sid -> cnum]",
    "Course:[cnum -> books:title]",
    "Course:[students:sid -> time]",
    "Course:[books:isbn -> cnum]",
    "Course:students:[sid -> age]",
)
DAEMON_CLOSURES = (("Course", ["cnum"]),
                   ("Course", ["students:sid", "time"]),
                   ("Course:students", ["sid"]))


def daemon_bundles(seed: int, sizes: Sizes) -> list[dict]:
    """Distinct-Σ bundles, each with its request pool.

    Bundle *b* is the paper's Course schema and Σ (Examples 2.1-2.5)
    with the relation renamed ``Course<b>``: every Σ has its own
    fingerprint, so each takes its own pool entry, yet all cost the
    same, whatever the seed.  Each carries an instance with two
    ``cnum -> time`` conflicts (used only by check requests).
    """
    rng = random.Random(f"daemon-mix:{seed}")
    sigma_text = "\n".join(str(nfd) for nfd in workloads.course_sigma())
    bundles = []
    for b in range(sizes.daemon_bundles):
        name = f"Course{b}"

        def rename(text: str) -> str:
            return text.replace("Course", name)
        schema = parse_schema(f"{name} = " + format_type(
            workloads.course_schema().relation_type("Course")))
        sigma = parse_nfds(rename(sigma_text))
        rows = _course_rows(rng, sizes.daemon_instance_courses)
        rows += [_root_conflict(row, n)
                 for n, row in enumerate(rng.sample(rows, 2))]
        instance = Instance(schema, {name: rows})
        payload = json.loads(dump_bundle(schema, sigma, instance))
        plain = {k: v for k, v in payload.items() if k != "instance"}
        bundles.append({
            "plain": plain, "full": payload,
            "implies": [rename(text) for text in DAEMON_IMPLIES],
            "closures": [[rename(base), paths]
                         for base, paths in DAEMON_CLOSURES]})
    rng.shuffle(bundles)   # which Σ is hot is the seed's choice
    return bundles


def daemon_oracle(bundles: list[dict]) -> dict:
    """Expected results keyed ``"<bundle>:<type>:<index>"``, computed
    in-process with the daemon's default (worklist) strategy."""
    from repro.io import load_bundle

    expected = {}
    for b, bundle in enumerate(bundles):
        schema, sigma, instance = load_bundle(json.dumps(bundle["full"]))
        session = ImplicationSession(schema, sigma)
        for i, text in enumerate(bundle["implies"]):
            nfd = parse_nfd(text)
            expected[f"{b}:implies:{i}"] = {
                "implied": session.implies(nfd), "nfd": str(nfd)}
        for i, (base, paths) in enumerate(bundle["closures"]):
            closed = session.closure(parse_path(base),
                                     {parse_path(p) for p in paths})
            closure = [str(p) for p in sorted(closed)]
            expected[f"{b}:closure:{i}"] = {"closure": closure,
                                            "closures": [closure]}
        relation = schema.relation_names[0]
        keys = minimal_keys(schema, sigma, relation, engine=session)
        expected[f"{b}:keys:0"] = {
            "relation": relation,
            "keys": [sorted(str(p) for p in key) for key in keys]}
        result = ValidatorEngine(schema, sigma).validate(
            instance, all_violations=True)
        expected[f"{b}:check:0"] = {
            "satisfied": not result.violations,
            "violations": [v.describe() for v in result.violations],
            "partial": None}
    return expected


def daemon_requests(bundles: list[dict], seed: int, stream: str,
                    count: int) -> list[tuple[str, str, dict]]:
    """*count* requests ``(oracle key, type, params)``: bundles drawn
    Zipf-wise, types by :data:`DAEMON_MIX`."""
    rng = random.Random(f"daemon-mix:{seed}:{stream}")
    weights = [1.0 / (rank + 1) ** DAEMON_ZIPF
               for rank in range(len(bundles))]
    types = [name for name, _ in DAEMON_MIX]
    shares = [share for _, share in DAEMON_MIX]
    requests = []
    for _ in range(count):
        b = rng.choices(range(len(bundles)), weights)[0]
        bundle = bundles[b]
        kind = rng.choices(types, shares)[0]
        if kind == "implies":
            i = rng.randrange(len(bundle["implies"]))
            params = {"bundle": bundle["plain"],
                      "nfd": bundle["implies"][i]}
        elif kind == "closure":
            i = rng.randrange(len(bundle["closures"]))
            base, paths = bundle["closures"][i]
            params = {"bundle": bundle["plain"], "base": base,
                      "paths": paths}
        elif kind == "keys":
            i = 0
            params = {"bundle": bundle["plain"]}
        else:
            i = 0
            params = {"bundle": bundle["full"]}
        requests.append((f"{b}:{kind}:{i}", kind, params))
    return requests


# ----------------------------------------------------------- offline-sweep


def offline_sweep(workdir: str, seed: int, sizes: Sizes) -> dict:
    """A wide key schema (``key_attributes`` atoms plus one set-valued
    attribute), the ``normalize --sweep`` arguments, and one implies
    candidate for the cold-start processes.

    The dependency structure is one fixed template (so every seed's
    key sweep closes the same number of subsets); the seed permutes
    which attribute plays which role.
    """
    template = random.Random("offline-sweep:template")
    slots = range(sizes.key_attributes)
    rules = []
    for _ in range(sizes.key_rules):
        lhs = template.sample(slots, 2)
        rules.append((lhs, template.choice([i for i in slots
                                            if i not in lhs])))
    set_lhs = template.sample(slots, 3)
    probe = template.sample(slots, 2)
    probe_rhs = template.choice([i for i in slots if i not in probe])
    names = [f"a{i}" for i in slots]
    role = random.Random(f"offline-sweep:{seed}").sample(names, len(names))
    schema = parse_schema(
        "R = {<" + ", ".join(f"{name}: int" for name in names)
        + ", s: {<x: int, y: int>}>}")
    lines = [f"R:[{role[a]}, {role[b]} -> {role[rhs]}]"
             for (a, b), rhs in rules]
    lines.append(f"R:[{', '.join(role[i] for i in set_lhs)} -> s]")
    lines.append("R:s:[x -> y]")
    sigma = parse_nfds("\n".join(lines))
    bundle = _write(os.path.join(workdir, "keys-bundle.json"),
                    dump_bundle(schema, sigma))
    candidate = f"R:[{role[probe[0]]}, {role[probe[1]]} -> " \
        f"{role[probe_rhs]}]"
    return {"bundle": bundle, "schema": schema, "sigma": sigma,
            "candidate": candidate, "sweep": sizes.normalize_schemas,
            "sweep_seed": seed}


def offline_sweep_oracle(inputs: dict) -> dict:
    """Expected stdout and exit codes of the three offline commands."""
    schema, sigma = inputs["schema"], inputs["sigma"]
    keys = minimal_keys(schema, sigma, "R")
    keys_text = "".join(
        f"R: {{{', '.join(sorted(map(str, key)))}}}\n" for key in keys)
    summary = sweep_normalize(inputs["sweep"], seed=inputs["sweep_seed"])
    problems = []
    if not summary.ok(0.95) or summary.roundtrip_violations:
        problems.append(
            f"sweep fails its gate: preserved {summary.preserved_rate:.3f}"
            f", {summary.roundtrip_violations} round-trip violation(s)")
    session = ImplicationSession(schema, sigma)
    candidate = parse_nfd(inputs["candidate"])
    implied = session.implies(candidate)
    return {
        "keys": [0 if keys else 1, keys_text or
                 "R: no key among the top-level attributes\n"],
        "normalize": [0, summary.to_text() + "\n"],
        "implies": [0 if implied else 1,
                    f"{'implied' if implied else 'not implied'}: "
                    f"{candidate}\n"],
        "problems": problems,
    }
