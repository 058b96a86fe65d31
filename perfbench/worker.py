"""One workload's timed window, run in a fresh process.

    python3 perfbench/worker.py SPEC.json

``run.py`` writes the spec, starts this worker and counts the worker's
imports and warm-up pass as set-up, up to its ``ready`` line.  On
``go`` the worker reads the oracle answers, runs the window and writes
its result as JSON to the path the spec names.  With tracing on it runs
the window twice: untraced first (the overhead baseline), then with the
span wrappers installed.

For ``daemon-mix`` the worker is only used by the traced run: it hosts
the daemon in-process with :class:`repro.server.BackgroundServer`, so
the wrappers see its calls, and ``run.py`` drives the load.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Runner:
    """Runs operations, checks each answer and records its wall time."""

    #: Smallest number of operations a window holds, however slow.
    MIN_OPS = 3

    def __init__(self, spec: dict):
        self.spec = spec
        self.expected = None
        self.recorder = None
        self.counters = None
        self.times: dict[str, list[float]] = {}
        self.tally = None

    def cli(self, argv: list[str]):
        """``repro.cli.main(argv)`` in-process, as one operation span
        when traced."""
        from perfbench.inputs import run_cli

        if self.recorder is None:
            return run_cli(argv)
        return self.recorder.call("cli.main", run_cli, argv)

    def timed(self, kind: str, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        self.times.setdefault(kind, []).append(time.perf_counter() - start)
        return result

    def check(self, ok: bool, what: str) -> None:
        self.tally.record(ok, what)

    def window(self, seconds: float) -> dict:
        from perfbench.stats import Tally

        self.times, self.tally = {}, Tally()
        deadline = time.perf_counter() + seconds
        ops = 0
        while time.perf_counter() < deadline or ops < self.MIN_OPS:
            self.step()
            ops += 1
            if self.counters is not None:
                self.counters.release()
        return {"times": self.times, "attempted": self.tally.attempted,
                "failed": self.tally.failed,
                "reasons": self.tally.reasons}


class StreamSpill(Runner):
    """``check BUNDLE --stream FILE --max-rows R``, one pass per op."""

    def __init__(self, spec):
        super().__init__(spec)
        self.argv = ["check", spec["bundle"], "--stream", spec["stream"],
                     "--max-rows", str(spec["max_rows"])]

    def warm_up(self):
        self.cli(self.argv)

    def step(self):
        code, out, err = self.timed("pass", self.cli, self.argv)
        expected_code, expected_out = self.expected
        self.check(code == expected_code and out == expected_out,
                   f"stream pass: exit {code}, witnesses "
                   f"{'match' if out == expected_out else 'differ'}")
        self.check(not err, f"stream pass wrote to stderr: {err[:200]}")
        leftovers = os.listdir(self.spec["tmpdir"])
        self.check(not leftovers, f"spill root not empty: {leftovers[:3]}")


class StreamResume(Runner):
    """A cold ``check --stream --incremental`` pass on the base file,
    then append rounds, each re-run ``--incremental``."""

    def __init__(self, spec):
        super().__init__(spec)
        self.path = os.path.join(spec["workdir"], "resume.jsonl")
        self.cache = os.path.join(spec["workdir"], "cache")
        self.argv = ["check", spec["bundle"], "--stream", self.path,
                     "--incremental", "--cache-dir", self.cache]
        self.round = None
        self.lines = 0

    def reset(self):
        shutil.rmtree(self.cache, ignore_errors=True)
        shutil.copyfile(self.spec["base"], self.path)
        self.lines = self.spec["elements"]
        self.round = 0

    def warm_up(self):
        self.reset()
        self.cli(self.argv)
        self.round = None

    def step(self):
        rounds = self.spec["rounds"]
        if self.round is None or self.round == len(rounds):
            self.reset()
            kind, folded = "cold", self.lines
            note = f"cold at line 0/{self.lines}"
        else:
            text = rounds[self.round]
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(text)
            start, folded = self.lines, text.count("\n")
            self.lines += folded
            self.round += 1
            kind = "resume"
            note = f"resumed at line {start}/{self.lines}"
        code, out, err = self.timed(kind, self.cli, self.argv)
        expected_code, expected_out = self.expected[self.round]
        self.check(code == expected_code and out == expected_out,
                   f"{kind} round {self.round}: witnesses differ from a "
                   "cold re-stream")
        self.check(err == f"incremental: {note}, {folded} element(s) "
                          "folded\n",
                   f"{kind} round {self.round}: unexpected stderr "
                   f"{err[:200]!r}")
        spill = os.path.join(self.cache, "tmp")
        leftovers = os.listdir(spill) if os.path.isdir(spill) else []
        self.check(not leftovers,
                   f"<cache-dir>/tmp not empty: {leftovers[:3]}")

    def window(self, seconds: float) -> dict:
        self.round = None
        return super().window(seconds)


class OfflineSweep(Runner):
    """In-process ``keys`` and ``normalize --sweep N``, then one fresh
    ``python -m repro implies`` process, per cycle."""

    def __init__(self, spec):
        super().__init__(spec)
        self.commands = [
            ("keys", ["keys", spec["bundle"]]),
            ("normalize", ["normalize", "--sweep", str(spec["sweep"]),
                           "--seed", str(spec["sweep_seed"])]),
            ("implies", ["implies", spec["bundle"], spec["candidate"]]),
        ]
        self.next = 0

    def warm_up(self):
        for kind, argv in self.commands:
            self.run(kind, argv)

    def run(self, kind: str, argv: list[str]):
        if kind != "implies":
            return self.cli(argv)
        if self.recorder is None:
            return self.process([sys.executable, "-m", "repro", *argv])
        return self.recorder.call("cli.process", self.traced_process, argv)

    @staticmethod
    def process(command: list[str]):
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        return done.returncode, done.stdout, done.stderr

    def traced_process(self, argv: list[str]):
        """The cold start under ``perfbench/coldstart.py``: its spans
        join this run's, and the process's life outside them (start-up
        before the script's first line, teardown after its last) is the
        ``cli.interpreter`` span."""
        spans_path = os.path.join(self.spec["workdir"], "coldstart.json")
        launched = time.perf_counter()
        result = self.process([
            sys.executable, os.path.join(ROOT, "perfbench", "coldstart.py"),
            spans_path, *argv])
        exited = time.perf_counter()
        with open(spans_path, encoding="utf-8") as handle:
            child = json.load(handle)
        os.remove(spans_path)
        parent = self.recorder.current()
        self.recorder.adopt([tuple(span) for span in child["spans"]], parent)
        self.recorder.adopt([
            (1, "cli.interpreter", launched, child["started"], None),
            (2, "cli.interpreter", child["finished"], exited, None)], parent)
        return result

    def step(self):
        kind, argv = self.commands[self.next]
        self.next = (self.next + 1) % len(self.commands)
        code, out, err = self.timed(kind, self.run, kind, argv)
        expected_code, expected_out = self.expected[kind]
        self.check(code == expected_code and out == expected_out,
                   f"{kind}: exit {code}, output "
                   f"{'matches' if out == expected_out else 'differs'}")
        self.check(not err, f"{kind} wrote to stderr: {err[:200]}")

    def window(self, seconds: float) -> dict:
        self.next = 0
        return super().window(seconds)


RUNNERS = {"stream-spill": StreamSpill, "stream-resume": StreamResume,
           "offline-sweep": OfflineSweep}


def _measure(spec: dict) -> int:
    from perfbench import tracing

    runner = RUNNERS[spec["workload"]](spec)
    runner.warm_up()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    with open(spec["expected"], encoding="utf-8") as handle:
        runner.expected = json.load(handle)
    result = {"untraced": runner.window(spec["seconds"])}
    if spec["trace"]:
        recorder, counters = tracing.SpanRecorder(), tracing.Counters()
        tracing.install(recorder, counters)
        runner.recorder, runner.counters = recorder, counters
        before = counters.snapshot()
        result["traced"] = runner.window(spec["seconds"])
        result["counts"] = tracing.counts_delta(before, counters.snapshot())
        result["spans"] = recorder.spans
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    print("done", flush=True)
    return 0


def _serve(spec: dict) -> int:
    """Host the daemon with the span wrappers installed.

    Commands on stdin: ``start`` and ``end`` bound the traced window,
    ``quit`` stops the daemon and writes the window's spans and counts.
    """
    from perfbench import tracing
    from repro.server import BackgroundServer, ServerConfig

    recorder, counters = tracing.SpanRecorder(), tracing.Counters()
    tracing.install(recorder, counters)
    server = BackgroundServer(ServerConfig()).start()
    marks = {}
    try:
        print(f"repro daemon listening on {server.host}:{server.port}",
              flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "quit":
                break
            marks[command] = (time.perf_counter(), counters.snapshot())
            print("ok", flush=True)
    finally:
        server.stop()
    (start, before), (end, after) = marks["start"], marks["end"]
    result = {
        "spans": [span for span in recorder.spans
                  if span[2] >= start and span[3] <= end],
        "counts": tracing.counts_delta(before, after),
    }
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    print("done", flush=True)
    return 0


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    if spec["workload"] == "daemon-mix":
        return _serve(spec)
    return _measure(spec)


if __name__ == "__main__":
    sys.exit(main())
