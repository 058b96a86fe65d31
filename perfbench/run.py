"""The repository benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads (see README.md):
``stream-spill``, ``stream-resume``, ``daemon-mix``, ``offline-sweep``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are BENCHMARK.json's end-to-end metrics, measured untraced;
with ``--trace 1`` they are its per-layer metrics, from a separate
traced window.  The lines before it name the workload's own metrics,
the environment and the first failure reasons.

Every file the run writes lives under ``.perfbench_work/`` in the
checkout and is removed at exit; every process it starts is stopped.
A checkout without ``src/repro`` exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("stream-spill", "stream-resume", "daemon-mix", "offline-sweep")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: A daemon-mix window runs until it holds this many requests, so p99
#: always has ten samples beyond it.
DAEMON_MIN_REQUESTS = 1000
#: Requests generated per connection; a longer window cycles them.
DAEMON_STREAM = 6000


class BenchError(Exception):
    """The benchmark itself could not run to the end."""


class Child:
    """A child process speaking one line per reply on stdout; its
    stderr goes to a file the run checks afterwards."""

    def __init__(self, name: str, command: list[str], ctx: "Context", *,
                 quit_by_signal: bool = False):
        self.name = name
        self.quit_by_signal = quit_by_signal
        self.greeting = ""
        self.err_path = os.path.join(ctx.work, f"{name}.err")
        self._err = open(self.err_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            command, cwd=ctx.root, env=ctx.env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self._err, text=True)
        ctx.children.append(self)

    def read_line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.stop()
            raise BenchError(f"{self.name}: no reply within {timeout:.0f}s"
                             f"; stderr: {self.stderr()[-800:]}")
        return line.strip()

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def quit(self) -> None:
        """Ask the process to exit: SIGTERM for a daemon, which stops on
        it cleanly, a ``quit`` line for a worker."""
        if self.quit_by_signal:
            self.proc.send_signal(signal.SIGTERM)
        else:
            self.send("quit")

    def stderr(self) -> str:
        with open(self.err_path, encoding="utf-8") as handle:
            return handle.read()

    def stop(self, timeout: float = 20.0) -> int:
        """Terminate (SIGTERM, then SIGKILL) and reap the process."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout)
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()
        self._err.close()
        return self.proc.returncode

    def finish(self, timeout: float = 20.0) -> int:
        """Wait for a process that was told to exit."""
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            pass
        return self.stop()


class Context:
    """One run: arguments, work directory, environment, children."""

    def __init__(self, args, root: str):
        from perfbench import inputs
        from perfbench.stats import Tally

        self.args = args
        self.root = root
        self.seed = args.seed
        # a traced run splits --seconds between the untraced baseline
        # window and the traced window
        self.trace = bool(args.trace)
        self.seconds = args.seconds / 2 if self.trace else args.seconds
        self.sizes = inputs.SMOKE if args.smoke else inputs.FULL
        self.tally = Tally()
        self.children: list[Child] = []
        self.work = os.path.join(root, ".perfbench_work",
                                 f"{args.workload}-{os.getpid()}")
        self.tmp = os.path.join(self.work, "tmp")
        os.makedirs(self.tmp)
        env = {k: v for k, v in os.environ.items()
               if k != "REPRO_CACHE_DIR"}
        env.update(PYTHONPATH=os.path.join(root, "src"), TMPDIR=self.tmp,
                   PYTHONHASHSEED="0")
        self.env = env

    def subdir(self, name: str) -> str:
        path = os.path.join(self.work, name)
        os.makedirs(path)
        return path

    def worker(self, spec: dict, name: str) -> Child:
        """Start a worker on *spec*; returns once it is ready."""
        spec_path = os.path.join(self.work, f"{name}.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        child = Child(name, [sys.executable, os.path.join(HERE, "worker.py"),
                             spec_path], self)
        child.greeting = child.read_line(300)
        if child.greeting != "ready" \
                and not child.greeting.startswith("repro daemon"):
            raise BenchError(f"{name}: unexpected greeting "
                             f"{child.greeting!r}")
        return child

    def run_window(self, child: Child, spec: dict, expected) -> dict:
        """Hand the oracle answers to a ready worker and run its window."""
        with open(spec["expected"], "w", encoding="utf-8") as handle:
            json.dump(expected, handle)
        child.send("go")
        windows = 2 if self.trace else 1
        if child.read_line(windows * (3 * self.seconds + 90)) != "done":
            raise BenchError(f"{child.name}: window did not finish")
        self.clean_exit(child)
        with open(spec["result"], encoding="utf-8") as handle:
            result = json.load(handle)
        for window in ("untraced", "traced"):
            if window in result:
                self.tally.merge(result[window]["attempted"],
                                 result[window]["failed"],
                                 result[window]["reasons"])
        return result

    def clean_exit(self, child: Child) -> None:
        """Reap *child*; a failed exit or any stderr output fails."""
        code = child.finish()
        err = child.stderr()
        if code != 0:
            self.tally.fail(f"{child.name} exited with {code}")
        if err:
            self.tally.fail(f"{child.name} wrote to stderr: {err[:300]}")

    def set_up(self, make) -> tuple[float, object]:
        """Run *make* ``SETUPS`` times (once when traced); the median
        duration is ``setup_s``.  Earlier set-ups are torn down."""
        durations, kept = [], None
        for k in range(1 if self.trace else SETUPS):
            start = time.perf_counter()
            child, state = make(self.subdir(f"setup-{k}"))
            durations.append(time.perf_counter() - start)
            if kept is not None:
                kept[0].quit()
                self.clean_exit(kept[0])
            kept = (child, state)
        return median(durations), kept

    def close(self) -> None:
        for child in self.children:
            if child.proc.returncode is None:
                child.stop()
        shutil.rmtree(self.work, ignore_errors=True)
        parent = os.path.dirname(self.work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


class Report:
    """What one workload measured, before printing."""

    def __init__(self):
        self.end_to_end: dict[str, float] = {}
        self.named: list[tuple[str, float, str]] = []
        self.per_layer: dict[str, float] = {}

    def name(self, name: str, value: float, unit: str) -> None:
        self.named.append((name, value, unit))


def _spec(ctx: Context, workdir: str, **fields) -> dict:
    return dict(fields, workload=ctx.args.workload, seconds=ctx.seconds,
                trace=ctx.trace, workdir=workdir, tmpdir=ctx.tmp,
                expected=os.path.join(workdir, "expected.json"),
                result=os.path.join(workdir, "result.json"))


def _overhead(untraced: dict, traced: dict) -> float:
    """Traced over untraced wall per operation, minus one: the ratio of
    summed per-kind medians."""
    kinds = [k for k in untraced["times"] if k in traced["times"]]
    slow = sum(median(traced["times"][k]) for k in kinds)
    fast = sum(median(untraced["times"][k]) for k in kinds)
    return slow / fast - 1.0


def _traced_layers(ctx: Context, result: dict, report: Report,
                   server: dict | None = None, ops: int | None = None,
                   overhead: float | None = None,
                   client_p50_ms: float = 0.0) -> None:
    from perfbench import tracing

    if ops is None:
        ops = sum(len(v) for v in result["traced"]["times"].values())
    if overhead is None:
        overhead = _overhead(result["untraced"], result["traced"])
    report.per_layer = tracing.per_layer_metrics(
        [tuple(span) for span in result["spans"]], ops, result["counts"],
        server, overhead=overhead, fail_ratio=ctx.tally.fail_ratio,
        client_p50_ms=client_p50_ms)


# ------------------------------------------------------------- workloads


def stream_spill(ctx: Context, report: Report) -> None:
    from perfbench import inputs
    def make(workdir):
        data = inputs.stream_spill(workdir, ctx.seed, ctx.sizes)
        spec = _spec(ctx, workdir, bundle=data["bundle"],
                     stream=data["stream"], max_rows=data["max_rows"])
        return ctx.worker(spec, "worker"), (data, spec)

    setup_s, (child, (data, spec)) = ctx.set_up(make)
    code, text, problems = inputs.stream_spill_oracle(data)
    for problem in problems:
        ctx.tally.fail(problem)
    if ctx.args.plant_wrong_answer:
        text += "planted difference\n"
    result = ctx.run_window(child, spec, [code, text])
    pass_s = median(result["untraced"]["times"]["pass"])
    elements_per_s = data["elements"] / pass_s
    report.end_to_end.update(
        setup_s=setup_s, peak_rss_mb=result["peak_rss_mb"],
        throughput_per_s=elements_per_s, latency_ms=pass_s * 1000.0)
    report.name("stream_elements_per_s", elements_per_s, "elem/s")
    report.name("stream_pass_ms", pass_s * 1000.0, "ms")
    report.name("passes", len(result["untraced"]["times"]["pass"]),
                "count")
    report.name("elements", data["elements"], "count")
    report.name("max_rows", data["max_rows"], "rows")
    if ctx.trace:
        _traced_layers(ctx, result, report)


def stream_resume(ctx: Context, report: Report) -> None:
    from perfbench import inputs
    def make(workdir):
        data = inputs.stream_resume(workdir, ctx.seed, ctx.sizes)
        spec = _spec(ctx, workdir, bundle=data["bundle"], base=data["base"],
                     rounds=data["rounds"], elements=data["elements"])
        return ctx.worker(spec, "worker"), (data, spec)

    setup_s, (child, (data, spec)) = ctx.set_up(make)
    expected = inputs.stream_resume_oracle(data, spec["workdir"])
    if ctx.args.plant_wrong_answer:
        expected[1][1] += "planted difference\n"
    result = ctx.run_window(child, spec, expected)
    times = result["untraced"]["times"]
    cold_s, resume_s = median(times["cold"]), median(times["resume"])
    elements_per_s = data["elements"] / cold_s
    report.end_to_end.update(
        setup_s=setup_s, peak_rss_mb=result["peak_rss_mb"],
        throughput_per_s=elements_per_s, latency_ms=resume_s * 1000.0)
    report.name("stream_elements_per_s", elements_per_s, "elem/s")
    report.name("resume_p50_ms", resume_s * 1000.0, "ms")
    report.name("cold_passes", len(times["cold"]), "count")
    report.name("resumes", len(times["resume"]), "count")
    report.name("lines_per_round", data["rounds"][0].count("\n"), "count")
    if ctx.trace:
        _traced_layers(ctx, result, report)


def offline_sweep(ctx: Context, report: Report) -> None:
    from perfbench import inputs
    def make(workdir):
        data = inputs.offline_sweep(workdir, ctx.seed, ctx.sizes)
        spec = _spec(ctx, workdir, bundle=data["bundle"],
                     candidate=data["candidate"], sweep=data["sweep"],
                     sweep_seed=data["sweep_seed"])
        return ctx.worker(spec, "worker"), (data, spec)

    setup_s, (child, (data, spec)) = ctx.set_up(make)
    expected = inputs.offline_sweep_oracle(data)
    for problem in expected.pop("problems"):
        ctx.tally.fail(problem)
    if ctx.args.plant_wrong_answer:
        expected["keys"][1] += "planted difference\n"
    result = ctx.run_window(child, spec, expected)
    times = result["untraced"]["times"]
    keys_s, normalize_s = median(times["keys"]), median(times["normalize"])
    cold_ms = median(times["implies"]) * 1000.0
    report.end_to_end.update(
        setup_s=setup_s, peak_rss_mb=result["peak_rss_mb"],
        throughput_per_s=1.0 / (keys_s + normalize_s), latency_ms=cold_ms)
    report.name("keys_sweeps_per_s", 1.0 / keys_s, "sweeps/s")
    report.name("normalize_schemas_per_s", data["sweep"] / normalize_s,
                "schemas/s")
    report.name("cli_cold_start_ms", cold_ms, "ms")
    report.name("rounds", len(times["implies"]), "count")
    if ctx.trace:
        _traced_layers(ctx, result, report)


# ------------------------------------------------------------- daemon-mix


def _endpoint(line: str) -> tuple[str, int]:
    """``(host, port)`` from a daemon's readiness line."""
    prefix = "repro daemon listening on "
    if not line.startswith(prefix):
        raise BenchError(f"unexpected daemon readiness line {line!r}")
    host, port = line[len(prefix):].rsplit(":", 1)
    return host, int(port)


def _daemon(ctx: Context, name: str) -> tuple[Child, str, int]:
    """``python -m repro serve`` with default flags, up to its
    readiness line."""
    child = Child(name, [sys.executable, "-m", "repro", "serve"], ctx,
                  quit_by_signal=True)
    host, port = _endpoint(child.read_line(60))
    return child, host, port


def _serial(host: str, port: int, requests) -> list:
    """Send *requests* one after another on one connection."""
    from repro.errors import ReproError
    from repro.server import ReproClient

    answers = []
    with ReproClient(host, port) as client:
        for key, kind, params in requests:
            try:
                answers.append((key, client.request(kind, **params)))
            except ReproError as exc:
                answers.append((key, f"error: {exc}"))
    return answers


def _closed_loop(host: str, port: int, streams, expected, seconds: float,
                 min_requests: int) -> tuple[list, float]:
    """One connection per stream, each sending its next request when
    the previous reply arrives, until *seconds* have passed and at
    least *min_requests* completed.  Returns the samples ``(type,
    seconds, ok, reason)`` and the window's wall time."""
    from repro.errors import ReproError
    from repro.server import ReproClient

    samples: list[list] = [[] for _ in streams]
    start = time.perf_counter()
    deadline = start + seconds
    hard_stop = start + max(3 * seconds, 60.0)

    def connection(index: int) -> None:
        own = samples[index]
        requests = streams[index]
        with ReproClient(host, port) as client:
            n = 0
            while True:
                now = time.perf_counter()
                done = sum(len(s) for s in samples)
                if now >= hard_stop or (now >= deadline
                                        and done >= min_requests):
                    return
                key, kind, params = requests[n % len(requests)]
                n += 1
                began = time.perf_counter()
                try:
                    answer, reason = client.request(kind, **params), ""
                except ReproError as exc:
                    answer, reason = None, f"{kind}: {exc}"
                elapsed = time.perf_counter() - began
                ok = answer == expected[key]
                own.append((kind, elapsed, ok,
                            reason or f"{kind} {key}: wrong answer"))

    threads = [threading.Thread(target=connection, args=(i,))
               for i in range(len(streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(max(3 * seconds, 60.0) + 60.0)
    if any(thread.is_alive() for thread in threads):
        raise BenchError("a daemon-mix connection did not finish")
    wall = time.perf_counter() - start
    return [s for own in samples for s in own], wall


def _server_counters(host: str, port: int) -> dict:
    """The daemon's cumulative counters, flattened from ``stats``."""
    from repro.server import ReproClient

    with ReproClient(host, port) as client:
        stats = client.stats()
    server, pool = stats["server"], stats["pool"]
    counters = {name: pool[name] for name in (
        "hits", "misses", "evictions", "coalesced_builds", "session_builds",
        "validator_builds", "batches", "batched_queries")}
    counters.update(
        sheds=server["sheds"], latency_count=server["requests"],
        latency_total_ms=server["latency_mean_ms"] * server["requests"])
    return counters


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc status")


def _daemon_window(ctx: Context, host: str, port: int, bundles,
                   expected) -> tuple[list, float, dict]:
    from perfbench import inputs

    streams = [inputs.daemon_requests(bundles, ctx.seed, f"connection-{i}",
                                      DAEMON_STREAM) for i in range(2)]
    minimum = 20 if ctx.args.smoke or ctx.trace else DAEMON_MIN_REQUESTS
    before = _server_counters(host, port)
    samples, wall = _closed_loop(host, port, streams, expected,
                                 ctx.seconds, minimum)
    after = _server_counters(host, port)
    delta = {name: after[name] - before[name] for name in after}
    for kind, _elapsed, ok, reason in samples:
        ctx.tally.record(ok, reason)
    if delta["sheds"]:
        ctx.tally.fail(f"daemon shed {delta['sheds']} request(s)")
    return samples, wall, delta


def daemon_mix(ctx: Context, report: Report) -> None:
    from perfbench import inputs
    from perfbench.stats import percentile, tail_report

    def make(workdir):
        bundles = inputs.daemon_bundles(ctx.seed, ctx.sizes)
        child, host, port = _daemon(ctx, "daemon")
        warm = inputs.daemon_requests(bundles, ctx.seed, "warm-up",
                                      ctx.sizes.daemon_warmup_requests)
        return child, (bundles, warm, host, port,
                       _serial(host, port, warm))

    setup_s, (child, (bundles, warm, host, port, answers)) = \
        ctx.set_up(make)
    expected = inputs.daemon_oracle(bundles)
    if ctx.args.plant_wrong_answer:
        for value in expected.values():
            if "implied" in value:
                value["implied"] = not value["implied"]
    for key, answer in answers:
        ctx.tally.record(answer == expected[key], f"warm-up {key}")
    samples, wall, delta = _daemon_window(ctx, host, port, bundles,
                                          expected)
    peak = _peak_rss_mb(child.proc.pid)
    child.quit()
    ctx.clean_exit(child)
    rate = len(samples) / wall
    latencies = [elapsed * 1000.0 for _, elapsed, _, _ in samples]
    tail = tail_report(latencies)
    report.end_to_end.update(setup_s=setup_s, peak_rss_mb=peak,
                             throughput_per_s=rate, latency_ms=tail[1])
    report.name("daemon_requests_per_s", rate, "req/s")
    for kind, _share in inputs.DAEMON_MIX:
        own = [ms for (k, _, _, _), ms in zip(samples, latencies)
               if k == kind]
        if own:
            report.name(f"{kind}_p50_ms", median(own), "ms")
    report.name(f"daemon_p{tail[0]:g}_ms", tail[1], "ms")
    report.name("daemon_p50_ms", percentile(latencies, 50), "ms")
    report.name("requests", len(samples), "count")
    report.name("server.service_ms_mean", delta["latency_total_ms"]
                / max(delta["latency_count"], 1), "ms")
    report.name("server.evictions", delta["evictions"], "count")
    if not ctx.trace:
        return
    # Traced window: the same load against a daemon hosted in-process
    # by a worker with the span wrappers installed.
    workdir = ctx.subdir("traced")
    spec = _spec(ctx, workdir)
    host_child = ctx.worker(spec, "traced-daemon")
    traced_host, traced_port = _endpoint(host_child.greeting)
    _serial(traced_host, traced_port, warm)
    host_child.send("start")
    host_child.read_line(30)
    traced, traced_wall, traced_delta = _daemon_window(
        ctx, traced_host, traced_port, bundles, expected)
    host_child.send("end")
    host_child.read_line(30)
    host_child.quit()
    if host_child.read_line(120) != "done":
        raise BenchError("traced daemon did not write its spans")
    ctx.clean_exit(host_child)
    with open(spec["result"], encoding="utf-8") as handle:
        result = json.load(handle)
    traced_rate = len(traced) / traced_wall
    _traced_layers(ctx, result, report, server=traced_delta,
                   ops=len(traced), overhead=rate / traced_rate - 1.0,
                   client_p50_ms=percentile(
                       [e * 1000.0 for _, e, _, _ in traced], 50))


RUN = {"stream-spill": stream_spill, "stream-resume": stream_resume,
       "daemon-mix": daemon_mix, "offline-sweep": offline_sweep}


# ------------------------------------------------------------------ main


def _environment() -> str:
    try:
        import numpy
        backend = f"numpy {numpy.__version__} importable (stream " \
                  "--backend auto uses columnar tables)"
    except ImportError:
        backend = "numpy not importable (stream --backend auto uses " \
                  "dict tables)"
    return (f"environment: python {platform.python_version()}, "
            f"{os.cpu_count()} core(s), {backend}")


def _metric_table(trace: bool) -> list[tuple[str, str]]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced "
                             "window instead of the end-to-end metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--plant-wrong-answer", action="store_true",
                        dest="plant_wrong_answer",
                        help="corrupt one oracle answer; the run must "
                             "then report failures (self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print(f"error: {root} holds no src/repro; run from the root of a "
              "repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(root, "src"), os.path.dirname(HERE)]
    ctx = Context(args, root)
    report = Report()
    try:
        RUN[args.workload](ctx, report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        ctx.close()
    table = _metric_table(ctx.trace)
    values = report.per_layer if ctx.trace else report.end_to_end
    print(f"workload: {args.workload}  seed: {args.seed}  "
          f"trace: {args.trace}")
    print(_environment())
    for name, value, unit in report.named:
        print(f"{name}: {value:.6g} {unit}")
    print(f"fail_ratio: {ctx.tally.fail_ratio:.6g} "
          f"({ctx.tally.failed}/{ctx.tally.attempted})")
    for reason in ctx.tally.reasons:
        print(f"failure: {reason}")
    result = {
        "correct": ctx.tally.failed == 0,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
