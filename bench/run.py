"""Run one benchmark workload against the partrans sources in ./src.

    python3 bench/run.py --workload algebra|chambers|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones. A summary per op kind goes to stderr. Exit status 2 when the
sources are missing or an argument is bad.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from common import OUT, SRC, run_child
from oracle import Mismatch

SETUP_REPEATS = 5
MIN_OPS = 100


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("algebra", "chambers", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(wl):
    """Median wall time of fresh interpreters doing the workload's set-up."""
    files = []
    for key, doc in wl.docs.items():
        path = wl.workdir / f"setup_{key}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        files.append(str(path))
    argv = [sys.executable, "-c", wl.setup_script(), str(SRC)] + files
    err_path = wl.workdir / "setup_stderr.txt"
    times = []
    for _ in range(SETUP_REPEATS):
        with open(err_path, "wb") as err:
            elapsed, code, _ = run_child(argv, subprocess.DEVNULL, err)
        if code != 0:
            fail(f"set-up child exited with {code}: {err_path.read_text(errors='replace')}")
        times.append(elapsed)
    return statistics.median(times)


class Runner:
    """Closed loop over whole rounds of ops, one at a time."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.latencies = []
        self.by_kind = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.rounds = 0
        self.round_latencies = []  # per round, ms

    def run_rounds(self, deadline, min_ops):
        clock = time.perf_counter_ns
        tracer = self.tracer
        while time.perf_counter() < deadline or self.attempted < min_ops:
            first = len(self.latencies)
            for op in self.wl.round(self.rounds):
                self.attempted += 1
                if tracer is not None:
                    tracer.begin_op(f"{op.kind}@{op.model}")
                t0 = clock()
                try:
                    result, raised = op.call(), None
                except Exception as exc:  # an op that raises is a failed op
                    raised = exc
                dt = clock() - t0
                if tracer is not None:
                    tracer.end_op()
                self.record(op.kind, dt)
                if raised is not None:
                    self.failed += 1
                    print(f"bench: op {op.kind} failed: {raised!r}", file=sys.stderr)
                    continue
                try:
                    op.check(result)
                except Exception as exc:  # wrong or malformed output
                    self.wrong += 1
                    print(f"bench: op {op.kind} gave a wrong result: {exc!r}", file=sys.stderr)
                    if not isinstance(exc, Mismatch):
                        traceback.print_exc(file=sys.stderr)
            self.rounds += 1
            self.round_latencies.append(self.latencies[first:])

    def record(self, kind, ns):
        ms = ns / 1e6
        self.latencies.append(ms)
        self.by_kind.setdefault(kind, []).append(ms)

    def summary(self):
        busy = sum(self.latencies) / 1000
        done = self.attempted - self.failed
        lines = [f"{self.wl.name}: {self.attempted} ops in {self.rounds} rounds, "
                 f"{self.failed} failed, {self.wrong} wrong, {done / busy:.2f} ops/s busy"]
        for kind, vals in sorted(self.by_kind.items()):
            lines.append(f"  {kind:28s} n={len(vals):5d} share={len(vals) / self.attempted:6.3f} "
                         f"median={statistics.median(vals):9.3f} ms max={max(vals):9.3f} ms")
        lines.append("round rates: " + " ".join(
            "%.1f" % (len(lat) / (sum(lat) / 1000)) for lat in self.round_latencies))
        return "\n".join(lines)

    def end_to_end(self):
        """The latency quantiles are taken in each round, over one whole op
        mix, and averaged over the rounds. A shared 2-core host can switch
        between a fast and a slow state every second or so. A quantile
        pooled over a run falls among ops of one cost and takes either
        state's value, while the mean of the rounds' quantiles moves with
        the share of slow time, as ops_per_s does: over eight seeds of
        `chambers` on such a host their spreads were 0.11 against 0.23
        pooled."""
        busy = sum(self.latencies) / 1000
        rounds = self.round_latencies
        return {
            "ops_per_s": ((self.attempted - self.failed) / busy, "ops/s"),
            "op_p50_ms": (statistics.fmean(statistics.median(lat) for lat in rounds), "ms"),
            "op_p90_ms": (statistics.fmean(statistics.quantiles(lat, n=10)[8] for lat in rounds), "ms"),
        }


def make_workload(name, seed, P, workdir):
    if name == "algebra":
        from algebra import Algebra
        return Algebra(seed, P, workdir)
    if name == "chambers":
        from chambers import Chambers
        return Chambers(seed, P, workdir)
    from cli_ops import Cli
    return Cli(seed, P, workdir)


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (SRC / "partrans" / "__init__.py").is_file():
        fail(f"no partrans sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import partrans
    import partrans.cli  # noqa: F401  (loaded before tracing so its imports are rebound)

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, partrans, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def run(args, P, workdir):
    wl = make_workload(args.workload, args.seed, P, workdir)
    setup_s = measure_setup(wl)
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        return run_traced(wl, args, deadline)
    runner = Runner(wl)
    runner.run_rounds(deadline, MIN_OPS)
    print(runner.summary(), file=sys.stderr)
    metrics = runner.end_to_end()
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (wl.peak_rss_mb(), "MB")
    return report([runner], metrics)


def run_traced(wl, args, deadline):
    from spans import Tracer, per_layer_spec

    values = {}
    runners = []
    if wl.spawns_processes:
        # the CLI layer is the subprocess wall time of each subcommand,
        # measured untraced over the first 40% of the run
        sub = Runner(wl)
        sub.run_rounds(deadline - 0.6 * args.seconds, 1)
        values.update(wl.wall_ms_by_subcommand(sub))
        runners.append(sub)
        wl.spawns_processes = False  # in-process from here on
    tracer = Tracer()
    tracer.install()  # rounds built from here on call the wrapped functions
    if not runners:
        # no library op loads a model: trace the workload's set-up as op 0
        tracer.active = True
        wl.load_models()
        tracer.active = False
        tracer.constructed = 0
    runner = Runner(wl, tracer)
    runner.run_rounds(deadline, MIN_OPS)
    runners.append(runner)
    print(runner.summary().replace("ops/s busy", "ops/s busy, traced"), file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{args.workload}.jsonl")
    values.update(tracer.metrics(runner.attempted))
    metrics = {name: (values.get(name, 0.0), unit) for name, unit in per_layer_spec()}
    return report(runners, metrics)


def report(runners, metrics):
    return {
        "correct": all(r.wrong == 0 for r in runners),
        "attempted": sum(r.attempted for r in runners),
        "failed": sum(r.failed for r in runners),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    main()
