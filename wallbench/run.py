"""Wall-clock benchmark of temporalsim on seeded, generated netlists.

    python3 wallbench/run.py --workload dag_large --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the library is imported from its
`src/` directory, never from an installed copy. One single-threaded
process per workload runs jobs back to back (a closed loop, no arrival
schedule: this is a batch simulator). A job is the library calls behind
one CLI invocation:

- check path (dag_large, madd_far): parse_netlist, oracle_results, run,
  compare the probes with the oracle, as `temporalsim check` does;
- run path (mesh_small): parse_netlist, run, trace_to_csv,
  trace_to_waveform, as `temporalsim run --trace --waveform` does.

Every job is checked against the independent evaluator and, wherever the
oracle supports its block kinds, against oracle_results. It must not
exhaust its budget, and must give byte-identical results, block costs,
trace CSV and waveform each time it repeats. The checks run after the
job's clock stops, through the same library calls, so a traced run
records their oracle and export calls too. A failed job is counted, never
dropped, and never stops the run.

All times are host wall-clock time. The end-to-end times are scaled to
the host's reference speed: each job's time is multiplied by
REFERENCE_MS over the time of a fixed reference loop run just before and
just after it (see reference.py), so the shared host's drifting speed
does not read as a change in the program. The raw host times are printed
too. Simulated ticks appear only in the deterministic fingerprint
section, which must be identical for every run of one seed, traced or
not.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a run that first times
untraced passes over the job pool, then traced passes (see tracing.py),
and writes the spans to .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from evaluator import Unchecked, evaluate
from reference import REFERENCE_MS, reference_ms
from workloads import WORKLOADS, job_pool, warmup_pool
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
REFERENCE_REPEATS = 4           # reference loops before and after set-up
API = ("parse_netlist", "oracle_results", "run", "trace_to_csv",
       "trace_to_waveform")
# The kinds oracle_results evaluates; a fixed set, so the checks' work
# stays the same when the oracle grows.
ORACLE_KINDS = frozenset(("source", "add", "mul", "min", "max", "madd",
                          "probe"))


@dataclass
class Job:
    name: str
    text: str
    blocks: int
    expected: Dict[str, object]
    budget: int
    oracle_kinds: bool


def prepare(specs) -> List[Job]:
    jobs = []
    for spec in specs:
        expected, last_tick = evaluate(spec)
        # Above every event tick the netlist can produce, the end of each
        # probed output included, so no correct run exhausts it.
        jobs.append(Job(spec.name, spec.text(), len(spec.blocks), expected,
                        2 * last_tick + 100,
                        all(b.kind in ORACLE_KINDS for b in spec.blocks)))
    return jobs


def import_temporalsim():
    sys.path.insert(0, str(SRC))
    import temporalsim
    if SRC not in Path(temporalsim.__file__).resolve().parents:
        raise ImportError("temporalsim imported from %s, not %s"
                          % (temporalsim.__file__, SRC))
    return temporalsim


def check_job(api, job: Job):
    net = api["parse_netlist"](job.text)
    oracle = api["oracle_results"](net)
    trace = api["run"](net, budget=job.budget)
    agree = all(trace.results.get(k) == v for k, v in oracle.items())
    return net, trace, oracle, agree, None, None


def run_job(api, job: Job):
    net = api["parse_netlist"](job.text)
    trace = api["run"](net, budget=job.budget)
    csv = api["trace_to_csv"](trace)
    vcd = api["trace_to_waveform"](trace)
    return net, trace, None, None, csv, vcd


def _canonical(value) -> str:
    if isinstance(value, (set, frozenset)):
        return "{%s}" % ",".join(map(str, sorted(value)))
    if isinstance(value, dict):
        return "{%s}" % ",".join("%d:%d" % kv for kv in sorted(value.items()))
    return str(value)


class Runner:
    """Runs jobs, times them, and checks each one after its clock stops."""

    def __init__(self, ts, check_path: bool):
        self.api = {name: getattr(ts, name) for name in API}
        self.job_fn = check_job if check_path else run_job
        self.digests: Dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.sim: Dict[int, tuple] = {}      # index -> (events, ticks)

    def execute(self, index: int, job: Job) -> float:
        self.attempted += 1
        start = perf_counter()
        try:
            outcome = self.job_fn(self.api, job)
        except Exception as exc:  # a failing job is counted, never fatal
            elapsed = perf_counter() - start
            self._fail(job, "%s: %s" % (type(exc).__name__, exc))
            return elapsed
        elapsed = perf_counter() - start
        try:
            problem = self._check(index, job, *outcome)
        except Exception as exc:  # a check that raises fails the job
            problem = "check raised %s: %s" % (type(exc).__name__, exc)
        if problem:
            self._fail(job, problem)
        return elapsed

    def _fail(self, job: Job, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append("%s: %s" % (job.name, problem))

    def _check(self, index, job, net, trace, oracle, agree, csv,
               vcd) -> Optional[str]:
        if trace.stats.budget_exhausted:
            return "budget %d exhausted" % job.budget
        if set(trace.results) != set(job.expected):
            return "probe keys %s != %s" % (sorted(trace.results),
                                            sorted(job.expected))
        for key, want in job.expected.items():
            if not isinstance(want, Unchecked) and trace.results[key] != want:
                return "%s=%s, evaluator says %s" % (
                    key, _canonical(trace.results[key]), _canonical(want))
        if oracle is None and job.oracle_kinds:
            oracle = self.api["oracle_results"](net)
            agree = all(trace.results.get(k) == v for k, v in oracle.items())
        if oracle is not None:
            if not agree:
                return "simulator disagrees with oracle_results"
            if any(job.expected[k] != v for k, v in oracle.items()):
                return "oracle_results disagrees with the evaluator"
        if csv is None:
            csv = self.api["trace_to_csv"](trace)
            vcd = self.api["trace_to_waveform"](trace)
        self.sim.setdefault(index, (trace.stats.event_count,
                                    trace.stats.total_ticks))
        digest = hashlib.sha256("\n".join([
            ";".join("%s=%s" % (k, _canonical(trace.results[k]))
                     for k in sorted(trace.results)),
            ";".join("%s=%d" % kv for kv in sorted(
                trace.stats.block_costs.items())),
            str(trace.stats.event_count),
            hashlib.sha256(csv.encode()).hexdigest(),
            hashlib.sha256(vcd.encode()).hexdigest(),
        ]).encode()).hexdigest()
        if self.digests.setdefault(index, digest) != digest:
            return ("repeat differs from first run (results, costs, CSV "
                    "or waveform)")
        return None

    def fingerprint(self, pool_size: int) -> str:
        return hashlib.sha256("".join(
            self.digests.get(i, "missing") for i in range(pool_size))
            .encode()).hexdigest()


def setup_probe(workload: str) -> None:
    """Child mode: time `import temporalsim` plus the warm-up jobs in this
    fresh interpreter; input generation happens before the clock starts.
    The reference loop runs just before and just after, off the clock."""
    jobs = prepare(warmup_pool(workload))
    refs = [reference_ms() for _ in range(REFERENCE_REPEATS)]
    start = perf_counter()
    ts = import_temporalsim()
    import_s = perf_counter() - start
    runner = Runner(ts, WORKLOADS[workload].check_path)
    warmup_s = sum(runner.execute(i, job) for i, job in enumerate(jobs))
    refs += [reference_ms() for _ in range(REFERENCE_REPEATS)]
    print(json.dumps({"import_s": import_s, "warmup_s": warmup_s,
                      "reference_ms": statistics.median(refs),
                      "failed": runner.failed}))


def measure_setup(workload: str) -> Dict[str, float]:
    probes = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + out.stderr)
        probes.append(json.loads(out.stdout.splitlines()[-1]))
    return {
        "setup_s": statistics.median(
            (p["import_s"] + p["warmup_s"]) * REFERENCE_MS / p["reference_ms"]
            for p in probes),
        "host_setup_s": statistics.median(p["import_s"] + p["warmup_s"]
                                          for p in probes),
        "import_s": statistics.median(p["import_s"] for p in probes),
        "warmup_s": statistics.median(p["warmup_s"] for p in probes),
        "failed": max(p["failed"] for p in probes),
    }


def timed_passes(runner, jobs, rng, seconds, min_passes):
    """Run whole passes over the pool, each in a fresh shuffled order, so
    every job carries the same weight in the percentiles: at least
    `min_passes`, then more while one more ends nearer to `seconds` than
    stopping would. The reference loop runs between jobs, and a job's
    scaled time is its host time times REFERENCE_MS over the mean of the
    loop's times just before and just after it. Returns the host and the
    scaled times per job index, and the pass count."""
    times: Dict[int, List[float]] = defaultdict(list)
    scaled: Dict[int, List[float]] = defaultdict(list)
    start = perf_counter()
    passes = 0
    before = reference_ms()
    while True:
        elapsed = perf_counter() - start
        if passes >= min_passes and elapsed + elapsed / passes / 2 >= seconds:
            return times, scaled, passes
        order = list(range(len(jobs)))
        rng.shuffle(order)
        for index in order:
            took = runner.execute(index, jobs[index])
            after = reference_ms()
            times[index].append(took)
            scaled[index].append(took * 2 * REFERENCE_MS / (before + after))
            before = after
        passes += 1


def end_to_end(times, scaled, jobs, setup, rss_mb) -> Dict[str, tuple]:
    """A job's time is the median of its scaled repeats (one per pass);
    the percentiles and throughput are taken over those per-job medians.
    The same figures from the raw host times are printed, not reported."""
    per_job = {i: statistics.median(ts) for i, ts in scaled.items()}
    samples = sorted(per_job.values())
    blocks = sum(jobs[i].blocks for i in per_job)
    host = sorted(statistics.median(ts) for ts in times.values())
    print("samples=%d jobs x %d repeats (beyond p90: %d)"
          % (len(samples), min(map(len, times.values())),
             len(samples) - math.ceil(0.9 * len(samples))))
    print("host (unscaled): job_p50_ms=%.6g job_p90_ms=%.6g "
          "blocks_per_s=%.6g setup_s=%.6g; host/scaled time=%.4g"
          % (1e3 * statistics.median(host),
             1e3 * statistics.quantiles(host, n=10)[-1], blocks / sum(host),
             setup["host_setup_s"], sum(host) / sum(samples)))
    return {
        "job_p50_ms": (1e3 * statistics.median(samples), "ms"),
        "job_p90_ms": (1e3 * statistics.quantiles(samples, n=10)[-1], "ms"),
        "blocks_per_s": (blocks / sum(samples), "blocks/s"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer: Tracer, passes: int, plain, traced,
              setup) -> Dict[str, tuple]:
    busy, own = tracer.totals()
    counts = tracer.counts
    scanned = counts["netlist.wires_scanned"]
    job_s = busy["job"] / passes

    def per_pass(value):
        return value / passes

    # Scaled job times, so host drift between the untraced and the traced
    # half of the run does not read as tracing overhead.
    paired = [statistics.mean(traced[i]) - statistics.mean(plain[i])
              for i in traced if i in plain]
    metrics = {
        "netlist.parse_s": (per_pass(busy["netlist.parse"]), "s"),
        "netlist.adjacency_calls": (
            per_pass(counts["netlist.adjacency_calls"]), "count"),
        "netlist.adjacency_s": (per_pass(busy["netlist.adjacency"]), "s"),
        "netlist.wires_scanned": (per_pass(scanned), "count"),
        "netlist.adjacency_yield": (
            counts["netlist.wires_returned"] / scanned if scanned else 0.0,
            "ratio"),
        "netlist.adjacency_share": (
            per_pass(busy["netlist.adjacency"]) / job_s, "ratio"),
        "engine.run_s": (per_pass(busy["engine.run"]), "s"),
        "engine.self_s": (per_pass(own["engine.run"]), "s"),
        "engine.oracle_s": (per_pass(busy["engine.oracle"]), "s"),
        "engine.events": (per_pass(counts["engine.events"]), "count"),
        "engine.fires": (per_pass(counts["engine.fires"]), "count"),
        "engine.budget_exhausted": (
            per_pass(counts["engine.budget_exhausted"]), "count"),
        "engine.csv_s": (per_pass(busy["engine.csv"]), "s"),
        "engine.vcd_s": (per_pass(busy["engine.vcd"]), "s"),
        "engine.export_bytes": (per_pass(counts["engine.export_bytes"]),
                                "bytes"),
        "channel.transmit_calls": (
            per_pass(counts["channel.transmit_calls"]), "count"),
        "channel.transmit_s": (per_pass(busy["channel.transmit"]), "s"),
        "channel.link_builds": (per_pass(counts["channel.link_builds"]),
                                "count"),
        "channel.link_s": (per_pass(busy["channel.link"]), "s"),
        "channel.violations": (per_pass(counts["channel.violations"]),
                               "count"),
        "arith.madd_calls": (per_pass(counts["arith.madd_calls"]), "count"),
        "arith.madd_s": (per_pass(busy["arith.madd"]), "s"),
        "arith.madd_share": (per_pass(busy["arith.madd"]) / job_s, "ratio"),
        "arith.sweep_ticks": (per_pass(counts["arith.sweep_ticks"]),
                              "ticks"),
        "arith.mv_merge_s": (per_pass(busy["arith.mv_merge"]), "s"),
        "accumulators.calls": (per_pass(counts["accumulators.calls"]),
                               "count"),
        "temporalsim.import_s": (setup["import_s"], "s"),
        "temporalsim.warmup_s": (setup["warmup_s"], "s"),
        "trace.job_s": (job_s, "s"),
        "trace.overhead_ms": (1e3 * statistics.mean(paired), "ms"),
    }
    print("traced passes=%d; times and counts are per pass over the pool"
          % passes)
    # Layers only mesh_small calls: on the other workloads these read
    # exactly 0 every run, so they are printed here but are not metrics.
    for name, span in (("arith.mux_s", "arith.mux"),
                       ("accumulators.accumulate_s",
                        "accumulators.accumulate"),
                       ("accumulators.convert_s", "accumulators.convert")):
        print("%s=%.6g s (printed only)" % (name, per_pass(busy[span])))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    workload = WORKLOADS[args.workload]
    jobs = prepare(job_pool(args.workload, args.seed))
    setup = measure_setup(args.workload)
    ts = import_temporalsim()
    runner = Runner(ts, workload.check_path)
    for index, job in enumerate(prepare(warmup_pool(args.workload))):
        runner.execute(-1 - index, job)         # pool indexes are >= 0
    rng = random.Random("order:%s:%d" % (args.workload, args.seed))
    # The benchmark's own inputs should not lengthen the library's
    # garbage collections: park them in the permanent generation.
    gc.collect()
    gc.freeze()

    if args.trace:
        _, plain, _ = timed_passes(runner, jobs, rng, args.seconds / 2, 1)
        tracer = Tracer()
        plain_api, plain_fn = runner.api, runner.job_fn
        tracer.install(ts)
        runner.api = tracer.wrap_api(plain_api)
        runner.job_fn = tracer.wrap_job(plain_fn)
        try:
            _, times, passes = timed_passes(runner, jobs, rng,
                                            args.seconds / 2, 1)
        finally:
            tracer.uninstall()
            runner.api, runner.job_fn = plain_api, plain_fn
    else:
        # Three passes at least: every job is checked against its repeats
        # and timed by the median of three or more.
        times, scaled, _ = timed_passes(runner, jobs, rng, args.seconds, 3)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print("workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("[simulated, deterministic]")
    print("pool_jobs=%d pool_blocks=%d sim_events=%d sim_ticks=%d"
          % (len(jobs), sum(j.blocks for j in jobs),
             sum(runner.sim[i][0] for i in range(len(jobs))),
             sum(runner.sim[i][1] for i in range(len(jobs)))))
    print("fingerprint=%s" % runner.fingerprint(len(jobs)))
    print("[wall-clock]")
    if args.trace:
        metrics = per_layer(tracer, passes, plain, times, setup)
        for path in tracer.absent:
            print("absent: %s (layer not traced)" % path)
        tracer.write(SPAN_DIR / ("spans-%s.csv.gz" % args.workload))
    else:
        metrics = end_to_end(times, scaled, jobs, setup, rss_mb)
    print("error_rate=%g (%d failed of %d attempted)"
          % (runner.failed / runner.attempted, runner.failed,
             runner.attempted))
    for line in runner.failures:
        print("FAILED %s" % line)
    if setup["failed"]:
        print("FAILED %d warm-up jobs in the set-up probe" % setup["failed"])
    for name, (value, unit) in metrics.items():
        print("%s=%.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": runner.failed == 0 and not setup["failed"],
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
