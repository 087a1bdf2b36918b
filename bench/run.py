#!/usr/bin/env python3
"""End-to-end CCProf benchmark: four paper workloads, per-layer breakdown.

Run from the repository root::

    python3 bench/run.py --seed 0             # all workloads, end-to-end metrics
    python3 bench/run.py --seed 0 --traced    # all workloads, per-layer metrics
    python3 bench/run.py --workload nw_compare --seed 0 --seconds 10 --trace 0

With ``--workload`` one workload runs in this process.  Without it,
each workload runs in its own child process, one at a time, and their
results are merged into one JSON file under ``bench/out/``.  Every
metric prints as ``workload metric value unit``; with ``--workload``
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every op's outputs matched ``bench/expected.json`` (and,
traced, every decomposition guard held).  Ops are measured in user-mode
instructions retired (a hardware counter) as well as CPU seconds; the
run exits 3 when the kernel will not count instructions.
"""

import time

STARTED = time.perf_counter()  # set-up is timed from the first statement

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

from spans import CLOCK, CounterUnavailable, SpanRecorder, instruction_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("nw_compare", "case_studies", "trace_replay", "dense_phases")
DEFAULT_SECONDS = 10

#: Set-ups per end-to-end run (this process plus fresh child processes);
#: setup_s is their median.
SETUP_SAMPLES = 5

#: (default obs, null obs) op pairs per traced run; one decomposed op
#: follows each pair.
OBS_PAIRS = 3

#: A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10

CHILD_TIMEOUT_S = 900

#: End-to-end metrics (unit per name), measured with the benchmark's spans off.
END_TO_END = {
    "op_instructions_p50": "instr",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Spans a decomposed op records.  Their self times plus unattributed_s
#: add up to the op's CPU time, and their self instructions plus
#: unattributed_instr to its instructions.
STAGES = (
    "workloads.trace",
    "trace.batch",
    "trace.read",
    "cache.simulate",
    "pmu.sample",
    "core.analyze",
    "core.attribute",
    "core.rcd",
    "core.phases",
)

COUNTS = (
    "workloads.accesses",
    "trace.batches",
    "trace.bytes_read",
    "cache.misses",
    "pmu.events",
    "pmu.samples",
    "core.loops",
    "core.hot_loops",
    "core.conflicting_loops",
    "core.phases",
    "core.rcd_observations",
)

PER_LAYER = {
    "workloads.build_s": "s",
    **{f"{stage}_s": "s" for stage in STAGES},
    "pmu.select_s": "s",
    "unattributed_s": "s",
    "workloads.build_instr": "instr",
    **{f"{stage}_instr": "instr" for stage in STAGES},
    "pmu.select_instr": "instr",
    "unattributed_instr": "instr",
    "obs.overhead_ratio": "ratio",
    "trace_overhead_ratio": "ratio",
    **{name: "count" for name in COUNTS},
    "cache.miss_ratio": "ratio",
    "pmu.samples_per_event": "ratio",
}


class Cost(NamedTuple):
    """What one op cost: CPU seconds and user-mode instructions."""

    seconds: float
    instructions: int


class Ledger:
    """Runs ops, checks each one's outputs, and counts failures.

    Every op must match ``expected.json`` and produce exactly the outputs
    of the first op checked, whichever way it was driven.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.reference = None
        self.attempted = 0
        self.failures = []
        self.wall_s = []

    def run(self, op):
        """Run ``op`` once; returns ``(cost, outcomes)``, outcomes None when
        the op raised or failed a check."""
        counter = instruction_counter()
        self.attempted += 1
        wall, start, started = time.perf_counter(), CLOCK(), counter.read()
        try:
            outcomes, problems = op(), []
        except Exception as exc:  # a failing op is counted; the run goes on
            outcomes, problems = None, [f"{type(exc).__name__}: {exc}"]
        cost = Cost(CLOCK() - start, counter.read() - started)
        self.wall_s.append(time.perf_counter() - wall)
        if outcomes is not None:
            problems = self.workload.check(outcomes)
            if self.reference is None:
                self.reference = outcomes
            elif outcomes != self.reference:
                problems.append("outputs differ from the first op's")
        if problems:
            self.failures.append(f"op {self.attempted}: " + "; ".join(problems))
            return cost, None
        return cost, outcomes

    def result(self, workload_name, metrics, units, info) -> dict:
        return {
            "workload": workload_name,
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items()
            },
            "info": info,
        }


def tail_percentile(times):
    """The highest whole percentile with TAIL_SAMPLES samples beyond it."""
    count = len(times)
    if count < 2 * TAIL_SAMPLES:
        return None
    percentile = 100 * (count - TAIL_SAMPLES) // count
    rank = math.ceil(percentile * count / 100)
    return {
        "percentile": percentile,
        "seconds": sorted(times)[rank - 1],
        "samples_beyond": count - rank,
    }


def end_to_end(workload, seconds, setup_samples) -> dict:
    """Closed loop of back-to-back ops for ``seconds`` after one warm-up op."""
    ledger = Ledger(workload)
    ledger.run(workload.op)  # warm-up: lazy set-up finishes, untimed
    timed = []
    deadline = time.perf_counter() + seconds
    while not timed or time.perf_counter() < deadline:
        cost, outcomes = ledger.run(workload.op)
        accesses = None if outcomes is None else sum(o.accesses for o in outcomes)
        timed.append((cost, accesses))
    good = [(c, a) for c, a in timed if a is not None] or [(c, 0) for c, _ in timed]
    times = [c.seconds for c, _ in good]
    metrics = {
        "op_instructions_p50": statistics.median(c.instructions for c, _ in good),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    info = {
        "timed_ops": len(timed),
        "op_instructions": [c.instructions for c, _ in timed],
        "op_seconds": [c.seconds for c, _ in timed],
        "op_wall_seconds": ledger.wall_s[1:],
        "run_s_p50": statistics.median(times),
        "accesses_per_s": sum(a for _, a in good) / sum(times),
        "accesses_per_op": good[0][1],
        "setup_samples_s": setup_samples,
        "tail": tail_percentile(times),
        "counter_multiplexed": instruction_counter().multiplexed,
    }
    return ledger.result(workload.name, metrics, END_TO_END, info)


def layers(workload, recorder, setup_root) -> dict:
    """Per-layer metrics: decomposed ops interleaved with obs on/off pairs."""
    from repro.obs import NULL_REGISTRY, NULL_TRACER, use_registry, use_tracer

    ledger = Ledger(workload)
    ledger.run(workload.op)  # warm-up
    default, null, decomposed = [], [], []  # Costs of obs-on and obs-off ops

    def decomposed_op():
        with recorder.span("op") as root:
            outcomes, counts = workload.decomposed_op(recorder)
        decomposed.append((root, counts, outcomes))
        return outcomes

    for pair in range(OBS_PAIRS):
        for obs_off in (False, True) if pair % 2 == 0 else (True, False):
            if obs_off:
                with use_registry(NULL_REGISTRY), use_tracer(NULL_TRACER):
                    null.append(ledger.run(workload.op)[0])
            else:
                default.append(ledger.run(workload.op)[0])
        ledger.run(decomposed_op)

    if not decomposed:
        return ledger.result(workload.name, {}, {}, {})
    if any(counts != decomposed[0][1] for _, counts, _ in decomposed):
        ledger.failures.append("layer counts differ between decomposed ops")
    # The decomposed op with the median time; its stages add up exactly.
    root, counts, outcomes = sorted(decomposed, key=lambda item: item[0].duration)[
        len(decomposed) // 2
    ]
    metrics = {}
    for unit, total, self_shares in (
        ("s", root.duration, recorder.self_times),
        ("instr", root.instructions, recorder.self_instructions),
    ):
        own = self_shares(root)
        metrics[f"workloads.build_{unit}"] = self_shares(setup_root).get("workloads.build", 0)
        for stage in STAGES:
            metrics[f"{stage}_{unit}"] = own.get(stage, 0)
        metrics[f"pmu.select_{unit}"] = (
            metrics[f"pmu.sample_{unit}"] - metrics[f"cache.simulate_{unit}"]
        )
        metrics[f"unattributed_{unit}"] = total - sum(own.values())
    metrics["obs.overhead_ratio"] = statistics.median(
        on.instructions / off.instructions for on, off in zip(default, null)
    )
    metrics["trace_overhead_ratio"] = root.instructions / statistics.median(
        cost.instructions for cost in default
    )
    events = sum(o.events for o in outcomes)
    metrics.update(
        {
            "workloads.accesses": sum(o.accesses for o in outcomes),
            "trace.batches": counts["trace.batches"],
            "trace.bytes_read": counts["trace.bytes_read"],
            "cache.misses": counts["cache.misses"],
            "pmu.events": events,
            "pmu.samples": sum(o.samples for o in outcomes),
            "core.loops": sum(o.loops for o in outcomes),
            "core.hot_loops": sum(o.hot_loops for o in outcomes),
            "core.conflicting_loops": sum(len(o.conflicting_loops) for o in outcomes),
            "core.phases": sum(o.phases or 0 for o in outcomes),
            "core.rcd_observations": counts["core.rcd_observations"],
            "cache.miss_ratio": counts["cache.misses"] / counts["cache.accesses"],
            "pmu.samples_per_event": sum(o.samples for o in outcomes) / events,
        }
    )
    info = {
        "traced_op_s": root.duration,
        "traced_op_instructions": root.instructions,
        "decomposed_op_s": [item[0].duration for item in decomposed],
        "default_obs_op_s": [cost.seconds for cost in default],
        "null_obs_op_s": [cost.seconds for cost in null],
        "default_obs_op_instructions": [cost.instructions for cost in default],
        "null_obs_op_instructions": [cost.instructions for cost in null],
    }
    return ledger.result(workload.name, metrics, PER_LAYER, info)


def emit(result) -> None:
    """Print every metric as ``workload metric value unit``, then the JSON line."""
    for failure in result["failures"]:
        print(f"{result['workload']}: FAILED {failure}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{result['workload']} {name} {metric['value']!r} {metric['unit']}")
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary), flush=True)


def _write_json(path: Path, record) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")


def _child(workload, seed, *extra):
    return [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed), *extra,
    ]


def probe_setup(args) -> float:
    """Set-up seconds of one fresh process (``--setup-probe``)."""
    completed = subprocess.run(
        _child(args.workload, args.seed, "--setup-probe"),
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(completed.stdout.split()[-1])


def run_workload(args, suite) -> int:
    try:
        instruction_counter()
    except CounterUnavailable as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    kind = "traced" if args.trace else "e2e"
    out = args.out or OUT_DIR / f"{args.workload}-seed{args.seed}-{kind}.json"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workload = suite.WORKLOADS[args.workload](args.seed, workdir=str(OUT_DIR))
    recorder = SpanRecorder()
    try:
        with recorder.span("setup") as setup_root:
            workload.setup(recorder)
        setup_s = time.perf_counter() - STARTED
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        if args.trace:
            result = layers(workload, recorder, setup_root)
            spans = out.with_suffix(".spans.jsonl")
            recorder.export_jsonl(str(spans))
            result["info"]["spans"] = spans.name  # next to the result file
        else:
            samples = [setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
            result = end_to_end(workload, args.seconds, samples)
    finally:
        workload.close()
    result.update(seed=args.seed, seconds=args.seconds, trace=args.trace)
    _write_json(out, result)
    emit(result)
    return 0 if result["correct"] else 1


def run_suite(args) -> int:
    """Each workload in its own child process, one at a time."""
    kind = "traced" if args.trace else "e2e"
    merged = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        child_out = OUT_DIR / f"{name}-seed{args.seed}-{kind}.json"
        child_out.unlink(missing_ok=True)
        completed = subprocess.run(
            _child(name, args.seed, "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(child_out)),
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
        for line in completed.stdout.splitlines()[:-1]:
            print(line, flush=True)
        status = status or completed.returncode
        if child_out.exists():
            with open(child_out, encoding="ascii") as handle:
                merged["workloads"][name] = json.load(handle)
        else:
            merged["workloads"][name] = {"correct": False, "exit_code": completed.returncode}
            status = status or 1
    out = args.out or OUT_DIR / f"result-seed{args.seed}-{kind}.json"
    _write_json(out, merged)
    print(f"# wrote {out}")
    return 1 if status else 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all, each in a child)")
    parser.add_argument("--seed", type=int, default=0, help="sampler seed (default 0)")
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help=f"timed seconds per workload (default {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a separate traced run")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--out", type=Path, help="result JSON path (default under bench/out/)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {SRC_DIR}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_suite(args)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import suite

    return run_workload(args, suite)


if __name__ == "__main__":
    sys.exit(main())
