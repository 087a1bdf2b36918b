"""The benchmark's four workloads: set-up, one op, and the op decomposed by layer.

Every op drives the public ``repro`` API the way ``ccprof compare`` /
``analyze`` / ``phases`` users do: the batched engine, the built-in
observability layer left at its default (on), garbage collection on.
The decomposed op runs the same pipeline one layer call at a time, each
call inside a span recorded from here; nothing inside ``repro`` changes.
Why each workload was chosen is in README.md.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import repro.core.profiler as profiler_module
from repro import CCProf, UniformJitterPeriod
from repro.core.phases import PhaseAnalyzer
from repro.pmu.monitor import MonitorSession
from repro.trace.batch import DEFAULT_BATCH_SIZE, iter_batches
from repro.trace.tracefile import (
    read_binary_trace_batches,
    write_binary_trace_batches,
)
from repro.workloads.registry import resolve_workload

from spans import SpanRecorder, wrapped

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Mean sampling period: dense enough that every hot loop of the case
#: studies gets hundreds of samples, so verdicts hold for any seed.
PERIOD = 17

#: Records per ``trace()`` chunk in the decomposed op (one batch each).
CHUNK = DEFAULT_BATCH_SIZE

#: Samples per window of the phase analysis (the ``ccprof phases`` default).
PHASE_WINDOW = 256

#: Factory keyword arguments per workload name.  "full" keeps the registry
#: defaults (the paper's sizes); "small" is what the self-test drives.
SIZES: Dict[str, Dict[str, dict]] = {
    "full": {},
    "small": {
        "nw": {"n": 64},
        "fft": {"n": 32},
        "kripke": {"zones": 16},
        "himeno": {"dims": (16, 16, 16)},
        "tinydnn": {"in_size": 128, "out_size": 64},
    },
}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="ascii") as handle:
        return json.load(handle)


@dataclass(frozen=True)
class Outcome:
    """What profiling one workload variant produced.

    ``report`` is the full rendered conflict report: two ops on the same
    seed must render identically, whichever way they were driven.
    """

    variant: str
    accesses: int
    events: int
    samples: int
    loops: int
    hot_loops: int
    conflicting_loops: Tuple[str, ...]
    phases: Optional[int]
    report: str

    def pinned(self) -> dict:
        """The fields ``expected.json`` may pin, as JSON values."""
        return {
            "accesses": self.accesses,
            "events": self.events,
            "samples": self.samples,
            "conflicting_loops": list(self.conflicting_loops),
        }


def _outcome(variant, report, profile, hot_share, phased=None) -> Outcome:
    sampling = profile.sampling
    return Outcome(
        variant=variant,
        accesses=sampling.total_accesses,
        events=sampling.total_events,
        samples=sampling.sample_count,
        loops=len(report.loops),
        hot_loops=sum(
            1 for loop in report.loops if loop.miss_contribution >= hot_share
        ),
        conflicting_loops=tuple(
            sorted(loop.loop_name for loop in report.conflicting_loops())
        ),
        phases=None if phased is None else len(phased.phases),
        report=report.render(),
    )


def mismatches(outcomes: List[Outcome], expected: Dict[str, dict]) -> List[str]:
    """Differences between an op's outcomes and its expected statistics."""
    problems = []
    variants = [outcome.variant for outcome in outcomes]
    if sorted(variants) != sorted(expected):
        problems.append(f"variants {variants} != expected {sorted(expected)}")
    for outcome in outcomes:
        got = outcome.pinned()
        for key, want in expected.get(outcome.variant, {}).items():
            if got.get(key) != want:
                problems.append(
                    f"{outcome.variant}: {key} {got.get(key)!r} != expected {want!r}"
                )
    return problems


class _Materialized:
    """A workload whose trace is already held as batches.

    Lets the decomposed op hand pre-generated batches to
    :meth:`CCProf.profile`, which only reads these four attributes.
    """

    def __init__(self, workload, batches) -> None:
        self.name = workload.name
        self.image = workload.image
        self.allocator = workload.allocator
        self._batches = batches

    def trace(self):
        return iter(self._batches)


class BenchWorkload:
    """One benchmark workload.

    Call :meth:`setup` once, then :meth:`op` (or :meth:`decomposed_op`)
    any number of times, then :meth:`close`.
    """

    name = ""
    variants: Tuple[str, ...] = ()
    period = PERIOD

    def __init__(self, seed: int, scale: str = "full", workdir: Optional[str] = None):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.expected = load_expected()[scale][self.name]
        self.profiler = CCProf(period=UniformJitterPeriod(self.period), seed=seed)
        self.hot_share = self.profiler.analyzer.settings.hot_loop_share
        self.workloads: Dict[str, object] = {}

    def setup(self, recorder: SpanRecorder) -> None:
        for spec in self.variants:
            with recorder.span("workloads.build"):
                sizes = SIZES[self.scale].get(spec.partition(":")[0], {})
                workload = resolve_workload(spec, **sizes)
                workload.image  # built lazily; build it here, not in the first op
            self.workloads[spec] = workload

    def close(self) -> None:
        """Release what :meth:`setup` created (nothing, by default)."""

    def check(self, outcomes: List[Outcome]) -> List[str]:
        return mismatches(outcomes, self.expected)

    def op(self) -> List[Outcome]:
        raise NotImplementedError

    def decomposed_op(self, recorder: SpanRecorder) -> Tuple[List[Outcome], Dict[str, int]]:
        """The op one layer call at a time, plus per-layer work counts.

        Raises :class:`GuardError` when the separate cache simulation
        disagrees with the sampling run's cache, which would make
        ``pmu.select_s`` (sample minus simulate) meaningless.
        """
        raise NotImplementedError

    # -- decomposition helpers ----------------------------------------

    @staticmethod
    def _generate(recorder: SpanRecorder, workload) -> list:
        stream = workload.trace()
        batches: list = []
        while True:
            with recorder.span("workloads.trace"):
                chunk = list(islice(stream, CHUNK))
            if not chunk:
                return batches
            with recorder.span("trace.batch"):
                batches.extend(iter_batches(chunk, CHUNK))

    def _profile_and_analyze(
        self,
        recorder: SpanRecorder,
        spec: str,
        name: str,
        batches: list,
        sample: Callable[[list], object],
        counts: Dict[str, int],
    ):
        with recorder.span("cache.simulate"):
            stats = self.profiler.backend.simulate(
                batches, self.profiler.geometry, split_lines=False
            )
        with recorder.span("pmu.sample"):
            profile = sample(batches)
        if stats != profile.sampling.cache_stats:
            raise GuardError(
                f"{spec}: cache.simulate stats differ from the sampling run's"
            )
        counts["trace.batches"] += len(batches)
        counts["cache.accesses"] += stats.accesses
        counts["cache.misses"] += stats.misses

        def observations(analysis) -> None:
            counts["core.rcd_observations"] += analysis.observation_count

        with recorder.span("core.analyze"), wrapped(
            recorder, profiler_module, "attribute_code", "core.attribute"
        ), wrapped(
            recorder,
            self.profiler.analyzer.backend,
            "rcd_from_addresses",
            "core.rcd",
            on_result=observations,
        ):
            report = self.profiler.analyze(profile, name)
        return profile, report


class GuardError(Exception):
    """The decomposed op cannot be compared with the untraced op."""


def _new_counts() -> Dict[str, int]:
    return dict.fromkeys(
        ("trace.batches", "trace.bytes_read", "cache.accesses", "cache.misses",
         "core.rcd_observations"),
        0,
    )


class ProfiledRuns(BenchWorkload):
    """``CCProf.run`` on each variant in turn (the ``ccprof compare`` flow)."""

    def op(self) -> List[Outcome]:
        outcomes = []
        for spec, workload in self.workloads.items():
            report = self.profiler.run(workload)
            outcomes.append(
                _outcome(spec, report, report.raw_profile, self.hot_share)
            )
        return outcomes

    def decomposed_op(self, recorder):
        outcomes, counts = [], _new_counts()
        for spec, workload in self.workloads.items():
            batches = self._generate(recorder, workload)
            profile, report = self._profile_and_analyze(
                recorder,
                spec,
                workload.name,
                batches,
                lambda batches: self.profiler.profile(
                    _Materialized(workload, batches)
                ),
                counts,
            )
            outcomes.append(_outcome(spec, report, profile, self.hot_share))
        return outcomes, counts


class NwCompare(ProfiledRuns):
    name = "nw_compare"
    variants = ("nw", "nw:optimized")


class CaseStudies(ProfiledRuns):
    name = "case_studies"
    variants = (
        "fft", "fft:optimized",
        "kripke", "kripke:optimized",
        "himeno", "himeno:optimized",
        "tinydnn", "tinydnn:optimized",
    )


class TraceReplay(BenchWorkload):
    """Replay NW's recorded binary trace: no trace generation in the op."""

    name = "trace_replay"
    variants = ("nw",)

    def setup(self, recorder) -> None:
        super().setup(recorder)
        self._tempdir = tempfile.mkdtemp(prefix="trace-", dir=self.workdir)
        self.path = os.path.join(self._tempdir, "nw.trace")
        workload = self.workloads["nw"]
        write_binary_trace_batches(self.path, iter_batches(workload.trace()))
        descriptor = os.open(self.path, os.O_RDONLY)
        try:
            os.fsync(descriptor)
        finally:
            os.close(descriptor)
        self.session = MonitorSession(
            geometry=self.profiler.geometry,
            period=self.profiler.period,
            seed=self.seed,
            engine=self.profiler.backend,
        )

    def close(self) -> None:
        if getattr(self, "_tempdir", None):
            shutil.rmtree(self._tempdir, ignore_errors=True)

    def _sample(self, batches):
        workload = self.workloads["nw"]
        return self.session.profile(
            batches, allocator=workload.allocator, image=workload.image
        )

    def op(self) -> List[Outcome]:
        profile = self._sample(read_binary_trace_batches(self.path))
        report = self.profiler.analyzer.analyze(profile, self.workloads["nw"].name)
        return [_outcome("nw", report, profile, self.hot_share)]

    def decomposed_op(self, recorder):
        counts = _new_counts()
        with recorder.span("trace.read"):
            batches = list(read_binary_trace_batches(self.path))
        counts["trace.bytes_read"] = os.path.getsize(self.path)
        profile, report = self._profile_and_analyze(
            recorder, "nw", self.workloads["nw"].name, batches, self._sample, counts
        )
        return [_outcome("nw", report, profile, self.hot_share)], counts


class DensePhases(BenchWorkload):
    """Himeno with every miss sampled, then windowed phase analysis."""

    name = "dense_phases"
    variants = ("himeno",)
    period = 1

    def _phases(self, profile):
        analyzer = PhaseAnalyzer(self.profiler.geometry, window=PHASE_WINDOW)
        return analyzer.analyze(profile.sampling.samples)

    def op(self) -> List[Outcome]:
        workload = self.workloads["himeno"]
        profile = self.profiler.profile(workload)
        report = self.profiler.analyze(profile, workload.name)
        phased = self._phases(profile)
        return [_outcome("himeno", report, profile, self.hot_share, phased)]

    def decomposed_op(self, recorder):
        counts = _new_counts()
        workload = self.workloads["himeno"]
        batches = self._generate(recorder, workload)
        profile, report = self._profile_and_analyze(
            recorder,
            "himeno",
            workload.name,
            batches,
            lambda batches: self.profiler.profile(_Materialized(workload, batches)),
            counts,
        )
        with recorder.span("core.phases"):
            phased = self._phases(profile)
        return [_outcome("himeno", report, profile, self.hot_share, phased)], counts


WORKLOADS = {
    workload.name: workload
    for workload in (NwCompare, CaseStudies, TraceReplay, DensePhases)
}
