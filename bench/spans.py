"""In-memory spans recorded from outside the program, around layer calls.

A span is (id, op, name, start, end, instructions, parent).  Spans of one
benchmark op share the op's root span id, so one JSONL file can hold every
op of a run.  Nothing is written until :meth:`SpanRecorder.export_jsonl`,
so the recording cost inside an op is two clock reads, two counter reads
and a list append.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import struct
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional

#: The benchmark's clock for ops and spans: process CPU seconds (user +
#: system).  The pipeline is single-threaded and no op waits on a device
#: (trace_replay reads a file the page cache holds), so on an idle host
#: this reads the same as wall time; unlike wall time it does not grow
#: while other processes hold the CPU.
CLOCK = time.process_time

#: perf_event_open(2) syscall number per machine.
_PERF_EVENT_OPEN = {"x86_64": 298, "aarch64": 241}
_PERF_TYPE_HARDWARE = 0
_PERF_COUNT_HW_INSTRUCTIONS = 1
_READ_TIMES = 1 | 2  # PERF_FORMAT_TOTAL_TIME_ENABLED | _RUNNING
_INHERIT, _EXCLUDE_KERNEL, _EXCLUDE_HV = 1 << 1, 1 << 5, 1 << 6


class CounterUnavailable(RuntimeError):
    """The kernel will not count this process's instructions."""


class InstructionCounter:
    """Instructions retired in user mode by this process.

    A hardware counter opened with perf_event_open(2).  It counts the
    calling thread, plus threads and child processes it starts, each
    once it has ended.  Unlike a clock, it does not move when other
    tenants of a shared host slow the CPU down: the same work retires
    the same instructions at any clock rate and any cache pressure.
    """

    def __init__(self) -> None:
        number = _PERF_EVENT_OPEN.get(platform.machine())
        if number is None:
            raise CounterUnavailable(
                f"perf_event_open: no syscall number for {platform.machine()}"
            )
        attr = bytearray(64)  # struct perf_event_attr, PERF_ATTR_SIZE_VER0
        struct.pack_into(
            "=IIQ", attr, 0, _PERF_TYPE_HARDWARE, len(attr), _PERF_COUNT_HW_INSTRUCTIONS
        )
        struct.pack_into(
            "=QQ", attr, 32, _READ_TIMES, _INHERIT | _EXCLUDE_KERNEL | _EXCLUDE_HV
        )
        syscall = ctypes.CDLL(None, use_errno=True).syscall
        syscall.argtypes = [
            ctypes.c_long, ctypes.c_char_p, ctypes.c_long, ctypes.c_long,
            ctypes.c_long, ctypes.c_ulong,
        ]
        syscall.restype = ctypes.c_long
        # pid 0: this process; cpu -1: any CPU; group -1: a counter of its own.
        fd = syscall(number, bytes(attr), 0, -1, -1, 0)
        if fd < 0:
            raise CounterUnavailable(
                f"perf_event_open: {os.strerror(ctypes.get_errno())}; counting "
                "instructions needs a CPU that exposes its PMU and "
                "kernel.perf_event_paranoid <= 2"
            )
        self._fd = fd
        #: True once the kernel shared the counter with other events, so
        #: that some reads were scaled up from part of the time.
        self.multiplexed = False

    def read(self) -> int:
        value, enabled, running = struct.unpack("=3Q", os.read(self._fd, 24))
        if running < enabled:
            self.multiplexed = True
            return round(value * enabled / running) if running else 0
        return value


@lru_cache(maxsize=None)
def instruction_counter() -> InstructionCounter:
    """The process's counter, opened on first use."""
    return InstructionCounter()


@dataclass
class Span:
    id: int
    op: int
    name: str
    start: float
    end: float = 0.0
    instructions: int = 0
    parent: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested spans on one thread; the pipeline under test is single-threaded."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._counter = instruction_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            op=parent.op if parent is not None else len(self.spans),
            name=name,
            start=0.0,
            parent=parent.id if parent is not None else None,
        )
        self.spans.append(span)
        self._stack.append(span)
        started = self._counter.read()
        span.start = CLOCK()
        try:
            yield span
        finally:
            span.end = CLOCK()
            span.instructions = self._counter.read() - started
            self._stack.pop()

    def self_times(self, root: Span) -> Dict[str, float]:
        """Self seconds per span name under ``root`` (root excluded)."""
        return self._self(root, lambda span: span.duration)

    def self_instructions(self, root: Span) -> Dict[str, int]:
        """Self instructions per span name under ``root`` (root excluded)."""
        return self._self(root, lambda span: span.instructions)

    def _self(self, root: Span, measure: Callable[[Span], float]) -> Dict[str, float]:
        """A span's self share is its measure minus its children's; spans
        on one thread never overlap, so the children's union is their sum."""
        members = [
            span for span in self.spans
            if span.op == root.op and span.id != root.id
        ]
        child_total: Dict[int, float] = {}
        for span in members:
            if span.parent is not None:
                child_total[span.parent] = child_total.get(span.parent, 0) + measure(span)
        totals: Dict[str, float] = {}
        for span in members:
            own = measure(span) - child_total.get(span.id, 0)
            totals[span.name] = totals.get(span.name, 0) + own
        return totals

    def export_jsonl(self, path: str) -> int:
        """Write one JSON object per span; returns the count written."""
        with open(path, "w", encoding="ascii") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")
        return len(self.spans)


@contextmanager
def wrapped(
    recorder: SpanRecorder,
    owner: object,
    attribute: str,
    name: str,
    on_result: Optional[Callable[[object], None]] = None,
) -> Iterator[None]:
    """Time every call of ``owner.attribute`` as a span called ``name``.

    ``owner`` is a module (for a function the program calls by its
    module-global name) or an instance (for a method).  The original
    binding is restored on exit.
    """
    missing = object()
    own = vars(owner).get(attribute, missing)
    original = getattr(owner, attribute)

    def timed(*args, **kwargs):
        with recorder.span(name):
            result = original(*args, **kwargs)
        if on_result is not None:
            on_result(result)
        return result

    setattr(owner, attribute, timed)
    try:
        yield
    finally:
        if own is missing:
            delattr(owner, attribute)
        else:
            setattr(owner, attribute, own)
