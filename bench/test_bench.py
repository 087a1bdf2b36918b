"""Self-test of the benchmark at reduced sizes: ``python -m pytest bench -q``.

Drives each workload's op once through the benchmark's own functions
(NW at n=64 and so on) and checks the checks, the guard and the output
format.  It is not part of the tier-1 suite (``testpaths = tests``).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

import run  # noqa: E402
import suite  # noqa: E402
from spans import SpanRecorder  # noqa: E402

CATALOG = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def small(request, tmp_path_factory):
    """A workload at reduced size, set up, with one run of each mode."""
    workload = suite.WORKLOADS[request.param](
        0, scale="small", workdir=str(tmp_path_factory.mktemp("trace"))
    )
    recorder = SpanRecorder()
    with recorder.span("setup") as setup_root:
        workload.setup(recorder)
    try:
        yield {
            "workload": workload,
            "e2e": run.end_to_end(workload, 0, [0.25]),
            "traced": run.layers(workload, recorder, setup_root),
        }
    finally:
        workload.close()


def printed(result, capsys):
    run.emit(result)
    lines = capsys.readouterr().out.splitlines()
    return [line.split() for line in lines[:-1]], json.loads(lines[-1])


def test_every_op_passes_its_checks(small):
    for mode in ("e2e", "traced"):
        result = small[mode]
        assert result["failures"] == []
        assert result["correct"] and result["attempted"] >= 1


@pytest.mark.parametrize("unit, whole", [("s", "traced_op_s"), ("instr", "traced_op_instructions")])
def test_stages_add_up_to_the_traced_op(small, unit, whole):
    metrics = small["traced"]["metrics"]
    total = sum(metrics[f"{stage}_{unit}"]["value"] for stage in run.STAGES)
    total += metrics[f"unattributed_{unit}"]["value"]
    assert total == pytest.approx(small["traced"]["info"][whole], rel=0.01)
    assert metrics[f"unattributed_{unit}"]["value"] >= 0


def test_instructions_count_work(small):
    e2e = small["e2e"]
    assert e2e["metrics"]["op_instructions_p50"]["value"] > e2e["info"]["accesses_per_op"]
    traced = small["traced"]["metrics"]
    assert traced["workloads.build_instr"]["value"] > 0


def test_perturbed_expectation_counts_as_failed_op(small):
    workload = small["workload"]
    saved = workload.expected
    variant = next(iter(saved))
    workload.expected = {**saved, variant: {**saved[variant], "accesses": -1}}
    try:
        result = run.end_to_end(workload, 0, [0.25])
    finally:
        workload.expected = saved
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert "accesses" in result["failures"][0]


def test_guard_rejects_a_disagreeing_simulation(small, monkeypatch):
    workload = small["workload"]
    backend = workload.profiler.backend
    simulate = backend.simulate

    def off_by_one(*args, **kwargs):
        stats = simulate(*args, **kwargs)
        stats.misses += 1
        return stats

    monkeypatch.setattr(backend, "simulate", off_by_one)
    recorder = SpanRecorder()
    with recorder.span("setup") as setup_root:
        pass
    result = run.layers(workload, recorder, setup_root)
    assert not result["correct"]
    assert all("cache.simulate" in failure for failure in result["failures"])


@pytest.mark.parametrize("mode, section", [("e2e", "end_to_end"), ("traced", "per_layer")])
def test_printed_metrics_match_the_catalog(small, capsys, mode, section):
    rows, summary = printed(small[mode], capsys)
    catalog = {entry["name"]: entry["unit"] for entry in CATALOG[section]}
    assert {name: unit for _, name, _, unit in rows} == catalog
    assert all(NAME.fullmatch(name) for name in catalog)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert set(summary["metrics"]) == set(catalog)


def test_catalog_agrees_with_the_runner():
    assert [w["name"] for w in CATALOG["workloads"]] == list(run.WORKLOAD_NAMES)
    assert CATALOG["run_seconds"] == run.DEFAULT_SECONDS
    assert {e["name"]: e["unit"] for e in CATALOG["end_to_end"]} == run.END_TO_END
    assert {e["name"]: e["unit"] for e in CATALOG["per_layer"]} == run.PER_LAYER


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 19) is None
    tail = run.tail_percentile([float(i) for i in range(150)])
    assert tail == {"percentile": 93, "seconds": 139.0, "samples_beyond": 10}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "nw_compare", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
