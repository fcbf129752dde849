"""Self-tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import inputs, report  # noqa: E402
from perfbench.tracing import ROOT as ROOT_SPAN, Span, ledger  # noqa: E402
from perfbench.workloads import Phase, make_workload  # noqa: E402

#: Reads (or analyses) per fixed-count pass: small, but enough to reach
#: every layer the workload loads (builds, derivations, writes, shards).
FIXED_OPS = {"serve-hot-rw": 300, "serve-sharded": 30, "ingest-analyze": 3}


def _counts(name: str, seed: int, workdir: Path) -> dict:
    async def go() -> dict:
        work = make_workload(name, seed, workdir, callers=1)
        try:
            await work.setup(0)
            await work.phase(reads=FIXED_OPS[name])
            return work.counts()
        finally:
            await work.close()

    return json.loads(json.dumps(asyncio.run(go()), default=float))


@pytest.mark.parametrize("name", sorted(FIXED_OPS))
def test_counts_repeat_exactly_for_a_fixed_seed(name: str, tmp_path: Path) -> None:
    first = _counts(name, 7, tmp_path / "a")
    second = _counts(name, 7, tmp_path / "b")
    assert first == second


def test_seed_changes_the_request_stream() -> None:
    def digest(make) -> str:  # type: ignore[no-untyped-def]
        h = hashlib.blake2b(digest_size=12)
        for op in itertools.islice(make(), 200):
            if isinstance(op, inputs.Write):
                h.update(repr((op.d, op.idx.tolist(), op.xmin.tolist())).encode())
            else:
                h.update(repr(op).encode())
        return h.hexdigest()

    for make in (
        lambda s: inputs.hot_rw_stream(s, 24, 5000),
        lambda s: inputs.uniform_read_stream(s, 24),
        lambda s: inputs.arrival_stream(s, 16),
    ):
        assert digest(lambda: make(1)) == digest(lambda: make(1))
        assert digest(lambda: make(1)) != digest(lambda: make(2))


def test_ledger_selves_sum_to_the_request_time() -> None:
    spans = [
        Span(1, None, 1, ROOT_SPAN, 0.0, 10.0),
        Span(2, 1, 1, "serve.loop.submit", 1.0, 9.0),
        Span(3, 2, 1, "serve.admission.admit", 1.5, 2.0),
        Span(4, 2, 1, "serve.batcher.submit", 2.0, 8.5, {"qid": 42}),
        Span(5, None, 0, "serve.batcher.run", 5.0, 8.0, {"links": (42,)}),
        Span(6, 5, 0, "perf.batch.estimate_many", 5.5, 7.5),
    ]
    led = ledger(spans)
    assert led.requests == 1
    assert sum(led.layer_self_s.values()) == pytest.approx(10.0)
    assert led.layer_self_s["serve.batcher"] == pytest.approx(4.5)  # 3.5 wait + 1.0 run self
    assert led.layer_self_s["bench"] == pytest.approx(2.0)


def test_mode_boundary_guard() -> None:
    def phase(hits: int) -> Phase:
        return Phase(
            latencies=[0.00002] * hits + [0.003] * (100 - hits),
            classes=[("memo", 7)] * hits + [("batch", 7)] * (100 - hits),
        )

    assert any("p50" in w for w in report.boundary_warnings(phase(52)))
    assert any("p99" in w for w in report.boundary_warnings(phase(97)))
    assert report.boundary_warnings(phase(75)) == []


def test_metric_names_and_units_are_checked() -> None:
    report.check_names({"ok.name-1_x": (1.0, "ms")})
    for bad in ({"bad name": (1.0, "ms")}, {"x": (1.0, "")}, {"x": (float("nan"), "s")}):
        with pytest.raises(ValueError):
            report.check_names(bad)


def test_exits_nonzero_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-hot-rw", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _session_members(sid: int) -> "list[int]":
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if os.getsid(int(entry)) == sid:
                    out.append(int(entry))
            except OSError:
                pass
    return out


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc to list processes")
def test_a_sharded_run_leaves_no_process_behind() -> None:
    """Shard workers and the shared-memory resource tracker all end with
    the run; nothing of its session is left (not even a zombie)."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "serve-sharded", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    out, _ = proc.communicate(timeout=170)
    assert proc.returncode == 0
    assert json.loads(out.splitlines()[-1])["correct"] is True
    assert _session_members(proc.pid) == []
