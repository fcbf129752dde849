"""Metric assembly for both passes, plus the benchmark's own guards."""

from __future__ import annotations

import ctypes
import gc
import re
import resource
import sys
from collections import defaultdict
from typing import Any

import numpy as np

from .tracing import ROOT, Span, by_name, children_map, durations, ledger
from .workloads import Phase

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: A reported percentile this close (in percentile points) to a boundary
#: between latency modes swings from one mode to the other between runs.
BOUNDARY_MARGIN = 5.0
MODE_GAP = 1.5
MIN_SLICE_OPS = 1000

LEDGER_LAYERS = (
    "serve.loop", "serve.admission", "perf.memo", "serve.batcher", "perf.batch",
    "perf.fingerprint", "perf.cache", "perf.tree_cache", "histograms", "store",
    "serve.shards", "sampling",
)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def retained_rss_mb() -> float:
    """Resident memory once the collector has run and the C allocator has
    handed free heap back (``malloc_trim``): the memory the program keeps.

    Peak RSS moved by up to 12% between runs of one seed, with the heap
    fragmentation of freed histogram arrays; this figure by under 1% on
    serve-hot-rw and a few percent on ingest-analyze.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: report RSS untrimmed
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / (1 << 20)


def _pct(values: "np.ndarray | list[float]", q: float, scale: float = 1.0) -> float:
    arr = np.asarray(values, dtype=np.float64)
    return float(np.percentile(arr, q)) * scale if arr.size else 0.0


def end_to_end(
    parts: "list[Phase]", *, setup_s: "list[float]", mismatches: int, rel_error: float,
    rss_mb: float,
) -> "dict[str, tuple[float, str]]":
    """The end-to-end metrics of the untraced pass.

    ``parts`` are the pass's equal time slices.  Consecutive slices are
    grouped into as many windows as keep about MIN_SLICE_OPS operations
    each (so every window's p99 has ten samples beyond it), at most one
    window per slice.  Throughput, latency and CPU are medians over the
    windows: the host's speed wanders from second to second, and a tail
    percentile pooled over the whole pass follows its slowest seconds.
    """
    pooled = Phase.merge(parts)
    count = max(1, min(len(parts), pooled.completed // MIN_SLICE_OPS))
    edges = np.linspace(0, len(parts), count + 1).round().astype(int)
    windows = [Phase.merge(parts[a:b]) for a, b in zip(edges, edges[1:])]

    def med(values: "list[float]") -> float:
        return float(np.median(values))

    failed = pooled.failed + mismatches
    return {
        "setup_s": (med(setup_s), "s"),
        "ops_per_s": (med([w.completed / w.wall_s for w in windows]), "1/s"),
        "latency_p50_ms": (med([_pct(w.latencies, 50, 1e3) for w in windows]), "ms"),
        "latency_p99_ms": (med([_pct(w.latencies, 99, 1e3) for w in windows]), "ms"),
        "cpu_ms_per_op": (med([w.cpu_s / max(w.completed, 1) * 1e3 for w in windows]), "ms"),
        "rss_mb": (rss_mb, "MiB"),
        "ok_pct": (100.0 * (pooled.attempted - failed) / pooled.attempted, "%"),
        "full_rung_pct": (
            100.0 * (pooled.completed - pooled.degraded) / max(pooled.completed, 1), "%"
        ),
        "rel_error_median_pct": (rel_error, "%"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    spans: "list[Span]",
    traced: Phase,
    plain: Phase,
    before: "dict[str, float]",
    after: "dict[str, float]",
    stale_answers: int,
) -> "dict[str, tuple[float, str]]":
    """Every per-layer metric; a layer the workload does not load reads 0."""

    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    def p50(name: str, scale: float) -> float:
        return _pct(durations(spans, name), 50, scale)

    led = ledger(spans)
    requests = max(led.requests, 1)
    children = children_map(spans)
    sids = {s.sid: s for s in spans}

    submit_self = [led.span_self_s[s.sid] for s in by_name(spans, "serve.loop.submit")
                   if s.sid in led.span_self_s]
    batch_wait = []
    for s in by_name(spans, "serve.batcher.submit"):
        runs = [k for k in children.get(s.sid, ()) if k.name == "serve.batcher.run"]
        batch_wait.append(s.dur - sum(k.dur for k in runs))
    hops = [s.t0 - sids[s.parent].t0 for s in by_name(spans, "serve.shards.estimate")
            if s.parent in sids]
    resolves = [s for s in by_name(spans, "perf.cache.resolve") if s.extra is not None]
    fused = list(by_name(spans, "histograms.fused"))
    replies = [s.extra["reply_bytes"] for s in by_name(spans, "serve.shards.prepare")
               if s.extra is not None]
    memo_answers = traced.vias.get("memo", 0)

    m: "dict[str, tuple[float, str]]" = {
        "serve.loop.memo_answer_share": (_ratio(memo_answers, traced.completed), "ratio"),
        "perf.memo.hit_ratio": (
            _ratio(delta("memo.hits"), delta("memo.hits") + delta("memo.misses")), "ratio"),
        "perf.memo.get_us_p50": (p50("perf.memo.get", 1e6), "us"),
        "serve.loop.self_us_p50": (_pct(submit_self, 50, 1e6), "us"),
        "serve.admission.admit_us_p50": (p50("serve.admission.admit", 1e6), "us"),
        "serve.admission.rejected": (delta("admission.rejected"), "count"),
        "serve.batcher.wait_ms_p50": (_pct(batch_wait, 50, 1e3), "ms"),
        "serve.batcher.queries_per_batch": (
            _ratio(delta("batcher.queries"), delta("batcher.batches")), "query/batch"),
        "perf.batch.run_ms_p50": (p50("perf.batch.estimate_many", 1e3), "ms"),
        "perf.fingerprint.folds": (float(len(durations(spans, "perf.fingerprint.fold"))), "count"),
        "perf.fingerprint.fold_ms_p50": (p50("perf.fingerprint.fold", 1e3), "ms"),
        "perf.cache.l1_ratio": (
            _ratio(sum(s.extra["source"] == "l1" for s in resolves), len(resolves)), "ratio"),
        "perf.cache.builds": (delta("cache.builds"), "count"),
        "perf.cache.derivations": (delta("cache.derivations"), "count"),
        "perf.cache.evictions": (delta("cache.evictions"), "count"),
        "perf.tree_cache.hit_ratio": (
            _ratio(delta("trees.hits"), delta("trees.hits") + delta("trees.misses")), "ratio"),
        "histograms.gh_build_ms_p50": (p50("histograms.gh_build", 1e3), "ms"),
        "histograms.ph_build_ms_p50": (p50("histograms.ph_build", 1e3), "ms"),
        "histograms.fused_ms_p50": (p50("histograms.fused", 1e3), "ms"),
        "histograms.fused_pairs_per_call": (
            _ratio(sum(s.extra["pairs"] for s in fused), len(fused)), "pairs/call"),
        "histograms.combine_us_p50": (p50("histograms.combine", 1e6), "us"),
        "store.publish_ms_p50": (p50("store.publish", 1e3), "ms"),
        "store.kib_written_per_op": (
            _ratio(delta("store.bytes") / 1024.0, traced.completed), "KiB"),
        "store.shard_hits": (delta("shards.store_hits"), "count"),
        "serve.shards.hop_us_p50": (_pct(hops, 50, 1e6), "us"),
        "serve.shards.prepare_ms_p50": (p50("serve.shards.prepare", 1e3), "ms"),
        "serve.shards.reply_kib_mean": (
            float(np.mean(replies)) / 1024.0 if replies else 0.0, "KiB"),
        "serve.shards.restarts": (delta("shards.restarts"), "count"),
        "serve.shards.failures": (delta("shards.failures"), "count"),
        "serve.shards.breaker_opens": (delta("shards.breaker_opens"), "count"),
        "serve.shards.stale_answers": (float(stale_answers), "count"),
        "sampling.estimate_ms_p50": (p50("sampling.estimate", 1e3), "ms"),
        "datasets.writes": (float(len(durations(spans, "datasets.write"))), "count"),
        "datasets.write_us_p50": (p50("datasets.write", 1e6), "us"),
    }
    for layer in LEDGER_LAYERS:
        m[f"ledger.{layer}.self_ms_per_op"] = (
            led.layer_self_s.get(layer, 0.0) / requests * 1e3, "ms")
    m["ledger.unattributed_ms_per_op"] = (
        led.layer_self_s.get(ROOT.rsplit(".", 1)[0], 0.0) / requests * 1e3, "ms")
    m["ledger.request_ms_per_op"] = (led.request_s / requests * 1e3, "ms")
    attributed = sum(led.layer_self_s.values())
    m["ledger.coverage_pct"] = (_ratio(attributed, led.request_s) * 100.0, "%")
    m["trace.overhead_ms_per_op"] = (
        (float(np.mean(traced.latencies)) - float(np.mean(plain.latencies))) * 1e3
        if traced.latencies and plain.latencies else 0.0, "ms")
    m["trace.spans"] = (float(len(spans)), "count")
    return m


def boundary_warnings(phase: Phase) -> "list[str]":
    """Warn when p50 or p99 sits within BOUNDARY_MARGIN percentile points
    of a boundary between latency modes.

    The modes are the (answer path, level) classes of the per-path counts
    (memo hits, batch or shard answers, per GH level), ordered by their
    median latency; a boundary counts when the medians on its two sides
    differ by at least MODE_GAP times.
    """
    lat = np.asarray(phase.latencies)
    groups: "dict[tuple[str, int], list[float]]" = defaultdict(list)
    for value, cls in zip(lat, phase.classes):
        groups[cls].append(value)
    ordered = sorted(groups.items(), key=lambda kv: float(np.median(kv[1])))
    out = []
    below = 0.0
    for (name_a, a), (name_b, b) in zip(ordered, ordered[1:]):
        below += 100.0 * len(a) / lat.size
        if np.median(b) < MODE_GAP * np.median(a):
            continue
        out += [
            f"WARNING: latency p{q} is {abs(q - below):.1f} percentile points from "
            f"the boundary between modes {name_a} and {name_b} at p{below:.1f}; "
            f"it will swing between them from run to run"
            for q in (50, 99)
            if abs(q - below) < BOUNDARY_MARGIN
        ]
    return out


def check_names(metrics: "dict[str, tuple[float, str]]") -> None:
    for name, (value, unit) in metrics.items():
        if not NAME_RE.match(name) or not UNIT_RE.match(unit or ""):
            raise ValueError(f"bad metric name or unit: {name!r} [{unit!r}]")
        if not np.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value!r}")


def as_json_metrics(metrics: "dict[str, tuple[float, str]]") -> "dict[str, Any]":
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}


def warn(line: str) -> None:
    print(line, file=sys.stderr)
