"""The three closed-loop workloads.

* ``serve-hot-rw`` — an in-process :class:`EstimationServer` (default
  config) over 24 datasets of 5k rects; two callers in flight request
  Zipf-skewed pairs at levels 6 and 7 while the stream rewrites a few
  rectangles of a Zipf-chosen dataset after about one read in 100.
* ``serve-sharded`` — the server over a started 2-worker
  :class:`ShardPool` whose store is prewarmed with levels 6 and 7 of
  every dataset; memo off, one caller, read-only uniform pairs.
* ``ingest-analyze`` — no server: each operation fingerprints a newly
  arrived 20k-rect dataset, resolves its GH and PH (level 7) through a
  store-backed :class:`HistogramCache`, runs ``estimate_many`` of it
  against all 16 catalog datasets, and takes one RSWR 10% sampling
  estimate against a Zipf-chosen partner through a :class:`FlatTreeCache`.

Every caller waits for its answer before sending the next request, so
throughput is the program's output, not a generator setting.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import repro.perf.batch as batch_mod
import repro.perf.fingerprint as fp_mod
from repro import GHEstimator, PHEstimator, actual_selectivity
from repro.errors import EstimationTimeout, ServiceOverloadError
from repro.perf import BatchQuery, FlatTreeCache, HistogramCache
from repro.sampling import SamplingJoinEstimator
from repro.serve import EstimationServer, ServeRequest, ServerConfig, ShardPool
from repro.store import ArtifactCatalog

from . import inputs
from .checker import Answer, CheckResult, Snapshots, check_serve_answers
from .inputs import LEVELS, Read, Write
from .tracing import Tracer

SERVE_DATASETS = 24
SERVE_RECTS = 5_000
INGEST_DATASETS = 16
INGEST_RECTS = 20_000
INGEST_LEVEL = 7
SAMPLE_FRACTION = 0.10
#: Exact join counts cover the keys answered for the first EXACT_PREFIX
#: recorded reads (every run gets that far, so the sample does not depend
#: on throughput), at most EXACT_JOINS distinct joins of them, and every
#: catalog partner of the first EXACT_ARRIVALS ingest arrivals.
EXACT_JOINS = 400
EXACT_PREFIX = {"serve-hot-rw": 6000, "serve-sharded": 1500}
EXACT_ARRIVALS = 12  #: two arrivals of each family


def children_cpu_s() -> float:
    """User+system CPU of the live child processes (the shard workers)."""
    total = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / os.sysconf("SC_CLK_TCK")


def cpu_now() -> float:
    return time.process_time() + children_cpu_s()


@dataclass
class Phase:
    """Outcome of one measured pass."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    shed: int = 0
    timeouts: int = 0
    errors: int = 0
    degraded: int = 0
    latencies: "list[float]" = field(default_factory=list)
    #: latency mode of each latency: (answer path or arrival family, level)
    classes: "list[tuple[str, int]]" = field(default_factory=list)
    vias: Counter = field(default_factory=Counter)
    error_lines: "list[str]" = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @classmethod
    def merge(cls, parts: "list[Phase]") -> "Phase":
        out = cls()
        for p in parts:
            for name in ("wall_s", "cpu_s", "attempted", "shed", "timeouts", "errors",
                         "degraded"):
                setattr(out, name, getattr(out, name) + getattr(p, name))
            out.latencies += p.latencies
            out.classes += p.classes
            out.vias.update(p.vias)
            out.error_lines += p.error_lines
        return out

    @property
    def failed(self) -> int:
        return self.shed + self.timeouts + self.errors


class ServeWorkload:
    """``serve-hot-rw`` and ``serve-sharded``: one closed-loop client process."""

    def __init__(
        self, name: str, seed: int, workdir: Path, *, callers: "int | None" = None
    ) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.sharded = name == "serve-sharded"
        self.callers = callers if callers is not None else (1 if self.sharded else 2)
        self.warmup_reads = 100 if self.sharded else 1000
        self.base = inputs.make_catalog(
            seed, SERVE_DATASETS, SERVE_RECTS, tag=2 if self.sharded else 1
        )
        self.server: "EstimationServer | None" = None
        self.pool: "ShardPool | None" = None
        self.snaps: "Snapshots | None" = None
        self.answers: "list[Answer]" = []
        self.probe_answers: "list[Answer]" = []
        self.writes = 0
        self.recorded_reads = 0
        self.tracer: "Tracer | None" = None

    async def setup(self, rep: int) -> float:
        """Build a fresh catalog (untimed), then time the program's set-up:
        store prewarm and pool start (sharded), server construction, and
        a warm-up prefix of the request stream."""
        await self.close()
        self.catalog = [inputs.fresh_copy(ds) for ds in self.base]
        self.names = [ds.name for ds in self.catalog]
        self.stream: Any = (
            inputs.uniform_read_stream(self.seed, SERVE_DATASETS)
            if self.sharded
            else inputs.hot_rw_stream(self.seed, SERVE_DATASETS, SERVE_RECTS)
        )
        started = time.perf_counter()
        if self.sharded:
            root = self.workdir / f"store-{rep}"
            prewarm = HistogramCache(store=ArtifactCatalog(root))
            for ds in self.catalog:
                for level in LEVELS:
                    prewarm.resolve(ds, "gh", level)
            self.pool = ShardPool(self.catalog, 2, store_root=root).start()
            self.server = EstimationServer(
                self.catalog, ServerConfig(memo_entries=0), shard_pool=self.pool
            )
        else:
            self.server = EstimationServer(self.catalog)
        await self._drive(Phase(), reads=self.warmup_reads, record=False)
        return time.perf_counter() - started

    async def phase(self, seconds: "float | None" = None, reads: "int | None" = None) -> Phase:
        if self.snaps is None:
            self.snaps = Snapshots(self.catalog)
        out = Phase()
        cpu0, t0 = cpu_now(), time.perf_counter()
        await self._drive(out, seconds=seconds, reads=reads, record=True)
        out.wall_s = time.perf_counter() - t0
        out.cpu_s = cpu_now() - cpu0
        return out

    async def _drive(
        self, out: Phase, *, seconds: "float | None" = None, reads: "int | None" = None,
        record: bool,
    ) -> None:
        stop_at = time.perf_counter() + seconds if seconds is not None else None
        issued = 0

        async def caller() -> None:
            nonlocal issued
            while True:
                if stop_at is not None and time.perf_counter() >= stop_at:
                    return
                if reads is not None and issued >= reads:
                    return
                op = next(self.stream)
                if isinstance(op, Write):
                    version = inputs.apply_write(self.catalog[op.d], op)
                    if record:
                        assert self.snaps is not None
                        self.snaps.record(op, version)
                        self.writes += 1
                    continue
                issued += 1
                seq = self.recorded_reads if record else -1
                self.recorded_reads += int(record)
                answer = await self._read(op, out, seq)
                if record and answer is not None:
                    self.answers.append(answer)

        await asyncio.gather(*(caller() for _ in range(self.callers)))

    async def _read(self, op: Read, out: Phase, seq: int) -> "Answer | None":
        assert self.server is not None
        ds1, ds2 = self.catalog[op.d1], self.catalog[op.d2]
        v1, v2 = ds1.token.version, ds2.token.version
        request = ServeRequest(self.names[op.d1], self.names[op.d2], level=op.level)
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is not None:
                with self.tracer.request():
                    response = await self.server.submit(request)
            else:
                response = await self.server.submit(request)
        except ServiceOverloadError:
            out.shed += 1
            return None
        except EstimationTimeout:
            out.timeouts += 1
            return None
        except Exception as exc:  # noqa: BLE001 - every failure is counted and printed
            out.errors += 1
            out.error_lines.append(f"ERROR {request}: {type(exc).__name__}: {exc}")
            return None
        out.latencies.append(time.perf_counter() - t0)
        prov = response.provenance
        out.classes.append((prov.via, op.level))
        out.vias[prov.via] += 1
        out.degraded += int(prov.degraded)
        return Answer(
            op.d1, op.d2, op.level, (v1, ds1.token.version), (v2, ds2.token.version),
            response.selectivity, prov.rung, prov.via, seq,
        )

    async def probe(self) -> None:
        """Coherence probe (sharded only): one write through the sanctioned
        path, then every pair involving the written dataset, both levels."""
        if not self.sharded:
            return
        assert self.snaps is not None
        write = inputs.probe_write(self.seed, SERVE_DATASETS, SERVE_RECTS)
        self.snaps.record(write, inputs.apply_write(self.catalog[write.d], write))
        out = Phase()
        for other in range(SERVE_DATASETS):
            if other == write.d:
                continue
            for level in LEVELS:
                answer = await self._read(Read(write.d, other, level), out, -1)
                if answer is not None:
                    self.probe_answers.append(answer)

    def check(self) -> "tuple[CheckResult, CheckResult | None]":
        assert self.snaps is not None
        coarsen = ServerConfig().policy.coarsen_by
        main = check_serve_answers(
            self.answers, self.snaps, coarsen_by=coarsen, finest=max(LEVELS),
            seed=self.seed, exact_joins=EXACT_JOINS, exact_prefix=EXACT_PREFIX[self.name],
        )
        probe = None
        if self.sharded:
            probe = check_serve_answers(
                self.probe_answers, self.snaps, coarsen_by=coarsen, finest=max(LEVELS),
                seed=self.seed, exact_joins=0, exact_prefix=0,
                label=" (coherence probe: stale shard answer, ROADMAP item 1)",
            )
        return main, probe

    def counts(self) -> "dict[str, Any]":
        """The program's own counters (deterministic for one caller and a
        fixed number of reads)."""
        assert self.server is not None
        stats = self.server.stats()
        stats.pop("depth", None)
        stats.pop("pressure", None)
        return {
            "server": stats,
            "writes": self.writes,
            "answers_by_path": dict(sorted(Counter(a.via for a in self.answers).items())),
        }

    def layer_stats(self) -> "dict[str, float]":
        """Counters the per-layer metrics take deltas of."""
        assert self.server is not None
        s = self.server
        out = {
            "admission.rejected": float(s.admission.stats.rejected),
            "batcher.queries": float(s.batcher.stats.queries),
            "batcher.batches": float(s.batcher.stats.batches),
            "cache.builds": float(s.cache.stats.builds),
            "cache.derivations": float(s.cache.stats.derivations),
            "cache.evictions": float(s.cache.stats.evictions),
            "memo.hits": float(s.memo.stats.hits) if s.memo is not None else 0.0,
            "memo.misses": float(s.memo.stats.misses) if s.memo is not None else 0.0,
        }
        if self.pool is not None:
            pool = self.pool.stats()
            for key in ("store_hits", "restarts", "failures", "breaker_opens"):
                out[f"shards.{key}"] = float(pool[key])  # type: ignore[arg-type]
        return out

    async def close(self) -> None:
        if self.server is not None:
            await self.server.aclose()
            self.server = None
        if self.pool is not None:
            self.pool.close()
            self.pool = None


@dataclass
class Analysis:
    arrival: inputs.Arrival
    values: "list[float]"
    sample: float


class IngestWorkload:
    """``ingest-analyze``: the cold write side of statistics."""

    name = "ingest-analyze"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.base = inputs.make_catalog(seed, INGEST_DATASETS, INGEST_RECTS, tag=3)
        self.records: "list[Analysis]" = []
        self.tracer: "Tracer | None" = None
        self.store: "ArtifactCatalog | None" = None

    async def setup(self, rep: int) -> float:
        """Fresh catalog copies (untimed); time opening the store and
        caches and resolving GH and PH of every catalog dataset."""
        self.catalog = [inputs.fresh_copy(ds) for ds in self.base]
        self.arrivals = inputs.arrival_stream(self.seed, INGEST_DATASETS)
        self.root = self.workdir / f"store-{rep}"
        started = time.perf_counter()
        self.store = ArtifactCatalog(self.root)
        self.cache = HistogramCache(store=self.store)
        self.trees = FlatTreeCache()
        for ds in self.catalog:
            self.cache.resolve(ds, "gh", INGEST_LEVEL)
            self.cache.resolve(ds, "ph", INGEST_LEVEL)
        return time.perf_counter() - started

    async def phase(self, seconds: "float | None" = None, reads: "int | None" = None) -> Phase:
        """Analyze arrivals until ``seconds`` of operation time (or
        ``reads`` operations).  Arrival generation is outside the spans."""
        out = Phase()
        while True:
            if seconds is not None and out.wall_s >= seconds:
                break
            if reads is not None and out.attempted >= reads:
                break
            arrival = next(self.arrivals)
            new = inputs.arrival_dataset(self.seed, arrival, INGEST_RECTS)
            out.attempted += 1
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                if self.tracer is not None:
                    with self.tracer.request():
                        values, sample = self._analyze(new, arrival)
                else:
                    values, sample = self._analyze(new, arrival)
            except Exception as exc:  # noqa: BLE001 - every failure is counted and printed
                out.errors += 1
                out.error_lines.append(f"ERROR {new.name}: {type(exc).__name__}: {exc}")
                continue
            finally:
                elapsed = time.perf_counter() - t0
                out.wall_s += elapsed
                out.cpu_s += time.process_time() - cpu0
            out.latencies.append(elapsed)
            out.classes.append((arrival.family, INGEST_LEVEL))
            out.vias["local"] += 1
            self.records.append(Analysis(arrival, values, sample))
        return out

    def _analyze(self, new: Any, arrival: inputs.Arrival) -> "tuple[list[float], float]":
        fp_mod.dataset_fingerprint(new)
        self.cache.resolve(new, "gh", INGEST_LEVEL)
        self.cache.resolve(new, "ph", INGEST_LEVEL)
        queries = [BatchQuery(new, c, "gh", INGEST_LEVEL) for c in self.catalog]
        queries += [BatchQuery(new, c, "ph", INGEST_LEVEL) for c in self.catalog]
        values = batch_mod.estimate_many(queries, cache=self.cache)
        sampler = SamplingJoinEstimator(
            "rswr", SAMPLE_FRACTION, SAMPLE_FRACTION,
            seed=arrival.sample_seed, tree_cache=self.trees,
        )
        return values, sampler.estimate(new, self.catalog[arrival.partner])

    async def probe(self) -> None:
        return None

    def check(self) -> "tuple[CheckResult, None]":
        """From-scratch GH, PH and sampling answers, bit for bit, then the
        exact-count oracle on a seeded subset of (arrival, partner) pairs."""
        gh, ph = GHEstimator(INGEST_LEVEL), PHEstimator(INGEST_LEVEL)
        ext = self.base[0].extent
        gh_cat = [gh.prepare(c, extent=ext) for c in self.base]
        ph_cat = [ph.prepare(c, extent=ext) for c in self.base]
        out = CheckResult()
        n = len(self.base)
        for rec in self.records:
            new = inputs.arrival_dataset(self.seed, rec.arrival, INGEST_RECTS)
            g, p = gh.prepare(new, extent=ext), ph.prepare(new, extent=ext)
            want = [float(gh.combine(g, c)) for c in gh_cat]
            want += [float(ph.combine(p, c)) for c in ph_cat]
            sampler = SamplingJoinEstimator(
                "rswr", SAMPLE_FRACTION, SAMPLE_FRACTION, seed=rec.arrival.sample_seed
            )
            want_sample = sampler.estimate(new, self.base[rec.arrival.partner])
            out.checked += 1
            bad = [i for i in range(2 * n) if rec.values[i] != want[i]]
            if bad or rec.sample != want_sample:
                out.mismatches += 1
                out.note(
                    f"MISMATCH: {new.name}: estimate_many positions {bad} "
                    f"(served {[rec.values[i] for i in bad]}, from-scratch "
                    f"{[want[i] for i in bad]}); sampling served {rec.sample!r}, "
                    f"from-scratch {want_sample!r}"
                )
        errors = []
        for rec in self.records[:EXACT_ARRIVALS]:
            new = inputs.arrival_dataset(self.seed, rec.arrival, INGEST_RECTS)
            for partner in range(n):
                exact = actual_selectivity(new.rects, self.base[partner].rects)
                if exact > 0:
                    errors.append(abs(rec.values[partner] - exact) / exact * 100.0)
        if errors:
            out.rel_error_median_pct = float(np.median(errors))
        return out, None

    def counts(self) -> "dict[str, Any]":
        assert self.store is not None
        return {
            "cache": self.cache.stats.snapshot(),
            "tree_cache": self.trees.stats.snapshot(),
            "store": self.store.stats.snapshot(),
            "analyses": len(self.records),
        }

    def layer_stats(self) -> "dict[str, float]":
        return {
            "cache.builds": float(self.cache.stats.builds),
            "cache.derivations": float(self.cache.stats.derivations),
            "cache.evictions": float(self.cache.stats.evictions),
            "trees.hits": float(self.trees.stats.hits),
            "trees.misses": float(self.trees.stats.misses),
            "store.bytes": float(_tree_bytes(self.root)),
        }

    async def close(self) -> None:
        return None


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def make_workload(
    name: str, seed: int, workdir: Path, *, callers: "int | None" = None
) -> "ServeWorkload | IngestWorkload":
    """``callers=1`` makes a serve workload's counters deterministic."""
    if name == "ingest-analyze":
        return IngestWorkload(seed, workdir)
    return ServeWorkload(name, seed, workdir, callers=callers)
