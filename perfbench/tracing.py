"""Span tracing patched in from the benchmark, and the per-layer ledger.

The traced pass wraps the public entry points of each layer at the
names their callers look up (class attributes, or the module globals a
``from ... import`` bound), so no file under ``src/`` changes.  Each
span records its name, start, end, parent and request id; the current
span travels in a ``contextvar``.  ``run_in_executor`` does not copy
context, so the traced pass also installs a default executor that does
(:class:`ContextExecutor`).

A micro-batch serves several requests at once, so its runner span has
no single parent: it records the ids of the queries it ran, and the
ledger hangs it under every ``MicroBatcher.submit`` span whose query it
carried.  Spans opened on the shared histogram-build pool (which copies
no context either) have no parent; they still feed the per-span
percentiles but sit outside the request trees, where their time is
covered by the ``estimate_many`` span that waited for them.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

ROOT = "bench.request"
RUNNER = "serve.batcher.run"

#: (current span id, request id) of the running task or thread
_current: "contextvars.ContextVar[tuple[int, int | None] | None]" = contextvars.ContextVar(
    "perfbench_span", default=None
)


@dataclass(slots=True)
class Span:
    sid: int
    parent: "int | None"
    req: "int | None"
    name: str
    t0: float
    t1: float = 0.0
    extra: "dict[str, Any] | None" = None

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def layer(self) -> str:
        return self.name.rsplit(".", 1)[0]


class ContextExecutor(ThreadPoolExecutor):
    """A thread pool that runs each job in a copy of the submitter's context."""

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
        ctx = contextvars.copy_context()
        return super().submit(ctx.run, fn, *args, **kwargs)


class Tracer:
    """In-memory span recorder plus the monkey-patches that feed it."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self._ids = itertools.count(1)
        self._reqs = itertools.count(1)
        self._patches: "list[tuple[object, str, object]]" = []
        self.enabled = False  #: gates the runner wrapper, installed before set-up

    # -- recording --------------------------------------------------------
    def _enter(self, name: str, parent: "int | None", req: "int | None") -> "tuple[Span, Any]":
        span = Span(next(self._ids), parent, req, name, time.perf_counter())
        return span, _current.set((span.sid, req))

    def _child(self, name: str) -> "tuple[Span, Any]":
        """Open a span under the current one (parentless off-context)."""
        cur = _current.get()
        return self._enter(name, cur[0] if cur else None, cur[1] if cur else None)

    def _exit(self, span: Span, token: Any) -> None:
        _current.reset(token)
        span.t1 = time.perf_counter()
        self.spans.append(span)

    @contextlib.contextmanager
    def request(self) -> Iterator[Span]:
        """Root span of one request, opened by the benchmark's client."""
        span, token = self._enter(ROOT, None, next(self._reqs))
        try:
            yield span
        finally:
            self._exit(span, token)

    # -- patching ---------------------------------------------------------
    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        extra: "Callable[[tuple, Any], dict[str, Any]] | None" = None,
        pre: "Callable[[tuple], dict[str, Any]] | None" = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``pre(args)`` or ``extra(args, result)`` supplies the span's extra
        fields (no wrapper passes both).
        Handles plain functions, methods, classmethods and coroutines.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        tracer = self

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def awrapper(*args: Any, **kwargs: Any) -> Any:
                span, token = tracer._child(name)
                if pre is not None:
                    span.extra = pre(args)
                try:
                    result = await func(*args, **kwargs)
                finally:
                    tracer._exit(span, token)
                if extra is not None:
                    span.extra = extra(args, result)
                return result

            wrapper: Any = awrapper
        else:
            @functools.wraps(func)
            def swrapper(*args: Any, **kwargs: Any) -> Any:
                span, token = tracer._child(name)
                if pre is not None:
                    span.extra = pre(args)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer._exit(span, token)
                if extra is not None:
                    span.extra = extra(args, result)
                return result

            wrapper = swrapper
        setattr(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
        self._patches.append((owner, attr, raw))

    def patch_runner(self, owner: type, attr: str) -> None:
        """Wrap a micro-batch runner: a parentless span linked to its queries.

        The server binds its runner once, at construction, so this patch
        goes in before set-up and records only while :attr:`enabled`.
        """
        raw = owner.__dict__[attr]
        tracer = self

        @functools.wraps(raw)
        def wrapper(self_: Any, queries: Any, budget_s: Any) -> Any:
            if not tracer.enabled:
                return raw(self_, queries, budget_s)
            span, token = tracer._enter(RUNNER, None, None)
            span.extra = {"links": tuple(id(q) for q in queries)}
            try:
                return raw(self_, queries, budget_s)
            finally:
                tracer._exit(span, token)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def patch_fingerprint(self, module: object) -> None:
        """Wrap ``module.dataset_fingerprint``; only cold calls (an empty
        ``peek_fingerprint``, so the O(n) fold runs) become spans."""
        from repro.perf.fingerprint import peek_fingerprint

        raw = getattr(module, "dataset_fingerprint")
        tracer = self

        @functools.wraps(raw)
        def wrapper(dataset: Any) -> Any:
            if peek_fingerprint(dataset) is not None:
                return raw(dataset)
            span, token = tracer._child("perf.fingerprint.fold")
            try:
                return raw(dataset)
            finally:
                tracer._exit(span, token)

        setattr(module, "dataset_fingerprint", wrapper)
        self._patches.append((module, "dataset_fingerprint", raw))

    def install_runner(self) -> None:
        from repro.serve import EstimationServer

        self.patch_runner(EstimationServer, "_default_runner")

    def uninstall(self) -> None:
        self.enabled = False
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def install(self) -> None:
        """Patch every layer entry point the workloads reach and start
        recording (the runner patch must already be in place)."""
        import repro.perf.batch as batch_mod
        import repro.perf.cache as cache_mod
        import repro.perf.fingerprint as fp_mod
        import repro.perf.memo as memo_mod
        import repro.serve.loop as loop_mod
        from repro.histograms import GHHistogram, PHHistogram
        from repro.perf import EstimateCache, FlatTreeCache, HistogramCache
        from repro.sampling import SamplingJoinEstimator
        from repro.serve import AdmissionController, EstimationServer, MicroBatcher, ShardPool
        from repro.store import ArtifactCatalog

        from . import inputs

        self.patch(EstimationServer, "submit", "serve.loop.submit")
        self.patch(AdmissionController, "admit", "serve.admission.admit")
        self.patch(AdmissionController, "charge", "serve.admission.charge")
        self.patch(EstimateCache, "get", "perf.memo.get")
        self.patch(EstimateCache, "put", "perf.memo.put")
        self.patch(MicroBatcher, "submit", "serve.batcher.submit",
                   pre=lambda a: {"qid": id(a[1])})
        self.patch(loop_mod, "estimate_many", "perf.batch.estimate_many")
        self.patch(batch_mod, "estimate_many", "perf.batch.estimate_many")
        self.patch(batch_mod, "fused_pair_estimates", "histograms.fused",
                   pre=lambda a: {"pairs": len(a[1])})
        for module in (batch_mod, cache_mod, memo_mod, fp_mod):
            self.patch_fingerprint(module)
        self.patch(HistogramCache, "resolve", "perf.cache.resolve",
                   extra=lambda a, r: {"source": r[1]})
        self.patch(FlatTreeCache, "resolve", "perf.tree_cache.resolve",
                   extra=lambda a, r: {"source": r[1]})
        self.patch(GHHistogram, "build", "histograms.gh_build")
        self.patch(PHHistogram, "build", "histograms.ph_build")
        self.patch(GHHistogram, "estimate_selectivity", "histograms.combine")
        self.patch(PHHistogram, "estimate_selectivity", "histograms.ph_combine")
        self.patch(ArtifactCatalog, "put_histogram", "store.publish")
        self.patch(ArtifactCatalog, "load_histogram", "store.load")
        self.patch(ShardPool, "estimate", "serve.shards.estimate")
        self.patch(ShardPool, "prepare", "serve.shards.prepare",
                   extra=lambda a, r: {"reply_bytes": int(r.size_bytes)})
        self.patch(SamplingJoinEstimator, "estimate", "sampling.estimate")
        self.patch(inputs, "apply_write", "datasets.write")
        self.enabled = True


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

def _union_length(intervals: "list[tuple[float, float]]") -> float:
    total = 0.0
    end = -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


@dataclass
class Ledger:
    """Per-layer self time summed over request trees, plus per-span selves."""

    requests: int = 0
    request_s: float = 0.0  #: summed root-span (client-measured) time
    layer_self_s: "dict[str, float]" = field(default_factory=lambda: defaultdict(float))
    span_self_s: "dict[int, float]" = field(default_factory=dict)


def children_map(spans: "list[Span]") -> "dict[int, list[Span]]":
    children: "dict[int, list[Span]]" = defaultdict(list)
    by_qid: "dict[int, list[Span]]" = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
        if s.name == "serve.batcher.submit":
            by_qid[s.extra["qid"]].append(s)
    for s in spans:
        if s.name != RUNNER:
            continue
        for qid in s.extra["links"]:
            for sub in by_qid.get(qid, ()):
                if sub.t0 <= s.t0 and s.t1 <= sub.t1:
                    children[sub.sid].append(s)
    return children


def ledger(spans: "list[Span]") -> Ledger:
    """Walk every request tree; each span's self time is its (parent-
    clipped) duration minus the union of its clipped children, so the
    layer selves of one tree sum exactly to its root's duration."""
    children = children_map(spans)
    out = Ledger()

    def walk(span: Span, lo: float, hi: float) -> None:
        a, b = max(span.t0, lo), min(span.t1, hi)
        if b <= a:
            return
        kids = children.get(span.sid, ())
        clipped = [(max(k.t0, a), min(k.t1, b)) for k in kids]
        own = (b - a) - _union_length([c for c in clipped if c[1] > c[0]])
        out.layer_self_s[span.layer] += own
        out.span_self_s.setdefault(span.sid, own)
        for kid in kids:
            walk(kid, a, b)

    for s in spans:
        if s.name == ROOT:
            out.requests += 1
            out.request_s += s.dur
            walk(s, s.t0, s.t1)
    return out


def durations(spans: "list[Span]", name: str) -> np.ndarray:
    return np.array([s.dur for s in spans if s.name == name], dtype=np.float64)


def by_name(spans: "list[Span]", name: str) -> Iterator[Span]:
    return (s for s in spans if s.name == name)
