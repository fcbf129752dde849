"""The answer checker and the exact-join oracle (outside the timed phase).

Every served answer is recorded with the token versions of its two
datasets when its request was sent and when its answer came back.  The
checker rebuilds each of those dataset versions from a base snapshot
plus the logged edits, recomputes the answer with a from-scratch
estimator (no memo, no cache, no store, no shards) and compares bit for
bit.  A request in flight across a write may match either side of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from repro import GHEstimator, ParametricEstimator, actual_selectivity
from repro.datasets import SpatialDataset
from repro.geometry import RectArray
from repro.histograms import GHHistogram, downsample_gh

from .inputs import Write

class Answer(NamedTuple):
    """One served read, with the data versions it could have seen.

    A tuple rather than a dataclass: the collector stops tracking tuples
    of atomic values, so tens of thousands of recorded answers add no
    garbage-collection work to the measured process.
    """

    d1: int
    d2: int
    level: int
    v1: "tuple[int, int]"  #: (version at send, version at answer)
    v2: "tuple[int, int]"
    value: float
    rung: str
    via: str
    seq: int  #: index among the recorded reads (-1 for probe reads)


class Snapshots:
    """Every dataset version the writes create, as base + edit log."""

    def __init__(self, datasets: "list[SpatialDataset]") -> None:
        self.names = [ds.name for ds in datasets]
        self.extent = datasets[0].extent
        self.base = [
            (ds.token.version, tuple(a.copy() for a in _arrays(ds.rects)))
            for ds in datasets
        ]
        self.edits: "list[list[tuple[int, Write]]]" = [[] for _ in datasets]

    def record(self, write: Write, version: int) -> None:
        self.edits[write.d].append((version, write))

    def at(self, d: int, version: int) -> SpatialDataset:
        base_version, arrays = self.base[d]
        if version < base_version:
            raise ValueError(f"version {version} of {self.names[d]} predates the snapshot")
        cols = [a.copy() for a in arrays]
        for v, w in self.edits[d]:
            if v > version:
                break
            for col, new in zip(cols, (w.xmin, w.ymin, w.xmax, w.ymax)):
                col[w.idx] = new
        return SpatialDataset(self.names[d], RectArray(*cols, copy=False), self.extent)


def _arrays(r: RectArray) -> "tuple[np.ndarray, ...]":
    return (r.xmin, r.ymin, r.xmax, r.ymax)


@dataclass
class CheckResult:
    checked: int = 0
    mismatches: int = 0
    rel_error_median_pct: float = float("nan")
    lines: "list[str] | None" = None

    def note(self, line: str) -> None:
        if self.lines is None:
            self.lines = []
        self.lines.append(line)


class GHOracle:
    """From-scratch GH answers per (dataset, version, level), memoized
    inside the checker only.

    The program may answer a GH level by exact 2x2 pooling of a finer
    cached level (``HistogramCache`` derivation), which equals a direct
    build only up to summation order.  So each side has several exact
    from-scratch variants: the direct build, and the build at each finer
    level pooled down with :func:`downsample_gh`.  A served answer must
    equal one combination bit for bit.
    """

    def __init__(self, snaps: Snapshots, finest: int) -> None:
        self.snaps = snaps
        self.finest = finest
        self._built: "dict[tuple[int, int, int], GHHistogram]" = {}
        self._variants: "dict[tuple[int, int, int], list[GHHistogram]]" = {}
        self._ds: "dict[tuple[int, int], SpatialDataset]" = {}

    def dataset(self, d: int, v: int) -> SpatialDataset:
        key = (d, v)
        if key not in self._ds:
            self._ds[key] = self.snaps.at(d, v)
        return self._ds[key]

    def _build(self, d: int, v: int, level: int) -> GHHistogram:
        key = (d, v, level)
        if key not in self._built:
            ds = self.dataset(d, v)
            self._built[key] = GHEstimator(level).prepare(ds, extent=ds.extent)
        return self._built[key]

    def variants(self, d: int, v: int, level: int) -> "list[GHHistogram]":
        key = (d, v, level)
        if key not in self._variants:
            found = [self._build(d, v, level)]
            for finer in range(level + 1, self.finest + 1):
                hist = self._build(d, v, finer)
                for _ in range(finer - level):
                    hist = downsample_gh(hist)
                found.append(hist)
            self._variants[key] = found
        return self._variants[key]

    def values(self, d1: int, v1: int, d2: int, v2: int, level: int) -> "list[float]":
        """Candidate answers, the direct-build combination first."""
        est = GHEstimator(level)
        return [
            float(est.combine(a, b))
            for a in self.variants(d1, v1, level)
            for b in self.variants(d2, v2, level)
        ]


def check_serve_answers(
    answers: "Iterable[Answer]",
    snaps: Snapshots,
    *,
    coarsen_by: int,
    finest: int,
    seed: int,
    exact_joins: int,
    exact_prefix: int,
    label: str = "",
) -> CheckResult:
    """Bit-for-bit check of served answers, then the accuracy oracle.

    ``rel_error_median_pct`` is the median relative error of full-rung GH
    answers against exact join counts, over the distinct (pair, level)
    keys answered for the first ``exact_prefix`` reads, each at the data
    version of its first answer (so hot pairs weigh no more than cold
    ones); a seeded sample of at most ``exact_joins`` distinct joins
    bounds the oracle's cost.
    """
    oracle = GHOracle(snaps, finest)
    parametric = ParametricEstimator()
    out = CheckResult()
    #: (d1, d2, level) -> (v1, v2, value) of its first full answer in the prefix
    full_keys: "dict[tuple[int, int, int], tuple[int, int, float]]" = {}
    for ans in answers:
        out.checked += 1
        versions = list(itertools.product(range(ans.v1[0], ans.v1[1] + 1),
                                          range(ans.v2[0], ans.v2[1] + 1)))
        if ans.rung in ("full", "cached-coarse"):
            level = ans.level if ans.rung == "full" else max(1, ans.level - coarsen_by)
            want = []
            for a, b in versions:
                got = oracle.values(ans.d1, a, ans.d2, b, level)
                if ans.rung == "full" and ans.value in got and 0 <= ans.seq < exact_prefix:
                    full_keys.setdefault((ans.d1, ans.d2, level), (a, b, ans.value))
                want += got
            ok = ans.value in want
        else:
            want = [
                parametric.estimate(oracle.dataset(ans.d1, a), oracle.dataset(ans.d2, b))
                for a, b in versions
            ]
            ok = ans.value in want
        if not ok:
            out.mismatches += 1
            out.note(
                f"MISMATCH{label}: {snaps.names[ans.d1]}@v{ans.v1} x "
                f"{snaps.names[ans.d2]}@v{ans.v2} level {ans.level} rung {ans.rung} "
                f"via {ans.via}: served {ans.value!r}, from-scratch {sorted(set(want))!r}"
            )
    # One exact join serves both levels and both orders of a pair.
    joins: "dict[tuple[int, int, int, int], list[float]]" = {}
    for (d1, d2, _), (v1, v2, value) in sorted(full_keys.items()):
        side = (d1, v1, d2, v2) if (d1, v1) <= (d2, v2) else (d2, v2, d1, v1)
        joins.setdefault(side, []).append(value)
    keys = sorted(joins)
    if keys:
        rng = np.random.default_rng([seed, 21])
        picked = rng.choice(len(keys), min(exact_joins, len(keys)), replace=False)
        errors = []
        for i in sorted(picked):
            d1, v1, d2, v2 = keys[i]
            exact = actual_selectivity(oracle.dataset(d1, v1).rects, oracle.dataset(d2, v2).rects)
            if exact > 0:
                errors += [abs(value - exact) / exact * 100.0 for value in joins[keys[i]]]
        if errors:
            out.rel_error_median_pct = float(np.median(errors))
    return out
