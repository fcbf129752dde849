"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload serve-hot-rw --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs an untraced pass and then a traced pass of the same
length and reports the per-layer metrics, the per-layer ledger and the
tracing overhead.  Both check every answer after the timed phase.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
``--workload all`` runs every workload in turn, each in its own process.

Run from a checkout of the repository: the program under test is
imported from ``src/`` beside this directory, and scratch stores live
under ``.perfbench_work/`` there (removed on exit).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-hot-rw", "serve-sharded", "ingest-analyze")
SETUP_REPS = 3  #: set-up runs per invocation; the median is reported
SUB_PHASES = 20  #: the untraced timed phase runs as this many equal slices


def parse(argv: "list[str] | None") -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


async def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from perfbench import report
    from perfbench.tracing import ContextExecutor, Tracer
    from perfbench.workloads import Phase, make_workload

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install_runner()
    work = make_workload(name, seed, workdir)
    try:
        setups = [await work.setup(rep) for rep in range(SETUP_REPS)]
        before: "dict[str, float]" = {}
        parts = [await work.phase(seconds / SUB_PHASES) for _ in range(SUB_PHASES)]
        plain = Phase.merge(parts)
        traced = None
        if tracer is not None:
            asyncio.get_running_loop().set_default_executor(ContextExecutor())
            before = work.layer_stats()
            tracer.install()
            work.tracer = tracer
            try:
                traced = await work.phase(seconds)
            finally:
                work.tracer = None
                tracer.uninstall()
        after = work.layer_stats() if tracer else {}
        rss = report.retained_rss_mb()
        peak = report.peak_rss_mb()
        await work.probe()
        counts = work.counts()
    finally:
        await work.close()
    check, probe = work.check()
    lines = list(plain.error_lines) + (traced.error_lines if traced else []) + (check.lines or [])
    stale = probe.mismatches if probe is not None else 0
    if probe is not None:
        lines.append(
            f"coherence probe: {probe.checked} re-requests after one write, "
            f"{probe.mismatches} stale (known defect, ROADMAP item 1: shard workers "
            f"keep the coordinates snapshotted at ShardPool.start())"
        )
        lines += probe.lines or []
    phases = [plain] + ([traced] if traced else [])
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases) + check.mismatches
    if tracer is not None and traced is not None:
        metrics = report.per_layer(tracer.spans, traced, plain, before, after, stale)
    else:
        metrics = report.end_to_end(
            parts, setup_s=setups, mismatches=check.mismatches,
            rel_error=check.rel_error_median_pct, rss_mb=rss,
        )
    report.check_names(metrics)
    return {
        "name": name,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "correct": check.mismatches == 0,
        "checked": check.checked,
        "mismatches": check.mismatches,
        "setups": setups,
        "lines": lines,
        "warnings": report.boundary_warnings(plain),
        "counts": counts,
        "phase": plain,
        "peak_rss_mb": peak,
    }


def _child_pids() -> "list[int]":
    """Live (or unreaped) direct children of this process, from /proc."""
    me, out = os.getpid(), []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the comm field may hold spaces; ppid is the 2nd field after its ")"
        if int(stat[stat.rindex(b")") + 2:].split()[1]) == me:
            out.append(int(entry.name))
    return out


def _wait_gone(pid: int, timeout: float) -> None:
    """Reap ``pid``; SIGKILL it if it has not ended within ``timeout`` s."""
    deadline = time.monotonic() + timeout
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:  # already reaped by its owner
        pass


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    The shard pool joins its workers on close; this also covers the
    ``multiprocessing`` resource tracker, which ``SharedMemory`` starts
    on first use and which would otherwise outlive the run (it only
    exits once it reads EOF on its pipe, after this process is gone).
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join(timeout=5.0)
    tracker = resource_tracker._resource_tracker
    fd, pid = tracker._fd, tracker._pid
    tracker._fd = tracker._pid = None
    if fd is not None:
        os.close(fd)  # EOF on its pipe: the tracker cleans up and exits
    if pid is not None:
        _wait_gone(pid, timeout=10.0)
    if os.path.isdir("/proc"):
        for child in _child_pids():
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:
                pass
            _wait_gone(child, timeout=5.0)


def run_one(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import report

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = asyncio.run(
            measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        )
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    plain = out["phase"]
    for line in out["warnings"]:
        report.warn(line)
    print(f"workload {out['name']} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(
        f"sent {out['attempted']} succeeded {out['attempted'] - out['failed']} "
        f"failed {out['failed']} (untraced pass: shed {plain.shed}, timeout "
        f"{plain.timeouts}, error {plain.errors}; checker mismatches {out['mismatches']})"
    )
    print(f"answers by path (untraced pass): {dict(plain.vias)}; "
          f"peak RSS {out['peak_rss_mb']:.1f} MiB")
    print(f"checker: {out['checked']} answers compared bit for bit against "
          f"from-scratch estimators; {out['mismatches']} mismatches")
    for line in out["lines"]:
        print(line)
    for name, (value, unit) in out["metrics"].items():
        print(f"metric {name} = {value:.6g} {unit}")
    print("counts " + json.dumps(out["counts"], sort_keys=True, default=float))
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": report.as_json_metrics(out["metrics"]),
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process (so peak RSS is its own)."""
    merged: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def _on_sigterm(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)  # unwinds through the finally blocks


def main(argv: "list[str] | None" = None) -> int:
    args = parse(argv)
    signal.signal(signal.SIGTERM, _on_sigterm)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
