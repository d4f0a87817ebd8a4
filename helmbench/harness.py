"""Closed-loop measurement of one workload and the metrics derived from it.

One caller runs the workload's request, waits for the result, checks it and
starts the next, until the run's time is spent. An untraced run yields the
end-to-end metrics; a traced run alternates traced and untraced requests and
yields the per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field

from spans import Span, SpanRecorder, instrument

TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
K2_EPSILONS = ("0.2", "0.1", "0.05", "0.025")

# counters that must repeat exactly for identical inputs
EXACT_COUNTS = ("grid.unknowns", "grid.dirichlet", "assemble.local_nnz", "assemble.n_aux",
                "solver.fill_nnz", "solver.path.materialized", "solver.path.bordered",
                "geometry.draws", "geometry.particles")
EXACT_CALLS = ("solver.lu_solve", "geometry.distance_field", "corrector.solve_w1")


@dataclass
class Outcome:
    """Everything measured in one run of one workload."""

    wall: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    traced_wall: list[float] = field(default_factory=list)
    traced_cpu: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    recorders: list[SpanRecorder] = field(default_factory=list)


def measure(workload, seconds: float, trace: bool) -> Outcome:
    """Run workload requests for `seconds`; traced runs alternate T, U, T, ...

    A request starts only if the median request time still fits in the run;
    an untraced run makes at least one request and a traced run three, so
    that traced counts can be compared with each other.
    """
    out = Outcome()
    min_requests = 3 if trace else 1
    reference = None
    start = time.perf_counter()
    n = 0
    while True:
        traced = trace and n % 2 == 0
        recorder = SpanRecorder()
        c0, t0 = time.process_time(), time.perf_counter()
        if traced:
            with instrument(recorder), recorder.span("workload"):
                result = workload.run()
        else:
            result = workload.run()
        dt, dc = time.perf_counter() - t0, time.process_time() - c0
        n += 1
        attempted, failures = workload.check(result)
        signature = workload.signature(result)
        if reference is None:
            reference = signature
        elif signature != reference:
            failures.append("output differs from the first request of this run")
        out.attempted += attempted
        out.failed += len(failures)
        out.problems += failures
        if traced:
            out.traced_wall.append(dt)
            out.traced_cpu.append(dc)
            out.recorders.append(recorder)
        else:
            out.wall.append(dt)
            out.cpu.append(dc)
        elapsed = time.perf_counter() - start
        typical = statistics.median(out.wall + out.traced_wall)
        if n >= min_requests and elapsed + typical > seconds:
            break
    if trace:
        counts = [exact_counts(r) for r in out.recorders]
        if any(c != counts[0] for c in counts[1:]):
            out.failed += 1
            out.problems.append(f"exact counts differ between identical traced requests: {counts}")
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def end_to_end(out: Outcome, setup_s: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(out.wall), "s"),
        "cpu_s": (statistics.median(out.cpu), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def exact_counts(rec: SpanRecorder) -> dict[str, float]:
    counts = {k: rec.counts.get(k, 0.0) for k in EXACT_COUNTS}
    for name in EXACT_CALLS:
        counts[name + ".calls"] = sum(1 for s in rec.spans if s.name == name)
    return counts


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n_calls: int) -> float:
    """Highest ladder percentile with at least ten calls beyond it (50 if none)."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n_calls * (1.0 - pct / 100.0) >= 10:
            best = pct
    return best


def per_layer(out: Outcome, threads: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per request (averaged over the traced requests)."""
    reps = len(out.recorders)
    spans: list[Span] = [s for r in out.recorders for s in r.spans]
    counts: dict[str, float] = {}
    for r in out.recorders:
        for k, v in r.counts.items():
            counts[k] = max(counts.get(k, v), v) if k == "solver.residual_max" else counts.get(k, 0.0) + v

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def self_s(name: str) -> float:
        return sum(s.self_time for s in named(name)) / reps

    def calls(name: str) -> float:
        return len(named(name)) / reps

    def per_rep(key: str) -> float:
        return counts.get(key, 0.0) / reps

    m: dict[str, tuple[float, str]] = {}
    for name in ("geometry.sample_matern", "geometry.distance_field", "grid.classify_nodes",
                 "grid.build_grid", "assemble.assemble", "assemble.materialize",
                 "assemble.bordered", "solver.solve", "solver.splu", "corrector.solve_w1",
                 "scattering.reference_solve", "experiments.run_sweep"):
        m[name + ".self_s"] = (self_s(name), "s")
    m["geometry.distance_field.calls"] = (calls("geometry.distance_field"), "count")
    draws = counts.get("geometry.draws", 0.0)
    m["geometry.particles_mean"] = (counts.get("geometry.particles", 0.0) / draws if draws else 0.0,
                                    "count")
    unknowns = counts.get("grid.unknowns", 0.0)
    m["grid.unknowns"] = (unknowns / reps, "count")
    m["grid.dirichlet_frac"] = (counts.get("grid.dirichlet", 0.0) / unknowns if unknowns else 0.0,
                                "ratio")
    m["assemble.local_nnz"] = (per_rep("assemble.local_nnz"), "count")
    m["assemble.n_aux"] = (per_rep("assemble.n_aux"), "count")
    m["solver.fill_nnz"] = (per_rep("solver.fill_nnz"), "count")
    m["solver.fill_bytes_computed"] = (16.0 * per_rep("solver.fill_nnz"), "B")
    m["solver.lu_solve.calls"] = (calls("solver.lu_solve"), "count")
    m["solver.path.materialized"] = (per_rep("solver.path.materialized"), "count")
    m["solver.path.bordered"] = (per_rep("solver.path.bordered"), "count")
    m["solver.residual_max"] = (counts.get("solver.residual_max", 0.0), "rel")

    w1 = [s.duration for s in named("corrector.solve_w1")]
    tail = tail_percentile(len(w1))
    m["corrector.solve_w1.calls"] = (len(w1) / reps, "count")
    m["corrector.solve_w1.p50_s"] = (percentile(w1, 50.0) if w1 else 0.0, "s")
    m["corrector.solve_w1.tail_s"] = (percentile(w1, tail) if w1 else 0.0, "s")
    m["corrector.solve_w1.tail_pct"] = (tail if w1 else 0.0, "%")

    for label in K2_EPSILONS:
        per_eps = [s.duration for s in named("scattering.reference_solve") if s.tag == "k2e" + label]
        m[f"scattering.reference_solve.k2e{label}.mean_s"] = (
            statistics.fmean(per_eps) if per_eps else 0.0, "s")

    m["experiments.fanout_efficiency"] = (fanout_efficiency(out.recorders, threads), "ratio")
    m["experiments.cpu_per_wall"] = (sum(out.traced_cpu) / sum(out.traced_wall), "ratio")
    m["request.wall_s"] = (statistics.median(out.wall), "s")
    m["trace.overhead_frac"] = (statistics.median(out.traced_wall) / statistics.median(out.wall) - 1.0,
                                "ratio")
    return m


FANOUT_SPANS = ("corrector.estimate_c1", "experiments.run_sweep", "workload")


def fanout_efficiency(recorders: list[SpanRecorder], threads: int) -> float:
    """Busy time of the fanned-out calls / (threads x wall time of the fan-out).

    The fan-out is the outermost package call of the request (estimate_c1,
    run_sweep, or the request itself when it makes several calls); busy time
    is the summed duration of its direct children.
    """
    busy = wall = 0.0
    for rec in recorders:
        names = {s.name for s in rec.spans}
        root_name = next(n for n in FANOUT_SPANS if n in names)
        for root in (s for s in rec.spans if s.name == root_name):
            wall += root.duration
            busy += sum(c.duration for c in root.children)
    return busy / (threads * wall)
