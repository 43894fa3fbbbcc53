"""Workload ``explore-complete``: Thm 3.6's transformation over a complete system.

One pass is the pipeline a user runs to get sound K_p answers:
``explore(spec, cache=None)`` -> ``RunCache(dir).put_exploration`` -> a
fresh ``RunCache(dir).get_exploration`` -> ``System(runs, complete=True)``
-> the P3 suspicion sweep ``S = {q : K_p crash(q)}`` for every process
at every point.  ``cache=None`` matters: the process-wide default cache
would turn every pass after the first into a hit.  The lazy kernel
index is paid by the first query of every pass, so it is timed inside
the pass.

Checks (between passes, outside the timed stages): the run count, that
every suspicion is sound (q in S => q crashed in r by m), that the sweep
digest is the same on every pass, and that a seeded sample of the first
pass's points agrees with the naive reference kernel.  Each pass's
system and suspicion table are dropped before the next pass starts, so
``peak_rss_mb`` is the high-water mark of one pipeline.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time

from common import (
    Result,
    Tracer,
    as_ms,
    HostSpeed,
    child_setup_seconds,
    layer_shares,
    median,
    percentile,
    remove_dir,
    scratch_dir,
    self_peak_rss_mb,
    windowed_p99,
    x02_spec,
)

N = 5
TINY_N = 3
#: |runs| of the X02 family at n=5, T=8, crash ticks {1,3,5}.
EXPECTED_RUNS = {5: 2717}
REFERENCE_SAMPLES = 8
#: Calibration probes before and after each pipeline stage.
PROBES = 3
#: Runs swept between calibration probes.
SWEEP_CHUNK = 200
#: Swept runs per p99 window.
P99_WINDOW = 200

#: Timed set-ups per run (median reported).
SETUPS = 15

#: What a user pays before the first pipeline stage: a fresh
#: interpreter importing the pipeline's modules and building the spec.
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'e2ebench'); import common; "
    "import repro.runtime.cache, repro.model.system; "
    "common.x02_spec({n}, (1, 3, 5))"
)


class _Stage:
    """Times one pipeline stage between calibration probes, normalized.

    When tracing, the stage is also a span; the probes stay outside it.
    """

    def __init__(self, tracer: Tracer | None, speed: HostSpeed) -> None:
        self.tracer = tracer
        self.speed = speed
        self.seconds: dict[str, float] = {}
        self._name = ""
        self._start = 0.0

    def __call__(self, name: str) -> "_Stage":
        self._name = name
        return self

    def __enter__(self) -> None:
        self.speed.probe(PROBES)
        if self.tracer is not None:
            self.tracer.begin(self._name)
        self._start = time.perf_counter()

    def __exit__(self, *exc: object) -> None:
        seconds = time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.end()
        self.speed.probe(PROBES)
        self.seconds[self._name] = seconds * self.speed.factor()


def _sweep(
    system: object, runs: tuple, speed: HostSpeed | None
) -> tuple[float, list[float], list[list[frozenset]]]:
    """The P3 sweep run by run; (seconds, per-run seconds, per-point answers).

    One operation is one run's suspicion sets: every process at every
    time of the run.  With ``speed``, every chunk of runs is bracketed
    by probes and its times normalized.
    """
    from repro.model.run import Point

    procs = system.processes  # type: ignore[attr-defined]
    kcs = system.known_crashed_set  # type: ignore[attr-defined]
    perf = time.perf_counter
    total = 0.0
    latencies: list[float] = []
    answers: list[list[frozenset]] = []
    for first in range(0, len(runs), SWEEP_CHUNK):
        lat: list[float] = []
        if speed is not None:
            speed.probe(2)
        start = perf()
        for run in runs[first : first + SWEEP_CHUNK]:
            t0 = perf()
            for m in range(run.duration + 1):
                point = Point(run, m)
                answers.append([kcs(p, point) for p in procs])
            lat.append(perf() - t0)
        seconds = perf() - start
        factor = 1.0
        if speed is not None:
            speed.probe(2)
            factor = speed.factor()
        total += seconds * factor
        latencies.extend(t * factor for t in lat)
    return total, latencies, answers


def _pipeline(spec: object, tracer: Tracer | None, speed: HostSpeed) -> dict:
    """One pass; returns stage seconds plus what the checks need."""
    from repro.explore import explore
    from repro.model.run import Point
    from repro.model.system import System
    from repro.runtime.cache import RunCache

    stage = _Stage(tracer, speed)
    cache_dir = scratch_dir("explore-")
    start = time.perf_counter()
    try:
        with stage("explore.explore"):
            report = explore(spec, cache=None)
        digest = spec.digest()  # type: ignore[attr-defined]
        writer = RunCache(cache_dir)
        with stage("runtime.cache.put"):
            writer.put_exploration(digest, report.runs, report.stats)
        with stage("runtime.cache.get"):
            loaded = RunCache(cache_dir).get_exploration(digest)
        if loaded is None:
            raise RuntimeError("exploration entry missing right after put")
        runs = loaded[0]
        with stage("kernel.System.init"):
            system = System(runs, complete=True)
        with stage("kernel.index_build"):
            system.known_crashed_set(system.processes[0], Point(runs[0], 0))
        if tracer is None:
            sweep_seconds, latencies, answers = _sweep(system, runs, speed)
            stage.seconds["knowledge.sweep"] = sweep_seconds
        else:
            # One span for the sweep: a span per point would swamp it.
            with stage("knowledge.sweep"):
                _, latencies, answers = _sweep(system, runs, None)
    finally:
        remove_dir(cache_dir)
    return {
        "wall": sum(stage.seconds.values()),
        "raw_wall": time.perf_counter() - start,
        "stages": stage.seconds,
        "latencies": latencies,
        "answers": answers,
        "system": system,
        "stats": report.stats,
        "complete": report.complete,
        "explored": len(report.runs),
        "entry_bytes": writer.bytes_written,
    }


def _check_pass(out: dict, n: int, digests: list[str], result: Result) -> int:
    """Soundness, run count and digest checks of one pass; returns suspect count."""
    system = out["system"]
    runs = system.runs
    expected = EXPECTED_RUNS.get(n, out["explored"])
    result.check(
        out["complete"] and len(runs) == out["explored"] == expected,
        f"pipeline produced {len(runs)} runs, expected {expected} (complete system)",
    )
    hasher = hashlib.sha256()
    suspects = 0
    unsound: list[str] = []
    rows = iter(out["answers"])
    for i, run in enumerate(runs):
        for m in range(run.duration + 1):
            row = next(rows)
            parts = []
            for p, known in zip(system.processes, row):
                if known:
                    suspects += 1
                    if not all(run.crashed_by(q, m) for q in known):
                        unsound.append(f"unsound suspicion {sorted(known)} by {p} at ({i},{m})")
                parts.append(",".join(sorted(known)))
            hasher.update(f"{i}.{m}:{';'.join(parts)}|".encode())
    result.tally(len(out["answers"]) * len(system.processes), unsound)
    digest = hasher.hexdigest()
    result.check(
        not digests or digest == digests[0],
        "P3 sweep digest differs between passes",
    )
    digests.append(digest)
    return suspects


def _check_reference(out: dict, seed: int, result: Result) -> None:
    """A seeded sample of suspicion sets against the naive reference kernel."""
    from repro.knowledge.reference import naive_known_crashed_set
    from repro.model.run import Point

    system = out["system"]
    runs = system.runs
    rng = random.Random(f"e2ebench:{seed}:explore-reference")
    offsets = [0]  # index of each run's first point in the sweep order
    for run in runs:
        offsets.append(offsets[-1] + run.duration + 1)
    for _ in range(REFERENCE_SAMPLES):
        i = rng.randrange(len(runs))
        m = rng.randint(0, runs[i].duration)
        p = rng.choice(system.processes)
        got = out["answers"][offsets[i] + m][system.processes.index(p)]
        want = naive_known_crashed_set(system, p, Point(runs[i], m))
        result.check(got == want, f"K_p sweep disagrees with the reference at ({i},{m}) for {p}")


def run(seed: int, seconds: float, trace: bool, tiny: bool) -> Result:
    n = TINY_N if tiny else N
    result = Result()
    setups = child_setup_seconds(SETUP_CODE.format(n=n), SETUPS)
    speed = HostSpeed()
    spec = x02_spec(n, (1, 3, 5))

    digests: list[str] = []
    walls: list[float] = []
    raw_walls: list[float] = []
    latencies: list[float] = []
    traced: list[dict] = []
    tracer = Tracer() if trace else None
    suspects = 0
    start = time.perf_counter()
    while True:
        # Traced runs alternate untraced and traced passes, so warm-up
        # and host drift fall on both sides of the overhead estimate.
        tracing = tracer is not None and len(walls) > len(traced)
        out = _pipeline(spec, tracer if tracing else None, speed)
        if tracing:
            traced.append({"wall": out["wall"], "stages": out["stages"]})
        else:
            walls.append(out["wall"])
            raw_walls.append(out["raw_wall"])
            latencies.extend(out["latencies"])
        suspects = _check_pass(out, n, digests, result)
        if len(digests) == 1:
            _check_reference(out, seed, result)
        stats, explored, points = out["stats"], out["explored"], len(out["answers"])
        entry_bytes = out["entry_bytes"]
        # The next pass starts from nothing this one built.
        out = {}
        gc.collect()
        if time.perf_counter() - start >= seconds and (tracer is None or traced):
            break
    rss = self_peak_rss_mb()

    result.e2e = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "op_p50_ms": percentile(as_ms(latencies), 0.50),
        "op_p99_ms": windowed_p99(as_ms(latencies), P99_WINDOW),
        "peak_rss_mb": rss,
    }
    result.notes.append(
        f"n={n}: {len(walls)} passes of {explored} runs; op = the P3 sweep of "
        f"one run, {n} K_p queries per point ({len(latencies)} samples); raw pass "
        f"{median(raw_walls):.3f} s"
    )
    result.notes.append(speed.summary())
    if tracer is not None:
        stage = {
            name: median([t["stages"][name] for t in traced])
            for name in traced[0]["stages"]
        }
        result.layers.update(
            {
                "explore.explore_s": stage["explore.explore"],
                "explore.states_expanded": stats.states_expanded,
                "explore.executions": stats.executions,
                "explore.runs": explored,
                "runtime.cache.put_s": stage["runtime.cache.put"],
                "runtime.cache.get_s": stage["runtime.cache.get"],
                "runtime.cache.entry_bytes": entry_bytes,
                "columnar.index_build_s": stage["kernel.index_build"],
                "knowledge.sweep_s": stage["knowledge.sweep"],
                "knowledge.sweep_calls": points * n,
                "knowledge.suspect_points": suspects,
                "bench.trace_overhead_pct": 100.0
                * (median([t["wall"] for t in traced]) - median(walls))
                / median(walls),
            }
        )
        for layer, share in layer_shares(tracer.self_by_layer()).items():
            result.layers[f"layer.{layer}.self_pct"] = share
        result.tracer = tracer
    return result
