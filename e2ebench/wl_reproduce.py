"""Workload ``reproduce``: every registry experiment, as a paper reader runs it.

One pass runs E01-E13 and A13-A17 in one process on the default serial
backend, in registry order, with a fresh default ``RunCache`` first
(otherwise every pass after the first would hit the cache on every run
and time nothing).  ``wall_s`` is the pass and one operation is one
experiment, so ``op_p99_ms`` is the slowest experiment.  Finer
operations inside the experiments (simulated runs, K_p queries) were
tried: their tails are set by where garbage-collector pauses land and
move by a quarter from run to run.  Checks: every
experiment passes, and E09 regenerates every Table 1 cell as the paper
has it.
"""

from __future__ import annotations

import time
import warnings

from common import (
    Result,
    QUIET_NOMINAL_S,
    SAMPLE_PERIOD,
    SpeedSampler,
    Tracer,
    as_ms,
    child_setup_seconds,
    layer_shares,
    median,
    percentile,
    self_peak_rss_mb,
)

#: Experiments the self-test runs (``--tiny``): the cheapest few.
TINY_IDS = ("E01", "E02", "E09", "E12", "A14")

#: Table 1's grid: {reliable, unreliable} x {UDC, consensus} x three t regimes.
TABLE1_CELLS = 12

#: Timed set-ups per run (median reported).
SETUPS = 15

#: What a user pays before the first experiment: a fresh interpreter,
#: the harness imports and the registry scan.
SETUP_CODE = "import repro.harness.registry as r; r.experiment_ids()"
#: An experiment is normalized by the probes this close to it.
PROBE_REACH = 0.05


def _trace_layers(tracer: Tracer) -> None:
    """Spans around each layer's entry points on the experiment path."""
    import repro.runtime.api as runtime_api
    from repro.columnar import kernel as columnar_kernel
    from repro.knowledge.group import GroupChecker
    from repro.knowledge.semantics import ModelChecker
    from repro.model import run as model_run
    from repro.model.system import System
    from repro.sim.executor import Executor

    tracer.patch_function(runtime_api, "run_ensemble", "runtime.run_ensemble")
    tracer.patch_function(runtime_api, "run_spec", "runtime.run_spec")
    tracer.patch_method(Executor, "run", "sim.Executor.run")
    tracer.patch_function(model_run, "validate_run", "sim.validate_run")
    tracer.patch_method(System, "__init__", "kernel.System.init")
    tracer.patch_method(System, "known_crashed_set", "kernel.known_crashed_set")
    tracer.patch_method(System, "known_crash_count", "kernel.known_crash_count")
    tracer.patch_method(System, "knows", "kernel.knows")
    tracer.patch_function(columnar_kernel, "build_kernel", "kernel.build_kernel")
    for attr in ("holds", "valid", "counterexample", "satisfiable"):
        tracer.patch_method(ModelChecker, attr, f"knowledge.ModelChecker.{attr}")
    for attr in ("common_knowledge_points", "max_e_depth", "distributed_knowledge"):
        tracer.patch_method(GroupChecker, attr, f"knowledge.GroupChecker.{attr}")


def _one_pass(
    experiments: list, result: Result, tracer: Tracer | None, factors: list[float]
) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Run every experiment once.

    Returns normalized and raw seconds per experiment id, and the
    default cache's counters.  Untraced, a ``SpeedSampler`` probes while
    the experiments run: its pauses are subtracted from every time, and
    each experiment is normalized by the probes taken during it (speed
    factors go to ``factors``).  Traced passes are not normalized.
    """
    from repro.runtime.cache import RunCache, set_default_run_cache

    cache = RunCache()
    set_default_run_cache(cache)
    normalized: dict[str, float] = {}
    raw: dict[str, float] = {}
    verdicts = []
    perf = time.perf_counter
    sampler = SpeedSampler(SAMPLE_PERIOD) if tracer is None else None
    if sampler is not None:
        sampler.__enter__()
    try:
        for exp in experiments:
            t0 = perf()
            if tracer is None:
                outcome = exp.run()
            else:
                tracer.request = exp.exp_id
                tracer.begin("harness.experiment")
                try:
                    outcome = exp.run()
                finally:
                    tracer.end()
            t1 = perf()
            factor = 1.0
            paused = 0.0
            if sampler is not None:
                paused, _ = sampler.inside(t0, t1)
                # The experiment's probes, and its neighbours' for short ones.
                _, measured = sampler.inside(t0 - PROBE_REACH, t1 + PROBE_REACH)
                factor = QUIET_NOMINAL_S / median(measured)
                factors.append(factor)
            raw[exp.exp_id] = t1 - t0 - paused
            normalized[exp.exp_id] = raw[exp.exp_id] * factor
            verdicts.append((exp.exp_id, outcome))
    finally:
        if sampler is not None:
            sampler.__exit__()
    for exp_id, outcome in verdicts:
        ok = outcome.passed
        if exp_id == "E09":
            # Table 1: every cell must be present and match the paper.
            ok = ok and len(outcome.rows) == TABLE1_CELLS and all(
                value == "PASS" for _, value in outcome.rows
            )
        result.check(ok, f"{exp_id} did not reproduce the paper's claim")
    return normalized, raw, {"hits": cache.hits, "misses": cache.misses}


def run(seed: int, seconds: float, trace: bool, tiny: bool) -> Result:
    from repro.harness import registry
    from repro.model.system import IncompleteSystemWarning

    warnings.simplefilter("ignore", IncompleteSystemWarning)
    result = Result()
    setups = child_setup_seconds(SETUP_CODE, SETUPS)
    # The experiments carry the paper's own seeds and run in registry
    # order, as ``python -m repro.harness`` runs them: ``seed`` generates
    # no input here, and a shuffled order only adds order effects.
    ids = list(TINY_IDS if tiny else registry.experiment_ids())
    experiments = [registry.get(exp_id) for exp_id in ids]
    result.notes.append(f"experiment order: {' '.join(ids)}")

    walls: list[float] = []
    factors: list[float] = []
    raw_walls: list[float] = []
    exp_times: list[float] = []
    raw_ids: dict[str, float] = {}
    start = time.perf_counter()
    while True:
        per_id, raw_ids, cache_counts = _one_pass(experiments, result, None, factors)
        walls.append(sum(per_id.values()))
        raw_walls.append(sum(raw_ids.values()))
        exp_times.extend(per_id.values())
        elapsed = time.perf_counter() - start
        # Start another pass only if it fits in the measuring window.
        if trace or elapsed + median(raw_walls) > seconds:
            break
    rss = self_peak_rss_mb()

    result.e2e = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "op_p50_ms": percentile(as_ms(exp_times), 0.50),
        "op_p99_ms": percentile(as_ms(exp_times), 0.99),
        "peak_rss_mb": rss,
    }
    result.notes.append(
        f"{len(walls)} pass(es) of {len(ids)} experiments; op = one experiment "
        f"({len(exp_times)} samples, p99 = slowest); raw pass {median(raw_walls):.3f} s"
    )
    result.notes.append(
        f"{SETUPS} set-ups; experiment speed factor median {median(factors):.3f} "
        f"(min {min(factors):.3f}, max {max(factors):.3f})"
    )

    if trace:
        # A traced pass, then an untraced one: both run warm, so their
        # difference is the tracing overhead, not first-pass costs.
        tracer = Tracer()
        _trace_layers(tracer)
        try:
            _, traced_raw, cache_counts = _one_pass(experiments, result, tracer, [])
        finally:
            tracer.unpatch()
        _, raw_ids, _ = _one_pass(experiments, result, None, [])
        # Experiment times come from the untraced pass: they are timed
        # from outside either way, and tracing would inflate them.
        result.layers.update({f"harness.{k}_s": v for k, v in raw_ids.items()})
        result.layers["runtime.cache.hits"] = cache_counts["hits"]
        result.layers["runtime.cache.misses"] = cache_counts["misses"]
        for layer, share in layer_shares(tracer.self_by_layer()).items():
            result.layers[f"layer.{layer}.self_pct"] = share
        # Raw times: the two passes are adjacent, and the tracer's own
        # memory would skew the probes that normalize them.
        warm_wall = sum(raw_ids.values())
        result.layers["bench.trace_overhead_pct"] = (
            100.0 * (sum(traced_raw.values()) - warm_wall) / warm_wall
        )
        result.tracer = tracer
    return result
