"""The runtime's entry points: ``run_spec`` and ``run_ensemble``.

``run_ensemble`` is the one place ensembles get executed: it expands a
declarative :class:`EnsembleSpec` (or takes explicit RunSpecs), serves
what it can from the run cache, hands the misses to an execution
backend, and assembles an :class:`EnsembleReport` in spec order.

Degradation contract: per-run faults (deadline overruns, worker
crashes, executor exceptions that survive the retry policy) do **not**
abort the batch.  The report carries the casualties as structured
:class:`~repro.runtime.report.FailedRun` records, ``report.system()``
is built over the survivors (marked with how many runs are missing),
and a single :class:`UserWarning` summarizes the damage.  Pass
``strict=True`` to get the old abort-on-anything behaviour.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from typing import Sequence

from repro.model.run import Run
from repro.runtime.backends import (
    ExecutionBackend,
    RetryPolicy,
    backend_from_name,
    get_default_backend,
)
from repro.runtime.cache import RunCache, default_run_cache
from repro.runtime.report import EnsembleReport, FailedRun, RunMetrics, metrics_for
from repro.runtime.spec import EnsembleSpec, RunSpec

#: sentinel distinguishing "use the default cache" from "no cache"
_DEFAULT: object = object()


def _resolve_backend(backend: ExecutionBackend | str | None) -> ExecutionBackend:
    if backend is None:
        return get_default_backend()
    if isinstance(backend, str):
        return backend_from_name(backend)
    return backend


def run_spec(
    spec: RunSpec,
    *,
    cache: RunCache | None | object = _DEFAULT,
) -> Run:
    """Execute one spec (serially), via the cache."""
    resolved = default_run_cache() if cache is _DEFAULT else cache
    if isinstance(resolved, RunCache):
        hit = resolved.get(spec)
        if hit is not None:
            return hit
    from repro.sim.executor import Executor

    run = Executor.from_spec(spec).run()
    if isinstance(resolved, RunCache):
        resolved.put(spec, run)
    return run


def run_ensemble(
    spec: EnsembleSpec | Sequence[RunSpec],
    *,
    backend: ExecutionBackend | str | None = None,
    cache: RunCache | None | object = _DEFAULT,
    retry: RetryPolicy | None = None,
    strict: bool = False,
) -> EnsembleReport:
    """Execute every run of an ensemble and report.

    Parameters
    ----------
    spec:
        An :class:`EnsembleSpec` (expanded plan-major/seed-minor) or an
        explicit sequence of :class:`RunSpec`.
    backend:
        An :class:`ExecutionBackend`, a backend name (``"serial"``,
        ``"process"``, ``"process:N"``), or None for the process-wide
        default (serial unless overridden / ``REPRO_BACKEND``).
    cache:
        A :class:`RunCache`, None to disable caching, or omitted for
        the process-wide default in-memory cache.
    retry:
        The :class:`RetryPolicy` for transient per-run faults (None for
        the default: 3 attempts, exponential backoff).
    strict:
        When True, any run lost after retries raises ``RuntimeError``
        instead of degrading the report.

    Results are in spec order and independent of the backend: the same
    spec list yields field-for-field identical runs under every backend.
    When runs are lost, ``report.runs``/``report.metrics`` cover the
    survivors (``metrics[i].index`` maps back into ``report.specs``) and
    ``report.failures`` the casualties.
    """
    if isinstance(spec, EnsembleSpec):
        specs = spec.expand()
        context = spec.context
    else:
        specs = tuple(spec)
        context = next((s.context for s in specs if s.context is not None), None)
    resolved_backend = _resolve_backend(backend)
    maybe_cache = default_run_cache() if cache is _DEFAULT else cache
    resolved_cache = maybe_cache if isinstance(maybe_cache, RunCache) else None

    start = time.perf_counter()
    runs: list[Run | None] = [None] * len(specs)
    cached = [False] * len(specs)
    wall: list[float] = [0.0] * len(specs)
    failures: list[FailedRun] = []
    recoveries: list[FailedRun] = []

    pending: list[tuple[int, RunSpec]] = []
    for i, s in enumerate(specs):
        hit: Run | None = None
        if resolved_cache is not None:
            quarantined_before = len(resolved_cache.quarantined)
            hit = resolved_cache.get(s)
            if len(resolved_cache.quarantined) > quarantined_before:
                # A corrupt disk entry was quarantined during this get;
                # the run is regenerated below, so record a recovery.
                _, reason = resolved_cache.quarantined[-1]
                recoveries.append(
                    FailedRun(
                        index=i,
                        seed=s.seed,
                        kind="cache-corrupt",
                        attempts=1,
                        error=reason,
                        crash_plan=s.crash_plan,
                        recovered=True,
                    )
                )
        if hit is not None:
            runs[i] = hit
            cached[i] = True
        else:
            pending.append((i, s))

    if pending:
        batch = resolved_backend.run_all_safe([s for _, s in pending], retry)
        for (i, s), outcome in zip(pending, batch.outcomes):
            if isinstance(outcome, FailedRun):
                failures.append(dataclasses.replace(outcome, index=i))
            else:
                run, elapsed = outcome
                runs[i] = run
                wall[i] = elapsed
                if resolved_cache is not None:
                    resolved_cache.put(s, run)
        for recovery in batch.recoveries:
            # Recovery indices are batch-local; map back to spec order.
            ensemble_index = pending[recovery.index][0]
            recoveries.append(
                dataclasses.replace(recovery, index=ensemble_index)
            )

    if failures:
        failures.sort(key=lambda f: f.index)
        if strict:
            detail = "; ".join(f.describe() for f in failures)
            raise RuntimeError(
                f"ensemble lost {len(failures)} of {len(specs)} runs "
                f"(strict mode): {detail}"
            )
        warnings.warn(
            f"run_ensemble degraded: {len(failures)} of {len(specs)} runs "
            f"failed ({', '.join(sorted({f.kind for f in failures}))}); "
            "see report.failures for details",
            UserWarning,
            stacklevel=2,
        )
    recoveries.sort(key=lambda f: f.index)

    total = time.perf_counter() - start
    surviving: list[tuple[int, Run]] = [
        (i, run) for i, run in enumerate(runs) if run is not None
    ]
    metrics: list[RunMetrics] = [
        metrics_for(i, specs[i], run, wall[i], cached[i]) for i, run in surviving
    ]
    return EnsembleReport(
        specs=specs,
        runs=tuple(run for _, run in surviving),
        metrics=tuple(metrics),
        backend=resolved_backend.name,
        wall_time=total,
        cache_hits=sum(cached),
        context=context,
        failures=tuple(failures),
        recoveries=tuple(recoveries),
    )
