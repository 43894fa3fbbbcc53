"""End-to-end benchmark of the paper reproduction, with per-layer attribution.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Workloads: ``reproduce``, ``explore-complete``, ``serve-point`` and
``serve-mixed`` (see ``BENCHMARK.json`` and each ``wl_*.py``).  With
``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it reports the per-layer metrics, the tracing
overhead, and writes the spans as Chrome trace-event JSON under
``.e2ebench_out/``.  ``--tiny`` shrinks every workload (n=3, a few
operations) for the self-test.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (every metric ``BENCHMARK.json`` declares for the mode,
each with its unit).  Exit status is 0 whenever a result is printed;
a checkout without ``src/repro`` exits 2 without one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def _workloads() -> dict:
    import wl_explore
    import wl_reproduce
    import wl_serve

    return {
        "reproduce": wl_reproduce.run,
        "explore-complete": wl_explore.run,
        "serve-point": wl_serve.run_point,
        "serve-mixed": wl_serve.run_mixed,
    }


def _declared(trace: bool) -> list[dict]:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    common.bootstrap()
    declared = _declared(bool(args.trace))
    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads)}")

    cpu = common.pin_to_one_cpu()
    result = workloads[args.workload](args.seed, args.seconds, bool(args.trace), args.tiny)
    result.notes.append(f"pinned to CPU {cpu} with every child process")
    measured = result.layers if args.trace else result.e2e
    names = [metric["name"] for metric in declared]
    extra = sorted(set(measured) - set(names))
    if extra:
        raise RuntimeError(f"workload reported undeclared metrics: {extra}")
    if not args.trace:
        missing = [name for name in names if name not in measured]
        if missing:
            raise RuntimeError(f"workload did not measure: {missing}")

    for line in result.notes:
        print(f"# {line}")
    for problem in result.problems:
        print(f"# FAILED: {problem}")
    idle = [name for name in names if name not in measured]
    if idle:
        # Layers this workload does not touch report 0.
        print(f"# not exercised by {args.workload}: {' '.join(idle)}")
    metrics = {}
    for metric in declared:
        value = float(measured.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} {value:.6g} {metric['unit']}")
    if result.tracer is not None:
        path = common.OUT / f"trace-{args.workload}-{args.seed}.json"
        result.tracer.write_chrome_trace(path)
        print(f"# {len(result.tracer.spans)} spans written to {path.relative_to(common.ROOT)}")
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
