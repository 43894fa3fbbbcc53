"""Self-test of the benchmark at tiny size (n=3, a few operations).

Run from the root of a checkout::

    python3 e2ebench/selftest.py

Runs every workload once untraced and once traced with ``--tiny`` and
asserts that the last line is the result object, that every metric
``BENCHMARK.json`` declares is printed with its unit, that no operation
failed, and that the layers each workload exercises report non-zero
numbers.  Last, it checks that a directory holding only the benchmark
(no ``src/``) exits non-zero without printing a result.  Exits 1 on the
first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-layer metrics each workload must report as non-zero.
EXERCISED = {
    "reproduce": ["harness.E01_s", "harness.E09_s", "runtime.cache.misses",
                  "layer.sim.self_pct", "layer.harness.self_pct"],
    "explore-complete": ["explore.explore_s", "explore.states_expanded",
                         "runtime.cache.put_s", "runtime.cache.get_s",
                         "runtime.cache.entry_bytes", "columnar.index_build_s",
                         "knowledge.sweep_s", "knowledge.sweep_calls"],
    "serve-point": ["serve.protocol.decode_us", "serve.protocol.encode_us",
                    "serve.state.run_query_us.known_crashed", "kernel.known_crashed_set_us",
                    "kernel.ModelChecker.holds_us", "serve.client.codec_us",
                    "serve.transport_us", "layer.client.self_pct",
                    "layer.transport.self_pct"],
    "serve-mixed": ["serve.state.run_query_us.ck", "serve.state.run_query_us.e",
                    "kernel.GroupChecker.common_knowledge_us",
                    "kernel.GroupChecker.max_e_depth_us", "model.system.extend_ms",
                    "serve.journal.append_ms", "serve.client.arena_encode_ms",
                    "serve.ingest.added", "bench.ingest_p50_ms",
                    "serve.epoch.cold_read_ms", "serve.epoch.warm_read_ms"],
}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=str(cwd), capture_output=True, text=True, timeout=600,
    )


def _check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    _check(sorted(workloads) == sorted(EXERCISED), f"workloads {workloads}")
    for workload in workloads:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = _run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            _check(proc.returncode == 0, f"{where} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            _check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{where} result keys {sorted(result)}")
            _check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{where}: {result['failed']} of {result['attempted']} operations failed\n"
                   f"{proc.stdout[-3000:]}")
            metrics = result["metrics"]
            _check(sorted(metrics) == sorted(m["name"] for m in declared),
                   f"{where} metric names differ from BENCHMARK.json")
            for metric in declared:
                got = metrics[metric["name"]]
                _check(got["unit"] == metric["unit"], f"{where} {metric['name']} unit {got['unit']}")
                _check(isinstance(got["value"], float), f"{where} {metric['name']} value")
                _check(f"\n{metric['name']} " in "\n" + proc.stdout,
                       f"{where} does not print {metric['name']}")
                if trace == 0:
                    _check(got["value"] > 0, f"{where} {metric['name']} is not positive")
            if trace == 1:
                for name in EXERCISED[workload]:
                    _check(metrics[name]["value"] > 0, f"{where} {name} is zero")
            print(f"ok {where}: {result['attempted']} operations checked")

    bare = ROOT / ".e2ebench_out" / "tmp" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(bare, workloads[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    _check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "a checkout without sources must fail without a result")
    print("ok benchmark alone: exits non-zero without a result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
