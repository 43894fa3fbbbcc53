"""Shared plumbing of the end-to-end benchmark.

Source bootstrap, seeded workload specs, percentile helpers, peak-RSS
probes, scratch directories inside the checkout, and the span tracer
the ``--trace 1`` runs use to attribute time to the repo's layers.

The benchmark never edits ``src/``: spans are recorded around calls
into each layer's public functions by swapping those functions (or
methods) for timing wrappers in this process only, and restoring them
afterwards.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import sys
import tempfile
import threading
import time
from bisect import bisect_left
from pathlib import Path
from statistics import median
from typing import Any, Callable, Iterable, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch root for caches, journals and trace files (git-ignored).
OUT = ROOT / ".e2ebench_out"
#: Spans kept for the trace file; totals keep counting past it.
MAX_SPANS = 200_000


def bootstrap() -> None:
    """Put ``src/`` on the import path; exit 2 when the checkout has no source."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_to_one_cpu() -> int:
    """Run this process, and every child it starts, on one CPU.

    Each CPU of the shared host speeds up and slows down on its own, so
    calibration probes only track the workload when both run on the
    same CPU; children inherit the affinity.  Returns the CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict[str, str]:
    """Environment for child interpreters: same sources, no bytecode writes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def scratch_dir(prefix: str) -> Path:
    """A fresh directory under the checkout's scratch root."""
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=OUT / "tmp"))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# -- statistics ----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def windowed_p99(values: Sequence[float], window: int) -> float:
    """Median over consecutive ``window``-sample windows of each one's p99.

    The typical tail of a short stretch of operations: a host stall
    inflates the p99 of the window it lands in, not the run's figure.
    """
    windows = [values[i : i + window] for i in range(0, len(values), window)]
    if len(windows) > 1 and len(windows[-1]) < window:
        windows.pop()  # a short tail window has a coarser p99
    return median([percentile(w, 0.99) for w in windows])


def self_peak_rss_mb() -> float:
    """This process's resident-set high-water mark, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Another process's resident-set high-water mark (``VmHWM``), MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- the workloads' shared inputs ---------------------------------------------------


def x02_spec(n: int, crash_ticks: tuple[int, ...]) -> Any:
    """The X02 family at horizon 8: NUDC, fair-lossy channels (drop
    budget 1), t=1, p1 initiating one action at tick 1."""
    from repro.core.protocols import NUDCProcess
    from repro.explore import ExploreSpec
    from repro.model.context import make_process_ids
    from repro.sim.process import uniform_protocol
    from repro.workloads.generators import single_action

    return ExploreSpec(
        processes=make_process_ids(n),
        protocol=uniform_protocol(NUDCProcess),
        horizon=8,
        max_failures=1,
        crash_ticks=crash_ticks,
        workload=single_action("p1", tick=1),
        lossy=True,
        max_consecutive_drops=1,
    )


def child_setup_seconds(code: str, repeats: int) -> list[float]:
    """Normalized wall time of ``repeats`` fresh interpreters running ``code``."""
    import subprocess

    def start_child() -> None:
        subprocess.run(
            [sys.executable, "-c", code],
            env=child_env(),
            cwd=str(ROOT),
            check=True,
            stdout=subprocess.DEVNULL,
        )

    return [sampled_seconds(start_child) for _ in range(repeats)]


# -- tracing -------------------------------------------------------------------------


class Tracer:
    """In-memory spans with online self-time accounting.

    A span is (id, name, start, end, parent id, request id); ids number
    spans in start order.  A span's layer is the first dotted component
    of its name; its self time is its duration minus the time its child
    spans cover.  Spans are kept for the Chrome trace file; per-name
    totals are kept for metrics.
    """

    def __init__(self) -> None:
        #: (id, name, start, end, parent id, request id), in end order
        self.spans: list[tuple[int, str, float, float, int, Any]] = []
        self.totals: dict[str, list[float]] = {}  # name -> [count, total, self]
        self.request: Any = None
        self._stack: list[list[Any]] = []  # [name, start, child, id, parent]
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id, parent])
        self._next_id += 1

    def end(self) -> float:
        end = time.perf_counter()
        name, start, child, span_id, parent = self._stack.pop()
        duration = end - start
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end, parent, self.request))
        if self._stack:
            self._stack[-1][2] += duration
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        return duration

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        begin, end = self.begin, self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced

    # -- patching layer entry points ----------------------------------------------

    def patch_method(self, cls: type, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name))

    def patch_function(self, module: Any, attr: str, name: str) -> None:
        """Wrap ``module.attr`` and every ``repro`` module binding of it."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reports ---------------------------------------------------------------------

    def total(self, name: str) -> float:
        entry = self.totals.get(name)
        return entry[1] if entry else 0.0

    def count(self, name: str) -> int:
        entry = self.totals.get(name)
        return int(entry[0]) if entry else 0

    def self_by_layer(self) -> dict[str, float]:
        layers: dict[str, float] = {}
        for name, (_count, _total, own) in self.totals.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + own
        return layers

    def write_chrome_trace(self, path: Path) -> None:
        """The spans as Chrome trace-event JSON (``chrome://tracing``)."""
        origin = min((span[2] for span in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "request": request},
            }
            for span_id, name, start, end, parent, request in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


#: The layers self time is attributed to (first component of span names).
LAYERS = (
    "harness",
    "runtime",
    "sim",
    "explore",
    "kernel",
    "knowledge",
    "serve",
    "client",
    "transport",
)


def layer_shares(self_seconds: dict[str, float]) -> dict[str, float]:
    """Self time per layer as a percentage of all attributed time."""
    total = sum(self_seconds.values()) or 1.0
    return {layer: 100.0 * self_seconds.get(layer, 0.0) / total for layer in LAYERS}


def as_ms(seconds: Iterable[float]) -> list[float]:
    return [s * 1e3 for s in seconds]


class Result:
    """What one workload run measured and checked.

    ``e2e`` and ``layers`` map metric names to values; ``notes`` are
    human-readable lines printed before the JSON result line.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.notes: list[str] = []
        #: The traced run's spans (``--trace 1``), written out by run.py.
        self.tracer: Tracer | None = None

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a failed check is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._problem(what)
        return ok

    def tally(self, attempted: int, failures: list[str]) -> None:
        """Count ``attempted`` checked operations, ``failures`` among them."""
        self.attempted += attempted
        self.failed += len(failures)
        for what in failures:
            self._problem(what)

    def _problem(self, what: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(what)


#: Median seconds of one calibration probe on an idle 2-vCPU x86 host
#: (Python 3.11); normalized times are what they would be at that speed.
PROBE_NOMINAL_S = 0.00065


def calibration_probe() -> float:
    """Seconds for a fixed pure-Python loop of dict, tuple and set work.

    The loop uses no repo code and stays in cache, so it measures the
    speed of the CPU it runs on at that moment.
    """
    start = time.perf_counter()
    table: dict[int, tuple[int, ...]] = {}
    seen: set[tuple[int, ...]] = set()
    for i in range(3000):
        key = (i * 7919) % 1031
        row = table.get(key, ())
        row = row + (i,) if len(row) < 4 else (i,)
        table[key] = row
        seen.add(row)
    return time.perf_counter() - start


#: Median seconds of one ``quiet_probe`` on the same host.
QUIET_NOMINAL_S = 0.0006

#: ``quiet_probe``'s lookup table, built once.
_QUIET_MAP = {i: (i * 7919 + 13) % 1031 for i in range(1031)}


def quiet_probe() -> float:
    """Like :func:`calibration_probe`, but allocating no object the
    garbage collector tracks (dict lookups and integer work only).

    A probe taken at a time-dependent moment inside repo code must not
    move the workload's collections, whose pauses it measures.
    """
    table = _QUIET_MAP
    start = time.perf_counter()
    key = 1
    total = 0
    for i in range(5000):
        key = table[(key + i) % 1031]
        total += key
    return time.perf_counter() - start


class InFlight:
    """Edges of another thread's operations: odd while one is in flight.

    The thread calls ``flip`` when an operation starts and again when it
    ends; a reader that sees the same even count before and after an
    interval knows no operation overlapped it.
    """

    def __init__(self) -> None:
        self.edges = 0

    def flip(self) -> None:
        self.edges += 1


#: Most probes ``HostSpeed.factor`` takes to find one clear of ``busy``.
MAX_CLEAR_ATTEMPTS = 1000


class HostSpeed:
    """Calibration probes interleaved with a workload's own operations.

    Each CPU of the shared host these runs use speeds up and slows
    down by up to 2x within seconds.  Each workload probes between its
    operations, on the same CPU, and scales the times of a window of
    operations by
    ``PROBE_NOMINAL_S / median(probes in that window)``, so a time is
    reported as it would read on the nominal host; raw times go to the
    notes.  Probe time itself is never inside a timed operation.

    With ``busy``, a probe that overlaps one of its operations (work the
    program under test does on this CPU, such as a server-side ingest)
    is dropped, so that work slows the workload's times without also
    slowing the probes that normalize them.
    """

    def __init__(self, busy: InFlight | None = None) -> None:
        self.busy = busy
        self.window: list[float] = []
        self.factors: list[float] = []
        self.dropped = 0

    def _clear_probe(self) -> bool:
        """One probe, kept only if no ``busy`` operation overlapped it."""
        edges = self.busy.edges if self.busy is not None else 0
        seconds = calibration_probe()
        if self.busy is not None and (edges % 2 or self.busy.edges != edges):
            self.dropped += 1
            return False
        self.window.append(seconds)
        return True

    def probe(self, count: int = 1) -> None:
        """Take ``count`` probes after one discarded warm-up probe: the
        first probe after other work runs on caches that work evicted."""
        calibration_probe()
        for _ in range(count):
            self._clear_probe()

    def factor(self) -> float:
        """Scale for the window just probed; starts a new window."""
        attempts = 0
        while not self.window:
            if self.factors:
                return self.factors[-1]
            attempts += 1
            if attempts > MAX_CLEAR_ATTEMPTS:
                raise RuntimeError("no calibration probe clear of in-flight operations")
            self._clear_probe()
        factor = PROBE_NOMINAL_S / median(self.window)
        self.window = []
        self.factors.append(factor)
        return factor

    def summary(self) -> str:
        dropped = f", {self.dropped} probes dropped as overlapping" if self.busy else ""
        return (
            f"host speed factor median {median(self.factors):.3f} "
            f"(min {min(self.factors):.3f}, max {max(self.factors):.3f}, "
            f"{len(self.factors)} windows{dropped})"
        )


#: Longest a probe pair can take; ``SpeedSampler.inside`` looks back this far.
PAIR_REACH = 0.1


class SpeedSampler:
    """Quiet probes from a background thread, every ``period`` seconds.

    Repo calls that run for seconds cannot be probed around finely, so a
    thread on the same CPU takes a ``quiet_probe`` pair (a warm-up, then
    the measured one) every ``period``.  The interpreter lock pauses the
    workload meanwhile; ``inside`` reports how long the pairs overlapped
    an interval, for the caller to subtract, and the measured durations
    that started in it.
    """

    def __init__(self, period: float) -> None:
        self.period = period
        # Parallel float lists, not tuples: appending allocates nothing
        # the garbage collector tracks.
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._measured: list[float] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            start = time.perf_counter()
            quiet_probe()
            measured = quiet_probe()
            with self._lock:
                self._starts.append(start)
                self._ends.append(time.perf_counter())
                self._measured.append(measured)

    def inside(self, start: float, end: float) -> tuple[float, list[float]]:
        with self._lock:
            count = len(self._starts)
        first = bisect_left(self._starts, start - PAIR_REACH, 0, count)
        overlap = 0.0
        measured: list[float] = []
        for k in range(first, count):
            p_start = self._starts[k]
            if p_start >= end:
                break
            overlap += max(0.0, min(self._ends[k], end) - max(p_start, start))
            if p_start >= start:
                measured.append(self._measured[k])
        return overlap, measured


#: Seconds between the background sampler's probe pairs.
SAMPLE_PERIOD = 0.025


def sampled_seconds(fn: Callable[[], Any]) -> float:
    """Normalized seconds of ``fn()``, with a ``SpeedSampler`` probing throughout.

    Set-up steps run for a second or so, long enough for the host's
    speed to change within them, so probes taken only before and after
    would misjudge it.  The sampler's pauses are subtracted and the time
    is scaled by the probes taken during the call.
    """
    with SpeedSampler(SAMPLE_PERIOD) as sampler:
        start = time.perf_counter()
        fn()
        end = time.perf_counter()
    paused, measured = sampler.inside(start, end)
    if not measured:
        measured = [quiet_probe() for _ in range(3)]
    return (end - start - paused) * QUIET_NOMINAL_S / median(measured)
