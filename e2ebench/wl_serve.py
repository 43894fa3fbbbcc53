"""Workloads ``serve-point`` and ``serve-mixed``: the query service as deployed.

The server runs the real deployment, ``python -m repro.harness serve
--cache DIR [--journal-dir DIR]``, in its own process; load comes from
this process over at most two connections.  Set-up (timed as
``setup_s``, ``SETUPS`` times, median reported) is: explore the X02
system with ``cache=None``, write it to a fresh RunCache directory, boot
the server, ``load`` it by digest and warm the lazy kernel index with
one query.

* ``serve-point``: one connection, closed loop, batches of point
  queries at seeded random points -- ``known_crashed`` for every
  process, one ``knows`` and one ``holds(<>crashed)``.  The kernel is a
  small part of a round trip here, so wire, dispatch and loop work show.
* ``serve-mixed``: journaling on (fsync).  A closed-loop reader sends
  C_G + E^2 batches; a writer thread ingests 4-run batches of a second
  exploration (crash ticks {2,4,6}), in seeded order, open loop at a
  fixed rate, each encoded when it is sent and timed from when it was
  due.  Every ingest swaps the session's epoch, so reads after a swap
  show its cost.  Calibration probes that overlap an ingest are dropped:
  the server does the ingest on the CPU the probes measure.

After timing, every answer is checked against an in-process
``SystemSession`` fed the same inputs (for ``serve-mixed``, matched by
the ``generation`` each envelope reports), and a seeded sample against
the naive reference kernel.  The traced run replays the recorded
request lines through ``decode_message`` -> ``SystemSession.run_query``
-> ``encode_message`` in this process, with spans around each layer.
"""

from __future__ import annotations

import gc
import random
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Any

from common import (
    ROOT,
    Result,
    Tracer,
    as_ms,
    HostSpeed,
    InFlight,
    child_env,
    layer_shares,
    median,
    percentile,
    pid_peak_rss_mb,
    remove_dir,
    sampled_seconds,
    scratch_dir,
    windowed_p99,
    x02_spec,
)

N = 5
TINY_N = 3
SETUPS = 4
SESSION = "bench"
#: serve-point batches per pass, and between calibration probes.
POINT_PASS = 200
POINT_PROBE_EVERY = 25
#: serve-mixed reader batches per pass, and between calibration probes.
MIXED_PASS = 20
MIXED_PROBE_EVERY = 4
RUNS_PER_INGEST = 4
#: Ingest batches per second: about a third of the measured ingest
#: capacity.  ``capacity.py`` sends the batches of a 15-second run
#: serially, alone against the booted serve-mixed server on one pinned
#: CPU of a 2-vCPU Xeon VM: 31.1-42.0 raw ingests/s over 18 runs, median
#: 33.3/s (see ATTRIBUTION.md).
INGEST_RATE = 10.5
#: Recorded read requests the traced run replays in-process.
REPLAY_READS = 400
CK_FULL_PATH_EVERY = 25
#: Requests per p99 window.
P99_WINDOW = 200


class ServerProcess:
    """``python -m repro.harness serve`` as a child process."""

    def __init__(self, cache_dir: Any, journal_dir: Any = None) -> None:
        cmd = [
            sys.executable,
            "-m",
            "repro.harness",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--cache",
            str(cache_dir),
        ]
        if journal_dir is not None:
            cmd += ["--journal-dir", str(journal_dir)]
        self.proc = subprocess.Popen(
            cmd,
            cwd=str(ROOT),
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.lines: list[str] = []
        self.port: int | None = None
        self._ready = threading.Event()
        self._pump = threading.Thread(target=self._read_output, daemon=True)
        self._pump.start()

    def _read_output(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.append(line.rstrip())
            if self.port is None and "listening on" in line:
                self.port = int(line.rsplit(":", 1)[1])
                self._ready.set()
        self._ready.set()  # EOF: unblock a waiter on a failed boot

    def wait_ready(self, timeout: float = 60.0) -> int:
        self._ready.wait(timeout)
        if self.port is None:
            self.stop()
            raise RuntimeError("server failed to boot:\n" + "\n".join(self.lines[-12:]))
        return self.port

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def stop(self, client: Any = None) -> None:
        """Graceful shutdown through ``client``; terminate without one."""
        if self.proc.poll() is None:
            if client is None:
                self.proc.terminate()
            else:
                try:
                    client.shutdown()
                except (OSError, RuntimeError):
                    self.proc.terminate()
        if client is not None:
            client.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._pump.join(timeout=10)


class Deployment:
    """One set-up: cache entry, server process, warmed session."""

    def __init__(self, spec: Any, journal: bool) -> None:
        self.digest = spec.digest()
        self.cache_dir = scratch_dir("serve-cache-")
        self.journal_dir = scratch_dir("serve-journal-") if journal else None
        #: Normalized set-up seconds.
        self.seconds = sampled_seconds(lambda: self._boot(spec))

    def _boot(self, spec: Any) -> None:
        from repro.explore import explore
        from repro.runtime.cache import RunCache
        from repro.serve.client import ServeClient

        report = explore(spec, cache=None)
        RunCache(self.cache_dir).put_exploration(self.digest, report.runs, report.stats)
        self.server = ServerProcess(self.cache_dir, self.journal_dir)
        try:
            self.port = self.server.wait_ready()
            self.client = ServeClient.connect("127.0.0.1", self.port, timeout=120.0)
            self.client.load(SESSION, self.digest)
            self.client.query(SESSION, [_known_crashed(spec.processes[0], 0, 0)])
        except BaseException:
            self.server.stop()
            self.remove()
            raise
        self.runs = report.runs

    def stop(self) -> None:
        self.server.stop(self.client)

    def remove(self) -> None:
        remove_dir(self.cache_dir)
        if self.journal_dir is not None:
            remove_dir(self.journal_dir)


def _known_crashed(process: str, run: int, time_: int) -> dict[str, Any]:
    return {"kind": "known_crashed", "process": process, "run": run, "time": time_}


def _mirror(deployment: Deployment) -> Any:
    """An in-process session over exactly what the server loaded."""
    from repro.model.system import System
    from repro.runtime.cache import RunCache
    from repro.serve.state import SystemSession

    runs, _stats = RunCache(deployment.cache_dir).get_exploration(deployment.digest)
    return SystemSession(SESSION, System(runs, complete=True))


# -- request generation ------------------------------------------------------------


class Requests:
    """Seeded query batches over one run set."""

    def __init__(self, seed: int, workload: str, runs: Any, processes: tuple) -> None:
        from repro.knowledge import Crashed, Diamond
        from repro.knowledge.wire import formula_to_jsonable

        self.rng = random.Random(f"e2ebench:{seed}:{workload}:reads")
        self.durations = [run.duration for run in runs]
        self.procs = list(processes)
        self.crashed = {q: formula_to_jsonable(Crashed(q)) for q in self.procs}
        self.eventually = {q: formula_to_jsonable(Diamond(Crashed(q))) for q in self.procs}

    def _point(self) -> tuple[int, int]:
        i = self.rng.randrange(len(self.durations))
        return i, self.rng.randint(0, self.durations[i])

    def point_batch(self) -> dict[str, Any]:
        rng, procs = self.rng, self.procs
        i, m = self._point()
        queries = [_known_crashed(p, i, m) for p in procs]
        queries.append(
            {"kind": "knows", "process": rng.choice(procs),
             "formula": self.crashed[rng.choice(procs)], "run": i, "time": m}
        )
        queries.append(
            {"kind": "holds", "formula": self.eventually[rng.choice(procs)], "run": i, "time": m}
        )
        return {"op": "query", "system": SESSION, "queries": queries}

    def mixed_batch(self) -> dict[str, Any]:
        """Two C_G queries over every process, two E^2 queries over a random pair."""
        rng, procs = self.rng, self.procs
        queries = []
        for _ in range(2):
            i, m = self._point()
            queries.append(
                {"kind": "ck", "group": procs, "formula": self.crashed[rng.choice(procs)],
                 "run": i, "time": m}
            )
            i, m = self._point()
            queries.append(
                {"kind": "e", "group": sorted(rng.sample(procs, 2)), "depth": 2,
                 "formula": self.crashed[rng.choice(procs)], "run": i, "time": m}
            )
        return {"op": "query", "system": SESSION, "queries": queries}


def ingest_count(seconds: float) -> int:
    """Ingest batches to prepare for a run of ``seconds``."""
    return int(INGEST_RATE * seconds) + 2


def _ingest_batches(seed: int, n: int, count: int) -> list[tuple]:
    """The writer's input: ``count`` 4-run batches of the {2,4,6} exploration.

    The runs are a fixed sample, the same for every seed, so every run
    adds the same runs and meets the same duplicates; the seed orders
    them.
    """
    from repro.explore import explore

    runs = list(explore(x02_spec(n, (2, 4, 6)), cache=None).runs)
    random.Random("e2ebench:serve-mixed:ingest-sample").shuffle(runs)
    runs = runs[: count * RUNS_PER_INGEST]
    random.Random(f"e2ebench:{seed}:serve-mixed:ingest").shuffle(runs)
    return [
        tuple(runs[k : k + RUNS_PER_INGEST]) for k in range(0, len(runs), RUNS_PER_INGEST)
    ]


# -- the timed loops ------------------------------------------------------------------


def _freeze_setup() -> None:
    """Move everything set-up built out of this process's garbage collector.

    The runs, batches and spec stay alive through the timed loops; left
    tracked, every full collection of the load generator would walk them
    inside a timed request.
    """
    gc.collect()
    gc.freeze()


def _read_loop(
    client: Any, make_batch: Any, per_pass: int, probe_every: int, seconds: float,
    speed: HostSpeed, stop: threading.Event,
) -> tuple[list[float], list[float], list[tuple[dict, dict, float, float]]]:
    """Closed loop: whole passes until ``seconds`` have elapsed.

    Returns per-pass normalized seconds (the sum of the pass's request
    latencies), every request's normalized latency, and the raw records
    (request, response, send time, raw latency).  Probes run between
    requests, every ``probe_every`` requests.
    """
    perf = time.perf_counter
    passes: list[float] = []
    normalized: list[float] = []
    records: list[tuple[dict, dict, float, float]] = []
    start = perf()
    while perf() - start < seconds:
        batch = [make_batch() for _ in range(per_pass)]
        first = len(records)
        for k, request in enumerate(batch):
            if k % probe_every == 0:
                speed.probe()
            t0 = perf()
            response = client.request_raw(request)
            records.append((request, response, t0, perf() - t0))
        speed.probe()
        factor = speed.factor()
        latencies = [record[3] * factor for record in records[first:]]
        normalized.extend(latencies)
        passes.append(sum(latencies))
    stop.set()
    return passes, normalized, records


def _write_loop(
    client: Any, batches: list[tuple], start: float, seconds: float,
    stop: threading.Event, busy: InFlight, log: list[tuple],
) -> None:
    """Open loop at INGEST_RATE; each ingest is timed from when it was due.

    A batch's arena is encoded when it is sent, as a client holding runs
    would; ``busy`` is flipped around each ingest.
    """
    from repro.serve.client import runs_to_arena_payload

    perf = time.perf_counter
    for k, batch in enumerate(batches):
        due = start + k / INGEST_RATE
        if due - start >= seconds or stop.is_set():
            return
        delay = due - perf()
        if delay > 0:
            time.sleep(delay)
        busy.flip()
        sent = perf()
        request = {"op": "ingest", "system": SESSION, "arena": runs_to_arena_payload(batch)}
        response = client.request_raw(request)
        done = perf()
        busy.flip()
        log.append((k, due, sent, done, request, response))


# -- checks ---------------------------------------------------------------------------


def _check_reads(
    session: Any, epoch: Any, records: list, result: Result, ck_sets: dict | None
) -> None:
    """Every answer in ``records`` against the mirror session at ``epoch``.

    With ``ck_sets`` (cleared by the caller at every epoch), C_G answers
    are checked by membership in the mirror's C_G point set for the
    (group, formula), computed once per epoch instead of one fixpoint
    per query; every ``CK_FULL_PATH_EVERY``-th one also takes the full
    ``run_query`` path.
    """
    from repro.knowledge.wire import formula_from_jsonable

    runs = epoch.system.runs
    failures: list[str] = []
    queries = 0
    ck_seen = 0
    for request, response, _sent, _lat in records:
        batch = request["queries"]
        queries += len(batch)
        results = response.get("results")
        if not response.get("ok") or not isinstance(results, list) or len(results) != len(batch):
            failures.extend(f"failed batch: {response.get('error')}" for _ in batch)
            continue
        for query, got in zip(batch, results):
            if ck_sets is not None and query["kind"] == "ck":
                key = (tuple(query["group"]), str(query["formula"]))
                points = ck_sets.get(key)
                if points is None:
                    formula = formula_from_jsonable(query["formula"])
                    points = ck_sets[key] = epoch.group.common_knowledge_points(
                        query["group"], formula
                    )
                i, m = query["run"], query["time"]
                want = {"ok": True, "kind": "ck",
                        "result": (i, min(m, runs[i].duration)) in points}
                ck_seen += 1
                if ck_seen % CK_FULL_PATH_EVERY == 0 and session.run_query(query, epoch) != want:
                    failures.append(f"gen {epoch.generation}: C_G point set and run_query "
                                    f"disagree on {query}")
            else:
                want = session.run_query(query, epoch)
            if got != want:
                failures.append(f"gen {epoch.generation}: {query} -> {got}, want {want}")
    result.tally(queries, failures)


def _check_point_reference(session: Any, records: list, seed: int, result: Result) -> None:
    """Seeded known_crashed / knows answers against the naive reference kernel."""
    from repro.knowledge.reference import naive_known_crashed_set, naive_knows_crashed
    from repro.model.run import Point

    rng = random.Random(f"e2ebench:{seed}:serve-reference")
    system = session.system
    for kind, samples in (("known_crashed", 4), ("knows", 4)):
        pool = [
            (query, got)
            for request, response, _s, _l in records
            for query, got in zip(request["queries"], response.get("results", []))
            if query["kind"] == kind
        ]
        for query, got in rng.sample(pool, min(samples, len(pool))):
            run = system.runs[query["run"]]
            point = Point(run, min(query["time"], run.duration))
            if kind == "known_crashed":
                want = sorted(naive_known_crashed_set(system, query["process"], point))
            else:
                target = query["formula"]["process"]
                want = naive_knows_crashed(system, query["process"], point, target)
            result.check(got.get("result") == want, f"reference disagrees on {query}")


def _check_e_reference(session: Any, records: list, seed: int, result: Result) -> None:
    """Seeded generation-0 E^2 answers against the formula-materializing ladder."""
    from repro.knowledge.reference import naive_max_e_depth
    from repro.knowledge.wire import formula_from_jsonable
    from repro.model.run import Point

    rng = random.Random(f"e2ebench:{seed}:serve-e-reference")
    epoch = session.epoch
    pool = [
        (query, got)
        for request, response, _s, _l in records
        if response.get("generation") == 0
        for query, got in zip(request["queries"], response.get("results", []))
        if query["kind"] == "e"
    ]
    for query, got in rng.sample(pool, min(4, len(pool))):
        run = epoch.system.runs[query["run"]]
        point = Point(run, min(query["time"], run.duration))
        depth = naive_max_e_depth(
            epoch.checker, query["group"], formula_from_jsonable(query["formula"]),
            point, cap=query["depth"],
        )
        result.check(got.get("result") == (depth == query["depth"]),
                     f"E^2 reference disagrees on {query}")


# -- the traced replay ---------------------------------------------------------------


def _trace_kernel_calls(tracer: Tracer, kinds: set[str]) -> None:
    """Spans around the kernel entry points the replayed query kinds reach.

    ``ModelChecker.holds`` is only wrapped when ``holds``/``knows``
    queries are replayed: C_G evaluates its base formula through it at
    every point, and a span per point would swamp the fixpoint.
    """
    from repro.knowledge import wire
    from repro.knowledge.group import GroupChecker
    from repro.knowledge.semantics import ModelChecker
    from repro.model.system import System

    tracer.patch_function(wire, "formula_from_jsonable", "knowledge.wire.formula_decode")
    tracer.patch_method(System, "known_crashed_set", "kernel.known_crashed_set")
    tracer.patch_method(System, "extend", "kernel.System.extend")
    if kinds & {"holds", "knows"}:
        tracer.patch_method(ModelChecker, "holds", "knowledge.ModelChecker.holds")
    tracer.patch_method(GroupChecker, "max_e_depth", "knowledge.GroupChecker.max_e_depth")
    tracer.patch_method(
        GroupChecker, "common_knowledge", "knowledge.GroupChecker.common_knowledge"
    )


def _replay(
    deployment: Deployment, events: list[tuple], tracer: Tracer | None
) -> list[float]:
    """Serve the recorded requests in-process; per-event seconds.

    ``events`` are (kind, request, runs) in wire order; ingest events
    carry their runs, so the client-side arena encode is replayed too.
    Each event also replays the client's own codec work, encoding the
    request line and decoding the response line, as
    ``ServeClient.request_raw`` does.
    """
    from repro.runtime.cache import RunCache
    from repro.serve.client import runs_to_arena_payload
    from repro.serve.journal import ServeJournal
    from repro.serve.protocol import decode_message, encode_message
    from repro.serve.state import ServeState

    journal_dir = scratch_dir("replay-journal-")
    try:
        state = ServeState(
            RunCache(deployment.cache_dir),
            journal=ServeJournal(journal_dir) if deployment.journal_dir else None,
        )
        session = state.load_digest(SESSION, deployment.digest)
        session.run_query(_known_crashed(session.system.processes[0], 0, 0))
        if tracer is not None:
            kinds = {q["kind"] for kind, request, _runs in events if kind == "query"
                     for q in request["queries"]}
            _trace_kernel_calls(tracer, kinds)
        perf = time.perf_counter
        span = tracer.begin if tracer else (lambda name: None)
        close = tracer.end if tracer else (lambda: 0.0)
        seconds = []
        for index, (kind, request, runs) in enumerate(events):
            if tracer:
                tracer.request = index
            t0 = perf()
            if kind == "ingest":
                span("client.arena_encode")
                request = dict(request, arena=runs_to_arena_payload(runs))
                close()
            span("client.encode")
            line = encode_message(request)
            close()
            if kind == "ingest":
                span("serve.request.ingest")
                span("serve.protocol.decode")
                decoded = decode_message(line)
                close()
                span("serve.state.prepare_ingest")
                prepared = state.prepare_ingest(decoded["system"], decoded["arena"])
                close()
                span("serve.journal.append")
                state.journal_append(prepared.record)
                close()
                span("serve.state.commit_ingest")
                response = {**prepared.session.envelope(), **state.commit_ingest(prepared)}
                close()
            else:
                span("serve.request.query")
                span("serve.protocol.decode")
                decoded = decode_message(line)
                close()
                epoch = session.epoch
                results = []
                for query in decoded["queries"]:
                    span(f"serve.state.run_query.{query['kind']}")
                    results.append(session.run_query(query, epoch))
                    close()
                response = {**session.envelope(epoch), "results": results}
            span("serve.protocol.encode")
            reply = encode_message(response)
            close()
            close()
            span("client.decode")
            decode_message(reply)
            close()
            seconds.append(perf() - t0)
        return seconds
    finally:
        if tracer is not None:
            tracer.unpatch()
        remove_dir(journal_dir)


def _mean_us(tracer: Tracer, name: str) -> float:
    count = tracer.count(name)
    return 1e6 * tracer.total(name) / count if count else 0.0


def _mean_ms(tracer: Tracer, name: str) -> float:
    return _mean_us(tracer, name) / 1e3


def _traced_layers(
    deployment: Deployment, reads: list, ingests: list, result: Result,
) -> None:
    """Replay the first recorded requests untraced, then traced."""
    timeline = [
        (sent, "query", request, None, latency)
        for request, _r, sent, latency in reads[:REPLAY_READS]
    ]
    if ingests:
        horizon = timeline[-1][0]
        timeline += [
            (sent, "ingest", {"op": "ingest", "system": SESSION}, batch, done - sent)
            for (_k, _due, sent, done, _req, _resp), batch in ingests
            if sent <= horizon
        ]
    timeline.sort(key=lambda event: event[0])
    events = [(kind, request, runs) for _sent, kind, request, runs, _lat in timeline]
    wire = [latency for *_rest, latency in timeline]

    untraced = _replay(deployment, events, None)
    tracer = Tracer()
    traced = _replay(deployment, events, tracer)

    query_idx = [i for i, (kind, _r, _x) in enumerate(events) if kind == "query"]
    wire_p50 = median([wire[i] for i in query_idx])
    local_p50 = median([untraced[i] for i in query_idx])
    layers = result.layers
    layers["serve.protocol.decode_us"] = _mean_us(tracer, "serve.protocol.decode")
    layers["serve.protocol.encode_us"] = _mean_us(tracer, "serve.protocol.encode")
    layers["knowledge.wire.formula_decode_us"] = _mean_us(tracer, "knowledge.wire.formula_decode")
    for kind in ("known_crashed", "knows", "holds", "e", "ck"):
        layers[f"serve.state.run_query_us.{kind}"] = _mean_us(
            tracer, f"serve.state.run_query.{kind}"
        )
    layers["kernel.known_crashed_set_us"] = _mean_us(tracer, "kernel.known_crashed_set")
    layers["kernel.ModelChecker.holds_us"] = _mean_us(tracer, "knowledge.ModelChecker.holds")
    layers["kernel.GroupChecker.max_e_depth_us"] = _mean_us(
        tracer, "knowledge.GroupChecker.max_e_depth"
    )
    layers["kernel.GroupChecker.common_knowledge_us"] = _mean_us(
        tracer, "knowledge.GroupChecker.common_knowledge"
    )
    layers["serve.client.codec_us"] = (
        _mean_us(tracer, "client.encode") + _mean_us(tracer, "client.decode")
    )
    layers["serve.transport_us"] = 1e6 * (wire_p50 - local_p50)
    if ingests:
        layers["serve.client.arena_encode_ms"] = _mean_ms(tracer, "client.arena_encode")
        layers["serve.state.prepare_ingest_ms"] = _mean_ms(tracer, "serve.state.prepare_ingest")
        layers["model.system.extend_ms"] = _mean_ms(tracer, "kernel.System.extend")
        layers["serve.journal.append_ms"] = _mean_ms(tracer, "serve.journal.append")

    # Self time per layer: in-process spans scaled to the untraced
    # replay, plus the wire's remainder as transport (the socket, the
    # server's event loop, and the switches between client and server
    # on the one CPU both run on).
    self_seconds = tracer.self_by_layer()
    scale = sum(untraced) / (sum(traced) or 1.0)
    shares = {layer: own * scale for layer, own in self_seconds.items()}
    shares["transport"] = max(0.0, sum(wire) - sum(untraced))
    for layer, share in layer_shares(shares).items():
        layers[f"layer.{layer}.self_pct"] = share
    layers["bench.trace_overhead_pct"] = 100.0 * (sum(traced) - sum(untraced)) / sum(untraced)
    result.tracer = tracer


# -- the workloads ----------------------------------------------------------------------


def _deploy(spec: Any, journal: bool) -> tuple[Deployment, list[float]]:
    """SETUPS timed set-ups; the last one stays up for the workload.

    The bench-side modules are imported first, so the first set-up
    times the same work as the others.
    """
    import repro.explore  # noqa: F401
    import repro.runtime.cache  # noqa: F401
    import repro.serve.client  # noqa: F401

    setups: list[float] = []
    deployment: Deployment | None = None
    for _ in range(SETUPS):
        if deployment is not None:
            deployment.stop()
            deployment.remove()
        deployment = Deployment(spec, journal)
        setups.append(deployment.seconds)
    assert deployment is not None
    return deployment, setups


def run_point(seed: int, seconds: float, trace: bool, tiny: bool) -> Result:
    n = TINY_N if tiny else N
    result = Result()
    spec = x02_spec(n, (1, 3, 5))
    speed = HostSpeed()
    deployment, setups = _deploy(spec, False)
    try:
        gen = Requests(seed, "serve-point", deployment.runs, spec.processes)
        per_pass = 20 if tiny else POINT_PASS
        _freeze_setup()
        passes, latencies, reads = _read_loop(
            deployment.client, gen.point_batch, per_pass, POINT_PROBE_EVERY, seconds,
            speed, threading.Event(),
        )
        rss = deployment.server.peak_rss_mb()
        mirror = _mirror(deployment)
        _check_reads(mirror, mirror.epoch, reads, result, None)
        bad_envelopes = [
            f"envelope {response.get('generation')}/{response.get('complete')}"
            for _q, response, _s, _l in reads
            if response.get("generation") != 0 or response.get("complete") is not True
        ]
        result.tally(0, bad_envelopes)
        _check_point_reference(mirror, reads, seed, result)
        latencies = as_ms(latencies)
        raw = as_ms(latency for *_rest, latency in reads)
        result.e2e = {
            "setup_s": median(setups),
            "wall_s": median(passes),
            "op_p50_ms": percentile(latencies, 0.50),
            "op_p99_ms": windowed_p99(latencies, P99_WINDOW),
            "peak_rss_mb": rss,
        }
        queries = sum(len(q["queries"]) for q, *_rest in reads)
        result.notes.append(
            f"n={n}: {len(passes)} passes of {per_pass} batches; op = one request "
            f"of {n + 2} queries ({len(reads)} samples, {queries} queries, "
            f"{queries / sum(passes):.0f} normalized queries/s); raw p50 "
            f"{percentile(raw, 0.5):.4f} ms, p99 {percentile(raw, 0.99):.4f} ms"
        )
        result.notes.append(speed.summary())
        if trace:
            result.layers["serve.epoch.warm_read_ms"] = median(raw)
            _traced_layers(deployment, reads, [], result)
    finally:
        deployment.stop()
        deployment.remove()
    return result


def run_mixed(seed: int, seconds: float, trace: bool, tiny: bool) -> Result:
    n = TINY_N if tiny else N
    result = Result()
    spec = x02_spec(n, (1, 3, 5))
    batches = _ingest_batches(seed, n, ingest_count(seconds))
    busy = InFlight()
    speed = HostSpeed(busy)
    deployment, setups = _deploy(spec, True)
    from repro.serve.client import ServeClient

    writer = ServeClient.connect("127.0.0.1", deployment.port, timeout=120.0)
    try:
        gen = Requests(seed, "serve-mixed", deployment.runs, spec.processes)
        stop = threading.Event()
        log: list[tuple] = []
        _freeze_setup()
        start = time.perf_counter()
        thread = threading.Thread(
            target=_write_loop,
            args=(writer, batches, start, seconds, stop, busy, log),
        )
        thread.start()
        try:
            passes, latencies, reads = _read_loop(
                deployment.client, gen.mixed_batch, 5 if tiny else MIXED_PASS,
                MIXED_PROBE_EVERY, seconds, speed, stop,
            )
        finally:
            stop.set()
            thread.join()
        rss = deployment.server.peak_rss_mb()
        writer.close()
        _check_mixed(deployment, reads, log, seed, result)

        latencies = as_ms(latencies)
        raw = as_ms(latency for *_rest, latency in reads)
        cold, warm = [], []
        previous = 0
        for (_q, response, _s, latency) in reads:
            generation = response.get("generation")
            (cold if generation != previous else warm).append(latency * 1e3)
            previous = generation
        ingest_ms = [(done - due) * 1e3 for _k, due, _s, done, _q, _r in log]
        late_ms = [(sent - due) * 1e3 for _k, due, sent, _d, _q, _r in log]
        result.e2e = {
            "setup_s": median(setups),
            "wall_s": median(passes),
            "op_p50_ms": percentile(latencies, 0.50),
            "op_p99_ms": windowed_p99(latencies, P99_WINDOW),
            "peak_rss_mb": rss,
        }
        result.notes.append(
            f"n={n}: {len(passes)} reader passes; op = one C_G+E^2 request of 4 "
            f"queries ({len(reads)} samples); {len(log)} ingests at {INGEST_RATE}/s: "
            f"p50 {percentile(ingest_ms, 0.5):.1f} ms, p99 {percentile(ingest_ms, 0.99):.1f} ms "
            f"from due, generator late p99 {percentile(late_ms, 0.99):.2f} ms; raw read "
            f"p50 {percentile(raw, 0.5):.3f} ms, p99 {percentile(raw, 0.99):.3f} ms"
        )
        result.notes.append(speed.summary())
        if trace:
            layers = result.layers
            layers["bench.ingest_p50_ms"] = percentile(ingest_ms, 0.50)
            layers["bench.ingest_p99_ms"] = percentile(ingest_ms, 0.99)
            layers["bench.ingest_late_ms"] = percentile(late_ms, 0.99)
            layers["serve.ingest.added"] = sum(r.get("added", 0) for *_x, r in log)
            layers["serve.ingest.duplicates"] = sum(r.get("duplicates", 0) for *_x, r in log)
            layers["serve.epoch.cold_read_ms"] = median(cold) if cold else 0.0
            layers["serve.epoch.warm_read_ms"] = median(warm)
            ingests = [(entry, batches[entry[0]]) for entry in log]
            _traced_layers(deployment, reads, ingests, result)
    finally:
        writer.close()
        deployment.stop()
        deployment.remove()
    return result


def _check_mixed(
    deployment: Deployment, reads: list, log: list, seed: int, result: Result
) -> None:
    """Replay the ingests into a mirror in order; check reads by generation."""
    mirror = _mirror(deployment)
    by_generation: dict[Any, list] = defaultdict(list)
    for record in reads:
        by_generation[record[1].get("generation")].append(record)
    _check_e_reference(mirror, reads, seed, result)
    ck_sets: dict = {}
    _check_reads(mirror, mirror.epoch, by_generation.pop(0, []), result, ck_sets)
    fields = ("added", "duplicates", "runs", "generation")
    for k, _due, _sent, _done, request, response in log:
        before = mirror.generation
        want = mirror.ingest(request["arena"])
        result.check(
            response.get("ok") is True and all(response.get(f) == want[f] for f in fields),
            f"ingest {k}: got {response}, want {want}",
        )
        if mirror.generation != before:
            ck_sets.clear()
            _check_reads(
                mirror, mirror.epoch, by_generation.pop(mirror.generation, []), result, ck_sets
            )
    for generation, records in by_generation.items():
        result.tally(
            sum(len(q["queries"]) for q, *_rest in records),
            [f"answer at unknown generation {generation!r}"] * sum(
                len(q["queries"]) for q, *_rest in records
            ),
        )
