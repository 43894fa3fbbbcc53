"""Differential tests for the per-point fast paths of the model layer.

Each fast path is compared against the straightforward loop it replaced,
kept here as the reference:

* ``Run.history(p, t)`` (one bisect over the timeline) against
  a count-and-rebuild loop over the timeline;
* the model checker's incremental occurrence primitives (``Did``,
  ``Inited``, ``Sent``, ``Received``) against the ``History`` scans at
  every point of an E11-style ensemble, in shuffled query orders;
* ``Run.faulty()`` and ``r5_violations`` against history-based loops,
  including a hand-built run that violates R5;
* ``System.run_index`` on equal-but-distinct runs, with a spy showing
  the value lookup (``Run.__eq__``) is paid at most once per run.
"""

from __future__ import annotations

import pickle
import random
import warnings

import pytest

from repro.core.properties import actions_in
from repro.core.protocols import StrongFDUDCProcess
from repro.detectors.standard import PerfectOracle
from repro.knowledge.formulas import Did, Inited, Received, Sent
from repro.knowledge.semantics import ModelChecker
from repro.model.context import make_process_ids
from repro.model.events import (
    CrashEvent,
    DoEvent,
    InitEvent,
    Message,
    ReceiveEvent,
    SendEvent,
)
from repro.model.history import History
from repro.model.run import Point, Run, r5_violations
from repro.model.synthetic import synthetic_system
from repro.model.system import IncompleteSystemWarning, System
from repro.runtime import EnsembleSpec, SerialBackend, run_ensemble
from repro.sim.process import uniform_protocol
from repro.workloads.generators import post_crash_workload

PROCS = ("p1", "p2", "p3")
MSG = Message("m")
OTHER = Message("other")


@pytest.fixture(scope="module")
def ensemble() -> System:
    """A small E11-style ensemble: UDC over a perfect detector, n=3."""
    procs = make_process_ids(3)
    spec = EnsembleSpec.a5t(
        procs,
        uniform_protocol(StrongFDUDCProcess),
        t=2,
        workload=lambda plan: post_crash_workload(procs, plan, actions_per_survivor=1),
        detector=PerfectOracle(),
        seeds=(0,),
    )
    return run_ensemble(spec, backend=SerialBackend(), cache=None).system()


def hand_built_runs() -> list[Run]:
    a = ("p1", "a")
    return [
        Run(PROCS, {p: [] for p in PROCS}, duration=3),
        Run(
            PROCS,
            {
                "p1": [(1, InitEvent("p1", a)), (2, SendEvent("p1", "p2", MSG)),
                       (3, DoEvent("p1", a))],
                "p2": [(4, ReceiveEvent("p2", "p1", MSG)), (5, DoEvent("p2", a))],
                "p3": [(2, CrashEvent("p3"))],
            },
            duration=7,
        ),
        # Events after the observed horizon: times clamp to the duration.
        Run(
            PROCS,
            {"p1": [(1, InitEvent("p1", a)), (6, DoEvent("p1", a))], "p2": [], "p3": []},
            duration=4,
        ),
        Run(PROCS, {"p1": [(1, CrashEvent("p1"))], "p2": [], "p3": []}, duration=0),
    ]


# -- Run.history ---------------------------------------------------------------


def reference_history(run: Run, process: str, time: int) -> History:
    horizon = min(time, run.duration)
    count = 0
    for t, _ in run.timeline(process):
        if t <= horizon:
            count += 1
    return History(event for _, event in run.timeline(process)[:count])


def test_history_matches_loop_reference(ensemble: System) -> None:
    runs = list(ensemble.runs) + hand_built_runs()
    checked = 0
    for run in runs:
        for p in run.processes:
            for t in range(run.duration + 3):
                got = run.history(p, t)
                assert got == reference_history(run, p, t), (p, t)
                assert got.events == reference_history(run, p, t).events
                checked += 1
            assert run.history(p) == reference_history(run, p, run.duration)
    assert checked > 500


def test_history_shares_prefix_nodes() -> None:
    run = hand_built_runs()[1]
    assert run.history("p1", 2) is run.history("p1", 2)
    assert run.history("p1", 3).parent is run.history("p1", 2)
    assert run.history("p1", 1).parent is not None
    assert len(run.history("p1", 1).parent) == 0
    assert run.history("p1", 0).parent is None


# -- incremental occurrence primitives -----------------------------------------


def occurrence_cases(system: System) -> list[tuple[object, str, object]]:
    """(formula, process, reference predicate on that process's history)."""
    procs = system.processes
    actions = sorted({a for r in system for a in actions_in(r)})
    messages = sorted(
        {
            e.message
            for r in system
            for p in procs
            for _, e in r.timeline(p)
            if isinstance(e, SendEvent)
        },
        key=repr,
    )[:3]
    cases: list[tuple[object, str, object]] = []
    for action in actions:
        for q in procs:
            cases.append((Did(q, action), q, lambda h, a=action: h.did(a)))
            cases.append((Inited(q, action), q, lambda h, a=action: h.inited(a)))
    for p in procs:
        for q in procs:
            if p == q:
                continue
            cases.append((Sent(p, q), p, lambda h, q=q: h.sent(q)))
            cases.append((Received(q, p), q, lambda h, p=p: h.received(p)))
            for msg in messages:
                cases.append((Sent(p, q, msg), p, lambda h, q=q, m=msg: h.sent(q, m)))
                cases.append(
                    (Received(q, p, msg), q, lambda h, p=p, m=msg: h.received(p, m))
                )
    return cases


@pytest.mark.parametrize("order_seed", [None, 1, 2])
def test_incremental_occurrences_match_history_scans(
    ensemble: System, order_seed: int | None
) -> None:
    points = [Point(run, m) for run in ensemble.runs for m in range(run.duration + 1)]
    if order_seed is not None:
        # Out-of-order queries make the walk stop at arbitrary memoized
        # prefixes instead of always at the immediate parent.
        random.Random(order_seed).shuffle(points)
    checker = ModelChecker(ensemble)
    cases = occurrence_cases(ensemble)
    assert len(cases) > 30
    truths = 0
    for point in points:
        for formula, process, reference in cases:
            expected = reference(point.history(process))
            assert checker.holds(formula, point) is expected, (formula.label(), point)
            truths += expected
    assert truths > 0


def test_incremental_occurrences_on_hand_built_runs() -> None:
    runs = hand_built_runs()
    system = System(runs)
    checker = ModelChecker(system)
    a = ("p1", "a")
    cases = [
        (Inited("p1", a), "p1", lambda h: h.inited(a)),
        (Did("p2", a), "p2", lambda h: h.did(a)),
        (Sent("p1", "p2", MSG), "p1", lambda h: h.sent("p2", MSG)),
        (Sent("p1", "p2", OTHER), "p1", lambda h: h.sent("p2", OTHER)),
        (Received("p2", "p1"), "p2", lambda h: h.received("p1")),
    ]
    for run in reversed(runs):
        for m in range(run.duration + 3):
            point = Point(run, m)
            for formula, process, reference in cases:
                assert checker.holds(formula, point) is reference(point.history(process))


# -- faulty() and R5 -----------------------------------------------------------


def reference_faulty(run: Run) -> frozenset[str]:
    return frozenset(p for p in run.processes if run.final_history(p).crashed)


def reference_r5(run: Run, send_threshold: int = 5) -> list[tuple[str, str, object, int]]:
    out = []
    for p in run.processes:
        sends: dict[tuple[str, Message], int] = {}
        for _, event in run.timeline(p):
            if isinstance(event, SendEvent):
                key = (event.receiver, event.message)
                sends[key] = sends.get(key, 0) + 1
        for (q, message), count in sends.items():
            if q not in run.processes or count < send_threshold:
                continue
            if run.final_history(q).crashed:
                continue
            if not run.final_history(q).received(p, message):
                out.append((p, q, message, count))
    return out


def r5_run(*, received: bool = False, receiver_crashes: bool = False) -> Run:
    p1 = [(t, SendEvent("p1", "p2", MSG)) for t in range(1, 7)]
    p1.append((7, SendEvent("p1", "p3", OTHER)))
    p2: list = []
    if received:
        p2.append((3, ReceiveEvent("p2", "p1", MSG)))
    if receiver_crashes:
        p2.append((8, CrashEvent("p2")))
    return Run(PROCS, {"p1": p1, "p2": p2, "p3": []}, duration=9)


def test_faulty_and_r5_match_references(ensemble: System) -> None:
    runs = list(ensemble.runs) + hand_built_runs() + [
        r5_run(),
        r5_run(received=True),
        r5_run(receiver_crashes=True),
    ]
    for run in runs:
        assert run.faulty() == reference_faulty(run)
        assert run.correct() == frozenset(run.processes) - reference_faulty(run)
        for threshold in (1, 2, 5):
            assert r5_violations(run, send_threshold=threshold) == reference_r5(
                run, threshold
            )


def test_hand_built_r5_violation_is_reported() -> None:
    assert r5_violations(r5_run()) == [("p1", "p2", MSG, 6)]
    assert r5_violations(r5_run(received=True)) == []
    assert r5_violations(r5_run(receiver_crashes=True)) == []
    assert r5_violations(r5_run(), send_threshold=1) == [
        ("p1", "p2", MSG, 6),
        ("p1", "p3", OTHER, 1),
    ]


# -- run_index and membership ----------------------------------------------------


def test_equal_distinct_runs_resolve_by_value_once(monkeypatch: pytest.MonkeyPatch) -> None:
    system = synthetic_system(3, 6, seed=11)
    clones = [pickle.loads(pickle.dumps(run)) for run in system.runs]
    calls = {"eq": 0}
    original = Run.__eq__

    def counting_eq(self: Run, other: object) -> bool:
        calls["eq"] += 1
        return original(self, other)

    monkeypatch.setattr(Run, "__eq__", counting_eq)
    checker = ModelChecker(system)
    for _ in range(5):
        for i, clone in enumerate(clones):
            assert clone is not system.runs[i]
            assert system.run_index(clone) == i
            assert clone in system
            assert checker._run_id(clone) == i
            assert system.point_id(Point(clone, 1)) == system.point_id(
                Point(system.runs[i], 1)
            )
    assert calls["eq"] <= len(clones)


def test_equal_runs_resolve_to_the_first_member() -> None:
    base = synthetic_system(3, 3, seed=5).runs
    twin = pickle.loads(pickle.dumps(base[0]))
    system = System(list(base) + [twin])
    assert system.run_index(twin) == len(base)  # a member: its own position
    clone = pickle.loads(pickle.dumps(base[0]))
    assert system.run_index(clone) == 0
    assert system.run_index(clone) == 0


def test_contains_matches_value_membership() -> None:
    system = synthetic_system(3, 4, seed=7)
    foreign = synthetic_system(3, 1, seed=99).runs[0]
    assert foreign not in system.runs and foreign not in system
    for run in system.runs:
        assert run in system
        assert pickle.loads(pickle.dumps(run)) in system
    assert system.run_index(foreign) is None


def test_knowledge_through_clones_matches_members(ensemble: System) -> None:
    clones = [pickle.loads(pickle.dumps(run)) for run in ensemble.runs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IncompleteSystemWarning)
        for run, clone in zip(ensemble.runs, clones):
            for m in range(run.duration + 1):
                for p in ensemble.processes:
                    assert ensemble.known_crashed_set(
                        p, Point(clone, m)
                    ) == ensemble.known_crashed_set(p, Point(run, m))
