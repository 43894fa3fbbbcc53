"""Tests for group knowledge: E_G, D_G, C_G, and the coordinated-attack
unattainability of common knowledge under unreliable communication."""

import pytest

from repro.core.protocols import NUDCProcess
from repro.knowledge import ModelChecker
from repro.knowledge.formulas import Crashed, Inited, Knows, TRUE
from repro.knowledge.group import (
    GroupChecker,
    e_iterated,
    everyone_knows,
)
from repro.model.context import make_process_ids
from repro.model.events import CrashEvent, InitEvent, Message, ReceiveEvent, SendEvent
from repro.model.run import Point, Run
from repro.model.system import System
from repro.runtime import EnsembleSpec, SerialBackend, run_ensemble
from repro.sim.fip import with_full_information
from repro.sim.process import uniform_protocol
from repro.workloads.generators import single_action

SMALL = ("p1", "p2")
PROCS = make_process_ids(3)
ACTION = ("p1", "a0")


def two_run_system():
    """Run A: p1 inits and tells p2 (received).  Run B: nothing happens."""
    msg = Message("told")
    a = Run(
        SMALL,
        {
            "p1": [(1, InitEvent("p1", ACTION)), (2, SendEvent("p1", "p2", msg))],
            "p2": [(4, ReceiveEvent("p2", "p1", msg))],
        },
        duration=6,
    )
    b = Run(SMALL, {"p1": [], "p2": []}, duration=6)
    return System([a, b]), a, b


class TestEveryoneKnows:
    def test_requires_all_members(self):
        system, a, _ = two_run_system()
        mc = ModelChecker(system)
        phi = Inited("p1", ACTION)
        # At time 2: p1 knows, p2 does not yet.
        assert mc.holds(Knows("p1", phi), Point(a, 2))
        assert not mc.holds(everyone_knows(SMALL, phi), Point(a, 2))
        # At time 4 both know.
        assert mc.holds(everyone_knows(SMALL, phi), Point(a, 4))

    def test_depth_zero_is_identity(self):
        system, a, _ = two_run_system()
        mc = ModelChecker(system)
        phi = Inited("p1", ACTION)
        assert mc.holds(e_iterated(SMALL, phi, 0), Point(a, 1))

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            e_iterated(SMALL, TRUE, -1)

    def test_second_level_fails_without_acknowledgment(self):
        # p2 knows phi at 4, but p1 never learns that p2 received the
        # message, so E^2 = E(E phi) fails even at the end.
        system, a, _ = two_run_system()
        mc = ModelChecker(system)
        phi = Inited("p1", ACTION)
        assert mc.holds(e_iterated(SMALL, phi, 1), Point(a, 6))
        assert not mc.holds(e_iterated(SMALL, phi, 2), Point(a, 6))


class TestDistributedKnowledge:
    def test_group_pools_information(self):
        # Footnote 4's notion: together the group may know what no
        # member knows alone.
        msg = Message("m")
        a = Run(
            PROCS,
            {
                "p1": [(2, SendEvent("p1", "p2", msg))],
                "p2": [(4, ReceiveEvent("p2", "p1", msg))],
                "p3": [(3, CrashEvent("p3"))],
            },
            duration=6,
        )
        b = Run(
            PROCS,
            {
                "p1": [(2, SendEvent("p1", "p2", msg))],
                "p2": [(4, ReceiveEvent("p2", "p1", msg))],
                "p3": [],
            },
            duration=6,
        )
        # Distinguishing run: p2's receipt together with p3 crashed.
        c = Run(
            PROCS,
            {"p1": [], "p2": [], "p3": [(3, CrashEvent("p3"))]},
            duration=6,
        )
        system = System([a, b, c])
        mc = ModelChecker(system)
        gc = GroupChecker(mc)
        phi = Crashed("p3")
        # p2 alone cannot distinguish a from b (p3's crash is invisible
        # to it), so it does not know crash(p3)...
        assert not mc.holds(Knows("p2", phi), Point(a, 5))
        # ... but p2's receipt rules out run c, and pooled with p3's own
        # history (which pins the crash), the group knows.
        assert gc.distributed_knowledge(("p2", "p3"), phi, Point(a, 5))

    def test_empty_group_rejected(self):
        system, a, _ = two_run_system()
        gc = GroupChecker(ModelChecker(system))
        with pytest.raises(ValueError):
            gc.distributed_knowledge((), TRUE, Point(a, 0))

    def test_singleton_group_is_knowledge(self):
        system, a, _ = two_run_system()
        mc = ModelChecker(system)
        gc = GroupChecker(mc)
        phi = Inited("p1", ACTION)
        for m in range(7):
            assert gc.distributed_knowledge(
                ("p2",), phi, Point(a, m)
            ) == mc.holds(Knows("p2", phi), Point(a, m))


class TestCommonKnowledge:
    def test_tautologies_are_common_knowledge(self):
        system, a, _ = two_run_system()
        gc = GroupChecker(ModelChecker(system))
        assert gc.common_knowledge(SMALL, TRUE, Point(a, 0))

    def test_new_facts_never_become_common_knowledge(self):
        """Coordinated attack: one unacknowledged message cannot create
        common knowledge -- and in our lossy-channel ensembles, no
        finite exchange can."""
        system, a, _ = two_run_system()
        gc = GroupChecker(ModelChecker(system))
        phi = Inited("p1", ACTION)
        for m in range(a.duration + 1):
            assert not gc.common_knowledge(SMALL, phi, Point(a, m))

    def test_e_levels_climb_in_protocol_ensembles(self):
        with_action = run_ensemble(EnsembleSpec.a5t(
            PROCS,
            with_full_information(uniform_protocol(NUDCProcess)),
            t=1,
            workload=single_action("p1", tick=1),
            seeds=(0,),
        ), backend=SerialBackend(), cache=None).system()
        without = run_ensemble(EnsembleSpec.a5t(
            PROCS,
            with_full_information(uniform_protocol(NUDCProcess)),
            t=1,
            workload=[],
            seeds=(0,),
        ), backend=SerialBackend(), cache=None).system()
        system = with_action.union(without)
        mc = ModelChecker(system)
        gc = GroupChecker(mc)
        phi = Inited("p1", ACTION)
        run = system.runs[0]
        end = Point(run, run.duration)
        # E^k climbs with the gossip depth.  (C_G may hold RELATIVE TO a
        # small sampled ensemble -- knowledge is an upper bound w.r.t.
        # the true loss-closed system; the coordinated-attack ladder
        # below demonstrates unattainability on a loss-closed system.)
        depth = gc.max_e_depth(PROCS, phi, end, cap=4)
        assert depth >= 1

    def test_coordinated_attack_ladder(self):
        """The classic induction: a chain of runs, adjacent ones
        indistinguishable to one process, linking any finite exchange
        back to a run where the fact is false.  E^k climbs with the
        number of delivered messages; C_G never arrives."""
        system, runs = self._ladder_system(levels=4)
        mc = ModelChecker(system)
        gc = GroupChecker(mc)
        phi = Inited("p1", ACTION)
        end = lambda r: Point(r, r.duration)  # noqa: E731

        depths = [gc.max_e_depth(SMALL, phi, end(r), cap=8) for r in runs[1:]]
        # More delivered messages => at least as much iterated knowledge,
        # and the ladder really climbs somewhere.
        assert depths == sorted(depths)
        assert depths[-1] > depths[0]
        # Common knowledge fails at every point of every run.
        for r in runs:
            for m in range(0, r.duration + 1, 3):
                assert not gc.common_knowledge(SMALL, phi, Point(r, m))

    @staticmethod
    def _ladder_system(levels: int):
        """Runs r_0..r_levels: in r_j the first j messages of the
        alternating p1->p2->p1->... exchange are delivered and message
        j+1 is sent but lost; r_bot has no initiation at all."""
        def build(delivered: int):
            timelines = {"p1": [(1, InitEvent("p1", ACTION))], "p2": []}
            t = 2
            for i in range(1, delivered + 2):  # message i; last one is lost
                sender, receiver = ("p1", "p2") if i % 2 else ("p2", "p1")
                msg = Message(f"m{i}")
                if i == delivered + 1:
                    # sent but lost -- only if its trigger was received
                    timelines[sender].append((t, SendEvent(sender, receiver, msg)))
                    break
                timelines[sender].append((t, SendEvent(sender, receiver, msg)))
                timelines[receiver].append((t + 1, ReceiveEvent(receiver, sender, msg)))
                t += 2
            duration = 2 * levels + 6
            return Run(SMALL, timelines, duration)

        r_bot = Run(SMALL, {"p1": [], "p2": []}, duration=2 * levels + 6)
        runs = [r_bot] + [build(j) for j in range(levels + 1)]
        return System(runs), runs

    def test_foreign_point_rejected(self):
        system, a, _ = two_run_system()
        gc = GroupChecker(ModelChecker(system))
        foreign = Run(SMALL, {"p1": [], "p2": []}, duration=2)
        with pytest.raises(ValueError):
            gc.common_knowledge(SMALL, TRUE, Point(foreign, 0))
