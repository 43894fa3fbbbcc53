"""Message chains, knowledge gain, and the full-information wrapper.

The two principles tested here are the operational core of the paper's
A4 discussion:

* knowledge gain: learning a remote stable fact REQUIRES a message
  chain from its owner (in detector-free, message-passing-only systems);
* full-information transfer: under an FIP, a message chain is also
  SUFFICIENT -- knowledge of initiations is exactly chain reachability.
"""

from repro.core.protocols import NUDCProcess, StrongFDUDCProcess
from repro.knowledge import ModelChecker
from repro.knowledge.chains import (
    chain_closure,
    has_message_chain,
    knowledge_gain_violations,
    match_sends_to_receives,
)
from repro.knowledge.formulas import Inited, Knows
from repro.model.context import make_process_ids
from repro.model.events import InitEvent, Message, ReceiveEvent, SendEvent
from repro.model.run import Point, Run
from repro.runtime import EnsembleSpec, SerialBackend, run_ensemble
from repro.sim.fip import (
    FIP,
    init_fact,
    known_facts,
    with_full_information,
)
from repro.sim.process import uniform_protocol
from repro.workloads.generators import single_action

PROCS = make_process_ids(4)
SMALL = ("p1", "p2", "p3")
MSG = Message("m")


def relay_run():
    """p1 -> p2 -> p3 relay; no chain reaches p3 before time 7."""
    m2 = Message("fwd")
    return Run(
        SMALL,
        {
            "p1": [(2, SendEvent("p1", "p2", MSG))],
            "p2": [(4, ReceiveEvent("p2", "p1", MSG)), (5, SendEvent("p2", "p3", m2))],
            "p3": [(7, ReceiveEvent("p3", "p2", m2))],
        },
        duration=10,
    )


class TestMatching:
    def test_receive_matched_to_earliest_send(self):
        r = Run(
            SMALL,
            {
                "p1": [(1, SendEvent("p1", "p2", MSG)), (3, SendEvent("p1", "p2", MSG))],
                "p2": [(5, ReceiveEvent("p2", "p1", MSG))],
                "p3": [],
            },
            duration=8,
        )
        matching = match_sends_to_receives(r)
        assert matching[("p2", 5)] == ("p1", 1)

    def test_two_receives_two_sends(self):
        r = Run(
            SMALL,
            {
                "p1": [(1, SendEvent("p1", "p2", MSG)), (3, SendEvent("p1", "p2", MSG))],
                "p2": [
                    (5, ReceiveEvent("p2", "p1", MSG)),
                    (6, ReceiveEvent("p2", "p1", MSG)),
                ],
                "p3": [],
            },
            duration=8,
        )
        matching = match_sends_to_receives(r)
        assert matching[("p2", 5)] == ("p1", 1)
        assert matching[("p2", 6)] == ("p1", 3)


class TestChains:
    def test_direct_chain(self):
        assert has_message_chain(relay_run(), "p1", 0, "p2", 4)
        assert not has_message_chain(relay_run(), "p1", 0, "p2", 3)

    def test_two_hop_chain(self):
        assert has_message_chain(relay_run(), "p1", 0, "p3", 7)
        assert not has_message_chain(relay_run(), "p1", 0, "p3", 6)

    def test_chain_respects_start_time(self):
        # p1's only send is at 2; a chain starting after that never forms.
        assert not has_message_chain(relay_run(), "p1", 3, "p3", 10)

    def test_condition_b_send_after_receive(self):
        # p2's send at 5 happens after its receive at 4 -- but if p2 had
        # sent BEFORE receiving, no chain extends through it.
        m2 = Message("fwd")
        r = Run(
            SMALL,
            {
                "p1": [(4, SendEvent("p1", "p2", MSG))],
                "p2": [
                    (2, SendEvent("p2", "p3", m2)),
                    (6, ReceiveEvent("p2", "p1", MSG)),
                ],
                "p3": [(5, ReceiveEvent("p3", "p2", m2))],
            },
            duration=10,
        )
        assert not has_message_chain(r, "p1", 0, "p3", 10)

    def test_trivial_chain_to_self(self):
        assert has_message_chain(relay_run(), "p1", 3, "p1", 3)
        assert not has_message_chain(relay_run(), "p1", 5, "p1", 3)

    def test_closure(self):
        closure = chain_closure(relay_run(), "p1", 0, 10)
        assert closure == {"p1": 0, "p2": 4, "p3": 7}


class TestKnowledgeGain:
    def test_no_violations_in_detector_free_ensemble(self):
        """Knowledge of a remote init only arises along message chains.

        The ensemble must contain runs in which the init never happens:
        with a deterministic always-inits workload, "knowledge" of the
        init would hold vacuously at every non-initial point, relative
        to the ensemble, with no transmission at all.  Mixing in
        initiation-free runs restores the intended semantics.
        """
        with_action = run_ensemble(EnsembleSpec.a5t(
            PROCS,
            uniform_protocol(NUDCProcess),
            t=2,
            workload=single_action("p1", tick=1),
            seeds=(0, 1),
        ), backend=SerialBackend(), cache=None).system()
        without_action = run_ensemble(EnsembleSpec.a5t(
            PROCS,
            uniform_protocol(NUDCProcess),
            t=2,
            workload=[],
            seeds=(0, 1),
        ), backend=SerialBackend(), cache=None).system()
        system = with_action.union(without_action)
        checker = ModelChecker(system)
        action = ("p1", "a0")

        def first_true(run):
            for t, e in run.timeline("p1"):
                if isinstance(e, InitEvent) and e.action == action:
                    return t
            return None

        violations = knowledge_gain_violations(
            system, checker, Inited("p1", action), "p1", first_true
        )
        assert violations == []

    def test_knowledge_does_spread_along_chains(self):
        """Sanity for the previous test: somebody does come to know."""
        system = run_ensemble(EnsembleSpec.a5t(
            PROCS,
            uniform_protocol(NUDCProcess),
            t=0,
            workload=single_action("p1", tick=1),
            seeds=(0,),
        ), backend=SerialBackend(), cache=None).system()
        checker = ModelChecker(system)
        run = system.runs[0]
        action = ("p1", "a0")
        knowers = [
            q
            for q in PROCS
            if q != "p1"
            and checker.holds(Knows(q, Inited("p1", action)), Point(run, run.duration))
        ]
        assert knowers


class TestFullInformation:
    def fip_system(self, seeds=(0, 1)):
        with_action = run_ensemble(EnsembleSpec.a5t(
            PROCS,
            with_full_information(uniform_protocol(NUDCProcess)),
            t=1,
            workload=single_action("p1", tick=1),
            seeds=seeds,
        ), backend=SerialBackend(), cache=None).system()
        # Initiation-free twin runs keep ensemble knowledge honest (see
        # TestKnowledgeGain).
        without_action = run_ensemble(EnsembleSpec.a5t(
            PROCS,
            with_full_information(uniform_protocol(NUDCProcess)),
            t=1,
            workload=[],
            seeds=seeds,
        ), backend=SerialBackend(), cache=None).system()
        return with_action.union(without_action)

    def test_fip_messages_carry_facts(self):
        system = self.fip_system(seeds=(0,))
        run = system.runs[0]
        fip_sends = [
            e
            for p in PROCS
            for e in run.events(p)
            if isinstance(e, SendEvent) and e.message.kind == FIP
        ]
        assert fip_sends
        inner, facts = fip_sends[0].message.payload
        assert isinstance(facts, frozenset)

    def test_wrapper_state_is_history_function(self):
        system = self.fip_system(seeds=(0,))
        run = system.runs[0]
        action = ("p1", "a0")
        # Reconstructing facts from the history must find the init fact
        # at any process that received a FIP message.
        for p in PROCS:
            got_fip = any(
                isinstance(e, ReceiveEvent) and e.message.kind == FIP
                for e in run.events(p)
            )
            if got_fip:
                assert init_fact("p1", action) in known_facts(
                    run, p, run.duration
                )

    def test_full_information_transfer(self):
        """Under the FIP, a chain from the initiator after its init
        DELIVERS knowledge of the init: chains == knowledge."""
        system = self.fip_system()
        checker = ModelChecker(system)
        action = ("p1", "a0")
        formula = Inited("p1", action)
        checked = 0
        for run in system:
            init_t = next(
                (
                    t
                    for t, e in run.timeline("p1")
                    if isinstance(e, InitEvent)
                ),
                None,
            )
            if init_t is None:
                continue
            for q in PROCS:
                if q == "p1":
                    continue
                chain = has_message_chain(run, "p1", init_t, q, run.duration)
                knows = checker.holds(
                    Knows(q, formula), Point(run, run.duration)
                )
                assert chain == knows, (q, chain, knows)
                checked += 1
        assert checked >= 3

    def test_fip_composes_with_detector_protocol(self):
        from repro.core.properties import udc_holds
        from repro.detectors.standard import StrongOracle
        from repro.sim.executor import Executor
        from repro.sim.failures import CrashPlan

        run = Executor(
            PROCS,
            with_full_information(uniform_protocol(StrongFDUDCProcess)),
            crash_plan=CrashPlan.of({"p3": 7}),
            workload=single_action("p1", tick=1),
            detector=StrongOracle(),
            seed=0,
        ).run()
        assert udc_holds(run)
