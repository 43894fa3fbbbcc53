"""Tests for ensemble construction: Systems from protocol sweeps (run_ensemble)."""

from repro.core.protocols import NUDCProcess, StrongFDUDCProcess
from repro.detectors.standard import PerfectOracle
from repro.model.context import Context, make_process_ids
from repro.runtime import EnsembleSpec, SerialBackend, run_ensemble
from repro.sim.failures import CrashPlan, all_crash_plans
from repro.sim.process import uniform_protocol
from repro.workloads.generators import post_crash_workload, single_action

PROCS = make_process_ids(3)


class TestBuildEnsemble:
    def test_size_is_plans_times_seeds(self):
        plans = [CrashPlan.none(), CrashPlan.of({"p2": 5})]
        system = run_ensemble(EnsembleSpec(
            PROCS,
            uniform_protocol(NUDCProcess),
            crash_plans=plans,
            workload=single_action("p1", tick=1),
            seeds=(0, 1, 2),
        ), backend=SerialBackend(), cache=None).system()
        assert len(system) == 6

    def test_callable_workload_receives_plan(self):
        seen = []

        def workload_for(plan):
            seen.append(plan.faulty)
            return post_crash_workload(PROCS, plan, actions_per_survivor=1)

        run_ensemble(EnsembleSpec(
            PROCS,
            uniform_protocol(StrongFDUDCProcess),
            crash_plans=[CrashPlan.of({"p2": 5})],
            workload=workload_for,
            detector=PerfectOracle(),
            seeds=(0,),
        ), backend=SerialBackend(), cache=None).system()
        assert seen == [frozenset({"p2"})]

    def test_context_attached(self):
        ctx = Context.of(3, failure_bound=1)
        system = run_ensemble(EnsembleSpec(
            PROCS,
            uniform_protocol(NUDCProcess),
            crash_plans=[CrashPlan.none()],
            workload=[],
            seeds=(0,),
            context=ctx,
        ), backend=SerialBackend(), cache=None).system()
        assert system.context is ctx

    def test_runs_record_their_plans(self):
        plans = [CrashPlan.none(), CrashPlan.of({"p3": 4})]
        system = run_ensemble(EnsembleSpec(
            PROCS,
            uniform_protocol(NUDCProcess),
            crash_plans=plans,
            workload=single_action("p1", tick=1),
            seeds=(0,),
        ), backend=SerialBackend(), cache=None).system()
        assert [r.meta["crash_plan"] for r in system] == plans


class TestA5tEnsemble:
    def test_covers_every_pattern(self):
        system = run_ensemble(EnsembleSpec.a5t(
            PROCS,
            uniform_protocol(NUDCProcess),
            t=2,
            workload=single_action("p1", tick=1),
            seeds=(0,),
        ), backend=SerialBackend(), cache=None).system()
        expected = {p.faulty for p in all_crash_plans(PROCS, max_failures=2)}
        observed = {r.faulty() for r in system}
        assert observed == expected

    def test_faulty_sets_match_plans(self):
        system = run_ensemble(EnsembleSpec.a5t(
            PROCS,
            uniform_protocol(NUDCProcess),
            t=1,
            workload=single_action("p1", tick=1),
            seeds=(0,),
        ), backend=SerialBackend(), cache=None).system()
        for run in system:
            assert run.faulty() == run.meta["crash_plan"].faulty
