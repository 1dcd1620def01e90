"""Epistemic tasks, localization, sequential and policy planning."""

import hashlib
import inspect
import random

import pytest

import eplan.actions as actions_module
import eplan.logic as logic_module
import eplan.models as models_module
import eplan.planner as planner
import reference_policy
import reference_update
from conftest import TASK_FILES, TWO_OFFICE_PLAN, chain_document, gen_task, load_doc
from eplan import (
    TOP,
    Agent,
    EpistemicModel,
    EpistemicState,
    EpistemicTask,
    Knows,
    LiteralConjunction,
    ModelError,
    Not,
    Or,
    Policy,
    Prop,
    SequentialPlan,
    Vocabulary,
    VocabularyMismatchError,
    applicable,
    bisim_contract,
    canonical_key,
    enumerate_executions,
    eval_state,
    execute,
    globals_of,
    induced_action,
    local_state,
    localize,
    parse_task,
    product_update,
    render_state_line,
    solve_policy,
    solve_sequential,
    validate_plan,
    validate_policy,
)
from reference_policy import solve_policy as reference_solve_policy
from reference_update import applicable_actions, bisimilar


def global_task(po2, world):
    """The two-post-office task from the outside: one actual world."""
    return EpistemicTask(
        po2.vocab,
        po2.actions,
        EpistemicState(po2.initial.model, {world}),
        po2.goal,
        owner=None,
    )


class TestLocalize:
    def test_localizing_global_task_designates_both_worlds(self, po2):
        task = global_task(po2, 1)
        father = po2.vocab.agent("Father")
        localized = localize(task, father)
        assert localized.owner == father
        assert localized.initial.designated == {0, 1}
        assert localized.actions == po2.actions

    def test_idempotent_on_owned_tasks(self, po2):
        father = po2.vocab.agent("Father")
        again = localize(po2, father)
        assert bisimilar(again.initial, po2.initial)
        assert again.actions == po2.actions
        plan_a = solve_sequential(po2, 8)
        plan_b = solve_sequential(again, 8)
        assert len(plan_a) == len(plan_b)

    def test_employee_keeps_its_knowledge(self, po2_ask):
        vocab = po2_ask.vocab
        employee = vocab.agent("Employee")
        task = EpistemicTask(
            vocab,
            po2_ask.actions,
            EpistemicState(po2_ask.initial.model, {1}),
            po2_ask.goal,
        )
        localized = localize(task, employee)
        assert localized.initial.designated == {1}
        p1 = Prop(vocab.atom("At(Present,PostOffice1)"))
        knows_whether = Or(Knows(employee, p1), Knows(employee, Not(p1)))
        assert eval_state(localized.initial, knows_whether)

    def test_owner_requires_local_inputs(self, po2):
        father = po2.vocab.agent("Father")
        with pytest.raises(ModelError):
            EpistemicTask(
                po2.vocab,
                po2.actions,
                EpistemicState(po2.initial.model, {1}),
                po2.goal,
                owner=father,
            )

    def test_owner_from_a_larger_vocabulary_is_a_mismatch(self):
        # Agent 3 has no entry in a one-agent vocabulary: a mismatch, not
        # an index error.
        vocab = Vocabulary(["p"], ["a"])
        state = EpistemicState(EpistemicModel(vocab, ["w"], [[]]), {0})
        with pytest.raises(VocabularyMismatchError, match="owner z not in vocabulary"):
            EpistemicTask(vocab, (), state, TOP, owner=Agent(3, "z"))


def count_calls(monkeypatch):
    """Count the calls of a few library functions, through every module
    binding, and of ``EpistemicModel.closure`` and the checked
    ``EpistemicModel.__init__`` (``init``)."""
    modules = (planner, actions_module, models_module)
    names = ("applicable", "local_state", "globals_of", "product_update", "_pair",
             "_materialize", "bisim_contract", "canonical_key")
    calls = dict.fromkeys(names + ("closure", "init"), 0)
    for name in names:
        original = next(vars(m)[name] for m in modules if name in vars(m))

        def wrapper(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in modules:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, wrapper)
    closure = models_module.EpistemicModel.closure

    def counted_closure(self, *args):
        calls["closure"] += 1
        return closure(self, *args)

    monkeypatch.setattr(models_module.EpistemicModel, "closure", counted_closure)
    init = models_module.EpistemicModel.__init__

    def counted_init(self, *args):
        calls["init"] += 1
        init(self, *args)

    monkeypatch.setattr(models_module.EpistemicModel, "__init__", counted_init)
    return calls


class TestSolveSequential:
    def test_two_post_offices_plan_matches_worked_sequence(self, po2):
        plan = solve_sequential(po2, 8)
        assert plan is not None
        assert plan.steps == TWO_OFFICE_PLAN

    def test_goal_already_satisfied(self, po2):
        task = EpistemicTask(
            po2.vocab, po2.actions, po2.initial,
            Prop(po2.vocab.atom("At(Father,Home)")), po2.vocab.agent("Father"),
        )
        assert solve_sequential(task, 3).steps == ()

    def test_depth_cap_respected(self, po2):
        assert solve_sequential(po2, 5) is None

    def test_goal_is_not_revalidated(self, po2, monkeypatch):
        # The task validated its goal over its vocabulary when it was built,
        # so searches, replays and policy walks evaluate it unchecked.
        calls = []
        check = logic_module.validate_over
        monkeypatch.setattr(
            logic_module, "validate_over", lambda *args: calls.append(args) or check(*args)
        )
        plan = solve_sequential(po2, 8)
        assert validate_plan(po2, plan).ok
        policy = solve_policy(po2, 8)
        assert validate_policy(po2, policy).ok
        start = globals_of(po2.initial)[1]
        assert execute(po2, policy, start).outcome == "success"
        assert len(enumerate_executions(po2, policy, start)) == 1
        assert calls == []

    def test_search_counts(self, monkeypatch):
        # A successor shape yielded before is dropped uncontracted: 2,638
        # contractions, 1,319 keys and 1,318 ``applicable`` calls before.
        # Each of the 1,318 pairings was a full ``product_update`` before;
        # now only a new shape's successor is built, by the unchecked
        # constructor. A key of a contracted state does not contract it
        # again (548 contractions before), and a one-world state is
        # contracted with no closure search (274 closures before).
        task = parse_task(offices_document(5)).task
        calls = count_calls(monkeypatch)
        plan = solve_sequential(task, 13)
        assert plan is not None and len(plan) == 12
        assert calls == {
            "applicable": 0, "local_state": 0, "globals_of": 0, "product_update": 0,
            "_pair": 1318, "_materialize": 273, "init": 0,
            "bisim_contract": 274, "canonical_key": 274, "closure": 262,
        }

    def test_pickup_variant_on_global_task(self, po2):
        # With the actual world at PO2, the second try-pickup can be the
        # plain unconditional pickup: by then the father knows where the
        # present is. On his local task the same plan is NOT applicable
        # (the branch where he already holds the present falsifies the
        # pickup precondition), so the claim holds from the global view.
        vocab = po2.vocab
        pickup = induced_action(
            "PickUp(Father,Present,PostOffice2)",
            vocab,
            LiteralConjunction(
                frozenset(
                    {
                        vocab.atom("At(Father,PostOffice2)"),
                        vocab.atom("At(Present,PostOffice2)"),
                    }
                ),
                frozenset({vocab.atom("Has(Father,Present)")}),
            ),
            LiteralConjunction(
                frozenset({vocab.atom("Has(Father,Present)")}),
                frozenset({vocab.atom("At(Present,PostOffice2)")}),
            ),
        )
        variant_plan = list(TWO_OFFICE_PLAN)
        variant_plan[3] = pickup.name

        base = global_task(po2, 1)
        task = EpistemicTask(
            base.vocab, base.actions + (pickup,), base.initial, base.goal
        )
        report = validate_plan(task, variant_plan)
        assert report.ok
        assert len(variant_plan) == 6

        local_variant = EpistemicTask(
            po2.vocab, po2.actions + (pickup,), po2.initial, po2.goal
        )
        local_report = validate_plan(local_variant, variant_plan)
        assert not local_report.ok and local_report.failed_step == 3


class TestValidatePlan:
    def test_worked_plan_valid(self, po2):
        report = validate_plan(po2, SequentialPlan(TWO_OFFICE_PLAN))
        assert report.ok
        assert bisim_contract(report.final_state).model.n == 1
        assert eval_state(report.final_state, po2.goal)

    def test_empty_plan_fails_goal(self, po2):
        report = validate_plan(po2, [])
        assert not report.ok
        assert report.failed_step is None

    def test_swapped_steps_reported(self, po2):
        swapped = list(TWO_OFFICE_PLAN)
        swapped[0], swapped[2] = swapped[2], swapped[0]
        report = validate_plan(po2, swapped)
        assert not report.ok
        assert report.failed_step == 0

    def test_unknown_name_raises(self, po2):
        with pytest.raises(ModelError):
            validate_plan(po2, ["Teleport(Father)"])


class TestSolvePolicy:
    def test_two_post_offices_branch_lengths(self, po2):
        policy = solve_policy(po2, 8)
        assert policy is not None
        report = validate_policy(po2, policy)
        assert report.ok
        assert report.execution_lengths == (4, 6)

    def test_goal_initial_gives_empty_policy(self, po2):
        task = EpistemicTask(
            po2.vocab, po2.actions, po2.initial,
            Prop(po2.vocab.atom("At(Father,Home)")), po2.vocab.agent("Father"),
        )
        policy = solve_policy(task, 4)
        assert policy is not None and len(policy) == 0
        assert validate_policy(task, policy).ok

    def test_ask_makes_the_policy_shorter(self, po2_ask):
        policy = solve_policy(po2_ask, 8)
        assert policy is not None
        first_action = next(iter(policy.entries.values()))
        assert first_action == "AskWhetherPO1"
        report = validate_policy(po2_ask, policy)
        assert report.ok
        assert report.execution_lengths == (5,)

    def test_search_counts(self, monkeypatch):
        # The product update decides applicability (1,358 ``applicable``
        # calls before, 8,274 when every action was tested at every node);
        # owner views are built with no global or local state objects
        # (1,354 and 3,367 before); each successor shape is contracted,
        # split and keyed once (2,933 contractions and 1,429 keys before),
        # and each designated world takes one closure search (4,871
        # closures before; 773 while a world inside an earlier closure
        # was skipped). Of the 1,358 pairings (each a full ``product_update``
        # before), only the new shapes' successors are built, by the
        # unchecked constructor. A key of a contracted state does not
        # contract it again (773 contractions before), and a one-world
        # state is contracted with no closure search (1,156 closures before).
        task = parse_task(offices_document(5)).task
        calls = count_calls(monkeypatch)
        policy = solve_policy(task, 13)
        assert policy is not None and len(policy) == 16
        assert calls == {
            "applicable": 0, "local_state": 0, "globals_of": 0, "product_update": 0,
            "_pair": 1358, "_materialize": 273, "init": 0,
            "bisim_contract": 424, "canonical_key": 349, "closure": 1114,
        }

    def test_owner_required(self, po2):
        task = global_task(po2, 1)
        with pytest.raises(ModelError):
            solve_policy(task, 4)

    def test_depth_cap(self, po2):
        # The shortest strong policy needs 6 layers: one short of that
        # gives nothing, and exactly 6 gives today's 7-entry policy.
        assert solve_policy(po2, 3) is None
        assert solve_policy(po2, 5) is None
        policy = solve_policy(po2, 6)
        assert policy is not None and len(policy) == 7

    def test_plan_time_distinguishable_roots_get_own_actions(self, po2):
        # Start from the post-pickup state: both worlds designated but
        # distinguishable, so the policy may (and must) branch right away.
        father = po2.vocab.agent("Father")
        s1 = product_update(po2.initial, po2.action_named("Go(Father,Home,PostOffice1)"))
        s2 = product_update(s1, po2.action_named("TryPickUp(Father,Present,PostOffice1)"))
        task = EpistemicTask(po2.vocab, po2.actions, s2, po2.goal, owner=father)
        policy = solve_policy(task, 6)
        assert policy is not None
        report = validate_policy(task, policy)
        assert report.ok
        assert report.execution_lengths == (2, 4)
        root_actions = {policy.action_for(g) for g in globals_of(s2)}
        assert root_actions == {
            "Go(Father,PostOffice1,Home)",
            "Go(Father,PostOffice1,PostOffice2)",
        }


class TestUnknownActionName:
    """A policy naming an action the task lacks is a caller error: every
    policy consumer raises, as ``validate_plan`` does for plans."""

    @pytest.fixture
    def bogus(self, po2):
        policy = solve_policy(po2, 8)
        root = policy.roots[0]
        entries = {k: ("Bogus" if k == root else v) for k, v in policy.entries.items()}
        return Policy(policy.owner, entries)

    def test_validate_policy_raises(self, po2, bogus):
        with pytest.raises(ModelError, match="unknown action name: Bogus"):
            validate_policy(po2, bogus)

    def test_execute_raises(self, po2, bogus):
        start = EpistemicState(po2.initial.model, {1})
        with pytest.raises(ModelError, match="unknown action name: Bogus"):
            execute(po2, bogus, start)

    def test_enumerate_executions_raises(self, po2, bogus):
        start = EpistemicState(po2.initial.model, {1})
        with pytest.raises(ModelError, match="unknown action name: Bogus"):
            enumerate_executions(po2, bogus, start)


class TestExecute:
    def test_successful_six_step_trace(self, po2):
        policy = solve_policy(po2, 8)
        start = EpistemicState(po2.initial.model, {1})
        result = execute(po2, policy, start, seed=1)
        assert result.outcome == "success"
        assert result.length == 6
        assert result.actions[0] == "Go(Father,Home,PostOffice1)"

    def test_short_branch_is_four_steps(self, po2):
        policy = solve_policy(po2, 8)
        start = EpistemicState(po2.initial.model, {0})
        result = execute(po2, policy, start, seed=1)
        assert result.outcome == "success"
        assert result.length == 4

    def test_zero_step_success(self, po2):
        task = EpistemicTask(
            po2.vocab, po2.actions, po2.initial,
            Prop(po2.vocab.atom("At(Father,Home)")), po2.vocab.agent("Father"),
        )
        policy = Policy(task.owner)
        start = EpistemicState(po2.initial.model, {0})
        result = execute(task, policy, start)
        assert result.outcome == "success" and result.length == 0

    def test_partial_policy_fails_undefined(self, po2):
        # Only the two branches right after the first pickup attempt are
        # covered; following the go-home branch then falls off the map.
        father = po2.vocab.agent("Father")
        s1 = product_update(
            po2.initial, po2.action_named("Go(Father,Home,PostOffice1)")
        )
        s2 = product_update(
            s1, po2.action_named("TryPickUp(Father,Present,PostOffice1)")
        )
        g_has, g_miss = globals_of(s2)
        assert eval_state(g_has, Prop(po2.vocab.atom("Has(Father,Present)")))
        partial = Policy.from_assignments(
            father,
            [
                (g_has, "Go(Father,PostOffice1,Home)"),
                (g_miss, "Go(Father,PostOffice1,PostOffice2)"),
            ],
        )
        result = execute(po2, partial, g_has, seed=0)
        assert result.outcome == "failure"
        assert result.reason == "policy undefined"
        assert result.actions == ("Go(Father,PostOffice1,Home)",)

    def test_determinism_per_seed(self, po2):
        policy = solve_policy(po2, 8)
        start = EpistemicState(po2.initial.model, {1})
        a = execute(po2, policy, start, seed=7)
        b = execute(po2, policy, start, seed=7)
        assert a.actions == b.actions and a.outcome == b.outcome

    def test_cutoff_on_looping_policy(self, po2):
        loop = Policy.from_assignments(po2.owner, [(po2.initial, "Go(Father,Home,Home)")])
        start = EpistemicState(po2.initial.model, {0})
        result = execute(po2, loop, start, max_steps=5)
        assert (result.outcome, result.reason, result.length) == ("cutoff", "cycle", 1)

    def test_negative_step_bound_rejected(self, po2):
        # A negative bound is an input error, as a negative depth cap is;
        # zero is the empty run.
        policy = solve_policy(po2, 8)
        start = EpistemicState(po2.initial.model, {1})
        for walk in (execute, enumerate_executions):
            with pytest.raises(ModelError, match="step bound must be non-negative"):
                walk(po2, policy, start, max_steps=-1)
        assert execute(po2, policy, start, max_steps=0).outcome == "cutoff"
        (run,) = enumerate_executions(po2, policy, start, max_steps=0)
        assert (run.outcome, run.reason, run.length) == ("cutoff", "step bound", 0)

    def test_start_over_another_vocabulary_rejected(self, po2):
        # The goal is evaluated unchecked, so a start state built over
        # another vocabulary is rejected before any walk.
        policy = solve_policy(po2, 8)
        vocab = Vocabulary(["p"], ["Father"])
        start = EpistemicState(EpistemicModel(vocab, ["w"], [set()]), {0})
        for walk in (execute, enumerate_executions):
            with pytest.raises(VocabularyMismatchError, match="start state"):
                walk(po2, policy, start)

    def test_nondeterministic_outcomes_enumerated(self):
        # A coin flip: two always-applicable designated outcomes that are
        # distinguishable at run time. Exhaustive enumeration explores
        # both branches; the seeded chooser picks one of them.
        from eplan import EpistemicAction, EpistemicModel, Event, LiteralConjunction, TOP, Vocabulary
        from eplan.planner import enumerate_executions

        vocab = Vocabulary(["heads", "flipped"], ["a"])
        heads = vocab.atom("heads")
        flipped = vocab.atom("flipped")
        flip = EpistemicAction(
            "flip",
            vocab,
            [
                Event(
                    "land_heads", TOP,
                    LiteralConjunction(frozenset({heads, flipped}), frozenset()),
                ),
                Event(
                    "land_tails", TOP,
                    LiteralConjunction(frozenset({flipped}), frozenset({heads})),
                ),
            ],
            {0, 1},
        )
        initial = EpistemicState(EpistemicModel(vocab, ["w"], [set()]), {0})
        agent = vocab.agent("a")
        task = EpistemicTask(vocab, (flip,), initial, TOP, owner=agent)
        policy = Policy.from_assignments(agent, [(initial, "flip")])
        runs = enumerate_executions(task, policy, initial)
        assert len(runs) == 2
        assert all(r.outcome == "success" and r.length == 1 for r in runs)
        outcomes = {eval_state(r.states[-1], Prop(heads)) for r in runs}
        assert outcomes == {True, False}
        picked = execute(task, policy, initial, seed=3)
        assert picked.outcome == "success" and picked.length == 1


def bystander_policy(name):
    """A task file's task and the policy that its Employee solves for its
    own local task: a policy that is not the owner's."""
    task = load_doc(name).task
    return task, solve_policy(localize(task, task.vocab.agent("Employee")), 10)


class TestOwnerCheck:
    """Only the owner's policy is uniform by construction, so every policy
    walk rejects any other: a bystander's policy, or a policy for a task
    without an owner."""

    def test_bystander_policy_is_not_uniform_for_the_owner(self):
        # The Employee knows where the present is, so its policy sends
        # Father to a different post office from each initial global,
        # though Father cannot tell the two apart.
        task, policy = bystander_policy("two_post_offices_ask")
        initial = globals_of(task.initial)
        assert len(policy) == 7
        assert [policy.action_for(g) for g in initial] == [
            "Go(Father,Home,PostOffice1)", "Go(Father,Home,PostOffice2)",
        ]
        assert len({planner._owner_view(g, task.owner)[1] for g in initial}) == 1

    @pytest.mark.parametrize(
        "name, message",
        [
            ("two_post_offices_ask", "a policy of Employee for a task with owner Father"),
            ("ask_private", "a policy of Employee for a task with no owner"),
        ],
    )
    @pytest.mark.parametrize(
        "walk", [validate_policy, execute, enumerate_executions], ids=lambda f: f.__name__
    )
    def test_walks_reject_another_agents_policy(self, walk, name, message):
        task, policy = bystander_policy(name)
        starts = () if walk is validate_policy else (globals_of(task.initial)[0],)
        with pytest.raises(ModelError) as exc:
            walk(task, policy, *starts)
        assert str(exc.value) == message


class TestValidatePolicy:
    def test_planner_policy_passes_all_checks(self, po2):
        policy = solve_policy(po2, 8)
        report = validate_policy(po2, policy)
        assert report.ok
        assert len(report.executions) == 2
        assert all(e.outcome == "success" for e in report.executions)

    def test_weak_policy_fails_po2_branch(self, po2):
        # Go to PO1, try there, go home, wrap if holding: fails when the
        # present is at PO2.
        father = po2.vocab.agent("Father")
        s1 = product_update(po2.initial, po2.action_named("Go(Father,Home,PostOffice1)"))
        s2 = product_update(s1, po2.action_named("TryPickUp(Father,Present,PostOffice1)"))
        g_has, g_miss = globals_of(s2)
        home_has = product_update(g_has, po2.action_named("Go(Father,PostOffice1,Home)"))
        home_miss = product_update(g_miss, po2.action_named("Go(Father,PostOffice1,Home)"))
        weak = Policy.from_assignments(
            father,
            [
                (po2.initial, "Go(Father,Home,PostOffice1)"),
                (s2, "Go(Father,PostOffice1,Home)"),
                (globals_of(home_has)[0], "Wrap(Father,Present)"),
            ],
        )
        report = validate_policy(po2, weak)
        assert not report.ok
        assert any(v.kind in ("unsuccessful", "coverage") for v in report.violations)
        # The failing execution is the one where the present was at PO2.
        failing = [e for e in report.executions if e.outcome != "success"]
        assert failing

    def test_each_walked_key_computed_once(self, monkeypatch):
        # One step table serves the checks and the executions, so each
        # reachable global state is keyed and stepped once, and its owner
        # view is keyed once: 204 key and 76 update calls when every walk
        # and every path stepped again, 240 keys when the check also
        # recomputed the key, 114 when it recomputed the view key.
        task = parse_task(offices_document(5)).task
        policy = solve_policy(task, 13)
        calls = {"canonical_key": 0, "product_update": 0}

        def counted(name):
            fn = getattr(planner, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(planner, name, wrapper)

        counted("canonical_key")
        counted("product_update")
        report = validate_policy(task, policy)
        assert report.ok and report.execution_lengths == (4, 6, 8, 10, 12)
        assert calls == {"canonical_key": 78, "product_update": 36}

    def test_long_chain_policy(self):
        # 1,100 steps is deeper than Python's default recursion limit:
        # neither walk may recurse, and validation has no step bound.
        task = parse_task(chain_document(1100)).task
        policy = solve_policy(task, 1200)
        assert len(policy) == 1100
        report = validate_policy(task, policy)
        assert report.ok and report.violations == ()
        assert [(e.length, e.outcome) for e in report.executions] == [(1100, "success")]
        assert report.executions[0].actions == tuple(f"s{i}" for i in range(1100))
        (run,) = enumerate_executions(task, policy, task.initial)
        assert (run.outcome, run.reason, run.length) == ("cutoff", "step bound", 1000)
        assert len(run.states) == 1001

    def test_coverage_violation(self, po2):
        empty = Policy(po2.owner)
        report = validate_policy(po2, empty)
        assert not report.ok
        assert any(v.kind == "coverage" for v in report.violations)

    def test_cyclic_policy_reported(self, po2):
        loop = Policy.from_assignments(po2.owner, [(po2.initial, "Go(Father,Home,Home)")])
        report = validate_policy(po2, loop)
        assert not report.ok
        assert any(v.kind == "cycle" for v in report.violations)

    def test_conflicting_assignments_rejected(self, po2):
        father = po2.vocab.agent("Father")
        with pytest.raises(ModelError):
            Policy.from_assignments(
                father,
                [
                    (po2.initial, "Go(Father,Home,PostOffice1)"),
                    (po2.initial, "Go(Father,Home,PostOffice2)"),
                ],
            )


THREE_OFFICES = """
agents { Father }
sorts { location; agent; object; mover }
objects {
  location: Home, PostOffice1, PostOffice2, PostOffice3;
  agent: Father;
  object: Present;
  mover: Father, Present;
}
atoms { At(mover, location); Has(agent, object); Wrapped(object); }
schema Go(agt: agent, from: location, to: location) {
  pre: At(agt, from);
  effect: At(agt, to) & !At(agt, from);
}
schema Wrap(agt: agent, obj: object) {
  pre: Has(agt, obj) & !Wrapped(obj);
  effect: Wrapped(obj);
}
action TryPickUp(Father,Present,PostOffice1) {
  event take {
    pre: At(Father,PostOffice1) & At(Present,PostOffice1) & !Has(Father,Present);
    post: Has(Father,Present) & !At(Present,PostOffice1);
  }
  event miss { pre: At(Father,PostOffice1) & !At(Present,PostOffice1); post: top; }
  designated take, miss;
}
action TryPickUp(Father,Present,PostOffice2) {
  event take {
    pre: At(Father,PostOffice2) & At(Present,PostOffice2) & !Has(Father,Present);
    post: Has(Father,Present) & !At(Present,PostOffice2);
  }
  event miss { pre: At(Father,PostOffice2) & !At(Present,PostOffice2); post: top; }
  designated take, miss;
}
action TryPickUp(Father,Present,PostOffice3) {
  event take {
    pre: At(Father,PostOffice3) & At(Present,PostOffice3) & !Has(Father,Present);
    post: Has(Father,Present) & !At(Present,PostOffice3);
  }
  event miss { pre: At(Father,PostOffice3) & !At(Present,PostOffice3); post: top; }
  designated take, miss;
}
state s0 {
  world w1 { At(Father,Home), At(Present,PostOffice1) }
  world w2 { At(Father,Home), At(Present,PostOffice2) }
  world w3 { At(Father,Home), At(Present,PostOffice3) }
  edge Father: w1 -- w2;
  edge Father: w1 -- w3;
  edge Father: w2 -- w3;
  designated w1, w2, w3;
}
goal { At(Father,Home) & Has(Father,Present) & Wrapped(Present) }
task {
  initial: s0;
  actions: Go, TryPickUp(Father,Present,PostOffice1),
           TryPickUp(Father,Present,PostOffice2),
           TryPickUp(Father,Present,PostOffice3), Wrap;
  owner: Father;
}
"""


@pytest.fixture(scope="module")
def three_offices():
    from eplan import parse_task

    return parse_task(THREE_OFFICES).task


class TestThreeOffices:
    """Scaling check: three possible present locations."""

    def test_sequential_plan_visits_all_offices(self, three_offices):
        task = three_offices
        plan = solve_sequential(task, 9)
        assert plan is not None
        assert plan.steps == (
            "Go(Father,Home,PostOffice1)",
            "TryPickUp(Father,Present,PostOffice1)",
            "Go(Father,PostOffice1,PostOffice2)",
            "TryPickUp(Father,Present,PostOffice2)",
            "Go(Father,PostOffice2,PostOffice3)",
            "TryPickUp(Father,Present,PostOffice3)",
            "Go(Father,PostOffice3,Home)",
            "Wrap(Father,Present)",
        )
        assert validate_plan(task, plan).ok

    def test_policy_branches_at_each_office(self, three_offices):
        policy = solve_policy(three_offices, 9)
        assert policy is not None
        report = validate_policy(three_offices, policy)
        assert report.ok
        assert report.execution_lengths == (4, 6, 8)
        assert len(report.executions) == 3


def offices_document(n):
    """THREE_OFFICES with ``n`` possible present locations."""
    offices = [f"PostOffice{i}" for i in range(1, n + 1)]
    head = THREE_OFFICES[: THREE_OFFICES.index("action TryPickUp")]
    head = head.replace("PostOffice1, PostOffice2, PostOffice3", ", ".join(offices))
    goal = THREE_OFFICES[THREE_OFFICES.index("goal {") : THREE_OFFICES.index("task {")]
    pickups = "".join(
        f"action TryPickUp(Father,Present,{po}) {{\n"
        "  event take {\n"
        f"    pre: At(Father,{po}) & At(Present,{po}) & !Has(Father,Present);\n"
        f"    post: Has(Father,Present) & !At(Present,{po});\n"
        "  }\n"
        f"  event miss {{ pre: At(Father,{po}) & !At(Present,{po}); post: top; }}\n"
        "  designated take, miss;\n"
        "}\n"
        for po in offices
    )
    worlds = "".join(
        f"  world w{i} {{ At(Father,Home), At(Present,{po}) }}\n"
        for i, po in enumerate(offices, 1)
    )
    edges = "".join(
        f"  edge Father: w{i} -- w{j};\n"
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    )
    designated = ", ".join(f"w{i}" for i in range(1, n + 1))
    state = f"state s0 {{\n{worlds}{edges}  designated {designated};\n}}\n"
    actions = ", ".join(["Go", *(f"TryPickUp(Father,Present,{po})" for po in offices), "Wrap"])
    task = f"task {{\n  initial: s0;\n  actions: {actions};\n  owner: Father;\n}}\n"
    return head + pickups + state + goal + task


def policy_graph(policy):
    """Everything a solved policy carries, with dict order."""
    if policy is None:
        return None
    return (
        list(policy.entries.items()),
        list(policy.states),
        policy.roots,
        list(policy.children.items()),
    )


class TestSolvePolicyOracle:
    """Solved-labelling against the repeat-until-stable induction it
    replaced (``tests/reference_policy.py``): same entries in the same
    order, same states, roots and children."""

    def assert_same(self, task, caps):
        """Compare at every cap; return how many caps have a policy."""
        solved = 0
        for cap in caps:
            expected = policy_graph(reference_solve_policy(task, cap))
            assert policy_graph(solve_policy(task, cap)) == expected, cap
            solved += expected is not None
        return solved

    def test_offices_document_matches_three_offices(self, three_offices):
        assert parse_task(offices_document(3)).task == three_offices

    @pytest.mark.parametrize("name", TASK_FILES)
    def test_task_files(self, name):
        task = load_doc(name).task
        if task.owner is not None:
            self.assert_same(task, range(10))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_offices(self, n):
        task = parse_task(offices_document(n)).task
        assert len(task.actions) == (n + 1) ** 2 + n + 1  # Go, pickups, Wrap
        self.assert_same(task, range(2 * n + 1, 2 * n + 4))

    def test_random_localized_tasks(self):
        rng = random.Random(67)
        solved = 0
        for _ in range(300):
            task = gen_task(rng)
            solved += self.assert_same(localize(task, task.vocab.agents[0]), range(5))
        assert solved > 500  # about half of the 1,500 (task, cap) pairs


def _views(classes):
    """Observation classes with everything a view carries."""
    return [(key, view, view.model.world_names) for key, view in classes]


class TestOwnerClassesOracle:
    """Owner closures as world sets, and the contracted successor as its
    own view, against the per-global split they replaced
    (``reference_policy._owner_classes``)."""

    def test_reference_copies_are_pinned(self):
        # The references are the code they replaced, copied verbatim (the
        # reachability searches as functions of the model): edit them only
        # together with this pin.
        source = "".join(
            inspect.getsource(fn)
            for fn in (
                reference_policy._owner_classes,
                reference_update.local_state,
                reference_update.union_reach,
                reference_update.reachable_from,
            )
        )
        digest = hashlib.sha256(source.encode()).hexdigest()[:16]
        assert digest == "b31be48535031290"

    def assert_same(self, make, owners):
        """``make()`` builds a fresh successor, so the library and the
        reference each contract their own; returns (views that are the
        successor itself, successors split into several classes)."""
        reused = split = 0
        for contract in (False, True):
            ours, theirs = make(), make()
            if contract:
                ours, theirs = bisim_contract(ours), reference_update.bisim_contract(theirs)
            assert canonical_key(ours) == reference_update.canonical_key(theirs)
            for owner in owners:
                classes = planner._owner_classes(ours, owner)
                assert _views(classes) == _views(reference_policy._owner_classes(theirs, owner))
                reused += any(view is ours for _, view in classes)
                split += len(classes) > 1
        return reused, split

    def test_generated_successors(self):
        rng = random.Random(97)
        reused = split = 0
        for _ in range(500):
            task = gen_task(rng, max_agents=3, max_worlds=4)
            owners = task.vocab.agents
            for action in applicable_actions(task.initial, task.actions):
                first = bisim_contract(product_update(task.initial, action))
                counts = self.assert_same(lambda: product_update(task.initial, action), owners)
                reused, split = reused + counts[0], split + counts[1]
                for then in applicable_actions(first, task.actions):
                    counts = self.assert_same(lambda: product_update(first, then), owners)
                    reused, split = reused + counts[0], split + counts[1]
        assert reused > 500 and split > 500

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_offices_search_graph(self, n):
        # Every successor the policy search makes, to the N-office cap.
        task = parse_task(offices_document(n)).task
        owner = task.owner
        seen = {key for key, _ in planner._owner_classes(task.initial, owner)}
        level = [view for _, view in planner._owner_classes(task.initial, owner)]
        successors = 0
        for _ in range(2 * n + 3):
            nxt = []
            for state in level:
                for action in applicable_actions(state, task.actions):
                    self.assert_same(lambda: product_update(state, action), task.vocab.agents)
                    successors += 1
                    succ = bisim_contract(product_update(state, action))
                    for key, view in planner._owner_classes(succ, owner):
                        if key not in seen:
                            seen.add(key)
                            nxt.append(view)
            level = nxt
        assert successors > 10 * n


def search_successors(task, depth):
    """The (source, action) pairs of a breadth-first walk ``depth`` steps
    deep over distinct contracted states: each state, its globals and its
    agents' local views take every applicable action. Globals and views
    share their state's model, so successors of equal labels and edges but
    other designated sets are among them."""
    level = [bisim_contract(task.initial)]
    seen = {canonical_key(level[0])}
    for _ in range(depth):
        nxt = []
        for state in level:
            sources = [state] + globals_of(state)
            sources += [local_state(state, agent) for agent in task.vocab.agents]
            for source in sources:
                for action in applicable_actions(source, task.actions):
                    yield source, action
                    contracted = bisim_contract(product_update(source, action))
                    key = canonical_key(contracted)
                    if key not in seen:
                        seen.add(key)
                        nxt.append(contracted)
        level = nxt


def state_shape(state):
    """A state up to world names: its labels, designated set and per-agent
    successor rows, which is what the pairing reports as the successor's
    shape."""
    model = state.model
    rows = tuple(
        tuple(model.successors(a, w) for w in range(model.n)) for a in model.vocab.agents
    )
    return model.labels, state.designated, rows


class TestShapeOracle:
    """The pairing step (``actions._pair``) against the successor it
    describes, and what the searches reuse per successor shape against
    working it out again. Each pairing's materialized successor
    (``actions._materialize``) equals, world names included, the product
    update before the split (``reference_update.event_pair_product_update``),
    and the pairing's shape is that successor's labels, designated set and
    per-agent successor rows. Equal shapes give equal canonical keys and equal
    owner-class keys for every agent. The sequential search gives the plans
    of the one that contracted and keyed every successor
    (``reference_policy.solve_sequential``)."""

    def test_reference_copy_is_pinned(self):
        # Copied verbatim from the product update before the split (only
        # the name changed): edit it only together with this pin.
        source = "".join(
            inspect.getsource(fn)
            for fn in (reference_update._holds, reference_update.event_pair_product_update)
        )
        digest = hashlib.sha256(source.encode()).hexdigest()[:16]
        assert digest == "49ac7bcf7f6de6a8"

    def assert_shapes_decide(self, task, depth):
        """Return (successors, successors whose shape came before)."""
        seen = {}
        total = repeats = 0
        for source, action in search_successors(task, depth):
            shape, pairs = actions_module._pair(source, action)
            succ = actions_module._materialize(source, action, shape, pairs)
            expected = reference_update.event_pair_product_update(source, action)
            assert succ == expected and succ.model.world_names == expected.model.world_names
            assert shape == state_shape(succ)
            contracted = bisim_contract(succ)
            facts = (
                canonical_key(contracted),
                [
                    [key for key, _ in planner._owner_classes(contracted, agent)]
                    for agent in task.vocab.agents
                ],
            )
            total += 1
            if shape in seen:
                assert seen[shape] == facts
                repeats += 1
            else:
                seen[shape] = facts
        return total, repeats

    def assert_same_plans(self, task, caps):
        for cap in caps:
            assert solve_sequential(task, cap) == reference_policy.solve_sequential(task, cap), cap

    @pytest.mark.parametrize("name", TASK_FILES)
    def test_task_files(self, name):
        task = load_doc(name).task
        total, repeats = self.assert_shapes_decide(task, 4)
        assert repeats > 0
        self.assert_same_plans(task, range(7))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_offices(self, n):
        task = parse_task(offices_document(n)).task
        total, repeats = self.assert_shapes_decide(task, n + 2)
        assert repeats > total // 2
        self.assert_same_plans(task, range(7))

    def test_generated_tasks(self):
        rng = random.Random(89)
        total = repeats = solved = 0
        for _ in range(500):
            task = gen_task(rng, max_agents=3, max_worlds=4)
            counts = self.assert_shapes_decide(task, 2)
            total, repeats = total + counts[0], repeats + counts[1]
            self.assert_same_plans(task, range(7))
            solved += solve_sequential(task, 6) is not None
        assert repeats > total // 10 and solved > 100


class TestTrustedModels:
    """Every model a solve builds with the unchecked constructor
    (``EpistemicModel._trusted``: products and contraction quotients),
    rebuilt by the checked constructor from its derived ``edges``, is the
    same model with the same successor rows. Every state it builds with
    ``EpistemicState._trusted`` (products, quotients and owner classes) is
    the state the checked constructor builds, and is marked contracted
    only when contraction returned it."""

    def record(self, monkeypatch):
        built, states, contracted = [], [], []
        trusted = models_module.EpistemicModel._trusted
        trusted_state = models_module.EpistemicState._trusted

        def recording(*args):
            built.append(trusted(*args))
            return built[-1]

        def recording_state(*args):
            states.append(trusted_state(*args))
            return states[-1]

        monkeypatch.setattr(models_module.EpistemicModel, "_trusted", staticmethod(recording))
        monkeypatch.setattr(
            models_module.EpistemicState, "_trusted", staticmethod(recording_state)
        )
        original = models_module.bisim_contract

        def contracting(state):  # records what contraction itself marked
            marked = state._contracted
            result = original(state)
            if not marked:
                contracted.append(result)
            return result

        for module in (planner, actions_module, models_module):
            if vars(module).get("bisim_contract") is original:
                monkeypatch.setattr(module, "bisim_contract", contracting)
        return built, states, contracted

    def assert_checked(self, built, states, contracted):
        for model in built:
            assert type(model.world_names) is tuple and type(model.labels) is tuple
            assert all(type(label) is frozenset for label in model.labels)
            assert list(model.edges) == list(model.vocab.agents)
            assert all(type(edges) is frozenset for edges in model.edges.values())
            checked = EpistemicModel(model.vocab, model.world_names, model.labels, model.edges)
            assert checked == model
            assert type(model._rows) is tuple and len(model._rows) == len(model.vocab.agents)
            assert all(type(rows) is tuple and all(type(row) is tuple for row in rows)
                       for rows in model._rows)
            assert model._rows == checked._rows
        results = {id(state) for state in contracted}
        for state in states:
            assert type(state.designated) is frozenset and state.designated
            assert all(0 <= w < state.model.n for w in state.designated)
            assert state == EpistemicState(state.model, state.designated)
            assert not state._contracted or id(state) in results
        assert any(state._contracted for state in states)
        assert not all(state._contracted for state in states)

    def test_offices(self, monkeypatch):
        task = parse_task(offices_document(3)).task
        recorded = self.record(monkeypatch)
        assert solve_sequential(task, 9) is not None and solve_policy(task, 9) is not None
        assert len(recorded[0]) > 100 and len(recorded[1]) > 100
        self.assert_checked(*recorded)

    def test_private_ask(self, monkeypatch, ask_private):
        recorded = self.record(monkeypatch)
        assert solve_sequential(ask_private, 4) is not None
        for agent in ask_private.vocab.agents:
            solve_policy(localize(ask_private, agent), 4)
        assert len(recorded[0]) > 10 and len(recorded[1]) > 10
        self.assert_checked(*recorded)

    def test_generated_tasks(self, monkeypatch):
        rng = random.Random(101)
        recorded = self.record(monkeypatch)
        for _ in range(200):
            task = gen_task(rng, max_agents=3, max_worlds=4)
            solve_sequential(task, 4)
            solve_policy(localize(task, task.vocab.agents[-1]), 3)
        assert len(recorded[0]) > 1000 and len(recorded[1]) > 1000
        self.assert_checked(*recorded)


def _run(execution):
    """An execution with its states as canonical keys."""
    keys = tuple(canonical_key(state) for state in execution.states)
    return execution.actions, execution.outcome, execution.reason, keys


def _run_to_first_repeat(execution):
    """``_run`` of an execution cut at its first repeated state key, which
    then ends it as a cycle cutoff."""
    actions, outcome, reason, keys = _run(execution)
    seen = set()
    for i, key in enumerate(keys):
        if key in seen:
            return actions[:i], "cutoff", "cycle", keys[: i + 1]
        seen.add(key)
    return actions, outcome, reason, keys


def owner_class_keys(task, depth):
    """The keys of the owner classes that applicable actions reach within
    ``depth`` steps, in breadth-first order."""
    level = planner._owner_classes(task.initial, task.owner)
    keys = [key for key, _ in level]
    for _ in range(depth):
        nxt = []
        for _, view in level:
            for action in applicable_actions(view, task.actions):
                succ = bisim_contract(product_update(view, action))
                for key, child in planner._owner_classes(succ, task.owner):
                    if key not in keys:
                        keys.append(key)
                        nxt.append((key, child))
        level = nxt
    return keys


def random_policy(rng, task, keys):
    """A random action per owner class, about one class in five unmapped."""
    entries = {key: rng.choice(task.actions).name for key in keys if rng.random() < 0.8}
    return Policy(task.owner, entries)


class TestPolicyWalkOracle:
    """The step-table walks against the recursive walks they replaced
    (``reference_policy``): the same ``ok``, the same violations in order
    and, per execution, the same actions, outcome, reason and state keys;
    and the same executions from every initial global at four bounds.
    ``execute`` against the loop it replaced, from every initial global
    with two seeds and a last-successor chooser at two bounds: the same
    run once the reference is cut at its first repeated key (a cycle),
    and the same rendered states on a run without one, except on
    generated tasks."""

    def test_reference_copies_are_pinned(self):
        # Copied verbatim from the walks they replaced: edit them only
        # together with this pin.
        source = "".join(
            inspect.getsource(fn)
            for fn in (
                reference_policy._step,
                reference_policy.enumerate_executions,
                reference_policy.validate_policy,
            )
        )
        digest = hashlib.sha256(source.encode()).hexdigest()[:16]
        assert digest == "957e13701c974e8e"

    def test_execute_reference_is_pinned(self):
        # Copied verbatim from the loop it replaced: edit it only together
        # with this pin.
        source = inspect.getsource(reference_policy.execute)
        digest = hashlib.sha256(source.encode()).hexdigest()[:16]
        assert digest == "e726d8c6e6f97c84"

    def assert_same_execute(self, task, policy, render):
        last = lambda options: len(options) - 1  # noqa: E731
        for start in globals_of(task.initial):
            for seed, chooser in ((0, None), (1, None), (0, last)):
                cut = None
                for max_steps in (3, 100):
                    got = execute(task, policy, start, seed, max_steps, chooser)
                    # The bound-3 run is the bound-100 run's prefix (same
                    # seed, same choices), so a cycle it ends in is the
                    # longer run's cut too.
                    if cut is None or cut[2] != "cycle":
                        expected = reference_policy.execute(
                            task, policy, start, seed, max_steps, chooser
                        )
                        cut = _run_to_first_repeat(expected)
                    assert _run(got) == cut, (seed, max_steps)
                    if render and cut[2] != "cycle":  # the reference has no cycle test
                        rendered = list(map(render_state_line, expected.states))
                        assert list(map(render_state_line, got.states)) == rendered

    def assert_same(self, task, policy, render=True):
        """Return whether the policy is valid. With ``render``, acyclic
        ``execute`` runs must also render their states the same."""
        self.assert_same_execute(task, policy, render)
        ours = validate_policy(task, policy)
        theirs = reference_policy.validate_policy(task, policy)
        assert ours.ok == theirs.ok
        assert [str(v) for v in ours.violations] == [str(v) for v in theirs.violations]
        assert list(map(_run, ours.executions)) == list(map(_run, theirs.executions))
        for start in globals_of(task.initial):
            for bound in (0, 1, 2, 1000):
                expected = reference_policy.enumerate_executions(task, policy, start, bound)
                got = enumerate_executions(task, policy, start, bound)
                assert list(map(_run, got)) == list(map(_run, expected)), bound
        return ours.ok

    @pytest.mark.parametrize("name", TASK_FILES)
    def test_task_files(self, name):
        task = load_doc(name).task
        if task.owner is None:
            return
        policy = solve_policy(task, 8)
        assert policy is None or self.assert_same(task, policy)
        assert not self.assert_same(task, Policy(task.owner))
        rng = random.Random(name)
        keys = owner_class_keys(task, 4)
        for _ in range(20):
            self.assert_same(task, random_policy(rng, task, keys))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_offices(self, n):
        task = parse_task(offices_document(n)).task
        policy = solve_policy(task, 2 * n + 3)
        assert self.assert_same(task, policy)
        rng = random.Random(n)
        for _ in range(5):
            assert not self.assert_same(task, random_policy(rng, task, list(policy.entries)))

    def test_generated_tasks(self):
        rng = random.Random(83)
        solved = invalid = several = 0
        for _ in range(300):
            task = gen_task(rng)
            task = localize(task, task.vocab.agents[0])
            policy = solve_policy(task, 4)
            # A trace state is the step table's representative of its key,
            # which can have other world names than the reference's state
            # (16 of 7,411 acyclic runs here), so only keys are compared.
            if policy is not None:
                solved += self.assert_same(task, policy, render=False)
            keys = owner_class_keys(task, 3)
            for _ in range(4):
                policy = random_policy(rng, task, keys)
                invalid += not self.assert_same(task, policy, render=False)
                several += len(validate_policy(task, policy).violations) >= 2
        assert solved > 100 and invalid > 900 and several > 500


def exhaustive_min_solution(task, cap):
    """Independent oracle: level-order enumeration of action sequences with
    no deduplication and no contraction."""
    if eval_state(task.initial, task.goal):
        return 0
    level = [task.initial]
    for depth in range(1, cap + 1):
        nxt = []
        for state in level:
            for action in task.actions:
                if not applicable(state, action):
                    continue
                succ = product_update(state, action)
                if eval_state(succ, task.goal):
                    return depth
                nxt.append(succ)
        if not nxt:
            return None
        level = nxt
    return None


class TestRandomizedPlanning:
    def test_sequential_soundness(self):
        rng = random.Random(51)
        for _ in range(60):
            task = gen_task(rng)
            plan = solve_sequential(task, 4)
            if plan is not None:
                assert validate_plan(task, plan).ok

    def test_sequential_completeness_against_oracle(self):
        rng = random.Random(53)
        for _ in range(60):
            task = gen_task(rng, max_actions=2, max_worlds=2)
            oracle = exhaustive_min_solution(task, 4)
            plan = solve_sequential(task, 4)
            assert (plan is None) == (oracle is None)
            if plan is not None:
                assert len(plan) == oracle

    def test_policy_soundness(self):
        rng = random.Random(59)
        for _ in range(50):
            task = gen_task(rng, max_actions=2, max_worlds=2)
            owned = localize(task, task.vocab.agents[0])
            policy = solve_policy(owned, 3)
            if policy is not None:
                report = validate_policy(owned, policy)
                assert report.ok
                # Acyclicity bounds every execution by the domain size.
                assert all(e.length <= len(policy) for e in report.executions)

    def test_contraction_safety(self):
        # Solving with per-step contraction or raw products gives plans of
        # the same length (truth is bisimulation-invariant).
        rng = random.Random(61)
        for _ in range(40):
            task = gen_task(rng, max_actions=2, max_worlds=2)
            plan = solve_sequential(task, 4)
            oracle = exhaustive_min_solution(task, 4)
            assert (plan is None) == (oracle is None)
