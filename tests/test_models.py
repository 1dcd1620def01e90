"""States, perspective shifts, belief-state embedding, and bisimulation."""

import itertools
import random

import pytest

from conftest import gen_formula, gen_state, gen_vocab
from eplan import (
    BeliefState,
    EpistemicModel,
    EpistemicState,
    ModelError,
    Prop,
    Vocabulary,
    VocabularyMismatchError,
    bisim_contract,
    canonical_key,
    eval_state,
    from_belief_state,
    globals_of,
    is_local_for,
    local_state,
    product_update,
)
import eplan.models as models_module
import reference_update as reference
from conftest import gen_task
from reference_update import applicable_actions
from reference_update import bisimilar


def post_pickup_state(po2):
    """The state after Go(H,PO1); TryPickUp(PO1): two designated worlds,
    Father link cut."""
    s = product_update(po2.initial, po2.action_named("Go(Father,Home,PostOffice1)"))
    return product_update(s, po2.action_named("TryPickUp(Father,Present,PostOffice1)"))


class TestGlobals:
    def test_singleton_for_global_state(self, po2):
        g = EpistemicState(po2.initial.model, {1})
        assert globals_of(g) == [g]

    def test_local_state_has_two_globals(self, po2):
        gs = globals_of(po2.initial)
        assert [sorted(g.designated) for g in gs] == [[0], [1]]

    def test_s2_globals_split_outcomes(self, po2):
        s2 = post_pickup_state(po2)
        has = Prop(po2.vocab.atom("Has(Father,Present)"))
        at2 = Prop(po2.vocab.atom("At(Present,PostOffice2)"))
        gs = globals_of(s2)
        assert len(gs) == 2
        values = sorted((eval_state(g, has), eval_state(g, at2)) for g in gs)
        assert values == [(False, True), (True, False)]

    def test_state_truth_is_conjunction_over_globals(self, po2):
        rng = random.Random(2)
        for _ in range(40):
            vocab = gen_vocab(rng)
            state = gen_state(rng, vocab)
            phi = gen_formula(rng, vocab, 3)
            assert eval_state(state, phi) == all(
                eval_state(g, phi) for g in globals_of(state)
            )


class TestLocalState:
    def test_father_view_of_actual_world(self, po2):
        father = po2.vocab.agent("Father")
        g = EpistemicState(po2.initial.model, {1})
        assert local_state(g, father).designated == {0, 1}

    def test_identity_relation_is_fixpoint(self, ask_private):
        employee = ask_private.vocab.agent("Employee")
        assert local_state(ask_private.initial, employee) == ask_private.initial

    def test_s2_already_local(self, po2):
        s2 = post_pickup_state(po2)
        father = po2.vocab.agent("Father")
        # The link was cut: each designated world is its own class.
        assert local_state(s2, father).designated == s2.designated

    def test_localization_idempotent(self):
        rng = random.Random(9)
        for _ in range(60):
            vocab = gen_vocab(rng)
            state = gen_state(rng, vocab)
            for agent in vocab.agents:
                once = local_state(state, agent)
                twice = local_state(once, agent)
                assert once.designated == twice.designated


class TestIsLocalFor:
    def test_father_local_state(self, po2):
        father = po2.vocab.agent("Father")
        assert is_local_for(po2.initial, father)

    def test_global_state_not_local_under_uncertainty(self, po2):
        father = po2.vocab.agent("Father")
        g = EpistemicState(po2.initial.model, {1})
        assert not is_local_for(g, father)

    def test_reflexive_only_relation_always_local(self, ask_private):
        employee = ask_private.vocab.agent("Employee")
        assert is_local_for(ask_private.initial, employee)


class TestBeliefStateEmbedding:
    def test_two_valuation_belief_matches_uncertainty_model(self, po2):
        vocab = po2.vocab
        b = BeliefState(
            [
                {vocab.atom("At(Father,Home)"), vocab.atom("At(Present,PostOffice1)")},
                {vocab.atom("At(Father,Home)"), vocab.atom("At(Present,PostOffice2)")},
            ]
        )
        embedded = from_belief_state(vocab, b)
        assert embedded.model.n == 2
        assert embedded.designated == {0, 1}
        assert bisimilar(embedded, po2.initial)

    def test_singleton_belief(self):
        vocab = Vocabulary(["p"], ["a"])
        s = from_belief_state(vocab, BeliefState([{vocab.atom("p")}]))
        assert s.model.n == 1 and s.is_global
        assert eval_state(s, Prop(vocab.atom("p")))

    def test_three_valuations_total_relation(self):
        vocab = Vocabulary(["p", "q"], ["f"])
        p, q = vocab.atoms
        s = from_belief_state(vocab, BeliefState([set(), {p}, {p, q}]))
        f = vocab.agent("f")
        # 6 explicit edges plus 3 implicit reflexive ones: 9 in total.
        assert len(s.model.edges[f]) == 6
        assert sum(len(s.model.successors(f, w)) for w in range(3)) == 9

    def test_empty_belief_rejected(self):
        with pytest.raises(ModelError):
            BeliefState([])

    def test_injective_up_to_bisimilarity(self):
        rng = random.Random(21)
        vocab = Vocabulary(["p", "q"], ["a"])
        from conftest import gen_belief

        for _ in range(60):
            b1 = gen_belief(rng, vocab)
            b2 = gen_belief(rng, vocab)
            e1 = from_belief_state(vocab, b1)
            e2 = from_belief_state(vocab, b2)
            assert bisimilar(e1, e2) == (b1.valuations == b2.valuations)

    def test_embedding_round_trips_to_belief(self):
        rng = random.Random(22)
        vocab = Vocabulary(["p", "q"], ["a"])
        from conftest import gen_belief
        from eplan import to_belief_state

        for _ in range(40):
            b = gen_belief(rng, vocab)
            assert to_belief_state(from_belief_state(vocab, b)) == b


def naive_partition(state):
    """Independent oracle: split blocks pairwise until stable.

    Worlds are bisimilar iff they share labels and, for every agent, the
    same set of successor blocks (reachable part only, self included)."""
    model = state.model
    reach = sorted(model.reachable_from(state.designated))
    blocks = {}
    for w in reach:
        blocks.setdefault(frozenset(model.labels[w]), []).append(w)
    partition = list(blocks.values())
    changed = True
    while changed:
        changed = False
        block_of = {w: i for i, block in enumerate(partition) for w in block}

        def profile(w):
            return tuple(
                frozenset(block_of[v] for v in model.successors(agent, w))
                for agent in model.vocab.agents
            )

        new_partition = []
        for block in partition:
            groups = {}
            for w in block:
                groups.setdefault(profile(w), []).append(w)
            if len(groups) > 1:
                changed = True
            new_partition.extend(groups.values())
        partition = new_partition
    return {frozenset(block) for block in partition}


class TestBisimContract:
    def test_identical_designated_twins_merge(self, po2):
        # s6: after the full plan both designated worlds carry the same
        # label and no edges; contraction keeps one of them.
        from conftest import TWO_OFFICE_PLAN

        s = po2.initial
        for name in TWO_OFFICE_PLAN:
            s = product_update(s, po2.action_named(name))
        assert len(s.designated) == 2
        contracted = bisim_contract(s)
        assert contracted.model.n == 1
        assert eval_state(contracted, po2.goal)

    def test_idempotent_up_to_isomorphism(self):
        rng = random.Random(4)
        for _ in range(80):
            vocab = gen_vocab(rng)
            state = gen_state(rng, vocab)
            once = bisim_contract(state)
            assert canonical_key(once) == canonical_key(state)
            assert canonical_key(bisim_contract(once)) == canonical_key(once)

    def test_matches_naive_partition_oracle(self):
        rng = random.Random(17)
        for _ in range(120):
            vocab = gen_vocab(rng)
            state = gen_state(rng, vocab, max_worlds=5)
            expected_blocks = naive_partition(state)
            contracted = bisim_contract(state)
            assert contracted.model.n == len(expected_blocks)

    def test_truth_invariance(self):
        rng = random.Random(29)
        for _ in range(100):
            vocab = gen_vocab(rng)
            state = gen_state(rng, vocab)
            phi = gen_formula(rng, vocab, 4)
            assert eval_state(state, phi) == eval_state(bisim_contract(state), phi)

    def test_minimal_fast_path_matches_refinement(self):
        # A contracted model is marked minimal, and contracting over it
        # again restricts instead of refining. An unmarked rebuild of the
        # same model takes the refinement path; both must agree on the
        # state (model equality covers names, labels and edges), and so
        # on the key, for every designated subset tried.
        rng = random.Random(53)
        for _ in range(500):
            vocab = gen_vocab(rng)
            state = gen_state(rng, vocab)
            c = bisim_contract(state)
            again = bisim_contract(c)
            assert again == c and again.model.world_names == c.model.world_names
            m = c.model
            rebuilt = EpistemicModel(vocab, m.world_names, m.labels, m.edges)
            subsets = [
                set(d)
                for k in range(1, m.n + 1)
                for d in itertools.combinations(range(m.n), k)
            ]
            for d in rng.sample(subsets, min(8, len(subsets))):
                fast = bisim_contract(EpistemicState(m, d))
                slow = bisim_contract(EpistemicState(rebuilt, d))
                assert fast == slow
                assert fast.model.world_names == slow.model.world_names
                assert canonical_key(EpistemicState(m, d)) == canonical_key(
                    EpistemicState(rebuilt, d)
                )
            for model in (state.model, m):
                for agent in vocab.agents:
                    for w in range(model.n):
                        scan = {w} | {v for (u, v) in model.edges[agent] if u == w}
                        assert model.successors(agent, w) == tuple(sorted(scan))

    def test_one_atom_states_match_reference(self):
        # With one atom, most worlds share a label, so refinement runs
        # several rounds. The reference gets an unmarked copy first: the
        # contraction under test marks the input's model minimal.
        rng = random.Random(97)
        for _ in range(1000):
            state = gen_state(rng, gen_vocab(rng, max_atoms=1, max_agents=3), max_worlds=8)
            expected = reference.bisim_contract(_unmarked_copy(state))
            expected_key = reference.canonical_key(_unmarked_copy(state))
            c = bisim_contract(state)
            assert c == expected and c.model.world_names == expected.model.world_names
            assert canonical_key(state) == expected_key

    def test_unreachable_worlds_dropped(self):
        vocab = Vocabulary(["p"], ["a"])
        p = vocab.atom("p")
        model = EpistemicModel(vocab, ["w0", "w1"], [{p}, set()], {})
        state = EpistemicState(model, {0})
        contracted = bisim_contract(state)
        assert contracted.model.n == 1


class TestBisimilar:
    def test_reflexive(self, po2):
        assert bisimilar(po2.initial, po2.initial)

    def test_contraction_is_bisimilar(self):
        rng = random.Random(31)
        for _ in range(60):
            vocab = gen_vocab(rng)
            state = gen_state(rng, vocab)
            assert bisimilar(state, bisim_contract(state))

    def test_link_cut_changes_class(self, po2):
        s1 = product_update(po2.initial, po2.action_named("Go(Father,Home,PostOffice1)"))
        s2 = post_pickup_state(po2)
        assert not bisimilar(s1, s2)

    def test_mismatched_tables_rejected(self, po2):
        other = gen_state(random.Random(0), Vocabulary(["p"], ["a"]))
        with pytest.raises(VocabularyMismatchError):
            bisimilar(po2.initial, other)


class TestImmutability:
    def test_values_reject_mutation(self, po2):
        # The concurrency contract rests on immutability after construction.
        with pytest.raises(AttributeError):
            po2.initial.designated = frozenset()
        with pytest.raises(AttributeError):
            po2.initial.model.labels = ()
        with pytest.raises(AttributeError):
            po2.vocab.atoms = ()
        with pytest.raises(AttributeError):
            po2.actions[0].events = ()
        with pytest.raises(AttributeError):
            po2.goal = None


class TestCanonicalKey:
    def test_key_of_contraction_equal(self, po2):
        assert canonical_key(po2.initial) == canonical_key(bisim_contract(po2.initial))

    def test_twin_state_merges_to_singleton_key(self):
        vocab = Vocabulary(["p"], ["a"])
        p = vocab.atom("p")
        twin = EpistemicState(
            EpistemicModel(vocab, ["u", "v"], [{p}, {p}], {}), {0, 1}
        )
        single = EpistemicState(EpistemicModel(vocab, ["w"], [{p}], {}), {0})
        assert canonical_key(twin) == canonical_key(single)

    def test_invariant_under_world_permutation(self):
        rng = random.Random(37)
        for _ in range(80):
            vocab = gen_vocab(rng)
            state = gen_state(rng, vocab, max_worlds=4)
            model = state.model
            n = model.n
            perm = list(range(n))
            rng.shuffle(perm)
            inverse = {perm[i]: i for i in range(n)}
            permuted = EpistemicModel(
                vocab,
                [model.world_names[perm[i]] for i in range(n)],
                [model.labels[perm[i]] for i in range(n)],
                {
                    agent: {(inverse[u], inverse[v]) for (u, v) in model.edges[agent]}
                    for agent in vocab.agents
                },
            )
            permuted_state = EpistemicState(
                permuted, {inverse[w] for w in state.designated}
            )
            assert canonical_key(permuted_state) == canonical_key(state)

    def test_key_equality_matches_bisimilarity(self):
        # The planner deduplicates by key, so this equivalence is what
        # makes search sound; exercised across directed two-agent models.
        rng = random.Random(41)
        vocab = Vocabulary(["p", "q"], ["a", "b"])
        states = [gen_state(rng, vocab, max_worlds=4) for _ in range(60)]
        keys = [canonical_key(s) for s in states]
        for i, s in enumerate(states):
            for j, t in enumerate(states):
                assert (keys[i] == keys[j]) == bisimilar(s, t)


class TestKeyOracle:
    """``canonical_key`` gives ``reference_update.canonical_key``'s bytes on
    generated initial states, each agent's local view of them and every
    successor of those under the task's actions, and each way of ordering
    the contracted worlds runs: one world, pairwise distinct first
    signatures (label and designated flag) with no refinement, and
    refinement (``_ranks``)."""

    def test_generated_tasks(self, monkeypatch):
        ranks = models_module._ranks
        ranked = []

        def counting(sigs):
            ranked.append(sigs)
            return ranks(sigs)

        monkeypatch.setattr(models_module, "_ranks", counting)
        paths = dict.fromkeys(("one world", "distinct", "refinement"), 0)
        rng = random.Random(2901)
        for _ in range(300):
            task = gen_task(rng, max_agents=3, max_worlds=4)
            states = [task.initial] + [local_state(task.initial, a) for a in task.vocab.agents]
            for state in list(states):
                states += [product_update(state, a) for a in applicable_actions(state, task.actions)]
            for state in states:
                before = len(ranked)
                assert canonical_key(state) == reference.canonical_key(state)
                c = bisim_contract(state)
                sigs = {(frozenset(c.model.labels[w]), w in c.designated) for w in range(c.model.n)}
                if c.model.n == 1:
                    path = "one world"
                else:
                    path = "distinct" if len(sigs) == c.model.n else "refinement"
                assert (len(ranked) > before) == (path == "refinement")
                paths[path] += 1
        assert all(paths.values()), paths


def _unmarked_copy(state):
    """The same state over a fresh model: no minimal or contracted mark."""
    m = state.model
    return EpistemicState(
        EpistemicModel(m.vocab, m.world_names, m.labels, m.edges), state.designated
    )


def _chains(k, copies):
    """``copies`` a-chains of k worlds labelled {p} and one unlabelled last
    world, designated at the first world; its first world also has an a-edge
    to each later chain's start."""
    vocab = Vocabulary(["p"], ["a"])
    p = vocab.atom("p")
    labels = ([{p}] * k + [set()]) * copies
    edges = [(c * (k + 1) + i, c * (k + 1) + i + 1) for c in range(copies) for i in range(k)]
    edges += [(0, c * (k + 1)) for c in range(1, copies)]
    names = [f"w{i}" for i in range(len(labels))]
    model = EpistemicModel(vocab, names, labels, {vocab.agent("a"): edges})
    return EpistemicState(model, {0})


def _walk_states(rng, tasks):
    """Initial states, successors and contracted successors, two steps deep,
    of fixed-seed generated tasks with up to three agents."""
    for _ in range(tasks):
        task = gen_task(rng, max_agents=3, max_worlds=4)
        frontier = [task.initial]
        for _ in range(2):
            nxt = []
            for state in frontier:
                yield state
                for action in applicable_actions(state, task.actions):
                    succ = product_update(state, action)
                    yield succ
                    nxt.append(bisim_contract(succ))
            frontier = nxt
        yield from frontier


class TestContractedMark:
    def test_marked_states_are_contracted(self):
        # Every state contraction returns is marked; a marked state comes
        # back as itself, has every world reachable, and refining an
        # unmarked copy merges nothing.
        rng = random.Random(79)
        marked = unmarked = 0
        for state in _walk_states(rng, 300):
            if state._contracted:
                marked += 1
            else:
                unmarked += 1
                c = bisim_contract(state)
                assert c._contracted
                oracle = reference.bisim_contract(_unmarked_copy(state))
                assert c == oracle and c.model.world_names == oracle.model.world_names
                state = c
            assert bisim_contract(state) is state
            assert state.model.reachable_from(state.designated) == frozenset(range(state.model.n))
            assert reference.bisim_contract(_unmarked_copy(state)).model.n == state.model.n
        assert marked > 500 and unmarked > 500

    def test_unreachable_or_mergeable_worlds_are_never_marked(self):
        vocab = Vocabulary(["p"], ["a"])
        p = vocab.atom("p")
        agent = vocab.agent("a")
        unreachable = EpistemicState(EpistemicModel(vocab, ["w0", "w1"], [{p}, set()], {}), {0})
        twins = EpistemicState(
            EpistemicModel(vocab, ["w0", "w1"], [{p}, {p}], {agent: [(0, 1), (1, 0)]}), {0}
        )
        for state in (unreachable, twins):
            c = bisim_contract(state)
            assert c is not state and c.model.n == 1
            assert c._contracted and not state._contracted
            assert bisim_contract(state) is not state

    @pytest.mark.parametrize("k", [2, 5, 20])
    def test_refinement_to_one_block_per_world_returns_the_state(self, k):
        # k worlds labelled {p} in an a-chain that ends in an unlabelled
        # world: they share a label, but refinement splits them apart.
        state = _chains(k, 1)
        assert bisim_contract(state) is state
        assert state._contracted and state.model._minimal

    @pytest.mark.parametrize("k", [2, 5, 20])
    def test_linked_chains_merge(self, k):
        # A second chain, reached from the first world, is bisimilar to the
        # first world by world.
        state = _chains(k, 2)
        c = bisim_contract(state)
        assert c.model.world_names == tuple(f"w{i}" for i in range(k + 1))
        assert c.designated == {0}
        expected = reference.bisim_contract(_chains(k, 2))
        assert c == expected and c.model.world_names == expected.model.world_names

    def test_contracting_a_copy_of_a_marked_state_gives_an_equal_state(self):
        rng = random.Random(83)
        for _ in range(200):
            state = bisim_contract(gen_state(rng, gen_vocab(rng, max_agents=3)))
            again = bisim_contract(EpistemicState(state.model, state.designated))
            assert again == state and again.model.world_names == state.model.world_names


class TestReachability:
    """The multi-source search against the per-world searches it replaced
    (``tests/reference_update.py``)."""

    def test_matches_reference(self):
        rng = random.Random(89)
        for state in _walk_states(rng, 200):
            model = state.model
            starts = sorted(state.designated)
            assert model.reachable_from(starts) == reference.reachable_from(model, starts)
            for w in range(model.n):
                assert model.union_reach(w) == reference.union_reach(model, w)
            for agent in model.vocab.agents:
                ours, theirs = local_state(state, agent), reference.local_state(state, agent)
                assert ours == theirs and not ours._contracted
