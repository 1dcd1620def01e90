"""The epistemic language and its truth definition."""

import os
import random
import subprocess
import sys
import textwrap

import pytest

from conftest import SRC_DIR, gen_formula, gen_state, gen_vocab
from eplan import (
    And,
    BOTTOM,
    Common,
    ConsistencyError,
    Knows,
    LiteralConjunction,
    ModelError,
    Not,
    Or,
    Prop,
    TOP,
    Vocabulary,
    VocabularyError,
    and_all,
    eval_state,
    eval_world,
    product_update,
    render_formula,
)
from eplan.dsl import parse_formula
from eplan.logic import _eval, validate_over


@pytest.fixture
def m(po2):
    """The two-world model: father at home, present at PO1 or PO2."""
    return po2.initial.model


def atom(vocab, name):
    return Prop(vocab.atom(name))


class TestEvalWorld:
    def test_actual_world_satisfies_its_label(self, po2, m):
        # w2 is the world where the present is at PostOffice2.
        assert eval_world(m, 1, atom(po2.vocab, "At(Present,PostOffice2)"))

    def test_top_everywhere(self, m):
        assert eval_world(m, 0, TOP)
        assert eval_world(m, 1, TOP)
        assert not eval_world(m, 1, BOTTOM)

    def test_father_does_not_know_location(self, po2, m):
        # Oracle: enumerate the Father-successors of w2 and conjoin by hand.
        father = po2.vocab.agent("Father")
        phi = atom(po2.vocab, "At(Present,PostOffice2)")
        successors = m.successors(father, 1)
        assert successors == (0, 1)
        by_hand = all(eval_world(m, v, phi) for v in successors)
        assert by_hand is False
        assert eval_world(m, 1, Knows(father, phi)) is False

    def test_unknown_world_rejected(self, m):
        with pytest.raises(ModelError):
            eval_world(m, 7, TOP)

    def test_foreign_atom_rejected(self, m):
        other = Vocabulary(["x"], ["Father"])
        with pytest.raises(VocabularyError):
            eval_world(m, 0, Prop(other.atom("x")))


class TestEvalState:
    def test_father_knows_he_is_home(self, po2):
        assert eval_state(po2.initial, atom(po2.vocab, "At(Father,Home)"))

    def test_present_location_unknown(self, po2):
        assert not eval_state(po2.initial, atom(po2.vocab, "At(Present,PostOffice1)"))
        assert not eval_state(po2.initial, atom(po2.vocab, "At(Present,PostOffice2)"))

    def test_disjunction_of_locations_known(self, po2):
        phi = Or(
            atom(po2.vocab, "At(Present,PostOffice1)"),
            atom(po2.vocab, "At(Present,PostOffice2)"),
        )
        assert eval_state(po2.initial, phi)

    def test_knows_whether_after_visiting_po1(self, po2):
        # s' : go to PO1, try the pickup, come home. The father now knows
        # whether the present is at PO2 even though both worlds remain
        # designated (the link was cut at run time).
        s = po2.initial
        for name in (
            "Go(Father,Home,PostOffice1)",
            "TryPickUp(Father,Present,PostOffice1)",
            "Go(Father,PostOffice1,Home)",
        ):
            s = product_update(s, po2.action_named(name))
        father = po2.vocab.agent("Father")
        p = atom(po2.vocab, "At(Present,PostOffice2)")
        knows_whether = Or(Knows(father, p), Knows(father, Not(p)))
        assert eval_state(s, knows_whether)
        assert not eval_state(po2.initial, knows_whether)


class TestCommonKnowledge:
    def test_common_over_union_reachability(self):
        vocab = Vocabulary(["p"], ["a", "b"])
        p = vocab.atom("p")
        a, b = vocab.agents
        # w0 -a- w1 -b- w2; p everywhere except w2.
        from eplan import EpistemicModel

        model = EpistemicModel(
            vocab,
            ["w0", "w1", "w2"],
            [{p}, {p}, set()],
            {a: [(0, 1), (1, 0)], b: [(1, 2), (2, 1)]},
        )
        assert eval_world(model, 0, Knows(a, Prop(p)))
        assert not eval_world(model, 0, Common(Prop(p)))
        assert eval_world(model, 0, Common(Or(Prop(p), Not(Prop(p)))))

    def test_common_implies_knows_at_reachable(self):
        rng = random.Random(7)
        for _ in range(60):
            vocab = gen_vocab(rng)
            state = gen_state(rng, vocab)
            phi = gen_formula(rng, vocab, 2)
            model = state.model
            for w in range(model.n):
                if eval_world(model, w, Common(phi)):
                    for v in model.closure((w,), vocab.agents):
                        for agent in vocab.agents:
                            assert eval_world(model, v, Knows(agent, phi))


class TestValidateOver:
    def test_names_first_foreign_name_in_reading_order(self):
        vocab = Vocabulary(["p"], ["a"])
        other = Vocabulary(["q", "r"], ["b", "c"])
        q, r = (Prop(x) for x in other.atoms)
        with pytest.raises(VocabularyError, match="agent b not in vocabulary"):
            validate_over(vocab, And(Knows(other.agent("b"), q), r))
        with pytest.raises(VocabularyError, match="atom q not in vocabulary"):
            validate_over(vocab, And(q, Knows(other.agent("b"), r)))

    def test_error_is_independent_of_hash_seed(self):
        script = textwrap.dedent(
            """
            from eplan import And, Prop, Vocabulary, VocabularyError
            from eplan.logic import _eval, validate_over
            q, r, s = (Prop(a) for a in Vocabulary(["q", "r", "s"], []).atoms)
            try:
                validate_over(Vocabulary(["p"], []), And(And(q, r), s))
            except VocabularyError as exc:
                print(exc)
            """
        )
        for seed in range(1, 7):
            env = dict(os.environ, PYTHONHASHSEED=str(seed))
            env["PYTHONPATH"] = os.pathsep.join(
                [str(SRC_DIR), *filter(None, env.get("PYTHONPATH", "").split(os.pathsep))]
            )
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env
            )
            assert proc.stdout == "atom q not in vocabulary\n", (seed, proc.stderr)


class TestFormulaBasics:
    def test_desugar_preserves_truth(self):
        # Or is evaluated directly; it agrees with its definition
        # !(!left & !right) at every world.
        rng = random.Random(3)
        for _ in range(80):
            vocab = gen_vocab(rng)
            state = gen_state(rng, vocab)
            left, right = gen_formula(rng, vocab, 2), gen_formula(rng, vocab, 2)
            primitive = Not(And(Not(left), Not(right)))
            for w in range(state.model.n):
                assert eval_world(state.model, w, Or(left, right)) == eval_world(
                    state.model, w, primitive
                )

    def test_and_distributes_over_state_eval(self):
        rng = random.Random(11)
        for _ in range(80):
            vocab = gen_vocab(rng)
            state = gen_state(rng, vocab)
            phi = gen_formula(rng, vocab, 2)
            psi = gen_formula(rng, vocab, 2)
            assert eval_state(state, And(phi, psi)) == (
                eval_state(state, phi) and eval_state(state, psi)
            )

    def test_evaluation_is_pure(self):
        rng = random.Random(5)
        vocab = gen_vocab(rng)
        state = gen_state(rng, vocab)
        phi = gen_formula(rng, vocab, 3)
        first = eval_state(state, phi)
        for _ in range(5):
            assert eval_state(state, phi) == first

    def test_flat_chains_evaluate_in_reading_order(self, m):
        # A 3,000-operand chain of one connective evaluates whichever way it
        # nests. Operands are read left to right and the first one that
        # decides the chain ends it: the non-formula after it is never read,
        # and one before it is.
        home = atom(m.vocab, "At(Father,Home)")
        left = right = home
        for _ in range(2999):
            left, right = And(left, home), And(home, right)
        assert _eval(m, 0, left) and _eval(m, 0, right)
        assert _eval(m, 0, Or(Or(BOTTOM, home), "junk")) is True
        assert _eval(m, 0, And(And(home, BOTTOM), "junk")) is False
        with pytest.raises(TypeError, match="junk"):
            _eval(m, 0, And(And("junk", BOTTOM), home))

    def test_and_all_nests_as_the_parser_reads(self):
        # and_all folds left, as the parser nests `p & q & !r`: its text
        # needs no parentheses, and a long chain renders without recursion.
        vocab = Vocabulary(["p", "q", "r"], ["a"])
        p, q, r = (Prop(a) for a in vocab.atoms)
        phi = and_all([p, q, Not(r)])
        assert phi == And(And(p, q), Not(r))
        assert render_formula(phi) == "p & q & !r"
        assert parse_formula("p & q & !r", vocab) == phi
        assert render_formula(and_all([p] * 3000)) == " & ".join(["p"] * 3000)

    def test_long_chains_compare_and_hash_without_recursion(self):
        # Equality and hashing walk the formula: 3,000-conjunct chains,
        # built or parsed, compare and hash, and formulas that differ only
        # in nesting, in one atom or agent, or in a connective differ.
        vocab = Vocabulary(["p", "q"], ["a", "b"])
        p, q = (Prop(x) for x in vocab.atoms)
        a, b = vocab.agents
        chain = and_all([p] * 3000)
        text = " & ".join(["p"] * 3000)
        assert chain == and_all([p] * 3000) and hash(chain) == hash(and_all([p] * 3000))
        assert parse_formula(text, vocab) == parse_formula(text, vocab) == chain
        assert chain != and_all([p] * 2999 + [q])
        assert And(And(p, p), p) != And(p, And(p, p))
        assert Knows(a, p) != Knows(b, p) and And(p, q) != Or(p, q)
        assert {Common(Not(p)), Common(Not(Prop(vocab.atom("p"))))} == {Common(Not(p))}
        assert p != "p"

    def test_bot_parses_renders_and_evaluates(self, po2):
        phi = parse_formula("bot", po2.vocab)
        assert phi == BOTTOM
        assert render_formula(phi) == "bot"
        assert eval_state(po2.initial, phi) is False
        either = parse_formula("!bot | bot", po2.vocab)
        assert either == Or(Not(BOTTOM), BOTTOM)
        assert render_formula(either) == "!bot | bot"
        assert eval_state(po2.initial, either) is True

    def test_render_parse_round_trip(self):
        rng = random.Random(13)
        vocab = Vocabulary(["p0", "p1", "At(x,y)"], ["a0", "a1"])
        for _ in range(100):
            phi = gen_formula(rng, vocab, 3)
            assert parse_formula(render_formula(phi), vocab) == phi


class TestLiteralConjunction:
    def test_rejects_contradiction(self):
        vocab = Vocabulary(["p"], ["a"])
        p = vocab.atom("p")
        with pytest.raises(ConsistencyError):
            LiteralConjunction(frozenset({p}), frozenset({p}))

    def test_empty_is_top(self):
        lc = LiteralConjunction()
        assert lc == LiteralConjunction(frozenset(), frozenset())
        assert lc.to_formula() == TOP
        assert lc.holds_in(frozenset())

    def test_from_formula_accepts_literal_shapes(self):
        vocab = Vocabulary(["p", "q"], ["a"])
        p, q = vocab.atoms
        lc = LiteralConjunction.from_formula(And(Prop(p), Not(Prop(q))))
        assert lc.positives == {p} and lc.negatives == {q}

    def test_from_formula_rejects_disjunction(self):
        vocab = Vocabulary(["p", "q"], ["a"])
        p, q = (Prop(a) for a in vocab.atoms)
        with pytest.raises(ConsistencyError):
            LiteralConjunction.from_formula(Or(p, q))

    def test_apply_deletes_then_adds(self):
        vocab = Vocabulary(["p", "q"], ["a"])
        p, q = vocab.atoms
        lc = LiteralConjunction(frozenset({q}), frozenset({p}))
        assert lc.apply_to(frozenset({p})) == {q}
