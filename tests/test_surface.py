"""Surface language: parsing, printing, round trips, error locations."""

import dataclasses

import pytest

from sitcalc import corpus_path, surface
from sitcalc.errors import ParseError, SitcalcError
from sitcalc.surface import (
    parse_bat,
    parse_formula,
    parse_ground_action,
    parse_ground_atom,
    parse_theory,
    render,
    render_theory_file,
)
from sitcalc.syntax import (
    Exists,
    FluentAtom,
    Forall,
    Iff,
    Implies,
    Not,
    Signature,
    Stage,
    StaticAtom,
    Theory,
    atoms_of,
)

SIG = Signature(
    objects=frozenset({"A", "B"}),
    statics=frozenset({("Block", 1), ("Z", 0)}),
    fluents=frozenset({("On", 2), ("Clear", 1), ("Q", 0)}),
    actions=frozenset({("move", 3), ("noop", 0)}),
)

ROUND_TRIPS = [
    "On(A, B)",
    "!Clear(A) & Clear(B) | Block(A)",
    "Block(A) -> Block(B) -> Z",
    "(Block(A) -> Block(B)) -> Z",
    "Z <-> Q",
    "forall x, y (On(x, y) -> Clear(x))",
    "forall x exists y On(x, y)",
    "exists x Block(x)",
    "A != B",
    "Clear'(A) & !Clear(A)",
    "forall x (x == A | x != B)",
]


class TestFormulaRoundTrips:
    @pytest.mark.parametrize("text", ROUND_TRIPS)
    def test_parse_then_render_is_stable(self, text):
        f = parse_formula(text, SIG, allow_free=True)
        assert render(f) == text

    def test_negated_equality_renders_with_disequality_sugar(self):
        f = parse_formula("!(A == B) & A == A", SIG)
        assert render(f) == "A != B & A == A"

    def test_implication_is_right_associative(self):
        f = parse_formula("Z -> Z -> Z", SIG)
        g = parse_formula("Z -> (Z -> Z)", SIG)
        assert f == g

    def test_and_binds_tighter_than_or_than_implies(self):
        f = parse_formula("Z & Q | Z -> Q", SIG)
        g = parse_formula("((Z & Q) | Z) -> Q", SIG)
        assert f == g

    def test_quantifier_body_is_tight(self):
        f = parse_formula("forall x Block(x) -> Z", SIG, allow_free=True)
        g = parse_formula("(forall x Block(x)) -> Z", SIG)
        assert f == g

    def test_primed_atom_is_next_stage(self):
        f = parse_formula("Clear'(A)", SIG)
        assert f.stage == Stage.NEXT
        assert render(f) == "Clear'(A)"


class TestDeepNesting:
    """Texts built directly, not by render, which still recurses.

    Results are checked by atom counts and by walking spines in a loop, never
    with == on a whole tree (see the deep fixture).
    """

    Z = StaticAtom("Z", ())
    Q = FluentAtom("Q", (), Stage.NOW)

    def test_nested_parentheses(self):
        f = parse_formula("(" * 10_000 + "Z" + ")" * 10_000, SIG)
        assert f == self.Z

    def test_conjunctions_nested_to_the_right(self):
        f = parse_formula("(Z & " * 3_000 + "Q" + ")" * 3_000, SIG)
        for _ in range(3_000):
            assert f.lhs == self.Z
            f = f.rhs
        assert f == self.Q

    def test_negation_chain(self):
        f = parse_formula("!" * 3_000 + "Z & Q", SIG)
        assert f.rhs == self.Q
        f = f.lhs
        for _ in range(3_000):
            assert isinstance(f, Not)
            f = f.body
        assert f == self.Z

    def test_alternating_quantifiers(self):
        binders = " ".join(f"{('forall', 'exists')[i % 2]} v{i}" for i in range(1_000))
        f = parse_formula(f"{binders} v0 == v999", SIG)
        for i in range(1_000):
            assert type(f) is (Forall, Exists)[i % 2] and f.var.name == f"v{i}"
            f = f.body
        assert sum(1 for _ in atoms_of(f)) == 1

    @pytest.mark.parametrize("op, node", [("->", Implies), ("<->", Iff)])
    def test_right_associative_chain(self, op, node):
        f = parse_formula(f" {op} ".join(["Z", "Q"] * 500), SIG)
        assert sum(1 for _ in atoms_of(f)) == 1_000
        for i in range(999):
            assert type(f) is node and f.lhs == (self.Z, self.Q)[i % 2]
            f = f.rhs
        assert f == self.Q


class TestGroundTerms:
    def test_ground_action_with_arguments(self):
        g = parse_ground_action("move(A, B, A)", SIG)
        assert g.fn == "move" and g.args == ("A", "B", "A")
        assert str(g) == "move(A, B, A)"

    def test_bare_nullary_action(self):
        g = parse_ground_action("noop", SIG)
        assert g.fn == "noop" and g.args == ()

    def test_ground_atom_stages(self):
        g = parse_ground_atom("On(A, B)", SIG)
        assert g.stage == Stage.NOW
        gn = parse_ground_atom("On'(A, B)", SIG)
        assert gn.stage == Stage.NEXT
        gs = parse_ground_atom("Block(A)", SIG)
        assert gs.stage is None

    def test_ground_atom_rejects_variables(self):
        with pytest.raises(ParseError):
            parse_ground_atom("On(A, x)", SIG)


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "On(A)",  # arity
            "On(A, B) &",  # dangling operator
            "forall On(A, B)",  # missing variable
            "Missing(A)",  # undeclared
            "On(A, B))",  # stray paren
            "move(A, B, A)",  # action term as formula
        ],
    )
    def test_errors_carry_source_spans(self, text):
        with pytest.raises(ParseError) as ei:
            parse_formula(text, SIG, allow_free=True)
        assert ei.value.span is not None
        assert ei.value.span.line == 1

    def test_reserved_words_cannot_be_declared(self):
        with pytest.raises(ParseError):
            parse_bat("object init;\n")

    def test_duplicate_declarations_are_rejected(self):
        with pytest.raises(ParseError):
            parse_bat("object A;\nobject A;\n")

    def test_init_block_must_be_current_stage(self):
        src = "object A;\nfluent F/1;\naction m/1;\nssa F(x) { pos: a == m(x); }\ninit { F'(A); }\n"
        with pytest.raises(ParseError) as ei:
            parse_bat(src)
        assert "next-stage" in str(ei.value)

    def test_bat_files_reject_theory_blocks_and_vice_versa(self):
        with pytest.raises(ParseError):
            parse_bat("static P/0;\ntheory { P; }\n")
        with pytest.raises(ParseError):
            parse_theory("static P/0;\ninit { P; }\n")

    @pytest.mark.parametrize(
        "parse, text, where",
        [
            # x was bound in an earlier sentence, so the parser has met it as a variable
            (parse_bat, "object A;\nfluent F/1;\ninit {\n  F(A);\n  forall x F(x);\n  F(A) | F(x);\n}\n",
             "6:3: free variables x in a sentence of init"),
            (parse_bat, "object A;\nfluent F/1;\ninit { x == A; }\n", "3:8: free variables x in a sentence of init"),
            (parse_theory, "object A;\nstatic P/1;\ntheory {\n  exists y P(y);\n    P(A) & P(y);\n}\n",
             "5:5: free variables y in a sentence of theory"),
            (parse_theory, "object A;\nstatic P/2;\ntheory { forall x P(x, z); }\n",
             "3:10: free variables z in a sentence of theory"),
            (parse_bat, "object A;\nfluent F/1;\naction m/1;\nposs m(x): F(x) & F(w);\n",
             "4:12: free variables w in the precondition for m"),
        ],
    )
    def test_loose_variables_are_reported_where_their_sentence_starts(self, parse, text, where):
        with pytest.raises(ParseError) as ei:
            parse(text)
        assert str(ei.value) == f"<input>:{where} (quantify them, or declare missing constants)"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("object A;\nfluent F/1;\naction m/1;\nssa F(x) { pos: a == m(x); }\nssa F(x) { neg: a == m(x); }\n",
             "5:5: duplicate ssa block for F"),
            ("object A;\nfluent F/1;\naction m/1;\nposs m(x): F(x);\nposs m(x): !F(x);\n",
             "5:6: duplicate poss block for m"),
            ("object A;\nfluent F/2;\naction m/1;\nssa F(x) { pos: a == m(x); }\n",
             "4:5: F declared with arity 2, ssa head has 1"),
            ("object A;\nfluent F/1;\naction m/2;\nssa F(x) { pos: a == m(x, y); }\n",
             "4:22: variable y in the action term is unbound"),
        ],
        ids=["duplicate-ssa", "duplicate-poss", "ssa-head-arity", "unbound-action-argument"],
    )
    def test_block_errors_name_the_block(self, text, message):
        with pytest.raises(ParseError) as ei:
            parse_bat(text, "f.bat")
        assert str(ei.value) == f"f.bat:{message}"

    def test_an_unknown_corpus_name_lists_the_bundled_files(self):
        bundled = sorted(p.name for p in corpus_path("blocks_world.bat").parent.glob("*.bat"))
        assert "blocks_world.bat" in bundled and "propositional_chain.bat" in bundled
        with pytest.raises(SitcalcError) as ei:
            corpus_path("nope.bat")
        assert str(ei.value) == f"no bundled file 'nope.bat'; available: {', '.join(bundled)}"

    def test_free_variables_rejected_unless_allowed(self):
        with pytest.raises(ParseError):
            parse_formula("Block(x)", SIG)
        f = parse_formula("Block(x)", SIG, allow_free=True)
        assert render(f) == "Block(x)"


class TestRenderTheory:
    def test_a_theory_renders_one_axiom_a_line(self):
        axioms = ("On(A, B)", "forall x (Block(x) -> Clear(x))", "!Z")
        t = Theory(tuple(parse_formula(a, SIG) for a in axioms))
        assert render(t) == "On(A, B);\nforall x (Block(x) -> Clear(x));\n!Z;\n"
        assert render(Theory(())) == ""


class TestFileRoundTrips:
    @pytest.mark.parametrize(
        "name",
        [
            "bw_pipeline.bat",
            "blocks_world.bat",
            "blocks_stacks.bat",
            "blocks_stacks_raw.bat",
            "decomp_lost.bat",
            "insep_lost.bat",
            "split_lost.bat",
        ],
    )
    def test_bat_render_reparse_fixpoint(self, name):
        b = parse_bat(corpus_path(name).read_text(), name)
        text = render(b)
        b2 = parse_bat(text, name)
        assert render(b2) == text
        assert b2.sig == b.sig
        assert b2.init == b.init
        assert b2.ssas == b.ssas
        assert b2.preconditions == b.preconditions

    @pytest.mark.parametrize(
        "name",
        ["propositional_chain.bat", "insep_forgetting_t1.bat", "insep_forgetting_t2.bat"],
    )
    def test_theory_render_reparse_fixpoint(self, name):
        sig, t = parse_theory(corpus_path(name).read_text(), name)
        text = render_theory_file(sig, t)
        sig2, t2 = parse_theory(text, name)
        assert render_theory_file(sig2, t2) == text
        assert (sig2, t2) == (sig, t)

    def test_only_an_action_theory_computes_source_positions(self, monkeypatch):
        # positions are for a BAT's spans and for errors; a valid theory
        # file needs none, and a BAT computes its spans when they are read
        calls = []
        span = surface.SourceSpan
        monkeypatch.setattr(surface, "SourceSpan", lambda *a: calls.append(a) or span(*a))
        for name in ("insep_forgetting_t1.bat", "insep_forgetting_t2.bat", "propositional_chain.bat"):
            parse_theory(corpus_path(name).read_text(), name)
        assert calls == []
        b = parse_bat(corpus_path("blocks_stacks.bat").read_text(), "blocks_stacks.bat")
        assert calls == []
        moved = dataclasses.replace(b, init=Theory(()))
        assert calls == []
        assert moved.span_of("ssa:Top") == b.span_of("ssa:Top")
        assert len(calls) == len(b.spans) > 0
        assert b.span_of("init:0") is not None and len(calls) == len(b.spans)
        assert dataclasses.replace(b, spans=()).spans == ()

    def test_declarations_recorded_with_spans(self):
        b = parse_bat(corpus_path("blocks_stacks.bat").read_text(), "blocks_stacks.bat")
        span = b.span_of("ssa:Top")
        assert span is not None and span.path == "blocks_stacks.bat"
        assert b.span_of("poss:pop") is not None
        assert b.span_of("nothing:here") is None
