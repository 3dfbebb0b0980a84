"""The surface parser against the reference parser in surface_reference.

That is the parser as it was before token texts came from one regex pass:
per-token positions from a finditer tokenizer, and formulas read by a
recursive-descent cascade.  Both parse the same texts: the corpus, rendered
property-suite theories and formulas, hand-written texts that exercise the
scanner (CRLF line ends, tabs, comments, bad characters, primes, numbers),
complete ground blocks worlds and theory files of literals, which the
parser reads by its short path for ground literals, and seeded one-edit
mutations of all of them.  For each text and entry point they must return
equal objects with equal spans, or raise the same exception type with the
same message, source span included.
"""

import random
import re

import pytest
import surface_reference
from blocks_worlds import ground_world_text
from test_property_suites import SEEDS, random_formula, random_theory

from sitcalc import corpus_path, surface
from sitcalc.surface import parse_bat, render, render_theory_file
from sitcalc.syntax import Iff, Not, Signature

CORPUS = sorted(p.name for p in corpus_path("blocks_stacks.bat").parent.glob("*.bat"))

# the property-suite vocabulary: P/1, R/2 and the constants c1..c3
SIG = Signature(
    objects=frozenset({"c1", "c2", "c3"}),
    statics=frozenset({("P", 1), ("R", 2)}),
    fluents=frozenset(),
    actions=frozenset(),
)

TOKENS = ("(", ")", "!", "&", "|", "->", "<->", "forall x", "exists y", ",", ";",
          "==", "!=", "true", "x", "@", "//", "'", "7", "\r\n")
TOKEN_RE = re.compile(r"<->|->|==|!=|[A-Za-z_][A-Za-z0-9_]*'?|\S")
MUTATIONS = 3_600
CHUNKS = 12


# Texts that exercise the scanner rather than the grammar.
_STACKS = corpus_path("blocks_stacks.bat").read_text()
EDGE_FILES = [
    _STACKS.replace("\n", "\r\n"),
    _STACKS.replace("  ", "\t"),
    "object A;\nfluent F/1;\ntheory {\n  F(A);\n  F'(A) -> !F(A);\n}\n// no newline after this",
    "object A;\nstatic P/1;\ntheory {\n  P(A) P(A);\n  P(@);\n}\n#\n",
    "object A;\r\nstatic P/1;\r\ntheory {\r\n\tP(A;\r\n}\r\n\f",
    "object A, B;\nstatic Block/1;\nfluent On/2;\ntheory {\n  On'(A, B) <-> On(A, B);"
    "\n  forall x (Block(x) -> On'(x, A)); // primed\n}\n",
    "object A;\nstatic P/12, Q/0;\n\ttheory { Q; P(A, 3); }",
    "object A;\nfluent P/1;\naction go/1;\ninit {\n  P(A);\n}\nssa P(x) { pos: a == go(2); }\n",
    "",
    "  \r\n\t// only a comment",
    # a name bound as a variable, then declared as a constant
    "object A;\nstatic P/1;\ninit {\n  forall x P(x);\n}\nobject x;\ninit {\n  P(x);\n}\n",
    # literals that the short path leaves to the formula parser
    "object A, B;\nfluent On/2;\ninit {\n  On(A, B);\n  !(On'(A, B));\n}\n",
    "object A, B;\nfluent On/2;\nstatic P/0;\ntheory {\n  On(A, B);\n  On(A, B, A);\n  P();\n}\n",
    "object A, B;\nfluent On/2;\ntheory {\n  On(A, B);\n  !!On(A, B);\n  (!On(A, B));\n  On(A, B) & On(B, A);\n"
    "  On(A, B)) ;\n}\n",
    "object A, B;\nfluent On/2;\naction go/0;\ntheory {\n  On(A, B);\n  go;\n  A;\n  On(A, x);\n}\n",
    # variables that an ssa block bound are known names, but not constants
    "object A;\nfluent On/2;\naction go/1;\nssa On(x, y) { pos: a == go(x); }\ninit {\n  On(A, A);\n  On(x, A);\n}\n",
    "object A;\nfluent On/2;\naction go/1;\nssa On(x, y) { pos: a == go(x); }\ninit {\n  On(A, A);\n  !(On(A, y));\n}\n",
]
EDGE_FORMULAS = [
    "P(c1)\t&\r\n  R(c1, c2) // a comment to the end",
    "forall x (P(x) -> P(c1)) @ P(c2) )",
    "exists y R(y, y) & P(c1'))\f",
    "R(c1, 2) | P(c3)",
]
SIG_ACTIONS = Signature(
    objects=frozenset({"A", "B"}),
    statics=frozenset({("Block", 1)}),
    fluents=frozenset({("On", 2)}),
    actions=frozenset({("move", 3), ("stop", 0)}),
)
GROUND = ["move(A, B, A)", "move(A,\tB,\r\nA) // c", "stop", "stop()", "move(A, B)",
          "On'(A, B)", "On(A, @)", "Block(B) x", "Block'(A)", "move(A, B, 3)", "On(A,\fB)"]


# Complete ground worlds: every sentence of the init block is a ground
# literal, written !On(B0, T) and, as the benchmark writes them, !(On(B0, T)).
WORLD_SIZES = (1, 2, 3, 5, 8, 13, 24)
WORLD_MUTATIONS = 480
WORLD_CHUNKS = 4


def _world(n, parenthesized):
    text = ground_world_text(random.Random(9000 + n), n)[0]
    return re.sub(r"!(\w+\([^)]*\))", r"!(\1)", text) if parenthesized else text


def _literal_theory(seed):
    """A theory file of literal sentences over constants: fluent atoms with
    and without a prime, statics, nullary predicates, each with or without
    ! and parentheses, and a declaration between two theory blocks, after
    which the constants are met anew."""
    rng = random.Random(9500 + seed)
    preds = [("On", 2, True), ("Clear", 1, True), ("Lit", 0, True), ("Block", 1, False), ("Q", 0, False)]
    consts = ["A", "B", "C"]

    def sentence():
        name, ar, fluent = rng.choice(preds)
        atom = name + ("'" if fluent and rng.random() < 0.5 else "")
        if ar:
            atom += f"({', '.join(rng.choice(consts) for _ in range(ar))})"
        return "  " + rng.choice(["{}", "!{}", "({})", "!({})"]).format(atom) + ";"

    def block():
        return ["theory {", *(sentence() for _ in range(rng.randint(1, 12))), "}"]

    return "\n".join([
        "object A, B, C;", "static Block/1, Q/0;", "fluent On/2, Clear/1, Lit/0;",
        *block(), "object D;", *block(),
    ]) + "\n"


def _outcome(fn, *args, **kwargs):
    try:
        result = fn(*args, **kwargs)
        return "ok", result, getattr(result, "spans", None)  # BAT equality skips spans
    except Exception as e:  # compared, not swallowed: both sides must agree
        return "error", type(e), str(e)


def _file_outcomes(m, text):
    return [_outcome(fn, text, "f.bat") for fn in (m.parse_bat, m.parse_theory)]


def _formula_outcomes(m, text, allow_free):
    return [_outcome(m.parse_formula, text, SIG, allow_free=allow_free)]


def _ground_outcomes(m, text):
    return [_outcome(fn, text, SIG_ACTIONS) for fn in (m.parse_ground_action, m.parse_ground_atom)]


def _check(parse, *args):
    """parse(module, *args) under both parsers: (our outcomes, a difference or None)."""
    ours = parse(surface, *args)
    ref = parse(surface_reference, *args)
    return ours, None if ours == ref else (args, ours, ref)


def _formula(seed):
    rng = random.Random(7000 + seed)
    f, g, h = (random_formula(rng, 3, [], ("P", "R", "=")) for _ in range(3))
    # the property suites build no Iff; chain some of their formulas with it
    return render((f, Iff(f, Iff(g, h)), Iff(Iff(f, Not(g)), h))[seed % 3])


def _theory_file(seed):
    return render_theory_file(SIG, random_theory(random.Random(8000 + seed)))


def _bases():
    """Texts to mutate: the corpus and the scanner texts, rendered theory files,
    and rendered formulas with the scanner formulas."""
    corpus = [corpus_path(n).read_text() for n in CORPUS] + EDGE_FILES
    formulas = [_formula(s) for s in SEEDS] + EDGE_FORMULAS
    return corpus, [_theory_file(s) for s in SEEDS], formulas


def _mutate(rng, text):
    toks = [m.span() for m in TOKEN_RE.finditer(text)]
    kind = rng.randrange(3) if toks else 1
    if kind == 0:  # delete one character
        i = rng.randrange(len(text))
        return text[:i] + text[i + 1:]
    tok = f" {rng.choice(TOKENS)} "
    if kind == 1:  # insert a token between two others
        i = rng.choice([s for s, _ in toks] + [len(text)])
        return text[:i] + tok + text[i:]
    s, e = rng.choice(toks)  # substitute a token
    return text[:s] + tok + text[e:]


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_parses_alike(name):
    ours, diff = _check(_file_outcomes, corpus_path(name).read_text())
    assert diff is None
    assert ("ok",) in [o[:1] for o in ours]


def test_corpus_spans_are_kept():
    bat = parse_bat(_STACKS, "f.bat")
    assert bat.spans and bat.spans == surface_reference.parse_bat(_STACKS, "f.bat").spans


@pytest.mark.parametrize("i", range(len(EDGE_FILES)))
def test_scanner_texts_parse_alike(i):
    assert _check(_file_outcomes, EDGE_FILES[i])[1] is None


@pytest.mark.parametrize("i", range(len(EDGE_FORMULAS)))
def test_scanner_formulas_parse_alike(i):
    for allow_free in (False, True):
        assert _check(_formula_outcomes, EDGE_FORMULAS[i], allow_free)[1] is None


@pytest.mark.parametrize("text", GROUND)
def test_ground_actions_and_atoms_parse_alike(text):
    assert _check(_ground_outcomes, text)[1] is None


def test_a_bad_character_wins_over_an_earlier_syntax_error():
    for text, (line, col, ch) in ((EDGE_FILES[3], (5, 5, "@")), (EDGE_FILES[4], (6, 1, "\f"))):
        outcomes = _check(_file_outcomes, text)[0]
        assert [o[2] for o in outcomes] == [f"f.bat:{line}:{col}: unexpected character {ch!r}"] * 2


@pytest.mark.parametrize("seed", SEEDS)
def test_rendered_property_cases_parse_alike(seed):
    assert _check(_file_outcomes, _theory_file(seed))[1] is None
    for allow_free in (False, True):
        assert _check(_formula_outcomes, _formula(seed), allow_free)[1] is None


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_mutated_texts_parse_alike(chunk):
    corpus, files, formulas = _bases()
    diffs, parsed = [], 0
    for k in range(chunk, MUTATIONS, CHUNKS):
        rng = random.Random(k)
        if k % 2:
            args = (_mutate(rng, rng.choice(corpus if k % 4 == 1 else files)),)
            parse = _file_outcomes
        else:
            args = (_mutate(rng, rng.choice(formulas)), k % 4 == 0)
            parse = _formula_outcomes
        ours, diff = _check(parse, *args)
        if diff is not None:
            diffs.append(diff)
        parsed += ("ok",) in [o[:1] for o in ours]
    assert diffs == []
    # most one-edit mutations are errors, but not all
    assert 0 < parsed < MUTATIONS // CHUNKS


@pytest.mark.parametrize("n", WORLD_SIZES)
def test_ground_worlds_parse_alike(n):
    for parenthesized in (False, True):
        ours, diff = _check(_file_outcomes, _world(n, parenthesized))
        assert diff is None
        assert ours[0][0] == "ok"


@pytest.mark.parametrize("seed", range(8))
def test_literal_theory_files_parse_alike(seed):
    ours, diff = _check(_file_outcomes, _literal_theory(seed))
    assert diff is None
    assert ours[1][0] == "ok"


@pytest.mark.parametrize("chunk", range(WORLD_CHUNKS))
def test_mutated_literal_texts_parse_alike(chunk):
    worlds = [_world(n, p) for n in WORLD_SIZES for p in (False, True)]
    theories = [_literal_theory(seed) for seed in range(8)]
    diffs, parsed = [], 0
    for k in range(chunk, WORLD_MUTATIONS, WORLD_CHUNKS):
        rng = random.Random(50_000 + k)
        ours, diff = _check(_file_outcomes, _mutate(rng, rng.choice(worlds if k % 2 else theories)))
        if diff is not None:
            diffs.append(diff)
        parsed += ("ok",) in [o[:1] for o in ours]
    assert diffs == []
    assert 0 < parsed < WORLD_MUTATIONS // WORLD_CHUNKS
