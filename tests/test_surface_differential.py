"""The surface parser against the recursive-descent cascade it replaced.

Both parse the same texts: the corpus, rendered property-suite theories and
formulas, and seeded one-edit mutations of all of them.  For each text and
entry point they must return equal objects, or raise the same exception
type with the same message, source span included.
"""

import random
import re

import pytest
from surface_reference import reference
from test_property_suites import SEEDS, random_formula, random_theory

from sitcalc import corpus_path
from sitcalc.surface import parse_bat, parse_formula, parse_theory, render, render_theory_file
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
          "==", "!=", "true", "x")
TOKEN_RE = re.compile(r"<->|->|==|!=|[A-Za-z_][A-Za-z0-9_]*'?|\S")
MUTATIONS = 3_600
CHUNKS = 12


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as e:  # compared, not swallowed: both sides must agree
        return "error", type(e), str(e)


def _file_outcomes(text):
    return [_outcome(fn, text, "f.bat") for fn in (parse_bat, parse_theory)]


def _formula_outcomes(text, allow_free):
    return [_outcome(parse_formula, text, SIG, allow_free=allow_free)]


def _check(parse, *args):
    """parse(*args) under both parsers: (our outcomes, a difference or None)."""
    ours = parse(*args)
    ref = reference(parse, *args)
    return ours, None if ours == ref else (args, ours, ref)


def _formula(seed):
    rng = random.Random(7000 + seed)
    f, g, h = (random_formula(rng, 3, [], ("P", "R", "=")) for _ in range(3))
    # the property suites build no Iff; chain some of their formulas with it
    return render((f, Iff(f, Iff(g, h)), Iff(Iff(f, Not(g)), h))[seed % 3])


def _theory_file(seed):
    return render_theory_file(SIG, random_theory(random.Random(8000 + seed)))


def _bases():
    """Texts to mutate: the corpus, rendered theory files, rendered formulas."""
    corpus = [corpus_path(n).read_text() for n in CORPUS]
    return corpus, [_theory_file(s) for s in SEEDS], [_formula(s) for s in SEEDS]


def _mutate(rng, text):
    toks = [m.span() for m in TOKEN_RE.finditer(text)]
    kind = rng.randrange(3)
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
