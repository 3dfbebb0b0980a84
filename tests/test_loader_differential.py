"""parse_file against the loader it replaced.

That loader ran parse_bat, and when the error named a theory block it
started again with parse_theory.  It is kept here as the reference, over the
parsers of surface_reference.  parse_file decides the kind in one pass; for
each text it must return equal signatures, theories and BATs (spans
included), or raise the same exception type with the same message, source
span included.  The texts are the corpus, the scanner texts, rendered
property-suite theories, files that mix theory blocks with ssa, poss and init
blocks, and seeded one-edit mutations of all of them.
"""

import random

import pytest
import surface_reference
from test_property_suites import SEEDS
from test_surface_differential import CORPUS, EDGE_FILES, MUTATIONS, _bases, _mutate, _theory_file

from sitcalc import corpus_path
from sitcalc.errors import ParseError
from sitcalc.surface import parse_file

DECLS = "object A;\nfluent F/1;\naction go/1;\n"
MIXED = [
    # an init block with a syntax error before a theory block
    DECLS + "init {\n  F(A;\n}\ntheory {\n  F(A);\n}\n",
    # a valid init block, then a theory block
    DECLS + "init {\n  F(A);\n}\ntheory {\n  F'(A);\n}\n",
    # a theory block, then an init block
    DECLS + "theory {\n  F'(A);\n}\ninit {\n  F(A);\n}\n",
    DECLS + "ssa F(x) { pos: a == go(x); }\nposs go(x): F(x);\ntheory { F(A); }\n",
    DECLS + "poss go(x): F(x);\nobject B;\ntheory { F(B); }\nssa F(x) { }\n",
    DECLS + "theory { F(A); }\nobject B;\ntheory { F'(B); }\n",
    DECLS + "theory { F(A); }\nposs go(x): F(x);\n",
    DECLS + "theory { F(A) }\ninit { }\n",
    DECLS + "init { }\ntheory { F(A) }\n",
    DECLS + "init { F'(A); }\ntheory { F(A); }\n",
    DECLS + "theory { F(A); }\n@\n",
    DECLS + "theory { F(A); }\nA;\n",
    DECLS + "A;\ntheory { F(A); }\n",
    DECLS + "ssa G(x) { }\ntheory { F(A); }\n",
    "theory theory",
    "init",
    "theory",
]
MIXED_MUTATIONS = 1_200
CHUNKS = 6


def two_try(text, path):
    """The loader before parse_file: parse twice when the first parse fails
    on a theory block."""
    try:
        b = surface_reference.parse_bat(text, path)
        return b.sig, b.init, b
    except ParseError as e:
        if "theory block" not in str(e):
            raise
    sig, t = surface_reference.parse_theory(text, path)
    return sig, t, None


def outcome(load, text):
    try:
        sig, t, b = load(text, "f.bat")
        return "ok", sig, t, b, b and b.spans  # BAT equality skips spans
    except Exception as e:  # compared, not swallowed: both sides must agree
        return "error", type(e), str(e)


def differences(texts):
    return [(text, ours, ref) for text in texts
            if (ours := outcome(parse_file, text)) != (ref := outcome(two_try, text))]


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_loads_alike(name):
    text = corpus_path(name).read_text()
    assert differences([text]) == []
    assert outcome(parse_file, text)[0] == "ok"


def test_scanner_texts_load_alike():
    assert differences(EDGE_FILES) == []


def test_rendered_property_theories_load_alike():
    texts = [_theory_file(seed) for seed in SEEDS]
    assert differences(texts) == []
    assert all(outcome(parse_file, text)[3] is None for text in texts)


@pytest.mark.parametrize("i", range(len(MIXED)))
def test_mixed_blocks_load_alike(i):
    assert differences([MIXED[i]]) == []


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_mutated_texts_load_alike(chunk):
    corpus, files, _ = _bases()
    texts = []
    # the file texts of test_surface_differential's mutations, seed for seed
    for k in range(1 + 2 * chunk, MUTATIONS, 2 * CHUNKS):
        rng = random.Random(k)
        texts.append(_mutate(rng, rng.choice(corpus if k % 4 == 1 else files)))
    for k in range(chunk, MIXED_MUTATIONS, CHUNKS):
        rng = random.Random(90_000 + k)
        texts.append(_mutate(rng, rng.choice(MIXED)))
    assert differences(texts) == []
    kinds = {outcome(parse_file, text)[0] for text in texts}
    assert kinds == {"ok", "error"}
