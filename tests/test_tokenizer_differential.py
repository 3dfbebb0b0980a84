"""The parser's token texts against the whole-text regex they replace.

surface._tokens cuts comments, spaces the punctuation apart and splits at
blanks, and runs a regex only inside a chunk that is not one token.  The
reference is the one findall pass over the whole text that the parser made
before, with the same blanks and token patterns: the token lists must be
equal, so the positions that _SCAN computes, the bad character reported
and every error message stay the same.  Inputs are the corpus, whose files
all have comments, the benchmark generators' texts, their CRLF and tab
variants, the same texts without comments and blanks, seeded insertions
of operator fragments, bad characters and blanks that str.split() takes
for blanks but the tokenizer does not, and texts that end without a
newline or inside a comment.
"""

import random
import re
import sys
from pathlib import Path

import pytest

from sitcalc import corpus_path, surface

_TOKENS = re.compile(f"{surface._BLANKS}({surface._TOKEN})", re.DOTALL)

CORPUS = sorted(p.name for p in corpus_path("blocks_world.bat").parent.glob("*.bat"))
INSERTS = list("!=-<>&|;:{}/,'#.é") + ["\x0b", "\x0c", "\xa0", "//", " // ", "\r\n", "\t"]


def reference(text):
    toks = _TOKENS.findall(text)
    if len(toks) > 1 and not toks[-2]:
        toks.pop()  # after trailing blanks the bare end matches too
    toks[-1] = surface._EOF
    return toks


def check(text, label):
    toks, distinct = surface._tokens(text)
    want = reference(text)
    assert toks == want, label
    assert distinct == set(want[:-1]), label


def variants(text):
    yield "as is", text
    yield "crlf", text.replace("\n", "\r\n")
    yield "tabs", text.replace("  ", "\t")
    yield "no final newline", text.rstrip("\n")
    yield "ends in a comment", text.rstrip("\n") + " // the end"
    # every punctuation character next to a name or another operator
    yield "no blanks", re.sub(r"//[^\n]*|[ \t\r\n]", "", text)


def generated_texts():
    """The texts of the benchmark's operations, seeds 1 and 2."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import gen
    finally:
        sys.path.remove(perfbench)
    for name, specs in gen.GENERATORS.items():
        for seed in (1, 2):
            for k, spec in enumerate(specs(seed)):
                for i, text in enumerate([spec.text, spec.text2, spec.query, *spec.actions]):
                    if text:
                        yield f"{name} seed {seed} op {k} text {i}", text


def insertions(text, rng, n):
    """text with n fragments of INSERTS at seeded places."""
    out = list(text)
    for _ in range(n):
        out.insert(rng.randrange(len(out) + 1), rng.choice(INSERTS))
    return "".join(out)


@pytest.mark.parametrize("name", CORPUS)
def test_the_corpus(name):
    text = corpus_path(name).read_text()
    assert "//" in text
    for label, t in variants(text):
        check(t, f"{name}, {label}")


def test_the_generated_texts():
    count = 0
    for label, text in generated_texts():
        for how, t in variants(text):
            check(t, f"{label}, {how}")
        count += 1
    assert count > 100


def test_the_regex_runs_only_inside_chunks(monkeypatch):
    # the splitter cuts at every blank and around every punctuation
    # character, so a chunk that the regex takes apart holds neither: it is
    # a ! before a name, or an operator written without blanks around it
    seen = []
    pieces = surface._PIECES

    class Recorder:
        def findall(self, chunk):
            seen.append(chunk)
            return pieces.findall(chunk)

    monkeypatch.setattr(surface, "_PIECES", Recorder())
    texts = [corpus_path(name).read_text() for name in CORPUS] + [t for _, t in generated_texts()]
    for text in texts:
        for _, t in variants(text):
            surface._tokens(t)
    assert seen
    assert [c for c in seen if set(c) & set("&|(),;:{}/ \t\r\n")] == []


@pytest.mark.parametrize("name", CORPUS)
def test_seeded_insertions(name):
    text = corpus_path(name).read_text()
    rng = random.Random(f"tokens-{name}")
    for i in range(60):
        check(insertions(text, rng, rng.randrange(1, 6)), f"{name}, insertion {i}")


@pytest.mark.parametrize(
    "text",
    [
        "",
        " \t\r\n",
        "// only a comment",
        "// a comment\n",
        "P",
        "x!=y",
        "!On(A, B)",
        "a->b<->c==d",
        "x''",
        "a/b//c\nd///e",
        "P\x0cQ",
        "P\x0bQ\x1cR\x1fS",
        "P\xa0Q R\x85S",
        "é",
        "On(A,B);\r\n!Clear(C);",
        "12ab 3.4 _x9' <- -> <= >=",
        "٣",
    ],
    ids=repr,
)
def test_edge_cases(text):
    check(text, repr(text))


@pytest.mark.parametrize(
    "text, message",
    [
        ("static P/0;\ntheory {\n  P\x0c;\n}\n", "f.bat:3:4: unexpected character '\\x0c'"),
        ("static P/0;\ntheory {\n  P;\n}\n// é\n é\n", "f.bat:6:2: unexpected character 'é'"),
        ("static P/0;\ntheory {\r\n\tP\xa0;\r\n}", "f.bat:3:3: unexpected character '\\xa0'"),
    ],
    ids=["form feed", "e acute", "no-break space"],
)
def test_a_bad_character_is_reported_where_it_stands(text, message):
    with pytest.raises(surface.ParseError) as info:
        surface.parse_theory(text, "f.bat")
    assert str(info.value) == message
