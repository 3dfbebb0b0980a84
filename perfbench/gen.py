"""Seeded inputs for the three workloads, with answers known by construction.

Nothing here imports sitcalc.  Every input is surface text plus the facts
needed to check an answer: a simulated world after a sequence of legal
moves, or models that a generated theory was built to satisfy or violate.
The same seed always gives the same specs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import ref
from ref import Model, atom, neg

# ---------------------------------------------------------------------------
# worlds: complete states of a domain, advanced by a simulator that follows
# the successor state axioms written below


@dataclass
class World:
    consts: tuple
    rels: dict  # (pred, stage) -> set of tuples of constant names

    def model(self) -> Model:
        return Model(self.consts, {c: c for c in self.consts}, {k: set(v) for k, v in self.rels.items()})

    def copy(self) -> "World":
        return World(self.consts, {k: set(v) for k, v in self.rels.items()})

    def has(self, pred: str, *args: str) -> bool:
        stage = "" if pred == "Block" else "now"
        return tuple(args) in self.rels[(pred, stage)]

    def literal(self, pred: str, *args: str) -> tuple:
        """The literal over this atom that is true in the world."""
        stage = "" if pred == "Block" else "now"
        a = atom(pred, *args, stage=stage)
        return a if self.has(pred, *args) else neg(a)

    def atoms(self):
        """Every ground atom over the world's own relations and constants."""
        arity = {("Block", ""): 1, ("On", "now"): 2, ("Clear", "now"): 1, ("Top", "now"): 1,
                 ("Inheap", "now"): 1, ("Under", "now"): 2}
        for key in sorted(self.rels):
            n = arity[key]
            if n == 1:
                for c in self.consts:
                    yield key, (c,)
            else:
                for c in self.consts:
                    for d in self.consts:
                        yield key, (c, d)


def _stack_up(rng: random.Random, items: list, p_stack: float) -> list:
    """Random stacks, bottom first, with at least one of height two."""
    stacks: list = []
    for b in items:
        if stacks and rng.random() < p_stack:
            rng.choice(stacks).append(b)
        else:
            stacks.append([b])
    if all(len(s) < 2 for s in stacks):
        stacks[0].append(stacks.pop()[0])
    return stacks


# Ground blocks world: blocks B0..B(n-1) on a table T that is always clear.
# The initial theory lists every ground literal, about n*n of them, so the
# progressed theory is again a complete set of literals.

GW_DECLS = """object {objects};
static Block/1;
fluent On/2, Clear/1;
action move/3;

ssa On(x, z) {{
  pos: exists y a == move(x, y, z);
  neg: exists y a == move(x, z, y);
}}

ssa Clear(x) {{
  pos: exists y, z a == move(y, x, z);
  neg: exists y, z a == move(y, z, x) & x != T;
}}

poss move(x, y, z): Block(x) & On(x, y) & Clear(x) & Clear(z) & x != z;
"""


def ground_world(rng: random.Random, n: int) -> World:
    blocks = [f"B{i}" for i in range(n)]
    order = blocks[:]
    rng.shuffle(order)
    stacks = _stack_up(rng, order, 0.6)
    on = {(s[0], "T") for s in stacks}
    on |= {(s[i], s[i - 1]) for s in stacks for i in range(1, len(s))}
    clear = {s[-1] for s in stacks} | {"T"}
    consts = tuple(blocks) + ("T",)
    return World(consts, {
        ("Block", ""): {(b,) for b in blocks},
        ("On", "now"): on,
        ("Clear", "now"): {(c,) for c in clear},
    })


def gw_text(w: World) -> str:
    lines = [GW_DECLS.format(objects=", ".join(w.consts)), "init {"]
    for key, tup in w.atoms():
        lines.append(f"  {ref.text(w.literal(key[0], *tup))};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def gw_legal_moves(w: World) -> list:
    on = dict(w.rels[("On", "now")])
    clear = {c for (c,) in w.rels[("Clear", "now")]}
    out = []
    for x, y in sorted(on.items()):
        if x not in clear:
            continue
        for z in sorted(clear):
            if z != x and z != y:
                out.append(("move", x, y, z))
    return out


def gw_illegal_move(rng: random.Random, w: World) -> tuple:
    """A move whose precondition is false: the block is not on the named support."""
    on = dict(w.rels[("On", "now")])
    x = rng.choice(sorted(on))
    y = rng.choice([c for c in w.consts if c not in (x, on[x])])
    z = rng.choice([c for c in w.consts if c not in (x, y)])
    return ("move", x, y, z)


def gw_apply(w: World, mv: tuple) -> World:
    _, x, y, z = mv
    out = w.copy()
    out.rels[("On", "now")] -= {(x, y)}
    out.rels[("On", "now")] |= {(x, z)}
    out.rels[("Clear", "now")] |= {(y,)}
    if z != "T":
        out.rels[("Clear", "now")] -= {(z,)}
    return out


def gw_walk(rng: random.Random, w: World, k: int) -> tuple[list, World]:
    moves = []
    for _ in range(k):
        mv = rng.choice(gw_legal_moves(w))
        moves.append(mv)
        w = gw_apply(w, mv)
    return moves, w


# Blocks-and-heap theories in the style of the bundled blocks_stacks.bat:
# quantified initial axioms plus positive ground facts, so the initial
# theory is incomplete and splits into a blocks and a heap component that
# share only the static Block.

ST_DECLS = """object {objects};
static Block/1;
fluent On/2, Clear/1, Top/1, Inheap/1, Under/2;
action move/3, push/2, pop/1;

ssa On(x, z) {{
  pos: exists y a == move(x, y, z);
  neg: exists y a == move(x, z, y);
}}

ssa Clear(x) {{
  pos: exists y, z a == move(y, x, z) & On(y, x);
  neg: exists y, z a == move(y, z, x);
}}

ssa Inheap(x) {{
  pos: a == pop(x);
  neg: exists y a == push(x, y);
}}

ssa Top(x) {{
  pos: exists y a == push(x, y);
  pos: exists y a == pop(y) & Under(y, x);
  neg: a == pop(x);
  neg: exists y a == push(y, x);
}}

ssa Under(x, y) {{
  pos: a == push(x, y);
  neg: a == pop(x);
}}

poss move(x, y, z): Block(x) & Block(y) & Block(z) & On(x, y) & Clear(x) & Clear(z) & x != z;
poss push(x, y): !Block(x) & !Block(y) & Top(y) & Inheap(x);
poss pop(x): !Block(x) & Top(x);

init {{
  forall x (!exists y On(y, x) & exists y On(x, y) -> Clear(x));
  forall x (exists y On(x, y) -> Block(x));
  forall x (Top(x) | Inheap(x) -> !Block(x));
  forall x, y (Under(x, y) & Top(x) -> Top(x));
  exists x Block(x);
"""

ST_FACTS = (("Block", ""), ("On", "now"), ("Clear", "now"), ("Top", "now"), ("Under", "now"), ("Inheap", "now"))


def stacks_world(rng: random.Random, nb: int, nh: int) -> World:
    """At least two stacks of blocks, one of them two high, so some block can
    always move (blocks never rest on a table here); a spike holding at least
    one heap item, the rest loose in the heap."""
    blocks = [f"A{i}" for i in range(nb)]
    heap = [f"H{i}" for i in range(nh)]
    order = blocks[:]
    rng.shuffle(order)
    stacks = [order[:2], order[2:3]]
    for b in order[3:]:
        if rng.random() < 0.5:
            rng.choice(stacks).append(b)
        else:
            stacks.append([b])
    on = {(s[i], s[i - 1]) for s in stacks for i in range(1, len(s))}
    clear = {s[-1] for s in stacks}
    items = heap[:]
    rng.shuffle(items)
    spike = items[: rng.randint(1, nh)]
    return World(tuple(blocks + heap), {
        ("Block", ""): {(b,) for b in blocks},
        ("On", "now"): on,
        ("Clear", "now"): {(c,) for c in clear},
        ("Top", "now"): {(spike[-1],)},
        ("Under", "now"): {(spike[i], spike[i - 1]) for i in range(1, len(spike))},
        ("Inheap", "now"): {(h,) for h in items[len(spike):]},
    })


def st_text(w: World) -> str:
    lines = [ST_DECLS.format(objects=", ".join(w.consts))]
    for key in ST_FACTS:
        for tup in sorted(w.rels[key]):
            lines.append(f"  {ref.text(atom(key[0], *tup, stage=key[1]))};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def st_legal_actions(w: World) -> list:
    """Legal moves and pushes.  pop is declared, as in blocks_stacks.bat, but
    never performed: its effect on Top is not local-effect (the item below
    the popped one is not an argument), so progression rejects it."""
    r = w.rels
    out = []
    clear = {c for (c,) in r[("Clear", "now")]}
    blocks = {c for (c,) in r[("Block", "")]}
    for x, y in sorted(r[("On", "now")]):
        if x in clear:
            out += [("move", x, y, z) for z in sorted(clear & blocks) if z != x]
    (top,) = next(iter(r[("Top", "now")]))
    out += [("push", x, top) for (x,) in sorted(r[("Inheap", "now")])]
    return out


def st_apply(w: World, act: tuple) -> World:
    out = w.copy()
    r = out.rels
    if act[0] == "move":
        _, x, y, z = act
        r[("On", "now")] = (r[("On", "now")] - {(x, y)}) | {(x, z)}
        r[("Clear", "now")] = (r[("Clear", "now")] | {(y,)}) - {(z,)}
    else:
        _, x, y = act
        r[("Inheap", "now")] -= {(x,)}
        r[("Top", "now")] = (r[("Top", "now")] - {(y,)}) | {(x,)}
        r[("Under", "now")] |= {(x, y)}
    return out


def st_walk(rng: random.Random, w: World, k: int) -> tuple[list, World]:
    acts = []
    for _ in range(k):
        act = rng.choice(st_legal_actions(w))
        acts.append(act)
        w = st_apply(w, act)
    return acts, w


def st_effect(act: tuple) -> tuple:
    """A literal that every model of the progression through act satisfies."""
    if act[0] == "move":
        return atom("On", act[1], act[3], stage="now")
    return atom("Under", act[1], act[2], stage="now")


def action_text(act: tuple) -> str:
    return f"{act[0]}({', '.join(act[1:])})"


# ---------------------------------------------------------------------------
# small random theories, in the style of the property suites: formulas of
# depth two over a few predicates, kept only when true in chosen models


def random_model(rng: random.Random, consts: tuple, preds: tuple) -> Model:
    rels = {}
    for name, ar in preds:
        tuples = [()] if ar == 0 else (
            [(c,) for c in consts] if ar == 1 else [(c, d) for c in consts for d in consts]
        )
        rels[(name, "")] = {t for t in tuples if rng.random() < 0.5}
    return Model(consts, {c: c for c in consts}, rels)


def random_formula(rng: random.Random, depth: int, scope: list, preds: tuple, consts: tuple) -> tuple:
    def term():
        if scope and rng.random() < 0.5:
            return rng.choice(scope)
        return rng.choice(consts)

    if depth == 0 or rng.random() < 0.3:
        name, ar = rng.choice(preds)
        if rng.random() < 0.15:
            return ("eq", term(), term())
        return atom(name, *(term() for _ in range(ar)))
    k = rng.randrange(6)
    if k == 0:
        return ("not", random_formula(rng, depth - 1, scope, preds, consts))
    if k <= 3:
        tag = ("and", "imp", "or")[k - 1]
        return (tag, random_formula(rng, depth - 1, scope, preds, consts),
                random_formula(rng, depth - 1, scope, preds, consts))
    v = "xyz"[len(scope) % 3]
    return ("all" if k == 4 else "ex", v, random_formula(rng, depth - 1, scope + [v], preds, consts))


def filtered_theory(rng: random.Random, size: int, preds: tuple, consts: tuple, models: list,
                    mention: tuple = ()) -> list:
    """size distinct random sentences, each true in every given model, that
    together mention every predicate and constant named in mention.  Naming
    all constants fixes the domain sizes the oracle searches."""
    while True:
        out: list = []
        while len(out) < size:
            f = random_formula(rng, 2, [], preds, consts)
            if f not in out and all(ref.holds(m, f) for m in models):
                out.append(f)
        names = set()
        for f in out:
            names |= ref.names(f)
        if set(mention) <= names:
            return out


def rename(f: tuple, frm: str, to: str) -> tuple:
    if f[0] == "atom":
        return ("atom", to if f[1] == frm else f[1], f[2], f[3])
    if f[0] == "not":
        return ("not", rename(f[1], frm, to))
    if f[0] in ("and", "or", "imp", "iff"):
        return (f[0], rename(f[1], frm, to), rename(f[2], frm, to))
    if f[0] in ("all", "ex"):
        return (f[0], f[1], rename(f[2], frm, to))
    return f


def decls(consts: tuple, preds: tuple) -> str:
    out = []
    if consts:
        out.append(f"object {', '.join(consts)};")
    out.append(f"static {', '.join(f'{n}/{a}' for n, a in preds)};")
    return "\n".join(out) + "\n"


def theory_text(consts: tuple, preds: tuple, axioms: list) -> str:
    body = "".join(f"  {ref.text(f)};\n" for f in axioms)
    return decls(consts, preds) + "\ntheory {\n" + body + "}\n"


# ---------------------------------------------------------------------------
# operation specs


@dataclass
class Spec:
    """One operation: what to run on which input, and what the answer must be.

    kind names the operation class, expect the answer known by construction,
    and the remaining fields carry inputs and the facts the checker needs.
    """

    kind: str
    expect: str
    text: str = ""
    text2: str = ""
    actions: list = field(default_factory=list)
    query: str = ""
    max_extra: int = 1
    una: bool = True
    world: object = None  # World or Model the answer must agree with
    aux: dict = field(default_factory=dict)


# progress: sizes and move counts are fixed; the seed picks the worlds and
# the moves, so every seed does the same amount of work.
PROGRESS_GROUND = ((8, 2), (10, 2), (12, 2), (14, 1), (16, 1), (18, 1), (20, 1), (22, 1), (24, 1)) * 2
PROGRESS_STACKS = ((3, 1, 1), (4, 2, 1), (5, 2, 1), (6, 3, 1), (8, 3, 1), (10, 4, 1), (3, 1, 2)) * 2


def progress_specs(seed: int) -> list[Spec]:
    rng = random.Random(f"progress-{seed}")
    out = []
    for n, k in PROGRESS_GROUND:
        w0 = ground_world(rng, n)
        moves, w = gw_walk(rng, w0, k)
        out.append(Spec("ground_world", "progressed", text=gw_text(w0),
                        actions=[action_text(m) for m in moves], world=w))
    for nb, nh, k in PROGRESS_STACKS:
        w0 = stacks_world(rng, nb, nh)
        acts, w = st_walk(rng, w0, k)
        out.append(Spec("stacks", "progressed", text=st_text(w0),
                        actions=[action_text(a) for a in acts], world=w,
                        aux={"first": st_apply(w0, acts[0]), "start": w0}))
    return _shuffled(rng, out)


def _shuffled(rng: random.Random, specs: list) -> list:
    """The seeded order in which a pass runs the operations."""
    rng.shuffle(specs)
    return specs


def _ground_decide(rng: random.Random) -> list[Spec]:
    """Complete ground worlds, progressed in set-up: equivalence and
    satisfiability over six blocks, equivalence without unique names over
    two, projection and executability over three."""
    out = []

    def walked(n, k):
        w0 = ground_world(rng, n)
        moves, w = gw_walk(rng, w0, k)
        key, tup = rng.choice([kt for kt in w.atoms() if kt[0][0] != "Block"])
        return w0, moves, w, key, tup, dict(text=gw_text(w0), actions=[action_text(m) for m in moves], world=w)

    for me in (0, 1, 2):
        w0, moves, w, key, tup, common = walked(6, 1)
        out.append(Spec("gw_equivalent", "EquivalentFinite", max_extra=me, aux={"shuffle": rng.random()}, **common))
        out.append(Spec("gw_equivalent", "NotEquivalent", max_extra=me, aux={"flip": (key, tup)}, **common))
    # Without unique names every identification of the constants is a
    # domain of its own: two blocks and the table already make 36 of them,
    # and three blocks take an equivalence from milliseconds to a second.
    for me in (0, 1):
        w0, moves, w, key, tup, common = walked(2, 1)
        out.append(Spec("gw_equivalent", "EquivalentFinite", max_extra=me, una=False,
                        aux={"shuffle": rng.random()}, **common))
        out.append(Spec("gw_equivalent", "NotEquivalent", max_extra=me, una=False, aux={"flip": (key, tup)}, **common))
    w0, moves, w, key, tup, common = walked(6, 1)
    out.append(Spec("gw_satisfiable", "Sat", **common))
    out.append(Spec("gw_satisfiable", "UnsatFinite", query=ref.text(neg(w.literal(key[0], *tup))), **common))
    w0, moves, w, key, tup, common = walked(3, 2)
    lit = w.literal(key[0], *tup)
    out.append(Spec("gw_project", "EntailedFinite", query=ref.text(lit), **common))
    out.append(Spec("gw_project", "Countermodel", query=ref.text(neg(lit)), **common))
    out.append(Spec("gw_executable", "executable", **common))
    bad = gw_illegal_move(rng, gw_apply(w0, moves[0]))
    out.append(Spec("gw_executable", "not-executable", text=common["text"], world=w,
                    actions=[common["actions"][0], action_text(bad)]))
    return out


def _stacks_decide(rng: random.Random) -> list[Spec]:
    """Blocks-and-heap theories after one action, progressed in set-up.

    Equivalence stays at three blocks and one heap item without extra
    elements: one more constant or element takes it from milliseconds to
    tens of seconds.
    """
    out = []

    def walked(nb, nh, k, me):
        w0 = stacks_world(rng, nb, nh)
        acts, w = st_walk(rng, w0, k)
        return acts, dict(text=st_text(w0), actions=[action_text(a) for a in acts], max_extra=me, world=w)

    for me in (0, 1, 2):
        acts, common = walked(4, 2, 1, me)
        lit = st_effect(acts[-1])
        out.append(Spec("st_entails", "EntailedFinite", query=ref.text(lit), **common))
        out.append(Spec("st_entails", "Countermodel", query=ref.text(neg(lit)), **common))
    for me in (0, 1):
        out.append(Spec("st_satisfiable", "Sat", **walked(5, 2, 1, me)[1]))
    for _ in range(2):
        acts, common = walked(4, 2, 1, 1)
        out.append(Spec("st_project", "EntailedFinite", query=ref.text(st_effect(acts[-1])), **common))
    out.append(Spec("st_equivalent", "EquivalentFinite", **walked(3, 1, 2, 0)[1]))
    return out


# Each block of decide operations is drawn this many times per pass, so
# that a pass averages over many generated inputs.
DECIDE_DRAWS = 4


def decide_specs(seed: int) -> list[Spec]:
    rng = random.Random(f"decide-{seed}")
    out: list[Spec] = []
    for _ in range(DECIDE_DRAWS):
        out += _ground_decide(rng) + _stacks_decide(rng)
    # The bundled examples, with answers their comments state.
    out.append(Spec("corpus_project", "EntailedFinite", text="blocks_world.bat",
                    actions=["move(A, B, C)"], query="On(A, C) & Clear(B) & !Clear(C)"))
    out.append(Spec("corpus_executable", "executable", text="blocks_world.bat",
                    actions=["move(A, B, C)", "move(A, C, B)"]))
    out.append(Spec("corpus_entails", "EntailedFinite", text="propositional_chain.bat", query="A -> B"))
    out.append(Spec("corpus_entails", "Countermodel", text="propositional_chain.bat", query="B -> A"))
    return _shuffled(rng, out)


SEP_CONSTS = ("c1", "c2")
SEP_DELTA = (("P", 1), ("Q", 1))
SEP_PREDS = SEP_DELTA + (("R", 2),)
VERIFY_PREDS = (("P", 1), ("Q", 1), ("R", 1))


def quantified_sentence(rng: random.Random) -> tuple:
    """A constant-free delta-sentence: one quantifier over a literal or a
    binary connective of two literals on P and Q.  The witness search tries
    constant-free sentences first, smallest first, so it meets one of these
    (or a smaller separator) within a few hundred candidates."""

    def lit():
        a = atom(rng.choice(SEP_DELTA)[0], "x")
        return neg(a) if rng.random() < 0.3 else a

    matrix = lit() if rng.random() < 0.3 else (rng.choice(("and", "or", "imp")), lit(), lit())
    return (rng.choice(("all", "ex")), "x", matrix)


def _told_apart(rng: random.Random) -> tuple:
    """Two models and a constant-free delta-sentence true in the first only."""
    while True:
        m0 = random_model(rng, SEP_CONSTS, SEP_PREDS)
        m1 = random_model(rng, SEP_CONSTS, SEP_PREDS)
        for _ in range(50):
            sigma = quantified_sentence(rng)
            if ref.holds(m0, sigma) and not ref.holds(m1, sigma):
                return m0, m1, sigma


def separate_specs(seed: int) -> list[Spec]:
    rng = random.Random(f"separate-{seed}")
    out: list[Spec] = []
    for _ in range(16):
        # Renaming a symbol outside delta, plus a definition of a fresh one,
        # changes no delta-consequence.
        m0 = random_model(rng, SEP_CONSTS, SEP_PREDS)
        t1 = filtered_theory(rng, 3, SEP_PREDS, SEP_CONSTS, [m0], mention=("P", "Q", "R") + SEP_CONSTS)
        body = random_formula(rng, 1, ["x"], SEP_PREDS, SEP_CONSTS)
        t2 = [rename(f, "R", "S") for f in t1] + [("all", "x", ("iff", atom("D", "x"), body))]
        preds = SEP_PREDS + (("S", 2), ("D", 1))
        out.append(Spec("insep", "InseparableFinite", text=theory_text(SEP_CONSTS, preds, t1),
                        text2=theory_text(SEP_CONSTS, preds, t2), world=m0))
    for _ in range(16):
        # Adding a delta-sentence that a model of t1 violates.
        m0, m1, sigma = _told_apart(rng)
        t1 = filtered_theory(rng, 3, SEP_PREDS, SEP_CONSTS, [m0, m1], mention=("R",) + SEP_CONSTS)
        out.append(Spec("sep", "Separated", text=theory_text(SEP_CONSTS, SEP_PREDS, t1),
                        text2=theory_text(SEP_CONSTS, SEP_PREDS, t1 + [sigma]), world=m0,
                        aux={"entailed_by": 2}))
    for _ in range(24):
        # verify_forgetting streams every interpretation: 576 of them over
        # three unary predicates, two constants and one extra element.
        m0 = random_model(rng, SEP_CONSTS, VERIFY_PREDS)
        t = filtered_theory(rng, 3, VERIFY_PREDS, SEP_CONSTS, [m0], mention=("P", "Q", "R") + SEP_CONSTS)
        text = theory_text(SEP_CONSTS, VERIFY_PREDS, t)
        out.append(Spec("verify_forgetting", "VerifiedFinite", text=text, query="P(c1)", world=m0))
        out.append(Spec("verify_forgetting", "ForgettingMismatch", text=text, query="P(c1)", world=m0,
                        aux={"strengthen": True}))
    # Forgetting R(c, c) in both bundled theories makes them separable.
    known = Model(("a", "c"), {"a": "a", "c": "c"}, {("R", ""): {("c", "a"), ("a", "a")}})
    out.append(Spec("corpus_insep", "Separated", text="insep_forgetting_t1.bat",
                    text2="insep_forgetting_t2.bat", query="R(c, c)", world=known,
                    aux={"entailed_by": 1}))
    return _shuffled(rng, out)


GENERATORS = {"progress": progress_specs, "decide": decide_specs, "separate": separate_specs}
