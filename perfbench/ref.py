"""Reference semantics that the benchmark checks sitcalc's answers against.

Formulas are plain tuples, so generation and checking need nothing from
sitcalc:

    ("true",) ("false",)
    ("atom", pred, args, stage)      stage "" for statics, "now"/"next" for fluents
    ("eq", lhs, rhs)
    ("not", f) ("and", f, g) ("or", f, g) ("imp", f, g) ("iff", f, g)
    ("all", var, f) ("ex", var, f)

Terms are names: a name bound by an enclosing quantifier is a variable,
any other name is a constant.  `from_sitcalc` converts sitcalc's formula
objects by class name, so it works across re-imports of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

TRUE = ("true",)
FALSE = ("false",)


def atom(pred: str, *args: str, stage: str = "") -> tuple:
    return ("atom", pred, tuple(args), stage)


def neg(f: tuple) -> tuple:
    return ("not", f)


# ---------------------------------------------------------------------------
# surface text


def text(f: tuple) -> str:
    """Fully parenthesized surface syntax that sitcalc's parser reads."""
    tag = f[0]
    if tag == "true":
        return "true"
    if tag == "false":
        return "false"
    if tag == "atom":
        _, pred, args, _stage = f
        return f"{pred}({', '.join(args)})" if args else pred
    if tag == "eq":
        return f"{f[1]} == {f[2]}"
    if tag == "not":
        return f"!({text(f[1])})"
    if tag in ("and", "or", "imp", "iff"):
        op = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}[tag]
        return f"({text(f[1])} {op} {text(f[2])})"
    if tag in ("all", "ex"):
        kw = "forall" if tag == "all" else "exists"
        return f"({kw} {f[1]} ({text(f[2])}))"
    raise ValueError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# models and evaluation


@dataclass
class Model:
    """A finite interpretation: domain elements, constant map, relation tables.

    Relation keys are (pred, stage) with stage "" for statics, like the
    formulas.  A key missing from rels is an error, not an empty relation,
    so a model that does not interpret a symbol cannot pass a check.
    """

    domain: tuple
    consts: dict
    rels: dict = field(default_factory=dict)

    def holds(self, key: tuple, tup: tuple) -> bool:
        return tup in self.rels[key]

    def toggled(self, key: tuple, tup: tuple) -> "Model":
        rels = dict(self.rels)
        rels[key] = set(rels[key]) ^ {tup}
        return Model(self.domain, self.consts, rels)


def from_finite_model(m) -> Model:
    """Read a sitcalc FiniteModel through its public fields."""
    return Model(
        tuple(range(m.size)),
        dict(m.consts),
        {key: set(table) for key, table in m.relations},
    )


def holds(m: Model, f: tuple, env: dict | None = None) -> bool:
    env = env or {}

    def val(t: str):
        if t in env:
            return env[t]
        return m.consts[t]

    def walk(f: tuple) -> bool:
        tag = f[0]
        if tag == "atom":
            return m.holds((f[1], f[3]), tuple(val(a) for a in f[2]))
        if tag == "not":
            return not walk(f[1])
        if tag == "and":
            return walk(f[1]) and walk(f[2])
        if tag == "or":
            return walk(f[1]) or walk(f[2])
        if tag == "imp":
            return (not walk(f[1])) or walk(f[2])
        if tag == "iff":
            return walk(f[1]) == walk(f[2])
        if tag == "eq":
            return val(f[1]) == val(f[2])
        if tag in ("all", "ex"):
            v, body = f[1], f[2]
            saved = env.get(v, _UNSET)
            try:
                want = tag == "ex"
                for d in m.domain:
                    env[v] = d
                    if walk(body) == want:
                        return want
                return not want
            finally:
                if saved is _UNSET:
                    env.pop(v, None)
                else:
                    env[v] = saved
        if tag == "true":
            return True
        if tag == "false":
            return False
        raise ValueError(f"not a formula: {f!r}")

    return walk(f)


_UNSET = object()


def holds_all(m: Model, fs) -> bool:
    return all(holds(m, f) for f in fs)


# ---------------------------------------------------------------------------
# reading sitcalc objects


_BINARY = {"And": "and", "Or": "or", "Implies": "imp", "Iff": "iff"}


def from_sitcalc(f) -> tuple:
    """The tuple form of a sitcalc Formula, dispatching on class names."""
    name = type(f).__name__
    if name in _BINARY:
        return (_BINARY[name], from_sitcalc(f.lhs), from_sitcalc(f.rhs))
    if name == "Not":
        return ("not", from_sitcalc(f.body))
    if name == "FluentAtom":
        return ("atom", f.fluent, tuple(a.name for a in f.args), f.stage.value)
    if name == "StaticAtom":
        return ("atom", f.pred, tuple(a.name for a in f.args), "")
    if name == "ObjEq":
        return ("eq", f.lhs.name, f.rhs.name)
    if name == "Forall":
        return ("all", f.var.name, from_sitcalc(f.body))
    if name == "Exists":
        return ("ex", f.var.name, from_sitcalc(f.body))
    if name == "Truth":
        return TRUE
    if name == "Falsity":
        return FALSE
    raise ValueError(f"cannot read {name} as a formula")


def nodes(x) -> int:
    """Formula nodes in a sitcalc Formula, Theory or sequence of them.

    Atoms and equalities count one each; terms are not counted.  Iterative,
    so that deep or wide formulas do not exhaust the Python stack.
    """
    if type(x).__name__ == "Theory":
        stack = list(x.axioms)
    elif isinstance(x, (list, tuple)):
        stack = list(x)
    else:
        stack = [x]
    count = 0
    while stack:
        f = stack.pop()
        name = type(f).__name__
        if name == "Theory":
            stack.extend(f.axioms)
            continue
        count += 1
        if name in _BINARY:
            stack.append(f.lhs)
            stack.append(f.rhs)
        elif name in ("Not", "Forall", "Exists"):
            stack.append(f.body)
    return count


def names(f: tuple) -> set:
    """Predicates and constants (names not bound by a quantifier) in f."""
    out, stack = set(), [(f, frozenset())]
    while stack:
        g, bound = stack.pop()
        if g[0] == "atom":
            out.add(g[1])
            out |= set(g[2]) - bound
        elif g[0] == "eq":
            out |= {g[1], g[2]} - bound
        elif g[0] in ("all", "ex"):
            stack.append((g[2], bound | {g[1]}))
        else:
            stack.extend((h, bound) for h in g[1:])
    return out


def ground_literal(f: tuple):
    """(key, args, sign) when f is a ground literal over names, else None."""
    sign = True
    while f[0] == "not":
        f = f[1]
        sign = not sign
    if f[0] != "atom":
        return None
    return (f[1], f[3]), f[2], sign
