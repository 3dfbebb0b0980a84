"""Reference implementations of the ground-action transform and of the
instantiation of successor state axioms.

transform_ssa is the generic construction that bat.transform_ssa replaced:
each disjunct becomes [exists ys] (ts == alpha's constants & context) as a
formula, and simplify settles the equalities and removes the quantifiers
over action arguments by the one-point rule.  instantiate_ssas substitutes
the head constants into both effect conditions of every atom and
simplifies the whole biconditional.  characteristic_set reads the argument
sets of this transform.  They exist only so the tests can compare the
direct constructions against them.
"""

from sitcalc.bat import TransformedSSA, argument_set
from sitcalc.forgetting import GroundAtom, sorted_atoms
from sitcalc.syntax import (
    FALSE,
    TRUE,
    And,
    Const,
    Exists,
    FluentAtom,
    Iff,
    Not,
    ObjEq,
    Or,
    Stage,
    Theory,
    conj,
    disj,
    simplify,
    substitute,
)


def _same_action(alpha, action):
    if action.fn != alpha.fn:
        return FALSE
    return conj(ObjEq(t, Const(c)) for c, t in zip(alpha.args, action.args))


def transform_ssa(s, alpha):
    def gamma(disjuncts):
        parts = []
        for d in disjuncts:
            body = _same_action(alpha, d.action)
            if d.context != TRUE:
                body = And(body, d.context)
            for v in reversed(d.exists_vars):
                body = Exists(v, body)
            parts.append(body)
        return simplify(disj(parts))

    return TransformedSSA(s.fluent, s.head_vars, gamma(s.pos), gamma(s.neg))


def characteristic_set(b, alpha):
    return frozenset(
        GroundAtom(s.fluent, tup, Stage.NOW)
        for s in b.ssas
        for tup in argument_set(transform_ssa(s, alpha))
    )


def instantiate_ssas(b, alpha, omega):
    axioms = []
    for g in sorted_atoms(omega):
        t = transform_ssa(b.ssa(g.pred), alpha)
        binding = {v.name: Const(c) for v, c in zip(t.head_vars, g.args)}
        pos = simplify(substitute(t.gamma_pos, binding))
        neg = simplify(substitute(t.gamma_neg, binding))
        consts = tuple(Const(c) for c in g.args)
        now = FluentAtom(g.pred, consts, Stage.NOW)
        nxt = FluentAtom(g.pred, consts, Stage.NEXT)
        axioms.append(simplify(Iff(nxt, Or(pos, And(now, Not(neg))))))
    return Theory(tuple(axioms))
