"""Reference implementations of the oracle's grounding, solver and enumerations.

ground is the grounder the oracle used before it compiled each formula into
a tree of grounding closures: a recursive interpreter that dispatches on the
node type for every instance and copies its environment dict at every
binder.  The compiled grounder must build the same ground tree and number
the atoms in the same order.

dpll_models is the solver the oracle used before its occurrence lists were
indexed by literal and its value test inlined: the oracle's _dpll_models
must make the same decisions and yield the same sequence of assignments.

The enumerations are those the oracle used before it answered them with
one projected solver search: every interpretation streamed and evaluated
directly, and reducts found by pinning each complete delta-diagram and
asking the solver whether it extends to a model.  They are exponential in
the vocabulary and exist only so the tests can compare the oracle against
them on tiny vocabularies.
"""

import itertools

from sitcalc.errors import SitcalcError
from sitcalc.oracle import (
    _CNF,
    _PFALSE,
    _PTRUE,
    FiniteModel,
    ForgettingMismatch,
    VerifiedFinite,
    _domain_specs,
    _Grounder,
    _pand,
    _por,
    _rel_keys,
    _Search,
    search_bound,
    theory_holds,
)
from sitcalc.syntax import (
    And,
    Const,
    Exists,
    Falsity,
    FluentAtom,
    Forall,
    Iff,
    Implies,
    Not,
    ObjEq,
    Or,
    StaticAtom,
    Truth,
    Var,
    signature_of,
    stages_of,
)


def _term(g, t, env):
    match t:
        case Const(name):
            try:
                return g.const_map[name]
            except KeyError:
                raise SitcalcError(f"constant {name} missing from oracle vocabulary") from None
        case Var(name):
            try:
                return env[name]
            except KeyError:
                raise SitcalcError(f"formula has free variable {name}") from None
        case _:
            raise SitcalcError(f"cannot ground term {t!r}")


def ground(g, f, env, neg):
    """The ground tree of f (of its negation if neg) under env, numbering
    new atoms in g."""
    match f:
        case Truth():
            return _PFALSE if neg else _PTRUE
        case Falsity():
            return _PTRUE if neg else _PFALSE
        case FluentAtom(name, args, stage):
            v = g._var((name, stage.value), tuple(_term(g, t, env) for t in args))
            return -v if neg else v
        case StaticAtom(name, args):
            v = g._var((name, ""), tuple(_term(g, t, env) for t in args))
            return -v if neg else v
        case ObjEq(lhs, rhs):
            val = _term(g, lhs, env) == _term(g, rhs, env)
            return _PTRUE if (val != neg) else _PFALSE
        case Not(body):
            return ground(g, body, env, not neg)
        case And(a, b):
            parts = [ground(g, a, env, neg), ground(g, b, env, neg)]
            return _por(parts) if neg else _pand(parts)
        case Or(a, b):
            parts = [ground(g, a, env, neg), ground(g, b, env, neg)]
            return _pand(parts) if neg else _por(parts)
        case Implies(a, b):
            if neg:
                return _pand([ground(g, a, env, False), ground(g, b, env, True)])
            return _por([ground(g, a, env, True), ground(g, b, env, False)])
        case Iff(a, b):
            ap, an = ground(g, a, env, False), ground(g, a, env, True)
            bp, bn = ground(g, b, env, False), ground(g, b, env, True)
            if neg:
                return _por([_pand([ap, bn]), _pand([bp, an])])
            return _pand([_por([an, bp]), _por([bn, ap])])
        case Forall(v, body):
            parts = [ground(g, body, {**env, v.name: d}, neg) for d in range(g.size)]
            return _por(parts) if neg else _pand(parts)
        case Exists(v, body):
            parts = [ground(g, body, {**env, v.name: d}, neg) for d in range(g.size)]
            return _pand(parts) if neg else _por(parts)
        case _:
            raise SitcalcError(f"cannot ground {f!r}")


def dpll_models(nvars, clauses, budget, project=()):
    """Deterministic DPLL with unit propagation, enumerating models.

    The variables in project are decided before all others.  After each model
    the search backtracks to the deepest decision on a projected variable as
    if that decision had hit a conflict, so it yields exactly one model per
    assignment of the projected variables that extends to a model; with
    project empty it yields at most one.  The yielded list is the solver's
    own assignment, indexed by variable: read it before resuming.
    """
    assign = [None] * (nvars + 1)
    occ = {}
    for ci, cl in enumerate(clauses):
        if not cl:
            return
        for lit in cl:
            occ.setdefault(lit, []).append(ci)

    counts = [0] * (nvars + 1)
    for cl in clauses:
        for lit in cl:
            counts[abs(lit)] += 1
    projected = [False] * (nvars + 1)
    for v in project:
        projected[v] = True
    order = sorted(range(1, nvars + 1), key=lambda v: (not projected[v], -counts[v], v))

    trail = []
    qhead = 0

    def value(lit):
        v = assign[abs(lit)]
        if v is None:
            return None
        return v if lit > 0 else not v

    def set_lit(lit):
        cur = value(lit)
        if cur is False:
            return False
        if cur is None:
            assign[abs(lit)] = lit > 0
            trail.append(lit)
        return True

    def propagate():
        nonlocal qhead
        while qhead < len(trail):
            budget.check_time("SAT search")
            lit = trail[qhead]
            qhead += 1
            for ci in occ.get(-lit, ()):
                cl = clauses[ci]
                unassigned = None
                n_un = 0
                sat = False
                for l in cl:
                    val = value(l)
                    if val is True:
                        sat = True
                        break
                    if val is None:
                        n_un += 1
                        unassigned = l
                        if n_un > 1:
                            break
                if sat or n_un > 1:
                    continue
                if n_un == 0:
                    return False
                if not set_lit(unassigned):
                    return False
        return True

    def undo_to(mark):
        nonlocal qhead
        while len(trail) > mark:
            assign[abs(trail.pop())] = None
        qhead = mark

    for cl in clauses:
        if len(cl) == 1 and not set_lit(cl[0]):
            return
    if not propagate():
        return

    # decision stack entries: (trail mark before the decision, literal, flipped?)
    decisions = []
    oi = 0
    while True:
        var = None
        while oi < len(order):
            if assign[order[oi]] is None:
                var = order[oi]
                break
            oi += 1
        if var is None:
            yield assign
            # Projected variables are decided first, so the decisions above
            # the deepest projected one only choose among models with the
            # projection just reported.
            while decisions and not projected[abs(decisions[-1][1])]:
                undo_to(decisions.pop()[0])
            ok = False
        else:
            decisions.append((len(trail), -var, False))
            ok = set_lit(-var) and propagate()
        while not ok:
            while decisions and decisions[-1][2]:
                mark, _, _ = decisions.pop()
                undo_to(mark)
            if not decisions:
                return
            mark, lit, _ = decisions.pop()
            undo_to(mark)
            decisions.append((mark, -lit, True))
            ok = set_lit(-lit) and propagate()
            oi = 0


def interpretations(vocab, stages, cfg):
    """Every interpretation over the vocabulary within the domain bounds."""
    keys = _rel_keys(vocab, stages)
    for n, consts in _domain_specs(vocab, cfg):
        tuple_lists = [tuple(itertools.product(range(n), repeat=ar)) for _, ar in keys]
        for masks in itertools.product(*[range(1 << len(tl)) for tl in tuple_lists]):
            rels = tuple(
                (key, frozenset(tl[i] for i in range(len(tl)) if mask >> i & 1))
                for (key, _), tl, mask in zip(keys, tuple_lists, masks)
            )
            yield FiniteModel(n, consts, rels)


def _extends(axioms, n, consts, diagram, budget):
    """Is there a model of the axioms over the domain that agrees with the diagram?"""
    g = _Grounder(n, consts)
    props = [ground(g, f, {}, False) for f in axioms]
    units = [g._var(key, tup) if val else -g._var(key, tup) for (key, tup), val in sorted(diagram.items())]
    cnf = _CNF(g.nvars)
    for p in props:
        cnf.assert_root(p)
    cnf.clauses.extend([u] for u in units)
    return not cnf.trivially_false and next(dpll_models(cnf.nvars, cnf.clauses, budget), None) is not None


def reduct_sets_by_size(t1, t2, delta, vocab, stages, cfg):
    """Delta-reducts of each theory's bounded models, grouped by domain size,
    by pinning every complete delta-diagram in turn."""
    budget = _Search(cfg, vocab, stages)
    delta_keys = _rel_keys(delta, stages)
    by_size = {}
    for n, consts in _domain_specs(vocab, cfg):
        r1, r2 = by_size.setdefault(n, (set(), set()))
        delta_consts = tuple((nm, e) for nm, e in consts if nm in delta.objects)
        tuple_lists = [tuple(itertools.product(range(n), repeat=ar)) for _, ar in delta_keys]
        for masks in itertools.product(*[range(1 << len(tl)) for tl in tuple_lists]):
            diagram = {}
            rels = []
            for (key, _), tl, mask in zip(delta_keys, tuple_lists, masks):
                rels.append((key, frozenset(tl[i] for i in range(len(tl)) if mask >> i & 1)))
                for i, tup in enumerate(tl):
                    diagram[(key, tup)] = bool(mask >> i & 1)
            reduct = FiniteModel(n, delta_consts, tuple(rels))
            if reduct not in r1 and _extends(t1.axioms, n, consts, diagram, budget):
                r1.add(reduct)
            if reduct not in r2 and _extends(t2.axioms, n, consts, diagram, budget):
                r2.add(reduct)
    return [(n, frozenset(r1), frozenset(r2)) for n, (r1, r2) in sorted(by_size.items())]


def verify_forgetting(t, g, r, cfg):
    """Stream every interpretation and check M |= r iff M or M with g toggled satisfies t."""
    vocab = signature_of(t) | signature_of(r) | g.signature()
    stages = stages_of(t) | stages_of(r)
    if g.stage is not None:
        stages = stages | {g.stage}
    for m in interpretations(vocab, stages, cfg):
        reachable = theory_holds(m, t) or theory_holds(m.with_toggled(g), t)
        admitted = theory_holds(m, r)
        if reachable and not admitted:
            return ForgettingMismatch(m, "result-too-strong")
        if admitted and not reachable:
            return ForgettingMismatch(m, "result-too-weak")
    return VerifiedFinite(search_bound(vocab, cfg))

