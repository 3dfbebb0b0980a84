"""Brute-force reference implementations of the oracle's enumerations.

These are the enumerations the oracle used before it answered them with
one projected solver search: every interpretation streamed and evaluated
directly, and reducts found by pinning each complete delta-diagram and
asking the solver whether it extends to a model.  They are exponential in
the vocabulary and exist only so the tests can compare the oracle against
them on tiny vocabularies.
"""

import itertools

from sitcalc.oracle import (
    _CNF,
    FiniteModel,
    ForgettingMismatch,
    VerifiedFinite,
    _Budget,
    _domain_specs,
    _dpll,
    _Grounder,
    _rel_keys,
    search_bound,
    theory_holds,
)
from sitcalc.syntax import signature_of, stages_of


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
    g = _Grounder(n, dict(consts))
    props = [g.ground(f, {}, False) for f in axioms]
    units = [g._var(key, tup) if val else -g._var(key, tup) for (key, tup), val in sorted(diagram.items())]
    cnf = _CNF(g.nvars)
    for p in props:
        cnf.assert_root(p)
    cnf.clauses.extend([u] for u in units)
    return not cnf.trivially_false and _dpll(cnf.nvars, cnf.clauses, budget) is not None


def reduct_sets_by_size(t1, t2, delta, vocab, stages, cfg):
    """Delta-reducts of each theory's bounded models, grouped by domain size,
    by pinning every complete delta-diagram in turn."""
    budget = _Budget(cfg)
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

