"""Bounded finite-model oracle.

Every verdict is relative to an explicit class of finite interpretations:
domains consisting of the named constants (pairwise distinct under unique
names) plus up to max_extra anonymous elements.  Positive verdicts are
labelled with the bound they hold up to; negative verdicts carry a concrete
witness model or sentence and re-validate by direct evaluation before being
returned.

Every question is answered on one path.  One walk per theory per call
compiles its axioms into a program: the grounding closures of the axioms,
or the data of a literal one, the env slot of each constant they mention,
the vocabulary and stages the walk met, and whether it met a quantifier, so
no theory is walked a second time to find them.  The walk raises each
grounding error, a free variable, a term that is not an object or a node
that cannot be grounded, where it meets it, in the order grounding would
meet it: a program holds no error to raise later.  From these each public
call builds one search, _Search, which fixes for the whole call the
vocabulary, the stages, the relation keys and domain bound they give, and
the one budget that every phase spends from, so time_limit and max_models
hold for the call.  Over each candidate domain the program is instantiated
on one grounder, its constants placed once into one env that all its axioms
share; _solve Tseitin-encodes the ground trees and runs a small DPLL
solver; the model is read off the solver's assignment and re-validated by
direct evaluation.  Every walker is a module-level function, so a question
leaves no reference cycle for the garbage collector.

A complete ground world is hundreds of literals over constants, and each
costs what a literal costs: the compiler records it as data, its relation
key, argument slots and sign, without dispatching on its shape or building
a closure, and the program's ground resolves that data to a literal
inline; evaluate answers it by one table lookup without its walker.  The
solver sets the unit clauses, keeps them out of its occurrence lists, and
propagates before it ranks the variables, and it ranks them only if one
is left to decide: none is when the literals pin every atom the question
grounds, since propagation then settles each Tseitin variable too.

The domain specs come from one loop over the domain sizes, made lazily,
as the search consumes them, so the time budget holds while they are
made.  A question none of whose formulas has a quantifier, such as a
quantifier-free query about a complete ground world, is searched once per
identification of its constants, at the least size that holds it: its
truth depends only on the elements the constants name, so over one
placement of the constants every larger domain grounds the same atoms, in
the same order, into the same CNF.  The first model found is the one the
full search finds, and a positive verdict still holds up to the search
bound.  models() and inseparability keep every spec, because the size of
a model or reduct is part of what they report.

Each compiled node grounds in the one polarity the compiler fixed for it,
and a negation is never grounded: it is the dual of the tree already
built, with conjunction and disjunction, TRUE and FALSE and each literal
swapped.  Entailment and satisfiability ask for one countermodel;
equivalence asks for one in each direction, over the same two programs.
Inseparability grounds each theory once per domain and lets one search
enumerate the distinct reducts to the shared signature, deciding those
atoms first; it always decides, because a reduct that only one theory
realizes is described up to isomorphism by a sentence the other theory
refutes.  Forgetting verification asks two satisfiability questions
per domain, one for each way the result can be wrong.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Collection, Iterator, Mapping, Optional, Sequence, Union

from .errors import BudgetExceeded, SitcalcError
from .forgetting import GroundAtom
from .syntax import (
    FALSE,
    And,
    Const,
    Exists,
    Falsity,
    FluentAtom,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    ObjEq,
    Or,
    Signature,
    Stage,
    StaticAtom,
    Theory,
    Truth,
    Var,
    conj,
    disj,
    flatten_and,
    flatten_or,
    free_vars,
    literal_atom,
    signature_of,
)

RelKey = tuple[str, str]  # (predicate name, "" for statics / stage tag for fluents)


@dataclass(frozen=True)
class OracleConfig:
    """Bounds and budgets for oracle calls.

    max_extra: anonymous domain elements allowed on top of the named constants.
    una: interpret distinct constants as distinct elements.  Switching it
         off also searches the identifications of constants: entailment,
         satisfiability, equivalence and forgetting verification try one
         constant placement per identification, up to renaming of elements;
         models() and inseparability try every placement.
    max_models: cap on the models or reducts one oracle call may produce,
         over all its enumerations (models(), inseparability, expansion).
    time_limit: wall-clock budget in seconds for the whole oracle call,
         every phase included; None for unlimited.
    witness_depth: quantifier/connective depth of the short separating
         sentences tried first; it chooses how short a witness is, never
         whether one is found.

    A bound out of range is a SitcalcError: a negative max_extra would
    search no domain at all under unique names.
    """

    max_extra: int = 1
    una: bool = True
    max_models: int = 2_000_000
    time_limit: Optional[float] = None
    witness_depth: int = 3

    def __post_init__(self) -> None:
        for ok, message in (
            (self.max_extra >= 0, f"max_extra must be at least 0, not {self.max_extra}"),
            (self.max_models >= 1, f"max_models must be at least 1, not {self.max_models}"),
            (self.witness_depth >= 0, f"witness_depth must be at least 0, not {self.witness_depth}"),
            (self.time_limit is None or self.time_limit > 0, f"time_limit must be positive, not {self.time_limit}"),
        ):
            if not ok:
                raise SitcalcError(message)


DEFAULT_CONFIG = OracleConfig()


# ---------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class FiniteModel:
    """An interpretation over domain {0, ..., size-1}.

    consts and relations are kept sorted by name so that structural equality
    and hashing coincide with semantic identity of the interpretation.
    """

    size: int
    consts: tuple[tuple[str, int], ...]
    relations: tuple[tuple[RelKey, frozenset[tuple[int, ...]]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_const_map", dict(self.consts))
        object.__setattr__(self, "_rel_map", dict(self.relations))

    def const(self, name: str) -> int:
        try:
            return self._const_map[name]  # type: ignore[attr-defined]
        except KeyError:
            raise SitcalcError(f"constant {name} is not interpreted in this model") from None

    def holds(self, key: RelKey, tup: tuple[int, ...]) -> bool:
        table = self._rel_map.get(key)  # type: ignore[attr-defined]
        if table is None:
            raise SitcalcError(f"predicate {key} is not interpreted in this model")
        return tup in table

    def with_toggled(self, g: GroundAtom) -> FiniteModel:
        """The variant model that differs exactly on the ground atom g."""
        key = _atom_rel_key(g)
        if key not in self._rel_map:  # type: ignore[attr-defined]
            raise SitcalcError(f"predicate {key} is not interpreted in this model")
        tup = tuple(self.const(c) for c in g.args)
        out = tuple(
            (k, table ^ {tup} if k == key else table) for k, table in self.relations
        )
        return FiniteModel(self.size, self.consts, out)

    def sort_key(self) -> tuple:
        """A total order that depends only on the interpretation, not on how
        its tables were built."""
        return (self.size, self.consts, tuple((k, sorted(t)) for k, t in self.relations))


def _atom_rel_key(g: GroundAtom) -> RelKey:
    return (g.pred, "" if g.stage is None else g.stage.value)


def evaluate(m: FiniteModel, f: Formula, env: Optional[Mapping[str, int]] = None) -> bool:
    """Truth of a formula in a model under an environment for free variables.

    A literal over constants is answered by one table lookup, without the
    walker; its errors are the walker's, raised by m.const and m.holds.
    """
    atom = literal_atom(f)
    if atom is not None:
        tup = []
        for t in atom.args:
            if type(t) is not Const:
                break
            tup.append(m.const(t.name))
        else:
            key = (atom.fluent, atom.stage._value_) if type(atom) is FluentAtom else (atom.pred, "")
            return m.holds(key, tuple(tup)) == (atom is f)
    return _holds(m, f, dict(env) if env else {})


def _term(m: FiniteModel, t, scope: dict) -> int:
    match t:
        case Const(name):
            return m.const(name)
        case Var(name):
            try:
                return scope[name]
            except KeyError:
                raise SitcalcError(f"free variable {name} in oracle formula") from None
        case _:
            raise SitcalcError(f"cannot evaluate term {t!r}")


def _holds(m: FiniteModel, f: Formula, scope: dict) -> bool:
    """evaluate's walker: the truth of f in m with the free variables bound
    in scope, which a quantifier rebinds while it runs and then restores."""
    match f:
        case Truth():
            return True
        case Falsity():
            return False
        case FluentAtom(name, args, stage):
            return m.holds((name, stage.value), tuple(_term(m, t, scope) for t in args))
        case StaticAtom(name, args):
            return m.holds((name, ""), tuple(_term(m, t, scope) for t in args))
        case ObjEq(lhs, rhs):
            return _term(m, lhs, scope) == _term(m, rhs, scope)
        case Not(body):
            # a chain of negations is one polarity bit, not one frame per !
            neg = True
            while type(body) is Not:
                body = body.body
                neg = not neg
            return _holds(m, body, scope) != neg
        case And(a, b):
            # a wide conjunction is walked along its spine, not down it
            if type(a) is And:
                return all(_holds(m, c, scope) for c in flatten_and(f))
            return _holds(m, a, scope) and _holds(m, b, scope)
        case Or(a, b):
            if type(a) is Or:
                return any(_holds(m, c, scope) for c in flatten_or(f))
            return _holds(m, a, scope) or _holds(m, b, scope)
        case Implies():
            # walk a right-nested chain a1 -> a2 -> ... -> b along its spine
            while type(f) is Implies:
                if not _holds(m, f.lhs, scope):
                    return True
                f = f.rhs
            return _holds(m, f, scope)
        case Iff(a, b):
            return _holds(m, a, scope) == _holds(m, b, scope)
        case Forall(v, body) | Exists(v, body):
            # a universal holds and an existential fails until an element
            # decides otherwise, and the first one that does ends the loop
            saved = scope.get(v.name)
            out = type(f) is Forall
            for scope[v.name] in range(m.size):
                if _holds(m, body, scope) != out:
                    out = not out
                    break
            if saved is None:
                scope.pop(v.name, None)
            else:
                scope[v.name] = saved
            return out
        case _:
            raise SitcalcError(f"cannot evaluate {f!r}")


def theory_holds(m: FiniteModel, t: Theory) -> bool:
    return all(evaluate(m, ax) for ax in t.axioms)


# ---------------------------------------------------------------------------
# domain and table enumeration


def _stage_tags(stages: frozenset[Stage]) -> tuple[str, ...]:
    return tuple(sorted(s.value for s in stages)) if stages else (Stage.NOW.value,)


def _rel_keys(vocab: Signature, stages: frozenset[Stage]) -> tuple[tuple[RelKey, int], ...]:
    keys: list[tuple[RelKey, int]] = [((name, ""), ar) for name, ar in vocab.statics]
    for name, ar in vocab.fluents:
        for tag in _stage_tags(stages):
            keys.append(((name, tag), ar))
    return tuple(sorted(keys))


def _growth_strings(m: int, n: int, prefix: tuple[int, ...] = (), top: int = -1) -> Iterator[tuple[int, ...]]:
    """Placements of m constants in range(n) where each constant goes to an
    element at most one above the largest used before it, in lexicographic
    order: one placement per identification of the constants, up to renaming
    of elements.  prefix and top are the placement so far and its largest
    element."""
    if len(prefix) == m:
        yield prefix
        return
    for e in range(min(top + 2, n)):
        yield from _growth_strings(m, n, prefix + (e,), max(top, e))


def _domain_specs(
    vocab: Signature, cfg: OracleConfig, canonical: bool = False, quantified: bool = True
) -> Iterator[tuple[int, tuple[tuple[str, int], ...]]]:
    """Domain sizes and constant placements to search, smallest domains first.

    One loop over the sizes makes the specs as the search consumes them, so
    the time budget holds while they are made: without unique names there
    are (m + max_extra)^m placements of m constants at the largest size.

    Under unique names each size, from max(1, m) on, has the one placement
    of the constants on distinct elements.  Without unique names the sizes
    start at 1 and every placement is a spec of its own.  canonical keeps
    only the restricted-growth placements, which is enough for a question
    that asks whether some bounded model exists: a placement's relabelling
    to restricted growth comes no later in this order and carries an
    isomorphic model, so the first spec with a model is always canonical
    and the model found is the same.

    quantified=False is for such a question none of whose formulas has a
    quantifier; it implies canonical.  The sizes stop at max(1, m), and each
    placement is kept only at the least size that holds it, one more than
    its largest element.  A quantifier-free formula grounds to atoms over
    the elements its constants name, so over one placement every larger
    domain numbers the same atoms, gives the same CNF and runs the same
    solver search: the first spec with a model is the one the full order
    finds first, and a placement without a model at its least size has none
    at any size.  A positive verdict still holds up to search_bound.
    """
    names = sorted(vocab.objects)
    m = len(names)
    top = max(1, m + cfg.max_extra) if quantified else max(1, m)
    for n in range(max(1, m) if cfg.una else 1, top + 1):
        if cfg.una:
            placements = (range(m),)
        elif canonical or not quantified:
            placements = _growth_strings(m, n)
        else:
            placements = itertools.product(range(n), repeat=m)
        for p in placements:
            if quantified or max(p, default=0) == n - 1:
                yield n, tuple(zip(names, p))


def search_bound(vocab: Signature, cfg: OracleConfig) -> int:
    """The largest domain size the oracle searches over this vocabulary."""
    return max(1, len(vocab.objects) + cfg.max_extra)


class _Search:
    """What one public oracle call fixes once and every phase of it reads:
    the config, the vocabulary and stages searched, the relation keys and
    largest domain size they give, and the call's one budget of models or
    reducts (count) and wall-clock time (deadline), which holds for the
    whole call."""

    __slots__ = ("cfg", "vocab", "stages", "keys", "bound", "deadline", "count", "_tick")

    def __init__(self, cfg: OracleConfig, vocab: Signature, stages: frozenset[Stage]):
        self.cfg = cfg
        self.vocab = vocab
        self.stages = stages
        self.keys = _rel_keys(vocab, stages)
        self.bound = search_bound(vocab, cfg)
        self.deadline = None if cfg.time_limit is None else time.monotonic() + cfg.time_limit
        self.count = 0
        self._tick = 0

    def spend(self, what: str = "model enumeration") -> None:
        self.count += 1
        if self.count > self.cfg.max_models:
            raise BudgetExceeded(f"{what} exceeded the budget of {self.cfg.max_models} models or reducts")
        self.check_time(what)

    def check_time(self, what: str = "oracle search") -> None:
        self._tick += 1
        if self.deadline is not None and self._tick % 512 == 0 and time.monotonic() > self.deadline:
            raise BudgetExceeded(f"{what} exceeded the time budget")


def models(t: Theory, cfg: OracleConfig = DEFAULT_CONFIG, sig: Optional[Signature] = None) -> Iterator[FiniteModel]:
    """Stream the bounded finite models of a theory, each exactly once.

    Domains come in the order of their specs; within one domain the models
    come in the solver's search order.
    """
    program = _compile(t.axioms)
    s = _Search(cfg, program.vocab | (sig or Signature()), program.stages)
    for n, consts in _domain_specs(s.vocab, cfg):
        for m in _projections(s, (program,), n, consts, s.keys, consts, "model enumeration"):
            _require(theory_holds(m, t), "enumerated model does not re-validate")
            yield m


# ---------------------------------------------------------------------------
# grounding and solving: each theory is compiled once per oracle call, by one
# walk, into a program of grounding closures, which is instantiated on the
# grounder of every domain spec; _solve Tseitin-encodes the ground trees and
# runs a small DPLL solver, and the caller reads its model off the assignment
# and re-validates it

# Ground trees are built from these two objects, so they are tested by identity.
_PTRUE = ("T",)
_PFALSE = ("F",)


def _folds(kind: str, unit: tuple, zero: tuple) -> tuple[Callable[[list], object], Callable[[object, object], object]]:
    """The n-ary and the binary fold of the connective kind, "A" or "O",
    whose unit is dropped and whose zero absorbs.  Both flatten a child of
    the same kind into the result; the binary fold gives the tree the n-ary
    one gives for [a, b], without building the list.  A tree is never
    mutated, so a child may come back as is."""

    def fold(children: list) -> object:
        out: list = []
        for c in children:
            if c is zero:
                return zero
            if c is unit:
                continue
            if isinstance(c, tuple) and c[0] == kind:
                out.extend(c[1])
            else:
                out.append(c)
        if not out:
            return unit
        if len(out) == 1:
            return out[0]
        return (kind, out)

    def fold2(a, b) -> object:
        if a is unit:
            return b
        if b is unit or a is zero:
            return a
        if b is zero:
            return b
        a_flat = type(a) is tuple and a[0] == kind
        if type(b) is tuple and b[0] == kind:
            return (kind, a[1] + b[1] if a_flat else [a, *b[1]])
        return (kind, [*a[1], b] if a_flat else [a, b])

    return fold, fold2


_pand, _pand2 = _folds("A", _PTRUE, _PFALSE)
_por, _por2 = _folds("O", _PFALSE, _PTRUE)


def _untimed(what: str) -> None:
    pass


def _negate(p, check_time: Callable[[str], None] = _untimed) -> object:
    """The dual of the ground tree p: "A" and "O" swapped, TRUE and FALSE
    swapped and every literal negated.  It is the tree that grounding the
    negation of p's formula gives, because the folds of the two connectives
    are duals.  check_time is ticked once per connective."""
    if type(p) is int:
        return -p
    if p is _PTRUE:
        return _PFALSE
    if p is _PFALSE:
        return _PTRUE
    check_time("grounding")
    kind, children = p
    return ("O" if kind == "A" else "A", [-c if type(c) is int else _negate(c, check_time) for c in children])


class _Grounder:
    """One domain spec's grounding state: the domain size, the constant
    placement, the propositional variable of each ground atom, numbered
    in the order the atoms are first met, and the time check of the search
    it grounds for, which the nodes that multiply work tick."""

    def __init__(self, size: int, consts: tuple[tuple[str, int], ...], check_time: Callable[[str], None] = _untimed):
        self.size = size
        self.consts = consts
        self.const_map = dict(consts)
        self.atom_vars: dict[tuple[RelKey, tuple[int, ...]], int] = {}
        self.nvars = 0
        self.check_time = check_time

    def _var(self, key: RelKey, tup: tuple[int, ...]) -> int:
        return self.atom_vars.get((key, tup)) or self._new_var((key, tup))

    def _new_var(self, k: tuple[RelKey, tuple[int, ...]]) -> int:
        self.nvars += 1
        self.atom_vars[k] = self.nvars
        return self.nvars


if TYPE_CHECKING:  # typing caches subscripted aliases, which would keep this module alive
    # A compiled node: (grounder, env) -> the ground tree of the node in the polarity
    # fixed when it was compiled, with the bound variables and constants read from env.
    _Node = Callable[[_Grounder, list], object]


class _Program:
    """A sequence of formulas compiled by _compile: the theory of those
    formulas, which re-validation evaluates, one root per formula, the env
    slot of each constant they mention, the number of env slots, the
    symbols and stages the walk met, and whether it met a quantifier.

    A root is a node, or for a literal over constants the data of one: its
    relation key, the env slots of its arguments and whether it is negated.

    vocab and stages are what signature_of and stages_of give for the
    formulas, so an oracle question reads them here instead of walking its
    theories again.
    """

    __slots__ = (
        "theory", "roots", "consts", "nslots", "statics", "fluents", "stages", "vocab", "quantified",
    )

    def ground(self, g: _Grounder) -> list:
        """The ground tree of each formula over g, in formula order, which
        is the order the atoms are numbered in.

        The constants are placed once into one env that all the roots share:
        each binder has a slot of its own, which its quantifier loop sets
        before the body reads it.  A literal root is resolved here, as its
        _atom node would resolve it.
        """
        env = [0] * self.nslots
        const_map = g.const_map
        for name, i in self.consts.items():
            if name not in const_map:
                raise SitcalcError(f"constant {name} missing from oracle vocabulary")
            env[i] = const_map[name]
        atom_vars = g.atom_vars
        trees = []
        for root in self.roots:
            if type(root) is not tuple:
                trees.append(root(g, env))
                continue
            key, slots, flip = root
            if len(slots) == 1:
                k = (key, (env[slots[0]],))
            elif len(slots) == 2:
                k = (key, (env[slots[0]], env[slots[1]]))
            else:
                k = (key, tuple([env[i] for i in slots]))
            v = atom_vars.get(k) or g._new_var(k)
            trees.append(-v if flip else v)
        return trees


def _compile(formulas: Sequence[Formula]) -> _Program:
    """Compile a theory's axioms, or a query, by one walk into a program to
    be instantiated on the grounder of each domain spec.

    Node types are dispatched and variables resolved here, once, instead of
    for every instance: each binder and each constant gets a slot in one
    list env, filled from the grounder's const_map when the program is
    instantiated and by the quantifier loops as they run.  Not is folded
    into the polarity, which each node fixes here, and And/Or spines into
    one n-ary node, so the closure tree nests only as deep as the formula
    alternates connectives.  The closures visit the nodes in the order of
    the recursive definition and never short-circuit, so the atoms are
    numbered in that order and the ground tree is the one _pand/_por fold
    from it.  The walk visits the nodes in that order too, and raises a
    grounding error where it meets one: a free variable, a term that is not
    an object, a node that cannot be grounded.  Only a constant missing from
    const_map is left to instantiation, which reports it before anything is
    grounded.

    An axiom that is a literal, as each axiom of a complete ground world
    is, skips _comp: its slots, symbol and stage are recorded as _comp
    records them and its root is the data of its _atom node, which ground
    resolves without a call.
    """
    p = _Program()
    p.theory = Theory(tuple(formulas))
    consts = p.consts = {}
    p.nslots = 0
    p.quantified = False
    p.statics, p.fluents, p.stages = set(), set(), set()
    roots = p.roots = []
    for f in formulas:
        atom = literal_atom(f)
        if atom is None:
            roots.append(_comp(f, {}, False, p))
            continue
        # a literal: what _comp records for it, by one slot per new
        # constant, and the data of its _atom node
        slots = []
        for t in atom.args:
            if type(t) is not Const:
                _term_slot(t, {}, p)  # raises: no binder is in scope at a root
            i = consts.get(t.name)
            if i is None:
                i = consts[t.name] = p.nslots
                p.nslots += 1
            slots.append(i)
        if type(atom) is FluentAtom:
            p.fluents.add((atom.fluent, len(slots)))
            p.stages.add(atom.stage)
            key = (atom.fluent, atom.stage._value_)  # Stage.value is Python-level
        else:
            p.statics.add((atom.pred, len(slots)))
            key = (atom.pred, "")
        roots.append((key, slots, atom is not f))
    p.vocab = Signature(frozenset(consts), frozenset(p.statics), frozenset(p.fluents))
    p.stages = frozenset(p.stages)
    return p


def _comp(f: Formula, scope: Mapping[str, int], flip: bool, p: _Program) -> _Node:
    """The node grounding f, or its negation if flip, recording in p the
    slots, symbols and stages f mentions."""
    while type(f) is Not:
        f = f.body
        flip = not flip
    node = type(f)  # dispatched by identity: this runs on every node of every question
    if node is FluentAtom:
        p.fluents.add((f.fluent, len(f.args)))
        p.stages.add(f.stage)
        return _atom((f.fluent, f.stage.value), [_term_slot(t, scope, p) for t in f.args], flip)
    if node is StaticAtom:
        p.statics.add((f.pred, len(f.args)))
        return _atom((f.pred, ""), [_term_slot(t, scope, p) for t in f.args], flip)
    if node is And or node is Or:
        spine = flatten_and(f) if node is And else flatten_or(f)
        return _connective((node is Or) != flip, [_comp(c, scope, flip, p) for c in spine])
    if node is Implies:
        # a right-nested chain a1 -> a2 -> ... -> b is one disjunction
        # !a1 | !a2 | ... | b, which _por folds as it would the nesting
        children = []
        while type(f) is Implies:
            children.append(_comp(f.lhs, scope, not flip, p))
            f = f.rhs
        children.append(_comp(f, scope, flip, p))
        return _connective(not flip, children)
    if node is ObjEq:
        return _equality(_term_slot(f.lhs, scope, p), _term_slot(f.rhs, scope, p), flip)
    if node is Forall or node is Exists:
        p.quantified = True
        i = p.nslots
        p.nslots += 1
        return _quantifier((node is Exists) != flip, i, _comp(f.body, {**scope, f.var.name: i}, flip, p))
    if node is Iff:
        return _iff(_comp(f.lhs, scope, False, p), _comp(f.rhs, scope, False, p), flip)
    if node is Truth or node is Falsity:
        val = _PFALSE if (node is Falsity) != flip else _PTRUE
        return lambda g, env: val
    raise SitcalcError(f"cannot ground {f!r}")


def _term_slot(t, scope: Mapping[str, int], p: _Program) -> int:
    """The env slot of a term: its binder's, or its constant's."""
    if type(t) is Var:
        if t.name not in scope:
            raise SitcalcError(f"formula has free variable {t.name}")
        return scope[t.name]
    if type(t) is not Const:
        raise SitcalcError(f"cannot ground term {t!r}")
    if t.name not in p.consts:
        p.consts[t.name] = p.nslots
        p.nslots += 1
    return p.consts[t.name]


def _atom(key: RelKey, slots: list[int], flip: bool) -> _Node:
    if len(slots) == 1:
        i = slots[0]
        args = lambda env: (env[i],)  # noqa: E731
    else:
        # itemgetter of two or more slots returns their tuple
        args = itemgetter(*slots) if slots else lambda env: ()

    def atom(g: _Grounder, env: list) -> object:
        k = (key, args(env))
        v = g.atom_vars.get(k) or g._new_var(k)
        return -v if flip else v

    return atom


def _equality(i: int, j: int, flip: bool) -> _Node:
    def equality(g: _Grounder, env: list) -> object:
        return _PTRUE if (env[i] == env[j]) != flip else _PFALSE

    return equality


def _connective(disjunctive: bool, children: list[_Node]) -> _Node:
    """An n-ary conjunction, or disjunction if disjunctive, of the children."""
    fold, fold2 = (_por, _por2) if disjunctive else (_pand, _pand2)
    if len(children) == 2:  # most are binary: fold them without a list
        a, b = children

        def binary(g: _Grounder, env: list) -> object:
            return fold2(a(g, env), b(g, env))

        return binary

    def connective(g: _Grounder, env: list) -> object:
        return fold([c(g, env) for c in children])

    return connective


def _iff(a: _Node, b: _Node, flip: bool) -> _Node:
    def iff(g: _Grounder, env: list) -> object:
        g.check_time("grounding")
        ap, bp = a(g, env), b(g, env)
        an, bn = _negate(ap, g.check_time), _negate(bp, g.check_time)
        if flip:  # the dual of the positive form below
            return _por2(_pand2(ap, bn), _pand2(bp, an))
        return _pand2(_por2(an, bp), _por2(bn, ap))

    return iff


def _quantifier(existential: bool, i: int, body: _Node) -> _Node:
    fold = _por if existential else _pand

    def quantifier(g: _Grounder, env: list) -> object:
        g.check_time("grounding")
        # binds env[i] to each element in turn
        return fold([body(g, env) for env[i] in range(g.size)])

    return quantifier


class _CNF:
    def __init__(self, nvars: int, check_time: Callable[[str], None] = _untimed):
        self.nvars = nvars
        self.clauses: list[list[int]] = []
        self.trivially_false = False
        self.check_time = check_time

    def _fresh(self) -> int:
        self.nvars += 1
        return self.nvars

    def _encode(self, p) -> int:
        """Tseitin literal equisatisfiable with the NNF node."""
        if isinstance(p, int):
            return p
        self.check_time("encoding")
        kind, children = p
        lits = [self._encode(c) for c in children]
        v = self._fresh()
        if kind == "A":
            for l in lits:
                self.clauses.append([-v, l])
            self.clauses.append([v] + [-l for l in lits])
        else:
            self.clauses.append([-v] + lits)
            for l in lits:
                self.clauses.append([v, -l])
        return v

    def assert_root(self, p) -> None:
        if p is _PTRUE:
            return
        if p is _PFALSE:
            self.trivially_false = True
            return
        if isinstance(p, int):
            self.clauses.append([p])
            return
        kind, children = p
        if kind == "A":
            for c in children:
                self.assert_root(c)
        else:
            self.clauses.append([self._encode(c) for c in children])


def _dpll_models(
    nvars: int,
    clauses: list[list[int]],
    s: _Search,
    project: Collection[int] = (),
) -> Iterator[list[Optional[bool]]]:
    """Deterministic DPLL with unit propagation, enumerating models.

    Variables are decided in a fixed order, each false first: the variables
    in project before all others, then the more occurrences in the clauses
    the earlier, then the smaller.  So the first model found is the least
    one in that order, false before true.  After each model the search
    backtracks to the deepest decision on a projected variable as if that
    decision had hit a conflict, so it yields exactly one model per
    assignment of the projected variables that extends to a model; with
    project empty it yields at most one.  The yielded list is the solver's
    own assignment, indexed by literal: entry v is the value of variable v
    for 1 <= v <= nvars.  Read it before resuming.
    """
    # value[lit] and occ[lit], for -nvars <= lit <= nvars: a negative literal
    # indexes from the end of the list
    value: list[Optional[bool]] = [None] * (2 * nvars + 1)
    # the clauses lit occurs in, once per occurrence; a unit clause is left
    # out: its literal is set below, before any decision, and never undone,
    # so the unit can neither propagate nor conflict, and the rank of its
    # variable is never read
    occ: list[list[list[int]]] = [[] for _ in value]
    units: list[int] = []
    for cl in clauses:
        if len(cl) == 1:
            units.append(cl[0])
            continue
        if not cl:
            return
        for lit in cl:
            occ[lit].append(cl)

    projected = [False] * (nvars + 1)
    for v in project:
        projected[v] = True

    trail: list[int] = []
    qhead = 0

    def set_lit(lit: int) -> bool:
        cur = value[lit]
        if cur is False:
            return False
        if cur is None:
            value[lit] = True
            value[-lit] = False
            trail.append(lit)
        return True

    def propagate() -> bool:
        nonlocal qhead
        while qhead < len(trail):
            s.check_time("SAT search")
            lit = trail[qhead]
            qhead += 1
            for cl in occ[-lit]:
                unassigned = 0
                for l in cl:
                    val = value[l]
                    if val is None:
                        if unassigned:
                            break  # two unassigned literals: not a unit
                        unassigned = l
                    elif val:
                        break  # satisfied
                else:
                    if not unassigned:
                        return False  # every literal false: a conflict
                    # a unit clause: its one unassigned literal must hold
                    value[unassigned] = True
                    value[-unassigned] = False
                    trail.append(unassigned)
        return True

    def undo_to(mark: int) -> None:
        nonlocal qhead
        while len(trail) > mark:
            lit = trail.pop()
            value[lit] = value[-lit] = None
        qhead = mark

    for lit in units:
        if not set_lit(lit):
            return
    if not propagate():
        return

    # The variables are ranked only if one is left to decide.  The order is
    # (not projected, -occurrences, v): a stable sort of 1..nvars on one
    # integer key per variable, which puts every projected variable first.
    order: list[int] = []
    if len(trail) < nvars:
        rank = [-len(occ[v]) - len(occ[-v]) for v in range(nvars + 1)]
        if project:
            shift = 1 - min(rank)  # exceeds the difference of any two unassigned variables' counts
            for v in project:
                rank[v] = -len(occ[v]) - len(occ[-v]) - shift
        order = sorted(range(1, nvars + 1), key=rank.__getitem__)

    # decision stack entries: (trail mark before the decision, literal, flipped?)
    decisions: list[tuple[int, int, bool]] = []
    oi = 0
    while True:
        var = None
        while oi < len(order):
            if value[order[oi]] is None:
                var = order[oi]
                break
            oi += 1
        if var is None:
            yield value
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


def _solve(
    s: _Search,
    g: _Grounder,
    props: Sequence[object],
    project: Collection[int] = (),
) -> Iterator[list[Optional[bool]]]:
    """Tseitin-encode the conjunction of ground trees built by g and yield
    what _dpll_models yields for it: nothing if the conjunction is trivially
    false."""
    cnf = _CNF(g.nvars, s.check_time)
    for p in props:
        cnf.assert_root(p)
    if not cnf.trivially_false:
        yield from _dpll_models(cnf.nvars, cnf.clauses, s, project)


def _solve_ground(s: _Search, g: _Grounder, props: Sequence[object]) -> Optional[FiniteModel]:
    """A model of the conjunction of ground trees built by g, or None.

    The model interprets the relations of s.keys; atoms that no tree
    mentions are false in it.
    """
    assignment = next(_solve(s, g, props), None)
    if assignment is None:
        return None
    tables: dict[RelKey, set[tuple[int, ...]]] = {key: set() for key, _ in s.keys}
    for (key, tup), var in g.atom_vars.items():
        if assignment[var]:
            tables.setdefault(key, set()).add(tup)
    rels = tuple((key, frozenset(tables[key])) for key in sorted(tables))
    return FiniteModel(g.size, g.consts, rels)


def _projections(
    s: _Search,
    programs: Sequence[_Program],
    n: int,
    consts: tuple[tuple[str, int], ...],
    keys: Sequence[tuple[RelKey, int]],
    shown_consts: tuple[tuple[str, int], ...],
    what: str,
) -> Iterator[FiniteModel]:
    """Each interpretation of the relations in keys that extends to a model
    of the programs' formulas over the given domain, exactly once.

    Every ground atom over keys gets a variable before grounding, so atoms the
    axioms do not mention are enumerated both ways.  The yielded models
    interpret only keys and shown_consts.
    """
    g = _Grounder(n, consts, s.check_time)
    atoms = [(key, tup, g._var(key, tup)) for key, ar in keys for tup in itertools.product(range(n), repeat=ar)]
    props = [tree for p in programs for tree in p.ground(g)]
    for assignment in _solve(s, g, props, [v for _, _, v in atoms]):
        s.spend(what)
        tables: dict[RelKey, list[tuple[int, ...]]] = {key: [] for key, _ in keys}
        for key, tup, v in atoms:
            if assignment[v]:
                tables[key].append(tup)
        yield FiniteModel(n, shown_consts, tuple((key, frozenset(tables[key])) for key, _ in keys))


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class EntailedFinite:
    bound: int


@dataclass(frozen=True)
class Countermodel:
    model: FiniteModel


@dataclass(frozen=True)
class EquivalentFinite:
    bound: int


@dataclass(frozen=True)
class NotEquivalent:
    model: FiniteModel
    direction: str  # "1!=>2": the model satisfies t1 but not t2; "2!=>1" dually


@dataclass(frozen=True)
class Sat:
    model: FiniteModel


@dataclass(frozen=True)
class UnsatFinite:
    bound: int


@dataclass(frozen=True)
class VerifiedFinite:
    bound: int


@dataclass(frozen=True)
class ForgettingMismatch:
    model: FiniteModel
    direction: str  # "result-too-strong" excludes a legitimate model; "result-too-weak" admits one


@dataclass(frozen=True)
class InseparableFinite:
    bound: int
    reduct_counts: tuple[tuple[int, int, int], ...]  # (size, |reducts1|, |reducts2|)


@dataclass(frozen=True)
class Separated:
    witness: Formula
    entailed_by: int  # 1 or 2
    bound: int


Verdict = (
    EntailedFinite
    | Countermodel
    | EquivalentFinite
    | NotEquivalent
    | Sat
    | UnsatFinite
    | VerifiedFinite
    | ForgettingMismatch
    | InseparableFinite
    | Separated
)

_POSITIVE = (EntailedFinite, EquivalentFinite, Sat, VerifiedFinite, InseparableFinite)


def is_positive(v: Verdict) -> bool:
    return isinstance(v, _POSITIVE)


def _require(cond: bool, message: str) -> None:
    """A failed self-check is a defect of the oracle, not bad input; an
    explicit raise, so that python -O keeps it."""
    if not cond:
        raise AssertionError(f"oracle self-check failed: {message}")


# ---------------------------------------------------------------------------
# entailment, equivalence, satisfiability


def entails(
    t: Theory,
    f: Formula,
    cfg: OracleConfig = DEFAULT_CONFIG,
    sig: Optional[Signature] = None,
) -> Union[EntailedFinite, Countermodel]:
    """Does every bounded model of t satisfy f?"""
    tp, fp = _compile(t.axioms), _compile((f,))
    s = _Search(cfg, tp.vocab | fp.vocab | (sig or Signature()), tp.stages | fp.stages)
    return _countermodel(s, tp, fp)


def equivalent(
    t1: Theory, t2: Theory, cfg: OracleConfig = DEFAULT_CONFIG
) -> Union[EquivalentFinite, NotEquivalent]:
    """Do t1 and t2 have the same bounded models over the joint vocabulary?"""
    p1, p2 = _compile(t1.axioms), _compile(t2.axioms)
    s = _Search(cfg, p1.vocab | p2.vocab, p1.stages | p2.stages)
    v12 = _countermodel(s, p1, p2)
    if isinstance(v12, Countermodel):
        return NotEquivalent(v12.model, "1!=>2")
    v21 = _countermodel(s, p2, p1)
    if isinstance(v21, Countermodel):
        return NotEquivalent(v21.model, "2!=>1")
    return EquivalentFinite(s.bound)


def _countermodel(s: _Search, tp: _Program, up: _Program) -> Union[EntailedFinite, Countermodel]:
    """A bounded model of tp's theory t that falsifies up's theory u, over
    the search's vocabulary and stages, which cover both; not-u is the dual
    of u's ground tree.  Without a quantifier in either, each placement is
    searched only at its least size (see _domain_specs)."""
    for n, consts in _domain_specs(s.vocab, s.cfg, canonical=True, quantified=tp.quantified or up.quantified):
        g = _Grounder(n, consts, s.check_time)
        props = tp.ground(g)
        props.append(_negate(_pand(up.ground(g)), s.check_time))
        m = _solve_ground(s, g, props)
        if m is not None:
            _require(
                theory_holds(m, tp.theory) and not theory_holds(m, up.theory), "countermodel does not re-validate"
            )
            return Countermodel(m)
    return EntailedFinite(s.bound)


def satisfiable(t: Theory, cfg: OracleConfig = DEFAULT_CONFIG) -> Union[Sat, UnsatFinite]:
    """Does t have a bounded model?  Exactly when t does not entail FALSE."""
    v = entails(t, FALSE, cfg)
    return Sat(v.model) if isinstance(v, Countermodel) else UnsatFinite(v.bound)


# ---------------------------------------------------------------------------
# forgetting verification


def verify_forgetting(
    t: Theory,
    g: GroundAtom,
    r: Theory,
    cfg: OracleConfig = DEFAULT_CONFIG,
) -> Union[VerifiedFinite, ForgettingMismatch]:
    """Check that r's bounded models are exactly t's models with g released.

    M must satisfy r iff M or its g-toggled variant satisfies t.  Over each
    domain each theory is grounded once and its negation is the dual tree;
    writing t' for t with g's variable negated, r is too strong where
    (t or t') and not r is satisfiable, and too weak where r and not t and
    not t' is.
    """
    tp, rp = _compile(t.axioms), _compile(r.axioms)
    stages = tp.stages | rp.stages
    if g.stage is not None:
        stages = stages | {g.stage}
    s = _Search(cfg, tp.vocab | rp.vocab | g.signature(), stages)
    for n, consts in _domain_specs(s.vocab, cfg, canonical=True, quantified=tp.quantified or rp.quantified):
        gr = _Grounder(n, consts, s.check_time)
        gv = gr._var(_atom_rel_key(g), tuple(gr.const_map[c] for c in g.args))
        t_pos, r_pos = _pand(tp.ground(gr)), _pand(rp.ground(gr))
        t_neg, r_neg = _negate(t_pos, s.check_time), _negate(r_pos, s.check_time)
        queries = (
            ("result-too-strong", [_por([t_pos, _negate_var(t_pos, gv)]), r_neg]),
            ("result-too-weak", [r_pos, t_neg, _negate_var(t_neg, gv)]),
        )
        for direction, props in queries:
            m = _solve_ground(s, gr, props)
            if m is None:
                continue
            reachable = theory_holds(m, t) or theory_holds(m.with_toggled(g), t)
            admitted = theory_holds(m, r)
            _require(
                reachable != admitted and admitted == (direction == "result-too-weak"),
                "forgetting mismatch does not re-validate",
            )
            return ForgettingMismatch(m, direction)
    return VerifiedFinite(s.bound)


def _negate_var(p, var: int) -> object:
    """The ground tree p with every occurrence of variable var negated."""
    if isinstance(p, int):
        return -p if abs(p) == var else p
    if p is _PTRUE or p is _PFALSE:
        return p
    kind, children = p
    return (kind, [_negate_var(c, var) for c in children])


# ---------------------------------------------------------------------------
# inseparability

# Cap on the short candidate sentences one witness search tries.
_WITNESS_CANDIDATES = 50_000


def _reduct_sets_by_size(
    s: _Search, side1: Sequence[_Program], side2: Sequence[_Program], delta: Signature
) -> list[tuple[int, frozenset[FiniteModel], frozenset[FiniteModel]]]:
    """Delta-reducts of the bounded models of each side, grouped by domain
    size; a side is the theory whose axioms are those of its programs.

    Each side is grounded once per domain spec, and one solver search that
    decides the delta atoms first yields each realized reduct once, so the
    interpretations of the remaining symbols are never enumerated.  Grouping
    by size (rather than by constant placement) matters without unique names:
    the same reduct may be realized under different placements.
    """
    delta_keys = _rel_keys(delta, s.stages)
    by_size: dict[int, tuple[set[FiniteModel], set[FiniteModel]]] = {}
    for n, consts in _domain_specs(s.vocab, s.cfg):
        delta_consts = tuple((nm, e) for nm, e in consts if nm in delta.objects)
        for side, reducts in zip((side1, side2), by_size.setdefault(n, (set(), set()))):
            reducts.update(_projections(s, side, n, consts, delta_keys, delta_consts, "reduct enumeration"))
    return [(n, frozenset(r1), frozenset(r2)) for n, (r1, r2) in sorted(by_size.items())]


def _delta_atoms(
    delta: Signature, nvars: int, include_consts: bool, stages: frozenset[Stage]
) -> list[Formula]:
    terms: list = [Var(f"v{i}") for i in range(nvars)]
    if include_consts:
        terms += [Const(c) for c in sorted(delta.objects)]
    atoms: list[Formula] = []
    for name, ar in sorted(delta.statics):
        for tup in itertools.product(terms, repeat=ar):
            atoms.append(StaticAtom(name, tup))
    for name, ar in sorted(delta.fluents):
        for tup in itertools.product(terms, repeat=ar):
            for tag in _stage_tags(stages):
                atoms.append(FluentAtom(name, tup, Stage(tag)))
    for i, a in enumerate(terms):
        for b in terms[i + 1 :]:
            atoms.append(ObjEq(a, b))
    return atoms


def _combine(levels: list[list[Formula]]) -> list[Formula]:
    """The matrices with one connective more than the last of levels, where
    levels[c] holds the matrices with c connectives over the same variables:
    the negation of each matrix of the level below that is not a negation,
    then for each split of the other connectives the pairs a, b, joined by
    & and | when a comes first in repr order and by -> when they differ."""
    conn = len(levels)
    out = [Not(f) for f in levels[-1] if not isinstance(f, Not)]
    for i in range(conn):
        for a in levels[i]:
            if len(out) > _WITNESS_CANDIDATES:
                break
            for b in levels[conn - 1 - i]:
                ra, rb = repr(a), repr(b)
                if ra < rb:
                    out.append(And(a, b))
                    out.append(Or(a, b))
                if ra != rb:
                    out.append(Implies(a, b))
    del out[_WITNESS_CANDIDATES + 1 :]
    return out


def _delta_sentences(
    delta: Signature, depth: int, include_consts: bool, stages: frozenset[Stage]
) -> Iterator[Formula]:
    """Prenex delta-sentences in a deterministic small-first order.

    The matrices over v0 .. v{q-1} are built level by level, one more
    connective a level, as the order reaches them.  With include_consts only
    the sentences that mention a constant are yielded, since the others were
    tried without constants, but all of them count towards the cap.
    """
    # levels[q][c]: the matrices over q variables with c connectives
    levels = [[_delta_atoms(delta, q, include_consts, stages)] for q in range(depth + 1)]
    emitted = 0
    for total in range(2 * depth + 1):
        for q in range(max(0, total - depth), min(total, depth) + 1):
            conn = total - q
            while len(levels[q]) <= conn:
                levels[q].append(_combine(levels[q]))
            names = frozenset(f"v{i}" for i in range(q))
            for matrix in levels[q][conn]:
                if free_vars(matrix) != names:
                    continue
                if include_consts and not signature_of(matrix).objects:
                    emitted += 2**q
                    if emitted > _WITNESS_CANDIDATES:
                        return
                    continue
                for shape in itertools.product((Forall, Exists), repeat=q):
                    f: Formula = matrix
                    for i in range(q - 1, -1, -1):
                        f = shape[i](Var(f"v{i}"), f)
                    emitted += 1
                    if emitted > _WITNESS_CANDIDATES:
                        return
                    yield f


def _characteristic_sentence(m: FiniteModel, delta: Signature) -> Formula:
    """A delta-sentence true in exactly the structures isomorphic to the
    delta-reduct m.

    Each element is denoted by the first delta-constant naming it, or else by
    an existential variable; the elements are pairwise distinct, a closing
    universal says there are no others, and m's full delta-diagram holds.
    """
    named: dict[int, Const] = {}
    parts: list[Formula] = []
    for name, e in m.consts:
        if e in named:
            parts.append(ObjEq(named[e], Const(name)))  # identified constants, only without unique names
        else:
            named[e] = Const(name)
    unnamed = [e for e in range(m.size) if e not in named]
    term = {e: Var(f"v{i}") for i, e in enumerate(unnamed)} | named
    elems = [term[e] for e in range(m.size)]
    parts += [Not(ObjEq(a, b)) for a, b in itertools.combinations(elems, 2)]
    y = Var(f"v{len(unnamed)}")
    parts.append(Forall(y, disj(ObjEq(y, a) for a in elems)))
    statics, fluents = dict(delta.statics), dict(delta.fluents)
    for (name, tag), table in m.relations:
        for tup in itertools.product(range(m.size), repeat=fluents[name] if tag else statics[name]):
            args = tuple(term[e] for e in tup)
            atom = FluentAtom(name, args, Stage(tag)) if tag else StaticAtom(name, args)
            parts.append(atom if tup in table else Not(atom))
    chi = conj(parts)
    for e in reversed(unnamed):
        chi = Exists(term[e], chi)
    return chi


def _first_unmatched(
    s: _Search,
    sets: Sequence[tuple[int, frozenset[FiniteModel], frozenset[FiniteModel]]],
    delta: Signature,
) -> Optional[tuple[Formula, int]]:
    """The characteristic sentence of the first reduct that only one theory
    realizes up to isomorphism, and the theory lacking it; None if none."""
    for _, r1, r2 in sets:
        for m in sorted(r1 ^ r2, key=FiniteModel.sort_key):
            s.check_time("witness search")
            chi = _characteristic_sentence(m, delta)
            lacking, other = (2, r2) if m in r1 else (1, r1)
            # With unique names and a constant outside delta, the other theory
            # may realize m only up to isomorphism.
            if not any(evaluate(o, chi) for o in other):
                return chi, lacking
    return None


def check_inseparable(
    t1: Theory,
    t2: Theory,
    delta: Signature,
    cfg: OracleConfig = DEFAULT_CONFIG,
) -> Union[InseparableFinite, Separated]:
    """Compare the delta-consequences of two theories at finite scale.

    Delta-reducts that agree up to isomorphism at every bounded size give
    INSEPARABLE up to the bound: the theories then entail exactly the same
    delta-sentences over these models.  That is settled first, by looking
    for a reduct that only one theory realizes up to isomorphism; there is
    none, and no witness search, when the reducts match up to renaming.
    Otherwise the verdict is SEPARATED, with a delta-sentence one theory
    entails and the other does not.  The short prenex sentences up to
    cfg.witness_depth are tried first.  If none separates, the witness is
    the negated characteristic sentence of the first unmatched reduct, in
    FiniteModel.sort_key order.  The other theory entails it exactly: the
    sentence fixes the domain size, and every reduct of that size was
    enumerated.  Every witness is re-validated in both directions.
    """
    p1, p2 = _compile(t1.axioms), _compile(t2.axioms)
    s = _Search(cfg, p1.vocab | p2.vocab | delta, p1.stages | p2.stages)
    sets = _reduct_sets_by_size(s, (p1,), (p2,), delta)
    unmatched = _first_unmatched(s, sets, delta)
    if unmatched is None:
        return InseparableFinite(s.bound, tuple((n, len(r1), len(r2)) for n, r1, r2 in sets))

    def separated(witness: Formula, by: int) -> Separated:
        # entails(winner, witness) and entails(loser, witness) on the
        # programs compiled above; a delta-sentence adds nothing to s.vocab
        winner, loser = (p1, p2) if by == 1 else (p2, p1)
        qp = _compile((witness,))
        _require(
            isinstance(_countermodel(s, winner, qp), EntailedFinite),
            "separation witness not entailed on re-validation",
        )
        _require(
            isinstance(_countermodel(s, loser, qp), Countermodel),
            "separation witness lacks a countermodel on re-validation",
        )
        return Separated(witness, by, s.bound)

    all1 = sorted({m for _, r1, _ in sets for m in r1}, key=FiniteModel.sort_key)
    all2 = sorted({m for _, _, r2 in sets for m in r2}, key=FiniteModel.sort_key)
    # Constant-free witnesses first: they are the more portable separators, so
    # the reported sentence does not mention constants unless it has to.
    passes = (False, True) if delta.objects else (False,)
    # Fluent atoms come at every stage the theories mention.
    for use_consts in passes:
        for candidate in _delta_sentences(delta, cfg.witness_depth, use_consts, s.stages):
            s.check_time("witness search")
            vec = tuple(evaluate(m, candidate) for m in all1 + all2)
            e1 = all(vec[: len(all1)])
            e2 = all(vec[len(all1) :])
            if e1 != e2:
                return separated(candidate, 1 if e1 else 2)
    chi, lacking = unmatched
    return separated(Not(chi), lacking)


@dataclass(frozen=True)
class ExpansionReport:
    """Finite-scale check that each theory's models extend to joint models.

    t1_expandable means every bounded model of t1 becomes a model of t1
    together with t2 after reinterpreting the symbols outside sig(t1); dually
    for t2_expandable.  When both hold, the theories are inseparable over
    their shared signature at this bound, and the property is stable under
    forgetting, which plain inseparability is not.
    """

    bound: int
    t1_expandable: bool
    t2_expandable: bool


def check_expansion(
    t1: Theory,
    t2: Theory,
    cfg: OracleConfig = DEFAULT_CONFIG,
) -> ExpansionReport:
    """Can every bounded model of each theory be expanded to a joint model?

    A model of t1 is identified with its sig(t1)-reduct; it is expandable
    exactly when the union theory realizes the same reduct over the same
    domain.  The containment union-into-t1 holds by construction, so only
    the converse is tested, and likewise for t2.
    """
    p1, p2 = _compile(t1.axioms), _compile(t2.axioms)
    s = _Search(cfg, p1.vocab | p2.vocab, p1.stages | p2.stages)
    # the union theory's axioms are t1's followed by t2's
    t1_expandable, t2_expandable = (
        all(r1 <= r2 for _, r1, r2 in _reduct_sets_by_size(s, (p,), (p1, p2), p.vocab)) for p in (p1, p2)
    )
    return ExpansionReport(s.bound, t1_expandable, t2_expandable)
