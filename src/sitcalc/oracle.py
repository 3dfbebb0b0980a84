"""Bounded finite-model oracle.

Every verdict is relative to an explicit class of finite interpretations:
domains consisting of the named constants (pairwise distinct under unique
names) plus up to max_extra anonymous elements.  Positive verdicts are
labelled with the bound they hold up to; negative verdicts carry a concrete
witness model or sentence and re-validate by direct evaluation before being
returned.

Every question is answered on one propositional engine: the formulas are
grounded over each candidate domain, Tseitin-encoded and handed to a small
DPLL solver.  Entailment, equivalence and satisfiability ask for one model.
Inseparability grounds each theory once per domain and lets one search
enumerate the distinct reducts to the shared signature, deciding those
atoms first; it always decides, because a reduct that only one theory
realizes is described up to isomorphism by a sentence the other theory
refutes.  Forgetting verification asks two satisfiability questions per
domain, one for each way the result can be wrong.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Collection, Iterator, Mapping, Optional, Sequence, Union

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
    free_vars,
    signature_of,
    stages_of,
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
    max_models: cap on the models or reducts one enumeration may produce
         (models(), inseparability, expansion).
    time_limit: wall-clock budget in seconds, None for unlimited.
    witness_depth: quantifier/connective depth of the short separating
         sentences tried first; it chooses how short a witness is, never
         whether one is found.
    """

    max_extra: int = 1
    una: bool = True
    max_models: int = 2_000_000
    time_limit: Optional[float] = None
    witness_depth: int = 3


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
    """Truth of a formula in a model under an environment for free variables."""
    scope = dict(env) if env else {}

    def term(t) -> int:
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

    def walk(f: Formula) -> bool:
        match f:
            case Truth():
                return True
            case Falsity():
                return False
            case FluentAtom(name, args, stage):
                return m.holds((name, stage.value), tuple(term(t) for t in args))
            case StaticAtom(name, args):
                return m.holds((name, ""), tuple(term(t) for t in args))
            case ObjEq(lhs, rhs):
                return term(lhs) == term(rhs)
            case Not(body):
                return not walk(body)
            case And(a, b):
                return walk(a) and walk(b)
            case Or(a, b):
                return walk(a) or walk(b)
            case Implies(a, b):
                return (not walk(a)) or walk(b)
            case Iff(a, b):
                return walk(a) == walk(b)
            case Forall(v, body):
                saved = scope.get(v.name)
                try:
                    for d in range(m.size):
                        scope[v.name] = d
                        if not walk(body):
                            return False
                    return True
                finally:
                    _restore(scope, v.name, saved)
            case Exists(v, body):
                saved = scope.get(v.name)
                try:
                    for d in range(m.size):
                        scope[v.name] = d
                        if walk(body):
                            return True
                    return False
                finally:
                    _restore(scope, v.name, saved)
            case _:
                raise SitcalcError(f"cannot evaluate {f!r}")

    return walk(f)


def _restore(scope: dict, name: str, saved: Optional[int]) -> None:
    if saved is None:
        scope.pop(name, None)
    else:
        scope[name] = saved


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


def _growth_strings(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """Placements of m constants in range(n) where each constant goes to an
    element at most one above the largest used before it, in lexicographic
    order: one placement per identification of the constants, up to renaming
    of elements."""

    def extend(prefix: tuple[int, ...], top: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == m:
            yield prefix
            return
        for e in range(min(top + 2, n)):
            yield from extend(prefix + (e,), max(top, e))

    return extend((), -1)


def _domain_specs(
    vocab: Signature, cfg: OracleConfig, canonical: bool = False
) -> list[tuple[int, tuple[tuple[str, int], ...]]]:
    """Domain sizes and constant placements to search, smallest domains first.

    Without unique names every placement of the constants is a spec of its
    own.  canonical keeps only the restricted-growth placements, which is
    enough for a question that asks whether some bounded model exists: a
    placement's relabelling to restricted growth comes no later in this
    order and carries an isomorphic model, so the first spec with a model is
    always canonical and the model found is the same.
    """
    names = sorted(vocab.objects)
    m = len(names)
    specs: list[tuple[int, tuple[tuple[str, int], ...]]] = []
    if cfg.una:
        seen: set[int] = set()
        for j in range(cfg.max_extra + 1):
            n = max(1, m + j)  # a first-order domain is never empty
            if n in seen:
                continue
            seen.add(n)
            specs.append((n, tuple((nm, i) for i, nm in enumerate(names))))
    else:
        top = max(1, m + cfg.max_extra)
        for n in range(1, top + 1):
            placements = _growth_strings(m, n) if canonical else itertools.product(range(n), repeat=m)
            specs.extend((n, tuple(zip(names, p))) for p in placements)
    return specs


def search_bound(vocab: Signature, cfg: OracleConfig) -> int:
    """The largest domain size the oracle searches over this vocabulary."""
    return max(1, len(vocab.objects) + cfg.max_extra)


class _Budget:
    """Shared wall-clock and count budget for one oracle call."""

    def __init__(self, cfg: OracleConfig):
        self.max_models = cfg.max_models
        self.deadline = time.monotonic() + cfg.time_limit if cfg.time_limit else None
        self.count = 0
        self._tick = 0

    def spend(self, what: str = "model enumeration") -> None:
        self.count += 1
        if self.max_models is not None and self.count > self.max_models:
            raise BudgetExceeded(f"{what} exceeded the budget of {self.max_models} models or reducts")
        self.check_time(what)

    def check_time(self, what: str = "oracle search") -> None:
        self._tick += 1
        if self.deadline is not None and self._tick % 512 == 0 and time.monotonic() > self.deadline:
            raise BudgetExceeded(f"{what} exceeded the time budget")


def models(
    t: Theory,
    cfg: OracleConfig = DEFAULT_CONFIG,
    sig: Optional[Signature] = None,
    stages: Optional[frozenset[Stage]] = None,
) -> Iterator[FiniteModel]:
    """Stream the bounded finite models of a theory, each exactly once.

    Domains come in the order of their specs; within one domain the models
    come in the solver's search order.
    """
    vocab = signature_of(t) | (sig or Signature())
    stages = stages if stages is not None else stages_of(t)
    keys = _rel_keys(vocab, stages)
    budget = _Budget(cfg)
    for n, consts in _domain_specs(vocab, cfg):
        for m in _projections(t.axioms, n, consts, keys, consts, budget, "model enumeration"):
            _require(theory_holds(m, t), "enumerated model does not re-validate")
            yield m


# ---------------------------------------------------------------------------
# grounding to CNF and a small DPLL solver

_PTRUE = ("T",)
_PFALSE = ("F",)


def _pand(children: list) -> object:
    out: list = []
    for c in children:
        if c == _PFALSE:
            return _PFALSE
        if c == _PTRUE:
            continue
        if isinstance(c, tuple) and c[0] == "A":
            out.extend(c[1])
        else:
            out.append(c)
    if not out:
        return _PTRUE
    if len(out) == 1:
        return out[0]
    return ("A", out)


def _por(children: list) -> object:
    out: list = []
    for c in children:
        if c == _PTRUE:
            return _PTRUE
        if c == _PFALSE:
            continue
        if isinstance(c, tuple) and c[0] == "O":
            out.extend(c[1])
        else:
            out.append(c)
    if not out:
        return _PFALSE
    if len(out) == 1:
        return out[0]
    return ("O", out)


class _Grounder:
    def __init__(self, size: int, const_map: Mapping[str, int]):
        self.size = size
        self.const_map = dict(const_map)
        self.atom_vars: dict[tuple[RelKey, tuple[int, ...]], int] = {}
        self.nvars = 0

    def _var(self, key: RelKey, tup: tuple[int, ...]) -> int:
        k = (key, tup)
        v = self.atom_vars.get(k)
        if v is None:
            self.nvars += 1
            v = self.nvars
            self.atom_vars[k] = v
        return v

    def _term(self, t, env: Mapping[str, int]) -> int:
        match t:
            case Const(name):
                try:
                    return self.const_map[name]
                except KeyError:
                    raise SitcalcError(f"constant {name} missing from oracle vocabulary") from None
            case Var(name):
                try:
                    return env[name]
                except KeyError:
                    raise SitcalcError(f"formula has free variable {name}") from None
            case _:
                raise SitcalcError(f"cannot ground term {t!r}")

    def ground(self, f: Formula, env: Mapping[str, int], neg: bool) -> object:
        match f:
            case Truth():
                return _PFALSE if neg else _PTRUE
            case Falsity():
                return _PTRUE if neg else _PFALSE
            case FluentAtom(name, args, stage):
                v = self._var((name, stage.value), tuple(self._term(t, env) for t in args))
                return -v if neg else v
            case StaticAtom(name, args):
                v = self._var((name, ""), tuple(self._term(t, env) for t in args))
                return -v if neg else v
            case ObjEq(lhs, rhs):
                val = self._term(lhs, env) == self._term(rhs, env)
                return _PTRUE if (val != neg) else _PFALSE
            case Not(body):
                return self.ground(body, env, not neg)
            case And(a, b):
                parts = [self.ground(a, env, neg), self.ground(b, env, neg)]
                return _por(parts) if neg else _pand(parts)
            case Or(a, b):
                parts = [self.ground(a, env, neg), self.ground(b, env, neg)]
                return _pand(parts) if neg else _por(parts)
            case Implies(a, b):
                if neg:
                    return _pand([self.ground(a, env, False), self.ground(b, env, True)])
                return _por([self.ground(a, env, True), self.ground(b, env, False)])
            case Iff(a, b):
                ap, an = self.ground(a, env, False), self.ground(a, env, True)
                bp, bn = self.ground(b, env, False), self.ground(b, env, True)
                if neg:
                    return _por([_pand([ap, bn]), _pand([an, bp])])
                return _pand([_por([an, bp]), _por([bn, ap])])
            case Forall(v, body):
                parts = [self.ground(body, {**env, v.name: d}, neg) for d in range(self.size)]
                return _por(parts) if neg else _pand(parts)
            case Exists(v, body):
                parts = [self.ground(body, {**env, v.name: d}, neg) for d in range(self.size)]
                return _pand(parts) if neg else _por(parts)
            case _:
                raise SitcalcError(f"cannot ground {f!r}")


class _CNF:
    def __init__(self, nvars: int):
        self.nvars = nvars
        self.clauses: list[list[int]] = []
        self.trivially_false = False

    def _fresh(self) -> int:
        self.nvars += 1
        return self.nvars

    def _encode(self, p) -> int:
        """Tseitin literal equisatisfiable with the NNF node."""
        if isinstance(p, int):
            return p
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
        if p == _PTRUE:
            return
        if p == _PFALSE:
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
    budget: _Budget,
    project: Collection[int] = (),
) -> Iterator[list[Optional[bool]]]:
    """Deterministic DPLL with unit propagation, enumerating models.

    The variables in project are decided before all others.  After each model
    the search backtracks to the deepest decision on a projected variable as
    if that decision had hit a conflict, so it yields exactly one model per
    assignment of the projected variables that extends to a model; with
    project empty it yields at most one.  The yielded list is the solver's
    own assignment, indexed by variable: read it before resuming.
    """
    assign: list[Optional[bool]] = [None] * (nvars + 1)
    occ: dict[int, list[int]] = {}
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

    trail: list[int] = []
    qhead = 0

    def value(lit: int) -> Optional[bool]:
        v = assign[abs(lit)]
        if v is None:
            return None
        return v if lit > 0 else not v

    def set_lit(lit: int) -> bool:
        cur = value(lit)
        if cur is False:
            return False
        if cur is None:
            assign[abs(lit)] = lit > 0
            trail.append(lit)
        return True

    def propagate() -> bool:
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

    def undo_to(mark: int) -> None:
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
    decisions: list[tuple[int, int, bool]] = []
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


def _dpll(nvars: int, clauses: list[list[int]], budget: _Budget) -> Optional[list[Optional[bool]]]:
    """The first model DPLL finds, or None."""
    return next(_dpll_models(nvars, clauses, budget), None)


def _solve_domain(
    formulas: Sequence[Formula],
    n: int,
    consts: tuple[tuple[str, int], ...],
    vocab: Signature,
    stages: frozenset[Stage],
    budget: _Budget,
) -> Optional[FiniteModel]:
    """A model of the conjunction of formulas over the given domain, or None."""
    g = _Grounder(n, dict(consts))
    return _solve_ground(g, [g.ground(f, {}, False) for f in formulas], consts, vocab, stages, budget)


def _solve_ground(
    g: _Grounder,
    props: Sequence[object],
    consts: tuple[tuple[str, int], ...],
    vocab: Signature,
    stages: frozenset[Stage],
    budget: _Budget,
) -> Optional[FiniteModel]:
    """A model of the conjunction of ground trees built by g, or None.

    Atoms that no tree mentions are false in the model.
    """
    cnf = _CNF(g.nvars)
    for p in props:
        cnf.assert_root(p)
    if cnf.trivially_false:
        return None
    assignment = _dpll(cnf.nvars, cnf.clauses, budget)
    if assignment is None:
        return None
    tables: dict[RelKey, set[tuple[int, ...]]] = {key: set() for key, _ in _rel_keys(vocab, stages)}
    for (key, tup), var in g.atom_vars.items():
        if assignment[var]:
            tables.setdefault(key, set()).add(tup)
    rels = tuple((key, frozenset(tables[key])) for key in sorted(tables))
    return FiniteModel(g.size, consts, rels)


def _projections(
    axioms: Sequence[Formula],
    n: int,
    consts: tuple[tuple[str, int], ...],
    keys: Sequence[tuple[RelKey, int]],
    shown_consts: tuple[tuple[str, int], ...],
    budget: _Budget,
    what: str,
) -> Iterator[FiniteModel]:
    """Each interpretation of the relations in keys that extends to a model
    of the axioms over the given domain, exactly once.

    Every ground atom over keys gets a variable before grounding, so atoms the
    axioms do not mention are enumerated both ways.  The yielded models
    interpret only keys and shown_consts.
    """
    g = _Grounder(n, dict(consts))
    atoms = [(key, tup, g._var(key, tup)) for key, ar in keys for tup in itertools.product(range(n), repeat=ar)]
    props = [g.ground(f, {}, False) for f in axioms]
    cnf = _CNF(g.nvars)
    for p in props:
        cnf.assert_root(p)
    if cnf.trivially_false:
        return
    for assignment in _dpll_models(cnf.nvars, cnf.clauses, budget, [v for _, _, v in atoms]):
        budget.spend(what)
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
    if not cond:
        raise SitcalcError(f"oracle self-check failed: {message}")


# ---------------------------------------------------------------------------
# entailment, equivalence, satisfiability


def entails(
    t: Theory,
    f: Formula,
    cfg: OracleConfig = DEFAULT_CONFIG,
    sig: Optional[Signature] = None,
    stages: Optional[frozenset[Stage]] = None,
) -> Union[EntailedFinite, Countermodel]:
    """Does every bounded model of t satisfy f?"""
    vocab = signature_of(t) | signature_of(f) | (sig or Signature())
    stages = stages if stages is not None else (stages_of(t) | stages_of(f))
    budget = _Budget(cfg)
    bound = 0
    for n, consts in _domain_specs(vocab, cfg, canonical=True):
        bound = max(bound, n)
        m = _solve_domain(tuple(t.axioms) + (Not(f),), n, consts, vocab, stages, budget)
        if m is not None:
            _require(theory_holds(m, t) and not evaluate(m, f), "countermodel does not re-validate")
            return Countermodel(m)
    return EntailedFinite(bound)


def equivalent(
    t1: Theory,
    t2: Theory,
    cfg: OracleConfig = DEFAULT_CONFIG,
    sig: Optional[Signature] = None,
) -> Union[EquivalentFinite, NotEquivalent]:
    """Do t1 and t2 have the same bounded models over the joint vocabulary?"""
    vocab = signature_of(t1) | signature_of(t2) | (sig or Signature())
    stages = stages_of(t1) | stages_of(t2)
    v12 = entails(t1, conj(t2.axioms), cfg, sig=vocab, stages=stages)
    if isinstance(v12, Countermodel):
        return NotEquivalent(v12.model, "1!=>2")
    v21 = entails(t2, conj(t1.axioms), cfg, sig=vocab, stages=stages)
    if isinstance(v21, Countermodel):
        return NotEquivalent(v21.model, "2!=>1")
    return EquivalentFinite(max(v12.bound, v21.bound))


def satisfiable(
    t: Theory,
    cfg: OracleConfig = DEFAULT_CONFIG,
    sig: Optional[Signature] = None,
) -> Union[Sat, UnsatFinite]:
    """Does t have a bounded model?  Exactly when t does not entail FALSE."""
    v = entails(t, FALSE, cfg, sig)
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
    domain the theories are grounded once; writing t' for t with g's variable
    negated, r is too strong where (t or t') and not r is satisfiable, and
    too weak where r and not t and not t' is.
    """
    vocab = signature_of(t) | signature_of(r) | g.signature()
    stages = stages_of(t) | stages_of(r)
    if g.stage is not None:
        stages = stages | {g.stage}
    budget = _Budget(cfg)
    for n, consts in _domain_specs(vocab, cfg, canonical=True):
        gr = _Grounder(n, dict(consts))
        gv = gr._var(_atom_rel_key(g), tuple(gr.const_map[c] for c in g.args))
        t_pos = _pand([gr.ground(f, {}, False) for f in t.axioms])
        t_neg = _por([gr.ground(f, {}, True) for f in t.axioms])
        r_pos = _pand([gr.ground(f, {}, False) for f in r.axioms])
        r_neg = _por([gr.ground(f, {}, True) for f in r.axioms])
        queries = (
            ("result-too-strong", [_por([t_pos, _negate_var(t_pos, gv)]), r_neg]),
            ("result-too-weak", [r_pos, t_neg, _negate_var(t_neg, gv)]),
        )
        for direction, props in queries:
            m = _solve_ground(gr, props, consts, vocab, stages, budget)
            if m is None:
                continue
            reachable = theory_holds(m, t) or theory_holds(m.with_toggled(g), t)
            admitted = theory_holds(m, r)
            _require(
                reachable != admitted and admitted == (direction == "result-too-weak"),
                "forgetting mismatch does not re-validate",
            )
            return ForgettingMismatch(m, direction)
    return VerifiedFinite(search_bound(vocab, cfg))


def _negate_var(p, var: int) -> object:
    """The ground tree p with every occurrence of variable var negated."""
    if isinstance(p, int):
        return -p if abs(p) == var else p
    if p == _PTRUE or p == _PFALSE:
        return p
    kind, children = p
    return (kind, [_negate_var(c, var) for c in children])


# ---------------------------------------------------------------------------
# inseparability

# Cap on the short candidate sentences one witness search tries.
_WITNESS_CANDIDATES = 50_000


def _reduct_sets_by_size(
    t1: Theory,
    t2: Theory,
    delta: Signature,
    vocab: Signature,
    stages: frozenset[Stage],
    cfg: OracleConfig,
) -> list[tuple[int, frozenset[FiniteModel], frozenset[FiniteModel]]]:
    """Delta-reducts of each theory's bounded models, grouped by domain size.

    Each theory is grounded once per domain spec, and one solver search that
    decides the delta atoms first yields each realized reduct once, so the
    interpretations of the remaining symbols are never enumerated.  Grouping
    by size (rather than by constant placement) matters without unique names:
    the same reduct may be realized under different placements.
    """
    budget = _Budget(cfg)
    delta_keys = _rel_keys(delta, stages)
    by_size: dict[int, tuple[set[FiniteModel], set[FiniteModel]]] = {}
    for n, consts in _domain_specs(vocab, cfg):
        delta_consts = tuple((nm, e) for nm, e in consts if nm in delta.objects)
        for t, reducts in zip((t1, t2), by_size.setdefault(n, (set(), set()))):
            reducts.update(
                _projections(t.axioms, n, consts, delta_keys, delta_consts, budget, "reduct enumeration")
            )
    return [(n, frozenset(r1), frozenset(r2)) for n, (r1, r2) in sorted(by_size.items())]


def _delta_atoms(delta: Signature, nvars: int, include_consts: bool, stage: Stage) -> list[Formula]:
    terms: list = [Var(f"v{i}") for i in range(nvars)]
    if include_consts:
        terms += [Const(c) for c in sorted(delta.objects)]
    atoms: list[Formula] = []
    for name, ar in sorted(delta.statics):
        for tup in itertools.product(terms, repeat=ar):
            atoms.append(StaticAtom(name, tup))
    for name, ar in sorted(delta.fluents):
        for tup in itertools.product(terms, repeat=ar):
            atoms.append(FluentAtom(name, tup, stage))
    for i, a in enumerate(terms):
        for b in terms[i + 1 :]:
            atoms.append(ObjEq(a, b))
    return atoms


def _delta_sentences(delta: Signature, depth: int, include_consts: bool, stage: Stage) -> Iterator[Formula]:
    """Prenex delta-sentences in a deterministic small-first order."""
    matrices: dict[tuple[int, int], list[Formula]] = {}

    def mats(q: int, conn: int) -> list[Formula]:
        key = (q, conn)
        if key in matrices:
            return matrices[key]
        if conn == 0:
            out = list(_delta_atoms(delta, q, include_consts, stage))
        else:
            out = []
            for f in mats(q, conn - 1):
                if not isinstance(f, Not):
                    out.append(Not(f))
            for i in range(conn):
                j = conn - 1 - i
                for a in mats(q, i):
                    if len(out) > _WITNESS_CANDIDATES:
                        break
                    for b in mats(q, j):
                        ra, rb = repr(a), repr(b)
                        if ra < rb:
                            out.append(And(a, b))
                            out.append(Or(a, b))
                        if ra != rb:
                            out.append(Implies(a, b))
            del out[_WITNESS_CANDIDATES + 1 :]
        matrices[key] = out
        return out

    emitted = 0
    for total in range(2 * depth + 1):
        for q in range(min(total, depth) + 1):
            conn = total - q
            if conn > depth:
                continue
            names = frozenset(f"v{i}" for i in range(q))
            for matrix in mats(q, conn):
                if free_vars(matrix) != names:
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
    sets: Sequence[tuple[int, frozenset[FiniteModel], frozenset[FiniteModel]]],
    delta: Signature,
    budget: _Budget,
) -> Optional[tuple[Formula, int]]:
    """The characteristic sentence of the first reduct that only one theory
    realizes up to isomorphism, and the theory lacking it; None if none."""
    for _, r1, r2 in sets:
        for m in sorted(r1 ^ r2, key=FiniteModel.sort_key):
            budget.check_time("witness search")
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
    vocab = signature_of(t1) | signature_of(t2) | delta
    stages = stages_of(t1) | stages_of(t2)
    sets = _reduct_sets_by_size(t1, t2, delta, vocab, stages, cfg)
    counts = tuple((n, len(r1), len(r2)) for n, r1, r2 in sets)
    bound = max(n for n, _, _ in sets)
    budget = _Budget(cfg)
    unmatched = _first_unmatched(sets, delta, budget)
    if unmatched is None:
        return InseparableFinite(bound, counts)

    def separated(witness: Formula, by: int) -> Separated:
        winner, loser = (t1, t2) if by == 1 else (t2, t1)
        _require(
            isinstance(entails(winner, witness, cfg, sig=vocab, stages=stages), EntailedFinite),
            "separation witness not entailed on re-validation",
        )
        _require(
            isinstance(entails(loser, witness, cfg, sig=vocab, stages=stages), Countermodel),
            "separation witness lacks a countermodel on re-validation",
        )
        return Separated(witness, by, bound)

    all1 = sorted({m for _, r1, _ in sets for m in r1}, key=FiniteModel.sort_key)
    all2 = sorted({m for _, _, r2 in sets for m in r2}, key=FiniteModel.sort_key)
    seen_vectors: set[tuple[bool, ...]] = set()
    # Constant-free witnesses first: they are the more portable separators, so
    # the reported sentence does not mention constants unless it has to.
    passes = (False, True) if delta.objects else (False,)
    # Fluent atoms sit at the current stage, unless the theories mention
    # fluents only at the next one.
    stage = Stage.NEXT if stages == {Stage.NEXT} else Stage.NOW
    for use_consts in passes:
        for candidate in _delta_sentences(delta, cfg.witness_depth, use_consts, stage):
            budget.check_time("witness search")
            if use_consts and not signature_of(candidate).objects:
                continue
            vec = tuple(evaluate(m, candidate) for m in all1 + all2)
            if vec in seen_vectors:
                continue
            seen_vectors.add(vec)
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
    vocab = signature_of(t1) | signature_of(t2)
    stages = stages_of(t1) | stages_of(t2)
    union = Theory(tuple(t1.axioms) + tuple(t2.axioms))
    verdicts: list[bool] = []
    bound = 0
    for t in (t1, t2):
        own = signature_of(t)
        sets = _reduct_sets_by_size(t, union, own, vocab, stages, cfg)
        bound = max(bound, max(n for n, _, _ in sets))
        verdicts.append(all(r1 <= r2 for _, r1, r2 in sets))
    return ExpansionReport(bound, verdicts[0], verdicts[1])
