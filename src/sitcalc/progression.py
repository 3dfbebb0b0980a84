"""Progression of local-effect basic action theories by forgetting.

A ground action can only change the fluent atoms in its characteristic set.
Progression therefore instantiates the successor state axioms on exactly
those atoms, forgets the atoms' current values from the combined theory,
and re-reads the next stage as the new current stage.  The result is again
uniform in the current stage and serves as the initial theory for the next
action.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from .bat import BAT, GroundAction, characteristic_set, instantiate_ssas
from .decomposition import (
    AlignmentReport,
    Decomposition,
    check_local_effect_preservation,
)
from .errors import MissingAxiom, SitcalcError
from .forgetting import GroundAtom, forget_atoms
from .oracle import (
    DEFAULT_CONFIG,
    Countermodel,
    EntailedFinite,
    OracleConfig,
    entails,
    is_positive,
)
from .syntax import (
    Formula,
    Signature,
    Stage,
    Theory,
    rename_stage,
    signature_of,
    simplify_theory,
    split_conjunctions,
    substitute,
)


@dataclass(frozen=True)
class ProgressionResult:
    """Progressed initial theory plus what the action touched."""

    theory: Theory
    omega: frozenset[GroundAtom]
    touched_fluents: frozenset[str]
    per_component: Optional[tuple[Theory, ...]] = None


@dataclass(frozen=True)
class StepVerdict:
    action: GroundAction
    verdict: Union[EntailedFinite, Countermodel]


@dataclass(frozen=True)
class ExecutabilityReport:
    steps: tuple[StepVerdict, ...] = ()

    @property
    def all_executable(self) -> bool:
        return all(is_positive(s.verdict) for s in self.steps)


def _finalize(t: Theory) -> Theory:
    """Stage bookkeeping after forgetting: the next stage becomes current.

    One simplification suffices: the conjuncts of a simplified axiom are
    simplified already, and splitting drops TRUE.
    """
    return split_conjunctions(simplify_theory(rename_stage(t, Stage.NEXT, Stage.NOW)))


def progress(b: BAT, alpha: GroundAction) -> ProgressionResult:
    """Progress the initial theory through one ground action.

    Raises MalformedTransform when some axiom is not local-effect for alpha,
    i.e. its transformed effect condition fails to pin every head variable.
    """
    omega = characteristic_set(b, alpha)
    inst = instantiate_ssas(b, alpha, omega)
    combined = Theory(tuple(inst.axioms) + tuple(b.init.axioms))
    forgotten = forget_atoms(combined, omega)
    return ProgressionResult(
        theory=_finalize(forgotten),
        omega=omega,
        touched_fluents=frozenset(g.pred for g in omega),
    )


def progress_componentwise(
    b: BAT,
    init_decomp: Decomposition,
    ssa_partition: Sequence[Sequence[str]],
    alpha: GroundAction,
    delta1: Signature = Signature(),
) -> Decomposition:
    """Progress each initial component on its own.

    Requires the alignment between the axiom groups and the initial
    components to check out; each component is then updated using only the
    groups mapped to it, and components whose fluents the action cannot
    touch are returned as the very same objects.
    """
    report = check_local_effect_preservation(
        b, delta1, init_decomp.delta, ssa_partition, init_decomp
    )
    if not report.passed:
        detail = "; ".join(str(v) for v in report.violations)
        raise SitcalcError(f"componentwise progression preconditions failed: {detail}")

    omega = characteristic_set(b, alpha)
    group_fluents = [frozenset(g) for g in ssa_partition]
    fluents_for_component: dict[int, set[str]] = {}
    for i, j in report.f_map.items():
        fluents_for_component.setdefault(j, set()).update(group_fluents[i])

    components = []
    for j, comp in enumerate(init_decomp.components):
        omega_j = frozenset(
            g for g in omega if g.pred in fluents_for_component.get(j, ())
        )
        if not omega_j:
            components.append(comp)  # untouched, same object by design
            continue
        inst = instantiate_ssas(b, alpha, omega_j)
        combined = Theory(tuple(inst.axioms) + tuple(comp.axioms))
        components.append(_finalize(forget_atoms(combined, omega_j)))
    return Decomposition(init_decomp.delta, tuple(components))


def progress_sequence(b: BAT, actions: Sequence[GroundAction]) -> Theory:
    """Fold progress over an action sequence; the empty sequence is b.init."""
    cur = b
    for alpha in actions:
        cur = replace(cur, init=progress(cur, alpha).theory)
    return cur.init


def project(
    b: BAT,
    actions: Sequence[GroundAction],
    query: Formula,
    cfg: OracleConfig = DEFAULT_CONFIG,
) -> Union[EntailedFinite, Countermodel]:
    """Does the theory after the actions entail the current-stage query?"""
    t = progress_sequence(b, actions)
    return entails(t, query, cfg, sig=signature_of(b.init) | b.sig)


def executable(
    b: BAT, actions: Sequence[GroundAction], cfg: OracleConfig = DEFAULT_CONFIG
) -> ExecutabilityReport:
    """Check each action's precondition in the theory it would run in.

    The theory is progressed after every step even when a precondition is
    not entailed, so the report covers the whole sequence.
    """
    cur = b
    steps = []
    for alpha in actions:
        pre = cur.precondition(alpha.fn)
        if pre is None:
            raise MissingAxiom(f"no precondition axiom for {alpha.fn}")
        binding = {v.name: c for v, c in zip(pre.params, alpha.term().args)}
        inst = substitute(pre.formula, binding)
        verdict = entails(cur.init, inst, cfg, sig=signature_of(cur.init) | b.sig)
        steps.append(StepVerdict(alpha, verdict))
        cur = replace(cur, init=progress(cur, alpha).theory)
    return ExecutabilityReport(tuple(steps))
