"""Splitting theories into components that share only a designated signature.

A decomposition keeps the axioms of a theory in groups whose pairwise shared
symbols all lie inside a chosen delta signature.  Queries over one group's
own symbols can then be answered against that group alone, and progression
can update groups independently when the axiom/initial-component alignment
conditions verified here hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .bat import BAT, SSA, GroundAction, Violation
from .errors import SitcalcError
from .forgetting import GroundAtom, sorted_atoms
from .oracle import DEFAULT_CONFIG, OracleConfig, equivalent, is_positive
from .syntax import (
    Signature,
    Stage,
    Theory,
    signature_of,
    stages_of,
)

# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class Decomposition:
    """Component theories sharing only delta symbols with one another."""

    delta: Signature
    components: tuple[Theory, ...]

    @property
    def signature_components(self) -> tuple[Signature, ...]:
        return tuple(signature_of(c) - self.delta for c in self.components)


@dataclass(frozen=True)
class DecompositionCheck:
    passed: bool
    failures: tuple[str, ...] = ()
    equivalence: Optional[object] = None  # oracle verdict for theory vs union


@dataclass(frozen=True)
class AlignmentReport:
    """Outcome of the axiom-group / initial-component alignment conditions."""

    passed: bool
    f_map: dict[int, int] = field(default_factory=dict)
    violations: tuple[Violation, ...] = ()


@dataclass(frozen=True)
class StrongPreservationReport:
    passed: bool
    violations: tuple[Violation, ...] = ()
    alignment: Optional[AlignmentReport] = None


@dataclass(frozen=True)
class FluentFreeCheck:
    fluent_free: bool
    fluents: tuple[str, ...] = ()


@dataclass(frozen=True)
class SplitReport:
    """Before-components whose predicates end up spread over several after-components."""

    splits: tuple[tuple[int, tuple[int, ...]], ...] = ()

    @property
    def split_detected(self) -> bool:
        return bool(self.splits)


# ---------------------------------------------------------------------------
# computing decompositions


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _blocks_of(uf: _UnionFind, members: Sequence[int]) -> list[list[int]]:
    by_root: dict[int, list[int]] = {}
    for i in members:
        by_root.setdefault(uf.find(i), []).append(i)
    return sorted(by_root.values(), key=lambda blk: blk[0])


def syntactic_decompose(t: Theory, delta: Signature) -> Optional[Decomposition]:
    """Partition the axioms so components share only delta symbols.

    Axioms are connected when they share a non-delta symbol; the connected
    blocks form the finest such partition.  Axioms mentioning only delta
    symbols carry no component of their own and are attached to the nearest
    preceding block.  Returns None when no split into two or more components
    with non-delta content exists at this granularity.
    """
    axioms = tuple(t.axioms)
    if not axioms:
        return None
    deltanames = delta.names()
    uf = _UnionFind(len(axioms))
    owner: dict[str, int] = {}
    carriers = []
    for i, ax in enumerate(axioms):
        names = signature_of(ax).names() - deltanames
        if not names:
            continue
        carriers.append(i)
        for name in sorted(names):
            if name in owner:
                uf.union(i, owner[name])
            else:
                owner[name] = i
    if not carriers:
        return None
    blocks = _blocks_of(uf, carriers)
    if len(blocks) < 2:
        return None
    for i, ax in enumerate(axioms):
        if signature_of(ax).names() <= deltanames:
            home = max((b for b in blocks if b[0] < i), key=lambda b: b[0], default=blocks[0])
            home.append(i)
    components = tuple(Theory(tuple(axioms[i] for i in sorted(b))) for b in blocks)
    return Decomposition(delta, components)


def decompose_ground(
    atoms: Iterable[GroundAtom], delta: Signature
) -> Optional[Decomposition]:
    """Split a ground atom set along shared constants and non-delta predicates.

    Two atoms land in one component when they share a constant or use the
    same non-delta predicate.  When delta holds only constants, distinct
    components end up sharing no symbols at all, not even delta ones.
    """
    ats = sorted_atoms(atoms)
    if not ats:
        return None
    delta_preds = {n for n, _ in delta.statics} | {n for n, _ in delta.fluents}
    uf = _UnionFind(len(ats))
    owner: dict[tuple[str, str], int] = {}
    for i, g in enumerate(ats):
        keys = [("const", c) for c in g.args]
        if g.pred not in delta_preds:
            keys.append(("pred", g.pred))
        for key in keys:
            if key in owner:
                uf.union(i, owner[key])
            else:
                owner[key] = i
    blocks = _blocks_of(uf, range(len(ats)))

    def pure(blk: list[int]) -> bool:
        return all(
            ats[i].pred in delta_preds and set(ats[i].args) <= set(delta.objects)
            for i in blk
        )

    carriers = [b for b in blocks if not pure(b)]
    if len(carriers) < 2:
        return None
    for b in blocks:
        if pure(b):
            home = max(
                (c for c in carriers if c[0] < b[0]),
                key=lambda c: c[0],
                default=carriers[0],
            )
            home.extend(b)
    components = tuple(
        Theory(tuple(ats[i].to_formula() for i in sorted(b))) for b in carriers
    )
    return Decomposition(delta, components)


# ---------------------------------------------------------------------------
# verification


def verify_decomposition(
    t: Theory, d: Decomposition, cfg: OracleConfig = DEFAULT_CONFIG
) -> DecompositionCheck:
    """Check the signature conditions and that the components add up to t.

    Components may mention extra symbols absent from t (tautological padding
    is a legitimate decomposition device), but all of t's symbols must be
    covered and the union must be equivalent to t.
    """
    failures = []
    sigs = [signature_of(c) for c in d.components]
    for i in range(len(sigs)):
        for j in range(i + 1, len(sigs)):
            shared = (sigs[i] & sigs[j]) - d.delta
            if not shared.is_empty():
                failures.append(
                    f"components {i} and {j} share non-delta symbols "
                    f"{', '.join(shared.sorted_names())}"
                )
    for i, s in enumerate(sigs):
        if (s - d.delta).is_empty():
            failures.append(f"component {i} has no symbols outside delta")
    union_sig = Signature()
    for s in sigs:
        union_sig = union_sig | s
    lost = signature_of(t) - union_sig
    if not lost.is_empty():
        failures.append(
            f"symbols {', '.join(lost.sorted_names())} of the theory "
            "appear in no component"
        )
    union = Theory(tuple(ax for c in d.components for ax in c.axioms))
    eq = equivalent(t, union, cfg)
    passed = not failures and is_positive(eq)
    return DecompositionCheck(passed, tuple(failures), eq)


def check_fluent_free(delta: Signature) -> FluentFreeCheck:
    names = tuple(sorted(n for n, _ in delta.fluents))
    return FluentFreeCheck(not names, names)


def _ssa_signature(s: SSA) -> Signature:
    sig = Signature(fluents=frozenset({(s.fluent, len(s.head_vars))}))
    for d in s.pos + s.neg:
        sig = sig | signature_of(d.action) | signature_of(d.context)
    return sig


def group_ssas(b: BAT, delta1: Signature = Signature()) -> tuple[tuple[str, ...], ...]:
    """Partition the fluents by connectivity of their axiom signatures.

    Two successor state axioms land in one group when they share a symbol
    outside delta1.  The result is ordered by first appearance and is
    directly usable as the ssa_partition argument of the preservation
    checks; it is the finest grouping those checks can accept.
    """
    ssas = b.ssas
    deltanames = delta1.names()
    uf = _UnionFind(len(ssas))
    owner: dict[str, int] = {}
    for i, s in enumerate(ssas):
        for name in sorted(_ssa_signature(s).names() - deltanames):
            if name in owner:
                uf.union(i, owner[name])
            else:
                owner[name] = i
    blocks = _blocks_of(uf, range(len(ssas)))
    return tuple(tuple(ssas[i].fluent for i in blk) for blk in blocks)


def check_local_effect_preservation(
    b: BAT,
    delta1: Signature,
    delta2: Signature,
    ssa_partition: Sequence[Sequence[str]],
    init_decomp: Decomposition,
) -> AlignmentReport:
    """Can progression respect the given axiom grouping and initial components?

    Verifies: delta1/delta2 fluent-free; the groups partition the axioms and
    pairwise share only delta1 symbols; the initial components are uniform,
    pairwise share only delta2 symbols, and each keeps a predicate of its
    own outside delta1, delta2; every fluent of the axioms occurs initially;
    and each group's symbols shared with the initial theory sit inside a
    single component, yielding f_map.
    """
    violations: list[Violation] = []

    def bad(msg: str, key: Optional[str] = None) -> None:
        violations.append(Violation(msg, b.span_of(key) if key else None))

    for nm, d in (("delta1", delta1), ("delta2", delta2)):
        ff = check_fluent_free(d)
        if not ff.fluent_free:
            bad(f"{nm} contains fluent symbols {', '.join(ff.fluents)}")
    if init_decomp.delta != delta2:
        bad("the initial decomposition was built for a different delta than delta2")

    seen: dict[str, int] = {}
    groups: list[list[SSA]] = []
    for gi, names in enumerate(ssa_partition):
        grp: list[SSA] = []
        for name in names:
            s = b.ssa(name)
            if s is None:
                bad(f"group {gi} lists {name}, which has no successor state axiom")
            elif name in seen:
                bad(f"fluent {name} appears in groups {seen[name]} and {gi}")
            else:
                seen[name] = gi
                grp.append(s)
        groups.append(grp)
    uncovered = [s.fluent for s in b.ssas if s.fluent not in seen]
    if uncovered:
        bad(f"the partition misses the axioms for {', '.join(uncovered)}")

    gsigs = []
    for grp in groups:
        sig = Signature()
        for s in grp:
            sig = sig | _ssa_signature(s)
        gsigs.append(sig)
    for i in range(len(gsigs)):
        for j in range(i + 1, len(gsigs)):
            shared = (gsigs[i] & gsigs[j]) - delta1
            if not shared.is_empty():
                bad(
                    f"axiom groups {i} and {j} share symbols "
                    f"{', '.join(shared.sorted_names())} outside delta1"
                )

    csigs = [signature_of(c) for c in init_decomp.components]
    for i in range(len(csigs)):
        for j in range(i + 1, len(csigs)):
            shared = (csigs[i] & csigs[j]) - delta2
            if not shared.is_empty():
                bad(
                    f"initial components {i} and {j} share non-delta symbols "
                    f"{', '.join(shared.sorted_names())}"
                )
    for j, comp in enumerate(init_decomp.components):
        if not stages_of(comp) <= frozenset({Stage.NOW}):
            bad(f"initial component {j} is not uniform in the current stage")
        residual = csigs[j] - delta1 - delta2
        if not (residual.statics or residual.fluents):
            bad(
                f"initial component {j} has no predicate symbols outside "
                "delta1 and delta2"
            )

    ssa_fluents = Signature()
    for s in b.ssas:
        ssa_fluents = ssa_fluents | _ssa_signature(s)
    init_sig = Signature()
    for s in csigs:
        init_sig = init_sig | s
    missing = {n for n, _ in ssa_fluents.fluents} - {n for n, _ in init_sig.fluents}
    if missing:
        bad(
            f"fluents {', '.join(sorted(missing))} occur in the axioms "
            "but in no initial component"
        )

    f_map: dict[int, int] = {}
    for i, gs in enumerate(gsigs):
        need = gs & init_sig
        homes = [j for j, cs in enumerate(csigs) if need <= cs]
        if homes:
            f_map[i] = homes[0]
        else:
            bad(
                f"no single initial component covers the symbols "
                f"{', '.join((need).sorted_names())} of axiom group {i}"
            )

    return AlignmentReport(not violations, f_map, tuple(violations))


def check_strong_preservation(
    b: BAT,
    delta1: Signature,
    delta2: Signature,
    alpha: GroundAction,
    ssa_partition: Sequence[Sequence[str]],
    init_decomp: Decomposition,
) -> StrongPreservationReport:
    """Conditions under which the componentwise update stays a decomposition.

    On top of the alignment: delta1 holds no action functions and sits
    inside delta2, and the action's constants already occur in every initial
    component with a fluent the action can change.
    """
    base = check_local_effect_preservation(b, delta1, delta2, ssa_partition, init_decomp)
    violations = list(base.violations)
    if delta1.actions:
        names = ", ".join(sorted(n for n, _ in delta1.actions))
        violations.append(Violation(f"delta1 contains action functions {names}"))
    if not delta1 <= delta2:
        extra = (delta1 - delta2).sorted_names()
        violations.append(Violation(f"delta1 symbols {', '.join(extra)} missing from delta2"))
    consts = frozenset(alpha.args)
    for j, comp in enumerate(init_decomp.components):
        csig = signature_of(comp)
        touched = False
        for fname, _ in csig.fluents:
            s = b.ssa(fname)
            if s is not None and alpha.fn in frozenset.union(*s.action_functions()):
                touched = True
        if touched and not consts <= csig.objects:
            gap = sorted(consts - csig.objects)
            violations.append(
                Violation(
                    f"constants {', '.join(gap)} of {alpha} are missing from "
                    f"initial component {j}, whose fluents the action can change"
                )
            )
    return StrongPreservationReport(not violations, tuple(violations), base)


def detect_split(before: Decomposition, after: Decomposition) -> SplitReport:
    """Report before-components whose predicates now span several after-components."""
    if before.delta != after.delta:
        raise SitcalcError("the two decompositions use different delta signatures")

    def preds(s: Signature) -> frozenset[str]:
        return frozenset(n for n, _ in s.statics) | frozenset(n for n, _ in s.fluents)

    a_preds = [preds(s) for s in after.signature_components]
    splits = []
    for i, bs in enumerate(before.signature_components):
        hits = tuple(j for j, ap in enumerate(a_preds) if preds(bs) & ap)
        if len(hits) >= 2:
            splits.append((i, hits))
    return SplitReport(tuple(splits))
