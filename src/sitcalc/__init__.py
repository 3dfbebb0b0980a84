"""Local-effect basic action theories: progression, forgetting, decomposition.

The package models situation-calculus theories whose actions change only
ground atoms named by their arguments.  Initial theories can be split into
components over a shared signature, progressed through ground actions as a
whole or one component at a time, and compared with a bounded finite-model
oracle.  A small surface language (see the bundled corpus) describes
theories in files.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .bat import (
    BAT,
    EffectDisjunct,
    GroundAction,
    LocalEffectReport,
    Precondition,
    SSA,
    TransformedSSA,
    ValidationReport,
    Violation,
    argument_set,
    characteristic_set,
    inline_preconditions,
    instantiate_ssas,
    is_local_effect,
    transform_ssa,
    validate,
)
from .decomposition import (
    AlignmentReport,
    Decomposition,
    DecompositionCheck,
    FluentFreeCheck,
    SplitReport,
    StrongPreservationReport,
    check_fluent_free,
    check_local_effect_preservation,
    check_strong_preservation,
    decompose_ground,
    detect_split,
    group_ssas,
    syntactic_decompose,
    verify_decomposition,
)
from .errors import (
    BudgetExceeded,
    MalformedTransform,
    MissingAxiom,
    NonGroundOccurrence,
    ParseError,
    SitcalcError,
    SortError,
    SourceSpan,
)
from .forgetting import (
    GroundAtom,
    forget_atom,
    forget_atoms,
    forget_ground_symbol,
    occurring_ground_atoms,
    relativize,
    replace_ground,
)
from .oracle import (
    Countermodel,
    EntailedFinite,
    EquivalentFinite,
    ExpansionReport,
    FiniteModel,
    ForgettingMismatch,
    InseparableFinite,
    NotEquivalent,
    OracleConfig,
    Sat,
    Separated,
    UnsatFinite,
    Verdict,
    VerifiedFinite,
    check_expansion,
    check_inseparable,
    entails,
    equivalent,
    evaluate,
    is_positive,
    models,
    satisfiable,
    theory_holds,
    verify_forgetting,
)
from .progression import (
    ExecutabilityReport,
    ProgressionResult,
    StepVerdict,
    executable,
    progress,
    progress_componentwise,
    progress_sequence,
    project,
)
from .surface import (
    parse_bat,
    parse_formula,
    parse_ground_action,
    parse_ground_atom,
    parse_theory,
    render,
    render_theory_file,
)
from .syntax import (
    ActionTerm,
    And,
    Const,
    Exists,
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
    Var,
    free_vars,
    rename_stage,
    signature_of,
    simplify,
    simplify_theory,
    stages_of,
    substitute,
)

__version__ = "0.1.0"


def corpus_path(name: str) -> Path:
    """Filesystem path of a bundled example file.

    Raises SitcalcError for unknown names, listing what is available.
    """
    root = resources.files(__name__) / "corpus"
    entry = root / name
    if not entry.is_file():
        have = sorted(e.name for e in root.iterdir() if e.name.endswith(".bat"))
        raise SitcalcError(f"no bundled file {name!r}; available: {', '.join(have)}")
    return Path(str(entry))
