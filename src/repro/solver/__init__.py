"""A from-scratch SMT solver for quantifier-free linear real arithmetic.

The original ShadowDP prototype discharges its typing constraints with Z3
and verifies transformed programs with CPAChecker.  Neither tool is
available in this offline environment, so this package implements the
decision procedure the pipeline needs:

``repro.solver.intern``
    Hash-consing tables: every formula and linear expression is interned,
    so structural equality is pointer equality and per-node caches are
    shared process-wide.

``repro.solver.linear``
    Exact linear expressions over :class:`fractions.Fraction`, interned
    with cached variable tuples and scale-canonical forms.

``repro.solver.delta``
    Delta-rationals ``a + b·δ`` (Dutertre & de Moura), which let the
    simplex core handle strict inequalities exactly.

``repro.solver.formula``
    A small logic IR: boolean structure over linear-arithmetic atoms,
    hash-consed, with leaf sets (atoms, boolean/arithmetic variables)
    cached on the node.

``repro.solver.cnf``
    Tseitin transformation to CNF with structural sharing.

``repro.solver.sat``
    A CDCL SAT solver (two-watched literals, 1UIP learning, heap-based
    VSIDS with exponential decay, phase saving, Luby restarts,
    LBD-based clause-database reduction) with a theory hook called at
    every propagation fixpoint.

``repro.solver.simplex``
    The Dutertre–de Moura general simplex for conjunctions of linear
    constraints, producing minimal-ish conflict sets: integer-indexed
    rows with column occurrence lists, a trail-based bound stack
    (``push_state``/``pop_state``, one level per decision level), a
    dirty set of possibly violated rows and Dantzig/Bland pivot
    selection.

``repro.solver.profile``
    The ``SolverProfile`` counter bundle (pivots, propagations,
    conflicts, restarts, interned-node hits…) threaded through the whole
    stack and surfaced by the CLI ``--profile`` flag.

``repro.solver.smt``
    The online DPLL(T) loop: one CDCL search per check, with the simplex
    asserting bounds and checking feasibility at every propagation
    fixpoint and handing back Farkas lemmas on conflict; plus model
    extraction (concrete rational witnesses for satisfiable queries).

``repro.solver.encode``
    Translation from ShadowDP expressions (:mod:`repro.lang.ast`) into the
    logic IR, eliminating ternaries and absolute values by case analysis
    and abstracting nonlinear terms as opaque variables.

``repro.solver.context``
    Incremental solving: push/pop assumption scopes over one persistent
    encoder + solver (:class:`SolverContext`) and the shared,
    normalized-query :class:`QueryCache` behind every validity check.
"""

from repro.solver.linear import LinExpr
from repro.solver.delta import DeltaRat
from repro.solver import formula
from repro.solver.formula import (
    Formula,
    FTrue,
    FFalse,
    TRUE_F,
    FALSE_F,
    BVar,
    FAtom,
    FNot,
    FAnd,
    FOr,
    mk_and,
    mk_or,
    mk_not,
    mk_implies,
    mk_iff,
)
from repro.solver.smt import SMTSolver, SatResult
from repro.solver.encode import Encoder, EncodeError
from repro.solver.context import QueryCache, SolverContext, ContextStats
from repro.solver.interface import ValidityChecker, is_valid, find_model
from repro.solver.profile import SolverProfile

__all__ = [
    "LinExpr",
    "DeltaRat",
    "formula",
    "Formula",
    "FTrue",
    "FFalse",
    "TRUE_F",
    "FALSE_F",
    "BVar",
    "FAtom",
    "FNot",
    "FAnd",
    "FOr",
    "mk_and",
    "mk_or",
    "mk_not",
    "mk_implies",
    "mk_iff",
    "SMTSolver",
    "SatResult",
    "Encoder",
    "EncodeError",
    "QueryCache",
    "SolverContext",
    "ContextStats",
    "ValidityChecker",
    "is_valid",
    "find_model",
    "SolverProfile",
]
