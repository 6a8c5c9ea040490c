"""repro — a full reproduction of *Proving Differential Privacy with
Shadow Execution* (Wang, Ding, Wang, Kifer, Zhang — PLDI 2019).

The package implements the complete ShadowDP pipeline as five named,
individually runnable stages — ``parse → check → lower → optimize →
verify`` — behind the staged :class:`~repro.pipeline.Pipeline` API:

>>> from repro import Pipeline
>>> pipe = Pipeline()                       # doctest: +SKIP
>>> run = pipe.run(SOURCE)                  # doctest: +SKIP
>>> run.verified                            # doctest: +SKIP
True
>>> run.stages["check"].solver_queries      # doctest: +SKIP
42

Each stage produces a :class:`~repro.pipeline.StageResult` (artifact,
wall-clock seconds, solver-query count); stages are memoized on the
source hash, and :meth:`~repro.pipeline.Pipeline.run_many` batches the
whole algorithm registry through one shared cache.  The one-shot
:func:`pipeline` facade is kept as a thin wrapper over a non-memoizing
``Pipeline``.

Layers (bottom-up):

* :mod:`repro.lang` — the ShadowDP language (Fig. 3): AST, parser,
  pretty printer.
* :mod:`repro.solver` — a from-scratch SMT solver for QF_LRA (CDCL SAT +
  Dutertre–de Moura simplex), replacing Z3.
* :mod:`repro.core` — the flow-sensitive type system with shadow
  execution (Fig. 4), emitting instrumented programs (the ``check``
  stage).
* :mod:`repro.target` — lowering to the non-probabilistic target
  language with the explicit privacy cost ``v_eps`` (Fig. 5) plus
  dead hat-store elimination (the ``lower`` and ``optimize`` stages).
* :mod:`repro.verify` — the safety verifier replacing CPAChecker:
  unrolling, invariant-based Hoare reasoning, Houdini inference and
  counterexample extraction (the ``verify`` stage).
* :mod:`repro.pipeline` — the staged ``Pipeline`` API wiring the stages
  together with per-stage timing, accounting and memoization.
* :mod:`repro.semantics` — executable semantics, including a relational
  validator for the soundness theorem.
* :mod:`repro.algorithms` — all nine Table-1 case studies plus buggy
  SVT variants.
* :mod:`repro.baselines`, :mod:`repro.automation`, :mod:`repro.empirical`
  — the LightDP restriction, annotation inference (Section 6.4) and a
  statistical ε estimator.
"""

from dataclasses import dataclass
from typing import Optional

from repro.core.checker import CheckedProgram, check_function
from repro.core.errors import ShadowDPError, ShadowDPTypeError
from repro.lang.parser import parse_function
from repro.pipeline import (
    STAGES,
    Pipeline,
    PipelineError,
    PipelineRun,
    StageResult,
)
from repro.target.transform import TargetProgram, to_target
from repro.verify.verifier import VerificationConfig, VerificationOutcome, verify_target

__version__ = "1.2.0"


@dataclass
class PipelineResult:
    """Everything the end-to-end pipeline produces for one program.

    The legacy one-shot result shape; :class:`~repro.pipeline.PipelineRun`
    is the staged equivalent with per-stage accounting.
    """

    checked: CheckedProgram
    target: TargetProgram
    outcome: VerificationOutcome


def pipeline(source: str, config: Optional[VerificationConfig] = None) -> PipelineResult:
    """Parse, type check, transform and verify one ShadowDP program.

    Thin backward-compatible wrapper over :class:`~repro.pipeline.Pipeline`.
    """
    run = Pipeline(config=config).run(source)
    return PipelineResult(run.checked, run.target, run.outcome)


__all__ = [
    "__version__",
    "pipeline",
    "PipelineResult",
    "Pipeline",
    "PipelineRun",
    "PipelineError",
    "StageResult",
    "STAGES",
    "parse_function",
    "check_function",
    "to_target",
    "verify_target",
    "VerificationConfig",
    "VerificationOutcome",
    "CheckedProgram",
    "TargetProgram",
    "ShadowDPError",
    "ShadowDPTypeError",
]
