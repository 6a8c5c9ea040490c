"""The verification façade: discharge obligations through the SMT solver.

``verify_target`` plays the role CPAChecker plays in the paper's
pipeline (Section 6.1): it takes the transformed, non-probabilistic
program and proves that no assertion — in particular the final
``assert(v_eps <= bound)`` — can fail for any input satisfying the
adjacency precondition.  By Theorem 2 this establishes ε-differential
privacy of the source program.

The discharge machinery itself is the API in
:mod:`repro.verify.discharge`: the symbolic executor streams
:class:`~repro.verify.vcgen.Obligation`\\ s with provenance, a
:class:`~repro.verify.discharge.DischargePlan` partitions the stream
into addressable units, and :meth:`ObligationChecker.discharge_stream`
discharges them one after another in plan order — the only discharge
path — while emitting a typed :class:`DischargeEvent` stream.  This
module wires a :class:`VerificationConfig` to that API.

Three regimes mirror the paper's Table 1 columns:

* ``mode="unroll"`` with concrete loop bounds — the "fix ε / fixed N"
  regime (also the bug-finding mode: failing obligations come back with
  concrete counterexample models);
* ``mode="invariant"`` — unbounded proofs from loop invariants (the
  paper supplies these manually when CPAChecker's abstraction fails);
* Houdini (see :mod:`repro.verify.houdini`) — inferring the invariants
  from a template pool, for annotation-free unbounded proofs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.simplify import simplify
from repro.ir import ast_to_cfg, fold_constant_guards
from repro.lang import ast
from repro.solver import intern
from repro.solver.context import QueryCache
from repro.target.transform import TargetProgram
from repro.verify.discharge import (
    DischargeEngine,
    DischargePlan,
    DischargeUnit,
    EarlyExit,
    EventSink,
    ObligationDischarged,
    ObligationFailure,
    ObligationRefuted,
)
from repro.verify.store import ObligationStore, resolve_store
from repro.verify.vcgen import Obligation, VCGenerator
from repro.witness import Certificate, WitnessError, validate as validate_witness

#: The pseudo-unit id store-served verdicts are reported under in the
#: event stream (they never reach a real discharge unit).
STORE_UNIT = "store"


@dataclass
class VerificationConfig:
    """How to verify a target program.

    ``bindings`` substitutes concrete rationals for parameters (e.g.
    ``{"size": 5, "N": 1, "eps": 1}``) before execution — the paper's
    "fix ε" regime and the way loops become boundedly unrollable.
    ``assumptions`` are extra premises about the (remaining symbolic)
    parameters, e.g. ``eps > 0``.  ``unroll_limit`` (≥ 0) bounds loop
    unrolling when a loop bound stays symbolic.

    Obligations are grouped into path-prefix units and discharged under
    pushed solver contexts, one unit after another in plan order.
    ``fail_fast`` stops discharging after the first refutation.
    """

    mode: str = "unroll"  # "unroll" | "invariant"
    bindings: Dict[str, Fraction] = field(default_factory=dict)
    assumptions: Tuple[ast.Expr, ...] = ()
    unroll_limit: int = 64
    extra_invariants: Tuple[ast.Expr, ...] = ()
    use_lemmas: bool = True
    collect_models: bool = True
    fail_fast: bool = False
    #: Attach the inner-loop :class:`SolverProfile` counters (pivots,
    #: propagations, conflicts, restarts, interned-node hits…) to the
    #: outcome.  Collection is always on; this flag controls reporting.
    profile: bool = False
    #: Cooperative cancellation: when this event is set, discharge stops
    #: at the next unit/chunk boundary with
    #: :class:`~repro.verify.discharge.DischargeCancelled` (per-request
    #: timeouts and drain in ``repro serve``).  Not part of the memo
    #: fingerprint — cancelling one request must not fork the cache.
    cancel_event: Optional[threading.Event] = None
    #: Persistent cross-run obligation store: a path (str), a ready
    #: :class:`~repro.verify.store.ObligationStore` instance (the
    #: server's shared store), or None (disabled — the default).
    #: Verdicts are consulted by ``(oid, premise fingerprint)`` before
    #: any solve and recorded after clean complete runs; see
    #: ``docs/cache.md``.  *Is* part of the memo fingerprint — runs with
    #: different stores must not share one memo entry.
    store: Optional[Union[str, ObligationStore]] = None
    #: Emit a machine-checkable proof certificate for every ``valid``
    #: verdict (see :mod:`repro.witness` and ``docs/witness.md``).
    #: Certificates are collected on the checker, persisted alongside
    #: store verdicts, and re-validated on warm store hits — a hit whose
    #: certificate fails the trusted kernel degrades to a counted
    #: re-solve.  Off by default: the recording hooks sit on conflict
    #: paths only, but emission still costs a snapshot per UNSAT answer.
    witness: bool = False


@dataclass
class VerificationOutcome:
    """The verdict plus accounting.

    ``solver_queries`` counts entailment questions asked;
    ``cache_hits`` how many were answered from the shared query cache;
    ``solve_calls`` the DPLL(T) solves actually executed (each refuted
    obligation costs exactly one — the countermodel comes from the
    refuting solve).  ``context_pushes``/``context_pops`` count
    incremental scope traffic; ``units`` counts the discharge units
    run, and ``early_exit`` records whether ``fail_fast`` (or
    cancellation) stopped discharge before the full plan ran.
    """

    verified: bool
    obligations_total: int
    failures: List[ObligationFailure]
    seconds: float
    solver_queries: int = 0
    cache_hits: int = 0
    solve_calls: int = 0
    context_pushes: int = 0
    context_pops: int = 0
    units: int = 0
    early_exit: bool = False
    #: Inner-loop counters (see :class:`SolverProfile`), attached when the
    #: configuration asked for profiling.
    profile: Optional[Dict[str, int]] = None
    #: The content-derived ids of every obligation the run generated, in
    #: stream order — the addressable names the service layer reports
    #: (and the determinism property compares) without re-walking the
    #: program.  None on legacy construction paths.
    oids: Optional[List[str]] = None
    #: Persistent-store traffic for this run (hits/misses/writes/invalid
    #: plus the entry count), when a store was configured.
    store: Optional[Dict[str, int]] = None
    #: How many proof certificates the run collected (fresh emissions
    #: plus validated warm hits).  None when witnesses were off.
    witnesses: Optional[int] = None

    def describe(self) -> str:
        status = "VERIFIED" if self.verified else "REFUTED"
        text = (
            f"{status}: {self.obligations_total} obligations, "
            f"{len(self.failures)} failed, {self.seconds:.3f}s"
        )
        if self.early_exit:
            text += " (early exit)"
        return text

    def solver_stats(self) -> Dict[str, int]:
        stats = {
            "queries": self.solver_queries,
            "cache_hits": self.cache_hits,
            "solve_calls": self.solve_calls,
            "pushes": self.context_pushes,
            "pops": self.context_pops,
            "units": self.units,
        }
        if self.profile is not None:
            stats["profile"] = dict(self.profile)
        if self.store is not None:
            stats["store"] = dict(self.store)
        if self.witnesses is not None:
            stats["witnesses"] = self.witnesses
        return stats


# ---------------------------------------------------------------------------
# Parameter binding
# ---------------------------------------------------------------------------


def bind_expr(expr: ast.Expr, bindings: Dict[str, Fraction]) -> ast.Expr:
    mapping = {ast.Var(name): ast.Real(value) for name, value in bindings.items()}
    return simplify(ast.substitute(expr, mapping))


def bind_command(cmd: ast.Command, bindings: Dict[str, Fraction]) -> ast.Command:
    """Substitute concrete parameter values throughout a target command."""
    if not bindings:
        return cmd
    if isinstance(cmd, (ast.Skip, ast.Havoc)):
        return cmd
    if isinstance(cmd, ast.Assign):
        return ast.Assign(cmd.name, bind_expr(cmd.expr, bindings))
    if isinstance(cmd, ast.Seq):
        return ast.seq(*[bind_command(c, bindings) for c in cmd.commands])
    if isinstance(cmd, ast.If):
        return ast.If(
            bind_expr(cmd.cond, bindings),
            bind_command(cmd.then, bindings),
            bind_command(cmd.orelse, bindings),
        )
    if isinstance(cmd, ast.While):
        return ast.While(
            bind_expr(cmd.cond, bindings),
            bind_command(cmd.body, bindings),
            tuple(bind_expr(i, bindings) for i in cmd.invariants),
        )
    if isinstance(cmd, ast.Return):
        return ast.Return(bind_expr(cmd.expr, bindings))
    if isinstance(cmd, ast.Assert):
        return ast.Assert(bind_expr(cmd.expr, bindings))
    if isinstance(cmd, ast.Assume):
        return ast.Assume(bind_expr(cmd.expr, bindings))
    raise TypeError(f"bind_command: unknown command {cmd!r}")


# ---------------------------------------------------------------------------
# Obligation discharge
# ---------------------------------------------------------------------------


class ObligationChecker(DischargeEngine):
    """The configured discharge engine plus the store around it.

    :meth:`discharge_stream` is the discharge path: obligations are
    grouped into path-prefix units; each unit's premises (assumptions +
    path base) are asserted once into a :class:`SolverContext` and
    every member is checked under one pushed scope, goals conjoined
    with model-guided refinement.  :meth:`check` is the reference: a
    fresh solver per query.

    Both are sound and agree on every genuine verdict.  The conjoined
    check asserts the *union* of its chunk's premise extensions — all
    valid facts — so it can additionally prove goals the per-obligation
    check spuriously refutes (strictly more complete, never less
    sound); refutations always come with a concrete countermodel.
    """

    # -- discharge -------------------------------------------------------------

    def discharge_stream(
        self,
        obligations,
        on_failure: Optional[Callable[[Obligation], None]] = None,
        emit: EventSink = None,
        fail_fast: bool = False,
    ) -> List[ObligationFailure]:
        """Discharge an obligation stream; failures in stream order.

        ``on_failure`` fires as refutations are found — Houdini prunes
        a candidate on each.  ``emit`` receives the typed
        :class:`DischargeEvent` stream; ``fail_fast`` stops after the
        unit holding the first refutation.

        With a persistent store configured (and no ``on_failure``
        callback: Houdini's verdicts are about *candidates*, not the
        program), each streamed obligation is first looked up by
        ``(oid, fingerprint)``: hits are reported under the pseudo-unit
        ``"store"`` without ever reaching the plan, misses flow into
        discharge as usual, and a clean complete run writes its fresh
        verdicts back in one transaction.
        """
        store = self.store if on_failure is None else None
        #: store-refuted obligations, keyed by original stream index.
        store_failures: Dict[int, ObligationFailure] = {}
        #: filtered position → original stream index, for re-keying.
        kept: List[int] = []
        if store is not None:
            obligations = self._store_filter(
                obligations, store, store_failures, kept, emit, fail_fast
            )
        units = DischargePlan.stream_units(obligations, emit=emit)
        results: Dict[int, ObligationFailure] = {}
        completed: List[DischargeUnit] = []
        for unit in units:
            stats, profile = self.discharge_unit(unit, results, on_failure, emit)
            self.stats.merge(stats)
            self.profile.merge(profile)
            completed.append(unit)
            if fail_fast and results:
                # Only an early exit if work actually remained.
                if next(units, None) is not None:
                    self.early_exited = True
                    if emit is not None:
                        emit(EarlyExit(unit.uid, "first refutation (fail-fast)"))
                break
        self.units_run += len(completed)
        if store is not None:
            self._store_writeback(store, completed, results)
            # Solved obligations were renumbered by the filter; restore
            # original stream indices and fold in the store verdicts so
            # failure order matches the unfiltered stream.
            results = {kept[index]: failure for index, failure in results.items()}
            results.update(store_failures)
        return [results[index] for index in sorted(results)]

    def _store_filter(
        self,
        obligations,
        store: ObligationStore,
        store_failures: Dict[int, ObligationFailure],
        kept: List[int],
        emit: EventSink,
        fail_fast: bool,
    ):
        """Yield only store-missed obligations, reporting hits inline."""
        fingerprint = self.store_fingerprint
        stream = iter(obligations)
        index = -1
        while True:
            obligation = next(stream, None)
            if obligation is None:
                return
            index += 1
            verdict = store.lookup(obligation.oid, fingerprint)
            if verdict is None:
                kept.append(index)
                yield obligation
                continue
            if verdict.valid:
                if self.witness and verdict.witness is not None:
                    # Witnessed regime: a warm hit is only trusted after
                    # its stored certificate passes the trusted kernel.
                    # A reject (corruption, tampering) degrades this hit
                    # to an ordinary re-solve — counted, never trusted.
                    if not self._validated_hit(store, obligation, verdict.witness):
                        kept.append(index)
                        yield obligation
                        continue
                if emit is not None:
                    emit(
                        ObligationDischarged(
                            STORE_UNIT, obligation.oid, obligation.tag, cached=True
                        )
                    )
                continue
            model = None
            if verdict.arith_model is not None or verdict.bool_model is not None:
                model = (verdict.arith_model or {}, verdict.bool_model or {})
            failure = self._failure(obligation, False, model)
            store_failures[index] = failure
            if emit is not None:
                emit(
                    ObligationRefuted(
                        STORE_UNIT, obligation.oid, obligation.tag, failure.describe()
                    )
                )
            if fail_fast:
                # Stop the stream before the executor produces more
                # work — but only call it an early exit if any remained.
                if kept or next(stream, None) is not None:
                    self.early_exited = True
                    if emit is not None:
                        emit(EarlyExit(STORE_UNIT, "first refutation (fail-fast)"))
                return

    def _validated_hit(
        self, store: ObligationStore, obligation: Obligation, witness_text: str
    ) -> bool:
        """Re-check a stored certificate; True iff the kernel accepts it.

        Accepted certificates are re-collected on the checker (so a
        fully-warm run still exposes every proof), and the validation is
        tallied on the store's counters either way.
        """
        try:
            certificate = Certificate.from_json(witness_text)
            validate_witness(certificate)
        except WitnessError:
            store.counters.witness_rejects += 1
            return False
        store.counters.validated_hits += 1
        self.certificates[obligation.oid] = certificate
        return True

    def _store_writeback(
        self,
        store: ObligationStore,
        completed: List[DischargeUnit],
        results: Dict[int, ObligationFailure],
    ) -> None:
        """Persist fresh verdicts from fully-discharged units.

        Skipped entirely after an early exit (fail-fast or
        cancellation): a unit the run abandoned mid-way has members
        without verdicts, and recording them would turn "not checked"
        into "valid" on the next run.
        """
        if self.early_exited:
            return
        rows = []
        for unit in completed:
            region = unit.region
            for member_index, obligation, _ in unit.members:
                if member_index not in results:
                    rows.append(
                        (obligation.oid, obligation.tag, region, True, "unsat", None,
                         self.witness_text(obligation.oid))
                    )
                else:
                    # The refuting solve's model, even when the outcome
                    # does not report it (``collect_models=False``).
                    model = self.countermodels.get(obligation.oid)
                    status = "unknown" if model is None else "sat"
                    rows.append(
                        (obligation.oid, obligation.tag, region, False, status, model,
                         None)
                    )
        store.record_many(self.store_fingerprint, rows)

    def witness_text(self, oid: str) -> Optional[str]:
        """The canonical serialized certificate for ``oid``, or None.

        The oid and premise fingerprint are baked into the stored form
        without mutating the (possibly chunk-shared) in-memory object.
        """
        certificate = self.certificates.get(oid)
        if certificate is None:
            return None
        return replace(
            certificate, oid=oid, fingerprint=self.store_fingerprint
        ).to_json()


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def prepare_generator(
    target: TargetProgram,
    config: VerificationConfig,
    cache: Optional[QueryCache] = None,
) -> Tuple[VCGenerator, ObligationChecker]:
    """The configured symbolic executor and checker for one run.

    Shared by :func:`verify_target`, :func:`iter_obligations` and the
    CLI's ``repro obligations`` listing: parameters are bound, the body
    CFG is built and constant guards are folded (statically-dead
    branches never generate obligations), and the checker carries Ψ,
    the assumptions and the query cache (a fresh one when ``cache`` is
    None).
    """
    psi = _bind_psi(target.function.precondition, config.bindings)
    assumptions = [bind_expr(a, config.bindings) for a in config.assumptions]
    assumptions = [a for a in assumptions if a != ast.TRUE]

    generator = VCGenerator(
        unroll_limit=config.unroll_limit,
        use_invariants=(config.mode == "invariant"),
        extra_invariants=tuple(bind_expr(i, config.bindings) for i in config.extra_invariants),
    )
    checker = ObligationChecker(
        psi,
        assumptions,
        use_lemmas=config.use_lemmas,
        collect_models=config.collect_models,
        cache=cache,
        cancel_event=config.cancel_event,
        store=resolve_store(config.store),
        witness=config.witness,
    )
    return generator, checker


def target_cfg(target: TargetProgram, config: VerificationConfig):
    """The bound, guard-folded CFG the symbolic executor runs."""
    body = bind_command(target.body, config.bindings)
    cfg = ast_to_cfg(body)
    # Statically-constant guards (usually produced by parameter binding)
    # are folded before execution, so dead obligations are never
    # generated.  Constant-false loops are only removable in unroll
    # mode: invariant mode emits entry/preservation obligations even
    # for loops whose guard is never true.
    return fold_constant_guards(cfg, fold_loops=(config.mode != "invariant"))


def iter_obligations(
    target: TargetProgram, config: Optional[VerificationConfig] = None
) -> Iterator[Obligation]:
    """Stream a target's obligations, with provenance, without solving.

    Backs the ``repro obligations`` CLI subcommand and any tooling that
    wants to inspect or partition the obligation space.
    """
    config = config or VerificationConfig()
    generator, _ = prepare_generator(target, config)
    yield from generator.stream(target_cfg(target, config))


def verify_target(
    target: TargetProgram,
    config: Optional[VerificationConfig] = None,
    cache: Optional[QueryCache] = None,
    on_event: EventSink = None,
) -> VerificationOutcome:
    """Verify that every assertion of ``target`` always holds.

    ``cache`` is an optional shared :class:`QueryCache`; the pipeline
    passes one per batch so repeated obligations across programs,
    bindings and Houdini rounds are answered once.  ``on_event``
    receives the typed :class:`DischargeEvent` stream as units are
    scheduled and obligations discharged.
    """
    config = config or VerificationConfig()
    start = time.perf_counter()
    generator, checker = prepare_generator(target, config, cache)
    stream = generator.stream(target_cfg(target, config))
    return discharge_outcome(generator, checker, stream, config, start, on_event)


def discharge_outcome(
    generator: VCGenerator,
    checker: ObligationChecker,
    obligations: Iterable[Obligation],
    config: VerificationConfig,
    start: float,
    on_event: EventSink = None,
) -> VerificationOutcome:
    """Discharge ``generator``'s obligations and account the run.

    Shared by :func:`verify_target` and Houdini's final verification.
    ``start`` is when the run began (its ``seconds`` count from there);
    ``config`` supplies ``fail_fast`` and ``profile``.
    """
    intern_hits_before, intern_misses_before = intern.counters()
    store_before = checker.store.snapshot() if checker.store is not None else None
    failures = checker.discharge_stream(
        obligations, emit=on_event, fail_fast=config.fail_fast
    )
    stats = checker.solver_stats()
    store_stats: Optional[Dict[str, int]] = None
    if checker.store is not None:
        # Delta, not cumulative: the server shares one store across
        # requests and each outcome reports its own traffic.
        store_stats = checker.store.delta_since(store_before)
        store_stats["entries"] = checker.store.entry_count()
        if checker.store.degraded:
            store_stats["degraded"] = True

    profile_dict: Optional[Dict[str, int]] = None
    if config.profile:
        profile = checker.profile_totals()
        intern_hits, intern_misses = intern.counters()
        profile.intern_hits = intern_hits - intern_hits_before
        profile.intern_misses = intern_misses - intern_misses_before
        profile_dict = profile.to_dict()

    return VerificationOutcome(
        verified=not failures,
        obligations_total=len(generator.obligations),
        failures=failures,
        seconds=time.perf_counter() - start,
        solver_queries=stats.queries,
        cache_hits=stats.cache_hits,
        solve_calls=stats.solve_calls,
        context_pushes=stats.pushes,
        context_pops=stats.pops,
        units=checker.units_run,
        early_exit=checker.early_exited,
        profile=profile_dict,
        oids=[ob.oid for ob in generator.obligations],
        store=store_stats,
        witnesses=len(checker.certificates) if checker.witness else None,
    )


def _bind_psi(psi: ast.Expr, bindings: Dict[str, Fraction]) -> ast.Expr:
    if not bindings:
        return psi
    # Quantified variables shadow bindings of the same name.
    mapping = {ast.Var(name): ast.Real(value) for name, value in bindings.items()}
    return simplify(ast.substitute(psi, mapping))
