"""Layer spans recorded from outside the program.

:func:`install` patches the public entry points of each layer — class
methods and the names importers bound — with wrappers that open a span
on a :class:`Tracer`.  The program's own files are untouched; tracing
exists only in a process that called :func:`install`.

A span's *self time* is its duration minus the time its child spans
cover; the tracer accumulates it per layer as spans close, so the sum of
all self times equals the time covered by the outermost spans.  Spans of
entry points called hundreds of thousands of times per solve (simplex
bound assertions, SAT clause adds) are *aggregate-only*: they take part
in the self-time arithmetic but are not stored, which keeps the stored
trace small.  Stored spans stay in memory until :meth:`Tracer.chrome`
renders them as Chrome trace events.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: One entry point: (module, attribute path, layer, kind).  Kind is
#: ``span`` (stored), ``agg`` (aggregate-only) or ``gen`` (a generator
#: timed over its consumption, each resumption a stored span).
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.pipeline", "Pipeline.run", "pipeline", "span"),
    ("repro.pipeline", "parse_function", "frontend.parse", "span"),
    ("repro.pipeline", "check_function", "frontend.check", "span"),
    ("repro.pipeline", "ast_to_cfg", "frontend.lower", "span"),
    ("repro.ir", "PassManager.run", "frontend.lower", "span"),
    ("repro.pipeline", "to_target", "frontend.lower", "span"),
    ("repro.target.transform", "TargetProgram.optimized", "frontend.lower", "span"),
    ("repro.verify.verifier", "target_cfg", "frontend.lower", "span"),
    ("repro.pipeline", "verify_target", "verifier", "span"),
    ("repro.verify.vcgen", "VCGenerator.stream", "vcgen", "gen"),
    ("repro.verify.vcgen", "VCGenerator.run", "vcgen", "span"),
    ("repro.verify.verifier", "ObligationChecker.discharge_stream", "discharge", "span"),
    ("repro.verify.discharge", "DischargeEngine.discharge_unit", "discharge", "span"),
    ("repro.verify.discharge", "DischargeEngine._lemmas", "lemmas", "span"),
    ("repro.solver.context", "SolverContext.check_entailment", "context", "span"),
    ("repro.solver.context", "SolverContext.assert_expr", "context", "agg"),
    ("repro.solver.encode", "Encoder.boolean", "encode", "agg"),
    ("repro.solver.smt", "SMTSolver.check", "smt", "span"),
    ("repro.solver.smt", "SMTSolver.add", "smt", "agg"),
    ("repro.solver.sat", "CDCLSolver.solve", "sat", "span"),
    ("repro.solver.sat", "CDCLSolver.add_clause", "sat", "agg"),
    ("repro.solver.simplex", "Simplex.check", "simplex", "span"),
    ("repro.solver.simplex", "Simplex.assert_upper", "simplex", "agg"),
    ("repro.solver.simplex", "Simplex.assert_lower", "simplex", "agg"),
    ("repro.solver.simplex", "Simplex.push_state", "simplex", "agg"),
    ("repro.solver.simplex", "Simplex.pop_state", "simplex", "agg"),
    ("repro.verify.store", "ObligationStore.lookup", "store.lookup", "span"),
    ("repro.verify.store", "ObligationStore.record_many", "store.record", "span"),
    ("repro.witness.certificate", "Certificate.from_json", "witness.decode", "span"),
    ("repro.verify.verifier", "validate_witness", "witness.validate", "span"),
    ("repro.witness.emit", "certificate_from_solver", "witness.emit", "span"),
    ("repro.automation.inference", "infer_annotations", "infer", "span"),
    ("repro.verify.houdini", "infer_invariants", "houdini", "span"),
)

#: SolverProfile fields read around each ``SMTSolver.check``.
PROFILE_FIELDS = (
    "solve_calls", "rounds", "decisions", "propagations", "conflicts",
    "pivots", "bound_asserts", "theory_conflicts",
)


class Tracer:
    """Span recorder: per-thread span stacks, shared totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Stored spans: [layer, start, end, parent index or -1, tag, thread].
        self.spans: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Program counters read at layer boundaries.
        self.counts: Counter = Counter()
        #: Pass or request id stamped on new spans.
        self.tag: Optional[str] = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Zero the totals (stored spans are kept)."""
        with self._lock:
            self.self_s.clear()
            self.calls.clear()
            self.counts.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_layer(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def enter(self, layer: str, store: bool = True) -> list:
        stack = self._stack()
        index = -1
        if store:
            parent = next((f[3] for f in reversed(stack) if f[3] >= 0), -1)
            with self._lock:
                index = len(self.spans)
                self.spans.append(
                    [layer, 0.0, 0.0, parent, self.tag, threading.get_ident()]
                )
        # frame: [layer, start, time covered by children, span index]
        frame = [layer, self.clock(), 0.0, index]
        if store:
            self.spans[index][1] = frame[1]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        stack = self._stack()
        stack.pop()
        duration = end - frame[1]
        with self._lock:
            self.self_s[frame[0]] += duration - frame[2]
            self.calls[frame[0]] += 1
        if stack:
            stack[-1][2] += duration
        if frame[3] >= 0:
            self.spans[frame[3]][2] = end

    def chrome(self, pid: int) -> List[Dict[str, Any]]:
        """Stored spans as Chrome trace-event ``X`` records (µs)."""
        events = []
        for index, (layer, start, end, parent, tag, thread) in enumerate(self.spans):
            events.append({
                "name": layer, "ph": "X", "pid": pid, "tid": thread,
                "ts": round(start * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"span": index, "parent": parent, "id": tag},
            })
        return events


def _span(tracer: Tracer, fn: Callable, layer: str, store: bool, after=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.current_layer() == layer:
            result = fn(*args, **kwargs)  # nested inside its own layer
        else:
            frame = tracer.enter(layer, store)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def _generator(tracer: Tracer, fn: Callable, layer: str, counter: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        if tracer.current_layer() == layer:
            return inner

        def timed():
            try:
                while True:
                    frame = tracer.enter(layer)
                    try:
                        item = next(inner)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        tracer.exit(frame)
                    tracer.counts[counter] += 1
                    yield item
            finally:
                inner.close()

        return timed()

    return wrapper


# -- counters read at boundaries ---------------------------------------------


def _profile_delta(fn: Callable, tracer: Tracer) -> Callable:
    """Wrap ``SMTSolver.check`` to add its SolverProfile delta to counts."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        profile = self.profile
        before = [getattr(profile, f) for f in PROFILE_FIELDS]
        try:
            return fn(self, *args, **kwargs)
        finally:
            for name, old in zip(PROFILE_FIELDS, before):
                tracer.counts[f"profile.{name}"] += getattr(profile, name) - old

    return wrapper


def _after_context(tracer: Tracer, args, result) -> None:
    tracer.counts["context.queries"] += 1


def _context_hits(fn: Callable, tracer: Tracer) -> Callable:
    """Wrap ``check_entailment`` to count its shared-cache hits."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        before = self.stats.cache_hits
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.counts["context.cache_hits"] += self.stats.cache_hits - before

    return wrapper


def _after_lookup(tracer: Tracer, args, result) -> None:
    tracer.counts["store.lookups"] += 1
    tracer.counts["store.hits"] += result is not None


def _after_lemmas(tracer: Tracer, args, result) -> None:
    tracer.counts["lemmas.count"] += len(result)


def _after_unit(tracer: Tracer, args, result) -> None:
    tracer.counts["discharge.units"] += 1


def _after_run(tracer: Tracer, args, result) -> None:
    tracer.counts["vcgen.obligations"] += len(args[0].obligations)


def _after_check(tracer: Tracer, args, result) -> None:
    tracer.counts["frontend.check_calls"] += 1


def _after_infer(tracer: Tracer, args, result) -> None:
    tracer.counts["infer.candidates_tried"] += result.candidates_tried
    tracer.counts["infer.type_checked"] += result.type_checked


def _after_houdini(tracer: Tracer, args, result) -> None:
    tracer.counts["houdini.rounds"] += result.rounds


def _after_validate(tracer: Tracer, args, result) -> None:
    tracer.counts["witness.validated"] += 1


AFTER = {
    "repro.pipeline:check_function": _after_check,
    "repro.verify.vcgen:VCGenerator.run": _after_run,
    "repro.verify.discharge:DischargeEngine.discharge_unit": _after_unit,
    "repro.verify.discharge:DischargeEngine._lemmas": _after_lemmas,
    "repro.solver.context:SolverContext.check_entailment": _after_context,
    "repro.verify.store:ObligationStore.lookup": _after_lookup,
    "repro.verify.verifier:validate_witness": _after_validate,
    "repro.automation.inference:infer_annotations": _after_infer,
    "repro.verify.houdini:infer_invariants": _after_houdini,
}


def _validate_rejects(fn: Callable, tracer: Tracer) -> Callable:
    """Wrap the witness kernel to count the certificates it rejects."""
    from repro.witness import WitnessError

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except WitnessError:
            tracer.counts["witness.rejects"] += 1
            raise

    return wrapper


#: Counter wrappers applied inside the span wrapper of an entry point.
AROUND = {
    "repro.solver.smt:SMTSolver.check": _profile_delta,
    "repro.solver.context:SolverContext.check_entailment": _context_hits,
    "repro.verify.verifier:validate_witness": _validate_rejects,
}


def install(tracer: Tracer) -> None:
    """Patch every entry point in :data:`ENTRY_POINTS` to report to ``tracer``."""
    for module_name, path, layer, kind in ENTRY_POINTS:
        owner: Any = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        raw = inspect.getattr_static(owner, attr)
        method = raw.__func__ if isinstance(raw, classmethod) else raw
        key = f"{module_name}:{path}"
        if key in AROUND:
            method = AROUND[key](method, tracer)
        if kind == "gen":
            wrapped = _generator(tracer, method, layer, "vcgen.obligations")
        else:
            wrapped = _span(tracer, method, layer, kind == "span", AFTER.get(key))
        setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
