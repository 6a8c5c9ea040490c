"""Symbolic execution of target programs into a proof-obligation stream.

The executor runs the program's CFG block by block: it maintains a
*store* mapping each variable (including hat variables and ``v_eps``)
to a symbolic expression over input symbols, and a *path condition*.
``havoc`` introduces fresh symbols (``eta#3``).  At a branch both arms
execute from copies of the store and reconverge at the CFG's join
block, where the stores are merged with ternaries — so the number of
obligations stays linear in program size.

Obligations are **streamed**: :meth:`VCGenerator.stream` is a true
generator that yields each :class:`Obligation` the moment its block is
executed, so discharge can begin before generation finishes and an
early refutation can stop generation altogether.  Every obligation
carries a stable content-derived id (:attr:`Obligation.oid`) and a
:class:`Provenance` record — the CFG block it came from, the enclosing
loop region, the unroll iteration, the path-condition depth and the
pretty-printed originating statement — so refutations are explainable,
addressable artifacts rather than bare booleans.

Loops are per-loop sub-CFGs (:class:`~repro.ir.cfg.LoopHeader`) and
come in two flavours:

* **unroll** — the body sub-CFG is executed up to a budget; a final
  obligation demands the guard is provably false when the budget runs
  out, so a successful verification is a *complete* proof for the given
  concrete loop bounds (not a bounded approximation).
* **invariant** — the classic Hoare treatment: establish invariants on
  entry, havoc the variables the body sub-CFG assigns, assume
  invariants ∧ guard, check the body re-establishes the invariants,
  continue under invariants ∧ ¬guard.  Invariants come from program
  annotations (``while (e) invariant I; {...}``) or from Houdini.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Generator, Iterator, List, Optional, Tuple, Union

from repro.core.simplify import simplify
from repro.ir import StatementVisitor, ast_to_cfg, map_expr
from repro.ir.cfg import CFG, Block, Branch, Exit, IRError, Jump, LoopHeader
from repro.lang import ast
from repro.lang.pretty import pretty_command, pretty_expr

Store = Dict[str, ast.Expr]

#: The walker state: the symbolic store and the path condition.
State = Tuple[Store, Tuple[ast.Expr, ...]]


class VCGenError(ValueError):
    """Raised when a program cannot be symbolically executed."""


@dataclass(frozen=True)
class Provenance:
    """Where an obligation came from, structurally.

    ``block`` is the basic-block id (within its region's CFG) of the
    statement that produced the obligation; ``region`` is the
    hierarchical region path — ``"fn"`` for the top level, extended
    with ``/loop@b<id>`` per enclosing loop sub-CFG and ``#<k>`` for
    the unroll iteration.  ``statement`` is the pretty-printed
    originating statement (the AST carries no source positions — nodes
    are structurally interned — so the statement text is the stable
    source coordinate).  ``path_depth`` is the length of the path
    condition when the obligation was emitted.
    """

    block: int
    region: str
    statement: str
    path_depth: int
    loop_head: Optional[int] = None
    iteration: Optional[int] = None

    def describe(self) -> str:
        where = f"{self.region}/b{self.block}"
        if self.iteration is not None:
            where += f" iter {self.iteration}"
        return where

    def to_dict(self) -> Dict[str, object]:
        return {
            "block": self.block,
            "region": self.region,
            "statement": self.statement,
            "path_depth": self.path_depth,
            "loop_head": self.loop_head,
            "iteration": self.iteration,
        }


@dataclass(frozen=True)
class Obligation:
    """One proof obligation: ``path ⊨ goal``.

    ``tag`` distinguishes obligation species ("assert", "unroll",
    "invariant-entry", "invariant-preserved") and ``label`` carries the
    invariant index for Houdini's counterexample-guided pruning.
    ``provenance`` is reporting metadata and deliberately excluded from
    equality, so obligations compare (and cache) by logical content.
    """

    goal: ast.Expr
    path: Tuple[ast.Expr, ...]
    tag: str
    label: Optional[object] = None
    provenance: Optional[Provenance] = field(default=None, compare=False, repr=False)

    @cached_property
    def oid(self) -> str:
        """A stable, content-derived obligation id.

        Derived from the logical content only (tag, label, goal, path) —
        node reprs are structural and position-free — so the id is
        identical across runs and processes, and two obligations with
        the same logical content share one id.
        """
        payload = f"{self.tag}|{self.label!r}|{self.goal!r}|{self.path!r}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    def describe(self) -> str:
        return f"[{self.tag}] {pretty_expr(self.goal)}"

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "id": self.oid,
            "tag": self.tag,
            "goal": pretty_expr(self.goal),
            "path": [pretty_expr(p) for p in self.path],
        }
        if self.label is not None:
            data["label"] = list(self.label) if isinstance(self.label, tuple) else self.label
        if self.provenance is not None:
            data["provenance"] = self.provenance.to_dict()
        return data


#: The obligation stream type: yields obligations, returns the final state.
ObligationStream = Generator[Obligation, None, State]


@dataclass
class VCGenerator(StatementVisitor):
    """Symbolically executes one program, block by block, streaming
    obligations as the walk reaches them.

    :meth:`stream` is the primary interface — a generator yielding each
    obligation with provenance attached; :meth:`run` drains the stream
    and returns the final state (Houdini uses it: each pruning round
    filters the complete obligation list).  Either way every obligation
    also accumulates on :attr:`obligations` in emission order.
    """

    unroll_limit: int = 64
    use_invariants: bool = False
    extra_invariants: Tuple[ast.Expr, ...] = ()
    obligations: List[Obligation] = field(default_factory=list)
    _fresh: int = 0
    _block: int = 0
    _region: str = "fn"
    _iteration: Optional[int] = None
    _pending: List[Obligation] = field(default_factory=list)
    _final_state: Optional[State] = None

    def __post_init__(self) -> None:
        # A negative budget would never reach the ``budget == 0``
        # completeness obligation, so a symbolic loop would unroll forever.
        if self.unroll_limit < 0:
            raise ValueError(f"unroll_limit must be >= 0, got {self.unroll_limit}")

    # -- public API ------------------------------------------------------------

    def stream(
        self, program: Union[ast.Command, CFG], store: Optional[Store] = None
    ) -> Iterator[Obligation]:
        """Execute ``program`` (a command or a prebuilt CFG) from
        ``store`` (default: every variable maps to itself, i.e. fully
        symbolic inputs), yielding obligations as blocks execute.  The
        final state is available as :attr:`final_state` once the
        generator is exhausted."""
        cfg = program if isinstance(program, CFG) else ast_to_cfg(program)
        self._final_state = yield from self._walk(
            cfg, cfg.entry, None, (dict(store or {}), ())
        )

    def run(self, program: Union[ast.Command, CFG], store: Optional[Store] = None) -> State:
        """Drain :meth:`stream`; obligations accumulate on the generator."""
        for _ in self.stream(program, store):
            pass
        assert self._final_state is not None
        return self._final_state

    @property
    def final_state(self) -> Optional[State]:
        """The (store, path) the walk ended in, once streaming finished."""
        return self._final_state

    # -- helpers ------------------------------------------------------------------

    def fresh(self, base: str) -> ast.Var:
        self._fresh += 1
        return ast.Var(f"{base}#{self._fresh}")

    def _subst(self, expr: ast.Expr, store: Store) -> ast.Expr:
        return simplify(_subst_expr(expr, store))

    def _oblige(
        self,
        goal: ast.Expr,
        path: Tuple[ast.Expr, ...],
        tag: str,
        label=None,
        statement: str = "",
        loop_head: Optional[int] = None,
    ) -> None:
        goal = simplify(goal)
        if goal == ast.TRUE:
            return
        provenance = Provenance(
            block=self._block,
            region=self._region,
            statement=statement,
            path_depth=len(path),
            loop_head=loop_head,
            iteration=self._iteration,
        )
        obligation = Obligation(goal, path, tag, label, provenance)
        self.obligations.append(obligation)
        self._pending.append(obligation)

    def _drain(self) -> Iterator[Obligation]:
        if self._pending:
            pending, self._pending = self._pending, []
            yield from pending

    # -- straight-line statements --------------------------------------------------

    def visit_assign(self, stmt: ast.Assign, state: State) -> State:
        store, path = state
        store = dict(store)
        store[stmt.name] = self._subst(stmt.expr, store)
        return store, path

    def visit_havoc(self, stmt: ast.Havoc, state: State) -> State:
        store, path = state
        store = dict(store)
        store[stmt.name] = self.fresh(stmt.name)
        return store, path

    def visit_assert_(self, stmt: ast.Assert, state: State) -> State:
        store, path = state
        self._oblige(
            self._subst(stmt.expr, store), path, "assert",
            statement=pretty_command(stmt),
        )
        return state

    def visit_assume(self, stmt: ast.Assume, state: State) -> State:
        store, path = state
        fact = self._subst(stmt.expr, store)
        if fact != ast.TRUE:
            path = path + (fact,)
        return store, path

    def visit_return_(self, stmt: ast.Return, state: State) -> State:
        return state

    def visit_skip(self, stmt: ast.Skip, state: State) -> State:
        return state

    def visit_sample(self, stmt: ast.Sample, state: State) -> State:
        raise VCGenError(
            "sampling command reached the verifier — lower with "
            "repro.target.transform first"
        )

    def generic_visit(self, stmt: ast.Command, *args):
        raise VCGenError(f"cannot execute {stmt!r}")

    # -- the streaming walk --------------------------------------------------------

    def _walk(self, cfg: CFG, start: int, stop: Optional[int], state: State) -> ObligationStream:
        """One region of the graph, yielding obligations as they arise.

        The generator-based twin of :meth:`repro.ir.CFGWalker.run_region`
        (the callback walker cannot stream): statements dispatch through
        :class:`~repro.ir.StatementVisitor`, branches reconverge at the
        CFG join, loops run their body sub-CFGs.  Traversal order — and
        therefore obligation order, havoc numbering and the path
        conditions — is identical to that walker's.
        """
        bid: Optional[int] = start
        while bid is not None and bid != stop:
            block = cfg.block(bid)
            self._block = bid
            for stmt in block.stmts:
                state = self.visit(stmt, state)
                yield from self._drain()
            term = block.term
            if isinstance(term, Jump):
                bid = term.target
            elif isinstance(term, Branch):
                join = cfg.join_of(block.id)
                state = yield from self._branch(cfg, block, term, join, state)
                bid = join
            elif isinstance(term, LoopHeader):
                state = yield from self._loop(cfg, block, term, state)
                bid = term.after
            elif isinstance(term, Exit):
                bid = None
            else:
                raise IRError(f"unknown terminator {term!r}")
        return state

    # -- branches: merge stores at the join node -----------------------------------

    def _branch(
        self, cfg: CFG, block: Block, term: Branch, join: int, state: State
    ) -> ObligationStream:
        store, path = state
        cond = self._subst(term.cond, store)
        if cond == ast.TRUE:
            return (yield from self._walk(cfg, term.then, join, state))
        if cond == ast.FALSE:
            if term.orelse == join:
                return state
            return (yield from self._walk(cfg, term.orelse, join, state))
        base_t = path + (cond,)
        base_f = path + (ast.Not(cond),)
        store_t, path_t = yield from self._walk(cfg, term.then, join, (dict(store), base_t))
        if term.orelse == join:
            store_f, path_f = dict(store), base_f
        else:
            store_f, path_f = yield from self._walk(
                cfg, term.orelse, join, (dict(store), base_f)
            )
        # Facts learned inside a branch (assumes, loop-invariant
        # assumptions) survive the merge as guarded implications.
        merged_path = path
        for fact in path_t[len(base_t):]:
            merged_path = merged_path + (ast.BinOp("||", ast.Not(cond), fact),)
        for fact in path_f[len(base_f):]:
            merged_path = merged_path + (ast.BinOp("||", cond, fact),)
        return _merge_stores(cond, store_t, store_f), merged_path

    # -- loops: one sub-CFG per loop ------------------------------------------------

    def _loop(self, cfg: CFG, block: Block, term: LoopHeader, state: State) -> ObligationStream:
        store, path = state
        if self.use_invariants and (term.invariants or self.extra_invariants):
            return (yield from self._exec_loop_invariant(block, term, store, path))
        return (
            yield from self._exec_loop_unroll(block, term, store, path, self.unroll_limit)
        )

    def _run_body(self, term: LoopHeader, state: State) -> ObligationStream:
        body = term.body
        return (yield from self._walk(body, body.entry, None, state))

    def _in_loop_region(self, head: int, iteration: Optional[int]):
        """Provenance context for one trip through a loop body sub-CFG."""
        region = f"{self._region}/loop@b{head}"
        if iteration is not None:
            region += f"#{iteration}"
        return _RegionScope(self, region, iteration)

    def _exec_loop_unroll(
        self, block: Block, term: LoopHeader, store: Store, path, budget: int
    ) -> ObligationStream:
        guard = self._subst(term.cond, store)
        if guard == ast.FALSE:
            return store, path
        if budget == 0:
            # Completeness obligation: the loop must have terminated by
            # now; otherwise verification legitimately fails.
            self._block = block.id
            self._oblige(
                ast.Not(guard), path, "unroll",
                statement=f"while ({pretty_expr(term.cond)})",
                loop_head=block.id,
            )
            yield from self._drain()
            if guard != ast.TRUE:
                path = path + (ast.Not(guard),)
            return store, path
        base = path if guard == ast.TRUE else path + (guard,)
        iteration = self.unroll_limit - budget + 1
        with self._in_loop_region(block.id, iteration):
            body_store, body_path = yield from self._run_body(term, (dict(store), base))
        rest_store, rest_path = yield from self._exec_loop_unroll(
            block, term, body_store, body_path, budget - 1
        )
        if guard == ast.TRUE:
            return rest_store, rest_path
        merged = _merge_stores(guard, rest_store, store)
        merged_path = path
        for fact in rest_path[len(base):]:
            merged_path = merged_path + (ast.BinOp("||", ast.Not(guard), fact),)
        exit_guard = self._subst(term.cond, merged)
        if exit_guard != ast.FALSE:
            merged_path = merged_path + (ast.Not(exit_guard),)
        return merged, merged_path

    def _exec_loop_invariant(
        self, block: Block, term: LoopHeader, store: Store, path
    ) -> ObligationStream:
        own = tuple(term.invariants)
        invariants = own + tuple(self.extra_invariants)
        # Labels distinguish program-annotated invariants from injected
        # candidates so Houdini prunes only its own.
        labels = [("own", k) for k in range(len(own))] + [
            ("extra", k) for k in range(len(self.extra_invariants))
        ]
        # 1. Invariants hold on entry.
        self._block = block.id
        for label, inv in zip(labels, invariants):
            self._oblige(
                self._subst(inv, store), path, "invariant-entry", label=label,
                statement=f"invariant {pretty_expr(inv)}", loop_head=block.id,
            )
        yield from self._drain()
        # 2. An arbitrary iteration preserves them.
        havoced = dict(store)
        for name in sorted(term.body.assigned_names()):
            havoced[name] = self.fresh(name)
        assumed = tuple(self._subst(inv, havoced) for inv in invariants)
        guard = self._subst(term.cond, havoced)
        body_path = path + assumed + (guard,)
        with self._in_loop_region(block.id, None):
            body_store, body_path_out = yield from self._run_body(
                term, (dict(havoced), body_path)
            )
        self._block = block.id
        for label, inv in zip(labels, invariants):
            self._oblige(
                self._subst(inv, body_store), body_path_out, "invariant-preserved",
                label=label,
                statement=f"invariant {pretty_expr(inv)}", loop_head=block.id,
            )
        yield from self._drain()
        # 3. Continue from an arbitrary post-loop state.
        return havoced, path + assumed + (ast.Not(guard),)


class _RegionScope:
    """Context manager swapping the generator's provenance region."""

    def __init__(self, gen: VCGenerator, region: str, iteration: Optional[int]) -> None:
        self.gen = gen
        self.region = region
        self.iteration = iteration

    def __enter__(self) -> None:
        self.saved = (self.gen._region, self.gen._iteration, self.gen._block)
        self.gen._region = self.region
        self.gen._iteration = self.iteration

    def __exit__(self, *exc) -> None:
        self.gen._region, self.gen._iteration, self.gen._block = self.saved


# ---------------------------------------------------------------------------
# Store plumbing
# ---------------------------------------------------------------------------


def _subst_expr(expr: ast.Expr, store: Store) -> ast.Expr:
    def replace(node: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(node, ast.Var):
            return store.get(node.name, node)
        if isinstance(node, ast.Hat):
            return store.get(ast.hat_name(node.base, node.version), node)
        if isinstance(node, ast.Index):
            # List bases are input symbols; only the index is state-dependent.
            return ast.Index(node.base, _subst_expr(node.index, store))
        if isinstance(node, ast.ForAll):
            raise VCGenError(f"cannot substitute into {node!r}")
        return None  # generic bottom-up rebuild

    return map_expr(expr, replace)


def _merge_stores(cond: ast.Expr, store_t: Store, store_f: Store) -> Store:
    merged: Store = {}
    for name in set(store_t) | set(store_f):
        then = store_t.get(name, ast.Var(name))
        orelse = store_f.get(name, ast.Var(name))
        if then == orelse:
            merged[name] = then
        else:
            merged[name] = simplify(ast.Ternary(cond, then, orelse))
    return merged
