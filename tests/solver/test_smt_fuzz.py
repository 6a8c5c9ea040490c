"""Differential fuzzing of the DPLL(T) solver against independent oracles.

Hypothesis generates Boolean-structured QF-LRA — and/or/not over linear
atoms with ``<``, ``<=`` and ``=``, small integer coefficients, at most
four variables — and checks every answer with code that shares nothing
with the search:

* a ``sat`` model must make every asserted formula true under
  :func:`repro.solver.formula.evaluate` with exact rationals;
* an ``unsat`` answer must come with a certificate the trusted kernel
  (:func:`repro.witness.validate`) accepts.

Each formula set runs on a fresh solver and again under push/pop scopes
over one persistent solver, whose answers must agree with the fresh
ones.  A third mode fuzzes the query cache: each entailment over
ShadowDP expressions is asked through one shared :class:`QueryCache`,
once via :class:`ValidityChecker` and once via a :class:`SolverContext`
(in both orders); the second ask must be a counted hit that replays the
first answer, and a certificate served on a hit must pass the kernel.
Tier-1 runs a bounded number of examples; the long run is
``pytest tests/solver/test_smt_fuzz.py --hypothesis-profile=ci-long
--hypothesis-seed=0``.
"""

from fractions import Fraction

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.lang import ast
from repro.solver import formula as F
from repro.solver.context import QueryCache, SolverContext
from repro.solver.encode import Encoder
from repro.solver.interface import ValidityChecker
from repro.solver.linear import LinExpr
from repro.solver.smt import SMTSolver
from repro.witness import validate
from repro.witness.emit import certificate_from_solver

VARS = ("x0", "x1", "x2", "x3")
COEFFS = (-3, -2, -1, 1, 2, 3)

LONG_RUN = settings.get_current_profile_name() == "ci-long"
FUZZ = settings(
    max_examples=settings.default.max_examples if LONG_RUN else 40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def atoms(draw):
    names = draw(st.lists(st.sampled_from(VARS), min_size=1, max_size=3, unique=True))
    coeffs = {n: Fraction(draw(st.sampled_from(COEFFS))) for n in names}
    const = draw(st.integers(-4, 4))
    op = draw(st.sampled_from(["<", "<=", "=="]))
    return F.mk_atom(op, LinExpr(coeffs, const))


formulas = st.recursive(
    atoms(),
    lambda children: st.one_of(
        children.map(F.mk_not),
        st.lists(children, min_size=2, max_size=3).map(lambda xs: F.mk_and(*xs)),
        st.lists(children, min_size=2, max_size=3).map(lambda xs: F.mk_or(*xs)),
    ),
    max_leaves=6,
)

conjunctions = st.lists(formulas, min_size=1, max_size=4)


def check_answer(solver, result, asserted):
    """Check ``result`` with the oracle that fits its status."""
    assert result.status in ("sat", "unsat")
    event(result.status)
    if result.is_sat:
        model = {n: result.arith_model.get(n, Fraction(0)) for n in VARS}
        for node in asserted:
            assert F.evaluate(node, model), f"{node} violated by {model}"
    else:
        certificate = certificate_from_solver(solver)
        assert certificate is not None
        validate(certificate)


def fresh_check(asserted):
    solver = SMTSolver()
    solver.enable_proof()
    for node in asserted:
        solver.add(node)
    result = solver.check()
    check_answer(solver, result, asserted)
    return result.status


@FUZZ
@given(conjunctions)
def test_plain_answers_pass_their_oracles(asserted):
    fresh_check(asserted)


@FUZZ
@given(conjunctions, st.lists(conjunctions, min_size=1, max_size=3))
def test_scoped_answers_agree_with_fresh_solvers(base, queries):
    solver = SMTSolver()
    solver.enable_proof()
    for node in base:
        solver.add(node)
    for query in queries:
        solver.push()
        for node in query:
            solver.add(node)
        result = solver.check()
        check_answer(solver, result, base + query)
        assert result.status == fresh_check(base + query)
        solver.pop()
    result = solver.check()
    check_answer(solver, result, base)
    assert result.status == fresh_check(base)


# -- cache-hit mode: the same fuzzed queries as ShadowDP expressions ----------


@st.composite
def expr_atoms(draw):
    names = draw(st.lists(st.sampled_from(VARS), min_size=1, max_size=3, unique=True))
    term: ast.Expr = ast.Real(draw(st.integers(-4, 4)))
    for name in names:
        coeff = ast.Real(draw(st.sampled_from(COEFFS)))
        term = ast.BinOp("+", term, ast.BinOp("*", coeff, ast.Var(name)))
    op = draw(st.sampled_from(["<", "<=", "=="]))
    return ast.BinOp(op, term, ast.ZERO)


exprs = st.recursive(
    expr_atoms(),
    lambda children: st.one_of(
        children.map(ast.Not),
        st.tuples(st.sampled_from(["&&", "||"]), children, children).map(
            lambda t: ast.BinOp(*t)
        ),
    ),
    max_leaves=6,
)


def ask_checker(cache, goal, premises):
    checker = ValidityChecker(cache=cache, witness=True)
    valid, model = checker.entailment(goal, premises)
    assert checker.queries == 1
    return valid, model, checker.last_certificate, checker.cache_hits == 1


def ask_context(cache, goal, premises):
    context = SolverContext(cache=cache, witness=True)
    # Half the premises as the asserted base, half as per-query extras:
    # the cache key covers both, so the split must not matter.
    split = len(premises) // 2
    for premise in premises[:split]:
        context.assert_expr(premise)
    valid, model = context.check_entailment(goal, premises[split:])
    stats = context.stats
    assert stats.queries == 1 and stats.cache_hits + stats.solve_calls == 1
    return valid, model, context.last_certificate, stats.cache_hits == 1


def check_entailment_answer(goal, premises, valid, model, certificate):
    """The expression-level oracles: a kernel-checked certificate for a
    valid answer, an exactly evaluated countermodel for a refuted one."""
    if valid:
        assert certificate is not None
        validate(certificate)
        return
    assert model is not None
    arith, booleans = model
    values = {n: arith.get(n, Fraction(0)) for n in VARS}
    encoder = Encoder()
    for premise in premises:
        assert F.evaluate(encoder.boolean(premise), values, booleans)
    assert not F.evaluate(encoder.boolean(goal), values, booleans)


@FUZZ
@given(exprs, st.lists(exprs, max_size=4), st.booleans())
def test_cache_hits_replay_the_solved_answer(goal, premises, checker_first):
    cache = QueryCache()
    first, second = (ask_checker, ask_context) if checker_first else (ask_context, ask_checker)
    valid, model, certificate, hit = first(cache, goal, premises)
    assert not hit
    check_entailment_answer(goal, premises, valid, model, certificate)
    event("valid" if valid else "refuted")

    valid2, model2, certificate2, hit2 = second(cache, goal, premises)
    assert hit2, "the second ask must be answered from the shared cache"
    assert (valid2, model2) == (valid, model)
    assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1
    check_entailment_answer(goal, premises, valid2, model2, certificate2)
