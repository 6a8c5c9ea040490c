"""The online DPLL(T) hook: theory lemmas inside the CDCL loop.

Two families:

* CDCL-level tests with a *nogood theory* — a theory whose only facts
  are forbidden literal sets — which can report its lemmas early or
  late, so every shape of lemma the solver must handle (level 0, under
  assumptions, unit, asserting, no literal at the current level) is hit
  on purpose and cross-checked against brute force;
* SMT-level tests of the same edge cases over linear arithmetic, with
  certificates checked by the trusted kernel, plus the lifetime
  contract: a dropped context frees its solver without a GC pass.
"""

import gc
import itertools
import random
import weakref
from fractions import Fraction

from repro.lang.parser import parse_expr
from repro.solver import formula as F
from repro.solver.context import SolverContext
from repro.solver.linear import LinExpr
from repro.solver.sat import CDCLSolver
from repro.solver.smt import SMTSolver
from repro.witness import validate
from repro.witness.emit import certificate_from_solver

X = LinExpr.variable("x")
Y = LinExpr.variable("y")


def const(value):
    return LinExpr.constant(value)


class NogoodTheory:
    """Forbids each literal set in ``nogoods``.

    With ``lazy``, a violated nogood is only reported once the search is
    a level above all of its literals (or the trail is complete), so the
    solver receives lemmas with no literal at the current level.
    """

    def __init__(self, nogoods, num_vars, lazy=False, proof=None):
        self.nogoods = [tuple(n) for n in nogoods]
        self.num_vars = num_vars
        self.lazy = lazy
        self.proof = proof
        self.kinds = {"below_current": 0, "at_current": 0}
        self.backtracks = 0

    def check_theory(self, trail, level_starts):
        position = {lit: i for i, lit in enumerate(trail)}
        level = len(level_starts)
        for nogood in self.nogoods:
            if not all(lit in position for lit in nogood):
                continue
            top = max(sum(1 for s in level_starts if s <= position[lit]) for lit in nogood)
            if self.lazy and top == level and len(trail) < self.num_vars:
                continue
            self.kinds["below_current" if top < level else "at_current"] += 1
            lemma = [-lit for lit in nogood]
            if self.proof is not None:
                self.proof.append(("lemma", tuple(lemma)))
            return lemma
        return None

    def backtrack(self, level):
        self.backtracks += 1


def satisfies(assignment, clauses, nogoods):
    def true(lit):
        return assignment[abs(lit)] == (lit > 0)

    return all(any(true(l) for l in c) for c in clauses) and not any(
        all(true(l) for l in n) for n in nogoods
    )


def brute_force(num_vars, clauses, nogoods, assumptions=()):
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = dict(zip(range(1, num_vars + 1), bits))
        if all(assignment[abs(a)] == (a > 0) for a in assumptions) and satisfies(
            assignment, clauses, nogoods
        ):
            return True
    return False


def random_literals(rng, num_vars, size):
    return [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), size)]


class TestNogoodTheory:
    def test_level_zero_conflict_is_permanent(self):
        solver = CDCLSolver(3)
        solver.add_clause([1])
        theory = NogoodTheory([(1,)], 3)
        assert solver.solve(theory=theory) is False
        # Refuted for good: new clauses and assumptions change nothing.
        solver.add_clause([2, 3])
        assert solver.solve(theory=theory) is False
        assert solver.solve([2], theory=NogoodTheory([], 3)) is False

    def test_conflict_under_assumptions_then_sat_without(self):
        solver = CDCLSolver(3)
        theory = NogoodTheory([(1, 2)], 3)
        assert solver.solve([1, 2], theory=theory) is False
        assert solver.solve([1], theory=theory) is True
        assert solver.model()[2] is False
        assert solver.solve(theory=theory) is True

    def test_unit_lemma_holds_at_level_zero(self):
        proof = []
        solver = CDCLSolver(3)
        solver.proof = proof
        theory = NogoodTheory([(-1,)], 3, proof=proof)
        assert solver.solve(theory=theory) is True
        assert solver.model()[1] is True
        assert [e[0] for e in proof] == ["lemma"]
        # The lemma is a permanent level-0 fact now.
        solver.add_clause([-1, 2])
        assert solver.solve(theory=NogoodTheory([], 3)) is True
        assert solver.model()[2] is True
        solver.add_clause([-2])
        assert solver.solve(theory=NogoodTheory([], 3)) is False

    def test_asserting_lemma_is_not_learned_but_bumped(self):
        proof = []
        solver = CDCLSolver(4)
        solver.proof = proof
        theory = NogoodTheory([(-1, -2)], 4, proof=proof)
        assert solver.solve(theory=theory) is True
        model = solver.model()
        assert model[1] or model[2]
        assert theory.kinds["at_current"] == 1
        assert [e[0] for e in proof] == ["lemma"]
        assert solver.profile.learned_clauses == 0
        assert solver._activity[1] > 0 and solver._activity[2] > 0

    def test_lemma_without_current_level_literal(self):
        # -1 at level 1 implies -2 there too; the lazy theory reports the
        # nogood {-1, -2} only from level 2 — two literals at level 1, none
        # at the current level, so the solver must backtrack to level 1
        # and analyze there.  The learned clause follows its lemma.
        proof = []
        solver = CDCLSolver(3)
        solver.proof = proof
        solver.add_clause([1, -2])
        theory = NogoodTheory([(-1, -2)], 3, lazy=True, proof=proof)
        assert solver.solve(theory=theory) is True
        assert solver.model()[1] is True
        assert theory.kinds["below_current"] == 1
        assert [e[0] for e in proof] == ["lemma", "learn"]
        assert proof[1][1] == (1,)

    def test_random_corpus_matches_brute_force(self):
        rng = random.Random(20261017)
        seen = {"below_current": 0, "at_current": 0}
        restarts = deleted = 0
        for trial in range(150):
            num_vars = rng.randint(3, 9)
            clauses = [random_literals(rng, num_vars, 3) for _ in range(rng.randint(0, 3 * num_vars))]
            nogoods = [
                random_literals(rng, num_vars, rng.randint(1, 3))
                for _ in range(rng.randint(1, 2 * num_vars))
            ]
            assumptions = random_literals(rng, num_vars, rng.randint(0, 2))
            aggressive = trial % 2 == 0
            solver = CDCLSolver(
                num_vars,
                **(dict(restart_base=1, reduce_base=2, reduce_inc=2) if aggressive else {}),
            )
            for clause in clauses:
                solver.add_clause(clause)
            theory = NogoodTheory(nogoods, num_vars, lazy=trial % 3 != 0)
            for scope in (assumptions, ()):
                expected = brute_force(num_vars, clauses, nogoods, scope)
                assert solver.solve(scope, theory=theory) == expected, f"trial {trial}"
                if expected:
                    model = solver.model()
                    assert satisfies(model, clauses, nogoods), f"trial {trial}"
                    assert all(model[abs(a)] == (a > 0) for a in scope)
            for kind, count in theory.kinds.items():
                seen[kind] += count
            restarts += solver.profile.restarts
            deleted += solver.profile.deleted_clauses
        assert seen["below_current"] > 0 and seen["at_current"] > 0
        assert restarts > 0 and deleted > 0

    def test_theory_is_released_after_solve(self):
        solver = CDCLSolver(2)
        theory = NogoodTheory([(1, 2)], 2)
        solver.solve(theory=theory)
        assert solver._theory is None
        # add_clause backtracks without the theory attached.
        solver.add_clause([1])
        assert theory.backtracks > 0
        before = theory.backtracks
        solver.add_clause([2, 1])
        assert theory.backtracks == before


def _certified(solver):
    cert = certificate_from_solver(solver)
    assert cert is not None
    validate(cert)
    return cert


class TestSMTEdgeCases:
    def test_level_zero_theory_conflict_is_permanent(self):
        solver = SMTSolver()
        solver.enable_proof()
        solver.add(F.mk_atom("<=", X, const(0)))
        solver.add(F.mk_atom("<=", const(1), X))
        assert solver.check().is_unsat
        _certified(solver)
        solver.push()
        solver.add(F.mk_atom("<=", Y, const(3)))
        assert solver.check().is_unsat
        solver.pop()
        assert solver.check().is_unsat
        _certified(solver)

    def test_conflict_under_scope_then_sat_after_pop(self):
        solver = SMTSolver()
        solver.enable_proof()
        solver.add(F.mk_atom("<=", X, Y))
        solver.push()
        solver.add(F.mk_atom("<", Y, const(0)))
        solver.add(F.mk_atom("<=", const(0), X))
        assert solver.check().is_unsat
        cert = _certified(solver)
        assert cert.assumptions
        solver.pop()
        result = solver.check()
        assert result.is_sat
        assert result.arith_model["x"] <= result.arith_model["y"]

    def test_new_level_zero_facts_between_checks(self):
        # The first check ends at a full assignment; adding units makes
        # the SAT core backtrack to level 0 and extend the level-0 trail
        # before the theory sees it again.
        solver = SMTSolver()
        solver.add(F.mk_or(F.mk_atom("<=", X, const(0)), F.mk_atom("<=", Y, const(0))))
        assert solver.check().is_sat
        solver.add(F.mk_atom("<=", const(5), X))
        result = solver.check()
        assert result.is_sat
        assert result.arith_model["x"] >= 5 and result.arith_model["y"] <= 0
        solver.add(F.mk_atom("<=", const(5), Y))
        assert solver.check().is_unsat

    def test_one_round_per_check(self):
        solver = SMTSolver()
        chain = [LinExpr.variable(f"v{i}") for i in range(8)]
        for left, right in zip(chain, chain[1:]):
            b = F.BVar(f"b{left}")
            solver.add(
                F.mk_or(
                    F.mk_and(b, F.mk_atom("<=", left + 1, right)),
                    F.mk_and(F.mk_not(b), F.mk_atom("<=", left + 2, right)),
                )
            )
        solver.add(F.mk_atom("<=", chain[-1], chain[0] + 6))
        assert solver.check().is_unsat
        assert solver.profile.rounds == solver.profile.solve_calls == 1
        assert solver.profile.theory_conflicts > 0

    def test_sat_model_is_exact_and_strict(self):
        solver = SMTSolver()
        solver.add(F.mk_atom("<", X, Y))
        solver.add(F.mk_atom("<", Y, const(Fraction(1, 3))))
        solver.add(F.mk_atom("<", const(0), X))
        result = solver.check()
        assert result.is_sat
        m = result.arith_model
        assert 0 < m["x"] < m["y"] < Fraction(1, 3)


class TestLifetime:
    def test_dropped_context_frees_its_solver_without_gc(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            ctx = SolverContext(witness=True)
            ctx.assert_expr(parse_expr("x <= 0"))
            assert ctx.check_entailment(parse_expr("x < 1"))[0]
            assert not ctx.check_entailment(parse_expr("x < 0"))[0]
            solver = weakref.ref(ctx.solver)
            del ctx
            assert solver() is None
        finally:
            if enabled:
                gc.enable()
