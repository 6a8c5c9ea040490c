"""The persistent obligation store: round trips, isolation, resilience.

The store's contract (see ``docs/cache.md``): a warm rerun of an
unchanged program performs **zero** solves; every failure mode —
corrupt file, foreign schema version, undecodable row — degrades to a
counted miss, never a crash or a wrong verdict.
"""

import dataclasses
import json
import os
import re
import sqlite3

import pytest

from repro.algorithms import get
from repro.pipeline import spec_config
from repro.verify.store import (
    SCHEMA_VERSION,
    STORE_ENV_VAR,
    ObligationStore,
    StoredVerdict,
    default_store_path,
    premise_fingerprint,
    resolve_store,
)
from repro.verify.verifier import verify_target


def _config(base, **kwargs):
    return dataclasses.replace(base, **kwargs)


def _run(spec_name, store, **overrides):
    spec = get(spec_name)
    return verify_target(
        spec.target(), _config(spec_config(spec), store=store, **overrides)
    )


class TestRoundTrip:
    def test_warm_rerun_solves_nothing(self, tmp_path):
        path = os.fspath(tmp_path / "store.sqlite")
        cold = _run("svt", path)
        assert cold.verified is True
        assert cold.store["misses"] == cold.obligations_total
        assert cold.store["writes"] == cold.obligations_total
        assert cold.store["entries"] == cold.obligations_total
        assert cold.solve_calls > 0

        warm = _run("svt", path)
        assert warm.verified is True
        assert warm.oids == cold.oids
        assert warm.solve_calls == 0
        assert warm.solver_queries == 0  # hits never reach the plan
        assert warm.units == 0
        assert warm.store["hits"] == cold.obligations_total
        assert warm.store["misses"] == 0
        assert warm.store["writes"] == 0

    def test_model_free_fill_keeps_countermodels(self, tmp_path):
        """A store filled by a ``collect_models=False`` run still records
        each refutation's countermodel (the refuting solve produced one),
        so a later run that wants models gets them from its hits."""
        path = os.fspath(tmp_path / "store.sqlite")
        cold = _run("bad_svt_no_budget", path, collect_models=False)
        assert cold.verified is False
        assert all(f.arith_model is None for f in cold.failures)

        warm = _run("bad_svt_no_budget", path, collect_models=True)
        assert warm.solve_calls == 0
        assert warm.store["hits"] == warm.obligations_total
        assert warm.failures[0].arith_model is not None
        fresh = _run("bad_svt_no_budget", None)
        assert [f.describe() for f in warm.failures] == [
            f.describe() for f in fresh.failures
        ]

    def test_refuted_program_round_trips_countermodels(self, tmp_path):
        path = os.fspath(tmp_path / "store.sqlite")
        cold = _run("bad_svt_leaks_value", path)
        assert cold.verified is False

        warm = _run("bad_svt_leaks_value", path)
        assert warm.verified is False
        assert warm.solve_calls == 0
        assert [f.obligation.oid for f in warm.failures] == [
            f.obligation.oid for f in cold.failures
        ]
        # Countermodels survive the JSON round trip exactly (Fractions).
        for warm_f, cold_f in zip(warm.failures, cold.failures):
            assert warm_f.arith_model == cold_f.arith_model
            assert warm_f.bool_model == cold_f.bool_model

    def test_store_disabled_by_default(self):
        spec = get("svt")
        outcome = verify_target(spec.target(), spec_config(spec))
        assert outcome.store is None
        assert "store" not in outcome.solver_stats()


class TestInvalidation:
    def test_different_premise_regime_misses(self, tmp_path):
        """The fingerprint keys on the premise regime: changing the
        lemma policy must re-prove, not reuse."""
        path = os.fspath(tmp_path / "store.sqlite")
        cold = _run("svt", path)
        shifted = _run("svt", path, use_lemmas=False)
        assert shifted.store["hits"] == 0
        assert shifted.store["misses"] == shifted.obligations_total
        assert cold.verified

    def test_fingerprint_is_order_insensitive_and_lemma_sensitive(self):
        from repro.lang.parser import parse_expr

        psi = parse_expr("eps > 0")
        a = parse_expr("N >= 1")
        b = parse_expr("eps <= 1")
        assert premise_fingerprint(psi, [a, b], True) == premise_fingerprint(
            psi, [b, a], True
        )
        assert premise_fingerprint(psi, [a, b], True) != premise_fingerprint(
            psi, [a, b], False
        )

    def test_early_exit_runs_record_nothing(self, tmp_path):
        path = os.fspath(tmp_path / "store.sqlite")
        outcome = _run("bad_svt_no_budget", path, fail_fast=True)
        assert outcome.verified is False
        if outcome.early_exit:
            assert outcome.store["writes"] == 0
            assert ObligationStore(path).entry_count() == 0


class TestResilience:
    def test_garbage_file_is_recreated(self, tmp_path):
        path = tmp_path / "store.sqlite"
        path.write_bytes(b"this is not a sqlite database at all\n")
        store = ObligationStore(os.fspath(path))
        assert store.lookup("oid", "fp") is None
        assert store.counters.invalid >= 1
        # And the recreated store is fully serviceable.
        assert store.record_many("fp", [("oid", "t", "r", True, "unsat", None, None)]) == 1
        assert store.lookup("oid", "fp") == StoredVerdict(True, "unsat")

    def test_schema_version_mismatch_clears(self, tmp_path):
        path = os.fspath(tmp_path / "store.sqlite")
        first = ObligationStore(path)
        first.record_many("fp", [("oid", "t", "r", True, "unsat", None, None)])
        first.close()
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1:d}")
        conn.commit()
        conn.close()

        reopened = ObligationStore(path)
        assert reopened.lookup("oid", "fp") is None
        assert reopened.counters.invalid >= 1
        assert reopened.entry_count() == 0

    def test_undecodable_row_is_deleted_and_re_solved(self, tmp_path):
        path = os.fspath(tmp_path / "store.sqlite")
        cold = _run("svt", path)
        assert cold.solve_calls > 0
        # Corrupt every stored model/status in place.
        conn = sqlite3.connect(path)
        conn.execute("UPDATE obligations SET status = 'maybe'")
        conn.commit()
        conn.close()

        warm = _run("svt", path)
        assert warm.verified is True
        assert warm.store["hits"] == 0
        assert warm.store["invalid"] == warm.obligations_total
        # The damaged rows were replaced by the rerun's fresh verdicts.
        third = _run("svt", path)
        assert third.solve_calls == 0
        assert third.store["hits"] == third.obligations_total

    def test_valid_verdict_with_non_unsat_status_is_rejected(self, tmp_path):
        store = ObligationStore(os.fspath(tmp_path / "store.sqlite"))
        store.record_many("fp", [("oid", "t", "r", True, "unsat", None, None)])
        conn = sqlite3.connect(store.path)
        conn.execute("UPDATE obligations SET status = 'sat'")
        conn.commit()
        conn.close()
        store.close()
        assert store.lookup("oid", "fp") is None
        assert store.counters.invalid == 1


class TestMaintenance:
    def _seed(self, store, count):
        store.record_many(
            "fp",
            [(f"oid{i}", "t", "r", i % 2 == 0, "unsat" if i % 2 == 0 else "unknown",
              None, None)
             for i in range(count)],
        )

    def test_gc_by_entry_count(self, tmp_path):
        store = ObligationStore(os.fspath(tmp_path / "store.sqlite"))
        self._seed(store, 10)
        assert store.entry_count() == 10
        assert store.gc(max_entries=4) == 6
        assert store.entry_count() == 4

    def test_gc_by_age(self, tmp_path):
        store = ObligationStore(os.fspath(tmp_path / "store.sqlite"))
        self._seed(store, 5)
        assert store.gc(max_age_days=0.0) == 5
        assert store.entry_count() == 0
        assert store.gc(max_age_days=1000.0) == 0

    def test_clear_and_breakdown(self, tmp_path):
        store = ObligationStore(os.fspath(tmp_path / "store.sqlite"))
        self._seed(store, 10)
        assert store.breakdown() == {"valid": 5, "refuted": 5}
        assert store.clear() == 10
        assert store.entry_count() == 0
        assert store.breakdown() == {"valid": 0, "refuted": 0}

    def test_stats_shape(self, tmp_path):
        store = ObligationStore(os.fspath(tmp_path / "store.sqlite"))
        self._seed(store, 2)
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["schema_version"] == SCHEMA_VERSION
        assert stats["writes"] == 2
        assert stats["bytes"] > 0
        assert stats["path"] == store.path


class TestConfiguration:
    def test_default_path_respects_xdg(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", os.fspath(tmp_path))
        assert default_store_path() == os.fspath(
            tmp_path / "repro" / "obligations.sqlite"
        )
        monkeypatch.delenv("XDG_CACHE_HOME")
        assert default_store_path().endswith(
            os.path.join(".cache", "repro", "obligations.sqlite")
        )

    def test_resolve_store(self, tmp_path):
        assert resolve_store(None) is None
        ready = ObligationStore(os.fspath(tmp_path / "s.sqlite"))
        assert resolve_store(ready) is ready
        resolved = resolve_store(os.fspath(tmp_path / "t.sqlite"))
        assert isinstance(resolved, ObligationStore)
        assert resolved.path == os.fspath(tmp_path / "t.sqlite")

    def test_env_var_enables_store_for_cli_configs(self, monkeypatch, tmp_path):
        import argparse

        from repro.cli import _config_from_args

        path = os.fspath(tmp_path / "env.sqlite")
        monkeypatch.setenv(STORE_ENV_VAR, path)
        config = _config_from_args(argparse.Namespace())
        assert config.store == path
        # An explicit flag wins over the environment.
        flagged = _config_from_args(argparse.Namespace(store="/elsewhere.sqlite"))
        assert flagged.store == "/elsewhere.sqlite"
        monkeypatch.delenv(STORE_ENV_VAR)
        assert _config_from_args(argparse.Namespace()).store is None

    def test_houdini_callbacks_bypass_store(self, tmp_path):
        """Houdini-style runs (an on_failure closure) judge candidate
        invariants, not the program — their verdicts must never be
        persisted or served."""
        from repro.verify.verifier import iter_obligations, prepare_generator

        spec = get("svt")
        path = os.fspath(tmp_path / "store.sqlite")
        config = _config(spec_config(spec), store=path)
        target = spec.target()
        _, checker = prepare_generator(target, config)
        failures = checker.discharge_stream(
            iter_obligations(target, config), on_failure=lambda ob: None
        )
        assert failures == []
        assert checker.store.snapshot() == {
            "hits": 0, "misses": 0, "writes": 0, "invalid": 0,
            "busy_retries": 0, "memory_writes": 0,
            "validated_hits": 0, "witness_rejects": 0,
        }
        assert ObligationStore(path).entry_count() == 0


class TestCacheCLI:
    def test_stats_gc_clear_path(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        path = os.fspath(tmp_path / "store.sqlite")
        store = ObligationStore(path)
        store.record_many(
            "fp", [(f"oid{i}", "t", "r", True, "unsat", None, None) for i in range(6)]
        )
        store.close()

        assert cli_main(["cache", "path", "--store", path]) == 0
        assert capsys.readouterr().out.strip() == path

        assert cli_main(["cache", "stats", "--store", path, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 6
        assert stats["breakdown"] == {"valid": 6, "refuted": 0}

        assert cli_main(["cache", "gc", "--store", path, "--max-entries", "2"]) == 0
        assert "removed 4" in capsys.readouterr().out

        assert cli_main(["cache", "clear", "--store", path]) == 0
        assert "cleared 2" in capsys.readouterr().out
        assert ObligationStore(path).entry_count() == 0

    def test_gc_without_bounds_is_an_error(self, tmp_path):
        from repro.cli import main as cli_main

        path = os.fspath(tmp_path / "store.sqlite")
        with pytest.raises(SystemExit):
            cli_main(["cache", "gc", "--store", path])

    def test_verify_with_store_prints_store_line(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.lang.pretty import pretty_expr

        path = os.fspath(tmp_path / "store.sqlite")
        spec = get("svt")
        regime = spec_config(spec)
        source = tmp_path / "svt.sdp"
        source.write_text(spec.source)
        args = ["verify", os.fspath(source), "--store", path, "--solver-stats",
                "--mode", regime.mode, "--unroll", str(regime.unroll_limit)]
        for name, value in sorted(regime.bindings.items()):
            args += ["--bind", f"{name}={value}"]
        for assumption in regime.assumptions:
            args += ["--assume", pretty_expr(assumption)]
        assert cli_main(args) == 0
        cold_out = capsys.readouterr().out
        assert "store: 0 hits" in cold_out
        assert cli_main(args) == 0
        warm_out = capsys.readouterr().out
        hits = int(re.search(r"store: (\d+) hits, (\d+) misses", warm_out).group(1))
        misses = int(re.search(r"store: (\d+) hits, (\d+) misses", warm_out).group(2))
        assert hits > 0 and misses == 0
