"""The witness subsystem's global contract, over the whole registry:

* emission is observationally free — verdicts and every solver counter
  are identical with witnesses on and off, in both regimes;
* every valid obligation of every Table-1 algorithm yields a
  certificate, and every certificate passes the trusted validator.
"""

import dataclasses

import pytest

from repro.algorithms import all_specs, get
from repro.pipeline import spec_config
from repro.verify.verifier import verify_target
from repro.witness import validate

CORRECT = [s.name for s in all_specs(include_buggy=False)]
BUGGY = [s.name for s in all_specs() if not s.expect_verified]


def _counters(outcome):
    return (
        outcome.verified,
        outcome.obligations_total,
        outcome.solver_queries,
        outcome.cache_hits,
        outcome.solve_calls,
        outcome.context_pushes,
        outcome.context_pops,
        outcome.oids,
    )


def _run(spec, witness):
    config = dataclasses.replace(spec_config(spec), witness=witness)
    return verify_target(spec.target(), config)


class TestEmissionIsFree:
    @pytest.mark.parametrize("name", CORRECT)
    def test_unroll_regime_counters_unchanged(self, name):
        spec = get(name)
        plain = _run(spec, witness=False)
        witnessed = _run(spec, witness=True)
        assert _counters(plain) == _counters(witnessed)
        assert plain.witnesses is None
        assert witnessed.witnesses == witnessed.obligations_total

    @pytest.mark.parametrize("name", CORRECT)
    def test_invariant_regime_counters_unchanged(self, name):
        spec = get(name)
        config = dataclasses.replace(
            spec_config(spec), mode="invariant", bindings={},
        )
        plain = verify_target(spec.target(), config)
        witnessed = verify_target(
            spec.target(), dataclasses.replace(config, witness=True)
        )
        assert _counters(plain) == _counters(witnessed)
        assert witnessed.verified

    @pytest.mark.parametrize("name", BUGGY)
    def test_refutations_unchanged_and_unwitnessed(self, name):
        spec = get(name)
        plain = _run(spec, witness=False)
        witnessed = _run(spec, witness=True)
        assert not witnessed.verified
        assert _counters(plain) == _counters(witnessed)
        refuted = {f.obligation.oid for f in witnessed.failures}
        assert witnessed.witnesses == witnessed.obligations_total - len(refuted)


class TestEveryCertificateValidates:
    @pytest.mark.parametrize("name", CORRECT)
    def test_full_coverage_serial(self, name):
        from repro.verify.verifier import prepare_generator, target_cfg

        spec = get(name)
        config = dataclasses.replace(spec_config(spec), witness=True)
        generator, checker = prepare_generator(spec.target(), config)
        failures = checker.discharge_stream(
            generator.stream(target_cfg(spec.target(), config))
        )
        assert not failures
        oids = {ob.oid for ob in generator.obligations}
        assert set(checker.certificates) == oids
        for certificate in checker.certificates.values():
            validate(certificate)
