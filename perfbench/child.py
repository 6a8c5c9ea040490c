"""One program process of the benchmark.

``python perfbench/child.py MODE ARGS_JSON`` runs under the hash seed the
parent put in ``PYTHONHASHSEED`` and prints one JSON line:

* ``probe`` — import the program and list the registry; the parent
  times it as the process start-up every pass pays.
* ``pass`` — run a list of operations (verify a spec, infer its
  annotations, run Houdini) through one fresh ``Pipeline``, checking
  every verdict.
* ``serve`` — run ``repro serve`` until a client shuts it down.

With ``trace_out`` set, the layers are traced (see ``tracing.py``) and
the spans and totals are written to that path.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sqlite3
import sys
import time
from typing import Any, Dict, List, Optional

import tracing

#: Annotation-inference settings (bindings, unroll limit, candidate cap)
#: of ``benchmarks/bench_inference.py``.
INFER_SETTINGS = {
    "noisy_max": ({"size": 3}, 2000),
    "svt": ({"size": 3, "N": 1}, 600),
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class RamBackedConnection(sqlite3.Connection):
    """A connection whose commits never wait for the disk.

    The store asks for ``synchronous = NORMAL``; this answers every such
    request with ``synchronous = OFF`` and an in-memory rollback journal,
    so a commit costs what it costs on a RAM-backed file system, where
    the fsync and the journal file are free.
    """

    def execute(self, sql, *params):
        cursor = super().execute(sql, *params)
        if "".join(sql.split()).lower().startswith("pragmasynchronous="):
            super().execute("PRAGMA synchronous = OFF")
            super().execute("PRAGMA journal_mode = MEMORY")
        return cursor


def patch_sqlite(durable: bool, tracer: Optional[tracing.Tracer]) -> None:
    """Adjust every sqlite connection the store opens.

    Unless ``durable``, connections are :class:`RamBackedConnection`;
    with a tracer, COMMIT statements are counted.
    """
    connect = sqlite3.connect

    def wrapped(*args, **kwargs):
        if not durable:
            kwargs.setdefault("factory", RamBackedConnection)
        conn = connect(*args, **kwargs)
        if tracer is not None:
            def on_statement(sql: str) -> None:
                if sql.lstrip().upper().startswith("COMMIT"):
                    tracer.counts["store.commits"] += 1

            conn.set_trace_callback(on_statement)
        return conn

    sqlite3.connect = wrapped


def run_op(kind: str, name: str, pipe, args: Dict[str, Any]) -> Dict[str, Any]:
    """One operation; returns its time, verdict check and counters."""
    import dataclasses

    from repro.algorithms import get
    from repro.automation import inference
    from repro.pipeline import spec_config
    from repro.verify import houdini
    from repro.verify.verifier import VerificationConfig

    spec = get(name)
    start = time.perf_counter()
    if kind == "verify":
        if args["mode"] == "invariant":
            config = VerificationConfig(
                mode="invariant", assumptions=spec.assumption_exprs(), profile=True
            )
        else:
            config = dataclasses.replace(
                spec_config(spec), profile=True,
                store=args.get("store"), witness=bool(args.get("witness")),
            )
        outcome = pipe.run(spec.source, config=config).outcome
        seconds = time.perf_counter() - start
        profile = outcome.profile or {}
        counters = {
            "solve_calls": outcome.solve_calls,
            "decisions": profile.get("decisions", 0),
            "pivots": profile.get("pivots", 0),
            "oids": len(outcome.oids or ()),
        }
        problems = []
        if outcome.verified != spec.expect_verified:
            problems.append(f"verdict {outcome.verified}, expected {spec.expect_verified}")
        if outcome.store is not None:
            store = outcome.store
            counters.update(
                store_hits=store.get("hits", 0),
                validated=store.get("validated_hits", 0),
                witness_rejects=store.get("witness_rejects", 0),
            )
            if args.get("warm"):
                if outcome.solve_calls:
                    problems.append(f"{outcome.solve_calls} solves on a warm store")
                if store.get("misses", 0) or store.get("witness_rejects", 0):
                    problems.append(f"warm store misses/rejects: {store}")
        return {"seconds": seconds, "problems": problems, "counters": counters}
    if kind == "infer":
        bindings, cap = INFER_SETTINGS[name]
        config = VerificationConfig(
            mode="unroll", bindings=bindings, assumptions=spec.assumption_exprs(),
            unroll_limit=5, collect_models=False, profile=True,
        )
        result = inference.infer_annotations(spec.function(), config, max_candidates=cap)
        seconds = time.perf_counter() - start
        return {
            "seconds": seconds,
            "problems": [] if result.found else ["no annotation found"],
            "counters": {"candidates_tried": result.candidates_tried,
                         "type_checked": result.type_checked},
        }
    if kind == "houdini":
        config = VerificationConfig(
            mode="invariant", assumptions=spec.assumption_exprs(), profile=True
        )
        result = houdini.infer_invariants(spec.target(), config, peel=1)
        seconds = time.perf_counter() - start
        stats = result.solver_stats
        return {
            "seconds": seconds,
            "problems": [] if result.outcome.verified else ["Houdini outcome refuted"],
            "counters": {"rounds": result.rounds,
                         "candidates_tried": result.candidates_tried,
                         "solve_calls": stats.get("solve_calls", 0)},
        }
    raise ValueError(f"unknown operation {kind!r}")


def write_trace(path: str, tracer: tracing.Tracer, extra: Dict[str, Any]) -> None:
    data = {
        "events": tracer.chrome(pid=os.getpid()),
        "self_s": dict(tracer.self_s),
        "calls": dict(tracer.calls),
        "counts": dict(tracer.counts),
        **extra,
    }
    with open(path, "w") as handle:
        json.dump(data, handle)


def main(argv: List[str]) -> int:
    mode, args = argv[0], json.loads(argv[1])
    trace_out = args.get("trace_out")
    tracer = tracing.Tracer() if trace_out else None
    if mode == "probe":
        from repro.algorithms import all_specs
        import repro.automation.inference  # noqa: F401 - imported by passes
        import repro.verify.houdini  # noqa: F401
        specs = [(s.name, s.expect_verified) for s in all_specs()]
        print(json.dumps({"specs": specs, "peak_rss_mb": peak_rss_mb()}))
        return 0

    if args.get("store") is not None:
        patch_sqlite(bool(args.get("durable")), tracer)
    if tracer is not None:
        tracing.install(tracer)
        tracer.tag = args.get("tag")

    if mode == "serve":
        from repro.cli import main as cli_main

        if tracer is not None:
            # The parent signals once warm-up is done, so the totals
            # cover the measured requests only.
            def on_reset(signum, frame) -> None:
                tracer.reset()
                open(args["reset_ack"], "w").close()

            signal.signal(signal.SIGUSR1, on_reset)

        code = cli_main(["serve", "--socket", args["socket"], "--quiet"])
        if tracer is not None:
            write_trace(trace_out, tracer, {})
        print(json.dumps({"peak_rss_mb": peak_rss_mb(), "code": code}))
        return code

    import repro.automation.inference  # noqa: F401 - imported before timing
    import repro.verify.houdini  # noqa: F401
    from repro.pipeline import Pipeline
    from repro.verify.store import ObligationStore

    ops = []
    start = time.perf_counter()
    pipe = Pipeline()
    if args.get("store") is not None:
        args["store"] = ObligationStore(args["store"])
    for kind, name in args["ops"]:
        record = run_op(kind, name, pipe, args)
        record.update(kind=kind, name=name)
        ops.append(record)
    pass_s = time.perf_counter() - start
    if args.get("store") is not None:
        args["store"].close()
    if tracer is not None:
        write_trace(trace_out, tracer, {"pass_s": pass_s})
    print(json.dumps({"pass_s": pass_s, "ops": ops, "peak_rss_mb": peak_rss_mb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
