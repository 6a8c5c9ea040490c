"""The verifier benchmark: four workloads, checked verdicts, traced layers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload unroll-cold --seed 1 --seconds 20 --trace 0

The last line of standard output is the result object
(``correct``/``attempted``/``failed``/``metrics``); the line before it
records provenance.  ``--trace 0`` measures the end-to-end metrics,
``--trace 1`` runs the traced pass and reports the per-layer metrics.
Every program pass runs in a fresh child process (``child.py``) under a
hash seed from ``inputs.HASH_SEED_POOL``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs as inputs_mod  # noqa: E402
from stats import percentile  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space of a run: stores, sockets, counter records, traces.
WORK = ROOT / ".perfbench_run"

SETUP_REPEATS = 11
CHILD_TIMEOUT = 150.0


class BenchError(RuntimeError):
    """The program could not be run as the benchmark needs."""


# -- child processes -----------------------------------------------------------


def child_env(hash_seed: int) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def child_command(mode: str, payload: Dict[str, Any]) -> List[str]:
    return [sys.executable, str(HERE / "child.py"), mode, json.dumps(payload)]


def run_child(mode: str, payload: Dict[str, Any], hash_seed: int) -> Tuple[Dict[str, Any], float]:
    """Run one child to completion; returns its JSON line and wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        child_command(mode, payload), env=child_env(hash_seed), cwd=ROOT,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


# -- provenance and counter records --------------------------------------------


def source_digest() -> str:
    """Digest of the program and benchmark sources."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def filesystem_type(path: Path) -> str:
    real = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                point = fields[1]
                prefix = point.rstrip("/") + "/"
                if (real == point or real.startswith(prefix)) and len(point) > len(best):
                    best, kind = point, fields[2]
    except OSError:
        pass
    return kind


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
    )
    return proc.stdout.strip() or None


def provenance(inputs: inputs_mod.Inputs, trace: bool, digest: str) -> Dict[str, Any]:
    return {
        "workload": inputs.workload,
        "seed": inputs.seed,
        "hash_seeds": list(inputs.hash_seeds),
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "store_fs": filesystem_type(WORK),
        "git_commit": git_commit(),
        "source_sha256": digest,
    }


def check_counter_record(inputs: inputs_mod.Inputs, digest: str,
                         counters: Dict[str, Any]) -> List[str]:
    """Compare this run's program counters with earlier runs' of the same
    workload, seed and source, input by input (a run may make more
    passes than another); new inputs are added to the record."""
    path = WORK / "counters" / f"{inputs.workload}-seed{inputs.seed}-{digest}.json"
    current = json.loads(json.dumps(counters, sort_keys=True))
    recorded = json.loads(path.read_text()) if path.exists() else {}
    changed = sorted(k for k in current.keys() & recorded.keys() if current[k] != recorded[k])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**current, **recorded}, sort_keys=True))
    return [f"program counters of {k} differ from an earlier run" for k in changed]


class Ledger:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: List[str] = []
        self.failed = 0
        #: hash seed -> op counters of its first pass (repeat check).
        self.counters: Dict[str, Any] = {}

    def ops(self, label: str, ops: List[Dict[str, Any]]) -> None:
        for op in ops:
            self.attempted += 1
            if op["problems"]:
                self.failed += 1
                self.problems.append(f"{label} {op['kind']} {op['name']}: {op['problems']}")

    def repeat(self, key: str, counters: Any) -> None:
        """Counters of a repeated input must be identical."""
        if key not in self.counters:
            self.counters[key] = counters
        elif self.counters[key] != counters:
            self.problems.append(f"counters of {key} changed between passes")


# -- batch workloads -----------------------------------------------------------


def pass_payload(inputs: inputs_mod.Inputs) -> Dict[str, Any]:
    mode = "invariant" if inputs.workload == "rewrite-infer" else "unroll"
    return {"ops": [list(op) for op in inputs.ops], "mode": mode}


def store_path(hash_seed: int, durable: bool = False) -> str:
    return str(WORK / f"store-h{hash_seed}{'-disk' if durable else ''}.sqlite")


def run_pass(inputs: inputs_mod.Inputs, ledger: Ledger, label: str,
             trace_dir: Optional[Path] = None, durable: bool = False,
             fill: bool = False, order: int = 0) -> Dict[int, Dict[str, Any]]:
    """One pass: a child per hash seed, the operations in the order of
    pass ``order`` (see ``inputs.reordered``).  Returns hash seed -> child
    result (plus ``trace`` when traced)."""
    inputs = inputs_mod.reordered(inputs, order)
    out = {}
    for h in inputs.hash_seeds:
        payload = pass_payload(inputs)
        payload["tag"] = f"{label}/h{h}"
        if inputs.workload == "store-warm":
            payload.update(store=store_path(h, durable), witness=True,
                           warm=not fill, durable=durable)
        if trace_dir is not None:
            payload["trace_out"] = str(trace_dir / f"{label}-h{h}.json")
        result, wall = run_child("pass", payload, h)
        result["wall"] = wall
        ledger.ops(f"{label} h{h}", result["ops"])
        ledger.repeat(f"fill h{h}" if fill else f"pass h{h} order{order}",
                      [[op["kind"], op["name"], op["counters"]] for op in result["ops"]])
        if trace_dir is not None:
            result["trace"] = json.loads(Path(payload["trace_out"]).read_text())
        out[h] = result
    return out


def setup_batch(inputs: inputs_mod.Inputs, ledger: Ledger,
                trace_dir: Optional[Path]) -> Tuple[List[float], List[Dict]]:
    """Set-up samples: child start-up and imports, or for ``store-warm``
    the store fill (one per hash seed, each a cold witnessed sweep)."""
    if inputs.workload != "store-warm":
        samples = [run_child("probe", {}, h)[1]
                   for h in inputs.hash_seeds[:1] * SETUP_REPEATS]
        return samples, []
    samples, fills = [], []
    for h in inputs.hash_seeds:
        one = dataclasses.replace(inputs, hash_seeds=(h,), ops=inputs.fill)
        start = time.perf_counter()
        fill = run_pass(one, ledger, "fill", trace_dir=trace_dir, fill=True)
        samples.append(time.perf_counter() - start)
        fills.append(fill[h])
        if trace_dir is not None:
            shutil.copyfile(store_path(h), store_path(h, durable=True))
    return samples, fills


def batch_metrics(passes: List[Dict[int, Dict[str, Any]]], setup: List[float],
                  hash_seeds: Tuple[int, ...]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """End-to-end metrics of a batch workload.  Verdict latencies are
    per-operation medians over the passes (whose orders differ): pooled
    times would put the median on the edge of one spec's cluster of
    times, where it jumps from one spec to the next."""
    pass_s = sum(median([p[h]["pass_s"] for p in passes]) for h in hash_seeds)
    slowest = sum(
        median([max(op["seconds"] for op in p[h]["ops"]) for p in passes])
        for h in hash_seeds
    ) / len(hash_seeds)
    times: Dict[Tuple[int, str, str], List[float]] = {}
    for p in passes:
        for h in hash_seeds:
            for op in p[h]["ops"]:
                times.setdefault((h, op["kind"], op["name"]), []).append(op["seconds"])
    op_times = [median(v) for v in times.values()]
    operations = sum(len(p[h]["ops"]) for p in passes for h in hash_seeds)
    total = sum(p[h]["pass_s"] for p in passes for h in hash_seeds)
    p99 = percentile(op_times, 99)
    return {
        "setup_s": median(setup),
        "pass_s": pass_s,
        "slowest_verdict_s": slowest,
        "verdict_p50_ms": median(op_times) * 1e3,
        "verdict_p99_ms": p99["value"] * 1e3,
        "verdicts_per_s": operations / total,
        "peak_rss_mb": median([p[h]["peak_rss_mb"] for p in passes for h in hash_seeds]),
    }, {"verdict_samples": len(op_times), "p99_beyond": p99["beyond"], "passes": len(passes)}


def run_batch(inputs: inputs_mod.Inputs, seconds: float, trace: bool,
              ledger: Ledger) -> Tuple[Dict[str, float], Dict[str, Any]]:
    trace_dir = None
    if trace:
        trace_dir = WORK / f"spans-{inputs.workload}-seed{inputs.seed}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    setup, fills = setup_batch(inputs, ledger, trace_dir)
    if trace:
        plain = run_pass(inputs, ledger, "pass")
        traced = run_pass(inputs, ledger, "traced", trace_dir=trace_dir)
        disk = None
        if inputs.workload == "store-warm":
            disk = run_pass(inputs, ledger, "disk", trace_dir=trace_dir, durable=True)
        metrics = layer_metrics(inputs, plain, traced, fills, disk)
        write_chrome(inputs, [r["trace"] for r in fills + list(traced.values())
                              + list((disk or {}).values())], [])
        return metrics, {}
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        k = len(passes)
        passes.append(run_pass(inputs, ledger, f"pass{k}", order=k))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    return batch_metrics(passes, setup, inputs.hash_seeds)


def decisions_spread(decisions: List[int]) -> float:
    """Max over min SAT decisions across a pass's hash seeds (0: none)."""
    return max(decisions) / min(decisions) if decisions and min(decisions) > 0 else 0.0


# -- per-layer metrics ---------------------------------------------------------

#: (metric, layer whose self time it reports).
LAYER_TIMES = (
    ("frontend.parse_s", "frontend.parse"),
    ("frontend.check_s", "frontend.check"),
    ("frontend.lower_s", "frontend.lower"),
    ("pipeline.self_s", "pipeline"),
    ("verifier.self_s", "verifier"),
    ("vcgen.s", "vcgen"),
    ("lemmas.s", "lemmas"),
    ("discharge.self_s", "discharge"),
    ("context.self_s", "context"),
    ("encode.s", "encode"),
    ("smt.self_s", "smt"),
    ("sat.s", "sat"),
    ("simplex.s", "simplex"),
    ("store.lookup_s", "store.lookup"),
    ("witness.decode_s", "witness.decode"),
    ("witness.validate_s", "witness.validate"),
    ("witness.emit_s", "witness.emit"),
    ("infer.self_s", "infer"),
    ("houdini.self_s", "houdini"),
)

#: (metric, program counter read at a layer boundary).
LAYER_COUNTS = (
    ("frontend.check_calls", "frontend.check_calls"),
    ("vcgen.obligations", "vcgen.obligations"),
    ("lemmas.count", "lemmas.count"),
    ("discharge.units", "discharge.units"),
    ("context.queries", "context.queries"),
    ("smt.solve_calls", "profile.solve_calls"),
    ("smt.rounds", "profile.rounds"),
    ("smt.theory_conflicts", "profile.theory_conflicts"),
    ("sat.decisions", "profile.decisions"),
    ("sat.propagations", "profile.propagations"),
    ("sat.conflicts", "profile.conflicts"),
    ("simplex.pivots", "profile.pivots"),
    ("simplex.bound_asserts", "profile.bound_asserts"),
    ("store.lookups", "store.lookups"),
    ("witness.validated", "witness.validated"),
    ("witness.rejects", "witness.rejects"),
    ("infer.candidates_tried", "infer.candidates_tried"),
    ("infer.type_checked", "infer.type_checked"),
    ("houdini.rounds", "houdini.rounds"),
)


def merge_traces(traces: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {"self_s": {}, "counts": {}, "calls": {}}
    for trace in traces:
        for key in merged:
            for name, value in trace[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
    return merged


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def base_layer_metrics(traces: List[Dict[str, Any]]) -> Dict[str, float]:
    """Layer self times and boundary counters summed over ``traces``."""
    merged = merge_traces(traces)
    self_s, counts, calls = merged["self_s"], merged["counts"], merged["calls"]
    metrics = {name: self_s.get(layer, 0.0) for name, layer in LAYER_TIMES}
    metrics.update({name: float(counts.get(key, 0)) for name, key in LAYER_COUNTS})
    metrics["encode.calls"] = float(calls.get("encode", 0))
    metrics["context.cache_hit_ratio"] = ratio(counts.get("context.cache_hits", 0),
                                               counts.get("context.queries", 0))
    metrics["sat.decisions_spread"] = decisions_spread(
        [t["counts"].get("profile.decisions", 0) for t in traces])
    metrics["store.hit_ratio"] = ratio(counts.get("store.hits", 0),
                                       counts.get("store.lookups", 0))
    metrics["store.commits_per_lookup"] = ratio(counts.get("store.commits", 0),
                                                counts.get("store.lookups", 0))
    metrics["store.record_s"] = self_s.get("store.record", 0.0)
    metrics["store.lookup_disk_ms"] = 0.0
    metrics["serve.overhead_ms"] = 0.0
    return metrics


def layer_metrics(inputs, plain, traced, fills, disk) -> Dict[str, float]:
    """Per-layer metrics of a traced batch pass.  Store writes happen in
    the fill, so ``store.record_s`` comes from the traced fills."""
    traces = [traced[h]["trace"] for h in inputs.hash_seeds]
    metrics = base_layer_metrics(traces)
    if fills:
        metrics["store.record_s"] += base_layer_metrics(
            [f["trace"] for f in fills])["store.record_s"]
    if disk is not None:
        on_disk = merge_traces([disk[h]["trace"] for h in inputs.hash_seeds])
        metrics["store.lookup_disk_ms"] = 1e3 * ratio(
            on_disk["self_s"].get("store.lookup", 0.0),
            on_disk["counts"].get("store.lookups", 0))
    traced_pass = sum(traced[h]["pass_s"] for h in inputs.hash_seeds)
    covered = sum(sum(t["self_s"].values()) for t in traces)
    metrics["traced_pass_s"] = traced_pass
    metrics["other_s"] = traced_pass - covered
    metrics["attributed_share"] = ratio(covered, traced_pass)
    metrics["trace.overhead_s"] = traced_pass - sum(plain[h]["pass_s"] for h in inputs.hash_seeds)
    return metrics


def write_chrome(inputs: inputs_mod.Inputs, traces: List[Dict[str, Any]],
                 extra_events: List[Dict[str, Any]]) -> None:
    events = [e for t in traces for e in t.get("events", ())] + extra_events
    path = WORK / f"trace-{inputs.workload}-seed{inputs.seed}.json"
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    print(f"perfbench: wrote {len(events)} spans to {path.relative_to(ROOT)}", file=sys.stderr)


# -- serve workload ------------------------------------------------------------


class Daemon:
    """A ``repro serve`` child on a unix socket inside the work directory."""

    def __init__(self, hash_seed: int, label: str, trace_out: Optional[Path] = None) -> None:
        self.socket = os.path.relpath(WORK / f"{label}.sock", ROOT)
        self.ack = WORK / f"{label}.reset"
        self.out = WORK / f"{label}.out"
        self.trace_out = trace_out
        for stale in (Path(self.socket), self.ack):
            if stale.exists():
                stale.unlink()
        payload: Dict[str, Any] = {"socket": self.socket}
        if trace_out is not None:
            payload.update(trace_out=str(trace_out), reset_ack=str(self.ack))
        with open(self.out, "w") as out:
            self.proc = subprocess.Popen(
                child_command("serve", payload), env=child_env(hash_seed), cwd=ROOT,
                stdout=out, stderr=subprocess.STDOUT,
            )

    def connect(self, timeout: float = 60.0):
        from repro.serve.client import ServeClient, ServeError

        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"serve daemon exited: {self.out.read_text()[-2000:]}")
            try:
                return ServeClient(socket_path=self.socket, retries=0)
            except ServeError:
                if time.monotonic() > deadline:
                    raise BenchError("serve daemon did not start listening")
                time.sleep(0.01)

    def reset_trace(self) -> None:
        """Clear the daemon's span totals (after warm-up) and wait for it."""
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not self.ack.exists():
            if time.monotonic() > deadline:
                raise BenchError("serve daemon did not reset its trace")
            time.sleep(0.005)

    def stop(self, client) -> Dict[str, Any]:
        try:
            if client is not None:
                client.shutdown()
        finally:
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        lines = self.out.read_text().strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise BenchError(f"serve daemon failed: {self.out.read_text()[-2000:]}")
        result = json.loads(lines[-1])
        if self.trace_out is not None:
            result["trace"] = json.loads(self.trace_out.read_text())
        return result

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def same_verdict(reply: Dict[str, Any], reference: Dict[str, Any]) -> bool:
    keys = ("verified", "obligations_total", "oids", "failures")
    outcome, expected = reply.get("outcome", {}), reference["outcome"]
    return reply.get("type") == "result" and all(outcome.get(k) == expected[k] for k in keys)


def serve_pass(client, requests: Tuple[str, ...], cold: Dict[str, Dict]) -> Dict[str, Any]:
    """One closed-loop pass on one connection: each request is sent only
    after the previous reply.  One connection keeps the load generator
    single-threaded; with two, its threads contended for the interpreter
    lock and the tail latency swung between runs."""
    records: List[Tuple[str, float, float, bool]] = []
    start = time.perf_counter()
    for name in requests:
        sent = time.perf_counter()
        try:
            ok = same_verdict(client.verify(spec=name), cold[name])
        except Exception:  # a failed request is counted, never fatal
            ok = False
        records.append((name, sent, time.perf_counter(), ok))
    return {"wall": time.perf_counter() - start, "records": records}


def serve_session(inputs: inputs_mod.Inputs, expected: Dict[str, bool], h: int,
                  label: str, seconds: float, ledger: Ledger, trace_out: Optional[Path] = None,
                  max_passes: Optional[int] = None) -> Dict[str, Any]:
    """Boot and warm a daemon under hash seed ``h``, then run passes for
    ``seconds`` (at least one, at most ``max_passes``)."""
    start = time.perf_counter()
    daemon = Daemon(h, label, trace_out)
    client = None
    try:
        client = daemon.connect()
        cold: Dict[str, Dict] = {}
        for _, name in inputs.ops:
            ledger.attempted += 1
            reply = client.verify(spec=name)
            cold[name] = reply
            if reply["outcome"]["verified"] != expected[name]:
                ledger.failed += 1
                ledger.problems.append(f"{label} warm-up {name}: wrong verdict")
        ledger.repeat(f"warm-up h{h}", {n: r["outcome"]["counters"] for n, r in cold.items()})
        setup = time.perf_counter() - start
        if trace_out is not None:
            daemon.reset_trace()
        passes = []
        begun = time.perf_counter()
        while True:
            passes.append(serve_pass(client, inputs.requests, cold))
            if max_passes is not None and len(passes) >= max_passes:
                break
            elapsed = time.perf_counter() - begun
            if elapsed + passes[-1]["wall"] > seconds:
                break
        for p in passes:
            for name, _, _, ok in p["records"]:
                ledger.attempted += 1
                if not ok:
                    ledger.failed += 1
                    ledger.problems.append(f"{label} request {name}: reply differs from cold verdict")
        result = daemon.stop(client)
    finally:
        if client is not None:
            client.close()
        daemon.kill()
    result.update(setup=setup, passes=passes)
    return result


def pin_to_one_cpu() -> None:
    """Run this process, and the daemons it starts, on one CPU.

    A closed loop on one connection runs one thing at a time, so it
    loses no parallelism, and each request's hand-offs between the client
    and the daemon's threads stay on one CPU instead of waking another.
    On a virtual machine a cross-CPU wake-up goes through the host, whose
    load sets its delay: unpinned, p50 and p99 were about 15% higher on
    2 cores and spread about twice as wide from run to run.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def request_medians(passes: List[Dict[str, Any]]) -> List[float]:
    """Each request's median latency over the passes of one daemon.

    Every pass sends the same sequence, so each request has one latency
    per pass.  As with the batch workloads' per-operation medians, this
    drops the bursts that other processes on a shared host put on random
    requests, and keeps a slowness that the same requests meet in every
    pass.
    """
    columns = zip(*([t1 - t0 for _, t0, t1, _ in p["records"]] for p in passes))
    return [median(column) for column in columns]


def run_serve(inputs: inputs_mod.Inputs, expected: Dict[str, bool], seconds: float,
              trace: bool, ledger: Ledger) -> Tuple[Dict[str, float], Dict[str, Any]]:
    pin_to_one_cpu()
    if trace:
        return serve_layers(inputs, expected, ledger)
    share = seconds / len(inputs.hash_seeds)
    sessions = {h: serve_session(inputs, expected, h, f"serve-h{h}", share, ledger)
                for h in inputs.hash_seeds}
    passes = [p for s in sessions.values() for p in s["passes"]]
    latencies = [[t1 - t0 for _, t0, t1, _ in p["records"]] for p in passes]
    by_spec: Dict[str, List[float]] = {}
    for p in passes:
        for name, t0, t1, _ in p["records"]:
            by_spec.setdefault(name, []).append(t1 - t0)
    # Percentiles over 2 x 1000 requests: twenty beyond p99.
    per_request = [t for s in sessions.values() for t in request_medians(s["passes"])]
    p50 = percentile(per_request, 50)["value"]
    p99 = percentile(per_request, 99)
    metrics = {
        "setup_s": median([s["setup"] for s in sessions.values()]),
        "pass_s": sum(median([p["wall"] for p in s["passes"]]) for s in sessions.values()),
        "slowest_verdict_s": max(median(v) for v in by_spec.values()),
        "verdict_p50_ms": p50 * 1e3,
        "verdict_p99_ms": p99["value"] * 1e3,
        "verdicts_per_s": sum(map(len, latencies)) / sum(p["wall"] for p in passes),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in sessions.values()]),
    }
    return metrics, {"passes": len(passes), "requests_per_pass": len(latencies[0]),
                     "verdict_samples": p99["count"], "p99_beyond": p99["beyond"]}


def serve_layers(inputs: inputs_mod.Inputs, expected: Dict[str, bool],
                 ledger: Ledger) -> Tuple[Dict[str, float], Dict]:
    """Traced serve run: per hash seed an untraced and a traced daemon,
    one pass each.  The daemon's spans give the server-side pipeline
    time; the rest of each request's latency is the serve layer."""
    trace_dir = WORK / f"spans-{inputs.workload}-seed{inputs.seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    plain_wall = traced_wall = latency = 0.0
    requests = 0
    traces, client_events = [], []
    for h in inputs.hash_seeds:
        plain = serve_session(inputs, expected, h, f"serve-h{h}", 0, ledger, max_passes=1)
        traced = serve_session(inputs, expected, h, f"traced-h{h}", 0, ledger,
                               trace_out=trace_dir / f"serve-h{h}.json", max_passes=1)
        plain_wall += plain["passes"][0]["wall"]
        one = traced["passes"][0]
        traced_wall += one["wall"]
        latency += sum(t1 - t0 for _, t0, t1, _ in one["records"])
        requests += len(one["records"])
        traces.append(traced["trace"])
        client_events += [
            {"name": "request", "ph": "X", "pid": 0, "tid": h,
             "ts": round(t0 * 1e6, 3), "dur": round((t1 - t0) * 1e6, 3),
             "args": {"id": f"h{h}/r{i}", "spec": name}}
            for i, (name, t0, t1, _) in enumerate(one["records"])
        ]
    merged = merge_traces(traces)
    server_s = sum(merged["self_s"].values())
    metrics = base_layer_metrics(traces)
    metrics.update({
        "serve.overhead_ms": 1e3 * (latency - server_s) / requests,
        "traced_pass_s": traced_wall,
        "other_s": traced_wall - latency,
        "attributed_share": ratio(latency, traced_wall),
        "trace.overhead_s": traced_wall - plain_wall,
    })
    write_chrome(inputs, traces, client_events)
    return metrics, {"requests": requests}


# -- entry point ---------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s", "pass_s": "s", "slowest_verdict_s": "s",
    "verdict_p50_ms": "ms", "verdict_p99_ms": "ms",
    "verdicts_per_s": "1/s", "peak_rss_mb": "MB",
}


#: Per-layer metrics about the traced run as a whole.
RUN_LAYER_METRICS = ("traced_pass_s", "other_s", "attributed_share", "trace.overhead_s")


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("ratio", "share", "spread", "per_lookup")):
        return "ratio"
    return "count"


def cleanup() -> None:
    """Remove what a run leaves besides counter records and traces."""
    for path in WORK.glob("*"):
        if path.suffix in (".sqlite", ".sock", ".out", ".reset") or path.name.endswith(
            (".sqlite-journal",)
        ):
            path.unlink()
        elif path.is_dir() and path.name.startswith("spans-"):
            shutil.rmtree(path, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    cleanup()
    trace = bool(args.trace)
    ledger = Ledger()
    try:
        digest = source_digest()
        probe, _ = run_child("probe", {}, inputs_mod.HASH_SEED_POOL[0])
        specs = [(name, bool(expected)) for name, expected in probe["specs"]]
        inputs = inputs_mod.derive(args.workload, args.seed, specs)
        if inputs.workload == "serve-warm":
            metrics, info = run_serve(inputs, dict(specs), args.seconds, trace, ledger)
        else:
            metrics, info = run_batch(inputs, args.seconds, trace, ledger)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as err:
        print(f"perfbench: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    finally:
        cleanup()
    problems = ledger.problems + check_counter_record(inputs, digest, ledger.counters)
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(inputs, trace, digest), "info": info}))
    unit = END_TO_END_UNITS.get if not trace else layer_unit
    print(json.dumps({
        "correct": not problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
