"""Self-tests of the benchmark's own logic (no program runs).

Run with ``python3 -m pytest perfbench`` or
``python3 -m unittest discover perfbench``.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from stats import percentile  # noqa: E402

SPECS = [("a", True), ("b", True), ("c", False), ("noisy_max", True), ("svt", True)]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_with_sample_count(self):
        values = list(range(100, 0, -1))
        self.assertEqual(percentile(values, 50), {"value": 50, "count": 100, "beyond": 50})
        self.assertEqual(percentile(values, 99), {"value": 99, "count": 100, "beyond": 1})
        self.assertEqual(percentile([7.0], 99), {"value": 7.0, "count": 1, "beyond": 0})

    def test_tail_needs_enough_samples(self):
        # p99 of 1000 samples leaves ten beyond it.
        self.assertEqual(percentile(range(1000), 99)["beyond"], 10)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            percentile([], 50)
        with self.assertRaises(ValueError):
            percentile([1.0], 101)


class RequestMediansTest(unittest.TestCase):
    @staticmethod
    def serve_pass(latencies):
        return {"records": [(f"s{i}", 0.0, t, True) for i, t in enumerate(latencies)]}

    def test_burst_in_one_pass_is_dropped(self):
        passes = [self.serve_pass([1.0, 2.0, 3.0]) for _ in range(4)]
        passes.append(self.serve_pass([1.0, 50.0, 3.0]))
        self.assertEqual(run.request_medians(passes), [1.0, 2.0, 3.0])

    def test_slowness_in_every_pass_is_kept(self):
        passes = [self.serve_pass([1.0, 9.0 + k, 3.0]) for k in range(5)]
        self.assertEqual(run.request_medians(passes), [1.0, 11.0, 3.0])


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock)
        outer = tracer.enter("outer")
        clock.now = 2.0
        child = tracer.enter("child")
        clock.now = 3.0
        grandchild = tracer.enter("grandchild")
        clock.now = 4.0
        tracer.exit(grandchild)
        clock.now = 5.0
        tracer.exit(child)
        clock.now = 6.0
        hot = tracer.enter("hot", store=False)
        clock.now = 8.0
        tracer.exit(hot)
        clock.now = 10.0
        tracer.exit(outer)
        self.assertEqual(dict(tracer.self_s),
                         {"outer": 5.0, "child": 2.0, "grandchild": 1.0, "hot": 2.0})
        self.assertEqual(sum(tracer.self_s.values()), 10.0)
        # Aggregate-only spans are not stored; parents link stored spans.
        self.assertEqual([s[0] for s in tracer.spans], ["outer", "child", "grandchild"])
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, 1])
        events = tracer.chrome(pid=1)
        self.assertEqual([e["dur"] for e in events], [10e6, 3e6, 1e6])

    def test_wrapped_function_nested_in_its_own_layer(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock)

        def work(depth):
            clock.now += 1.0
            if depth:
                wrapped(depth - 1)

        wrapped = tracing._span(tracer, work, "layer", True)
        wrapped(2)
        self.assertEqual(tracer.self_s["layer"], 3.0)
        self.assertEqual(tracer.calls["layer"], 1)

    def test_generator_timed_over_consumption(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock)

        def produce():
            for item in range(3):
                clock.now += 1.0
                yield item

        stream = tracing._generator(tracer, produce, "gen", "items")()
        self.assertEqual(tracer.self_s["gen"], 0.0)  # creation costs nothing
        consumer = tracer.enter("consumer")
        for _ in stream:
            clock.now += 10.0  # consumer work is not the generator's
        tracer.exit(consumer)
        self.assertEqual(tracer.self_s["gen"], 3.0)
        self.assertEqual(tracer.self_s["consumer"], 30.0)
        self.assertEqual(tracer.counts["items"], 3)


class InputsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in inputs.WORKLOADS:
            self.assertEqual(inputs.derive(workload, 7, SPECS),
                             inputs.derive(workload, 7, SPECS))

    def test_seed_changes_order_not_work(self):
        runs = [inputs.derive("unroll-cold", seed, SPECS) for seed in range(20)]
        self.assertGreater(len({r.ops for r in runs}), 1)
        for r in runs:
            self.assertEqual(sorted(r.ops), sorted(("verify", n) for n, _ in SPECS))
            self.assertEqual(sorted(r.hash_seeds), sorted(inputs.HASH_SEED_POOL))
            self.assertGreater(len(r.hash_seeds), 1)

    def test_store_fill_in_registry_order(self):
        for seed in range(5):
            derived = inputs.derive("store-warm", seed, SPECS)
            self.assertEqual(derived.fill, tuple(("verify", n) for n, _ in SPECS))
        self.assertEqual(inputs.derive("unroll-cold", 1, SPECS).fill, ())

    def test_pass_orders(self):
        derived = inputs.derive("store-warm", 9, SPECS)
        self.assertIs(inputs.reordered(derived, 0), derived)
        orders = [inputs.reordered(derived, k).ops for k in range(1, 8)]
        self.assertEqual(orders, [inputs.reordered(derived, k).ops for k in range(1, 8)])
        self.assertGreater(len(set(orders)), 1)
        for ops in orders:
            self.assertEqual(sorted(ops), sorted(derived.ops))

    def test_rewrite_infer_skips_buggy_specs(self):
        ops = inputs.derive("rewrite-infer", 3, SPECS).ops
        self.assertNotIn(("verify", "c"), ops)
        for search in inputs.SEARCHES:
            self.assertIn(search, ops)

    def test_serve_requests(self):
        derived = inputs.derive("serve-warm", 5, SPECS)
        self.assertEqual(len(derived.requests), inputs.SERVE_PASS_REQUESTS)
        self.assertLessEqual(set(derived.requests), {n for n, _ in SPECS})
        self.assertNotEqual(derived.requests, inputs.derive("serve-warm", 6, SPECS).requests)

    def test_unknown_workload(self):
        with self.assertRaises(ValueError):
            inputs.derive("nope", 1, SPECS)


class DeclarationTest(unittest.TestCase):
    """BENCHMARK.json declares exactly the metrics the run prints."""

    def test_metric_names_match(self):
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"] for m in declared["end_to_end"]},
                         set(run.END_TO_END_UNITS))
        for metric in declared["end_to_end"]:
            self.assertEqual(metric["unit"], run.END_TO_END_UNITS[metric["name"]])
        empty = {"self_s": {}, "counts": {}, "calls": {}}
        layer_names = set(run.base_layer_metrics([empty])) | set(run.RUN_LAYER_METRICS)
        self.assertEqual({m["name"] for m in declared["per_layer"]}, layer_names)
        for metric in declared["per_layer"]:
            self.assertEqual(metric["unit"], run.layer_unit(metric["name"]))
        self.assertEqual([w["name"] for w in declared["workloads"]], list(inputs.WORKLOADS))

    def test_decisions_spread(self):
        self.assertEqual(run.decisions_spread([200, 100]), 2.0)
        self.assertEqual(run.decisions_spread([0, 0]), 0.0)


if __name__ == "__main__":
    unittest.main()
