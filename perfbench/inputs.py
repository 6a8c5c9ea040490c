"""Workload inputs derived from the benchmark seed.

Everything the program sees in a run — the order of the registry specs,
the hash seeds its child processes run under and the serve request
sequence — comes from :func:`derive`, so the same seed always gives the
same inputs.  Nothing here imports the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

WORKLOADS = ("unroll-cold", "rewrite-infer", "store-warm", "serve-warm")

#: The PYTHONHASHSEED values a pass runs under.  The solver's search
#: order depends on the hash seed, so a pass covers more than one and
#: the set is fixed: every run does the same search work, and no change
#: can win on one lucky order.  The benchmark seed fixes their order.
HASH_SEED_POOL = (1, 2)

#: Requests in one serve pass (split over the connections).
SERVE_PASS_REQUESTS = 1000

#: The searches of the ``rewrite-infer`` workload besides the invariant
#: verifications: annotation inference on two specs and Houdini on one.
SEARCHES = (("infer", "noisy_max"), ("infer", "svt"), ("houdini", "noisy_max"))


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    hash_seeds: Tuple[int, ...]
    #: ``(kind, spec name)`` in run order; kind is ``verify``,
    #: ``infer`` or ``houdini``.
    ops: Tuple[Tuple[str, str], ...]
    #: Spec names of one serve pass, in send order (empty elsewhere).
    requests: Tuple[str, ...] = ()
    #: ``store-warm`` set-up: the store fill's operations, in registry
    #: order for every seed.  Certificates of queries answered from the
    #: query cache come from an earlier spec's solve, so the fill order
    #: changes what the store holds and how long validating it takes.
    fill: Tuple[Tuple[str, str], ...] = ()


def derive(workload: str, seed: int, specs: Sequence[Tuple[str, bool]]) -> Inputs:
    """The inputs of ``workload`` for ``seed``.

    ``specs`` lists the registry as ``(name, expect_verified)`` pairs in
    registry order.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    hash_seeds = list(HASH_SEED_POOL)
    rng.shuffle(hash_seeds)
    names: List[str] = [name for name, _ in specs]
    if workload == "rewrite-infer":
        ops = [("verify", name) for name, expected in specs if expected]
        ops += list(SEARCHES)
    else:
        ops = [("verify", name) for name in names]
    rng.shuffle(ops)
    requests: Tuple[str, ...] = ()
    if workload == "serve-warm":
        requests = tuple(rng.choice(names) for _ in range(SERVE_PASS_REQUESTS))
    fill = tuple(("verify", name) for name in names) if workload == "store-warm" else ()
    return Inputs(workload, seed, tuple(hash_seeds), tuple(ops), requests, fill)


def reordered(inputs: Inputs, k: int) -> Inputs:
    """The inputs of pass ``k``: pass 0 keeps the seed's operation order,
    later passes shuffle it with a generator seeded by the seed and ``k``.

    The program shares its intern table and query cache across the specs
    of a pass, so a spec's time depends on the specs before it.  Varying
    the order between passes lets each spec's median time cover several
    neighbourhoods.
    """
    if k == 0:
        return inputs
    ops = list(inputs.ops)
    random.Random(f"{inputs.workload}:{inputs.seed}:{k}").shuffle(ops)
    return replace(inputs, ops=tuple(ops))
