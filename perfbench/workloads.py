"""Seeded request generators, one per workload.

Every generator is an endless, deterministic stream of job payloads:
the same seed gives the same payloads in the same order.  The server
only ever sees these generated payloads.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, Tuple

Payload = Dict[str, Any]

#: ``repro.serve.client.build_jobs``' op mix, kept here verbatim so the
#: workload cannot drift with the program under test.
MIX_WEIGHTS = (("mul", 40), ("div", 25), ("powmod", 15),
               ("model_cycles", 15), ("pi_digits", 5))
MIX_MAX_BITS = 2048

#: serve-large widths: from just above the monolithic device multiplier
#: (35904 bits) to 96 kbit, so no request can lower to the simulator.
LARGE_MIN_BITS = 35905
LARGE_MAX_BITS = 96 * 1024
LARGE_MUL_SHARE = 0.6

#: fleet-mix: this share of pi_digits/model_cycles requests repeats one
#: of the first ``FLEET_HOT_KEYS`` distinct keys of the stream.
FLEET_REPEAT_SHARE = 0.5
FLEET_HOT_KEYS = 8


def serve_mix(seed: int, tag: str = "bench") -> Iterator[Payload]:
    """The ``build_jobs`` mix: same rng calls, same payloads."""
    rng = random.Random(seed)
    ops = [op for op, weight in MIX_WEIGHTS for _ in range(weight)]
    index = 0
    while True:
        op = ops[rng.randrange(len(ops))]
        if op in ("mul", "div"):
            bits = rng.randrange(8, MIX_MAX_BITS)
            a = rng.getrandbits(bits) | (1 << (bits - 1))
            b = rng.getrandbits(max(4, bits // 2)) | 1
            params: Dict[str, Any] = {"a": hex(a), "b": hex(b)}
        elif op == "powmod":
            bits = rng.randrange(8, max(16, MIX_MAX_BITS // 4))
            params = {"base": hex(rng.getrandbits(bits) | 1),
                      "exp": hex(rng.getrandbits(16) | 1),
                      "mod": hex(rng.getrandbits(bits) | 1)}
        elif op == "pi_digits":
            params = {"digits": rng.randrange(10, 120)}
        else:
            params = {"op": rng.choice(("mul", "div", "add", "powmod")),
                      "bits_a": rng.randrange(64, 1 << 16),
                      "bits_b": rng.randrange(64, 1 << 14)}
        yield {"op": op, "params": params,
               "priority": rng.randrange(0, 10),
               "id": "%s-%d-%d" % (tag, seed, index)}
        index += 1


def serve_large(seed: int, tag: str = "bench") -> Iterator[Payload]:
    """60% mul / 40% div, each at a width no earlier request used."""
    rng = random.Random(seed)
    used = set()
    index = 0
    while True:
        op = "mul" if rng.random() < LARGE_MUL_SHARE else "div"
        bits = rng.randrange(LARGE_MIN_BITS, LARGE_MAX_BITS + 1)
        while bits in used:
            bits = rng.randrange(LARGE_MIN_BITS, LARGE_MAX_BITS + 1)
        used.add(bits)
        a = rng.getrandbits(bits) | (1 << (bits - 1))
        b = rng.getrandbits(bits // 2) | 1
        yield {"op": op, "params": {"a": hex(a), "b": hex(b)},
               "priority": rng.randrange(0, 10),
               "id": "%s-%d-%d" % (tag, seed, index)}
        index += 1


def fleet_mix(seed: int, tag: str = "bench") -> Iterator[Payload]:
    """serve-mix, with cacheable requests often repeating a hot key."""
    rng = random.Random(seed ^ 0x5EED)
    hot: List[Tuple[str, Dict[str, Any]]] = []
    for payload in serve_mix(seed, tag):
        if payload["op"] in ("pi_digits", "model_cycles"):
            if len(hot) < FLEET_HOT_KEYS:
                hot.append((payload["op"], payload["params"]))
            elif rng.random() < FLEET_REPEAT_SHARE:
                payload["op"], payload["params"] = \
                    hot[rng.randrange(len(hot))]
        yield payload


#: name -> (generator, shard count)
WORKLOADS = {
    "serve-mix": (serve_mix, 0),
    "serve-large": (serve_large, 0),
    "fleet-mix": (fleet_mix, 2),
}

#: The warm-up stream's seed is derived, never the measured one.
WARM_SEED_OFFSET = 1_000_003
