"""Independent answers for every job, from Python ``int`` alone.

mul, div and powmod are checked against ``a*b``, ``divmod`` and
``pow``; pi_digits against a plain-int Machin computation written
here; model_cycles against ``repro.plan.execute.model_query``, the
cycle model the response claims to price.  Nothing here runs the
``repro.mpn`` kernels the server runs.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Dict, Optional

#: Extra decimal digits carried through the Machin series.
_GUARD_DIGITS = 20


def _arctan_inverse(x: int, unity: int) -> int:
    """``arctan(1/x) * unity`` by its alternating series, in ints."""
    power = unity // x
    total = power
    x_squared = x * x
    n = 1
    sign = -1
    while power:
        power //= x_squared
        n += 2
        total += sign * (power // n)
        sign = -sign
    return total


@functools.lru_cache(maxsize=256)
def machin_pi(digits: int) -> str:
    """``"3.1415..."`` truncated to ``digits`` fractional digits."""
    unity = 10 ** (digits + _GUARD_DIGITS)
    pi = 4 * (4 * _arctan_inverse(5, unity) - _arctan_inverse(239, unity))
    text = str(pi // 10 ** _GUARD_DIGITS)
    return text[0] + "." + text[1:]


def _int(value: Any) -> int:
    return value if isinstance(value, int) else int(value, 16)


def expected_result(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The exact result object a correct server returns."""
    op, params = payload["op"], payload["params"]
    if op == "mul":
        return {"product": hex(_int(params["a"]) * _int(params["b"]))}
    if op == "div":
        quotient, remainder = divmod(_int(params["a"]), _int(params["b"]))
        return {"quotient": hex(quotient), "remainder": hex(remainder)}
    if op == "powmod":
        return {"value": hex(pow(_int(params["base"]), _int(params["exp"]),
                                 _int(params["mod"])))}
    if op == "model_cycles":
        from repro.core.model import DEFAULT_CONFIG
        from repro.plan.execute import model_query
        cycles = model_query(params["op"], params["bits_a"],
                             params["bits_b"])
        return {"cycles": cycles,
                "seconds": cycles / DEFAULT_CONFIG.frequency_hz}
    raise ValueError("no closed-form oracle for op %r" % op)


def check(payload: Dict[str, Any], status: int,
          body: bytes) -> Optional[str]:
    """``None`` for a verified-correct answer, else ``"failed: ..."``
    (no answer: non-200, timeout) or ``"wrong: ..."`` (a 200 whose
    answer is not the oracle's)."""
    if status != 200:
        return "failed: status %d" % status
    try:
        decoded = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return "wrong: undecodable body"
    if not isinstance(decoded, dict) or decoded.get("ok") is not True:
        return "failed: %r" % (decoded,)
    if decoded.get("id") != payload["id"]:
        return "wrong: answer for id %r" % decoded.get("id")
    result = decoded.get("result")
    if payload["op"] == "pi_digits":
        if not isinstance(result, dict) or result.get("digits") != \
                machin_pi(payload["params"]["digits"]):
            return "wrong: pi digits"
        return None
    if result != expected_result(payload):
        return "wrong: result"
    return None
