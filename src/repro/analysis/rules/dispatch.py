"""Dispatch-discipline rule: work reaches kernels through the plan IR.

Every layer above the mpn package is supposed to lower requests through
:mod:`repro.plan` — ``OpSpec → select → Plan`` — and execute the Plan,
so algorithm choice stays behind :mod:`repro.plan.select` and every
cost / cache key comes from one place.  A caller that invokes a
concrete kernel entrypoint (``mul_karatsuba``, ``divmod_newton``, ...)
or hand-builds an ISA ``Instruction`` has bypassed that contract: its
algorithm choice silently ignores backend selection and its work is
invisible to plan verification and memo-key salting.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.rules.base import (FileContext, Rule, RuleViolation,
                                       call_name)

#: Concrete algorithm entrypoints (the dispatchers ``mul``/``mul_int``/
#: ``divmod_nat`` stay callable anywhere — they route through
#: plan.select themselves).  The packed kernels of
#: :mod:`repro.mpn.packed` are covered too: they are reachable only
#: through the dispatchers' backend resolution or a lowered
#: ``backend="packed"`` Plan, never called directly.
KERNEL_ENTRYPOINTS = frozenset({
    "mul_schoolbook", "sqr_schoolbook",
    "mul_karatsuba", "sqr_karatsuba",
    "mul_toom", "mul_ssa",
    "divmod_schoolbook", "divmod_newton", "divmod_bz",
    "mul_packed", "sqr_packed", "divmod_packed", "powmod_packed",
    "mul_packed_int", "divmod_packed_int", "powmod_packed_int",
    "add_packed", "sub_packed", "shl_packed", "shr_packed",
})


#: Recursion internals of the mul/div descent.  Since the schedule
#: refactor the recursion structure is committed once
#: (:mod:`repro.plan.schedule`) and walked from there; any other call
#: site re-decides algorithm structure ad hoc, invisibly to the
#: committed schedule.
RECURSION_INTERNALS = frozenset({
    "mul_karatsuba", "sqr_karatsuba", "mul_toom", "mul_ssa",
    "divmod_newton", "divmod_bz",
})

#: The sanctioned homes of recursion-internal calls: each internal's
#: defining module and the schedule-walking dispatchers (``mul.py``,
#: ``div.py``).
_SCHEDULE_LAYER_FILES = frozenset({
    "mul.py", "div.py",
    "karatsuba.py", "toom.py", "ssa.py", "burnikel_ziegler.py",
})


class DirectDispatch(Rule):
    """RPR012: no direct kernel calls or ISA stream construction
    outside the plan/mpn internals."""

    name = "direct-dispatch"
    code = "RPR012"
    rationale = ("Layers above mpn must lower work through repro.plan "
                 "(OpSpec -> select -> Plan); calling a concrete kernel "
                 "or hand-building an ISA Instruction bypasses backend "
                 "selection, plan verification, and the memo-key "
                 "salting that keeps result caches honest.")

    def applies(self, ctx: FileContext) -> bool:
        # mpn owns the kernels; plan's lowering/streams are the one
        # sanctioned construction site; core.isa defines Instruction.
        return not ctx.in_mpn and "plan" not in ctx.parts \
            and ctx.filename != "isa.py"

    def check(self, ctx: FileContext) -> List[RuleViolation]:
        found: List[RuleViolation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name in KERNEL_ENTRYPOINTS:
                found.append(self.violation(
                    node, "direct call to kernel entrypoint %s(); "
                    "lower the request through repro.plan and execute "
                    "the Plan instead" % name))
            elif name == "Instruction":
                found.append(self.violation(
                    node, "hand-built ISA Instruction; device streams "
                    "come from repro.plan.streams.instructions_for "
                    "(or BatchingDriver.submit_plan)"))
        return found


class ScheduleBypass(Rule):
    """RPR013: inside mpn/plan, recursion internals are reached only
    through the committed schedule layer."""

    name = "schedule-bypass"
    code = "RPR013"
    rationale = ("The recursion structure is committed once per "
                 "(op, limbs) as a Schedule (repro.plan.schedule) and "
                 "then walked by the mpn dispatchers; calling a "
                 "recursion internal (mul_karatsuba, mul_toom, "
                 "divmod_newton, ...) from anywhere else re-decides "
                 "the descent ad hoc, invisible to the schedule that "
                 "`repro plan` prints and prices.")

    def applies(self, ctx: FileContext) -> bool:
        # RPR012 already polices everything above mpn/plan; this rule
        # covers the inside, minus the schedule layer itself (the
        # walking dispatchers and the internals' own defining modules).
        if not (ctx.in_mpn or "plan" in ctx.parts):
            return False
        return ctx.filename not in _SCHEDULE_LAYER_FILES

    def check(self, ctx: FileContext) -> List[RuleViolation]:
        found: List[RuleViolation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name in RECURSION_INTERNALS:
                found.append(self.violation(
                    node, "direct call to recursion internal %s() "
                    "bypasses the committed schedule; derive a "
                    "Schedule (repro.plan.schedule) and walk it via "
                    "the mpn dispatchers instead" % name))
        return found
