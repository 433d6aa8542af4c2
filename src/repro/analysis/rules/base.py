"""Shared infrastructure for the lint rules: context, base class, helpers."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import Iterator, List, Tuple

#: mpn modules that ARE the bigint/representation boundary; kernel-only
#: rules do not apply to them.
MPN_BOUNDARY_MODULES = frozenset({
    "nat.py",        # defines the representation and its converters
    "signed.py",     # the (sign, magnitude) conversion layer
    "__init__.py",   # profiled re-export wrappers
    "tune.py",       # host-timing harness, not a kernel
    "radix.py",      # decimal string <-> Nat conversion boundary
})

#: core modules that form the *functional* (bit-exact) simulator, where
#: all accounting must stay integral and deterministic.
CORE_FUNCTIONAL_MODULES = frozenset({
    "controller.py", "transform.py", "adder_tree.py", "pe.py", "gu.py",
    "ipu.py", "converter.py", "bitflow.py", "bips.py",
})


@dataclass(frozen=True)
class FileContext:
    """What a rule may know about the file being linted."""

    path: str
    tree: ast.Module
    source: str

    @property
    def parts(self) -> Tuple[str, ...]:
        return PurePath(self.path).parts

    @property
    def filename(self) -> str:
        return PurePath(self.path).name

    @property
    def in_mpn(self) -> bool:
        return "mpn" in self.parts

    @property
    def in_core(self) -> bool:
        return "core" in self.parts

    @property
    def is_mpn_kernel(self) -> bool:
        """True for mpn algorithm modules (not the conversion boundary)."""
        return self.in_mpn and self.filename not in MPN_BOUNDARY_MODULES

    @property
    def is_core_functional(self) -> bool:
        """True for the bit-exact core simulator modules."""
        return self.in_core and self.filename in CORE_FUNCTIONAL_MODULES


@dataclass(frozen=True)
class RuleViolation:
    """One finding, before noqa filtering (engine adds file provenance)."""

    line: int
    end_line: int
    message: str


class Rule:
    """Base class: identity + scope predicate + AST check."""

    name: str = ""
    code: str = ""
    rationale: str = ""

    def applies(self, ctx: FileContext) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def check(self, ctx: FileContext) -> List[RuleViolation]:  # pragma: no cover
        raise NotImplementedError

    def violation(self, node: ast.AST, message: str) -> RuleViolation:
        return RuleViolation(getattr(node, "lineno", 0),
                             getattr(node, "end_lineno", None)
                             or getattr(node, "lineno", 0),
                             message)


def walk_functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    """Yield every (sync or async) function definition in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def function_returns(func: ast.FunctionDef) -> Iterator[ast.Return]:
    """Return statements belonging to ``func`` itself (not nested defs)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Return):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def annotation_is(annotation: ast.AST | None, name: str) -> bool:
    """True when a return annotation denotes ``name`` (Nat, "Nat", nat.Nat)."""
    if annotation is None:
        return False
    if isinstance(annotation, ast.Name):
        return annotation.id == name
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == name
    if isinstance(annotation, ast.Constant) and \
            isinstance(annotation.value, str):
        return annotation.value.strip() == name
    return False


def call_name(node: ast.Call) -> str:
    """The called name for ``f(...)`` or ``obj.f(...)`` ("" otherwise)."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return ""
