"""determinism: nothing nondeterministic may feed the output bytes.

The kernel, lossless and quantizer paths produce the stream's payload;
any nondeterminism there silently breaks the cross-backend byte-identity
goldens.  This rule flags, in those paths:

* importing or touching entropy sources: :mod:`time`, :mod:`random`,
  :mod:`secrets`, :mod:`uuid`, ``os.urandom``, ``np.random``,
* ``hash()`` (salted per process by ``PYTHONHASHSEED``),
* iterating a ``set``/``frozenset`` (literal, comprehension or call) in
  a ``for`` loop, comprehension, or ``list()``/``tuple()``
  materialization -- set iteration order is unspecified, so any bytes
  derived from it are unstable.  Membership tests (``x in {...}``) are
  fine and not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, Rule, Source, register_rule

__all__ = ["DeterminismRule"]

_ENTROPY_MODULES = frozenset({"time", "random", "secrets", "uuid"})


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@register_rule
class DeterminismRule(Rule):
    """No nondeterminism (time, RNG, sets, ids) feeds output bytes."""
    name = "determinism"
    description = (
        "kernel/lossless/quantizer paths may not use entropy sources or "
        "iterate sets"
    )
    scope = (
        "core/kernel.py",
        "core/chunking.py",
        "core/lossless/**",
        "core/native/**",
        "core/quantizers/**",
    )

    def check(self, src: Source) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _ENTROPY_MODULES:
                        yield self.finding(
                            src, node,
                            f"import of {alias.name!r} in a deterministic "
                            "path (wall clock / RNG must not feed output "
                            "bytes)",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in _ENTROPY_MODULES:
                    yield self.finding(
                        src, node,
                        f"import from {node.module!r} in a deterministic "
                        "path (wall clock / RNG must not feed output bytes)",
                    )
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                base, attr = node.value.id, node.attr
                if base in _ENTROPY_MODULES:
                    yield self.finding(
                        src, node,
                        f"{base}.{attr} is nondeterministic in a "
                        "deterministic path",
                    )
                elif base == "os" and attr == "urandom":
                    yield self.finding(
                        src, node, "os.urandom in a deterministic path",
                    )
                elif base in ("np", "numpy") and attr == "random":
                    yield self.finding(
                        src, node, "np.random in a deterministic path",
                    )
            elif isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name) and node.func.id == "hash":
                    yield self.finding(
                        src, node,
                        "hash() is salted per process (PYTHONHASHSEED); "
                        "derive keys deterministically",
                    )
                elif (
                    isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple")
                    and node.args
                    and _is_set_expr(node.args[0])
                ):
                    yield self.finding(
                        src, node,
                        f"{node.func.id}() over a set materializes "
                        "unspecified iteration order",
                    )
            elif isinstance(node, ast.For) and _is_set_expr(node.iter):
                yield self.finding(
                    src, node,
                    "iterating a set: iteration order is unspecified and "
                    "must not feed output bytes",
                )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    if _is_set_expr(gen.iter):
                        yield self.finding(
                            src, gen.iter,
                            "comprehension over a set: iteration order is "
                            "unspecified and must not feed output bytes",
                        )
