"""Run a protocol's program once over symbols, then evaluate it as straight-line Python.

``trace`` runs ``program`` on a shallow copy of the protocol whose ``ring``
is a ``TracedRing``.  The run's inputs and draws are ``Node`` leaves, and
each ring operation appends one line of Python to the ring's program and
returns a new ``Node``.  The traced ring is every full party's source, so
a draw's index is a leaf; ``noise_at`` gives the leaf itself as a plain
draw over Zm and otherwise one node that calls the real ring's
``noise_at``.  ``TracedRing.compile`` turns a view key and an
outcome, structures of nodes and plain values, into one function of
(inputs, draws) with no branch, which gives the values of the view's
nodes and of the outcome's nodes, and two functions that rebuild the view
key and the outcome from those values.  Every label and constant of the
view is the same in every run, so the values of its nodes stand for the
view: two runs give equal values exactly when they give equal views.

A trace is only valid for a program that does the same ring operations
whatever the values are.  So a node refuses every use that depends on its
value: truth, comparison, hashing, conversion to an int or a string, and
plain arithmetic on either side raise ``Untraceable``, and so does the
traced ring's ``is_unit``.  A helper that branches on a value can still be
traced if it is marked ``ring.pure``: the trace records one call of it,
and the compiled function calls it with numbers and the real ring.
"""

from __future__ import annotations

import copy
import dataclasses

from .engine import Run


class Untraceable(Exception):
    """A traced program used a value that a trace does not know."""


class Node:
    """One value of a traced run, named ``v{ref}`` in the compiled function."""

    __slots__ = ("ref",)

    def __init__(self, ref: int):
        self.ref = ref

    def _refuse(self, *_args):
        raise Untraceable("a traced value was used as a number")


_VALUE_USES = ("bool", "eq", "ne", "lt", "le", "gt", "ge", "hash", "index", "int", "float",
               "complex", "format", "str", "repr", "neg", "pos", "abs", "invert", "round",
               "trunc", "floor", "ceil")
_OPERATORS = ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod", "pow",
              "lshift", "rshift", "and", "or", "xor")
for _name in _VALUE_USES + _OPERATORS + tuple("r" + op for op in _OPERATORS):
    setattr(Node, f"__{_name}__", Node._refuse)


class TracedRing:
    """A ring whose elements are nodes, and the randomness source of every traced party.

    ``lines`` is the compiled function's body, one ``v{ref} = ...`` per
    operation in the order the program made them; ``consts`` holds the
    objects that body names.
    """

    def __init__(self, ring):
        self.real = ring
        self.modular, self.modulus = ring.modular, ring.modulus
        self.lines: list[str] = []
        self.consts: dict = {}
        self.inputs: list[Node] = []
        self.draws: list[Node] = []
        self._nodes = 0

    def _node(self, expr: str | None = None) -> Node:
        node = Node(self._nodes)
        self._nodes += 1
        if expr is not None:
            self.lines.append(f"v{node.ref} = {expr}")
        return node

    def const(self, obj) -> str:
        """The name under which the compiled function sees ``obj``."""
        name = f"k{len(self.consts)}"
        self.consts[name] = obj
        return name

    def expr(self, value, used: dict | None = None) -> str:
        """Python source that rebuilds ``value`` from the nodes it holds.

        Each node's name is added to ``used``, if given, in first-use order.
        """
        kind = type(value)
        if kind is Node:
            if used is not None:
                used.setdefault(f"v{value.ref}")
            return f"v{value.ref}"
        if kind is int or kind is str or kind is bool or value is None:
            return f"({value!r})"
        if kind is tuple:
            return "(" + "".join(f"{self.expr(v, used)}, " for v in value) + ")"
        if kind is list:
            return "[" + ", ".join(self.expr(v, used) for v in value) + "]"
        if kind is dict:
            return "{" + ", ".join(f"{self.expr(k, used)}: {self.expr(v, used)}"
                                   for k, v in value.items()) + "}"
        if dataclasses.is_dataclass(kind) and all(f.init for f in dataclasses.fields(kind)):
            return f"{self.const(kind)}(" + ", ".join(
                f"{f.name}={self.expr(getattr(value, f.name), used)}"
                for f in dataclasses.fields(kind)) + ")"
        raise Untraceable(f"cannot rebuild a {kind.__name__}")

    # -- the ring ------------------------------------------------------------

    def _reduced(self, expr: str) -> Node:
        return self._node(f"({expr}) % {self.modulus}" if self.modular else expr)

    def normalize(self, v):
        return self._reduced(self.expr(v))

    def add(self, a, b):
        return self._reduced(f"{self.expr(a)} + {self.expr(b)}")

    def sub(self, a, b):
        return self._reduced(f"{self.expr(a)} - {self.expr(b)}")

    def neg(self, a):
        return self._reduced(f"-{self.expr(a)}")

    def mul(self, a, b):
        return self._reduced(f"{self.expr(a)} * {self.expr(b)}")

    def pow(self, a, e):
        return self._node(f"{self.const(self.real.pow)}({self.expr(a)}, {self.expr(e)})")

    def exact_div(self, r, a):
        return self._node(f"{self.const(self.real.exact_div)}({self.expr(r)}, {self.expr(a)})")

    def is_unit(self, _a):
        raise Untraceable("is_unit decides on a traced value")

    def noise_domain(self, require_unit: bool = False) -> int:
        return self.real.noise_domain(require_unit)

    def noise_at(self, index, require_unit: bool = False):
        if self.modular and not require_unit:
            return index
        return self._node(f"{self.const(self.real.noise_at)}({self.expr(index)}, {require_unit!r})")

    def call(self, fn, values):
        """One node for ``fn(ring, *values)``, a function marked ``ring.pure``."""
        args = "".join(f", {self.expr(v)}" for v in values)
        return self._node(f"{self.const(fn)}({self.const(self.real)}{args})")

    # -- leaves ----------------------------------------------------------------

    def input(self) -> Node:
        node = self._node()
        self.inputs.append(node)
        return node

    def randrange(self, _n: int) -> Node:
        """A party's draw: the next draw leaf, whatever the domain."""
        node = self._node()
        self.draws.append(node)
        return node

    def _unpacked(self, value) -> tuple[str, str]:
        """(source that rebuilds ``value``, a tuple display of its nodes in first-use order)."""
        used: dict = {}
        source = self.expr(value, used)
        return source, "(" + "".join(f"{name}, " for name in used) + ")"

    def compile(self, view, outcome):
        """(evaluate, rebuild, show): the compiled view and outcome of the traced run.

        ``evaluate(x, d)`` returns (values, leaves) at inputs x and draws d:
        the values of the nodes ``view`` holds and of those ``outcome``
        holds, each a flat tuple in first-use order, hashable where an
        outcome may not be.  ``show(values)`` returns ``view`` and
        ``rebuild(leaves)`` returns ``outcome``, each with every node's
        value in place.
        """
        shown, values = self._unpacked(view)
        result, leaves = self._unpacked(outcome)
        body = [f"({''.join(self.expr(v) + ', ' for v in nodes)}) = {arg}"
                for nodes, arg in ((self.inputs, "x"), (self.draws, "d")) if nodes]
        body += self.lines
        source = ("def evaluate(x, d):\n" + "".join(f"    {line}\n" for line in body)
                  + f"    return {values}, {leaves}\n"
                  + f"def rebuild(leaves):\n    {leaves} = leaves\n    return {result}\n"
                  + f"def show(values):\n    {values} = values\n    return {shown}\n")
        namespace = dict(self.consts)
        exec(source, namespace)
        return namespace["evaluate"], namespace["rebuild"], namespace["show"]


def trace(protocol, graph, arity: int):
    """Run ``protocol.program`` once over a ``TracedRing``: (ring, run, outcome).

    The run has ``arity`` input leaves, and every full party of ``graph``
    draws the ring's leaves.  Its log, draw sites and outcome hold nodes.
    """
    ring = TracedRing(protocol.ring)
    traced = copy.copy(protocol)
    traced.ring = ring
    inputs = [ring.input() for _ in range(arity)]
    run = Run(traced, graph, inputs, seed=0,
              sources={p.index: ring for p in graph.parties if p.full})
    return ring, run, traced.program(run)
