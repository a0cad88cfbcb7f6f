"""Run a protocol's program once over symbols, then count its runs with one loop nest.

``trace`` runs ``program`` on a shallow copy of the protocol whose ``ring``
is a ``TracedRing``.  The run's inputs and draws are ``Node`` leaves, and
each ring operation appends one node to the ring's IR, an (op, operands)
pair, and returns it.  The traced ring is every full party's source, so a
draw's index is a leaf; ``noise_at`` gives the leaf itself as a plain draw
over Zm and otherwise a node that calls the real ring's ``noise_at``.

A node built by ``normalize``, ``add``, ``sub``, ``neg`` or a ``mul`` with
a constant side, from ints and nodes, also carries its affine form: a
constant plus a sum of coefficients times leaves, reduced mod m over Zm
and exact over Z.  Its leaves are the inputs, the draws and the opaque
nodes: ``pow``, ``exact_div``, a ``mul`` of two non-constant sides, the
``noise_at`` of a unit draw or of a draw over Z, a ``pure`` call, and any
arithmetic on a value that is neither an int nor a node.  A form tells exactly which draws
a value reads; where the draws cancel, as in a secure sum's output, it
reads none.  An opaque value used in a form is taken to be an int.

``TracedRing.compile`` turns a view key, an outcome, both structures of
nodes and plain values, and the outcome nodes that a claim reads into
one generated function, ``tally``, that, for one input assignment, loops
over the draws' domains in ``product`` order, the first draw outermost,
and counts each run straight into the cell of its claim.  The view
values are a flat tuple of the values of the nodes the view holds, in
first-use order, and the read values one of the read nodes' values.
The view is numbered by a dict shared across calls, a view first seen
taking the next number; the read values are handed, once per distinct
value in a call, to a claim function that returns the cells of their
group and their target; each run adds its count to cell (view number,
target).  Each node is computed at the depth of the last draw it reads,
so a value that an inner loop does not change is computed once per pass
of the outer one, and one that reads no draw once per call; the claim is
looked up and the view numbered likewise, at the depth of the last draw
the read nodes or the view read.  A claim that reads no node, as one on the
inputs alone, is looked up once per call.  A node is written as its op
on its operands, as the program made it, unless an operand reads a leaf
that its form does not, as when the draws cancel out of it; then it is
written as its form.  Every opaque node is computed, used or not, so a
fault it raises in any run is raised; an outcome node that neither the
view, the claim nor an opaque node reads is not.  A draw that no
computed value reads is not looped: its domain's size multiplies every
count.  Over Zm, neither is a draw e that every root, a view node, a
read node or an opaque node's operand, reads only through a kept draw j
looped inside it: e's coefficient is k times j's in each root's form,
for one k.  Each value of e then repeats the sweep at e's first value
with j shifted by k times e, a bijection of j's domain range(m), so e
is bound to its first value and its domain's size multiplies every
count; ``tally`` raises if j's domain is any other while e's holds more
than one value.  The counts, numbers and claims and their first-seen
order are those of counting every run in ``product`` order, whatever
the hash seed.  Past CPython's 20 nested blocks, the innermost draws
are looped as one ``product``; over domains of one value each,
``tally`` counts the one run at that point.  ``show`` fills the view
key with the view's values, and ``fill`` the outcome with the read
values, leaving every other node in place.  Every label and constant of the view is the same
in every run, so the values of its nodes stand for the view: two runs
give equal values exactly when they give equal views.

A trace is only valid for a program that does the same ring operations
whatever the values are.  So a node refuses every use that depends on its
value: truth, comparison, hashing, conversion to an int or a string, and
plain arithmetic on either side raise ``Untraceable``, and so does the
traced ring's ``is_unit``.  A helper that branches on a value can still be
traced if it is marked ``ring.pure``: the trace records one call of it,
and ``tally`` calls it with numbers and the real ring.
"""

from __future__ import annotations

import copy
import dataclasses
from itertools import chain, product
from math import gcd

from .engine import Run

# CPython compiles at most 20 statically nested blocks in one function body.
MAX_LOOPS = 20

# Python source of each arithmetic op on its operands, before the reduction mod m.
_ARITHMETIC = {"normalize": "{}", "add": "{} + {}", "sub": "{} - {}", "neg": "-{}",
               "mul": "{} * {}"}


class Untraceable(Exception):
    """A traced program used a value that a trace does not know."""


class Node:
    """One value of a traced run: node ``ref`` of its ring's IR."""

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

    ``nodes`` is the IR, one (op, operands) per node in the order the
    program made them; ``forms`` holds each node's affine form (constant,
    {leaf ref: coefficient}), or None for a leaf.  ``consts`` holds the
    objects that the generated source names.
    """

    def __init__(self, ring):
        self.real = ring
        self.modular, self.modulus = ring.modular, ring.modulus
        self.nodes: list[tuple] = []
        self.forms: list = []
        self.consts: dict = {}
        self.inputs: list[Node] = []
        self.draws: list[Node] = []

    def _node(self, op: str, operands: tuple, form=None) -> Node:
        node = Node(len(self.nodes))
        self.nodes.append((op, operands))
        self.forms.append(form)
        return node

    def const(self, obj) -> str:
        """The name under which the generated source sees ``obj``."""
        name = f"k{len(self.consts)}"
        self.consts[name] = obj
        return name

    def expr(self, value, name) -> str:
        """Python source of the operand ``value``, each node written as ``name(node)``."""
        kind = type(value)
        if kind is Node:
            return name(value)
        if kind is int or kind is str or kind is bool or value is None:
            return f"({value!r})"
        if kind is tuple:
            return _tuple(self.expr(v, name) for v in value)
        if kind is list:
            return "[" + ", ".join(self.expr(v, name) for v in value) + "]"
        raise Untraceable(f"cannot write a {kind.__name__} as source")

    # -- the ring ------------------------------------------------------------

    def _affine(self, op: str, operands: tuple, weighted) -> Node:
        """A node for ``op`` on ``operands``, whose value is the sum of k * v over the (k, v)
        pairs ``weighted``: an affine node if each v is an int or a node, else a leaf."""
        const, terms = 0, {}
        for k, v in weighted:
            kind = type(v)
            if kind is int:
                const += k * v
            elif kind is not Node:
                return self._node(op, operands)
            elif (form := self.forms[v.ref]) is None:
                terms[v.ref] = terms.get(v.ref, 0) + k
            else:
                const += k * form[0]
                for leaf, a in form[1].items():
                    terms[leaf] = terms.get(leaf, 0) + k * a
        if self.modular:
            m = self.modulus
            const, terms = const % m, {leaf: a % m for leaf, a in terms.items() if a % m}
        else:
            terms = {leaf: a for leaf, a in terms.items() if a}
        return self._node(op, operands, (const, terms))

    def _constant(self, value):
        """The value of an int or of a node whose form is a constant, else None."""
        if type(value) is int:
            return value
        if type(value) is Node and (form := self.forms[value.ref]) is not None and not form[1]:
            return form[0]
        return None

    def normalize(self, v):
        return self._affine("normalize", (v,), ((1, v),))

    def add(self, a, b):
        return self._affine("add", (a, b), ((1, a), (1, b)))

    def sub(self, a, b):
        return self._affine("sub", (a, b), ((1, a), (-1, b)))

    def neg(self, a):
        return self._affine("neg", (a,), ((-1, a),))

    def mul(self, a, b):
        if (c := self._constant(b)) is not None:
            return self._affine("mul", (a, b), ((c, a),))
        if (c := self._constant(a)) is not None:
            return self._affine("mul", (a, b), ((c, b),))
        return self._node("mul", (a, b))

    def pow(self, a, e):
        return self._node("pow", (a, e))

    def exact_div(self, r, a):
        return self._node("exact_div", (r, a))

    def is_unit(self, _a):
        raise Untraceable("is_unit decides on a traced value")

    def noise_domain(self, require_unit: bool = False) -> int:
        return self.real.noise_domain(require_unit)

    def noise_at(self, index, require_unit: bool = False):
        if self.modular and not require_unit:
            return index
        return self._node("noise_at", (index, require_unit))

    def call(self, fn, values):
        """One node for ``fn(ring, *values)``, a function marked ``ring.pure``."""
        return self._node("call", (fn, *values))

    # -- leaves ----------------------------------------------------------------

    def input(self) -> Node:
        node = self._node("input", ())
        self.inputs.append(node)
        return node

    def randrange(self, n: int) -> Node:
        """A party's draw: the next draw leaf, over range(n)."""
        node = self._node("draw", (n,))
        self.draws.append(node)
        return node

    # -- the generated source ------------------------------------------------------

    def _source(self, op: str, operands: tuple, name) -> str:
        """The source of a node's op on its operands."""
        if op == "call":
            fn, *values = operands
            return f"{self.const(fn)}({self.const(self.real)}" + "".join(
                f", {self.expr(v, name)}" for v in values) + ")"
        args = [self.expr(v, name) for v in operands]
        if op in _ARITHMETIC:
            return self._reduced(_ARITHMETIC[op].format(*args))
        return f"{self.const(getattr(self.real, op))}({', '.join(args)})"

    def _reduced(self, expr: str) -> str:
        return f"({expr}) % {self.modulus}" if self.modular else expr

    def _sum(self, form, name: dict) -> str:
        """The source of an affine form, each coefficient between -m/2 and m/2 over Zm."""
        const, terms = form
        source = repr(const) if const else ""
        for leaf, a in terms.items():
            if self.modular and a > self.modulus // 2:
                a -= self.modulus
            var = name[leaf] if abs(a) == 1 else f"{abs(a)} * {name[leaf]}"
            source += (" - " if a < 0 else " + ") + var if source else ("-" if a < 0 else "") + var
        return self._reduced(source)

    def _kernel(self, values: list, leaves: list) -> str:
        """The source of ``tally(x, d, numbers, claim)``, which counts each run into its cell."""
        nodes, forms = self.nodes, self.forms
        # The nodes the kernel computes: those of the view and those the claim reads, every
        # opaque node, which may raise, and the nodes each is written with; and the leaves
        # they read.
        # An affine node is written as its op on its operands, as the program made it, unless
        # an operand reads a leaf that its form does not, as when draws cancel out of it; then
        # it is written as its form.  Operands come before their node, so one pass from the
        # last node back decides each node before any node it is written with.
        needed, read = set(values).union(leaves), set()
        uses, chained = {}, set()  # opaque node -> the nodes its operands hold; chained nodes
        for ref in range(len(nodes) - 1, -1, -1):
            op, operands = nodes[ref]
            form = forms[ref]
            if form is None and op != "input" and op != "draw":
                uses[ref] = _refs(operands[op == "call":])
                needed.add(ref)
                needed.update(uses[ref])
            if ref not in needed:
                continue
            if form is None:
                read.add(ref)
                continue
            terms = form[1]
            read.update(terms)
            args = [v.ref for v in operands if type(v) is Node]
            if terms and all(arg in terms if forms[arg] is None
                             else forms[arg][1].keys() <= terms.keys() for arg in args):
                chained.add(ref)
                needed.update(args)
        looped = [(i, node.ref) for i, node in enumerate(self.draws) if node.ref in read]
        absorbed = self._absorbed(looped, [*values, *leaves, *chain.from_iterable(uses.values())])
        looped = [(i, ref) for i, ref in looped if i not in absorbed]
        # Level 0 is the kernel's top, level i the body of the i-th loop.  Each node is
        # computed at the level of the deepest leaf it reads.
        level = {node.ref: 0 for node in self.inputs}
        level.update((self.draws[i].ref, 0) for i in absorbed)
        level.update((ref, 1 + min(n, MAX_LOOPS - 1)) for n, (_, ref) in enumerate(looped))
        name = {ref: f"v{ref}" for ref in level}
        body: list[list[str]] = [[] for _ in range(min(len(looped), MAX_LOOPS) + 1)]
        for ref in sorted(needed):
            if ref in level:  # an input or a looped draw
                continue
            op, operands = nodes[ref]
            form = forms[ref]
            if form is None:
                at = max((level[r] for r in uses[ref]), default=0)
                source = self._source(op, operands, lambda node: name[node.ref])
            elif not form[1]:
                level[ref], name[ref] = 0, repr(form[0])
                continue
            else:
                at = max(level[leaf] for leaf in form[1])
                source = self._reduced(_ARITHMETIC[op].format(
                    *(name[v.ref] if type(v) is Node else f"({v!r})" for v in operands))) \
                    if ref in chained else self._sum(form, name)
            level[ref] = at
            if source.isidentifier():  # over Z, a normalized value is the value
                name[ref] = source
            else:
                name[ref] = f"v{ref}"
                body[at].append(f"v{ref} = {source}")
        # The claim is looked up at the level of the deepest leaf of the nodes it reads, once
        # per distinct values of those, and the view is numbered at the level of the view's.
        claim_at = max((level[r] for r in leaves), default=0)
        view_at = max((level[r] for r in values), default=0)
        lines = ["number = numbers.get"]
        if claim_at:
            lines.append("claims = {}")
            body[claim_at] += [f"found = claims.get(leaves := {_tuple(name[r] for r in leaves)})",
                               "if found is None:",
                               "    found = claims[leaves] = claim(leaves)",
                               "cells, target = found"]
        else:
            body[0].append(f"cells, target = claim({_tuple(name[r] for r in leaves)})")
        body[claim_at].append("get = cells.get")
        body[view_at] += [f"n = number(values := {_tuple(name[r] for r in values)})",
                          "if n is None:",
                          "    n = numbers[values] = len(numbers)"]
        if self.inputs:
            lines.append(f"{_tuple(f'v{node.ref}' for node in self.inputs)} = x")
        for i, j in absorbed.items():
            lines += [f"if len(d[{i}]) > 1 and d[{j}] != range({self.modulus}):",
                      f"    raise ValueError('draw {i} is absorbed into draw {j}, whose domain "
                      f"is not range({self.modulus})')",
                      f"v{self.draws[i].ref} = d[{i}][0]"]
        unlooped = [f"len(d[{i}])" for i, node in enumerate(self.draws)
                    if node.ref not in read or i in absorbed]
        if unlooped:
            lines.append(f"w = {' * '.join(unlooped)}")
        lines += body[0]
        for depth in range(1, len(body)):
            group = looped[depth - 1:] if depth == MAX_LOOPS else looped[depth - 1:depth]
            if len(group) == 1:
                (i, ref), = group
                loop = f"for v{ref} in d[{i}]:"
            else:
                loop = (f"for {_tuple(f'v{ref}' for _, ref in group)} in "
                        f"product{_tuple(f'd[{i}]' for i, _ in group)}:")
            lines.append("    " * (depth - 1) + loop)
            lines += ["    " * depth + line for line in body[depth]]
        inner = "    " * (len(body) - 1)
        lines.append(f"{inner}cells[cell] = get(cell := (n, target), 0) + {'w' if unlooped else 1}")
        return "def tally(x, d, numbers, claim):\n" + "".join(f"    {line}\n" for line in lines)

    def _absorbed(self, looped: list, roots: list) -> dict:
        """Looped draw index -> the kept looped draw, inside it, that it is absorbed into.

        Walking from the innermost draw outward, draw e is absorbed into a
        kept draw j looped inside it, over range(m), when in the form of
        every root e's coefficient is k times j's, for one k read off a root
        where j's is a unit: every root then reads r_e only through r_j +
        k * r_e, and each value of r_e repeats the sweep at r_e = d[e][0]
        with r_j shifted by a bijection.
        """
        if not self.modular:
            return {}
        m, forms = self.modulus, self.forms
        terms = [{ref: 1} if forms[ref] is None else forms[ref][1] for ref in roots]
        absorbed, kept = {}, []
        for e, e_ref in reversed(looped):
            for j, ref in kept:
                if self.nodes[ref][1] != (m,):
                    continue
                unit = next((t for t in terms if gcd(t.get(ref, 0), m) == 1), None)
                if unit is None:
                    continue
                k = unit.get(e_ref, 0) * pow(unit[ref], -1, m)
                if all((t.get(e_ref, 0) - k * t.get(ref, 0)) % m == 0 for t in terms):
                    absorbed[e] = j
                    break
            else:
                kept.append((e, e_ref))
        return absorbed

    def compile(self, view, outcome, read):
        """(tally, fill, show): the compiled view of the traced run, and its claim on ``read``.

        ``tally(x, domains, numbers, claim)`` counts every draw assignment
        in ``product(*domains)`` at inputs x straight into its cell.  Each
        domain is the draw's whole domain, ``range(n)``, or one value; a
        draw absorbed into another raises ``ValueError`` where the other's
        domain is not whole and its own is not one value.  The
        view values and the read values of a run are the values of the
        nodes ``view`` holds and of the outcome's nodes ``read`` names,
        each a flat tuple, the view's in first-use order.  ``numbers`` maps
        the view values seen so far to their view's number, and a view
        first seen gets the next one.  ``claim(leaves)`` returns (cells,
        target) for the read values ``leaves``; it is called once per
        distinct leaves of the call, and each run adds its count to
        ``cells[(number, target)]``.  An outcome node that ``read`` does
        not name is not computed.  ``show(values)`` returns ``view`` with
        every node's value in place, and ``fill(leaves)`` returns
        ``outcome`` with the read values in place and every other node
        left as it is.
        """
        values, leaves = list(_refs(view)), list(read)
        source = self._kernel(values, leaves)
        namespace = dict(self.consts, product=product)
        exec(source, namespace)
        return namespace["tally"], _filler(outcome, leaves), _filler(view, values)


def _rebuilt(kind) -> bool:
    """Whether a value of ``kind`` is rebuilt from its fields: a dataclass that inits each."""
    return dataclasses.is_dataclass(kind) and all(f.init for f in dataclasses.fields(kind))


def _filled(value, fill):
    """``value`` with ``fill(node)`` in place of each node, in first-use order."""
    kind = type(value)
    if kind is Node:
        return fill(value)
    if kind is int or kind is str or kind is bool or value is None:
        return value
    if kind is tuple:
        return tuple([_filled(v, fill) for v in value])
    if kind is list:
        return [_filled(v, fill) for v in value]
    if kind is dict:
        return {_filled(k, fill): _filled(v, fill) for k, v in value.items()}
    if _rebuilt(kind):
        return kind(**{f.name: _filled(getattr(value, f.name), fill)
                       for f in dataclasses.fields(kind)})
    raise Untraceable(f"cannot rebuild a {kind.__name__}")


def _filler(value, refs: list):
    """A function of the values of the nodes ``refs`` that returns ``value`` with each of them
    in place, and every other node left as it is: ``value`` itself when ``refs`` is empty."""
    if not refs:
        return lambda _shown: value

    def fill(shown):
        env = dict(zip(refs, shown))
        return _filled(value, lambda node: env.get(node.ref, node))
    return fill


def _refs(value) -> dict:
    """The refs of the nodes that ``value`` holds, in first-use order, as a dict's keys."""
    found: dict = {}
    _filled(value, lambda node: found.setdefault(node.ref))
    return found


def _tuple(items) -> str:
    """A tuple display of the sources ``items``."""
    return "(" + "".join(f"{item}, " for item in items) + ")"


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
