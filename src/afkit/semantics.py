"""Finite structures, model checking, layered structures with a primitive
length bound, products, and bounded agreement.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

from . import syntax
from .syntax import (Atom, And, Or, Not, Implies, Iff, Forall, Exists,
                     Formula, FormulaError, free_vars, var_index)
from . import words as W


class SemanticsError(ValueError):
    """Domain error raised by structure operations."""


class LayerError(SemanticsError):
    """A layered structure was asked about a tuple above its bound, or an
    extension step was inconsistent."""


@dataclass(frozen=True)
class Structure:
    domain: tuple
    extensions: Mapping  # (name, arity) -> frozenset of tuples

    def __post_init__(self):
        dom = set(self.domain)
        for (name, arity), ext in self.extensions.items():
            for t in ext:
                if len(t) != arity:
                    raise SemanticsError(
                        f"tuple {t!r} in {name}/{arity} has wrong arity")
                if not set(t) <= dom:
                    raise SemanticsError(
                        f"tuple {t!r} in {name}/{arity} leaves the domain")

    def holds(self, name: str, args: tuple) -> bool:
        key = (name, len(args))
        if key not in self.extensions:
            raise SemanticsError(f"predicate {name}/{len(args)} not interpreted")
        return args in self.extensions[key]


def make_structure(domain: Sequence, extensions: Mapping) -> Structure:
    exts = {k: frozenset(map(tuple, v)) for k, v in extensions.items()}
    return Structure(tuple(domain), exts)


def structure_from_json(text: str) -> Structure:
    data = json.loads(text)
    if not isinstance(data, dict) or "domain" not in data:
        raise SemanticsError("structure JSON needs a 'domain' key")
    domain = data["domain"]
    if not isinstance(domain, list) or any(isinstance(a, (list, dict))
                                           for a in domain):
        raise SemanticsError("'domain' must be a list of scalars")
    preds = data.get("predicates", {})
    if not isinstance(preds, dict):
        raise SemanticsError("'predicates' must be an object")
    exts: dict = {}
    for key, val in preds.items():
        name, _, arity_s = key.partition("/")
        if not arity_s.isdigit():
            raise SemanticsError(f"predicate key {key!r} is not 'name/arity'")
        arity = int(arity_s)
        if arity == 0:
            if not isinstance(val, bool):
                raise SemanticsError(f"{key}: proposition letters are booleans")
            exts[(name, 0)] = frozenset([()]) if val else frozenset()
        elif not isinstance(val, list) or not set(map(type, val)) <= {list}:
            raise SemanticsError(f"{key}: tuples are lists of domain elements")
        else:
            try:
                exts[(name, arity)] = frozenset(map(tuple, val))
            except TypeError:
                raise SemanticsError(f"{key}: tuples are lists of domain elements")
    return Structure(tuple(domain), exts)


def structure_to_json(s: Structure) -> str:
    preds: dict = {}
    for (name, arity), ext in sorted(s.extensions.items()):
        if arity == 0:
            preds[f"{name}/0"] = () in ext
        else:
            preds[f"{name}/{arity}"] = sorted(list(t) for t in ext)
    return json.dumps({"domain": list(s.domain), "predicates": preds},
                      indent=2, sort_keys=True)


def complete_signature(s: Structure, f: Formula) -> Structure:
    """Interpret any predicate of f missing from s with the empty extension.
    Returns s itself when nothing is missing.  The tuples of s are not
    checked again: s was checked when it was built, and an empty extension
    needs no check."""
    missing = {(name, arity): frozenset()
               for name, arity in syntax.signature(f).items()
               if (name, arity) not in s.extensions}
    if not missing:
        return s
    completed = object.__new__(Structure)
    object.__setattr__(completed, "domain", s.domain)
    object.__setattr__(completed, "extensions", {**s.extensions, **missing})
    return completed


# ---------------------------------------------------------------------------
# Model checking

def _quantifier_chain(f: Formula):
    cls = type(f)
    chain = []
    while isinstance(f, cls):
        chain.append(f.var)
        f = f.body
    return cls, chain, f


def _guarded(cls, chain: list, body: Formula):
    """The guard atom of ``forall chain (guard -> phi)`` or ``exists chain
    (... & guard & ...)`` together with the formulas that must hold at each
    of its matches, or None.  The guard must mention every quantified
    variable."""
    if cls is Forall:
        if (isinstance(body, Implies) and isinstance(body.left, Atom)
                and set(chain) <= set(body.left.args)):
            return body.left, (body.right,)
    elif isinstance(body, And):
        for i, conj in enumerate(body.args):
            if isinstance(conj, Atom) and set(chain) <= set(conj.args):
                return conj, body.args[:i] + body.args[i + 1:]
    return None


def _getter(positions: list):
    """The function taking a tuple to its entries at ``positions``."""
    if len(positions) == 1:
        i, = positions
        return lambda t: (t[i],)
    return operator.itemgetter(*positions) if positions else lambda t: ()


def _guard_index(s: Structure, guard: Atom, bound: tuple,
                 quantified: tuple) -> dict:
    """Map the values of the bound variables to the set of value tuples of
    the quantified variables that make the guard true.  A tuple of the
    extension matches only if it agrees at every repeated variable."""
    ext = s.extensions.get((guard.pred, guard.arity))
    if ext is None:
        raise SemanticsError(f"predicate {guard.pred}/{guard.arity} not interpreted")
    first: dict = {}
    for i, a in enumerate(guard.args):
        first.setdefault(a, i)
    repeats = [(first[a], i) for i, a in enumerate(guard.args) if first[a] != i]
    left = _getter([i for i, _ in repeats])
    right = _getter([j for _, j in repeats])
    key_of = _getter([first[a] for a in bound])
    row_of = _getter([first[a] for a in quantified])
    index: dict = {}
    for t in ext:
        if left(t) == right(t):
            index.setdefault(key_of(t), set()).add(row_of(t))
    return index


def evaluate(s: Structure, f: Formula,
             assignment: Union[Sequence, Mapping] = ()) -> bool:
    """Standard satisfaction.  ``assignment`` binds x1..xk positionally, or
    is a name-to-element mapping.

    A guarded quantifier, ``forall xs (g -> phi)`` or ``exists xs (g & phi)``
    with an atom g on every variable of xs, ranges only over the matches of
    g: they are looked up in an index of g's extension keyed on its bound
    argument positions, built once per call.  Every other quantifier
    enumerates the domain."""
    if isinstance(assignment, Mapping):
        env = dict(assignment)
    else:
        env = {syntax.var(i + 1): a for i, a in enumerate(assignment)}
    return _eval(s, f, env, {})


def _eval(s: Structure, f: Formula, env: dict, indexes: dict) -> bool:
    if isinstance(f, Atom):
        try:
            args = tuple(env[a] for a in f.args)
        except KeyError as e:
            raise SemanticsError(f"unbound variable {e.args[0]!r}")
        return s.holds(f.pred, args)
    if isinstance(f, syntax.Unit):
        return _eval(s, f.body, env, indexes)
    if isinstance(f, Not):
        return not _eval(s, f.body, env, indexes)
    if isinstance(f, And):
        return all(_eval(s, c, env, indexes) for c in f.args)
    if isinstance(f, Or):
        return any(_eval(s, c, env, indexes) for c in f.args)
    if isinstance(f, Implies):
        return (not _eval(s, f.left, env, indexes)) or _eval(s, f.right, env, indexes)
    if isinstance(f, Iff):
        return _eval(s, f.left, env, indexes) == _eval(s, f.right, env, indexes)
    cls, chain, body = _quantifier_chain(f)
    test = all if cls is Forall else any
    guarded = _guarded(cls, chain, body)
    if guarded is not None and free_vars(body) <= set(env) | set(chain):
        guard, rest = guarded
        # A quantified variable shadows any outer binding of its name.
        bound = tuple(dict.fromkeys(a for a in guard.args if a not in chain))
        quantified = tuple(dict.fromkeys(a for a in guard.args if a in chain))
        key = (guard.pred, guard.args, bound)
        if key not in indexes:
            indexes[key] = _guard_index(s, guard, bound, quantified)
        rows = indexes[key].get(tuple(env[a] for a in bound), ())
        return test(all(_eval(s, g, {**env, **dict(zip(quantified, row))},
                              indexes) for g in rest)
                    for row in rows)
    return test(_eval(s, f.body, {**env, f.var: a}, indexes) for a in s.domain)


# ---------------------------------------------------------------------------
# Layered structures

@dataclass
class LayeredStructure:
    """A partial structure whose extensions are defined exactly on tuples of
    primitive length at most ``bound``.  In-bound tuples default to false;
    out-of-bound queries raise rather than answer."""

    domain: tuple
    bound: int
    arities: Mapping  # name -> arity
    facts: dict = field(default_factory=dict)  # (name, tuple) -> bool
    overbound_queries: int = 0  # instrumentation; must stay 0 in checks

    def __post_init__(self):
        if self.bound < 1:
            raise LayerError("primitive length bound must be >= 1")
        for (name, t) in self.facts:
            if not self.defined(t):
                raise LayerError(f"fact {name}{t!r} above bound {self.bound}")

    def defined(self, t: tuple) -> bool:
        return not t or W.primitive_length(t) <= self.bound

    def holds(self, name: str, args: tuple) -> bool:
        if name not in self.arities or self.arities[name] != len(args):
            raise SemanticsError(f"predicate {name}/{len(args)} not interpreted")
        if not self.defined(args):
            self.overbound_queries += 1
            raise LayerError(
                f"tuple {args!r} has primitive length {W.primitive_length(args)}"
                f" > bound {self.bound}")
        return self.facts.get((name, args), False)

    def set_fact(self, name: str, args: tuple, value: bool) -> None:
        if not self.defined(args):
            raise LayerError(f"cannot store {name}{args!r} above bound {self.bound}")
        self.facts[(name, args)] = value

    @property
    def extensions(self) -> dict:
        """The true facts as ``(name, arity) -> frozenset of tuples``, the
        shape of ``Structure.extensions``.  Every stored fact is in bound."""
        exts: dict = {(name, arity): set() for name, arity in self.arities.items()}
        for (name, args), value in self.facts.items():
            if value and (name, len(args)) in exts:
                exts[(name, len(args))].add(args)
        return {key: frozenset(ext) for key, ext in exts.items()}


def layered_from_structure(s: Structure, bound: int) -> LayeredStructure:
    """Restrict a total structure to its tuples of primitive length <= bound."""
    arities = {name: arity for (name, arity) in s.extensions}
    layer = LayeredStructure(tuple(s.domain), bound, arities)
    for (name, arity), ext in s.extensions.items():
        for t in ext:
            if layer.defined(t):
                layer.set_fact(name, t, True)
    return layer


def evaluate_layered(layer: LayeredStructure, f: Formula,
                     assignment: Sequence = ()) -> bool:
    """Evaluate an adjacent formula with at most ``bound`` variables by the
    same recursion as ``evaluate``: guarded quantifiers look their matches
    up in the layer's true facts, every other atom is asked of
    ``LayeredStructure.holds``.  By construction every queried tuple stays
    within the bound."""
    normal = syntax.index_normal(f)
    report = syntax.classify(f)
    if not report.adjacent:
        raise FormulaError("formula is not adjacent; layered evaluation undefined")
    depth = max((var_index(n) or 0 for n in free_vars(f)), default=0)
    width = max([depth, syntax.max_index(normal)] +
                [var_index(g.var) or 0 for g in syntax.subformulas(normal)
                 if isinstance(g, (Forall, Exists))])
    if width > layer.bound:
        raise FormulaError(
            f"formula uses {width} variables, above layer bound {layer.bound}")

    env = {syntax.var(i + 1): a for i, a in enumerate(assignment)}
    return _eval(layer, normal, env, {})


def extend_layer(layer: LayeredStructure, assignments: Mapping) -> LayeredStructure:
    """Extend a bound-k layered structure to bound k+1.

    ``assignments`` maps primitive (k+1)-tuples (one per inverse pair) to a
    type: a mapping (pred, walk) -> bool over adjacent walks on [1, k+1] of
    the predicate's arity.  Walks that land on tuples already defined in the
    layer must agree with it; the rest become the new facts.  No tuple may
    receive two values.
    """
    import itertools
    k = layer.bound
    new_bound = k + 1
    covered: dict = {}  # canonical tuple -> source tuple
    for b in assignments:
        b = tuple(b)
        if len(b) != new_bound:
            raise LayerError(f"{b!r} is not a {new_bound}-tuple")
        if not W.is_primitive(b):
            raise LayerError(f"{b!r} is not primitive")
        canon = min(b, tuple(reversed(b)), key=lambda t: [str(x) for x in t])
        if canon in covered and covered[canon] != b:
            raise LayerError(f"inverse pair of {b!r} assigned twice")
        if canon in covered:
            raise LayerError(f"{b!r} assigned twice")
        covered[canon] = b
    for t in itertools.product(layer.domain, repeat=new_bound):
        if W.primitive_length(t) == new_bound:
            canon = min(t, tuple(reversed(t)), key=lambda u: [str(x) for x in u])
            if canon not in covered:
                raise LayerError(f"primitive tuple {t!r} not covered")

    out = LayeredStructure(layer.domain, new_bound, dict(layer.arities),
                           dict(layer.facts))
    writes: dict = {}
    for b, typ in assignments.items():
        b = tuple(b)
        for (name, walk), value in typ.items():
            if name not in layer.arities:
                raise SemanticsError(f"unknown predicate {name}")
            if len(walk) != layer.arities[name]:
                raise LayerError(f"walk {walk!r} has wrong length for {name}")
            if not W.is_adjacent(walk) or not all(1 <= p <= new_bound for p in walk):
                raise LayerError(f"walk {walk!r} is not adjacent on [1,{new_bound}]")
            t = W.apply_walk(b, walk)
            plen = W.primitive_length(t) if t else 0
            if plen <= k:
                if layer.facts.get((name, t), False) != value:
                    raise LayerError(
                        f"type for {b!r} disagrees with the layer on {name}{t!r}")
            else:
                prev = writes.get((name, t))
                if prev is not None and prev != value:
                    raise LayerError(f"two values assigned to {name}{t!r}")
                writes[(name, t)] = value
                out.set_fact(name, t, value)
    return out


# ---------------------------------------------------------------------------
# Products and bounded agreement

def product(b: Structure, index_set: Sequence) -> Structure:
    """Domain B x I; a predicate holds on a tuple of pairs iff it holds on
    the first projections."""
    if not index_set:
        raise SemanticsError("index set must be non-empty")
    import itertools
    domain = tuple((e, i) for e in b.domain for i in index_set)
    exts: dict = {}
    for (name, arity), ext in b.extensions.items():
        new = set()
        for t in ext:
            for ix in itertools.product(index_set, repeat=arity):
                new.add(tuple(zip(t, ix)))
        exts[(name, arity)] = frozenset(new)
    return Structure(domain, exts)


def agree_up_to(a: Structure, b: Structure, bound: int) -> bool:
    """True iff the structures agree on every tuple of primitive length at
    most ``bound``."""
    if a.domain != b.domain:
        raise SemanticsError("structures have different domains")
    if set(a.extensions) != set(b.extensions):
        raise SemanticsError("structures have different signatures")
    for key in a.extensions:
        for t in a.extensions[key] ^ b.extensions[key]:
            if not t or W.primitive_length(t) <= bound:
                return False
    return True
