"""Finite structures, model checking, layered structures with a primitive
length bound, products, and bounded agreement.
"""

from __future__ import annotations

import functools
import itertools
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
            if _fits(dom, arity, ext):
                continue
            for t in ext:
                if len(t) != arity:
                    raise SemanticsError(
                        f"tuple {t!r} in {name}/{arity} has wrong arity")
                if not dom.issuperset(t):
                    raise SemanticsError(
                        f"tuple {t!r} in {name}/{arity} leaves the domain")

    @classmethod
    def _unchecked(cls, domain: tuple, extensions: Mapping) -> "Structure":
        """A structure built without the check of ``__post_init__``, for
        callers whose tuples are made from the domain with the right
        arity, so that the check cannot fail."""
        s = object.__new__(cls)
        object.__setattr__(s, "domain", domain)
        object.__setattr__(s, "extensions", extensions)
        return s

    def holds(self, name: str, args: tuple) -> bool:
        key = (name, len(args))
        if key not in self.extensions:
            raise SemanticsError(f"predicate {name}/{len(args)} not interpreted")
        return args in self.extensions[key]

    @functools.cached_property
    def _guard_tables(self) -> dict:
        """The evaluator's guard match tables, kept for the life of the
        structure: guard pattern -> (the extension it was read from, the
        table)."""
        return {}


def _fits(dom: set, arity: int, tuples) -> bool:
    """Whether each of ``tuples`` (tuples or lists) has ``arity`` entries,
    all in ``dom``: the test of a structure's extensions, in C."""
    return set(map(len, tuples)) <= {arity} and dom.issuperset(
        itertools.chain.from_iterable(tuples))


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
    dom, fits = set(domain), True
    for key, val in preds.items():
        name, _, arity_s = key.partition("/")
        if not (arity_s.isascii() and arity_s.isdigit()):
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
            # The decoded lists are read in file order, faster than the
            # frozenset's hash order.
            fits = fits and _fits(dom, arity, val)
    if fits:
        return Structure._unchecked(tuple(domain), exts)
    # The checked constructor names the tuple that fails.
    return Structure(tuple(domain), exts)


def _json_scalar(a) -> str:
    if a is None or isinstance(a, (str, int, float)):
        return json.dumps(a)
    raise SemanticsError(f"domain element {a!r} is not a JSON scalar")


def _layout(domain: list, preds: Mapping) -> str:
    """A structure's JSON text as ``json.dumps`` with ``indent=2,
    sort_keys=True`` lays it out: two spaces per level, one scalar per
    line, predicate keys sorted as strings.  ``domain`` holds the encoded
    elements, and ``preds`` maps each predicate (name, arity) to its truth
    value if arity is 0, and otherwise to the list of the encoded elements
    of its tuples, tuple after tuple in the order they are written."""
    body = {}
    for (name, arity), value in preds.items():
        if arity == 0:
            text = "true" if value else "false"
        elif not value:
            text = "[]"
        else:
            # Each element is followed by the separator within a tuple or
            # the one between tuples, interleaved by slice assignment.
            seps = ([",\n        "] * (arity - 1)
                    + ["\n      ],\n      [\n        "]
                    ) * (len(value) // arity)
            seps[-1] = "\n      ]\n    ]"
            parts = [None] * (2 * len(value))
            parts[::2] = value
            parts[1::2] = seps
            text = "[\n      [\n        " + "".join(parts)
        body[f"{name}/{arity}"] = text
    lines = [f"    {json.dumps(key)}: {body[key]}" for key in sorted(body)]
    elems = ",\n".join(map("    %s".__mod__, domain))
    return ("{\n  \"domain\": " + (f"[\n{elems}\n  ]" if domain else "[]")
            + ",\n  \"predicates\": "
            + ("{\n" + ",\n".join(lines) + "\n  }" if lines else "{}")
            + "\n}")


def structure_to_json(s: Structure) -> str:
    """The structure in the format ``structure_from_json`` reads, laid out
    by ``_layout``, with each predicate's tuples sorted as element lists.
    Domain elements must be JSON scalars."""
    if all(type(a) is str for a in s.domain):
        # Equal strings encode equally: encode each element once.
        encoded = dict(zip(s.domain, map(_json_scalar, s.domain)))
        enc = encoded.__getitem__
    else:
        # 1, 1.0 and True, or 0.0 and -0.0, are equal but encode apart.
        enc = _json_scalar
    domain = list(map(enc, s.domain))
    return _layout(domain, {
        (name, arity): (() in ext if arity == 0 else
                        list(map(enc, itertools.chain.from_iterable(
                            sorted(ext)))))
        for (name, arity), ext in s.extensions.items()})


def ids_to_json(names: Sequence[str], extensions: Mapping) -> str:
    """``structure_to_json`` of the structure over the distinct strings
    ``names`` in which each predicate (name, arity) holds of the rows of
    ``extensions[(name, arity)]``, an integer array of shape (count, arity)
    whose entry i stands for ``names[i]``.  The rows are ordered by one
    ``np.lexsort`` over the ranks of their elements among the sorted
    names, which is the order of the tuples of names (e10 before e2)."""
    import numpy as np
    rank = np.empty(len(names), dtype=np.intp)
    rank[sorted(range(len(names)), key=names.__getitem__)] = \
        np.arange(len(names))
    enc = list(map(json.dumps, names))
    preds = {}
    for (name, arity), rows in extensions.items():
        if arity == 0:
            preds[(name, 0)] = len(rows) > 0
            continue
        # lexsort's last key is its first: the first column goes last.
        order = np.lexsort(rank[rows].T[::-1])
        preds[(name, arity)] = list(map(enc.__getitem__,
                                        rows[order].ravel().tolist()))
    return _layout(enc, preds)


def complete_signature(s: Structure, signature: Mapping) -> Structure:
    """Interpret any predicate of ``signature`` (name -> arity, as
    ``syntax.signature`` gives it) missing from s with the empty extension.
    Returns s itself when nothing is missing.  The tuples of s are not
    checked again: s was checked when it was built, and an empty extension
    needs no check."""
    missing = {(name, arity): frozenset()
               for name, arity in signature.items()
               if (name, arity) not in s.extensions}
    if not missing:
        return s
    return Structure._unchecked(s.domain, {**s.extensions, **missing})


# ---------------------------------------------------------------------------
# Model checking

def _getter(positions: list):
    """The function taking a tuple to its entries at ``positions``."""
    if len(positions) == 1:
        i, = positions
        return lambda t: (t[i],)
    return operator.itemgetter(*positions) if positions else lambda t: ()


def _guard_index(exts: Mapping, guard: Atom, bound: tuple) -> dict:
    """Map the values of the bound variables to the guard's matches there:
    their count, and their columns, one per distinct variable of the guard
    in order of first occurrence.  A tuple of the extension matches only if
    it agrees at every repeated variable, so its row of distinct variables
    is its own and no two matches share one."""
    ext = exts.get((guard.pred, guard.arity))
    if ext is None:
        raise SemanticsError(f"predicate {guard.pred}/{guard.arity} not interpreted")
    first: dict = {}
    for i, a in enumerate(guard.args):
        first.setdefault(a, i)
    repeats = [(first[a], i) for i, a in enumerate(guard.args) if first[a] != i]
    if repeats:
        left = _getter([i for i, _ in repeats])
        right = _getter([j for _, j in repeats])
        ext = [t for t in ext if left(t) == right(t)]
    row_of = _getter(list(first.values()))
    if not bound:
        rows = list(map(row_of, ext)) if repeats else ext
        return {(): (len(rows), tuple(zip(*rows)))}
    key_of = _getter([first[a] for a in bound])
    index: dict = {}
    for t in ext:
        index.setdefault(key_of(t), []).append(row_of(t))
    return {k: (len(rows), tuple(zip(*rows))) for k, rows in index.items()}


def evaluate(s: Structure, f: Formula,
             assignment: Union[Sequence, Mapping] = ()) -> bool:
    """Standard satisfaction.  ``assignment`` binds x1..xk positionally, or
    is a name-to-element mapping.

    The formula is compiled once per call into closures over one environment
    list, with a slot per assigned name and per quantifier; each variable
    occurrence reads the slot of its innermost binder, so shadowing is
    settled at compile time.  A guarded quantifier, ``forall xs (g -> phi)``
    or ``exists xs (g & phi)`` with an atom g on every variable of xs, as
    ``syntax.guard_splits`` finds it, ranges only over the matches of g:
    they are looked up in one table of g's extension keyed on its bound
    argument positions, holding the match count and one column per
    distinct variable of g, built on first use and kept with the
    structure, so later calls reuse it while g's extension is the same
    frozenset.  The matches are zipped from the quantified variables'
    columns; when phi is one atom over g's variables, phi is tested on the
    image of the matches, zipped from the same columns, in one C-level
    pass, so a sentence such as ``forall xs (F(xs) -> F(perm xs))`` is one
    containment test, and ``forall xs (F(xs) -> F(xs))`` none.  Otherwise
    the leading literal tests of the body, under forall the conjuncts of
    the antecedent A of ``phi = A -> C`` and under exists the conjuncts
    other than g, nested ``And``s flattened, up to the first that is not an
    atom on the quantified variables, its negation or the biconditional of
    two such, filter the matches in C-level stages (``compress`` over
    ``tee``d rows, with ``itemgetter``, membership, ``not_`` and ``eq``
    maps), and the remaining closures run only on the matches that pass.
    The chain is lazy: a match is tested stage by stage, and the rest of
    its body is asked, before the next match is read, so the atoms asked,
    their order and the point where an error is raised are those of a
    loop that tests each match in turn.
    On a ``Structure``, a guarded block whose guard is dense, with no more
    assignments to its k distinct variables than tuples in its extension
    (``len(domain) ** k <= len(extension)``), enumerates the domain
    instead, provided every predicate of its body is interpreted: building
    the table scans every tuple of the extension, so at least as many as
    the loops over the domain try, and on a dense guard the table saves no
    work.  Sparse guards keep the table, as do the guards of a
    ``LayeredStructure``, so that its ``holds`` calls and
    ``overbound_queries`` stay those of the match loop, and blocks that
    read an uninterpreted predicate, so that the error raised stays the
    one the first match meets.
    Every other quantifier enumerates the domain, except that one whose
    variable is not free in its body evaluates the body once.  An unbound
    variable or an uninterpreted predicate raises ``SemanticsError`` when
    evaluation reaches it."""
    if isinstance(assignment, Mapping):
        env = dict(assignment)
    else:
        env = {syntax.var(i + 1): a for i, a in enumerate(assignment)}
    return _Compiler(s).run(f, env)


def _and(left, right):
    return lambda env: left(env) and right(env)


def _or(left, right):
    return lambda env: left(env) or right(env)


def _connective(parts: list, stop: bool):
    """And (``stop`` False) or Or (``stop`` True) of compiled parts, left to
    right, stopping at the first part that decides it: a right fold of
    short-circuit pairs, ``p1 op (p2 op (...))``, so the first part is asked
    without descending into the others, and one part is itself."""
    if not parts:
        return lambda env: not stop
    pair = _or if stop else _and
    return functools.reduce(lambda right, left: pair(left, right),
                            reversed(parts))


def _conjuncts(fs) -> list:
    """The conjuncts of the formulas ``fs``, left to right, with nested
    ``And``s flattened."""
    return [c for g in fs
            for c in (_conjuncts(g.args) if isinstance(g, And) else (g,))]


def _images(at: list, rows):
    """The argument tuples at the positions ``at`` of each of ``rows``; with
    no positions, an endless ``repeat(())``, which the stages read only in
    step with the rows."""
    if len(at) == 1:
        return zip(map(operator.itemgetter(*at), rows))
    return map(operator.itemgetter(*at), rows) if at else itertools.repeat(())


def _filtered(stages: list, cols: tuple):
    """The rows zipped from the columns ``cols`` that pass every stage, as
    one lazy chain: each row is tested by the stages in order, and stops at
    the first it fails, before the next row is read.  The first stage reads
    its arguments from the columns; each later one from a ``tee`` of the
    rows that the stages before it passed."""
    rows = zip(*cols)
    if not stages:
        return rows
    first, *later = stages
    rows = itertools.compress(rows, first(
        lambda at: zip(*map(cols.__getitem__, at)) if at
        else itertools.repeat(())))
    for stage in later:
        rows, probe = itertools.tee(rows)
        rows = itertools.compress(
            rows, stage(lambda at: _images(at, probe.__copy__())))
    return rows


class _Compiler:
    """Compiles a formula against one structure into nested closures that
    take the environment list; one per ``evaluate`` call.  Guard tables
    are kept with a ``Structure``, which does not change; a
    ``LayeredStructure`` can, so its tables last for the call."""

    def __init__(self, s):
        self.s = s
        self.exts = s.extensions
        self.size = 0
        self.tables = s._guard_tables if isinstance(s, Structure) else {}

    def run(self, f: Formula, assignment: dict) -> bool:
        scope = {name: i for i, name in enumerate(assignment)}
        self.size = len(scope)
        test = self.compile(f, scope)
        return test(list(assignment.values()) + [None] * (self.size - len(scope)))

    def slots(self, names: tuple, scope: dict) -> dict:
        """``scope`` with fresh slots for ``names``."""
        lo = self.size
        self.size += len(names)
        return {**scope, **{a: lo + i for i, a in enumerate(names)}}

    def member(self, f: Atom):
        """The test of an argument tuple against f's predicate: a set lookup
        in a Structure; ``holds`` in a LayeredStructure, so that out-of-bound
        queries are counted, and for an uninterpreted predicate, so that it
        raises when reached."""
        ext = self.exts.get((f.pred, f.arity))
        if ext is None or isinstance(self.s, LayeredStructure):
            return functools.partial(self.s.holds, f.pred)
        return ext.__contains__

    def matches(self, guard: Atom, bound: tuple, scope: dict):
        """The function taking an environment to the (count, columns) of the
        guard's matches at the bound variables' values.  The table is built
        on first use and reused while the guard's extension is the
        frozenset it was built from."""
        key_of = _getter([scope[a] for a in bound])
        index = None

        def lookup(env):
            nonlocal index
            if index is None:
                key = (guard.pred, guard.args, bound)
                ext = self.exts.get((guard.pred, guard.arity))
                entry = self.tables.get(key)
                if entry is not None and entry[0] is ext:
                    index = entry[1]
                else:
                    index = _guard_index(self.exts, guard, bound)
                    if type(ext) is frozenset:
                        self.tables[key] = (ext, index)
            return index.get(key_of(env), (0, ()))
        return lookup

    def compile(self, f: Formula, scope: dict):
        if isinstance(f, Atom):
            unbound = [a for a in f.args if a not in scope]
            if unbound:
                message = f"unbound variable {unbound[0]!r}"

                def fail(env):
                    raise SemanticsError(message)
                return fail
            get = _getter([scope[a] for a in f.args])
            member = self.member(f)
            return lambda env: member(get(env))
        if isinstance(f, syntax.Unit):
            return self.compile(f.body, scope)
        if isinstance(f, Not):
            body = self.compile(f.body, scope)
            return lambda env: not body(env)
        if isinstance(f, (And, Or)):
            return _connective([self.compile(g, scope) for g in f.args],
                               isinstance(f, Or))
        if isinstance(f, Implies):
            left, right = self.compile(f.left, scope), self.compile(f.right, scope)
            return lambda env: not left(env) or right(env)
        if isinstance(f, Iff):
            left, right = self.compile(f.left, scope), self.compile(f.right, scope)
            return lambda env: left(env) == right(env)
        return self.quantifier(f, scope)

    def domain_loop(self, f: Formula, stop: bool, scope: dict):
        """Forall (``stop`` False) or exists (``stop`` True) over the domain,
        or one evaluation of the body when it never reads the variable."""
        domain = self.s.domain
        if f.var not in free_vars(f.body):
            if not domain:
                return lambda env: not stop
            return self.compile(f.body, scope)
        inner_scope = self.slots((f.var,), scope)
        i = inner_scope[f.var]
        body = self.compile(f.body, inner_scope)

        def quantify(env):
            for env[i] in domain:
                if body(env) == stop:
                    return stop
            return not stop
        return quantify

    def quantifier(self, f: Formula, scope: dict):
        """A guarded quantifier over the guard's matches that pass the
        body's leading literal tests, each written to the chain's slots in
        turn, unless its guard is ``dense``; any other over the domain.
        The guard is that of the first split whose guard holds the chain's
        variables, except a body that is one atom, which is left to the
        domain."""
        cls, chain, body = syntax.quantifier_block(f)
        stop = cls is Exists
        guarded = next(((guard, rest) for guard, rest
                        in syntax.guard_splits(cls, body)
                        if guard is not body and set(chain) <= set(guard.args)),
                       None)
        if guarded is None or not free_vars(body) <= scope.keys() | set(chain):
            return self.domain_loop(f, stop, scope)
        guard, rest = guarded
        if self.dense(guard, body):
            return self.domain_loop(f, stop, scope)
        # A quantified variable shadows any outer binding of its name.
        bound = tuple(dict.fromkeys(a for a in guard.args if a not in chain))
        variables = tuple(dict.fromkeys(guard.args))
        matches = self.matches(guard, bound, scope)
        if (len(rest) == 1 and isinstance(rest[0], Atom)
                and set(rest[0].args) <= set(guard.args)):
            return self.one_atom(guard, variables, matches, rest[0], stop)
        quantified = tuple(a for a in variables if a in chain)
        columns = _getter([variables.index(a) for a in quantified])
        inner_scope = self.slots(quantified, scope)
        lo = inner_scope[quantified[0]]
        hi = lo + len(quantified)
        # The conjuncts that a match must pass before the rest is asked:
        # under exists the body's, under forall the antecedent's.
        if stop:
            parts, then = _conjuncts(rest), None
        elif isinstance(rest[0], Implies):
            parts, then = _conjuncts((rest[0].left,)), rest[0].right
        else:
            parts, then = [], rest[0]
        stages = []
        for g in parts:
            stage = self.test(g, quantified)
            if stage is None:
                break
            stages.append(stage)
        parts = parts[len(stages):]
        body = _connective([self.compile(g, inner_scope) for g in parts], False)
        if then is not None:
            antecedent, consequent = body, self.compile(then, inner_scope)
            body = consequent if not parts else (
                lambda env: not antecedent(env) or consequent(env))

        def quantify(env):
            count, cols = matches(env)
            if count:
                for env[lo:hi] in _filtered(stages, columns(cols)):
                    if body(env) == stop:
                        return stop
            return not stop
        return quantify

    def dense(self, guard: Atom, body: Formula) -> bool:
        """Whether the guarded block with this ``body`` is left to the
        domain: in a Structure, when the guard's distinct variables have
        no more assignments than its extension has tuples, and every
        predicate the body reads is interpreted, so that no error depends
        on the order in which bindings are tried."""
        ext = self.exts.get((guard.pred, guard.arity))
        return (isinstance(self.s, Structure) and ext is not None
                and len(self.s.domain) ** len(set(guard.args)) <= len(ext)
                and all((g.pred, g.arity) in self.exts
                        for g in syntax.atoms(body)))

    def test(self, f: Formula, quantified: tuple):
        """A literal test of f over rows of the ``quantified`` variables, or
        None when f is not one: an atom on those variables, the negation of
        a test or the biconditional of two.  The test is the function taking
        ``images``, which maps argument positions in a row to the iterator
        of the argument tuples there, row by row, to the iterator of f's
        truth values, each asked of ``member`` as the atom's closure asks
        it."""
        if isinstance(f, Not):
            body = self.test(f.body, quantified)
            return body and (lambda images: map(operator.not_, body(images)))
        if isinstance(f, Iff):
            left = self.test(f.left, quantified)
            right = left and self.test(f.right, quantified)
            return right and (lambda images: map(operator.eq, left(images),
                                                 right(images)))
        if not isinstance(f, Atom) or not set(f.args) <= set(quantified):
            return None
        at, member = [quantified.index(a) for a in f.args], self.member(f)
        return lambda images: map(member, images(at))

    def one_atom(self, guard: Atom, variables: tuple, matches, atom: Atom,
                 stop: bool):
        """The guarded quantifier whose body is one atom over the guard's
        ``variables``: the atom's argument tuples are zipped from the
        columns of the guard's matches, as many as there are matches, and
        tested all at once.  The guard itself holds at each of its
        matches."""
        if atom == guard:
            return lambda env: matches(env)[0] > 0 or not stop
        columns = _getter([variables.index(a) for a in atom.args])
        ext = self.exts.get((atom.pred, atom.arity))
        if ext is None or isinstance(self.s, LayeredStructure):
            member, test = self.member(atom), any if stop else all

            def contains(images):
                return test(map(member, images))
        elif stop:
            def contains(images):
                return not ext.isdisjoint(images)
        else:
            contains = ext.issuperset

        def quantify(env):
            count, cols = matches(env)
            if not count:
                return not stop
            return contains(zip(*columns(cols)) if atom.args
                            else itertools.repeat((), count))
        return quantify


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
    same compiled evaluator as ``evaluate``: guarded quantifiers look their
    matches up in the layer's true facts, every other atom is asked of
    ``LayeredStructure.holds``.  By construction every queried tuple stays
    within the bound."""
    normal = syntax.adjacent_form(f)
    if normal is None:
        raise FormulaError("formula is not adjacent; layered evaluation undefined")
    depth = max((var_index(n) or 0 for n in free_vars(f)), default=0)
    width = max([depth, syntax.max_index(normal)] +
                [var_index(g.var) or 0 for g in syntax.subformulas(normal)
                 if isinstance(g, (Forall, Exists))])
    if width > layer.bound:
        raise FormulaError(
            f"formula uses {width} variables, above layer bound {layer.bound}")

    env = {syntax.var(i + 1): a for i, a in enumerate(assignment)}
    return _Compiler(layer).run(normal, env)


def extend_layer(layer: LayeredStructure, assignments: Mapping) -> LayeredStructure:
    """Extend a bound-k layered structure to bound k+1.

    ``assignments`` maps primitive (k+1)-tuples (one per inverse pair) to a
    type: a mapping (pred, walk) -> bool over adjacent walks on [1, k+1] of
    the predicate's arity.  Walks that land on tuples already defined in the
    layer must agree with it; the rest become the new facts.  No tuple may
    receive two values.
    """
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
