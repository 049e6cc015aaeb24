"""Adjacent k-types over restricted atom sets, propositional consistency,
the projection operator, 2-types, connector-types, compatibility, and
coherence.

An atom key is a pair (predicate name, index word).  Types are total truth
assignments over a finite atom-key set; they are always relative to the
atoms that can actually occur as substitution instances of a formula's
atoms, never the full space of adjacent atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import syntax
from .syntax import Atom, Formula, FormulaError, ResourceError
from . import words as W

AtomKey = tuple  # (pred: str, word: tuple of ints)

DEFAULT_ATOM_CAP = 24


def atom_key(a: Atom) -> AtomKey:
    word = []
    for name in a.args:
        i = syntax.var_index(name)
        if i is None:
            raise FormulaError(f"variable {name!r} is not index-named")
        word.append(i)
    return (a.pred, tuple(word))


def key_atom(key: AtomKey) -> Atom:
    name, word = key
    return Atom(name, tuple(syntax.var(i) for i in word))


def relevant_atoms(f: Formula, k: int) -> frozenset:
    """All atom keys (p, g . h) where h is the argument word of an atom of f
    and g ranges over adjacent words of length max(h) into [1, k].
    Proposition letters are always included."""
    out = set()
    for a in syntax.atoms(f):
        name = a.pred
        h = tuple(syntax.var_index(n) for n in a.args)
        if any(i is None for i in h):
            raise FormulaError(f"atom {name} has non-index variables")
        j = max(h, default=0)
        if j == 0:
            out.add((name, ()))
            continue
        for g in W.walks(j, k):
            out.add((name, W.compose(g, h)))
    return frozenset(out)


def sort_keys(keys: Iterable) -> tuple:
    return tuple(sorted(keys))


@dataclass(frozen=True)
class AdjType:
    """A total truth assignment over a fixed, sorted atom-key tuple;
    treated as the conjunction of its literals."""

    atoms: tuple
    bits: tuple

    def value(self, key: AtomKey) -> bool:
        try:
            return self.bits[self.atoms.index(key)]
        except ValueError:
            raise KeyError(f"atom {key!r} not in this type's atom set")

    def items(self) -> Iterator:
        return zip(self.atoms, self.bits)

    def formula(self) -> Formula:
        lits = []
        for key, val in self.items():
            a = key_atom(key)
            lits.append(a if val else syntax.Not(a))
        return syntax.make_and(lits or [syntax.TRUE])

    def shift_up(self, by: int = 1) -> "AdjType":
        moved = [((n, tuple(i + by for i in w)), b) for (n, w), b in self.items()]
        moved.sort(key=lambda kv: kv[0])
        return AdjType(tuple(k for k, _ in moved), tuple(b for _, b in moved))

    def inverse(self, k: int) -> "AdjType":
        """The type of the reversed tuple: position i becomes k - i + 1."""
        moved = [((n, tuple(k - i + 1 for i in w)), b)
                 for (n, w), b in self.items()]
        moved.sort(key=lambda kv: kv[0])
        return AdjType(tuple(kk for kk, _ in moved), tuple(b for _, b in moved))

    def entails(self, f: Formula) -> bool:
        """Propositional entailment; every atom of f must belong to this
        type's atom set."""
        import numpy as np
        assign = dict(self.items())

        def leaf(key):
            if key not in assign:
                raise FormulaError("formula mentions atoms outside the type")
            return np.bool_(assign[key])

        return bool(qf_array(f, leaf, {}))

    def render(self) -> str:
        return syntax.render(self.formula())


def enumerate_types(keys: Iterable, cap: int = DEFAULT_ATOM_CAP) -> Iterator[AdjType]:
    """All 2^n assignments over the sorted keys, in binary-counter order
    (first key is the most significant bit; all-false first)."""
    atoms = sort_keys(keys)
    n = len(atoms)
    if n > cap:
        raise ResourceError(f"{n} atoms exceeds the cap of {cap}")
    for i in range(1 << n):
        yield type_at(atoms, i)


def type_at(atoms: tuple, i: int) -> AdjType:
    """The i-th type over the sorted key tuple ``atoms`` in enumeration
    order."""
    n = len(atoms)
    return AdjType(atoms, tuple(bool((i >> (n - 1 - p)) & 1) for p in range(n)))


def shift_keys(keys: Iterable) -> tuple:
    """The sorted keys with every index of their words raised by one; the
    shift keeps the sorted order, so the i-th type over ``keys`` shifted up
    is the i-th type over the result."""
    return tuple((name, tuple(i + 1 for i in word))
                 for name, word in sort_keys(keys))


def type_of_tuple(s, t: tuple, keys: Iterable) -> AdjType:
    """The type of tuple t in structure s over the given atom keys."""
    atoms = sort_keys(keys)
    bits = []
    for name, word in atoms:
        args = W.apply_walk(t, word) if word else ()
        bits.append(s.holds(name, tuple(args)))
    return AdjType(atoms, tuple(bits))


# ---------------------------------------------------------------------------
# Propositional truth tables over atom keys

def qf_array(f: Formula, leaf, cache: dict):
    """Evaluate a quantifier-free formula as a numpy boolean array: each atom
    becomes ``leaf(atom key)``, computed once per key into ``cache``, and
    the connectives combine those arrays by broadcasting."""
    import numpy as np
    if isinstance(f, Atom):
        key = atom_key(f)
        if key not in cache:
            cache[key] = leaf(key)
        return cache[key]
    if isinstance(f, syntax.Unit):
        return qf_array(f.body, leaf, cache)
    if isinstance(f, syntax.Not):
        return ~qf_array(f.body, leaf, cache)
    if isinstance(f, syntax.And):
        out = np.bool_(True)
        for c in f.args:
            out = out & qf_array(c, leaf, cache)
        return out
    if isinstance(f, syntax.Or):
        out = np.bool_(False)
        for c in f.args:
            out = out | qf_array(c, leaf, cache)
        return out
    if isinstance(f, syntax.Implies):
        return ~qf_array(f.left, leaf, cache) | qf_array(f.right, leaf, cache)
    if isinstance(f, syntax.Iff):
        return qf_array(f.left, leaf, cache) == qf_array(f.right, leaf, cache)
    raise FormulaError(f"not quantifier-free: {syntax.render(f)}")


def type_table(parts: Sequence, keys: Iterable, cap: int = DEFAULT_ATOM_CAP):
    """The truth table of the conjunction ``parts`` of quantifier-free
    formulas and/or types, projected onto ``keys``: a flat numpy boolean
    array whose cell i is true iff the i-th type of ``enumerate_types(keys)``
    is consistent with ``parts``.  Each atom key is an independent variable,
    which is sound because distinct index words name distinct tuples once
    the variables are instantiated with distinct elements.

    The table has one axis per key, in sorted order with False first, and
    one more per other atom of the formulas that no type fixes; those trail
    and are projected away.  Keys a type fixes are constants, so only the
    open axes are evaluated.  More than ``cap`` axes raise
    ``ResourceError``."""
    import numpy as np
    atoms = sort_keys(keys)
    fixed: dict = {}
    clash = False  # two of the types disagree
    formulas = []
    for p in parts:
        if isinstance(p, AdjType):
            for key, val in p.items():
                clash = clash or fixed.setdefault(key, val) != val
        else:
            formulas.append(p)
    mentioned = {atom_key(a) for f in formulas for a in syntax.atoms(f)}
    axes = list(atoms) + sorted(mentioned - set(atoms) - set(fixed))
    if len(axes) > cap:
        raise ResourceError(f"{len(axes)} atoms exceeds the cap of {cap}")
    if clash:
        return np.zeros(1 << len(atoms), dtype=bool)
    position = {key: i for i, key in enumerate(axes)}

    def leaf(key):
        if key in fixed:
            return np.bool_(fixed[key])
        shape = [1] * len(axes)
        shape[position[key]] = 2
        return np.array([False, True]).reshape(shape)

    table = np.ones((1,) * len(axes), dtype=bool)
    cache: dict = {}
    for f in formulas:
        table = table & qf_array(f, leaf, cache)
    table = table.any(axis=tuple(range(len(atoms), len(axes))))
    # A fixed key's axis has size 1 in ``table``; only its fixed value's
    # half of the result can be true.
    out = np.zeros((2,) * len(atoms), dtype=bool)
    out[tuple(int(fixed[k]) if k in fixed else slice(None) for k in atoms)] = \
        table[tuple(0 if k in fixed else slice(None) for k in atoms)]
    return out.ravel()


def consistent(parts: Sequence, cap: int = DEFAULT_ATOM_CAP) -> bool:
    """Propositional satisfiability of a conjunction of quantifier-free
    formulas and/or types (see ``type_table``)."""
    return bool(type_table(parts, (), cap).any())


def satisfying_types(parts: Sequence, keys: Iterable,
                     cap: int = DEFAULT_ATOM_CAP) -> Iterator[AdjType]:
    """Types over ``keys`` consistent with the given conjunction, in
    enumeration order."""
    atoms = sort_keys(keys)
    for i in type_table(parts, atoms, cap).nonzero()[0].tolist():
        yield type_at(atoms, i)


def project_circ(chi: Sequence, keys_ell: Iterable,
                 cap: int = DEFAULT_ATOM_CAP) -> Formula:
    """The strongest consequence about the tail: the disjunction of the
    l-types eta over keys_ell with chi /\\ eta+ consistent."""
    atoms = sort_keys(keys_ell)
    disjuncts = [AdjType(atoms, eta.bits).formula()
                 for eta in satisfying_types(chi, shift_keys(atoms), cap)]
    return syntax.make_or(disjuncts or [syntax.FALSE])


# ---------------------------------------------------------------------------
# Connector-types

@dataclass(frozen=True)
class ConnectorType:
    """A set of 2-types sharing a 1-type pi with pi^2 among them."""

    types: frozenset

    @property
    def tp(self) -> AdjType:
        """The shared 1-type, read off any member's constant-1 atoms."""
        return restrict_to_ones(next(iter(self.types)))

    def serialize(self) -> list:
        return sorted(
            sorted(f"{'' if b else '!'}{k[0]}{list(k[1])}" for k, b in t.items())
            for t in self.types)


def one_type_squared(pi: AdjType, keys2: Iterable) -> AdjType:
    """The 2-type of a pair aa: every atom gets the value of its stalled
    (all-ones) counterpart in pi."""
    atoms = sort_keys(keys2)
    bits = []
    for name, word in atoms:
        stalled = (name, (1,) * len(word))
        bits.append(pi.value(stalled))
    return AdjType(atoms, tuple(bits))


def restrict_to_ones(t: AdjType) -> AdjType:
    """The 1-type entailed by a 2-type: its atoms with constant-1 words."""
    kept = [(k, b) for k, b in t.items() if set(k[1]) <= {1}]
    return AdjType(tuple(k for k, _ in kept), tuple(b for _, b in kept))


def is_connector_type(types: Iterable) -> bool:
    ts = frozenset(types)
    if not ts:
        return False
    pis = {restrict_to_ones(t) for t in ts}
    if len(pis) != 1:
        return False
    pi = next(iter(pis))
    some = next(iter(ts))
    return one_type_squared(pi, some.atoms) in ts


def connector_of(s, a, keys2: Iterable) -> ConnectorType:
    """The connector-type of element a: the 2-types of (a, b) over all b."""
    if a not in s.domain:
        raise FormulaError(f"element {a!r} not in the domain")
    keys2 = sort_keys(keys2)
    ts = frozenset(type_of_tuple(s, (a, b), keys2) for b in s.domain)
    return ConnectorType(ts)


# ---------------------------------------------------------------------------
# Compatibility and coherence

def compatible(omega: ConnectorType, nf) -> bool:
    """The four local conditions tying a connector-type to a normal-form
    three-variable formula (nf.ell must be 2)."""
    if nf.ell != 2:
        raise FormulaError("compatibility is defined for 3-variable normal form")
    gammas = nf.gammas
    delta = nf.delta
    delta_hat = syntax.hat(delta, 3)
    members = sorted(omega.types, key=lambda t: t.bits)
    inverses = [z.inverse(2) for z in members]
    # Existential witness for a stalled pair.
    for gamma in gammas:
        g112 = syntax.substitute_walk(gamma, (1, 1, 2))
        if not any(eta.entails(g112) for eta in members):
            return False
    # Existential witness extending any incoming 2-type.
    for zeta in inverses:
        for gamma in gammas:
            if not any(
                consistent([zeta, eta.shift_up(), gamma, delta_hat])
                for eta in members
            ):
                return False
    # Universal constraint on members under every stalling walk.
    for eta in members:
        for f in W.walks(3, 2):
            if not eta.entails(syntax.substitute_walk(delta, f)):
                return False
    # Universal constraint on joined triples.
    for zeta in inverses:
        for eta in members:
            if not consistent([zeta, eta.shift_up(), delta_hat]):
                return False
    return True


def coherent(connector_types: Iterable) -> bool:
    """G-exists: every member 2-type has its inverse somewhere; G-forall:
    every ordered pair of connector-types (including self pairs) is linked
    by some 2-type and its inverse."""
    omegas = list(connector_types)
    for om in omegas:
        for zeta in om.types:
            inv = zeta.inverse(2)
            if not any(inv in om2.types for om2 in omegas):
                return False
    for om in omegas:
        for om2 in omegas:
            if not any(z.inverse(2) in om2.types for z in om.types):
                return False
    return True
