"""Adjacent k-types over restricted atom sets, propositional consistency,
the projection of a table row to a formula, 2-types, connector-types,
compatibility, and coherence.

An atom key is a pair (predicate name, index word).  Types are total truth
assignments over a finite atom-key set; they are always relative to the
atoms that can actually occur as substitution instances of a formula's
atoms, never the full space of adjacent atoms.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

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


@functools.lru_cache(maxsize=1 << 14)
def key_atom(key: AtomKey) -> Atom:
    name, word = key
    return Atom(name, tuple(syntax.var(i) for i in word))


def relevant_atoms(f: Formula, k: int) -> frozenset:
    """All atom keys (p, g . h) where h is the argument word of an atom of f
    and g ranges over adjacent words of length max(h) into [1, k].
    Proposition letters are always included.  Each distinct word h is
    composed once with each walk, for every predicate that reads it."""
    names: dict = {}  # word h -> the predicates with an atom over h
    for name, args in {(a.pred, a.args) for a in syntax.atoms(f)}:
        h = tuple(syntax.var_index(n) for n in args)
        if None in h:
            raise FormulaError(f"atom {name} has non-index variables")
        names.setdefault(h, set()).add(name)
    out = set()
    for h, preds in names.items():
        images = [W.compose(g, h) for g in W.walks(max(h, default=0), k)]
        out.update((name, w) for name in preds for w in images)
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
        slots: dict = {}
        test = compile_qf(f, slots)
        if not slots.keys() <= assign.keys():
            raise FormulaError("formula mentions atoms outside the type")
        return bool(test([np.bool_(assign[key]) for key in slots]))

    def render(self) -> str:
        return syntax.render(self.formula())


def enumerate_types(keys: Iterable, cap: int = DEFAULT_ATOM_CAP) -> Iterator[AdjType]:
    """All 2^n assignments over the sorted keys, in binary-counter order
    (first key is the most significant bit; all-false first)."""
    atoms = sort_keys(keys)
    n = len(atoms)
    if n > cap:
        raise ResourceError(
            f"enumerate_types: {n} atoms exceeds the cap of {cap}")
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

def compile_qf(f: Formula, slots: dict):
    """Compile a quantifier-free formula into a function of its atom
    leaves: each atom key of f gets a slot in ``slots`` (key -> index, in
    order of first occurrence, shared by every formula compiled into the
    same dict), and the function maps the list of leaves, one value per
    slot, to f's value, the connectives combining numpy booleans or arrays
    by broadcasting.  The keys of the atoms under a quantifier get slots
    too; the quantifier compiles to a function raising ``FormulaError``
    when it runs, so each caller's cap check on its keys comes first."""
    import numpy as np
    getters: dict = {}  # (predicate, arguments) -> the getter of its slot

    def rec(g: Formula):
        kind = type(g)
        if kind is Atom:
            get = getters.get((g.pred, g.args))
            if get is None:
                get = getters[g.pred, g.args] = operator.itemgetter(
                    slots.setdefault(atom_key(g), len(slots)))
            return get
        if kind is syntax.Not:
            body = rec(g.body)
            return lambda leaves: ~body(leaves)
        if kind is syntax.And or kind is syntax.Or:
            unit = np.bool_(kind is syntax.And)
            op = operator.and_ if kind is syntax.And else operator.or_
            first, *rest = [rec(c) for c in g.args] or [lambda leaves: unit]

            def connective(leaves):
                out = first(leaves)
                for part in rest:
                    out = op(out, part(leaves))
                return out
            return connective
        if kind is syntax.Implies:
            left, right = rec(g.left), rec(g.right)
            return lambda leaves: ~left(leaves) | right(leaves)
        if kind is syntax.Iff:
            left, right = rec(g.left), rec(g.right)
            return lambda leaves: left(leaves) == right(leaves)
        if kind is syntax.Unit:
            return rec(g.body)
        if kind is syntax.Forall or kind is syntax.Exists:
            rec(g.body)

        def quantifier(leaves):
            raise FormulaError(f"not quantifier-free: {syntax.render(g)}")
        return quantifier

    return rec(f)


def _walk_leaf(at: list, dims: list, codes: dict):
    """The leaf of one atom key over a chunk of walk rows: ``at[r]`` is the
    axis of the key's image under row r, and ``dims`` the table's shape
    with the chunk's rows and 1 on every key axis.  Cell (r, ...) is the
    value of row r's image axis: each distinct image axis has size 2, the
    others stay 1, and row r is gathered in one step from the row of its
    image in ``codes[m]``, the bits of the codes over m = the number of
    distinct images, first image first (an m x 2^m table, no larger than
    the leaf, made once per m and kept in ``codes``)."""
    import numpy as np
    distinct = sorted(set(at))
    m = len(distinct)
    if m not in codes:
        codes[m] = np.arange(1 << m) >> np.arange(m - 1, -1, -1)[:, None] & 1 == 1
    row = {p: j for j, p in enumerate(distinct)}
    dims = list(dims)
    for p in distinct:
        dims[p] = 2
    return codes[m][[row[p] for p in at]].reshape(dims)


def truth_tables(formulas: Sequence, keys: Iterable, rows=None,
                 walks: Optional[Sequence] = None, extras: Sequence = ((),),
                 cap: int = DEFAULT_ATOM_CAP, budget: int = 0,
                 stage: str = "truth table") -> Iterator[tuple]:
    """Truth tables over the sorted ``keys`` with a leading row axis: for
    each formula list e of ``extras``, a boolean array of shape
    (rows, 2^len(keys)) whose cell (r, i) is true iff row r, the i-th type
    of ``enumerate_types(keys)``, ``formulas`` and e are consistent.  Each
    atom key is an independent variable, which is sound because distinct
    index words name distinct tuples once the variables are instantiated
    with distinct elements.

    The rows are either:

    - ``rows=(row_keys, bits)``: row r is the type over ``row_keys`` whose
      values are ``bits[r]``, an (R, len(row_keys)) boolean array.  A row
      key reads as its column of ``bits``; where it is an output key too,
      the output cell must agree with the row.
    - ``walks``: row r reads each atom (p, w) as (p, compose(walks[r], w)),
      the instance of the formulas under that walk, so no instance is
      rebuilt.  The images of each distinct word w are composed once, and
      each key's leaf is gathered in one step from the axes of its images.
      The rows are conjoined: the result has one row, the table of all
      instances together.

    The array has the row axis, one axis per output key, in sorted order
    with False first, and one per other atom key read that no row fixes;
    those trail and are projected away.  More than ``cap`` keys and
    trailing axes raise ``ResourceError`` naming ``stage``.  Each formula
    is compiled once per call by ``compile_qf``, whose slots are the keys
    read; the compiled formulas run once per chunk of rows, a chunk having
    at most ``budget`` cells (and at least one row), and the array they
    build is ANDed with each extra before the trailing axes are projected.
    Yields the list of tables, one per extra, per chunk; with ``walks``,
    once at the end."""
    import numpy as np
    keys = sort_keys(keys)
    row_keys, bits = rows or ((), None)
    column = {key: j for j, key in enumerate(row_keys)}
    n_rows = len(bits) if walks is None else len(walks)
    slots: dict = {}
    base_parts = [compile_qf(f, slots) for f in formulas]
    extra_parts = [[compile_qf(f, slots) for f in extra] for extra in extras]
    if walks is None:
        read = set(slots)
    else:
        images = {word: [W.compose(g, word) for g in walks]
                  for word in {word for _, word in slots}}
        read = {(name, w) for name, word in slots for w in images[word]}
    trailing = tuple(sorted(read - set(keys) - set(column)))
    axes = keys + trailing
    if len(axes) > cap:
        raise ResourceError(
            f"{stage}: {len(axes)} atom keys exceeds the cap of {cap}")
    ndim = 1 + len(axes)
    position = {key: p for p, key in enumerate(axes, 1)}
    trail = tuple(range(1 + len(keys), ndim))
    # A key fixed by the row is read from it, so its axis has size 1 until
    # the table is written at the row's value.
    kept = (slice(None),) + tuple(0 if key in column else slice(None)
                                  for key in keys)
    if walks is not None:
        at = [[position[name, w] for w in images[word]]
              for name, word in slots]
        codes: dict = {}

    def axis(key):
        dims = [1] * ndim
        dims[position[key]] = 2
        return np.array([False, True]).reshape(dims)

    conjoined = [np.ones((1,) * ndim, dtype=bool)] * len(extras)
    step = max(1, budget >> len(axes))
    for lo in range(0, n_rows, step):
        hi = min(n_rows, lo + step)
        if walks is not None:
            dims = [hi - lo] + [1] * len(axes)
            leaves = [_walk_leaf(p[lo:hi], dims, codes) for p in at]
        else:
            leaves = [bits[lo:hi, column[key]].reshape(
                (-1,) + (1,) * len(axes)) if key in column else axis(key)
                for key in slots]
            index = (np.arange(hi - lo),) + tuple(
                bits[lo:hi, column[key]].astype(np.intp) if key in column
                else slice(None) for key in keys)
        base = np.ones((1,) * ndim, dtype=bool)
        for part in base_parts:
            base = base & part(leaves)
        tables = []
        for e, parts in enumerate(extra_parts):
            full = base
            for part in parts:
                full = full & part(leaves)
            if walks is not None:
                conjoined[e] = conjoined[e] & full.all(axis=0, keepdims=True)
                continue
            table = np.zeros((hi - lo,) + (2,) * len(keys), dtype=bool)
            table[index] = full.any(axis=trail)[kept]
            tables.append(table.reshape(hi - lo, -1))
        if walks is None:
            yield tables
    if walks is not None:
        yield [np.broadcast_to(c.any(axis=trail), (1,) + (2,) * len(keys))
               .reshape(1, -1) for c in conjoined]


def walk_table(formulas: Sequence, walks: Iterable, keys: Iterable,
               cap: int = DEFAULT_ATOM_CAP, budget: int = 0,
               stage: str = "walk table"):
    """The flat truth table over ``keys`` of every instance of ``formulas``
    under every walk together: ``truth_tables`` with walk rows."""
    (table,), = truth_tables(formulas, keys, walks=tuple(walks), cap=cap,
                             budget=budget, stage=stage)
    return table[0]


def type_table(parts: Sequence, keys: Iterable, cap: int = DEFAULT_ATOM_CAP,
               stage: str = "type table"):
    """The truth table of the conjunction ``parts`` of quantifier-free
    formulas and/or types, projected onto ``keys``: a flat numpy boolean
    array whose cell i is true iff the i-th type of
    ``enumerate_types(keys)`` is consistent with ``parts``.  This is the
    one-row case of ``truth_tables``: the row is the union of the types,
    and types that disagree leave no row and an all-false table."""
    import numpy as np
    fixed: dict = {}
    clash = False
    formulas = []
    for p in parts:
        if isinstance(p, AdjType):
            for key, val in p.items():
                clash = clash or fixed.setdefault(key, val) != val
        else:
            formulas.append(p)
    row_keys = sort_keys(fixed)
    bits = np.array([[fixed[k] for k in row_keys]] * (not clash),
                    dtype=bool).reshape(int(not clash), len(row_keys))
    for table, in truth_tables(formulas, keys, rows=(row_keys, bits),
                               cap=cap, stage=stage):
        return table[0]
    return np.zeros(1 << len(sort_keys(keys)), dtype=bool)


def consistent(parts: Sequence, cap: int = DEFAULT_ATOM_CAP) -> bool:
    """Propositional satisfiability of a conjunction of quantifier-free
    formulas and/or types (see ``type_table``)."""
    return bool(type_table(parts, (), cap, stage="consistent").any())


def satisfying_types(parts: Sequence, keys: Iterable,
                     cap: int = DEFAULT_ATOM_CAP,
                     stage: str = "satisfying_types") -> Iterator[AdjType]:
    """Types over ``keys`` consistent with the given conjunction, in
    enumeration order."""
    atoms = sort_keys(keys)
    for i in type_table(parts, atoms, cap, stage).nonzero()[0].tolist():
        yield type_at(atoms, i)


def project_circ(row, keys_ell: Iterable) -> Formula:
    """The strongest consequence about the tail: the l-types eta over
    keys_ell true in ``row``, a flat table over their shifted keys (chi /\\
    eta+ consistent), as a reduced decision tree.  The table is
    Shannon-expanded over the sorted keys, first key first, skipping each
    key the sub-table does not depend on; a constant sub-table is TRUE or
    FALSE.  It never has more literals than the disjunction of the types."""
    import numpy as np
    keys = sort_keys(keys_ell)
    TRUE, FALSE = syntax.TRUE, syntax.FALSE

    def tree(cells: int, p: int) -> Formula:
        """The sub-table of the types whose first p keys are fixed, as an
        integer whose bit i is its cell i: the first key free splits the
        low half from the high half."""
        if not cells:
            return FALSE
        if cells == (1 << (1 << len(keys) - p)) - 1:
            return TRUE
        half = 1 << (len(keys) - p - 1)
        lo, hi = cells & ((1 << half) - 1), cells >> half
        if lo == hi:
            return tree(lo, p + 1)
        on = key_atom(keys[p])
        off = syntax.Not(on)
        low, high = tree(lo, p + 1), tree(hi, p + 1)
        if low == FALSE:
            return on if high == TRUE else syntax.make_and([on, high])
        if high == FALSE:
            return off if low == TRUE else syntax.make_and([off, low])
        if high == TRUE:
            return syntax.make_or([on, low])
        if low == TRUE:
            return syntax.make_or([off, high])
        return syntax.make_or([syntax.make_and([off, low]),
                               syntax.make_and([on, high])])

    return tree(int.from_bytes(np.packbits(row, bitorder="little").tobytes(),
                               "little"), 0)


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
