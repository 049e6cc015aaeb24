"""Named references kept for the property tests: the definitions that the
fast paths of ``afkit`` replaced, in their plain form.

- ``relevant_atoms`` expands each distinct atom of a formula over the walks
  of its own length, one atom at a time.
- ``qf_array`` evaluates a quantifier-free formula by recursion over its
  AST, each atom through a ``leaf`` callback.
- ``truth_tables`` collects its read set with ``syntax.atoms`` and, with
  walk rows, builds each leaf as one comparison array and one broadcast per
  distinct image of the key.
- ``coherence_closure`` keeps the connector-types whose members' inverses
  all occur among the kept ones, until none is dropped: the closure that
  the decider's fixpoint over 2-types replaced.
- ``per_match`` evaluates a guarded block one match of its guard at a
  time, asking its body's atoms with short-circuit: the loop that the
  evaluator's filter stages replaced.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from afkit import syntax
from afkit import words as W
from afkit.aftypes import DEFAULT_ATOM_CAP, atom_key, sort_keys
from afkit.semantics import SemanticsError
from afkit.syntax import Atom, Formula, FormulaError, ResourceError


def relevant_atoms(f: Formula, k: int) -> frozenset:
    """All atom keys (p, g . h) where h is the argument word of an atom of f
    and g ranges over adjacent words of length max(h) into [1, k].
    Proposition letters are always included."""
    out = set()
    for name, args in {(a.pred, a.args) for a in syntax.atoms(f)}:
        h = tuple(syntax.var_index(n) for n in args)
        if None in h:
            raise FormulaError(f"atom {name} has non-index variables")
        out.update((name, W.compose(g, h))
                   for g in W.walks(max(h, default=0), k))
    return frozenset(out)


def qf_array(f: Formula, leaf, cache: dict):
    """Evaluate a quantifier-free formula as a numpy boolean array: each atom
    becomes ``leaf(atom key)``, computed once per atom into ``cache``, and
    the connectives combine those arrays by broadcasting."""
    import numpy as np
    if isinstance(f, Atom):
        atom = (f.pred, f.args)
        if atom not in cache:
            cache[atom] = leaf(atom_key(f))
        return cache[atom]
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


def truth_tables(formulas: Sequence, keys, rows=None,
                 walks: Optional[Sequence] = None, extras: Sequence = ((),),
                 cap: int = DEFAULT_ATOM_CAP, budget: int = 0,
                 stage: str = "truth table"):
    """``aftypes.truth_tables`` as it was defined before it compiled its
    formulas: the same arguments, tables, chunks and errors."""
    import numpy as np
    keys = sort_keys(keys)
    row_keys, bits = rows or ((), None)
    column = {key: j for j, key in enumerate(row_keys)}
    n_rows = len(bits) if walks is None else len(walks)
    read = set(map(atom_key, {a for f in itertools.chain(formulas, *extras)
                              for a in syntax.atoms(f)}))
    if walks is not None:
        read = {(name, W.compose(g, word)) for name, word in read
                for g in walks}
    trailing = tuple(sorted(read - set(keys) - set(column)))
    axes = keys + trailing
    if len(axes) > cap:
        raise ResourceError(
            f"{stage}: {len(axes)} atom keys exceeds the cap of {cap}")
    ndim = 1 + len(axes)
    position = {key: p for p, key in enumerate(axes, 1)}
    trail = tuple(range(1 + len(keys), ndim))
    kept = (slice(None),) + tuple(0 if key in column else slice(None)
                                  for key in keys)

    def axis(key):
        dims = [1] * ndim
        dims[position[key]] = 2
        return np.array([False, True]).reshape(dims)

    conjoined = [np.ones((1,) * ndim, dtype=bool)] * len(extras)
    step = max(1, budget >> len(axes))
    for lo in range(0, n_rows, step):
        hi = min(n_rows, lo + step)

        def leaf(key):
            if walks is None:
                if key in column:
                    return bits[lo:hi, column[key]].reshape(
                        (-1,) + (1,) * len(axes))
                return axis(key)
            images = [(key[0], W.compose(g, key[1])) for g in walks[lo:hi]]
            cells = np.bool_(False)
            for image in set(images):
                on = np.array([i == image for i in images])
                cells = cells | (on.reshape((-1,) + (1,) * len(axes))
                                 & axis(image))
            return cells

        at = (np.arange(hi - lo),) + tuple(
            bits[lo:hi, column[key]].astype(np.intp) if key in column
            else slice(None) for key in keys)
        cache: dict = {}
        base = np.ones((1,) * ndim, dtype=bool)
        for f in formulas:
            base = base & qf_array(f, leaf, cache)
        tables = []
        for e, extra in enumerate(extras):
            full = base
            for f in extra:
                full = full & qf_array(f, leaf, cache)
            if walks is not None:
                conjoined[e] = conjoined[e] & full.all(axis=0, keepdims=True)
                continue
            table = np.zeros((hi - lo,) + (2,) * len(keys), dtype=bool)
            table[at] = full.any(axis=trail)[kept]
            tables.append(table.reshape(hi - lo, -1))
        if walks is None:
            yield tables
    if walks is not None:
        yield [np.broadcast_to(c.any(axis=trail), (1,) + (2,) * len(keys))
               .reshape(1, -1) for c in conjoined]


def coherence_closure(pool: Sequence) -> list:
    """The greatest subset of ``pool`` (connector-types) in whose union
    every member's inverses lie, in pool order: drop, until none is
    dropped, each connector-type holding a 2-type whose inverse no kept
    member holds."""
    kept = list(pool)
    while True:
        union = {t for om in kept for t in om.types}
        now = [om for om in kept
               if all(t.inverse(2) in union for t in om.types)]
        if now == kept:
            return kept
        kept = now


def _short_circuit(f: Formula, env: dict, holds) -> bool:
    """A quantifier-free formula under ``env``, each atom asked of
    ``holds``, left to right, stopping where a connective is decided."""
    if isinstance(f, Atom):
        return holds(f.pred, tuple(env[a] for a in f.args))
    if isinstance(f, syntax.Not):
        return not _short_circuit(f.body, env, holds)
    if isinstance(f, syntax.And):
        return all(_short_circuit(c, env, holds) for c in f.args)
    if isinstance(f, syntax.Or):
        return any(_short_circuit(c, env, holds) for c in f.args)
    if isinstance(f, syntax.Implies):
        return (not _short_circuit(f.left, env, holds)
                or _short_circuit(f.right, env, holds))
    if isinstance(f, syntax.Iff):
        return (_short_circuit(f.left, env, holds)
                == _short_circuit(f.right, env, holds))
    raise FormulaError(f"not quantifier-free: {f!r}")


def per_match(s, f: Formula, assignment: dict, holds) -> bool:
    """The guarded block f, ``forall xs (g -> phi)`` or ``exists xs (... &
    g & ...)`` with a quantifier-free body, under ``assignment``, one match
    of its guard at a time.  The guard is the first of
    ``syntax.guard_splits`` on the block's variables, as the evaluator
    picks it; its matches are the tuples of its extension in ``s``, in the
    extension's order, that agree at repeated variables and with
    ``assignment`` at the others; an uninterpreted guard raises.  On each match the body, without the
    guard, is asked of ``holds`` by ``_short_circuit``, and the first match
    that decides the block ends it."""
    cls, chain, body = syntax.quantifier_block(f)
    guard, rest = next((g, r) for g, r in syntax.guard_splits(cls, body)
                       if g is not body and set(chain) <= set(g.args))
    ext = s.extensions.get((guard.pred, guard.arity))
    if ext is None:
        raise SemanticsError(f"predicate {guard.pred}/{guard.arity} not interpreted")
    for t in ext:
        binding: dict = {}
        if any(binding.setdefault(a, v) != v if a in chain
               else assignment[a] != v for a, v in zip(guard.args, t)):
            continue
        env = {**assignment, **binding}
        if cls is syntax.Forall:
            if not _short_circuit(rest[0], env, holds):
                return False
        elif all(_short_circuit(c, env, holds) for c in rest):
            return True
    return cls is syntax.Forall
