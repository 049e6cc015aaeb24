"""Adjacent types over restricted atom sets, connector-types, and the
projection operator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afkit.aftypes as T
import afkit.sat as X
import afkit.semantics as M
import afkit.syntax as S


def keys_for(text, k):
    return T.sort_keys(T.relevant_atoms(S.parse(text), k))


def test_atom_key_roundtrip():
    a = S.parse("r(x2,x1)")
    key = T.atom_key(a)
    assert key == ("r", (2, 1))
    assert T.key_atom(key) == a


def test_relevant_atoms_examples():
    assert set(T.relevant_atoms(S.parse("r(x1,x1)"), 2)) == {
        ("r", (1, 1)), ("r", (2, 2))}
    assert set(T.relevant_atoms(S.parse("r(x1,x1)"), 1)) == {("r", (1, 1))}
    assert set(T.relevant_atoms(S.parse("r(x1,x2)"), 2)) == {
        ("r", (1, 1)), ("r", (1, 2)), ("r", (2, 1)), ("r", (2, 2))}
    # Proposition letters are always relevant.
    assert ("q", ()) in T.relevant_atoms(S.parse("q & r(x1,x1)"), 1)


def test_enumerate_types():
    keys = keys_for("r(x1,x2)", 2)
    types = list(T.enumerate_types(keys))
    assert len(types) == 16
    assert types[0].bits == (False, False, False, False)
    assert types[1].bits == (False, False, False, True)
    assert all(t.atoms == keys for t in types)


def test_enumerate_types_cap():
    keys = tuple(("p", (i % 2 + 1,)) for i in range(2)) + tuple(
        (f"p{i}", (1,)) for i in range(30))
    with pytest.raises(S.ResourceError):
        list(T.enumerate_types(keys, cap=24))


def test_type_of_tuple_and_inverse():
    s = M.make_structure(["a", "b"], {("r", 2): [("a", "b")]})
    keys = keys_for("r(x1,x2)", 2)
    t = T.type_of_tuple(s, ("a", "b"), keys)
    assert t.value(("r", (1, 2)))
    assert not t.value(("r", (2, 1)))
    assert t.entails(S.parse("r(x1,x2) & !r(x2,x1)"))
    ti = t.inverse(2)
    assert ti == T.type_of_tuple(s, ("b", "a"), keys)
    assert ti.inverse(2) == t


def test_shift_up():
    keys = keys_for("r(x1,x1)", 1)
    t = next(T.satisfying_types([S.parse("r(x1,x1)")], keys))
    up = t.shift_up()
    assert up.atoms == (("r", (2, 2)),)
    assert up.bits == (True,)


def test_consistency():
    keys = keys_for("r(x1,x2)", 2)
    t = next(T.satisfying_types([S.parse("r(x1,x2) & !r(x2,x1)")], keys))
    assert T.consistent([t])
    assert not T.consistent([t, t.inverse(2)])
    assert T.consistent([t, S.parse("r(x1,x2)")])
    assert not T.consistent([t, S.parse("r(x2,x1)")])


def test_satisfying_types_order_and_count():
    keys = keys_for("r(x1,x2)", 2)
    sats = list(T.satisfying_types([S.parse("r(x1,x1)")], keys))
    assert len(sats) == 8
    assert all(t.value(("r", (1, 1))) for t in sats)
    enum = [t for t in T.enumerate_types(keys) if t.value(("r", (1, 1)))]
    assert sats == enum


def project(parts, keys):
    """project_circ of the one-row table of parts over the shifted keys."""
    return T.project_circ(T.type_table(parts, T.shift_keys(keys)), keys)


def test_project_circ():
    keys1 = keys_for("r(x1,x1)", 1)
    # The tail of any pair whose second element carries a loop must itself
    # carry the loop.
    out = project([S.parse("r(x2,x2)")], keys1)
    assert out == S.parse("r(x1,x1)")
    assert project([S.parse("r(x1,x2)")], keys1) == S.TRUE
    assert project([S.parse("r(x2,x2) & !r(x2,x2)")], keys1) == S.FALSE


def test_connector_of_and_coherence():
    s = M.make_structure(["a", "b"], {("r", 2): [("a", "b")]})
    keys = keys_for("r(x1,x2)", 2)
    ca = T.connector_of(s, "a", keys)
    cb = T.connector_of(s, "b", keys)
    assert len(ca.types) == 2  # the pair (a,a) and the pair (a,b)
    assert T.is_connector_type(ca.types)
    assert T.coherent([ca, cb])
    # A lone connector containing an edge type but no inverse is incoherent.
    edge = next(T.satisfying_types(
        [S.parse("r(x1,x2) & !r(x2,x1) & !r(x1,x1) & !r(x2,x2)")], keys))
    pi = T.restrict_to_ones(edge)
    lone = T.ConnectorType(frozenset(
        {T.one_type_squared(pi, keys), edge}))
    assert not T.coherent([lone])


def test_one_type_squared():
    keys = keys_for("r(x1,x2)", 2)
    s = M.make_structure(["a"], {("r", 2): [("a", "a")]})
    t = T.type_of_tuple(s, ("a", "a"), keys)
    pi = T.restrict_to_ones(t)
    assert T.one_type_squared(pi, keys) == t


def test_connector_serialization_deterministic():
    s = M.make_structure(["a", "b"], {("r", 2): [("a", "b"), ("b", "a")]})
    keys = keys_for("r(x1,x2)", 2)
    c1 = T.connector_of(s, "a", keys)
    c2 = T.connector_of(s, "a", keys)
    assert c1.serialize() == c2.serialize()


# Atom keys over x1..x3; formulas may mention keys outside the tabulated
# ones, which the tables must then project away.
KEY_POOL = (("p", (1,)), ("p", (2,)), ("p", (3,)), ("q", ()),
            ("r", (1, 1)), ("r", (1, 2)), ("r", (2, 1)), ("r", (2, 3)))

qf_formulas = st.recursive(
    st.sampled_from(KEY_POOL).map(T.key_atom),
    lambda kids: st.one_of(
        kids.map(S.Not),
        st.lists(kids, min_size=1, max_size=3).map(lambda xs: S.And(tuple(xs))),
        st.lists(kids, min_size=1, max_size=3).map(lambda xs: S.Or(tuple(xs))),
        st.builds(S.Implies, kids, kids),
        st.builds(S.Iff, kids, kids)),
    max_leaves=8)


@st.composite
def fixed_types(draw):
    atoms = T.sort_keys(draw(st.lists(st.sampled_from(KEY_POOL), min_size=1,
                                      max_size=4, unique=True)))
    bits = draw(st.lists(st.booleans(), min_size=len(atoms),
                         max_size=len(atoms)))
    return T.AdjType(atoms, tuple(bits))


def reference_models(parts) -> list:
    """Brute force: the assignments to the keys of KEY_POOL, plus the keys
    the types fix, that satisfy every part, each formula evaluated by the
    oracle's own grounding (whose atom payloads are atom keys)."""
    fixed = {}
    for p in parts:
        if isinstance(p, T.AdjType):
            for key, val in p.items():
                if fixed.setdefault(key, val) != val:
                    return []
    trees = [X._ground(f, (), {"x1": 1, "x2": 2, "x3": 3})
             for f in parts if not isinstance(f, T.AdjType)]
    free = [key for key in KEY_POOL if key not in fixed]
    models = []
    for t in T.enumerate_types(free, cap=len(free)):
        assign = {**fixed, **dict(t.items())}
        if all(X._eval_ground(tree, assign) for tree in trees):
            models.append(assign)
    return models


def extends(models, t) -> bool:
    """Some model agrees with t on every key it assigns."""
    return any(all(m.get(k, v) == v for k, v in t.items()) for m in models)


@settings(max_examples=400, deadline=None)
@given(keys=st.lists(st.sampled_from(KEY_POOL), min_size=1, max_size=6,
                     unique=True),
       types=st.lists(fixed_types(), max_size=2),
       formulas=st.lists(qf_formulas, max_size=2),
       data=st.data())
def test_truth_tables_match_brute_force(keys, types, formulas, data):
    parts = data.draw(st.permutations(types + formulas))
    models = reference_models(parts)
    assert T.consistent(parts) == bool(models)
    assert list(T.satisfying_types(parts, keys)) == [
        t for t in T.enumerate_types(keys) if extends(models, t)]
    tails = [eta.formula() for eta in T.enumerate_types(keys)
             if extends(models, eta.shift_up())]
    assert (T.type_table([project(parts, keys)], keys)
            == T.type_table([S.make_or(tails or [S.FALSE])], keys)).all()


def dnf_projection(row, keys):
    """The reference rendering of a row: the disjunction, in enumeration
    order, of the types over ``keys`` at its true cells."""
    atoms = T.sort_keys(keys)
    return S.make_or([T.type_at(atoms, i).formula()
                      for i in row.nonzero()[0].tolist()] or [S.FALSE])


def literals(f) -> int:
    return sum(1 for _ in S.atoms(f))


@st.composite
def rows(draw):
    """Sorted keys of KEY_POOL and a table over them: arbitrary cells, or
    the truth table of a formula, whose rows a decision tree can reduce."""
    keys = T.sort_keys(draw(st.lists(st.sampled_from(KEY_POOL), max_size=5,
                                     unique=True)))
    cells = draw(st.one_of(
        st.lists(st.booleans(), min_size=1 << len(keys),
                 max_size=1 << len(keys)).map(np.array),
        qf_formulas.map(lambda f: T.type_table([f], keys))))
    return keys, cells


@settings(max_examples=300, deadline=None)
@given(rows())
def test_project_circ_is_a_compact_decision_tree(drawn):
    """The tree's truth table is its row, and it has at most the literals
    of the row's DNF."""
    keys, row = drawn
    tree = T.project_circ(row, keys)
    dnf = dnf_projection(row, keys)
    assert (T.type_table([tree], keys) == row).all()
    assert (T.type_table([dnf], keys) == row).all()
    assert literals(tree) <= literals(dnf)
    assert set(map(T.atom_key, S.atoms(tree))) <= set(keys)


def test_project_circ_skips_keys_the_row_ignores():
    keys = keys_for("r(x1,x2)", 2)
    # r(x1,x2) & !r(x2,x2), whatever r(x1,x1) and r(x2,x1) are.
    row = T.type_table([S.parse("r(x1,x2) & !r(x2,x2)")], keys)
    assert T.project_circ(row, keys) == S.parse("r(x1,x2) & !r(x2,x2)")
    assert literals(dnf_projection(row, keys)) == 16
    assert T.project_circ(~row, keys) == S.parse("!r(x1,x2) | r(x2,x2)")


def test_truth_table_examples():
    keys = keys_for("r(x1,x2)", 2)
    t = next(T.satisfying_types([S.parse("r(x1,x2) & !r(x2,x1)")], keys))
    # Disagreeing types, or a contradiction, leave no type.
    assert next(T.satisfying_types([t, t.inverse(2)], keys), None) is None
    assert next(T.satisfying_types([S.parse("q & !q")], keys), None) is None
    with pytest.raises(S.ResourceError):
        next(T.satisfying_types([], keys, cap=len(keys) - 1))
    # Atoms outside the keys that no type fixes are axes too.
    with pytest.raises(S.ResourceError):
        T.consistent([S.parse("p(x1) & p(x2) & q")], cap=2)
    assert T.consistent([t, S.parse("p(x1) & p(x2) & q")], cap=3)
    # Walk rows are conjoined before atoms outside the keys are projected:
    # each instance alone is consistent, the two together are not.
    f = S.parse("r(x1,x2) & !r(x2,x1)")
    for walk in ((1, 2), (2, 1)):
        assert T.walk_table([f], [walk], ()).all()
    assert not T.walk_table([f], [(1, 2), (2, 1)], ()).any()
    assert not T.walk_table([f], [(1, 2), (2, 1)], (), budget=1 << 10).any()
