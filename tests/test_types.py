"""Adjacent types over restricted atom sets, connector-types, and the
projection operator."""

import pytest

import afkit.aftypes as T
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
    with pytest.raises(T.TypeResourceError):
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


def test_project_circ():
    keys1 = keys_for("r(x1,x1)", 1)
    # The tail of any pair whose second element carries a loop must itself
    # carry the loop.
    out = T.project_circ([S.parse("r(x2,x2)")], keys1, 1)
    assert out == S.parse("r(x1,x1)")
    taut = T.project_circ([S.parse("r(x1,x2)")], keys1, 1)
    assert set(S.atoms(taut)) == {S.parse("r(x1,x1)")}
    assert T.project_circ([S.parse("r(x2,x2) & !r(x2,x2)")], keys1, 1) == \
        S.FALSE


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
