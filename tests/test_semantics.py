"""Structures, evaluation, products, layered structures, and bounded
agreement."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afkit.semantics as M
import afkit.syntax as S
import afkit.words as W
from corpus import LEVEL2_CORPUS, PRODUCT_CORPUS


def test_structure_json_roundtrip():
    text = ('{"domain": ["a", "b"], "predicates": '
            '{"r/2": [["a", "b"], ["b", "b"]], "q/0": true}}')
    s = M.structure_from_json(text)
    assert s.domain == ("a", "b")
    assert s.holds("r", ("a", "b"))
    assert not s.holds("r", ("b", "a"))
    assert s.holds("q", ())
    again = M.structure_from_json(M.structure_to_json(s))
    assert again == s


def test_structure_validation():
    with pytest.raises(M.SemanticsError):
        M.make_structure(["a"], {("r", 2): [("a", "b")]})
    with pytest.raises(M.SemanticsError):
        M.make_structure(["a"], {("r", 2): [("a",)]})


def test_evaluate_basics():
    s = M.make_structure(["a", "b"], {("r", 2): [("a", "b"), ("b", "a")]})
    assert M.evaluate(s, S.parse("forall x1 exists x2 r(x1,x2)"))
    assert not M.evaluate(s, S.parse("exists x1 r(x1,x1)"))
    assert M.evaluate(s, S.parse("r(x1,x2)"), ("a", "b"))
    assert M.evaluate(s, S.parse("r(x1,x2)"), {"x1": "a", "x2": "b"})
    assert not M.evaluate(s, S.parse("r(x1,x2)"), ("b", "b"))


def test_guarded_quantifier_shadows_and_repeats():
    s = M.make_structure(["a", "b"], {("p", 1): [("a",), ("b",)],
                                      ("q", 1): [("b",)],
                                      ("r", 2): [("a", "b")]})
    assert M.evaluate(s, S.parse("forall x1 exists x1 (p(x1) & q(x1))"))
    assert M.evaluate(
        s, S.parse("forall x1 (p(x1) -> exists x1 (p(x1) & q(x1)))"))
    # A guard with a repeated variable matches only the diagonal.
    assert not M.evaluate(s, S.parse("exists x1 (r(x1,x1) & p(x1))"))
    assert M.evaluate(s, S.parse("forall x1 (r(x1,x1) -> q(x1))"))


def test_complete_signature():
    s = M.make_structure(["a"], {})
    f = S.parse("forall x1 (p(x1) | !p(x1))")
    full = M.complete_signature(s, f)
    assert ("p", 1) in full.extensions
    assert M.evaluate(full, f)


def _random_structure(rng, size, name, arity):
    domain = tuple(f"e{i}" for i in range(size))
    ext = frozenset(t for t in itertools.product(domain, repeat=arity)
                    if rng.random() < 0.5)
    return M.Structure(domain, {(name, arity): ext})


def test_five_variable_validity_sample():
    f = S.parse("forall x1 forall x2 forall x3 exists x4 forall x5 "
                "(p(x1,x2,x3,x2,x3,x4,x5) -> p(x1,x2,x3,x4,x3,x4,x5))")
    rng = random.Random(7)
    for _ in range(25):
        s = _random_structure(rng, rng.randint(1, 3), "p", 7)
        assert M.evaluate(s, f)


def test_product_definition():
    b = M.make_structure(["a", "b"], {("r", 2): [("a", "b")]})
    p = M.product(b, ["i", "j"])
    assert len(p.domain) == 4
    assert p.holds("r", (("a", "i"), ("b", "j")))
    assert p.holds("r", (("a", "j"), ("b", "i")))
    assert not p.holds("r", (("b", "i"), ("a", "i")))


def test_product_preserves_truth_sample():
    rng = random.Random(11)
    for text in PRODUCT_CORPUS[:10]:
        f = S.parse(text)
        fv = sorted(S.free_vars(f))
        b = _random_structure(rng, 2, "r", 2)
        p = M.product(b, ["i", "j"])
        for bs in itertools.product(b.domain, repeat=len(fv)):
            iv = tuple(rng.choice(["i", "j"]) for _ in fv)
            paired = tuple(zip(bs, iv))
            assert (M.evaluate(b, f, dict(zip(fv, bs)))
                    == M.evaluate(p, f, dict(zip(fv, paired))))


def test_agree_up_to():
    s1 = M.make_structure(list("abc"),
                          {("t", 3): [("a", "b", "c"), ("a", "b", "a")]})
    s2 = M.make_structure(list("abc"), {("t", 3): [("a", "b", "a")]})
    # The structures differ only on a tuple of three distinct elements.
    assert M.agree_up_to(s1, s2, 2)
    assert not M.agree_up_to(s1, s2, 3)


def test_level_bounded_invariance_sample():
    rng = random.Random(13)
    domain = tuple("abcd")
    for _ in range(20):
        ext = frozenset(t for t in itertools.product(domain, repeat=3)
                        if rng.random() < 0.5)
        s1 = M.Structure(domain, {("t", 3): ext})
        distinct = [t for t in itertools.product(domain, repeat=3)
                    if len(set(t)) == 3]
        flip = rng.choice(distinct)
        ext2 = ext ^ {flip}
        s2 = M.Structure(domain, {("t", 3): frozenset(ext2)})
        assert M.agree_up_to(s1, s2, 2)
        for text in LEVEL2_CORPUS:
            f = S.parse(text)
            assert M.evaluate(s1, f) == M.evaluate(s2, f), text


def test_layered_structure_bound():
    base = M.make_structure(list("abc"), {("p", 5): [tuple("babcc")]})
    lay = M.layered_from_structure(base, 3)
    # primitive generator abc, length 3: within bound
    assert lay.holds("p", tuple("babcc"))
    assert lay.overbound_queries == 0
    with pytest.raises(M.LayerError):
        lay.holds("p", tuple("abcab"))


def test_extend_layer():
    lay1 = M.LayeredStructure(("a", "b"), 1, {"r": 2},
                              {("r", ("a", "a")): True,
                               ("r", ("b", "b")): False})
    asg = {("a", "b"): {("r", (1, 1)): True, ("r", (2, 2)): False,
                        ("r", (1, 2)): True, ("r", (2, 1)): False}}
    lay2 = M.extend_layer(lay1, asg)
    assert lay2.bound == 2
    assert lay2.holds("r", ("a", "b"))
    assert not lay2.holds("r", ("b", "a"))
    assert lay2.holds("r", ("a", "a"))
    assert not M.evaluate_layered(lay2, S.parse("forall x1 exists x2 r(x1,x2)"))
    assert M.evaluate_layered(lay2, S.parse("exists x1 exists x2 r(x1,x2)"))
    assert lay2.overbound_queries == 0


def test_extend_layer_must_agree():
    lay1 = M.LayeredStructure(("a", "b"), 1, {"r": 2},
                              {("r", ("a", "a")): True,
                               ("r", ("b", "b")): False})
    bad = {("a", "b"): {("r", (1, 1)): False, ("r", (2, 2)): False,
                        ("r", (1, 2)): True, ("r", (2, 1)): False}}
    with pytest.raises(M.LayerError):
        M.extend_layer(lay1, bad)


def test_layered_evaluation_matches_total():
    rng = random.Random(17)
    domain = tuple("abc")
    for _ in range(10):
        ext = frozenset(t for t in itertools.product(domain, repeat=3)
                        if rng.random() < 0.5)
        s = M.Structure(domain, {("t", 3): ext})
        lay = M.layered_from_structure(s, 2)
        for text in LEVEL2_CORPUS:
            f = S.parse(text)
            assert M.evaluate_layered(lay, f) == M.evaluate(s, f)
        assert lay.overbound_queries == 0


# ---------------------------------------------------------------------------
# Differential test of evaluate against a reference evaluator

def naive_evaluate(s, f, env):
    """Reference satisfaction: every quantifier enumerates the domain."""
    if isinstance(f, S.Atom):
        return tuple(env[a] for a in f.args) in s.extensions[(f.pred, f.arity)]
    if isinstance(f, S.Not):
        return not naive_evaluate(s, f.body, env)
    if isinstance(f, S.And):
        return all(naive_evaluate(s, c, env) for c in f.args)
    if isinstance(f, S.Or):
        return any(naive_evaluate(s, c, env) for c in f.args)
    if isinstance(f, S.Implies):
        return (not naive_evaluate(s, f.left, env)
                or naive_evaluate(s, f.right, env))
    if isinstance(f, S.Iff):
        return naive_evaluate(s, f.left, env) == naive_evaluate(s, f.right, env)
    test = all if isinstance(f, S.Forall) else any
    return test(naive_evaluate(s, f.body, {**env, f.var: a}) for a in s.domain)


VARS = ("x1", "x2", "x3")
PREDS = (("c", 0), ("p", 1), ("q", 1), ("r", 2), ("t", 3))


@st.composite
def structures(draw):
    domain = tuple(f"e{i}" for i in range(draw(st.integers(1, 3))))
    exts = {}
    for name, arity in PREDS:
        tuples = list(itertools.product(domain, repeat=arity))
        keep = draw(st.lists(st.booleans(), min_size=len(tuples),
                             max_size=len(tuples)))
        exts[(name, arity)] = frozenset(t for t, k in zip(tuples, keep) if k)
    return M.Structure(domain, exts)


@st.composite
def atoms(draw):
    name, arity = draw(st.sampled_from(PREDS))
    args = draw(st.lists(st.sampled_from(VARS), min_size=arity,
                         max_size=arity))
    return S.Atom(name, tuple(args))


@st.composite
def guarded(draw, bodies):
    """forall chain (guard -> phi) or exists chain (... & guard & ...), with
    a guard on every chain variable; chain variables may repeat and may
    shadow outer bindings, guard variables may repeat."""
    chain = draw(st.lists(st.sampled_from(VARS), min_size=1, max_size=3))
    names = list(dict.fromkeys(chain))
    name, arity = draw(st.sampled_from(
        [pa for pa in PREDS if pa[1] >= len(names)]))
    repeat = st.one_of(st.sampled_from(names), st.sampled_from(VARS))
    extra = draw(st.lists(repeat, min_size=arity - len(names),
                          max_size=arity - len(names)))
    guard = S.Atom(name, tuple(draw(st.permutations(names + extra))))
    if draw(st.booleans()):
        f, cls = S.Implies(guard, draw(bodies)), S.Forall
    else:
        others = draw(st.lists(bodies, max_size=2))
        at = draw(st.integers(0, len(others)))
        f = S.And(tuple(others[:at]) + (guard,) + tuple(others[at:]))
        cls = S.Exists
    for v in reversed(chain):
        f = cls(v, f)
    return f


formulas = st.recursive(atoms(), lambda kids: st.one_of(
    kids.map(S.Not),
    st.lists(kids, max_size=3).map(lambda xs: S.And(tuple(xs))),
    st.lists(kids, max_size=3).map(lambda xs: S.Or(tuple(xs))),
    st.builds(S.Implies, kids, kids),
    st.builds(S.Iff, kids, kids),
    st.builds(S.Forall, st.sampled_from(VARS), kids),
    st.builds(S.Exists, st.sampled_from(VARS), kids),
    guarded(kids),
), max_leaves=10)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_evaluate_matches_naive_oracle(data):
    s = data.draw(structures())
    f = data.draw(st.one_of(guarded(formulas), formulas))
    free = S.free_vars(f)
    element = st.sampled_from(s.domain)
    if data.draw(st.booleans()):
        need = max((S.var_index(v) for v in free), default=0)
        assignment = tuple(data.draw(st.lists(element, min_size=need,
                                              max_size=len(VARS))))
        env = {S.var(i + 1): a for i, a in enumerate(assignment)}
    else:
        names = free | data.draw(st.frozensets(st.sampled_from(VARS)))
        assignment = env = {v: data.draw(element) for v in sorted(names)}
    assert M.evaluate(s, f, assignment) == naive_evaluate(s, f, env)
