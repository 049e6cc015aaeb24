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
from reference import per_match


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


def reference_json(s):
    """``structure_to_json`` as it was written before it laid out the JSON
    itself: the reference for its bytes."""
    preds = {}
    for (name, arity), ext in sorted(s.extensions.items()):
        if arity == 0:
            preds[f"{name}/0"] = () in ext
        else:
            preds[f"{name}/{arity}"] = sorted(list(t) for t in ext)
    return json.dumps({"domain": list(s.domain), "predicates": preds},
                      indent=2, sort_keys=True)


JSON_CASES = [
    M.Structure((), {}),
    M.Structure((), {("q", 0): frozenset([()]), ("r", 0): frozenset(),
                     ("p", 1): frozenset()}),
    M.make_structure([f"e{i}" for i in range(12)],
                     {("p", 10): [("e10",) * 9 + ("e2",), ("e2",) * 10],
                      ("p", 2): [("e2", "e10"), ("e10", "e2"), ("e1", "e11")],
                      ("p", 0): [()]}),
    M.make_structure([0, -7, 2.5, -0.0, float("inf"), True, None],
                     {("r", 2): [(0, 2.5), (-7, True), (-0.0, -7)],
                      ("n", 1): [(None,)]}),
    M.make_structure(["é", "a\"b", "\\", "\n\t", "\u2028", "\U0001f600", ""],
                     {("s", 1): [("é",), ("a\"b",), ("",)],
                      ("ü", 2): [("\\", "\n\t"), ("\u2028", "\U0001f600")]}),
]


@pytest.mark.parametrize("s", JSON_CASES, ids=["empty", "letters", "keys",
                                                "numbers", "strings"])
def test_structure_to_json_cases(s):
    assert M.structure_to_json(s) == reference_json(s)
    assert M.structure_from_json(M.structure_to_json(s)) == s


SCALAR = st.one_of(st.none(), st.booleans(), st.integers(-10 ** 20, 10 ** 20),
                   st.floats(), st.text(max_size=3))


@st.composite
def json_structures(draw):
    """Structures over names like e10 and e2, over arbitrary text, over
    numbers (1, 1.0 and True are equal but encode apart), or over any mix
    of JSON scalars, with proposition letters, empty extensions and names
    whose keys sort apart from (name, arity), such as p/10 before p/2."""
    kind = draw(st.sampled_from(["names", "text", "numbers", "mixed"]))
    if kind == "names":
        domain = [f"e{i}" for i in range(draw(st.integers(0, 12)))]
    elif kind == "text":
        domain = draw(st.lists(st.text(max_size=3), max_size=6, unique=True))
    elif kind == "numbers":
        domain = draw(st.lists(st.one_of(st.booleans(), st.integers(-3, 12),
                                         st.floats()), max_size=6))
    else:
        domain = draw(st.lists(SCALAR, max_size=5))
    keys = draw(st.lists(st.tuples(st.sampled_from(["p", "q", "r_1", "é"]),
                                   st.sampled_from([0, 1, 2, 3, 10])),
                         max_size=5, unique=True))
    exts = {}
    for name, arity in keys:
        if arity == 0:
            exts[(name, 0)] = frozenset([()] if draw(st.booleans()) else [])
        elif not domain:
            exts[(name, arity)] = frozenset()
        else:
            tuples = st.tuples(*[st.sampled_from(domain)] * arity)
            exts[(name, arity)] = frozenset(
                draw(st.lists(tuples, max_size=5 if arity < 10 else 2)))
    return M.Structure(tuple(domain), exts)


@settings(max_examples=400, deadline=None)
@given(json_structures())
def test_structure_to_json_matches_json_dumps(s):
    """Byte for byte the indented, key-sorted ``json.dumps`` output; where
    that cannot sort a predicate's tuples (None beside a number or a
    string), both raise TypeError."""
    try:
        expected = reference_json(s)
    except TypeError:
        with pytest.raises(TypeError):
            M.structure_to_json(s)
        return
    assert M.structure_to_json(s) == expected


def test_structure_to_json_rejects_non_scalars():
    with pytest.raises(M.SemanticsError):
        M.structure_to_json(M.make_structure([("a", 1)], {}))


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
    full = M.complete_signature(s, S.signature(f))
    assert ("p", 1) in full.extensions
    assert M.evaluate(full, f)


def test_complete_signature_adds_only_missing_predicates():
    s = M.make_structure(["a", "b"], {("r", 2): [("a", "b")]})
    # Every predicate interpreted: the structure itself comes back.
    assert M.complete_signature(s, {"r": 2}) is s
    f = S.parse("forall x1 forall x2 (r(x1,x2) -> p(x1))")
    full = M.complete_signature(s, S.signature(f))
    assert full.domain == s.domain
    assert full.extensions == {("r", 2): s.extensions[("r", 2)],
                               ("p", 1): frozenset()}
    assert ("p", 1) not in s.extensions
    assert not M.evaluate(full, f)
    assert M.complete_signature(full, S.signature(f)) is full


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


def test_layered_extensions_and_guarded_quantifiers():
    lay = M.LayeredStructure(("a", "b"), 2, {"r": 2, "p": 1},
                             {("r", ("a", "b")): True,
                              ("r", ("b", "a")): False,
                              ("p", ("b",)): True})
    # Only true facts, under every interpreted predicate.
    assert lay.extensions == {("r", 2): frozenset({("a", "b")}),
                              ("p", 1): frozenset({("b",)})}
    assert M.evaluate_layered(
        lay, S.parse("forall x1 forall x2 (r(x1,x2) -> p(x2))"))
    assert not M.evaluate_layered(
        lay, S.parse("exists x1 exists x2 (r(x1,x2) & p(x1))"))
    assert M.evaluate_layered(lay, S.parse("exists x1 (p(x1) & !r(x1,x1))"))
    assert lay.overbound_queries == 0


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


@st.composite
def one_atom_guarded(draw):
    """forall chain (guard -> atom) or exists chain (guard & atom), where the
    guard's variables are the chain's and some bound outside it, possibly
    repeated, and the atom's arguments are guard variables (sometimes the
    atom is the guard itself); inside up to two outer quantifiers, which
    may bind the guard's bound variables or be shadowed by the chain."""
    chain = draw(st.lists(st.sampled_from(VARS), min_size=1, max_size=3))
    names = list(dict.fromkeys(chain))
    outside = [v for v in VARS if v not in names]
    if outside and draw(st.booleans()):
        names += draw(st.lists(st.sampled_from(outside), min_size=1,
                               unique=True))
    name, arity = draw(st.sampled_from(
        [pa for pa in PREDS if pa[1] >= len(names)]))
    extra = draw(st.lists(st.sampled_from(names), min_size=arity - len(names),
                          max_size=arity - len(names)))
    guard = S.Atom(name, tuple(draw(st.permutations(names + extra))))
    body_name, body_arity = draw(st.sampled_from(PREDS))
    body = S.Atom(body_name, tuple(draw(st.lists(
        st.sampled_from(names), min_size=body_arity, max_size=body_arity))))
    if draw(st.integers(0, 3)) == 0:
        body = guard
    if draw(st.booleans()):
        f, cls = S.Implies(guard, body), S.Forall
    else:
        f, cls = S.And(draw(st.permutations((guard, body)))), S.Exists
    for v in reversed(chain):
        f = cls(v, f)
    for v, cls in draw(st.lists(st.tuples(st.sampled_from(VARS),
                                          st.sampled_from((S.Forall, S.Exists))),
                                max_size=2)):
        f = cls(v, f)
    return f


def _layer_width(f):
    """The least layer bound ``evaluate_layered`` accepts for f."""
    normal = S.index_normal(f)
    return max([1, S.max_index(normal)]
               + [S.var_index(v) for v in S.free_vars(f)]
               + [S.var_index(g.var) for g in S.subformulas(normal)
                  if isinstance(g, (S.Forall, S.Exists))])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_atom_guarded_quantifiers_match_naive_oracle(data):
    s = data.draw(structures())
    f = data.draw(one_atom_guarded())
    need = max((S.var_index(v) for v in S.free_vars(f)), default=0)
    assignment = tuple(data.draw(st.lists(st.sampled_from(s.domain),
                                          min_size=need, max_size=need)))
    expected = naive_evaluate(
        s, f, {S.var(i + 1): a for i, a in enumerate(assignment)})
    assert M.evaluate(s, f, assignment) == expected
    if S.classify(f).adjacent:
        # The layer keeps only the facts within the formula's width; an
        # adjacent formula never asks about the others.
        lay = M.layered_from_structure(s, _layer_width(f))
        assert M.evaluate_layered(lay, f, assignment) == expected
        assert lay.overbound_queries == 0


# ---------------------------------------------------------------------------
# Filter stages: the literal tests that open a guarded body

UNINTERPRETED = (("u", 1), ("w", 2))


@st.composite
def literal_tests(draw, names, preds, depth=2):
    """An atom on ``names`` or, one time in six, on any variable (so it may
    read one bound outside the block), its negation, the biconditional of
    two, or the conjunction of two."""
    kind = draw(st.integers(0, 3)) if depth else 0
    if kind == 0:
        name, arity = draw(st.sampled_from(preds))
        pool = VARS if draw(st.integers(0, 5)) == 0 else names
        return S.Atom(name, tuple(draw(st.lists(
            st.sampled_from(pool), min_size=arity, max_size=arity))))
    if kind == 1:
        return S.Not(draw(literal_tests(names, preds, depth - 1)))
    left = draw(literal_tests(names, preds, depth - 1))
    right = draw(literal_tests(names, preds, depth - 1))
    return S.Iff(left, right) if kind == 2 else S.And((left, right))


@st.composite
def filtered_guarded(draw, tails, preds=PREDS, distinct=False):
    """forall chain (guard -> (l1 & ... & tail -> consequent)) or exists
    chain (... & guard & ...) whose antecedent or conjuncts begin with one
    to three literal tests, then up to two ``tails`` (at least one under
    exists, so the block never reduces to one atom), some of them grouped
    in a nested And; the guard may read variables bound outside the
    chain."""
    chain = draw(st.lists(st.sampled_from(VARS), min_size=1, max_size=3,
                          unique=distinct))
    names = list(dict.fromkeys(chain))
    name, arity = draw(st.sampled_from(
        [pa for pa in PREDS if pa[1] >= len(names)]))
    extra = draw(st.lists(st.sampled_from(VARS), min_size=arity - len(names),
                          max_size=arity - len(names)))
    guard = S.Atom(name, tuple(draw(st.permutations(names + extra))))
    forall = draw(st.booleans())
    parts = (draw(st.lists(literal_tests(names, preds), min_size=1,
                           max_size=3))
             + draw(st.lists(tails, min_size=0 if forall else 1,
                             max_size=2)))
    i = draw(st.integers(0, len(parts)))
    j = draw(st.integers(i, len(parts)))
    if j - i >= 2:
        parts[i:j] = [S.And(tuple(parts[i:j]))]
    if forall:
        antecedent = parts[0] if len(parts) == 1 else S.And(tuple(parts))
        f, cls = S.Implies(guard, S.Implies(antecedent, draw(tails))), S.Forall
    else:
        at = draw(st.integers(0, len(parts)))
        f, cls = S.And(tuple(parts[:at]) + (guard,) + tuple(parts[at:])), S.Exists
    for v in reversed(chain):
        f = cls(v, f)
    return f


def _positional(data, s, f):
    """An assignment to x1..xk covering f's free variables, and its map."""
    need = max((S.var_index(v) for v in S.free_vars(f)), default=0)
    assignment = tuple(data.draw(st.lists(st.sampled_from(s.domain),
                                          min_size=need, max_size=need)))
    return assignment, {S.var(i + 1): a for i, a in enumerate(assignment)}


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_filtered_guarded_blocks_match_naive_oracle(data):
    s = data.draw(structures())
    f = data.draw(filtered_guarded(formulas))
    for v, cls in data.draw(st.lists(st.tuples(
            st.sampled_from(VARS), st.sampled_from((S.Forall, S.Exists))),
            max_size=2)):
        f = cls(v, f)
    assignment, env = _positional(data, s, f)
    expected = naive_evaluate(s, f, env)
    assert M.evaluate(s, f, assignment) == expected
    if S.classify(f).adjacent:
        lay = M.layered_from_structure(s, _layer_width(f))
        assert M.evaluate_layered(lay, f, assignment) == expected
        assert lay.overbound_queries == 0


def _outcome(run):
    """The value of ``run()``, or the message of the SemanticsError it
    raises."""
    try:
        return run()
    except M.SemanticsError as e:
        return ("raises", str(e))


QF_WITH_UNINTERPRETED = st.recursive(
    st.builds(S.Atom, st.sampled_from(("p", "u")),
              st.lists(st.sampled_from(VARS), min_size=1, max_size=1)
              .map(tuple)),
    lambda kids: st.one_of(
        kids.map(S.Not),
        st.lists(kids, min_size=1, max_size=3).map(lambda xs: S.And(tuple(xs))),
        st.lists(kids, min_size=1, max_size=3).map(lambda xs: S.Or(tuple(xs))),
        st.builds(S.Implies, kids, kids),
        st.builds(S.Iff, kids, kids)),
    max_leaves=4)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_filtered_loop_asks_what_a_per_match_loop_asks(data):
    """The filtered loop's verdict, or the SemanticsError it raises, is the
    per-match reference's, on a Structure and through evaluate_layered;
    on the layer it asks ``holds`` the same (predicate, tuple) sequence."""
    s = data.draw(structures())
    f = data.draw(filtered_guarded(QF_WITH_UNINTERPRETED,
                                   PREDS + UNINTERPRETED, distinct=True))
    assignment, env = _positional(data, s, f)
    expected = _outcome(lambda: per_match(s, f, env, s.holds))
    assert _outcome(lambda: M.evaluate(s, f, assignment)) == expected
    if not {a.pred for a in S.atoms(f)} & {"u", "w"}:
        assert expected == naive_evaluate(s, f, env)
    if not S.classify(f).adjacent:
        return
    lay = M.layered_from_structure(s, _layer_width(f))
    asked, reference = [], []

    def recording(log):
        def holds(name, args):
            log.append((name, args))
            return M.LayeredStructure.holds(lay, name, args)
        return holds

    lay.holds = recording(asked)
    got = _outcome(lambda: M.evaluate_layered(lay, f, assignment))
    lay.holds = recording(reference)
    assert got == _outcome(lambda: per_match(lay, S.adjacent_form(f), env,
                                             lay.holds)) == expected
    assert asked == reference
    assert lay.overbound_queries == 0


# ---------------------------------------------------------------------------
# Guard tables kept with the structure

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_guard_tables_reused_across_calls_match_naive_oracle(data):
    """Several guarded sentences in turn on one Structure object, so later
    calls read the guard tables earlier ones built."""
    s = data.draw(structures())
    fs = data.draw(st.lists(st.one_of(one_atom_guarded(), guarded(formulas)),
                            min_size=2, max_size=5))
    assignment = tuple(data.draw(st.lists(st.sampled_from(s.domain),
                                          min_size=len(VARS),
                                          max_size=len(VARS))))
    env = dict(zip(VARS, assignment))
    for f in fs:
        assert M.evaluate(s, f, assignment) == naive_evaluate(s, f, env), f


def test_zero_ary_image_atom_follows_the_match_count():
    for p, c in itertools.product([[], [("a",)]], [[], [()]]):
        s = M.make_structure(["a", "b"], {("p", 1): p, ("c", 0): c})
        for text in ["forall x1 (p(x1) -> c)", "exists x1 (p(x1) & c)"]:
            f = S.parse(text)
            assert M.evaluate(s, f) == naive_evaluate(s, f, {}), (p, c, text)


def test_uninterpreted_image_predicate_raises_exactly_on_a_match():
    f = S.parse("forall x1 forall x2 (r(x1,x2) -> q(x2))")
    g = S.parse("exists x1 exists x2 (r(x1,x2) & q(x1,x2))")
    empty = M.make_structure(["a", "b"], {("r", 2): []})
    full = M.make_structure(["a", "b"], {("r", 2): [("a", "b")]})
    for _ in range(2):
        assert M.evaluate(empty, f) and not M.evaluate(empty, g)
        for h in (f, g):
            with pytest.raises(M.SemanticsError, match="not interpreted"):
                M.evaluate(full, h)
    # An uninterpreted guard raises even when its image is itself.
    for text in ["forall x1 (p(x1) -> p(x1))", "exists x1 (p(x1) & p(x1))"]:
        for _ in range(2):
            with pytest.raises(M.SemanticsError, match="not interpreted"):
                M.evaluate(empty, S.parse(text))


def test_replaced_extension_is_seen_by_the_next_call():
    s = M.make_structure(["a", "b"], {("r", 2): [("a", "b")],
                                      ("p", 1): []})
    texts = ["forall x1 forall x2 (r(x1,x2) -> r(x2,x1))",
             "forall x1 forall x2 (r(x1,x2) -> r(x2,x1) & p(x1))",
             "exists x1 (p(x1) & p(x1))",
             "forall x1 exists x2 (r(x1,x2) & r(x2,x1))"]
    fs = [S.parse(t) for t in texts]
    before = [naive_evaluate(s, f, {}) for f in fs]
    assert [M.evaluate(s, f) for f in fs] == before
    s.extensions[("r", 2)] = frozenset({("a", "b"), ("b", "a")})
    s.extensions[("p", 1)] = frozenset({("a",), ("b",)})
    after = [naive_evaluate(s, f, {}) for f in fs]
    assert after != before
    assert [M.evaluate(s, f) for f in fs] == after


# ---------------------------------------------------------------------------
# Dense guards loop over the domain

def _counting_guard_index(monkeypatch):
    """Record the guard of each table that ``_guard_index`` builds."""
    built, guard_index = [], M._guard_index

    def counting(exts, guard, bound):
        built.append(guard)
        return guard_index(exts, guard, bound)
    monkeypatch.setattr(M, "_guard_index", counting)
    return built


def test_dense_validity_builds_no_guard_table(monkeypatch):
    """Acceptance test 3's structures: the guard of the validity sentence,
    and of a variant that is not valid, builds no table where it has at
    least as many tuples as its five variables have assignments, and one
    table, which both sentences read, on the one-element structures where
    it is empty; the verdicts are the naive oracle's."""
    valid = S.parse("forall x1 forall x2 forall x3 exists x4 forall x5 "
                    "(p(x1,x2,x3,x2,x3,x4,x5) -> p(x1,x2,x3,x4,x3,x4,x5))")
    other = S.parse("forall x1 forall x2 forall x3 exists x4 forall x5 "
                    "(p(x1,x2,x3,x2,x3,x4,x5) -> p(x5,x2,x3,x4,x3,x4,x1))")
    built = _counting_guard_index(monkeypatch)
    rng = random.Random(2026)
    verdicts, dense = [], []
    for _ in range(12):
        size = rng.randint(1, 4)
        domain = tuple(f"e{i}" for i in range(size))
        ext = frozenset(t for t in itertools.product(domain, repeat=7)
                        if rng.random() < 0.5)
        s = M.Structure(domain, {("p", 7): ext})
        before = len(built)
        for f in (valid, other):
            verdicts.append(M.evaluate(s, f))
            assert verdicts[-1] == naive_evaluate(s, f, {})
        dense.append(size ** 5 <= len(ext))
        assert len(built) - before == (0 if dense[-1] else 1)
    assert dense.count(False) == 2 and dense.count(True) == 10
    assert all(verdicts[::2]) and not all(verdicts[1::2])


@pytest.mark.parametrize("text", [
    "forall x1 (p(x1) -> ((q(x1) & m(x1)) | n(x1)))",
    "exists x1 (p(x1) & ((q(x1) & m(x1)) | n(x1)))"])
def test_dense_guard_reading_uninterpreted_predicate_keeps_the_table(
        monkeypatch, text):
    """The guard p holds everywhere, but the body reads m and n, which are
    not interpreted: the block still ranges over p's table, in its order,
    and raises where the per-match loop raises.  The domain lists p's
    first match last, so a loop over the domain would meet n first."""
    f = S.parse(text)
    ext = frozenset({("a",), ("b",)})
    (first,), _ = ext
    domain = tuple(sorted("ab", key=lambda e: e == first))
    s = M.Structure(domain, {("p", 1): ext, ("q", 1): frozenset({(first,)})})
    built = _counting_guard_index(monkeypatch)
    expected = _outcome(lambda: per_match(s, f, {}, s.holds))
    assert expected == ("raises", "predicate m/1 not interpreted")
    assert _outcome(lambda: M.evaluate(s, f)) == expected
    assert built == [S.Atom("p", ("x1",))]
