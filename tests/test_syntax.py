"""Parsing, printing, fragment classification, and the variable-transform
operators."""

import hashlib
import itertools
import random

import pytest

import afkit.semantics as M
import afkit.syntax as S
import afkit.words as W
from corpus import CLASSIFY_CORPUS


def test_parse_render_roundtrip_on_corpus():
    for text, _adj, _mk in CLASSIFY_CORPUS:
        f = S.parse(text)
        assert S.parse(S.render(f)) == f


def test_parser_precedence_and_scope():
    f = S.parse("p & q | r -> s <-> t")
    assert isinstance(f, S.Iff)
    assert isinstance(f.left, S.Implies)
    # A quantifier takes the longest formula to its right.
    g = S.parse("forall x1 p(x1) & q")
    assert isinstance(g, S.Forall)
    assert isinstance(g.body, S.And)


def test_parser_errors():
    with pytest.raises(S.ParseError):
        S.parse("forall x1")
    with pytest.raises(S.ParseError):
        S.parse("p(x1 x2)")
    with pytest.raises(S.ParseError):
        S.parse("p(x1) & p(x1,x2)")  # arity conflict
    with pytest.raises(S.ParseError):
        S.parse("p(x0)")


def test_parser_rejects_zero_padded_index():
    # x01 and x1 would be one index but two names to the evaluator.
    with pytest.raises(S.ParseError):
        S.parse("r(x1,x01)")
    with pytest.raises(S.ParseError):
        S.parse("forall x01 p(x01)")


def test_basic_queries():
    f = S.parse("forall x1 (p(x1) -> exists x2 r(x1,x2))")
    assert S.is_sentence(f)
    assert S.free_vars(f) == frozenset()
    assert S.signature(f) == {"p": 1, "r": 2}
    g = S.parse("r(x1,x2) & p(x2)")
    assert S.free_vars(g) == frozenset({"x1", "x2"})
    assert S.is_quantifier_free(g)
    assert S.node_count(g) == 3


def test_signature_and_size_in_one_walk():
    """The signature in first-occurrence order and the node count of
    ``subformulas``; an arity clash raises as ``signature`` does."""
    for text, *_ in CLASSIFY_CORPUS:
        f = S.parse(text)
        sig = {}
        for a in S.atoms(f):
            sig.setdefault(a.pred, a.arity)
        assert S.signature_and_size(f) == (sig, S.node_count(f))
        assert list(S.signature_and_size(f)[0]) == list(sig)
    with pytest.raises(S.FormulaError, match="arities 1 and 2"):
        S.signature_and_size(S.And((S.Atom("p", ("x1",)),
                                    S.Atom("p", ("x1", "x2")))))


def test_classification_corpus():
    for text, adj, mk in CLASSIFY_CORPUS:
        report = S.classify(S.parse(text))
        assert report.adjacent == adj, text
        if adj:
            assert report.min_k == mk, text


def test_classification_flags():
    eq1 = S.parse(
        "forall x1 forall x2 forall x3 exists x4 forall x5 "
        "(p(x1,x2,x3,x2,x3,x4,x5) -> p(x1,x2,x3,x4,x3,x4,x5))")
    r = S.classify(eq1)
    assert r.adjacent and r.min_k == 0 and r.variable_count == 5

    trans = S.parse("forall x1 forall x2 forall x3 "
                    "((r(x1,x2) & r(x2,x3)) -> r(x1,x3))")
    assert not S.classify(trans).adjacent

    r = S.classify(S.parse("forall x1 exists x2 r(x1,x2)"))
    assert r.fluted and r.ordered and r.forward and r.two_variable
    assert not r.guarded

    r = S.classify(S.parse("forall x1 forall x2 (r(x1,x2) -> t(x1,x2,x2))"))
    assert r.guarded and r.guarded_adjacent

    r = S.classify(S.parse("forall x1 forall x2 (p(x1) -> p(x2))"))
    assert r.adjacent and not r.guarded


def test_index_normal_renaming():
    f = S.parse("forall x2 exists x1 r(x2,x1)")
    assert S.index_normal(f) == S.parse("forall x1 exists x2 r(x1,x2)")
    g = S.parse("forall x3 p(x3)")
    assert S.index_normal(g) == S.parse("forall x1 p(x1)")


def test_substitute_walk():
    chi = S.parse("r(x1,x2) & !r(x2,x3)")
    assert S.substitute_walk(chi, (2, 1, 1)) == S.parse(
        "r(x2,x1) & !r(x1,x1)")
    with pytest.raises(S.FormulaError):
        S.substitute_walk(chi, (1, 3, 1))  # not adjacent


def test_reverse_hat_shift():
    chi = S.parse("r(x1,x2) & !r(x2,x3)")
    assert S.reverse_vars(chi) == S.parse("r(x3,x2) & !r(x2,x1)")
    assert S.hat(chi) == S.parse(
        "r(x1,x2) & !r(x2,x3) & r(x3,x2) & !r(x2,x1)")
    assert S.shift_up(chi) == S.parse("r(x2,x3) & !r(x3,x4)")
    assert S.max_index(S.shift_up(chi)) == 4


def _all_structures(n):
    domain = tuple(f"e{i}" for i in range(n))
    pairs = list(itertools.product(domain, repeat=2))
    for bits in range(1 << len(pairs)):
        ext = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
        yield M.Structure(domain, {("r", 2): ext})


def test_fo2_to_af_equivalence():
    f = S.parse("forall u exists v (r(u,v) & exists u r(v,u))")
    g = S.fo2_to_af(f)
    report = S.classify(g)
    assert report.adjacent and report.min_k == 0
    assert report.variable_count == 3
    for n in (1, 2):
        for s in _all_structures(n):
            assert M.evaluate(s, f) == M.evaluate(s, g)


def test_af_to_fo2_equivalence():
    f = S.parse("forall x1 exists x2 (r(x1,x2) & exists x3 r(x2,x3))")
    g = S.af_to_fo2(f)
    assert S.free_vars(g) == frozenset()
    assert {v for a in S.atoms(g) for v in a.args} <= {"u", "v"}
    for n in (1, 2):
        for s in _all_structures(n):
            assert M.evaluate(s, f) == M.evaluate(s, g)


def test_bridge_between_walks_and_substitution():
    chi = S.parse("r(x1,x2) & !r(x2,x3)")
    for s in itertools.islice(_all_structures(2), 16):
        for g in W.walks(3, 2):
            sub = S.substitute_walk(chi, g)
            for tup in itertools.product(s.domain, repeat=2):
                walked = W.apply_walk(tup, g)
                assert M.evaluate(s, sub, tup) == M.evaluate(s, chi, walked)


# Random formulas over x1-x4 or u/v: bodies of depth at most 4 (a leaf
# counts one), half of them closed by one quantifier per free name.
RANDOM_PREDICATES = (("q", 0), ("p", 1), ("r", 2), ("t", 3))
RANDOM_NAME_POOLS = (("x1", "x2", "x3", "x4"), ("x1", "x2"), ("u", "v"),
                     ("u", "x2"))


def random_formula(rng, names, depth=3):
    if depth == 0 or rng.random() < 0.25:
        pred, arity = rng.choice(RANDOM_PREDICATES)
        return S.Atom(pred, tuple(rng.choice(names) for _ in range(arity)))
    kind = rng.randrange(6)
    if kind == 0:
        return S.Not(random_formula(rng, names, depth - 1))
    if kind >= 4:
        cls = S.Forall if kind == 4 else S.Exists
        return cls(rng.choice(names), random_formula(rng, names, depth - 1))
    left = random_formula(rng, names, depth - 1)
    right = random_formula(rng, names, depth - 1)
    if kind == 1:
        return S.And((left, right))
    if kind == 2:
        return S.Or((left, right))
    return S.Implies(left, right)


def random_formulas(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        f = random_formula(rng, rng.choice(RANDOM_NAME_POOLS))
        if rng.random() < 0.5:
            for name in sorted(S.free_vars(f), reverse=True):
                f = rng.choice((S.Forall, S.Exists))(name, f)
        yield f


def renaming_outcome(f):
    """One line per formula: the rendered result (or error type and message)
    of index_normal, classify, fo2_to_af and af_to_fo2."""
    parts = [S.render(f)]
    for fn in (S.index_normal, S.classify, S.fo2_to_af, S.af_to_fo2):
        try:
            out = fn(f)
        except (S.FormulaError, S.ResourceError) as exc:
            parts.append(f"{type(exc).__name__}: {exc}")
            continue
        parts.append(repr(out) if out is None or fn is S.classify
                     else S.render(out))
    return " ;; ".join(parts)


# sha256 of the outcome lines of seed 10, recorded before the four
# bound-variable renamings of `syntax` became one walk.
RENAMING_DIGEST = (
    "80be7f891ba6efba241472ea6585e13e4d6a90942bedf8a99c57072508789088")


def test_renaming_outcomes_golden():
    lines = "\n".join(renaming_outcome(f) for f in random_formulas(10, 1000))
    assert hashlib.sha256(lines.encode()).hexdigest() == RENAMING_DIGEST
