"""End-to-end acceptance checks, one per headline property.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``); the
pytest verdict for the test carries the same information.
"""

import itertools
import random
import time
from pathlib import Path

import afkit.hardness as H
import afkit.sat as X
import afkit.semantics as M
import afkit.syntax as S
import afkit.words as W
from corpus import (AF3_CORPUS, AF4_CORPUS, LEVEL2_CORPUS, PRODUCT_CORPUS,
                    nf_text)

DATA = Path(__file__).parent / "data"


def _report(label, ok):
    print(f"{label}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, label


# ---------------------------------------------------------------------------
# 1. Every short word has exactly one minimal generator up to reversal.

def test_minimal_generator_unique_up_to_reversal():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 10):
        for w in itertools.product("abc", repeat=n):
            gens = W.minimal_generators_bruteforce(w)
            rep = next(iter(gens))
            if gens != {rep, W.reverse(rep)}:
                ok = False
            if W.primitive_generator(w) not in gens:
                ok = False
    elapsed = time.perf_counter() - t0
    _report("minimal generator unique up to reversal (words <= 9 over abc)",
            ok and elapsed < 120)


# ---------------------------------------------------------------------------
# 2. Known word/generator pairs reproduce exactly.

def test_word_example_outputs():
    pg = lambda t: W.format_word(W.primitive_generator(W.word(t)))
    ok = (pg("babcd") == "abcd" and pg("abcbcd") == "abcd"
          and pg("abcbda") == "abcbda" and pg("babcc") == "abc"
          and pg("abcbcbd") == "abcbd")
    witnesses = [f for f in W.surjective_walks(7, 5)
                 if W.apply_walk(W.word("abcbd"), f) == W.word("abcbcbd")]
    ok = ok and len(witnesses) >= 2
    long_walk = (3, 2, 1, 2, 3, 3, 3, 4, 5, 6, 5, 4, 3, 4, 5, 6, 7, 8, 7, 6)
    ok = ok and (W.apply_walk(W.word("cbadefba"), long_walk)
                 == W.word("abcbaaadefedadefbabf"))
    _report("primitive generator examples and the 20-step walk", ok)


# ---------------------------------------------------------------------------
# 3. The five-variable validity over a 7-ary predicate holds on random
#    structures.

def test_seven_ary_five_variable_validity():
    f = S.parse("forall x1 forall x2 forall x3 exists x4 forall x5 "
                "(p(x1,x2,x3,x2,x3,x4,x5) -> p(x1,x2,x3,x4,x3,x4,x5))")
    rng = random.Random(2026)
    ok = True
    for _ in range(1000):
        size = rng.randint(1, 4)
        domain = tuple(f"e{i}" for i in range(size))
        ext = frozenset(t for t in itertools.product(domain, repeat=7)
                        if rng.random() < 0.5)
        s = M.Structure(domain, {("p", 7): ext})
        if not M.evaluate(s, f):
            ok = False
            break
    _report("five-variable validity on 1000 random structures", ok)


# ---------------------------------------------------------------------------
# 4. Products preserve truth; substitution along a walk matches reading the
#    tuple along the walk; level-2-agreeing structures agree on level-2
#    sentences.

def _all_binary_structures(n):
    domain = tuple(f"e{i}" for i in range(n))
    pairs = list(itertools.product(domain, repeat=2))
    for bits in range(1 << len(pairs)):
        ext = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
        yield M.Structure(domain, {("r", 2): ext})


def test_product_bridge_and_level_agreement():
    ok = True
    # Products, exhaustively for base size <= 2 and index size <= 2.
    for text in PRODUCT_CORPUS:
        f = S.parse(text)
        fv = sorted(S.free_vars(f))
        for size in (1, 2):
            for b in _all_binary_structures(size):
                for index in (["i"], ["i", "j"]):
                    p = M.product(b, index)
                    for bs in itertools.product(b.domain, repeat=len(fv)):
                        base = M.evaluate(b, f, dict(zip(fv, bs)))
                        for iv in itertools.product(index, repeat=len(fv)):
                            paired = tuple(zip(bs, iv))
                            if M.evaluate(p, f, dict(zip(fv, paired))) != base:
                                ok = False

    # Walk substitution bridge on 500 random instances.
    rng = random.Random(31)
    atoms = ["r(x1,x2)", "r(x2,x1)", "r(x2,x3)", "p(x1)", "p(x3)",
             "r(x1,x2) & !r(x2,x3)", "r(x3,x2) | !p(x2)",
             "(p(x1) & r(x1,x2)) -> r(x2,x3)"]
    for _ in range(500):
        chi = S.parse(rng.choice(atoms))
        k = rng.randint(2, 3)
        g = rng.choice(list(W.walks(3, k)))
        size = rng.randint(1, 3)
        domain = tuple(f"e{i}" for i in range(size))
        ext = frozenset(t for t in itertools.product(domain, repeat=2)
                        if rng.random() < 0.5)
        ones = frozenset((d,) for d in domain if rng.random() < 0.5)
        s = M.Structure(domain, {("r", 2): ext, ("p", 1): ones})
        tup = tuple(rng.choice(domain) for _ in range(k))
        sub = S.substitute_walk(chi, g)
        if M.evaluate(s, sub, tup) != M.evaluate(s, chi, W.apply_walk(tup, g)):
            ok = False

    # Level-2 agreement on 200 random pairs differing on a distinct-3 tuple.
    rng = random.Random(37)
    domain = tuple("abcd")
    distinct = [t for t in itertools.product(domain, repeat=3)
                if len(set(t)) == 3]
    sentences = [S.parse(t) for t in LEVEL2_CORPUS]
    for _ in range(200):
        ext = frozenset(t for t in itertools.product(domain, repeat=3)
                        if rng.random() < 0.5)
        s1 = M.Structure(domain, {("t", 3): ext})
        s2 = M.Structure(domain, {("t", 3): ext ^ {rng.choice(distinct)}})
        if not M.agree_up_to(s1, s2, 2):
            ok = False
        for f in sentences:
            if M.evaluate(s1, f) != M.evaluate(s2, f):
                ok = False
    _report("product / walk-substitution / level-2 agreement", ok)


# ---------------------------------------------------------------------------
# 5. The fresh-choice function and its reduced replacement.

def _fresh_ok(fc, ts):
    g = W.fresh_apply(fc, ts)
    if g in ts:
        return False
    for perm in itertools.permutations(tuple(ts[1:]) + (g,)):
        if W.fresh_apply(fc, perm) in ts:
            return False
    return True


def test_fresh_choice_properties():
    ok = True
    fc1 = W.fresh_choice(1)
    ok = ok and all(_fresh_ok(fc1, (t,)) for t in fc1.domain())
    fc2 = W.fresh_choice(2)
    J = list(fc2.domain())
    ok = ok and len(J) ** 2 >= 100_000
    ok = ok and all(_fresh_ok(fc2, pair)
                    for pair in itertools.product(J, repeat=2))
    n, g = W.small_pair_placement()
    ok = ok and W.check_pair_placement(n, g)
    _report("fresh-choice properties (k=1, k=2, reduced placement)", ok)


# ---------------------------------------------------------------------------
# 6. The three-variable decider agrees with the brute-force oracle and its
#    models check out.

def test_three_variable_decider_against_oracle():
    t0 = time.perf_counter()
    ok = True
    for gammas, delta, expected in AF3_CORPUS:
        f = S.parse(nf_text(gammas, delta, 2))
        nf = X.normalize(f)
        res = X.decide_af3(nf, want_model=True)
        if res.satisfiable != expected:
            ok = False
        oracle = X.brute_force_sat(f, max_n=3)
        if oracle is not None and not res.satisfiable:
            ok = False
        if res.satisfiable:
            if res.model is None or not X.verify_normal_form(nf, res.model):
                ok = False
            if not M.evaluate(res.model, f):
                ok = False
    elapsed = time.perf_counter() - t0
    _report("three-variable decider vs oracle on the 30-formula corpus",
            ok and elapsed < 300)


# ---------------------------------------------------------------------------
# 7. The variable-reduction step preserves satisfiability and its closure
#    sentence is entailed.

def test_variable_reduction_preserves_satisfiability():
    ok = True
    for gammas, delta, _expected in AF4_CORPUS:
        f = S.parse(nf_text(gammas, delta, 3))
        nf = X.normalize(f)
        reduced = X.reduce_step(nf)
        oracle = X.brute_force_sat(f, max_n=3)
        if oracle is not None:
            if X.brute_force_sat(reduced.sentence(), max_n=3) is None:
                ok = False
            if not M.evaluate(oracle, X.adjacent_closure(nf).sentence()):
                ok = False
    _report("four-to-three variable reduction on the 10-formula corpus", ok)


# ---------------------------------------------------------------------------
# 8. The index-map closure of the top word reaches every 01-prefixed word.

def test_pair_word_closure_coverage():
    t0 = time.perf_counter()
    ok = True
    for m in range(1, 9):
        seed = ("0", "1") + ("1",) * m
        target = {("0", "1") + t for t in itertools.product("01", repeat=m)}
        if not target <= H.closure_W(m, {seed}):
            ok = False
    elapsed = time.perf_counter() - t0
    _report("pair-word closure covers 01-prefixed words (m <= 8)",
            ok and elapsed < 10)


# ---------------------------------------------------------------------------
# 9. Counter formulas match integer comparison exhaustively.

def test_counter_formulas_integer_semantics():
    ok = True
    for m in range(1, 7):
        fs = H.build_counters(m)
        domain = tuple(f"a{i}" for i in range(2 * m))
        variables = [S.var(i) for i in range(1, 2 * m + 1)]
        for lv, rv in itertools.product(range(1 << m), repeat=2):
            bits = [(lv >> i) & 1 for i in range(m)] + \
                   [(rv >> i) & 1 for i in range(m)]
            s = M.make_structure(
                domain,
                {(H.O_PRED, 1): [(d,) for d, b in zip(domain, bits) if b]})
            asg = dict(zip(variables, domain))
            if M.evaluate(s, fs["less"], asg) != (lv < rv):
                ok = False
            if M.evaluate(s, fs["eq"], asg) != (lv == rv):
                ok = False
            if M.evaluate(s, fs["succ+1"], asg) != (lv == rv + 1):
                ok = False
            if M.evaluate(s, fs["succ-1"], asg) != (lv == rv - 1):
                ok = False
    _report("counter formulas match integer semantics (m <= 6, all pairs)",
            ok)


# ---------------------------------------------------------------------------
# 10. Machine encodings verify end to end, classify as guarded-adjacent, and
#     break under fault injection.

def test_machine_encoding_end_to_end():
    t0 = time.perf_counter()
    ok = True
    machines = {name: H.parse_atm((DATA / f"{name}.atm").read_text(),
                                  name=name)
                for name in ("hop", "fork", "dodge")}
    for machine in machines.values():
        for w in ("1", "11"):
            report = H.verify_encoding(machine, w)
            if not report["pass"]:
                ok = False
            for _, conjunct in H.encode_atm(machine, w).conjuncts:
                if not S.classify(conjunct).guarded_adjacent:
                    ok = False

    # Negative controls: corrupting the witness structure must break at
    # least one conjunct.
    machine = machines["hop"]
    _status, tree = H.simulate_atm(machine, "1")
    enc = H.encode_atm(machine, "1")
    good = H.embed_and_expand(tree, 1)

    def drop_one(pred, arity):
        exts = dict(good.extensions)
        victim = sorted(exts[(pred, arity)])[0]
        exts[(pred, arity)] = frozenset(
            t for t in exts[(pred, arity)] if t != victim)
        return M.Structure(good.domain, exts)

    for pred, arity in [("H", 1), (H.O_PRED, 1), (H.G_N, 3), ("V", 2)]:
        if H.check_conjuncts(enc, drop_one(pred, arity))["pass"]:
            ok = False
    elapsed = time.perf_counter() - t0
    _report("machine encodings verified end to end with negative controls",
            ok and elapsed < 600)
