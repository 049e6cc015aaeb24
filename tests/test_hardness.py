"""Index maps, word closure, bit counters, guard saturation sentences,
alternating machines, and the satisfiability encoding."""

import itertools
from pathlib import Path

import pytest

import afkit.hardness as H
import afkit.semantics as M
import afkit.syntax as S
import afkit.words as W

DATA = Path(__file__).parent / "data"


def _machine(name):
    return H.parse_atm((DATA / f"{name}.atm").read_text(), name=name)


# ---------------------------------------------------------------------------
# Index maps and closure

def test_lambda_walks():
    assert H.lambda_walk(0, 2) == (1, 2, 3, 4)
    assert H.lambda_apply(0, "abcd") == tuple("abcd")
    assert H.lambda_apply(1, "abcd") == tuple("abbc")
    assert H.lambda_apply(2, "abcd") == tuple("abab")
    assert H.lambda_apply(3, "abcd") == tuple("abcc")
    for i in range(4):
        assert W.is_adjacent(H.lambda_walk(i, 3))
    with pytest.raises(S.FormulaError):
        H.lambda_walk(4, 2)


def test_closure_small():
    got = H.closure_W(1, {("0", "1", "0")})
    # Images: (0,1,1) by map 1, (0,1,0) by maps 0/3, then (0,1,1) is stable.
    assert got == {("0", "1", "0"), ("0", "1", "1")}
    # Closing the full 01-prefixed seed reaches every 01-prefixed word.
    m = 3
    seed = {("0", "1") + t for t in itertools.product("01", repeat=m)}
    assert H.closure_W(m, seed) == seed
    with pytest.raises(W.WordError):
        H.closure_W(2, {("0", "1")})


# ---------------------------------------------------------------------------
# Bit counters

def _counter_structure(m, left, right):
    domain = [f"a{i}" for i in range(2 * m)]
    ones = [d for d, bit in zip(domain, left + right) if bit]
    return M.make_structure(domain, {(H.O_PRED, 1): [(d,) for d in ones]}), domain


@pytest.mark.parametrize("m", [1, 2, 3])
def test_counters_sample(m):
    fs = H.build_counters(m)
    for lv, rv in itertools.product(range(1 << m), repeat=2):
        left = [(lv >> i) & 1 for i in range(m)]
        right = [(rv >> i) & 1 for i in range(m)]
        s, domain = _counter_structure(m, left, right)
        asg = dict(zip((S.var(i) for i in range(1, 2 * m + 1)), domain))
        assert M.evaluate(s, fs["less"], asg) == (lv < rv)
        assert M.evaluate(s, fs["eq"], asg) == (lv == rv)
        assert M.evaluate(s, fs["succ+1"], asg) == (lv == rv + 1)
        assert M.evaluate(s, fs["succ-1"], asg) == (lv == rv - 1)


def test_counters_literal_variant_is_modular():
    m = 2
    literal = H.build_counters(m, literal=True)
    for lv, rv in itertools.product(range(1 << m), repeat=2):
        left = [(lv >> i) & 1 for i in range(m)]
        right = [(rv >> i) & 1 for i in range(m)]
        s, domain = _counter_structure(m, left, right)
        asg = dict(zip((S.var(i) for i in range(1, 2 * m + 1)), domain))
        assert M.evaluate(s, literal["succ+1"], asg) == (
            lv == (rv + 1) % (1 << m))
        assert M.evaluate(s, literal["succ-1"], asg) == (
            rv == (lv + 1) % (1 << m))


def test_bin_word_and_bit_value():
    assert H.bin_word("z", "o", 5, 4) == ("o", "z", "o", "z")
    s = M.make_structure(["z", "o"], {(H.O_PRED, 1): [("o",)]})
    for v in range(16):
        assert H.bit_value(s, H.bin_word("z", "o", v, 4)) == v
    with pytest.raises(S.FormulaError):
        H.bin_word("z", "o", 4, 2)


# ---------------------------------------------------------------------------
# Guard saturation sentences

def test_saturation_sentences_are_guarded_adjacent():
    for m in (1, 2):
        assert S.classify(H.build_zeta("V", "G", m)).adjacent
        assert S.classify(H.build_zeta("V", "G", m)).guarded_adjacent
        assert S.classify(H.build_epsilon("E", "F", m)).adjacent
        assert S.classify(H.build_epsilon("E", "F", m)).guarded_adjacent


def test_zeta_forces_closure_of_pair_words():
    m = 1
    zeta = H.build_zeta("V", "G", m)
    s = M.make_structure(
        ["a", "b"],
        {("V", 2): [("a", "b")],
         ("G", m + 2): [("a", "b") + t
                        for t in itertools.product("ab", repeat=m)]})
    assert M.evaluate(s, zeta)
    # Dropping one saturated tuple breaks the sentence.
    broken = M.make_structure(
        ["a", "b"],
        {("V", 2): [("a", "b")], ("G", m + 2): [("a", "b", "b")]})
    assert not M.evaluate(broken, zeta)


# ---------------------------------------------------------------------------
# Machine parsing and simulation

def test_parse_atm_errors():
    with pytest.raises(H.MachineError):
        H.parse_atm("alphabet: _ 1\ninitial: q0\n")
    with pytest.raises(H.MachineError):
        H.parse_atm("states: q0:E\nalphabet: _ 1\ninitial: q9\n")
    with pytest.raises(H.MachineError):
        H.parse_atm("states: q0:E\nalphabet: _ 1\ninitial: q0\n"
                    "deltaL: q0 1 -> q0 1 2\n")
    with pytest.raises(H.MachineError):
        H.parse_atm("states: q0:X\nalphabet: _ 1\ninitial: q0\n")


def test_simulate_machines():
    status, tree = H.simulate_atm(_machine("hop"), "1")
    assert status == "accept" and tree.size() == 2

    status, tree = H.simulate_atm(_machine("fork"), "1")
    assert status == "accept" and tree.size() == 3

    status, tree = H.simulate_atm(_machine("dodge"), "1")
    assert status == "accept"
    # The existential root backtracks past the rejecting left branch.
    (side, _tau, _child), = tree.root.children
    assert side == "r"

    status, tree = H.simulate_atm(_machine("sink"), "1")
    assert status == "reject" and tree is None


# ---------------------------------------------------------------------------
# Encoding

def test_encoding_shape():
    machine = _machine("fork")
    enc = H.encode_atm(machine, "1")
    names = [name for name, _ in enc.conjuncts]
    assert names == ["phi1", "phi2", "phi3", "phi4", "phi5", "phi6",
                     "phi7", "phi8", "phi9", "zeta_V_n", "zeta_V_2n",
                     "epsilon_El_n", "epsilon_Er_n"]
    assert enc.n == 1
    assert enc.signature["V"] == 2
    assert enc.signature[H.F_N] == 2 * enc.n + 4
    for _, f in enc.conjuncts:
        assert S.classify(f).guarded_adjacent
    literal = H.encode_atm(machine, "1", literal_succ=True)
    assert S.node_count(literal.sentence()) != S.node_count(enc.sentence())


def test_encoding_size_budget_is_checked(monkeypatch):
    # The check is not an assert, so it holds under python -O too.
    monkeypatch.setattr(H, "SIZE_CONSTANT", 0)
    with pytest.raises(RuntimeError, match="internal consistency failure: "
                       "encoding size [0-9]+ exceeds"):
        H.encode_atm(_machine("hop"), "1")


def test_verify_encoding_passes():
    report = H.verify_encoding(_machine("hop"), "1")
    assert report["pass"]
    assert {r["conjunct"] for r in report["conjuncts"]} == {
        name for name, _ in H.encode_atm(_machine("hop"), "1").conjuncts}
    assert all(r["millis"] >= 0 for r in report["conjuncts"])


def test_verify_encoding_rejecting_machine():
    with pytest.raises(H.MachineError):
        H.verify_encoding(_machine("sink"), "1")


def test_fault_injection_fails_a_conjunct():
    machine = _machine("hop")
    status, tree = H.simulate_atm(machine, "1")
    assert status == "accept"
    enc = H.encode_atm(machine, "1")
    structure = H.embed_and_expand(tree, 1)
    # Corrupt the head predicate: move the root's head marker.
    exts = dict(structure.extensions)
    key = ("H", 1)
    (old,) = [t for t in exts[key] if t[0].endswith("v0")]
    exts[key] = frozenset(t for t in exts[key] if t != old)
    broken = M.Structure(structure.domain, exts)
    report = H.check_conjuncts(enc, broken)
    assert not report["pass"]


@pytest.mark.parametrize("machine", ["hop", "fork"])
@pytest.mark.parametrize("pred, pick, failing", [
    (H.F_N, min, {"epsilon_El_n", "epsilon_Er_n"}),
    (H.G_2N, min, {"zeta_V_2n"}),
    (H.G_N, max, {"zeta_V_n"}),
])
def test_fault_injection_fails_exactly_the_saturation_conjunct(
        machine, pred, pick, failing):
    # Dropping one tuple of a saturated guard breaks the sentence that
    # saturates it, and only that one.
    status, tree = H.simulate_atm(_machine(machine), "11")
    assert status == "accept"
    structure = H.embed_and_expand(tree, 2)
    exts = dict(structure.extensions)
    (key,) = [k for k in exts if k[0] == pred]
    exts[key] = exts[key] - {pick(exts[key])}
    report = H.check_conjuncts(H.encode_atm(_machine(machine), "11"),
                               M.Structure(structure.domain, exts))
    assert {r["conjunct"] for r in report["conjuncts"]
            if r["verdict"] == "fail"} == failing


def _fault(machine, word, fault):
    """The witness structure of the machine on the word with one fault on
    its last vertex, a leaf: ``second-head`` adds an H word at the square
    after the head, ``moved-head`` moves the head there, ``symbol``
    rewrites that square's symbol, and ``state`` replaces the vertex's
    state."""
    status, tree = H.simulate_atm(machine, word)
    assert status == "accept"
    n = len(word)
    structure = H.embed_and_expand(tree, n)
    exts = {key: set(ext) for key, ext in structure.extensions.items()}
    i = tree.size() - 1
    leaf = list(tree.vertices())[i]
    pair = (f"0_v{i}", f"1_v{i}")
    square = (leaf.head + 1) % (1 << n)
    off_head = H.bin_word(*pair, square, n)
    if fault == "second-head":
        exts[("H", n)].add(off_head)
    elif fault == "moved-head":
        exts[("H", n)] -= {H.bin_word(*pair, leaf.head, n)}
        exts[("H", n)].add(off_head)
    elif fault == "symbol":
        old = leaf.tape[square]
        new = next(a for a in machine.alphabet if a != old)
        exts[(f"S_{old}", n)].remove(off_head)
        exts.setdefault((f"S_{new}", n), set()).add(off_head)
    else:
        new = next(q for q in machine.states if q != leaf.state)
        exts[(f"Q_{leaf.state}", 2)].remove(pair)
        exts.setdefault((f"Q_{new}", 2), set()).add(pair)
    return M.Structure(structure.domain,
                       {key: frozenset(ext) for key, ext in exts.items()})


@pytest.mark.parametrize("word", ["11", "111"])
@pytest.mark.parametrize("machine", ["hop", "fork", "dodge"])
@pytest.mark.parametrize("fault, failing", [
    # phi4's antecedent H(us) & H(vs) holds on two words of one vertex.
    ("second-head", {"phi4"}),
    # phi8's antecedent !H(us) & eq(us, vs) holds off the head, where the
    # child's symbol differs from the parent's.
    ("symbol", {"phi8"}),
    # phi9's trigger holds at the parent's head; the child's head or state
    # is not the one the transition gives (a state with transitions and no
    # successor also fails phi7).
    ("moved-head", {"phi9"}),
    ("state", {"phi7", "phi9"}),
])
def test_fault_injection_fails_exactly_the_filtered_conjunct(
        machine, word, fault, failing):
    # The failing sets were observed before the guarded loops filtered
    # their matches on the body's leading literals.
    report = H.check_conjuncts(H.encode_atm(_machine(machine), word),
                               _fault(_machine(machine), word, fault))
    assert {r["conjunct"] for r in report["conjuncts"]
            if r["verdict"] == "fail"} == failing


# ---------------------------------------------------------------------------
# Each distinct conjunct checked once

def _parts(enc):
    """The top-level conjuncts of every named conjunct, in order."""
    return [p for _, f in enc.conjuncts
            for p in (f.args if isinstance(f, S.And) else (f,))]


def _check_counting_evaluate(monkeypatch, enc, structure):
    """check_conjuncts' report next to the formulas it passed to evaluate,
    and each named conjunct's verdict from evaluate on the whole of it."""
    full = M.complete_signature(structure, enc.signature)
    whole = {name: "pass" if M.evaluate(full, f) else "fail"
             for name, f in enc.conjuncts}
    calls = []
    evaluate = M.evaluate

    def counting(s, f, *args):
        calls.append(f)
        return evaluate(s, f, *args)

    with monkeypatch.context() as patch:
        patch.setattr(M, "evaluate", counting)
        report = H.check_conjuncts(enc, structure)
    assert {r["conjunct"]: r["verdict"] for r in report["conjuncts"]} == whole
    assert [r["conjunct"] for r in report["conjuncts"]] == \
        [name for name, _ in enc.conjuncts]
    return report, calls


@pytest.mark.parametrize("word", ["1", "11", "111"])
@pytest.mark.parametrize("machine", ["hop", "fork", "dodge"])
def test_check_conjuncts_evaluates_each_distinct_part_once(
        monkeypatch, machine, word):
    status, tree = H.simulate_atm(_machine(machine), word)
    assert status == "accept"
    enc = H.encode_atm(_machine(machine), word)
    report, calls = _check_counting_evaluate(
        monkeypatch, enc, H.embed_and_expand(tree, len(word)))
    assert report["pass"]
    parts = _parts(enc)
    # Both saturation sentences of F_n share their closure conjuncts.
    assert len(set(parts)) < len(parts)
    assert len(calls) == len(set(calls)) and set(calls) == set(parts)


@pytest.mark.parametrize("machine", ["hop", "fork"])
@pytest.mark.parametrize("pred, pick", [(H.F_N, min), (H.G_2N, min),
                                        (H.G_N, max)])
def test_check_conjuncts_memo_matches_whole_conjuncts_on_faults(
        monkeypatch, machine, pred, pick):
    # The structures of the fault-injection test above: some parts fail,
    # and a failing part stops its conjunct.
    status, tree = H.simulate_atm(_machine(machine), "11")
    structure = H.embed_and_expand(tree, 2)
    exts = dict(structure.extensions)
    (key,) = [k for k in exts if k[0] == pred]
    exts[key] = exts[key] - {pick(exts[key])}
    enc = H.encode_atm(_machine(machine), "11")
    report, calls = _check_counting_evaluate(
        monkeypatch, enc, M.Structure(structure.domain, exts))
    assert not report["pass"]
    assert len(calls) == len(set(calls)) and set(calls) <= set(_parts(enc))


@pytest.mark.parametrize("machine", ["hop", "fork"])
def test_check_conjuncts_builds_each_guard_table_once(monkeypatch, machine):
    # The closure parts of both saturation sentences of F_n and the other
    # conjuncts guarded by F_n read one table of F_n.
    status, tree = H.simulate_atm(_machine(machine), "111")
    assert status == "accept"
    builds = []
    guard_index = M._guard_index

    def counting(exts, guard, bound):
        builds.append((guard.pred, guard.args, bound))
        return guard_index(exts, guard, bound)

    monkeypatch.setattr(M, "_guard_index", counting)
    report = H.check_conjuncts(H.encode_atm(_machine(machine), "111"),
                               H.embed_and_expand(tree, 3))
    assert report["pass"]
    assert any(pred == H.F_N for pred, *_ in builds)
    assert len(builds) == len(set(builds))
