"""Normal form, adjacent closure, the reduction step, the three-variable
decider, model construction, and the brute-force oracle."""

import itertools
import re
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afkit.aftypes as T
import afkit.sat as X
import afkit.semantics as M
import afkit.syntax as S
import afkit.words as W
import reference as R
from corpus import (AF3_CORPUS, AF4_CORPUS, CLASSIFY_CORPUS, LEVEL2_CORPUS,
                    PRODUCT_CORPUS, nf_text)


def test_normalize_recognizes_normal_shape():
    f = S.parse(nf_text(["r(x2,x3)"], "r(x1,x2) -> r(x2,x1)", 2))
    nf = X.normalize(f)
    assert nf.ell == 2
    assert [S.render(g) for g in nf.gammas] == ["r(x2,x3)"]
    assert S.render(nf.delta) == "r(x1,x2) -> r(x2,x1)"
    assert not nf.fresh
    # The rebuilt sentence normalizes to itself.
    again = X.normalize(nf.sentence())
    assert again.gammas == nf.gammas and again.delta == nf.delta


def test_normalize_introduces_fresh_predicates():
    f = S.parse("forall x1 ((exists x2 r(x1,x2)) -> p(x1))")
    nf = X.normalize(f)
    assert nf.fresh
    assert nf.ell >= 2


def test_normalize_rejects_open_formulas():
    with pytest.raises(S.FormulaError):
        X.normalize(S.parse("r(x1,x2)"))


def test_normalize_equisatisfiable_per_domain_size():
    samples = [
        "forall x1 exists x2 (r(x1,x2) & !r(x2,x1))",
        "forall x1 ((exists x2 r(x1,x2)) -> exists x2 r(x2,x1))",
        "exists x1 (p(x1) & forall x2 (r(x1,x2) -> !p(x2)))",
        "(exists x1 p(x1)) & (forall x1 !p(x1))",
        "forall x1 exists x2 (r(x1,x2) & exists x3 (r(x2,x3) & !p(x3)))",
    ]
    for text in samples:
        f = S.parse(text)
        nf = X.normalize(f)
        for n in (1, 2):
            orig = X.brute_force_sat(f, max_n=n) is not None
            norm = X.brute_force_sat(nf.sentence(), max_n=n) is not None
            assert orig == norm, (text, n)


def test_adjacent_closure_is_consequence():
    f = S.parse(nf_text(["r(x2,x3)"], "r(x1,x2) -> r(x2,x1)", 2))
    nf = X.normalize(f)
    clo = X.adjacent_closure(nf)
    assert clo.ell == nf.ell - 1
    model = X.brute_force_sat(f, max_n=3)
    assert model is not None
    assert M.evaluate(model, clo.sentence())


def all_walks_closure(nf):
    """The reference closure: every gamma and delta substituted under every
    walk, every copy kept."""
    ell = nf.ell
    gammas = [S.shift_up(S.substitute_walk(g, f + (k + 1,)), ell - 1 - k)
              for g in nf.gammas for k in range(1, ell)
              for f in W.walks(ell, k, end_at=k)]
    delta = S.make_and([S.shift_up(S.substitute_walk(nf.delta, g), ell - k)
                        for k in range(1, ell + 1)
                        for g in W.walks(ell + 1, k)])
    return gammas, delta


def distinct_closure(nf):
    """``all_walks_closure`` with each gamma and each top-level delta
    conjunct kept at its first occurrence."""
    gammas, delta = all_walks_closure(nf)
    conjuncts = delta.args if isinstance(delta, S.And) else (delta,)
    return X.NormalFormFormula(nf.ell - 1, tuple(dict.fromkeys(gammas)),
                               S.make_and(list(dict.fromkeys(conjuncts))
                                          or [S.TRUE]), nf.fresh)


@pytest.mark.parametrize("entry", range(1, 11))
def test_adjacent_closure_matches_all_walks_on_af4(entry):
    gs, d, _expect = AF4_CORPUS[entry - 1]
    nf = X.normalize(S.parse(nf_text(gs, d, 3)))
    assert X.adjacent_closure(nf) == distinct_closure(nf)


@pytest.mark.parametrize("gamma,delta", [
    ("r(x4,x5)", "p(x1)"), ("p(x1)", "p(x1) & r(x4,x5)"),
    ("p(x1)", "p(x2) & p(u)"), ("p(x1)", S.Atom("p", ("x0",)))])
def test_adjacent_closure_raises_as_all_walks(gamma, delta):
    """A conjunct naming a variable outside x1..x4 raises the error of its
    first substitution."""
    nf = X.NormalFormFormula(3, (S.parse(gamma),), S.parse(delta)
                             if isinstance(delta, str) else delta)
    with pytest.raises(S.FormulaError) as ref:
        all_walks_closure(nf)
    with pytest.raises(S.FormulaError, match=re.escape(str(ref.value))):
        X.adjacent_closure(nf)


def test_reduce_step_unpruned_guard_count():
    f = S.parse(nf_text(["r(x3,x4)"], "r(x1,x2)", 3))
    nf = X.normalize(f)
    red = X.reduce_step(nf, prune=False)
    # Seven relevant atoms over three variables for one binary predicate,
    # hence 2^7 guard predicates.
    assert len(red.fresh) == 128
    pruned = X.reduce_step(nf, prune=True)
    assert len(pruned.fresh) < len(red.fresh)
    assert pruned.ell == nf.ell - 1


def test_reduce_step_requires_enough_variables():
    f = S.parse(nf_text(["r(x2,x3)"], "r(x1,x2)", 2))
    with pytest.raises(S.FormulaError):
        X.reduce_step(X.normalize(f))


def test_decide_af3_verdicts_and_traces():
    sat_f = S.parse(nf_text(["r(x2,x3)"], "true", 2))
    res = X.decide_af3(X.normalize(sat_f))
    assert res.satisfiable and res.verdict == "SAT"
    assert res.certificate
    for om in res.certificate:
        assert T.is_connector_type(om.types)

    trace: list = []
    unsat_f = S.parse(nf_text(["r(x2,x3)"], "!r(x1,x2)", 2))
    res = X.decide_af3(X.normalize(unsat_f), trace=trace)
    assert not res.satisfiable and res.verdict == "UNSAT"
    assert res.certificate is None
    assert any(row.get("stage") == "certificate" for row in trace)


def test_unsat_verdicts_end_with_an_empty_pool():
    """Every UNSAT AF3 entry and ``UNSAT_PROBE`` is decided by the fixpoint
    over 2-types: the certificate row names an empty fixpoint and no
    candidate tested, never a fixpoint without a coherent clique, a branch
    no known input reaches."""
    unsat = [(gs, d) for gs, d, expect in AF3_CORPUS + [UNSAT_PROBE]
             if not expect]
    assert len(unsat) == 13
    for gs, d in unsat:
        res = X.decide_af3(X.normalize(S.parse(nf_text(gs, d, 2))))
        assert not res.satisfiable
        assert res.trace[-2:] == [
            {"stage": "fixpoint", "two_types": 0},
            {"stage": "certificate", "size": 0, "tested": 0,
             "reason": "empty fixpoint"}]


def test_decide_af3_rejects_wrong_level():
    f = S.parse(nf_text(["r(x3,x4)"], "r(x1,x2)", 3))
    with pytest.raises(S.FormulaError):
        X.decide_af3(X.normalize(f))


def test_oracle_models_have_compatible_connectors():
    for gs, d, _expect in AF3_CORPUS[:8]:
        f = S.parse(nf_text(gs, d, 2))
        nf = X.normalize(f)
        model = X.brute_force_sat(f, max_n=3)
        if model is None:
            continue
        keys2 = T.sort_keys(T.relevant_atoms(nf.sentence(), 2))
        for a in model.domain:
            assert T.compatible(T.connector_of(model, a, keys2), nf)


def connector_candidates(nf, limit=None) -> list:
    """The connector-types decide_af3 tests for compatibility: per 1-type
    group of admissible 2-types (those entailing every stalled universal
    instance), each subset that contains pi squared; None when there are
    more than ``limit``."""
    keys2 = T.sort_keys(T.relevant_atoms(nf.sentence(), 2))
    stalls = [S.substitute_walk(nf.delta, f) for f in W.walks(3, 2)]
    groups: dict = {}
    for t in T.enumerate_types(keys2):
        if all(t.entails(inst) for inst in stalls):
            groups.setdefault(T.restrict_to_ones(t), []).append(t)
    wide = [(T.one_type_squared(pi, keys2), members)
            for pi, members in groups.items()
            if T.one_type_squared(pi, keys2) in members]
    if limit is not None and sum(1 << len(m) - 1 for _, m in wide) > limit:
        return None
    out = []
    for pi2, members in wide:
        rest = [t for t in members if t != pi2]
        for r in range(len(rest) + 1):
            out += [T.ConnectorType(frozenset([pi2, *c]))
                    for c in itertools.combinations(rest, r)]
    return out


# A sentence whose pool is wrong when the witness tables ignore gamma; no
# corpus entry with at most 300 candidates shows that.
WITNESS_PROBE = (["!r(x3,x3) & !r(x1,x2)"], "!r(x2,x1) | !r(x1,x2) | r(x1,x1)",
                 None)
# A sentence whose pool is wrong when the link table is ignored (3
# compatible of 64 candidates; 4 without the link check).
LINK_PROBE = (["p(x2) & p(x1)", "!r(x1,x1)"], "!r(x1,x2) | !r(x2,x3)", True)
# An UNSAT sentence whose reference pool is not empty (6 compatible of 20
# candidates, no coherent subset), found by a seeded random search over
# p/1 and r/2 normal forms.  That is the reference pool of
# ``aftypes.compatible``; the decider's coherence closure empties its own
# pool, so nothing reaches the certificate search.
UNSAT_PROBE = (["!r(x2,x2) & r(x3,x2) & !r(x2,x1)"],
               "(!r(x2,x1) | p(x1) | !r(x1,x2)) & (!r(x2,x1) | !p(x1))", False)


# A sentence with 1-type groups of ten members besides pi squared, so
# that the candidate masks of decide_af3 have a second byte (1,040
# candidates, 10 compatible, 4 of them holding a member of the second byte).
WIDE_PROBE = (["r(x1,x2)", "r(x3,x2) -> r(x1,x1)"], "p(x1) -> r(x1,x2)", True)
# A sentence whose pool is wrong when the start masks are ignored: at
# x1 = x2 the witness must satisfy t(x2,x2,x3), which delta forbids (8
# candidates, none compatible; all 8 without the start masks).  Found in
# about one of 1,200 random width-2 draws.
START_PROBE = (["t(x2,x2,x3) | t(x1,x2,x3)"], "!t(x1,x2,x1) & !t(x2,x2,x3)",
               False)
# A sentence whose certificate search backtracks: of its 8 pool members,
# the first seed's search fails after 2 dead ends and 3 candidates the
# link test rejects, and the second seed gives a 2-member certificate (a
# 135-element model; the oracle finds one on 2 elements).  Found in about
# one of 5,000 random width-2 draws over p, s and r.
BACKTRACK_PROBE = (["!p(x2) | !s(x3) -> r(x1,x2) | !p(x2)",
                    "s(x2) -> r(x3,x2) | r(x1,x2)",
                    "p(x3) & (p(x3) -> !r(x2,x3))"],
                   "p(x1) & (!r(x2,x3) | !r(x2,x2) & s(x1))", True)


def decider_tables(nf) -> tuple:
    """decide_af3's keys, index of admissible 2-types, inverse map, start
    masks, link rows and witness rows, computed as it computes them, with
    (A) of ``assert_two_type_invariants`` checked on the way."""
    keys2, codes = X._typed_keys(nf, T.DEFAULT_ATOM_CAP, "decide_af3")
    admissible = [T.type_at(keys2, i) for i in codes.tolist()]
    index = {t: i for i, t in enumerate(admissible)}
    assert all(t.inverse(2) in index for t in admissible)
    inv = [index[t.inverse(2)] for t in admissible]
    starts, = T.truth_tables([], keys2, walks=((1, 1, 2),),
                             extras=[[g] for g in nf.gammas])
    start_masks = [X._masks(t, codes)[0] for t in starts]
    chunks = X._link_tables(nf, keys2, codes, T.DEFAULT_ATOM_CAP,
                            "link/witness tables")
    link, *wit = [sum((X._masks(t, codes) for t in tables), [])
                  for tables in zip(*chunks)] or [[]]
    return keys2, index, inv, start_masks, link, wit


def as_mask(om, index) -> int:
    """A connector-type as a bitmask over the admissible 2-types."""
    return sum(1 << index[t] for t in om.types)


def decided_with_fixpoint(nf) -> tuple:
    """decide_af3's result and the set of 2-types its fixpoint keeps."""
    fixpoints = []
    real = X._fixpoint

    def spy(*args):
        fixpoints.append(real(*args))
        return fixpoints[-1]

    with mock.patch.object(X, "_fixpoint", spy):
        res = X.decide_af3(nf)
    [union] = fixpoints
    return res, union


@pytest.fixture
def memo_consistent(monkeypatch):
    """``aftypes.consistent`` behind a memo for one test: the references
    ask the same (zeta, eta, gamma) question for every candidate that
    holds eta."""
    real, memo = T.consistent, {}

    def consistent(parts, cap=T.DEFAULT_ATOM_CAP):
        key = (tuple(parts), cap)
        if key not in memo:
            memo[key] = real(parts, cap)
        return memo[key]

    monkeypatch.setattr(T, "consistent", consistent)


def assert_decider_matches_reference(nf, candidates,
                                     check_compatible=True) -> tuple:
    """decide_af3 against its reference pool: the candidates that
    ``X._compatible`` accepts on the decider's tables, closed by
    ``reference.coherence_closure``.
    - With ``check_compatible``, ``X._compatible`` accepts exactly the
      candidates that ``aftypes.compatible`` accepts.  The search asks it
      of each candidate it reads, so every candidate it reads as
      compatible is.
    - The fixpoint holds every 2-type of the reference pool, and is empty
      iff that pool is.
    - The certificate is the one ``eager_find_certificate`` finds in the
      reference pool, in (popcount, mask) order.
    Returns that pool and certificate as masks."""
    _keys2, index, inv, start_masks, link, wit = decider_tables(nf)
    accepted = [om for om in candidates if X._compatible(
        as_mask(om, index), inv, start_masks, wit, link)]
    if check_compatible:
        assert accepted == [om for om in candidates if T.compatible(om, nf)]
    pool = sorted((as_mask(om, index) for om in R.coherence_closure(accepted)),
                  key=lambda m: (m.bit_count(), m))
    res, union = decided_with_fixpoint(nf)
    assert all(m & ~union == 0 for m in pool)
    assert (union == 0) == (not pool)
    need = {m: sum(1 << inv[i] for i in X._bits(m)) for m in pool}
    found = eager_find_certificate(pool, need, inv)
    assert found == (sorted(as_mask(om, index) for om in res.certificate)
                     if res.satisfiable else None)
    return pool, found


def test_pool_matches_reference_compatibility(memo_consistent):
    """On every sentence of at most 300 candidates and on the probes, the
    decider agrees with the reference pool of ``aftypes.compatible`` (see
    ``assert_decider_matches_reference``)."""
    checked = 0
    probes = [WITNESS_PROBE, LINK_PROBE, WIDE_PROBE, START_PROBE]
    for gs, d, _expect in AF3_CORPUS + probes:
        nf = X.normalize(S.parse(nf_text(gs, d, 2)))
        candidates = connector_candidates(
            nf, None if (gs, d, _expect) in probes else 300)
        if candidates is None:
            continue
        assert_decider_matches_reference(nf, candidates)
        checked += 1
    assert checked == 31


def test_pool_respects_start_masks():
    """At x1 = x2 the witness conjunct contradicts itself, so no
    connector-type is compatible and the fixpoint is empty; a decider that
    ignores the start masks (only t/3 atoms make them matter) answers
    SAT."""
    nf = X.normalize(S.parse(nf_text(["!t(x1,x2,x3) & t(x2,x2,x3)"],
                                     "!t(x1,x2,x1) & r(x2,x3)", 2)))
    trace: list = []
    assert not X.decide_af3(nf, trace=trace).satisfiable
    assert [row["two_types"] for row in trace
            if row["stage"] == "fixpoint"] == [0]


def test_decides_with_64_member_groups():
    """Eight keys over r and s give four 1-type groups of 64 admissible
    2-types, 2^63 candidates each: the search reads the smallest first and
    tests four of them."""
    nf = X.normalize(S.parse(nf_text(["r(x2,x3) & s(x3,x2)"],
                                     "r(x1,x1) | !r(x1,x1) | s(x1,x1)", 2)))
    start = time.perf_counter()
    res = X.decide_af3(nf, want_model=True)
    assert time.perf_counter() - start < 1.0
    assert res.trace[1:3] == [
        {"stage": "fixpoint", "two_types": 256},
        {"stage": "certificate", "size": 1, "tested": 4}]
    assert len(res.id_model.domain) == 15
    assert X.tables_satisfy(nf, res.id_model.tables, 15)


def assert_two_type_invariants(nf) -> int:
    """Facts of decide_af3's own tables: (A) the admissible 2-types are
    closed under inverse; (B) every 1-type group holds pi squared, its own
    inverse; (C) link[pi squared] holds the whole group and every
    link[inv e] holds pi squared; (D) within the group, each start mask
    lies in wit[g][pi squared]; (E) every e links to itself, e in
    link[inv e].  Returns the group count."""
    keys2, index, inv, start_masks, link, wit = decider_tables(nf)  # (A)
    groups: dict = {}
    for t, i in index.items():
        pi = T.restrict_to_ones(t)
        groups[pi] = groups.get(pi, 0) | 1 << i
    for pi, group in groups.items():
        pi2 = index[T.one_type_squared(pi, keys2)]
        assert group >> pi2 & 1 and inv[pi2] == pi2
        assert link[pi2] & group == group
        assert all(link[inv[e]] >> pi2 & 1 for e in X._bits(group))
        assert all(s & group & ~w[pi2] == 0 for s, w in zip(start_masks, wit))
        assert all(link[inv[e]] >> e & 1 for e in X._bits(group))
    return len(groups)


def test_decider_two_type_invariants():
    """An admissible eta on (a, b) extends to the 3-types of (a, a, b) and
    (a, b, a): the type filter applies delta on every triple over the pair.
    So (A)-(E) of ``assert_two_type_invariants`` hold on the AF3 corpus, the
    probes, the reduced AF4 entries within the atom cap and random width-2
    sentences.  The decider looks (A) and (B) up without a fallback, and
    ``_fixpoint`` does not test (C)-(E)."""
    sentences = [X.normalize(S.parse(nf_text(gs, d, 2)))
                 for gs, d, _ in AF3_CORPUS + [WITNESS_PROBE, LINK_PROBE,
                                               WIDE_PROBE, START_PROBE]]
    sentences += [X.reduce_step(X.normalize(S.parse(nf_text(gs, d, 3))))
                  for i, (gs, d, _) in enumerate(AF4_CORPUS, 1) if i != 7]
    assert sum(map(assert_two_type_invariants, sentences)) == 61  # groups

    @settings(max_examples=60, deadline=None)
    @given(nf=normal_forms(ells=[2]))
    def random_sentences(nf):
        assert_two_type_invariants(nf)

    random_sentences()


def test_certificate_matches_reference_coherence(memo_consistent):
    """Every certificate is a coherent set of compatible connector-types;
    where the reference pool (compatible candidates) has at most 12
    members, the verdict is SAT iff some non-empty subset is coherent."""
    exhausted = unsat_with_pool = 0
    for gs, d, _expect in AF3_CORPUS + [WITNESS_PROBE, UNSAT_PROBE]:
        nf = X.normalize(S.parse(nf_text(gs, d, 2)))
        res = X.decide_af3(nf)
        if res.satisfiable:
            assert T.coherent(res.certificate)
            assert all(T.compatible(om, nf) for om in res.certificate)
        candidates = connector_candidates(nf)
        if len(candidates) > 300:
            continue
        pool = [om for om in candidates if T.compatible(om, nf)]
        if len(pool) > 12:
            continue
        some_coherent = any(
            T.coherent(sub) for r in range(1, len(pool) + 1)
            for sub in itertools.combinations(pool, r))
        assert res.satisfiable == some_coherent, (gs, d)
        exhausted += 1
        unsat_with_pool += bool(pool) and not res.satisfiable
    assert exhausted == 21
    assert unsat_with_pool >= 1


def eager_find_certificate(pool: list, need: dict, inv):
    """The certificate search over a listed pool, every member indexed by
    each of its bits before the search starts: the reference for
    ``X._find_certificate``, which reads its candidates lazily."""
    by_bit: dict = {}
    for om in pool:
        for i in X._bits(om):
            by_bit.setdefault(i, []).append(om)
    seen: set = set()

    def search(sel, union, needs):
        if sel in seen:
            return None
        seen.add(sel)
        if not needs & ~union:
            return sorted(sel)
        miss = next(inv[i] for om in sorted(sel) for i in X._bits(om)
                    if not union >> inv[i] & 1)
        for om in by_bit.get(miss, ()):
            if om not in sel and all(need[om] & o2 and need[o2] & om
                                     for o2 in sel):
                found = search(sel | {om}, union | om, needs | need[om])
                if found is not None:
                    return found
        return None

    for seed in pool:
        found = search(frozenset([seed]), seed, need[seed])
        if found is not None:
            return found
    return None


def test_lazy_certificate_search_matches_eager():
    """On the whole AF3 corpus and the probes, the decider's certificate
    and fixpoint agree with the eager search over the reference pool of
    ``X._compatible``, which ``test_pool_matches_reference_compatibility``
    pins to ``aftypes.compatible``."""
    for gs, d, _expect in AF3_CORPUS + [WITNESS_PROBE, LINK_PROBE,
                                        UNSAT_PROBE, WIDE_PROBE,
                                        BACKTRACK_PROBE]:
        nf = X.normalize(S.parse(nf_text(gs, d, 2)))
        pool, found = assert_decider_matches_reference(
            nf, connector_candidates(nf), check_compatible=False)
    # The search from a seed only adds members, so BACKTRACK_PROBE's
    # certificate, which lacks the first pool member, shows that the first
    # seed's search failed and a second seed was tried.
    assert found is not None and pool[0] not in found


def test_build_model_is_verified():
    f = S.parse(nf_text(["r(x2,x3) & !r(x3,x2)"], "!r(x1,x1)", 2))
    nf = X.normalize(f)
    res = X.decide_af3(nf, want_model=True)
    assert res.satisfiable and res.model is not None
    assert X.verify_normal_form(nf, res.model)
    assert M.evaluate(res.model, f)


def assert_witness_domain(nf, f) -> bool:
    """When ``nf`` is SAT, its model has one element per (2-type of the
    certificate, phase, conjunct, placement), each carrying the first
    connector-type that holds its 2-type's inverse, and both checks accept it;
    ``evaluate`` (|D|^3 on unguarded sentences) runs on domains of at most
    100 elements.  Returns whether ``evaluate`` ran."""
    res = X.decide_af3(nf, want_model=True)
    if not res.satisfiable:
        return False
    omegas = sorted(res.certificate, key=lambda om: om.serialize())
    two_types = sorted({t for om in omegas for t in om.types},
                       key=lambda t: t.bits)
    j_size, _placement = W.small_pair_placement()
    per_type = X.H_SIZE * max(1, len(nf.gammas)) * j_size
    domain = res.id_model.domain
    assert len(domain) == len(two_types) * per_type
    for e, (o, t, _h, _i, _j) in enumerate(domain):
        assert t == e // per_type
        assert two_types[t].inverse(2) in omegas[o].types
        assert not any(two_types[t].inverse(2) in om.types
                       for om in omegas[:o])
    assert X.verify_normal_form(nf, res.model)
    if len(domain) > 100:
        return False
    assert M.evaluate(res.model, f)
    return True


def test_model_domain_is_the_witness_elements():
    """Models are built on the witness elements only, on the AF3 corpus and
    on random width-2 normal forms; a tripped cap leaves nothing to
    check."""
    evaluated = 0
    for gs, d, _label in AF3_CORPUS:
        f = S.parse(nf_text(gs, d, 2))
        evaluated += assert_witness_domain(X.normalize(f), f)
    assert evaluated == 16  # all 18 SAT entries but 12 and 19 (150, 120)

    @settings(max_examples=30, deadline=None)
    @given(nf=normal_forms(ells=[2]))
    def random_sentences(nf):
        try:
            assert_witness_domain(nf, nf.sentence())
        except S.ResourceError:
            pass

    random_sentences()


@pytest.mark.parametrize("ell,entry", [
    *(pytest.param(2, e, id=f"af3-{i}")
      for i, e in enumerate(AF3_CORPUS, 1) if e[2]),
    pytest.param(3, AF4_CORPUS[8], id="af4-9")])
def test_decide_af3_builds_link_tables_once(monkeypatch, ell, entry):
    """One link/witness pass per decision, with or without a model:
    build_model reads the decider's witness masks.  AF4 entry 9 is decided
    on its reduced three-variable sentence."""
    gs, d, _expect = entry
    nf = X.normalize(S.parse(nf_text(gs, d, ell)))
    if ell == 3:
        nf = X.reduce_step(nf)
    calls = []
    real = X._link_tables

    def counted(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(X, "_link_tables", counted)
    for want_model in (False, True):
        calls.clear()
        res = X.decide_af3(nf, want_model=want_model)
        assert res.satisfiable
        assert (res.id_model is not None) == want_model
        assert calls == ["decide_af3 link/witness tables"]


@pytest.mark.parametrize("writes,clash", [
    # r(a, b) written true, then false.
    ([([("r", (0, 1), True)], [0], [1]), ([("r", (0, 1), False)], [0], [1])],
     "r('a', 'b')"),
    # One batch of a pair and its reverse: both atoms clash, and the
    # smaller tuple is named.
    ([([("r", (0, 1), True), ("r", (1, 0), False)], [2, 1], [1, 2])],
     "r('b', 'c')"),
    ([([("q", (), True)], [0]), ([("q", (), False)], [2])], "q()"),
], ids=["two-writes", "one-batch", "letter"])
def test_facts_reject_an_atom_written_twice(writes, clash):
    facts = X._Facts({"r": 2, "q": 0}, 3)
    for lits, *elems in writes:
        facts.write(X._template(lits), *map(np.array, elems))
    name = clash.partition("(")[0]
    with pytest.raises(RuntimeError, match=re.escape(f"{clash} assigned twice")):
        facts.true_tables(["a", "b", "c"])


def test_facts_true_tables():
    """A template without a literal for a 0-ary letter leaves it unset."""
    facts = X._Facts({"r": 2, "q": 0, "p": 1}, 3)
    facts.write(X._template([("r", (0, 1), True), ("r", (1, 0), False),
                             ("p", (0,), False)]), np.array([0, 2]),
                np.array([1, 0]))
    domain = ("a", "b", "c")
    exts = X.IdModel(domain, facts.true_tables(domain)).named().extensions
    assert exts[("r", 2)] == {("a", "b"), ("c", "a")}
    assert exts[("q", 0)] == frozenset()
    assert exts[("p", 1)] == frozenset()
    facts = X._Facts({"q": 0}, 3)
    facts.write(X._template([("q", (), True)]), np.array([1]))
    exts = X.IdModel(domain, facts.true_tables(domain)).named().extensions
    assert exts[("q", 0)] == {()}


def test_rename_model():
    s = M.make_structure(["x", "y"], {("r", 2): [("x", "y")]})
    renamed = X.rename_model(s)
    assert renamed.domain == ("e0", "e1")
    assert renamed.holds("r", ("e0", "e1"))


@st.composite
def id_extensions(draw):
    """A domain of n = 0 to 25 elements (e10 sorts before e2), permuted
    so that naming must go by position, and per predicate distinct id rows
    in any order: letters true and false, empty predicates, and keys whose
    string order is not their (name, arity) order, such as p/10 before
    p/2."""
    n = draw(st.integers(0, 25))
    keys = draw(st.lists(st.tuples(st.sampled_from(["p", "q"]),
                                   st.sampled_from([0, 1, 2, 3, 10])),
                         max_size=5, unique=True))
    exts = {}
    for name, arity in keys:
        if arity == 0:
            rows = [()] if draw(st.booleans()) else []
        elif n == 0:
            rows = []
        else:
            rows = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * arity),
                                 unique=True,
                                 max_size=40 if arity < 10 else 3))
        exts[(name, arity)] = np.array(rows, dtype=np.intp).reshape(
            len(rows), arity)
    return tuple(draw(st.permutations(range(n)))), exts


@settings(max_examples=300, deadline=None)
@given(id_extensions())
def test_id_emitter_matches_structure_to_json(drawn):
    """The JSON written from id rows is the JSON of the named structure
    after ``rename_model``, byte for byte."""
    domain, exts = drawn
    named = M.Structure(domain, {
        key: frozenset(tuple(domain[i] for i in row) for row in rows.tolist())
        for key, rows in exts.items()})
    names = [f"e{i}" for i in range(len(domain))]
    assert M.ids_to_json(names, exts) == \
        M.structure_to_json(X.rename_model(named))


@pytest.mark.parametrize("entry", [6, 14, 20, 26])
def test_table_check_rejects_a_flipped_fact(entry):
    """Flipping one fact of a built model over the elements 0 and 1, each
    in turn: the table check, ``verify_normal_form`` on the named model and
    ``evaluate`` on the sentence agree, and some flip breaks the delta.
    The entries read r/2 (6), p/1 and r/2 (14), a letter (20) and t/3
    (26)."""
    gammas, delta, _label = AF3_CORPUS[entry - 1]
    f = S.parse(nf_text(gammas, delta, 2))
    nf = X.normalize(f)
    model = X.decide_af3(nf, want_model=True).id_model
    assert model.to_json() == M.structure_to_json(
        X.rename_model(model.named()))
    n = len(model.domain)
    rejected = 0
    for name, table in model.tables.items():
        for cell in itertools.product((0, 1), repeat=table.ndim):
            flipped = table.copy()
            flipped[cell] = not flipped[cell]
            tables = {**model.tables, name: flipped}
            named = X.IdModel(model.domain, tables).named()
            ok = X.tables_satisfy(nf, tables, n)
            assert ok == X.verify_normal_form(nf, named) == \
                M.evaluate(named, f), (name, cell)
            rejected += not ok
    assert rejected


def test_decide_full_pipeline_four_variables():
    sat_f = S.parse(nf_text(["r(x3,x4)"], "r(x1,x2)", 3))
    assert X.decide(sat_f).satisfiable
    unsat_f = S.parse(nf_text(["!r(x3,x4)"], "r(x1,x2)", 3))
    assert not X.decide(unsat_f).satisfiable


@pytest.mark.parametrize("delta,expect", [("r(x1,x2)", True),
                                          ("!r(x1,x2)", False)],
                         ids=["sat", "unsat"])
def test_decide_five_variables(delta, expect):
    """Two reduction steps, then the decider, within 3 s each."""
    f = S.parse(nf_text(["r(x4,x5)"], delta, 4))
    start = time.perf_counter()
    assert X.decide(f).satisfiable == expect
    assert time.perf_counter() - start < 3.0


@pytest.mark.xfail(raises=S.ResourceError, strict=True,
                   reason="ROADMAP item 1(b): build_model's 3-type search "
                   "counts the 31 keys its types fix against the cap of 24")
def test_decide_five_variable_model():
    f = S.parse(nf_text(["r(x4,x5)"], "r(x1,x2)", 4))
    res = X.decide(f, want_model=True)
    assert X.tables_satisfy(X.normalize(f), res.id_model.tables,
                            len(res.id_model.domain))


def assert_decides_sat_quickly(f) -> X.SatResult:
    """``f`` decides SAT within 1 s, with a model ``tables_satisfy``
    accepts."""
    start = time.perf_counter()
    res = X.decide(f, want_model=True)
    assert time.perf_counter() - start < 1.0
    assert res.satisfiable
    assert X.tables_satisfy(X.normalize(f), res.id_model.tables,
                            len(res.id_model.domain))
    return res


def test_guarded_sentence_decides():
    """A guarded two-variable sentence with a one-element model."""
    f = S.fo2_to_af(S.parse(
        "exists u (p(u) & forall v (r(u,v) -> exists u (r(v,u) & !p(u))))"))
    assert X.brute_force_sat(f, max_n=2) is not None
    assert_decides_sat_quickly(f)


# Two-variable sentences that tripped the pool cap or took seconds when the
# decider listed every subset of every 1-type group.
SLOW_FO2 = [
    ("level2", "exists x1 forall x2 (t(x2,x1,x2) | t(x1,x1,x2))"),
    ("classify", "forall x1 forall x2 (r(x1,x2) -> t(x1,x2,x2))"),
    ("successor-colouring",
     "(forall u exists v (r(u,v) & p(v))) & "
     "(forall u (p(u) -> exists v (r(u,v) & !p(v))))"),
    ("alternating-colouring",
     "(exists u p(u)) & (forall u (p(u) -> exists v (r(v,u) & !p(v)))) & "
     "(forall u (!p(u) -> exists v (r(u,v) & p(v))))"),
]


def two_variable_corpus() -> list:
    """The closed sentences of the classification, product and level-2
    corpora that ``fo2_to_af`` accepts, as (id, text)."""
    out = []
    for name, texts in (("classify", [t for t, *_ in CLASSIFY_CORPUS]),
                        ("product", PRODUCT_CORPUS),
                        ("level2", LEVEL2_CORPUS)):
        for i, text in enumerate(texts, 1):
            f = S.parse(text)
            if S.free_vars(f):
                continue
            try:
                S.fo2_to_af(f)
            except S.FormulaError:
                continue
            out.append((f"{name}-{i}", text))
    return out


FO2_CORPUS = two_variable_corpus()


def test_two_variable_corpus_size():
    assert len(FO2_CORPUS) == 38


@pytest.mark.parametrize("text", [t for _, t in SLOW_FO2 + FO2_CORPUS],
                         ids=[i for i, _ in SLOW_FO2 + FO2_CORPUS])
def test_two_variable_sentences_decide(text):
    """Each decides SAT through ``fo2_to_af`` within 1 s, with a model."""
    assert_decides_sat_quickly(S.fo2_to_af(S.parse(text)))


def test_decide_respects_variable_cap():
    f = S.parse(nf_text(["r(x3,x4)"], "r(x1,x2)", 3))
    with pytest.raises(S.ResourceError):
        X.decide(f, max_variables=3)


def test_brute_force_oracle():
    f = S.parse("forall x1 exists x2 (r(x1,x2) & !r(x2,x1))")
    model = X.brute_force_sat(f, max_n=3)
    assert model is not None
    assert M.evaluate(model, f)
    assert X.brute_force_sat(S.parse("(exists x1 p(x1)) & forall x1 !p(x1)"),
                             max_n=3) is None
    # Deterministic: the canonically first model is returned every time.
    assert X.brute_force_sat(f, max_n=3) == model


def test_brute_force_oracle_checks_its_model(monkeypatch):
    # The check is not an assert, so it holds under python -O too.
    monkeypatch.setattr(M, "evaluate", lambda *args: False)
    with pytest.raises(RuntimeError, match="internal consistency failure"):
        X.brute_force_sat(S.parse("exists x1 p(x1)"), max_n=1)


def test_verify_normal_form_matches_evaluate():
    f = S.parse(nf_text(["r(x2,x3)"], "r(x1,x2) -> r(x2,x1)", 2))
    nf = X.normalize(f)
    good = X.brute_force_sat(f, max_n=2)
    assert good is not None
    assert X.verify_normal_form(nf, good) == M.evaluate(good, f)
    bad = M.make_structure(["a", "b"], {("r", 2): [("a", "b")]})
    assert X.verify_normal_form(nf, bad) == M.evaluate(bad, f) == False


CHUNKED = 120  # elements: more than one x1 chunk under the default budget


def chunk_structure(p_last=False, t_triples=(), s_skip=None):
    """p holds everywhere but possibly at the last element; s(a, b, c)
    holds for c the successor of a, except at the pair ``s_skip``."""
    names = [f"e{i}" for i in range(CHUNKED)]
    succ = dict(zip(names, names[1:] + names[:1]))
    return M.make_structure(names, {
        ("p", 1): [(a,) for a in names[:None if p_last else -1]],
        ("s", 3): [(a, b, succ[a]) for a in names for b in names
                   if (a, b) != s_skip],
        ("t", 3): t_triples})


@pytest.mark.parametrize("budget", [None, 7 * CHUNKED ** 2],
                         ids=["default-budget", "last-chunk-one-element"])
def test_verify_normal_form_chunk_boundary(monkeypatch, budget):
    """verify_normal_form walks x1 in chunks; a violation that only the
    last element shows is still found, in the delta and in a gamma."""
    if budget is not None:
        monkeypatch.setattr(X, "CELL_BUDGET", budget)
    assert X.CELL_BUDGET // CHUNKED ** 2 < CHUNKED
    last = f"e{CHUNKED - 1}"
    f = S.parse(nf_text(["s(x1,x2,x3)"], "t(x1,x2,x3) -> p(x1)", 2))
    nf = X.normalize(f)
    cases = [
        # The only delta violation: t(last, e0, e1) without p(last).
        (chunk_structure(t_triples=[(last, "e0", "e1")]), False),
        (chunk_structure(p_last=True, t_triples=[(last, "e0", "e1")]), True),
        # The only missing gamma witness: none for (last, e0).
        (chunk_structure(s_skip=(last, "e0")), False),
        (chunk_structure(), True),
    ]
    for model, expected in cases:
        assert X.verify_normal_form(nf, model) == M.evaluate(model, f) == expected


def late_flips(model):
    """The model's tables, then each with one fact flipped at an element
    past the first: on the diagonal and, for a binary predicate, against
    element 0 both ways."""
    n = len(model.domain)
    yield model.tables
    for name, table in model.tables.items():
        for e in (1, n // 2, n - 1):
            for cell in [(e,) * table.ndim] + ([(e, 0), (0, e)]
                                               if table.ndim == 2 else []):
                flipped = table.copy()
                flipped[cell] = not flipped[cell]
                yield {**model.tables, name: flipped}


@pytest.mark.parametrize("gammas,delta", [
    AF3_CORPUS[10][:2],
    (["r(x2,x3) & !r(x3,x3)"], "!r(x2,x2) | !r(x1,x2) | r(x1,x1)")],
    ids=["af3-11", "diagonals"])
def test_decider_and_model_check_across_chunks(monkeypatch, gammas, delta):
    """A cell budget of 1,000 splits each of AF3 entry 11's 1-type groups
    (2,048 candidates) into three chunks and the model check's x1 walk into
    one element per chunk; the trace, certificate and model are those of
    the default budget, under which the check already walks entry 11's
    270 elements in chunks of 14.  Atoms that repeat a variable, r(x1,x1),
    r(x2,x2) and r(x3,x3), are read in chunks that start past 0, and every
    verdict on the model and its flipped variants is evaluate's on the
    named model."""
    f = S.parse(nf_text(gammas, delta, 2))
    nf = X.normalize(f)
    whole = X.decide_af3(nf, want_model=True)
    model = whole.id_model
    n = len(model.domain)
    variants = list(late_flips(model))
    verdicts = [X.tables_satisfy(nf, t, n) for t in variants]
    assert verdicts == [M.evaluate(X.IdModel(model.domain, t).named(), f)
                        for t in variants]
    assert verdicts[0] and not all(verdicts)

    def rows(trace):
        return [{k: v for k, v in row.items() if k != "millis"}
                for row in trace]

    monkeypatch.setattr(X, "CELL_BUDGET", 1000)
    assert X.CELL_BUDGET < n ** 2
    chunked = X.decide_af3(nf, want_model=True)
    assert rows(chunked.trace) == rows(whole.trace)
    assert chunked.certificate == whole.certificate
    assert chunked.id_model.domain == model.domain
    assert all(np.array_equal(chunked.id_model.tables[name], table)
               for name, table in model.tables.items())
    assert [X.tables_satisfy(nf, t, n) for t in variants] == verdicts


def test_af4_corpus_normalizes_in_place():
    for gs, d, _expect in AF4_CORPUS:
        nf = X.normalize(S.parse(nf_text(gs, d, 3)))
        assert nf.ell == 3
        assert not nf.fresh


# ---------------------------------------------------------------------------
# The batched truth tables of the decider stages against per-type references


def reference_row(z, up, parts):
    """type_table([z, *parts], up) with the literals of z on the keys that
    are also output keys given as formulas, so that no key is fixed both by
    the row and by the output axes and the reference never needs the
    builder's row/output agreement."""
    shared = set(up)
    kept = [(k, b) for k, b in z.items() if k not in shared]
    row = T.AdjType(tuple(k for k, _ in kept), tuple(b for _, b in kept))
    lits = [T.key_atom(k) if b else S.Not(T.key_atom(k))
            for k, b in z.items() if k in shared]
    return T.type_table([row, *lits, *parts], up)


def assert_stage_tables(nf, rows=None):
    """The walk tables of reduce_step (l >= 3) or decide_af3 (l = 2) equal
    type_table of the substitute_walk instances, and so do the start
    tables of decide_af3; the link and witness rows that reduce_step
    projects and decide_af3 reads equal the per-type reference row by row
    (all rows, or those with the given indices)."""
    ell = nf.ell
    keys = T.sort_keys(T.relevant_atoms(nf.sentence(), ell))
    walks = list(W.walks(ell + 1, ell))
    stall = T.type_table([S.substitute_walk(nf.delta, g) for g in walks], keys)
    assert (T.walk_table([nf.delta], walks, keys, budget=X.CELL_BUDGET)
            == stall).all()
    if ell == 2:
        starts, = T.truth_tables([], keys, walks=((1, 1, 2),),
                                 extras=[[g] for g in nf.gammas],
                                 budget=X.CELL_BUDGET)
        for gamma, table in zip(nf.gammas, starts):
            ref = T.type_table([S.substitute_walk(gamma, (1, 1, 2))], keys)
            assert (table[0] == ref).all()
    codes = stall.nonzero()[0]
    chunks = list(X._link_tables(nf, keys, codes, T.DEFAULT_ATOM_CAP,
                                 "link/witness tables"))
    if not chunks:
        assert not len(codes)
        return
    tables = [np.concatenate(t) for t in zip(*chunks)]
    assert all(len(t) == len(codes) for t in tables)
    up = T.shift_keys(keys)
    delta_hat = S.hat(nf.delta, ell + 1)
    for r in range(len(codes)) if rows is None else rows:
        z = T.type_at(keys, int(codes[r]))
        for table, extra in zip(tables, [[], *([g] for g in nf.gammas)]):
            ref = reference_row(z, up, [delta_hat, *extra])
            assert (table[r] == ref).all()


def stage_sentences():
    """The AF3 corpus, and AF4 entries 1-6 and 8 before and after their
    reduction step."""
    out = [X.normalize(S.parse(nf_text(gs, d, 2))) for gs, d, _ in AF3_CORPUS]
    for i in (1, 2, 3, 4, 5, 6, 8):
        gs, d, _expect = AF4_CORPUS[i - 1]
        nf = X.normalize(S.parse(nf_text(gs, d, 3)))
        out += [nf, X.reduce_step(nf)]
    return out


@pytest.mark.parametrize("budget", [None, 1], ids=["default", "row-chunks"])
def test_stage_tables_match_per_type_reference(monkeypatch, budget):
    """With the default cell budget, and with one row per chunk."""
    if budget is not None:
        monkeypatch.setattr(X, "CELL_BUDGET", budget)
    for nf in stage_sentences():
        assert_stage_tables(nf)


def nf_atoms(preds: str, ell: int) -> list:
    """Adjacent atoms over x1..x_{l+1} of the given predicates (p/1, r/2,
    t/3 and the letter q); t only for l = 2, where its words that hold both
    x1 and x3 are no key of width 2 and so become trailing axes."""
    n = ell + 1
    out = ["q"] if "q" in preds else []
    for i in range(1, n + 1):
        if "p" in preds:
            out.append(f"p(x{i})")
        if "r" in preds:
            out.append(f"r(x{i},x{i})")
            if i < n:
                out += [f"r(x{i},x{i + 1})", f"r(x{i + 1},x{i})"]
    if "t" in preds and ell == 2:
        out += ["t(x1,x2,x3)", "t(x3,x2,x1)", "t(x1,x2,x1)", "t(x2,x2,x3)"]
    return [S.parse(a) for a in out]


def qf_over(atoms):
    return st.recursive(
        st.sampled_from(atoms),
        lambda kids: st.one_of(
            kids.map(S.Not),
            st.lists(kids, min_size=1, max_size=3).map(
                lambda xs: S.And(tuple(xs))),
            st.lists(kids, min_size=1, max_size=3).map(
                lambda xs: S.Or(tuple(xs))),
            st.builds(S.Implies, kids, kids)),
        max_leaves=6)


@st.composite
def normal_forms(draw, ells=(2, 2, 3)):
    ell = draw(st.sampled_from(ells))
    preds = draw(st.sampled_from(["prq", "pr", "tq", "ptq"] if ell == 2
                                 else ["prq", "pr"]))
    formulas = qf_over(nf_atoms(preds, ell))
    gammas = draw(st.lists(formulas, min_size=1, max_size=2))
    return X.NormalFormFormula(ell, tuple(gammas), draw(formulas))


@settings(max_examples=100, deadline=None)
@given(nf=normal_forms(), budget=st.sampled_from([1, X.CELL_BUDGET]),
       data=st.data())
def test_stage_tables_match_reference_on_random_sentences(nf, budget, data):
    """Random normal forms over p/1, r/2, t/3 and q, with one row per chunk
    or the default budget; at most four link and witness rows per sentence
    are checked against the reference."""
    keys = T.sort_keys(T.relevant_atoms(nf.sentence(), nf.ell))
    admissible = int(T.walk_table([nf.delta], W.walks(nf.ell + 1, nf.ell),
                                  keys).sum())
    rows = data.draw(st.lists(st.integers(0, admissible - 1), max_size=4,
                              unique=True) if admissible else st.just([]))
    with mock.patch.object(X, "CELL_BUDGET", budget):
        assert_stage_tables(nf, rows)


@settings(max_examples=100, deadline=None)
@given(nf=normal_forms())
def test_adjacent_closure_matches_all_walks_on_random_sentences(nf):
    """Random normal forms of width 2 and 3 (see ``distinct_closure``)."""
    assert X.adjacent_closure(nf) == distinct_closure(nf)


@settings(max_examples=60, deadline=None)
@given(nf=normal_forms(ells=[2]))
def test_pool_matches_reference_on_random_sentences(nf):
    """Random width-2 normal forms of at most 300 candidates, against the
    reference pool of ``aftypes.compatible``."""
    candidates = connector_candidates(nf, 300)
    if candidates is not None:
        assert_decider_matches_reference(nf, candidates)


@settings(max_examples=60, deadline=None)
@given(nf=normal_forms(ells=[2]))
def test_lazy_certificate_search_matches_eager_on_random_sentences(nf):
    """Random width-2 normal forms of at most 4,096 candidates, against the
    reference pool of ``X._compatible``."""
    candidates = connector_candidates(nf, 1 << 12)
    if candidates is not None:
        assert_decider_matches_reference(nf, candidates,
                                         check_compatible=False)


# ---------------------------------------------------------------------------
# The compiled truth tables against the named reference in tests/reference.py


def outcome(tables):
    """The chunks of a ``truth_tables`` generator as lists of arrays, or the
    type and message of the exception it raises."""
    try:
        return "tables", [list(chunk) for chunk in tables]
    except (S.FormulaError, S.ResourceError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(tables, reference):
    """Two ``truth_tables`` generators yield the same chunks, cell for
    cell, or raise the same exception with the same message; returns the
    number of chunks, or None after an exception."""
    got, want = outcome(tables), outcome(reference)
    assert got[0] == want[0]
    if got[0] != "tables":
        assert got == want
        return None
    assert len(got[1]) == len(want[1])
    for chunk, ref in zip(got[1], want[1]):
        assert len(chunk) == len(ref)
        for table, expect in zip(chunk, ref):
            assert table.shape == expect.shape
            assert (table == expect).all()
    return len(got[1])


def assert_same_tables(formulas, keys, **kwargs):
    """``truth_tables`` against ``reference.truth_tables`` on the same
    arguments (see ``assert_same_outcome``)."""
    return assert_same_outcome(T.truth_tables(formulas, keys, **kwargs),
                               R.truth_tables(formulas, keys, **kwargs))


@settings(max_examples=80, deadline=None)
@given(nf=normal_forms(ells=(2, 3)), data=st.data())
def test_truth_tables_match_named_reference(nf, data):
    """Random normal forms of width 2 and 3: the walk tables of the type
    filter and the start tables, the ``_link_tables`` rows (whose row keys
    are also output keys), tables whose output keys are a prefix of the
    keys read (so that the others trail), and runs of one row per chunk
    (at least 3 chunks with rows), each equal cell for cell to
    ``reference.truth_tables``.  A cap below the keys read and a
    quantified formula raise what the reference raises, the cap first."""
    ell = nf.ell
    sentence = nf.sentence()
    keys = T.sort_keys(T.relevant_atoms(sentence, ell))
    assert T.relevant_atoms(sentence, ell) == R.relevant_atoms(sentence, ell)
    walks = W.walks(ell + 1, ell)
    extras = [(), *([g] for g in nf.gammas)]
    budget = data.draw(st.sampled_from([1, X.CELL_BUDGET]))
    cut = data.draw(st.integers(0, len(keys)))
    for out in (keys, keys[:cut]):
        assert_same_tables([nf.delta], out, walks=walks, extras=extras,
                           budget=budget)
        assert_same_tables([], out, walks=((1,) * ell + (2,),),
                           extras=extras, budget=budget)
    (table,), = T.truth_tables([nf.delta], keys, walks=walks)
    codes = table[0].nonzero()[0]
    picked = data.draw(st.lists(st.sampled_from(codes.tolist()), min_size=3,
                                max_size=4) if len(codes) else st.just([]))
    codes = np.array(picked, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(len(keys) - 1, -1, -1)) & 1 == 1
    delta_hat = S.hat(nf.delta, ell + 1)
    up = T.shift_keys(keys)
    for out in (up, up[:cut]):
        chunks = assert_same_tables([delta_hat], out, rows=(keys, bits),
                                    extras=extras, budget=budget)
        assert chunks in (None, len(codes) if budget == 1
                          else min(1, len(codes)))
    assert_same_outcome(
        X._link_tables(nf, keys, codes, T.DEFAULT_ATOM_CAP, "link"),
        R.truth_tables([delta_hat], up, rows=(keys, bits), extras=extras,
                       budget=X.CELL_BUDGET, stage="link"))
    quantified = S.Forall("x1", nf.delta)
    cap = data.draw(st.integers(0, len(keys) + 2))
    for kwargs in ({"walks": walks}, {"rows": (keys, bits)}):
        assert_same_tables([nf.delta, quantified], keys, cap=cap, **kwargs)
        assert_same_tables([nf.delta], keys, extras=[(), [quantified]],
                           cap=cap, **kwargs)
