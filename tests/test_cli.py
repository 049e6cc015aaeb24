"""Command-line verbs, output shapes, exit codes, and determinism."""

import hashlib
import json
import os
import re
import resource
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import afkit.cli as C
import afkit.sat as X
import afkit.syntax as S
from corpus import AF3_CORPUS, AF4_CORPUS, nf_text

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = C.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def formula_file(tmp_path):
    def make(text, name="f.af"):
        p = tmp_path / name
        p.write_text(text + "\n")
        return str(p)
    return make


def test_primgen_and_generate(capsys):
    code, out, _ = run(capsys, "primgen", "abcbcbd")
    assert (code, out) == (0, "abcbd\n")
    code, out, _ = run(capsys, "generate", "abcd", "abcbcd")
    assert code == 0
    assert [int(t) for t in out.strip().split(",")] == [1, 2, 3, 2, 3, 4]
    code, out, _ = run(capsys, "generate", "abc", "abd")
    assert (code, out) == (1, "none\n")


def test_classify_exit_codes(capsys, formula_file):
    code, out, _ = run(capsys, "classify",
                       formula_file("forall x1 exists x2 r(x1,x2)"))
    assert code == 0 and "adjacent: True" in out
    trans = ("forall x1 forall x2 forall x3 "
             "((r(x1,x2) & r(x2,x3)) -> r(x1,x3))")
    code, out, _ = run(capsys, "classify", formula_file(trans), "--json")
    assert code == 1
    assert json.loads(out)["adjacent"] is False


def test_sat_model_check_roundtrip(capsys, formula_file, tmp_path):
    f = formula_file("(forall x1 exists x2 r(x1,x2))"
                     " & (forall x1 forall x2 (r(x1,x2) -> !r(x2,x1)))")
    model_path = tmp_path / "model.json"
    code, out, _ = run(capsys, "model", f, "--emit-model", str(model_path))
    assert code == 0 and out.startswith("SAT")
    payload = json.loads(model_path.read_text())
    assert set(payload) == {"domain", "predicates"}

    code, out, _ = run(capsys, "check", f, str(model_path))
    assert (code, out) == (0, "true\n")


def test_sat_unsat_and_oracle(capsys, formula_file):
    f = formula_file("(exists x1 p(x1)) & (forall x1 !p(x1))")
    code, out, _ = run(capsys, "sat", f)
    assert (code, out) == (1, "UNSAT\n")
    code, out, _ = run(capsys, "oracle", f)
    assert code == 1 and "no model" in out


def test_sat_json_trace_and_certificate(capsys, formula_file):
    f = formula_file("forall x1 exists x2 r(x1,x2)")
    code, out, _ = run(capsys, "sat", f, "--json", "--trace")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "SAT"
    assert payload["trace"]
    assert payload["certificate"]


def test_max_vars_cap(capsys, formula_file):
    f = formula_file("forall x1 forall x2 forall x3 exists x4 "
                     "(r(x3,x4) & p(x1))")
    code, _, err = run(capsys, "sat", f, "--max-vars", "3")
    assert code == 3 and "resource cap" in err


def test_resource_cap_env(capsys, formula_file, monkeypatch):
    monkeypatch.setenv("AF_RESOURCE_CAP", "2")
    f = formula_file(
        "(forall x1 forall x2 forall x3 exists x4 r(x3,x4))"
        " & (forall x1 forall x2 forall x3 forall x4 r(x1,x2))")
    code, _, err = run(capsys, "reduce", f)
    assert code == 3 and "resource cap" in err


def test_normalize_closure_reduce(capsys, formula_file):
    f = formula_file(
        "(forall x1 forall x2 forall x3 exists x4 r(x3,x4))"
        " & (forall x1 forall x2 forall x3 forall x4 r(x1,x2))")
    code, out, _ = run(capsys, "normalize", f, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["variables"] == 4
    assert payload["existential_conjuncts"] == ["r(x3,x4)"]

    code, out, _ = run(capsys, "closure", f, "--json")
    assert code == 0 and json.loads(out)["variables"] == 3

    code, out, _ = run(capsys, "reduce", f, "--json")
    assert code == 0
    pruned = len(json.loads(out)["fresh"])
    code, out, _ = run(capsys, "reduce", f, "--json", "--no-prune")
    assert code == 0
    assert len(json.loads(out)["fresh"]) >= pruned


def test_fo2af_af2fo2(capsys, formula_file):
    f = formula_file("forall u exists v (r(u,v) & !r(v,u))")
    code, out, _ = run(capsys, "fo2af", f)
    assert code == 0 and "u" not in out.split("forall")[0]
    back = formula_file(out.strip(), name="back.af")
    code, out, _ = run(capsys, "af2fo2", back)
    assert code == 0 and "x3" not in out


@pytest.mark.parametrize("verb", [["fo2af"], ["af2fo2"], ["oracle"],
                                  ["atm", "verify"]],
                         ids=["fo2af", "af2fo2", "oracle", "atm-verify"])
def test_json_flag_only_where_it_acts(capsys, formula_file, verb):
    """Verbs whose output has one format reject ``--json``."""
    args = ([str(DATA / "hop.atm"), "1"] if verb[0] == "atm"
            else [formula_file("forall u exists v r(u,v)")])
    code, out, err = run(capsys, *verb, *args, "--json")
    assert (code, out) == (2, "") and "--json" in err


def test_atm_verbs(capsys):
    code, out, _ = run(capsys, "atm", "simulate", str(DATA / "hop.atm"), "1")
    assert code == 0 and out == "accept (2 vertices)\n"
    code, out, _ = run(capsys, "atm", "simulate", str(DATA / "sink.atm"), "1")
    assert code == 1 and out == "reject\n"

    code, out, _ = run(capsys, "atm", "encode", str(DATA / "hop.atm"), "1",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 1 and "phi1" in payload["conjuncts"]

    code, out, _ = run(capsys, "atm", "verify", str(DATA / "hop.atm"), "1")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert all(set(row) == {"conjunct", "verdict", "millis"}
               for row in report["conjuncts"])

    code, _, err = run(capsys, "atm", "verify", str(DATA / "sink.atm"), "1")
    assert code == 2 and "error" in err


def test_bad_inputs_exit_two(capsys, formula_file, tmp_path):
    code, _, err = run(capsys, "classify", str(tmp_path / "missing.af"))
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "classify", formula_file("forall x1 (p(x1)"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    f = formula_file("forall x1 p(x1)")
    code, _, err = run(capsys, "check", f, str(bad))
    assert code == 2
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_classify_rejects_zero_padded_index(capsys, formula_file):
    code, out, err = run(capsys, "classify", formula_file("r(x1,x01)"))
    assert (code, out) == (2, "")
    assert err == "error: 1:6: variable 'x01' has a leading zero\n"


def test_repeated_runs_identical(capsys, formula_file):
    f = formula_file("forall x1 exists x2 (r(x1,x2) & !r(x2,x1))")
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "model", f, "--json")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


# sha256 of `af model` stdout for every SAT entry of the AF3 corpus
# (numbered from 1): among them two existential conjuncts, 17 atom keys, a
# 150-element model (12) and the only model whose keys force the joining
# fill (23: 15 elements, 3,375 facts).  The values of the entries whose
# certificate has one member were recorded before model construction moved
# to element-id arrays; the others (4, 5, 11, 12, 17, 19, 29) when models
# came to be built on the witness elements only.
MODEL_DIGESTS = {
    1: "6fe37ae374e59dc06fb0af09d49218e875aacf0b3989cffa2618b4346df31baa",
    3: "6fe37ae374e59dc06fb0af09d49218e875aacf0b3989cffa2618b4346df31baa",
    4: "c5878f39ec13fb4d43b548e2bb4c598a464f83700b5557ea3996bd82c249c295",
    5: "c5878f39ec13fb4d43b548e2bb4c598a464f83700b5557ea3996bd82c249c295",
    6: "9f3f006d72b8bc1d27951ea827652458c14df360d9ecaf38b74c6a232dd4bb3d",
    8: "6fe37ae374e59dc06fb0af09d49218e875aacf0b3989cffa2618b4346df31baa",
    9: "6fe37ae374e59dc06fb0af09d49218e875aacf0b3989cffa2618b4346df31baa",
    11: "d3408bc12515757a0cf9c4b0bcf88abfb7cc7660b3decf3e6428445be72865a1",
    12: "07bb0f51c70b03b965babf6b001faf0dcead3fe0e093fe65626e58c86d34bc5a",
    14: "505a1e1c5d90bce00ac975ff0c56907d55d642ef73f93ee64d2704fc67a932be",
    17: "c5878f39ec13fb4d43b548e2bb4c598a464f83700b5557ea3996bd82c249c295",
    19: "3129e4640bdfe4e17a7633865f6c6742e1803f0a95217fa0d887e0a37fd5c36d",
    20: "00d1347e4af8313c0e93d69c9508dd416caf5954168af76fdaf25872f947400b",
    22: "4304c39315589d0659a8a9bf3abf7555f7e1cdf9008a51ecaf1d4e25c0842c1a",
    23: "5863fecf6deaa8639c345a719ae65b8b844700f3e38a572fd015ef89304a4bac",
    25: "b7c8a74541a386ba6201088c307a8875084afca405377cf17fe5de3280fa9c1a",
    26: "0efbbf0765cd4613ac6b1b8cbc7cec5624f367c48cf4060044c11199c99a34d6",
    29: "7de8e6a951c71a4ea85f18c26489eaf9710c22c0c53a43777f3fd52368171b10",
}


@pytest.mark.parametrize("entry", sorted(MODEL_DIGESTS))
def test_model_output_golden(capsys, formula_file, entry):
    gammas, delta, _label = AF3_CORPUS[entry - 1]
    code, out, _ = run(capsys, "model", formula_file(nf_text(gammas, delta, 2)))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MODEL_DIGESTS[entry]


@pytest.mark.parametrize("budget", [None, 4 * 15 * 15],
                         ids=["one-chunk", "chunks-of-four"])
def test_joining_fill_orientation_golden(capsys, formula_file, monkeypatch,
                                         budget):
    """A 15-element model whose joining and witnessing 3-types depend on
    the direction a triple is written in: the first type satisfying
    t(x1,x2,x3) | t(x3,x2,x1) makes only t(x3,x2,x1) true.  The joining
    fill walks the first element in chunks; the output is the same for any
    chunk size.  Recorded before model construction moved to element-id
    arrays."""
    if budget is not None:
        monkeypatch.setattr(X, "CELL_BUDGET", budget)
    text = nf_text(["r(x2,x3)"], "(t(x1,x2,x3) | t(x3,x2,x1)) "
                   "& t(x1,x1,x2) & t(x1,x2,x2)", 2)
    code, out, _ = run(capsys, "model", formula_file(text))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "9b6369d3d00a1db6c103ef0a7422b3356866d60c665107a4416031f36a8c1a57"


def test_af4_entry_9_model():
    """AF4 entry 9 through the reduction and the model: the joining fill
    over 45 elements.  The digest is over the sorted facts of the renamed
    model, one ``name(e1,e2,...)`` line each; the model passes
    ``tables_satisfy``."""
    gammas, delta, _label = AF4_CORPUS[8]
    f = S.parse(nf_text(gammas, delta, 3))
    res = X.decide(f, want_model=True)
    model = X.rename_model(res.model)
    lines = sorted(f"{name}({','.join(t)})"
                   for (name, _arity), ext in model.extensions.items()
                   for t in ext)
    assert X.tables_satisfy(X.normalize(f), res.id_model.tables,
                            len(res.id_model.domain))
    assert (len(model.domain), len(lines)) == (45, 93150)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "68585c9c4410c626ce7d6bedb21697073a14ca92e8900adac94d20e36536d84e"


# Outputs of the two-variable translations on sentences that requantify a
# variable, recorded before their two clause splitters were merged into one.
REQUANTIFIED = [
    ("forall u exists v (r(u,v) & exists u r(v,u))",
     "forall x1 exists x2 r(x1,x2) & (exists x3 r(x2,x3))\n",
     "forall u exists v r(u,v) & (exists u r(v,u))\n"),
    ("exists u (p(u) & forall v (r(u,v) -> exists u (r(v,u) & !p(u))))",
     "exists x1 p(x1) & (forall x2 !r(x1,x2) | (exists x3 r(x2,x3) & !p(x3)))\n",
     "exists u p(u) & (forall v !r(u,v) | (exists u r(v,u) & !p(u)))\n"),
    ("forall x1 ((exists x2 r(x1,x2)) -> exists x2 r(x2,x1))",
     "forall x1 !(exists x2 r(x1,x2)) | (exists x2 r(x2,x1))\n",
     "forall u !(exists v r(u,v)) | (exists v r(v,u))\n"),
]


@pytest.mark.parametrize("text,to_af,to_fo2", REQUANTIFIED,
                         ids=["u-requantified", "nested", "x-names"])
def test_two_variable_translation_bytes(capsys, formula_file, text, to_af,
                                        to_fo2):
    f = formula_file(text)
    assert run(capsys, "fo2af", f)[:2] == (0, to_af)
    assert run(capsys, "af2fo2", f)[:2] == (0, to_fo2)


def test_normalize_json_bytes(capsys, formula_file):
    f = formula_file("forall x1 ((exists x2 r(x1,x2)) -> exists x2 r(x2,x1))")
    code, out, _ = run(capsys, "normalize", f, "--json")
    assert code == 0
    assert out == (
        '{\n'
        '  "variables": 3,\n'
        '  "existential_conjuncts": [\n'
        '    "_nf1(x2) -> r(x2,x3)",\n'
        '    "_nf2(x2) -> r(x3,x2)",\n'
        '    "(_nf1(x3) -> _nf2(x3)) -> _nf3"\n'
        '  ],\n'
        '  "universal_matrix": "(r(x2,x3) -> _nf1(x2)) & (r(x3,x2) -> _nf2(x2))'
        ' & (_nf3 -> _nf1(x3) -> _nf2(x3)) & _nf3",\n'
        '  "fresh": {\n'
        '    "_nf1": "exists x2 r(x1,x2)",\n'
        '    "_nf2": "exists x2 r(x2,x1)",\n'
        '    "_nf3": "forall x1 _nf1(x1) -> _nf2(x1)"\n'
        '  }\n'
        '}\n')


@pytest.mark.parametrize("verb", ["model", "sat"])
@pytest.mark.parametrize("entry", [12, 20])
def test_emit_model_file_bytes(capsys, formula_file, tmp_path, verb, entry):
    """``--emit-model OUT`` writes exactly what ``af model`` prints after
    its verdict line: the JSON and a newline."""
    gammas, delta, _label = AF3_CORPUS[entry - 1]
    f = formula_file(nf_text(gammas, delta, 2))
    code, printed, _ = run(capsys, "model", f)
    assert code == 0
    out = tmp_path / "model.json"
    assert run(capsys, verb, f, "--emit-model", str(out))[:2] == (0, "SAT\n")
    assert out.read_bytes() == printed.partition("\n")[2].encode()


def test_oracle_output_bytes(capsys, formula_file):
    # AF3 corpus entry 12: two witness conjuncts, a 2-element model.
    gammas, delta, _label = AF3_CORPUS[11]
    code, out, _ = run(capsys, "oracle", formula_file(nf_text(gammas, delta, 2)))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b83d6130c1921893a3789c74a8cde536bc3162dc4ae3bb9d5125aabb4460dac1")


def test_oracle_on_u_v_names(capsys, formula_file):
    code, out, err = run(capsys, "oracle", formula_file("forall u exists v r(u,v)"))
    assert (code, err) == (0, "")
    assert json.loads(out) == {"domain": ["e0"], "predicates": {"r/2": [["e0", "e0"]]}}


@pytest.mark.parametrize("text,message", [
    ('{"domain": ["a"], "predicates": {"p/1": [1]}}',
     "p/1: tuples are lists of domain elements"),
    ('{"domain": [["a"]]}', "'domain' must be a list of scalars"),
    ('{"domain": ["a"], "predicates": []}', "'predicates' must be an object"),
    ('{"domain": 5}', "'domain' must be a list of scalars"),
    ('{"predicates": {}}', "structure JSON needs a 'domain' key"),
    ('{"domain": ["a"], "predicates": {"p": [["a"]]}}',
     "predicate key 'p' is not 'name/arity'"),
    ('{"domain": ["a"], "predicates": {"q/0": "yes"}}',
     "q/0: proposition letters are booleans"),
    ('{"domain": ["a"], "predicates": {"p/1": [[["a"]]]}}',
     "p/1: tuples are lists of domain elements"),
    # Superscript two and Arabic-Indic one are digits, but not ASCII ones.
    ('{"domain": ["a"], "predicates": {"p/\\u00b2": [["a", "a"]]}}',
     "predicate key 'p/\u00b2' is not 'name/arity'"),
    ('{"domain": ["a"], "predicates": {"q/\\u0661": [["a"]]}}',
     "predicate key 'q/\u0661' is not 'name/arity'"),
    ('{"domain": ["a", "b"], "predicates": {"p/2": [["a", "b"], ["b"]]}}',
     "tuple ('b',) in p/2 has wrong arity"),
    ('{"domain": ["a"], "predicates": {"p/1": [["a"], ["b"]]}}',
     "tuple ('b',) in p/1 leaves the domain"),
], ids=["tuple-not-list", "list-element", "predicates-list", "domain-number",
        "no-domain", "key-without-arity", "letter-not-boolean",
        "nested-tuple", "superscript-arity", "arabic-indic-arity",
        "wrong-arity", "leaves-domain"])
def test_check_rejects_malformed_structure(capsys, formula_file, tmp_path,
                                           text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, "check", formula_file("forall x1 p(x1)"),
                         str(bad))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["sat", "{bad}"],
    ["check", "{bad}", "{structure}"],
    ["check", "{formula}", "{bad}"],
    ["atm", "verify", "{bad}", "1"],
], ids=["sat", "check-formula", "check-structure", "atm-verify"])
def test_input_that_is_not_utf8_is_an_input_error(capsys, formula_file,
                                                  tmp_path, argv):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    structure = tmp_path / "s.json"
    structure.write_text('{"domain": ["a"], "predicates": {"p/1": []}}')
    paths = {"bad": str(bad), "structure": str(structure),
             "formula": formula_file("forall x1 p(x1)")}
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert (code, out) == (2, "")
    assert err == ("error: 'utf-8' codec can't decode byte 0xff in position "
                   "0: invalid start byte\n")


def test_resource_cap_env_must_be_an_integer(capsys, formula_file,
                                             monkeypatch):
    monkeypatch.setenv("AF_RESOURCE_CAP", "abc")
    code, out, err = run(capsys, "sat", formula_file("forall x1 p(x1)"))
    assert (code, out, err) == (
        2, "", "error: AF_RESOURCE_CAP must be an integer, got 'abc'\n")


@pytest.mark.parametrize("argv,env,message", [
    (["sat", "{f}", "--pool-cap", "-1"], None,
     "af sat: error: argument --pool-cap: must not be negative, got -1"),
    (["model", "{f}", "--pool-cap", "-1"], None,
     "af model: error: argument --pool-cap: must not be negative, got -1"),
    (["sat", "{f}", "--max-vars", "-1"], None,
     "af sat: error: argument --max-vars: must not be negative, got -1"),
    (["oracle", "{f}", "--max-domain", "-3"], None,
     "af oracle: error: argument --max-domain: must not be negative, got -3"),
    (["atm", "simulate", "{hop}", "11", "--max-depth", "-1"], None,
     "af atm simulate: error: argument --max-depth: must not be negative, "
     "got -1"),
    (["atm", "verify", "{hop}", "11", "--max-depth", "-1"], None,
     "af atm verify: error: argument --max-depth: must not be negative, "
     "got -1"),
    (["sat", "{f}"], "-5", "error: AF_RESOURCE_CAP must not be negative, "
     "got '-5'"),
    (["reduce", "{f}"], "-1", "error: AF_RESOURCE_CAP must not be negative, "
     "got '-1'"),
], ids=["pool-cap", "model-pool-cap", "max-vars", "max-domain",
        "simulate-max-depth", "verify-max-depth", "env-sat", "env-reduce"])
def test_negative_limit_is_a_usage_error(capsys, formula_file, monkeypatch,
                                         argv, env, message):
    """A negative limit exits 2 with a last line naming the option, where
    it used to run: a pool cap of -1 tripped with exit 3, a domain bound of
    -3 reported no model.  Zero keeps its meaning (``simulate-depth``
    above)."""
    if env is not None:
        monkeypatch.setenv("AF_RESOURCE_CAP", env)
    f = formula_file("forall x1 forall x2 forall x3 exists x4 r(x3,x4)")
    argv = [a.format(f=f, hop=DATA / "hop.atm") for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out, err.splitlines()[-1]) == (2, "", message)


# Exact stdout of text forms that no golden above pins.
TEXT_OUTPUTS = [
    ("sat-trace", ["sat", "{f}", "--trace"], "forall x1 exists x2 r(x1,x2)",
     0, "SAT\n"
        "  {'stage': 'normalize', 'variables': 3, 'gammas': 1}\n"
        "  {'stage': 'types', 'count': 16, 'admissible': 16}\n"
        "  {'stage': 'fixpoint', 'two_types': 16}\n"
        "  {'stage': 'certificate', 'size': 1, 'tested': 2}\n"),
    ("normalize", ["normalize", "{f}"],
     "forall x1 ((exists x2 r(x1,x2)) -> exists x2 r(x2,x1))",
     0, "(forall x1 forall x2 exists x3 _nf1(x2) -> r(x2,x3))"
        " & (forall x1 forall x2 exists x3 _nf2(x2) -> r(x3,x2))"
        " & (forall x1 forall x2 exists x3 (_nf1(x3) -> _nf2(x3)) -> _nf3)"
        " & (forall x1 forall x2 forall x3 (r(x2,x3) -> _nf1(x2))"
        " & (r(x3,x2) -> _nf2(x2)) & (_nf3 -> _nf1(x3) -> _nf2(x3)) & _nf3)\n"),
    ("comments", ["classify", "{f}"],
     "# a whole-line comment\nforall x1 # after a token\n"
     "  exists x2 r(x1,x2)  # at the end",
     0, "adjacent: True\nmin_k: 0\nvariable_count: 2\nfluted: True\n"
        "ordered: True\nforward: True\ntwo_variable: True\n"
        "guarded: False\nguarded_adjacent: False\n"),
    ("simulate-json", ["atm", "simulate", "{hop}", "11", "--json"], None,
     0, '{"status": "accept", "tree_size": 2}\n'),
    ("simulate-depth", ["atm", "simulate", "{hop}", "11", "--max-depth", "0"],
     None, 1, "depth-exhausted\n"),
]


@pytest.mark.parametrize("argv,text,code,out",
                         [row[1:] for row in TEXT_OUTPUTS],
                         ids=[row[0] for row in TEXT_OUTPUTS])
def test_text_output_bytes(capsys, formula_file, argv, text, code, out):
    f = formula_file(text) if text is not None else None
    argv = [a.format(f=f, hop=DATA / "hop.atm") for a in argv]
    assert run(capsys, *argv) == (code, out, "")


def test_atm_encode_text_golden(capsys):
    code, out, err = run(capsys, "atm", "encode", str(DATA / "hop.atm"), "1")
    assert (code, err) == (0, "")
    assert out.startswith("# phi1\nforall x1 forall x2 V(x1,x2) -> "
                          "!O(x1) & O(x2)\n# phi2\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3501aaaa01ecb0868c158d9fa8704988d501f2d9507506dd93fa6543c46df42a")


def _af_command(*argv) -> dict:
    """The arguments that start ``af`` in a child process through
    ``cli.main``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(C.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    return {"args": [sys.executable, "-m", "afkit.cli", *argv], "env": env,
            "stdout": subprocess.PIPE, "stderr": subprocess.PIPE}


def test_closed_stdout_ends_silently(formula_file):
    # Entry 12's model is about 750 KB, far more than a pipe holds, so af
    # is still writing when the reader goes.
    gammas, delta, _label = AF3_CORPUS[11]
    with subprocess.Popen(**_af_command(
            "model", formula_file(nf_text(gammas, delta, 2)))) as proc:
        assert proc.stdout.readline() == b"SAT\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
    assert (proc.returncode, err) == (-signal.SIGPIPE, b"")


def test_clause_cap_trips_before_the_product_is_built(formula_file):
    # The DNF of the body has 2^18 * (2^18 + 1) clauses, so the cap must
    # trip before that product is built.  The child's address space is
    # capped so that a conversion which builds it fails the test rather
    # than exhausting the machine's memory.
    def half(p, q):
        return " & ".join(f"({p}{i}(u) | {q}{i}(u))" for i in range(18))
    f = formula_file(f"exists u ({half('a', 'b')} & (({half('c', 'd')})"
                     " | e(u)))")
    limit = 2 << 30
    done = subprocess.run(**_af_command("fo2af", f), timeout=30,
                          preexec_fn=lambda: resource.setrlimit(
                              resource.RLIMIT_AS, (limit, limit)))
    assert (done.returncode, done.stdout) == (3, b"")
    assert done.stderr == (b"resource cap exceeded: DNF conversion: the product of "
                   b"262144 by 262145 clauses (size 18014535948697600) "
                   b"exceeds the node cap of 1000000\n")


@pytest.mark.parametrize("text,elements", [
    ("(forall u exists v (r(u,v) & p(v))) & "
     "(forall u (p(u) -> exists v (r(u,v) & !p(v))))", 480),
    ("(exists u p(u)) & (forall u (p(u) -> exists v (r(v,u) & !p(v)))) & "
     "(forall u (!p(u) -> exists v (r(u,v) & p(v))))", 300),
], ids=["successor-colouring", "alternating-colouring"])
def test_two_variable_models_in_bounded_memory(formula_file, text, elements):
    # Listing every subset of every 1-type group took the first sentence
    # 6.3 s and 316 MB, and the second tripped the pool cap after 3.4 s and
    # 434 MB.  The child's address space is capped as above.
    f = formula_file(S.render(S.fo2_to_af(S.parse(text))))
    limit = 2 << 30
    done = subprocess.run(**_af_command("model", f), timeout=30,
                          preexec_fn=lambda: resource.setrlimit(
                              resource.RLIMIT_AS, (limit, limit)))
    assert (done.returncode, done.stderr) == (0, b"")
    verdict, model = done.stdout.decode().split("\n", 1)
    assert verdict == "SAT"
    assert len(json.loads(model)["domain"]) == elements


# sha256 of stdout: the `_pz` guard names and their order, each projection
# as a decision tree, each closure conjunct once, and the
# types/fixpoint/certificate trace rows.
REDUCE_DIGESTS = {
    1: "56b9c5c92659dc5308aed8f018617ef95e593929d6b296de4fd5010f02b9109f",
    3: "ad52dadead5551895796c090356c32b89b47f6f748a9df9e438c17a3c4d6faf6",
    7: "8e806a9ced52b64c2262a94030f02a7f137e0f563a3993c2cc05da0806992fe5",
    9: "b3e9bff02b8f37cafe22ccf6a2784a97336779b913c7724ab43e042bf348f20c",
}
SAT_TRACE_DIGESTS = [
    ("af4", 3, 0, "f49f0d0639ebdf4d8e12a3cfc53371f54bc1e6e96f677b1a0dba707fc5695746"),
    ("af3", 12, 0, "3aea9affba81947c87a10ce2e8fd5d84293084ec71e2f9fec3d397f5027ba49d"),
    ("af3", 30, 1, "c7f90b1a4978966cbf249d61182a576238c88eedbe2dcbc972bcfeb6cae18e36"),
]


@pytest.mark.parametrize("entry", sorted(REDUCE_DIGESTS))
def test_reduce_json_golden(capsys, formula_file, entry):
    gammas, delta, _label = AF4_CORPUS[entry - 1]
    code, out, _ = run(capsys, "reduce", formula_file(nf_text(gammas, delta, 3)),
                       "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REDUCE_DIGESTS[entry]


# sha256 of `af reduce --json --no-prune` stdout: one guard per type of
# width 3, admissible or not.
NO_PRUNE_DIGESTS = {
    1: "c6a3a3e468e66f13ee79caa22e5f2e669b0dc1135ea27b484308ec0290f44de9",
    8: "135eb47ad1875952d4dfb271b17fc8d7ad101264546378de162d5f6fa25abad8",
}


@pytest.mark.parametrize("entry", sorted(NO_PRUNE_DIGESTS))
def test_reduce_no_prune_json_golden(capsys, formula_file, entry):
    gammas, delta, _label = AF4_CORPUS[entry - 1]
    code, out, _ = run(capsys, "reduce", formula_file(nf_text(gammas, delta, 3)),
                       "--json", "--no-prune")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == NO_PRUNE_DIGESTS[entry]


# Exact stderr of a tripped cap in each stage that reads the shared
# keys/cap head or the link/witness tables, recorded at the same point.
CAP_MESSAGES = [
    ("sat", "af4", 7, None,
     "decide_af3: 38 relevant atoms at width 2 exceeds cap 24"),
    ("reduce", "af4", 9, "16",
     "reduce_step: 17 relevant atoms at width 3 exceeds cap 16"),
    ("model", "af3", 1, "4",
     "build_model 3-type search: 7 atom keys exceeds the cap of 4"),
]


@pytest.mark.parametrize("verb,corpus,entry,cap,message", CAP_MESSAGES,
                         ids=[v for v, *_ in CAP_MESSAGES])
def test_cap_message_bytes(capsys, formula_file, monkeypatch, verb, corpus,
                           entry, cap, message):
    if cap is None:
        monkeypatch.delenv("AF_RESOURCE_CAP", raising=False)
    else:
        monkeypatch.setenv("AF_RESOURCE_CAP", cap)
    gammas, delta, _label = {"af3": AF3_CORPUS, "af4": AF4_CORPUS}[corpus][entry - 1]
    ell = 2 if corpus == "af3" else 3
    code, out, err = run(capsys, verb, formula_file(nf_text(gammas, delta, ell)))
    assert (code, out, err) == (3, "", f"resource cap exceeded: {message}\n")


# AF3 entry 11's certificate search tests 72 candidate connector-types of
# its three 1-type groups of 2,048: a cap equal to that count passes, one
# below it trips at the last candidate.
POOL_CAPS = [
    ("72", 0, "SAT\n", ""),
    ("71", 3, "", "resource cap exceeded: decide_af3 pool: 72 candidate "
                  "connector-types exceeds the cap of 71\n"),
]


@pytest.mark.parametrize("cap,code,out,err", POOL_CAPS,
                         ids=[cap for cap, *_ in POOL_CAPS])
def test_pool_cap_counts_candidates(capsys, formula_file, monkeypatch, cap,
                                    code, out, err):
    monkeypatch.delenv("AF_RESOURCE_CAP", raising=False)
    gammas, delta, _label = AF3_CORPUS[10]
    assert run(capsys, "sat", formula_file(nf_text(gammas, delta, 2)),
               "--pool-cap", cap) == (code, out, err)


@pytest.mark.parametrize("corpus,entry,exit_code,digest", SAT_TRACE_DIGESTS,
                         ids=[f"{c}-{e}" for c, e, _, _ in SAT_TRACE_DIGESTS])
def test_sat_json_trace_golden(capsys, formula_file, corpus, entry, exit_code,
                               digest):
    gammas, delta, _label = {"af3": AF3_CORPUS, "af4": AF4_CORPUS}[corpus][entry - 1]
    ell = 2 if corpus == "af3" else 3
    code, out, _ = run(capsys, "sat", formula_file(nf_text(gammas, delta, ell)),
                       "--json", "--trace")
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `af atm verify` stdout with every "millis" value blanked, as the
# benchmark's digests blank them, recorded before each distinct conjunct of
# the encoding was checked once: names, order, verdicts, "pass" and
# "tree_size" stay byte for byte.
ATM_VERIFY_DIGESTS = [
    ("hop", "1", "3d6429a7ae0abebc3a4f94ec70cc2b85512e560fbe4f7e037545e819fc043d8d"),
    ("hop", "11", "e4fde6cd974074bce05f6b6af3a398b929b53f7052d082a32ea7a74bd7dae377"),
    ("hop", "111", "979a2be3f2009660dd28e03b3348b2f3f5c0b907bb6f76ba2129592d6a0d1051"),
    ("fork", "1", "dc536f94d3a3f605ac66d2be3a454d5dbdf20cbd2733b438d11b47e1c052d1f5"),
    ("fork", "11", "55753162534dcd2cfd669b5fc097cfe5b77bd49b25da7fb0731df7332355f68f"),
    ("fork", "111", "8309fb072b5aabe32e9871f9367c75ce004b98d515a1a45bdde0a746c98d844d"),
    ("dodge", "1", "1283592065daf836f424abc4f8facb8dcb4ec8ea0a1269c0e74ae04635ff0b71"),
    ("dodge", "11", "ad784131678c7a0a51ec3f212cdc446664f00632f50d7ffcf2972977d0b68bd9"),
    ("dodge", "111", "f853237237f530ad427b0f4d2fdeda8a2ef6558993e21b4e0b1041e0cea7cd3f"),
    # Recorded before the guarded loops filtered their matches on the
    # leading literals of the body: the inputs on which the filter does the
    # most work.
    ("hop", "1111", "dfc9eae00840233ed799b3d5e5b0d6018117a2c6f85718baafbbe44bc5fa2bba"),
    ("hop", "11111", "c22c0511f6679290a0edb516280c08c6717dd6c5775b4aaaf88862fa1abb866d"),
    ("hop", "111111", "98e62424a2b31e3313214a05ac79295d3874ab41c13b154e73b5eefb8585b2b0"),
    ("fork", "1111", "8013774c78622a11f23d6e4fe590b5d1d10d13d6c6a7beb7c34eb41259ff1ef1"),
    ("fork", "11111", "cddb33f19f1045054c92e3bbd7a79e410776e12a6624b37d0eb68e6b34a440e4"),
    ("fork", "111111", "b39cd2b8f56ada600134b383baf346dd28ddfb472d8d67f6569420405747f454"),
    ("dodge", "1111", "bf0720b1cae02ad33ad1c746fbfe2ae3ee6f8901ece9a061e6e456f9112ca1ca"),
    ("dodge", "11111", "fffdf9bed32c18712468517af1f182ed310cfbac88ee761e60ca562ea8e2cd8d"),
    ("dodge", "111111", "958dd9f8af3dacb27edc4bd9862cf2f395f4f57b727647d3f032b090d6323a93"),
]


@pytest.mark.parametrize("machine,word,digest", ATM_VERIFY_DIGESTS,
                         ids=[f"{m}-{w}" for m, w, _ in ATM_VERIFY_DIGESTS])
def test_atm_verify_golden(capsys, machine, word, digest):
    code, out, _ = run(capsys, "atm", "verify", str(DATA / f"{machine}.atm"),
                       word)
    assert code == 0
    out = re.sub(r'"millis": [-0-9.eE+]+', '"millis": null', out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
