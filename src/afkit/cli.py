"""Command-line surface: one verb per library entry point.

Exit codes: 0 success, 1 negative verdict (UNSAT, no witness, reject,
failed check), 2 usage or input error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys
from typing import Optional

from . import aftypes as T
from . import hardness as H
from . import sat as SAT
from . import semantics as M
from . import syntax as S
from . import words as W
from .syntax import FormulaError, ParseError, ResourceError


def _atom_cap() -> int:
    env = os.environ.get("AF_RESOURCE_CAP")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise FormulaError(f"AF_RESOURCE_CAP must be an integer, got {env!r}")
        if cap < 0:
            raise FormulaError(
                f"AF_RESOURCE_CAP must not be negative, got {env!r}")
        return cap
    return T.DEFAULT_ATOM_CAP


def _limit(text: str) -> int:
    """The value of a size limit option: an integer, zero or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _read_formula(path: str) -> S.Formula:
    with open(path, encoding="utf-8") as fh:
        return S.parse(fh.read())


def _read_structure(path: str) -> M.Structure:
    with open(path, encoding="utf-8") as fh:
        return M.structure_from_json(fh.read())


def _emit_model(payload: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _print_nf(nf: SAT.NormalFormFormula, as_json: bool) -> None:
    if as_json:
        print(json.dumps({
            "variables": nf.variables,
            "existential_conjuncts": [S.render(g) for g in nf.gammas],
            "universal_matrix": S.render(nf.delta),
            "fresh": dict(nf.fresh),
        }, indent=2))
    else:
        print(S.render(nf.sentence()))


def cmd_primgen(args) -> int:
    print(W.format_word(W.primitive_generator(W.word(args.word))))
    return 0


def cmd_generate(args) -> int:
    walk = W.generates(W.word(args.generator), W.word(args.word))
    if walk is None:
        print("none")
        return 1
    print(",".join(str(p) for p in walk))
    return 0


def cmd_classify(args) -> int:
    report = S.classify(_read_formula(args.file))
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        for key, value in report.as_dict().items():
            print(f"{key}: {value}")
    return 0 if report.adjacent else 1


def cmd_normalize(args) -> int:
    _print_nf(SAT.normalize(_read_formula(args.file)), args.json)
    return 0


def cmd_closure(args) -> int:
    nf = SAT.normalize(_read_formula(args.file))
    _print_nf(SAT.adjacent_closure(nf), args.json)
    return 0


def cmd_reduce(args) -> int:
    nf = SAT.normalize(_read_formula(args.file))
    red = SAT.reduce_step(nf, atom_cap=_atom_cap(), prune=not args.no_prune)
    _print_nf(red, args.json)
    return 0


def _run_sat(args, want_model: bool) -> int:
    result = SAT.decide(_read_formula(args.file), atom_cap=_atom_cap(),
                        pool_cap=args.pool_cap, want_model=want_model,
                        max_variables=args.max_vars)
    if args.json:
        print(json.dumps({"verdict": result.verdict,
                          "trace": result.trace if args.trace else None,
                          "certificate": ([om.serialize() for om in
                                           result.certificate]
                                          if result.certificate else None)},
                         indent=2))
    else:
        print(result.verdict)
        if args.trace:
            for row in result.trace:
                print(f"  {row}")
    if result.id_model is not None:
        _emit_model(result.id_model.to_json(), args.emit_model)
    return 0 if result.satisfiable else 1


def cmd_sat(args) -> int:
    return _run_sat(args, want_model=bool(args.emit_model))


def cmd_model(args) -> int:
    return _run_sat(args, want_model=True)


def cmd_check(args) -> int:
    formula = _read_formula(args.formula)
    structure = M.complete_signature(_read_structure(args.structure),
                                     S.signature(formula))
    ok = M.evaluate(structure, formula)
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_fo2af(args) -> int:
    print(S.render(S.fo2_to_af(_read_formula(args.file))))
    return 0


def cmd_af2fo2(args) -> int:
    print(S.render(S.af_to_fo2(_read_formula(args.file))))
    return 0


def cmd_oracle(args) -> int:
    model = SAT.brute_force_sat(_read_formula(args.file), args.max_domain)
    if model is None:
        print(f"no model found up to domain size {args.max_domain}")
        return 1
    _emit_model(M.structure_to_json(SAT.rename_model(model)), args.emit_model)
    return 0


def _read_machine(path: str) -> H.ATM:
    with open(path, encoding="utf-8") as fh:
        return H.parse_atm(fh.read(), name=os.path.basename(path))


def cmd_atm_encode(args) -> int:
    enc = H.encode_atm(_read_machine(args.machine), args.input,
                       literal_succ=args.literal_succ)
    if args.json:
        print(json.dumps({
            "n": enc.n,
            "signature": dict(sorted(enc.signature.items())),
            "conjuncts": {name: S.render(f) for name, f in enc.conjuncts},
        }, indent=2))
    else:
        for name, f in enc.conjuncts:
            print(f"# {name}")
            print(S.render(f))
    return 0


def cmd_atm_simulate(args) -> int:
    status, tree = H.simulate_atm(_read_machine(args.machine), args.input,
                                  max_depth=args.max_depth)
    if args.json:
        print(json.dumps({"status": status,
                          "tree_size": tree.size() if tree else None}))
    else:
        print(status if tree is None else f"{status} ({tree.size()} vertices)")
    return 0 if status == "accept" else 1


def cmd_atm_verify(args) -> int:
    report = H.verify_encoding(_read_machine(args.machine), args.input,
                               max_depth=args.max_depth)
    print(json.dumps(report, indent=2))
    return 0 if report["pass"] else 1


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The `af` parser, built once per process and reused by `run`."""
    parser = argparse.ArgumentParser(
        prog="af", description="Adjacent-fragment workbench")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("primgen", cmd_primgen, help="primitive generator of a word")
    p.add_argument("word")

    p = add("generate", cmd_generate, help="witness walk spelling a word")
    p.add_argument("generator")
    p.add_argument("word")

    for name, fn, hlp in [
            ("classify", cmd_classify, "fragment membership report"),
            ("normalize", cmd_normalize, "bring a sentence to normal form"),
            ("closure", cmd_closure, "adjacent closure of the normal form"),
            ("reduce", cmd_reduce, "one variable-count reduction step"),
            ("sat", cmd_sat, "decide satisfiability"),
            ("model", cmd_model, "decide and emit a verified model"),
            ("fo2af", cmd_fo2af, "two-variable sentence into the fragment"),
            ("af2fo2", cmd_af2fo2, "binary fragment sentence into two names"),
            ("oracle", cmd_oracle, "brute-force model search")]:
        p = add(name, fn, help=hlp)
        p.add_argument("file")
        if name not in ("fo2af", "af2fo2", "oracle"):
            p.add_argument("--json", action="store_true")
        if name in ("sat", "model"):
            p.add_argument("--pool-cap", type=_limit,
                           default=SAT.DEFAULT_POOL_CAP)
            p.add_argument("--emit-model", metavar="FILE", default=None)
            p.add_argument("--trace", action="store_true")
            p.add_argument("--max-vars", type=_limit, default=6,
                           help="refuse inputs needing more variables")
        if name == "reduce":
            p.add_argument("--no-prune", action="store_true",
                           help="keep guard conjuncts for unrealizable types")
        if name == "oracle":
            p.add_argument("--max-domain", type=_limit, default=3)
            p.add_argument("--emit-model", metavar="FILE", default=None)

    p = add("check", cmd_check, help="model-check formula against structure")
    p.add_argument("formula")
    p.add_argument("structure")

    p = add("atm", None, help="machine encoding tools")
    atm_sub = p.add_subparsers(dest="atm_verb", required=True)
    for name, fn in [("encode", cmd_atm_encode),
                     ("simulate", cmd_atm_simulate),
                     ("verify", cmd_atm_verify)]:
        q = atm_sub.add_parser(name)
        q.set_defaults(fn=fn)
        q.add_argument("machine")
        q.add_argument("input")
        if name != "verify":  # verify always prints JSON
            q.add_argument("--json", action="store_true")
        if name in ("simulate", "verify"):
            q.add_argument("--max-depth", type=_limit, default=64)
        if name == "encode":
            q.add_argument("--literal-succ", action="store_true",
                           help="keep the modular successor variant")
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ResourceError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (FormulaError, ParseError, W.WordError, M.SemanticsError,
            H.MachineError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # Like any filter, end silently when the reader closes stdout, rather
    # than report the broken pipe as an input error.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
