"""afkit benchmark: time to a checked verdict for four `af` workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every item is one `af` verb run in-process through `afkit.cli.run(argv)`
with stdout captured: what a user of `af model`, `af sat`, `af check` or
`af atm verify` runs, minus interpreter start-up.  One client, one thread,
closed loop: the next item starts when the previous one has ended.

With `--trace 0` the run repeats whole passes over the workload's items for
`--seconds` (always at least one pass) and reports the end-to-end metrics.
With `--trace 1` it runs one pass in which each item runs once unrecorded,
once untraced and once with the public functions of the layers wrapped in
spans (see `spans.py`), and reports per-layer metrics and the tracing
overhead.

Each output is checked outside the timed region.  Lines before the last
one describe each item; the last line is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work" / str(os.getpid())

# Far above the slowest item that completes today (about 8.5 s, AF3 corpus
# entry 12) and far below what any run may take, so that no item flips
# between a timeout and a verdict from run to run.
ITEM_BUDGET_S = 30.0
SETUP_SAMPLES = 5

VALIDITY = ("forall x1 forall x2 forall x3 exists x4 forall x5 "
            "(p(x1,x2,x3,x2,x3,x4,x5) -> p(x1,x2,x3,x4,x3,x4,x5))")
# eval-validity times the first 100 structures of acceptance test 3: 34 of
# them have four elements, and the pass takes about 16 s.
VALIDITY_GENERATOR_SEED = 2026
VALIDITY_STRUCTURES = 100
MACHINES = ("hop", "fork", "dodge")
ATM_MAX_INPUT = 6
# AF4 corpus entries (numbered from 1) that `af sat` decides within the
# budget.  Entry 7 stops at the atom cap (exit 3) after its reduction step,
# so it runs as `af reduce`, which shows the 38-key output of that step.
# Entries 9 and 10 take about 70 s each, more than a run may last.
AF4_SAT_ENTRIES = (1, 2, 3, 4, 5, 6, 8)
AF4_REDUCE_ENTRIES = (7,)

END_TO_END = {"setup_s": "s", "total_s": "s", "decided_frac": "ratio",
              "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


class ItemTimeout(BaseException):
    """Raised by the alarm when an item exceeds its budget.  A BaseException,
    so no handler inside the package can swallow it."""


def load_afkit():
    """Import the package of this checkout, its test corpora, and numpy,
    which `verify_normal_form` would otherwise import inside an item."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "afkit" / "cli.py").is_file() or \
            not (tests / "corpus.py").is_file():
        raise BenchError(f"no afkit sources under {ROOT}")
    sys.path[:0] = [str(src), str(tests)]
    import numpy  # noqa: F401
    import corpus  # noqa: F401
    import afkit.cli
    return afkit.cli


def digest(out: str) -> str:
    """sha256 of an item's stdout without the timings `af atm verify`
    prints, so equal digests mean byte-identical verdicts and models."""
    out = re.sub(r'"millis": [-0-9.eE+]+', '"millis": null', out)
    return hashlib.sha256(out.encode()).hexdigest()


class Item(NamedTuple):
    """One `af` invocation; `check(code, stdout, stderr)` returns whether
    the output is right and the sizes read from it."""

    name: str
    argv: list
    check: Callable
    sizes: dict


# ---------------------------------------------------------------------------
# Workloads.  Each writes its inputs under `work` and returns its items in
# an order drawn from the seed; every pass runs the same items.

def shuffled(items: list, seed: int) -> list:
    random.Random(seed).shuffle(items)
    return items


def af3_model(seed: int, work: Path):
    """The 30 AF3 corpus sentences through `af model`."""
    import afkit.sat as SAT
    import afkit.semantics as M
    import afkit.syntax as S
    from corpus import AF3_CORPUS, nf_text

    def check(text, label):
        def check_model(code, out, err):
            verdict, _, model_json = out.partition("\n")
            if verdict != ("SAT" if label else "UNSAT") or code != (0 if label else 1):
                return False, {}
            if not label:
                return True, {}
            model = M.structure_from_json(model_json)
            ok = SAT.verify_normal_form(SAT.normalize(S.parse(text)), model)
            return ok, {"model_elems": len(model.domain),
                        "model_facts": sum(len(e) for e in model.extensions.values())}
        return check_model

    items = []
    for i, (gammas, delta, label) in enumerate(AF3_CORPUS, 1):
        text = nf_text(gammas, delta, 2)
        path = work / f"af3-{i:02d}.af"
        path.write_text(text + "\n")
        items.append(Item(f"af3-{i:02d}", ["model", str(path)],
                          check(text, label), {"formula_chars": len(text)}))
    return shuffled(items, seed)


def af4_sat(seed: int, work: Path):
    """AF4 corpus sentences through `af sat`, and entry 7 through
    `af reduce --json`."""
    import afkit.syntax as S
    from corpus import AF4_CORPUS, nf_text

    def check_sat(label):
        def check_verdict(code, out, err):
            ok = out == ("SAT\n" if label else "UNSAT\n") and code == (0 if label else 1)
            return ok, {}
        return check_verdict

    def check_reduce(code, out, err):
        if code != 0:
            return False, {}
        nf = json.loads(out)
        for text in nf["existential_conjuncts"] + [nf["universal_matrix"]]:
            S.parse(text)
        ok = nf["variables"] == 3 and len(nf["fresh"]) > 0
        return ok, {"guards": len(nf["fresh"])}

    items = []
    for i in AF4_SAT_ENTRIES + AF4_REDUCE_ENTRIES:
        gammas, delta, label = AF4_CORPUS[i - 1]
        text = nf_text(gammas, delta, 3)
        path = work / f"af4-{i:02d}.af"
        path.write_text(text + "\n")
        if i in AF4_SAT_ENTRIES:
            items.append(Item(f"af4-{i:02d}-sat", ["sat", str(path)],
                              check_sat(label), {"formula_chars": len(text)}))
        else:
            items.append(Item(f"af4-{i:02d}-reduce",
                              ["reduce", "--json", str(path)],
                              check_reduce, {"formula_chars": len(text)}))
    return shuffled(items, seed)


def eval_validity(seed: int, work: Path):
    """The seven-ary five-variable validity sentence through `af check`, on
    the first VALIDITY_STRUCTURES random structures of acceptance test 3
    (domain size 1-4, each 7-tuple present with probability 1/2)."""
    formula = work / "validity.af"
    formula.write_text(VALIDITY + "\n")

    def check(code, out, err):
        return code == 0 and out == "true\n", {}

    # Test 3's own generator and seed, not the run's: the size-4 structures
    # take nearly all the time, and their count in a draw of n varies by
    # about sqrt(3/n) of itself, so structures drawn from the run's seed
    # would make seeds time different amounts of work.
    rng = random.Random(VALIDITY_GENERATOR_SEED)
    items = []
    for j in range(VALIDITY_STRUCTURES):
        size = rng.randint(1, 4)
        domain = tuple(f"e{i}" for i in range(size))
        ext = [t for t in itertools.product(domain, repeat=7)
               if rng.random() < 0.5]
        # The format `structure_from_json` reads, without the indentation
        # of `structure_to_json`, whose pure-Python encoder would take most
        # of the set-up.
        path = work / f"validity-{j:03d}.json"
        path.write_text(json.dumps({"domain": list(domain),
                                    "predicates": {"p/7": ext}}) + "\n")
        items.append(Item(f"validity-{j:03d}", ["check", str(formula), str(path)],
                          check, {"domain": size, "tuples": len(ext)}))
    return shuffled(items, seed)


def atm_verify(seed: int, work: Path):
    """`af atm verify` for the shipped machines on inputs 1 ... 1^6."""
    data = ROOT / "tests" / "data"

    def check(w):
        def check_report(code, out, err):
            report = json.loads(out)
            ok = (code == 0 and report["pass"] is True
                  and report["input_word"] == w
                  and all(r["verdict"] == "pass" for r in report["conjuncts"]))
            return ok, {"tree_size": report["tree_size"],
                        "conjuncts": len(report["conjuncts"])}
        return check_report

    items = []
    for name in MACHINES:
        machine = data / f"{name}.atm"
        if not machine.is_file():
            raise BenchError(f"missing machine file {machine}")
        for n in range(1, ATM_MAX_INPUT + 1):
            w = "1" * n
            items.append(Item(f"atm-{name}-{n}",
                              ["atm", "verify", str(machine), w],
                              check(w), {"input_len": n}))
    return shuffled(items, seed)


WORKLOADS = {
    "af3-model": af3_model,
    "af4-sat": af4_sat,
    "eval-validity": eval_validity,
    "atm-verify": atm_verify,
}


def setup(workload: str, seed: int, work: Path):
    """Everything before the first timed item: imports, input generation
    and input files."""
    cli = load_afkit()
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    return cli, WORKLOADS[workload](seed, work)


def measure_setup(workload: str, seed: int) -> list:
    """Wall time of SETUP_SAMPLES fresh processes that each set up the
    workload and exit: process start to the point the first item would
    start."""
    samples = []
    for i in range(SETUP_SAMPLES):
        work = WORK / f"setup-{i}"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(seed), "--setup-only", str(work)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed: {proc.stderr.strip()}")
    return samples


# ---------------------------------------------------------------------------
# Running items

def _alarm(signum, frame):
    raise ItemTimeout()


def invoke(cli, argv: list, tracer=None) -> tuple:
    """One `af` run under the budget: (seconds, exit code or None after a
    timeout, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    signal.setitimer(signal.ITIMER_REAL, ITEM_BUDGET_S)
    if tracer is not None:
        tracer.begin_item()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except ItemTimeout:
        pass
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.end_item()
    return elapsed, code, out.getvalue(), err.getvalue()


def run_item(cli, item: Item, tracer=None) -> dict:
    """Run one item and check its output after the timed region."""
    # Start every item from the same heap state, whatever ran before it.
    gc.collect()
    elapsed, code, stdout, stderr = invoke(cli, item.argv, tracer)
    row = {"item": item.name, "ms": 1000.0 * elapsed, "exit": code,
           "sizes": dict(item.sizes), "digest": digest(stdout)}
    if code is None:
        row.update(status="timeout", correct=True)
    elif code == 3:
        row.update(status="cap", message=stderr.strip(), correct=True)
    else:
        try:
            ok, sizes = item.check(code, stdout, stderr)
        except (ValueError, KeyError, TypeError) as exc:
            ok, sizes = False, {"check_error": repr(exc)}
        row["sizes"].update(sizes)
        row.update(status="decided" if ok else "wrong", correct=ok)
        if not ok:
            row["stderr"] = stderr.strip()[:500]
    return row


def ungated(passes: list) -> dict:
    """Metrics printed on the summary line only: not every workload has
    them, or their run-to-run spread on a shared machine is wider than any
    bound the benchmark may set (see README.md)."""
    times = sorted(r["ms"] for p in passes for r in p)
    out = {"item_ms.p50": (statistics.median(times), "ms")}
    # A tail percentile only where ten samples lie beyond it.
    if len(times) >= 100:
        out["item_ms.p90"] = (statistics.quantiles(times, n=10)[-1], "ms")
    if any("model_elems" in r["sizes"] for r in passes[0]):
        for key in ("model_elems", "model_facts"):
            out[key] = (sum(r["sizes"].get(key, 0) for r in passes[0]), "count")
    return {name: {"value": v, "unit": u} for name, (v, u) in out.items()}


def consistent_digests(rows: list) -> bool:
    """Every repeat of an item printed the same bytes."""
    seen: dict = {}
    for r in rows:
        if r["status"] != "timeout" and seen.setdefault(r["item"], r["digest"]) != r["digest"]:
            return False
    return True


def print_rows(rows: list, pass_index: int, traced: bool) -> None:
    for r in rows:
        print("item " + json.dumps(dict(r, traced=traced, **{"pass": pass_index}),
                                    sort_keys=True))


def result(rows: list, metrics: dict) -> str:
    """The last line: every output right and every repeat of an item the
    same bytes; failed = items without a checked verdict."""
    decided = sum(r["status"] == "decided" for r in rows)
    return json.dumps({
        "correct": all(r["correct"] for r in rows) and consistent_digests(rows),
        "attempted": len(rows), "failed": len(rows) - decided,
        "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", default=None,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        setup(args.workload, args.seed, Path(args.setup_only))
        return 0

    try:
        try:
            cli, items = setup(args.workload, args.seed, WORK / "inputs")
        except (BenchError, ImportError) as exc:
            print(f"bench: cannot set up: {exc}", file=sys.stderr)
            return 2
        signal.signal(signal.SIGALRM, _alarm)
        if args.trace:
            return traced_run(cli, items)
        return timed_run(cli, items, args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()


def timed_run(cli, items: list, args) -> int:
    try:
        setup_samples = measure_setup(args.workload, args.seed)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"bench: cannot set up: {exc}", file=sys.stderr)
        return 2
    passes = []
    start = time.perf_counter()
    for k in itertools.count():
        t0 = time.perf_counter()
        rows = [run_item(cli, item) for item in items]
        print_rows(rows, k, traced=False)
        passes.append(rows)
        # Start another pass only if one more like this one still fits.
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break
    rows = [r for p in passes for r in p]
    values = {
        "setup_s": statistics.median(setup_samples),
        # Wall time of one pass: its item times summed, averaged over passes.
        "total_s": statistics.fmean(sum(r["ms"] for r in p) / 1000.0
                                    for p in passes),
        "decided_frac": sum(r["status"] == "decided" for r in rows) / len(rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print("summary " + json.dumps({
        "passes": len(passes), "samples": len(rows),
        "setup_samples_s": setup_samples, "metrics": ungated(passes)},
        sort_keys=True))
    print(result(rows, {name: {"value": values[name], "unit": unit}
                        for name, unit in END_TO_END.items()}))
    return 0


def traced_run(cli, items: list) -> int:
    # Each item runs untraced and then traced, back to back, so that the
    # difference of the two passes is the spans' cost and not the drift of
    # the machine's speed between two passes.  An unrecorded run comes
    # first, so that neither measured run is the item's first in the
    # process and pays what a first run pays once, such as the package's
    # lazy set-up.  The wrappers are in place only for the traced run.
    tracer = spans.Tracer()
    plain, traced = [], []
    for item in items:
        run_item(cli, item)
        plain.append(run_item(cli, item))
        tracer.install()
        traced.append(run_item(cli, item, tracer))
        tracer.uninstall()
    print_rows(plain, 0, traced=False)
    for r, counters in zip(traced, tracer.item_counters()):
        r["sizes"].update(counters)
    print_rows(traced, 0, traced=True)
    plain_total = sum(r["ms"] for r in plain) / 1000.0
    traced_total = sum(r["ms"] for r in traced) / 1000.0
    metrics = tracer.metrics(traced_total)
    metrics["trace.overhead_s"] = {"value": traced_total - plain_total, "unit": "s"}
    print("layers " + json.dumps(tracer.self_seconds(), sort_keys=True))
    print(result(plain + traced, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
