"""Run the benchmark over several seeds and summarise it.

Usage, from the root of a checkout:

    python3 bench/collect.py [--runs N] [--traced-runs M] [--record FILE]

For each workload of BENCHMARK.json it makes N untraced runs with seeds
1 ... N and M traced runs with seeds 1 ... M, one after another, and
prints every metric by name and unit with its median, quartiles and
spread (the distance between the quartiles as a share of the median)
beside the bound that BENCHMARK.json fixes.  It exits with code 1 if any
run fails its output checks or any item's output digest differs between
two runs of the same seed.  `--record` writes the summary, every run's
values and the per-item digests as JSON; an item whose digest is the same
for every seed is recorded once, by name, and any other with the list of
its digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(cmd: list, workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    items = [json.loads(line[5:]) for line in lines if line.startswith("item ")]
    summary = [json.loads(line[8:]) for line in lines
               if line.startswith("summary ")]
    return {"seed": seed, "trace": trace, "wall_s": wall,
            "result": json.loads(lines[-1]),
            "ungated": summary[0]["metrics"] if summary else {},
            "digests": {r["item"]: r["digest"] for r in items
                        if r["status"] != "timeout"}}


def spread(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def summarise(metrics: list, bounds: dict) -> dict:
    """Median, quartiles and spread of each metric present in every run;
    `metrics` holds one {name: {"value", "unit"}} per run."""
    out = {}
    for name, first in metrics[0].items():
        if not all(name in m for m in metrics):
            continue
        values = [m[name]["value"] for m in metrics]
        med, q1, q3, sp = spread(values) if len(values) > 1 else \
            (values[0], values[0], values[0], 0.0)
        out[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": sp, "bound": bounds.get(name), "values": values}
    return out


def show(summary: dict) -> None:
    for name, s in summary.items():
        bound = "" if s["bound"] is None else f"  bound {s['bound']:.2f}"
        print(f"  {name:<16} {s['median']:12.5g} {s['unit']:<6} "
              f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.3f}"
              f"{bound}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced-runs", type=int, default=1)
    ap.add_argument("--record", default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"python": platform.python_version(),
              "machine": platform.machine(), "cpus": os.cpu_count(),
              "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(spec["command"], workload, seed, spec["run_seconds"], 0)
                for seed in range(1, args.runs + 1)]
        traced = [run_once(spec["command"], workload, seed,
                           spec["run_seconds"], 1)
                  for seed in range(1, args.traced_runs + 1)]
        by_seed: dict = {}
        for r in runs + traced:
            for item, d in r["digests"].items():
                if by_seed.setdefault((item, r["seed"]), d) != d:
                    print(f"{workload}: seed {r['seed']} item {item} "
                          "printed different bytes in two runs")
                    ok = False
        digests: dict = {}
        for (item, seed), d in sorted(by_seed.items()):
            digests.setdefault(item, set()).add(d)
        digests = {item: ds.pop() if len(ds) == 1 else sorted(ds)
                   for item, ds in digests.items()}
        ok &= all(r["result"]["correct"] for r in runs + traced)
        summary = summarise([r["result"]["metrics"] for r in runs], bounds)
        extra = summarise([r["ungated"] for r in runs], {})
        print(f"== {workload}: {len(runs)} runs, "
              f"wall {statistics.median(r['wall_s'] for r in runs):.1f} s "
              f"per run (median), attempted "
              f"{sum(r['result']['attempted'] for r in runs)}, failed "
              f"{sum(r['result']['failed'] for r in runs)}")
        show(summary)
        print("  not gated:")
        show(extra)
        entry = {"end_to_end": summary, "not_gated": extra, "digests": digests,
                 "runs": [{k: r[k] for k in ("seed", "wall_s")}
                          | {"result": r["result"]} for r in runs]}
        if traced:
            entry["per_layer"] = summarise(
                [r["result"]["metrics"] for r in traced], {})
            entry["traced_runs"] = [{k: r[k] for k in ("seed", "wall_s")}
                                    | {"result": r["result"]} for r in traced]
            shown = {k: v["median"] for k, v in entry["per_layer"].items()
                     if v["median"]}
            print("  traced: " + json.dumps(shown))
        record["workloads"][workload] = entry
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    print("outputs checked: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
