"""Spans around the calls into each afkit layer, recorded from outside the
package: `Tracer.install` replaces the pipeline functions below, in every
afkit module that holds a reference to them, with wrappers that record a
span (name, start, end, parent) and a few size counters; `uninstall` puts
the originals back.

A span's self time is its duration minus the time its child spans cover.
Functions not listed are counted in the self time of their caller.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# module -> functions wrapped, in report order.
LAYERS = {
    "cli": ("run",),
    "syntax": ("parse",),
    "sat": ("decide", "normalize", "adjacent_closure", "reduce_step",
            "decide_af3", "build_model", "verify_normal_form",
            "rename_model"),
    "aftypes": ("consistent", "project_circ"),
    "semantics": ("evaluate", "structure_from_json", "structure_to_json",
                  "complete_signature"),
    "hardness": ("verify_encoding", "parse_atm", "simulate_atm",
                 "encode_atm", "embed_and_expand", "check_conjuncts"),
}
LABELS = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)
CALL_COUNTS = ("aftypes.consistent", "aftypes.project_circ",
               "semantics.evaluate")

# Counters summed over a pass, in report order.
COUNTERS = ("aftypes.consistent.true", "sat.reduce_step.keys",
            "sat.reduce_step.types", "sat.reduce_step.guards",
            "sat.reduce_step.keys_out", "sat.decide_af3.types",
            "sat.decide_af3.admissible", "sat.decide_af3.pool",
            "sat.decide_af3.closure_kept", "sat.decide_af3.cert_size",
            "sat.build_model.elems", "sat.build_model.facts",
            "hardness.tree_size", "hardness.structure_facts")


def _facts(structure) -> int:
    return sum(len(ext) for ext in structure.extensions.values())


def _count_consistent(args, kwargs, result):
    return {"aftypes.consistent.true": int(bool(result))}


def _count_reduce_step(args, kwargs, result):
    from afkit.aftypes import relevant_atoms
    nf = args[0] if args else kwargs["nf"]
    keys = len(relevant_atoms(nf.sentence(), nf.ell))
    return {"sat.reduce_step.keys": keys,
            "sat.reduce_step.types": 1 << keys,
            "sat.reduce_step.guards": len(result.fresh) - len(nf.fresh),
            "sat.reduce_step.keys_out":
                len(relevant_atoms(result.sentence(), result.ell))}


_DECIDE_ROWS = {("types", "count"): "sat.decide_af3.types",
                ("types", "admissible"): "sat.decide_af3.admissible",
                ("pool", "compatible"): "sat.decide_af3.pool",
                ("closure", "remaining"): "sat.decide_af3.closure_kept",
                ("certificate", "size"): "sat.decide_af3.cert_size"}


def _count_decide_af3(args, kwargs, result):
    """From the trace rows decide_af3 already returns."""
    out = {}
    for row in result.trace:
        for (stage, field), name in _DECIDE_ROWS.items():
            if row.get("stage") == stage and field in row:
                out[name] = row[field]
    return out


def _count_build_model(args, kwargs, result):
    return {"sat.build_model.elems": len(result.domain),
            "sat.build_model.facts": _facts(result)}


def _count_simulate(args, kwargs, result):
    _, tree = result
    return {"hardness.tree_size": tree.size() if tree is not None else 0}


def _count_embed(args, kwargs, result):
    return {"hardness.structure_facts": _facts(result)}


HOOKS = {"aftypes.consistent": _count_consistent,
         "sat.reduce_step": _count_reduce_step,
         "sat.decide_af3": _count_decide_af3,
         "sat.build_model": _count_build_model,
         "hardness.simulate_atm": _count_simulate,
         "hardness.embed_and_expand": _count_embed}


class Tracer:
    """Spans and counters of the items run between begin_item/end_item."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self._items: list = []   # (first span, end span, counters)
        self._counters: dict = {}
        self._patched: list = []
        self.active = False

    # -- installation ---------------------------------------------------

    def _wrap(self, label_id: int, hook, fn):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(start)
            name.append(label_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                for key, val in hook(args, kwargs, result).items():
                    self._counters[key] = self._counters.get(key, 0) + val
            return result
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "afkit" or key.startswith("afkit.")]
        for label_id, label in enumerate(LABELS):
            mod_name, fn_name = label.split(".")
            fn = getattr(sys.modules[f"afkit.{mod_name}"], fn_name)
            wrapper = self._wrap(label_id, HOOKS.get(label), fn)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    # -- items ----------------------------------------------------------

    def begin_item(self) -> None:
        self._counters = {}
        self._first = len(self.start)
        self.active = True

    def end_item(self) -> None:
        self.active = False
        self._items.append((self._first, len(self.start), self._counters))

    # -- results --------------------------------------------------------

    def _self_times(self) -> list:
        """Self seconds per label."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        per_label = [0.0] * len(LABELS)
        for i in range(n):
            per_label[self.name[i]] += self.end[i] - self.start[i] - child[i]
        return per_label

    def _calls(self, lo: int, hi: int) -> list:
        calls = [0] * len(LABELS)
        for i in range(lo, hi):
            calls[self.name[i]] += 1
        return calls

    def item_counters(self) -> list:
        """Per item: call counts of the counted layers and the size
        counters, for the item report lines."""
        out = []
        for lo, hi, counters in self._items:
            calls = self._calls(lo, hi)
            row = {f"{label}.calls": calls[LABELS.index(label)]
                   for label in CALL_COUNTS if calls[LABELS.index(label)]}
            row.update(counters)
            out.append(row)
        return out

    def self_seconds(self) -> dict:
        return dict(zip(LABELS, self._self_times()))

    def metrics(self, total_s: float) -> dict:
        """Per-layer metrics of the traced pass.  `<label>.share` is the
        label's self time over `trace.total_s`, the summed wall time of the
        traced items; the shares and `trace.unattributed.share` add to 1."""
        n = len(self.start)
        self_s = self._self_times()
        calls = self._calls(0, n)
        totals = {key: 0 for key in COUNTERS}
        for _, _, counters in self._items:
            for key, val in counters.items():
                totals[key] += val
        m = {}

        def put(name, value, unit):
            m[name] = {"value": value, "unit": unit}

        for label, secs in zip(LABELS, self_s):
            put(f"{label}.share", secs / total_s, "ratio")
        for label in CALL_COUNTS:
            put(f"{label}.calls", calls[LABELS.index(label)], "count")
        consistent_calls = calls[LABELS.index("aftypes.consistent")]
        true_calls = totals.pop("aftypes.consistent.true")
        put("aftypes.consistent.true_ratio",
            true_calls / consistent_calls if consistent_calls else 0.0, "ratio")
        types = totals.pop("sat.reduce_step.types")
        put("sat.reduce_step.kept_ratio",
            totals["sat.reduce_step.guards"] / types if types else 0.0, "ratio")
        for key, val in totals.items():
            put(key, val, "count")
        put("trace.unattributed.share", (total_s - sum(self_s)) / total_s,
            "ratio")
        put("trace.total_s", total_s, "s")
        put("trace.spans", n, "count")
        return m
