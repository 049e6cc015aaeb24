"""Satisfiability pipeline for adjacent sentences: normal form, adjacent
closure, variable-count reduction, the certificate decider for the
three-variable case with model construction, and a brute-force oracle.
"""

from __future__ import annotations

import copy
import functools
import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import aftypes as T
from . import semantics as M
from . import syntax as S
from . import words as W
from .aftypes import AdjType, ConnectorType
from .syntax import Formula, FormulaError, ResourceError


# Cells per chunk when a decider stage walks the rows of its truth tables,
# ``tables_satisfy`` walks x1, or the joining fill of ``build_model`` its
# first element: beyond the predicate tables, no array of these grows with
# the number of rows or the cube of the domain.
CELL_BUDGET = 1 << 20


@dataclass(frozen=True)
class NormalFormFormula:
    """A sentence of the shape: for each i, all x1..xl have an x_{l+1}
    satisfying gamma_i; and delta holds for all x1..x_{l+1}."""

    ell: int
    gammas: tuple
    delta: Formula
    fresh: tuple = ()  # ((name, rendered replaced subformula), ...)

    def __post_init__(self):
        for g in self.gammas:
            if not S.is_quantifier_free(g):
                raise FormulaError("gamma conjuncts must be quantifier-free")
        if not S.is_quantifier_free(self.delta):
            raise FormulaError("delta must be quantifier-free")

    @property
    def variables(self) -> int:
        return self.ell + 1

    def sentence(self) -> Formula:
        conjuncts = []
        for g in self.gammas:
            body: Formula = S.Exists(S.var(self.ell + 1), g)
            for k in range(self.ell, 0, -1):
                body = S.Forall(S.var(k), body)
            conjuncts.append(body)
        body = self.delta
        for k in range(self.ell + 1, 0, -1):
            body = S.Forall(S.var(k), body)
        conjuncts.append(body)
        return S.make_and(conjuncts)


# eq=False: the tables are numpy arrays, which compare cell by cell.
@dataclass(frozen=True, eq=False)
class IdModel:
    """A model over the element ids 0 .. n-1, n = len(domain): element i
    is ``domain[i]``, and predicate ``name`` holds exactly at the true
    cells of ``tables[name]``, a boolean array of shape (n,) * arity."""

    domain: tuple
    tables: dict

    @property
    def extensions(self) -> dict:
        """(name, arity) -> the true tuples as an id array of shape
        (count, arity), rows in ascending order."""
        import numpy as np
        return {(name, np.ndim(t)): np.argwhere(t)
                for name, t in self.tables.items()}

    def named(self) -> M.Structure:
        """The model as a ``semantics.Structure`` over its domain; its
        tuples are read off the tables, so they need no check."""
        get = self.domain.__getitem__
        return M.Structure._unchecked(self.domain, {
            (name, arity): (frozenset(zip(*[map(get, col)
                                            for col in rows.T.tolist()]))
                            if arity else frozenset([()] * len(rows)))
            for (name, arity), rows in self.extensions.items()})

    def to_json(self) -> str:
        """``structure_to_json(rename_model(self.named()))``, written
        straight from the tables."""
        return M.ids_to_json([f"e{i}" for i in range(len(self.domain))],
                             self.extensions)


@dataclass
class SatResult:
    satisfiable: bool
    certificate: Optional[tuple] = None  # tuple of ConnectorType
    id_model: Optional[IdModel] = None
    trace: list = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "SAT" if self.satisfiable else "UNSAT"

    @functools.cached_property
    def model(self) -> Optional[M.Structure]:
        """The model as a ``semantics.Structure``, named on first access."""
        return self.id_model.named() if self.id_model is not None else None


# ---------------------------------------------------------------------------
# Normal form

def _split_quantifier_prefix(f: Formula):
    """(number of leading universals, had_existential, matrix) when f is a
    universal prefix, optionally one existential, then a quantifier-free
    matrix with canonically indexed variables; None otherwise."""
    k = 0
    g = f
    while isinstance(g, S.Forall) and S.var_index(g.var) == k + 1:
        k += 1
        g = g.body
    ex = False
    if isinstance(g, S.Exists) and S.var_index(g.var) == k + 1:
        ex = True
        g = g.body
    if not S.is_quantifier_free(g):
        return None
    return k, ex, g


def _as_normal_form(f: Formula) -> Optional[NormalFormFormula]:
    """Recognize shape-(2) sentences, padding conjuncts to a common depth."""
    conjuncts = f.args if isinstance(f, S.And) else (f,)
    gammas = []  # (depth of universal prefix, matrix)
    deltas = []
    for c in conjuncts:
        split = _split_quantifier_prefix(c)
        if split is None:
            return None
        k, ex, matrix = split
        if S.max_index(matrix) > k + (1 if ex else 0):
            return None
        if ex:
            gammas.append((k, matrix))
        else:
            deltas.append((k, matrix))
    return _padded(gammas, deltas)


def _padded(gammas: list, deltas: list, fresh: tuple = ()) -> NormalFormFormula:
    """The normal form of witness conjuncts ``(k, matrix over x1..x_{k+1})``
    and universal conjuncts ``(k, matrix over x1..xk)``, each shifted up to
    the common depth l >= 2: the matrix then ends at x_{l+1}."""
    ell = max([2] + [k for k, _ in gammas] + [k - 1 for k, _ in deltas])
    padded_gammas = tuple(S.shift_up(m, ell - k) if ell > k else m
                          for k, m in gammas)
    padded_delta = S.make_and(
        [S.shift_up(m, ell + 1 - k) if ell + 1 > k else m for k, m in deltas]
        or [S.TRUE])
    return NormalFormFormula(ell, padded_gammas, padded_delta, fresh)


def normalize(f: Formula) -> NormalFormFormula:
    """Bring an adjacent sentence to shape (2) by replacing innermost
    quantified subformulas with fresh predicates plus bridging conjuncts.
    Satisfiable over exactly the same domains as the input."""
    if S.free_vars(f):
        raise FormulaError("normalization requires a sentence")
    f = S.adjacent_form(f)
    if f is None:
        raise FormulaError("normalization requires an adjacent sentence")

    direct = _as_normal_form(f)
    if direct is not None:
        return direct

    fresh: list = []
    counter = itertools.count(1)
    gammas: list = []  # (prefix depth k, matrix over x1..x_{k+1})
    deltas: list = []  # (variable count, matrix)

    def replace_innermost(g: Formula) -> Formula:
        """Replace one innermost quantified subformula; None if none left."""
        if isinstance(g, (S.Forall, S.Exists)):
            if S.is_quantifier_free(g.body):
                k = S.var_index(g.var) - 1
                name = f"_nf{next(counter)}"
                fresh.append((name, S.render(g)))
                head = S.Atom(name, tuple(S.var(i) for i in range(1, k + 1)))
                chi = g.body
                if isinstance(g, S.Exists):
                    gammas.append((k, S.Implies(head, chi)))
                    deltas.append((k + 1, S.Implies(chi, head)))
                else:
                    deltas.append((k + 1, S.Implies(head, chi)))
                    gammas.append((k, S.Implies(chi, head)))
                return head
            return S.rebuild(g, [replace_innermost(g.body)])
        return S.rebuild(g, [replace_innermost(c) for c in S.children(g)])

    while not S.is_quantifier_free(f):
        f = replace_innermost(f)
    deltas.append((0, f))  # the residual propositional sentence

    return _padded(gammas, deltas, tuple(fresh))


# ---------------------------------------------------------------------------
# Adjacent closure

def adjacent_closure(nf: NormalFormFormula) -> NormalFormFormula:
    """The consequence of identifying universally quantified variables in
    every adjacency-preserving way; a normal-form sentence one variable
    down.  Each gamma and each top-level conjunct of delta is kept once,
    at its first occurrence."""
    ell = nf.ell
    if ell < 2:
        raise FormulaError("closure requires at least 3 variables")
    new_ell = ell - 1
    gamma_walks = [(tuple(f) + (k + 1,), new_ell - k) for k in range(1, ell)
                   for f in W.walks(ell, k, end_at=k)]
    gammas = dict.fromkeys(image for gamma in nf.gammas
                           for image in _images([gamma], gamma_walks))
    delta_walks = [(g, ell - k) for k in range(1, ell + 1)
                   for g in W.walks(ell + 1, k)]
    parts = nf.delta.args if isinstance(nf.delta, S.And) else (nf.delta,)
    return NormalFormFormula(new_ell, tuple(gammas),
                             S.make_and(_images(parts, delta_walks)
                                        or [S.TRUE]), nf.fresh)


def _images(parts: Sequence, walks: list) -> list:
    """The distinct formulas ``shift_up(substitute_walk(part, walk),
    shift)`` over the (walk, shift) pairs and, per pair, the parts, in
    order of first occurrence.  An image is fixed by the map i -> walk[i-1]
    + shift on the indices its part reads, so each part is renamed once per
    distinct map, substitution and shift in one renaming."""
    width = len(walks[0][0]) if walks else 0
    reads = []
    for part in parts:
        read = sorted({S.var_index(v) or 0
                       for a in S.atoms(part) for v in a.args})
        # A part naming a variable outside x1..x_width gets a key of its own,
        # so its substitution raises as it would under any walk.
        reads.append(read if not read or read[0] >= 1 and read[-1] <= width
                     else None)
    seen: set = set()
    out: dict = {}
    for walk, shift in walks:
        mapping = None
        for p, (part, read) in enumerate(zip(parts, reads)):
            key = (p, walk, shift) if read is None else (
                p, tuple(walk[i - 1] + shift for i in read))
            if key not in seen:
                seen.add(key)
                mapping = mapping or S.walk_mapping(walk, shift)
                out[S.rename_indices(part, mapping)] = None
    return list(out)


# ---------------------------------------------------------------------------
# Variable-count reduction

def _typed_keys(nf: NormalFormFormula, atom_cap: int, stage: str,
                prune: bool = True) -> tuple:
    """The sorted relevant atom keys at width l, within ``atom_cap``, and
    the codes of the l-types satisfying every universal instance (of all
    l-types without ``prune``); a tripped cap names ``stage``."""
    keys = T.sort_keys(T.relevant_atoms(S.make_and([*nf.gammas, nf.delta]),
                                        nf.ell))
    if len(keys) > atom_cap:
        raise ResourceError(
            f"{stage}: {len(keys)} relevant atoms at width {nf.ell} exceeds "
            f"cap {atom_cap}")
    return keys, T.walk_table([nf.delta] if prune else [],
                              W.walks(nf.ell + 1, nf.ell), keys, atom_cap,
                              CELL_BUDGET, f"{stage} type filter").nonzero()[0]


def reduce_step(nf: NormalFormFormula, atom_cap: int = T.DEFAULT_ATOM_CAP,
                counter: Optional[itertools.count] = None,
                prune: bool = True) -> NormalFormFormula:
    """Reduce an (l+1)-variable normal-form sentence (l >= 3) to an
    equisatisfiable l-variable one: the adjacent closure plus guard
    predicates recording which l-types have a left extension."""
    ell = nf.ell
    if ell < 3:
        raise FormulaError("reduction requires at least 4 variables")
    closure = adjacent_closure(nf)
    # An l-tuple realized in any model satisfies every universal instance,
    # so types failing those constraints need no guard conjuncts.
    keys_ell, codes = _typed_keys(nf, atom_cap, "reduce_step", prune)
    counter = counter or itertools.count(1)
    fresh = list(nf.fresh)
    gammas = list(closure.gammas)
    deltas = [closure.delta]
    xs = tuple(S.var(i) for i in range(1, ell + 1))
    zetas = (T.type_at(keys_ell, code) for code in codes.tolist())
    for links, *wits in _link_tables(nf, keys_ell, codes, atom_cap,
                                     "project_circ"):
        for r, zeta in enumerate(itertools.islice(zetas, len(links))):
            name = f"_pz{next(counter)}"
            chi = zeta.formula()
            fresh.append((name, S.render(chi)))
            head_front = S.Atom(name, xs[:-1])
            deltas.append(S.Implies(chi, S.Atom(name, xs[1:])))
            gammas += [S.Implies(head_front, T.project_circ(t[r], keys_ell))
                       for t in wits]
            deltas.append(S.Implies(head_front,
                                    T.project_circ(links[r], keys_ell)))
    return NormalFormFormula(ell - 1, tuple(gammas), S.make_and(deltas),
                             tuple(fresh))


# ---------------------------------------------------------------------------
# The three-variable decider

DEFAULT_POOL_CAP = 1 << 18


def decide_af3(nf: NormalFormFormula, atom_cap: int = T.DEFAULT_ATOM_CAP,
               pool_cap: int = DEFAULT_POOL_CAP, want_model: bool = False,
               trace: Optional[list] = None) -> SatResult:
    """Certificate search for 3-variable normal-form sentences: SAT iff a
    non-empty coherent set of compatible connector-types exists.

    ``_fixpoint`` keeps a set U of admissible 2-types, empty on UNSAT; the
    search reads the compatible connector-types within U smallest first,
    each test counting against ``pool_cap``.  It returns the certificate
    that the search over the coherence closure P of the compatible
    connector-types (the greatest set of them in whose union every
    member's inverses lie) returns: every certificate lies in P, as P with
    it added is still closed; P's union lies in U, as each member of P
    passes its group's filter in every round of ``_fixpoint``; so P's
    members are candidates, in the same (popcount, mask) order, and no
    branch through a candidate outside P completes.
    The type filter applies delta on every triple over a pair, so the
    admissible 2-types are closed under inverse and every 1-type group
    holds pi squared: both are looked up in ``index`` without a fallback."""
    if nf.ell != 2:
        raise FormulaError("the decider handles 3-variable normal form")
    trace = trace if trace is not None else []
    # Admissible 2-types: those satisfying every stalled universal instance.
    keys2, codes = _typed_keys(nf, atom_cap, "decide_af3")
    admissible = [T.type_at(keys2, i) for i in codes.tolist()]
    index = {t: i for i, t in enumerate(admissible)}
    inv = [index[t.inverse(2)] for t in admissible]
    trace.append({"stage": "types", "count": 1 << len(keys2),
                  "admissible": len(admissible)})

    starts, = T.truth_tables(
        [], keys2, walks=((1, 1, 2),), extras=[[g] for g in nf.gammas],
        cap=atom_cap, stage="decide_af3 start tables")
    start_masks = [_masks(t, codes)[0] for t in starts]
    # Row zi of link and of each wit[gi], cut to the admissible columns.
    link, *wit = rows = [[] for _ in range(len(nf.gammas) + 1)]
    for tables in _link_tables(nf, keys2, codes, atom_cap,
                               "decide_af3 link/witness tables"):
        for out, table in zip(rows, tables):
            out += _masks(table, codes)

    # The 1-type groups, keyed by the bit of pi squared.
    groups: dict = {}
    for i, t in enumerate(admissible):
        pi2 = index[T.one_type_squared(T.restrict_to_ones(t), keys2)]
        groups[pi2] = groups.get(pi2, 0) | 1 << i
    union = _fixpoint(list(groups.values()), inv, start_masks, wit)
    trace.append({"stage": "fixpoint", "two_types": union.bit_count()})

    tested = 0

    def compatible(om: int) -> bool:
        nonlocal tested
        tested += 1
        if tested > pool_cap:
            raise ResourceError(
                f"decide_af3 pool: {tested} candidate connector-types "
                f"exceeds the cap of {pool_cap}")
        return _compatible(om, inv, start_masks, wit, link)

    cert_masks = _find_certificate(
        [(pi2, group & union & ~(1 << pi2)) for pi2, group in groups.items()
         if union >> pi2 & 1], inv, compatible)
    if cert_masks is None:
        trace.append({"stage": "certificate", "size": 0, "tested": tested,
                      "reason": ("empty fixpoint" if not union
                                 else "no coherent clique")})
        return SatResult(False, trace=trace)
    certificate = tuple(
        ConnectorType(frozenset(admissible[i] for i in _bits(om)))
        for om in cert_masks)
    trace.append({"stage": "certificate", "size": len(certificate),
                  "tested": tested})
    result = SatResult(True, certificate=certificate, trace=trace)
    if want_model:
        result.id_model = build_model(certificate, nf, index, inv, wit,
                                      atom_cap, trace)
    return result


def _link_tables(nf: NormalFormFormula, keys: tuple, codes, atom_cap: int,
                 stage: str):
    """The link and witness tables over the l-types zeta over ``keys``
    with the given codes as rows and the shifted keys as output axes, which
    every stage reads its eta off: row zi of the link table holds the eta
    with zeta eta+ delta_hat consistent, and of the witness table of
    gamma_gi those that also satisfy gamma_gi.  One pass of
    ``aftypes.truth_tables``, a tripped cap naming ``stage``."""
    import numpy as np
    bits = (codes[:, None] >> np.arange(len(keys) - 1, -1, -1)) & 1 == 1
    return T.truth_tables(
        [S.hat(nf.delta, nf.ell + 1)], T.shift_keys(keys), rows=(keys, bits),
        extras=[(), *([g] for g in nf.gammas)], cap=atom_cap,
        budget=CELL_BUDGET, stage=stage)


def _masks(table, codes) -> list:
    """Per row of ``table``, its true cells among ``codes`` as a bitmask."""
    import numpy as np
    packed = np.packbits(table[:, codes], axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _fixpoint(groups: list, inv, start_masks, wit) -> int:
    """The greatest set U of admissible 2-types (a bitmask) that the
    filters of the 1-type groups (bitmasks) keep.  A group's filter takes
    its members whose inverse lies in U; drops, until none is dropped, each
    member e with a gamma whose ``wit[g][inv e]`` misses the set; and keeps
    the rest if it meets every start mask.  Each compatible connector-type
    within inv(U) passes the same tests, so it lies in the kept set.  No
    link is tested: an admissible 2-type on (a, b) extends to the 3-types
    of (a, b, a) and (a, a, b), so e lies in ``link[inv e]``; and pi
    squared, its own inverse, lies in every kept set, as each
    ``wit[g][pi squared]`` holds the group's part of start mask g."""
    union = (1 << len(inv)) - 1
    while True:
        kept = 0
        for group in groups:
            s = sum(1 << e for e in _bits(group) if union >> inv[e] & 1)
            while drop := sum(1 << e for e in _bits(s)
                              if any(not w[inv[e]] & s for w in wit)):
                s ^= drop
            if all(m & s for m in start_masks):
                kept |= s
        if kept == union:
            return union
        union = kept


def _compatible(om: int, inv, start_masks, wit, link) -> bool:
    """omega is compatible iff (i) it meets every start mask, and for each
    member e (ii) it meets ``wit[g][inv e]`` for every g and (iii)
    ``link[inv e]`` holds all of omega."""
    return all(om & m for m in start_masks) and all(
        not om & ~link[inv[e]] and all(w[inv[e]] & om for w in wit)
        for e in _bits(om))


def _candidates(base: int, rest: int):
    """``base`` plus each submask of ``rest``, in (popcount, mask) order:
    Gosper's next subset of the same size runs over the members of
    ``rest``, the j-th lowest as bit j, which keeps mask order."""
    members = [1 << e for e in _bits(rest)]
    yield base
    for size in range(1, len(members) + 1):
        s = (1 << size) - 1
        while not s >> len(members):
            yield base | sum(members[j] for j in _bits(s))
            low = s & -s
            high = s + low
            s = ((high ^ s) >> 2) // low | high


def _find_certificate(groups: list, inv, compatible) -> Optional[list]:
    """Smallest-first search for a non-empty set of compatible
    connector-types that is closed under inverses and pairwise linked in
    both directions.  Each 1-type group in ``groups``, the bit of pi
    squared and the mask of its other 2-types, has its candidates listed
    by ``_candidates`` as the search reads them, each read handed to
    ``compatible``.

    ``need(om)`` is the mask of the inverses of om's members, so ``a``
    links to ``b`` iff ``need(a) & b``, which is non-zero iff ``need(b) &
    a`` is because taking the inverse is an involution; every candidate
    holds pi squared, its own inverse, so it links to itself.
    The seeds are the compatible candidates of all groups, merged in
    (popcount, mask) order.  A selection is inverse-closed iff the union of
    its needs lies in the union of its members.  Otherwise the first
    missing inverse (members in mask order, their bits ascending) names
    the next candidates, which no member of the selection holds: the
    compatible ones that hold it, in the same order, each list kept as far
    as it has been read."""
    def need(om: int) -> int:
        return sum(1 << inv[i] for i in _bits(om))

    group_of = {e: (pi2, rest) for pi2, rest in groups
                for e in _bits(1 << pi2 | rest)}
    by_bit: dict = {}
    seen: set = set()

    def holding(miss: int):
        # Each list is a tee that is never read, whose copies read one
        # buffer: a candidate is tested when the first copy reaches it.
        if miss not in by_bit:
            pi2, rest = group_of[miss]
            by_bit[miss], = itertools.tee(filter(compatible, _candidates(
                1 << pi2 | 1 << miss, rest & ~(1 << miss))), 1)
        return copy.copy(by_bit[miss])

    def search(sel: frozenset, union: int, needs: int) -> Optional[list]:
        if sel in seen:
            return None
        seen.add(sel)
        if not needs & ~union:
            return sorted(sel)
        miss = next(inv[i] for om in sorted(sel) for i in _bits(om)
                    if not union >> inv[i] & 1)
        for om in holding(miss):
            if all(need(om) & o2 for o2 in sel):
                found = search(sel | {om}, union | om, needs | need(om))
                if found is not None:
                    return found
        return None

    seeds = heapq.merge(*(_candidates(1 << pi2, rest) for pi2, rest in groups),
                        key=lambda om: (om.bit_count(), om))
    for seed in filter(compatible, seeds):
        found = search(frozenset([seed]), seed, need(seed))
        if found is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# Model construction

def verify_normal_form(nf: NormalFormFormula, model: M.Structure) -> bool:
    """Direct check that a structure satisfies a normal-form sentence:
    each predicate becomes a dense boolean table, filled by one
    fancy-index assignment, for ``tables_satisfy``."""
    import numpy as np
    n = len(model.domain)
    index = {a: i for i, a in enumerate(model.domain)}
    tables: dict = {}
    for (name, arity), ext in model.extensions.items():
        if arity == 0:
            tables[name] = () in ext
            continue
        table = np.zeros((n,) * arity, dtype=bool)
        flat = np.fromiter(map(index.__getitem__,
                               itertools.chain.from_iterable(ext)),
                           dtype=np.intp, count=len(ext) * arity)
        table[tuple(flat.reshape(-1, arity).T)] = True
        tables[name] = table
    return tables_satisfy(nf, tables, n)


def tables_satisfy(nf: NormalFormFormula, tables: dict, n: int) -> bool:
    """Whether the structure over the elements 0 .. n-1 in which predicate
    ``name`` holds at the true cells of ``tables[name]`` (a boolean array
    of shape (n,) * arity, or a bool for a letter) satisfies a normal-form
    sentence; equivalent to evaluate on the rebuilt sentence, but
    vectorized.  The gammas and delta are compiled once by
    ``aftypes.compile_qf`` and evaluated over x1 in chunks, so no array has
    more than about ``CELL_BUDGET`` cells beyond the tables (or one x1
    slice, if that is larger).  Each is reduced only over the axes it
    reads: broadcasting to the others would repeat its values.  An atom is
    a read-only strided view of its table with one axis per variable: the
    table's x1 axes are cut to the chunk, and a variable that fills several
    positions steps by the sum of their strides."""
    import numpy as np
    from numpy.lib.stride_tricks import as_strided
    slots: dict = {}
    gammas = [T.compile_qf(gamma, slots) for gamma in nf.gammas]
    delta = T.compile_qf(nf.delta, slots)
    step = max(1, CELL_BUDGET // max(n, 1) ** nf.ell)
    for lo in range(0, n, step):  # no chunk, so true, on an empty domain
        chunk = slice(lo, min(n, lo + step))

        def leaf(key):
            name, word = key
            if not word:
                return np.bool_(tables[name])
            view = tables[name][tuple(chunk if i == 1 else slice(None)
                                      for i in word)]
            shape, strides = [1] * (nf.ell + 1), [0] * (nf.ell + 1)
            for i, size, stride in zip(word, view.shape, view.strides):
                shape[i - 1] = size
                strides[i - 1] += stride
            return as_strided(view, shape, strides, writeable=False)

        leaves = [leaf(key) for key in slots]
        for gamma in gammas:
            if not np.atleast_1d(gamma(leaves)).any(axis=-1).all():
                return False
        if not delta(leaves).all():
            return False
    return True


H_SIZE = 3  # witnessing phases: the witnesses of phase h live in h + 1 mod 3


def _surjective_facts(t: AdjType, k: int) -> list:
    """The literals of a k-type whose word covers every position, as
    (predicate, 0-based positions, value): exactly the facts it fixes on a
    k-tuple of distinct elements beyond those of its proper subtuples."""
    full = set(range(1, k + 1))
    return [(name, tuple(i - 1 for i in word), value)
            for (name, word), value in t.items() if set(word) == full]


def _template(facts: list) -> list:
    """(predicate, positions, value) literals grouped per predicate as
    (name, positions array (f, arity), values array (f,))."""
    import numpy as np
    grouped: dict = {}
    for name, word, value in facts:
        grouped.setdefault(name, []).append((word, value))
    return [(name, np.array([w for w, _ in lits], dtype=np.intp),
             np.array([v for _, v in lits], dtype=bool))
            for name, lits in grouped.items()]


def _groups(key):
    """(value, indices) for each distinct value of an integer array, in
    ascending order of value."""
    import numpy as np
    order = np.argsort(key, kind="stable")
    values, firsts = np.unique(key[order], return_index=True)
    return zip(values.tolist(), np.split(order, firsts[1:]))


class _Facts:
    """The facts a construction writes, as two dense boolean tables per
    predicate over element ids, each of shape ``(n,) * arity`` and indexed
    by truth value: the atoms written false and the atoms written true."""

    def __init__(self, signature: dict, n: int):
        import numpy as np
        self.tables = {name: (np.zeros((n,) * arity, dtype=bool),
                              np.zeros((n,) * arity, dtype=bool))
                       for name, arity in signature.items()}

    def write(self, template: list, *elems) -> None:
        """Write a ``_template`` on every column of ``elems``: position p
        of column m is the element ``elems[p][m]``."""
        import numpy as np
        rows = np.stack(elems)
        for name, words, values in template:
            for value, table in enumerate(self.tables[name]):
                lits = words[values == value]
                # An empty index would set a 0-ary letter.
                if len(lits):
                    table[tuple(rows[lits].transpose(1, 0, 2))] = True

    def true_tables(self, domain: list) -> dict:
        """The table of the atoms written true, per predicate, after
        checking that no atom was written with both values; a clash is
        named by its elements in ``domain``."""
        import numpy as np
        for name, (false, true) in self.tables.items():
            clash = np.argwhere(true & false)
            if len(clash):
                raise RuntimeError(
                    f"internal consistency failure: {name}"
                    f"{tuple(domain[x] for x in clash[0].tolist())!r} "
                    "assigned twice")
        return {name: true for name, (_, true) in self.tables.items()}


def build_model(certificate: Sequence, nf: NormalFormFormula, index: dict,
                adm_inv: list, wit: list, atom_cap: int,
                trace: list) -> IdModel:
    """Three-stage construction of a finite model from a certificate, as
    an ``IdModel`` whose tables ``tables_satisfy`` has checked against the
    sentence.  ``index``, ``adm_inv`` and ``wit`` are the decider's tables
    over the admissible 2-types: the admissible id of each, the admissible
    id of its inverse, and per conjunct the witness mask of each.

    Elements are (holder[t], 2-type t, phase, conjunct, placement) index
    tuples in t-major order, holder[t] the first connector-type holding t's
    inverse, with the verified placement indices and fresh-choice function of
    ``words.small_pair_placement``.  Every witness lands on such an element,
    so the domain is closed under witnessing, and the universal part holds in
    every substructure.  The stages run over element-id arrays: every 2-type
    of the certificate gets an id in bit order, which is also the order of its
    admissible id, with its inverse and shifted type computed once, the pair
    types are an n x n id array, and each stage writes the facts a type fixes
    on exactly its elements as one array operation per group of pairs or
    triples that share it: per connector-type for the unary facts, per
    (connector-type, 2-type) for circular witnessing and the linking fill, per
    (incoming 2-type, connector-type) for the witnesses, and per (incoming
    2-type, outgoing 2-type) for the joining fill, which walks the first
    element in chunks of about ``CELL_BUDGET`` cells.  A witness's 2-type is
    read off the decider's witness masks ``wit``; each witnessing or joining
    3-type is found once per (incoming 2-type, outgoing 2-type, conjunct) as
    the first of ``aftypes.satisfying_types``.  The facts are kept in
    ``_Facts``, two dense boolean tables per predicate (written false, written
    true): an atom in both is rejected, and the joining fill skips each triple
    whose atom of one covering key is already written; the model keeps the
    written-true tables.  A ``model`` row appended to ``trace`` records the
    time, the domain and fact counts and the number of 3-type searches."""
    import numpy as np
    start = time.perf_counter()
    if nf.ell != 2:
        raise FormulaError("model construction handles 3-variable normal form")
    omegas = sorted(certificate, key=lambda om: om.serialize())
    sent = nf.sentence()
    keys3 = T.sort_keys(T.relevant_atoms(sent, 3))
    delta_hat = S.hat(nf.delta, 3)
    two_types = sorted({t for om in omegas for t in om.types},
                       key=lambda t: t.bits)
    # adm[t]: the admissible id of 2-type id t (both in bit order).
    adm = [index[t] for t in two_types]
    t_id = {a: i for i, a in enumerate(adm)}
    inv = np.array([t_id[adm_inv[a]] for a in adm], dtype=np.int32)
    shifted = [t.shift_up() for t in two_types]
    members = [sorted(t_id[index[t]] for t in om.types) for om in omegas]
    # holder[t]: the first connector-type holding the inverse of t;
    # link[o][o2]: the first member of o whose inverse o2 holds.
    holder = [next(o for o, ms in enumerate(members) if inv[t] in ms)
              for t in range(len(two_types))]
    link = np.array([[next(t for t in ms if inv[t] in ms2) for ms2 in members]
                     for ms in members], dtype=np.int32)

    n_gammas = len(nf.gammas) or 1
    j_size, placement = W.small_pair_placement()
    place = np.array([[placement[(a, b)] for b in range(j_size)]
                      for a in range(j_size)])
    domain = [(holder[t], t, h, i, j) for t in range(len(two_types))
              for h in range(H_SIZE) for i in range(n_gammas)
              for j in range(j_size)]
    n = len(domain)
    # The element (holder[t], t, h, i, j) has id base[t] + h * h_stride +
    # i * j_size + j: the witnesses for t live there.
    h_stride = n_gammas * j_size
    base = [t * H_SIZE * h_stride for t in range(len(two_types))]
    ids = np.arange(n)
    o_of = np.repeat(holder, H_SIZE * h_stride)
    h_of = ids // h_stride % H_SIZE
    j_of = ids % j_size

    facts = _Facts(S.signature(sent), n)
    pair_facts = [_template(_surjective_facts(t, 2)) for t in two_types]

    # Stage 1: unary facts from each element's shared 1-type.
    for o, om in enumerate(omegas):
        facts.write(_template([(name, (0,) * len(word), value)
                                    for (name, word), value in om.tp.items()]),
                    ids[o_of == o])

    # Stage 2: circular witnessing, then a linking fill.  pair[a, b] is the
    # 2-type id of (a, b), -1 on the diagonal.
    pair = np.full((n, n), -1, dtype=np.int32)
    for o, ms in enumerate(members):
        src = ids[o_of == o, None]
        # Each element's witnesses sit in the next phase, at every
        # (conjunct, placement) offset.
        offsets = ((h_of[src] + 1) % H_SIZE * h_stride
                   + np.arange(h_stride)[None, :])
        src = np.broadcast_to(src, offsets.shape).ravel()
        for t in ms:
            dst = (base[t] + offsets).ravel()
            pair[src, dst] = t
            pair[dst, src] = inv[t]
            facts.write(pair_facts[t], src, dst)
    a, b = np.nonzero(np.triu(pair == -1, 1))
    fill = link[o_of[a], o_of[b]]
    pair[a, b] = fill
    pair[b, a] = inv[fill]
    for t, sel in _groups(fill):
        facts.write(pair_facts[t], a[sel], b[sel])

    # Stage 3: adjacent 3-types, witnesses first, then the universal fill.
    theta_facts: dict = {}  # (zeta, eta, gamma index or -1) -> template

    def theta(zeta: int, eta: int, gi: int) -> list:
        key = (zeta, eta, gi)
        if key not in theta_facts:
            extra = [nf.gammas[gi]] if gi >= 0 else []
            found = next(T.satisfying_types(
                [two_types[zeta], shifted[eta], *extra, delta_hat],
                keys3, atom_cap, "build_model 3-type search"), None)
            if found is None:
                raise RuntimeError("internal consistency failure: no "
                                   f"{'witnessing' if gi >= 0 else 'joining'}"
                                   " type")
            theta_facts[key] = _template(_surjective_facts(found, 3))
        return theta_facts[key]

    def witness_steps(zeta: int, o: int) -> list:
        """Per conjunct, the witnessing facts for a pair of type zeta into
        connector-type o, and the witness's id up to phase and placement;
        eta is the first member of o true in zeta's witness mask."""
        out = []
        for gi, masks in enumerate(wit):
            row = masks[adm[zeta]]
            eta = next(t for t in members[o] if row >> adm[t] & 1)
            out.append((theta(zeta, eta, gi), base[eta] + gi * j_size))
        return out

    a, b = np.nonzero(pair >= 0)
    for key, sel in _groups(pair[a, b].astype(np.int64) * len(omegas)
                            + o_of[b]):
        ga, gb = a[sel], b[sel]
        shift = (h_of[gb] + 1) % H_SIZE * h_stride + place[j_of[ga], j_of[gb]]
        for gi, (template, offset) in enumerate(witness_steps(
                *divmod(key, len(omegas)))):
            gc = offset + shift
            if ((gc == ga) | (gc == gb)).any():
                raise RuntimeError("internal consistency failure: "
                                   "witness placement collided")
            facts.write(template, ga, gb, gc)
    # Every triple of distinct elements that is not witnessed in either
    # direction gets a joining type, written once in the direction whose
    # first element is the smaller.  The fill only writes atoms whose word
    # covers all three positions; without such keys the facts are complete.
    # With one, its atom on (a, b, c) is written iff (a, b, c) or (c, b, a)
    # is witnessed: keys3 is closed under reversal, and a covering word
    # spells a walk on the path a-b-c, which fixes the triple up to reversal.
    cover = next(((name, word) for name, word in keys3
                  if set(word) == {1, 2, 3}), None)
    step = max(1, CELL_BUDGET // (n * n))
    for lo in range(0, n, step) if cover else ():
        grids = np.ix_(np.arange(lo, min(n, lo + step)), ids, ids)
        at = tuple(grids[i - 1] for i in cover[1])
        false, true = facts.tables[cover[0]]
        # The triples (a, b, c) with a < c, a != b != c, not yet written.
        ta, tb, tc = np.nonzero((grids[0] < grids[2]) & (grids[0] != grids[1])
                                & (grids[1] != grids[2])
                                & ~true[at] & ~false[at])
        ta += lo
        for key, sel in _groups(pair[ta, tb].astype(np.int64)
                                * len(two_types) + pair[tb, tc]):
            facts.write(theta(*divmod(key, len(two_types)), -1),
                        ta[sel], tb[sel], tc[sel])

    model = IdModel(tuple(domain), facts.true_tables(domain))
    if not tables_satisfy(nf, model.tables, n):
        raise RuntimeError(
            "internal consistency failure: constructed model fails the sentence")
    trace.append({"stage": "model",
                  "millis": round((time.perf_counter() - start) * 1000.0, 3),
                  "elems": n,
                  "facts": sum(int(np.count_nonzero(t))
                               for t in model.tables.values()),
                  "theta_searches": len(theta_facts)})
    return model


def rename_model(model: M.Structure) -> M.Structure:
    """A copy whose elements are e0, e1, ... for serialization."""
    names = {a: f"e{i}" for i, a in enumerate(model.domain)}
    exts = {}
    for (name, arity), ext in model.extensions.items():
        flat = map(names.__getitem__, itertools.chain.from_iterable(ext))
        exts[(name, arity)] = (frozenset(zip(*[flat] * arity)) if arity
                               else frozenset(ext))
    return M.Structure(tuple(map(names.__getitem__, model.domain)), exts)


# ---------------------------------------------------------------------------
# Pipeline and oracle

def decide(f: Formula, atom_cap: int = T.DEFAULT_ATOM_CAP,
           pool_cap: int = DEFAULT_POOL_CAP, want_model: bool = False,
           max_variables: int = 6) -> SatResult:
    """Normalize, reduce the variable count to three, then run the
    certificate decider."""
    trace: list = []
    nf = normalize(f)
    trace.append({"stage": "normalize", "variables": nf.variables,
                  "gammas": len(nf.gammas)})
    if nf.variables > max_variables:
        raise ResourceError(
            f"decide: {nf.variables} variables exceeds the pipeline cap of "
            f"{max_variables}")
    counter = itertools.count(1)
    while nf.ell > 2:
        nf = reduce_step(nf, atom_cap, counter)
        trace.append({"stage": "reduce", "variables": nf.variables,
                      "gammas": len(nf.gammas)})
    return decide_af3(nf, atom_cap, pool_cap, want_model=want_model,
                      trace=trace)


def _ground(f: Formula, domain: tuple, env: dict):
    """Ground a sentence to a propositional tree over ground-atom keys."""
    if isinstance(f, S.Atom):
        return ("atom", (f.pred, tuple(env[x] for x in f.args)))
    if isinstance(f, S.Unit):
        return _ground(f.body, domain, env)
    if isinstance(f, S.Not):
        return ("not", _ground(f.body, domain, env))
    if isinstance(f, S.And):
        return ("and", tuple(_ground(c, domain, env) for c in f.args))
    if isinstance(f, S.Or):
        return ("or", tuple(_ground(c, domain, env) for c in f.args))
    if isinstance(f, S.Implies):
        return ("or", (("not", _ground(f.left, domain, env)),
                       _ground(f.right, domain, env)))
    if isinstance(f, S.Iff):
        a, b = _ground(f.left, domain, env), _ground(f.right, domain, env)
        return ("iff", (a, b))
    if isinstance(f, S.Forall):
        return ("and", tuple(_ground(f.body, domain, {**env, f.var: d})
                             for d in domain))
    return ("or", tuple(_ground(f.body, domain, {**env, f.var: d})
                        for d in domain))


def _eval_ground(node, assign: dict) -> Optional[bool]:
    kind, payload = node
    if kind == "atom":
        return assign.get(payload)
    if kind == "not":
        v = _eval_ground(payload, assign)
        return None if v is None else not v
    if kind == "iff":
        a = _eval_ground(payload[0], assign)
        b = _eval_ground(payload[1], assign)
        return None if a is None or b is None else a == b
    if kind == "and":
        out: Optional[bool] = True
        for c in payload:
            v = _eval_ground(c, assign)
            if v is False:
                return False
            if v is None:
                out = None
        return out
    out = False
    for c in payload:
        v = _eval_ground(c, assign)
        if v is True:
            return True
        if v is None:
            out = None
    return out


def _ground_atoms(node) -> set:
    """The ground-atom keys of a tree built by ``_ground``."""
    kind, payload = node
    if kind == "atom":
        return {payload}
    if kind == "not":
        return _ground_atoms(payload)
    return set().union(*map(_ground_atoms, payload))


def brute_force_sat(f: Formula, max_n: int = 3) -> Optional[M.Structure]:
    """Search for a model over domains e1..en for n = 1..max_n, restricting
    predicate extensions to substitution instances of the formula's atom
    words.  Returns the canonically first model found, or None.  A None
    result is evidence only, never an UNSAT verdict."""
    if S.free_vars(f):
        raise FormulaError("the oracle requires a sentence")
    for n in range(1, max_n + 1):
        domain = tuple(f"e{i}" for i in range(1, n + 1))
        tree = _ground(f, domain, {})
        keys = sorted(_ground_atoms(tree))
        assign: dict = {}

        def dpll(i: int) -> bool:
            v = _eval_ground(tree, assign)
            if v is not None:
                return v
            key = keys[i]
            for choice in (False, True):
                assign[key] = choice
                if dpll(i + 1):
                    return True
            del assign[key]
            return False

        if dpll(0):
            exts: dict = {}
            for name, arity in S.signature(f).items():
                exts[(name, arity)] = frozenset(
                    args for (n2, args), v in assign.items()
                    if n2 == name and v)
            model = M.Structure(domain, exts)
            if not M.evaluate(model, f):
                raise RuntimeError("internal consistency failure: the "
                                   "oracle's model fails the sentence")
            return model
    return None
