"""Guarded-adjacent encoding machinery: index-map closures, guard-saturation
sentences, bit-string counters, alternating Turing machines, the encoder
producing a guarded-adjacent sentence from a machine and input, and the
verifier that model-checks the encoding against a constructed witness
structure.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from . import semantics as M
from . import syntax as S
from . import words as W
from .syntax import Formula, FormulaError


class MachineError(ValueError):
    """Malformed machine description or simulation fault."""


# ---------------------------------------------------------------------------
# Index maps and word closure

def lambda_walk(i: int, m: int) -> tuple:
    """The i-th index map as a walk of length m+2 (i in 0..3)."""
    if m < 0:
        raise W.WordError(f"negative word parameter {m}")
    if i == 0:
        return tuple(range(1, m + 3))
    if i == 1:
        return tuple(p if p <= 2 else p - 1 for p in range(1, m + 3))
    if i == 2:
        return tuple(p if p <= 2 else p - 2 for p in range(1, m + 3))
    if i == 3:
        return tuple(p if p <= 3 else p - 1 for p in range(1, m + 3))
    raise FormulaError(f"index map must be 0..3, got {i}")


def lambda_apply(i: int, w: Sequence) -> tuple:
    """Apply the i-th index map to a word of length m+2."""
    if len(w) < 2:
        raise W.WordError(f"word must have length at least 2, got {len(w)}")
    return W.apply_walk(tuple(w), lambda_walk(i, len(w) - 2))


def closure_W(m: int, seed: set) -> set:
    """Least fixpoint of the seed under the three non-identity index maps."""
    out = set()
    for w in seed:
        w = tuple(w)
        if len(w) != m + 2:
            raise W.WordError(
                f"seed word {w!r} has length {len(w)}, expected {m + 2}")
        out.add(w)
    frontier = set(out)
    while frontier:
        new = set()
        for w in frontier:
            for i in (1, 2, 3):
                img = lambda_apply(i, w)
                if img not in out:
                    new.add(img)
        out |= new
        frontier = new
    return out


# ---------------------------------------------------------------------------
# Bit-string counters (index 1 is the least significant bit)

O_PRED = "O"


def _o(name: str) -> Formula:
    return S.Atom(O_PRED, (name,))


def less_formula(us: Sequence[str], vs: Sequence[str]) -> Formula:
    """val(us) < val(vs) under the unary bit predicate."""
    if len(us) != len(vs):
        raise FormulaError("bit words must have equal length")
    m = len(us)
    disjuncts = []
    for i in range(m):
        parts = [S.Not(_o(us[i])), _o(vs[i])]
        parts += [S.Iff(_o(us[j]), _o(vs[j])) for j in range(i + 1, m)]
        disjuncts.append(S.make_and(parts))
    return S.make_or(disjuncts)


def eq_formula(us: Sequence[str], vs: Sequence[str]) -> Formula:
    if len(us) != len(vs):
        raise FormulaError("bit words must have equal length")
    return S.make_and([S.Iff(_o(u), _o(v)) for u, v in zip(us, vs)])


def succ_printed_formula(us: Sequence[str], vs: Sequence[str]) -> Formula:
    """val(us) = val(vs) + 1 modulo 2^m: the all-ones word also counts the
    all-zeros word as its successor."""
    if len(us) != len(vs):
        raise FormulaError("bit words must have equal length")
    m = len(us)
    conjuncts = []
    for i in range(m):
        agree = S.Iff(_o(us[i]), _o(vs[i]))
        low = S.make_or([_o(us[j]) for j in range(i)])
        conjuncts.append(S.Iff(agree, low))
    return S.make_and(conjuncts)


def succ_formula(us: Sequence[str], vs: Sequence[str],
                 literal: bool = False) -> Formula:
    """val(us) = val(vs) + 1.  The default excludes the wrap-around pair;
    ``literal`` keeps the modular variant."""
    base = succ_printed_formula(us, vs)
    if literal:
        return base
    return S.And((base, S.Not(S.make_and([_o(v) for v in vs]))))


def eq_plus_formula(us: Sequence[str], vs: Sequence[str], k: int,
                    literal: bool = False) -> Formula:
    """val(us) = val(vs) + k for k in [-1, 1]."""
    if k == 0:
        return eq_formula(us, vs)
    if k == 1:
        return succ_formula(us, vs, literal)
    if k == -1:
        return succ_formula(vs, us, literal)
    raise FormulaError(f"offset must be in [-1, 1], got {k}")


def build_counters(m: int, literal: bool = False) -> dict:
    """Counter templates over x1..xm and x_{m+1}..x_{2m}."""
    if m < 1:
        raise FormulaError(f"bit width must be positive, got {m}")
    us = [S.var(i) for i in range(1, m + 1)]
    vs = [S.var(i) for i in range(m + 1, 2 * m + 1)]
    return {
        "less": less_formula(us, vs),
        "eq": eq_formula(us, vs),
        "succ+1": eq_plus_formula(us, vs, 1, literal),
        "succ-1": eq_plus_formula(us, vs, -1, literal),
    }


def bit_value(s: M.Structure, word: Sequence) -> int:
    """Integer value of a bit word in a structure, index 1 least significant."""
    total = 0
    for i, a in enumerate(word):
        if s.holds(O_PRED, (a,)):
            total += 1 << i
    return total


def bin_word(zero, one, value: int, m: int) -> tuple:
    """Length-m word over {zero, one} spelling the value, LSB first."""
    if not 0 <= value < (1 << m):
        raise FormulaError(f"value {value} out of range for {m} bits")
    return tuple(one if (value >> i) & 1 else zero for i in range(m))


# ---------------------------------------------------------------------------
# Guard-saturation sentences

def build_zeta(p_name: str, g_name: str, m: int) -> Formula:
    """Saturation sentence: a pair in the binary predicate generates the
    (m+2)-ary guard on every word over the pair, via the index maps."""
    x, y = S.var(1), S.var(2)
    first = S.forall_prefix(2, S.Implies(
        S.Atom(p_name, (x, y)),
        S.Atom(g_name, (x, y) + (y,) * m)))
    conjuncts = [first]
    args = tuple(S.var(i) for i in range(1, m + 3))
    guard = S.Atom(g_name, args)
    for i in (1, 2, 3):
        walk = lambda_walk(i, m)
        image = S.Atom(g_name, tuple(S.var(p) for p in walk))
        conjuncts.append(S.forall_prefix(m + 2, S.Implies(guard, image)))
    return S.make_and(conjuncts)


def build_epsilon(r_name: str, f_name: str, m: int) -> Formula:
    """Saturation sentence: a quadruple in the 4-ary predicate generates the
    (2m+4)-ary guard on every framed word, via paired index maps."""
    # Quadruple layout y x x' y' = x1 x2 x3 x4.
    y, x, x2, y2 = S.var(1), S.var(2), S.var(3), S.var(4)
    first = S.forall_prefix(4, S.Implies(
        S.Atom(r_name, (y, x, x2, y2)),
        S.Atom(f_name, (y,) * m + (y, x, x2, y2) + (y2,) * m)))
    # Closure conjuncts: the guard's first half holds u_{m+2}..u_1 with
    # u_k = x_{m+3-k}, the second half v_1..v_{m+2} with v_k = x_{m+2+k}.
    width = 2 * m + 4
    guard = S.Atom(f_name, tuple(S.var(i) for i in range(1, width + 1)))
    conjuncts = [first]
    for i in range(4):
        li = lambda_walk(i, m)
        for j in range(4):
            lj = lambda_walk(j, m)
            front = tuple(S.var(m + 3 - li[m + 2 - p]) for p in range(1, m + 3))
            back = tuple(S.var(m + 2 + lj[p - 1]) for p in range(1, m + 3))
            conjuncts.append(S.forall_prefix(
                width, S.Implies(guard, S.Atom(f_name, front + back))))
    return S.make_and(conjuncts)


# ---------------------------------------------------------------------------
# Alternating Turing machines

UNIVERSAL = "U"
EXISTENTIAL = "E"
BLANK = "_"


@dataclass(frozen=True)
class ATM:
    """States with a universal/existential descriptor, a tape alphabet with
    a blank, an initial state, and partial left/right transition maps
    (state, symbol) -> (state, symbol, move)."""

    states: tuple
    kappa: Mapping
    alphabet: tuple
    initial: str
    delta_l: Mapping
    delta_r: Mapping
    name: str = "machine"

    def __post_init__(self):
        for what, names in (("state", self.states), ("symbol", self.alphabet)):
            for i, a in enumerate(names):
                if a in names[:i]:
                    raise MachineError(f"{what} {a!r} declared twice")
        if BLANK not in self.alphabet:
            raise MachineError(f"alphabet must contain the blank {BLANK!r}")
        if self.initial not in self.states:
            raise MachineError(f"initial state {self.initial!r} unknown")
        for q in self.states:
            if self.kappa.get(q) not in (UNIVERSAL, EXISTENTIAL):
                raise MachineError(f"state {q!r} needs a U/E descriptor")
        for delta in (self.delta_l, self.delta_r):
            for (q, s), (p, s2, d) in delta.items():
                if q not in self.states or p not in self.states:
                    raise MachineError(f"transition uses unknown state: {q}, {p}")
                if s not in self.alphabet or s2 not in self.alphabet:
                    raise MachineError(f"transition uses unknown symbol: {s}, {s2}")
                if d not in (-1, 0, 1):
                    raise MachineError(f"move must be in [-1, 1], got {d}")

    def has_transitions(self, q: str) -> bool:
        return any(key[0] == q for key in self.delta_l) or any(
            key[0] == q for key in self.delta_r)

    def is_accepting_state(self, q: str) -> bool:
        return self.kappa[q] == UNIVERSAL and not self.has_transitions(q)

    def is_rejecting_state(self, q: str) -> bool:
        return self.kappa[q] == EXISTENTIAL and not self.has_transitions(q)


def parse_atm(text: str, name: str = "machine") -> ATM:
    """Parse the line-oriented machine format: states, alphabet, initial,
    and deltaL/deltaR transition lines; # starts a comment."""
    states: list = []
    kappa: dict = {}
    alphabet: list = []
    initial = None
    delta_l: dict = {}
    delta_r: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise MachineError(f"line {lineno}: expected 'key: ...'")
        key, rest = line.split(":", 1)
        key = key.strip()
        if key == "states":
            for tok in rest.split():
                if ":" not in tok:
                    raise MachineError(
                        f"line {lineno}: state needs a :U or :E descriptor")
                q, d = tok.rsplit(":", 1)
                states.append(q)
                kappa[q] = d
        elif key == "alphabet":
            alphabet.extend(rest.split())
        elif key == "initial":
            initial = rest.strip()
        elif key in ("deltaL", "deltaR"):
            parts = rest.split("->")
            if len(parts) != 2:
                raise MachineError(f"line {lineno}: expected 'q s -> p s' d'")
            left, right = parts[0].split(), parts[1].split()
            if len(left) != 2 or len(right) != 3:
                raise MachineError(f"line {lineno}: expected 'q s -> p s' d'")
            try:
                move = int(right[2])
            except ValueError:
                raise MachineError(f"line {lineno}: move must be an integer")
            target = delta_l if key == "deltaL" else delta_r
            target[(left[0], left[1])] = (right[0], right[1], move)
        else:
            raise MachineError(f"line {lineno}: unknown key {key!r}")
    if initial is None:
        raise MachineError("missing 'initial:' line")
    return ATM(tuple(states), kappa, tuple(alphabet), initial,
               delta_l, delta_r, name)


@dataclass(frozen=True)
class Vertex:
    """A configuration-tree vertex: state, tape word, head position, and
    labelled children (side, transition, child vertex)."""

    state: str
    tape: tuple
    head: int
    children: tuple = ()


@dataclass(frozen=True)
class ConfigTree:
    root: Vertex

    def vertices(self) -> Iterator[Vertex]:
        stack = [self.root]
        while stack:
            v = stack.pop()
            yield v
            for _, _, child in reversed(v.children):
                stack.append(child)

    def edges(self) -> Iterator[tuple]:
        for v in self.vertices():
            for side, tau, child in v.children:
                yield (v, side, tau, child)

    def size(self) -> int:
        return sum(1 for _ in self.vertices())


def simulate_atm(machine: ATM, w: str, max_depth: int = 64) -> tuple:
    """Search for an accepting configuration tree.  Universal states must
    have both side transitions enabled unless accepting; existential states
    choose a branch, left first, with backtracking.  Returns a status in
    {"accept", "reject", "depth-exhausted"} and the tree on acceptance."""
    cells = 1 << len(w)
    tape = tuple(w) + (BLANK,) * (cells - len(w))
    for s in tape:
        if s not in machine.alphabet:
            raise MachineError(f"input symbol {s!r} not in the alphabet")
    depth_hit = [False]

    def step(tape: tuple, head: int, tau: tuple) -> tuple:
        p, s2, d = tau
        new_tape = tape[:head] + (s2,) + tape[head + 1:]
        new_head = head + d
        if not 0 <= new_head < cells:
            raise MachineError(
                f"head moved off the tape to position {new_head}")
        return (p, new_tape, new_head)

    def search(q: str, tape: tuple, head: int, depth: int) -> Optional[Vertex]:
        if machine.is_accepting_state(q):
            return Vertex(q, tape, head)
        if machine.is_rejecting_state(q):
            return None
        if depth <= 0:
            depth_hit[0] = True
            return None
        s = tape[head]
        enabled = [(side, delta[(q, s)])
                   for side, delta in (("l", machine.delta_l),
                                       ("r", machine.delta_r))
                   if (q, s) in delta]
        if machine.kappa[q] == UNIVERSAL:
            if len(enabled) != 2:
                return None  # a proper tree needs both successors
            children = []
            for side, tau in enabled:
                p, t2, h2 = step(tape, head, tau)
                child = search(p, t2, h2, depth - 1)
                if child is None:
                    return None
                children.append((side, tau, child))
            return Vertex(q, tape, head, tuple(children))
        for side, tau in enabled:
            p, t2, h2 = step(tape, head, tau)
            child = search(p, t2, h2, depth - 1)
            if child is not None:
                return Vertex(q, tape, head, ((side, tau, child),))
        return None

    root = search(machine.initial, tape, 0, max_depth)
    if root is not None:
        return ("accept", ConfigTree(root))
    return ("depth-exhausted" if depth_hit[0] else "reject", None)


# ---------------------------------------------------------------------------
# Encoding

def _pred_q(q: str) -> str:
    return f"Q_{q}"


def _pred_s(s: str) -> str:
    return f"S_{s}"


G_N, G_2N, F_N = "G_n", "G_2n", "F_n"

SIZE_CONSTANT = 200


@dataclass(frozen=True)
class Encoding:
    """The guarded-adjacent sentence for a machine and input, as a named
    conjunct list with its signature."""

    n: int
    conjuncts: tuple  # ((name, Formula), ...)
    signature: Mapping  # predicate name -> arity

    def sentence(self) -> Formula:
        return S.make_and([f for _, f in self.conjuncts])


def encode_atm(machine: ATM, w: str, literal_succ: bool = False) -> Encoding:
    """The sentence satisfiable exactly when the machine accepts the input,
    built from nine behaviour conjuncts plus four guard-saturation sentences."""
    n = len(w)
    if n < 1:
        raise MachineError("input must be non-empty")
    for s in w:
        if s not in machine.alphabet:
            raise MachineError(f"input symbol {s!r} not in the alphabet")
    x, y = S.var(1), S.var(2)
    v_xy = S.Atom("V", (x, y))
    us = [S.var(i) for i in range(3, n + 3)]

    phi1 = S.forall_prefix(2, S.Implies(
        v_xy, S.And((S.Not(_o(x)), _o(y)))))

    phi2 = S.make_and([
        S.forall_prefix(2, S.Implies(v_xy, S.make_or(
            [S.Not(S.Atom(_pred_q(p), (x, y))),
             S.Not(S.Atom(_pred_q(q), (x, y)))])))
        for p, q in itertools.combinations(machine.states, 2)
    ] or [S.TRUE])

    g_n_guard = S.Atom(G_N, (x, y) + tuple(us))
    phi3 = S.make_and([
        S.forall_prefix(n + 2, S.Implies(g_n_guard, S.Not(S.And((
            S.Atom(_pred_s(s), tuple(us)),
            S.Atom(_pred_s(s2), tuple(us)))))))
        for s, s2 in itertools.combinations(machine.alphabet, 2)
    ] or [S.TRUE])

    vs = [S.var(i) for i in range(n + 3, 2 * n + 3)]
    phi4 = S.forall_prefix(2 * n + 2, S.Implies(
        S.Atom(G_2N, (x, y) + tuple(us) + tuple(vs)),
        S.Implies(S.And((S.Atom("H", tuple(us)), S.Atom("H", tuple(vs)))),
                  eq_formula(us, vs))))

    # Root configuration: initial state, head on square 0, input then blanks.
    mu1_parts = [S.Atom(_pred_q(machine.initial), (x, y)),
                 S.Atom("H", bin_word(x, y, 0, n))]
    for i, sym in enumerate(w):
        mu1_parts.append(S.Atom(_pred_s(sym), bin_word(x, y, i, n)))
    mu1 = S.make_and(mu1_parts)
    mu2 = S.Implies(less_formula(bin_word(x, y, n - 1, n), us),
                    S.Atom(_pred_s(BLANK), tuple(us)))
    inner = S.Implies(g_n_guard, mu2)
    for k in range(n + 2, 2, -1):
        inner = S.Forall(S.var(k), inner)
    phi5 = S.And((
        S.Exists(x, S.Exists(y, S.And((v_xy, S.Atom("R", (x, y)))))),
        S.forall_prefix(2, S.Implies(S.Atom("R", (x, y)),
                                     S.And((mu1, inner))))))

    rejecting = [q for q in machine.states if machine.is_rejecting_state(q)]
    phi6 = S.forall_prefix(2, S.Implies(
        v_xy,
        S.Not(S.make_or([S.Atom(_pred_q(q), (x, y)) for q in rejecting]))))

    # Successor existence: here x1 = y and x2 = x, so V holds of (x2, x1)
    # and the successor quadruples read (x1, x2, x3, x4).
    v_yx = S.Atom("V", (S.var(2), S.var(1)))
    quad = (S.var(1), S.var(2), S.var(3), S.var(4))
    phi7_parts = []
    # Halting states (no transitions at all) are excluded: accepting
    # vertices have no successors, so demanding branches for them would
    # contradict the witness structure.
    for descriptor in (UNIVERSAL, EXISTENTIAL):
        k_states = [q for q in machine.states
                    if machine.kappa[q] == descriptor
                    and machine.has_transitions(q)]
        k_disj = S.make_or(
            [S.Atom(_pred_q(q), (S.var(2), S.var(1))) for q in k_states])
        branches = [S.Exists(S.var(3), S.Exists(S.var(4),
                    S.Atom(f"E_{side}", quad))) for side in ("l", "r")]
        psi = (S.And(tuple(branches)) if descriptor == UNIVERSAL
               else S.make_or(branches))
        phi7_parts.append(S.forall_prefix(2, S.Implies(
            v_yx, S.Implies(k_disj, psi))))
    phi7 = S.make_and(phi7_parts)

    # Frame layout for the 2n+4-ary guard: parent bits, then y x x' y',
    # then successor bits.
    f_us = [S.var(i) for i in range(1, n + 1)]
    fy, fx = S.var(n + 1), S.var(n + 2)
    fx2, fy2 = S.var(n + 3), S.var(n + 4)
    f_vs = [S.var(i) for i in range(n + 5, 2 * n + 5)]
    frame = tuple(f_us) + (fy, fx, fx2, fy2) + tuple(f_vs)
    f_guard = S.Atom(F_N, frame)

    phi8 = S.forall_prefix(2 * n + 4, S.Implies(
        f_guard,
        S.Implies(
            S.And((S.Not(S.Atom("H", tuple(f_us))), eq_formula(f_us, f_vs))),
            S.make_and([S.Implies(S.Atom(_pred_s(s), tuple(f_us)),
                                  S.Atom(_pred_s(s), tuple(f_vs)))
                        for s in machine.alphabet]))))

    xi_list = []
    for side, delta in (("l", machine.delta_l), ("r", machine.delta_r)):
        for (q, s), (p, s2, k) in sorted(delta.items()):
            chi1 = S.Atom(_pred_q(p), (fx2, fy2))
            chi2 = S.Implies(eq_formula(f_vs, f_us),
                             S.Atom(_pred_s(s2), tuple(f_vs)))
            chi3 = S.Implies(eq_plus_formula(f_vs, f_us, k, literal_succ),
                             S.Atom("H", tuple(f_vs)))
            trigger = S.make_and([
                S.Atom(f"E_{side}", (fy, fx, fx2, fy2)),
                S.Atom(_pred_q(q), (fx, fy)),
                S.Atom("H", tuple(f_us)),
                S.Atom(_pred_s(s), tuple(f_us))])
            xi_list.append(S.forall_prefix(2 * n + 4, S.Implies(
                f_guard,
                S.Implies(trigger, S.make_and([chi1, chi2, chi3])))))
    phi9 = S.make_and(xi_list or [S.TRUE])

    conjuncts = [
        ("phi1", phi1), ("phi2", phi2), ("phi3", phi3), ("phi4", phi4),
        ("phi5", phi5), ("phi6", phi6), ("phi7", phi7), ("phi8", phi8),
        ("phi9", phi9),
        ("zeta_V_n", build_zeta("V", G_N, n)),
        ("zeta_V_2n", build_zeta("V", G_2N, 2 * n)),
        ("epsilon_El_n", build_epsilon("E_l", F_N, n)),
        ("epsilon_Er_n", build_epsilon("E_r", F_N, n)),
    ]
    sentence = S.make_and([f for _, f in conjuncts])
    signature, size = S.signature_and_size(sentence)
    budget = SIZE_CONSTANT * (len(machine.states) + len(machine.alphabet)) ** 2
    budget *= max(n, 1) ** 2
    if size > budget:
        raise RuntimeError(
            f"internal consistency failure: encoding size {size} exceeds "
            f"the documented polynomial budget {budget}")
    return Encoding(n, tuple(conjuncts),
                    {name: arity for (name, arity) in signature.items()})


# ---------------------------------------------------------------------------
# Witness structure

def embed_and_expand(tree: ConfigTree, n: int) -> M.Structure:
    """The structure embedding an accepting configuration tree (two fresh
    elements per vertex) expanded with the bit predicate and the saturated
    guard extensions, materialized only on the named tuples.  Every tuple
    is made from the domain at its predicate's arity, so the structure is
    built without ``Structure``'s check."""
    verts = list(tree.vertices())
    cells = 1 << n
    for v in verts:
        if len(v.tape) != cells:
            raise MachineError(
                f"tape length {len(v.tape)} differs from 2^{n}")
    elems = {id(v): (f"0_v{i}", f"1_v{i}") for i, v in enumerate(verts)}
    domain = tuple(itertools.chain.from_iterable(elems.values()))
    # The words over {0_v, 1_v} of length n, in bin_word's order (LSB first).
    words = {key: [c[::-1] for c in itertools.product(pair, repeat=n)]
             for key, pair in elems.items()}

    ext: dict = {}  # name -> set of tuples, names in order of first use

    def add(name: str, tuples) -> None:
        ext.setdefault(name, set()).update(tuples)

    for v in verts:
        pair = elems[id(v)]
        add("V", [pair])
        add(_pred_q(v.state), [pair])
        add(O_PRED, [pair[1:]])
        vw = words[id(v)]
        for sym in dict.fromkeys(v.tape):
            add(_pred_s(sym), [w for w, s in zip(vw, v.tape) if s == sym])
        add("H", [vw[v.head]])
        add(G_N, [pair + w for w in vw])
        add(G_2N, itertools.product(*[(e,) for e in pair], *[pair] * (2 * n)))
    add("R", [elems[id(tree.root)]])
    for u, side, _tau, v in tree.edges():
        (a, b), (a2, b2) = elems[id(u)], elems[id(v)]
        mid = (b, a, a2, b2)
        add(f"E_{side}", [mid])
        # The parent's words, then mid, then the child's words.
        add(F_N, itertools.product(*[(a, b)] * n, *[(e,) for e in mid],
                                   *[(a2, b2)] * n))

    arities = {"V": 2, "R": 2, "E_l": 4, "E_r": 4, "H": n, O_PRED: 1,
               G_N: n + 2, G_2N: 2 * n + 2, F_N: 2 * n + 4}
    extensions = {}
    for name, tuples in ext.items():
        arity = arities.get(name, len(next(iter(tuples))))
        extensions[(name, arity)] = frozenset(tuples)
    return M.Structure._unchecked(domain, extensions)


def verify_encoding(machine: ATM, w: str, max_depth: int = 64) -> dict:
    """Simulate, build the witness structure, and model-check every conjunct
    of the encoding against it; reports per-conjunct verdicts and timings."""
    status, tree = simulate_atm(machine, w, max_depth=max_depth)
    if status != "accept":
        raise MachineError(
            f"machine {machine.name!r} did not accept {w!r}: {status}")
    n = len(w)
    encoding = encode_atm(machine, w)
    structure = embed_and_expand(tree, n)
    return check_conjuncts(encoding, structure,
                           machine=machine.name, input_word=w,
                           tree_size=tree.size())


def check_conjuncts(encoding: Encoding, structure: M.Structure,
                    **meta) -> dict:
    """Model-check each named conjunct, timing each; all must pass.

    A named conjunct's parts are its top-level conjuncts (the formula itself
    when it is not an ``And``).  Each distinct part is evaluated once, at its
    first occurrence, and its verdict reused wherever it occurs again: the
    structure does not change, so a closed sentence has one truth value on
    it.  The parts are tested in order and the first false one stops the
    conjunct, as ``evaluate`` on the whole ``And`` does, so the verdicts and
    the first error raised are the same.  A conjunct's ``millis`` covers
    only the parts it evaluates itself."""
    structure = M.complete_signature(structure, encoding.signature)
    verdicts: dict = {}

    def holds(part: Formula) -> bool:
        ok = verdicts.get(part)
        if ok is None:
            ok = verdicts[part] = M.evaluate(structure, part)
        return ok

    rows = []
    for name, formula in encoding.conjuncts:
        parts = formula.args if isinstance(formula, S.And) else (formula,)
        t0 = time.perf_counter()
        ok = all(map(holds, parts))
        millis = round((time.perf_counter() - t0) * 1000.0, 3)
        rows.append({"conjunct": name, "verdict": "pass" if ok else "fail",
                     "millis": millis})
    report = dict(meta)
    report["conjuncts"] = rows
    report["pass"] = all(r["verdict"] == "pass" for r in rows)
    return report
