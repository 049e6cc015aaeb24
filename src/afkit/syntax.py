"""Formula AST, concrete syntax, fragment classification, and the
variable-transform operators used throughout the toolkit.

Formulas have no equality, constants, or function symbols.  Variables are
written x1, x2, ... ; the names u and v are additionally accepted so that
two-variable input can be written naturally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union


class FormulaError(ValueError):
    """Domain error raised by formula operations."""


class ParseError(FormulaError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ResourceError(RuntimeError):
    """A transform exceeded its configured size budget."""


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple  # tuple of variable names

    @property
    def arity(self) -> int:
        return len(self.args)


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    args: tuple


@dataclass(frozen=True)
class Or:
    args: tuple


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Unit:
    """Inert wrapper used internally by the two-variable translations.
    Semantically transparent; stripped before any result is returned."""

    body: "Formula"


Formula = Union[Atom, Not, And, Or, Implies, Iff, Forall, Exists, Unit]

TRUE = And(())
FALSE = Or(())


def make_and(parts: Sequence[Formula]) -> Formula:
    flat: list = []
    for p in parts:
        if isinstance(p, And):
            flat.extend(p.args)
        else:
            flat.append(p)
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def make_or(parts: Sequence[Formula]) -> Formula:
    flat: list = []
    for p in parts:
        if isinstance(p, Or):
            flat.extend(p.args)
        else:
            flat.append(p)
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def var_index(name: str) -> Optional[int]:
    """The N of a variable written xN, or None for other names."""
    if len(name) >= 2 and name[0] == "x" and name[1:].isdigit():
        return int(name[1:])
    return None


def var(i: int) -> str:
    return f"x{i}"


def children(f: Formula) -> tuple:
    if isinstance(f, Atom):
        return ()
    if isinstance(f, (Not, Unit)):
        return (f.body,)
    if isinstance(f, (And, Or)):
        return f.args
    if isinstance(f, (Implies, Iff)):
        return (f.left, f.right)
    return (f.body,)


def rebuild(f: Formula, parts: Sequence[Formula]) -> Formula:
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not):
        return Not(parts[0])
    if isinstance(f, Unit):
        return Unit(parts[0])
    if isinstance(f, And):
        return And(tuple(parts))
    if isinstance(f, Or):
        return Or(tuple(parts))
    if isinstance(f, Implies):
        return Implies(parts[0], parts[1])
    if isinstance(f, Iff):
        return Iff(parts[0], parts[1])
    if isinstance(f, Forall):
        return Forall(f.var, parts[0])
    return Exists(f.var, parts[0])


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    for c in children(f):
        yield from subformulas(c)


def atoms(f: Formula) -> Iterator[Atom]:
    for g in subformulas(f):
        if isinstance(g, Atom):
            yield g


def node_count(f: Formula) -> int:
    return sum(1 for _ in subformulas(f))


def free_vars(f: Formula) -> frozenset:
    if isinstance(f, Atom):
        return frozenset(f.args)
    if isinstance(f, (Forall, Exists)):
        return free_vars(f.body) - {f.var}
    out: frozenset = frozenset()
    for c in children(f):
        out |= free_vars(c)
    return out


def is_sentence(f: Formula) -> bool:
    return not free_vars(f)


def is_quantifier_free(f: Formula) -> bool:
    return all(not isinstance(g, (Forall, Exists)) for g in subformulas(f))


def signature(f: Formula) -> dict:
    """Predicate name -> arity, inferred from the formula."""
    sig: dict = {}
    for a in atoms(f):
        prev = sig.setdefault(a.pred, a.arity)
        if prev != a.arity:
            raise FormulaError(
                f"predicate {a.pred} used with arities {prev} and {a.arity}"
            )
    return sig


def strip_units(f: Formula) -> Formula:
    if isinstance(f, Unit):
        return strip_units(f.body)
    return rebuild(f, [strip_units(c) for c in children(f)])


# ---------------------------------------------------------------------------
# Parser

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_OPS = ("<->", "->", "!", "&", "|", "(", ")", ",")
_KEYWORDS = {"forall", "exists"}


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list:
    tokens = []
    pos, line, bol = 0, 1, 0
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            pos += 1
            line += 1
            bol = pos
            continue
        if ch.isspace():
            pos += 1
            continue
        if ch == "#":
            nl = text.find("\n", pos)
            pos = len(text) if nl < 0 else nl
            continue
        col = pos - bol + 1
        m = _NAME.match(text, pos)
        if m:
            tokens.append(_Token("name", m.group(), line, col))
            pos = m.end()
            continue
        for op in _OPS:
            if text.startswith(op, pos):
                tokens.append(_Token("op", op, line, col))
                pos += len(op)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, len(text) - bol + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.arities: dict = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.take()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return t

    def fail(self, msg: str) -> None:
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def parse(self) -> Formula:
        f = self.iff()
        t = self.peek()
        if t.kind != "eof":
            self.fail(f"unexpected {t.text!r} after formula")
        return f

    def iff(self) -> Formula:
        left = self.implies()
        if self.peek().text == "<->":
            self.take()
            return Iff(left, self.iff())
        return left

    def implies(self) -> Formula:
        left = self.disj()
        if self.peek().text == "->":
            self.take()
            return Implies(left, self.implies())
        return left

    def disj(self) -> Formula:
        parts = [self.conj()]
        while self.peek().text == "|":
            self.take()
            parts.append(self.conj())
        return make_or(parts) if len(parts) > 1 else parts[0]

    def conj(self) -> Formula:
        parts = [self.unary()]
        while self.peek().text == "&":
            self.take()
            parts.append(self.unary())
        return make_and(parts) if len(parts) > 1 else parts[0]

    def unary(self) -> Formula:
        t = self.peek()
        if t.text == "!":
            self.take()
            return Not(self.unary())
        if t.text in _KEYWORDS:
            self.take()
            v = self.variable()
            # Quantifier scope extends maximally to the right.
            body = self.iff()
            cls = Forall if t.text == "forall" else Exists
            return cls(v, body)
        if t.text == "(":
            self.take()
            f = self.iff()
            self.expect(")")
            return f
        if t.kind == "name":
            return self.atom()
        self.fail(f"expected a formula, found {t.text or 'end of input'!r}")

    def variable(self) -> str:
        t = self.take()
        if t.kind != "name":
            raise ParseError(f"expected a variable, found {t.text!r}", t.line, t.col)
        idx = var_index(t.text)
        if idx == 0:
            raise ParseError("variable index 0 is not allowed", t.line, t.col)
        if idx is None and t.text not in ("u", "v"):
            raise ParseError(
                f"{t.text!r} is not a variable (use x1, x2, ... or u, v)",
                t.line, t.col)
        return t.text

    def atom(self) -> Formula:
        t = self.take()
        name = t.text
        if name == "true":
            return TRUE
        if name == "false":
            return FALSE
        if var_index(name) is not None or name in ("u", "v"):
            raise ParseError(f"variable {name!r} used as a formula", t.line, t.col)
        args: list = []
        if self.peek().text == "(":
            self.take()
            if self.peek().text != ")":
                args.append(self.variable())
                while self.peek().text == ",":
                    self.take()
                    args.append(self.variable())
            self.expect(")")
        prev = self.arities.setdefault(name, len(args))
        if prev != len(args):
            raise ParseError(
                f"predicate {name} used with arity {len(args)}, previously {prev}",
                t.line, t.col)
        return Atom(name, tuple(args))


def parse(text: str) -> Formula:
    return _Parser(text).parse()


_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Atom: 6}


def render(f: Formula) -> str:
    def rec(g: Formula, ctx: int) -> str:
        if isinstance(g, Atom):
            if not g.args:
                return g.pred
            return f"{g.pred}({','.join(g.args)})"
        if isinstance(g, Unit):
            return rec(g.body, ctx)
        if isinstance(g, (Forall, Exists)):
            kw = "forall" if isinstance(g, Forall) else "exists"
            # Quantifiers scope maximally right, so they always get
            # parenthesized in any operator context.
            s = f"{kw} {g.var} {rec(g.body, 0)}"
            return f"({s})" if ctx > 0 else s
        if isinstance(g, Not):
            return f"!{rec(g.body, _PREC[Not])}"
        if isinstance(g, And):
            if not g.args:
                return "true"
            s = " & ".join(rec(p, _PREC[And] + 1) for p in g.args)
            return f"({s})" if ctx > _PREC[And] else s
        if isinstance(g, Or):
            if not g.args:
                return "false"
            s = " | ".join(rec(p, _PREC[Or] + 1) for p in g.args)
            return f"({s})" if ctx > _PREC[Or] else s
        if isinstance(g, Implies):
            s = f"{rec(g.left, _PREC[Implies] + 1)} -> {rec(g.right, _PREC[Implies])}"
            return f"({s})" if ctx > _PREC[Implies] else s
        s = f"{rec(g.left, _PREC[Iff] + 1)} <-> {rec(g.right, _PREC[Iff])}"
        return f"({s})" if ctx > _PREC[Iff] else s

    return rec(f, 0)


# ---------------------------------------------------------------------------
# Fragment classification

@dataclass(frozen=True)
class FragmentReport:
    adjacent: bool
    min_k: Optional[int]
    variable_count: int
    fluted: bool
    ordered: bool
    forward: bool
    two_variable: bool
    guarded: bool
    guarded_adjacent: bool

    def as_dict(self) -> dict:
        return {
            "adjacent": self.adjacent,
            "min_k": self.min_k,
            "variable_count": self.variable_count,
            "fluted": self.fluted,
            "ordered": self.ordered,
            "forward": self.forward,
            "two_variable": self.two_variable,
            "guarded": self.guarded,
            "guarded_adjacent": self.guarded_adjacent,
        }


def index_normal(f: Formula) -> Optional[Formula]:
    """Rename bound variables so the quantifier at nesting level k binds
    x_{k+1}, with level counted from the highest free-variable index.
    Returns None when the formula cannot be brought to that shape (a free
    variable is not of the form xN)."""
    fv = free_vars(f)
    env: dict = {}
    base = 0
    for name in fv:
        idx = var_index(name)
        if idx is None:
            return None
        env[name] = name
        base = max(base, idx)

    def rec(g: Formula, env: dict, level: int) -> Formula:
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(env[a] for a in g.args))
        if isinstance(g, (Forall, Exists)):
            env2 = dict(env)
            env2[g.var] = var(level + 1)
            body = rec(g.body, env2, level + 1)
            cls = Forall if isinstance(g, Forall) else Exists
            return cls(var(level + 1), body)
        return rebuild(g, [rec(c, env, level) for c in children(g)])

    return rec(f, env, base)


def _word_of(atom: Atom) -> Optional[tuple]:
    idx = tuple(var_index(a) for a in atom.args)
    if any(i is None for i in idx):
        return None
    return idx


def _word_adjacent(w: tuple) -> bool:
    return all(abs(w[i + 1] - w[i]) <= 1 for i in range(len(w) - 1))


class _Levels:
    """The set of k with membership at level k, as a finite part within
    [0, cap] plus an 'all levels >= threshold' tail."""

    __slots__ = ("finite", "tail")

    def __init__(self, finite: frozenset, tail: Optional[int]):
        self.finite = finite
        self.tail = tail

    def __contains__(self, k: int) -> bool:
        return k in self.finite or (self.tail is not None and k >= self.tail)

    def min(self) -> Optional[int]:
        vals = set(self.finite)
        if self.tail is not None:
            vals.add(self.tail)
        return min(vals) if vals else None

    def intersect(self, other: "_Levels") -> "_Levels":
        if self.tail is not None and other.tail is not None:
            tail = max(self.tail, other.tail)
        else:
            tail = None
        hi = max([t for t in (self.tail, other.tail) if t is not None],
                 default=0)
        finite = frozenset(
            k for k in self.finite | other.finite |
            frozenset(range(hi + 1))
            if k in self and k in other and (tail is None or k < tail)
        )
        return _Levels(finite, tail)


_NONE_LEVELS = _Levels(frozenset(), None)


def _af_levels(f: Formula) -> _Levels:
    if isinstance(f, Atom):
        w = _word_of(f)
        if w is None or not _word_adjacent(w):
            return _NONE_LEVELS
        return _Levels(frozenset(), max(w, default=0))
    if isinstance(f, Not):
        return _af_levels(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        out = _Levels(frozenset(), 0)
        for c in children(f):
            out = out.intersect(_af_levels(c))
        return out
    if isinstance(f, (Forall, Exists)):
        j = var_index(f.var)
        if j is None:
            return _NONE_LEVELS
        body = _af_levels(f.body)
        return _Levels(frozenset({j - 1}) if j in body else frozenset(), None)
    raise FormulaError("unexpected node in classification")


def _shape_check(f: Formula, mode: str) -> bool:
    """Suffix (fluted), prefix (ordered), or infix (forward) discipline on an
    index-normal formula."""

    def rec(g: Formula, k: int) -> bool:
        if isinstance(g, Atom):
            w = _word_of(g)
            if w is None:
                return False
            m = len(w)
            if m == 0:
                return True
            if mode == "fluted":
                return w == tuple(range(k - m + 1, k + 1))
            if mode == "ordered":
                return w == tuple(range(1, m + 1))
            return (w == tuple(range(w[0], w[0] + m)) and w[-1] <= k
                    and w[0] >= 1)
        if isinstance(g, (Forall, Exists)):
            j = var_index(g.var)
            return j == k + 1 and rec(g.body, k + 1)
        return all(rec(c, k) for c in children(g))

    base = max((var_index(n) or 0 for n in free_vars(f)), default=0)
    return rec(f, base)


def _guarded(f: Formula) -> bool:
    def rec(g: Formula) -> bool:
        if isinstance(g, Atom):
            return True
        if isinstance(g, (Not, And, Or, Implies, Iff)):
            return all(rec(c) for c in children(g))
        chain = []
        cls = type(g)
        h = g
        while isinstance(h, cls):
            chain.append(h.var)
            h = h.body
        if cls is Forall:
            if not isinstance(h, Implies) or not isinstance(h.left, Atom):
                return False
            guard, body = h.left, h.right
            needed = set(chain) | set(free_vars(body))
            return needed <= set(guard.args) and rec(body)
        if isinstance(h, Atom):
            return set(chain) <= set(h.args)
        if isinstance(h, And):
            for i, conj in enumerate(h.args):
                if not isinstance(conj, Atom):
                    continue
                rest = [c for j, c in enumerate(h.args) if j != i]
                needed = set(chain)
                for c in rest:
                    needed |= free_vars(c)
                if needed <= set(conj.args) and all(rec(c) for c in rest):
                    return True
        return False

    return rec(f)


def classify(f: Formula) -> FragmentReport:
    normal = index_normal(f)
    if normal is None:
        levels = _NONE_LEVELS
    else:
        levels = _af_levels(normal)
    min_k = levels.min()
    adjacent = min_k is not None
    names = {a for atom in atoms(normal or f) for a in atom.args}
    names |= {g.var for g in subformulas(normal or f)
              if isinstance(g, (Forall, Exists))}
    fluted = normal is not None and _shape_check(normal, "fluted")
    ordered = normal is not None and _shape_check(normal, "ordered")
    forward = normal is not None and _shape_check(normal, "forward")
    orig_names = {a for atom in atoms(f) for a in atom.args}
    orig_names |= {g.var for g in subformulas(f)
                   if isinstance(g, (Forall, Exists))}
    guarded = _guarded(f)
    return FragmentReport(
        adjacent=adjacent,
        min_k=min_k,
        variable_count=len(names),
        fluted=fluted,
        ordered=ordered,
        forward=forward,
        two_variable=len(orig_names) <= 2,
        guarded=guarded,
        guarded_adjacent=guarded and adjacent,
    )


# ---------------------------------------------------------------------------
# Variable transforms on quantifier-free formulas

def _require_qf(f: Formula) -> None:
    if not is_quantifier_free(f):
        raise FormulaError("operation requires a quantifier-free formula")


def rename_indices(f: Formula, mapping) -> Formula:
    """Apply an index-to-index mapping to every variable occurrence."""
    _require_qf(f)

    def rec(g: Formula) -> Formula:
        if isinstance(g, Atom):
            new = []
            for a in g.args:
                i = var_index(a)
                if i is None:
                    raise FormulaError(f"variable {a!r} is not index-named")
                new.append(var(mapping(i)))
            return Atom(g.pred, tuple(new))
        return rebuild(g, [rec(c) for c in children(g)])

    return rec(f)


def substitute_walk(chi: Formula, g: Sequence[int]) -> Formula:
    """chi(x_{g(1)} ... x_{g(l)}): replace x_i by x_{g(i)} throughout."""
    if not _word_adjacent(tuple(g)):
        raise FormulaError(f"walk {list(g)} is not adjacent")

    def mapping(i: int) -> int:
        if not 1 <= i <= len(g):
            raise FormulaError(f"variable x{i} outside the walk's domain [1, {len(g)}]")
        return g[i - 1]

    return rename_indices(chi, mapping)


def max_index(f: Formula) -> int:
    out = 0
    for a in atoms(f):
        for name in a.args:
            i = var_index(name)
            if i is not None:
                out = max(out, i)
    return out


def reverse_vars(chi: Formula, nvars: Optional[int] = None) -> Formula:
    """chi with the variable order flipped: x_h becomes x_{n-h+1} over the
    block x_1..x_n."""
    n = max_index(chi) if nvars is None else nvars
    return rename_indices(chi, lambda i: n - i + 1)


def hat(chi: Formula, nvars: Optional[int] = None) -> Formula:
    return make_and([chi, reverse_vars(chi, nvars)])


def shift_up(eta: Formula, by: int = 1) -> Formula:
    return rename_indices(eta, lambda i: i + by)


# ---------------------------------------------------------------------------
# CNF/DNF over literals, with units treated as opaque atoms

_DEFAULT_NODE_CAP = 10 ** 6


def _nnf(f: Formula, neg: bool) -> Formula:
    """Negation normal form over atom and unit literals.  Quantifiers must
    already be inside units."""
    if isinstance(f, Atom):
        return Not(f) if neg else f
    if isinstance(f, Unit):
        # Units are inert: a negation is absorbed rather than expanded.
        return Unit(Not(f.body)) if neg else f
    if isinstance(f, Not):
        return _nnf(f.body, not neg)
    if isinstance(f, And):
        parts = [_nnf(c, neg) for c in f.args]
        return make_or(parts) if neg else make_and(parts)
    if isinstance(f, Or):
        parts = [_nnf(c, neg) for c in f.args]
        return make_and(parts) if neg else make_or(parts)
    if isinstance(f, Implies):
        return _nnf(make_or([Not(f.left), f.right]), neg)
    if isinstance(f, Iff):
        both = make_and([Implies(f.left, f.right), Implies(f.right, f.left)])
        return _nnf(both, neg)
    raise FormulaError("quantifier encountered outside a unit")


def _clauses(f: Formula, mode: str, cap: int) -> list:
    """CNF (mode 'cnf') or DNF (mode 'dnf') clause lists of literal lists.
    Literals are atoms, units, or their negations."""

    def is_literal(g: Formula) -> bool:
        if isinstance(g, Not):
            g = g.body
        return isinstance(g, (Atom, Unit))

    inner, outer = (Or, And) if mode == "cnf" else (And, Or)

    def rec(g: Formula) -> list:
        if is_literal(g):
            return [[g]]
        if isinstance(g, outer):
            out = []
            for c in g.args:
                out.extend(rec(c))
                if len(out) > cap:
                    raise ResourceError("normal-form conversion exceeded node cap")
            return out
        if isinstance(g, inner):
            combos = [[]]
            for c in g.args:
                sub = rec(c)
                combos = [a + b for a in combos for b in sub]
                if len(combos) * max(1, len(sub)) > cap:
                    raise ResourceError("normal-form conversion exceeded node cap")
            return combos
        raise FormulaError("unexpected node during clause conversion")

    return rec(_nnf(f, False))


# ---------------------------------------------------------------------------
# Two-variable logic <-> adjacent form

def fo2_to_af(f: Formula, cap: int = _DEFAULT_NODE_CAP) -> Formula:
    """Translate a two-variable formula (over variable names u, v or x1, x2)
    into an equivalent adjacent formula over x1, x2, ...

    Pipeline: sequence the quantifiers properly (unit-guarded clause
    rewriting), then assign variable indices top-down so that nested
    quantifiers bind increasing indices.
    """
    names = {a for atom in atoms(f) for a in atom.args}
    names |= {g.var for g in subformulas(f) if isinstance(g, (Forall, Exists))}
    if len(names) > 2:
        raise FormulaError("input uses more than two variable names")
    # Accept x1/x2 input by mapping onto u/v.
    translation = {}
    for name in sorted(names, key=str):
        if name in ("u", "v"):
            translation[name] = name
    for name in sorted(names, key=str):
        if name not in translation:
            free_slot = "u" if "u" not in translation.values() else "v"
            translation[name] = free_slot
    f = _rename_all(f, translation)

    sequenced = strip_units(_properly_sequence(f, cap))
    return _assign_indices(sequenced)


def _rename_all(f: Formula, table: dict) -> Formula:
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(table.get(a, a) for a in f.args))
    if isinstance(f, (Forall, Exists)):
        cls = type(f)
        return cls(table.get(f.var, f.var), _rename_all(f.body, table))
    return rebuild(f, [_rename_all(c, table) for c in children(f)])


def _properly_sequence(f: Formula, cap: int) -> Formula:
    """Rewrite so no variable is requantified without the other variable
    being quantified in between.  Quantified subformulas end up in units."""
    if isinstance(f, (Forall, Exists)):
        body = _properly_sequence(f.body, cap)
        y = f.var
        if isinstance(f, Forall):
            conjuncts = []
            for clause in _clauses(body, "cnf", cap):
                with_y = [l for l in clause if y in free_vars(l)]
                rest = [l for l in clause if y not in free_vars(l)]
                if not with_y:
                    conjuncts.append(make_or(rest))
                else:
                    inner = Unit(Forall(y, make_or(with_y)))
                    conjuncts.append(make_or([inner] + rest))
            return make_and(conjuncts)
        disjuncts = []
        for clause in _clauses(body, "dnf", cap):
            with_y = [l for l in clause if y in free_vars(l)]
            rest = [l for l in clause if y not in free_vars(l)]
            if not with_y:
                disjuncts.append(make_and(clause))
            else:
                inner = Unit(Exists(y, make_and(with_y)))
                disjuncts.append(make_and([inner] + rest))
        return make_or(disjuncts)
    return rebuild(f, [_properly_sequence(c, cap) for c in children(f)])


def _assign_indices(f: Formula) -> Formula:
    """Top-down index assignment for a properly sequenced two-variable
    formula: a quantifier binds one more than the current index of the other
    variable."""
    env: dict = {}
    for name in sorted(free_vars(f), key=str):
        env[name] = len(env) + 1

    def rec(g: Formula, env: dict) -> Formula:
        if isinstance(g, Atom):
            missing = [a for a in g.args if a not in env]
            if missing:
                raise FormulaError(f"unbound variable {missing[0]!r}")
            return Atom(g.pred, tuple(var(env[a]) for a in g.args))
        if isinstance(g, (Forall, Exists)):
            other = [i for n, i in env.items() if n != g.var]
            idx = (max(other) if other else 0) + 1
            env2 = dict(env)
            env2[g.var] = idx
            cls = type(g)
            return cls(var(idx), rec(g.body, env2))
        return rebuild(g, [rec(c, env) for c in children(g)])

    return rec(f, env)


def af_to_fo2(f: Formula, cap: int = _DEFAULT_NODE_CAP) -> Formula:
    """Translate an adjacent formula over predicates of arity at most 2 into
    an equivalent formula using only the variable names u and v.

    Pipeline: separate each quantifier's matrix into literals with and
    without the bound variable (unit-guarded clause rewriting), drop vacuous
    quantifiers, then rename so only two names occur.
    """
    for a in atoms(f):
        if a.arity > 2:
            raise FormulaError(
                f"predicate {a.pred} has arity {a.arity}; at most 2 supported")
    normal = index_normal(f)
    if normal is None or _af_levels(normal).min() is None:
        raise FormulaError("input is not an adjacent formula")
    separated = strip_units(_separate_units(normal, cap))
    for g in subformulas(separated):
        if len(free_vars(g)) > 2:
            raise FormulaError("separation left a subformula with 3+ free variables")
    return _two_name_rename(_drop_vacuous(separated))


def _separate_units(f: Formula, cap: int) -> Formula:
    if isinstance(f, (Forall, Exists)):
        body = _separate_units(f.body, cap)
        y = f.var
        if isinstance(f, Forall):
            conjuncts = []
            for clause in _clauses(body, "cnf", cap):
                with_y = [l for l in clause if y in free_vars(l)]
                rest = [l for l in clause if y not in free_vars(l)]
                if not with_y:
                    conjuncts.append(make_or(rest))
                else:
                    conjuncts.append(
                        make_or([Unit(Forall(y, make_or(with_y)))] + rest))
            return make_and(conjuncts)
        disjuncts = []
        for clause in _clauses(body, "dnf", cap):
            with_y = [l for l in clause if y in free_vars(l)]
            rest = [l for l in clause if y not in free_vars(l)]
            if not with_y:
                disjuncts.append(make_and(clause))
            else:
                disjuncts.append(
                    make_and([Unit(Exists(y, make_and(with_y)))] + rest))
        return make_or(disjuncts)
    return rebuild(f, [_separate_units(c, cap) for c in children(f)])


def _drop_vacuous(f: Formula) -> Formula:
    if isinstance(f, (Forall, Exists)):
        body = _drop_vacuous(f.body)
        if f.var not in free_vars(body):
            return body
        return rebuild(f, [body])
    return rebuild(f, [_drop_vacuous(c) for c in children(f)])


def _two_name_rename(f: Formula) -> Formula:
    def rec(g: Formula, env: dict) -> Formula:
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(env[a] for a in g.args))
        if isinstance(g, (Forall, Exists)):
            taken = {env[n] for n in free_vars(g.body) if n != g.var and n in env}
            slot = "u" if "u" not in taken else "v"
            if slot in taken:
                raise FormulaError("two names do not suffice for this formula")
            env2 = dict(env)
            env2[g.var] = slot
            cls = type(g)
            return cls(slot, rec(g.body, env2))
        return rebuild(g, [rec(c, env) for c in children(g)])

    env = {}
    for name in sorted(free_vars(f), key=str):
        if len(env) >= 2:
            raise FormulaError("more than two free variables")
        env[name] = "u" if not env else "v"
    return rec(f, env)
