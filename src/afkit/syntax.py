"""Formula AST, concrete syntax, fragment classification, and the
variable-transform operators used throughout the toolkit.

Formulas have no equality, constants, or function symbols.  Variables are
written x1, x2, ... ; the names u and v are additionally accepted so that
two-variable input can be written naturally.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import asdict, dataclass
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


@functools.lru_cache(maxsize=1 << 12)
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
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (Forall, Exists)):
            return False
        if not isinstance(g, Atom):
            stack.extend(children(g))
    return True


def signature(f: Formula) -> dict:
    """Predicate name -> arity, inferred from the formula."""
    return signature_and_size(f)[0]


def signature_and_size(f: Formula) -> tuple:
    """``(signature(f), node_count(f))`` from one walk of f."""
    sig: dict = {}
    size = 0
    stack = [f]
    while stack:
        g = stack.pop()
        size += 1
        if isinstance(g, Atom):
            prev = sig.setdefault(g.pred, g.arity)
            if prev != g.arity:
                raise FormulaError(f"predicate {g.pred} used with arities "
                                   f"{prev} and {g.arity}")
        else:
            stack.extend(reversed(children(g)))
    return sig, size


def strip_units(f: Formula) -> Formula:
    if isinstance(f, Unit):
        return strip_units(f.body)
    return rebuild(f, [strip_units(c) for c in children(f)])


def _var_names(f: Formula) -> set:
    """Every variable name of f: atom arguments and quantified variables."""
    names = {a for atom in atoms(f) for a in atom.args}
    names.update(g.var for g in subformulas(f)
                 if isinstance(g, (Forall, Exists)))
    return names


def _rebind(f: Formula, env: dict, bind) -> Formula:
    """Rename the variables of f: atom arguments through ``env`` (name ->
    new name), and each quantifier's variable to ``bind(quantifier, env)``
    inside its scope."""
    if isinstance(f, Atom):
        missing = [a for a in f.args if a not in env]
        if missing:
            raise FormulaError(f"unbound variable {missing[0]!r}")
        return Atom(f.pred, tuple(env[a] for a in f.args))
    if isinstance(f, (Forall, Exists)):
        name = bind(f, env)
        return type(f)(name, _rebind(f.body, {**env, f.var: name}, bind))
    return rebuild(f, [_rebind(c, env, bind) for c in children(f)])


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
        if idx is not None and t.text[1] == "0":
            raise ParseError(f"variable {t.text!r} has a leading zero",
                             t.line, t.col)
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
        return asdict(self)


def index_normal(f: Formula) -> Optional[Formula]:
    """Rename bound variables so the quantifier at nesting level k binds
    x_{k+1}, with level counted from the highest free-variable index.
    Returns None when the formula cannot be brought to that shape (a free
    variable is not of the form xN)."""
    fv = free_vars(f)
    if any(var_index(name) is None for name in fv):
        return None
    # The largest index in scope is the free-variable base plus the depth.
    return _rebind(f, {name: name for name in fv},
                   lambda q, env: var(max(map(var_index, env.values()),
                                          default=0) + 1))


def _word_of(atom: Atom) -> Optional[tuple]:
    idx = tuple(var_index(a) for a in atom.args)
    if any(i is None for i in idx):
        return None
    return idx


def _word_adjacent(w: tuple) -> bool:
    return all(abs(w[i + 1] - w[i]) <= 1 for i in range(len(w) - 1))


def _af_levels(f: Formula) -> tuple:
    """The levels k at which f belongs to the adjacent fragment, as an
    interval ``(lo, hi)`` with ``hi`` possibly ``math.inf``; ``lo > hi``
    means none.  Intervals suffice: an adjacent atom holds every level from
    its largest index up, a quantifier on x_j exactly level j - 1 (when its
    body holds level j) or none, and a connective the intersection of its
    children's intervals."""
    if isinstance(f, Atom):
        w = _word_of(f)
        if w is None or not _word_adjacent(w):
            return (1, 0)
        return (max(w, default=0), math.inf)
    if isinstance(f, Not):
        return _af_levels(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        lo, hi = 0, math.inf
        for c in children(f):
            c_lo, c_hi = _af_levels(c)
            lo, hi = max(lo, c_lo), min(hi, c_hi)
        return (lo, hi)
    if isinstance(f, (Forall, Exists)):
        j = var_index(f.var)
        if j is None:
            return (1, 0)
        lo, hi = _af_levels(f.body)
        return (j - 1, j - 1) if lo <= j <= hi else (1, 0)
    raise FormulaError("unexpected node in classification")


def adjacent_form(f: Formula) -> Optional[Formula]:
    """The index-normal form of f when f is adjacent, and None otherwise."""
    normal = index_normal(f)
    if normal is None:
        return None
    lo, hi = _af_levels(normal)
    return normal if lo <= hi else None


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


def quantifier_block(f: Formula) -> tuple:
    """The block of like quantifiers at the top of f: its class (``Forall``
    or ``Exists``), its variables from the outside in, and its body."""
    cls, names = type(f), []
    while isinstance(f, cls):
        names.append(f.var)
        f = f.body
    return cls, names, f


def guard_splits(cls, body: Formula) -> Iterator[tuple]:
    """The candidate ``(guard, rest)`` splits of the body of a ``cls``
    block, after Andreka, van Benthem and Nemeti: under forall, the
    antecedent atom of ``g -> phi`` with rest ``(phi,)``; under exists, each
    atom conjunct with the other conjuncts, or the body itself with no rest
    when it is one atom.  A split guards the block when its guard mentions
    the block's variables."""
    if cls is Forall:
        if isinstance(body, Implies) and isinstance(body.left, Atom):
            yield body.left, (body.right,)
    elif isinstance(body, Atom):
        yield body, ()
    elif isinstance(body, And):
        for i, conj in enumerate(body.args):
            if isinstance(conj, Atom):
                yield conj, body.args[:i] + body.args[i + 1:]


def _guarded(f: Formula) -> bool:
    if isinstance(f, Atom):
        return True
    if isinstance(f, (Not, And, Or, Implies, Iff)):
        return all(_guarded(c) for c in children(f))
    cls, names, body = quantifier_block(f)
    for guard, rest in guard_splits(cls, body):
        needed = set(names).union(*map(free_vars, rest))
        if needed <= set(guard.args) and all(map(_guarded, rest)):
            return True
    return False


def classify(f: Formula) -> FragmentReport:
    normal = index_normal(f)
    lo, hi = (1, 0) if normal is None else _af_levels(normal)
    adjacent = lo <= hi
    min_k = lo if adjacent else None
    fluted = normal is not None and _shape_check(normal, "fluted")
    ordered = normal is not None and _shape_check(normal, "ordered")
    forward = normal is not None and _shape_check(normal, "forward")
    guarded = _guarded(f)
    return FragmentReport(
        adjacent=adjacent,
        min_k=min_k,
        variable_count=len(_var_names(normal or f)),
        fluted=fluted,
        ordered=ordered,
        forward=forward,
        two_variable=len(_var_names(f)) <= 2,
        guarded=guarded,
        guarded_adjacent=guarded and adjacent,
    )


# ---------------------------------------------------------------------------
# Variable transforms on quantifier-free formulas

def rename_indices(f: Formula, mapping) -> Formula:
    """Apply an index-to-index mapping to every variable occurrence of a
    quantifier-free formula; each distinct variable is mapped once."""
    names: dict = {}  # old name -> new name

    def rename(a: str) -> str:
        if a not in names:
            i = var_index(a)
            if i is None:
                raise FormulaError(f"variable {a!r} is not index-named")
            names[a] = var(mapping(i))
        return names[a]

    def rec(g: Formula) -> Formula:
        if isinstance(g, Atom):
            return Atom(g.pred, tuple([rename(a) for a in g.args]))
        if isinstance(g, (Forall, Exists)):
            raise FormulaError("operation requires a quantifier-free formula")
        return rebuild(g, [rec(c) for c in children(g)])

    return rec(f)


def substitute_walk(chi: Formula, g: Sequence[int]) -> Formula:
    """chi(x_{g(1)} ... x_{g(l)}): replace x_i by x_{g(i)} throughout."""
    return rename_indices(chi, walk_mapping(g, 0))


def walk_mapping(g: Sequence[int], shift: int):
    """The index map i -> g(i) + shift of a walk, for ``rename_indices``:
    ``shift_up(substitute_walk(chi, g), shift)`` in one renaming.  Raises
    ``FormulaError`` if g is not adjacent, and when applied to an index
    outside g's domain."""
    if not _word_adjacent(tuple(g)):
        raise FormulaError(f"walk {list(g)} is not adjacent")

    def mapping(i: int) -> int:
        if not 1 <= i <= len(g):
            raise FormulaError(f"variable x{i} outside the walk's domain [1, {len(g)}]")
        return g[i - 1] + shift

    return mapping


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

_NODE_CAP = 10 ** 6


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


def _clauses(f: Formula, mode: str) -> list:
    """CNF (mode 'cnf') or DNF (mode 'dnf') clause lists of literal lists.
    Literals are atoms, units, or their negations."""

    def is_literal(g: Formula) -> bool:
        if isinstance(g, Not):
            g = g.body
        return isinstance(g, (Atom, Unit))

    inner, outer = (Or, And) if mode == "cnf" else (And, Or)
    stage = f"{mode.upper()} conversion"

    def rec(g: Formula) -> list:
        if is_literal(g):
            return [[g]]
        if isinstance(g, outer):
            out = []
            for c in g.args:
                out.extend(rec(c))
                if len(out) > _NODE_CAP:
                    raise ResourceError(
                        f"{stage}: {len(out)} clauses exceeds the node cap "
                        f"of {_NODE_CAP}")
            return out
        if isinstance(g, inner):
            combos = [[]]
            for c in g.args:
                sub = rec(c)
                # Checked before the product is built, which can be far
                # larger than the cap.
                size = len(combos) * len(sub) * max(1, len(sub))
                if size > _NODE_CAP:
                    raise ResourceError(
                        f"{stage}: the product of {len(combos)} by "
                        f"{len(sub)} clauses (size {size}) exceeds the node "
                        f"cap of {_NODE_CAP}")
                combos = [a + b for a in combos for b in sub]
            return combos
        raise FormulaError("unexpected node during clause conversion")

    return rec(_nnf(f, False))


# ---------------------------------------------------------------------------
# Two-variable logic <-> adjacent form

def fo2_to_af(f: Formula) -> Formula:
    """Translate a two-variable formula (over variable names u, v or x1, x2)
    into an equivalent adjacent formula over x1, x2, ...

    Pipeline: sequence the quantifiers properly (unit-guarded clause
    rewriting), then assign variable indices top-down so that nested
    quantifiers bind increasing indices.
    """
    names = _var_names(f)
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
    f = _rebind(f, translation, lambda q, env: translation[q.var])

    sequenced = strip_units(_split_clauses(f))
    return _assign_indices(sequenced)


def _split_clauses(f: Formula) -> Formula:
    """Rewrite so that each quantifier's CNF (forall) or DNF (exists) clauses
    keep the literals without its variable outside its scope.  No variable
    is then requantified without the other being quantified in between.
    Quantified subformulas end up in units."""
    if isinstance(f, (Forall, Exists)):
        body = _split_clauses(f.body)
        y = f.var
        mode, inner, outer = (("cnf", make_or, make_and) if isinstance(f, Forall)
                              else ("dnf", make_and, make_or))
        parts = []
        for clause in _clauses(body, mode):
            with_y = [l for l in clause if y in free_vars(l)]
            rest = [l for l in clause if y not in free_vars(l)]
            if with_y:
                rest = [Unit(type(f)(y, inner(with_y)))] + rest
            parts.append(inner(rest))
        return outer(parts)
    return rebuild(f, [_split_clauses(c) for c in children(f)])


def _assign_indices(f: Formula) -> Formula:
    """Top-down index assignment for a properly sequenced two-variable
    formula: a quantifier binds one more than the current index of the other
    variable."""
    start = {name: var(i) for i, name in
             enumerate(sorted(free_vars(f), key=str), 1)}
    return _rebind(f, start, lambda q, env: var(max(
        (var_index(x) for n, x in env.items() if n != q.var), default=0) + 1))


def af_to_fo2(f: Formula) -> Formula:
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
    normal = adjacent_form(f)
    if normal is None:
        raise FormulaError("input is not an adjacent formula")
    separated = strip_units(_split_clauses(normal))
    for g in subformulas(separated):
        if len(free_vars(g)) > 2:
            raise FormulaError("separation left a subformula with 3+ free variables")
    return _two_name_rename(_drop_vacuous(separated))


def _drop_vacuous(f: Formula) -> Formula:
    if isinstance(f, (Forall, Exists)):
        body = _drop_vacuous(f.body)
        if f.var not in free_vars(body):
            return body
        return rebuild(f, [body])
    return rebuild(f, [_drop_vacuous(c) for c in children(f)])


def _two_name_rename(f: Formula) -> Formula:
    """Rename to u and v: no subformula has three free variables here."""
    fv = sorted(free_vars(f), key=str)

    def bind(q: Formula, env: dict) -> str:
        taken = {env[n] for n in free_vars(q.body) if n != q.var and n in env}
        return "u" if "u" not in taken else "v"

    return _rebind(f, dict(zip(fv, ("u", "v"))), bind)
