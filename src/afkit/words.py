"""Words, adjacent walks, generation, and primitive generators.

A *word* is a tuple of opaque symbols (any hashable, normally one-character
strings).  A *walk* is a sequence of 1-based positions; it is adjacent when
consecutive positions differ by at most one.  Applying a walk to a word reads
off the letters visited.  A word ``a`` generates ``c`` when some surjective
adjacent walk on ``a`` spells out ``c``; the shortest such ``a`` is unique up
to reversal, which makes "primitive generator" and "primitive length"
well-defined notions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Iterator, Optional, Sequence

Symbol = Hashable
Word = tuple  # tuple of Symbol
Walk = tuple  # tuple of int, 1-based positions


class WordError(ValueError):
    """Domain error raised by word/walk operations."""


def word(text: str) -> Word:
    """Parse a word from text: either one symbol per character, or
    comma-separated multi-character symbols."""
    if "," in text:
        return tuple(s for s in text.split(",") if s)
    return tuple(text)


def format_word(w: Word) -> str:
    parts = [str(s) for s in w]
    if any(len(p) != 1 for p in parts):
        return ",".join(parts)
    return "".join(parts)


def reverse(w: Word) -> Word:
    return tuple(reversed(w))


def is_adjacent(f: Sequence[int]) -> bool:
    """True iff consecutive steps differ by at most 1.  The empty walk is
    adjacent."""
    return all(abs(f[i + 1] - f[i]) <= 1 for i in range(len(f) - 1))


def is_surjective(f: Sequence[int], k: int) -> bool:
    """True iff f hits every position of [1, k]."""
    return set(f) == set(range(1, k + 1)) if k else not f


def apply_walk(w: Word, f: Sequence[int]) -> Word:
    """Read off the letters of ``w`` along the walk ``f`` (1-based)."""
    n = len(w)
    for idx, step in enumerate(f):
        if not 1 <= step <= n:
            raise WordError(
                f"walk step {idx + 1} has value {step}, outside [1, {n}]"
            )
    return tuple(w[p - 1] for p in f)


def compose(g: Sequence[int], f: Sequence[int]) -> Walk:
    """The walk g∘f: position i maps to g[f(i)].  Adjacent when both are."""
    return tuple([g[p - 1] for p in f])


@lru_cache(maxsize=None)
def walks(m: int, k: int, end_at: Optional[int] = None) -> tuple:
    """All adjacent walks of length m with positions in [1, k], optionally
    constrained to end at position ``end_at``.  Deterministic order: start
    positions ascending, then steps tried stay, left, right.  One tuple per
    (m, k, end_at), built once per process from the walks one shorter."""
    if end_at is not None:
        return tuple(f for f in walks(m, k) if f and f[-1] == end_at)
    if m <= 1:
        return ((),) if m == 0 else tuple((p,) for p in range(1, k + 1))
    return tuple(f + (q,) for f in walks(m - 1, k)
                 for q in (f[-1], f[-1] - 1, f[-1] + 1) if 1 <= q <= k)


def surjective_walks(m: int, k: int) -> Iterator[Walk]:
    for f in walks(m, k):
        if is_surjective(f, k):
            yield f


def generates(a: Word, c: Word) -> Optional[Walk]:
    """Return the first surjective adjacent walk f with a^f = c, or None.

    Search order: start positions ascending; from each state the next step is
    tried in the order stay, left, right.
    """
    k, m = len(a), len(c)
    if m < k:
        return None
    if k == 0:
        return () if m == 0 else None

    def extend(prefix: list, seen: set) -> Optional[Walk]:
        i = len(prefix)
        if i == m:
            return tuple(prefix) if len(seen) == k else None
        # Not enough steps left to reach every unvisited position.
        missing = k - len(seen)
        if missing > m - i:
            return None
        p = prefix[-1]
        for q in (p, p - 1, p + 1):
            if 1 <= q <= k and a[q - 1] == c[i]:
                prefix.append(q)
                added = q not in seen
                seen.add(q)
                result = extend(prefix, seen)
                if result is not None:
                    return result
                if added:
                    seen.discard(q)
                prefix.pop()
        return None

    for start in range(1, k + 1):
        if a[start - 1] == c[0]:
            result = extend([start], {start})
            if result is not None:
                return result
    return None


def _generator_search(c: Word, max_len: int) -> Optional[Word]:
    """Find a generator of ``c`` of length at most ``max_len``.

    States are (index into c, offset of the current position within the
    partially built generator, the generator built so far); memoised so that
    revisiting an equivalent partial state is pruned.
    """
    m = len(c)
    # State: (i, pos, interval) -- interval is the contiguous word built so
    # far, pos is the 0-based index of the walk's current position within it.
    seen: set = set()
    stack = [(1, 0, (c[0],))]
    while stack:
        i, pos, interval = stack.pop()
        if i == m:
            return interval
        letter = c[i]
        for delta in (1, -1, 0):
            q = pos + delta
            if 0 <= q < len(interval):
                if interval[q] != letter:
                    continue
                nxt = (i + 1, q, interval)
            elif q == -1:
                if len(interval) >= max_len:
                    continue
                nxt = (i + 1, 0, (letter,) + interval)
            else:  # q == len(interval)
                if len(interval) >= max_len:
                    continue
                nxt = (i + 1, q, interval + (letter,))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return None


def symbol_order(c: Word) -> dict:
    """Rank symbols by first appearance in ``c``."""
    order: dict = {}
    for s in c:
        if s not in order:
            order[s] = len(order)
    return order


def canonical(w: Word, order: dict) -> Word:
    """The lexicographically least of ``w`` and its reversal under the given
    symbol ranking."""
    rev = reverse(w)
    key = lambda v: tuple(order[s] for s in v)
    return min(w, rev, key=key)


def primitive_generator(c: Word) -> Word:
    """The canonical primitive generator of ``c``: the shortest word
    generating it, represented by the lexicographically least of the
    generator and its reversal under first-appearance symbol order."""
    if not c:
        raise WordError("the empty word has no primitive generator")
    lo = len(set(c))  # a generator must contain every symbol of c
    for length in range(lo, len(c) + 1):
        found = _generator_search(c, length)
        if found is not None and len(found) == length:
            return canonical(found, symbol_order(c))
    return canonical(c, symbol_order(c))


def primitive_length(c: Word) -> int:
    return len(primitive_generator(c))


def is_primitive(c: Word) -> bool:
    if not c:
        raise WordError("the empty word is not classified")
    return primitive_length(c) == len(c)


def enumerate_generated(a: Word, m: int) -> set:
    """The set of all words spelled by surjective adjacent walks of length m
    on ``a``.  Empty when m < |a| (no surjective walk exists)."""
    return {apply_walk(a, f) for f in surjective_walks(m, len(a))}


def minimal_generators_bruteforce(c: Word) -> set:
    """Oracle: all minimal-length generators of ``c`` by exhaustive walk
    search, shortest length first, pruning walks as soon as a position's
    letter conflicts.  Exponential; for desk-scale verification only."""
    if not c:
        raise WordError("the empty word has no generators")
    m = len(c)
    lo = len(set(c))

    def generators_of_length(k: int) -> set:
        found: set = set()
        # Stack entries: (next index into c, current position, assignment,
        # set of visited positions).
        for start in range(1, k + 1):
            stack = [(1, start, {start: c[0]}, frozenset((start,)))]
            while stack:
                i, pos, gen, seen = stack.pop()
                if i == m:
                    if len(seen) == k:
                        found.add(tuple(gen[p] for p in range(1, k + 1)))
                    continue
                if k - len(seen) > m - i:
                    continue  # cannot still reach every position
                letter = c[i]
                for q in (pos, pos - 1, pos + 1):
                    if not 1 <= q <= k:
                        continue
                    bound = gen.get(q)
                    if bound is not None and bound != letter:
                        continue
                    new_gen = gen if bound is not None else {**gen, q: letter}
                    stack.append((i + 1, q, new_gen, seen | {q}))
        return found

    for k in range(lo, m + 1):
        found = generators_of_length(k)
        if found:
            return found
    return {tuple(c)}


@dataclass(frozen=True)
class FreshChoice:
    """The combinatorial fresh-choice function g over J = [1,z]^(k+1) with
    z = k*k + k + 1: g prepends the smallest positive integer absent from
    every component of the argument tuple.

    Property (i): g(t) never occurs in t.  Property (ii): if t' consists of
    t_2..t_k and g(t) in any order, g(t') does not occur in t either.
    """

    k: int

    @property
    def z(self) -> int:
        return self.k * self.k + self.k + 1

    @property
    def size(self) -> int:
        return self.z ** (self.k + 1)

    def domain(self) -> Iterator[tuple]:
        return itertools.product(range(1, self.z + 1), repeat=self.k + 1)

    def __call__(self, t: Sequence[tuple]) -> tuple:
        if len(t) != self.k:
            raise WordError(f"expected a {self.k}-tuple, got {len(t)} components")
        used = set()
        firsts = []
        for component in t:
            if len(component) != self.k + 1 or not all(
                1 <= v <= self.z for v in component
            ):
                raise WordError(f"{component!r} is not a member of J")
            firsts.append(component[0])
            used.update(component)
        i0 = 1
        while i0 in used:
            i0 += 1
        return (i0, *firsts)


def fresh_choice(k: int) -> FreshChoice:
    if k < 1:
        raise WordError("fresh_choice requires k >= 1")
    return FreshChoice(k)


def fresh_apply(fc: FreshChoice, t: Sequence[tuple]) -> tuple:
    return fc(t)


def check_pair_placement(n: int, g: dict) -> bool:
    """Exhaustively verify properties (i) and (ii) for a binary placement
    function g on domain range(n)."""
    for a in range(n):
        for b in range(n):
            c = g[(a, b)]
            if c in (a, b):
                return False
            for t in ((b, c), (c, b)):
                if g[t] in (a, b):
                    return False
    return True


# The smallest binary placement function, as rows: _PAIR_PLACEMENT[a][b] is
# g(a, b).  It is the first one ``_search_pair_placement(5)`` finds; that
# search finds none on 3 or 4 elements.
_PAIR_PLACEMENT = ((1, 2, 1, 1, 3),
                   (4, 0, 3, 4, 0),
                   (4, 3, 0, 0, 0),
                   (1, 4, 0, 0, 2),
                   (3, 2, 1, 2, 0))


@lru_cache(maxsize=None)
def small_pair_placement() -> tuple:
    """Smallest binary placement function satisfying the fresh-choice
    properties: the stored table, verified exhaustively on first use.

    Returns (n, g) with g a dict on range(n) x range(n).
    """
    n = len(_PAIR_PLACEMENT)
    g = {(a, b): c for a, row in enumerate(_PAIR_PLACEMENT)
         for b, c in enumerate(row)}
    if not check_pair_placement(n, g):
        raise RuntimeError("internal consistency failure: the stored pair "
                           "placement violates the fresh-choice properties")
    return n, g


def _search_pair_placement(n: int) -> Optional[dict]:
    """The first placement function on range(n) in backtracking order, or
    None; the reference that found ``_PAIR_PLACEMENT``."""
    pairs = list(itertools.product(range(n), repeat=2))
    g: dict = {}

    def backtrack(i: int) -> bool:
        if i == len(pairs):
            return True
        a, b = pairs[i]
        for c in range(n):
            if c in (a, b):
                continue
            g[(a, b)] = c
            good = all(
                g.get(t) not in (a, b) or g.get(t) is None
                for t in ((b, c), (c, b))
            )
            if good:
                # The new entry may itself serve as g(t') for earlier tuples.
                for (x, y), e in g.items():
                    if (x, y) != (a, b) and (a, b) in ((y, e), (e, y)):
                        if c in (x, y):
                            good = False
                            break
            if good and backtrack(i + 1):
                return True
            del g[(a, b)]
        return False

    return dict(g) if backtrack(0) else None
