"""Constructions on regular languages beyond what a run needs.

Nondeterministic automata with epsilon moves, one breadth-first
construction of reachable automata (`explore`), the subset construction,
minimization, projection, products and complements, builders for small
word languages, pumping splits, the slice-growth classifier and the
embedding of a bigger alphabet into binary tracks.  Runs of the common
kinds never load this module, and its names import only from here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .automata import (
    PAD,
    ArityMismatchError,
    AutomatonError,
    Dfa,
    _require_words,
    admissible_columns,
    count_below_length,
    slice_count,
)


class PumpingError(AutomatonError):
    pass


# ---------------------------------------------------------------------------
# Nondeterministic automata and boolean operations
# ---------------------------------------------------------------------------


class Nfa:
    """Nondeterministic automaton with epsilon moves; only a construction aid."""

    def __init__(self, arity, alphabets, n_states, starts, accepting,
                 transitions, epsilon=None):
        self.arity = arity
        self.alphabets = tuple(tuple(a) for a in alphabets)
        self.n_states = n_states
        self.starts = frozenset(starts)
        self.accepting = frozenset(accepting)
        self.transitions = {k: frozenset(v) for k, v in transitions.items()}
        self.epsilon = {k: frozenset(v) for k, v in (epsilon or {}).items()}

    def closure(self, states) -> frozenset:
        seen = set(states)
        stack = list(states)
        while stack:
            q = stack.pop()
            for r in self.epsilon.get(q, ()):
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        return frozenset(seen)

    @classmethod
    def from_dfa(cls, dfa: Dfa) -> "Nfa":
        trans = {k: {v} for k, v in dfa.transitions.items()}
        return cls(dfa.arity, dfa.alphabets, dfa.n_states, {dfa.start},
                   dfa.accepting, trans)


def explore(arity, alphabets, start, successor, accepts) -> Dfa:
    """The automaton of the states reachable from start, numbered in
    breadth-first order from 0 with columns in admissible order:
    successor(state, column) is the next state and accepts(state) its
    verdict.  States are any hashable values."""
    columns = list(admissible_columns(alphabets))
    index = {start: 0}
    order = [start]
    trans = {}
    for i, state in enumerate(order):  # order grows while it is walked
        for col in columns:
            nxt = successor(state, col)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            trans[(i, col)] = index[nxt]
    accepting = [i for i, state in enumerate(order) if accepts(state)]
    return Dfa(arity, alphabets, len(order), 0, accepting, trans)


def determinize(nfa: Nfa) -> Dfa:
    """Subset construction; the result is trimmed to reachable subsets."""

    def successor(subset, col):
        nxt = set()
        for q in subset:
            nxt |= nfa.transitions.get((q, col), frozenset())
        return nfa.closure(nxt)

    return explore(nfa.arity, nfa.alphabets, nfa.closure(nfa.starts), successor,
                   lambda subset: bool(subset & nfa.accepting))


def minimize(d: Dfa) -> Dfa:
    """Merge indistinguishable reachable states (plain partition refinement);
    unreachable states are dropped."""
    states = sorted(d.reachable_states())
    columns = list(admissible_columns(d.alphabets))
    block = {q: int(q in d.accepting) for q in states}
    while True:
        signature = {
            q: (block[q],
                tuple(block[d.transitions[(q, col)]] for col in columns))
            for q in states
        }
        labels = {sig: i for i, sig in enumerate(sorted(set(signature.values())))}
        new_block = {q: labels[signature[q]] for q in states}
        if len(labels) == len(set(block.values())):
            break
        block = new_block
    reps: dict[int, int] = {}
    for q in states:
        reps.setdefault(new_block[q], q)
    index = {b: i for i, b in enumerate(sorted(reps))}
    trans = {
        (index[b], col): index[new_block[d.transitions[(rep, col)]]]
        for b, rep in reps.items() for col in columns
    }
    accepting = [index[b] for b, rep in reps.items() if rep in d.accepting]
    return Dfa(d.arity, d.alphabets, len(reps), index[new_block[d.start]],
               accepting, trans)


def project(nfa: Nfa, coords) -> Nfa:
    """Existentially drop the given tracks; vanished columns become epsilon."""
    drop = set(coords)
    keep = [i for i in range(nfa.arity) if i not in drop]
    if not keep:
        raise ArityMismatchError("cannot drop every track")
    trans: dict = {}
    epsilon = {q: set(v) for q, v in nfa.epsilon.items()}
    for (q, col), targets in nfa.transitions.items():
        sub = tuple(col[i] for i in keep)
        if all(ch == PAD for ch in sub):
            epsilon.setdefault(q, set()).update(targets)
        else:
            trans.setdefault((q, sub), set()).update(targets)
    return Nfa(len(keep), [nfa.alphabets[i] for i in keep], nfa.n_states,
               nfa.starts, nfa.accepting, trans, epsilon)


def combine(a: Dfa, b: Dfa, op: str) -> Dfa:
    """Product automaton for op in {'and', 'or', 'minus', 'xor'}."""
    if a.arity != b.arity or a.alphabets != b.alphabets:
        raise ArityMismatchError("operands read different columns")
    tests = {
        "and": lambda x, y: x and y,
        "or": lambda x, y: x or y,
        "minus": lambda x, y: x and not y,
        "xor": lambda x, y: x != y,
    }
    try:
        test = tests[op]
    except KeyError:
        raise ValueError(f"unknown operation {op!r}") from None
    return explore(a.arity, a.alphabets, (a.start, b.start),
                   lambda pq, col: (a.transitions[(pq[0], col)], b.transitions[(pq[1], col)]),
                   lambda pq: test(pq[0] in a.accepting, pq[1] in b.accepting))


def complement(a: Dfa, universe: Dfa | None = None) -> Dfa:
    """Complement within a universe language (default: all column strings)."""
    if universe is not None:
        return combine(universe, a, "minus")
    flipped = set(range(a.n_states)) - a.accepting
    return Dfa(a.arity, a.alphabets, a.n_states, a.start, flipped, a.transitions)


# ---------------------------------------------------------------------------
# Builders for common languages (word automata)
# ---------------------------------------------------------------------------


def universe(alphabet="01") -> Dfa:
    trans = {(0, (ch,)): 0 for ch in alphabet}
    return Dfa(1, [alphabet], 1, 0, [0], trans)


def empty(alphabet="01") -> Dfa:
    return Dfa(1, [alphabet], 1, 0, [], {})


def from_word(word: str, alphabet="01") -> Dfa:
    trans = {(i, (ch,)): i + 1 for i, ch in enumerate(word)}
    return Dfa(1, [alphabet], len(word) + 1, 0, [len(word)], trans)


def word_star(word: str, alphabet="01") -> Dfa:
    """The language word* (word must be nonempty)."""
    if not word:
        raise ValueError("word_star needs a nonempty word")
    trans = {
        (i, (ch,)): (i + 1) % len(word) for i, ch in enumerate(word)
    }
    return Dfa(1, [alphabet], len(word), 0, [0], trans)


def concat(a: Dfa, b: Dfa) -> Dfa:
    """Concatenation via an epsilon-linked automaton pair."""
    if a.arity != 1 or b.arity != 1 or a.alphabets != b.alphabets:
        raise ArityMismatchError("concatenation is for word automata")
    offset = a.n_states
    trans = {}
    for (q, col), r in a.transitions.items():
        trans.setdefault((q, col), set()).add(r)
    for (q, col), r in b.transitions.items():
        trans.setdefault((q + offset, col), set()).add(r + offset)
    epsilon = {q: {b.start + offset} for q in a.accepting}
    nfa = Nfa(1, a.alphabets, offset + b.n_states, {a.start},
              {q + offset for q in b.accepting}, trans, epsilon)
    return minimize(determinize(nfa))


def finite_language(words, alphabet="01") -> Dfa:
    result = empty(alphabet)
    for w in words:
        result = combine(result, from_word(w, alphabet), "or")
    return result


# ---------------------------------------------------------------------------
# Pumping and growth
# ---------------------------------------------------------------------------


def pumping_constant(d: Dfa) -> int:
    """Number of useful states; runs of members stay inside them."""
    return len(d.useful_states()) or 1


def pump_decompose(d: Dfa, x: str) -> tuple[str, str, str]:
    """Split a member x = u v w around the first repeated state of its run.

    u and uv end in the same state, so u v^n w is a member for every n and
    suffix behaviour is preserved: u v w y and u v^n w y agree on membership.
    """
    _require_words(d)
    if not d.accepts(x):
        raise PumpingError(f"{x!r} is not a member")
    if len(x) < pumping_constant(d):
        raise PumpingError(f"{x!r} is shorter than the pumping constant")
    states = [d.start]
    for ch in x:
        states.append(d.table[states[-1]][ch])
    first_seen: dict[int, int] = {}
    for j, q in enumerate(states):
        if q in first_seen:
            i = first_seen[q]
            return x[:i], x[i:j], x[j:]
        first_seen[q] = j
    raise PumpingError("no repeated state on the run")  # unreachable for long x


@dataclass(frozen=True)
class GrowthClass:
    kind: str  # "bounded" | "polynomial" | "exponential"
    bound: int | None = None

    @classmethod
    def bounded(cls, c: int) -> "GrowthClass":
        return cls("bounded", c)

    @classmethod
    def polynomial(cls) -> "GrowthClass":
        return cls("polynomial")

    @classmethod
    def exponential(cls) -> "GrowthClass":
        return cls("exponential")


def _sccs(nodes, edges):
    """Tarjan over the given node set; edges maps node -> iterable of nodes."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = itertools.count()

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(edges.get(root, ())))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = next(counter)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(edges.get(nxt, ()))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    q = stack.pop()
                    on_stack.discard(q)
                    comp.add(q)
                    if q == node:
                        break
                sccs.append(comp)
    return sccs


def growth_class(d: Dfa) -> GrowthClass:
    """Classify |D ∩ Σ^n| growth from the cycle structure of useful states.

    A strongly connected component with more internal edges than states
    yields two distinct cycles through one state, hence exponentially many
    words; otherwise every component is a lone simple cycle, and the slice
    counts are bounded exactly when no accepted run threads two of them.
    """
    _require_words(d)
    useful = d.useful_states()
    if not useful:
        return GrowthClass.bounded(0)
    edge_list = [(q, r) for q in useful for r in d.table[q].values() if r in useful]
    adj: dict[int, list[int]] = {}
    for q, r in edge_list:
        adj.setdefault(q, []).append(r)
    comps = _sccs(sorted(useful), adj)
    comp_of = {q: i for i, comp in enumerate(comps) for q in comp}
    internal_edges = [0] * len(comps)
    for q, r in edge_list:
        if comp_of[q] == comp_of[r]:
            internal_edges[comp_of[q]] += 1
    cyclic = []
    for i, comp in enumerate(comps):
        if internal_edges[i] > len(comp):
            return GrowthClass.exponential()
        cyclic.append(internal_edges[i] == len(comp))

    # condensation DAG; count cycle components along accepted runs
    dag: dict[int, set[int]] = {i: set() for i in range(len(comps))}
    for q, r in edge_list:
        if comp_of[q] != comp_of[r]:
            dag[comp_of[q]].add(comp_of[r])
    has_accepting = [bool(comp & d.accepting) for comp in comps]
    best: dict[int, int] = {}

    def cycles_reachable(c: int) -> int:
        if c in best:
            return best[c]
        best[c] = -(10**9)  # cut self-reference; DAG, so never consulted
        tail = 0 if has_accepting[c] else -(10**9)
        for nxt in dag[c]:
            tail = max(tail, cycles_reachable(nxt))
        best[c] = (1 if cyclic[c] else 0) + tail
        return best[c]

    r = cycles_reachable(comp_of[d.start]) if d.start in useful else 0
    if r >= 2:
        return GrowthClass.polynomial()

    # bounded: the slice-count sequence is eventually periodic; its period
    # divides the lcm of the (disjoint) cycle lengths and the preperiod is
    # at most the acyclic travel, so a finite horizon finds the supremum
    period = 1
    for i, comp in enumerate(comps):
        if cyclic[i]:
            period = period * len(comp) // gcd(period, len(comp))
    horizon = min(2 * d.n_states + 2 * period, 4096)
    c = max(slice_count(d, n) for n in range(horizon + 1))
    return GrowthClass.bounded(c)


def exponential_growth_witness(d: Dfa) -> int:
    """Least k <= 8 with |D ∩ Σ^{<nk}| >= 2^n for every n with nk <= 48."""
    _require_words(d)
    if growth_class(d).kind != "exponential":
        raise AutomatonError("witness only exists for exponential domains")
    for k in range(1, 9):
        ns = range(1, 48 // k + 1)
        if all(count_below_length(d, n * k) >= 2**n for n in ns):
            return k
    raise AutomatonError("no growth witness within the probed range")


# ---------------------------------------------------------------------------
# Alphabet embedding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphabetCodec:
    """Letter-wise injection of an m-letter alphabet into k binary tracks."""

    letters: tuple[str, ...]
    k: int

    def encode_letter(self, ch: str) -> tuple[str, ...]:
        i = self.letters.index(ch)
        return tuple(format(i, f"0{self.k}b"))

    def encode(self, word: str) -> tuple[str, ...]:
        """The image of word: k rows, row i holding bit i of each letter."""
        cols = [self.encode_letter(ch) for ch in word]
        return tuple("".join(col[i] for col in cols) for i in range(self.k))

    def decode(self, rows) -> str:
        if len(rows) != self.k or len({len(row) for row in rows}) > 1 \
                or any(PAD in row for row in rows):
            raise ValueError("an embedded image is k rows of one length, with no padding")
        out = []
        for col in zip(*rows):
            i = int("".join(col), 2)
            if i >= len(self.letters):
                raise ValueError(f"column {col!r} is outside the image")
            out.append(self.letters[i])
        return "".join(out)


def embed_alphabet(d: Dfa) -> tuple[Dfa, AlphabetCodec]:
    """Re-express a word automaton over k binary tracks, one per code bit."""
    _require_words(d)
    letters = d.alphabets[0]
    k = 1
    while 2**k < len(letters):
        k += 1
    codec = AlphabetCodec(letters, k)
    trans = {}
    for q, row in enumerate(d.table):
        for ch, r in row.items():
            trans[(q, codec.encode_letter(ch))] = r
    image = Dfa(k, [("0", "1")] * k, d.n_states, d.start, d.accepting, trans)
    return image, codec
