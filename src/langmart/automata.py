"""Finite automata over plain and multi-track (convolved) alphabets.

Tuples of words are processed column-wise: the i-th column holds the i-th
letter of every word, with '#' filling rows whose word has already ended.
A k-track automaton reads such columns; k = 1 gives ordinary word automata.
All automata are total (a rejecting sink is added on construction) and
immutable once built.  The `transitions` dict, keyed by (state, column),
is the form every automaton has: the JSON form and the one the multi-track
constructions read.  A 1-track automaton is also compiled once, on
construction, into `table`, one dict per state from letter to next state
in the declared letter order, and membership and the length-lexicographic
toolbox step through that table one letter at a time.

Besides the boolean operations the module provides the length-lexicographic
toolbox used everywhere else: minimum, successor, rank counting (dynamic
programming over (state, length), so counts stay exact on domains whose
slices grow exponentially), slice counts, pumping decomposition, and a
growth classifier for regular domains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

PAD = "#"


class AutomatonError(Exception):
    pass


class ArityMismatchError(AutomatonError):
    pass


class EmptyLanguageError(AutomatonError):
    pass


class NoSuccessorError(AutomatonError):
    pass


class PumpingError(AutomatonError):
    pass


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvolvedWord:
    """Column-wise alignment of a word tuple, '#'-padded per row."""

    arity: int
    columns: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        ended = [False] * self.arity
        for col in self.columns:
            if len(col) != self.arity:
                raise ArityMismatchError(f"column {col!r} has wrong width")
            for i, ch in enumerate(col):
                if ch == PAD:
                    ended[i] = True
                elif ended[i]:
                    raise ValueError("padding must be a suffix of its row")
        if self.columns and all(ch == PAD for ch in self.columns[-1]):
            raise ValueError("trailing all-padding column")

    def rows(self) -> tuple[str, ...]:
        return tuple(
            "".join(col[i] for col in self.columns if col[i] != PAD)
            for i in range(self.arity)
        )

    def __len__(self):
        return len(self.columns)


def convolve(words) -> ConvolvedWord:
    words = tuple(words)
    if not words:
        raise ArityMismatchError("need at least one word")
    width = max((len(w) for w in words), default=0)
    cols = tuple(
        tuple(w[j] if j < len(w) else PAD for w in words) for j in range(width)
    )
    return ConvolvedWord(len(words), cols)


# ---------------------------------------------------------------------------
# Deterministic automata
# ---------------------------------------------------------------------------


def admissible_columns(alphabets):
    """All column symbols over per-track alphabets (no all-padding column)."""
    padded = [tuple(a) + (PAD,) for a in alphabets]
    for col in itertools.product(*padded):
        if any(ch != PAD for ch in col):
            yield col


class Dfa:
    """Total deterministic automaton; states are 0..n_states-1.

    alphabets holds one letter tuple per track, in declared order; the
    declared order is also the lexicographic order used by every
    length-lexicographic operation.  transitions maps (state, column) to
    the next state, a column being a tuple of one letter (or PAD) per
    track.  A 1-track automaton also has table: table[q] maps each letter
    to the next state from q, in letter order, compiled from transitions;
    it is None for more tracks.
    """

    __slots__ = ("arity", "alphabets", "n_states", "start", "accepting",
                 "transitions", "table", "_layers")

    def __init__(self, arity, alphabets, n_states, start, accepting, transitions):
        self.arity = arity
        self.alphabets = tuple(tuple(a) for a in alphabets)
        if len(self.alphabets) != arity:
            raise ArityMismatchError("one alphabet per track required")
        trans = dict(transitions)
        columns = list(admissible_columns(self.alphabets))
        trap = None
        for q in range(n_states):
            for col in columns:
                if (q, col) not in trans:
                    if trap is None:
                        trap = n_states
                    trans[(q, col)] = trap
        if trap is not None:
            n_states += 1
            for col in columns:
                trans[(trap, col)] = trap
        self.n_states = n_states
        self.start = start
        self.accepting = frozenset(accepting)
        self.transitions = trans
        self.table = None if arity != 1 else tuple(
            {ch: trans[(q, (ch,))] for ch in self.alphabets[0]} for q in range(n_states))
        self._layers = None  # lazy per-length acceptance counts

    def _as_columns(self, w):
        if isinstance(w, ConvolvedWord):
            if w.arity != self.arity:
                raise ArityMismatchError(
                    f"word arity {w.arity} != automaton arity {self.arity}")
            return w.columns
        if self.arity != 1:
            raise ArityMismatchError("plain words only fit 1-track automata")
        return [(ch,) for ch in w]

    def step(self, state: int, column) -> int:
        try:
            return self.transitions[(state, column)]
        except KeyError:
            raise ArityMismatchError(f"column {column!r} outside alphabet") from None

    def run(self, w) -> int:
        state = self.start
        for col in self._as_columns(w):
            state = self.step(state, col)
        return state

    def accepts(self, w) -> bool:
        table = self.table
        if table is None or not isinstance(w, str):
            return self.run(w) in self.accepting
        state = self.start
        try:
            for ch in w:
                state = table[state][ch]
        except KeyError:
            raise ArityMismatchError(f"column {(ch,)!r} outside alphabet") from None
        return state in self.accepting

    # -- structural helpers ----------------------------------------------------

    def reachable_states(self) -> set[int]:
        seen = {self.start}
        stack = [self.start]
        while stack:
            q = stack.pop()
            for col in admissible_columns(self.alphabets):
                r = self.transitions[(q, col)]
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        return seen

    def coreachable_states(self) -> set[int]:
        back: dict[int, set[int]] = {q: set() for q in range(self.n_states)}
        for (q, _), r in self.transitions.items():
            back[r].add(q)
        seen = set(self.accepting)
        stack = list(self.accepting)
        while stack:
            q = stack.pop()
            for p in back[q]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return seen

    def useful_states(self) -> set[int]:
        return self.reachable_states() & self.coreachable_states()

    def trim(self) -> "Dfa":
        """Restrict to reachable states (a fresh sink is re-added as needed)."""
        keep = sorted(self.reachable_states())
        index = {q: i for i, q in enumerate(keep)}
        trans = {
            (index[q], col): index[r]
            for (q, col), r in self.transitions.items()
            if q in index and r in index
        }
        return Dfa(self.arity, self.alphabets, len(keep), index[self.start],
                   [index[q] for q in self.accepting if q in index], trans)

    def is_empty(self) -> bool:
        return not (self.reachable_states() & self.accepting)

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        alphabet = ["".join(a) for a in self.alphabets]
        return {
            "arity": self.arity,
            "alphabet": alphabet[0] if self.arity == 1 else alphabet,
            "states": list(range(self.n_states)),
            "start": self.start,
            "accepting": sorted(self.accepting),
            "transitions": sorted(
                [q, "".join(col), r] for (q, col), r in self.transitions.items()
            ),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Dfa":
        if not isinstance(data, dict):
            raise TypeError(f"an automaton is a JSON object, not {type(data).__name__}")
        arity = data.get("arity", 1)
        alpha = data["alphabet"]
        alphabets = [tuple(alpha)] if isinstance(alpha, str) else [tuple(a) for a in alpha]
        names = list(data["states"])
        index = {name: i for i, name in enumerate(names)}
        if len(alphabets) != arity:
            raise ValueError(f"{len(alphabets)} alphabets for arity {arity}")
        for a in alphabets:
            if len(set(a)) != len(a) or not all(
                    isinstance(ch, str) and len(ch) == 1 and ch != PAD for ch in a):
                raise ValueError(f"alphabet {a!r} is not distinct letters other than {PAD!r}")
        tracks = [frozenset(a) | {PAD} for a in alphabets]
        trans = {}
        for q, col, r in data["transitions"]:
            if len(col) != arity:
                raise ValueError(f"column {col!r} at {q} has width {len(col)}, "
                                 f"not the arity {arity}")
            if any(ch not in track for ch, track in zip(col, tracks)) \
                    or all(ch == PAD for ch in col):
                raise ValueError(f"column {col!r} at {q} is outside the alphabet")
            key = (index[q], tuple(col))
            if key in trans and trans[key] != index[r]:
                raise ValueError(f"nondeterministic transition at {q}/{col}")
            trans[key] = index[r]
        return cls(arity, alphabets, len(names), index[data["start"]],
                   [index[q] for q in data["accepting"]], trans)

    def __repr__(self):
        return (f"Dfa(arity={self.arity}, states={self.n_states}, "
                f"accepting={sorted(self.accepting)})")


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


def determinize(nfa: Nfa) -> Dfa:
    """Subset construction; the result is trimmed to reachable subsets."""
    columns = list(admissible_columns(nfa.alphabets))
    start = nfa.closure(nfa.starts)
    index = {start: 0}
    order = [start]
    trans = {}
    i = 0
    while i < len(order):
        subset = order[i]
        for col in columns:
            nxt = set()
            for q in subset:
                nxt |= nfa.transitions.get((q, col), frozenset())
            nxt = nfa.closure(nxt)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            trans[(i, col)] = index[nxt]
        i += 1
    accepting = [i for i, subset in enumerate(order) if subset & nfa.accepting]
    return Dfa(nfa.arity, nfa.alphabets, len(order), 0, accepting, trans)


def minimize(d: Dfa) -> Dfa:
    """Merge indistinguishable states (plain partition refinement)."""
    d = d.trim()
    columns = list(admissible_columns(d.alphabets))
    block = {q: int(q in d.accepting) for q in range(d.n_states)}
    while True:
        signature = {
            q: (block[q],
                tuple(block[d.transitions[(q, col)]] for col in columns))
            for q in range(d.n_states)
        }
        labels = {sig: i for i, sig in enumerate(sorted(set(signature.values())))}
        new_block = {q: labels[signature[q]] for q in range(d.n_states)}
        if len(labels) == len(set(block.values())):
            break
        block = new_block
    reps: dict[int, int] = {}
    for q in range(d.n_states):
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
    columns = list(admissible_columns(a.alphabets))
    index = {(a.start, b.start): 0}
    order = [(a.start, b.start)]
    trans = {}
    i = 0
    while i < len(order):
        p, q = order[i]
        for col in columns:
            nxt = (a.transitions[(p, col)], b.transitions[(q, col)])
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            trans[(i, col)] = index[nxt]
        i += 1
    accepting = [
        i for i, (p, q) in enumerate(order)
        if test(p in a.accepting, q in b.accepting)
    ]
    return Dfa(a.arity, a.alphabets, len(order), 0, accepting, trans)


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
# Length-lexicographic toolbox (word automata only)
# ---------------------------------------------------------------------------


def _require_words(d: Dfa):
    if d.arity != 1:
        raise ArityMismatchError("length-lexicographic operations need 1 track")


def _layers(d: Dfa, upto: int):
    """layers[n][q] = number of length-n words accepted from state q."""
    if d._layers is None:
        d._layers = [[1 if q in d.accepting else 0 for q in range(d.n_states)]]
    layers = d._layers
    while len(layers) <= upto:
        prev = layers[-1]
        layers.append([sum(prev[r] for r in row.values()) for row in d.table])
    return layers


def slice_count(d: Dfa, n: int) -> int:
    """Number of members of length exactly n."""
    _require_words(d)
    return _layers(d, n)[n][d.start]


def count_below_length(d: Dfa, n: int) -> int:
    """Number of members of length strictly below n."""
    _require_words(d)
    layers = _layers(d, max(n - 1, 0))
    return sum(layers[j][d.start] for j in range(n))


def _min_word_from(d: Dfa, state: int, length: int) -> str:
    layers = _layers(d, length)
    out = []
    q = state
    for rem in range(length - 1, -1, -1):
        for ch, r in d.table[q].items():
            if layers[rem][r]:
                out.append(ch)
                q = r
                break
        else:
            raise EmptyLanguageError("no completion of the requested length")
    return "".join(out)


def min_ll(d: Dfa) -> str:
    """Least member in length-lexicographic order."""
    return min_word_of_length_at_least(d, 0)


def min_word_of_length_at_least(d: Dfa, bound: int) -> str:
    """Least member of length >= bound (length-lexicographic order)."""
    _require_words(d)
    for n in range(bound, bound + d.n_states + 1):
        if slice_count(d, n) > 0:
            return _min_word_from(d, d.start, n)
    raise EmptyLanguageError(f"no member of length >= {bound}")


def _next_same_length(d: Dfa, w: str) -> str | None:
    table = d.table
    layers = _layers(d, len(w))
    prefix_states = [d.start]
    for ch in w:
        prefix_states.append(table[prefix_states[-1]][ch])
    for i in range(len(w) - 1, -1, -1):
        rem = len(w) - i - 1
        later = False
        for ch, r in table[prefix_states[i]].items():
            if later and layers[rem][r]:
                return w[:i] + ch + _min_word_from(d, r, rem)
            later = later or ch == w[i]
    return None


def succ_ll(d: Dfa, w: str) -> str:
    """Least member strictly above w (w itself need not be a member)."""
    _require_words(d)
    nxt = _next_same_length(d, w)
    if nxt is not None:
        return nxt
    try:
        return min_word_of_length_at_least(d, len(w) + 1)
    except EmptyLanguageError:
        raise NoSuccessorError(f"no member above {w!r}") from None


def count_leq_ll(d: Dfa, w: str) -> int:
    """|{v in the language : v <=_ll w}| without enumeration."""
    _require_words(d)
    layers = _layers(d, len(w))
    total = sum(layers[j][d.start] for j in range(len(w)))
    q = d.start
    for i, ch in enumerate(w):
        rem = len(w) - i - 1
        row = d.table[q]
        for smaller, r in row.items():
            if smaller == ch:
                break
            total += layers[rem][r]
        q = row[ch]
    if q in d.accepting:
        total += 1
    return total


def _slice_members(d: Dfa, n: int):
    """Yield the members of length exactly n in lexicographic order.

    An odometer over a stack of prefix states: moves[i] walks the letters
    out of the state after the first i letters, and a letter is taken only
    when some completion of the remaining length is accepted from where it
    leads, so every prefix entered yields at least one member."""
    layers = _layers(d, n)
    if not layers[n][d.start]:
        return
    if n == 0:
        yield ""
        return
    table = d.table
    last = n - 1
    moves = [iter(table[d.start].items())] + [None] * last
    prefixes = [""] * n
    i = 0
    while i >= 0:
        live = layers[last - i]  # completions of the letters after this one
        for ch, r in moves[i]:
            if live[r]:
                break
        else:
            i -= 1
            continue
        word = prefixes[i] + ch
        if i == last:
            yield word
        else:
            i += 1
            prefixes[i] = word
            moves[i] = iter(table[r].items())


def iter_ll(d: Dfa):
    """Yield every member in length-lexicographic order (until exhausted)."""
    _require_words(d)
    n = 0
    last_nonempty = -1
    # past a gap of a full pump length no longer member can exist
    while n <= last_nonempty + d.n_states + 1:
        for w in _slice_members(d, n):
            last_nonempty = n
            yield w
        n += 1


def enumerate_ll(d: Dfa, limit: int):
    """First `limit` members in length-lexicographic order."""
    return list(itertools.islice(iter_ll(d), limit))


def words_of_length(d: Dfa, n: int) -> list[str]:
    """Members of length exactly n, lexicographically ordered."""
    _require_words(d)
    return list(_slice_members(d, n))


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

    def encode(self, word: str) -> ConvolvedWord:
        cols = tuple(self.encode_letter(ch) for ch in word)
        return ConvolvedWord(self.k, cols)

    def decode(self, cw: ConvolvedWord) -> str:
        out = []
        for col in cw.columns:
            if PAD in col:
                raise ValueError("embedded images carry no padding")
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
