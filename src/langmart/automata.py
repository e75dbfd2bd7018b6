"""Finite automata over plain and multi-track (convolved) alphabets.

Tuples of words are processed column-wise: the i-th column holds the i-th
letter of every word, with '#' filling rows whose word has already ended.
A k-track automaton reads such columns; k = 1 gives ordinary word automata.
All automata are total (a rejecting sink is added on construction) and
immutable once built.  The `transitions` dict, keyed by (state, column),
is the JSON and construction form.  Every automaton is also compiled once,
on construction, into `table`, one dict per state from letter (1 track) or
column (more tracks) to next state in the declared order.  Membership,
reachability and the length-lexicographic toolbox step through that table,
the one stepping path.

Besides the automaton type the module provides the length-lexicographic
toolbox used everywhere else: minimum, successor, rank counting (dynamic
programming over (state, length), so counts stay exact on domains whose
slices grow exponentially), slice counts and enumeration.  Boolean
operations, builders, pumping, growth classes and alphabet embedding live
in `langmart.regular`.
"""

from __future__ import annotations

import itertools

PAD = "#"


class AutomatonError(Exception):
    pass


class ArityMismatchError(AutomatonError):
    pass


class EmptyLanguageError(AutomatonError):
    pass


class NoSuccessorError(AutomatonError):
    pass


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
    track.  table is compiled from transitions: table[q] maps each letter
    (1 track) or admissible column (more tracks) to the next state from
    q, in declared order.
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
        keys = self.alphabets[0] if arity == 1 else columns
        self.table = tuple(
            {key: trans[(q, col)] for key, col in zip(keys, columns)} for q in range(n_states))
        self._layers = None  # lazy per-length acceptance counts

    def accepts(self, w) -> bool:
        """Membership of w: a plain word on a 1-track automaton, or a tuple
        of one word per track, read column by column with PAD filling the
        rows that have ended."""
        if isinstance(w, str):
            if self.arity != 1:
                raise ArityMismatchError("plain words only fit 1-track automata")
            columns = w
        elif len(w) != self.arity:
            raise ArityMismatchError(
                f"{len(w)} words for an automaton of arity {self.arity}")
        elif any(PAD in row for row in w):
            raise ArityMismatchError(f"a row holds the padding letter {PAD!r}")
        else:
            columns = w[0] if self.arity == 1 else itertools.zip_longest(*w, fillvalue=PAD)
        table = self.table
        state = self.start
        try:
            for col in columns:
                state = table[state][col]
        except KeyError:
            raise ArityMismatchError(f"column {col!r} outside alphabet") from None
        return state in self.accepting

    # -- structural helpers ----------------------------------------------------

    def reachable_states(self) -> set[int]:
        seen = {self.start}
        stack = [self.start]
        while stack:
            q = stack.pop()
            for r in self.table[q].values():
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
