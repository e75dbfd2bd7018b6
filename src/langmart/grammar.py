"""Context-free machinery: CNF conversion, CYK, quotients, pumping, and
extraction of an infinite regular subset inside or outside a context-free
language relative to a regular domain.

CYK membership and parsing run on one recognizer compiled and kept per CNF
grammar (`CykRecognizer`): nonterminal sets are int bitmasks and the chart
is kept by column, so a query recomputes only the columns after the prefix
it shares with the previous query on that grammar.  `generate_words` stays
an independent oracle for it.

Grammar files are line oriented: ``NT -> rhs | rhs`` with symbols separated
by spaces and ``#eps`` for the empty word.  Terminals are the single-letter
tokens that never occur on a left-hand side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .automata import Dfa, min_word_of_length_at_least
from .regular import (
    _sccs,
    combine,
    concat,
    finite_language,
    from_word,
    pump_decompose,
    pumping_constant,
    word_star,
)


class GrammarError(Exception):
    pass


class NotAMemberError(GrammarError):
    pass


class NoPumpError(GrammarError):
    pass


# infinite_regular_subset tries the powers v^1 .. v^PUMP_POWERS of the pumped word.
PUMP_POWERS = 64


# ---------------------------------------------------------------------------
# Plain grammars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cfg:
    start: str
    productions: dict  # nonterminal -> tuple of right-hand sides (symbol tuples)

    @property
    def nonterminals(self) -> frozenset:
        return frozenset(self.productions)

    @property
    def terminals(self) -> frozenset:
        out = set()
        for rhss in self.productions.values():
            for rhs in rhss:
                out.update(sym for sym in rhs if sym not in self.productions)
        return frozenset(out)

    @classmethod
    def from_text(cls, text: str) -> "Cfg":
        productions: dict[str, list] = {}
        start = None
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            head, arrow, body = line.partition("->")
            if not arrow:
                raise GrammarError(f"missing '->' in {line!r}")
            head = head.strip()
            if head.split() != [head]:
                raise GrammarError(f"rule head {head!r} is not one token in {line!r}")
            if start is None:
                start = head
            rules = productions.setdefault(head, [])
            for alt in body.split("|"):
                symbols = alt.split()
                if symbols == ["#eps"]:
                    rules.append(())
                elif symbols:
                    rules.append(tuple(symbols))
                else:
                    raise GrammarError(f"empty alternative in {line!r}")
        if start is None:
            raise GrammarError("no rules found")
        for rhss in productions.values():
            for rhs in rhss:
                for sym in rhs:
                    if sym not in productions and len(sym) != 1:
                        raise GrammarError(f"terminal {sym!r} is not a single letter")
        return cls(start, {k: tuple(v) for k, v in productions.items()})

    def to_text(self) -> str:
        lines = []
        order = [self.start] + sorted(self.nonterminals - {self.start})
        for head in order:
            alts = [" ".join(rhs) if rhs else "#eps" for rhs in self.productions[head]]
            lines.append(f"{head} -> {' | '.join(alts)}")
        return "\n".join(lines) + "\n"


def generate_words(g: Cfg, max_len: int) -> set[str]:
    """All derivable words up to max_len, by plain leftmost expansion.

    Independent of CYK on purpose: this is the oracle the parser is
    checked against.
    """
    minlen = _min_lengths(g)
    seen_forms = set()
    out = set()
    queue = [(g.start,)]
    while queue:
        form = queue.pop()
        if form in seen_forms:
            continue
        seen_forms.add(form)
        lower = 0
        first_nt = None
        for idx, sym in enumerate(form):
            if sym in g.productions:
                if first_nt is None:
                    first_nt = idx
                if minlen.get(sym) is None:
                    lower = max_len + 1
                    break
                lower += minlen[sym]
            else:
                lower += 1
        if lower > max_len:
            continue
        if first_nt is None:
            out.add("".join(form))
            continue
        head = form[first_nt]
        for rhs in g.productions[head]:
            queue.append(form[:first_nt] + rhs + form[first_nt + 1:])
    return out


def _min_lengths(g: Cfg) -> dict:
    minlen: dict[str, int | None] = {nt: None for nt in g.productions}
    changed = True
    while changed:
        changed = False
        for nt, rhss in g.productions.items():
            for rhs in rhss:
                total = 0
                for sym in rhs:
                    if sym in g.productions:
                        if minlen[sym] is None:
                            break
                        total += minlen[sym]
                    else:
                        total += 1
                else:
                    if minlen[nt] is None or total < minlen[nt]:
                        minlen[nt] = total
                        changed = True
    return minlen


# ---------------------------------------------------------------------------
# Chomsky normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CnfGrammar:
    """Rules X -> Y Z or X -> a, plus an optional nullable start."""

    start: str
    pair_rules: dict  # X -> tuple of (Y, Z)
    term_rules: dict  # X -> tuple of terminal letters
    start_nullable: bool = False

    @property
    def nonterminals(self) -> frozenset:
        out = set(self.pair_rules) | set(self.term_rules) | {self.start}
        for pairs in self.pair_rules.values():
            for y, z in pairs:
                out.add(y)
                out.add(z)
        return frozenset(out)

    @cached_property
    def recognizer(self) -> CykRecognizer:
        """The grammar's CYK recognizer, compiled on first use and kept, so
        consecutive queries on this grammar share chart columns."""
        return CykRecognizer(self)


def _fresh_namer(taken):
    taken = set(taken)

    def fresh(base: str) -> str:
        name = base
        i = 0
        while name in taken:
            i += 1
            name = f"{base}{i}"
        taken.add(name)
        return name

    return fresh


def to_cnf(g: Cfg) -> CnfGrammar:
    fresh = _fresh_namer(g.nonterminals | g.terminals)
    start = fresh("S0")
    rules: list[tuple[str, tuple]] = [(start, (g.start,))]
    for nt, rhss in g.productions.items():
        rules.extend((nt, rhs) for rhs in rhss)
    nonterminals = set(g.productions) | {start}

    # hide terminals inside long rules
    term_nt: dict[str, str] = {}
    staged = []
    for head, rhs in rules:
        if len(rhs) >= 2:
            new_rhs = []
            for sym in rhs:
                if sym in nonterminals:
                    new_rhs.append(sym)
                else:
                    if sym not in term_nt:
                        term_nt[sym] = fresh(f"T_{sym}")
                        nonterminals.add(term_nt[sym])
                        staged.append((term_nt[sym], (sym,)))
                    new_rhs.append(term_nt[sym])
            staged.append((head, tuple(new_rhs)))
        else:
            staged.append((head, rhs))
    rules = staged

    # binarize
    staged = []
    for head, rhs in rules:
        while len(rhs) > 2:
            helper = fresh("B")
            nonterminals.add(helper)
            staged.append((head, (rhs[0], helper)))
            head, rhs = helper, rhs[1:]
        staged.append((head, rhs))
    rules = staged

    # drop epsilon rules (remember whether the start is nullable)
    nullable = set()
    changed = True
    while changed:
        changed = False
        for head, rhs in rules:
            if head not in nullable and all(sym in nullable for sym in rhs):
                nullable.add(head)
                changed = True
    staged = []
    for head, rhs in rules:
        options = [
            [sym] if sym not in nullable else [sym, None] for sym in rhs
        ]
        for picks in itertools.product(*options):
            new_rhs = tuple(sym for sym in picks if sym is not None)
            if new_rhs:
                staged.append((head, new_rhs))
    rules = sorted(set(staged))
    start_nullable = start in nullable

    # eliminate unit rules
    unit_reach = {nt: {nt} for nt in nonterminals}
    changed = True
    while changed:
        changed = False
        for head, rhs in rules:
            if len(rhs) == 1 and rhs[0] in nonterminals:
                for target in unit_reach[rhs[0]]:
                    if target not in unit_reach[head]:
                        unit_reach[head].add(target)
                        changed = True
    pair_rules: dict[str, set] = {}
    term_rules: dict[str, set] = {}
    by_head: dict[str, list] = {}
    for head, rhs in rules:
        by_head.setdefault(head, []).append(rhs)
    for head in nonterminals:
        for mid in unit_reach[head]:
            for rhs in by_head.get(mid, ()):
                if len(rhs) == 2:
                    pair_rules.setdefault(head, set()).add(rhs)
                elif len(rhs) == 1 and rhs[0] not in nonterminals:
                    term_rules.setdefault(head, set()).add(rhs[0])

    cnf = CnfGrammar(
        start,
        {k: tuple(sorted(v)) for k, v in pair_rules.items()},
        {k: tuple(sorted(v)) for k, v in term_rules.items()},
        start_nullable,
    )
    return _prune(cnf)


def _prune(g: CnfGrammar) -> CnfGrammar:
    """Keep only generating and reachable nonterminals."""
    generating = set(g.term_rules)
    changed = True
    while changed:
        changed = False
        for x, pairs in g.pair_rules.items():
            if x not in generating and any(
                y in generating and z in generating for y, z in pairs
            ):
                generating.add(x)
                changed = True
    reachable = {g.start}
    stack = [g.start]
    while stack:
        x = stack.pop()
        for y, z in g.pair_rules.get(x, ()):
            if y in generating and z in generating:
                for sym in (y, z):
                    if sym not in reachable:
                        reachable.add(sym)
                        stack.append(sym)
    useful = generating & reachable | {g.start}
    pair_rules = {
        x: tuple(p for p in pairs if p[0] in useful and p[1] in useful
                 and p[0] in generating and p[1] in generating)
        for x, pairs in g.pair_rules.items() if x in useful
    }
    pair_rules = {x: p for x, p in pair_rules.items() if p}
    term_rules = {x: a for x, a in g.term_rules.items() if x in useful}
    return CnfGrammar(g.start, pair_rules, term_rules, g.start_nullable)


# ---------------------------------------------------------------------------
# CYK membership and parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParseTree:
    symbol: str
    span: tuple[int, int]
    children: tuple = ()
    leaf: str | None = None

    def yield_word(self) -> str:
        if self.leaf is not None:
            return self.leaf
        return "".join(child.yield_word() for child in self.children)


class CykRecognizer:
    """CYK membership and parsing for one CNF grammar, compiled once.

    Nonterminal sets are int bitmasks (bit i is the i-th name in sorted
    order) and pair rules X -> Y Z are indexed by their left child Y.  The
    chart is stored by column: column j holds the nonempty cells of the
    spans that end at j, so it depends only on w[:j].  The chart of the
    last queried word is kept, and a query recomputes only the columns
    after its common prefix with that word (the column-wise chart of
    Earley 1970 and of Lange & Leiss 2009).  Words queried in
    length-lexicographic order share long prefixes.  `cyk_member` and
    `parse` use the one recognizer a grammar keeps (`CnfGrammar.recognizer`).
    """

    def __init__(self, g: CnfGrammar):
        self.grammar = g
        self._names = sorted(g.nonterminals)
        self._bit = {x: 1 << i for i, x in enumerate(self._names)}
        self._letters: dict[str, int] = {}
        for x, letters in g.term_rules.items():
            for a in letters:
                self._letters[a] = self._letters.get(a, 0) | self._bit[x]
        by_left: dict[int, dict[int, int]] = {}
        for x, pairs in g.pair_rules.items():
            for y, z in pairs:
                heads = by_left.setdefault(self._bit[y], {})
                heads[self._bit[z]] = heads.get(self._bit[z], 0) | self._bit[x]
        self._by_left = {y: tuple(heads.items()) for y, heads in by_left.items()}
        self._word = ""
        self._columns: list[dict] = [{}]  # _columns[j][i]: derivers of w[i:j]

    def _product(self, left: int, right: int) -> int:
        """Heads X of the rules X -> Y Z with Y in left and Z in right."""
        heads = 0
        while left:
            y = left & -left
            left ^= y
            for z, xs in self._by_left.get(y, ()):
                if right & z:
                    heads |= xs
        return heads

    def _chart(self, w: str) -> list:
        """The chart of w; column j is filled right to left, each nonempty
        cell (k, j) combining with the nonempty cells of column k."""
        old, columns = self._word, self._columns
        keep = 0
        limit = min(len(old), len(w))
        while keep < limit and old[keep] == w[keep]:
            keep += 1
        del columns[keep + 1:]
        self._word = w[:keep]  # the columns kept if the loop is interrupted
        product, letters = self._product, self._letters
        for j in range(keep + 1, len(w) + 1):
            column = [0] * j
            column[j - 1] = letters.get(w[j - 1], 0)
            for k in range(j - 1, 0, -1):
                right = column[k]
                if right:
                    for i, left in columns[k].items():
                        column[i] |= product(left, right)
            columns.append({i: m for i, m in enumerate(column) if m})
        self._word = w
        return columns

    def member(self, w: str) -> bool:
        if w == "":
            return self.grammar.start_nullable
        return bool(self._chart(w)[len(w)].get(0, 0) & self._bit[self.grammar.start])

    def parse(self, w: str) -> ParseTree:
        """One derivation tree for a member (raises on non-members)."""
        g = self.grammar
        if w == "":
            if g.start_nullable:
                return ParseTree(g.start, (0, 0), (), "")
            raise NotAMemberError("empty word is not a member")
        if not self.member(w):
            raise NotAMemberError(f"{w!r} is not a member")
        columns, names = self._columns, self._names

        def build(x: str, i: int, j: int) -> ParseTree:
            head = self._bit[x]
            if j - i == 1 and self._letters.get(w[i], 0) & head:
                return ParseTree(x, (i, j), (), w[i])
            for k in range(i + 1, j):
                left, right = columns[k].get(i, 0), columns[j].get(k, 0)
                while left:
                    y = left & -left
                    left ^= y
                    for z, xs in self._by_left.get(y, ()):
                        if right & z and xs & head:
                            return ParseTree(x, (i, j), (
                                build(names[y.bit_length() - 1], i, k),
                                build(names[z.bit_length() - 1], k, j)))
            raise NotAMemberError(f"no derivation of {x} over {w[i:j]!r}")

        return build(g.start, 0, len(w))


def cyk_member(g: CnfGrammar, w: str) -> bool:
    return g.recognizer.member(w)


def parse(g: CnfGrammar, w: str) -> ParseTree:
    """One derivation tree for a member (raises on non-members)."""
    return g.recognizer.parse(w)


# ---------------------------------------------------------------------------
# Quotients (dotted-nonterminal construction, one letter at a time)
# ---------------------------------------------------------------------------


def _letter_quotient(g: CnfGrammar, letter: str, side: str) -> Cfg:
    fresh = _fresh_namer(g.nonterminals)
    dotted = {x: fresh(f"{x}_q") for x in g.nonterminals}
    productions: dict[str, list] = {nt: [] for nt in g.nonterminals}
    for x in g.nonterminals:
        productions[dotted[x]] = []
    for x, pairs in g.pair_rules.items():
        for y, z in pairs:
            productions[x].append((y, z))
            if side == "left":
                productions[dotted[x]].append((dotted[y], z))
            else:
                productions[dotted[x]].append((y, dotted[z]))
    for x, letters in g.term_rules.items():
        for a in letters:
            productions[x].append((a,))
            if a == letter:
                productions[dotted[x]].append(())
    return Cfg(dotted[g.start], {k: tuple(v) for k, v in productions.items()})


def quotient(g: CnfGrammar, u: str, v: str) -> CnfGrammar:
    """Grammar for {w : u w v is in the language}."""
    for ch in u:
        g = to_cnf(_letter_quotient(g, ch, "left"))
    for ch in reversed(v):
        g = to_cnf(_letter_quotient(g, ch, "right"))
    return g


# ---------------------------------------------------------------------------
# Finiteness and pumping
# ---------------------------------------------------------------------------


def _useful_nonterminals(g: CnfGrammar) -> set:
    pruned = _prune(g)
    return set(pruned.pair_rules) | set(pruned.term_rules)


def is_finite_cfl(g: CnfGrammar) -> bool:
    """Finite iff no useful nonterminal can re-derive itself: every
    strongly connected component of the derivation graph is one
    nonterminal with no rule back to itself."""
    useful = _useful_nonterminals(g)
    edges = {x: {sym for pair in g.pair_rules.get(x, ()) if useful.issuperset(pair)
                 for sym in pair}
             for x in useful}
    return all(len(comp) == 1 and comp.isdisjoint(edges[x])
               for comp in _sccs(sorted(useful), edges) for x in comp)


def max_finite_length(g: CnfGrammar) -> int:
    """Longest derivable word of a finite CNF language."""
    if not is_finite_cfl(g):
        raise GrammarError("language is infinite")
    useful = _useful_nonterminals(g)
    best: dict[str, int] = {}

    def longest(x: str) -> int:
        if x in best:
            return best[x]
        value = max((1 for a in g.term_rules.get(x, ())), default=0)
        for y, z in g.pair_rules.get(x, ()):
            if y in useful and z in useful:
                value = max(value, longest(y) + longest(z))
        best[x] = value
        return value

    if g.start not in useful:
        return 0
    return longest(g.start)


def pump_cfl(g: CnfGrammar, y: str):
    """Split a member y = a b c d e around a repeated nonterminal.

    Every nonterminal that reappears in its own subtree gives a candidate
    split; the one with the shortest outer span is preferred, and
    a b^n c d^n e is re-checked as a member for n <= 4 before returning.
    """
    if not cyk_member(g, y) or y == "":
        raise NotAMemberError(f"{y!r} is not a pumpable member")
    tree = parse(g, y)
    candidates: list[tuple[ParseTree, ParseTree]] = []

    def walk(node: ParseTree, nearest: dict):
        if node.symbol in nearest:
            candidates.append((nearest[node.symbol], node))
        previous = nearest.get(node.symbol)
        nearest[node.symbol] = node
        for child in node.children:
            walk(child, nearest)
        if previous is None:
            del nearest[node.symbol]
        else:
            nearest[node.symbol] = previous

    walk(tree, {})
    if not candidates:
        raise GrammarError(f"no repeated nonterminal over {y!r}: word too short")
    candidates.sort(key=lambda pair: (pair[0].span[1] - pair[0].span[0],
                                      pair[0].span, pair[1].span))
    last_error = None
    for outer, inner in candidates:
        (i2, j2), (i1, j1) = outer.span, inner.span
        a, b, c, d, e = y[:i2], y[i2:i1], y[i1:j1], y[j1:j2], y[j2:]
        if not b + d:
            continue
        for n in range(5):
            if not cyk_member(g, a + b * n + c + d * n + e):
                last_error = f"pump of {y!r} fails regeneration at n={n}"
                break
        else:
            return a, b, c, d, e
    raise GrammarError(last_error or f"only degenerate pumps over {y!r}")


# ---------------------------------------------------------------------------
# CFL x regular product
# ---------------------------------------------------------------------------


def intersect_regular(g: CnfGrammar, d: Dfa) -> CnfGrammar:
    """Grammar for the intersection with a word automaton, via the
    (state, nonterminal, state) triple construction."""
    if d.arity != 1:
        raise GrammarError("intersection needs a word automaton")

    def name(p: int, x: str, q: int) -> str:
        return f"<{p},{x},{q}>"

    states = range(d.n_states)
    productions: dict[str, list] = {}
    start = "S*"
    productions[start] = []
    for f in d.accepting:
        productions[start].append((name(d.start, g.start, f),))
    if g.start_nullable and d.start in d.accepting:
        productions[start].append(())
    for x, pairs in g.pair_rules.items():
        for p in states:
            for q in states:
                head = name(p, x, q)
                rules = productions.setdefault(head, [])
                for y, z in pairs:
                    for s in states:
                        rules.append((name(p, y, s), name(s, z, q)))
    for x, letters in g.term_rules.items():
        for a in letters:
            if a not in d.alphabets[0]:
                continue  # no word the automaton reads has this letter
            for p in states:
                q = d.transitions[(p, (a,))]
                productions.setdefault(name(p, x, q), []).append((a,))
    for x in set(g.pair_rules) | set(g.term_rules):
        for p in states:
            for q in states:
                productions.setdefault(name(p, x, q), [])
    cfg = Cfg(start, {k: tuple(v) for k, v in productions.items()})
    return to_cnf(cfg)


# ---------------------------------------------------------------------------
# Infinite regular subset (inside or outside the language)
# ---------------------------------------------------------------------------


def infinite_regular_subset(g: CnfGrammar, domain: Dfa):
    """Return (r, side): an infinite regular language r inside ('inside')
    or outside ('outside') the grammar's language, relative to the domain.

    Picks the least domain member x at pumping length, splits x = u v w,
    and analyses the intersection with u v* w: finite intersections leave
    the complement branch, infinite ones are thinned to an arithmetic
    progression of v-powers via the context-free pumping lemma (powers
    v^1 to v^PUMP_POWERS are tried, else NoPumpError).  The 20 least words
    of r are checked against the grammar before r is returned.
    """
    alphabet = "".join(domain.alphabets[0])
    p = pumping_constant(domain)
    x = min_word_of_length_at_least(domain, p)
    u, v, w = pump_decompose(domain, x)
    uvw = concat(from_word(u, alphabet),
                 concat(word_star(v, alphabet), from_word(w, alphabet)))
    m_grammar = intersect_regular(g, uvw)

    if is_finite_cfl(m_grammar):
        longest = max_finite_length(m_grammar)
        j_max = max((longest - len(u) - len(w)) // len(v), 0)
        members = [
            u + v * j + w
            for j in range(j_max + 1)
            if cyk_member(m_grammar, u + v * j + w)
        ]
        r = combine(uvw, finite_language(members, alphabet), "minus")
        _sweep_check(r, g, False)
        return r, "outside"

    n_grammar = quotient(m_grammar, u, w)
    failures = []
    for j in range(1, PUMP_POWERS + 1):
        y = v * j
        if not cyk_member(n_grammar, y):
            continue
        try:
            a, b, c, d, e = pump_cfl(n_grammar, y)
        except GrammarError:
            continue
        if len(b + d) % len(v) != 0:
            failures.append(f"|bd|={len(b + d)} not a multiple of |v|={len(v)} at {y!r}")
            continue
        k = len(b + d) // len(v)
        m = j - k
        r = concat(from_word(u + v * m, alphabet),
                   concat(word_star(v * k, alphabet), from_word(w, alphabet)))
        try:
            _sweep_check(r, g, True)
        except GrammarError:
            continue
        return r, "inside"
    raise NoPumpError(
        f"no power v^j with j <= {PUMP_POWERS} of v = {v!r} pumps in the intersection"
        + (f" ({failures[0]})" if failures else ""))


def _sweep_check(r: Dfa, g: CnfGrammar, expect_member: bool):
    from .automata import enumerate_ll

    for word in enumerate_ll(r, 20):
        if cyk_member(g, word) != expect_member:
            raise GrammarError(
                f"extracted language leaks: {word!r} membership != {expect_member}")


def cfl_nonrandom_pipeline(g: Cfg, domain: Dfa):
    """(setup, r, side): a bettor that grows capital on the grammar's
    language under every exhaustive text, and the infinite regular subset
    r, inside or outside the language as side says, that it bets on."""
    from .constructions import subset_bettor

    cnf = g if isinstance(g, CnfGrammar) else to_cnf(g)
    r, side = infinite_regular_subset(cnf, domain)
    return subset_bettor(r, side), r, side
