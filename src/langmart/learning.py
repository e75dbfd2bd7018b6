"""Betting constructions that learn, search or index.

Enumerative learners over automatic families (single-index and two-index
dovetail), greedy adversarial texts with language extraction from stalled
states, anchored betting on polynomial-time languages inside the gaps of
the ordered text, and an indexing of all finite subsets of a
bounded-slice domain.  Only the adversarial, family-learner,
variant-learner and pclass kinds load this module, and its names import
only from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .automata import (
    Dfa,
    NoSuccessorError,
    count_leq_ll,
    enumerate_ll,
    min_ll,
    min_word_of_length_at_least,
    slice_count,
    succ_ll,
    words_of_length,
)
from .constructions import ConstructionError
from .dyadic import HALF, ONE, THREE_HALVES
from .engine import MState, PAUSE, Setup, bettor, checked_step, sequence_text
from .regular import explore, exponential_growth_witness, growth_class, universe


class LearnerStallError(ConstructionError):
    pass


class HypothesisExhaustedError(ConstructionError):
    pass


# ---------------------------------------------------------------------------
# Automatic families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AutomaticFamily:
    """Indexed language collection: regular index set plus a two-track
    membership automaton reading (word, index) convolutions."""

    index_language: Dfa
    membership: Dfa

    def __post_init__(self):
        if self.membership.arity != 2:
            raise ValueError("membership relation must read two tracks")

    def member(self, word: str, index: str) -> bool:
        return self.membership.accepts((word, index))

    def min_index(self) -> str:
        return min_ll(self.index_language)

    def succ_index(self, index: str) -> str:
        return succ_ll(self.index_language, index)


def prefix_family(alphabet: str = "01") -> AutomaticFamily:
    """The family L_e = {x : e is a prefix of x} indexed by all words."""
    letters = tuple(alphabet)
    pad = "#"
    matching, done, dead = 0, 1, 2
    trans = {}
    for a in letters:
        for b in letters:
            trans[(matching, (a, b))] = matching if a == b else dead
        trans[(matching, (a, pad))] = done
        trans[(matching, (pad, a))] = dead
        trans[(done, (a, pad))] = done
    membership = Dfa(2, [letters, letters], 3, matching, [matching, done], trans)
    return AutomaticFamily(universe(alphabet), membership)


# ---------------------------------------------------------------------------
# Adversarial texts and language extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StallWitness:
    """State at which no searched word keeps the capital from rising."""

    state: MState
    stage: int
    search_bound: int


def adversarial_text(setup: Setup, domain: Dfa, oracle, *, mode: str = "any",
                     horizon: int = 100, search_bound: int = 1000):
    """Greedy text that never lets the setup's capital rise.

    At each stage the first search_bound domain words (ll order, skipping
    used words in repetition-free mode) are scanned for one whose honest
    label does not increase the capital; the least such word is appended.
    If none exists the search stalls and the current state is returned as
    a StallWitness instead of a text.  Every candidate is stepped through
    checked_step, so an unfair setup raises its step-contract error.
    """
    if mode not in ("any", "repetition-free"):
        raise ValueError(f"unknown mode {mode!r}")
    oracle_fn = oracle.accepts if isinstance(oracle, Dfa) else oracle
    pool = enumerate_ll(domain, search_bound)
    used: set[str] = set()
    state = setup.start
    items: list[str] = []
    for stage in range(horizon):
        chosen = None
        for x in pool:
            if mode == "repetition-free" and x in used:
                continue
            outs = checked_step(setup, state, x, stage + 1)
            nxt = setup.after(state, outs[1 if oracle_fn(x) else 0])
            if nxt.capital <= state.capital:
                chosen = (x, nxt)
                break
        if chosen is None:
            return StallWitness(state, stage, search_bound)
        x, state = chosen
        items.append(x)
        used.add(x)
    return sequence_text(items)


def extract_language(setup: Setup, state: MState) -> Callable[[str], bool]:
    """Membership predicate read off a stalled state: a word belongs iff
    the 1-labeled step pays strictly more than the 0-labeled step."""

    def predicate(word: str) -> bool:
        lo, hi = setup.step(state, word)
        return hi.capital > lo.capital

    return predicate


# ---------------------------------------------------------------------------
# Enumerative learners over automatic families
# ---------------------------------------------------------------------------


def family_learner(fam: AutomaticFamily) -> Setup:
    """Keeps an index as memory: right bets pay 3/2, wrong bets halve the
    capital and advance the index to its ll-successor."""
    start_index = fam.min_index()

    def bet(memory: tuple, word):
        if word is PAUSE:
            return ((ONE, memory),)
        e = memory[0]
        member = fam.member(word, e)
        try:
            lost = HALF, (fam.succ_index(e),)
        except NoSuccessorError:
            raise LearnerStallError(f"index set exhausted after {e!r}") from None
        won = THREE_HALVES, memory
        return (lost, won) if member else (won, lost)

    return bettor("family_learner", bet, (start_index,), {THREE_HALVES, HALF})


def _ll_key(word: str, letters):
    order = {ch: i for i, ch in enumerate(letters)}
    return (len(word), tuple(order[ch] for ch in word))


def variant_family_learner(fam: AutomaticFamily) -> Setup:
    """Two-index dovetail: the working index e retries every index below a
    rising ceiling d, so each index is visited arbitrarily often; that is
    what tolerates a finite symmetric difference with a family member."""
    e0 = fam.min_index()
    letters = fam.index_language.alphabets[0]

    def bet(memory: tuple, word):
        if word is PAUSE:
            return ((ONE, memory),)
        e, d = memory
        member = fam.member(word, e)
        if _ll_key(e, letters) < _ll_key(d, letters):
            lost = HALF, (fam.succ_index(e), d)
        else:
            lost = HALF, (e0, fam.succ_index(d))
        won = THREE_HALVES, memory
        return (lost, won) if member else (won, lost)

    return bettor("variant_family_learner", bet, (e0, e0), {THREE_HALVES, HALF})


def dovetail_pairs(fam: AutomaticFamily, count: int) -> list[tuple[str, str]]:
    """Index pairs the variant learner visits under persistent wrong bets."""
    e0 = fam.min_index()
    pairs = [(e0, e0)]
    e, d = e0, e0
    letters = fam.index_language.alphabets[0]
    while len(pairs) < count:
        if _ll_key(e, letters) < _ll_key(d, letters):
            e = fam.succ_index(e)
        else:
            e, d = e0, fam.succ_index(d)
        pairs.append((e, d))
    return pairs


# ---------------------------------------------------------------------------
# Betting on polynomial-time languages inside ordered-text gaps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hypothesis:
    """Budgeted decision procedure: decide(word) is trusted only after
    cost(word) simulation ticks have been granted."""

    name: str
    decide: Callable[[str], int]
    cost: Callable[[str], int]


@dataclass(frozen=True)
class HypothesisSpace:
    hypotheses: tuple
    cycle: bool = False

    def __len__(self):
        return len(self.hypotheses)

    def get(self, index: int) -> Hypothesis:
        return self.hypotheses[index]

    def advance(self, index: int) -> int:
        index += 1
        if index < len(self.hypotheses):
            return index
        if self.cycle:
            return 0
        raise HypothesisExhaustedError("no hypotheses left and cycle = false")


def anchor_word(domain: Dfa, threshold: int) -> str:
    """Least domain word of length at least the threshold."""
    return min_word_of_length_at_least(domain, threshold)


def anchor_gap_report(domain: Dfa, count: int):
    """Check the gap inequality for the first `count` anchors.

    For each threshold t the anchor has at least 2^((t-k)/k) predecessors
    where k witnesses exponential growth, so consecutive anchors are
    separated by at least 2^((t-k)/k) - t positions.  Comparisons are done
    in exact integer arithmetic: gap + t >= 2^((t-k)/k) is checked as
    (gap + t)^k >= 2^(t-k).
    """
    k = exponential_growth_witness(domain)
    rows = []
    prev = anchor_word(domain, 0)
    prev_count = count_leq_ll(domain, prev)
    for t in range(1, count + 1):
        word = anchor_word(domain, t)
        here = count_leq_ll(domain, word)
        gap = here - prev_count
        if t <= k:
            ok = gap + t >= 1  # the bound 2^((t-k)/k) is at most 1
        else:
            ok = gap + t >= 0 and (gap + t) ** k >= 2 ** (t - k)
        rows.append({"t": t, "anchor": word, "predecessors": here,
                     "gap": gap, "ok": ok})
        prev_count = here
    return rows


def pclass_bettor(hyp: HypothesisSpace, domain: Dfa) -> Setup:
    """Precompute the verdicts of scheduled anchor words, then bet 3/2 on
    the computed output when the anchor arrives in the ordered text.

    Anchors stretch apart at exponential pace (the next one is the least
    word at least as long as the anchor count forces), so any polynomial
    budget eventually fits in the gap; mismatched outputs advance the
    hypothesis, so a correct-and-fast hypothesis is settled on for good.
    """
    if growth_class(domain).kind != "exponential":
        raise ConstructionError("anchored betting needs an exponential domain")
    if not len(hyp):
        raise ValueError("empty hypothesis space")
    first = anchor_word(domain, 0)

    def ticked(memory: tuple) -> tuple:
        counter, anchor, m_in, idx, phase, work, out = memory
        if out == "" and phase == "run":
            work = work + "0"
            h = hyp.get(int(idx))
            if len(work) >= h.cost(m_in):
                out = str(h.decide(m_in))
                phase = "done"
        return (counter, anchor, m_in, idx, phase, work, out)

    def bet(memory: tuple, word):
        counter, anchor, m_in, idx, phase, work, out = memory
        if word is PAUSE:
            return ((ONE, ticked(memory)),)
        if word != anchor:
            kept = ONE, ticked(memory)
            return kept, kept
        # activation: settle the bet, then schedule the next anchor
        counter = counter + "0"
        nxt = anchor_word(domain, max(len(counter), len(anchor) + 1))
        settled = (counter, nxt, nxt, idx, "run", "", "")
        if out == "":
            return (ONE, settled), (ONE, settled)
        advanced = (counter, nxt, nxt, str(hyp.advance(int(idx))), "run", "", "")
        verdict = int(out)
        return tuple((THREE_HALVES, settled) if bit == verdict else (HALF, advanced)
                     for bit in (0, 1))

    return bettor("pclass_bettor", bet, ("", first, first, "0", "run", "", ""),
                  {THREE_HALVES, HALF, ONE})


# ---------------------------------------------------------------------------
# Indexing the finite subsets of a bounded-slice domain
# ---------------------------------------------------------------------------

_LETTER_POOL = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


class SliceCodec:
    """Finite subsets of a bounded-slice domain as index words: letter n
    encodes which of the (at most c) length-n domain words are present."""

    def __init__(self, domain: Dfa, c: int):
        if c < 1:
            raise ValueError("slice bound must be at least 1")
        taken = set(domain.alphabets[0])
        letters = [ch for ch in _LETTER_POOL if ch not in taken][: 2**c]
        if len(letters) < 2**c:
            raise ValueError(f"no letter pool for 2^{c} index letters")
        self.domain = domain
        self.c = c
        self.letters = tuple(letters)

    def letter_for_bits(self, bits) -> str:
        value = sum(1 << j for j, bit in enumerate(bits) if bit)
        return self.letters[value]

    def bits_for_letter(self, letter: str) -> tuple[int, ...]:
        value = self.letters.index(letter)
        return tuple((value >> j) & 1 for j in range(self.c))

    def slice_words(self, n: int) -> list[str]:
        return words_of_length(self.domain, n)

    def encode(self, words) -> str:
        members = set(words)
        for w in members:
            if not self.domain.accepts(w):
                raise ValueError(f"{w!r} is outside the domain")
        top = max((len(w) for w in members), default=-1)
        out = []
        for n in range(top + 1):
            slice_here = self.slice_words(n)
            bits = [1 if w in members else 0 for w in slice_here]
            if len(bits) > self.c:
                raise ValueError("slice bound violated by the domain")
            bits += [0] * (self.c - len(bits))
            out.append(self.letter_for_bits(bits))
        return "".join(out)

    def decode(self, index: str) -> frozenset:
        members = set()
        for n, letter in enumerate(index):
            bits = self.bits_for_letter(letter)
            slice_here = self.slice_words(n)
            for j, bit in enumerate(bits):
                if bit:
                    if j >= len(slice_here):
                        raise ValueError(
                            f"letter {letter!r} marks a missing slice position")
                    members.add(slice_here[j])
        return frozenset(members)


def _slice_schedule(domain: Dfa):
    """Slice sizes as (values, preperiod, period); sizes are eventually
    periodic on bounded-slice domains."""
    horizon = 8 * domain.n_states + 64
    sizes = [slice_count(domain, n) for n in range(horizon + 1)]
    for period in range(1, horizon // 3 + 1):
        for pre in range(0, horizon // 3 + 1):
            if all(sizes[i] == sizes[i + period]
                   for i in range(pre, horizon + 1 - period)):
                return sizes[: pre + period], pre, period
    raise ConstructionError("slice sizes show no small eventual period")


def finite_set_indexing(domain: Dfa) -> tuple[SliceCodec, AutomaticFamily]:
    """Index every finite subset of a bounded-slice domain.

    Returns the host-side codec together with an automatic family: a
    regular index language over the 2^c tuple letters and a two-track
    membership automaton that tracks, while reading the word, how many
    same-length domain words precede it lexicographically (the count never
    needs to pass the slice bound), then looks that position up in the
    tuple letter read where the word ends.
    """
    growth = growth_class(domain)
    if growth.kind != "bounded":
        raise ConstructionError("indexing needs a bounded-slice domain")
    c = max(growth.bound, 1)
    codec = SliceCodec(domain, c)
    sizes, pre, period = _slice_schedule(domain)

    def sched_next(i: int) -> int:
        return i + 1 if i + 1 < pre + period else pre

    kz = codec.letters[0]  # the all-empty tuple letter

    def letter_ok(letter: str, sched_i: int) -> bool:
        bits = codec.bits_for_letter(letter)
        return all(bit == 0 for j, bit in enumerate(bits) if j >= sizes[sched_i])

    # ---- index language over K ----
    # a tail state remembers the schedule position of the next slice and
    # whether the letter just read was not the all-empty tuple (indices never
    # end on it); the empty index encodes the empty set
    DEAD = ("dead",)

    def tail_state(sched_i, last_nz):
        return ("tail", sched_i, last_nz)

    def next_tail(state, kappa):
        if state == DEAD or not letter_ok(kappa, state[1]):
            return DEAD
        return tail_state(sched_next(state[1]), kappa != kz)

    def accepts(state) -> bool:
        return state[0] == "tail" and state[2]

    index_language = explore(1, [codec.letters], tail_state(0, True),
                             lambda state, col: next_tail(state, col[0]), accepts)

    # ---- membership relation over (word, index) convolutions ----
    letters = domain.alphabets[0]
    order = {ch: i for i, ch in enumerate(letters)}
    coreach = frozenset(domain.coreachable_states())
    cap = c + 1

    def read_state(sched_i, q, cnts):
        return ("read", sched_i, q, cnts)

    def advance_counts(cnts, q, a):
        new = [0] * domain.n_states
        for p, count in enumerate(cnts):
            if not count:
                continue
            for ch in letters:
                r = domain.table[p][ch]
                if r in coreach:
                    new[r] = min(new[r] + count, cap)
        for ch in letters[: order[a]]:
            r = domain.table[q][ch]
            if r in coreach:
                new[r] = min(new[r] + 1, cap)
        return tuple(new)

    def successor(state, col):
        a, kappa = col
        if state == DEAD:
            return DEAD
        if state[0] == "tail":  # the word has ended: the index language's moves
            return next_tail(state, kappa) if a == "#" else DEAD
        _, sched_i, q, cnts = state
        if a != "#" and kappa != "#":
            if not letter_ok(kappa, sched_i):
                return DEAD
            return read_state(sched_next(sched_i),
                              domain.table[q][a],
                              advance_counts(cnts, q, a))
        if a != "#" and kappa == "#":
            return DEAD  # index too short: no letter covers this word's slice
        # word ended here; kappa decides membership via the rank
        if q not in domain.accepting:
            return DEAD
        if not letter_ok(kappa, sched_i):
            return DEAD
        rank = sum(cnts[p] for p in domain.accepting)
        bits = codec.bits_for_letter(kappa)
        if rank >= c or not bits[rank]:
            return DEAD
        return tail_state(sched_next(sched_i), kappa != kz)

    start = read_state(0, domain.start, tuple([0] * domain.n_states))
    membership = explore(2, [letters, codec.letters], start, successor, accepts)
    return codec, AutomaticFamily(index_language, membership)
