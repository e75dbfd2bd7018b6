"""Executable betting constructions over regular domains.

Each function returns a Setup that realizes one concrete strategy:
betting along a fixed automaton, along an extracted regular subset, by
simulating a machine on a self-scheduled text, or by diagonalizing
against a weighted enumeration of setups.  Every bettor is a memory
automaton built with engine.bettor: one call bet(memory, word) returns the
(factor, memory) outcome of each label, and bet(memory, PAUSE) the one
outcome of a pause, so its capital moves by fixed dyadic factors its
memory chooses, and
every construction is meant to pass the engine's exact fairness audit.
The learners, adversarial texts, anchored betting and finite-set indexing
live in `langmart.learning`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from .automata import Dfa, enumerate_ll, min_ll, succ_ll
from .dyadic import Dyadic, HALF, ONE, THREE_HALVES, TWO, ZERO
from .engine import (
    MEMORY_GROWTH_LIMIT,
    MState,
    NotNormedError,
    PAUSE,
    Setup,
    bettor,
    checked_step,
    is_normed,
    run,
    sequence_text,
    truncated_sum,
)


class ConstructionError(Exception):
    pass


class DiagonalBoundError(ConstructionError):
    pass


# The weight base of every certificate: the i-th setup weighs 1/4**i.
WEIGHT_BASE = Dyadic(1, 2)


# ---------------------------------------------------------------------------
# Bettors for regular languages and regular subsets
# ---------------------------------------------------------------------------


def dfa_bettor(name: str, dfa: Dfa, on_member: tuple, on_other: tuple) -> Setup:
    """Bets along a 1-track automaton: a word pays the factor pair (label 0,
    label 1) on_member when dfa accepts it and on_other when not; a pause
    pays 1.  Its memory never moves."""

    def bet(memory: tuple, word):
        if word is PAUSE:
            return ((ONE, memory),)
        f0, f1 = on_member if dfa.accepts(word) else on_other
        return (f0, memory), (f1, memory)

    return bettor(name, bet, ("",), {*on_member, *on_other})


def regular_bettor(lang: Dfa) -> Setup:
    """Bets 3/2 of the capital on the automaton's verdict, 1/2 against."""
    return dfa_bettor("regular_bettor", lang, (HALF, THREE_HALVES), (THREE_HALVES, HALF))


def subset_bettor(r: Dfa, side: str) -> Setup:
    """Neutral outside r; on r-members bets toward membership ('inside')
    or non-membership ('outside') of the target language."""
    if side not in ("inside", "outside"):
        raise ValueError(f"side must be inside/outside, not {side!r}")
    toward = (HALF, THREE_HALVES) if side == "inside" else (THREE_HALVES, HALF)
    return dfa_bettor(f"subset_bettor[{side}]", r, toward, (ONE, ONE))


# ---------------------------------------------------------------------------
# Machine simulation on a self-scheduled text
# ---------------------------------------------------------------------------

TM_STEP_BUDGET = 10**6  # the steps TmProgram.decide takes before it gives up


@dataclass(frozen=True)
class TmProgram:
    """Single-work-tape deterministic machine with a 0/1 output register.

    Configurations are strings "left|state|right" (head on the first
    letter of right); one step rewrites a bounded window, which is what
    keeps the per-stage work of the simulating bettor bounded.  A
    configuration comes with its verdict: "1" in the accepting state, "0"
    in the rejecting one, "" while the machine runs.
    """

    start: str
    accept: str
    reject: str
    blank: str
    rules: dict  # (state, symbol) -> (write, move, state); move in LRS

    def __post_init__(self):
        names = {self.start, self.accept, self.reject}
        names.update(state for state, _ in self.rules)
        names.update(rule[2] for rule in self.rules.values())
        symbols = {self.blank}
        symbols.update(sym for _, sym in self.rules)
        symbols.update(rule[0] for rule in self.rules.values())
        if not all(isinstance(x, str) for x in names | symbols):
            raise TypeError("state names and tape symbols must be strings")
        if any("|" in name for name in names):
            raise ValueError("state names must not contain '|'")
        if any(len(sym) != 1 or sym == "|" for sym in symbols):
            raise ValueError("tape symbols must be single letters, not '|'")
        for _, move, _ in self.rules.values():
            if move not in ("L", "R", "S"):
                raise ValueError(f"bad move {move!r}")

    def _verdict(self, state: str) -> str:
        return "1" if state == self.accept else "0" if state == self.reject else ""

    def init_config(self, word: str) -> tuple[str, str]:
        """The start configuration on word and its verdict."""
        return f"|{self.start}|{word}", self._verdict(self.start)

    def step_config(self, config: str) -> tuple[str, str]:
        """The configuration one step after config, and its verdict."""
        left, state, right = config.split("|")
        head = right[0] if right else self.blank
        rule = self.rules.get((state, head))
        if rule is None:
            # undefined pairs halt rejecting
            return f"{left}|{self.reject}|{right}", "0"
        write, move, nxt = rule
        rest = right[1:]
        if move == "S":
            left2, right2 = left, write + rest
        elif move == "R":
            left2, right2 = left + write, rest
        elif left:
            left2, right2 = left[:-1], left[-1] + write + rest
        else:
            left2, right2 = "", self.blank + write + rest
        left2 = left2.lstrip(self.blank)
        if right2:
            right2 = right2[0] + right2[1:].rstrip(self.blank)
            if right2 == self.blank:
                right2 = ""
        return f"{left2}|{nxt}|{right2}", self._verdict(nxt)

    def decide(self, word: str) -> int:
        """The verdict on word, 1 or 0, from a run on a tape keyed by position."""
        rules, blank, accept, reject = self.rules, self.blank, self.accept, self.reject
        tape, head, state = dict(enumerate(word)), 0, self.start
        for _ in range(TM_STEP_BUDGET):
            if state == accept or state == reject:
                return int(state == accept)
            sym = tape.get(head, blank)
            # an undefined pair is one step to rejecting
            tape[head], move, state = rules.get((state, sym)) or (sym, "S", reject)
            head += 1 if move == "R" else -1 if move == "L" else 0
        raise ConstructionError(f"machine ran past {TM_STEP_BUDGET} steps on {word!r}")

    def to_json(self) -> dict:
        return {
            "start": self.start, "accept": self.accept, "reject": self.reject,
            "blank": self.blank,
            "rules": sorted(
                [state, sym, write, move, nxt]
                for (state, sym), (write, move, nxt) in self.rules.items()
            ),
        }

    @classmethod
    def from_json(cls, data: dict) -> "TmProgram":
        rules = {
            (state, sym): (write, move, nxt)
            for state, sym, write, move, nxt in data["rules"]
        }
        return cls(data["start"], data["accept"], data["reject"],
                   data["blank"], rules)


def tm_dynamic_bettor(prog: TmProgram, domain: Dfa) -> tuple[Setup, Callable]:
    """The bettor and its self-scheduled text, a plain text(n, state) for
    `run`.  The bettor simulates the machine one step per stage; the text
    reads the run's state and pauses until an output is ready, then
    schedules the simulated input itself, and the bettor stakes everything
    on the computed verdict.  An input too long for one step's memory
    growth is first copied onto the work word a bounded piece per pause; a
    configuration always holds '|'.
    """
    if "|" in domain.alphabets[0]:
        raise ConstructionError("the domain letter '|' cannot appear in a machine configuration")
    # A pause may grow the work word by MEMORY_GROWTH_LIMIT letters.  The start
    # configuration adds two '|', the start state and a load piece of one letter
    # or more; a step changes the state name and adds at most 2 tape letters on
    # a left move, 1 on another and none when an undefined pair halts rejecting.
    load = MEMORY_GROWTH_LIMIT - 2 - len(prog.start)  # letters per loading pause
    if load < 1:
        raise ConstructionError(
            f"the start state {prog.start!r} is too long: the start configuration can grow "
            f"the work word by more than {MEMORY_GROWTH_LIMIT} letters in one pause")
    running = {prog.start, *(state for state, _ in prog.rules),
               *(rule[2] for rule in prog.rules.values())} - {prog.accept, prog.reject}
    changes = [(state, nxt, 2 if move == "L" else 1)
               for (state, _), (_, move, nxt) in prog.rules.items() if state in running]
    for state, nxt, letters in changes + [(state, prog.reject, 0) for state in running]:
        if letters + len(nxt) - len(state) > MEMORY_GROWTH_LIMIT:
            raise ConstructionError(
                f"the step from state {state!r} to {nxt!r} can grow the work word by "
                f"more than {MEMORY_GROWTH_LIMIT} letters in one pause")
    d0 = min_ll(domain)

    def text(_n: int, state: MState):
        m_in, _, m_out = state.memory
        return m_in if m_out else PAUSE

    def bet(memory: tuple, word):
        m_in, m_work, m_out = memory
        if word is PAUSE:
            if m_out:
                return ((ONE, memory),)  # waiting for the scheduled word
            if "|" in m_work:
                work, out = prog.step_config(m_work)
            elif len(m_in) - len(m_work) > load:
                work, out = m_in[:len(m_work) + load], ""
            else:
                work, out = prog.init_config(m_in)
            return ((ONE, (m_in, work, out)),)
        if m_out and word == m_in:
            nxt = (succ_ll(domain, m_in), "", "")
            verdict = int(m_out)
            return tuple((TWO if bit == verdict else ZERO, nxt) for bit in (0, 1))
        return (ONE, memory), (ONE, memory)  # off-schedule words are not bet on

    return bettor("tm_dynamic_bettor", bet, (d0, "", ""), {TWO, ZERO, ONE}), text


# ---------------------------------------------------------------------------
# Diagonalization against a finite enumeration of setups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertEntry:
    word: str
    bit: int
    capital: Dyadic


@dataclass(frozen=True)
class DiagonalCertificate:
    """Membership table of the constructed language with the weighted-sum
    capital recorded at each word's position; all capitals stay <= 2."""

    entries: tuple
    weight_base: Dyadic
    enum_hash: str
    setup_descriptors: tuple | None = None
    domain_json: dict | None = None

    def oracle(self) -> Callable[[str], bool]:
        table = {entry.word: entry.bit for entry in self.entries}
        return lambda w: bool(table[w])

    def to_json_obj(self) -> dict:
        return {
            "words": [
                {"w": e.word, "bit": e.bit, "capital": str(e.capital)}
                for e in self.entries
            ],
            "weight_base": str(self.weight_base),
            "enum_hash": self.enum_hash,
            "setups": list(self.setup_descriptors) if self.setup_descriptors else None,
            "domain": self.domain_json,
        }

    @classmethod
    def from_json_obj(cls, data: dict) -> "DiagonalCertificate":
        if not isinstance(data, dict) or not isinstance(data.get("words"), list):
            raise TypeError("a certificate is a JSON object with a list of words")
        if not data["words"]:
            raise ValueError("the certificate lists no words")
        entries = tuple(
            CertEntry(row["w"], _bit(row["bit"]), Dyadic.parse(row["capital"]))
            for row in data["words"]
        )
        setups = data.get("setups")
        return cls(entries, Dyadic.parse(data["weight_base"]), data["enum_hash"],
                   tuple(setups) if setups else None, data.get("domain"))


def _bit(value) -> int:
    if type(value) is not int or value not in (0, 1):
        raise ValueError(f"bit {value!r} is not 0 or 1")
    return value


def enumeration_hash(descriptors, domain_json) -> str:
    """The enum_hash of a certificate: SHA-256 of its setup descriptors (or
    names), domain and weight base.  It takes sha256 from CPython's builtin
    module, because hashlib maps OpenSSL's libcrypto into the process."""
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
        except ImportError:
            from hashlib import sha256

    payload = json.dumps(
        {"setups": descriptors, "domain": domain_json, "weight_base": str(WEIGHT_BASE)},
        sort_keys=True,
    )
    return sha256(payload.encode()).hexdigest()


def diagonalize(enum, domain: Dfa, words: int, descriptors=None) -> DiagonalCertificate:
    """Fix memberships of the first `words` domain words so that the
    weighted truncated sums of the enumerated setups never rise.

    For the t-th word the decision sum uses components up to index t-1;
    fairness gives one label under which that sum cannot increase (ties
    resolve to label 0), and the freshly included component can at most
    double, so the recorded capitals telescope below 2.  Every setup steps
    each word through the engine's checked_step, once, so an unfair setup
    raises; both outcomes are applied, since the decision needs both
    capitals.
    """
    setups = list(enum)
    if not setups:
        raise ValueError("need at least one setup")
    for d in setups:
        if not is_normed(d):
            raise NotNormedError(f"{d.name} is not normed")
    weights = [WEIGHT_BASE**i for i in range(len(setups))]
    states = [d.start for d in setups]
    entries = []
    word = None
    for t in range(1, words + 1):
        word = min_ll(domain) if t == 1 else succ_ll(domain, word)
        outs = [[d.after(s, out) for out in checked_step(d, s, word, t)]
                for d, s in zip(setups, states)]
        lo, hi = (sum((w * out[b].capital for w, out in zip(weights[:t], outs)), ZERO)
                  for b in (0, 1))
        bit = 0 if lo <= hi else 1
        states = [out[bit] for out in outs]
        capital = sum((w * s.capital for w, s in zip(weights[:t + 1], states)), ZERO)
        if capital > TWO:
            raise DiagonalBoundError(f"capital {capital} exceeds 2 at {word!r}")
        entries.append(CertEntry(word, bit, capital))
    descriptors = tuple(descriptors) if descriptors else None
    names = list(descriptors) if descriptors else [d.name for d in setups]
    domain_json = domain.to_json()
    return DiagonalCertificate(
        tuple(entries), WEIGHT_BASE,
        enumeration_hash(names, domain_json),
        descriptors, domain_json,
    )


def replay_certificate(cert: DiagonalCertificate, enum, domain: Dfa) -> list[str]:
    """Recompute every recorded capital through the composite weighted-sum
    setups (an independent route from the per-component sums used when the
    certificate was produced).  Returns human-readable mismatches.

    Entry t is composite min(t, top) after t words: the full composite runs
    once over all W words, each smaller one c < top once over c words, so
    replay takes O(top * W) steps.
    """
    setups = list(enum)
    top = len(setups) - 1
    words = [e.word for e in cert.entries]
    if words != enumerate_ll(domain, len(words)):
        return ["word column is not the domain's ll prefix"]
    oracle = cert.oracle()
    problems = []

    def replay(c: int, t: int):
        composite = truncated_sum(setups[:c + 1], cert.weight_base)
        return run(composite, sequence_text(words[:t]), oracle, t)

    full = replay(top, len(words))
    for t, entry in enumerate(cert.entries, start=1):
        if entry.capital > TWO:
            problems.append(f"capital bound violated at {entry.word!r}")
            continue
        replayed = full[t].capital if t >= top else replay(t, t).final
        if replayed != entry.capital:
            problems.append(
                f"first divergence at {entry.word!r}: replayed {replayed}, "
                f"recorded {entry.capital}")
            break
    return problems


def build_setup(descriptor: dict) -> Setup:
    """Rebuild a setup from a serializable descriptor (certificate replay)."""
    kind = descriptor["kind"]
    if kind not in ("regular_bettor", "subset_bettor"):
        raise ValueError(f"unknown setup descriptor kind {kind!r}")
    dfa = Dfa.from_json(descriptor["dfa"])
    if dfa.arity != 1:
        raise ValueError(f"a {kind} bets along a 1-track automaton, not {dfa.arity} tracks")
    if kind == "regular_bettor":
        return regular_bettor(dfa)
    return subset_bettor(dfa, descriptor["side"])
