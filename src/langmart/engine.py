"""Betting engine: states, data points, texts, runs, setup algebra.

A state couples a capital value (exact dyadic) with a tuple of memory
words.  step(state, item) returns the next state of every outcome of an
item: (s0, s1) for a word's labels 0 and 1, (s,) for a pause.  A text is
a plain function text(n, state) -> word | PAUSE (`ll_text`,
`sequence_text`, or a bettor's own self-scheduled text); `run` labels each
word of it with the oracle, a predicate word -> bool, so there is no
stream type.  A bettor is a memory automaton built by `bettor`:
bet(memory, item) returns the same outcomes as (factor, memory) pairs;
an outcome multiplies the capital by its factor and sets the memory, so
a bettor cannot read the capital.  `weighted_sum`, the one combinator
(flat memory), steps each component once per item.  The step contract is
written once, in `step_fault`: a word's two outcomes must be fair,

    2 * capital(s) == capital(s0) + capital(s1)

with exact equality; a pause must keep the capital; every outcome must
keep capital nonnegative, keep the memory's arity and grow each memory
word by at most MEMORY_GROWTH_LIMIT letters plus 2 per letter of the
incoming word.  A bettor's factors must sum to 2 (1 for a pause), be
nonnegative and be declared, which holds the contract at every capital.
The one run loop `run`, `diagonalize` and `adversarial_text` step
through `checked_step`, which makes one bet (or step) call per item and
raises the first fault with the memory, the word (or pause) and the
stage; `run` then applies only the labelled outcome.  `audit_fairness`,
which explores a bettor by memory and any other setup by full state,
records a fault as a violation.  `run` appends each stage to a trace
sink: a `CapitalTrace`, one flat list of three cells per stage, or a
`langmart.tracefiles.TraceFiles`, which writes trace.csv and trace.json
as the run goes and keeps no stage.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, NamedTuple

from .automata import Dfa, iter_ll
from .dyadic import Dyadic, ONE, TWO, ZERO

DEFAULT_THRESHOLD = Dyadic(2**20)
DEFAULT_STEP_BUDGET = 10**5
DEFAULT_VALIDITY_BUDGET = 10**4
# A step may lengthen each memory word by this many letters, plus 2 per
# letter of the incoming word.
MEMORY_GROWTH_LIMIT = 64


class EngineError(Exception):
    pass


class FairnessViolationError(EngineError):
    pass


class PausePreservationError(EngineError):
    pass


class NegativeCapitalError(EngineError):
    pass


class BetFactorError(EngineError):
    pass


class MemoryDisciplineError(EngineError):
    pass


class ValidityBudgetError(EngineError):
    pass


class TextExhaustedError(EngineError):
    pass


class NotNormedError(EngineError):
    pass


# ---------------------------------------------------------------------------
# States and data points
# ---------------------------------------------------------------------------


class _PauseType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Pause"


PAUSE = _PauseType()


# An MState is made once per stage or more, so it is a plain immutable tuple
# with named fields.
class MState(NamedTuple):
    capital: Dyadic
    memory: tuple[str, ...]


@dataclass(frozen=True)
class Setup:
    """A step function with its start state.

    step(state, item) returns the next state of every outcome of the
    item, (s0, s1) for a word and (s,) for a pause.  A bettor (see
    `bettor`) also has bet, which returns the same outcomes as (factor,
    memory) pairs and from which its step is derived, and bet_factors, the
    factors a word may apply; the run loop and the audit call bet, not
    step.  A setup without them (a weighted sum) steps its whole state,
    and its capital moves are checked as capitals.
    """

    name: str
    step: Callable[[MState, object], tuple]
    start: MState
    bet_factors: frozenset | None = None
    bet: Callable[[tuple, object], tuple] | None = None

    def __post_init__(self):
        if (self.bet is None) != (self.bet_factors is None):
            raise ValueError(f"{self.name}: bet and bet_factors come together")
        if self.bet is not None and self.start.capital.num < 0:
            raise ValueError(f"{self.name}: a bettor starts at a nonnegative capital")

    @functools.cached_property
    def arity(self) -> int:
        """Number of memory words, fixed by the start state."""
        return len(self.start.memory)

    def after(self, state: MState, outcome) -> MState:
        """The state one outcome of `checked_step` on state leads to: a
        bettor's (factor, memory) applied to state, or the next state
        itself for any other setup."""
        return outcome if self.bet is None else _moved(state, *outcome)


def _moved(state: MState, factor, memory: tuple) -> MState:
    """state with its capital multiplied by factor and the given memory.  A
    factor of 1 keeps the capital object, and state itself when the memory
    is kept too, so a trace shares one capital across a run of pauses."""
    if factor is ONE or (factor.num == 1 and not factor.exp):
        return state if memory is state.memory else MState(state.capital, memory)
    return MState(state.capital * factor, memory)


def bettor(name: str, bet, memory: tuple, bet_factors) -> Setup:
    """The memory automaton bet as a setup that starts at capital 1 with
    the given memory.  bet(memory, word) returns the outcome of each label,
    ((f0, m0), (f1, m1)), and bet(memory, PAUSE) the one outcome ((f, m),);
    its step applies every outcome, multiplying the capital by its factor.
    bet_factors are the factors a word may apply; a pause applies 1."""

    def step(state: MState, item) -> tuple:
        return tuple(_moved(state, *o) for o in bet(state.memory, item))

    return Setup(name, step, MState(ONE, memory), frozenset(bet_factors), bet)


def is_normed(setup: Setup) -> bool:
    return setup.start.capital == ONE


# ---------------------------------------------------------------------------
# Texts
# ---------------------------------------------------------------------------
# A text is a function text(n, state) -> word | PAUSE: the item at stage n,
# which may read the run's state there, so a text can schedule itself.


def ll_text(domain: Dfa):
    """The domain's members in length-lexicographic order.  Only the last
    word read and its index are kept; asking for an earlier one restarts
    the enumeration."""
    source, at, word = iter_ll(domain), -1, None

    def text(n: int, _state) -> str:
        nonlocal source, at, word
        if n < at:
            source, at = iter_ll(domain), -1
        while at < n:
            try:
                word = next(source)
            except StopIteration:
                raise TextExhaustedError(
                    f"domain exhausted by the ordered text at stage {n + 1}: "
                    f"it has only {at + 1} words") from None
            at += 1
        return word

    return text


def sequence_text(items):
    """The given words and pauses, in order."""
    seq = list(items)

    def text(n: int, _state):
        if n >= len(seq):
            raise TextExhaustedError(
                f"sequence text exhausted at stage {n + 1}: it has only {len(seq)} items")
        return seq[n]

    return text


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


class TraceEntry(NamedTuple):
    stage: int
    word: str | None  # None for the start entry and for pauses
    label: int | None
    capital: Dyadic


class CapitalTrace:
    """The list sink: the stages of one run, the start (stage 0) first, in
    the flat list `cells`, where stage i's word, label and capital are
    cells[3*i:3*i+3].  `append` adds a stage.  Reads use the cells; trace[i]
    makes one TraceEntry, a slice a list of them, and iteration one per
    stage.  `write` feeds the cells through a `TraceFiles` sink."""

    def __init__(self, entries=()):
        self.cells = []
        for stage, e in enumerate(entries):
            if e.stage != stage:
                raise ValueError(f"entry {stage} has stage {e.stage}: stages run 0, 1, 2, ...")
            self.cells += (e.word, e.label, e.capital)

    def append(self, word, label, capital: Dyadic) -> None:
        """Add the next stage; word and label are None for the start and
        for a pause."""
        self.cells += (word, label, capital)

    def __iter__(self):
        it = iter(self.cells)
        return (TraceEntry(stage, *cells) for stage, cells in enumerate(zip(it, it, it)))

    # perfbench's tracer reads entries by name; it goes once a benchmark change unpins it.
    @property
    def entries(self) -> list[TraceEntry]:
        return list(self)

    def capitals(self):
        return self.cells[2::3]

    @property
    def start(self) -> Dyadic:
        return self.cells[2]

    @property
    def final(self) -> Dyadic:
        return self.cells[-1]

    def __len__(self):
        return len(self.cells) // 3

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[stage] for stage in range(len(self))[i]]
        stage = range(len(self))[i]  # a negative i counts from the end
        return TraceEntry(stage, *self.cells[3 * stage:3 * stage + 3])

    def max_capital(self) -> Dyadic:
        return max(self.capitals())

    def write(self, csv_path=None, json_path=None):
        """Write trace.csv to csv_path and trace.json to json_path; either
        may be None.  One pass through a TraceFiles sink fills both."""
        from .tracefiles import TraceFiles

        with TraceFiles(csv_path, json_path) as files:
            it = iter(self.cells)
            for cells in zip(it, it, it):
                files.append(*cells)

    # perfbench's tracer wraps write_csv by name; it goes once a benchmark change unpins it.
    def write_csv(self, path):
        self.write(csv_path=path)

    # perfbench's tracer wraps write_json by name; it goes once a benchmark change unpins it.
    def write_json(self, path):
        self.write(json_path=path)


def succeeded(trace, threshold: Dyadic = DEFAULT_THRESHOLD) -> bool:
    """Threshold proxy for success: some capital in the trace (either sink)
    reaches it.  The final capital is tried first, since a file sink reads
    its file back for max_capital."""
    if threshold <= trace.start:
        raise ValueError("threshold must exceed the starting capital")
    return trace.final >= threshold or trace.max_capital() >= threshold


# ---------------------------------------------------------------------------
# The run loop
# ---------------------------------------------------------------------------


# The error a run raises for each kind of step-contract fault.
FAULT_ERRORS = {
    "fairness": FairnessViolationError,
    "pause": PausePreservationError,
    "bet-factor": BetFactorError,
    "negative-capital": NegativeCapitalError,
    "memory": MemoryDisciplineError,
}


@functools.cache
def _fair_pairs(factors: frozenset) -> frozenset:
    """The nonnegative pairs of factors that sum to 2, once per factor set."""
    return frozenset((a, b) for a in factors for b in factors
                     if a.num >= 0 and b.num >= 0 and a + b == TWO)


def step_fault(setup: Setup, state, word, outs) -> tuple[str, str] | None:
    """The first way one step breaks the step contract, as (kind, detail)
    with kind a key of FAULT_ERRORS, or None.  outs are state's outcomes on
    word with labels 0 and 1, or the one outcome of a pause, from one call.
    For a bettor, state is a memory and outs are the (factor, memory) pairs
    bet returned: the factors must sum to 2 (a pause must apply 1), and
    each must be nonnegative and declared; a pair among the declared set's
    fair pairs passes with no further check.
    For any other setup they are states, which must be fair (a pause must
    keep the capital) with nonnegative capitals."""
    bets = setup.bet is not None
    if not bets:
        capital, memory = state.capital, state.memory
        if word is PAUSE:
            if outs[0].capital != capital:
                return "pause", f"pause moved capital {capital} -> {outs[0].capital}"
        elif outs[0].capital + outs[1].capital != capital * 2:
            return "fairness", f"2*{capital} != {outs[0].capital} + {outs[1].capital}"
        for nxt in outs:
            if nxt.capital.num < 0:
                return "negative-capital", f"capital went negative: {nxt.capital}"
    else:
        memory, factors = state, outs
        if word is PAUSE:
            if outs[0][0] is not ONE and outs[0][0] != ONE:
                return "pause", f"pause applies factor {outs[0][0]}"
        elif len(outs) == 2 and (outs[0][0], outs[1][0]) in _fair_pairs(setup.bet_factors):
            factors = ()  # a fair pair of declared factors needs no more checks
        elif outs[0][0] + outs[1][0] != TWO:
            return "fairness", f"bet factors {outs[0][0]} + {outs[1][0]} != 2"
        for factor, _ in factors:
            if factor.num < 0:
                return "negative-capital", f"bet factor {factor} is negative"
            if word is not PAUSE and factor not in setup.bet_factors:
                return "bet-factor", f"bet factor {factor} is not declared"
    allowed = MEMORY_GROWTH_LIMIT + (0 if word is PAUSE else 2 * len(word))
    arity = setup.arity
    for out in outs:
        nxt = out[1] if bets else out.memory
        if nxt is memory:
            continue
        if len(nxt) != arity:
            return "memory", f"memory arity changed {arity} -> {len(nxt)}"
        for before, after in zip(memory, nxt):
            if after is not before and len(after) - len(before) > allowed:
                return "memory", f"memory word grew by {len(after) - len(before)} in one step"
    return None


def checked_step(setup: Setup, state: MState, word, stage: int) -> tuple:
    """The outcomes of state on word with labels 0 and 1, or the one
    outcome of a pause, checked: a bettor's (factor, memory) pairs from one
    bet call, or any other setup's next states from one step call.
    setup.after(state, out) is the state an outcome leads to, so a caller
    applies only the outcomes it needs.  Raises the error of the first
    step-contract fault (see step_fault), naming the memory, the item and
    the stage it leads to."""
    bet = setup.bet
    before = state if bet is None else state.memory
    outs = (setup.step if bet is None else bet)(before, word)
    fault = step_fault(setup, before, word, outs)
    if fault is not None:
        kind, detail = fault
        where = "a pause" if word is PAUSE else f"word {word!r}"
        raise FAULT_ERRORS[kind](
            f"{detail} in memory {state.memory!r} at {where} (stage {stage})")
    return outs


def run(setup: Setup, text, oracle, steps: int = DEFAULT_STEP_BUDGET, *,
        stop_threshold: Dyadic | None = None,
        budget: int = DEFAULT_VALIDITY_BUDGET, trace=None):
    """Drive the setup over `steps` items of the text, each word labeled by
    the oracle, a predicate word -> bool, and append each stage to trace, a
    sink: a CapitalTrace (by default a new one) or a TraceFiles.  Returns
    the sink, which gets at most steps+1 stages.  `budget` pauses in a row
    raise ValidityBudgetError."""
    after = setup.after
    state = setup.start
    if trace is None:
        trace = CapitalTrace()
    append = trace.append
    append(None, None, state.capital)
    pause_streak = 0
    for n in range(steps):
        item = text(n, state)
        if item is PAUSE:
            pause_streak += 1
            if pause_streak >= budget:
                raise ValidityBudgetError(
                    f"{pause_streak} consecutive pauses exceed budget {budget}")
            word, label = None, None
        else:
            pause_streak = 0
            word, label = item, 1 if oracle(item) else 0
        # only the labelled outcome is applied; a pause has one outcome
        state = after(state, checked_step(setup, state, item, n + 1)[label or 0])
        append(word, label, state.capital)
        if stop_threshold is not None and state.capital >= stop_threshold:
            break
    return trace


# perfbench's tracer wraps run_dynamic by name; it goes once a benchmark change unpins it.
def run_dynamic(setup: Setup, generator, oracle, steps: int = DEFAULT_STEP_BUDGET,
                *, budget: int = DEFAULT_VALIDITY_BUDGET) -> CapitalTrace:
    return run(setup, lambda _n, state: generator(state), oracle, steps, budget=budget)


# ---------------------------------------------------------------------------
# Fairness audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str
    state: str
    word: str | None
    detail: str

    def to_json_obj(self):
        return {"kind": self.kind, "state": self.state,
                "word": self.word, "detail": self.detail}


@dataclass
class AuditReport:
    violations: list = field(default_factory=list)
    transitions_checked: int = 0
    states_visited: int = 0
    closed: bool = True  # False once max_states turned a reachable key away

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_obj(self):
        return [v.to_json_obj() for v in self.violations]


def audit_fairness(setup: Setup, probe_words, *, max_states: int = 256) -> AuditReport:
    """The step contract (step_fault) on states reached from the start.

    Exploration closes the start under stepping with every probe word
    (both labels) and a pause, breadth first, up to max_states states;
    each state and probe gets at most one contract violation.  A bettor's
    state is its memory: bet is called once per memory and probe, and its
    factors are checked, which holds the contract at every capital.  Any
    other setup (a weighted sum, whose memory holds its component
    capitals) is explored by full state, stepped once per probe.

    transitions_checked counts the outcomes checked, 2 per word probe and 1
    per pause; closed is False when the cap turned a reachable state away.
    Violations are returned as data, never raised.
    """
    bet = setup.bet
    start = setup.start if bet is None else setup.start.memory
    answer = setup.step if bet is None else bet
    probes = [*probe_words, PAUSE]
    report = AuditReport()
    seen = {start}
    frontier = deque([start])
    while frontier:
        state = frontier.popleft()
        report.states_visited += 1
        for word in probes:
            outs = answer(state, word)
            report.transitions_checked += 1 if word is PAUSE else 2
            for nxt in outs:
                if bet is not None:
                    nxt = nxt[1]
                if nxt is state or nxt in seen:
                    continue
                if len(seen) < max_states:
                    seen.add(nxt)
                    frontier.append(nxt)
                else:
                    report.closed = False
            fault = step_fault(setup, state, word, outs)
            if fault is not None:
                where = repr(state) if bet is not None else f"({state.capital}, {state.memory!r})"
                report.violations.append(Violation(
                    fault[0], where, None if word is PAUSE else word, fault[1]))
    return report


# ---------------------------------------------------------------------------
# Setup algebra
# ---------------------------------------------------------------------------


def weighted_sum(setups, weights) -> Setup:
    """Weighted sum: capital is the sum of weight_i * capital_i, so the trace
    is the pointwise weighted sum of the component traces; weights [ONE, ONE]
    add two setups and [c] scales one by c.  Every weight must be positive.
    The memory is flat: per component, its capital as one word (str, read
    back with Dyadic.parse), then that component's own memory words.  A step
    steps each component once and combines their outcomes label by label.
    """
    parts = list(zip(setups, weights, strict=True))
    if not parts:
        raise ValueError("need at least one setup")
    if any(w <= ZERO for _, w in parts):
        raise ValueError("weights must be positive")
    bounds = list(accumulate((1 + d.arity for d, _ in parts), initial=0))

    def combine(states) -> MState:
        capital = sum((w * s.capital for (_, w), s in zip(parts, states)), ZERO)
        return MState(capital, tuple(x for s in states for x in (str(s.capital), *s.memory)))

    def step(state: MState, item) -> tuple:
        m = state.memory
        outs = [d.step(MState(Dyadic.parse(m[lo]), m[lo + 1:hi]), item)
                for (d, _), lo, hi in zip(parts, bounds, bounds[1:])]
        return tuple(combine(states) for states in zip(*outs))

    name = "(" + " + ".join(f"{w} * {d.name}" for d, w in parts) + ")"
    return Setup(name, step, combine([d.start for d, _ in parts]), None)


def truncated_sum(setups, weight_base: Dyadic = Dyadic(1, 2)) -> Setup:
    """Weighted finite sum: component i enters with weight weight_base**i.

    Every component must be normed, so the starting capital is the
    geometric partial sum of the weights.
    """
    setups = list(setups)
    for d in setups:
        if not is_normed(d):
            raise NotNormedError(f"{d.name} does not start at capital 1")
    return weighted_sum(setups, [weight_base**i for i in range(len(setups))])
