import csv
import json
import tempfile
import tracemalloc
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import equal_counts, equal_counts_tm
from langmart.automata import enumerate_ll
from langmart.dyadic import Dyadic, HALF, ONE, THREE_HALVES, TWO, ZERO
from langmart.engine import (
    BetFactorError,
    CapitalTrace,
    FAULT_ERRORS,
    FairnessViolationError,
    MEMORY_GROWTH_LIMIT,
    MemoryDisciplineError,
    MState,
    NegativeCapitalError,
    NotNormedError,
    PAUSE,
    PausePreservationError,
    Setup,
    TextExhaustedError,
    TraceEntry,
    ValidityBudgetError,
    audit_fairness,
    bettor,
    is_normed,
    ll_text,
    run,
    run_dynamic,
    sequence_text,
    step_fault,
    succeeded,
    truncated_sum,
    weighted_sum,
)
from langmart.constructions import regular_bettor, subset_bettor, tm_dynamic_bettor
from langmart.constructions import diagonalize
from langmart.learning import family_learner, prefix_family
from langmart.regular import concat, from_word, universe, word_star
from langmart.rng import Lcg
from langmart import tracefiles
from langmart.tracefiles import TraceFiles, read_trace


def each(item, state):
    """state as the outcome of every label of item: (state,) for a pause,
    (state, state) for a word."""
    return (state,) if item is PAUSE else (state, state)


def scaled(state, *factors):
    """One outcome per factor: state with its capital multiplied by it."""
    return tuple(MState(state.capital * f, state.memory) for f in factors)


def broken_setup():
    """Deliberately unfair: pays 3/4 and 3/2 on the labels 0 and 1."""

    def step(state, item):
        return (state,) if item is PAUSE else scaled(state, Dyadic(3, 2), Dyadic(3, 1))

    return Setup("broken", step, MState(ONE, ("",)), None)


def lazy_setup():
    """Fair but forgetful: never moves capital."""

    def bet(memory, word):
        return ((ONE, memory),) if word is PAUSE else ((ONE, memory), (ONE, memory))

    return bettor("lazy", bet, ("",), {ONE})


def random_text(seed: int, domain, length: int):
    rng = Lcg(seed)
    alphabet = "".join(domain.alphabets[0])
    items = []
    for _ in range(length):
        w = rng.word(alphabet, 6)
        while not domain.accepts(w):
            w = rng.word(alphabet, 6)
        items.append(w)
    return sequence_text(items)


def pays_5_4(memory, word):
    """A fair bet, but 5/4 and 3/4 are not the factors it declares."""
    if word is PAUSE:
        return ((ONE, memory),)
    return (Dyadic(3, 2), memory), (Dyadic(5, 2), memory)


def doubles_on_pause(memory, word):
    return ((TWO, memory),) if word is PAUSE else ((ONE, memory), (ONE, memory))


def goes_negative(state, item):
    """Fair: 5/2 on label 0 and -1/2 on label 1."""
    return (state,) if item is PAUSE else scaled(state, Dyadic(5, 1), Dyadic(-1, 1))


def adds_a_word(state, item):
    return each(item, MState(state.capital, state.memory + ("",)))


def grows_by(letters):
    """Keeps the capital and appends `letters` letters to the memory word."""

    def step(state, item):
        return each(item, MState(state.capital, (state.memory[0] + "x" * letters,)))

    return step


def opaque(name, step):
    return Setup(name, step, MState(ONE, ("",)))


# (setup, the one item of the text, expected error or None).  Words are
# labeled 1; a memory word may grow by 64 letters plus 2 per letter of the
# incoming word.
CHECKED_STEP_CASES = {
    "undeclared-factor": (bettor("undeclared-factor", pays_5_4, ("",), {THREE_HALVES, HALF}),
                          "0", BetFactorError),
    "pause-factor": (bettor("pause-factor", doubles_on_pause, ("",), {ONE}), PAUSE,
                     PausePreservationError),
    "negative-capital": (opaque("negative-capital", goes_negative), "0", NegativeCapitalError),
    "arity-change": (opaque("arity-change", adds_a_word), "0", MemoryDisciplineError),
    "pause-grows-64": (opaque("pause-grows-64", grows_by(64)), PAUSE, None),
    "pause-grows-65": (opaque("pause-grows-65", grows_by(65)), PAUSE, MemoryDisciplineError),
    "word-01-grows-68": (opaque("word-01-grows-68", grows_by(68)), "01", None),
    "word-01-grows-69": (opaque("word-01-grows-69", grows_by(69)), "01", MemoryDisciplineError),
}


class TestRun:
    def test_trace_shape(self, sigma, zeros_then_ones):
        setup = regular_bettor(zeros_then_ones)
        trace = run(setup, ll_text(sigma), zeros_then_ones.accepts, 0)
        assert len(trace) == 1 and trace[0].capital == ONE
        trace = run(setup, ll_text(sigma), zeros_then_ones.accepts, 10)
        assert len(trace) == 11

    def test_growth_example(self, sigma, zeros_then_ones):
        setup = regular_bettor(zeros_then_ones)
        trace = run(setup, ll_text(sigma), zeros_then_ones.accepts, 4)
        expected = [Dyadic(3, 1) ** n for n in range(5)]
        assert trace.capitals() == expected

    def test_pause_prefix_keeps_capital(self, zeros_then_ones):
        setup = regular_bettor(zeros_then_ones)
        items = [PAUSE] * 5 + ["01"]
        trace = run(setup, sequence_text(items), zeros_then_ones.accepts, 6)
        assert trace.capitals()[:6] == [ONE] * 6
        assert trace.final == THREE_HALVES

    def test_fairness_violation_detected(self, sigma):
        with pytest.raises(FairnessViolationError):
            run(broken_setup(), ll_text(sigma), sigma.accepts, 3)

    def test_pause_violation_detected(self, sigma):
        def step(state, item):
            return scaled(state, Dyadic(2)) if item is PAUSE else (state, state)

        bad = Setup("pause-breaker", step, MState(ONE, ("",)), None)
        with pytest.raises(PausePreservationError):
            run(bad, sequence_text([PAUSE]), sigma.accepts, 1)

    @pytest.mark.parametrize("case", CHECKED_STEP_CASES, ids=list(CHECKED_STEP_CASES))
    def test_every_step_is_checked(self, case):
        setup, item, error = CHECKED_STEP_CASES[case]
        text = sequence_text([item])
        if error is None:
            assert len(run(setup, text, lambda w: True, 1)) == 2
        else:
            with pytest.raises(error):
                run(setup, text, lambda w: True, 1)

    @pytest.mark.parametrize("case", [c for c, v in CHECKED_STEP_CASES.items() if v[2]])
    def test_audit_reports_what_a_run_rejects(self, case):
        setup, item, error = CHECKED_STEP_CASES[case]
        report = audit_fairness(setup, [] if item is PAUSE else [item])
        kind = next(k for k, e in FAULT_ERRORS.items() if e is error)
        assert kind in {v.kind for v in report.violations}

    def test_diagonalize_checks_every_step(self, sigma):
        with pytest.raises(FairnessViolationError):
            diagonalize([broken_setup()], sigma, 3)

    def test_run_errors_name_the_item_and_stage(self, sigma):
        items = [PAUSE] * 6 + ["01"]
        with pytest.raises(FairnessViolationError,
                           match=r"in memory \(''\,\) at word '01' \(stage 7\)$"):
            run(broken_setup(), sequence_text(items), sigma.accepts, 7)

        def remembers_last_word(memory, word):
            if word is PAUSE:
                return ((ONE, memory),)
            factor = THREE_HALVES if word == "01" else ONE  # 3/2 on both labels
            return (factor, (word,)), (factor, (word,))

        bad = bettor("unfair-on-01", remembers_last_word, ("",), {ONE, THREE_HALVES})
        with pytest.raises(FairnessViolationError,
                           match=r"in memory \('1',\) at word '01' \(stage 7\)$"):
            run(bad, sequence_text(["0"] * 5 + ["1", "01"]), sigma.accepts, 7)

        def pause_doubles(state, item):
            return scaled(state, TWO) if item is PAUSE else (state, state)

        bad = Setup("pause-doubles", pause_doubles, MState(ONE, ("",)), None)
        with pytest.raises(PausePreservationError,
                           match=r"in memory \(''\,\) at a pause \(stage 7\)$"):
            run(bad, sequence_text(["0"] * 6 + [PAUSE]), sigma.accepts, 7)

    def test_diagonalize_errors_name_the_word_position(self, sigma):
        def unfair_on_1(state, item):
            if item is PAUSE or item != "1":
                return each(item, state)
            return scaled(state, TWO, TWO)  # on both labels

        # the ll order of sigma is '', '0', '1', ...: '1' is the third word
        bad = Setup("unfair-on-1", unfair_on_1, MState(ONE, ("",)), None)
        with pytest.raises(FairnessViolationError,
                           match=r"in memory \(''\,\) at word '1' \(stage 3\)$"):
            diagonalize([bad], sigma, 5)

    def test_validity_budget(self, sigma):
        items = [PAUSE] * 10 + ["0"]
        with pytest.raises(ValidityBudgetError):
            run(lazy_setup(), sequence_text(items), sigma.accepts, 11, budget=5)

    def test_text_exhaustion(self, sigma):
        with pytest.raises(TextExhaustedError):
            run(lazy_setup(), sequence_text(["0"]), sigma.accepts, 2)

    def test_ll_text_exhaustion_on_finite_domain(self):
        from langmart.regular import from_word

        with pytest.raises(TextExhaustedError):
            run(lazy_setup(), ll_text(from_word("01")), lambda w: True, 2)

    def test_honest_labels(self, sigma, zeros_then_ones):
        trace = run(lazy_setup(), ll_text(sigma), zeros_then_ones.accepts, 40)
        assert [e.word for e in list(trace)[1:]] == enumerate_ll(sigma, 40)
        for e in list(trace)[1:]:
            assert e.label == int(zeros_then_ones.accepts(e.word))


class TestSucceeded:
    def test_examples(self):
        trace = CapitalTrace([
            TraceEntry(stage, None, None, c) for stage, c in
            enumerate((ONE, THREE_HALVES, Dyadic(9, 2)))
        ])
        assert succeeded(trace, Dyadic(2))
        flat = CapitalTrace([TraceEntry(stage, None, None, ONE) for stage in range(5)])
        assert not succeeded(flat, Dyadic(2))

    def test_threshold_must_exceed_start(self):
        flat = CapitalTrace([TraceEntry(0, None, None, ONE)])
        with pytest.raises(ValueError):
            succeeded(flat, ONE)

    def test_long_run_reaches_big_threshold(self, sigma, zeros_then_ones):
        setup = regular_bettor(zeros_then_ones)
        trace = run(setup, ll_text(sigma), zeros_then_ones.accepts, 36)
        assert succeeded(trace, Dyadic(2**20))  # (3/2)^n tops 2^20 at n >= 35


class TestAudit:
    def test_broken_setup_reported(self, sigma):
        report = audit_fairness(broken_setup(), ["0", "1"])
        assert not report.ok
        assert report.violations[0].kind == "fairness"

    def test_regular_bettor_clean(self, sigma, zeros_then_ones):
        from langmart.automata import enumerate_ll

        report = audit_fairness(regular_bettor(zeros_then_ones),
                                enumerate_ll(sigma, 32))
        assert report.ok
        assert report.transitions_checked == 2 * 32 + 1  # both labels of 32 probes, a pause

    def test_monotone_capital_impossibility(self, sigma, zeros_then_ones):
        # fairness forces min <= current <= max across the two labels
        setup = regular_bettor(zeros_then_ones)
        state = setup.start
        for w in ["", "0", "01", "11", "10"]:
            outs = setup.step(state, w)
            lo, hi = outs[0].capital, outs[1].capital
            assert min(lo, hi) <= state.capital <= max(lo, hi)
            state = outs[1]


class TestTexts:
    def test_ll_text(self, sigma):
        text = ll_text(sigma)
        assert [text(i, None) for i in range(5)] == ["", "0", "1", "00", "01"]

    def test_ll_text_restarts_for_an_earlier_word(self, sigma):
        text = ll_text(sigma)
        order = [0, 4, 4, 2, 3, 0, 6, 1]
        assert [text(i, None) for i in order] == [enumerate_ll(sigma, 7)[i] for i in order]


class TestSetupAlgebra:
    def test_sum_start_and_traces(self, sigma, zeros_then_ones, one_zeros):
        d1 = regular_bettor(zeros_then_ones)
        d2 = subset_bettor(one_zeros, "inside")
        total = weighted_sum([d1, d2], [ONE, ONE])
        assert total.start.capital == d1.start.capital + d2.start.capital
        for seed in range(5):
            text = random_text(seed, sigma, 50)
            t1 = run(d1, text, equal_counts, 50)
            t2 = run(d2, text, equal_counts, 50)
            ts = run(total, text, equal_counts, 50)
            for a, b, c in zip(t1.capitals(), t2.capitals(), ts.capitals()):
                assert a + b == c

    def test_scale_identity_and_traces(self, sigma, zeros_then_ones):
        d = regular_bettor(zeros_then_ones)
        same = weighted_sum([d], [ONE])
        c = Dyadic(5, 3)
        scaled = weighted_sum([d], [c])
        for seed in range(3):
            text = random_text(seed, sigma, 50)
            base = run(d, text, equal_counts, 50)
            t_same = run(same, text, equal_counts, 50)
            t_scaled = run(scaled, text, equal_counts, 50)
            assert t_same.capitals() == base.capitals()
            for a, b in zip(base.capitals(), t_scaled.capitals()):
                assert a * c == b

    def test_scale_rejects_nonpositive(self, zeros_then_ones):
        d = regular_bettor(zeros_then_ones)
        with pytest.raises(ValueError):
            weighted_sum([d], [Dyadic(0)])
        with pytest.raises(ValueError):
            weighted_sum([d, d], [ONE, Dyadic(-1)])

    def test_truncated_sum_single_is_identity(self, sigma, zeros_then_ones):
        d = regular_bettor(zeros_then_ones)
        single = truncated_sum([d], Dyadic(1, 2))
        base = run(d, random_text(1, sigma, 20), equal_counts, 20)
        got = run(single, random_text(1, sigma, 20), equal_counts, 20)
        assert got.capitals() == base.capitals()

    def test_truncated_sum_start_value(self, sigma, zeros_then_ones, one_zeros,
                                       double_zeros):
        parts = [regular_bettor(zeros_then_ones), regular_bettor(one_zeros),
                 regular_bettor(double_zeros)]
        total = truncated_sum(parts, Dyadic(1, 2))
        assert total.start.capital == Dyadic(21, 4)  # 1 + 1/4 + 1/16

    def test_truncated_sum_matches_component_sum(self, sigma, zeros_then_ones,
                                                 one_zeros, double_zeros):
        parts = [regular_bettor(zeros_then_ones), regular_bettor(one_zeros),
                 regular_bettor(double_zeros)]
        total = truncated_sum(parts, Dyadic(1, 2))
        weights = [Dyadic(1, 2) ** i for i in range(3)]
        traces = [run(p, random_text(9, sigma, 30), equal_counts, 30)
                  for p in parts]
        got = run(total, random_text(9, sigma, 30), equal_counts, 30)
        for stage in range(31):
            expected = sum((w * t.capitals()[stage] for w, t in zip(weights, traces)),
                           Dyadic(0))
            assert got.capitals()[stage] == expected

    def test_truncated_sum_requires_normed(self, zeros_then_ones):
        d = regular_bettor(zeros_then_ones)
        with pytest.raises(NotNormedError):
            truncated_sum([weighted_sum([d], [Dyadic(3)])])
        assert is_normed(d)


class TestRunDynamic:
    def test_budget_violation(self):
        def generator(state):
            return PAUSE

        with pytest.raises(ValidityBudgetError):
            run_dynamic(lazy_setup(), generator, lambda w: True, 10, budget=5)

    def test_trace_length(self):
        def generator(state):
            return "0"

        trace = run_dynamic(lazy_setup(), generator, lambda w: True, 7)
        assert len(trace) == 8

    def test_trace_retains_under_64_bytes_per_stage(self):
        """A 20,000-stage tm-dynamic run, nine stages in ten of them pauses,
        keeps three cells per stage: the trace, its new words and its
        capitals retain under 64 bytes per stage (a record per stage took
        about 150)."""
        setup, text = tm_dynamic_bettor(equal_counts_tm(), universe("01"))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = run(setup, text, equal_counts, 20000)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / 20000 < 64, retained / 20000
        assert len(trace) == 20001 and [e.word for e in trace].count(None) > 17000


# Trace words the writers must quote or escape, and plain ones.
trace_words = st.text(st.sampled_from('01,"\r\n #a\u00e9\u20ac'), max_size=6) | st.text(max_size=4)


# Moves from one trace capital to the next.  Besides unrelated values they
# multiply the numerator by integers of up to 64 bits, which the writers
# carry forward in decimal, and by integers of 65 to 70 bits, past that
# quotient guard.
CAPITAL_MOVES = ["same", "equal", "new", "3/2", "1/2", "num*2", "num*64bit",
                 "num*65-70bit", "zero"]


@st.composite
def trace_entries(draw):
    """The entries of a trace: the start entry, pauses, words that need
    quoting, capitals up to 2**3000, one Dyadic repeated and equal but
    distinct copies, numerators multiplied by 3, 2 or a random integer of up
    to 70 bits or halved, and zero followed by a nonzero capital; or none,
    for the empty trace."""
    entries, capital = [], ONE
    for stage in range(draw(st.integers(0, 12))):
        how = draw(st.sampled_from(CAPITAL_MOVES))
        if how == "equal":
            capital = Dyadic(capital.num, capital.exp)
        elif how == "new":
            capital = Dyadic(draw(st.integers(0, 2**3000)), draw(st.integers(0, 80)))
        elif how == "zero":
            capital = ZERO
        elif how != "same" and capital.num == 0:  # zero, then a nonzero capital
            capital = Dyadic(draw(st.integers(1, 2**3000)), draw(st.integers(0, 80)))
        elif how == "3/2":
            capital = capital * THREE_HALVES
        elif how == "1/2":
            capital = capital * HALF
        elif how == "num*2":
            capital = Dyadic(capital.num * 2)
        elif how == "num*64bit":
            capital = Dyadic(capital.num * draw(st.integers(1, 2**64 - 1)), capital.exp)
        elif how == "num*65-70bit":
            capital = Dyadic(capital.num * draw(st.integers(2**64, 2**70 - 1)), capital.exp)
        if stage == 0 or draw(st.booleans()):
            word, label = None, None  # the start entry or a pause
        else:
            word, label = draw(trace_words), draw(st.sampled_from([0, 1]))
        entries.append(TraceEntry(stage, word, label, capital))
    return entries


def traces():
    """A CapitalTrace of trace_entries()."""
    return trace_entries().map(CapitalTrace)


class TestTraceReads:
    @settings(max_examples=150, deadline=None)
    @given(trace_entries())
    def test_reads_match_the_entry_list(self, entries):
        """A trace keeps three cells per stage; every read of it equals the
        same read on the entry list it was built from, errors included, and
        a slice is a list of entries, as the list's own slice is."""
        trace = CapitalTrace(entries)
        capitals = [e.capital for e in entries]
        assert list(trace) == entries
        assert len(trace) == len(entries)
        assert trace.capitals() == capitals
        for i in range(-len(entries) - 2, len(entries) + 2):
            if -len(entries) <= i < len(entries):
                assert trace[i] == entries[i] and trace[i].capital is entries[i].capital
            else:
                with pytest.raises(IndexError):
                    trace[i]
            for j, step in ((None, None), (i + 3, 1), (None, 2), (i - 1, -1), (None, -3)):
                assert trace[i:j:step] == entries[i:j:step], (i, j, step)
        if not entries:
            for read, error in ((lambda: trace.final, IndexError),
                                (trace.max_capital, ValueError),
                                (lambda: succeeded(trace, ONE), IndexError)):
                with pytest.raises(error):
                    read()
            return
        assert trace.final is entries[-1].capital
        top = entries[0].capital  # the first largest capital
        for c in capitals:
            if c > top:
                top = c
        assert trace.max_capital() is top
        for threshold in {*capitals, top + ONE, ONE}:
            if threshold <= capitals[0]:
                with pytest.raises(ValueError):
                    succeeded(trace, threshold)
            else:
                assert succeeded(trace, threshold) == any(c >= threshold for c in capitals)

    def test_entries_are_read_only(self):
        trace = CapitalTrace([TraceEntry(0, None, None, ONE)])
        assert trace.entries == list(trace)
        with pytest.raises(AttributeError):
            trace.entries = []

    @pytest.mark.parametrize("stages", [[1], [0, 2], [0, 1, 1], [0, 0]])
    def test_entries_must_count_stages(self, stages):
        with pytest.raises(ValueError, match="stages run 0, 1, 2"):
            CapitalTrace([TraceEntry(stage, None, None, ONE) for stage in stages])


class TestTraceFiles:
    @settings(max_examples=150, deadline=None)
    @given(trace_entries())
    def test_read_trace_reads_back_what_the_sink_wrote(self, entries):
        """Stages appended one by one to a TraceFiles read back, through
        read_trace, as the cells of the list sink, pauses, labels, words
        that need quoting and capitals of any size included; the sink's own
        reads agree with the list's, during the run and after it."""
        trace = CapitalTrace(entries)
        with tempfile.TemporaryDirectory() as tmp:
            csv_path, json_path = Path(tmp) / "t.csv", Path(tmp) / "t.json"
            with TraceFiles(csv_path, json_path) as files:
                for e in entries:
                    files.append(e.word, e.label, e.capital)
                assert files.entries == entries
            assert read_trace(csv_path).cells == trace.cells
            assert len(files) == len(trace) and files.entries == entries
            trace.write(Path(tmp) / "list.csv", Path(tmp) / "list.json")
            for ext in ("csv", "json"):
                assert (Path(tmp) / f"t.{ext}").read_bytes() \
                    == (Path(tmp) / f"list.{ext}").read_bytes()
            if entries:
                assert (files.start, files.final) == (trace.start, trace.final)
                assert files.max_capital() == trace.max_capital()
                for threshold in {*trace.capitals(), trace.max_capital() + ONE}:
                    if threshold > trace.start:
                        assert succeeded(files, threshold) == succeeded(trace, threshold)

    def test_streamed_run_keeps_no_stage(self, tmp_path, sigma, zeros_then_ones):
        """A streamed 20,000-stage run peaks below twice a 5,000-stage one.
        The bettor loses every bet, so its capital is 1/2^n, each line stays
        about as short as the last and the files grow linearly; the ll text
        keeps one word, not every word it read."""
        setup = regular_bettor(zeros_then_ones)
        loses = lambda w: not zeros_then_ones.accepts(w)
        paths = tmp_path / "t.csv", tmp_path / "t.json"
        with TraceFiles(*paths) as files:  # a warm-up: first-use caches are not measured
            run(setup, ll_text(sigma), loses, 10, trace=files)
        peaks = []
        for steps in (5000, 20000):
            tracemalloc.start()
            try:
                with TraceFiles(*paths) as files:
                    run(setup, ll_text(sigma), loses, steps, trace=files)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert files.final == Dyadic(1, steps)
        assert peaks[1] < 2 * peaks[0], peaks


class TestTraceSerialization:
    def test_csv_and_json(self, tmp_path, sigma, zeros_then_ones):
        setup = regular_bettor(zeros_then_ones)
        items = [PAUSE, "01", "10"]
        trace = run(setup, sequence_text(items), zeros_then_ones.accepts, 3)
        trace.write(csv_path=tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "stage,word,label,capital_num,capital_exp"
        assert lines[1] == "0,,,1,0"
        assert lines[2] == "1,#,,1,0"
        assert lines[3] == "2,01,1,3,1"
        trace.write(json_path=tmp_path / "t.json")
        obj = json.loads((tmp_path / "t.json").read_text())
        assert obj[3]["word"] == "10" and obj[3]["label"] == "0"

    @settings(max_examples=150, deadline=None)
    @given(traces())
    def test_writers_match_csv_and_json_modules(self, trace):
        """The streaming writers' bytes are those of csv.writer and of
        json.dump(..., indent=1, sort_keys=True) plus a newline."""
        keys = ["stage", "word", "label", "capital_num", "capital_exp"]
        rows = [[e.stage, "#" if e.word is None and e.stage > 0 else (e.word or ""),
                 "" if e.label is None else str(e.label), e.capital.num, e.capital.exp]
                for e in trace]
        objs = [dict(zip(keys, row)) for row in rows]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            with open(tmp / "ref.csv", "w", newline="") as fh:
                csv.writer(fh).writerows([keys] + rows)
            with open(tmp / "ref.json", "w") as fh:
                json.dump(objs, fh, indent=1, sort_keys=True)
                fh.write("\n")
            trace.write(csv_path=tmp / "out.csv")
            trace.write(json_path=tmp / "out.json")
            trace.write(tmp / "both.csv", tmp / "both.json")  # both files in one pass
            trace.write_csv(tmp / "shim.csv")  # the single-file shims perfbench wraps
            trace.write_json(tmp / "shim.json")
            for ext in ("csv", "json"):
                ref = (tmp / f"ref.{ext}").read_bytes()
                for name in ("out", "both", "shim"):
                    assert (tmp / f"{name}.{ext}").read_bytes() == ref, name

    def test_writers_convert_afresh_once(self, tmp_path, monkeypatch):
        """On a run whose numerator is only ever multiplied by 3 or kept,
        each writer converts one numerator to decimal afresh and carries
        every other forward by a multiply, so its cost stays linear; the
        one-pass writer does so once for both files together."""
        sigma = universe("01")
        trace = run(regular_bettor(sigma), ll_text(sigma), sigma.accepts, 3000)
        fresh = []

        def counting(value):
            fresh.append(value)
            return Decimal(value)

        csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
        monkeypatch.setattr(tracefiles, "Decimal", counting)
        for paths in ((csv_path, None), (None, json_path), (csv_path, json_path)):
            fresh.clear()
            trace.write(*paths)
            assert fresh == [1], paths
        monkeypatch.undo()
        assert (tmp_path / "t.csv").read_text().splitlines()[-1].split(",")[3] \
            == str(trace.final.num)

    def test_writers_stream(self, tmp_path):
        """Each writer's peak allocation is a small fraction of what it
        writes: none holds a file's text nor every numerator's digits."""
        sigma = universe("01")
        trace = run(regular_bettor(sigma), ll_text(sigma), sigma.accepts, 3000)
        csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
        tracemalloc.start()
        try:
            for paths in ((csv_path, None), (None, json_path), (csv_path, json_path)):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                trace.write(*paths)
                peak = tracemalloc.get_traced_memory()[1] - before
                size = sum(path.stat().st_size for path in paths if path is not None)
                assert peak < 0.05 * size, (paths, peak)
        finally:
            tracemalloc.stop()


# ---------------------------------------------------------------------------
# The flat weighted-sum combinator
# ---------------------------------------------------------------------------

ZEROS_THEN_ONES = concat(word_star("0"), word_star("1"))
ONE_ZEROS = concat(from_word("1"), word_star("0"))
SHIPPED = (
    regular_bettor(ZEROS_THEN_ONES),
    regular_bettor(word_star("00")),
    subset_bettor(ONE_ZEROS, "inside"),
    subset_bettor(word_star("1"), "outside"),
    family_learner(prefix_family("01")),
)
leaves = st.builds(lambda i: ("leaf", i), st.integers(0, len(SHIPPED) - 1))
# truncated_sum takes normed components only: leaves and one-part sums of them
normed = st.recursive(leaves, lambda inner: st.builds(
    lambda part: ("tsum", [part]), inner), max_leaves=3)
scalars = st.builds(Dyadic, st.integers(1, 7), st.integers(0, 3))
trees = st.recursive(st.one_of(leaves, normed), lambda inner: st.one_of(
    st.builds(lambda a, b: ("add", a, b), inner, inner),
    st.builds(lambda c, a: ("scale", c, a), scalars, inner),
    st.builds(lambda parts, base: ("tsum", parts, base),
              st.lists(normed, min_size=1, max_size=3), scalars),
), max_leaves=6)


def build_tree(tree):
    """The composite setup and its leaves as (weight, shipped index) terms."""
    if tree[0] == "leaf":
        return SHIPPED[tree[1]], [(ONE, tree[1])]
    if tree[0] == "add":
        (d1, t1), (d2, t2) = build_tree(tree[1]), build_tree(tree[2])
        return weighted_sum([d1, d2], [ONE, ONE]), t1 + t2
    if tree[0] == "scale":
        d, terms = build_tree(tree[2])
        return weighted_sum([d], [tree[1]]), [(tree[1] * w, i) for w, i in terms]
    base = tree[2] if len(tree) == 3 else Dyadic(1, 1)
    built = [build_tree(part) for part in tree[1]]
    terms = [(base**k * w, i) for k, (_, ts) in enumerate(built) for w, i in ts]
    return truncated_sum([d for d, _ in built], base), terms


stream_items = st.lists(st.one_of(st.just(PAUSE), st.text("01", max_size=6)),
                        max_size=25)


@settings(max_examples=60, deadline=None)
@given(trees, stream_items)
def test_weighted_sum_trace_is_pointwise_sum(tree, items):
    composite, terms = build_tree(tree)
    text = sequence_text(items)
    traces = {i: run(SHIPPED[i], text, equal_counts, len(items)).capitals()
              for _, i in terms}
    got = run(composite, text, equal_counts, len(items)).capitals()
    for stage, capital in enumerate(got):
        assert capital == sum((w * traces[i][stage] for w, i in terms), Dyadic(0))
    report = audit_fairness(composite, ["", "0", "1", "01", "10", "0011"],
                            max_states=24)
    assert report.ok, report.violations[:3]


def test_weighted_sum_memory_is_flat():
    d = regular_bettor(ZEROS_THEN_ONES)
    total = truncated_sum([d] * 16)
    assert total.arity == 16 * (1 + d.arity)
    assert sum(len(m) for m in total.start.memory) < 200
    assert total.start.memory[:2] == ("1/2^0", d.start.memory[0])


def test_one_automaton_run_per_component_and_item(sigma, monkeypatch):
    """A composite steps each component once per item: a two-bettor
    truncated sum run for 10 stages runs each bettor's automaton 10 times."""
    langs = [ZEROS_THEN_ONES, word_star("1")]
    calls = {0: 0, 1: 0}
    accepts = type(ZEROS_THEN_ONES).accepts

    def counting(dfa, word):
        for i, lang in enumerate(langs):
            calls[i] += dfa is lang
        return accepts(dfa, word)

    composite = truncated_sum([regular_bettor(lang) for lang in langs])
    monkeypatch.setattr(type(ZEROS_THEN_ONES), "accepts", counting)
    trace = run(composite, ll_text(sigma), equal_counts, 10)
    assert len(trace) == 11 and calls == {0: 10, 1: 10}


def test_weighted_sum_rejects_mismatched_weights():
    d = regular_bettor(ZEROS_THEN_ONES)
    with pytest.raises(ValueError):
        weighted_sum([d, d], [ONE])
    with pytest.raises(ValueError):
        weighted_sum([], [])


# ---------------------------------------------------------------------------
# Bettors: memory automata audited by their factors
# ---------------------------------------------------------------------------

PROBES = enumerate_ll(universe("01"), 32)
BASE = regular_bettor(ZEROS_THEN_ONES)


def threshold_mutant(threshold, above=True):
    """BASE's step, except that it pays 3/2 on both labels at every capital
    on one side of threshold (at or above it, or below it)."""

    def step(state, item):
        if item is not PAUSE and (state.capital >= threshold) == above:
            return scaled(state, THREE_HALVES, THREE_HALVES)
        return BASE.step(state, item)

    return step


def still_at_1(state, item):
    if item is PAUSE or state.capital == ONE:
        return each(item, state)
    return scaled(state, THREE_HALVES, THREE_HALVES)


def remembers_size(state, item):
    outs = BASE.step(state, item)
    if item is not PAUSE and state.capital >= 4:
        return tuple(MState(nxt.capital, ("big",)) for nxt in outs)
    return outs


def bets_only_at_1(state, item):
    return BASE.step(state, item) if state.capital == ONE else each(item, state)


def bets_less_from_4(state, item):
    if item is PAUSE or state.capital < 4:
        return BASE.step(state, item)
    return scaled(state, Dyadic(3, 2), Dyadic(5, 2))


def pause_moves_from_4(state, item):
    if item is PAUSE and state.capital >= 4:
        return scaled(state, TWO)
    return BASE.step(state, item)


def unfair_from_0(state, item):
    return (state,) if item is PAUSE else scaled(state, THREE_HALVES, THREE_HALVES)


def negative_from_0(state, item):
    return (state,) if item is PAUSE else scaled(state, Dyadic(-1, 1), Dyadic(5, 1))


def unfair_bet(memory, word):
    if word is PAUSE:
        return ((ONE, memory),)
    return (THREE_HALVES, memory), (THREE_HALVES, memory)


def negative_bet(memory, word):
    if word is PAUSE:
        return ((ONE, memory),)
    return (Dyadic(-1, 1), memory), (Dyadic(5, 1), memory)


# Opaque steps that read the capital while they declare BASE's factors,
# each fair at its start capital and unfair or inhomogeneous elsewhere;
# with the same strategy as a bet where one exists, and the violation kinds
# the audit of that bet reports.
LADDER_MUTANTS = {
    "pays-both-from-4": (threshold_mutant(Dyadic(4)), ONE, None, None),
    "pays-both-below-2^-40": (threshold_mutant(Dyadic(1, 40), above=False), ONE, None, None),
    "still-at-1": (still_at_1, ONE, None, None),
    "remembers-size": (remembers_size, ONE, None, None),
    "bets-only-at-1": (bets_only_at_1, ONE, None, None),
    "bets-less-from-4": (bets_less_from_4, ONE, None, None),
    "pause-moves-from-4": (pause_moves_from_4, ONE, None, None),
    "unfair-from-0": (unfair_from_0, ZERO, unfair_bet, {"fairness"}),
    "negative-from-0": (negative_from_0, ZERO, negative_bet, {"negative-capital"}),
}


@pytest.mark.parametrize("name", LADDER_MUTANTS)
def test_ladder_mutant_is_homogeneity(name):
    """A step that declares factors is derived from a bet, so it cannot read
    the capital: each opaque step with declared factors is rejected when it
    is built.  A bet started at capital 0 is still checked on its factors."""
    step, start, bet, kinds = LADDER_MUTANTS[name]
    with pytest.raises(ValueError, match="bet and bet_factors"):
        Setup(name, step, MState(start, ("",)), BASE.bet_factors)
    if bet is not None:
        setup = replace(bettor(name, bet, ("",), BASE.bet_factors), start=MState(start, ("",)))
        assert {v.kind for v in audit_fairness(setup, PROBES).violations} == kinds
        with pytest.raises(FAULT_ERRORS[next(iter(kinds))]):
            run(setup, ll_text(universe("01")), equal_counts, 5)


def test_bet_and_bet_factors_come_together():
    with pytest.raises(ValueError, match="bet and bet_factors"):
        Setup("bet-only", BASE.step, BASE.start, None, BASE.bet)
    with pytest.raises(ValueError, match="nonnegative"):
        replace(BASE, start=MState(Dyadic(-1), BASE.start.memory))


# Bet factors: declared (3/2 and 1/2, which pair fairly), undeclared (1,
# 5/4, 3/4, 2, 0), negative (-1/2, paired fairly with 5/2).
FACTOR_POOL = [THREE_HALVES, HALF, ONE, Dyadic(5, 2), Dyadic(3, 2), TWO, ZERO,
               Dyadic(-1, 1), Dyadic(5, 1)]
factor_pairs = st.one_of(st.sampled_from([(THREE_HALVES, HALF), (HALF, THREE_HALVES)]),
                         st.tuples(st.sampled_from(FACTOR_POOL), st.sampled_from(FACTOR_POOL)))
start_capitals = st.one_of(st.just(ZERO), st.builds(Dyadic, st.integers(1, 2**250),
                                                    st.integers(0, 64)))


@settings(max_examples=60, deadline=None)
@given(st.lists(factor_pairs, min_size=1, max_size=4),
       st.one_of(st.just(ONE), st.sampled_from(FACTOR_POOL)), start_capitals)
def test_threshold_mutant_is_reported_anywhere(table, pause_factor, capital):
    """A bet whose factors (by word length and label, from a pool with
    unfair, negative and undeclared values) break the contract is reported
    the same at every start capital, 0 and capitals past 2**120 included,
    and a run from that capital raises the error of the first violation;
    a clean one multiplies the capital by its factors."""

    def bet(memory, word):
        if word is PAUSE:
            return ((pause_factor, memory),)
        factors, nxt = table[len(word) % len(table)], (str(len(word) % 3),)
        return (factors[0], nxt), (factors[1], nxt)

    base = bettor("mutant", bet, ("",), BASE.bet_factors)
    setup = replace(base, start=MState(capital, base.start.memory))
    report = audit_fairness(setup, PROBES[:8])
    assert report.violations == audit_fairness(base, PROBES[:8]).violations
    text = sequence_text(PROBES[:8] + [PAUSE])
    if report.violations:
        with pytest.raises(FAULT_ERRORS[report.violations[0].kind]):
            run(setup, text, equal_counts, 9)
    else:
        expected = capital * pause_factor
        for w in PROBES[:8]:
            expected = expected * table[len(w) % len(table)][int(equal_counts(w))]
        assert run(setup, text, equal_counts, 9).final == expected


def test_composite_is_audited_by_full_state():
    composite = weighted_sum([broken_setup(), lazy_setup()], [ONE, ONE])
    assert composite.bet_factors is None and composite.bet is None
    report = audit_fairness(composite, ["0", "1"], max_states=16)
    assert report.violations and report.violations[0].kind == "fairness"
    assert report.states_visited == 16 and not report.closed


@pytest.mark.parametrize("setup", [BASE, subset_bettor(ONE_ZEROS, "inside")],
                         ids=["regular", "subset"])
def test_memory_constant_audits_close(setup):
    report = audit_fairness(setup, PROBES)
    assert report.ok and report.closed
    assert report.states_visited == 1
    # one bet call per label of each probe, and one for a pause
    assert report.transitions_checked == 2 * len(PROBES) + 1


def test_learner_audit_stays_open_at_the_cap():
    report = audit_fairness(family_learner(prefix_family("01")), PROBES[:8], max_states=12)
    assert report.ok and not report.closed
    assert report.states_visited == 12


def reference_bettor_fault(setup, memory, word, outs):
    """step_fault's bettor branch with no shortcut: every check on every
    outcome, in the contract's order."""
    if word is PAUSE:
        if outs[0][0] is not ONE and outs[0][0] != ONE:
            return "pause", f"pause applies factor {outs[0][0]}"
    elif outs[0][0] + outs[1][0] != TWO:
        return "fairness", f"bet factors {outs[0][0]} + {outs[1][0]} != 2"
    for factor, _ in outs:
        if factor.num < 0:
            return "negative-capital", f"bet factor {factor} is negative"
        if word is not PAUSE and factor not in setup.bet_factors:
            return "bet-factor", f"bet factor {factor} is not declared"
    allowed = MEMORY_GROWTH_LIMIT + (0 if word is PAUSE else 2 * len(word))
    for _, nxt in outs:
        if nxt is memory:
            continue
        if len(nxt) != setup.arity:
            return "memory", f"memory arity changed {setup.arity} -> {len(nxt)}"
        for before, after in zip(memory, nxt):
            if len(after) - len(before) > allowed:
                return "memory", f"memory word grew by {len(after) - len(before)} in one step"
    return None


# Candidate factors: fair pairs (1/2 + 3/2, 1 + 1, 2 + 0, 5/4 + 3/4 and the
# negative -1/2 + 5/2) and unfair mixes; a drawn declared set makes each
# one declared or not.
FAULT_FACTORS = [ZERO, HALF, ONE, THREE_HALVES, TWO, Dyadic(3, 2), Dyadic(5, 2),
                 Dyadic(-1, 1), Dyadic(5, 1)]


@st.composite
def bet_steps(draw):
    """(setup, memory, item, outcomes) of one bet call: factors that are the
    declared objects, fresh equal copies or other values, and memories that
    are kept, moved, of another arity or grown past the limit."""
    declared = draw(st.sets(st.sampled_from(FAULT_FACTORS), min_size=1))
    setup = bettor("drawn", lambda m, w: (), ("ab", ""), declared)
    memory = draw(st.sampled_from([setup.start.memory, ("", "xyz")]))
    word = draw(st.just(PAUSE) | st.text("01", max_size=3))
    allowed = MEMORY_GROWTH_LIMIT + (0 if word is PAUSE else 2 * len(word))

    def factor(partner=None):
        f = draw(st.sampled_from(FAULT_FACTORS))
        if partner is not None and draw(st.booleans()):  # the fair partner
            f = next(g for g in FAULT_FACTORS + [TWO - partner] if g == TWO - partner)
        return f if draw(st.booleans()) else Dyadic(f.num, f.exp)

    def next_memory():
        return draw(st.sampled_from([
            memory, (memory[0] + "0", memory[1]), memory + ("",), memory[:1],
            (memory[0], memory[1] + "x" * allowed), (memory[0] + "x" * (allowed + 1), "")]))

    factors = [ONE if word is PAUSE and draw(st.booleans()) else factor()]
    if word is not PAUSE:
        factors.append(factor(factors[0]))
    factors += [factor() for _ in range(draw(st.integers(0, 1)))]  # a malformed extra outcome
    return setup, memory, word, tuple((f, next_memory()) for f in factors)


def pause_with_two_outcomes():
    """A pause whose first outcome keeps the memory at factor 1 and whose
    malformed second outcome is negative."""
    memory = ("ab", "")
    setup = bettor("drawn", lambda m, w: (), memory, {ONE})
    return setup, memory, PAUSE, ((ONE, memory), (Dyadic(-1, 1), memory))


@settings(max_examples=600, deadline=None)
@given(bet_steps())
@example(pause_with_two_outcomes())
def test_step_fault_keeps_every_check_of_a_bet(step):
    setup, memory, word, outs = step
    assert step_fault(setup, memory, word, outs) == reference_bettor_fault(*step)
