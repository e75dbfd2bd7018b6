from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import brute_words, equal_counts, equal_counts_tm
from langmart import constructions
from test_acceptance import shipped_constructions
from test_automata import _brute_accepts, word_automata
from test_engine import broken_setup, each, unfair_bet
from langmart.automata import count_leq_ll, enumerate_ll, min_ll
from langmart.constructions import (
    ConstructionError,
    DiagonalCertificate,
    TmProgram,
    build_setup,
    diagonalize,
    regular_bettor,
    replay_certificate,
    subset_bettor,
    tm_dynamic_bettor,
)
from langmart.dyadic import Dyadic, HALF, ONE, THREE_HALVES, TWO, ZERO
from langmart.engine import (
    MEMORY_GROWTH_LIMIT,
    FairnessViolationError,
    PAUSE,
    ValidityBudgetError,
    audit_fairness,
    bettor,
    ll_text,
    run,
    run_dynamic,
    sequence_text,
)
from langmart.learning import (
    AutomaticFamily,
    Hypothesis,
    HypothesisExhaustedError,
    HypothesisSpace,
    LearnerStallError,
    StallWitness,
    adversarial_text,
    anchor_gap_report,
    anchor_word,
    dovetail_pairs,
    extract_language,
    family_learner,
    finite_set_indexing,
    pclass_bettor,
    prefix_family,
    variant_family_learner,
)
from langmart.regular import combine, concat, from_word, universe, word_star


class TestRegularBettor:
    def test_capital_counts_agreements(self, sigma, zeros_then_ones):
        setup = regular_bettor(zeros_then_ones)
        trace = run(setup, ll_text(sigma), equal_counts, 60)
        agree = disagree = 0
        for entry in trace.entries[1:]:
            if zeros_then_ones.accepts(entry.word) == bool(entry.label):
                agree += 1
            else:
                disagree += 1
        assert trace.final == THREE_HALVES**agree * HALF**disagree

    def test_pause_only_text(self, zeros_then_ones):
        setup = regular_bettor(zeros_then_ones)
        text = sequence_text([PAUSE] * 10)
        assert run(setup, text, zeros_then_ones, 10).capitals() == [ONE] * 11

    def test_one_automaton_run_per_word(self, sigma, zeros_then_ones, monkeypatch):
        """One bet call per item: a run of N stages runs the bettor's
        automaton once per word, and not at all on a pause."""
        calls = []
        accepts = type(zeros_then_ones).accepts

        def counting(dfa, word):
            if dfa is zeros_then_ones:
                calls.append(word)
            return accepts(dfa, word)

        setup = regular_bettor(zeros_then_ones)
        monkeypatch.setattr(type(zeros_then_ones), "accepts", counting)
        run(setup, ll_text(sigma), equal_counts, 50)
        assert calls == enumerate_ll(sigma, 50)
        calls.clear()
        run(setup, sequence_text([PAUSE, "01", PAUSE, "10"]), equal_counts, 4)
        assert calls == ["01", "10"]

    def test_pure_disagreement_text(self, zeros_then_ones):
        setup = regular_bettor(zeros_then_ones)
        # words inside 0*1* but outside {0^n 1^n}: the bettor loses each time
        items = ["011", "001", "0111", "00011"]
        trace = run(setup, sequence_text(items), equal_counts, 4)
        assert trace.final == HALF**4


class TestSubsetBettor:
    def test_fairness_at_member(self, one_zeros):
        setup = subset_bettor(one_zeros, "inside")
        state = setup.start
        lo, hi = (nxt.capital for nxt in setup.step(state, "10"))
        assert (hi, lo) == (THREE_HALVES, HALF)
        assert hi + lo == TWO * state.capital

    def test_neutral_branch(self, one_zeros):
        setup = subset_bettor(one_zeros, "outside")
        items = ["0", "01", "001", "011"]  # no members of 1 0*
        assert run(setup, sequence_text(items), equal_counts, 4).capitals() == [ONE] * 5

    def test_grows_on_members(self, sigma, one_zeros):
        # 1 0* sits inside L = {1 0^n} | {0^n 1^n}
        target = lambda w: one_zeros.accepts(w) or equal_counts(w)
        setup = subset_bettor(one_zeros, "inside")
        trace = run(setup, ll_text(sigma), target, 2**7)
        hits = sum(1 for e in trace.entries[1:] if e.word and one_zeros.accepts(e.word))
        assert trace.final == THREE_HALVES**hits
        assert hits >= 6

    def test_bad_side(self, one_zeros):
        with pytest.raises(ValueError):
            subset_bettor(one_zeros, "within")


# (label 0, label 1) factors of a bet toward and against membership
TOWARD, AGAINST, NEUTRAL = (HALF, THREE_HALVES), (THREE_HALVES, HALF), (ONE, ONE)


@settings(max_examples=60, deadline=None)
@given(word_automata())
def test_automaton_bettors_pay_their_stake_tables(case):
    """On every word of length at most 7, regular_bettor and subset_bettor
    on both sides (dfa_bettor calls under their own names) pay the factor
    pair of the word's membership, read off the partial transition dict; a
    pause pays 1 and the memory never moves."""
    dfa, trans, accepting, letters = case
    tables = [  # (setup, name, factors on members, on the rest, declared factors)
        (regular_bettor(dfa), "regular_bettor", TOWARD, AGAINST, {THREE_HALVES, HALF}),
        (subset_bettor(dfa, "inside"), "subset_bettor[inside]", TOWARD, NEUTRAL,
         {ONE, THREE_HALVES, HALF}),
        (subset_bettor(dfa, "outside"), "subset_bettor[outside]", AGAINST, NEUTRAL,
         {ONE, THREE_HALVES, HALF}),
    ]
    memory = ("",)
    for setup, name, _, _, factors in tables:
        assert setup.name == name and setup.start.memory == memory
        assert setup.bet_factors == factors
        assert setup.bet(memory, PAUSE) == ((ONE, memory),)
    for w in brute_words(letters, 7):
        member = _brute_accepts(trans, accepting, w)
        for setup, _, on_member, on_other, _ in tables:
            pair = on_member if member else on_other
            assert setup.bet(memory, w) == tuple((f, memory) for f in pair), (setup.name, w)


class TestAdversarial:
    def test_keeps_capital_down(self, sigma, zeros_then_ones):
        setup = regular_bettor(zeros_then_ones)
        text = adversarial_text(setup, sigma, equal_counts,
                                horizon=100, search_bound=1000)
        assert not isinstance(text, StallWitness)
        trace = run(setup, text, equal_counts, 100)
        assert trace.max_capital() <= ONE

    def test_stalls_when_every_word_pays(self, sigma, zeros_then_ones):
        setup = regular_bettor(zeros_then_ones)
        witness = adversarial_text(setup, sigma, zeros_then_ones,
                                   horizon=50, search_bound=300)
        assert isinstance(witness, StallWitness)
        assert witness.stage == 0  # every bet is correct from the start

    def test_repetition_free_mode(self, sigma, zeros_then_ones):
        setup = regular_bettor(zeros_then_ones)
        text = adversarial_text(setup, sigma, equal_counts,
                                mode="repetition-free", horizon=30,
                                search_bound=1000)
        words = [text(i, None) for i in range(30)]
        assert len(set(words)) == len(words)
        trace = run(setup, text, equal_counts, 30)
        assert trace.max_capital() <= ONE

    def test_extracted_language_matches_dfa(self, sigma, zeros_then_ones):
        setup = regular_bettor(zeros_then_ones)
        witness = adversarial_text(setup, sigma, zeros_then_ones,
                                   horizon=10, search_bound=100)
        predicate = extract_language(setup, witness.state)
        for w in brute_words("01", 8):
            assert predicate(w) == zeros_then_ones.accepts(w)

    @pytest.mark.parametrize("unfair", ["bettor", "opaque"])
    def test_unfair_setup_raises(self, sigma, unfair):
        """Every candidate is a checked step: a setup that pays 3/2 on both
        labels, or 3/4 and 3/2, raises instead of yielding a text."""
        setup = (bettor("unfair", unfair_bet, ("",), {THREE_HALVES, HALF})
                 if unfair == "bettor" else broken_setup())
        with pytest.raises(FairnessViolationError, match=r"at word '' \(stage 1\)$"):
            adversarial_text(setup, sigma, equal_counts, horizon=5, search_bound=10)

    def test_one_automaton_run_per_extracted_word(self, zeros_then_ones, monkeypatch):
        """extract_language reads both capitals of a word from one step."""
        calls = []
        accepts = type(zeros_then_ones).accepts

        def counting(dfa, word):
            if dfa is zeros_then_ones:
                calls.append(word)
            return accepts(dfa, word)

        setup = regular_bettor(zeros_then_ones)
        predicate = extract_language(setup, setup.start)
        monkeypatch.setattr(type(zeros_then_ones), "accepts", counting)
        words = ["", "01", "10", "0011"]
        assert [predicate(w) for w in words] == [True, True, False, True]
        assert calls == words

    def test_tie_means_nonmember(self):
        from langmart.engine import MState, Setup

        neutral = Setup("flat", lambda s, x: each(x, s), MState(ONE, ("",)), None)
        predicate = extract_language(neutral, neutral.start)
        assert not predicate("0")


class TestFamilyLearner:
    def test_prefix_family_membership(self):
        fam = prefix_family("01")
        assert fam.member("10", "1")
        assert fam.member("1", "1")
        assert not fam.member("01", "1")
        assert fam.member("0110", "")
        assert not fam.member("", "0")

    def test_stabilizes_and_grows(self, sigma):
        fam = prefix_family("01")
        setup = family_learner(fam)
        target = lambda w: w.startswith("1")
        trace = run(setup, ll_text(sigma), target, 40)
        caps = trace.capitals()
        # two mind changes (indices "" and "0"), then steady 3/2 growth
        assert caps[1] == HALF and caps[2] == HALF * HALF
        for i in range(2, 40):
            assert caps[i + 1] == caps[i] * THREE_HALVES

    def test_zero_mind_changes_on_least_index(self, sigma):
        fam = prefix_family("01")
        setup = family_learner(fam)
        target = lambda w: True  # the least index "" matches everything
        trace = run(setup, ll_text(sigma), target, 30)
        assert trace.final == THREE_HALVES**30

    def test_mind_change_halves(self, sigma):
        fam = prefix_family("01")
        setup = family_learner(fam)
        state = setup.start
        nxt = setup.step(state, "1")[0]  # L_eps says 1, label 0: wrong
        assert nxt.capital == HALF
        assert nxt.memory == ("0",)

    def test_mind_changes_bounded_by_disagreeing_indices(self, sigma):
        fam = prefix_family("01")
        setup = family_learner(fam)
        target_index = "1"
        target = lambda w: fam.member(w, target_index)
        trace = run(setup, ll_text(sigma), target, 50)
        caps = trace.capitals()
        mind_changes = sum(1 for a, b in zip(caps, caps[1:]) if b == a * HALF)
        history = [(e.word, e.label) for e in trace.entries[1:]]
        indices_upto_target = ["", "0", "1"]
        disagreeing = sum(
            1 for e in indices_upto_target
            if e != target_index
            and any(fam.member(w, e) != bool(b) for w, b in history))
        assert mind_changes <= disagreeing

    def test_learner_stall_on_finite_index_set(self):
        # two-index family over E = {0, 1}: both wrong on the stream
        index_language = combine(from_word("0"), from_word("1"), "or")
        letters = ("0", "1")
        pad = "#"
        # membership: L_e = {e}: columns equal while both run
        trans = {}
        for a in letters:
            for b in letters:
                trans[(0, (a, b))] = 0 if a == b else 2
        membership_states = 3
        from langmart.automata import Dfa

        membership = Dfa(2, [letters, letters], membership_states, 0, [0], trans)
        fam = AutomaticFamily(index_language, membership)
        learner = family_learner(fam)
        state = learner.start
        state = learner.step(state, "0")[0]  # L_0 wrong: advance to 1
        with pytest.raises(LearnerStallError):
            learner.step(state, "1")


class TestVariantLearner:
    def test_dovetail_first_pairs(self):
        fam = prefix_family("01")
        pairs = dovetail_pairs(fam, 20)
        assert pairs[:10] == [
            ("", ""), ("", "0"), ("0", "0"), ("", "1"), ("0", "1"), ("1", "1"),
            ("", "00"), ("0", "00"), ("1", "00"), ("00", "00"),
        ]
        # the learner's own state sequence under forced wrong bets matches
        setup = variant_family_learner(fam)
        state = setup.start
        seen = [state.memory]
        for _ in range(19):
            wrong = 0 if fam.member("0", state.memory[0]) else 1
            state = setup.step(state, "0")[wrong]
            seen.append(state.memory)
        assert seen == [tuple(p) for p in pairs]

    def test_succeeds_on_finite_difference(self, sigma):
        fam = prefix_family("01")
        difference = {"1", "00"}
        target = lambda w: w.startswith("1") != (w in difference)
        setup = variant_family_learner(fam)
        trace = run(setup, ll_text(sigma), target, 80)
        caps = trace.capitals()
        stable_from = next(
            i for i in range(len(caps))
            if all(caps[j + 1] == caps[j] * THREE_HALVES
                   for j in range(i, len(caps) - 1)))
        assert stable_from <= 40
        assert trace.final > TWO**8

    def test_empty_difference_behaves_like_plain_learner(self, sigma):
        fam = prefix_family("01")
        target = lambda w: w.startswith("1")
        variant = variant_family_learner(fam)
        trace = run(variant, ll_text(sigma), target, 50)
        caps = trace.capitals()
        stable_from = next(
            i for i in range(len(caps))
            if all(caps[j + 1] == caps[j] * THREE_HALVES
                   for j in range(i, len(caps) - 1)))
        # dovetail revisits "" and "0" before settling on "1"
        assert caps[stable_from] == HALF**stable_from * ONE or stable_from < 12


class TestTmBettor:
    def test_decides_language(self, tm_equal_counts):
        for w in brute_words("01", 8):
            assert bool(tm_equal_counts.decide(w)) == equal_counts(w)

    def test_first_input_is_ll_minimum(self, sigma, tm_equal_counts):
        setup, _ = tm_dynamic_bettor(tm_equal_counts, sigma)
        assert setup.start.memory[0] == min_ll(sigma)

    def test_capital_doubles_per_completed_bet(self, sigma, tm_equal_counts):
        setup, generator = tm_dynamic_bettor(tm_equal_counts, sigma)
        trace = run_dynamic(setup, generator, equal_counts, 260)
        bets = [e for e in trace.entries if e.word is not None]
        assert len(bets) >= 6
        for k, entry in enumerate(bets, start=1):
            assert entry.capital == TWO**k

    def test_long_inputs_are_loaded_within_the_memory_growth_limit(self, one_zeros,
                                                                    tm_equal_counts):
        # the words of 1 0* grow past what one pause may add to the work word
        setup, generator = tm_dynamic_bettor(tm_equal_counts, one_zeros)
        trace = run_dynamic(setup, generator, equal_counts, 500)
        bets = [e for e in trace.entries if e.word is not None]
        assert len(bets[-1].word) > 2 * MEMORY_GROWTH_LIMIT
        for k, entry in enumerate(bets, start=1):
            assert entry.capital == TWO**k
        state, pauses = setup.start._replace(memory=(bets[-1].word, "", "")), 0
        while "|" not in state.memory[1]:  # loading pieces, then the start configuration
            (nxt,) = setup.step(state, PAUSE)
            assert 0 < len(nxt.memory[1]) - len(state.memory[1]) <= MEMORY_GROWTH_LIMIT
            state, pauses = nxt, pauses + 1
        assert pauses == 3
        assert state.memory[1] == tm_equal_counts.init_config(bets[-1].word)[0]

    def test_wrong_program_zeroes_and_continues(self, sigma):
        # a machine that instantly accepts everything is wrong on "0"
        always = TmProgram("q", "acc", "rej", "_", {("q", s): (s, "S", "acc")
                                                    for s in "01_"})
        setup, generator = tm_dynamic_bettor(always, sigma)
        trace = run_dynamic(setup, generator, equal_counts, 30)
        bets = [e for e in trace.entries if e.word is not None]
        assert bets[0].word == "" and bets[0].capital == TWO  # eps correct
        assert bets[1].word == "0" and bets[1].capital == ZERO
        assert len(bets) >= 3  # the run continues at capital 0

    def test_budget_violation_when_machine_too_slow(self, sigma):
        spinner = TmProgram("q", "acc", "rej", "_",
                            {("q", s): (s, "R", "q") for s in "01_"})
        setup, generator = tm_dynamic_bettor(spinner, sigma)
        with pytest.raises(ValidityBudgetError):
            run_dynamic(setup, generator, equal_counts, 50, budget=10)

    def test_json_roundtrip(self, tm_equal_counts):
        back = TmProgram.from_json(tm_equal_counts.to_json())
        assert back == tm_equal_counts

    def test_a_word_with_a_bar_is_decided(self, tm_equal_counts):
        # '|' is no tape symbol, so the machine rejects once it reads one
        assert [tm_equal_counts.decide(w) for w in ("01", "01|", "0|1", "|")] == [1, 0, 0, 0]

    @pytest.mark.parametrize("move", ["S", "L", "R"])
    def test_a_machine_that_never_halts_runs_out_of_steps(self, move):
        spinner = TmProgram("q", "acc", "rej", "_", {("q", s): ("X", move, "q")
                                                     for s in "01_X"})
        with pytest.raises(ConstructionError,
                           match=r"^machine ran past 1000000 steps on '01'$"):
            spinner.decide("01")

    def test_audit_betting_state(self, sigma, tm_equal_counts):
        setup, generator = tm_dynamic_bettor(tm_equal_counts, sigma)
        state = setup.start
        while not state.memory[2]:
            (state,) = setup.step(state, PAUSE)
        lo, hi = (nxt.capital for nxt in setup.step(state, state.memory[0]))
        assert {hi, lo} == {TWO * state.capital, ZERO}


# Machines over the tape letters 01_X with 2-4 working states: each
# (state, letter) pair, the halting states' included, may have no rule,
# and the start may be the accepting or the rejecting state.
TM_LETTERS = "01_X"


@st.composite
def machines(draw):
    working = [f"q{i}" for i in range(draw(st.integers(2, 4)))]
    states = working + ["acc", "rej"]
    rule = st.tuples(st.sampled_from(TM_LETTERS), st.sampled_from("LRS"), st.sampled_from(states))
    rules = {(q, a): r for q in states for a in TM_LETTERS
             if (r := draw(st.none() | rule)) is not None}
    return TmProgram(draw(st.sampled_from(states)), "acc", "rej", "_", rules)


def decide_by_configs(prog: TmProgram, word: str, budget: int):
    """The verdict of the configuration route, stepped as the bettor steps
    it, or None when `budget` steps bring none."""
    config, out = prog.init_config(word)
    for _ in range(budget):
        if out:
            return int(out)
        config, out = prog.step_config(config)
    return None


# Words hold the blank and the letter 2, which no rule reads.  Budgets are
# small, so that machines which never halt are cheap, and a machine that
# halts at the last step the budget allows is common.
@settings(max_examples=300, deadline=None)
@given(prog=machines(), words=st.lists(st.text(TM_LETTERS + "2", max_size=8), max_size=6),
       budget=st.integers(1, 12) | st.just(40))
@example(prog=TmProgram("q0", "acc", "rej", "_", {}), words=["0"], budget=1)
@example(prog=TmProgram("q0", "acc", "rej", "_", {("q0", "0"): ("0", "L", "q1"),
                                                  ("q1", "_"): ("_", "S", "acc")}),
         words=["0"], budget=40)  # the head steps left of the word onto a blank
def test_decide_matches_the_configuration_route(prog, words, budget):
    with mock.patch.object(constructions, "TM_STEP_BUDGET", budget):
        for word in words:
            expected = decide_by_configs(prog, word, budget)
            if expected is None:
                with pytest.raises(ConstructionError, match=f"ran past {budget} steps"):
                    prog.decide(word)
            else:
                assert prog.decide(word) == expected, word


class TestDiagonalize:
    def enum(self, zeros_then_ones, one_zeros):
        return [
            regular_bettor(zeros_then_ones),
            regular_bettor(word_star("1")),
            subset_bettor(one_zeros, "inside"),
        ]

    def test_certificate_bound(self, sigma, zeros_then_ones, one_zeros):
        cert = diagonalize(self.enum(zeros_then_ones, one_zeros), sigma, 30)
        assert len(cert.entries) == 30
        assert all(e.capital <= TWO for e in cert.entries)

    def test_single_setup_never_increases(self, sigma, zeros_then_ones):
        d = regular_bettor(zeros_then_ones)
        cert = diagonalize([d], sigma, 25)
        oracle = cert.oracle()
        trace = run(d, ll_text(sigma), oracle, 25)
        caps = trace.capitals()
        for before, after in zip(caps, caps[1:]):
            assert after <= before

    def test_replay_is_exact(self, sigma, zeros_then_ones, one_zeros):
        enum = self.enum(zeros_then_ones, one_zeros)
        cert = diagonalize(enum, sigma, 30)
        assert replay_certificate(cert, enum, sigma) == []

    def test_tampered_bit_detected(self, sigma, zeros_then_ones, one_zeros):
        from langmart.constructions import CertEntry

        enum = self.enum(zeros_then_ones, one_zeros)
        cert = diagonalize(enum, sigma, 12)
        tampered = list(cert.entries)
        victim = tampered[5]
        tampered[5] = CertEntry(victim.word, 1 - victim.bit, victim.capital)
        bad = DiagonalCertificate(tuple(tampered), cert.weight_base,
                                  cert.enum_hash)
        problems = replay_certificate(bad, enum, sigma)
        assert problems and victim.word in problems[0]

    def test_tampered_capital_bound_detected(self, sigma, zeros_then_ones,
                                             one_zeros):
        from langmart.constructions import CertEntry

        enum = self.enum(zeros_then_ones, one_zeros)
        cert = diagonalize(enum, sigma, 12)
        tampered = list(cert.entries)
        victim = tampered[3]
        tampered[3] = CertEntry(victim.word, victim.bit, Dyadic(5))
        bad = DiagonalCertificate(tuple(tampered), cert.weight_base,
                                  cert.enum_hash)
        problems = replay_certificate(bad, enum, sigma)
        assert any("bound" in p for p in problems)

    def test_tampered_first_entry_detected(self, sigma, zeros_then_ones,
                                           one_zeros):
        # entry 1 replays through a smaller composite than the full one
        from langmart.constructions import CertEntry

        enum = self.enum(zeros_then_ones, one_zeros)
        cert = diagonalize(enum, sigma, 12)
        tampered = list(cert.entries)
        victim = tampered[0]
        assert victim.capital != ZERO
        tampered[0] = CertEntry(victim.word, victim.bit, ZERO)
        bad = DiagonalCertificate(tuple(tampered), cert.weight_base,
                                  cert.enum_hash)
        problems = replay_certificate(bad, enum, sigma)
        assert problems == [f"first divergence at {victim.word!r}: replayed "
                            f"{victim.capital}, recorded {ZERO}"]

    def test_json_roundtrip(self, sigma, zeros_then_ones, one_zeros):
        cert = diagonalize(self.enum(zeros_then_ones, one_zeros), sigma, 10)
        back = DiagonalCertificate.from_json_obj(cert.to_json_obj())
        assert back == cert

    def test_ties_choose_zero(self, sigma):
        from langmart.engine import MState, Setup

        neutral = Setup("flat", lambda s, x: each(x, s), MState(ONE, ("",)), None)
        cert = diagonalize([neutral], sigma, 8)
        assert all(e.bit == 0 for e in cert.entries)


class TestBuildSetup:
    def test_roundtrip(self, zeros_then_ones):
        desc = {"kind": "regular_bettor", "dfa": zeros_then_ones.to_json()}
        setup = build_setup(desc)
        assert setup.name == "regular_bettor"
        with pytest.raises(ValueError):
            build_setup({"kind": "mystery"})


def three_hypotheses(cycle=True) -> HypothesisSpace:
    return HypothesisSpace((
        Hypothesis("always-0", lambda w: 0, lambda w: len(w) + 1),
        Hypothesis("starts-1", lambda w: int(w.startswith("1")), lambda w: len(w) + 1),
        Hypothesis("all-0", lambda w: int(set(w) <= {"0"}), lambda w: len(w) + 1),
    ), cycle=cycle)


class TestPclass:
    def test_anchor_words(self, sigma):
        assert anchor_word(sigma, 0) == ""
        assert anchor_word(sigma, 3) == "000"

    def test_gap_report(self, sigma):
        rows = anchor_gap_report(sigma, 10)
        assert len(rows) == 10
        assert all(row["ok"] for row in rows)
        assert rows[4]["predecessors"] == count_leq_ll(sigma, "00000") == 32

    def test_stabilizes_then_bets_three_halves(self, sigma):
        setup = pclass_bettor(three_hypotheses(), sigma)
        target = lambda w: set(w) <= {"0"}
        trace = run(setup, ll_text(sigma), target, 4200)
        bets = [(i, e) for i, e in enumerate(trace.entries[1:], start=1)
                if e.capital != trace.entries[i - 1].capital]
        # two wrong hypotheses halve the capital, then each anchor pays 3/2
        assert [str(e.capital) for _, e in bets[:2]] == ["1/2^1", "1/2^2"]
        for (i, e), k in zip(bets[2:], range(1, 99)):
            assert e.capital == HALF**2 * THREE_HALVES**k

    def test_needs_exponential_domain(self, zeros_then_ones):
        with pytest.raises(ConstructionError):
            pclass_bettor(three_hypotheses(), zeros_then_ones)

    def test_exhaustion_reported(self, sigma):
        space = HypothesisSpace(three_hypotheses().hypotheses[:2], cycle=False)
        setup = pclass_bettor(space, sigma)
        target = lambda w: set(w) <= {"0"}
        with pytest.raises(HypothesisExhaustedError):
            run(setup, ll_text(sigma), target, 4200)


class TestFiniteSetIndexing:
    def test_example_encoding(self, zeros_or_ones):
        codec, fam = finite_set_indexing(zeros_or_ones)
        index = codec.encode({"0", "11"})
        assert len(index) == 3
        # slice tuples: (), then 0 present in {0,1}, then 11 present in {00,11}
        assert codec.bits_for_letter(index[0]) == (0, 0)
        assert codec.bits_for_letter(index[1]) == (1, 0)
        assert codec.bits_for_letter(index[2]) == (0, 1)
        assert codec.encode(set()) == ""
        assert codec.decode("") == frozenset()

    def test_roundtrip_all_subsets(self, zeros_or_ones):
        codec, fam = finite_set_indexing(zeros_or_ones)
        first8 = enumerate_ll(zeros_or_ones, 8)
        for r in range(9):
            for subset in combinations(first8, r):
                index = codec.encode(subset)
                assert codec.decode(index) == frozenset(subset)
                assert fam.index_language.accepts(index)

    def test_membership_relation_agrees(self, zeros_or_ones):
        codec, fam = finite_set_indexing(zeros_or_ones)
        first8 = enumerate_ll(zeros_or_ones, 8)
        probes = enumerate_ll(zeros_or_ones, 12)
        for r in range(4):
            for subset in combinations(first8[:6], r):
                index = codec.encode(subset)
                for x in probes:
                    assert fam.member(x, index) == (x in subset)

    def test_rejects_unbounded_domain(self, sigma):
        with pytest.raises(ConstructionError):
            finite_set_indexing(sigma)

    def test_invalid_indices_rejected(self, zeros_or_ones):
        codec, fam = finite_set_indexing(zeros_or_ones)
        # letter claiming two members in the singleton slice of length 0
        bad_letter = codec.letter_for_bits((1, 1))
        assert not fam.index_language.accepts(bad_letter)
        # trailing empty-set letter is not canonical
        assert not fam.index_language.accepts(codec.letters[0])


class TestAuditsOnConstructions:
    @pytest.mark.parametrize("which", ["regular", "subset", "family", "variant"])
    def test_exact_fairness(self, sigma, zeros_then_ones, one_zeros, which):
        fam = prefix_family("01")
        setup = {
            "regular": regular_bettor(zeros_then_ones),
            "subset": subset_bettor(one_zeros, "outside"),
            "family": family_learner(fam),
            "variant": variant_family_learner(fam),
        }[which]
        report = audit_fairness(setup, enumerate_ll(sigma, 24))
        assert report.ok


def test_shipped_constructions_clean_on_24_word_probes(sigma):
    for setup in shipped_constructions():
        report = audit_fairness(setup, enumerate_ll(sigma, 24))
        assert report.ok, f"{setup.name}: {report.violations[:2]}"
        assert setup.bet is not None  # each one is a bettor, audited by memory
