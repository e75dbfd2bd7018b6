import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_words, equal_counts
from langmart.automata import enumerate_ll
from langmart.dyadic import Dyadic, ONE, THREE_HALVES
from langmart.engine import ll_text, run, sequence_text, succeeded
from langmart.grammar import (
    Cfg,
    CnfGrammar,
    CykRecognizer,
    GrammarError,
    NotAMemberError,
    cfl_nonrandom_pipeline,
    cyk_member,
    generate_words,
    infinite_regular_subset,
    intersect_regular,
    is_finite_cfl,
    max_finite_length,
    parse,
    pump_cfl,
    quotient,
    to_cnf,
)
from langmart.regular import growth_class, universe, word_star

BALANCED = "S -> 0 S 1 S | 1 S 0 S | #eps"  # equal number of 0s and 1s


def balanced(w: str) -> bool:
    return w.count("0") == w.count("1")


class TestParsingFormat:
    def test_roundtrip(self, equal_counts_grammar):
        text = equal_counts_grammar.to_text()
        assert Cfg.from_text(text).productions == equal_counts_grammar.productions

    def test_bad_lines(self):
        with pytest.raises(GrammarError):
            Cfg.from_text("S 0 1")
        with pytest.raises(GrammarError):
            Cfg.from_text("S -> ab")  # multi-letter terminal
        with pytest.raises(GrammarError):
            Cfg.from_text("")
        with pytest.raises(GrammarError):
            Cfg.from_text("-> 0")  # empty head
        with pytest.raises(GrammarError):
            Cfg.from_text("S A -> 0 | S A")  # a head of two tokens

    @given(st.text(max_size=40) | st.text("SA01 -|>#eps\n", max_size=40))
    def test_any_text(self, text):
        """Any text reads as a grammar that round-trips through to_text, or
        raises GrammarError."""
        try:
            g = Cfg.from_text(text)
        except GrammarError:
            return
        assert all(head.split() == [head] for head in g.nonterminals)
        assert Cfg.from_text(g.to_text()) == g


class TestCnfAndCyk:
    def test_equal_counts_examples(self, equal_counts_cnf):
        assert cyk_member(equal_counts_cnf, "0011")
        assert not cyk_member(equal_counts_cnf, "010")
        assert cyk_member(equal_counts_cnf, "")

    @pytest.mark.parametrize("source,max_len", [
        ("S -> 0 S 1 | #eps", 8),
        (BALANCED, 7),
        ("S -> S S | 0 | 1 S", 6),
        ("S -> A B\nA -> 0 A | #eps\nB -> 1 | B 1", 7),
    ])
    def test_cnf_matches_derivation_oracle(self, source, max_len):
        g = Cfg.from_text(source)
        cnf = to_cnf(g)
        derivable = generate_words(g, max_len)
        alphabet = "".join(sorted(g.terminals)) or "01"
        for w in brute_words(alphabet, max_len):
            assert cyk_member(cnf, w) == (w in derivable), w

    def test_empty_language(self):
        cnf = to_cnf(Cfg.from_text("S -> 0 S"))  # no terminating rule
        assert not any(cyk_member(cnf, w) for w in brute_words("01", 5))

    def test_epsilon_only(self):
        cnf = to_cnf(Cfg.from_text("S -> #eps"))
        assert cyk_member(cnf, "")
        assert not cyk_member(cnf, "0")
        assert is_finite_cfl(cnf)

    def test_parse_yield(self, equal_counts_cnf):
        for n in range(1, 10):
            w = "0" * n + "1" * n
            assert parse(equal_counts_cnf, w).yield_word() == w
        cnf = to_cnf(Cfg.from_text(BALANCED))
        members = sorted(generate_words(Cfg.from_text(BALANCED), 8))
        for w in members[:100]:
            if w:
                assert parse(cnf, w).yield_word() == w

    def test_parse_nonmember(self, equal_counts_cnf):
        with pytest.raises(NotAMemberError):
            parse(equal_counts_cnf, "011")


MAX_QUERY = 6
NONTERMINALS = ("S", "A", "B")
symbols = st.sampled_from(NONTERMINALS + ("0", "1"))
# Alternatives of two or more symbols carry a terminal, so leftmost
# expansion in generate_words always terminates.
alternatives = st.one_of(
    st.just(()),
    st.tuples(symbols),
    st.lists(symbols, min_size=2, max_size=3).filter(
        lambda rhs: any(sym in "01" for sym in rhs)).map(tuple),
)
grammars = st.tuples(*[st.lists(alternatives, min_size=1, max_size=3)
                       for _ in NONTERMINALS])
words = st.text("01", max_size=MAX_QUERY)
# Each query derives from the previous one, to exercise chart column reuse.
queries = st.lists(st.one_of(
    st.tuples(st.just("fresh"), words),
    st.tuples(st.sampled_from(["repeat", "shorter", "empty", "diverge"]),
              st.just("")),
    st.tuples(st.just("extend"), words),
), max_size=40)


def _query_words(ops):
    prev = ""
    for op, word in ops:
        if op == "fresh":
            prev = word
        elif op == "shorter":
            prev = prev[:len(prev) // 2]
        elif op == "empty":
            prev = ""
        elif op == "diverge" and prev:
            prev = ("1" if prev[0] == "0" else "0") + prev[1:]
        elif op == "extend":
            prev = (prev + word)[:MAX_QUERY]
        yield prev


@settings(max_examples=80, deadline=None)
@given(grammars, queries)
def test_recognizer_matches_derivation_oracle(rules, ops):
    text = "\n".join(
        f"{head} -> " + " | ".join(" ".join(rhs) if rhs else "#eps" for rhs in alts)
        for head, alts in zip(NONTERMINALS, rules))
    g = Cfg.from_text(text)
    cnf = to_cnf(g)
    derivable = generate_words(g, MAX_QUERY)
    recognizer = CykRecognizer(cnf)
    for w in _query_words(ops):
        assert recognizer.member(w) == (w in derivable), (text, w)
        if w in derivable:
            assert parse(cnf, w).yield_word() == w == recognizer.parse(w).yield_word()


class TestQuotient:
    def test_examples(self, equal_counts_cnf):
        left = quotient(equal_counts_cnf, "0", "")
        assert cyk_member(left, "1")
        assert cyk_member(left, "011")
        assert not cyk_member(left, "01")

    def test_identity(self, equal_counts_cnf):
        same = quotient(equal_counts_cnf, "", "")
        for w in brute_words("01", 8):
            assert cyk_member(same, w) == cyk_member(equal_counts_cnf, w)

    def test_empty_when_prefix_too_long(self, equal_counts_cnf):
        gone = quotient(equal_counts_cnf, "1", "")  # nothing starts with 1
        assert not any(cyk_member(gone, w) for w in brute_words("01", 6))

    @pytest.mark.parametrize("u,v", [("0", ""), ("", "1"), ("0", "1"),
                                     ("00", "11"), ("01", "")])
    def test_against_oracle(self, equal_counts_cnf, u, v):
        q = quotient(equal_counts_cnf, u, v)
        for w in brute_words("01", 6):
            assert cyk_member(q, w) == cyk_member(equal_counts_cnf, u + w + v)

    def test_balanced_quotients(self):
        cnf = to_cnf(Cfg.from_text(BALANCED))
        q = quotient(cnf, "01", "10")
        for w in brute_words("01", 5):
            assert cyk_member(q, w) == balanced("01" + w + "10")


class TestFiniteness:
    def test_examples(self, equal_counts_cnf):
        assert not is_finite_cfl(equal_counts_cnf)
        assert is_finite_cfl(to_cnf(Cfg.from_text("S -> #eps")))
        # a cycle that is unreachable stays finite
        unreachable_cycle = Cfg.from_text("S -> 0\nA -> 0 A 1 | 1")
        assert is_finite_cfl(to_cnf(unreachable_cycle))
        # a cycle that never terminates is not generating
        dead_cycle = Cfg.from_text("S -> 0 | A\nA -> 0 A")
        assert is_finite_cfl(to_cnf(dead_cycle))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_pumping_oracle(self, data):
        """With k CNF nonterminals (k <= 3), the language is infinite iff
        generate_words finds a word whose length is in [2^k, 2^(k+1)).
        Grammars have up to three pair rules over S, A and B and the letter
        a alone (finiteness does not depend on the letters), which keeps
        the oracle's expansion small."""
        names = data.draw(st.sampled_from(["S", "SA", "SAB"]))
        name = st.sampled_from(names)
        rules = data.draw(st.lists(st.tuples(name, name, name), max_size=3, unique=True))
        lettered = data.draw(st.sets(name))
        pairs = {x: tuple(sorted((y, z) for head, y, z in rules if head == x)) for x in names}
        cnf = CnfGrammar("S", {x: p for x, p in pairs.items() if p},
                         {x: ("a",) for x in lettered})
        cfg = Cfg("S", {x: pairs[x] + ((("a",),) if x in lettered else ()) for x in names})
        k = len(cnf.nonterminals)
        words = generate_words(cfg, 2 ** (k + 1) - 1)
        infinite = any(len(w) >= 2**k for w in words)
        assert is_finite_cfl(cnf) == (not infinite), cfg.to_text()

    def test_max_finite_length(self):
        cnf = to_cnf(Cfg.from_text("S -> 0 A | 1\nA -> 0 1"))
        assert max_finite_length(cnf) == 3
        with pytest.raises(GrammarError):
            max_finite_length(to_cnf(Cfg.from_text("S -> 0 S | 1")))


class TestPumping:
    def test_equal_counts_pump(self, equal_counts_cnf):
        a, b, c, d, e = pump_cfl(equal_counts_cnf, "0011")
        assert a + b + c + d + e == "0011"
        assert len(b + d) >= 1
        for n in range(5):
            assert equal_counts(a + b * n + c + d * n + e)

    def test_balanced_pump(self):
        cnf = to_cnf(Cfg.from_text(BALANCED))
        a, b, c, d, e = pump_cfl(cnf, "0101")
        for n in range(5):
            assert balanced(a + b * n + c + d * n + e)

    def test_nonmember_rejected(self, equal_counts_cnf):
        with pytest.raises(NotAMemberError):
            pump_cfl(equal_counts_cnf, "0111")


class TestIntersectRegular:
    def test_equal_counts_with_zero_star(self, equal_counts_cnf):
        inter = intersect_regular(equal_counts_cnf, word_star("0"))
        assert cyk_member(inter, "")
        assert not any(cyk_member(inter, "0" * n) for n in range(1, 8))

    def test_balanced_with_zo(self, zeros_then_ones):
        cnf = to_cnf(Cfg.from_text(BALANCED))
        inter = intersect_regular(cnf, zeros_then_ones)
        for w in brute_words("01", 8):
            assert cyk_member(inter, w) == (balanced(w) and zeros_then_ones.accepts(w))


class TestInfiniteRegularSubset:
    def test_outside_branch(self, sigma, equal_counts_cnf):
        r, side = infinite_regular_subset(equal_counts_cnf, sigma)
        assert side == "outside"
        members = enumerate_ll(r, 100)
        assert len(members) == 100
        assert all(not cyk_member(equal_counts_cnf, w) for w in members)

    def test_inside_branch(self, sigma):
        zeros = to_cnf(Cfg.from_text("S -> 0 S | #eps"))
        r, side = infinite_regular_subset(zeros, sigma)
        assert side == "inside"
        members = enumerate_ll(r, 100)
        assert len(members) == 100
        assert all(cyk_member(zeros, w) for w in members)
        # every member's length sits on one arithmetic progression
        lengths = sorted(len(w) for w in members)
        step = lengths[1] - lengths[0]
        assert step >= 1
        assert all(b - a == step for a, b in zip(lengths, lengths[1:]))

    def test_result_is_infinite(self, sigma, equal_counts_cnf):
        r, _ = infinite_regular_subset(equal_counts_cnf, sigma)
        assert growth_class(r).kind != "bounded" or growth_class(r).bound >= 1
        assert len(enumerate_ll(r, 120)) == 120

    def test_balanced_language(self, sigma):
        cnf = to_cnf(Cfg.from_text(BALANCED))
        r, side = infinite_regular_subset(cnf, sigma)
        members = enumerate_ll(r, 60)
        expect = side == "inside"
        assert all(cyk_member(cnf, w) == expect for w in members)


class TestPipeline:
    def test_grows_past_threshold(self, sigma, equal_counts_grammar):
        setup, _, _ = cfl_nonrandom_pipeline(equal_counts_grammar, sigma)
        threshold = Dyadic(2**10)
        trace = run(setup, ll_text(sigma), equal_counts,
                    300000, stop_threshold=threshold)
        assert succeeded(trace, threshold)

    def test_shuffled_exhaustive_text(self, sigma, equal_counts_grammar):
        setup, _, _ = cfl_nonrandom_pipeline(equal_counts_grammar, sigma)
        # deterministic interleave: swap adjacent pairs of the ll order
        base = enumerate_ll(sigma, 3000)
        shuffled = []
        for i in range(0, len(base) - 1, 2):
            shuffled += [base[i + 1], base[i]]
        trace = run(setup, sequence_text(shuffled), equal_counts, len(shuffled))
        assert trace.final > ONE  # same eventual growth on r-member hits

    def test_text_avoiding_subset_stays_flat(self, sigma, equal_counts_grammar):
        setup, _, _ = cfl_nonrandom_pipeline(equal_counts_grammar, sigma)
        items = [w for w in enumerate_ll(sigma, 200) if "1" in w]  # avoids 0 0*
        trace = run(setup, sequence_text(items), equal_counts, len(items))
        assert trace.capitals() == [ONE] * (len(items) + 1)
