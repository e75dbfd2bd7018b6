import bisect
import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_words, growth_corpus
from langmart.automata import (
    PAD,
    ArityMismatchError,
    Dfa,
    EmptyLanguageError,
    NoSuccessorError,
    admissible_columns,
    count_leq_ll,
    enumerate_ll,
    min_ll,
    min_word_of_length_at_least,
    slice_count,
    succ_ll,
    words_of_length,
)
from langmart.regular import (
    Nfa,
    PumpingError,
    combine,
    complement,
    concat,
    determinize,
    embed_alphabet,
    empty,
    from_word,
    growth_class,
    exponential_growth_witness,
    project,
    pump_decompose,
    pumping_constant,
    universe,
    word_star,
)


def shorter_relation() -> Dfa:
    """Two-track automaton for |x| < |y|: reach s1 on the first (#, b) column."""
    trans = {}
    letters = ("0", "1")
    for a in letters + ("#",):
        for b in letters + ("#",):
            if a == "#" and b == "#":
                continue
            trans[(0, (a, b))] = 1 if a == "#" and b != "#" else 0
            trans[(1, (a, b))] = 1
    return Dfa(2, ["01", "01"], 2, 0, [1], trans)


def equality_relation() -> Dfa:
    trans = {}
    letters = ("0", "1")
    for a in letters:
        trans[(0, (a, a))] = 0
    return Dfa(2, ["01", "01"], 1, 0, [0], trans)


class TestAccepts:
    def test_shorter_relation_examples(self):
        shorter = shorter_relation()
        assert shorter.accepts(("0", "11"))
        assert not shorter.accepts(("11", "0"))
        assert not shorter.accepts(("0", "1"))
        assert shorter.accepts(("", "1"))
        assert not shorter.accepts(("", ""))

    def test_one_track_reads_a_word_or_a_one_word_tuple(self, zeros_then_ones):
        for w in brute_words("01", 5):
            assert zeros_then_ones.accepts((w,)) == zeros_then_ones.accepts(w)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            shorter_relation().accepts("01")
        with pytest.raises(ArityMismatchError):
            universe("01").accepts(("0", "1"))

    @pytest.mark.parametrize("dfa, word, needle", [
        (shorter_relation, ("0",), "1 words for an automaton of arity 2"),
        (shorter_relation, ("0", "1", "1"), "3 words for an automaton of arity 2"),
        (shorter_relation, (), "0 words for an automaton of arity 2"),
        (shorter_relation, ("0#1", "111"), "a row holds the padding letter '#'"),
        (shorter_relation, ("0", "1#"), "a row holds the padding letter '#'"),
        (lambda: universe("01"), ("0#",), "a row holds the padding letter '#'"),
        (shorter_relation, ("02", "1"), "column ('2', '#') outside alphabet"),
        (shorter_relation, ("", "x"), "column ('#', 'x') outside alphabet"),
        (lambda: universe("01"), "012", "column '2' outside alphabet"),
        (lambda: universe("01"), ("#",), "a row holds the padding letter '#'"),
    ], ids=["one-word", "three-words", "no-words", "pad-inside-row", "pad-ending-row",
            "pad-one-track", "foreign-letter", "foreign-letter-after-pad",
            "foreign-letter-one-track", "pad-alone"])
    def test_malformed_input_raises(self, dfa, word, needle):
        with pytest.raises(ArityMismatchError, match=re.escape(needle)):
            dfa().accepts(word)


class TestBooleanOps:
    def test_examples(self, zeros_then_ones):
        ones = word_star("1")
        both = combine(zeros_then_ones, ones, "and")
        assert both.accepts("11")
        assert not both.accepts("01")
        assert combine(zeros_then_ones, zeros_then_ones, "xor").useful_states() == set()

    def test_projection_of_equality(self):
        # exists y (x = y) describes every word
        projected = determinize(project(Nfa.from_dfa(equality_relation()), {1}))
        for w in brute_words("01", 6):
            assert projected.accepts(w)

    def test_combine_matches_brute_force(self, sigma, zeros_then_ones,
                                         one_zeros, double_zeros):
        pairs = [(zeros_then_ones, one_zeros), (double_zeros, zeros_then_ones)]
        for a, b in pairs:
            for op, good in [
                ("and", lambda x, y: x and y),
                ("or", lambda x, y: x or y),
                ("minus", lambda x, y: x and not y),
                ("xor", lambda x, y: x != y),
            ]:
                c = combine(a, b, op)
                for w in brute_words("01", 8):
                    assert c.accepts(w) == good(a.accepts(w), b.accepts(w))
            comp = complement(a, sigma)
            for w in brute_words("01", 8):
                assert comp.accepts(w) == (not a.accepts(w))

    def test_concat(self, zeros_then_ones):
        for w in brute_words("01", 8):
            expected = all(ch == "0" for ch in w[:w.find("1") if "1" in w else len(w)])
            # 0*1* membership: no 1 before a 0
            assert zeros_then_ones.accepts(w) == ("10" not in w)


def random_nfa(rng_seed: int) -> Nfa:
    import random

    rng = random.Random(rng_seed)
    n = rng.randint(1, 5)
    trans = {}
    for q in range(n):
        for ch in "01":
            targets = {r for r in range(n) if rng.random() < 0.4}
            if targets:
                trans[(q, (ch,))] = targets
    epsilon = {}
    for q in range(n):
        eps = {r for r in range(n) if rng.random() < 0.15 and r != q}
        if eps:
            epsilon[q] = eps
    starts = {rng.randrange(n)}
    accepting = {r for r in range(n) if rng.random() < 0.4}
    return Nfa(1, ["01"], n, starts, accepting, trans, epsilon)


def nfa_accepts(nfa: Nfa, w: str) -> bool:
    current = nfa.closure(nfa.starts)
    for ch in w:
        step = set()
        for q in current:
            step |= nfa.transitions.get((q, (ch,)), frozenset())
        current = nfa.closure(step)
    return bool(current & nfa.accepting)


@pytest.mark.parametrize("seed", range(25))
def test_determinize_preserves_language(seed):
    nfa = random_nfa(seed)
    dfa = determinize(nfa)
    for w in brute_words("01", 8):
        assert dfa.accepts(w) == nfa_accepts(nfa, w), (seed, w)


class TestLengthLex:
    def test_min_and_succ_examples(self, sigma, zeros_then_ones, one_zeros):
        assert min_ll(sigma) == ""
        assert succ_ll(sigma, "1") == "00"
        assert min_ll(concat(from_word("1"), universe("01"))) == "1"
        assert succ_ll(zeros_then_ones, "01") == "11"
        # brute-force justification of the "11" example
        members = [w for w in brute_words("01", 2) if zeros_then_ones.accepts(w)]
        above = [w for w in members if (len(w), w) > (2, "01")]
        assert min(above, key=lambda w: (len(w), w)) == "11"
        assert min_ll(one_zeros) == "1"

    def test_min_empty_language(self):
        with pytest.raises(EmptyLanguageError):
            min_ll(empty("01"))

    def test_succ_exhausted(self):
        lang = from_word("01")
        with pytest.raises(NoSuccessorError):
            succ_ll(lang, "01")

    def test_succ_matches_enumeration(self, sigma, zeros_then_ones, one_zeros,
                                      double_zeros):
        for d in (sigma, zeros_then_ones, one_zeros, double_zeros):
            members = enumerate_ll(d, 50)
            for here, there in zip(members, members[1:]):
                assert succ_ll(d, here) == there

    def test_count_examples(self, sigma, zeros_then_ones):
        assert count_leq_ll(sigma, "11") == 7
        assert count_leq_ll(word_star("0"), "000") == 4
        assert count_leq_ll(zeros_then_ones, "11") == 6

    def test_count_matches_brute_force(self, sigma, zeros_then_ones, one_zeros,
                                       zeros_or_ones):
        for d in (sigma, zeros_then_ones, one_zeros, zeros_or_ones):
            members = [w for w in brute_words("01", 10) if d.accepts(w)]
            for w in brute_words("01", 10):
                key = (len(w), w)
                expected = sum(1 for m in members if (len(m), m) <= key)
                assert count_leq_ll(d, w) == expected

    def test_count_is_not_enumeration(self, sigma):
        # exponential-size counts come back exactly
        assert count_leq_ll(sigma, "0" * 64) == 2**64

    def test_enumerate_examples(self, sigma, one_zeros):
        assert enumerate_ll(sigma, 4) == ["", "0", "1", "00"]
        assert enumerate_ll(one_zeros, 3) == ["1", "10", "100"]
        assert enumerate_ll(empty("01"), 5) == []

    def test_enumerate_finite_language(self):
        lang = from_word("010")
        assert enumerate_ll(lang, 10) == ["010"]

    def test_words_of_length(self, zeros_then_ones):
        assert words_of_length(zeros_then_ones, 2) == ["00", "01", "11"]
        assert words_of_length(zeros_then_ones, 0) == [""]

    def test_min_word_of_length_at_least(self, double_zeros):
        assert min_word_of_length_at_least(double_zeros, 3) == "0000"
        with pytest.raises(EmptyLanguageError):
            min_word_of_length_at_least(from_word("01"), 3)


class TestPumping:
    def test_examples(self, sigma, zeros_then_ones, double_zeros):
        assert pump_decompose(sigma, "000") == ("", "0", "00")
        assert pump_decompose(zeros_then_ones, "01") in [("0", "1", ""), ("", "0", "1")]
        assert pump_decompose(double_zeros, "0000") == ("", "00", "00")

    @pytest.mark.parametrize("name,dfa,word", [
        ("sigma", None, "0110"),
        ("zo", None, "0011"),
        ("dz", None, "000000"),
    ])
    def test_pump_stays_inside(self, sigma, zeros_then_ones, double_zeros,
                               name, dfa, word):
        d = {"sigma": sigma, "zo": zeros_then_ones, "dz": double_zeros}[name]
        u, v, w = pump_decompose(d, word)
        assert u + v + w == word and len(v) >= 1
        for n in range(7):
            assert d.accepts(u + v * n + w)

    def test_suffix_equivalence(self, zeros_then_ones):
        u, v, w = pump_decompose(zeros_then_ones, "0011")
        for y in brute_words("01", 4):
            base = zeros_then_ones.accepts(u + v + w + y)
            for n in range(4):
                assert zeros_then_ones.accepts(u + v * n + w + y) == base

    def test_errors(self, zeros_then_ones):
        with pytest.raises(PumpingError):
            pump_decompose(zeros_then_ones, "10")  # not a member
        with pytest.raises(PumpingError):
            pump_decompose(zeros_then_ones, "0")  # shorter than the constant
        assert pumping_constant(zeros_then_ones) == 2


class TestGrowth:
    @pytest.mark.parametrize("name,dfa,expected", [
        (name, dfa, kind) for name, dfa, kind in growth_corpus()
    ])
    def test_corpus_against_brute_force(self, name, dfa, expected):
        cls = growth_class(dfa)
        assert cls.kind == expected, name
        counts = [len(words_of_length(dfa, n)) for n in range(13)]
        assert counts == [slice_count(dfa, n) for n in range(13)]
        if cls.kind == "bounded":
            assert all(c <= cls.bound for c in counts), name
        if cls.kind == "exponential":
            # slice mass doubles at the witnessed pace
            k = exponential_growth_witness(dfa)
            assert max(counts) ** k >= 2 ** 12 / 2**k or \
                sum(counts[: 12]) >= 2 ** (12 // k)

    def test_specific_examples(self, sigma, zeros_then_ones, zeros_or_ones):
        assert growth_class(sigma).kind == "exponential"
        assert growth_class(zeros_then_ones).kind == "polynomial"
        assert growth_class(zeros_or_ones) .bound == 2
        assert growth_class(empty("01")).bound == 0

    def test_witness_on_sigma(self, sigma):
        k = exponential_growth_witness(sigma)
        for n in range(1, 48 // k + 1):
            assert sum(slice_count(sigma, j) for j in range(n * k)) >= 2**n


class TestEmbedding:
    def test_three_letter_example(self):
        # a three-letter alphabet needs two binary tracks
        d = universe("abc")
        image, codec = embed_alphabet(d)
        assert codec.k == 2
        assert codec.encode_letter("a") == ("0", "0")
        assert codec.encode_letter("b") == ("0", "1")
        assert codec.encode_letter("c") == ("1", "0")
        rows = codec.encode("ab")
        assert rows == ("00", "01")
        assert image.accepts(rows)
        assert codec.encode("") == ("", "")

    def test_binary_identity(self):
        d = universe("01")
        image, codec = embed_alphabet(d)
        assert codec.k == 1
        assert codec.encode("0110") == ("0110",)
        assert image.accepts(codec.encode("0110"))

    def test_roundtrip_and_language(self, zeros_or_ones):
        d = universe("abc")
        image, codec = embed_alphabet(d)
        for w in brute_words("abc", 6):
            assert codec.decode(codec.encode(w)) == w
        for rows in [("0", ""), ("0#", "01"), ("1",), ("11", "11")]:
            with pytest.raises(ValueError):
                codec.decode(rows)
        # embedded image of a sublanguage is recognized exactly
        lang = word_star("ab", "abc")
        lang_image, lang_codec = embed_alphabet(lang)
        for w in brute_words("abc", 6):
            assert lang_image.accepts(lang_codec.encode(w)) == lang.accepts(w)


class TestJson:
    def test_roundtrip(self, zeros_then_ones):
        data = zeros_then_ones.to_json()
        back = Dfa.from_json(data)
        for w in brute_words("01", 8):
            assert back.accepts(w) == zeros_then_ones.accepts(w)

    def test_missing_transitions_trap(self):
        data = {
            "arity": 1, "alphabet": "01", "states": ["a", "b"],
            "start": "a", "accepting": ["b"],
            "transitions": [["a", "1", "b"]],
        }
        d = Dfa.from_json(data)
        assert d.accepts("1")
        assert not d.accepts("10")
        assert not d.accepts("0")

    @pytest.mark.parametrize("column", ["2", "01", ""])
    def test_rejects_column_outside_alphabet(self, column):
        data = {
            "arity": 1, "alphabet": "01", "states": [0], "start": 0,
            "accepting": [0], "transitions": [[0, "0", 0], [0, column, 0]],
        }
        with pytest.raises(ValueError):
            Dfa.from_json(data)

    def test_multitrack_columns(self):
        data = {
            "arity": 2, "alphabet": ["01", "ab"], "states": [0], "start": 0,
            "accepting": [0], "transitions": [[0, "0a", 0], [0, "#b", 0]],
        }
        assert Dfa.from_json(data).arity == 2
        for column in ("##", "a0", "0"):
            data["transitions"] = [[0, column, 0]]
            with pytest.raises(ValueError):
                Dfa.from_json(data)
        data["alphabet"] = "01"  # one alphabet for two tracks
        data["transitions"] = []
        with pytest.raises(ValueError):
            Dfa.from_json(data)


# ---------------------------------------------------------------------------
# The compiled letter table and the ll toolbox against brute force
# ---------------------------------------------------------------------------

BRUTE_LENGTH = 7


@st.composite
def word_automata(draw):
    """(automaton, its partial transition dict, letters): 1 to 3 letters in
    any declared order, up to 5 states, missing transitions (the
    constructor sends them to a trap state), maybe a letter with no
    transition at all, and maybe no accepting state."""
    letters = draw(st.sampled_from(["0", "a", "01", "10", "ab", "012", "201", "cab"]))
    n = draw(st.integers(1, 5))
    dead = draw(st.sampled_from([None, *letters]))
    trans = {}
    for q in range(n):
        for ch in letters:
            target = draw(st.none() | st.integers(0, n - 1))
            if ch != dead and target is not None:
                trans[(q, (ch,))] = target
    accepting = draw(st.sets(st.integers(0, n - 1)))
    return Dfa(1, [letters], n, 0, accepting, trans), trans, accepting, letters


def _brute_accepts(trans, accepting, w) -> bool:
    """Membership read off the partial dict: a missing move rejects."""
    q = 0
    for ch in w:
        if (q, (ch,)) not in trans:
            return False
        q = trans[(q, (ch,))]
    return q in accepting


@settings(max_examples=60, deadline=None)
@given(word_automata())
def test_compiled_toolbox_matches_brute_force(case):
    d, trans, accepting, letters = case
    words = list(brute_words(letters, BRUTE_LENGTH))  # ll order of the declared letters
    members = [w for w in words if _brute_accepts(trans, accepting, w)]
    rank = {w: i for i, w in enumerate(words)}
    member_ranks = [rank[m] for m in members]

    def beyond(w):
        """w is a member longer than the brute-force range."""
        return len(w) > BRUTE_LENGTH and _brute_accepts(trans, accepting, w)

    for w in words:
        assert d.accepts(w) == _brute_accepts(trans, accepting, w)
    with pytest.raises(ArityMismatchError):
        d.accepts(words[-1] + "z")
    for n in range(BRUTE_LENGTH + 1):
        assert words_of_length(d, n) == [w for w in members if len(w) == n]
    listed = enumerate_ll(d, len(members) + 1)
    assert listed[:len(members)] == members
    assert all(beyond(w) for w in listed[len(members):])
    for w in words:
        at_most = bisect.bisect_right(member_ranks, rank[w])
        assert count_leq_ll(d, w) == at_most
        if len(w) == BRUTE_LENGTH:
            continue
        try:
            nxt = succ_ll(d, w)
        except NoSuccessorError:
            assert at_most == len(members) == len(listed)
        else:
            assert nxt == members[at_most] if at_most < len(members) else beyond(nxt)
    for bound in range(BRUTE_LENGTH + 1):
        long_enough = [m for m in members if len(m) >= bound]
        try:
            least = min_word_of_length_at_least(d, bound)
        except EmptyLanguageError:
            assert not long_enough and len(listed) == len(members)
        else:
            assert least == long_enough[0] if long_enough else beyond(least)


@st.composite
def track_automata(draw):
    """(automaton, its partial transition dict, accepting states, word
    tuples): 2 or 3 tracks, each over "0", "01" or "10", up to 4 states,
    missing transitions (the constructor sends them to a trap state), maybe
    no accepting state, and up to 20 tuples of one word per track over
    that track's letters, of unequal lengths and with empty words."""
    alphabets = draw(st.lists(st.sampled_from(["0", "01", "10"]), min_size=2, max_size=3))
    n = draw(st.integers(1, 4))
    trans = {}
    for q in range(n):
        for col in admissible_columns(alphabets):
            target = draw(st.none() | st.integers(0, n - 1))
            if target is not None:
                trans[(q, col)] = target
    accepting = draw(st.sets(st.integers(0, n - 1)))
    rows = st.tuples(*[st.text(a, max_size=4) for a in alphabets])
    tuples = draw(st.lists(rows, max_size=20))
    d = Dfa(len(alphabets), alphabets, n, 0, accepting, trans)
    return d, trans, accepting, tuples + [("",) * len(alphabets)]


def _column_walk(trans, accepting, words) -> bool:
    """Membership read off the partial dict column by column, PAD filling
    the rows that have ended: a missing move rejects."""
    q = 0
    for j in range(max(len(w) for w in words)):
        col = tuple(w[j] if j < len(w) else PAD for w in words)
        if (q, col) not in trans:
            return False
        q = trans[(q, col)]
    return q in accepting


@settings(max_examples=60, deadline=None)
@given(track_automata())
def test_multi_track_accepts_matches_column_walk(case):
    d, trans, accepting, tuples = case
    for words in tuples:
        assert d.accepts(words) == _column_walk(trans, accepting, words), words
    with pytest.raises(ArityMismatchError):
        d.accepts(tuples[0] + ("",))
