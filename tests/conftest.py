import pytest

from langmart.automata import Dfa
from langmart.constructions import TmProgram
from langmart.grammar import Cfg, to_cnf
from langmart.regular import combine, concat, empty, finite_language, from_word, universe, word_star


@pytest.fixture(scope="session")
def sigma():
    return universe("01")


@pytest.fixture(scope="session")
def zeros_then_ones():
    """0*1*"""
    return concat(word_star("0"), word_star("1"))


@pytest.fixture(scope="session")
def double_zeros():
    """(00)*"""
    return word_star("00")


@pytest.fixture(scope="session")
def one_zeros():
    """1 0*"""
    return concat(from_word("1"), word_star("0"))


@pytest.fixture(scope="session")
def zeros_or_ones():
    """0* | 1*"""
    return combine(word_star("0"), word_star("1"), "or")


def equal_counts(w: str) -> bool:
    """Membership in {0^n 1^n : n >= 0}."""
    half = len(w) // 2
    return len(w) % 2 == 0 and w == "0" * half + "1" * half


@pytest.fixture(scope="session")
def equal_counts_grammar():
    return Cfg.from_text("S -> 0 S 1 | #eps")


@pytest.fixture(scope="session")
def equal_counts_cnf(equal_counts_grammar):
    return to_cnf(equal_counts_grammar)


def equal_counts_tm() -> TmProgram:
    """Marks a 0 on the left, crosses off the matching 1, repeats."""
    rules = {
        ("q0", "0"): ("X", "R", "q1"),
        ("q0", "Y"): ("Y", "R", "q3"),
        ("q0", "_"): ("_", "S", "acc"),
        ("q1", "0"): ("0", "R", "q1"),
        ("q1", "Y"): ("Y", "R", "q1"),
        ("q1", "1"): ("Y", "L", "q2"),
        ("q2", "0"): ("0", "L", "q2"),
        ("q2", "Y"): ("Y", "L", "q2"),
        ("q2", "X"): ("X", "R", "q0"),
        ("q3", "Y"): ("Y", "R", "q3"),
        ("q3", "_"): ("_", "S", "acc"),
    }
    return TmProgram("q0", "acc", "rej", "_", rules)


@pytest.fixture(scope="session")
def tm_equal_counts():
    return equal_counts_tm()


def growth_corpus():
    """(name, automaton, expected growth kind) spanning all three classes."""
    zo = concat(word_star("0"), word_star("1"))
    return [
        ("empty", empty("01"), "bounded"),
        ("finite", finite_language(["", "0", "11"]), "bounded"),
        ("0*", word_star("0"), "bounded"),
        ("(00)*", word_star("00"), "bounded"),
        ("1 0*", concat(from_word("1"), word_star("0")), "bounded"),
        ("0*|1*", combine(word_star("0"), word_star("1"), "or"), "bounded"),
        ("0*1*", zo, "polynomial"),
        ("0*1*0*", concat(zo, word_star("0")), "polynomial"),
        ("sigma*", universe("01"), "exponential"),
        ("(0|11)*", _zero_or_doubleone_star(), "exponential"),
    ]


def _zero_or_doubleone_star() -> Dfa:
    trans = {
        (0, ("0",)): 0,
        (0, ("1",)): 1,
        (1, ("1",)): 0,
    }
    return Dfa(1, ["01"], 2, 0, [0], trans)


def brute_words(alphabet: str, max_len: int):
    """Every word over the alphabet up to max_len, ll order."""
    from itertools import product

    for n in range(max_len + 1):
        for tup in product(alphabet, repeat=n):
            yield "".join(tup)
