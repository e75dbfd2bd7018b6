"""Classify a handful of regular domains by slice growth and cross-check
the structural verdict against brute-force counts."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from langmart.automata import slice_count, words_of_length
from langmart.regular import combine, concat, from_word, growth_class, universe, word_star


def main():
    domains = [
        ("Sigma*", universe("01")),
        ("0*1*", concat(word_star("0"), word_star("1"))),
        ("(00)*", word_star("00")),
        ("0* | 1*", combine(word_star("0"), word_star("1"), "or")),
        ("1 0*", concat(from_word("1"), word_star("0"))),
        ("0*1*0*", concat(concat(word_star("0"), word_star("1")), word_star("0"))),
    ]
    print(f"{'domain':<10} {'class':<12} {'bound':<6} slice counts n=0..8")
    for name, dfa in domains:
        cls = growth_class(dfa)
        counts = [slice_count(dfa, n) for n in range(9)]
        assert counts == [len(words_of_length(dfa, n)) for n in range(9)]
        bound = cls.bound if cls.bound is not None else "-"
        print(f"{name:<10} {cls.kind:<12} {bound:<6} {counts}")


if __name__ == "__main__":
    main()
