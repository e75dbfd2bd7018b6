"""Build a language on which a weighted family of bettors never gets rich.

Three normed bettors are mixed with weights 4^-i; each word's membership
is chosen so the mixture's capital cannot rise.  The resulting table plus
the recorded capitals form a certificate that replays bit-exactly.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from langmart.regular import concat, from_word, universe, word_star
from langmart.constructions import (
    diagonalize,
    regular_bettor,
    replay_certificate,
    subset_bettor,
)


def main():
    domain = universe("01")
    enum = [
        regular_bettor(concat(word_star("0"), word_star("1"))),
        regular_bettor(word_star("1")),
        subset_bettor(concat(from_word("1"), word_star("0")), "inside"),
    ]
    cert = diagonalize(enum, domain, 30)

    print("word      bit  mixture capital")
    for entry in cert.entries:
        shown = entry.word if entry.word else "(empty)"
        print(f"{shown:<9} {entry.bit}    {entry.capital}")
    top = max(cert.entries, key=lambda e: e.capital)
    print(f"\nlargest recorded capital: {top.capital} (bound is 2)")

    problems = replay_certificate(cert, enum, domain)
    print("replay:", "bit-exact" if not problems else problems[0])


if __name__ == "__main__":
    main()
