"""Run the fixed-automaton bettor on the ordered text and print its trace.

The bettor stakes 3/2 of its capital on the verdict of a 0*1* automaton;
with the target language equal to that automaton every bet is right and
the capital is exactly (3/2)^n after n words.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from langmart.automata import enumerate_ll
from langmart.constructions import regular_bettor
from langmart.engine import audit_fairness, ll_text, run
from langmart.regular import concat, universe, word_star


def main():
    domain = universe("01")
    language = concat(word_star("0"), word_star("1"))
    setup = regular_bettor(language)

    trace = run(setup, ll_text(domain), language.accepts, 40)
    print("stage  word   label  capital")
    for i in [*range(6), *range(-3, 0)]:  # the first six stages and the last three
        entry = trace[i]
        word = entry.word if entry.word is not None else "-"
        label = entry.label if entry.label is not None else "-"
        print(f"{entry.stage:>5}  {word:<6} {label:<5}  {entry.capital}")

    report = audit_fairness(setup, enumerate_ll(domain, 32))
    status = "clean" if report.ok else f"{len(report.violations)} violations"
    print(f"\nfairness audit: {report.transitions_checked} transitions, {status}")


if __name__ == "__main__":
    main()
