"""Acceptance suite: one test per shipped guarantee, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Every comparison is exact dyadic equality unless the
criterion itself is a boolean property.
"""

import time
from itertools import combinations

from conftest import brute_words, equal_counts, equal_counts_tm, growth_corpus
from langmart.automata import enumerate_ll, slice_count, words_of_length
from langmart.constructions import (
    diagonalize,
    regular_bettor,
    replay_certificate,
    subset_bettor,
    tm_dynamic_bettor,
)
from langmart.dyadic import Dyadic, HALF, ONE, THREE_HALVES, TWO
from langmart.engine import (
    audit_fairness,
    ll_text,
    run,
    sequence_text,
    succeeded,
    weighted_sum,
)
from langmart.grammar import Cfg, cfl_nonrandom_pipeline, cyk_member, to_cnf
from langmart.learning import (
    Hypothesis,
    HypothesisSpace,
    StallWitness,
    adversarial_text,
    anchor_gap_report,
    dovetail_pairs,
    extract_language,
    family_learner,
    finite_set_indexing,
    pclass_bettor,
    prefix_family,
    variant_family_learner,
)
from langmart.regular import combine, concat, from_word, universe, word_star
from langmart.rng import Lcg
from langmart.tworow import decode_tworow, encode_tworow, rel_l, rel_p, rel_z, tworow_add


def report(number: int, title: str, detail: str):
    print(f"ACCEPTANCE {number}: PASS - {title} ({detail})")


def shipped_constructions():
    sigma = universe("01")
    zo = concat(word_star("0"), word_star("1"))
    fam = prefix_family("01")
    hyp = HypothesisSpace((
        Hypothesis("always-0", lambda w: 0, lambda w: len(w) + 1),
        Hypothesis("all-0", lambda w: int(set(w) <= {"0"}), lambda w: len(w) + 1),
    ), cycle=True)
    setup_tm, _ = tm_dynamic_bettor(equal_counts_tm(), sigma)
    return [
        regular_bettor(zo),
        regular_bettor(word_star("1")),
        subset_bettor(concat(from_word("1"), word_star("0")), "inside"),
        subset_bettor(word_star("0"), "outside"),
        family_learner(fam),
        variant_family_learner(fam),
        setup_tm,
        pclass_bettor(hyp, sigma),
    ]


def test_criterion_1_fairness_audits():
    started = time.monotonic()
    probes = enumerate_ll(universe("01"), 24)
    rng = Lcg(99)
    probes += sorted({rng.word("01", 8) for _ in range(16)} - set(probes))
    total = 0
    for setup in shipped_constructions():
        audit = audit_fairness(setup, probes, max_states=128)
        assert audit.ok, f"{setup.name}: {audit.violations[:2]}"
        total += audit.transitions_checked
    elapsed = time.monotonic() - started
    assert total >= 10**4
    assert elapsed < 10
    report(1, "exact fairness and pause preservation on every construction",
           f"{total} transitions audited in {elapsed:.1f}s")


def test_criterion_2_regular_bettor_growth():
    sigma = universe("01")
    zo = concat(word_star("0"), word_star("1"))
    dz = word_star("00")
    cases = [(sigma, zo), (zo, zo), (dz, dz)]
    expected = THREE_HALVES**40
    for domain, language in cases:
        setup = regular_bettor(language)
        trace = run(setup, ll_text(domain), language.accepts, 40)
        assert trace.final == expected
    report(2, "capital is exactly (3/2)^40 after 40 agreed words",
           "domains Sigma*, 0*1*, (00)*")


def test_criterion_3_adversarial_and_extraction():
    sigma = universe("01")
    zo = concat(word_star("0"), word_star("1"))
    bettor = regular_bettor(zo)
    text = adversarial_text(bettor, sigma, equal_counts,
                            horizon=100, search_bound=1000)
    assert not isinstance(text, StallWitness)
    trace = run(bettor, text, equal_counts, 100)
    assert trace.max_capital() <= ONE

    witness = adversarial_text(regular_bettor(zo), sigma, zo.accepts,
                               horizon=100, search_bound=1000)
    assert isinstance(witness, StallWitness)
    predicate = extract_language(regular_bettor(zo), witness.state)
    mismatches = [w for w in brute_words("01", 8)
                  if predicate(w) != zo.accepts(w)]
    assert not mismatches
    report(3, "adversarial text pins capital at 1; stall state decides the language",
           "100 stages flat, 511 words extracted exactly")


def test_criterion_4_cfl_pipeline():
    started = time.monotonic()
    sigma = universe("01")
    grammar = Cfg.from_text("S -> 0 S 1 | #eps")
    cnf = to_cnf(grammar)
    # the closed form agrees with the grammar (cross-checked exhaustively)
    for w in brute_words("01", 8):
        assert cyk_member(cnf, w) == equal_counts(w)
    setup, _, _ = cfl_nonrandom_pipeline(grammar, sigma)
    threshold = Dyadic(2**10)
    trace = run(setup, ll_text(sigma), equal_counts,
                400000, stop_threshold=threshold)
    assert succeeded(trace, threshold)

    from langmart.grammar import infinite_regular_subset

    r, side = infinite_regular_subset(cnf, sigma)
    members = enumerate_ll(r, 100)
    expect = side == "inside"
    assert len(members) == 100
    assert all(cyk_member(cnf, w) == expect for w in members)
    elapsed = time.monotonic() - started
    assert elapsed < 30
    report(4, "context-free target loses to the extracted regular subset",
           f"threshold 2^10 crossed, 100-member {side} sweep clean, {elapsed:.1f}s")


def test_criterion_5_tm_bettor_exact_doubling():
    sigma = universe("01")
    setup, text = tm_dynamic_bettor(equal_counts_tm(), sigma)
    trace = run(setup, text, equal_counts, 300)
    bets = [e for e in trace if e.word is not None]
    assert len(bets) >= 6
    assert bets[5].capital == Dyadic(2**6)
    for k, entry in enumerate(bets[:6], start=1):
        assert entry.capital == Dyadic(2**k)
    report(5, "machine-simulating bettor doubles on each completed bet",
           "capital exactly 2^6 after 6 bets")


def test_criterion_6_setup_algebra_identities():
    sigma = universe("01")
    constructions = shipped_constructions()[:6]
    rng = Lcg(7)
    checked = 0
    for index in range(20):
        d1 = constructions[index % len(constructions)]
        d2 = constructions[(index + 1 + index // 6) % len(constructions)]
        items = []
        while len(items) < 50:
            w = rng.word("01", 6)
            items.append(w)
        oracle = equal_counts if index % 2 else (lambda w: w.startswith("1"))
        text = sequence_text(items)
        t1 = run(d1, text, oracle, 50)
        t2 = run(d2, text, oracle, 50)
        ts = run(weighted_sum([d1, d2], [ONE, ONE]), text, oracle, 50)
        scalar = Dyadic(rng.below(15) + 1, rng.below(4))
        tc = run(weighted_sum([d1], [scalar]), text, oracle, 50)
        for stage in range(51):
            assert ts.capitals()[stage] == t1.capitals()[stage] + t2.capitals()[stage]
            assert tc.capitals()[stage] == scalar * t1.capitals()[stage]
        checked += 1
    assert checked == 20
    report(6, "sum and scale of setups act pointwise on capital traces",
           "20 random length-50 streams, exact at every stage")


def test_criterion_7_diagonalization_certificate():
    sigma = universe("01")
    zo = concat(word_star("0"), word_star("1"))
    enum = [
        regular_bettor(zo),
        regular_bettor(word_star("1")),
        subset_bettor(concat(from_word("1"), word_star("0")), "inside"),
    ]
    cert = diagonalize(enum, sigma, 30)
    assert len(cert.entries) == 30
    assert all(entry.capital <= TWO for entry in cert.entries)
    assert replay_certificate(cert, enum, sigma) == []
    report(7, "diagonal language keeps every weighted capital at or below 2",
           "30 words, certificate replayed bit-exactly")


def test_criterion_8_learners():
    sigma = universe("01")
    fam = prefix_family("01")

    learner = family_learner(fam)
    target = lambda w: w.startswith("1")
    trace = run(learner, ll_text(sigma), target, 60)
    caps = trace.capitals()
    stable_from = next(
        i for i in range(len(caps))
        if all(caps[j + 1] == caps[j] * THREE_HALVES
               for j in range(i, len(caps) - 1)))
    assert stable_from <= 3
    for j in range(stable_from, 60):
        assert caps[j + 1] == caps[j] * THREE_HALVES

    variant = variant_family_learner(fam)
    difference = {"1", "00"}
    target2 = lambda w: w.startswith("1") != (w in difference)
    trace2 = run(variant, ll_text(sigma), target2, 90)
    caps2 = trace2.capitals()
    stable2 = next(
        i for i in range(len(caps2))
        if all(caps2[j + 1] == caps2[j] * THREE_HALVES
               for j in range(i, len(caps2) - 1)))
    assert stable2 < 60
    assert succeeded(trace2, Dyadic(2**5))

    expected_pairs = [
        ("", ""), ("", "0"), ("0", "0"), ("", "1"), ("0", "1"), ("1", "1"),
        ("", "00"), ("0", "00"), ("1", "00"), ("00", "00"),
        ("", "01"), ("0", "01"), ("1", "01"), ("00", "01"), ("01", "01"),
        ("", "10"), ("0", "10"), ("1", "10"), ("00", "10"), ("01", "10"),
    ]
    assert dovetail_pairs(fam, 20) == expected_pairs
    report(8, "learners stabilize and then grow capital by 3/2 per word",
           f"plain at stage {stable_from}, variant at stage {stable2}, "
           "dovetail order verified on 20 pairs")


def test_criterion_9_growth_and_indexing():
    for name, dfa, expected in growth_corpus():
        from langmart.regular import growth_class

        cls = growth_class(dfa)
        assert cls.kind == expected, name
        counts = [len(words_of_length(dfa, n)) for n in range(13)]
        assert counts == [slice_count(dfa, n) for n in range(13)], name
        if cls.kind == "bounded":
            assert max(counts) <= cls.bound, name

    domain = combine(word_star("0"), word_star("1"), "or")
    codec, fam = finite_set_indexing(domain)
    first8 = enumerate_ll(domain, 8)
    roundtrips = 0
    for r in range(9):
        for subset in combinations(first8, r):
            index = codec.encode(subset)
            assert codec.decode(index) == frozenset(subset)
            assert fam.index_language.accepts(index)
            roundtrips += 1
    assert roundtrips == 2**8
    report(9, "growth classes match brute-force slice counts; subsets index",
           "10-domain corpus, 256/256 roundtrips on the two-per-length domain")


def test_criterion_10_anchored_bettor():
    started = time.monotonic()
    sigma = universe("01")
    rows = anchor_gap_report(sigma, 10)
    assert len(rows) == 10 and all(row["ok"] for row in rows)

    hyp = HypothesisSpace((
        Hypothesis("always-0", lambda w: 0, lambda w: len(w) + 1),
        Hypothesis("starts-1", lambda w: int(w.startswith("1")), lambda w: len(w) + 1),
        Hypothesis("all-0", lambda w: int(set(w) <= {"0"}), lambda w: len(w) + 1),
    ), cycle=True)
    setup = pclass_bettor(hyp, sigma)
    target = lambda w: set(w) <= {"0"}
    trace = run(setup, ll_text(sigma), target, 4200)
    caps = trace.capitals()
    moves = [(i, e) for i, e in enumerate(trace) if i and e.capital != caps[i - 1]]
    assert len(moves) >= 8
    assert [m[1].capital for m in moves[:2]] == [HALF, HALF * HALF]
    for k, (i, e) in enumerate(moves[2:], start=1):
        assert e.capital == HALF**2 * THREE_HALVES**k
    elapsed = time.monotonic() - started
    assert elapsed < 60
    report(10, "anchor gaps satisfy the exponential bound; hypothesis settles",
           f"10 anchors checked, {len(moves) - 2} stabilized 3/2-bets, "
           f"{elapsed:.1f}s")


def test_criterion_11_dyadic_presentation():
    rng = Lcg(2718)
    max_carry = 0
    for _ in range(10**4):
        x, y = rng.dyadic(), rng.dyadic()
        cx, cy = encode_tworow(x), encode_tworow(y)
        log = []
        total = tworow_add(cx, cy, log)
        if log:
            max_carry = max(max_carry, max(log))
        assert decode_tworow(total) == x + y
        assert rel_z(cx) == (x.num == 0)
        assert rel_p(cx) == (x.num > 0)
        assert rel_l(cx, cy) == (x < y)
    assert max_carry <= 1
    report(11, "bit-level addition and order agree with exact arithmetic",
           f"10^4 random pairs, carry never above {max_carry} bit")
