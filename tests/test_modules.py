"""The package's public names stay where callers import them from.

Code that only rare paths use lives in langmart.regular, langmart.learning
and langmart.tworow, which a run of the common kinds does not load.  The
modules it came from still export every name they had, through a PEP 562
module `__getattr__` that loads the new module on first use.
"""

import importlib

import pytest

# Every public name each module held before the move (stdlib helpers such
# as `dataclass` or `gcd` that a module merely imported are left out).
PUBLIC = {
    "langmart": """
        CapitalTrace ConvolvedWord Dfa Dyadic GrowthClass MState Nfa PAUSE Setup
        TwoRowCode add_setups audit_fairness bettor classify_text_prefix combine compare
        complement convolve count_leq_ll decode_tworow determinize embed_alphabet
        encode_tworow enumerate_ll growth_class ll_text min_ll project pump_decompose run
        run_dynamic scale_setup sequence_text succ_ll succeeded truncated_sum tworow_add
        weighted_sum""",
    "langmart.automata": """
        AlphabetCodec ArityMismatchError AutomatonError ConvolvedWord Dfa EmptyLanguageError
        GrowthClass Nfa NoSuccessorError PAD PumpingError admissible_columns combine
        complement concat convolve count_below_length count_leq_ll determinize
        embed_alphabet empty enumerate_ll exponential_growth_witness finite_language
        from_word growth_class iter_ll min_ll min_word_of_length_at_least minimize project
        pump_decompose pumping_constant slice_count succ_ll universe word_star
        words_of_length""",
    "langmart.constructions": """
        AutomaticFamily CertEntry ConstructionError Dfa DiagonalBoundError
        DiagonalCertificate Dyadic HALF Hypothesis HypothesisExhaustedError HypothesisSpace
        LearnerStallError MState NoSuccessorError NotNormedError ONE PAUSE Setup
        SliceCodec StallWitness THREE_HALVES TWO TmProgram WEIGHT_BASE ZERO adversarial_text
        anchor_gap_report anchor_word bettor build_setup checked_step convolve count_leq_ll
        dfa_bettor diagonalize dovetail_pairs enumerate_ll exponential_growth_witness
        extract_language family_learner finite_set_indexing growth_class is_normed min_ll
        min_word_of_length_at_least pclass_bettor prefix_family regular_bettor
        replay_certificate run sequence_text slice_count subset_bettor succ_ll
        tm_dynamic_bettor truncated_sum variant_family_learner words_of_length""",
    "langmart.dyadic": """
        Dyadic HALF MalformedCodeError ONE THREE_HALVES TWO TwoRowCode ZERO compare
        decode_tworow encode_tworow rel_l rel_p rel_z tworow_add""",
}

# Where the moved names are defined now.
MOVED = {
    "langmart.regular": """
        AlphabetCodec GrowthClass Nfa PumpingError combine complement concat determinize
        embed_alphabet empty exponential_growth_witness finite_language from_word
        growth_class minimize project pump_decompose pumping_constant universe word_star""",
    "langmart.learning": """
        AutomaticFamily Hypothesis HypothesisExhaustedError HypothesisSpace
        LearnerStallError SliceCodec StallWitness adversarial_text anchor_gap_report
        anchor_word dovetail_pairs extract_language family_learner finite_set_indexing
        pclass_bettor prefix_family variant_family_learner""",
    "langmart.tworow": """
        MalformedCodeError TwoRowCode decode_tworow encode_tworow rel_l rel_p rel_z
        tworow_add""",
}
HOME = {name: module for module, names in MOVED.items() for name in names.split()}


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_resolve_to_their_new_home(module):
    mod = importlib.import_module(module)
    for name in PUBLIC[module].split():
        obj = getattr(mod, name)
        home = HOME.get(name)
        if home is None:
            continue
        assert obj is getattr(importlib.import_module(home), name), (module, name)
        assert name not in vars(mod), f"{module}.{name} is a copy, not a moved name"
        if isinstance(obj, type) or callable(obj):
            assert obj.__module__ == home, (module, name)
    # other names still fail as attributes do, so `from ... import` says why
    assert not hasattr(mod, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {module} import no_such_name", {})
