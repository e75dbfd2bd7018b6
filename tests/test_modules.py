"""Every public name has one home: the module that defines it.

Code that only rare paths use lives in langmart.regular, langmart.learning
and langmart.tworow, which a run of the common kinds does not load, and
callers import it from there.  No module forwards names it does not
define: there is no PEP 562 module `__getattr__` anywhere in the package.
"""

import importlib
import pkgutil

import pytest

import langmart

# The public names each module defines.
HOMES = {
    "langmart.automata": """
        ArityMismatchError AutomatonError Dfa EmptyLanguageError
        NoSuccessorError PAD admissible_columns count_below_length count_leq_ll
        enumerate_ll iter_ll min_ll min_word_of_length_at_least slice_count succ_ll
        words_of_length""",
    "langmart.constructions": """
        CertEntry ConstructionError DiagonalBoundError DiagonalCertificate TM_STEP_BUDGET
        TmProgram WEIGHT_BASE build_setup dfa_bettor diagonalize enumeration_hash
        regular_bettor replay_certificate subset_bettor tm_dynamic_bettor""",
    "langmart.dyadic": "Dyadic HALF ONE THREE_HALVES TWO ZERO compare",
    "langmart.engine": """
        AuditReport BetFactorError CapitalTrace DEFAULT_STEP_BUDGET DEFAULT_THRESHOLD
        DEFAULT_VALIDITY_BUDGET EngineError FAULT_ERRORS FairnessViolationError
        MEMORY_GROWTH_LIMIT MState MemoryDisciplineError NegativeCapitalError NotNormedError
        PAUSE PausePreservationError Setup TextExhaustedError TraceEntry ValidityBudgetError
        Violation audit_fairness bettor checked_step is_normed ll_text run run_dynamic
        sequence_text step_fault succeeded truncated_sum weighted_sum""",
    "langmart.regular": """
        AlphabetCodec GrowthClass Nfa PumpingError combine complement concat determinize
        embed_alphabet empty explore exponential_growth_witness finite_language from_word
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
HOME = {name: module for module, names in HOMES.items() for name in names.split()}

# The public names of each module: those it defines, and for the package
# the names it exports from their homes.
PUBLIC = {**HOMES, "langmart": """
    CapitalTrace Dfa Dyadic MState PAUSE Setup audit_fairness bettor compare
    count_leq_ll enumerate_ll ll_text min_ll run run_dynamic sequence_text
    succ_ll succeeded truncated_sum weighted_sum"""}

MODULES = ["langmart"] + [f"langmart.{m.name}" for m in pkgutil.iter_modules(langmart.__path__)]


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_resolve_to_their_new_home(module):
    mod = importlib.import_module(module)
    for name in PUBLIC[module].split():
        home = HOME[name]
        obj = getattr(mod, name)
        assert obj is vars(importlib.import_module(home))[name], (module, name)
        if isinstance(obj, type) or callable(obj):
            assert obj.__module__ == home, (module, name)


@pytest.mark.parametrize("module", MODULES)
def test_no_module_forwards_names(module):
    mod = importlib.import_module(module)
    assert "__getattr__" not in vars(mod) and "_MOVED" not in vars(mod)
    assert not hasattr(mod, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {module} import no_such_name", {})


@pytest.mark.parametrize("module, name", [
    ("langmart", "Nfa"), ("langmart.automata", "combine"),
    ("langmart.constructions", "prefix_family"), ("langmart.dyadic", "tworow_add"),
])
def test_names_import_only_from_their_home(module, name):
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})
