"""Workbench for betting-strategy randomness experiments on formal languages."""

from .dyadic import Dyadic, TwoRowCode, compare, decode_tworow, encode_tworow, tworow_add
from .automata import (
    ConvolvedWord,
    Dfa,
    GrowthClass,
    Nfa,
    combine,
    complement,
    convolve,
    count_leq_ll,
    determinize,
    embed_alphabet,
    enumerate_ll,
    growth_class,
    min_ll,
    project,
    pump_decompose,
    succ_ll,
)
from .engine import (
    CapitalTrace,
    Labeled,
    MState,
    PAUSE,
    Setup,
    add_setups,
    audit_fairness,
    bettor,
    classify_text_prefix,
    ll_text,
    run,
    run_dynamic,
    scale_setup,
    sequence_text,
    succeeded,
    truncated_sum,
    weighted_sum,
)

__version__ = "0.1.0"
