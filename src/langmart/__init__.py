"""Workbench for betting-strategy randomness experiments on formal languages."""

from importlib import import_module

from .dyadic import Dyadic, compare
from .automata import (
    ConvolvedWord,
    Dfa,
    convolve,
    count_leq_ll,
    enumerate_ll,
    min_ll,
    succ_ll,
)
from .engine import (
    CapitalTrace,
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

# Names of modules that a run of the common kinds does not load (PEP 562:
# each loads its module on first use).
_MOVED = {
    **dict.fromkeys((
        "GrowthClass", "Nfa", "combine", "complement", "determinize", "embed_alphabet",
        "growth_class", "project", "pump_decompose"), ".regular"),
    **dict.fromkeys(("TwoRowCode", "decode_tworow", "encode_tworow", "tworow_add"),
                    ".tworow"),
}


def __getattr__(name):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_MOVED[name], __package__), name)
