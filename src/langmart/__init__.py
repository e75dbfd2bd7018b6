"""Workbench for betting-strategy randomness experiments on formal languages."""

from .dyadic import Dyadic, compare
from .automata import (
    Dfa,
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
    audit_fairness,
    bettor,
    ll_text,
    run,
    run_dynamic,
    sequence_text,
    succeeded,
    truncated_sum,
    weighted_sum,
)

__version__ = "0.1.0"
