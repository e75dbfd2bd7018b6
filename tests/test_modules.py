"""Every public name has one home: the module that defines it.

Code that only rare paths use lives in langmart.regular, langmart.learning
and langmart.tworow, which a run of the common kinds does not load, and
callers import it from there.  No module forwards names it does not
define: there is no PEP 562 module `__getattr__` anywhere in the package.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

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
    "langmart.tracefiles": "TraceFiles read_trace",
    "langmart.tworow": """
        MalformedCodeError TwoRowCode decode_tworow encode_tworow rel_l rel_p rel_z
        tworow_add""",
}
HOME = {name: module for module, names in HOMES.items() for name in names.split()}

# The public names of each module: those it defines, and for the package
# the names it exports from their homes.
PUBLIC = {**HOMES, "langmart": """
    CapitalTrace Dfa Dyadic MState PAUSE Setup audit_fairness bettor compare
    count_leq_ll enumerate_ll ll_text min_ll run sequence_text
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


# Names that engine.py keeps only because perfbench's tracer wraps them by name.
PINNED = {"run_dynamic", "write_csv", "write_json"}


def test_no_caller_names_the_pinned_shims():
    """The package and the scripts run a setup through `run` and write a
    trace through `CapitalTrace.write`: apart from engine.py's definitions,
    no code names a pinned shim."""
    root = Path(__file__).resolve().parent.parent
    paths = [*(root / "src" / "langmart").glob("*.py"), *(root / "scripts").glob("*.py")]
    assert len(paths) > 10
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            named = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.alias):
                named |= {node.name, node.asname}
            found += [(path.name, node.lineno, name) for name in named & PINNED]
    assert not found


# Calls that write, make, rename or remove a file or directory.
WRITES = {"TraceFiles", "_write_json", "link", "makedirs", "mkdir", "remove", "removedirs",
          "rename", "replace", "rmdir", "rmtree", "symlink_to", "touch", "unlink",
          "write_bytes", "write_text"}


def test_cli_writes_only_through_its_output_stage():
    """cli.py opens a file for writing, makes a directory, or renames or
    removes a path only in its output stage, `_Outputs`, and in
    `_write_json`, which only the stage calls, so every artifact is staged
    and a command that exits 2 leaves --out-dir as it was.  tracefiles.py
    writes to the paths it is given: it does not import os."""
    src = Path(__file__).resolve().parent.parent / "src" / "langmart"
    tree = ast.parse((src / "cli.py").read_text())
    stage = {id(node) for top in tree.body
             if getattr(top, "name", None) in ("_Outputs", "_write_json")
             for node in ast.walk(top)}
    assert len(stage) > 100
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in stage:
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name == "open":
            mode = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
            if mode and not (isinstance(mode[0], ast.Constant) and set(mode[0].value) <= set("rbt")):
                found.append((node.lineno, name))
        elif name in WRITES:
            found.append((node.lineno, name))
    assert not found
    imported = set()
    for node in ast.walk(ast.parse((src / "tracefiles.py").read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").partition(".")[0])
    assert "os" not in imported and "shutil" not in imported
