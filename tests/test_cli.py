import contextlib
import errno
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import langmart.cli
from conftest import equal_counts, equal_counts_tm
from langmart.automata import Dfa
from langmart.cli import _HANDLERS, main
from langmart.constructions import (
    TmProgram,
    diagonalize,
    regular_bettor,
    subset_bettor,
)
from langmart.dyadic import Dyadic
from langmart.engine import run
from langmart.learning import prefix_family
from langmart.regular import combine, concat, empty, from_word, universe, word_star
from langmart.tracefiles import read_trace


@pytest.fixture()
def workdir(tmp_path, sigma, zeros_then_ones, one_zeros, zeros_or_ones):
    (tmp_path / "sigma.json").write_text(json.dumps(sigma.to_json()))
    (tmp_path / "zo.json").write_text(json.dumps(zeros_then_ones.to_json()))
    (tmp_path / "one_zeros.json").write_text(json.dumps(one_zeros.to_json()))
    (tmp_path / "zoro.json").write_text(json.dumps(zeros_or_ones.to_json()))
    (tmp_path / "zero_star.json").write_text(
        json.dumps(word_star("0").to_json()))
    (tmp_path / "ones.json").write_text(json.dumps(word_star("1").to_json()))
    fam = prefix_family("01")
    (tmp_path / "prefix_index.json").write_text(
        json.dumps(fam.index_language.to_json()))
    (tmp_path / "prefix_member.json").write_text(
        json.dumps(fam.membership.to_json()))
    (tmp_path / "tm.json").write_text(json.dumps(equal_counts_tm().to_json()))
    (tmp_path / "eq.grammar").write_text("S -> 0 S 1 | #eps\n")
    (tmp_path / "ab.grammar").write_text("S -> a S b | #eps\n")  # no letter of sigma
    (tmp_path / "no_letters.json").write_text(json.dumps(NO_LETTERS))
    (tmp_path / "bar.json").write_text(json.dumps(universe("01|").to_json()))  # a '|' letter
    (tmp_path / "empty.json").write_text(json.dumps(empty("01").to_json()))
    (tmp_path / "three.json").write_text(json.dumps({
        "arity": 1, "alphabet": "01", "states": [0, 1, 2], "start": 0,
        "accepting": [0, 1, 2],
        "transitions": [[0, "0", 1], [0, "1", 1], [1, "0", 2]],
    }))  # {"", "0", "1", "00", "10"}
    return tmp_path


def write_config(workdir, name, body):
    path = workdir / name
    path.write_text(body)
    return str(path)


def test_regular_bettor_run(workdir):
    cfg = write_config(workdir, "cfg.ini", """\
[experiment]
kind = regular-bettor
steps = 40
seed = 3
[inputs]
domain = sigma.json
language = zo.json
""")
    out = workdir / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    rows = (out / "trace.csv").read_text().splitlines()
    assert rows[-1].startswith("40,")
    num, exp = rows[-1].split(",")[3:]
    assert Dyadic(int(num), int(exp)) == Dyadic(3, 1) ** 40
    assert json.loads((out / "audit.json").read_text()) == []
    assert json.loads((out / "trace.json").read_text())[0]["stage"] == 0


# Run in a fresh interpreter: prints which of the lazily imported modules
# `import langmart.cli` loaded, then the exit code of the command line in
# argv[1:] and which of them were loaded by then, then which of the
# langmart ones do not exist.  The command's own output goes to stderr.
LAZY_MODULES_SCRIPT = """
import contextlib, importlib.util, sys
lazy = {"langmart.regular", "langmart.learning", "langmart.tworow", "langmart.grammar",
        "langmart.tracefiles", "hashlib", "_hashlib", "decimal"}
before = set(sys.modules)
import langmart.cli
print(sorted(lazy & (set(sys.modules) - before)))
with contextlib.redirect_stdout(sys.stderr):
    code = langmart.cli.main(sys.argv[1:])
print(code, sorted(lazy & (set(sys.modules) - before)))
print(sorted(m for m in lazy if m.startswith("langmart") and not importlib.util.find_spec(m)))
"""


def test_regular_run_loads_no_grammar_or_hashlib(workdir):
    """A regular-bettor run, a diagonalize --replay run and a verify load
    none of the modules that only rare paths use (langmart.regular,
    langmart.learning, langmart.tworow, langmart.grammar); the
    cfl-pipeline, oracle_grammar, learner, pclass, growth and dyadic-audit
    tests show that their paths still load them.  No path loads hashlib or
    _hashlib (which maps OpenSSL): certificates hash with CPython's builtin
    sha256.  import langmart.cli loads neither decimal nor
    langmart.tracefiles; only the run, which writes a trace, loads them."""
    regular = write_config(workdir, "cfg.ini", """\
[experiment]
kind = regular-bettor
steps = 40
[inputs]
domain = sigma.json
language = zo.json
""")
    diag = write_config(workdir, "diag.ini", """\
[experiment]
kind = diagonalize
words = 14
[inputs]
domain = sigma.json
setup1 = regular_bettor:zo.json
setup2 = subset_bettor:inside:one_zeros.json
""")
    src = Path(__file__).resolve().parent.parent / "src"
    cert = workdir / "diag" / "certificate.json"
    for argv, loaded in [
        (["run", regular, "--out-dir", str(workdir / "out")],
         ["decimal", "langmart.tracefiles"]),
        (["run", diag, "--replay", "--out-dir", str(cert.parent)], []),
        (["verify", str(cert)], []),
    ]:
        done = subprocess.run([sys.executable, "-c", LAZY_MODULES_SCRIPT, *argv],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[]", f"0 {loaded}", "[]"], argv
    assert json.loads((workdir / "out" / "audit.json").read_text()) == []


def test_automata_loads_no_dataclasses():
    """langmart.automata, which every run compiles, loads no dataclasses.
    The child stands a bare package in for langmart, because the package's
    __init__ imports langmart.engine, whose records are still dataclasses;
    a sibling module that automata imports would still be loaded."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = ("import sys, types\n"
              "package = types.ModuleType('langmart')\n"
              "package.__path__ = [sys.argv[1]]\n"
              "sys.modules['langmart'] = package\n"
              "import langmart.automata\n"
              "print(sorted(m for m in sys.modules if m.startswith(('langmart', 'dataclasses'))))")
    done = subprocess.run([sys.executable, "-c", script, str(src / "langmart")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["['langmart', 'langmart.automata']"]


def test_determinism(workdir):
    cfg = write_config(workdir, "cfg.ini", """\
[experiment]
kind = regular-bettor
steps = 25
seed = 11
[inputs]
domain = sigma.json
language = zo.json
""")
    out1, out2 = workdir / "o1", workdir / "o2"
    assert main(["run", cfg, "--out-dir", str(out1)]) == 0
    assert main(["run", cfg, "--out-dir", str(out2)]) == 0
    for name in ("trace.csv", "trace.json", "audit.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_missing_input_is_status_2(workdir, capsys):
    cfg = write_config(workdir, "cfg.ini", """\
[experiment]
kind = regular-bettor
[inputs]
domain = nowhere.json
language = zo.json
""")
    assert main(["run", cfg, "--out-dir", str(workdir / "out")]) == 2
    assert "nowhere.json" in capsys.readouterr().err


def test_unknown_kind_is_status_2(workdir):
    cfg = write_config(workdir, "cfg.ini", "[experiment]\nkind = mystery\n")
    assert main(["run", cfg]) == 2


def test_adversarial_stall_artifacts(workdir):
    cfg = write_config(workdir, "cfg.ini", """\
[experiment]
kind = adversarial
horizon = 40
search_bound = 200
[inputs]
domain = sigma.json
language = zo.json
oracle_dfa = zo.json
""")
    out = workdir / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    stall = json.loads((out / "stall.json").read_text())
    assert stall["stage"] == 0
    assert stall["extracted_sample"]["01"] is True
    assert stall["extracted_sample"]["10"] is False


def test_adversarial_text_stays_flat(workdir):
    cfg = write_config(workdir, "cfg.ini", """\
[experiment]
kind = adversarial
horizon = 50
[inputs]
domain = sigma.json
language = zo.json
oracle_grammar = eq.grammar
""")
    out = workdir / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    for row in rows:
        num, exp = row.split(",")[3:]
        assert Dyadic(int(num), int(exp)) <= Dyadic(1)


def test_subset_bettor_run(workdir):
    cfg = write_config(workdir, "cfg.ini", """\
[experiment]
kind = subset-bettor
steps = 60
side = outside
[inputs]
domain = sigma.json
subset = zero_star.json
oracle_grammar = eq.grammar
""")
    assert main(["run", cfg, "--out-dir", str(workdir / "out")]) == 0


def test_family_learner_run(workdir):
    cfg = write_config(workdir, "cfg.ini", """\
[experiment]
kind = family-learner
steps = 30
target_index = 1
[inputs]
domain = sigma.json
index_language = prefix_index.json
membership = prefix_member.json
""")
    out = workdir / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    rows = (out / "trace.csv").read_text().splitlines()
    num, exp = rows[-1].split(",")[3:]
    assert Dyadic(int(num), int(exp)) == Dyadic(1, 2) * Dyadic(3, 1) ** 28


def test_variant_learner_run(workdir):
    cfg = write_config(workdir, "cfg.ini", """\
[experiment]
kind = variant-learner
steps = 60
target_index = 1
difference = 1,00
[inputs]
domain = sigma.json
index_language = prefix_index.json
membership = prefix_member.json
""")
    assert main(["run", cfg, "--out-dir", str(workdir / "out")]) == 0


def test_tm_dynamic_run(workdir):
    cfg = write_config(workdir, "cfg.ini", """\
[experiment]
kind = tm-dynamic
steps = 260
[inputs]
domain = sigma.json
tm = tm.json
""")
    out = workdir / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    labeled = [row for row in (out / "trace.csv").read_text().splitlines()[1:]
               if row.split(",")[1] not in ("", "#")]
    assert len(labeled) >= 6


def test_diagonalize_and_verify(workdir, capsys):
    cfg = write_config(workdir, "diag.ini", """\
[experiment]
kind = diagonalize
words = 14
[inputs]
domain = sigma.json
setup1 = regular_bettor:zo.json
setup2 = regular_bettor:ones.json
setup3 = subset_bettor:inside:one_zeros.json
""")
    out = workdir / "out"
    assert main(["run", cfg, "--out-dir", str(out), "--replay"]) == 0
    cert_path = out / "certificate.json"
    assert main(["verify", str(cert_path)]) == 0

    # flip one bit: the replay must name the word
    cert = json.loads(cert_path.read_text())
    cert["words"][4]["bit"] = 1 - cert["words"][4]["bit"]
    bad = out / "tampered.json"
    bad.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 1
    assert cert["words"][4]["w"] in capsys.readouterr().err

    # push one capital over the bound
    cert = json.loads(cert_path.read_text())
    cert["words"][2]["capital"] = "5/2^0"
    worse = out / "overbound.json"
    worse.write_text(json.dumps(cert))
    assert main(["verify", str(worse)]) == 1


def test_verify_checks_the_enum_hash(workdir, capsys):
    """A certificate whose enum_hash is not the hash of its setups, domain
    and weight base fails verification, naming both hashes."""
    good, bad = workdir / "good.json", workdir / "bad.json"
    good.write_text(json.dumps(SEED_OBJECTS[1]))
    bad.write_text(json.dumps({**SEED_OBJECTS[1], "enum_hash": "00"}))
    assert main(["verify", str(good)]) == 0
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "'00'" in err and repr(SEED_OBJECTS[1]["enum_hash"]) in err


def test_verify_huge_capital_is_a_divergence(workdir, capsys):
    """A first capital of 1/2^99999999999 is compared without aligning it
    bit by bit: verify exits 1 naming the divergence, in one line."""
    words = SEED_OBJECTS[1]["words"]
    huge = workdir / "huge-capital.json"
    huge.write_text(json.dumps({**SEED_OBJECTS[1], "words": [
        {**words[0], "capital": "1/2^99999999999"}, *words[1:]]}))
    assert main(["verify", str(huge)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"first divergence at {words[0]['w']!r}: replayed ")
    assert err.endswith("recorded 1/2^99999999999\n") and len(err.splitlines()) == 1


def test_verify_malformed_is_status_2(workdir):
    bad = workdir / "garbage.json"
    bad.write_text("{}")
    assert main(["verify", str(bad)]) == 2


def test_pclass_run(workdir):
    cfg = write_config(workdir, "cfg.ini", """\
[experiment]
kind = pclass
steps = 1100
hypotheses = const0, dfa:ones.json, dfa:zero_star.json
anchors = 10
[inputs]
domain = sigma.json
oracle_dfa = zero_star.json
""")
    out = workdir / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    anchors = json.loads((out / "anchors.json").read_text())
    assert len(anchors) == 10 and all(row["ok"] for row in anchors)


def test_cfl_pipeline_run(workdir):
    cfg = write_config(workdir, "cfg.ini", """\
[experiment]
kind = cfl-pipeline
steps = 300000
threshold = 64/2^0
[inputs]
domain = sigma.json
grammar = eq.grammar
""")
    out = workdir / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    extracted = json.loads((out / "extracted.json").read_text())
    assert extracted["side"] == "outside"
    assert extracted["first_members"][0] == "0"


# A config of each kind that writes a trace.
STREAMED_CONFIGS = {
    "regular-bettor": "steps = 40\n[inputs]\ndomain = sigma.json\nlanguage = zo.json",
    "subset-bettor": "steps = 60\nside = outside\n[inputs]\ndomain = sigma.json\n"
                     "subset = zero_star.json\noracle_grammar = eq.grammar",
    "adversarial": "horizon = 50\n[inputs]\ndomain = sigma.json\nlanguage = zo.json\n"
                   "oracle_grammar = eq.grammar",
    "family-learner": "steps = 30\ntarget_index = 1\n[inputs]\ndomain = sigma.json\n"
                      "index_language = prefix_index.json\nmembership = prefix_member.json",
    "variant-learner": "steps = 60\ntarget_index = 1\ndifference = 1,00\n[inputs]\n"
                       "domain = sigma.json\nindex_language = prefix_index.json\n"
                       "membership = prefix_member.json",
    "tm-dynamic": "steps = 260\n[inputs]\ndomain = sigma.json\ntm = tm.json",
    "pclass": "steps = 300\nhypotheses = const0, dfa:ones.json, dfa:zero_star.json\n"
              "anchors = 4\n[inputs]\ndomain = sigma.json\noracle_dfa = zero_star.json",
    "cfl-pipeline": "steps = 3000\nthreshold = 8/2^0\n[inputs]\ndomain = sigma.json\n"
                    "grammar = eq.grammar",
}


@pytest.mark.parametrize("kind", sorted(STREAMED_CONFIGS))
def test_streamed_trace_is_the_list_sink_run(workdir, monkeypatch, kind):
    """Each kind that writes a trace streams it into --out-dir as the run
    goes.  Read back, trace.csv holds the cells of a list-sink run of the
    same setup, text and oracle, cell for cell, and trace.json the bytes
    that run's write makes; no partial file is left."""
    listed = []

    def both(*args, trace, **kwargs):
        listed.append(run(*args, **kwargs))
        return run(*args, trace=trace, **kwargs)

    monkeypatch.setattr(langmart.cli, "run", both)
    cfg = write_config(workdir, "cfg.ini", f"[experiment]\nkind = {kind}\n"
                                           f"{STREAMED_CONFIGS[kind]}\n")
    out = workdir / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    (trace,) = listed
    assert len(trace) > 10
    assert read_trace(out / "trace.csv").cells == trace.cells
    trace.write(json_path=workdir / "listed.json")
    assert (out / "trace.json").read_bytes() == (workdir / "listed.json").read_bytes()
    assert not [p for p in out.iterdir() if p.suffix == ".partial"]


# Runs that fail after stage 1, with the stderr each prints.
FAILING_RUNS = {
    "finite-domain": ("kind = regular-bettor\nsteps = 8\n[inputs]\ndomain = three.json\n"
                      "language = zo.json", "text error: domain exhausted by the ordered "
                                            "text at stage 6"),
    "tm-undecided": ("kind = tm-dynamic\nsteps = 10000\n[inputs]\ndomain = sigma.json\n"
                     "tm = loop.tm.json", "text error: 10000 consecutive pauses"),
    "learner-finite-index": ("kind = family-learner\nsteps = 50\ntarget_index = 10\n[inputs]\n"
                             "domain = sigma.json\nindex_language = three.json\n"
                             "membership = prefix_member.json",
                             "config error: index_language is finite"),
}


@pytest.mark.parametrize("existed", [False, True], ids=["new-dir", "old-dir"])
@pytest.mark.parametrize("name", sorted(FAILING_RUNS))
def test_failed_run_takes_its_trace_back(workdir, monkeypatch, capsys, name, existed):
    """A run that fails after stage 1 exits 2 and removes what it streamed:
    an --out-dir that did not exist is gone again, with the parent made for
    it, and one that existed keeps exactly its entries and their bytes, an
    older trace.csv included."""
    (workdir / "loop.tm.json").write_text(json.dumps(LOOPING_TM))
    body, message = FAILING_RUNS[name]
    cfg = write_config(workdir, "cfg.ini", f"[experiment]\n{body}\n")
    sinks = []

    def kept(*args, trace, **kwargs):
        sinks.append(trace)
        return run(*args, trace=trace, **kwargs)

    monkeypatch.setattr(langmart.cli, "run", kept)
    if existed:
        out = workdir / "old"
        out.mkdir()
        (out / "trace.csv").write_text("an older trace\n")
        (out / "notes.txt").write_text("kept\n")
    else:
        out = workdir / "new" / "deeper"
    before = {p.name: p.read_bytes() for p in out.iterdir()} if existed else None
    assert main(["run", cfg, "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert sinks and len(sinks[0]) > 1
    if existed:
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    else:
        assert not (workdir / "new").exists()


def test_run_stages_its_files_until_it_ends(workdir, monkeypatch):
    """While a run goes, --out-dir holds its trace files only under
    '.partial' names, next to an older trace.csv that keeps its bytes; when
    the command ends, they and audit.json take their names."""
    out = workdir / "old"
    out.mkdir()
    (out / "trace.csv").write_text("an older trace\n")
    seen = []

    def watched(setup, text, oracle, *args, **kwargs):
        def looking(w):
            seen.append((sorted(p.name for p in out.iterdir()), (out / "trace.csv").read_text()))
            return oracle(w)

        return run(setup, text, looking, *args, **kwargs)

    monkeypatch.setattr(langmart.cli, "run", watched)
    cfg = write_config(workdir, "cfg.ini", "[experiment]\nkind = regular-bettor\n"
                                           f"{STREAMED_CONFIGS['regular-bettor']}\n")
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    assert seen == [(["trace.csv", "trace.csv.partial", "trace.json.partial"],
                     "an older trace\n")] * 40
    assert sorted(p.name for p in out.iterdir()) == ["audit.json", "trace.csv", "trace.json"]
    assert (out / "trace.csv").read_text().startswith("stage,word,label")


def test_interrupted_run_takes_its_files_back(workdir, monkeypatch):
    """A KeyboardInterrupt in a run goes on up, and the files staged for
    it are removed with the new --out-dir and the parent made for it."""
    def interrupted(*args, trace, **kwargs):
        trace.append(None, None, Dyadic(1))
        raise KeyboardInterrupt

    monkeypatch.setattr(langmart.cli, "run", interrupted)
    cfg = write_config(workdir, "cfg.ini", "[experiment]\nkind = regular-bettor\n"
                                           f"{STREAMED_CONFIGS['regular-bettor']}\n")
    with pytest.raises(KeyboardInterrupt):
        main(["run", cfg, "--out-dir", str(workdir / "new" / "deeper")])
    assert not (workdir / "new").exists()


# Each command that writes artifacts: its command line, its config and the
# last artifact it writes.
ARTIFACT_COMMANDS = {
    "regular-bettor": (["run", "cfg.ini"], "kind = regular-bettor\n"
                       + STREAMED_CONFIGS["regular-bettor"], "audit.json"),
    "diagonalize-replay": (["run", "cfg.ini", "--replay"],
                           "kind = diagonalize\nwords = 6\n[inputs]\ndomain = sigma.json\n"
                           "setup1 = regular_bettor:zo.json\n"
                           "setup2 = subset_bettor:inside:one_zeros.json", "audit.json"),
    "pclass": (["run", "cfg.ini"], "kind = pclass\n" + STREAMED_CONFIGS["pclass"],
               "anchors.json"),
    "cfl-pipeline": (["run", "cfg.ini"], "kind = cfl-pipeline\n"
                     + STREAMED_CONFIGS["cfl-pipeline"], "extracted.json"),
    "adversarial-stall": (["run", "cfg.ini"],
                          "kind = adversarial\nhorizon = 40\nsearch_bound = 200\n[inputs]\n"
                          "domain = sigma.json\nlanguage = zo.json\noracle_dfa = zo.json",
                          "stall.json"),
    "growth-report": (["run", "cfg.ini"], "kind = growth-report\n[inputs]\ndomain = zoro.json",
                      "growth.json"),
    "dyadic-audit": (["run", "cfg.ini"], "kind = dyadic-audit\ncount = 200", "audit.json"),
    "audit": (["audit", "regular-bettor", "--dfa", "zo.json"], None, "audit.json"),
}


@pytest.mark.parametrize("existed", [True, False], ids=["old-dir-name-taken", "new-dir-full"])
@pytest.mark.parametrize("command", sorted(ARTIFACT_COMMANDS))
def test_exit_2_leaves_the_out_dir_as_it_was(workdir, monkeypatch, capsys, command, existed):
    """A command whose last artifact cannot take its name, because a
    directory in an existing --out-dir takes it, exits 2 with one stderr
    line naming that artifact, and the directory keeps exactly its older
    entries and bytes: no artifact of the command is left.  A command whose
    last write fails in a new nested --out-dir (the disk is full) exits 2
    and leaves no directory."""
    argv, body, last = ARTIFACT_COMMANDS[command]
    if body is not None:
        write_config(workdir, "cfg.ini", f"[experiment]\n{body}\n")
    monkeypatch.chdir(workdir)
    if existed:
        out = Path("old")
        (out / last).mkdir(parents=True)
        (out / "trace.csv").write_text("an older trace\n")
        (out / "notes.txt").write_text("kept\n")
    else:
        out = Path("new") / "deeper"
        write_json = langmart.cli._write_json

        def full(path, obj):
            write_json(path, obj)
            if path.name.startswith(last):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(langmart.cli, "_write_json", full)

    def entries():
        return {p.name: p.read_bytes() if p.is_file() else sorted(os.listdir(p))
                for p in out.iterdir()}

    before = entries() if existed else None
    assert main([*argv, "--out-dir", str(out)]) == 2
    prefix = "audit output error:" if argv[0] == "audit" else "config error:"
    err = capsys.readouterr().err.splitlines()
    if existed:
        assert err == [f"{prefix} cannot write {out / last}: Is a directory"]
        assert entries() == before
    else:
        assert len(err) == 1 and err[0].startswith(f"{prefix} cannot write {out / last}")
        assert "No space left on device" in err[0]
        assert not Path("new").exists()


def test_growth_report_kind(workdir):
    cfg = write_config(workdir, "cfg.ini", """\
[experiment]
kind = growth-report
[inputs]
domain = zoro.json
""")
    out = workdir / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    report = json.loads((out / "growth.json").read_text())
    assert report["class"] == "bounded" and report["bound"] == 2


def test_growth_subcommand(workdir, capsys):
    assert main(["growth", str(workdir / "sigma.json")]) == 0
    assert '"exponential"' in capsys.readouterr().out
    assert main(["growth", str(workdir / "missing.json")]) == 2

    # 3 letters, an even number of 2s: from length 9 on both the slice and
    # the complement's slice pass the listing limit, so only their sum
    # (3**n) is checked there; below it the complement's, the smaller, is listed
    even_twos = Dfa(1, ["012"], 2, 0, [0], {(q, (ch,)): q ^ (ch == "2")
                                               for q in (0, 1) for ch in "012"})
    (workdir / "even_twos.json").write_text(json.dumps(even_twos.to_json()))
    assert main(["growth", str(workdir / "even_twos.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["slice_counts"] == [(3**n + 1) // 2 for n in range(13)]
    assert report["listed"] == {"members": [], "complement": list(range(9))}
    assert report["consistent"]


def test_dyadic_audit_kind(workdir):
    cfg = write_config(workdir, "cfg.ini", """\
[experiment]
kind = dyadic-audit
count = 2000
seed = 5
""")
    out = workdir / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    assert json.loads((out / "audit.json").read_text()) == []


def test_audit_subcommand(workdir, capsys):
    out = workdir / "out"
    assert main(["audit", "regular-bettor", "--dfa", str(workdir / "zo.json"),
                 "--out-dir", str(out)]) == 0
    assert json.loads((out / "audit.json").read_text()) == []
    assert main(["audit", "nonsense"]) == 2


@pytest.mark.parametrize("kind,flag,value", [
    ("regular-bettor", "--steps", "-3"),
    ("regular-bettor", "--seed", "0"),
    ("adversarial", "--horizon", "0"),
    ("adversarial", "--search-bound", "-1"),
])
def test_nonpositive_override_is_status_2(workdir, capsys, kind, flag, value):
    cfg = write_config(workdir, "cfg.ini", f"""\
[experiment]
kind = {kind}
steps = 40
horizon = 40
search_bound = 200
[inputs]
domain = sigma.json
language = zo.json
oracle_dfa = zo.json
""")
    out = workdir / "out"
    assert main(["run", cfg, "--out-dir", str(out), flag, value]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_exhausted_finite_domain_is_status_2(workdir, capsys):
    (workdir / "three.json").write_text(json.dumps({
        "arity": 1, "alphabet": "01", "states": [0, 1, 2], "start": 0,
        "accepting": [0, 1, 2],
        "transitions": [[0, "0", 1], [0, "1", 1], [1, "0", 2]],
    }))  # {"", "0", "1", "00", "10"}
    cfg = write_config(workdir, "cfg.ini", """\
[experiment]
kind = regular-bettor
steps = 8
[inputs]
domain = three.json
language = zo.json
""")
    assert main(["run", cfg, "--out-dir", str(workdir / "out")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "stage 6" in err


def test_column_outside_alphabet_is_status_2(workdir, capsys):
    (workdir / "bad.json").write_text(json.dumps({
        "arity": 1, "alphabet": "01", "states": [0], "start": 0,
        "accepting": [0], "transitions": [[0, "0", 0], [0, "2", 0]],
    }))
    cfg = write_config(workdir, "cfg.ini", """\
[experiment]
kind = regular-bettor
steps = 8
[inputs]
domain = sigma.json
language = bad.json
""")
    assert main(["run", cfg, "--out-dir", str(workdir / "out")]) == 2
    assert "bad.json" in capsys.readouterr().err


@pytest.mark.parametrize("kind,inputs,flags", [
    ("tm-dynamic", "tm = norules.json", []),
    ("cfl-pipeline", "grammar = bad.grammar", []),
    ("regular-bettor", "language = zo.json", []),
    ("cfl-pipeline", "grammar = eq.grammar", ["--threshold", "xyz"]),
], ids=["tm-without-rules", "bad-grammar-line", "non-integer-steps",
        "bad-threshold"])
def test_malformed_input_is_config_error(workdir, capsys, kind, inputs, flags):
    (workdir / "norules.json").write_text(json.dumps(
        {"start": "q0", "accept": "acc", "reject": "rej", "blank": "_"}))
    (workdir / "bad.grammar").write_text("S -> -> 0\n")
    steps = "abc" if kind == "regular-bettor" else "40"
    cfg = write_config(workdir, "cfg.ini", f"""\
[experiment]
kind = {kind}
steps = {steps}
[inputs]
domain = sigma.json
{inputs}
""")
    out = workdir / "out"
    assert main(["run", cfg, "--out-dir", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int<->str digit limit")
def test_capitals_past_the_digit_limit(workdir):
    cfg = write_config(workdir, "cfg.ini", """\
[experiment]
kind = regular-bettor
steps = 1500
[inputs]
domain = sigma.json
language = zo.json
""")
    out = workdir / "out"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # 3**1500 has 716 digits
    try:
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
    finally:
        sys.set_int_max_str_digits(limit)
    num, exp = (out / "trace.csv").read_text().splitlines()[-1].split(",")[3:]
    assert Dyadic(int(num), int(exp)) == Dyadic(3, 1) ** 1500
    assert json.loads((out / "trace.json").read_text())[-1]["capital_num"] == 3**1500


@pytest.mark.parametrize("kind,lines", [
    ("subset-bettor", "side = sideways\n[inputs]\nsubset = zero_star.json\n"
                      "oracle_grammar = eq.grammar"),
    ("adversarial", "mode = weird\n[inputs]\nlanguage = zo.json\noracle_dfa = zo.json"),
    ("pclass", "cycle = maybe\nhypotheses = const0\n[inputs]\noracle_dfa = zero_star.json"),
    ("diagonalize", "[inputs]\nsetup1 = subset_bettor:sideways:zero_star.json"),
    ("audit", None),
], ids=["side", "mode", "cycle", "setup-side", "audit-side"])
def test_bad_choice_is_status_2(workdir, capsys, kind, lines):
    out = workdir / "out"
    if lines is None:
        argv = ["audit", "subset-bettor", "--dfa", str(workdir / "zo.json"),
                "--side", "sideways", "--out-dir", str(out)]
        prefix = "audit setup error:"
    else:
        cfg = write_config(workdir, "cfg.ini",
                           f"[experiment]\nkind = {kind}\n{lines}\ndomain = sigma.json\n")
        argv = ["run", cfg, "--out-dir", str(out)]
        prefix = "config error:"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and len(err.splitlines()) == 1
    assert "sideways" in err or "weird" in err or "maybe" in err
    assert not out.exists()


def test_cfl_pipeline_says_why_it_failed(workdir, capsys):
    (workdir / "01.grammar").write_text("S -> 0 1\n")
    cfg = write_config(workdir, "cfg.ini", """\
[experiment]
kind = cfl-pipeline
steps = 50
[inputs]
domain = sigma.json
grammar = 01.grammar
""")
    assert main(["run", cfg, "--out-dir", str(workdir / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("threshold 1048576/2^0 not reached in 50 stages")


@pytest.mark.parametrize("grammar,argv,code", [
    ("S -> a S b | #eps", [], 1),  # only the empty word is a domain word
    ("S -> 0 S 1 | 0 2 1", ["--threshold", "8"], 0),  # no domain word at all
], ids=["a-and-b", "letter-2"])
def test_cfl_pipeline_skips_letters_the_domain_does_not_read(workdir, capsys, grammar,
                                                             argv, code):
    """A terminal rule on a letter the domain does not read derives no
    common word, so the grammar's other rules decide."""
    (workdir / "foreign.grammar").write_text(grammar + "\n")
    cfg = write_config(workdir, "cfg.ini", "[experiment]\nkind = cfl-pipeline\n[inputs]\n"
                                           "domain = sigma.json\ngrammar = foreign.grammar\n")
    assert main(["run", cfg, "--out-dir", str(workdir / "out"), *argv]) == code
    err = capsys.readouterr().err
    if code:
        assert len(err.splitlines()) == 1
        assert err.startswith("threshold 1048576/2^0 not reached in 1000 stages")
    else:
        assert err == ""
    extracted = json.loads((workdir / "out" / "extracted.json").read_text())
    assert extracted["side"] == "outside"


def test_domain_without_letters(workdir, capsys):
    """Over no letters the empty word is the only probe word."""
    cfg = write_config(workdir, "cfg.ini", "[experiment]\nkind = regular-bettor\nsteps = 1\n"
                                           "[inputs]\ndomain = no_letters.json\n"
                                           "language = no_letters.json\n")
    out = workdir / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    assert json.loads((out / "audit.json").read_text()) == []
    assert main(["audit", "regular-bettor", "--dfa", str(workdir / "no_letters.json"),
                 "--out-dir", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == "checked 3 transitions, 0 violations, 1 states visited, closed\n"


def test_oracle_tm_labels_words_with_a_bar(workdir):
    """A machine reads '|' as a letter with no rule, so it rejects there."""
    cfg = write_config(workdir, "cfg.ini", "[experiment]\nkind = regular-bettor\nsteps = 60\n"
                                           "[inputs]\ndomain = bar.json\nlanguage = bar.json\n"
                                           "oracle_tm = tm.json\n")
    out = workdir / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    rows = (out / "trace.csv").read_text().splitlines()[2:]
    assert len(rows) == 60 and any("|" in row.split(",")[1] for row in rows)
    assert all(row.split(",")[2] == str(int(equal_counts(row.split(",")[1]))) for row in rows)


def test_tm_dynamic_steps_configurations_only_in_the_bettor(workdir, monkeypatch):
    """The oracle decides on its own tape: every configuration step of a
    tm-dynamic run is the bettor's, in the run at most one per pause, and
    the rest in its audit."""
    callers = []
    step_config = TmProgram.step_config

    def counted(prog, config):
        callers.append((sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name))
        return step_config(prog, config)

    monkeypatch.setattr(TmProgram, "step_config", counted)
    cfg = write_config(workdir, "cfg.ini", "[experiment]\nkind = tm-dynamic\nsteps = 400\n"
                                           "[inputs]\ndomain = sigma.json\ntm = tm.json\n")
    out = workdir / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    pauses = sum(row.split(",")[1] == "#"
                 for row in (out / "trace.csv").read_text().splitlines())
    in_run = callers.count(("bet", "checked_step"))
    assert set(callers) == {("bet", "checked_step"), ("bet", "audit_fairness")}
    assert 0 < in_run <= pauses


def long_start_tm(length: int) -> dict:
    """The equal-counts machine with its start state named by length letters."""
    tm = equal_counts_tm()
    name = "q" * length
    rename = {tm.start: name}
    rules = {(rename.get(state, state), sym): (write, move, rename.get(nxt, nxt))
             for (state, sym), (write, move, nxt) in tm.rules.items()}
    return TmProgram(name, tm.accept, tm.reject, tm.blank, rules).to_json()


def long_accept_tm(length: int) -> dict:
    """Accepts the empty word by a left move off the empty tape into an
    accepting state named by length letters: that step grows the work word
    by length + 1 letters.  Rejects every other word."""
    accept = "a" * length
    return TmProgram("s", accept, "r", "_", {("s", "_"): ("1", "L", accept)}).to_json()


@pytest.mark.parametrize("machine", [long_start_tm(61), long_accept_tm(63)],
                         ids=["start-61", "step-63"])
def test_tm_dynamic_runs_at_the_longest_state_names(workdir, machine):
    """One pause may grow the work word by MEMORY_GROWTH_LIMIT = 64 letters:
    '|', a 61-letter start state, '|' and one loaded letter, or a step
    from 's' to a 63-letter state that writes 2 tape letters, grow it by 64.
    One letter more is refused (test_bad_input_is_status_2)."""
    (workdir / "long.tm.json").write_text(json.dumps(machine))
    cfg = write_config(workdir, "cfg.ini", "[experiment]\nkind = tm-dynamic\nsteps = 200\n"
                                           "[inputs]\ndomain = sigma.json\ntm = long.tm.json\n")
    out = workdir / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    assert json.loads((out / "audit.json").read_text()) == []


def test_threshold_not_above_start_is_status_2(workdir, capsys):
    cfg = write_config(workdir, "cfg.ini", """\
[experiment]
kind = cfl-pipeline
steps = 50
[inputs]
domain = sigma.json
grammar = eq.grammar
""")
    out = workdir / "out"
    assert main(["run", cfg, "--out-dir", str(out), "--threshold", "1/2^1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: threshold 1/2^1") and len(err.splitlines()) == 1
    assert not out.exists()


def test_audit_subcommand_reports_coverage(workdir, capsys):
    for kind in ("regular-bettor", "subset-bettor"):
        assert main(["audit", kind, "--dfa", str(workdir / "zo.json"),
                     "--out-dir", str(workdir / "out")]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("checked ") and " transitions, 0 violations, " in line
        assert line.endswith(", 1 states visited, closed")


# Word automata over the alphabet "0" only and over no letters (it accepts
# the empty word), and a machine that never halts.
ZERO_ONLY = {"arity": 1, "alphabet": "0", "states": [0], "start": 0, "accepting": [0],
             "transitions": [[0, "0", 0]]}
NO_LETTERS = {"arity": 1, "alphabet": "", "states": [0], "start": 0, "accepting": [0],
              "transitions": []}
LOOPING_TM = {"start": "q", "accept": "acc", "reject": "rej", "blank": "_",
              "rules": [["q", a, a, "S", "q"] for a in "01_"]}

# JSON nested deeper than json.loads can decode: it raises RecursionError.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def slow_exponential_domain() -> dict:
    """(0^9 | 1^9)*: exponential, but grows too slowly for a witness k <= 8."""
    zeros = [[0 if k == 0 else k, "0", (k + 1) % 9] for k in range(9)]
    ones = [[0 if k == 0 else 8 + k, "1", 0 if k == 8 else 9 + k] for k in range(9)]
    return {"arity": 1, "alphabet": "01", "states": list(range(17)), "start": 0,
            "accepting": [0], "transitions": zeros + ones}


@pytest.mark.parametrize("argv,prefix,needle", [
    (["run", "pclass-bounded.ini"], "config error:", "exponential"),
    (["run", "pclass-slow.ini"], "config error:", "growth witness"),
    (["run", "learner.ini"], "config error:", "prefix_index.json must read 2 track"),
    (["run", "regular.ini"], "config error:", "prefix_member.json must read 1 track"),
    (["run", "growth.ini"], "config error:", "prefix_member.json must read 1 track"),
    (["growth", "prefix_member.json"], "cannot load automaton:", "must read 1 track"),
    (["audit", "regular-bettor", "--dfa", "prefix_member.json"], "audit setup error:",
     "must read 1 track"),
    (["run", "diag.ini"], "config error:", "fewer than 9 members"),
    (["verify", "words-int.json"], "bad certificate:", "list of words"),
    (["verify", "list.json"], "bad certificate:", "list of words"),
    (["verify", "infinite-bit.json"], "bad certificate:", "Infinity is not a JSON number"),
    (["verify", "two-track-domain.json"], "bad certificate:", "reads 2 tracks"),
    (["verify", "two-track-setup.json"], "bad certificate:", "1-track automaton, not 2"),
    (["run", "diag-two-track.ini"], "config error:", "1-track automaton, not 2"),
    (["growth", "repeated-letter.json"], "cannot load automaton:", "not distinct letters"),
    (["growth", "padding-letter.json"], "cannot load automaton:", "not distinct letters"),
    (["run", "foreign-language.ini"], "config error:", "does not read the domain letter(s) '1'"),
    (["run", "foreign-oracle.ini"], "config error:", "does not read the domain letter(s) '1'"),
    (["run", "foreign-subset.ini"], "config error:", "does not read the domain letter(s) '1'"),
    (["run", "foreign-setup.ini"], "config error:", "does not read the domain letter(s) '1'"),
    (["verify", "foreign-setup.json"], "bad certificate:", "does not read the domain letter"),
    (["run", "looping-oracle.ini"], "config error:", "machine ran past 1000000 steps"),
    (["run", "looping-tm.ini"], "text error:", "10000 consecutive pauses"),
    (["run", "cfl.ini", "--threshold", "1/2^-5"], "config error:", "bad threshold value"),
    (["run", "cfl.ini", "--threshold", "1/2^99999999999"], "config error:",
     "threshold 1/2^99999999999 must exceed the starting capital"),
    (["verify", "negative-exponent.json"], "bad certificate:", "negative exponent"),
    (["run", "learner-finite.ini"], "config error:", "index_language is finite"),
    (["run", "variant-finite.ini"], "config error:", "index_language is finite"),
    (["run", "pclass-no-cycle.ini"], "config error:", "no hypotheses left"),
    (["run", "cfl-two-word-head.ini"], "config error:", "bad grammar"),
    (["run", "learner-empty.ini"], "config error:", "index_language is empty"),
    (["run", "variant-empty.ini"], "config error:", "index_language is empty"),
    (["run", "learner-target-2.ini"], "config error:",
     "target_index '2' is not a member of index_language"),
    (["run", "learner-index-012.ini"], "config error:",
     "membership does not read the index letter(s) '2'"),
    (["run", "deep-language.ini"], "config error:", "deep.json: nested too deeply"),
    (["growth", "deep.json"], "cannot load automaton:", "deep.json: nested too deeply"),
    (["verify", "deep.json"], "bad certificate:", "deep.json: nested too deeply"),
    (["verify", "deep-setup.json"], "bad certificate:",
     "a setup descriptor is nested too deeply"),
    (["run", "diag-words-0.ini"], "config error:", "words must be positive, got 0"),
    (["run", "diag-words-negative.ini"], "config error:", "words must be positive, got -3"),
    (["run", "pclass-anchors-0.ini"], "config error:", "anchors must be positive, got 0"),
    (["run", "dyadic-count-0.ini"], "config error:", "count must be positive, got 0"),
    (["run", "percent.ini"], "config error:", "bad steps value '5%'"),
    (["run", "no-equals.ini"], "config error:",
     "bad config: Source contains parsing errors: 'no-equals.ini' [line 3]: 'count 40\\n'"),
    (["run", "twice.ini"], "config error:", "option 'steps' in section 'experiment' already"),
    (["verify", "bit-2.json"], "bad certificate:", "bit 2 is not 0 or 1"),
    (["verify", "bit-true.json"], "bad certificate:", "bit True is not 0 or 1"),
    (["verify", "no-words.json"], "bad certificate:", "the certificate lists no words"),
    (["verify", "weight-base-negative.json"], "bad certificate:",
     "weight base -1/2^1 is not 1/2^2"),
    (["verify", "weight-base-huge.json"], "bad certificate:",
     "weight base 1/2^99999999999 is not 1/2^2"),
    (["audit", "regular-bettor", "--dfa", "zo.json", "--seed", "0"], "audit setup error:",
     "seed must be positive, got 0"),
    (["audit", "regular-bettor", "--dfa", "zo.json", "--seed", "-3"], "audit setup error:",
     "seed must be positive, got -3"),
    (["run", "tm-finite.ini"], "text error:",
     "domain exhausted by the self-scheduled text: the domain has no member above '10'"),
    (["run", "tm-empty.ini"], "text error:",
     "domain exhausted by the self-scheduled text at stage 1: the domain has no members"),
    (["run", "cfl-finite.ini"], "config error:", "the cfl pipeline needs an infinite domain"),
    (["run", "cfl-empty.ini"], "config error:", "the cfl pipeline needs an infinite domain"),
    (["run", "cfl-no-pump.ini"], "config error:",
     "found no infinite regular subset: no power v^j with j <= 64"),
    (["run", "tm-bar.ini"], "config error:",
     "the domain letter '|' cannot appear in a machine configuration"),
    (["run", "tm-int-state.ini"], "config error:",
     "bad machine in int-state.tm.json: state names and tape symbols must be strings"),
    (["run", "tm-long-start.ini"], "config error:",
     f"the start state {'q' * 62!r} is too long: the start configuration can grow the "
     "work word by more than 64 letters in one pause"),
    (["run", "tm-long-step.ini"], "config error:",
     f"the step from state 's' to {'a' * 64!r} can grow the work word by more than 64"),
    (["run", "tm-long-reject.ini"], "config error:",
     f"the step from state 's' to {'r' * 66!r} can grow the work word by more than 64"),
    (["run", "ok.ini", "--out-dir", "afile"], "config error:",
     "cannot create output directory afile: File exists"),
    (["run", "ok.ini", "--out-dir", "afile/sub"], "config error:",
     "cannot create output directory afile/sub: Not a directory"),
    (["run", "diag-ok.ini", "--out-dir", "afile"], "config error:",
     "cannot create output directory afile: File exists"),
    (["audit", "subset-bettor", "--dfa", "zo.json", "--side", "outside", "--seed", "3",
      "--out-dir", "afile"], "audit output error:",
     "cannot create output directory afile: File exists"),
    (["audit", "subset-bettor", "--dfa", "zo.json", "--side", "outside", "--seed", "3",
      "--out-dir", "afile/sub"], "audit output error:",
     "cannot create output directory afile/sub: Not a directory"),
    (["run", "ok.ini", "--out-dir", "taken-trace"], "config error:",
     "cannot write taken-trace/trace.csv: Is a directory"),
    (["audit", "regular-bettor", "--dfa", "zo.json", "--out-dir", "taken-audit"],
     "audit output error:", "cannot write taken-audit/audit.json: Is a directory"),
], ids=["pclass-bounded-domain", "pclass-slow-domain", "learner-one-track-membership",
        "regular-two-track-domain", "growth-report-two-track", "growth-two-track",
        "audit-two-track", "diagonalize-past-finite-domain", "verify-words-int",
        "verify-list", "verify-infinite-bit", "verify-two-track-domain",
        "verify-two-track-setup", "diagonalize-two-track-setup",
        "growth-repeated-letter", "growth-padding-letter",
        "regular-language-misses-letter", "regular-oracle-misses-letter",
        "subset-misses-letter", "diagonalize-setup-misses-letter",
        "verify-setup-misses-letter", "oracle-tm-never-halts", "tm-dynamic-never-halts",
        "threshold-negative-exponent", "threshold-huge-exponent",
        "verify-capital-negative-exponent",
        "learner-finite-index", "variant-learner-finite-index", "pclass-no-cycle",
        "cfl-two-word-head", "learner-empty-index", "variant-learner-empty-index",
        "learner-target-outside-index", "learner-index-letter-unread",
        "run-deep-json", "growth-deep-json", "verify-deep-json", "verify-deep-setup",
        "diagonalize-zero-words", "diagonalize-negative-words", "pclass-zero-anchors",
        "dyadic-audit-zero-count", "config-percent-value", "config-line-without-equals",
        "config-key-twice", "verify-bit-2", "verify-bit-true", "verify-no-words",
        "verify-weight-base-negative", "verify-weight-base-huge",
        "audit-seed-0", "audit-seed-negative", "tm-dynamic-finite-domain",
        "tm-dynamic-empty-domain", "cfl-finite-domain", "cfl-empty-domain", "cfl-no-pump",
        "tm-dynamic-bar-letter", "tm-int-state-name", "tm-dynamic-start-state-62",
        "tm-dynamic-step-grows-65", "tm-dynamic-reject-grows-65", "run-out-dir-file",
        "run-out-dir-under-file", "diagonalize-out-dir-file", "audit-out-dir-file",
        "audit-out-dir-under-file", "run-trace-path-is-directory",
        "audit-output-path-is-directory"])
def test_bad_input_is_status_2(workdir, capsys, monkeypatch, argv, prefix, needle):
    (workdir / "slow.json").write_text(json.dumps(slow_exponential_domain()))
    (workdir / "zero-only.json").write_text(json.dumps(ZERO_ONLY))
    (workdir / "loop.tm.json").write_text(json.dumps(LOOPING_TM))
    (workdir / "just-0.json").write_text(json.dumps(from_word("0").to_json()))
    (workdir / "two-word-head.grammar").write_text("S A -> 0 1\n")
    # (0^70)+ inside 0*: no power 0^j with j <= 64 is a member, so none pumps
    (workdir / "long.grammar").write_text("S -> A S | A\nA -> " + " ".join("0" * 70) + "\n")
    (workdir / "universe-012.json").write_text(json.dumps(universe("012").to_json()))
    (workdir / "deep.json").write_text(DEEP_JSON)
    (workdir / "int-state.tm.json").write_text(json.dumps({**LOOPING_TM, "start": 5}))
    (workdir / "long-start.tm.json").write_text(json.dumps(long_start_tm(62)))
    (workdir / "long-step.tm.json").write_text(json.dumps(long_accept_tm(64)))
    # every pair is undefined, so the first step halts rejecting
    (workdir / "long-reject.tm.json").write_text(json.dumps(
        {"start": "s", "accept": "acc", "reject": "r" * 66, "blank": "_", "rules": []}))
    (workdir / "afile").write_text("")
    (workdir / "taken-trace" / "trace.csv").mkdir(parents=True)
    (workdir / "taken-audit" / "audit.json").mkdir(parents=True)
    configs = {
        "pclass-bounded.ini": "kind = pclass\nhypotheses = const0\n[inputs]\n"
                              "domain = zero_star.json\noracle_dfa = zero_star.json",
        "pclass-slow.ini": "kind = pclass\nhypotheses = const0\n[inputs]\n"
                           "domain = slow.json\noracle_dfa = slow.json",
        "learner.ini": "kind = family-learner\n[inputs]\ndomain = sigma.json\n"
                       "index_language = prefix_index.json\nmembership = prefix_index.json",
        "regular.ini": "kind = regular-bettor\n[inputs]\ndomain = prefix_member.json\n"
                       "language = zo.json",
        "growth.ini": "kind = growth-report\n[inputs]\ndomain = prefix_member.json",
        "diag.ini": "kind = diagonalize\nwords = 9\n[inputs]\ndomain = three.json\n"
                    "setup1 = regular_bettor:zo.json",
        "diag-two-track.ini": "kind = diagonalize\n[inputs]\ndomain = sigma.json\n"
                              "setup1 = regular_bettor:prefix_member.json",
        "foreign-language.ini": "kind = regular-bettor\n[inputs]\ndomain = sigma.json\n"
                                "language = zero-only.json",
        "foreign-oracle.ini": "kind = regular-bettor\n[inputs]\ndomain = sigma.json\n"
                              "language = zo.json\noracle_dfa = zero-only.json",
        "foreign-subset.ini": "kind = subset-bettor\n[inputs]\ndomain = sigma.json\n"
                              "subset = zero-only.json\noracle_dfa = zo.json",
        "foreign-setup.ini": "kind = diagonalize\n[inputs]\ndomain = sigma.json\n"
                             "setup1 = regular_bettor:zero-only.json",
        "looping-oracle.ini": "kind = regular-bettor\nsteps = 3\n[inputs]\n"
                              "domain = sigma.json\nlanguage = zo.json\n"
                              "oracle_tm = loop.tm.json",
        "looping-tm.ini": "kind = tm-dynamic\nsteps = 10000\n[inputs]\n"
                          "domain = sigma.json\ntm = loop.tm.json",
        "cfl.ini": "kind = cfl-pipeline\n[inputs]\ndomain = sigma.json\n"
                   "grammar = eq.grammar",
        # the index "0" is right, but a step also tries the losing label
        "learner-finite.ini": "kind = family-learner\n[inputs]\ndomain = sigma.json\n"
                              "index_language = just-0.json\nmembership = prefix_member.json",
        "variant-finite.ini": "kind = variant-learner\n[inputs]\ndomain = sigma.json\n"
                              "index_language = just-0.json\nmembership = prefix_member.json",
        # the one hypothesis is the oracle, but a step also tries the losing label
        "pclass-no-cycle.ini": "kind = pclass\nhypotheses = dfa:zero_star.json\n"
                               "cycle = false\n[inputs]\ndomain = sigma.json\n"
                               "oracle_dfa = zero_star.json",
        "cfl-two-word-head.ini": "kind = cfl-pipeline\n[inputs]\ndomain = sigma.json\n"
                                 "grammar = two-word-head.grammar",
        "learner-empty.ini": "kind = family-learner\n[inputs]\ndomain = sigma.json\n"
                             "index_language = empty.json\nmembership = prefix_member.json",
        "variant-empty.ini": "kind = variant-learner\n[inputs]\ndomain = sigma.json\n"
                             "index_language = empty.json\nmembership = prefix_member.json",
        "learner-target-2.ini": "kind = family-learner\ntarget_index = 2\n[inputs]\n"
                                "domain = sigma.json\nindex_language = prefix_index.json\n"
                                "membership = prefix_member.json",
        "learner-index-012.ini": "kind = family-learner\n[inputs]\ndomain = sigma.json\n"
                                 "index_language = universe-012.json\n"
                                 "membership = prefix_member.json",
        "deep-language.ini": "kind = regular-bettor\n[inputs]\ndomain = sigma.json\n"
                             "language = deep.json",
        "diag-words-0.ini": "kind = diagonalize\nwords = 0\n[inputs]\ndomain = sigma.json\n"
                            "setup1 = regular_bettor:zo.json",
        "diag-words-negative.ini": "kind = diagonalize\nwords = -3\n[inputs]\n"
                                   "domain = sigma.json\nsetup1 = regular_bettor:zo.json",
        "pclass-anchors-0.ini": "kind = pclass\nsteps = 50\nanchors = 0\n"
                                "hypotheses = const0, dfa:zero_star.json\n[inputs]\n"
                                "domain = sigma.json\noracle_dfa = zero_star.json",
        "dyadic-count-0.ini": "kind = dyadic-audit\ncount = 0",
        "percent.ini": "kind = regular-bettor\nsteps = 5%\n[inputs]\ndomain = sigma.json\n"
                       "language = zo.json",
        "no-equals.ini": "kind = dyadic-audit\ncount 40",
        "twice.ini": "kind = dyadic-audit\nsteps = 4\nsteps = 5",
        "tm-finite.ini": "kind = tm-dynamic\n[inputs]\ndomain = three.json\ntm = tm.json",
        "tm-empty.ini": "kind = tm-dynamic\n[inputs]\ndomain = empty.json\ntm = tm.json",
        "cfl-finite.ini": "kind = cfl-pipeline\n[inputs]\ndomain = three.json\n"
                          "grammar = eq.grammar",
        "cfl-empty.ini": "kind = cfl-pipeline\n[inputs]\ndomain = empty.json\n"
                         "grammar = eq.grammar",
        "cfl-no-pump.ini": "kind = cfl-pipeline\n[inputs]\ndomain = zero_star.json\n"
                           "grammar = long.grammar",
        "tm-bar.ini": "kind = tm-dynamic\n[inputs]\ndomain = bar.json\ntm = tm.json",
        "tm-int-state.ini": "kind = tm-dynamic\n[inputs]\ndomain = sigma.json\n"
                            "tm = int-state.tm.json",
        "tm-long-start.ini": "kind = tm-dynamic\n[inputs]\ndomain = sigma.json\n"
                             "tm = long-start.tm.json",
        "tm-long-step.ini": "kind = tm-dynamic\n[inputs]\ndomain = sigma.json\n"
                            "tm = long-step.tm.json",
        "tm-long-reject.ini": "kind = tm-dynamic\n[inputs]\ndomain = sigma.json\n"
                              "tm = long-reject.tm.json",
        "ok.ini": "kind = regular-bettor\nsteps = 5\n[inputs]\ndomain = sigma.json\n"
                  "language = zo.json",
        "diag-ok.ini": "kind = diagonalize\nwords = 4\n[inputs]\ndomain = sigma.json\n"
                       "setup1 = regular_bettor:zo.json",
    }
    for name, body in configs.items():
        write_config(workdir, name, f"[experiment]\n{body}\n")
    (workdir / "words-int.json").write_text(json.dumps(
        {"words": 5, "weight_base": "1/2^2", "enum_hash": "", "setups": None, "domain": None}))
    (workdir / "list.json").write_text("[1, 2]")
    two_track = json.loads((workdir / "prefix_member.json").read_text())
    for name, key, value in [
        ("infinite-bit.json", "words", [{"w": "", "bit": float("inf"), "capital": "1"}]),
        ("two-track-domain.json", "domain", two_track),
        ("two-track-setup.json", "setups",
         [json.dumps({"kind": "regular_bettor", "dfa": two_track})]),
        ("foreign-setup.json", "setups",
         [json.dumps({"kind": "regular_bettor", "dfa": ZERO_ONLY})]),
        ("negative-exponent.json", "words",
         [{**SEED_OBJECTS[1]["words"][0], "capital": "1/2^-5"}, *SEED_OBJECTS[1]["words"][1:]]),
        ("deep-setup.json", "setups", [DEEP_JSON]),
        ("bit-2.json", "words",
         [{**SEED_OBJECTS[1]["words"][0], "bit": 2}, *SEED_OBJECTS[1]["words"][1:]]),
        ("bit-true.json", "words",
         [{**SEED_OBJECTS[1]["words"][0], "bit": True}, *SEED_OBJECTS[1]["words"][1:]]),
        ("no-words.json", "words", []),
        ("weight-base-negative.json", "weight_base", "-1/2^1"),
        ("weight-base-huge.json", "weight_base", "1/2^99999999999"),
    ]:
        (workdir / name).write_text(json.dumps({**SEED_OBJECTS[1], key: value}))
    for name, alphabet in [("repeated-letter.json", "001"), ("padding-letter.json", "0#1")]:
        (workdir / name).write_text(json.dumps({**SEED_OBJECTS[0], "alphabet": alphabet}))
    monkeypatch.chdir(workdir)
    out = workdir / "out"
    if argv[0] in ("run", "audit") and "--out-dir" not in argv:
        argv = argv + ["--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and len(err.splitlines()) == 1
    assert needle in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# Parser fuzzing: every input file ends in exit status 0, 1 or 2
# ---------------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10)

ZEROS_THEN_ONES = concat(word_star("0"), word_star("1"))
ONE_ZEROS = concat(from_word("1"), word_star("0"))
SEED_OBJECTS = [
    ZEROS_THEN_ONES.to_json(),
    diagonalize([regular_bettor(ZEROS_THEN_ONES), subset_bettor(ONE_ZEROS, "inside")],
                universe("01"), 8,
                descriptors=[json.dumps({"kind": "regular_bettor",
                                         "dfa": ZEROS_THEN_ONES.to_json()}),
                             json.dumps({"kind": "subset_bettor", "side": "inside",
                                         "dfa": ONE_ZEROS.to_json()})]).to_json_obj(),
]


# Replacements: any JSON value, or a small number or a short string over
# the letters that automata, capitals and descriptors are written in.
REPLACEMENTS = JSON_VALUES | st.integers(-2, 20) | st.text("01#|/^2-", max_size=5)


def mutated(data, value):
    """value with one node replaced, or one entry of an object or array
    deleted; the node is usually a leaf.  A certificate's setup
    descriptors are JSON text, and are mutated inside too."""
    if isinstance(value, str) and value.startswith("{") and data.draw(st.booleans()):
        try:
            inner = json.loads(value)
        except ValueError:  # a string an earlier mutation drew, not a descriptor
            return data.draw(REPLACEMENTS)
        return json.dumps(mutated(data, inner))
    if isinstance(value, (dict, list)) and value and data.draw(st.integers(0, 3)):
        copy = dict(value) if isinstance(value, dict) else list(value)
        key = data.draw(st.sampled_from(sorted(copy) if isinstance(copy, dict)
                                        else range(len(copy))))
        if not data.draw(st.integers(0, 5)):
            del copy[key]
        else:
            copy[key] = mutated(data, copy[key])
        return copy
    return data.draw(REPLACEMENTS)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_growth_and_verify_exit_0_1_or_2_on_any_json(data):
    if data.draw(st.booleans()):
        value = data.draw(JSON_VALUES)
    else:
        value = data.draw(st.sampled_from(SEED_OBJECTS))
        for _ in range(data.draw(st.integers(1, 3))):
            value = mutated(data, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(value))
        assert main(["growth", str(path)]) in (0, 1, 2)
        assert main(["verify", str(path)]) in (0, 1, 2)


@pytest.mark.parametrize("from_json, seed", [
    (Dfa.from_json, ZEROS_THEN_ONES.to_json()),
    (TmProgram.from_json, equal_counts_tm().to_json()),
], ids=["dfa", "tm"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parser_returns_or_raises_a_load_error(from_json, seed, data):
    """On any JSON value, or a valid automaton or machine with a node
    replaced or an entry deleted, a parser returns a value or raises one of
    the errors `_load_object` reports with exit status 2."""
    if data.draw(st.booleans()):
        value = data.draw(JSON_VALUES)
    else:
        value = seed
        for _ in range(data.draw(st.integers(1, 3))):
            value = mutated(data, value)
    try:
        parsed = from_json(value)
    except (KeyError, ValueError, TypeError):
        return
    assert isinstance(parsed, (Dfa, TmProgram))


# ---------------------------------------------------------------------------
# Run-config fuzzing: every config ends in exit status 0, 1 or 2
# ---------------------------------------------------------------------------

PREFIX_INPUTS = {"domain": "sigma.json", "index_language": "prefix_index.json",
                 "membership": "prefix_member.json"}
# The run configs of the tests above as ([experiment] keys, [inputs] keys);
# cfl-pipeline's 300,000 steps are capped at 3,000.
RUN_CONFIGS = [
    ({"kind": "regular-bettor", "steps": "40", "seed": "3"},
     {"domain": "sigma.json", "language": "zo.json"}),
    ({"kind": "adversarial", "horizon": "40", "search_bound": "200"},
     {"domain": "sigma.json", "language": "zo.json", "oracle_dfa": "zo.json"}),
    ({"kind": "adversarial", "horizon": "50"},
     {"domain": "sigma.json", "language": "zo.json", "oracle_grammar": "eq.grammar"}),
    ({"kind": "subset-bettor", "steps": "60", "side": "outside"},
     {"domain": "sigma.json", "subset": "zero_star.json", "oracle_grammar": "eq.grammar"}),
    ({"kind": "family-learner", "steps": "30", "target_index": "1"}, PREFIX_INPUTS),
    ({"kind": "variant-learner", "steps": "60", "target_index": "1", "difference": "1,00"},
     PREFIX_INPUTS),
    ({"kind": "tm-dynamic", "steps": "260"}, {"domain": "sigma.json", "tm": "tm.json"}),
    ({"kind": "diagonalize", "words": "14"},
     {"domain": "sigma.json", "setup1": "regular_bettor:zo.json",
      "setup2": "regular_bettor:ones.json", "setup3": "subset_bettor:inside:one_zeros.json"}),
    ({"kind": "pclass", "steps": "1100", "anchors": "10",
      "hypotheses": "const0, dfa:ones.json, dfa:zero_star.json"},
     {"domain": "sigma.json", "oracle_dfa": "zero_star.json"}),
    ({"kind": "cfl-pipeline", "steps": "3000", "threshold": "64/2^0"},
     {"domain": "sigma.json", "grammar": "eq.grammar"}),
    ({"kind": "growth-report"}, {"domain": "zoro.json"}),
    ({"kind": "dyadic-audit", "count": "2000", "seed": "5"}, {}),
]
EXPERIMENT_KEYS = ["kind", "steps", "seed", "horizon", "search_bound", "threshold", "words",
                   "anchors", "count", "side", "mode", "cycle", "hypotheses",
                   "target_index", "difference"]
INPUT_KEYS = ["domain", "language", "subset", "oracle_dfa", "oracle_grammar", "oracle_tm",
              "index_language", "membership", "tm", "grammar", "setup1", "setup4"]
INPUT_FILES = ["sigma.json", "zo.json", "one_zeros.json", "zoro.json", "zero_star.json",
               "ones.json", "prefix_index.json", "prefix_member.json", "tm.json",
               "eq.grammar", "ab.grammar", "three.json", "empty.json", "no_letters.json",
               "bar.json",
               "missing.json", "",
               "regular_bettor:zo.json",
               "subset_bettor:outside:ones.json", "subset_bettor:zo.json"]
# Values: small numbers (sizes stay capped), words the parsers know, and
# short text over the letters configs are written in.
CONFIG_VALUES = (
    st.integers(-3, 60).map(str)
    | st.sampled_from(["inside", "outside", "any", "repetition-free", "true", "maybe",
                       "const0", "const1", "dfa:ones.json", "dfa:missing.json", "64/2^0",
                       "1/2^-5", "2^3", "1,00", "0x10", "1e3", "%(steps)s"])
    | st.text("01,:/^-%#abcdefklnorstu. ", max_size=8)
)
RUN_ALARM_S = 60


class Overrun(Exception):
    """An example ran past its alarm."""


def _overrun(_signum, _frame):
    raise Overrun(f"a run took more than {RUN_ALARM_S} s")


@st.composite
def run_configs(draw):
    """The text of one of RUN_CONFIGS after 1 to 4 mutations: a new kind, a
    key set to a drawn value, a key deleted, or an input pointed at
    another file, a missing one or a setup spec."""
    experiment, inputs = (dict(part) for part in draw(st.sampled_from(RUN_CONFIGS)))
    for _ in range(draw(st.integers(1, 4))):
        move = draw(st.integers(0, 4))
        if move == 0:
            experiment["kind"] = draw(st.sampled_from(sorted(_HANDLERS)) | CONFIG_VALUES)
        elif move == 1:
            experiment[draw(st.sampled_from(EXPERIMENT_KEYS))] = draw(CONFIG_VALUES)
        elif move == 2 and experiment:
            del experiment[draw(st.sampled_from(sorted(experiment)))]
        elif move == 3 and inputs:
            del inputs[draw(st.sampled_from(sorted(inputs)))]
        else:
            inputs[draw(st.sampled_from(INPUT_KEYS))] = draw(st.sampled_from(INPUT_FILES))
    lines = ["[experiment]", *(f"{k} = {v}" for k, v in experiment.items()),
             "[inputs]", *(f"{k} = {v}" for k, v in inputs.items())]
    return "\n".join(lines) + "\n"


# The inputs in workdir are only read, so one directory serves every example.
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=run_configs())
# the words of 1 0* outgrow one pause's memory growth near stage 180
@example(text="[experiment]\nkind = tm-dynamic\nsteps = 260\n"
              "[inputs]\ndomain = one_zeros.json\ntm = tm.json\n")
def test_run_exits_0_1_or_2_on_mutated_configs(workdir, text):
    cfg = write_config(workdir, "fuzz.ini", text)
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(RUN_ALARM_S)
    try:
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", cfg, "--out-dir", out])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# Command-line fuzzing: every argument list ends in exit status 0, 1 or 2
# ---------------------------------------------------------------------------

# The inputs of one example, written afresh into its own directory, plus
# an ordinary file, an empty directory and a directory whose entries take
# every output file's name.
CLI_CONFIGS = {
    "regular.ini": "kind = regular-bettor\nsteps = 20\n[inputs]\n"
                   "domain = sigma.json\nlanguage = zo.json",
    "diag.ini": "kind = diagonalize\nwords = 6\n[inputs]\ndomain = sigma.json\n"
                "setup1 = regular_bettor:zo.json\nsetup2 = subset_bettor:inside:one_zeros.json",
    "adversarial.ini": "kind = adversarial\nhorizon = 20\nsearch_bound = 50\n[inputs]\n"
                       "domain = sigma.json\nlanguage = zo.json\noracle_dfa = zo.json",
    "cfl.ini": "kind = cfl-pipeline\nsteps = 40\nthreshold = 8/2^0\n[inputs]\n"
               "domain = sigma.json\ngrammar = eq.grammar",
}
OUTPUT_NAMES = ["trace.csv", "trace.json", "audit.json", "certificate.json", "stall.json",
                "extracted.json"]
# Paths: inputs, a file, paths under a file, existing and taken directories,
# a missing file, the empty path and a new nested directory.
CLI_PATHS = st.sampled_from([*CLI_CONFIGS, "cert.json", "sigma.json", "zo.json",
                             "one_zeros.json", "afile", "afile/under", "afile/a/b", "adir",
                             "taken", "taken/audit.json", "missing.json", "", ".",
                             "new/deeper"])
# Numbers: half of them small, so that runs stay short; the rest signs,
# zero, huge values and text int() reads or rejects.
CLI_NUMBERS = st.integers(1, 9).map(str) | st.sampled_from([
    "0", "-1", "-0", "+2", " 3", "1.5", "1e3", "0x10", "", "x", "\u0663", "--1",
    "99999999999999999999", "-99999999999999999999"])
CLI_THRESHOLDS = CLI_NUMBERS | st.sampled_from([
    "3/2^1", "1/2^-5", "2^3", "8/2^0", "0/2^0", "-4/2^1", "1/2^99999999999999999999",
    "99999999999999999999/2^0", "1/2^", "/2^3"])
CLI_FLAGS = {
    "run": {"--steps": CLI_NUMBERS, "--threshold": CLI_THRESHOLDS, "--horizon": CLI_NUMBERS,
            "--search-bound": CLI_NUMBERS, "--seed": CLI_NUMBERS, "--out-dir": CLI_PATHS,
            "--replay": None},
    "verify": {},
    "growth": {},
    "audit": {"--dfa": st.sampled_from(["zo.json", "sigma.json"]) | CLI_PATHS,
              "--side": st.sampled_from(["inside", "outside", "x", ""]),
              "--seed": CLI_NUMBERS, "--out-dir": CLI_PATHS},
}
# Each subcommand's positional: half of the time the input it expects.
CLI_POSITIONALS = {
    "run": st.sampled_from(sorted(CLI_CONFIGS)) | CLI_PATHS,
    "verify": st.just("cert.json") | CLI_PATHS,
    "growth": st.sampled_from(["sigma.json", "zo.json"]) | CLI_PATHS,
    "audit": st.sampled_from(["regular-bettor", "subset-bettor", "bettor", ""]),
}


@st.composite
def command_lines(draw):
    """A subcommand with zero to two positionals and up to four of its
    flags, each maybe repeated, given a drawn value, or left without one at
    the end; now and then an unknown flag or no subcommand."""
    command = draw(st.sampled_from(sorted(CLI_FLAGS)))
    argv = [command] if draw(st.sampled_from(range(16))) else []
    flags = CLI_FLAGS[command]
    positionals = [draw(CLI_POSITIONALS[command])
                   for _ in range(draw(st.sampled_from([1, 1, 1, 1, 0, 2])))]
    options = []
    for _ in range(draw(st.integers(0, 4) if flags else st.sampled_from([0, 0, 0, 1]))):
        flag = "--bogus" if not flags or not draw(st.sampled_from(range(10))) \
            else draw(st.sampled_from(sorted(flags)))
        values = flags.get(flag, st.just("1"))
        options += [flag] if flag == "--replay" else [flag, draw(values)]
    if options and not draw(st.sampled_from(range(10))):
        options.pop()  # the last flag loses its value
    at = draw(st.integers(0, len(options)))
    return argv + options[:at] + positionals + options[at:]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=command_lines())
@example(argv=["audit", "regular-bettor", "--dfa", "zo.json", "--out-dir", "taken"])
@example(argv=["run", "regular.ini", "--out-dir", "afile/under"])
@example(argv=["run", "diag.ini", "--replay", "--out-dir", "taken", "--out-dir", "adir"])
@example(argv=["verify", "cert.json", "cert.json"])
def test_every_command_line_exits_0_1_or_2(tmp_path, monkeypatch, argv):
    """Each subcommand, on files, paths under files, existing and taken
    directories, missing and repeated flags and odd numbers, returns 0, 1
    or 2 (argparse's own exit included) with no traceback, and writes only
    inside its own directory."""
    case = Path(tempfile.mkdtemp(dir=tmp_path))
    for name, obj in [("sigma.json", universe("01")), ("zo.json", ZEROS_THEN_ONES),
                      ("one_zeros.json", ONE_ZEROS)]:
        (case / name).write_text(json.dumps(obj.to_json()))
    (case / "cert.json").write_text(json.dumps(SEED_OBJECTS[1]))
    (case / "eq.grammar").write_text("S -> 0 S 1 | #eps\n")
    for name, body in CLI_CONFIGS.items():
        (case / name).write_text(f"[experiment]\n{body}\n")
    (case / "afile").write_text("not a directory\n")
    (case / "adir").mkdir()
    for name in OUTPUT_NAMES:
        (case / "taken" / name).mkdir(parents=True)
    around = set(tmp_path.parent.iterdir()), set(tmp_path.iterdir())
    monkeypatch.chdir(case)
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(RUN_ALARM_S)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors and --help
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    monkeypatch.undo()
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert (set(tmp_path.parent.iterdir()), set(tmp_path.iterdir())) == around
