"""Batch experiment runner.

Subcommands:
    run <config>        run one experiment described by an ini-style config
    verify <cert>       replay a diagonalization certificate
    growth <dfa-file>   classify a regular domain's growth
    audit <kind> ...    fairness-audit one construction

Configs are line-oriented ``key = value`` under ``[experiment]`` and
``[inputs]`` sections.  Artifacts (trace.csv, trace.json, audit.json,
certificate.json, ...) land in --out-dir together when the command ends,
so one that exits 2 leaves --out-dir as it was.  Identical configs and
seeds produce byte-identical artifacts.  Exit status: 0 all invariants held,
1 invariant violation, 2 unreadable config or inputs.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import sys
from pathlib import Path

from .automata import (
    AutomatonError,
    Dfa,
    EmptyLanguageError,
    NoSuccessorError,
    enumerate_ll,
    slice_count,
    words_of_length,
)
from .constructions import (
    ConstructionError,
    DiagonalCertificate,
    TmProgram,
    WEIGHT_BASE,
    build_setup,
    diagonalize,
    enumeration_hash,
    regular_bettor,
    replay_certificate,
    subset_bettor,
    tm_dynamic_bettor,
)
from .dyadic import Dyadic
from .engine import (
    DEFAULT_THRESHOLD,
    TextExhaustedError,
    ValidityBudgetError,
    audit_fairness,
    ll_text,
    run,
    succeeded,
)
from .rng import Lcg

# The modules that only some paths use are imported inside them, so the
# other commands do not pay for loading them: langmart.grammar where a
# grammar is read (_load_grammar, an oracle_grammar input, cfl-pipeline),
# langmart.learning in the adversarial, learner and pclass kinds,
# langmart.regular in the growth report, langmart.tworow in the dyadic
# audit and langmart.tracefiles where a run writes a trace.


class ConfigError(Exception):
    pass


def _not_a_number(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _load_json(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_not_a_number)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # a json.JSONDecodeError, or NaN or Infinity
        raise ConfigError(f"bad JSON in {path}: {exc}") from None
    except RecursionError:
        raise ConfigError(f"bad JSON in {path}: nested too deeply") from None


def _load_object(path: Path, from_json, what: str):
    data = _load_json(path)
    try:
        return from_json(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad {what} in {path}: {exc}") from None


def _check_letters(dfa: Dfa, domain: Dfa, what: str) -> None:
    """Reject an automaton that domain words are fed to (on its first
    track) unless it reads every letter of the domain's alphabet."""
    missing = "".join(ch for ch in domain.alphabets[0] if ch not in dfa.alphabets[0])
    if missing:
        raise ConfigError(f"{what} does not read the domain letter(s) {missing!r}")


def _descriptor_setup(desc, domain: Dfa, what: str):
    """The setup a certificate descriptor rebuilds; its automaton must read
    every domain letter.  Errors name what."""
    try:
        setup = build_setup(desc)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from None
    _check_letters(Dfa.from_json(desc["dfa"]), domain, what)
    return setup


def _load_dfa(path: Path, tracks: int = 1, domain: Dfa | None = None) -> Dfa:
    """The automaton in path; it must read `tracks` tracks and, when a
    domain is given, every domain letter."""
    dfa = _load_object(path, Dfa.from_json, "automaton")
    if dfa.arity != tracks:
        raise ConfigError(f"automaton in {path} must read {tracks} track(s), "
                          f"not {dfa.arity}")
    if domain is not None:
        _check_letters(dfa, domain, f"automaton in {path}")
    return dfa


def _tm_oracle(prog: TmProgram):
    """prog's verdicts as a predicate; a machine that does not halt within
    its step budget is bad input."""

    def oracle(w: str) -> bool:
        try:
            return bool(prog.decide(w))
        except ConstructionError as exc:
            raise ConfigError(f"the machine does not decide: {exc}") from None

    return oracle


def _load_grammar(path: Path) -> "Cfg":
    from .grammar import Cfg, GrammarError

    try:
        return Cfg.from_text(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except GrammarError as exc:
        raise ConfigError(f"bad grammar in {path}: {exc}") from None


def _write_json(path: Path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


class _Outputs:
    """The output stage of one command.  Every artifact is written in
    out_dir, made on first use, under its name plus '.partial'.  When the
    block ends normally the trace sink is closed and, unless a final name
    is taken by a directory, every file takes its name.  If the block or
    that commit raises, every staged file is removed, and so is every
    directory made for them, so a command that exits 2 leaves out_dir as
    it was; an OSError becomes a ConfigError naming the path."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.made = []  # the directories made, deepest first
        self.staged = {}  # final path: staged path
        self.sink = None

    def path(self, name: str) -> Path:
        """The staged path of the artifact name."""
        if not self.staged:
            self.made = [p for p in (self.out_dir, *self.out_dir.parents) if not p.exists()]
            try:
                self.out_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:  # out_dir, or a directory above it, is a file
                raise ConfigError(f"cannot create output directory {self.out_dir}: "
                                  f"{exc.strerror}") from None
        self.staged[self.out_dir / name] = self.out_dir / f"{name}.partial"
        return self.staged[self.out_dir / name]

    def json(self, name: str, obj) -> None:
        _write_json(self.path(name), obj)

    def trace(self) -> "TraceFiles":
        """A sink that writes trace.csv and trace.json as the run goes."""
        from .tracefiles import TraceFiles

        self.sink = TraceFiles(self.path("trace.csv"), self.path("trace.json"))
        return self.sink

    def __enter__(self):
        return self

    def __exit__(self, _type, exc, _tb):
        try:
            if exc is not None:
                raise exc
            if self.sink is not None:
                self.sink.close()
            for final in self.staged:  # rename nothing if any name is taken
                if final.is_dir():
                    raise ConfigError(f"cannot write {final}: Is a directory")
            for final, staged in self.staged.items():
                staged.replace(final)
        except BaseException as failed:
            if self.sink is not None:
                with contextlib.suppress(OSError):
                    self.sink.close()
            for path in self.staged.values():
                with contextlib.suppress(OSError):
                    path.unlink()
            for path in self.made:
                with contextlib.suppress(OSError):  # a directory that is not empty stays
                    path.rmdir()
            if isinstance(failed, OSError):  # a rename names its target second
                name = failed.filename2 or failed.filename or self.out_dir
                raise ConfigError(f"cannot write {name}: {failed.strerror}") from None
            raise


def _one_of(*options):
    """Parser for a value that must be one of options."""

    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(text)
        return text

    return parse


def _boolean(text: str) -> bool:
    """configparser's booleans: 1/yes/true/on and 0/no/false/off."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(text) from None


class Experiment:
    """Parsed config plus resolved input files."""

    def __init__(self, config_path: Path, overrides: argparse.Namespace):
        parser = configparser.ConfigParser(interpolation=None)  # '%' is a plain letter
        try:
            read = parser.read(str(config_path))
        except configparser.Error as exc:  # its message names the file and line
            raise ConfigError(f"bad config: {' '.join(str(exc).split())}") from None
        if not read:
            raise ConfigError(f"cannot read config {config_path}")
        if "experiment" not in parser:
            raise ConfigError("config needs an [experiment] section")
        self.base = config_path.parent
        self.exp = parser["experiment"]
        self.inputs = parser["inputs"] if "inputs" in parser else {}
        self.kind = self.exp.get("kind")
        if not self.kind:
            raise ConfigError("experiment kind missing")
        self.overrides = overrides

    def value(self, key: str, default, parse=int):
        """The CLI override or config value of key, parsed."""
        value = getattr(self.overrides, key, None)
        if value is None:
            value = self.exp.get(key, str(default))
        try:
            return parse(value)
        except ValueError:
            raise ConfigError(f"bad {key} value {value!r}") from None

    def _num(self, key: str, default: int) -> int:
        value = self.value(key, default)
        if value <= 0:
            raise ConfigError(f"{key} must be positive, got {value}")
        return value

    @property
    def steps(self) -> int:
        return self._num("steps", 1000)

    @property
    def horizon(self) -> int:
        return self._num("horizon", 100)

    @property
    def search_bound(self) -> int:
        return self._num("search_bound", 1000)

    @property
    def seed(self) -> int:
        return self._num("seed", 1)

    @property
    def threshold(self) -> Dyadic:
        return self.value("threshold", DEFAULT_THRESHOLD, Dyadic.parse)

    def path(self, key: str) -> Path:
        value = self.inputs.get(key)
        if value is None:
            raise ConfigError(f"[inputs] {key} is required for kind {self.kind}")
        return self.base / value

    def dfa(self, key: str, tracks: int = 1, domain: Dfa | None = None) -> Dfa:
        return _load_dfa(self.path(key), tracks, domain)

    def oracle(self, domain: Dfa):
        """Membership oracle on domain words from oracle_dfa / oracle_grammar
        / oracle_tm."""
        if self.inputs.get("oracle_dfa"):
            return self.dfa("oracle_dfa", domain=domain).accepts
        if self.inputs.get("oracle_grammar"):
            from .grammar import cyk_member, to_cnf

            cnf = to_cnf(_load_grammar(self.path("oracle_grammar")))
            return lambda w: cyk_member(cnf, w)
        if self.inputs.get("oracle_tm"):
            return _tm_oracle(_load_object(self.path("oracle_tm"), TmProgram.from_json,
                                           "machine"))
        raise ConfigError("no oracle_dfa / oracle_grammar / oracle_tm input")


def _probe_words(domain: Dfa, seed: int) -> list[str]:
    """The domain's 32 least members, then seeded random words of length 8
    up to 64 words in all, sorted without repeats."""
    rng = Lcg(seed)
    alphabet = "".join(domain.alphabets[0])
    words = enumerate_ll(domain, 32)
    if alphabet:  # over no letters the empty word is the only word
        words += [rng.word(alphabet, 8) for _ in range(64 - len(words))]
    return sorted(set(words))


def _audited(setup, domain, seed) -> "AuditReport":
    return audit_fairness(setup, _probe_words(domain, seed))


def _finish(out: _Outputs, audit, extra=None, *, held: bool) -> int:
    for name, obj in {"audit.json": audit.to_json_obj(), **(extra or {})}.items():
        out.json(name, obj)
    if not audit.ok:
        print(f"fairness audit failed: {len(audit.violations)} violations",
              file=sys.stderr)
        return 1
    return 0 if held else 1


# ---------------------------------------------------------------------------
# Experiment handlers (each returns the exit status)
# ---------------------------------------------------------------------------


def _run_regular_bettor(exp: Experiment, out: _Outputs) -> int:
    domain = exp.dfa("domain")
    language = exp.dfa("language", domain=domain)
    oracle_keys = ("oracle_dfa", "oracle_grammar", "oracle_tm")
    oracle = exp.oracle(domain) if any(map(exp.inputs.get, oracle_keys)) else language.accepts
    setup = regular_bettor(language)
    run(setup, ll_text(domain), oracle, exp.steps, trace=out.trace())
    audit = _audited(setup, domain, exp.seed)
    return _finish(out, audit, held=True)


def _run_subset_bettor(exp: Experiment, out: _Outputs) -> int:
    domain = exp.dfa("domain")
    subset = exp.dfa("subset", domain=domain)
    setup = subset_bettor(subset, exp.value("side", "inside", _one_of("inside", "outside")))
    oracle = exp.oracle(domain)
    run(setup, ll_text(domain), oracle, exp.steps, trace=out.trace())
    audit = _audited(setup, domain, exp.seed)
    return _finish(out, audit, held=True)


def _run_adversarial(exp: Experiment, out: _Outputs) -> int:
    from .learning import StallWitness, adversarial_text, extract_language

    domain = exp.dfa("domain")
    bettor = regular_bettor(exp.dfa("language", domain=domain))
    oracle = exp.oracle(domain)
    outcome = adversarial_text(bettor, domain, oracle,
                               mode=exp.value("mode", "any",
                                              _one_of("any", "repetition-free")),
                               horizon=exp.horizon,
                               search_bound=exp.search_bound)
    audit = _audited(bettor, domain, exp.seed)
    if isinstance(outcome, StallWitness):
        predicate = extract_language(bettor, outcome.state)
        sample = {w: predicate(w) for w in enumerate_ll(domain, 64)}
        extra = {"stall.json": {
            "stage": outcome.stage,
            "search_bound": outcome.search_bound,
            "capital": str(outcome.state.capital),
            "extracted_sample": {w: bool(v) for w, v in sample.items()},
        }}
        return _finish(out, audit, extra, held=True)
    trace = run(bettor, outcome, oracle, exp.horizon, trace=out.trace())
    held = trace.max_capital() <= bettor.start.capital
    if not held:
        print("adversarial text let the capital rise", file=sys.stderr)
    return _finish(out, audit, held=held)


def _run_family_learner(exp: Experiment, out: _Outputs, variant: bool) -> int:
    from .learning import (AutomaticFamily, LearnerStallError, family_learner,
                           variant_family_learner)

    domain = exp.dfa("domain")
    index = exp.dfa("index_language")
    fam = AutomaticFamily(index, exp.dfa("membership", tracks=2, domain=domain))
    missing = "".join(ch for ch in index.alphabets[0] if ch not in fam.membership.alphabets[1])
    if missing:
        raise ConfigError(f"membership does not read the index letter(s) {missing!r}")
    target = exp.exp.get("target_index")
    if target is None:
        try:
            target = fam.min_index()
        except EmptyLanguageError:
            raise ConfigError("index_language is empty") from None
    elif not set(target) <= set(index.alphabets[0]) or not index.accepts(target):
        raise ConfigError(f"target_index {target!r} is not a member of index_language")
    difference = {w for w in exp.exp.get("difference", "").split(",") if w}

    def oracle(w: str) -> bool:
        return fam.member(w, target) != (w in difference)

    setup = variant_family_learner(fam) if variant else family_learner(fam)
    try:  # each step also tries the losing label, which advances the index
        run(setup, ll_text(domain), oracle, exp.steps, trace=out.trace())
        audit = _audited(setup, domain, exp.seed)
    except (LearnerStallError, NoSuccessorError) as exc:
        raise ConfigError(f"index_language is finite: {exc}") from None
    return _finish(out, audit, held=True)


def _run_tm_dynamic(exp: Experiment, out: _Outputs) -> int:
    domain = exp.dfa("domain")
    prog = _load_object(exp.path("tm"), TmProgram.from_json, "machine")
    try:
        setup, text = tm_dynamic_bettor(prog, domain)
    except EmptyLanguageError:
        raise TextExhaustedError("domain exhausted by the self-scheduled text at stage 1: "
                                 "the domain has no members") from None
    except ConstructionError as exc:
        raise ConfigError(str(exc)) from None
    try:  # the bettor schedules the domain's words in ll order, one after another
        run(setup, text, _tm_oracle(prog), exp.steps, trace=out.trace())
        audit = _audited(setup, domain, exp.seed)
    except NoSuccessorError as exc:
        raise TextExhaustedError(
            f"domain exhausted by the self-scheduled text: the domain has {exc}") from None
    return _finish(out, audit, held=True)


def _diagonalize_parts(exp: Experiment):
    domain = exp.dfa("domain")
    descriptors = []
    setups = []
    for key in sorted(k for k in exp.inputs if k.startswith("setup")):
        spec = exp.inputs[key]
        kind, *args = spec.split(":")
        if (kind, len(args)) not in (("regular_bettor", 1), ("subset_bettor", 2)):
            raise ConfigError(f"bad setup spec {spec!r}")
        desc = {"kind": kind, "dfa": _load_json(exp.base / args[-1])}
        if kind == "subset_bettor":
            desc["side"] = args[0]
        descriptors.append(desc)
        setups.append(_descriptor_setup(desc, domain, f"setup {spec!r}"))
    if not setups:
        raise ConfigError("diagonalize needs setup1, setup2, ... inputs")
    return domain, setups, descriptors


def _run_diagonalize(exp: Experiment, out: _Outputs) -> int:
    domain, setups, descriptors = _diagonalize_parts(exp)
    words = exp._num("words", 30)
    try:
        cert = diagonalize(setups, domain, words,
                           descriptors=[json.dumps(d, sort_keys=True) for d in descriptors])
    except (EmptyLanguageError, NoSuccessorError) as exc:
        raise ConfigError(f"the domain has fewer than {words} members: {exc}") from None
    held = True
    if exp.overrides.replay:
        problems = replay_certificate(cert, setups, domain)
        for message in problems:
            print(message, file=sys.stderr)
        held = not problems
    audits = [_audited(s, domain, exp.seed) for s in setups]
    out.json("certificate.json", cert.to_json_obj())
    out.json("audit.json", [v.to_json_obj() for a in audits for v in a.violations])
    if any(not a.ok for a in audits):
        return 1
    return 0 if held else 1


def _run_pclass(exp: Experiment, out: _Outputs) -> int:
    from .learning import Hypothesis, HypothesisSpace, anchor_gap_report, pclass_bettor

    domain = exp.dfa("domain")
    hyps = []
    for spec in exp.exp.get("hypotheses", "").split(","):
        spec = spec.strip()
        if not spec:
            continue
        if spec == "const0":
            hyps.append(Hypothesis("const0", lambda w: 0, lambda w: len(w) + 1))
        elif spec == "const1":
            hyps.append(Hypothesis("const1", lambda w: 1, lambda w: len(w) + 1))
        elif spec.startswith("dfa:"):
            dfa = _load_dfa(exp.base / spec[4:], domain=domain)
            hyps.append(Hypothesis(spec, lambda w, d=dfa: int(d.accepts(w)),
                                   lambda w: len(w) + 1))
        else:
            raise ConfigError(f"bad hypothesis spec {spec!r}")
    if not hyps:
        raise ConfigError("pclass needs a hypotheses list")
    space = HypothesisSpace(tuple(hyps),
                            cycle=exp.value("cycle", True, _boolean))
    try:
        setup = pclass_bettor(space, domain)
        anchors = anchor_gap_report(domain, exp._num("anchors", 10))
        oracle = exp.oracle(domain)
        # each step also tries the losing label, which may need a next hypothesis
        run(setup, ll_text(domain), oracle, exp.steps, trace=out.trace())
        audit = _audited(setup, domain, exp.seed)
    except (ConstructionError, AutomatonError) as exc:
        raise ConfigError(str(exc)) from None
    held = all(row["ok"] for row in anchors)
    for row in anchors:
        row["predecessors"] = str(row["predecessors"])
        row["gap"] = str(row["gap"])
    return _finish(out, audit, {"anchors.json": anchors}, held=held)


def _run_cfl_pipeline(exp: Experiment, out: _Outputs) -> int:
    from .grammar import NoPumpError, cfl_nonrandom_pipeline, cyk_member, to_cnf

    domain = exp.dfa("domain")
    grammar = _load_grammar(exp.path("grammar"))
    cnf = to_cnf(grammar)
    try:
        setup, r, side = cfl_nonrandom_pipeline(cnf, domain)
    except EmptyLanguageError as exc:  # no domain word is long enough to pump
        raise ConfigError(f"the cfl pipeline needs an infinite domain: {exc}") from None
    except NoPumpError as exc:
        raise ConfigError(f"the cfl pipeline found no infinite regular subset: "
                          f"{exc}") from None
    if exp.threshold <= setup.start.capital:
        raise ConfigError(f"threshold {exp.threshold} must exceed the starting "
                          f"capital {setup.start.capital}")
    oracle = lambda w: cyk_member(cnf, w)
    trace = run(setup, ll_text(domain), oracle, exp.steps, stop_threshold=exp.threshold,
                trace=out.trace())
    audit = _audited(setup, domain, exp.seed)
    members = enumerate_ll(r, 100)
    expect = side == "inside"
    leaks = [w for w in members if cyk_member(cnf, w) != expect]
    reached = succeeded(trace, exp.threshold)
    held = reached and not leaks
    if leaks:
        print(f"extracted subset leaks: {leaks[:3]}", file=sys.stderr)
    if not reached:
        print(f"threshold {exp.threshold} not reached in {len(trace) - 1} stages: "
              f"final capital {trace.final}, maximum {trace.max_capital()}",
              file=sys.stderr)
    extra = {"extracted.json": {"side": side, "dfa": r.to_json(),
                                "first_members": members[:20]}}
    return _finish(out, audit, extra, held=held)


def _run_growth_report(exp: Experiment, out: _Outputs) -> int:
    domain = exp.dfa("domain")
    report = _growth_obj(domain)
    out.json("growth.json", report)
    return 0 if report["consistent"] else 1


# A slice is listed word by word, to check its count, up to this many words.
GROWTH_LISTING_LIMIT = 4096


def _growth_obj(domain: Dfa) -> dict:
    """The growth class and the slice counts up to length 12.  Over k
    letters the slices of length n of the domain and of its complement
    must count k**n together, and the smaller one is listed when it has at
    most GROWTH_LISTING_LIMIT words; "listed" names those lengths."""
    from .regular import complement, growth_class

    cls = growth_class(domain)
    other = complement(domain)  # the Dfa constructor completes every table
    k = len(domain.alphabets[0])
    counts = [slice_count(domain, n) for n in range(13)]
    listed = {"members": [], "complement": []}
    consistent = True
    for n, count in enumerate(counts):
        rest = slice_count(other, n)
        consistent = consistent and count + rest == k**n
        side, lang, size = (("members", domain, count) if count <= rest
                             else ("complement", other, rest))
        if size <= GROWTH_LISTING_LIMIT:
            consistent = consistent and len(words_of_length(lang, n)) == size
            listed[side].append(n)
    if cls.kind == "bounded":
        consistent = consistent and all(c <= cls.bound for c in counts)
    return {
        "class": cls.kind,
        "bound": cls.bound,
        "slice_counts": counts,
        "listed": listed,
        "consistent": consistent,
    }


def _run_dyadic_audit(exp: Experiment, out: _Outputs) -> int:
    from .tworow import decode_tworow, encode_tworow, rel_l, rel_p, rel_z, tworow_add

    rng = Lcg(exp.seed)
    count = exp._num("count", 10000)
    failures = []
    max_carry = 0
    for _ in range(count):
        x, y = rng.dyadic(), rng.dyadic()
        cx, cy = encode_tworow(x), encode_tworow(y)
        log: list[int] = []
        total = tworow_add(cx, cy, log)
        if log:
            max_carry = max(max_carry, max(log))
        if decode_tworow(total) != x + y:
            failures.append(f"add mismatch at {x}, {y}")
        if rel_l(cx, cy) != (x < y) or rel_z(cx) != (x.num == 0) \
                or rel_p(cx) != (x.num > 0):
            failures.append(f"relation mismatch at {x}, {y}")
    if max_carry > 1:
        failures.append(f"carry state used {max_carry} > 1 bit")
    out.json("audit.json", failures)
    for f in failures[:5]:
        print(f, file=sys.stderr)
    return 0 if not failures else 1


_HANDLERS = {
    "regular-bettor": _run_regular_bettor,
    "subset-bettor": _run_subset_bettor,
    "adversarial": _run_adversarial,
    "family-learner": lambda e, o: _run_family_learner(e, o, variant=False),
    "variant-learner": lambda e, o: _run_family_learner(e, o, variant=True),
    "tm-dynamic": _run_tm_dynamic,
    "diagonalize": _run_diagonalize,
    "pclass": _run_pclass,
    "cfl-pipeline": _run_cfl_pipeline,
    "growth-report": _run_growth_report,
    "dyadic-audit": _run_dyadic_audit,
}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    try:
        exp = Experiment(Path(args.config), args)
        handler = _HANDLERS.get(exp.kind)
        if handler is None:
            raise ConfigError(f"unknown experiment kind {exp.kind!r}")
        with _Outputs(Path(args.out_dir)) as out:
            return handler(exp, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TextExhaustedError, ValidityBudgetError) as exc:
        print(f"text error: {exc}", file=sys.stderr)
        return 2


def cmd_verify(args) -> int:
    try:
        cert = DiagonalCertificate.from_json_obj(_load_json(Path(args.certificate)))
        if not cert.setup_descriptors or not cert.domain_json:
            raise ConfigError("certificate carries no rebuildable setups")
        if cert.weight_base != WEIGHT_BASE:
            raise ConfigError(f"weight base {cert.weight_base} is not {WEIGHT_BASE}")
        try:
            descriptors = [json.loads(d) for d in cert.setup_descriptors]
        except RecursionError:
            raise ConfigError("a setup descriptor is nested too deeply") from None
        domain = Dfa.from_json(cert.domain_json)
        if domain.arity != 1:
            raise ConfigError(f"the domain reads {domain.arity} tracks, not 1")
        setups = [_descriptor_setup(d, domain, f"setup {d['kind']}") for d in descriptors]
    except (ConfigError, KeyError, ValueError, TypeError) as exc:
        print(f"bad certificate: {exc}", file=sys.stderr)
        return 2
    expected = enumeration_hash(list(cert.setup_descriptors), cert.domain_json)
    problems = [] if cert.enum_hash == expected else [
        f"enum_hash {cert.enum_hash!r} is not {expected!r}, the hash of the "
        f"certificate's setups, domain and weight base"]
    problems += replay_certificate(cert, setups, domain)
    for message in problems:
        print(message, file=sys.stderr)
    if not problems:
        print(f"certificate verified: {len(cert.entries)} words, "
              f"capitals replayed exactly")
    return 0 if not problems else 1


def cmd_growth(args) -> int:
    try:
        domain = _load_dfa(Path(args.dfa_file))
    except ConfigError as exc:
        print(f"cannot load automaton: {exc}", file=sys.stderr)
        return 2
    report = _growth_obj(domain)
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0 if report["consistent"] else 1


def cmd_audit(args) -> int:
    try:
        if not args.dfa:
            raise ConfigError("--dfa required")
        domain = _load_dfa(Path(args.dfa))
        if args.setup_kind == "regular-bettor":
            setup = regular_bettor(domain)
        elif args.setup_kind == "subset-bettor":
            setup = subset_bettor(domain, args.side)
        else:
            raise ConfigError(f"unknown setup kind {args.setup_kind!r}")
        if args.seed <= 0:
            raise ConfigError(f"seed must be positive, got {args.seed}")
    except (ConfigError, ValueError) as exc:
        print(f"audit setup error: {exc}", file=sys.stderr)
        return 2
    report = audit_fairness(setup, _probe_words(domain, args.seed))
    try:
        with _Outputs(Path(args.out_dir)) as out:
            out.json("audit.json", report.to_json_obj())
    except ConfigError as exc:
        print(f"audit output error: {exc}", file=sys.stderr)
        return 2
    print(f"checked {report.transitions_checked} transitions, "
          f"{len(report.violations)} violations, {report.states_visited} states visited, "
          f"{'closed' if report.closed else 'open'}")
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="langmart", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--steps", type=int)
    p_run.add_argument("--threshold", help='capital threshold, "num/2^exp"')
    p_run.add_argument("--horizon", type=int)
    p_run.add_argument("--search-bound", type=int, dest="search_bound")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out-dir", default=".", dest="out_dir")
    p_run.add_argument("--replay", action="store_true")
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser("verify", help="replay a certificate")
    p_verify.add_argument("certificate")
    p_verify.set_defaults(fn=cmd_verify)

    p_growth = sub.add_parser("growth", help="classify a domain's growth")
    p_growth.add_argument("dfa_file")
    p_growth.set_defaults(fn=cmd_growth)

    p_audit = sub.add_parser("audit", help="fairness-audit a construction")
    p_audit.add_argument("setup_kind")
    p_audit.add_argument("--dfa")
    p_audit.add_argument("--side", default="inside")
    p_audit.add_argument("--seed", type=int, default=1)
    p_audit.add_argument("--out-dir", default=".", dest="out_dir")
    p_audit.set_defaults(fn=cmd_audit)

    args = parser.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        # capitals are exact integers of any size, written in decimal
        sys.set_int_max_str_digits(0)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
