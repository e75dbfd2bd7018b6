"""In-process tracing of `langmart` from outside its code.

`Tracer.install()` replaces public functions and methods of the package's
modules with wrappers that record spans (name, start, end, parent), and
`uninstall()` puts the originals back.  `langmart.cli` and
`langmart.constructions` import names such as `run` and `cyk_member`
directly, so a function is replaced in every `langmart` module that holds
it.  Spans stay in memory; `summary()` turns them into per-layer metrics
and `dump()` writes them out.

Three kinds of call are too frequent for a span each, so they are
aggregated instead:
  * `Dyadic` arithmetic, comparison and parsing: counted and timed in
    total (`dyadic.ops`, `dyadic.s`); their time is taken out of the
    enclosing span's self time.
  * automaton transition lookups (`Dfa.step` and the ll functions index
    `Dfa.transitions` directly): counted only, through a counting dict
    installed on every automaton built while tracing.
  * `TmProgram.step_config`: counted only.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

LAYERS = ("cli", "engine", "automata", "grammar", "dyadic", "constructions")

# [name_id, start_ns, end_ns, parent, aggregated_child_ns, work, lookups]
NAME, START, END, PARENT, AGG, WORK, LOOKUPS = range(7)

# Spans charged to another layer than the module defining the function:
# trace writing and input loading are the CLI's work.
LAYER_OF = {
    "engine.CapitalTrace.write_csv": "cli", "engine.CapitalTrace.write_json": "cli",
    "automata.Dfa.from_json": "cli", "grammar.Cfg.from_text": "cli",
    "constructions.TmProgram.from_json": "cli",
}

# Span groups behind the per-layer metrics: a group's time is the
# inclusive time of its outermost spans (a group span inside another
# span of the same group is not counted twice).
GROUPS = {
    "write": ("engine.CapitalTrace.write_csv", "engine.CapitalTrace.write_json",
              "cli._write_json"),
    "load": ("automata.Dfa.from_json", "grammar.Cfg.from_text",
             "constructions.TmProgram.from_json"),
    "run": ("engine.run", "engine.run_dynamic"),
    "step": ("engine.Setup.step", "constructions.Setup.step"),
    "audit": ("engine.audit_fairness",),
    "accepts": ("automata.Dfa.accepts",),
    "ll": ("automata.iter_ll", "automata.succ_ll", "automata.enumerate_ll"),
    "cyk": ("grammar.cyk_member",),
    "subset": ("grammar.to_cnf", "grammar.infinite_regular_subset"),
    "diagonalize": ("constructions.diagonalize",),
    "replay": ("constructions.replay_certificate",),
}

# Layer times are reported as shares of the traced iteration's wall time
# (trace.traced_s), for two reasons: a layer a workload never enters
# reads exactly 0, which is a count of nothing rather than a measured
# time, and shares move less than seconds when the host's speed drifts.
# Seconds are share * trace.traced_s; the results file lists both.
TIMES = ("cli.write", "cli.load", "engine.run_self", "engine.audit_fairness",
         "automata.accepts", "automata.ll", "grammar.cyk", "grammar.subset",
         "dyadic.time", "constructions.diagonalize", "constructions.replay",
         *(f"{layer}.self" for layer in LAYERS))

PER_LAYER = {
    "cli.bytes_written": "bytes",
    "engine.stages": "count", "engine.step_calls_per_stage": "ratio",
    "engine.audit_transitions": "count", "engine.composite_memory_chars": "chars",
    "automata.accepts_calls": "count", "automata.ll_words": "count",
    "automata.step_calls_per_ll_word": "ratio",
    "grammar.cyk_calls": "count",
    "dyadic.ops": "count", "dyadic.peak_capital_bits": "bits",
    "constructions.replay_stages_per_word": "ratio", "constructions.tm_steps": "count",
    **{f"{name}_share": "ratio" for name in TIMES},
    "trace.untraced_s": "s", "trace.traced_s": "s", "trace.overhead_s": "s",
}

_DYADIC_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__neg__", "__abs__", "__pow__", "scale_pow2", "__eq__", "__lt__",
               "__le__", "__gt__", "__ge__")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.current = -1
        self.lookups = 0
        self.tm_steps = 0
        self.dyadic_ops = 0
        self.dyadic_ns = 0
        self.in_dyadic = False
        self.peak_bits = 0
        self.memory_chars = 0
        self.bytes_written = 0
        self._patches: list = []

    # -- recording ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, nid: int) -> list:
        rec = [nid, time.perf_counter_ns(), 0, self.current, 0, 0, self.lookups]
        self.current = len(self.spans)
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        rec[LOOKUPS] = self.lookups - rec[LOOKUPS]
        self.current = rec[PARENT]

    def span(self, name: str, fn, work=None):
        """Wrap fn in a span; work(result, args) gives the span's work count."""
        nid = self._name_id(name)

        def wrapper(*args, **kwargs):
            rec = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if work is not None:
                rec[WORK] = work(result, args)
            return result

        return wrapper

    def generator_span(self, name: str, fn):
        """Wrap a generator function: each next() is one span of one word."""
        nid = self._name_id(name)

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def spans():
                while True:
                    rec = self._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(rec)
                    rec[WORK] = 1
                    yield item

            return spans()

        return wrapper

    def aggregate(self, fn):
        """Count and time a hot Dyadic operation without a span."""

        def wrapper(*args):
            if self.in_dyadic:
                return fn(*args)
            self.in_dyadic = True
            start = time.perf_counter_ns()
            try:
                return fn(*args)
            finally:
                spent = time.perf_counter_ns() - start
                self.in_dyadic = False
                self.dyadic_ops += 1
                self.dyadic_ns += spent
                if self.current >= 0:
                    self.spans[self.current][AGG] += spent

        return wrapper

    # -- installing --------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_function(self, module, name: str, wrapper) -> None:
        """Replace module.name in every langmart module that imported it."""
        original = getattr(module, name)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("langmart") \
                    and mod.__dict__.get(name) is original:
                self._patch(mod, name, wrapper)

    def install(self) -> None:
        from langmart import automata, cli, constructions, dyadic, engine, grammar

        tracer = self

        class CountingDict(dict):
            __slots__ = ()

            def __getitem__(self, key):
                tracer.lookups += 1
                return dict.__getitem__(self, key)

        dfa_init = automata.Dfa.__init__

        def counting_init(dfa, *args, **kwargs):
            dfa_init(dfa, *args, **kwargs)
            dfa.transitions = CountingDict(dfa.transitions)

        self._patch(automata.Dfa, "__init__", counting_init)

        def wrap_step(setup):
            module = setup.step.__module__.rpartition(".")[2]
            return dataclasses.replace(
                setup, step=self.span(f"{module}.Setup.step", setup.step))

        def stages_and_bits(trace, _args):
            bits = max(e.capital.num.bit_length() for e in trace.entries)
            self.peak_bits = max(self.peak_bits, bits)
            return len(trace.entries) - 1

        for name in ("run", "run_dynamic"):
            traced = self.span(f"engine.{name}", getattr(engine, name), stages_and_bits)
            self._replace_function(
                engine, name,
                lambda setup, *a, _traced=traced, **k: _traced(wrap_step(setup), *a, **k))

        def memory_chars(setup, _args):
            chars = sum(len(m) for m in setup.start.memory)
            self.memory_chars = max(self.memory_chars, chars)
            return chars

        spans = [
            (engine, "audit_fairness", lambda report, _a: report.transitions_checked),
            (engine, "truncated_sum", memory_chars),
            (automata, "succ_ll", lambda _w, _a: 1),
            (automata, "enumerate_ll", lambda words, _a: len(words)),
            (grammar, "cyk_member", None),
            (grammar, "to_cnf", None),
            (grammar, "infinite_regular_subset", None),
            (constructions, "diagonalize", None),
            (constructions, "replay_certificate", lambda _p, args: len(args[0].entries)),
            (constructions, "build_setup", None),
            (cli, "_write_json", lambda _r, args: self._count_bytes(args[0])),
        ]
        for module, name, work in spans:
            short = module.__name__.rpartition(".")[2]
            self._replace_function(
                module, name, self.span(f"{short}.{name}", getattr(module, name), work))
        self._replace_function(
            automata, "iter_ll", self.generator_span("automata.iter_ll", automata.iter_ll))

        methods = [
            (automata.Dfa, "accepts", automata.Dfa.accepts),
            (engine.CapitalTrace, "write_csv", engine.CapitalTrace.write_csv),
            (engine.CapitalTrace, "write_json", engine.CapitalTrace.write_json),
            (constructions.TmProgram, "decide", constructions.TmProgram.decide),
        ]
        for owner, name, fn in methods:
            short = owner.__module__.rpartition(".")[2]
            work = (lambda _r, args: self._count_bytes(args[1])) \
                if name.startswith("write") else None
            self._patch(owner, name, self.span(f"{short}.{owner.__name__}.{name}", fn, work))
        for owner in (automata.Dfa, grammar.Cfg, constructions.TmProgram):
            loader = "from_json" if owner is not grammar.Cfg else "from_text"
            fn = owner.__dict__[loader].__func__
            short = owner.__module__.rpartition(".")[2]
            self._patch(owner, loader, classmethod(
                self.span(f"{short}.{owner.__name__}.{loader}", fn)))

        step_config = constructions.TmProgram.step_config

        def counted_step_config(prog, config):
            tracer.tm_steps += 1
            return step_config(prog, config)

        self._patch(constructions.TmProgram, "step_config", counted_step_config)

        for op in _DYADIC_OPS:
            self._patch(dyadic.Dyadic, op, self.aggregate(dyadic.Dyadic.__dict__[op]))
        parse = dyadic.Dyadic.__dict__["parse"].__func__
        self._patch(dyadic.Dyadic, "parse", classmethod(self.aggregate(parse)))

    def _count_bytes(self, path) -> int:
        size = Path(path).stat().st_size
        self.bytes_written += size
        return size

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def wrap_main(self, main):
        return self.span("cli.main", main)

    # -- reporting ---------------------------------------------------------------

    def summary(self) -> tuple[dict, dict]:
        """Per-layer counts, and per-layer times in seconds (keys of TIMES)."""
        spans, names = self.spans, self.names
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_ns[rec[PARENT]] += rec[END] - rec[START]
        layer_of = [LAYER_OF.get(n, n.partition(".")[0]) for n in names]
        group_of = {}
        for group, members in GROUPS.items():
            for member in members:
                group_of[member] = group
        span_group = [group_of.get(n) for n in names]

        self_ns = dict.fromkeys(LAYERS, 0)
        group_ns: dict = {}
        group_work: dict = {}
        group_calls: dict = {}
        group_lookups: dict = {}
        run_self = 0
        replay_stages = 0
        # groups of each span's ancestors, and of the span and its ancestors;
        # a parent is always recorded before its children
        outer: list = []
        interned: dict = {}
        for i, rec in enumerate(spans):
            ancestors = outer[rec[PARENT]] if rec[PARENT] >= 0 else frozenset()
            key = (ancestors, span_group[rec[NAME]])
            if key not in interned:
                interned[key] = ancestors | {key[1]}
            outer.append(interned[key])
            dur = rec[END] - rec[START]
            own = dur - child_ns[i] - rec[AGG]
            self_ns[layer_of[rec[NAME]]] += own
            group = span_group[rec[NAME]]
            if group is None:
                continue
            if group == "run":
                run_self += own
            group_calls[group] = group_calls.get(group, 0) + 1
            if group == "run" and "replay" in ancestors:
                replay_stages += rec[WORK]
            if group in ancestors:
                continue
            group_ns[group] = group_ns.get(group, 0) + dur
            group_work[group] = group_work.get(group, 0) + rec[WORK]
            group_lookups[group] = group_lookups.get(group, 0) + rec[LOOKUPS]
        self_ns["dyadic"] += self.dyadic_ns

        def secs(group):
            return group_ns.get(group, 0) / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        stages = group_work.get("run", 0)
        ll_words = group_work.get("ll", 0)
        replay_words = group_work.get("replay", 0)
        counts = {
            "cli.bytes_written": self.bytes_written,
            "engine.stages": stages,
            "engine.step_calls_per_stage": ratio(group_calls.get("step", 0), stages),
            "engine.audit_transitions": group_work.get("audit", 0),
            "engine.composite_memory_chars": self.memory_chars,
            "automata.accepts_calls": group_calls.get("accepts", 0),
            "automata.ll_words": ll_words,
            "automata.step_calls_per_ll_word": ratio(group_lookups.get("ll", 0), ll_words),
            "grammar.cyk_calls": group_calls.get("cyk", 0),
            "dyadic.ops": self.dyadic_ops,
            "dyadic.peak_capital_bits": self.peak_bits,
            "constructions.replay_stages_per_word": ratio(replay_stages, replay_words),
            "constructions.tm_steps": self.tm_steps,
        }
        seconds = {
            "cli.write": secs("write"),
            "cli.load": secs("load"),
            "engine.run_self": run_self / 1e9,
            "engine.audit_fairness": secs("audit"),
            "automata.accepts": secs("accepts"),
            "automata.ll": secs("ll"),
            "grammar.cyk": secs("cyk"),
            "grammar.subset": secs("subset"),
            "dyadic.time": self.dyadic_ns / 1e9,
            "constructions.diagonalize": secs("diagonalize"),
            "constructions.replay": secs("replay"),
            **{f"{layer}.self": self_ns[layer] / 1e9 for layer in LAYERS},
        }
        return counts, seconds

    def dump(self, path: Path, meta: dict) -> None:
        """Write the spans: one [name, start_s, end_s, parent, work] row each."""
        t0 = self.spans[0][START] if self.spans else 0
        rows = [[self.names[r[NAME]], (r[START] - t0) / 1e9, (r[END] - t0) / 1e9,
                 r[PARENT], r[WORK]] for r in self.spans]
        with open(path, "w") as fh:
            json.dump({**meta, "columns": ["name", "start_s", "end_s", "parent", "work"],
                       "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")
