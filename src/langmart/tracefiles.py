"""The trace files: `TraceFiles`, the sink that writes trace.csv and
trace.json as a run goes, and `read_trace`, which reads a trace.csv back.

Only a run that writes a trace loads this module, and with it decimal.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from json.encoder import encode_basestring_ascii as _json_str

from .dyadic import Dyadic
from .engine import CapitalTrace, TraceEntry

_CSV_HEADER = "stage,word,label,capital_num,capital_exp"

# Exact decimal arithmetic: a product that would round raises instead.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])


class TraceFiles:
    """The file sink: `append` writes a stage's line of trace.csv to
    csv_path and its record of trace.json to json_path (either may be None)
    as it arrives, the bytes of `csv.writer` and of `json.dump(...,
    indent=1, sort_keys=True)` plus a newline; a pause's word is '#'.

    It keeps the number of stages (its len), the start and final capital,
    and the last numerator with its decimal numeral.  str() of an int is
    quadratic in its size, so a numerator that is the previous one times an
    integer of at most 64 bits gets its numeral by one exact, linear
    Decimal multiply (see `_carry`), any other is converted afresh, and a
    kept capital is not converted again.
    `max_capital` and `entries` read trace.csv back, so a stage pays for
    neither.

    The sink writes to the paths it is given and nothing else: the CLI's
    output stage chooses them and gives the files their names.  As a
    context manager it closes when the block ends."""

    def __init__(self, csv_path=None, json_path=None):
        self.stages = 0
        self.start = self.final = None
        self._num, self._numeral, self._text, self._sep = 0, None, "0", "[\n"
        self._csv = self._json = None
        try:
            self._csv = None if csv_path is None else open(csv_path, "w", newline="")
            self._json = None if json_path is None else open(json_path, "w")
        except BaseException:
            self.close()
            raise
        if self._csv is not None:
            self._csv.write(_CSV_HEADER + "\r\n")

    def append(self, word, label, capital: Dyadic) -> None:
        """Write the next stage; word and label are None for the start and
        for a pause."""
        stage = self.stages
        self.stages = stage + 1
        if capital is not self.final:  # a pause keeps the capital object
            self.final = capital
            if capital.num != self._num:
                self._numeral = _carry(self._num, self._numeral, capital.num)
                self._num = capital.num
                self._text = str(self._numeral)
        num, exp = self._text, capital.exp
        if word is None:
            word, label = "#", ""
            if not stage:
                word, self.start = "", capital
        else:
            label = str(label)
        if self._csv is not None:
            cell = word
            if "," in word or '"' in word or "\r" in word or "\n" in word:
                cell = '"' + word.replace('"', '""') + '"'
            self._csv.write(f"{stage},{cell},{label},{num},{exp}\r\n")
        if self._json is not None:
            self._json.write(f'{self._sep} {{\n  "capital_exp": {exp},\n  "capital_num": {num},'
                             f'\n  "label": {_json_str(label)},\n  "stage": {stage},'
                             f'\n  "word": {_json_str(word)}\n }}')
            self._sep = ",\n"

    def __len__(self):
        return self.stages

    def _read(self) -> CapitalTrace:
        """The stages written so far, read back from trace.csv."""
        if not self._csv.closed:
            self._csv.flush()
        return read_trace(self._csv.name)

    def max_capital(self) -> Dyadic:
        """The first largest capital, read back: no stage pays for it."""
        return self._read().max_capital()

    # perfbench's tracer reads entries by name; it goes once a benchmark change unpins it.
    @property
    def entries(self) -> list[TraceEntry]:
        return self._read().entries

    def close(self) -> None:
        """Finish trace.json and close both files; closing again does nothing."""
        if self._json is not None and not self._json.closed:
            self._json.write("[]\n" if self._sep == "[\n" else "\n]\n")
        for fh in (self._csv, self._json):
            if fh is not None:
                fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *_):
        self.close()


def _carry(old: int, numeral: Decimal | None, new: int) -> Decimal:
    """new as a Decimal, given old and its numeral: numeral * (new // old)
    when old > 0 divides new with a quotient of at most 64 bits, else
    Decimal(new).  The bit-length guard keeps divmod linear: a large
    quotient would make it quadratic."""
    if old > 0 and 0 <= new.bit_length() - old.bit_length() <= 64:
        q, r = divmod(new, old)
        if not r:
            return _EXACT.multiply(numeral, q)
    return Decimal(new)


def read_trace(csv_path) -> CapitalTrace:
    """The trace a trace.csv holds, read back exactly.  A row with an empty
    label is the start (stage 0) or a pause: its word is None."""
    import csv

    trace = CapitalTrace()
    with open(csv_path, newline="") as fh:
        rows = csv.reader(fh)
        if next(rows, None) != _CSV_HEADER.split(","):
            raise ValueError(f"{csv_path} does not start with the header {_CSV_HEADER}")
        for stage, (n, word, label, num, exp) in enumerate(rows):
            if int(n) != stage:
                raise ValueError(f"row {stage + 1} of {csv_path} has stage {n}")
            if label:
                trace.append(word, int(label), Dyadic(int(num), int(exp)))
            else:
                trace.append(None, None, Dyadic(int(num), int(exp)))
    return trace
