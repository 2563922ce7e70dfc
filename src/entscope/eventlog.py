"""Per-slot click records from Monte Carlo runs, with JSON-lines persistence.

A record is one detector click: (time slot, telescope id, detector id in
{1, 2}, accepted flag, delay-setting index).  Records are stored columnar for
speed; serialization is line-oriented JSON with a schema-version header line
so logs are streamable and diffable.  Serialization is byte-deterministic for
identical runs.

The canonical record line is part of schema v1: compact JSON with sorted
keys, e.g. ``{"acc":true,"delta":0.0,"det":1,"slot":0,"tel":0}``.  Every
line starts with one of 4 * n_deltas prefixes, up to ``"slot":``, built from
the header's deltas by one helper for the writer and the reader.  The writer
emits only that layout.  The reader parses each block as a numpy byte array
when every line in it is byte-identical to a line the writer writes; any
other block, including valid JSON records in another layout (whitespace,
another key order), goes through the reference parser, one ``json.loads``
per line.

Logs stream in both directions, so memory does not grow with the slot count.
``JsonlWriter`` appends a log given as consecutive chunks (the sampler's slot
ranges).  One block reader parses a file ``READ_BLOCK_CHARS`` at a time and
runs ``EventLog.validate``'s checks per block; ``EventLog.read_jsonl`` joins
its blocks, and ``FringeCounter.from_jsonl`` reduces them to per-delay counts
without building the columns.  ``FringeCounter`` pairs accepted records
across block edges; ``fringe_counts`` is that counter over one whole log.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SCHEMA = "entscope.eventlog.v1"

# Records formatted per write() call; bounds the text held in memory.
WRITE_BLOCK_RECORDS = 1 << 14
# Characters read per block; larger blocks raise peak RSS for no speed gain.
READ_BLOCK_CHARS = 1 << 18

# Record columns, in the order the reader and counters take them.
COLUMNS = ("slot", "telescope", "detector", "accepted", "delta_index")

@dataclass
class EventLog:
    scheme: str
    n_slots: int
    deltas: tuple[float, ...]
    slot: np.ndarray
    telescope: np.ndarray
    detector: np.ndarray
    accepted: np.ndarray
    delta_index: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.slot = np.asarray(self.slot, dtype=np.int64)
        self.telescope = np.asarray(self.telescope, dtype=np.int64)
        self.detector = np.asarray(self.detector, dtype=np.int64)
        self.accepted = np.asarray(self.accepted, dtype=bool)
        self.delta_index = np.asarray(self.delta_index, dtype=np.int64)
        self.validate()

    def validate(self) -> None:
        for name in COLUMNS[1:]:
            if len(getattr(self, name)) != len(self.slot):
                raise ValueError(f"column {name} length mismatch")
        checks = _Checks()
        checks.add(self.slot, self.detector, self.delta_index)
        checks.raise_first(self.n_slots, len(self.deltas))

    def __len__(self) -> int:
        return len(self.slot)

    def columns(self) -> tuple[np.ndarray, ...]:
        """The record columns in COLUMNS order."""
        return tuple(getattr(self, name) for name in COLUMNS)

    def n_accepted_slots(self) -> int:
        return len(np.unique(self.slot[self.accepted]))

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            JsonlWriter(fh).write(self)

    @classmethod
    def read_jsonl(cls, path) -> "EventLog":
        with open(path, "r", encoding="ascii") as fh:
            reader = _BlockReader(fh, path)
            # Typed empty columns first, so a log may hold no records.
            blocks = [_line_columns((), {}), *reader.blocks()]
        columns = (np.concatenate(c) for c in zip(*blocks))
        return cls(**reader.fields(), **dict(zip(COLUMNS, columns)))


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _prefixes(deltas) -> list[str]:
    """The 4 * n_deltas record line prefixes, up to and including
    '"slot":', indexed by (accepted * n_deltas + delta index) * 2 +
    (detector - 1)."""
    return [_dumps({"acc": acc, "delta": float(d), "det": det})[:-1] + ',"slot":'
            for acc in (False, True) for d in deltas for det in (1, 2)]


class JsonlWriter:
    """Writes one event log, given as consecutive chunks, to an open text file.

    The first chunk's fields make the header line.  Every record line starts
    with its row of _prefixes(deltas); lines are formatted and written
    WRITE_BLOCK_RECORDS at a time.
    """

    def __init__(self, fh) -> None:
        self.fh = fh
        self.prefixes: list[str] | None = None

    def write(self, log: EventLog) -> None:
        if self.prefixes is None:
            self.fh.write(_dumps({"schema": SCHEMA, "scheme": log.scheme,
                                  "n_slots": log.n_slots, "deltas": list(log.deltas),
                                  "meta": log.meta}) + "\n")
            self.prefixes = _prefixes(log.deltas)
        prefixes = self.prefixes
        code = (log.accepted * len(log.deltas) + log.delta_index) * 2 + log.detector - 1
        for start in range(0, len(log), WRITE_BLOCK_RECORDS):
            block = slice(start, start + WRITE_BLOCK_RECORDS)
            self.fh.write("".join([
                f'{prefixes[c]}{s},"tel":{t}}}\n' for c, s, t in zip(
                    code[block].tolist(), log.slot[block].tolist(),
                    log.telescope[block].tolist())]))


class _Checks:
    """EventLog.validate's checks over one log's records, fed block by block.

    Faults are held, and raise_first raises the error that validate raises
    on the whole log.
    """

    def __init__(self) -> None:
        self.last = -math.inf  # slot of the last record so far
        self.unsorted = self.bad_detector = False
        self.slots = self.indices = (math.inf, -math.inf)  # (min, max) so far

    def add(self, slot: np.ndarray, detector: np.ndarray, delta_index: np.ndarray) -> None:
        if not len(slot):
            return
        self.unsorted |= bool(np.any(np.diff(slot) < 0) or slot[0] < self.last)
        self.last = slot[-1]
        self.bad_detector |= not np.all(np.isin(detector, (1, 2)))
        self.slots = (min(self.slots[0], slot.min()), max(self.slots[1], slot.max()))
        self.indices = (min(self.indices[0], delta_index.min()),
                        max(self.indices[1], delta_index.max()))

    def raise_first(self, n_slots: int, n_deltas: int) -> None:
        if self.unsorted:
            raise ValueError("slots must be non-decreasing")
        if self.slots[0] < 0 or self.slots[1] >= n_slots:
            raise ValueError("slot index out of range")
        if self.bad_detector:
            raise ValueError("detector ids must be 1 or 2")
        if self.indices[0] < 0 or self.indices[1] >= n_deltas:
            raise ValueError("delta index out of range")


_MAX_DIGITS = 18  # a decimal of up to 18 digits always fits in int64


def _decimal(windows, stop, count) -> np.ndarray | None:
    """The numbers whose count[i] digits end before byte stop[i], if each is
    1 to _MAX_DIGITS digits without a leading zero; else None.  windows are
    the block's byte windows, at least _MAX_DIGITS wide, and every stop is
    past a matched line prefix, so at least _MAX_DIGITS."""
    if not (np.all(count >= 1) and np.all(count <= _MAX_DIGITS)):
        return None
    width = int(count.max())
    digits = windows[stop - width, :width] - np.uint8(ord("0"))  # wraps below "0"
    used = np.arange(width, 0, -1) <= count[:, None]
    if np.any((digits > 9) & used) or np.any((windows[stop - count, 0] == ord("0")) & (count > 1)):
        return None
    digits *= used
    value = np.zeros(len(stop), dtype=np.int64)
    for column in digits.T:
        value = value * 10 + column
    return value


def _line_columns(lines, lookup: dict) -> tuple[np.ndarray, ...]:
    """Record columns from one json.loads per line, the reference parser."""
    cols: tuple[list, ...] = ([], [], [], [], [])
    for line in lines:
        rec = json.loads(line)
        cols[0].append(rec["slot"])
        cols[1].append(rec["tel"])
        cols[2].append(rec["det"])
        cols[3].append(rec["acc"])
        cols[4].append(lookup[rec["delta"]])
    return tuple(np.array(c, dtype=bool if k == 3 else np.int64) for k, c in enumerate(cols))


class _BlockReader:
    """One event log, read from an open file block by block.

    The constructor reads the header and rejects repeated delta values, which
    would make the delta lookup ambiguous.  blocks() yields the record
    columns of each block of whole lines.  A block whose every line is
    byte-identical to one JsonlWriter writes for this header is parsed as a
    numpy byte array: each line's prefix must equal a row of the writer's
    prefix table and its slot and tel must be 1-18 digits without a leading
    zero, so the columns are those that json.loads gives line by line.  Any
    other block goes through the per-line parser, which raises on the first
    bad line.  A parse error raises where it is met; fields() settles the
    header fields and the validation checks after the last block, so a log
    raises the error it raises when parsed whole first.
    """

    def __init__(self, fh, path) -> None:
        header = json.loads(fh.readline())
        schema = header.get("schema") if isinstance(header, dict) else None
        if schema != SCHEMA:
            raise ValueError(f"{path}: unsupported schema {schema!r}")
        self.fh, self.header = fh, header
        self.deltas = tuple(float(d) for d in header["deltas"])
        self.lookup = {d: i for i, d in enumerate(self.deltas)}
        if len(self.lookup) != len(self.deltas):
            raise ValueError(f"{path}: repeated delta values in {list(self.deltas)}")
        # The writer's prefix table as byte strings null-padded to whole
        # uint64 words, sorted so that a line's prefix finds its row by
        # binary search; masks[k] keeps the first k bytes of a row.
        prefixes = [p.encode("ascii") for p in _prefixes(self.deltas)]
        width = -(-max(map(len, prefixes), default=1) // 8) * 8
        keys = np.array(prefixes, dtype=f"S{width}")
        self.rows = np.argsort(keys)
        self.keys = keys[self.rows]
        self.words = self.keys.view(np.uint64).reshape(len(keys), width // 8)
        self.lengths = np.array([len(p) for p in prefixes], dtype=np.int64)[self.rows]
        self.masks = np.where(np.arange(width) < np.arange(width + 1)[:, None],
                              np.uint8(255), np.uint8(0)).view(np.uint64)
        self.checks = _Checks()

    def blocks(self):
        tail = ""
        while text := self.fh.read(READ_BLOCK_CHARS):
            text = tail + text
            cut = text.rfind("\n") + 1
            tail = text[cut:]
            yield self._parse(text[:cut])
        if tail:  # last line without a newline
            yield self._parse(tail + "\n")

    def _parse(self, block: str) -> tuple[np.ndarray, ...]:
        columns = self._written_columns(block.encode("ascii"))
        if columns is None:
            columns = _line_columns(block.split("\n")[:-1], self.lookup)
        self.checks.add(columns[0], columns[2], columns[4])
        return columns

    def _written_columns(self, data: bytes) -> tuple[np.ndarray, ...] | None:
        """The record columns of a block of lines ending in newlines, if
        every line is one JsonlWriter writes for this header; else None."""
        if not len(self.keys):
            return None
        width = self.keys.itemsize
        # Zero padding lets a window start at any byte of the block.
        span = max(width, _MAX_DIGITS)
        buf = np.frombuffer(data + bytes(span), np.uint8)
        end = np.flatnonzero(buf == ord("\n"))
        colon = np.flatnonzero(buf == ord(":"))
        if not len(end) or len(colon) != 5 * len(end):
            return None
        windows = sliding_window_view(buf, span)
        start = np.concatenate(([0], end[:-1] + 1))
        slot_colon, tel_colon = colon[3::5], colon[4::5]
        # Prefix: the bytes up to the fourth colon equal a table row.
        length = slot_colon + 1 - start
        prefix = windows[start, :width].view(np.uint64) & self.masks[np.clip(length, 0, width)]
        at = np.searchsorted(self.keys, prefix.view(self.keys.dtype)[:, 0])
        at = np.minimum(at, len(self.keys) - 1)
        if not (np.array_equal(self.words[at], prefix)
                and np.array_equal(self.lengths[at], length)):
            return None
        row = self.rows[at]
        # Then slot digits, ',"tel":', tel digits, '}' and the newline.
        comma = tel_colon - 6
        if not (np.all(windows[comma, :7] == np.frombuffer(b',"tel":', np.uint8))
                and np.all(buf[end - 1] == ord("}"))):
            return None
        slot = _decimal(windows, comma, comma - slot_colon - 1)
        tel = _decimal(windows, end - 1, end - 2 - tel_colon)
        if slot is None or tel is None:
            return None
        n_deltas = len(self.deltas)
        return slot, tel, row % 2 + 1, row >= 2 * n_deltas, row // 2 % n_deltas

    def fields(self) -> dict:
        """The EventLog fields other than the columns; call after blocks()."""
        header = self.header
        fields = dict(scheme=header["scheme"], n_slots=int(header["n_slots"]),
                      deltas=self.deltas, meta=header.get("meta", {}))
        self.checks.raise_first(fields["n_slots"], len(self.deltas))
        return fields


class _Pairing:
    """Pairs one log's accepted records in order, fed block by block.

    An accepted record whose partner opens the next block is carried over.
    Faults are held, and check() raises the error of pairing the whole log.
    """

    def __init__(self) -> None:
        self.carry: list[np.ndarray] | None = None  # an unpaired accepted record
        self.split = False  # some pair's records lie in two slots

    def add(self, slot, telescope, detector, accepted, delta_index):
        """(slot, telescope, detector, delta index) of the first and of the
        second record of each pair completed in this block."""
        keep = np.flatnonzero(accepted)
        cols = [c[keep] for c in (slot, telescope, detector, delta_index)]
        if self.carry is not None:
            cols = [np.concatenate(c) for c in zip(self.carry, cols)]
        paired = len(cols[0]) // 2 * 2
        self.carry = [c[paired:] for c in cols] if paired < len(cols[0]) else None
        first, second = [c[0:paired:2] for c in cols], [c[1:paired:2] for c in cols]
        self.split |= bool(np.any(first[0] != second[0]))
        return first, second

    def check(self) -> None:
        if self.carry is not None:
            raise ValueError("accepted coincidence records must come in pairs")
        if self.split:
            raise ValueError("accepted pair records must share a slot")


class FringeCounter:
    """Per-delay success/total counts for fringe fitting, fed block by block.

    Coincidence schemes: per accepted slot, success means both telescopes
    fired the same detector index (correlated outcome).  Direct detection:
    success means the accepted click landed on detector 1.  Blocks are
    consecutive runs of one log's records in COLUMNS order; a pair may
    straddle two blocks.
    """

    def __init__(self, scheme: str, deltas) -> None:
        self.scheme = scheme
        self.deltas = np.asarray(deltas, dtype=float)
        self.success = np.zeros(len(self.deltas), dtype=np.int64)
        self.total = np.zeros(len(self.deltas), dtype=np.int64)
        self.pairing = _Pairing()

    def add(self, slot, telescope, detector, accepted, delta_index) -> None:
        if self.scheme == "direct":
            di, success = delta_index[accepted], detector[accepted] == 1
        else:
            first, second = self.pairing.add(slot, telescope, detector, accepted, delta_index)
            di, success = first[3], first[2] == second[2]
        self.total += np.bincount(di, minlength=len(self.deltas))
        self.success += np.bincount(di[success], minlength=len(self.deltas))

    def counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(deltas, n_success, n_total) aligned with the delay schedule."""
        if self.scheme == "w_state":
            raise ValueError("fringe_counts handles two-telescope schemes; "
                             "use pair_counts for telescope arrays")
        self.pairing.check()
        return self.deltas, self.success, self.total

    @classmethod
    def from_jsonl(cls, path) -> "FringeCounter":
        """The counter fed every record of the event log at path, one read
        block at a time.  Raises as EventLog.read_jsonl does on a log it
        cannot read; pairing faults wait for counts()."""
        with open(path, "r", encoding="ascii") as fh:
            reader = _BlockReader(fh, path)
            # A missing scheme raises in fields(), after the body, as it
            # does in read_jsonl.
            counter = cls(reader.header.get("scheme"), reader.deltas)
            for block in reader.blocks():
                counter.add(*block)
        reader.fields()
        return counter


def fringe_counts(log: EventLog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A FringeCounter's (deltas, n_success, n_total) over the whole log."""
    counter = FringeCounter(log.scheme, log.deltas)
    counter.add(*log.columns())
    return counter.counts()


def pair_counts(log: EventLog, n_telescopes: int) -> dict[tuple[int, int], tuple[int, int]]:
    """Telescope-array coincidences: {(i, j): (n_correlated, n_total)}, i < j."""
    pairing = _Pairing()
    first, second = pairing.add(*log.columns())
    pairing.check()
    ti, tj = first[1], second[1]
    same = first[2] == second[2]
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for i in range(n_telescopes):
        for j in range(i + 1, n_telescopes):
            sel = (ti == i) & (tj == j)
            out[(i, j)] = (int(same[sel].sum()), int(sel.sum()))
    return out
