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
A streamed log is its fields (scheme, n_slots, deltas, meta) once, then blocks
of records, each a tuple of arrays in ``COLUMNS`` order.  ``JsonlWriter`` writes
the header when made and each block after it; one block reader parses a file
``READ_BLOCK_CHARS`` at a time, running ``EventLog.validate``'s checks per block.
``EventLog.joined`` makes one log of fields and blocks; ``FringeCounter`` counts
blocks, pairing accepted records across their edges, over a log or a stream.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SCHEMA = "entscope.eventlog.v1"

# Records formatted per write() call; bounds the text held in memory.  Larger
# blocks' buffers go back to the system and are faulted in again block after
# block: at 1 << 14 a 1e6-slot simulate took ~4x the page faults and ~15% longer.
WRITE_BLOCK_RECORDS = 1 << 11
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
        checks.add(*self.columns())
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
            JsonlWriter(fh, self.scheme, self.n_slots, self.deltas, self.meta).write(
                *self.columns())

    @classmethod
    def read_jsonl(cls, path) -> "EventLog":
        with open(path, "r", encoding="ascii") as fh:
            reader = _BlockReader(fh, path)
            blocks = list(reader.blocks())
        return cls.joined(reader.fields(), blocks)

    @classmethod
    def joined(cls, fields: dict, blocks) -> "EventLog":
        """The log of fields with the blocks' records, in order; there may be no blocks."""
        columns = (np.concatenate(c) for c in zip(_line_columns((), {}), *blocks))
        return cls(**fields, **dict(zip(COLUMNS, columns)))


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _prefixes(deltas) -> list[str]:
    """The 4 * n_deltas record line prefixes, up to and including
    '"slot":', indexed by (accepted * n_deltas + delta index) * 2 +
    (detector - 1)."""
    return [_dumps({"acc": acc, "delta": float(d), "det": det})[:-1] + ',"slot":'
            for acc in (False, True) for d in deltas for det in (1, 2)]


class JsonlWriter:
    """Writes one event log to an open text file: the header line of its
    fields when made, then the record lines of each block given to write().

    Every record line starts with its row of _prefixes(deltas); each run of
    up to WRITE_BLOCK_RECORDS lines is formatted by one % over the run's
    interleaved (prefix, slot, tel) values and written at once.
    """

    def __init__(self, fh, scheme: str, n_slots: int, deltas, meta: dict) -> None:
        fh.write(_dumps({"schema": SCHEMA, "scheme": scheme, "n_slots": n_slots,
                         "deltas": list(deltas), "meta": meta}) + "\n")
        self.fh, self.n_deltas = fh, len(deltas)
        self.prefixes = np.array(_prefixes(deltas), dtype=object)

    def write(self, slot, telescope, detector, accepted, delta_index) -> None:
        """Append one block of records, given as COLUMNS-ordered arrays."""
        rows = self.prefixes[(accepted * self.n_deltas + delta_index) * 2 + detector - 1]
        for start in range(0, len(slot), WRITE_BLOCK_RECORDS):
            block = slice(start, start + WRITE_BLOCK_RECORDS)
            slots = slot[block].tolist()
            args = [None] * (3 * len(slots))
            args[0::3] = rows[block].tolist()
            args[1::3] = slots
            args[2::3] = telescope[block].tolist()
            self.fh.write(('%s%d,"tel":%d}\n' * len(slots)) % tuple(args))


class _Checks:
    """EventLog.validate's checks over one log's records, fed block by block.

    Faults are held, and raise_first raises the error that validate raises
    on the whole log.
    """

    def __init__(self) -> None:
        self.last = -math.inf  # slot of the last record so far
        self.unsorted = self.bad_detector = self.negative_telescope = False
        self.slots = self.indices = (math.inf, -math.inf)  # (min, max) so far

    def add(self, slot: np.ndarray, telescope: np.ndarray, detector: np.ndarray,
            accepted: np.ndarray, delta_index: np.ndarray) -> None:
        """Take one block's COLUMNS-ordered record columns."""
        if not len(slot):
            return
        self.unsorted |= bool(np.any(np.diff(slot) < 0) or slot[0] < self.last)
        self.last = slot[-1]
        self.bad_detector |= not ((detector == 1) | (detector == 2)).all()
        self.negative_telescope |= bool(telescope.min() < 0)
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
        if self.negative_telescope:
            raise ValueError("telescope ids must be non-negative")


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


def _typed(obj: dict, key: str, kind: type):
    """obj[key] if it is a JSON boolean (kind bool) or a JSON integer within
    int64 (kind int; a boolean is none); else ValueError naming the key."""
    value = obj[key]
    if type(value) is not kind or kind is int and not -(1 << 63) <= value < 1 << 63:
        what = "an integer within int64" if kind is int else "a boolean"
        raise ValueError(f"{key} must be {what}, got {value!r}")
    return value


def _line_columns(lines, lookup: dict) -> tuple[np.ndarray, ...]:
    """Record columns from one json.loads per line, the reference parser:
    slot, tel and det must be JSON integers, acc a JSON boolean and delta a
    JSON number (a boolean is none)."""
    cols: tuple[list, ...] = ([], [], [], [], [])
    for line in lines:
        rec = json.loads(line)
        for col, key in zip(cols, ("slot", "tel", "det", "acc")):
            col.append(_typed(rec, key, bool if key == "acc" else int))
        if type(rec["delta"]) not in (int, float):
            raise ValueError(f"delta must be a number, got {rec['delta']!r}")
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
        self.checks.add(*columns)
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
        fields = dict(scheme=header["scheme"], n_slots=_typed(header, "n_slots", int),
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
    success means the accepted click landed on detector 1.  Given n_telescopes,
    it counts per telescope pair (i, j), in bin i * n_telescopes + j, for
    pairs().  Blocks are consecutive runs of one log's records in COLUMNS
    order; a pair may straddle two blocks.
    """

    def __init__(self, scheme: str, deltas, n_telescopes: int | None = None) -> None:
        self.scheme = scheme
        self.deltas = np.asarray(deltas, dtype=float)
        self.n_telescopes = n_telescopes
        bins = len(self.deltas) if n_telescopes is None else n_telescopes * n_telescopes
        self.success = np.zeros(bins, dtype=np.int64)
        self.total = np.zeros(bins, dtype=np.int64)
        self.pairing = _Pairing()

    def add(self, slot, telescope, detector, accepted, delta_index) -> None:
        n = self.n_telescopes
        if n is None and self.scheme == "direct":
            key, success = delta_index[accepted], detector[accepted] == 1
        else:
            first, second = self.pairing.add(slot, telescope, detector, accepted, delta_index)
            key = first[3] if n is None else np.ravel_multi_index((first[1], second[1]), (n, n))
            success = first[2] == second[2]
        self.total += np.bincount(key, minlength=len(self.total))
        self.success += np.bincount(key[success], minlength=len(self.total))

    def counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(deltas, n_success, n_total) aligned with the delay schedule."""
        if self.scheme == "w_state":
            raise ValueError("fringe_counts handles two-telescope schemes; "
                             "use pair_counts for telescope arrays")
        self.pairing.check()
        return self.deltas, self.success, self.total

    def pairs(self) -> dict[tuple[int, int], tuple[int, int]]:
        """{(i, j): (n_correlated, n_total)} over the telescope pairs i < j."""
        self.pairing.check()
        n, success, total = self.n_telescopes, self.success.tolist(), self.total.tolist()
        return {(i, j): (success[i * n + j], total[i * n + j])
                for i in range(n) for j in range(i + 1, n)}

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
    """Telescope-array coincidences {(i, j): (n_correlated, n_total)}, i < j, over the log."""
    counter = FringeCounter(log.scheme, log.deltas, n_telescopes)
    counter.add(*log.columns())
    return counter.pairs()
