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
emits only that layout, from one format fragment per (prefix, telescope id)
pair with one ``%d`` for the slot.  Lines end at LF on every platform.  The
reader parses each block of the file's bytes as a numpy byte array when
every line in it is byte-identical to a line the writer writes; any other
block, including valid JSON records in another layout (whitespace, another
key order, CRLF), is decoded as ASCII and goes through the reference parser,
one ``json.loads`` per line.

Logs stream in both directions, so memory does not grow with the slot count.
A streamed log is its fields (scheme, n_slots, deltas, meta) once, then blocks
of records, each a tuple of arrays in ``COLUMNS`` order.  ``JsonlWriter`` writes
the header when made and each block after it; one block reader parses a file
``READ_BLOCK_CHARS`` bytes at a time into one reused buffer, running
``EventLog.validate``'s checks per block.
``EventLog.joined`` makes one log of fields and blocks; ``FringeCounter`` counts
blocks, pairing accepted records across their edges, over a log or a stream.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

SCHEMA = "entscope.eventlog.v1"

# The schemes a log can come from; `schemes` simulates each of them.
SCHEME_KINDS = ("direct", "entangled", "weak_coherent", "w_state", "hbt")

# Records formatted per % and written at once; bounds the text held in memory.
# Larger blocks' buffers go back to the system and are faulted in again block
# after block: at 1 << 14 a 1e6-slot simulate took ~4x the page faults and ~15%
# longer, and at 1 << 11 the format string and its output raised peak RSS.
WRITE_BLOCK_RECORDS = 1 << 9
# Bytes read per block; larger blocks raise peak RSS for no speed gain.
READ_BLOCK_CHARS = 1 << 18

# Record columns, in the order the reader and counters take them.
COLUMNS = ("slot", "telescope", "detector", "accepted", "delta_index")


def _check_scheme(scheme) -> None:
    if scheme not in SCHEME_KINDS:
        raise ValueError(f"scheme must be one of {SCHEME_KINDS}, got {scheme!r}")


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
        _check_scheme(self.scheme)
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
        with open(path, "wb") as fh:
            JsonlWriter(fh, self.scheme, self.n_slots, self.deltas, self.meta).write(
                *self.columns())

    @classmethod
    def read_jsonl(cls, path) -> "EventLog":
        with open(path, "rb") as fh:
            reader = _BlockReader(fh, path)
            blocks = list(reader.blocks())
        return cls.joined(reader.fields(), blocks)

    @classmethod
    def joined(cls, fields: dict, blocks) -> "EventLog":
        """The log of fields with the blocks' records, in order; there may be no blocks."""
        empty = (np.empty(0, dtype=bool if name == "accepted" else np.int64) for name in COLUMNS)
        columns = (np.concatenate(c) for c in zip(empty, *blocks))
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
    """Writes one event log to a file open for binary writing: the header
    line of its fields when made, then the record lines of each block given
    to write().  Lines end in LF, which a binary file does not translate.

    Every record line is its row of _prefixes(deltas), the slot and
    ',"tel":<id>}' with a newline.  The writer keeps one format fragment
    per (prefix row, telescope id) pair, for the ids it has met: the line
    with '%d' for the slot.  Each run of up to WRITE_BLOCK_RECORDS lines is
    the "".join of its fragments, encoded as ASCII, formatted by one bytes %
    over its slots and written at once.  bytes % formats a run in about
    half the time of str %; the fragments stay str because b"".join holds
    one buffer view (80 bytes) per fragment, which raised peak RSS.
    """

    def __init__(self, fh, scheme: str, n_slots: int, deltas, meta: dict) -> None:
        fh.write((_dumps({"schema": SCHEMA, "scheme": scheme, "n_slots": n_slots,
                          "deltas": list(deltas), "meta": meta}) + "\n").encode("ascii"))
        self.fh, self.deltas = fh, deltas
        # The telescope ids met so far, sorted; fragments[i * 4 * n_deltas +
        # row] are the fragments of ids[i].  The table is all the writer
        # keeps: at 128 deltas and two telescopes its 1,024 strings hold
        # about 126 KB.
        self.ids = np.zeros(0, dtype=np.int64)
        self.fragments = np.zeros(0, dtype=object)

    def _fragments(self, telescope: np.ndarray, row: np.ndarray) -> np.ndarray:
        """Each record's fragment; ids not met before rebuild the table."""
        at = self.ids.searchsorted(telescope)
        if not ((at < len(self.ids)).all() and (self.ids[at] == telescope).all()):
            self.ids = np.array(sorted(set(telescope.tolist()).union(self.ids.tolist())),
                                dtype=np.int64)
            prefixes = [p.replace("%", "%%") for p in _prefixes(self.deltas)]
            self.fragments = np.array([f'{p}%d,"tel":{t}}}\n' for t in self.ids.tolist()
                                       for p in prefixes], dtype=object)
            at = self.ids.searchsorted(telescope)
        return self.fragments[at * (4 * len(self.deltas)) + row]

    def write(self, slot, telescope, detector, accepted, delta_index) -> None:
        """Append one block of records, given as COLUMNS-ordered arrays."""
        fragments = self._fragments(
            telescope, (accepted * len(self.deltas) + delta_index) * 2 + detector - 1)
        for start in range(0, len(slot), WRITE_BLOCK_RECORDS):
            block = slice(start, start + WRITE_BLOCK_RECORDS)
            self.fh.write("".join(fragments[block].tolist()).encode("ascii")
                          % tuple(slot[block].tolist()))


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
# Words of eight bytes "0" or 0x80, and ',"tel":' in a word's low 7 bytes.
_ZEROS, _HIGH = (int(byte * 8, 16) for byte in ("30", "80"))
_TEL = int.from_bytes(b',"tel":', "little")


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
    """One event log, read from a file opened in binary mode, block by block.

    The file is read READ_BLOCK_CHARS bytes at a time into one reused
    bytearray, zero-padded past its data and grown only for a line longer
    than a block.  Lines end at LF only: a CRLF line reads through json.loads,
    to which its CR is whitespace, and a lone CR ends no line.

    The constructor reads the header, decoded as ASCII; its deltas must be a
    JSON array of JSON numbers, none boolean, and distinct, since a repeat
    would make the delta lookup ambiguous.  blocks() yields the record
    columns of each block of whole lines.  A block whose every line is
    byte-identical to one JsonlWriter writes for this header is parsed as a
    numpy byte array over the buffer: each line's prefix must equal a row of
    the writer's prefix table, in two 32-byte windows and in length, and its
    slot and tel must be 1-18 digits without a leading zero, so the columns
    are those that json.loads gives line by line.  Any other block is
    decoded as ASCII and goes through the per-line parser, which raises on
    the first bad line.  A parse error raises where it is met; fields()
    settles the header fields and the validation checks after the last
    block, so a log raises the error it raises when parsed whole first.
    """

    def __init__(self, fh, path) -> None:
        self.fh, self.buf, self.end = fh, bytearray(), 0  # the data is buf[:end]
        self.pad = 0  # zero bytes kept past the data
        header = json.loads(self._first_line())
        schema = header.get("schema") if isinstance(header, dict) else None
        if schema != SCHEMA:
            raise ValueError(f"{path}: unsupported schema {schema!r}")
        self.header = header
        deltas = header["deltas"]
        if type(deltas) is not list or any(type(d) not in (int, float) for d in deltas):
            raise ValueError(f"deltas must be an array of numbers, got {deltas!r}")
        self.deltas = tuple(float(d) for d in deltas)
        self.lookup = {d: i for i, d in enumerate(self.deltas)}
        if len(self.lookup) != len(self.deltas):
            raise ValueError(f"{path}: repeated delta values in {list(self.deltas)}")
        # The writer's prefix table.  A row is 39-61 bytes long, as a float's
        # repr is 3-24 characters ("0.0" to "-2.2250738585072014e-308"; "NaN"
        # and "Infinity" fall between), so its first 32 bytes (its head) and
        # the 32 that end it (its tail) cover it.  Rows are sorted by a hash
        # of those eight uint64 words, so that a line's prefix finds its row
        # by binary search; its words and length must then equal the row's.
        prefixes = [p.encode("ascii") for p in _prefixes(self.deltas)]
        head, tail = (np.array(part, dtype="S32").view(np.uint64).reshape(-1, 4)
                      for part in ([p[:32] for p in prefixes], [p[-32:] for p in prefixes]))
        self.hash = np.uint64(0x9E3779B97F4A7C15) ** np.arange(1, 9, dtype=np.uint64).reshape(2, 4)
        hashes = head @ self.hash[0] + tail @ self.hash[1]
        self.rows = np.argsort(hashes)
        self.hashes, self.heads, self.tails = hashes[self.rows], head[self.rows], tail[self.rows]
        self.lengths = np.array([len(p) for p in prefixes], dtype=np.int64)[self.rows]
        # keep[k] keeps a little-endian word's last k bytes; least[k] is the least k-digit decimal.
        self.keep = np.array([(1 << 64) - (1 << 64 - 8 * k) for k in range(9)], dtype=np.uint64)
        self.least = np.array([0, 0] + [10 ** k for k in range(1, _MAX_DIGITS)], dtype=np.uint64)
        # Windows and loads reach 31 bytes past a block, and one more byte
        # takes the newline of a last line that has none.
        self.pad = 32
        self.checks = _Checks()

    def _fill(self, size: int) -> int:
        """Read up to size more bytes into the buffer after its data; the
        count read, 0 at the end of the file."""
        self.buf += bytes(max(0, self.end + size + self.pad - len(self.buf)))
        with memoryview(self.buf) as view:
            n = self.fh.readinto(view[self.end:self.end + size])
        self.end += n
        self.buf[self.end:self.end + self.pad] = bytes(self.pad)
        return n

    def _first_line(self) -> str:
        """The header line; it and its LF leave the buffer."""
        # Read on, doubling the data, until the first LF or the end of the file.
        while self.buf.find(b"\n", 0, self.end) < 0 and self._fill(max(self.end, 1 << 12)):
            pass
        line, lf, _ = self.buf[:self.end].partition(b"\n")
        self._drop(len(line) + len(lf))
        return line.decode("ascii")

    def _drop(self, cut: int) -> None:
        """Take the first cut bytes of data off the buffer."""
        self.buf[:self.end - cut] = self.buf[cut:self.end]
        self.end -= cut

    def blocks(self):
        while (more := self._fill(READ_BLOCK_CHARS)) or self.end:
            cut = self.buf.rfind(b"\n", 0, self.end) + 1
            if not more and cut < self.end:  # the end of the file ends the last line
                self.buf[self.end] = ord("\n")
                self.end = cut = self.end + 1
            if cut:
                yield self._parse(cut)
                self._drop(cut)

    def _parse(self, cut: int) -> tuple[np.ndarray, ...]:
        """The record columns of the first cut bytes of the buffer, whole lines."""
        columns = self._written_columns(cut) or _line_columns(
            self.buf[:cut].decode("ascii").split("\n")[:-1], self.lookup)
        self.checks.add(*columns)
        return columns

    def _decimals(self, loads, stop, count) -> np.ndarray | None:
        """The numbers whose count[i] digits end before byte stop[i], if each
        is 1 to _MAX_DIGITS digits without a leading zero; else None.
        loads[j] is the little-endian uint64 at byte j; every stop is >= 24.
        A load takes eight digits, back from the last: XOR with "0"s makes a
        digit its value and, once masked, a byte before the number 0, so each
        byte must be below 10; three multiply-shift-mask steps fold it."""
        if not (count.min() >= 1 and count.max() <= _MAX_DIGITS):
            return None
        value = np.zeros(len(stop), dtype=np.uint64)
        for k in range(0, int(count.max()), 8):
            word = (loads[stop - (k + 8)] ^ _ZEROS) & self.keep[np.clip(count - k, 0, 8)]
            if ((word + 0x7676767676767676 | word) & _HIGH).any():
                return None
            word = word * (10 << 8 | 1) >> 8 & 0x00FF00FF00FF00FF
            word = word * (100 << 16 | 1) >> 16 & 0x0000FFFF0000FFFF
            value += (word * (10000 << 32 | 1) >> 32) * 10 ** k
        return value.view(np.int64) if (value >= self.least[count]).all() else None

    def _written_columns(self, cut: int) -> tuple[np.ndarray, ...] | None:
        """The record columns of the first cut bytes of the buffer, if every
        line is one JsonlWriter writes for this header; else None."""
        if not len(self.rows):
            return None
        lines = np.frombuffer(self.buf, np.uint8, cut)
        # windows[j] is the 32 bytes from byte j on, and loads[j] the
        # little-endian uint64 at byte j, read unaligned.
        windows = np.ndarray((cut, 32), np.uint8, self.buf, strides=(1, 1))
        loads = np.ndarray((cut,), np.uint64, self.buf, strides=(1,))
        # A written line has five colons and then its newline.  The OR is in
        # place, as a third block-sized array makes malloc trim and re-fault.
        marks = lines == ord(":")
        marks |= lines == ord("\n")
        marks = np.flatnonzero(marks)
        colon, comma, end = marks[3::6], marks[4::6] - 6, marks[5::6]
        if len(marks) % 6 or not (lines[end] == ord("\n")).all():
            return None
        start = np.concatenate(([0], end[:-1] + 1))
        # Prefix: the bytes up to the fourth colon equal a table row, in its
        # head, in its tail (the 32 bytes that end at the colon) and in length.
        head = windows[start].view(np.uint64)
        tail = windows[np.maximum(colon - 31, 0)].view(np.uint64)
        at = np.minimum(self.hashes.searchsorted(head @ self.hash[0] + tail @ self.hash[1]),
                        len(self.rows) - 1)
        if not ((self.heads.take(at, axis=0) == head).all()
                and (self.tails.take(at, axis=0) == tail).all()
                and (self.lengths[at] == colon + 1 - start).all()):
            return None
        row = self.rows[at]
        # Then slot digits, ',"tel":', tel digits and '}'.
        if not ((loads[comma] & 2 ** 56 - 1 == _TEL).all()
                and (lines[end - 1] == ord("}")).all()):
            return None
        slot = self._decimals(loads, comma, comma - colon - 1)
        tel = self._decimals(loads, end - 1, end - comma - 8)
        if slot is None or tel is None:
            return None
        n_deltas = len(self.deltas)
        return slot, tel, row % 2 + 1, row >= 2 * n_deltas, row // 2 % n_deltas

    def fields(self) -> dict:
        """The EventLog fields other than the columns; call after blocks()."""
        header = self.header
        fields = dict(scheme=header["scheme"], n_slots=_typed(header, "n_slots", int),
                      deltas=self.deltas, meta=header.get("meta", {}))
        _check_scheme(fields["scheme"])
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
        self.one_telescope = False  # some pair's records come from one telescope

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
        self.one_telescope |= bool(np.any(first[1] == second[1]))
        return first, second

    def check(self) -> None:
        if self.carry is not None:
            raise ValueError("accepted coincidence records must come in pairs")
        if self.split:
            raise ValueError("accepted pair records must share a slot")
        if self.one_telescope:
            raise ValueError("accepted pair records must come from two telescopes")


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
        _check_scheme(scheme)
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
        with open(path, "rb") as fh:
            reader = _BlockReader(fh, path)
            # A missing or unknown scheme raises in fields(), after the body,
            # as it does in read_jsonl; until then the body counts as pairs.
            scheme = reader.header.get("scheme")
            counter = cls(scheme if scheme in SCHEME_KINDS else "entangled", reader.deltas)
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
