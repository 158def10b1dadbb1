"""Reading and writing runs of key-value pairs on a :class:`LocalDisk`.

A *run* is a file of ``(key, value)`` pairs.  Sort-merge writes runs in key
order; hash techniques write unordered partitions.  Every spill file,
merge output, shuffle segment and hash partition is a run, so readers can
stream any of them.

A run is a sequence of *blocks*: a ``<I`` payload length, then one pickle
of a list of up to :data:`BLOCK_RECORDS` items.  One pickle per block
instead of one per pair removes the per-record ``dumps``/``loads`` call,
length header and pickle framing from the spill → shuffle → merge path.
Blocks are pickled in fast mode (no memo), so a block's bytes depend only
on the values of its items, not on which objects they share — equal runs
encode identically whatever produced them.

Writers buffer items and flush in large chunks to keep the accounted
operation counts realistic (one disk op per flush, not per record).  Only
the final block of a flush may hold fewer than :data:`BLOCK_RECORDS` items.
"""

from __future__ import annotations

import io
import pickle
import struct
from typing import Any, Iterable, Iterator, Sequence

from repro.io.disk import LocalDisk

__all__ = [
    "BLOCK_RECORDS",
    "RunWriter",
    "decode_run",
    "read_run",
    "stream_run",
    "write_run",
]

_DEFAULT_FLUSH = 4 * 1024 * 1024

#: Items per block.  A format constant, not a tuning knob: block
#: boundaries are part of a run's bytes.
BLOCK_RECORDS = 512

_LEN = struct.Struct("<I")
_HEADER = _LEN.size
_PROTOCOL = pickle.HIGHEST_PROTOCOL
_loads = pickle.loads
_unpack_from = _LEN.unpack_from


def _encode_blocks(items: Sequence[Any]) -> bytes:
    """Encode ``items`` as consecutive blocks of :data:`BLOCK_RECORDS`."""
    out = io.BytesIO()
    pickler = pickle.Pickler(out, protocol=_PROTOCOL)
    pickler.fast = True  # no memo: bytes depend on values only
    dump = pickler.dump
    pack_into = _LEN.pack_into
    header = bytes(_HEADER)
    buffer = out.getbuffer
    for start in range(0, len(items), BLOCK_RECORDS):
        at = out.tell()
        out.write(header)
        dump(items[start : start + BLOCK_RECORDS])
        with buffer() as view:
            pack_into(view, at, out.tell() - at - _HEADER)
    return out.getvalue()


def decode_run(data: bytes) -> Iterator[Any]:
    """Yield the items of an encoded run held in memory.

    Raises :class:`ValueError` on a truncated block or block header.
    """
    view = memoryview(data)
    end = len(view)
    offset = 0
    while offset < end:
        if end - offset < _HEADER:
            raise ValueError("truncated block header")
        (length,) = _unpack_from(view, offset)
        start = offset + _HEADER
        offset = start + length
        if offset > end:
            raise ValueError("truncated block")
        yield from _loads(view[start:offset])


class RunWriter:
    """Buffered writer of block-framed items to one file on a :class:`LocalDisk`."""

    def __init__(
        self,
        disk: LocalDisk,
        path: str,
        *,
        flush_bytes: int = _DEFAULT_FLUSH,
    ) -> None:
        self.disk = disk
        self.path = path
        self.flush_bytes = flush_bytes
        self._pending: list[Any] = []
        self._pending_bytes = 0
        self.records_written = 0
        self.bytes_written = 0
        self._closed = False
        disk.create(path, overwrite=True)

    def write(self, item: Any) -> None:
        if self._closed:
            raise ValueError(f"writer for {self.path} is closed")
        self._pending.append(item)
        # A cheap length proxy; exact encoding happens at flush time.
        self._pending_bytes += 64
        self.records_written += 1
        if self._pending_bytes >= self.flush_bytes:
            self._flush()

    def write_all(self, items: Iterable[Any]) -> None:
        for item in items:
            self.write(item)

    def _flush(self) -> None:
        if not self._pending:
            return
        chunk = _encode_blocks(self._pending)
        self.disk.append(self.path, chunk)
        self.bytes_written += len(chunk)
        self._pending.clear()
        self._pending_bytes = 0

    def close(self) -> None:
        if not self._closed:
            self._flush()
            self._closed = True

    def __enter__(self) -> "RunWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def write_run(disk: LocalDisk, path: str, items: Iterable[Any]) -> int:
    """Write ``items`` as a run at ``path``; return the byte size written."""
    with RunWriter(disk, path) as w:
        w.write_all(items)
    return w.bytes_written


def read_run(disk: LocalDisk, path: str) -> list[Any]:
    """Read a whole run into memory."""
    return list(decode_run(disk.read(path)))


def stream_run(disk: LocalDisk, path: str, chunk_size: int = 1 << 20) -> Iterator[Any]:
    """Stream a run's items, reading the file in ``chunk_size`` pieces.

    Blocks may straddle chunk boundaries; the reader carries the unread
    remainder between chunks, so disk accounting still reflects large
    sequential reads.  Each complete block is unpickled straight from a
    :class:`memoryview` of the chunk.
    """
    rest = b""
    for chunk in disk.stream(path, chunk_size):
        data = rest + chunk if rest else chunk
        view = memoryview(data)
        end = len(data)
        offset = 0
        while end - offset >= _HEADER:
            (length,) = _unpack_from(view, offset)
            stop = offset + _HEADER + length
            if stop > end:
                break
            yield from _loads(view[offset + _HEADER : stop])
            offset = stop
        rest = data[offset:]
    if rest:
        what = "block header" if len(rest) < _HEADER else "block"
        raise ValueError(f"truncated {what} in {path}")
