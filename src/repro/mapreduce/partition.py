"""Partitioning map output across reducers.

Partitioning must be deterministic across processes and runs (Python's
built-in ``hash`` is salted per process for strings), so the default
partitioner hashes a canonical byte encoding of the key with CRC-32.
"""

from __future__ import annotations

import pickle
import zlib
from typing import Any, Callable

__all__ = ["stable_hash", "HashPartitioner", "Partitioner"]

Partitioner = Callable[[Any, int], int]


def stable_hash(key: Any) -> int:
    """A deterministic, well-mixed 32-bit hash of any picklable key."""
    if isinstance(key, str):
        data = key.encode("utf-8")
    elif isinstance(key, bytes):
        data = key
    elif isinstance(key, int):
        data = key.to_bytes(16, "little", signed=True)
    else:
        data = pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL)
    return zlib.crc32(data)


class HashPartitioner:
    """``partition(key) = stable_hash(key) mod num_partitions``.

    With one partition every key goes to partition 0 without being hashed,
    as Hadoop's map task does when a job has one reducer.  So a key that
    :func:`stable_hash` rejects (an ``int`` beyond 128 bits, an object
    pickle refuses) is accepted there and raises only with two or more
    partitions.
    """

    __slots__ = ()

    def __call__(self, key: Any, num_partitions: int) -> int:
        if num_partitions == 1:
            return 0
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        return stable_hash(key) % num_partitions


hash_partitioner = HashPartitioner()
