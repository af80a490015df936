"""Seeded random inputs and the benchmark's own liveness oracle.

Stdlib only: nothing here imports owllab, so the oracle is independent of
the code it checks. A symbol of height h is a row-major edge mask: edge
(i, j) is bit (i-1)*h + (j-1), the layout `OwlSymbol.from_mask` reads.
"""

from __future__ import annotations

import random
import zlib

MAX_LEN = 64


def edge_threshold(h: int, density: float) -> int:
    """Random-byte cutoff that keeps each edge with probability ~density/h."""
    return round(density / h * 256)


def random_strings(seed: int, tag: str, h: int, count: int, density: float) -> list[list[int]]:
    """`count` strings of length 1..64, each edge present independently with
    probability edge_threshold(h, density)/256. The same (seed, tag) always
    gives the same strings."""
    rng = random.Random(f"{tag}:{seed}")
    cutoff = edge_threshold(h, density)
    # One random byte per edge slot, mapped to an ASCII bit and parsed in C.
    to_bit = bytes(0x31 if b < cutoff else 0x30 for b in range(256))
    slots = h * h
    return [
        [int(rng.randbytes(slots).translate(to_bit), 2) for _ in range(rng.randint(1, MAX_LEN))]
        for _ in range(count)
    ]


def digest(strings: list[list[int]]) -> int:
    """Checksum of a generated input set, compared across repetitions."""
    return zlib.crc32(repr(strings).encode())


def live(h: int, masks: list[int]) -> bool:
    """A full-length left-to-right path exists: push the set of reachable
    nodes through each symbol's edges and see whether any survive."""
    full = (1 << h) - 1
    reach = full
    for mask in masks:
        nxt = 0
        for i in range(h):
            if reach >> i & 1:
                nxt |= mask >> (i * h) & full
        reach = nxt
    return reach != 0


def masks_from_json(obj: dict) -> tuple[int, list[int]]:
    """(h, masks) from an `OwlString.to_json` object (edge lists, 1-based)."""
    h = obj["h"]
    return h, [sum(1 << ((i - 1) * h + (j - 1)) for i, j in edges) for edges in obj["symbols"]]
