"""Suffix search for plain tags whose short tags collide with a target.

Given a memorable prefix and a suffix namespace (alphabet and length),
the search walks candidate plain tags ``prefix + suffix`` and reports
those whose derived short tag equals the target's. Exhaustive mode
scans the whole space; first-n mode visits candidates in a seeded
pseudo-random order without repetition and stops after n matches, so a
found suffix gives an observer no information about where the search
started. A search splits into shards by visit position; the shards run
in position order in one process, so a sharded search returns exactly
the serial result. An exhaustive fast-hash search hashes its candidates
a batch at a time with a vectorised SHA-1 in numpy.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import string
import time
from dataclasses import dataclass, field, replace
from enum import Enum

from .tagcrypt import (
    DEFAULT_K,
    FAST_KDF,
    KdfConfig,
    KdfMode,
    PlainTag,
    ShortTag,
    derive_tag_material,
)

log = logging.getLogger(__name__)

ALPHANUMERIC = string.ascii_lowercase + string.ascii_uppercase + string.digits
BASE64_DIGITS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

_MASK64 = (1 << 64) - 1
_BATCH = 1 << 13  # candidates per step of an exhaustive fast-hash search

_SHA1_H = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)
_SHA1_K = (0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xCA62C1D6)


class SearchMode(Enum):
    EXHAUSTIVE = "exhaustive"
    FIRST_N = "first-n"


@dataclass(frozen=True)
class SearchSpec:
    """One collision search over ``prefix + alphabet^suffix_length``.

    ``start``/``stop`` bound the visit positions (not candidate values),
    so a sharded first-n search still follows one global random order.
    """

    prefix: str
    target: PlainTag | ShortTag
    suffix_length: int
    alphabet: str = ALPHANUMERIC
    mode: SearchMode = SearchMode.EXHAUSTIVE
    count: int = 1
    k: int = DEFAULT_K
    kdf: KdfConfig = FAST_KDF
    seed: int = 0
    start: int = 0
    stop: int | None = None

    def __post_init__(self):
        if not self.alphabet:
            raise ValueError("suffix alphabet must be non-empty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("suffix alphabet must not repeat glyphs")
        if self.suffix_length < 0:
            raise ValueError("suffix length must be >= 0")
        if self.mode is SearchMode.FIRST_N and self.count < 1:
            raise ValueError("first-n mode needs count >= 1")
        size = self.space_size
        stop = size if self.stop is None else self.stop
        if not 0 <= self.start <= stop <= size:
            raise ValueError(f"position range [{self.start}, {stop}) outside space of {size}")

    @property
    def space_size(self) -> int:
        return len(self.alphabet) ** self.suffix_length

    @property
    def position_range(self) -> tuple[int, int]:
        return self.start, self.space_size if self.stop is None else self.stop


@dataclass
class SearchResult:
    matches: list[tuple[PlainTag, ShortTag]] = field(default_factory=list)
    candidates_tried: int = 0
    elapsed: float = 0.0


def resolve_target(spec: SearchSpec) -> ShortTag:
    """The k-bit short tag the search must hit."""
    if isinstance(spec.target, ShortTag):
        if spec.target.k != spec.k:
            raise ValueError(f"target is a {spec.target.k}-bit short tag but the search uses k={spec.k}")
        return spec.target
    return derive_tag_material(spec.target, spec.kdf, spec.k).short_tag


def _mix64(x: int) -> int:
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


def _permutation(size: int, seed: int):
    """Seeded bijection on [0, size) via a cycle-walked Feistel network."""
    bits = max(2, (size - 1).bit_length())
    half = (bits + 1) // 2
    mask = (1 << half) - 1
    round_keys = [_mix64(seed * 0x9E3779B97F4A7C15 + r + 1) for r in range(4)]

    def permute(i: int) -> int:
        while True:
            left, right = i >> half, i & mask
            for key in round_keys:
                left, right = right, left ^ (_mix64(right ^ key) & mask)
            i = (left << half) | right
            if i < size:
                return i

    return permute


def _suffix_digits(index: int, alphabet_size: int, length: int) -> list[int]:
    digits = [0] * length
    for position in range(length - 1, -1, -1):
        index, digits[position] = divmod(index, alphabet_size)
    return digits


def _candidates(spec: SearchSpec):
    """Suffix bytes of each candidate in the spec's position range, in visit order."""
    start, stop = spec.position_range
    glyph_bytes = [g.encode("utf-8") for g in spec.alphabet]
    if spec.mode is SearchMode.EXHAUSTIVE:
        # product order is position order: the last suffix glyph varies fastest
        suffixes = itertools.product(glyph_bytes, repeat=spec.suffix_length)
        return map(b"".join, itertools.islice(suffixes, start, stop))
    permute = _permutation(spec.space_size, spec.seed)
    alphabet_size = len(glyph_bytes)
    return (
        b"".join(glyph_bytes[d] for d in _suffix_digits(permute(position), alphabet_size, spec.suffix_length))
        for position in range(start, stop)
    )


def find_tag(spec: SearchSpec) -> SearchResult:
    """Run one search shard to completion.

    Exhaustive mode returns every match in its position range; first-n
    mode returns the first ``spec.count`` matches in the seeded random
    order. Matches are (plain tag, short tag) pairs, independently
    recomputable from the KDF.
    """
    target = resolve_target(spec)
    start, stop = spec.position_range
    result = SearchResult()
    began = time.perf_counter()

    # a fast-hash short tag is the leading k <= 64 bits of the plain
    # tag's SHA-1 digest at any output_bits: the expansion is digest-prefixed
    fast = spec.kdf.mode is KdfMode.FAST_HASH
    if not fast:
        log.warning(
            "searching with a non-trivial KDF: each of up to %d candidates pays the full derivation cost",
            stop - start,
        )

    prefix = spec.prefix.encode("utf-8")
    tags = map(prefix.__add__, _candidates(spec))
    first_n = spec.mode is SearchMode.FIRST_N
    # only exhaustive mode fills whole batches; first-n steps stay short, and memory-hard
    # ones single, so that a first-n search pays for little or nothing past its last match
    size = (64 if first_n else _BATCH) if fast else 1
    for batch in iter(lambda: list(itertools.islice(tags, size)), []):
        hits = [i for i, value in enumerate(_short_tags(batch, spec)) if value == target.value]
        if first_n:
            hits = hits[: spec.count - len(result.matches)]
        result.matches += [(PlainTag(batch[i].decode("utf-8")), target) for i in hits]
        if first_n and len(result.matches) == spec.count:
            result.candidates_tried += hits[-1] + 1
            break
        result.candidates_tried += len(batch)

    result.elapsed = time.perf_counter() - began
    return result


def _short_tags(batch: list[bytes], spec: SearchSpec) -> list[int]:
    """The k-bit short tag of each plain tag in ``batch``."""
    if spec.kdf.mode is not KdfMode.FAST_HASH:
        plain = (PlainTag(tag.decode("utf-8")) for tag in batch)
        return [derive_tag_material(p, spec.kdf, spec.k).short_tag.value for p in plain]
    if len(batch) < _BATCH:  # numpy's fixed cost per call outweighs its gain on a short batch
        return [int.from_bytes(hashlib.sha1(tag).digest()[:8], "big") >> (64 - spec.k) for tag in batch]
    return (_sha1_leading64(batch) >> (64 - spec.k)).tolist()


def _sha1_leading64(messages: list[bytes]):
    """Leading 64 bits of each message's SHA-1 digest (FIPS 180-4), as a numpy uint64 array.

    Each 64-byte block is 80 rounds of uint32 array operations over every message of one length.
    """
    import numpy as np  # on first use, so that importing the collider stays cheap

    def rotl(x, n):
        return (x << np.uint32(n)) | (x >> np.uint32(32 - n))

    lengths = np.fromiter(map(len, messages), np.int64, len(messages))
    leading = np.empty(len(messages), np.uint64)
    for length in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == length)
        padded = np.zeros((len(rows), 64 * ((length + 8) // 64 + 1)), np.uint8)
        group = b"".join([messages[i] for i in rows.tolist()])
        padded[:, :length] = np.frombuffer(group, np.uint8).reshape(len(rows), length)
        padded[:, length] = 0x80
        padded[:, -8:] = np.frombuffer((8 * length).to_bytes(8, "big"), np.uint8)
        words = padded.view(">u4").T.astype(np.uint32)  # row t: word t of every message
        del padded
        state = [np.full(len(rows), h, np.uint32) for h in _SHA1_H]
        for block in range(0, len(words), 16):
            w = list(words[block : block + 16])
            a, b, c, d, e = state
            for t in range(80):
                if t >= 16:
                    w[t % 16] = rotl(w[(t - 3) % 16] ^ w[(t - 8) % 16] ^ w[(t - 14) % 16] ^ w[t % 16], 1)
                if t < 20:
                    f = d ^ (b & (c ^ d))
                elif 40 <= t < 60:
                    f = (b & c) | (d & (b | c))
                else:
                    f = b ^ c ^ d
                a, b, c, d, e = rotl(a, 5) + f + e + np.uint32(_SHA1_K[t // 20]) + w[t % 16], a, rotl(b, 30), c, d
            state = [x + y for x, y in zip(state, (a, b, c, d, e))]
        leading[rows] = (state[0].astype(np.uint64) << np.uint64(32)) | state[1]
    return leading


def partition(spec: SearchSpec, shards: int) -> list[SearchSpec]:
    """Split a search into disjoint position ranges covering the space.

    Shards beyond the space size degenerate to empty ranges, which is
    harmless; their results are empty.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    start, stop = spec.position_range
    span = stop - start
    bounds = [start + (span * i) // shards for i in range(shards + 1)]
    return [replace(spec, start=bounds[i], stop=bounds[i + 1]) for i in range(shards)]


def find_tag_sharded(spec: SearchSpec, shards: int) -> SearchResult:
    """Run a search as ``partition(spec, shards)`` and merge the results.

    The shards run one after another in position order in the calling
    thread. First-n mode asks each shard only for the matches still
    missing and stops once ``spec.count`` are in, so the result is
    ``find_tag(spec)``'s in both modes.
    """
    merged = SearchResult()
    began = time.perf_counter()
    for piece in partition(spec, shards):
        if spec.mode is SearchMode.FIRST_N:
            missing = spec.count - len(merged.matches)
            if missing == 0:
                break
            piece = replace(piece, count=missing)
        outcome = find_tag(piece)
        merged.matches.extend(outcome.matches)
        merged.candidates_tried += outcome.candidates_tried
    merged.elapsed = time.perf_counter() - began
    return merged


def estimate_runtime(spec: SearchSpec, hash_rate: float, cores: int = 1) -> float:
    """Predicted seconds for the search at the given derivation rate.

    Exhaustive mode costs the full space; first-n mode is the expected
    time to the n-th match, 2^k tries per match.
    """
    if hash_rate <= 0 or cores < 1:
        raise ValueError("hash rate and cores must be positive")
    if spec.mode is SearchMode.EXHAUSTIVE:
        tries = spec.space_size
    else:
        tries = min(spec.count * (1 << spec.k), spec.space_size)
    return tries / (hash_rate * cores)
