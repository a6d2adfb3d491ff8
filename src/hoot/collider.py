"""Suffix search for plain tags whose short tags collide with a target.

Given a memorable prefix and a suffix namespace (alphabet and length),
the search walks candidate plain tags ``prefix + suffix`` and reports
those whose derived short tag equals the target's. Exhaustive mode
scans the whole space; first-n mode visits candidates in a seeded
pseudo-random order without repetition and stops after n matches, so a
found suffix gives an observer no information about where the search
started. The space partitions cleanly for parallel workers.
"""

from __future__ import annotations

import hashlib
import logging
import string
import threading
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


def find_tag(
    spec: SearchSpec,
    cancel: threading.Event | None = None,
    on_match=None,
) -> SearchResult:
    """Run one search shard to completion (or cancellation).

    Exhaustive mode returns every match in its position range; first-n
    mode returns the first ``spec.count`` matches in the seeded random
    order. Matches are (plain tag, short tag) pairs, independently
    recomputable from the KDF. ``on_match`` is invoked once per match,
    letting a shard coordinator stop the others early.
    """
    target = resolve_target(spec)
    start, stop = spec.position_range
    result = SearchResult()
    began = time.perf_counter()

    alphabet_size = len(spec.alphabet)
    glyph_bytes = [g.encode("utf-8") for g in spec.alphabet]
    prefix_bytes = spec.prefix.encode("utf-8")
    want = spec.count if spec.mode is SearchMode.FIRST_N else None
    permute = _permutation(spec.space_size, spec.seed) if spec.mode is SearchMode.FIRST_N else None

    fast = spec.kdf.mode is KdfMode.FAST_HASH and spec.kdf.output_bits <= 160
    if not fast:
        log.warning(
            "searching with a non-trivial KDF: each of up to %d candidates pays the full derivation cost",
            stop - start,
        )

    base = hashlib.sha1(prefix_bytes)
    tag_bytes = (spec.k + 7) // 8
    shift = tag_bytes * 8 - spec.k
    target_value = target.value

    if spec.mode is SearchMode.EXHAUSTIVE:
        digits = _suffix_digits(start, alphabet_size, spec.suffix_length)
        # one entry per suffix position: glyphs may be several UTF-8 bytes wide
        glyphs = [glyph_bytes[d] for d in digits]
        top = alphabet_size - 1
        for _ in range(start, stop):
            if cancel is not None and cancel.is_set():
                break
            result.candidates_tried += 1
            suffix = b"".join(glyphs)
            if fast:
                h = base.copy()
                h.update(suffix)
                value = int.from_bytes(h.digest()[:tag_bytes], "big") >> shift
            else:
                value = _slow_short_tag(spec, suffix)
            if value == target_value:
                plain = PlainTag(spec.prefix + suffix.decode("utf-8"))
                result.matches.append((plain, ShortTag(value, spec.k)))
                if on_match is not None:
                    on_match()
            # odometer increment, least significant digit last
            for position in range(spec.suffix_length - 1, -1, -1):
                if digits[position] < top:
                    digits[position] += 1
                    glyphs[position] = glyph_bytes[digits[position]]
                    break
                digits[position] = 0
                glyphs[position] = glyph_bytes[0]
    else:
        for position in range(start, stop):
            if cancel is not None and cancel.is_set():
                break
            index = permute(position)
            suffix = b"".join(glyph_bytes[d] for d in _suffix_digits(index, alphabet_size, spec.suffix_length))
            result.candidates_tried += 1
            if fast:
                h = base.copy()
                h.update(suffix)
                value = int.from_bytes(h.digest()[:tag_bytes], "big") >> shift
            else:
                value = _slow_short_tag(spec, suffix)
            if value == target_value:
                plain = PlainTag(spec.prefix + suffix.decode("utf-8"))
                result.matches.append((plain, ShortTag(value, spec.k)))
                if on_match is not None:
                    on_match()
                if len(result.matches) >= want:
                    break

    result.elapsed = time.perf_counter() - began
    return result


def _slow_short_tag(spec: SearchSpec, suffix: bytes) -> int:
    plain = PlainTag(spec.prefix + suffix.decode("utf-8"))
    return derive_tag_material(plain, spec.kdf, spec.k).short_tag.value


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


def find_tag_sharded(spec: SearchSpec, shards: int, max_workers: int | None = None) -> SearchResult:
    """Run a search across shard workers and merge their results.

    First-n mode cancels outstanding shards once enough matches have
    arrived; cancellation lands within one candidate's work.
    """
    from concurrent.futures import ThreadPoolExecutor

    pieces = partition(spec, shards)
    cancel = threading.Event()
    began = time.perf_counter()
    lock = threading.Lock()
    found = 0

    def note_match():
        nonlocal found
        if spec.mode is not SearchMode.FIRST_N:
            return
        with lock:
            found += 1
            if found >= spec.count:
                cancel.set()

    with ThreadPoolExecutor(max_workers=max_workers or shards) as pool:
        outcomes = list(pool.map(lambda piece: find_tag(piece, cancel, note_match), pieces))
    merged = SearchResult()
    for outcome in outcomes:
        merged.matches.extend(outcome.matches)
        merged.candidates_tried += outcome.candidates_tried
    if spec.mode is SearchMode.FIRST_N:
        merged.matches = merged.matches[: spec.count]
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
