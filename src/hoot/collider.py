"""Suffix search for plain tags whose short tags collide with a target.

Given a memorable prefix and a suffix namespace (alphabet and length),
the search walks candidate plain tags ``prefix + suffix`` and reports
those whose derived short tag equals the target's. Exhaustive mode
scans the whole space; first-n mode visits candidates in a seeded
pseudo-random order without repetition and stops after n matches, so a
found suffix gives an observer no information about where the search
started. ``find_tag`` spreads a large fast-hash search over the cores:
one task per core in ``tagcrypt``'s process pool claims steps in visit
order from a shared counter, and the steps merge in that order, so its
result is the serial search's. Candidates are hashed a step at a time
with hashlib, and ``tagcrypt.short_tag_positions`` finds a step's
matches with one byte scan of the joined digests. Every search builds
its steps with numpy: a step's positions map to candidate indices (in
exhaustive mode the positions themselves, so a range starts at its
position directly; in first-n mode a uint64 Feistel permutation, whose
rounds are table lookups when a Feistel half is small), then to one
byte matrix of their tags, cut by one ``struct`` unpack when every
glyph has the same UTF-8 width. numpy loads when a search starts, so
importing hoot never loads it. Positions are uint64, so a space holds
at most 2^64 candidates.
"""

from __future__ import annotations

import functools
import string
import struct
import threading
import time
from dataclasses import dataclass, field, replace
from enum import Enum

from .tagcrypt import (
    DEFAULT_K,
    FAST_KDF,
    KdfConfig,
    KdfMode,
    MAX_PLAIN_TAG_BYTES,
    PlainTag,
    ShortTag,
    short_tag_positions,
    short_tags,
)
from . import tagcrypt

ALPHANUMERIC = string.ascii_lowercase + string.ascii_uppercase + string.digits

_MASK64 = (1 << 64) - 1
FAST_HASH_STEP = 1 << 12  # candidates per fast-hash step, few enough that first-n hashes little past its last match
_FAN_OUT_STEPS = 4  # steps per core a search is expected to hash before the pool pays for its round trips
_fan_outs = threading.Lock()  # one fan-out at a time resets and uses the pool's claim counter


class SearchMode(Enum):
    EXHAUSTIVE = "exhaustive"
    FIRST_N = "first-n"


@dataclass(frozen=True)
class SearchSpec:
    """One collision search over ``prefix + alphabet^suffix_length``, the whole space."""

    prefix: str
    target: PlainTag | ShortTag
    suffix_length: int
    alphabet: str = ALPHANUMERIC
    mode: SearchMode = SearchMode.EXHAUSTIVE
    count: int = 1
    k: int = DEFAULT_K
    kdf: KdfConfig = FAST_KDF
    seed: int = 0

    def __post_init__(self):
        if not self.alphabet:
            raise ValueError("suffix alphabet must be non-empty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("suffix alphabet must not repeat glyphs")
        if self.suffix_length < 0:
            raise ValueError("suffix length must be >= 0")
        PlainTag("x" + "".join(g for g in self.alphabet if "\ud800" <= g <= "\udfff"))  # a lone surrogate's PlainTagError
        widest = max(self.alphabet, key=lambda glyph: len(glyph.encode("utf-8")))
        tail = widest * (min(self.suffix_length, MAX_PLAIN_TAG_BYTES + 1) - 1)  # 257 glyphs already exceed 256 bytes
        for glyph in self.alphabet if self.suffix_length else [""]:  # fails if any candidate would
            PlainTag(self.prefix + glyph + tail)
        if self.mode is SearchMode.FIRST_N and self.count < 1:
            raise ValueError("first-n mode needs count >= 1")
        size = self.space_size
        if size > 1 << 64:  # positions and candidate indices are uint64
            raise ValueError(f"a space of {size} candidates is more than 2^64")

    @property
    def space_size(self) -> int:
        return len(self.alphabet) ** self.suffix_length


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
    return ShortTag(short_tags([spec.target.encoded()], spec.kdf, spec.k)[0], spec.k)


def _mix64(x):
    """SplitMix64's finaliser of a Python int, or of a uint64 array with wrapping multiplies."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


@functools.lru_cache(maxsize=8)  # so that a lasting pool worker builds a search's round tables once, not per step
def _permutation(size: int, seed: int):
    """Seeded bijection on [0, size <= 2^64) via a cycle-walked Feistel network, over uint64 arrays.

    When a Feistel half takes at most ``FAST_HASH_STEP`` values, each
    round function is one gather from a table of its outputs, built with
    the same ``_mix64``; a table is then no larger than one step. Wider
    halves cost more to tabulate than a step's rounds cost to compute.
    """
    import numpy as np  # on first use, so that importing hoot stays cheap

    bits = max(2, (size - 1).bit_length())
    half = (bits + 1) // 2
    mask = (1 << half) - 1
    round_keys = [_mix64(seed * 0x9E3779B97F4A7C15 + r + 1) for r in range(4)]
    if 1 << half <= FAST_HASH_STEP:
        halves = np.arange(1 << half, dtype=np.uint64)
        rounds = [(_mix64(halves ^ key) & mask).take for key in round_keys]
    else:
        rounds = [lambda right, key=key: _mix64(right ^ key) & mask for key in round_keys]

    def feistel(x):
        left, right = x >> half, x & mask
        for round_function in rounds:
            left, right = right, left ^ round_function(right)
        return (left << half) | right

    def permute(positions):
        x = feistel(positions)
        walking = (x >= size).nonzero()[0]
        while walking.size:  # cycle walking: re-permute only what fell outside the space
            x[walking] = feistel(x[walking])
            walking = walking[x[walking] >= size]
        return x

    return permute


@functools.lru_cache(maxsize=8)
def _tag_cut(width: int, n: int) -> struct.Struct:
    """Unpacks a buffer of ``n`` consecutive ``width``-byte plain tags as a tuple."""
    return struct.Struct(f"{width}s" * n)


def _steps(spec: SearchSpec, span: tuple[int, int], step: int):
    """Plain tags (UTF-8) of the position range ``span`` in the spec's visit order, ``step`` positions at a time.

    A position's candidate index is the position itself in exhaustive
    mode and its seeded permutation in first-n mode, so a range starts
    at its position directly. When every glyph has one UTF-8 width,
    every tag has one length, and one ``struct`` unpack cuts a step's
    byte matrix into its tags.
    """
    import numpy as np  # on first use, so that importing hoot stays cheap

    start, stop = span
    permute = _permutation(spec.space_size, spec.seed) if spec.mode is SearchMode.FIRST_N else None
    glyphs = [glyph.encode("utf-8") for glyph in spec.alphabet]
    widths = [len(glyph) for glyph in glyphs]
    width = max(widths)
    table = np.frombuffer(b"".join(glyph.ljust(width, b"\0") for glyph in glyphs), np.uint8).reshape(-1, width)
    real = np.arange(width) < np.array(widths)[:, None]  # real[d, j]: byte j of glyph d is not padding
    prefix = np.frombuffer(spec.prefix.encode("utf-8"), np.uint8)
    for at in range(start, stop, step):
        index = np.arange(at, min(at + step, stop), dtype=np.uint64)
        if permute:
            index = permute(index)
        n = len(index)
        digits = np.empty((n, spec.suffix_length), np.intp)
        for column in reversed(range(spec.suffix_length)):  # the last suffix glyph is the lowest digit
            index, digits[:, column] = np.divmod(index, len(glyphs))
        tags = np.hstack([np.broadcast_to(prefix, (n, len(prefix))), table[digits].reshape(n, -1)])
        if min(widths) == width:
            yield _tag_cut(tags.shape[1], n).unpack(tags.tobytes())
        else:
            keep = np.hstack([np.ones((n, len(prefix)), bool), real[digits].reshape(n, -1)])
            buffer, ends = tags[keep].tobytes(), np.cumsum(keep.sum(axis=1)).tolist()
            yield [buffer[begin:end] for begin, end in zip([0, *ends], ends)]


def _gather(spec: SearchSpec, pieces) -> tuple[list[tuple[int, bytes]], int]:
    """Merge consecutive pieces of the spec's visit order into its matches and candidates tried.

    Each piece is (matches, length): its matches as (position within the
    piece, UTF-8 plain tag), and the candidates it spans. A returned
    match carries its position counted from the first piece's start.
    First-n mode stops at ``spec.count`` matches, having tried candidates
    up to the last one taken, even when the piece holding it holds more.
    """
    matches, tried = [], 0
    for hits, length in pieces:
        if spec.mode is SearchMode.FIRST_N:
            hits = hits[: spec.count - len(matches)]
        matches += [(tried + position, tag) for position, tag in hits]
        if spec.mode is SearchMode.FIRST_N and len(matches) == spec.count:
            return matches, matches[-1][0] + 1
        tried += length
    return matches, tried


def _pieces(spec: SearchSpec, span: tuple[int, int]):
    """``_gather``'s pieces of the position range ``span``, one per step: each step's matches and its length."""
    step = FAST_HASH_STEP if spec.kdf.mode is KdfMode.FAST_HASH else 1  # memory-hard steps are single candidates
    for batch in _steps(spec, span, step):
        yield [(i, batch[i]) for i in short_tag_positions(batch, spec.kdf, spec.k, spec.target.value)], len(batch)


def _walk(spec: SearchSpec, span: tuple[int, int]) -> tuple[list[tuple[int, bytes]], int]:
    """The serial search of the position range ``span``, within the space, a step at a time: ``_gather``'s result."""
    return _gather(spec, _pieces(spec, span))


def _claim(spec: SearchSpec) -> list[tuple[int, list[tuple[int, bytes]], int]]:
    """The pool's task: (step, matches, length) of each fast-hash step it claims from ``tagcrypt._claims``.

    Under the counter's lock it counts its last step's matches and claims
    the next step, until the space ends or, in first-n mode, ``spec.count``
    matches are counted. Steps are claimed in increasing order, so the
    first ``spec.count`` matches of the visit order lie in claimed steps.
    """
    lock, counter = tagcrypt._claims.get_lock(), tagcrypt._claims.get_obj()  # the next step, the matches found
    pieces, hits = [], []
    while True:
        with lock:
            counter[1] += len(hits)
            step = counter[0]
            if step * FAST_HASH_STEP >= spec.space_size or spec.mode is SearchMode.FIRST_N and counter[1] >= spec.count:
                return pieces
            counter[0] = step + 1
        [(hits, length)] = _pieces(spec, (step * FAST_HASH_STEP, min((step + 1) * FAST_HASH_STEP, spec.space_size)))
        pieces.append((step, hits, length))


def _fan_out(spec: SearchSpec, cores: int) -> tuple[list[tuple[int, bytes]], int]:
    """``_walk(spec, (0, spec.space_size))``'s result, from ``cores`` ``_claim`` tasks in ``tagcrypt``'s process pool.

    It waits for every task before returning or raising, so that none claims from the next search's counter.
    """
    from concurrent.futures import wait
    from concurrent.futures.process import BrokenProcessPool

    with _fan_outs:
        workers, claims = tagcrypt._pool()
        claims[:] = [0, 0]
        tasks = []
        try:
            tasks = [workers.submit(_claim, spec) for _ in range(cores)]  # a failed submit means a broken pool
            pieces = sorted(piece for task in tasks for piece in task.result())  # steps are distinct
        except BrokenProcessPool:  # a worker was killed; the next fan-out starts a new pool
            tagcrypt._drop_pool(workers)
            raise
        finally:
            wait(tasks)
    return _gather(spec, ((hits, length) for _, hits, length in pieces))


def find_tag(spec: SearchSpec) -> SearchResult:
    """Run one search to completion.

    Exhaustive mode returns every match in the space; first-n mode
    returns the first ``spec.count`` matches in the seeded random order.
    Matches are (plain tag, short tag) pairs, independently
    recomputable from the KDF. A fast-hash search on more than one core
    that is expected to hash at least ``_FAN_OUT_STEPS`` steps per core
    runs as tasks that claim steps in ``tagcrypt``'s fork-safe process
    pool (``_fan_out``); any other runs in this process. Either way the
    steps merge in visit order, so the result is the serial search's.
    """
    target = resolve_target(spec)
    spec = replace(spec, target=target)  # once, so that no pool task derives it again
    # steps are built with numpy: load it before the clock starts, so that elapsed times the search alone
    import numpy  # noqa: F401
    began = time.perf_counter()

    fast, cores = spec.kdf.mode is KdfMode.FAST_HASH, tagcrypt._cores()
    if not fast:
        import logging  # here only, so that importing hoot or setting up a search never loads it
        logging.getLogger(__name__).warning(
            "searching with a non-trivial KDF: each of up to %d candidates pays the full derivation cost",
            spec.space_size,
        )
    if fast and cores > 1 and expected_tries(spec) >= _FAN_OUT_STEPS * FAST_HASH_STEP * cores:
        matches, tried = _fan_out(spec, cores)
    else:
        matches, tried = _walk(spec, (0, spec.space_size))
    found = [(PlainTag(tag.decode("utf-8")), target) for _, tag in matches]
    return SearchResult(found, tried, time.perf_counter() - began)


def find_tag_sharded(spec: SearchSpec, shards: int) -> SearchResult:
    """``find_tag(spec)``, for callers that name a shard count; ``shards`` must be at least 1.

    The count changes nothing else. Nothing in hoot calls this; the
    benchmark's collider-exhaustive workload and trace layer do.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    return find_tag(spec)


def expected_tries(spec: SearchSpec) -> int:
    """Candidates the search is expected to hash: its space, or 2^k per first-n match."""
    if spec.mode is SearchMode.EXHAUSTIVE:
        return spec.space_size
    return min(spec.count << spec.k, spec.space_size)


def estimate_runtime(spec: SearchSpec, hash_rate: float, cores: int = 1) -> float:
    """Predicted seconds for ``expected_tries(spec)`` at the given derivation rate."""
    if hash_rate <= 0 or cores < 1:
        raise ValueError("hash rate and cores must be positive")
    return expected_tries(spec) / (hash_rate * cores)
