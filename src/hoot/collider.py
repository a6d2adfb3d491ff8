"""Suffix search for plain tags whose short tags collide with a target.

Given a memorable prefix and a suffix namespace (alphabet and length),
the search walks candidate plain tags ``prefix + suffix`` and reports
those whose derived short tag equals the target's. Exhaustive mode
scans the whole space; first-n mode visits candidates in a seeded
pseudo-random order without repetition and stops after n matches, so a
found suffix gives an observer no information about where the search
started. ``find_tag`` spreads a large fast-hash search over the cores:
it searches position ranges in ``tagcrypt``'s process pool and merges
them in visit order, so its result is the serial search's. Candidates
are hashed a step at a time with hashlib, and
``tagcrypt.short_tag_positions`` finds a step's matches with one byte
scan of the joined digests. Every search builds its steps with numpy:
a step's positions map to candidate indices (in exhaustive mode the
positions themselves, so a range starts at its position directly; in
first-n mode a uint64 Feistel permutation, whose rounds are table
lookups when a Feistel half is small), then to one byte matrix of
their tags, cut by one ``struct`` unpack when every glyph has the same
UTF-8 width. numpy loads when a search starts, so importing hoot never
loads it. Positions are uint64, so a space holds at most 2^64
candidates.
"""

from __future__ import annotations

import collections
import functools
import string
import struct
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
from .tagcrypt import _cores, _drop_pool, _pool

ALPHANUMERIC = string.ascii_lowercase + string.ascii_uppercase + string.digits

_MASK64 = (1 << 64) - 1
FAST_HASH_STEP = 1 << 12  # candidates per fast-hash step, few enough that first-n hashes little past its last match
_FAN_OUT_STEPS = 4  # steps per core a search is expected to hash before the pool pays for its round trips


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


@functools.lru_cache(maxsize=8)  # so that a lasting pool worker builds a search's round tables once, not per range
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


def _walk(spec: SearchSpec, span: tuple[int, int]) -> tuple[list[tuple[int, bytes]], int]:
    """The serial search of the position range ``span``, a step at a time: ``_gather``'s matches and tries.

    ``span`` lies within ``[0, spec.space_size)``, so that a range needs
    no spec of its own. This is the pool's task for one range, and it
    never fans out.
    """
    step = FAST_HASH_STEP if spec.kdf.mode is KdfMode.FAST_HASH else 1  # memory-hard steps are single candidates
    pieces = (
        ([(i, batch[i]) for i in short_tag_positions(batch, spec.kdf, spec.k, spec.target.value)], len(batch))
        for batch in _steps(spec, span, step)
    )
    return _gather(spec, pieces)


def _fan_out(spec: SearchSpec, cores: int) -> tuple[list[tuple[int, bytes]], int]:
    """``_walk(spec, (0, spec.space_size))``'s result, from position ranges searched in ``tagcrypt``'s process pool.

    First-n mode submits one ``FAST_HASH_STEP`` per range, exhaustive
    mode one range per core. Ranges are submitted in visit order, at most
    ``cores + 2`` ahead of the one being merged, so that no worker idles
    while the merge waits. Before returning or raising, the ranges not
    started are cancelled and those started are waited for, so that no
    work outlives the search.
    """
    from concurrent.futures import wait
    from concurrent.futures.process import BrokenProcessPool

    workers = _pool()
    size = spec.space_size
    width = FAST_HASH_STEP if spec.mode is SearchMode.FIRST_N else -(-size // cores)
    ranges = ((at, min(at + width, size)) for at in range(0, size, width))
    pending = collections.deque()

    def results():
        for span in ranges:
            pending.append(workers.submit(_walk, spec, span))
            if len(pending) == cores + 2:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()

    try:
        return _gather(spec, results())
    except BrokenProcessPool:  # a worker was killed; the next fan-out starts a new pool
        _drop_pool(workers)
        raise
    finally:
        for future in pending:
            future.cancel()
        wait(pending)


def find_tag(spec: SearchSpec) -> SearchResult:
    """Run one search to completion.

    Exhaustive mode returns every match in the space; first-n mode
    returns the first ``spec.count`` matches in the seeded random order.
    Matches are (plain tag, short tag) pairs, independently
    recomputable from the KDF. A fast-hash search on more than one core
    that is expected to hash at least ``_FAN_OUT_STEPS`` steps per core
    runs in ``tagcrypt``'s fork-safe process pool (``_fan_out``); any
    other runs in this process. Either way the pieces merge in visit
    order, so the result is the serial search's.
    """
    target = resolve_target(spec)
    spec = replace(spec, target=target)  # once, so that no range derives it again
    # steps are built with numpy: load it before the clock starts, so that elapsed times the search alone
    import numpy  # noqa: F401
    began = time.perf_counter()

    fast, cores = spec.kdf.mode is KdfMode.FAST_HASH, _cores()
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

    ``find_tag`` picks its own ranges, so the count changes nothing
    else. Nothing in hoot calls this: it stays only because the
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
