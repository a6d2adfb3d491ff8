"""Suffix search for plain tags whose short tags collide with a target.

Given a memorable prefix and a suffix namespace (alphabet and length),
the search walks candidate plain tags ``prefix + suffix`` and reports
those whose derived short tag equals the target's. Exhaustive mode
scans the whole space; first-n mode visits candidates in a seeded
pseudo-random order without repetition and stops after n matches, so a
found suffix gives an observer no information about where the search
started. Sharded searches return exactly the serial result; a large
exhaustive one runs its shards in a lasting process pool. Candidates
are hashed a step at a time with ``tagcrypt.short_tags``, which hashes
with hashlib. Only first-n steps use numpy: a uint64 Feistel
permutation of the step's positions, then one byte buffer of their
tags. numpy loads when a first-n search starts, so importing hoot or
running an exhaustive search never loads it. Positions are uint64, so
a space holds at most 2^64 candidates.
"""

from __future__ import annotations

import atexit
import itertools
import logging
import os
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
    short_tags,
)

log = logging.getLogger(__name__)

ALPHANUMERIC = string.ascii_lowercase + string.ascii_uppercase + string.digits

_MASK64 = (1 << 64) - 1
FAST_HASH_STEP = 1 << 12  # candidates per fast-hash step, few enough that first-n hashes little past its last match
_workers = None  # the shard pool, started on the first fan-out and kept for the life of the process


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
        widest = max(self.alphabet, key=lambda glyph: len(glyph.encode("utf-8")))
        for glyph in self.alphabet if self.suffix_length else [""]:  # fails if any candidate would
            PlainTag(self.prefix + glyph + widest * (self.suffix_length - 1))
        if self.mode is SearchMode.FIRST_N and self.count < 1:
            raise ValueError("first-n mode needs count >= 1")
        size = self.space_size
        if size > 1 << 64:  # positions and candidate indices are uint64
            raise ValueError(f"a space of {size} candidates is more than 2^64")
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
    return ShortTag(short_tags([spec.target.encoded()], spec.kdf, spec.k)[0], spec.k)


def _mix64(x):
    """SplitMix64's finaliser of a Python int, or of a uint64 array with wrapping multiplies."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


def _permutation(size: int, seed: int):
    """Seeded bijection on [0, size <= 2^64) via a cycle-walked Feistel network, over uint64 arrays."""
    bits = max(2, (size - 1).bit_length())
    half = (bits + 1) // 2
    mask = (1 << half) - 1
    round_keys = [_mix64(seed * 0x9E3779B97F4A7C15 + r + 1) for r in range(4)]

    def feistel(x):
        left, right = x >> half, x & mask
        for key in round_keys:
            left, right = right, left ^ (_mix64(right ^ key) & mask)
        return (left << half) | right

    def permute(positions):
        x = feistel(positions)
        walking = (x >= size).nonzero()[0]
        while walking.size:  # cycle walking: re-permute only what fell outside the space
            x[walking] = feistel(x[walking])
            walking = walking[x[walking] >= size]
        return x

    return permute


def _first_n_steps(spec: SearchSpec, step: int):
    """Plain tags of the spec's position range in the seeded visit order, ``step`` positions at a time."""
    import numpy as np  # on first use, so that importing hoot stays cheap

    start, stop = spec.position_range
    permute = _permutation(spec.space_size, spec.seed)
    glyphs = [glyph.encode("utf-8") for glyph in spec.alphabet]
    widths = np.array([len(glyph) for glyph in glyphs])
    table = np.array([list(glyph.ljust(widths.max(), b"\0")) for glyph in glyphs], np.uint8)  # zero-padded rows
    real = np.arange(table.shape[1]) < widths[:, None]  # real[d, j]: byte j of glyph d is not padding
    prefix = np.frombuffer(spec.prefix.encode("utf-8"), np.uint8)
    for at in range(start, stop, step):
        index = permute(np.arange(at, min(at + step, stop), dtype=np.uint64))
        n = len(index)
        digits = np.empty((n, spec.suffix_length), np.intp)
        for column in reversed(range(spec.suffix_length)):  # the last suffix glyph is the lowest digit
            index, digits[:, column] = np.divmod(index, len(glyphs))
        tags = np.hstack([np.broadcast_to(prefix, (n, len(prefix))), table[digits].reshape(n, -1)])
        keep = np.hstack([np.ones((n, len(prefix)), bool), real[digits].reshape(n, -1)])
        buffer, ends = tags[keep].tobytes(), np.cumsum(keep.sum(axis=1)).tolist()
        yield [buffer[begin:end] for begin, end in zip([0, *ends], ends)]


def _steps(spec: SearchSpec, step: int):
    """Plain tags (UTF-8) of the spec's position range in visit order, in lists of ``step``."""
    if spec.mode is SearchMode.FIRST_N:
        return _first_n_steps(spec, step)
    start, stop = spec.position_range
    prefix = spec.prefix.encode("utf-8")
    # product order is position order: the last suffix glyph varies fastest
    suffixes = itertools.product([glyph.encode("utf-8") for glyph in spec.alphabet], repeat=spec.suffix_length)
    tags = map(prefix.__add__, map(b"".join, itertools.islice(suffixes, start, stop)))
    return iter(lambda: list(itertools.islice(tags, step)), [])


def _import_numpy_for(spec: SearchSpec) -> None:
    """Load numpy before a first-n search starts its clock, so that ``elapsed`` times the search alone."""
    if spec.mode is SearchMode.FIRST_N:
        import numpy  # noqa: F401


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
    _import_numpy_for(spec)
    began = time.perf_counter()

    fast = spec.kdf.mode is KdfMode.FAST_HASH
    if not fast:
        log.warning(
            "searching with a non-trivial KDF: each of up to %d candidates pays the full derivation cost",
            stop - start,
        )

    first_n = spec.mode is SearchMode.FIRST_N
    for batch in _steps(spec, FAST_HASH_STEP if fast else 1):  # memory-hard steps are single candidates
        hits = [i for i, value in enumerate(short_tags(batch, spec.kdf, spec.k)) if value == target.value]
        if first_n:
            hits = hits[: spec.count - len(result.matches)]
        result.matches += [(PlainTag(batch[i].decode("utf-8")), target) for i in hits]
        if first_n and len(result.matches) == spec.count:
            result.candidates_tried += hits[-1] + 1
            break
        result.candidates_tried += len(batch)

    result.elapsed = time.perf_counter() - began
    return result


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


def _search(piece: SearchSpec) -> SearchResult:
    """The pool's task: ``find_tag`` under a name that still pickles when a wrapper replaces ``find_tag``."""
    return find_tag(piece)


def find_tag_sharded(spec: SearchSpec, shards: int) -> SearchResult:
    """Run a search as ``partition(spec, shards)`` and merge the results.

    An exhaustive search with more than one shard, more than one core and
    ``FAST_HASH_STEP`` or more candidates per shard runs its shards in a
    pool of forked workers, one per core. Any other runs them in position
    order in this thread, first-n asking each shard only for the matches
    still missing. Either way the result is ``find_tag(spec)``'s. A lock
    another thread held at the fork stays held in a worker, but a worker
    takes none: it searches for a resolved ``ShortTag`` through
    ``short_tags``, never the material cache or a ``TagMaterial``'s lock.
    """
    global _workers
    spec = replace(spec, target=resolve_target(spec))  # once, so that no shard derives it again
    pieces, cores = partition(spec, shards), len(os.sched_getaffinity(0))
    outcomes: list[SearchResult] = []
    _import_numpy_for(spec)
    began = time.perf_counter()
    if spec.mode is SearchMode.EXHAUSTIVE and min(shards, cores) > 1 and expected_tries(spec) // shards >= FAST_HASH_STEP:
        import multiprocessing  # on first fan-out, so that importing hoot stays cheap
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        if _workers is None:
            _workers = ProcessPoolExecutor(cores, mp_context=multiprocessing.get_context("fork"))
            atexit.register(_workers.shutdown)  # so that interpreter teardown never collects a live pool
        try:
            outcomes = list(_workers.map(_search, pieces))
        except BrokenProcessPool:  # a worker was killed; the next fan-out starts a new pool
            _workers = None
            raise
    else:
        for piece in pieces:
            if spec.mode is SearchMode.FIRST_N:
                missing = spec.count - sum(len(outcome.matches) for outcome in outcomes)
                if missing == 0:
                    break
                piece = replace(piece, count=missing)
            outcomes.append(find_tag(piece))
    matches = [match for outcome in outcomes for match in outcome.matches]
    return SearchResult(matches, sum(outcome.candidates_tried for outcome in outcomes), time.perf_counter() - began)


def expected_tries(spec: SearchSpec) -> int:
    """Candidates the search is expected to hash: its position range, or 2^k per first-n match."""
    start, stop = spec.position_range
    if spec.mode is SearchMode.EXHAUSTIVE:
        return stop - start
    return min(spec.count << spec.k, stop - start)


def estimate_runtime(spec: SearchSpec, hash_rate: float, cores: int = 1) -> float:
    """Predicted seconds for ``expected_tries(spec)`` at the given derivation rate."""
    if hash_rate <= 0 or cores < 1:
        raise ValueError("hash rate and cores must be positive")
    return expected_tries(spec) / (hash_rate * cores)
