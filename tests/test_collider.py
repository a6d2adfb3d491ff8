"""Collision search: oracle equivalence, sharding, random order."""

import contextlib
import functools
import hashlib
import itertools
import logging
import multiprocessing
import os
import signal
import sys
import threading
import tracemalloc
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoot import collider, tagcrypt
from hoot.collider import (
    ALPHANUMERIC,
    FAST_HASH_STEP,
    SearchMode,
    SearchSpec,
    estimate_runtime,
    find_tag,
    find_tag_sharded,
    resolve_target,
    _permutation,
)
from hoot.errors import PlainTagError
from hoot.tagcrypt import (
    KdfConfig,
    KdfMode,
    PlainTag,
    ShortTag,
    derive_tag_material,
)


def scalar_permutation(size: int, seed: int):
    """The first-n visit order one position at a time: a cycle-walked Feistel network over Python ints."""
    mask64 = (1 << 64) - 1

    def mix64(x):
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & mask64
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB & mask64
        return x ^ (x >> 31)

    bits = max(2, (size - 1).bit_length())
    half = (bits + 1) // 2
    mask = (1 << half) - 1
    round_keys = [mix64(seed * 0x9E3779B97F4A7C15 + r + 1) for r in range(4)]

    def permute(i: int) -> int:
        while True:
            left, right = i >> half, i & mask
            for key in round_keys:
                left, right = right, left ^ (mix64(right ^ key) & mask)
            i = (left << half) | right
            if i < size:
                return i

    return permute


def visits(size: int, seed: int, start: int, stop: int) -> list[int]:
    """Candidate indices of visit positions [start, stop) in the seeded first-n order."""
    return _permutation(size, seed)(np.arange(start, stop, dtype=np.uint64)).tolist()


def brute_force_oracle(
    prefix: str, alphabet: str, length: int, target: int, k: int, positions: range | None = None
) -> list[str]:
    """Independent enumeration: hash every suffix (or those at ``positions``), compare leading bits, keep index order."""
    matches = []
    size = len(alphabet)
    for index in range(size**length) if positions is None else positions:
        value, digits = index, []
        for _ in range(length):
            value, digit = divmod(value, size)
            digits.append(alphabet[digit])
        candidate = prefix + "".join(reversed(digits))
        digest = hashlib.sha1(candidate.encode()).digest()
        leading = int.from_bytes(digest[: (k + 7) // 8], "big") >> ((-k) % 8)
        if leading == target:
            matches.append(candidate)
    return matches


def test_exhaustive_equals_oracle():
    spec = SearchSpec(prefix="probe-", target=ShortTag(0x5, 4), suffix_length=8, alphabet="ab", k=4)
    result = find_tag(spec)
    oracle = brute_force_oracle("probe-", "ab", 8, 0x5, 4)
    assert [m[0].text for m in result.matches] == oracle
    assert result.candidates_tried == 256


def test_multibyte_alphabet_equals_oracle():
    alphabet = "aäöüß€"
    oracle = brute_force_oracle("probe-", alphabet, 4, 0x9, 6)
    assert oracle
    spec = SearchSpec(prefix="probe-", target=ShortTag(0x9, 6), suffix_length=4, alphabet=alphabet, k=6)
    assert [m[0].text for m in find_tag(spec).matches] == oracle
    assert [m[0].text for m in find_tag_sharded(spec, 3).matches] == oracle
    first_n = replace(spec, mode=SearchMode.FIRST_N, count=len(oracle), seed=3)
    assert {m[0].text for m in find_tag(first_n).matches} == set(oracle)


def test_fast_hash_wider_than_sha1_takes_the_fast_path(caplog):
    # the 192-bit long tag's expansion past 160 bits is digest-prefixed, so
    # the short tag is still the digest's leading k bits
    oracle = brute_force_oracle("probe-", "abc", 5, 0x2D, 6)
    assert oracle
    spec = SearchSpec(prefix="probe-", target=ShortTag(0x2D, 6), suffix_length=5, alphabet="abc", k=6)
    with caplog.at_level(logging.WARNING, logger="hoot.collider"):
        result = find_tag(spec)
    assert [m[0].text for m in result.matches] == oracle
    assert not caplog.records


@pytest.mark.parametrize(
    "alphabet,length",
    [("abcdefghijklmnop", 4), ("aäöüß€", 6), ("äöüß", 8), ("€→✓", 10), ("𝔞𝔟𝔠", 10)],
    ids=["one-byte", "multibyte", "two-byte", "three-byte", "four-byte"],
)
def test_full_batches_equal_oracle(alphabet, length):
    # 46,656 to 65,536 candidates: both modes hash many full steps, and
    # first-n counts its tries across them; "multibyte" mixes glyph widths,
    # so its first-n tags differ in length, and the others do not
    spec = SearchSpec(prefix="probe-", target=ShortTag(0x5A, 8), suffix_length=length, alphabet=alphabet, k=8)
    oracle = brute_force_oracle("probe-", alphabet, length, 0x5A, 8)
    result = find_tag(spec)
    assert [m[0].text for m in result.matches] == oracle
    assert result.candidates_tried == spec.space_size

    first_n = replace(spec, mode=SearchMode.FIRST_N, count=100, seed=11)
    walk = []
    for index in visits(spec.space_size, 11, 0, spec.space_size):
        digits = []
        for _ in range(length):
            index, digit = divmod(index, len(alphabet))
            digits.append(alphabet[digit])
        walk.append("probe-" + "".join(reversed(digits)))
    matching = set(oracle)
    hits = [i for i, text in enumerate(walk) if text in matching][:100]
    assert len(hits) == 100
    result = find_tag(first_n)
    assert [m[0].text for m in result.matches] == [walk[i] for i in hits]
    assert result.candidates_tried == hits[-1] + 1


@pytest.mark.parametrize("start,stop", [(2**40, 2**40 + 40), (2**64 - 40, 2**64)], ids=["2^40", "2^64"])
def test_an_exhaustive_range_deep_in_a_large_space_starts_at_its_position(start, stop):
    # "0123456789abcdef"^16 holds 2^64 candidates; a range deep in it costs its own length, not its start
    alphabet = "0123456789abcdef"
    oracle = brute_force_oracle("deep-", alphabet, 16, 0x3, 4, range(start, stop))
    assert oracle
    spec = SearchSpec(prefix="deep-", target=ShortTag(0x3, 4), suffix_length=16, alphabet=alphabet, k=4)
    matches, tried = collider._walk(spec, (start, stop))
    assert [tag.decode() for _, tag in matches] == oracle and tried == 40


def test_matches_recompute_to_target():
    spec = SearchSpec(prefix="probe-", target=ShortTag(0x5, 4), suffix_length=8, alphabet="ab", k=4)
    for plain, short in find_tag(spec).matches:
        assert derive_tag_material(plain, spec.kdf, spec.k).short_tag == short == ShortTag(0x5, 4)


@pytest.mark.parametrize("shards", [1, 2, 4, 8])
def test_shard_counts_agree(shards):
    spec = SearchSpec(prefix="probe-", target=ShortTag(0x5, 4), suffix_length=8, alphabet="ab", k=4)
    expected = {m[0].text for m in find_tag(spec).matches}
    result = find_tag_sharded(spec, shards)
    assert {m[0].text for m in result.matches} == expected
    assert result.candidates_tried == 256


@contextlib.contextmanager
def fast_thread_switching():
    """Switch threads every 10 µs, so a result that depends on scheduling shows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=150, deadline=None)
@given(
    shards=st.integers(1, 8),
    seed=st.integers(0, 2**32),
    count=st.integers(1, 4),
    length=st.integers(0, 4),
    alphabet=st.sampled_from(["ab", "abc", "aäöüß€", ALPHANUMERIC[:7]]),
    mode=st.sampled_from(SearchMode),
    value=st.integers(0, 15),
)
def test_sharded_equals_serial(shards, seed, count, length, alphabet, mode, value):
    spec = SearchSpec(
        prefix="probe-", target=ShortTag(value, 4), suffix_length=length, alphabet=alphabet, k=4,
        mode=mode, count=count, seed=seed,
    )
    serial = find_tag(spec)
    with fast_thread_switching():
        sharded = find_tag_sharded(spec, shards)
    assert sharded.matches == serial.matches
    assert sharded.candidates_tried == serial.candidates_tried
    if mode is SearchMode.EXHAUSTIVE:
        assert sharded.candidates_tried == spec.space_size


def test_sharded_first_n_does_not_depend_on_scheduling():
    spec = SearchSpec(
        prefix="probe-", target=ShortTag(0x5A, 8), suffix_length=3, alphabet=ALPHANUMERIC, k=8,
        mode=SearchMode.FIRST_N, count=3, seed=5,
    )
    serial = find_tag(spec).matches
    assert len(serial) == 3
    with fast_thread_switching():
        runs = [find_tag_sharded(spec, 4).matches for _ in range(20)]
    assert all(run == serial for run in runs)


# 238,328 candidates: every shard of up to 58 holds at least FAST_HASH_STEP, so the search fans out
POOLED = SearchSpec(prefix="pool-", target=PlainTag("pool-target"), suffix_length=3, alphabet=ALPHANUMERIC, k=8)
CORES = len(os.sched_getaffinity(0))
needs_cores = pytest.mark.skipif(CORES < 2, reason="a search fans out only on more than one core")


@pytest.mark.parametrize("shards", [2, 3, CORES + 1])
def test_pooled_shards_equal_serial(shards):
    assert POOLED.space_size // shards >= FAST_HASH_STEP
    serial = find_tag(POOLED)
    sharded = find_tag_sharded(POOLED, shards)
    assert sharded.matches == serial.matches and len(serial.matches) > 100
    assert sharded.candidates_tried == serial.candidates_tried == POOLED.space_size


@needs_cores
def test_the_shard_pool_outlives_the_call():
    find_tag_sharded(POOLED, 2)
    workers = sorted(child.pid for child in multiprocessing.active_children())
    assert len(workers) == CORES
    find_tag_sharded(POOLED, 2)
    assert sorted(child.pid for child in multiprocessing.active_children()) == workers


@needs_cores
def test_a_killed_worker_fails_one_call_and_the_next_starts_a_new_pool():
    serial = find_tag(POOLED)
    find_tag_sharded(POOLED, 2)
    os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)
    with pytest.raises(BrokenProcessPool):
        find_tag_sharded(POOLED, 2)
    assert find_tag_sharded(POOLED, 2).matches == serial.matches


@functools.cache
def pooled_space() -> tuple[list[str], np.ndarray]:
    """POOLED's candidates by index, and the leading 64 bits of each one's SHA-1, hashed with hashlib."""
    texts = ["pool-" + "".join(glyphs) for glyphs in itertools.product(ALPHANUMERIC, repeat=3)]
    leading = [int.from_bytes(hashlib.sha1(text.encode()).digest()[:8], "big") for text in texts]
    return texts, np.array(leading, np.uint64)


def first_n_walk(seed: int, count: int, k: int, value: int) -> tuple[list[str], int]:
    """The first ``count`` matches of POOLED's space in the seeded visit order, and the candidates tried to reach them."""
    texts, leading = pooled_space()
    order = np.array(visits(POOLED.space_size, seed, 0, POOLED.space_size), np.uint64)
    hits = np.flatnonzero(leading[order] >> np.uint64(64 - k) == value)[:count].tolist()
    matches = [texts[index] for index in order[hits].tolist()]
    return matches, hits[-1] + 1 if len(hits) == count else POOLED.space_size


@contextlib.contextmanager
def submitted_ranges():
    """Record the future of every range submitted to the process pool while the context is open."""
    futures = []
    submit = ProcessPoolExecutor.submit

    def recording(pool, *args, **kwargs):
        futures.append(submit(pool, *args, **kwargs))
        return futures[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProcessPoolExecutor, "submit", recording)
        yield futures


@needs_cores
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), count=st.integers(1, 4), k=st.integers(6, 16), value=st.integers(0, 2**16 - 1))
@example(seed=9, count=1, k=6, value=5)  # every step holds many matches, more than are still needed
@example(seed=1, count=2, k=16, value=0x5A5A)
def test_pooled_first_n_equals_a_hashlib_walk_of_the_visit_order(seed, count, k, value):
    value %= 1 << k
    spec = replace(POOLED, target=ShortTag(value, k), k=k, mode=SearchMode.FIRST_N, count=count, seed=seed)
    texts, tried = first_n_walk(seed, count, k, value)
    with pytest.MonkeyPatch.context() as patch, submitted_ranges() as futures:
        patch.setattr(collider, "_FAN_OUT_STEPS", 0)  # so that a search expected to stop within a step fans out too
        result = find_tag(spec)
    assert futures
    assert [m[0].text for m in result.matches] == texts
    assert result.candidates_tried == tried


@needs_cores
@pytest.mark.parametrize("found", [0, 1, 3])
def test_a_pooled_first_n_search_short_of_count_tries_the_whole_space(found):
    # a 16-bit value with exactly `found` matches among the 238,328 candidates, searched for four of them
    leading = (pooled_space()[1] >> np.uint64(48)).astype(np.int64)
    value = int(np.flatnonzero(np.bincount(leading, minlength=1 << 16) == found)[0])
    spec = replace(POOLED, target=ShortTag(value, 16), k=16, mode=SearchMode.FIRST_N, count=4, seed=7)
    with submitted_ranges() as futures:
        result = find_tag(spec)
    assert len(futures) == -(-POOLED.space_size // FAST_HASH_STEP)
    assert [m[0].text for m in result.matches] == first_n_walk(7, 4, 16, value)[0]
    assert len(result.matches) == found and result.candidates_tried == POOLED.space_size


@needs_cores
def test_a_first_n_search_leaves_no_range_running_when_it_returns():
    spec = replace(POOLED, target=PlainTag("popular-topic"), k=16, mode=SearchMode.FIRST_N, count=1, seed=3)
    with submitted_ranges() as futures:
        result = find_tag(spec)
    # ranges past the one holding the match were in flight when it was merged, at most CORES + 2 in all
    merged = result.candidates_tried // FAST_HASH_STEP + 1
    assert len(result.matches) == 1 and merged < len(futures) <= merged + CORES + 1
    assert all(future.done() for future in futures)


@needs_cores
def test_two_threads_fanning_out_at_once_start_one_pool():
    if tagcrypt._workers is not None:
        tagcrypt._workers.shutdown()
        tagcrypt._workers = None
    barrier, results = threading.Barrier(2), []

    def search():
        barrier.wait(timeout=30)
        results.append(find_tag(POOLED))

    threads = [threading.Thread(target=search) for _ in range(2)]
    with fast_thread_switching():
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 2 and results[0].matches == results[1].matches and len(results[0].matches) > 100
    assert len(multiprocessing.active_children()) == CORES


@pytest.mark.parametrize("mode", list(SearchMode))
@pytest.mark.parametrize("alphabet, length", [("a", 1), ("ab", 1), ("abc", 1), ("abc", 3)], ids=["1", "2", "3", "27"])
def test_the_pool_covers_a_small_space(mode, alphabet, length):
    # spaces of 1 and 2 candidates are no larger than the core count; too few candidates for find_tag to fan out
    spec = SearchSpec(prefix="x-", target=ShortTag(0, 1), suffix_length=length, alphabet=alphabet, k=1, mode=mode)
    assert collider._fan_out(spec, 2) == collider._walk(spec, (0, spec.space_size))


@pytest.mark.parametrize("mode", list(SearchMode))
def test_a_sharded_search_refuses_fewer_than_one_shard(mode):
    spec = SearchSpec(prefix="x-", target=ShortTag(0, 8), suffix_length=3, alphabet="abc", k=8, mode=mode)
    with pytest.raises(ValueError, match="shards must be >= 1"):
        find_tag_sharded(spec, 0)


def test_permutation_is_a_bijection():
    for size in (1, 2, 37, 256, 1000):
        assert sorted(visits(size, 99, 0, size)) == list(range(size))


sizes = st.one_of(
    st.integers(1, 2**64),
    st.just(2**64),
    st.builds(lambda bits, above: min(2**bits + above, 2**64), st.integers(0, 63), st.integers(1, 3)),
)


@settings(max_examples=300, deadline=None)
@given(
    size=sizes,
    seed=st.integers(-(2**80), 2**80),
    span=st.integers(1, 64),
    back=st.one_of(st.just(0), st.integers(0, 2**64)),
)
@example(size=2**24, seed=7, span=64, back=0)  # 12-bit halves: the widest whose rounds are table lookups
@example(size=2**24 + 1, seed=7, span=64, back=0)  # 13-bit halves: computed rounds
def test_permutation_equals_scalar_feistel(size, seed, span, back):
    span = min(span, size)
    start = size - span - back % (size - span + 1)  # back 0, often drawn, ends at the space's end
    permute = scalar_permutation(size, seed)
    assert visits(size, seed, start, start + span) == [permute(p) for p in range(start, start + span)]


def test_a_second_search_over_the_same_space_and_seed_reuses_its_permutation():
    spec = SearchSpec(
        prefix="probe-", target=ShortTag(0x5A, 8), suffix_length=4, alphabet="abcdefgh", k=8,
        mode=SearchMode.FIRST_N, count=3, seed=5,
    )
    find_tag(spec)
    misses = _permutation.cache_info().misses
    find_tag(replace(spec, target=ShortTag(0x11, 8), count=1))
    assert _permutation.cache_info().misses == misses


def first_visits(size: int, seed: int) -> list[int]:
    """Candidate indices of visit positions 0..15 in the seeded first-n order."""
    return visits(size, seed, 0, 16)


@pytest.mark.parametrize(
    "size,seed,expected",
    [
        (238_328, 1, [72911, 150799, 101470, 149500, 41669, 50160, 74150, 233106,
                      149899, 62123, 81592, 108154, 204495, 159619, 215770, 25826]),
        (37, 99, [5, 10, 35, 12, 15, 14, 27, 26, 23, 2, 0, 20, 7, 6, 36, 31]),
        (2**40 + 3, 2**70, [871254798840, 95998073419, 63305250252, 197570510614, 977104714942,
                            651996923777, 333336886487, 342834465178, 791809788649, 77083702620,
                            416346821638, 160980080697, 245119581828, 168351129681, 433420698700,
                            612079621631]),
    ],
    ids=["alphanumeric3", "37", "big-seed"],
)
def test_first_visits_are_pinned(size, seed, expected):
    assert first_visits(size, seed) == expected


@pytest.mark.parametrize(
    "prefix,target,alphabet,length,k,count,seed,texts,tried",
    [
        ("fan-club-", PlainTag("popular-topic"), ALPHANUMERIC, 3, 16, 2, 1,
         ["fan-club-uhd", "fan-club-bc0"], 31709),
        ("fan-club-", PlainTag("popular-topic"), ALPHANUMERIC, 3, 16, 2, 2,
         ["fan-club-98b", "fan-club-Q7T"], 40499),
        ("probe-", ShortTag(0x5A, 8), "aäöüß€", 6, 8, 3, 11,
         ["probe-öüü€ßß", "probe-üßaääß", "probe-ßääü€ä"], 1683),
    ],
    ids=["alphanumeric3-seed1", "alphanumeric3-seed2", "multibyte"],
)
def test_first_n_results_are_pinned(prefix, target, alphabet, length, k, count, seed, texts, tried):
    spec = SearchSpec(
        prefix=prefix, target=target, suffix_length=length, alphabet=alphabet, k=k,
        mode=SearchMode.FIRST_N, count=count, seed=seed,
    )
    result = find_tag(spec)
    assert [m[0].text for m in result.matches] == texts
    assert result.candidates_tried == tried


def test_first_n_always_finds_a_unique_match():
    # pick a target that occurs exactly once in the space, then demand
    # every visit order find it
    needle = PlainTag("single-aaaaaa")
    base = SearchSpec(prefix="single-", target=needle, suffix_length=6, alphabet="ab", k=10)
    matches = find_tag(base).matches
    assert [m[0] for m in matches] == [needle]
    for seed in range(5):
        spec = SearchSpec(
            prefix="single-",
            target=needle,
            suffix_length=6,
            alphabet="ab",
            k=10,
            mode=SearchMode.FIRST_N,
            count=1,
            seed=seed,
        )
        result = find_tag(spec)
        assert [m[0] for m in result.matches] == [needle]
        assert result.candidates_tried <= spec.space_size


def test_first_n_stops_at_count():
    spec = SearchSpec(
        prefix="probe-",
        target=ShortTag(0x5, 4),
        suffix_length=8,
        alphabet="ab",
        k=4,
        mode=SearchMode.FIRST_N,
        count=2,
        seed=7,
    )
    result = find_tag(spec)
    assert len(result.matches) == 2
    assert result.candidates_tried < 256


def test_first_n_order_depends_on_seed():
    def first_match(seed):
        spec = SearchSpec(
            prefix="probe-",
            target=ShortTag(0x5, 4),
            suffix_length=8,
            alphabet="ab",
            k=4,
            mode=SearchMode.FIRST_N,
            count=1,
            seed=seed,
        )
        return find_tag(spec).matches[0][0].text

    firsts = {first_match(seed) for seed in range(8)}
    assert len(firsts) > 1


def test_target_as_plain_tag():
    target = PlainTag("popular-topic")
    spec = SearchSpec(prefix="probe-", target=target, suffix_length=8, alphabet="ab", k=6)
    resolved = resolve_target(spec)
    assert resolved == derive_tag_material(target, spec.kdf, 6).short_tag
    for plain, short in find_tag(spec).matches:
        assert short == resolved


def test_target_k_mismatch_rejected():
    spec = SearchSpec(prefix="p-", target=ShortTag(1, 8), suffix_length=1, alphabet="ab", k=6)
    with pytest.raises(ValueError):
        resolve_target(spec)


def test_memory_hard_search_verifies():
    cfg = KdfConfig(mode=KdfMode.MEMORY_HARD, work=2**8, memory=2**15)
    target = PlainTag("slow-target")
    spec = SearchSpec(prefix="slow-", target=target, suffix_length=2, alphabet="abcd", k=2, kdf=cfg)
    result = find_tag(spec)
    assert result.candidates_tried == 16
    for plain, short in result.matches:
        assert derive_tag_material(plain, cfg, 2).short_tag == short


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(prefix="p", target=ShortTag(0, 4), suffix_length=1, alphabet="", k=4)
    with pytest.raises(ValueError):
        SearchSpec(prefix="p", target=ShortTag(0, 4), suffix_length=1, alphabet="aa", k=4)
    # a space with any candidate that is not a valid plain tag is refused before it is searched
    for prefix, alphabet, length, reason in [
        ("a b", "ab", 2, "whitespace"),
        ("p", "a\tb", 1, "whitespace"),
        ("#p", "ab", 2, "leading '#'"),
        ("", "a#", 2, "leading '#'"),
        ("", "a b", 1, "whitespace"),
        ("", "ab", 0, "non-empty"),
        ("x" * 250, "aé", 4, "256 UTF-8 bytes"),  # 250 + 4 * 2 bytes
        ("p-", "a\udcff", 1, "not valid UTF-8"),  # a lone surrogate, as a command line's undecodable byte arrives
        ("p-", "a\udcff", 0, "not valid UTF-8"),  # refused even where no candidate holds a glyph
    ]:
        with pytest.raises(ValueError, match=reason):
            SearchSpec(prefix=prefix, target=ShortTag(0, 4), suffix_length=length, alphabet=alphabet, k=4)
    # the limits themselves are fine: a longest candidate of exactly 256 bytes, a '#' after the first glyph
    SearchSpec(prefix="x" * 248, target=ShortTag(0, 4), suffix_length=4, alphabet="aé", k=4)
    SearchSpec(prefix="", target=ShortTag(0, 4), suffix_length=2, alphabet="ab", k=4)
    SearchSpec(prefix="p", target=ShortTag(0, 4), suffix_length=2, alphabet="a#", k=4)
    SearchSpec(prefix="p", target=ShortTag(0, 4), suffix_length=0, alphabet="a b", k=4)
    # positions and candidate indices are uint64: a space of 2^64 candidates is fine, 62^11 is refused
    SearchSpec(prefix="p", target=ShortTag(0, 4), suffix_length=64, alphabet="ab", k=4)
    with pytest.raises(ValueError, match=f"space of {62**11} candidates is more than 2\\^64"):
        SearchSpec(prefix="p", target=ShortTag(0, 4), suffix_length=11, alphabet=ALPHANUMERIC, k=4)


def test_an_over_long_suffix_is_refused_before_its_candidates_are_built():
    tracemalloc.start()
    try:
        with pytest.raises(PlainTagError, match="plain tag exceeds 256 UTF-8 bytes"):
            SearchSpec(prefix="p", target=ShortTag(0, 4), suffix_length=10**7, alphabet="a", k=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a candidate of 10^7 glyphs would take 10 MB


P_BA_64 = ShortTag(int.from_bytes(hashlib.sha1(b"p-ba").digest()[:8], "big"), 64)


@pytest.mark.parametrize("mode", list(SearchMode))
@pytest.mark.parametrize("target", [P_BA_64, PlainTag("p-ba")], ids=["short", "plain"])
def test_k64_search_under_the_default_kdf_equals_the_oracle(mode, target):
    # every long tag holds a 64-bit short tag and its 128-bit tag key, so the default KDF searches at k=64
    assert brute_force_oracle("p-", "ab", 2, P_BA_64.value, 64) == ["p-ba"]
    spec = SearchSpec(prefix="p-", target=target, suffix_length=2, alphabet="ab", k=64, mode=mode)
    for result in (find_tag(spec), find_tag_sharded(spec, 2)):
        assert result.matches == [(PlainTag("p-ba"), P_BA_64)]


def test_estimate_runtime():
    base64ish = "".join(chr(c) for c in range(48, 48 + 64))
    spec = SearchSpec(prefix="", target=ShortTag(0, 36), suffix_length=6, alphabet=base64ish, k=36)
    full = estimate_runtime(spec, hash_rate=1.9e6, cores=8)
    assert full == pytest.approx(2**36 / (1.9e6 * 8))
    assert full == pytest.approx(4521, rel=0.01)
    # three 6-bit glyphs resolve in a fraction of a second at one core
    quick = SearchSpec(prefix="", target=ShortTag(0, 18), suffix_length=3, alphabet=base64ish, k=18)
    assert estimate_runtime(quick, hash_rate=1.9e6, cores=1) < 1.0
    assert estimate_runtime(spec, 1.9e6, 16) == pytest.approx(full / 2)
    expected_first = SearchSpec(
        prefix="", target=ShortTag(0, 18), suffix_length=6, alphabet=base64ish, k=18,
        mode=SearchMode.FIRST_N, count=1,
    )
    assert estimate_runtime(expected_first, 1.9e6, 1) == pytest.approx(2**18 / 1.9e6)


def test_runtime_scales_with_alphabet_per_suffix_glyph():
    # measured cost grows by roughly |A| per extra suffix glyph; the
    # bound is loose because small searches are timer-noise dominated
    alphabet = "abcdefghijklmnop"
    times = []
    for length in (2, 3, 4):
        spec = SearchSpec(prefix="scale-", target=ShortTag(0, 16), suffix_length=length, alphabet=alphabet, k=16)
        times.append(min(find_tag(spec).elapsed for _ in range(3)))
    assert 4 <= times[1] / times[0] <= 64
    assert 4 <= times[2] / times[1] <= 64
