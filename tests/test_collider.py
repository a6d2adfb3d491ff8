"""Collision search: oracle equivalence, sharding, random order."""

import hashlib
import threading
from dataclasses import replace

import pytest

from hoot.collider import (
    SearchMode,
    SearchSpec,
    estimate_runtime,
    find_tag,
    find_tag_sharded,
    partition,
    resolve_target,
    _permutation,
)
from hoot.tagcrypt import (
    KdfConfig,
    KdfMode,
    PlainTag,
    ShortTag,
    derive_tag_material,
)


def brute_force_oracle(prefix: str, alphabet: str, length: int, target: int, k: int) -> set[str]:
    """Independent enumeration: hash every suffix, compare leading bits."""
    matches = set()
    size = len(alphabet)
    for index in range(size**length):
        value, digits = index, []
        for _ in range(length):
            value, digit = divmod(value, size)
            digits.append(alphabet[digit])
        candidate = prefix + "".join(reversed(digits))
        digest = hashlib.sha1(candidate.encode()).digest()
        leading = int.from_bytes(digest[: (k + 7) // 8], "big") >> ((-k) % 8)
        if leading == target:
            matches.add(candidate)
    return matches


def test_exhaustive_equals_oracle():
    spec = SearchSpec(prefix="probe-", target=ShortTag(0x5, 4), suffix_length=8, alphabet="ab", k=4)
    result = find_tag(spec)
    oracle = brute_force_oracle("probe-", "ab", 8, 0x5, 4)
    assert {m[0].text for m in result.matches} == oracle
    assert result.candidates_tried == 256


def test_multibyte_alphabet_equals_oracle():
    alphabet = "aäöüß€"
    oracle = brute_force_oracle("probe-", alphabet, 4, 0x9, 6)
    assert oracle
    spec = SearchSpec(prefix="probe-", target=ShortTag(0x9, 6), suffix_length=4, alphabet=alphabet, k=6)
    assert {m[0].text for m in find_tag(spec).matches} == oracle
    assert {m[0].text for m in find_tag_sharded(spec, 3).matches} == oracle
    first_n = replace(spec, mode=SearchMode.FIRST_N, count=len(oracle), seed=3)
    assert {m[0].text for m in find_tag(first_n).matches} == oracle


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


def test_partition_is_disjoint_and_covering():
    spec = SearchSpec(prefix="x-", target=ShortTag(0, 8), suffix_length=3, alphabet="abc", k=8)
    pieces = partition(spec, 5)
    ranges = [piece.position_range for piece in pieces]
    covered = []
    for lo, hi in ranges:
        covered.extend(range(lo, hi))
    assert covered == list(range(27))
    # more shards than candidates degenerates gracefully
    tiny = partition(SearchSpec(prefix="x-", target=ShortTag(0, 8), suffix_length=1, alphabet="ab", k=8), 5)
    spans = [hi - lo for lo, hi in (p.position_range for p in tiny)]
    assert sum(spans) == 2 and all(s >= 0 for s in spans)


def test_permutation_is_a_bijection():
    for size in (1, 2, 37, 256, 1000):
        permute = _permutation(size, seed=99)
        assert sorted(permute(i) for i in range(size)) == list(range(size))


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


def test_cancellation_stops_within_one_candidate():
    cancel = threading.Event()
    calls = 0

    def stop_after_first():
        nonlocal calls
        calls += 1
        cancel.set()

    spec = SearchSpec(prefix="probe-", target=ShortTag(0x5, 4), suffix_length=8, alphabet="ab", k=4)
    result = find_tag(spec, cancel=cancel, on_match=stop_after_first)
    assert calls == 1
    assert result.candidates_tried < 256


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(prefix="p", target=ShortTag(0, 4), suffix_length=1, alphabet="", k=4)
    with pytest.raises(ValueError):
        SearchSpec(prefix="p", target=ShortTag(0, 4), suffix_length=1, alphabet="aa", k=4)
    with pytest.raises(ValueError):
        SearchSpec(prefix="p", target=ShortTag(0, 4), suffix_length=2, alphabet="ab", k=4, start=3, stop=9)


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
