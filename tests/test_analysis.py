"""Entropy, brute-force, collision, bandwidth, and corpus arithmetic."""

import hashlib
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoot.analysis import (
    AnonymityReport,
    BandwidthBudget,
    Corpus,
    DecimalDigits,
    DictionaryWords,
    GlyphString,
    NamespaceSpec,
    SECONDS_PER_YEAR,
    TagBucket,
    anonymity_report,
    bandwidth_budget,
    brute_force_time,
    collision_probability,
    entropy_bits,
    generate_powerlaw_corpus,
    load_corpus,
    powerlaw_slope,
    rank_frequency,
    save_corpus,
)
from hoot.collider import SearchMode, SearchSpec, find_tag
from hoot.tagcrypt import FAST_KDF, PlainTag, ShortTag, derive_tag_material
from hoot.wire import encode_short_tag


def test_entropy_dictionary_plus_digits():
    spec = NamespaceSpec((DictionaryWords(40_000), DecimalDigits(7)))
    assert entropy_bits(spec) == pytest.approx(38.5, abs=0.05)


def test_entropy_two_words_plus_digits():
    spec = NamespaceSpec((DictionaryWords(40_000), DictionaryWords(40_000), DecimalDigits(7)))
    assert entropy_bits(spec) == pytest.approx(53.8, abs=0.05)


def test_entropy_fifteen_digits_clears_47_bits():
    bits = entropy_bits(NamespaceSpec((DecimalDigits(15),)))
    assert bits == pytest.approx(49.8, abs=0.05)
    assert bits >= 47


def test_entropy_glyph_component_and_validation():
    spec = NamespaceSpec((GlyphString(62, 3),))
    assert entropy_bits(spec) == pytest.approx(3 * math.log2(62))
    with pytest.raises(ValueError):
        NamespaceSpec(())
    with pytest.raises(ValueError):
        entropy_bits(NamespaceSpec((DictionaryWords(0),)))


def test_component_bits_are_closed_forms_at_any_size():
    # 62**(10**9) would take minutes and gigabytes to build; its log2 takes a multiplication
    assert GlyphString(62, 10**9).bits() == 10**9 * math.log2(62)
    assert DecimalDigits(10**9).bits() == 10**9 * math.log2(10)
    assert DictionaryWords(40_000).bits() == math.log2(40_000)


@pytest.mark.parametrize(
    "component, message",
    [
        (DictionaryWords(0), "dictionary size must be >= 1"),
        (DecimalDigits(0), "digit count must be >= 1"),
        (GlyphString(1, 3), "glyph component needs alphabet >= 2 and length >= 1"),
        (GlyphString(62, 0), "glyph component needs alphabet >= 2 and length >= 1"),
    ],
)
def test_a_component_out_of_range_is_refused(component, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        entropy_bits(NamespaceSpec((component,)))


def test_brute_force_week_scale():
    budget = brute_force_time(47, 2**18, 2**10)
    assert budget.full_seconds == pytest.approx(2**19, rel=0.01)
    assert budget.expected_seconds == budget.full_seconds / 2


def test_brute_force_twenty_minutes():
    budget = brute_force_time(38.5, 2**18, 2**10)
    assert 20 * 60 <= budget.full_seconds <= 25 * 60


def test_brute_force_years():
    # the defender-side claim holds at the slow end of the observed
    # 2^17..2^18 per-core decryption range
    slow = brute_force_time(53.8, 2**17, 2**10)
    assert slow.full_years > 2
    fast = brute_force_time(53.8, 2**18, 2**10)
    assert fast.full_years == pytest.approx(1.85, abs=0.01)


def test_brute_force_scaling_and_validation():
    one = brute_force_time(30, 1e6, 1)
    two = brute_force_time(30, 1e6, 2)
    assert two.full_seconds == pytest.approx(one.full_seconds / 2)
    with pytest.raises(ValueError):
        brute_force_time(30, 0, 1)
    for entropy, rate in ((math.nan, 1e6), (30, math.nan), (30, math.inf)):
        with pytest.raises(ValueError):
            brute_force_time(entropy, rate, 1)
    assert brute_force_time(2000, 1e6, 1).full_seconds == math.inf


def test_brute_force_time_holds_where_rate_times_cores_overflows():
    budget = brute_force_time(10, 1e308, 2)  # 1e308 * 2 is inf, and 1024 / inf would read 0 seconds
    assert budget.full_seconds == 1024 / 1e308 / 2 > 0
    assert budget.expected_seconds == budget.full_seconds / 2


def test_brute_force_time_refuses_a_sweep_time_that_underflows():
    # 1 / 1e308 / 1e20 is below the smallest float; at 2e15 cores the sweep is 5e-324 and its half 0
    for entropy, rate, cores in ((0, 1e308, 10**20), (0, 1e308, 2 * 10**15), (1, 1e308, 2**1000)):
        with pytest.raises(ValueError, match="^rate and cores give a sweep time too small for a float$"):
            brute_force_time(entropy, rate, cores)
    assert brute_force_time(0, 1e308, 10**15).expected_seconds == 5e-324


def test_collision_probability_single_trial():
    # a zero-length suffix means |A|^L = 1 try: p collapses to 1/|A|^c
    for a, c in ((2, 3), (10, 2), (62, 1), (62, 2)):
        assert collision_probability(a, c, 0) == pytest.approx(a**-float(c), rel=1e-12)
    assert collision_probability(62, 2, 1) == pytest.approx(1 - (1 - 62.0**-2) ** 62)


def test_collision_probability_examples_and_monotonicity():
    assert collision_probability(62, 2, 3) >= 1 - 1e-20
    rising_l = [collision_probability(16, 3, L) for L in range(1, 6)]
    assert rising_l == sorted(rising_l)
    falling_c = [collision_probability(16, c, 3) for c in range(1, 6)]
    assert falling_c == sorted(falling_c, reverse=True)


def test_collision_probability_extremes_are_stable():
    tiny = collision_probability(62, 40, 2)
    assert tiny == pytest.approx(62.0**2 * 62.0**-40, rel=1e-6)
    assert collision_probability(62, 2, 40) == 1.0
    # per-try probability underflows entirely; the union bound survives
    assert collision_probability(62, 200, 100) == pytest.approx(62.0**-100, rel=1e-6)


@pytest.mark.parametrize("a, c, L, expected", [
    (2, 1100, 1100, -math.expm1(-1.0)),
    (32, 300, 300, -math.expm1(-1.0)),
    (2, 1100, 1099, -math.expm1(-0.5)),
])
def test_collision_probability_holds_where_the_per_try_probability_underflows(a, c, L, expected):
    # p = |A|^-c is 0.0 as a float, yet |A|^L tries make N*p = 1 or 1/2: the answer is 1 - e^-(N*p)
    assert a ** -float(c) == 0.0
    assert collision_probability(a, c, L) == pytest.approx(expected, rel=1e-12)


def test_collision_probability_refuses_an_alphabet_of_one_glyph():
    for args in ((1, 2, 3), (2, 0, 3), (2, 2, -1)):
        with pytest.raises(ValueError, match="^need alphabet size >= 2, tag glyphs >= 1, suffix glyphs >= 0$"):
            collision_probability(*args)


def test_collision_probability_against_simulation():
    # small-space Monte Carlo cross-check
    a, c, L = 4, 2, 2
    p = collision_probability(a, c, L)
    trials = 20_000
    rng = np.random.default_rng(123)
    draws = rng.integers(0, a**c, size=(trials, a**L))
    observed = float((draws == 0).any(axis=1).mean())
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(observed - p) <= 3 * sigma


def test_bandwidth_peak_rate_split():
    budget = bandwidth_budget(7000, 18, 128_000, 140 * 8)
    assert budget.per_tag_per_minute == pytest.approx(1.6, rel=0.01)
    assert budget.link_messages_per_second == pytest.approx(114, rel=0.02)


def test_bandwidth_zero_rate():
    budget = bandwidth_budget(0, 18, 128_000, 140 * 8)
    assert budget.per_tag_per_second == 0
    for k in (0, 65):
        with pytest.raises(ValueError):
            bandwidth_budget(1, k, 1, 1)
    for rates in ((math.nan, 1, 1), (1, math.nan, 1), (1, 1, math.nan), (math.inf, 1, 1), (1, math.inf, 1), (1, 1, math.inf)):
        with pytest.raises(ValueError):
            bandwidth_budget(rates[0], 18, *rates[1:])
    for rates in ((1e308, 1e308, 8e-300), (1e308, 1, 1), (1, 1e308, 1e-10)):  # finite, but the budget overflows
        with pytest.raises(ValueError, match="^rates and sizes give a budget too large for a float$"):
            bandwidth_budget(rates[0], 1, *rates[1:])


def test_corpus_validation_and_io(tmp_path):
    with pytest.raises(ValueError, match="^corpus hashtag 'a' appears more than once$"):
        Corpus((("b", 1), ("a", 1), ("c", 1), ("a", 2), ("c", 2)))
    with pytest.raises(ValueError, match=r"^corpus hashtag 'b': count must be >= 1, not -1$"):
        Corpus((("a", 1), ("b", -1), ("c", 0)))
    corpus = Corpus((("alpha", 3), ("beta,comma", 1)))
    path = tmp_path / "corpus.csv"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded == corpus
    assert loaded.total == 4


def test_generate_powerlaw_corpus_is_deterministic():
    a = generate_powerlaw_corpus(50, 1.0, 1000, seed=4)
    b = generate_powerlaw_corpus(50, 1.0, 1000, seed=4)
    assert a == b
    assert generate_powerlaw_corpus(50, 1.0, 1000, seed=5) != a
    assert a.total == 1000


@pytest.mark.parametrize("exponent", [0.0, -1.0, float("nan")])
def test_corpus_refuses_an_exponent_that_is_not_positive(exponent):
    with pytest.raises(ValueError, match="^need n_tags >= 1, exponent > 0, total >= 1$"):
        generate_powerlaw_corpus(10, exponent, 5)


def test_generate_single_tag_carries_total():
    corpus = generate_powerlaw_corpus(1, 1.0, 777, seed=0)
    assert corpus.entries == (("tag1", 777),)


def test_powerlaw_slope_recovery():
    corpus = generate_powerlaw_corpus(20_000, 1.0, 200_000, seed=8)
    slope = powerlaw_slope(rank_frequency(corpus))
    assert -1.2 <= slope <= -0.8


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.integers(1, 10**9), min_size=2, max_size=1200))
def test_powerlaw_slope_equals_numpy_polyfit(counts):
    pairs = list(enumerate(sorted(counts, reverse=True), 1))
    top = pairs[:1000]
    expected = np.polyfit(np.log([rank for rank, _ in top]), np.log([count for _, count in top]), 1)[0]
    # float64 sums of at most 1,000 logs under 21 each, accumulated in different orders
    assert powerlaw_slope(pairs) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_anonymity_report_buckets_and_cover():
    # engineer a collision, then weight the two groups 100:1
    anchor = PlainTag("superstar-movie")
    spec = SearchSpec(
        prefix="quiet-", target=anchor, suffix_length=3, k=12,
        mode=SearchMode.FIRST_N, count=1, seed=2,
    )
    hidden = find_tag(spec).matches[0][0]
    corpus = Corpus(((anchor.text, 100), (hidden.text, 1), ("loner-tag", 7)))
    report = anonymity_report(corpus, 12)
    assert report.total_volume == 108
    paired = [b for b in report.buckets if len(b.members) == 2]
    assert len(paired) == 1
    bucket = paired[0]
    assert bucket.volume == 101
    assert bucket.cover_ratio(hidden.text) == pytest.approx(100.0)
    assert bucket.cover_ratio(anchor.text) == pytest.approx(0.01)
    assert sum(b.volume for b in report.buckets) == corpus.total


def test_anonymity_report_members_recompute():
    corpus = generate_powerlaw_corpus(200, 1.0, 5000, seed=3)
    report = anonymity_report(corpus, 10)
    for bucket in report.buckets:
        for name, _ in bucket.members:
            assert derive_tag_material(PlainTag(name), FAST_KDF, 10).short_tag == bucket.short_tag


def test_anonymity_report_over_a_full_step_equals_per_tag_bucketing():
    # a corpus of thousands of tags, so the report derives them in one batch
    corpus = generate_powerlaw_corpus(12_000, 1.0, 10**6, seed=3)
    grouped = {}
    for name, count in corpus.entries:
        grouped.setdefault(derive_tag_material(PlainTag(name), FAST_KDF, 16).short_tag, []).append((name, count))
    expected = sorted(
        (
            (tag, tuple(sorted(members, key=lambda m: (-m[1], m[0]))), sum(c for _, c in members))
            for tag, members in grouped.items()
        ),
        key=lambda bucket: (-bucket[2], encode_short_tag(bucket[0])),
    )
    report = anonymity_report(corpus, 16)
    assert [(b.short_tag, b.members, b.volume) for b in report.buckets] == expected
    assert any(len(b.members) > 1 for b in report.buckets)


@settings(max_examples=100, deadline=None)
@given(
    names=st.lists(st.text("ab-1é", min_size=1, max_size=5), min_size=1, max_size=40, unique=True),
    k=st.integers(1, 64),
    top=st.none() | st.integers(0, 5),
)
def test_report_buckets_equal_the_checked_constructions(names, k, top):
    corpus = Corpus(tuple((name, 1 + len(name) % 3) for name in names))
    report = anonymity_report(corpus, k, top_buckets=top)
    for bucket in report.buckets:
        checked = TagBucket(ShortTag(bucket.short_tag.value, k), bucket.token, bucket.members, bucket.volume)
        assert type(bucket) is TagBucket and type(bucket.short_tag) is ShortTag
        assert bucket == checked and hash(bucket) == hash(checked) and repr(bucket) == repr(checked)


def test_anonymity_report_at_k64_under_the_default_kdf_equals_the_reference():
    corpus = Corpus((("one", 5), ("two", 2)))
    report = anonymity_report(corpus, 64)
    assert [(b.short_tag, b.members) for b in report.buckets] == [
        (ShortTag(int.from_bytes(hashlib.sha1(name.encode()).digest()[:8], "big"), 64), ((name, count),))
        for name, count in corpus.entries
    ]


def test_report_render_and_csv():
    corpus = Corpus((("one", 5), ("two", 2)))
    report = anonymity_report(corpus, 8)
    text = report.render()
    assert "total_volume = 7" in text
    csv = report.rank_frequency_csv()
    assert csv.splitlines()[0] == "rank,count"
    assert csv.splitlines()[1] == "1,5"


def test_report_requires_entries():
    with pytest.raises(ValueError):
        anonymity_report(Corpus(()), 12)


def test_report_refuses_a_negative_top_bucket_count():
    corpus = Corpus(tuple((f"tag{i}", i) for i in range(1, 6)))
    with pytest.raises(ValueError, match="top_buckets must be >= 0, not -1"):
        anonymity_report(corpus, 8, top_buckets=-1)
    assert len(anonymity_report(corpus, 8, top_buckets=0).buckets) == 0


# Known answers. "pin24-417" and "pin24-30062" share a 24-bit short tag, and so also their 12- and
# 8-bit ones; "pin12-129", "pin12-228", "pin12-378" share a 12-bit tag, as do "pin12-10" and
# "pin12-22". Volumes tie between buckets and between members of one bucket.
PIN_CORPUS = Corpus((
    ("solo", 10), ("pin24-417", 5), ("pin24-30062", 5), ("pin12-10", 4), ("pin12-22", 6),
    ("pin12-129", 3), ("pin12-228", 7), ("pin12-378", 3), ("café-ñ", 2), ("東京", 1),
    ("x", 1), ("y", 1), ("z", 2),
))
PIN_RANK_FREQUENCY = ((1, 10), (2, 7), (3, 6), (4, 5), (5, 5), (6, 4), (7, 3), (8, 3), (9, 2), (10, 2), (11, 1), (12, 1), (13, 1))
PIN_SLOPE = -0.9273754487346704
TRIPLE = (("pin12-228", 7), ("pin12-129", 3), ("pin12-378", 3))
PIN_BUCKETS = {  # k: (short tag value, token, members, volume) per bucket, in report order
    8: (
        (158, "ty", TRIPLE, 13),
        (7, "a4", (("pin24-30062", 5), ("pin24-417", 5)), 10),
        (73, "je", (("solo", 10),), 10),
        (75, "jm", (("pin12-22", 6), ("pin12-10", 4)), 10),
        (57, "he", (("z", 2),), 2),
        (83, "km", (("café-ñ", 2),), 2),
        (17, "ce", (("x", 1),), 1),
        (104, "na", (("東京", 1),), 1),
        (149, "su", (("y", 1),), 1),
    ),
    12: (
        (2541, "t3i", TRIPLE, 13),
        (117, "a5i", (("pin24-30062", 5), ("pin24-417", 5)), 10),
        (1183, "jhy", (("solo", 10),), 10),
        (1201, "jmi", (("pin12-22", 6), ("pin12-10", 4)), 10),
        (917, "hfi", (("z", 2),), 2),
        (1329, "kmi", (("café-ñ", 2),), 2),
        (287, "chy", (("x", 1),), 1),
        (1665, "nai", (("東京", 1),), 1),
        (2396, "sxa", (("y", 1),), 1),
    ),
    24: (
        (481813, "a5nbk", (("pin24-30062", 5), ("pin24-417", 5)), 10),
        (4846167, "jhzfo", (("solo", 10),), 10),
        (10408673, "t3joc", (("pin12-228", 7),), 7),
        (4920319, "jmj76", (("pin12-22", 6),), 6),
        (4922531, "jmokg", (("pin12-10", 4),), 4),
        (10408993, "t3kcc", (("pin12-129", 3),), 3),
        (10411473, "t3o5c", (("pin12-378", 3),), 3),
        (3759608, "hfo7q", (("z", 2),), 2),
        (5447036, "kmoxy", (("café-ñ", 2),), 2),
        (1177261, "ch3k2", (("x", 1),), 1),
        (6823651, "napog", (("東京", 1),), 1),
        (9816843, "sxfqw", (("y", 1),), 1),
    ),
}
PIN_RENDER_24 = """\
k = 24
hashtags = 13
buckets = 12
total_volume = 50
rank_frequency_slope = -0.9274
tag #a5nbk: groups=2 volume=10 [pin24-30062:5, pin24-417:5]
tag #jhzfo: groups=1 volume=10 [solo:10]
tag #t3joc: groups=1 volume=7 [pin12-228:7]
tag #jmj76: groups=1 volume=6 [pin12-22:6]
tag #jmokg: groups=1 volume=4 [pin12-10:4]
tag #t3kcc: groups=1 volume=3 [pin12-129:3]
tag #t3o5c: groups=1 volume=3 [pin12-378:3]
tag #hfo7q: groups=1 volume=2 [z:2]
tag #kmoxy: groups=1 volume=2 [café-ñ:2]
tag #ch3k2: groups=1 volume=1 [x:1]
tag #napog: groups=1 volume=1 [東京:1]
tag #sxfqw: groups=1 volume=1 [y:1]
"""
PIN_RENDER_12_HEADER = """\
k = 12
hashtags = 13
buckets = 9
total_volume = 50
rank_frequency_slope = -0.9274
"""
PIN_RENDER_12_BUCKETS = """\
tag #t3i: groups=3 volume=13 [pin12-228:7, pin12-129:3, pin12-378:3]
tag #a5i: groups=2 volume=10 [pin24-30062:5, pin24-417:5]
tag #jhy: groups=1 volume=10 [solo:10]
tag #jmi: groups=2 volume=10 [pin12-22:6, pin12-10:4]
tag #hfi: groups=1 volume=2 [z:2]
tag #kmi: groups=1 volume=2 [café-ñ:2]
tag #chy: groups=1 volume=1 [x:1]
tag #nai: groups=1 volume=1 [東京:1]
tag #sxa: groups=1 volume=1 [y:1]
"""
PIN_CSV = "rank,count\n" + "".join(f"{rank},{count}\n" for rank, count in PIN_RANK_FREQUENCY)


def pinned_report(k: int, top: int | None) -> AnonymityReport:
    rows = PIN_BUCKETS[k]
    return AnonymityReport(
        k=k,
        buckets=tuple(TagBucket(ShortTag(value, k), token, members, volume) for value, token, members, volume in rows[:top]),
        bucket_count=len(rows),
        total_volume=50,
        rank_frequency=PIN_RANK_FREQUENCY,
        slope=PIN_SLOPE,
    )


@pytest.mark.parametrize("top", [None, 0, 1, 3])
@pytest.mark.parametrize("k", [8, 12, 24])
def test_anonymity_report_known_answers(k, top):
    report = anonymity_report(PIN_CORPUS, k, top_buckets=top)
    assert report == pinned_report(k, top)
    assert report.rank_frequency_csv() == PIN_CSV


def test_report_render_known_answers():
    assert anonymity_report(PIN_CORPUS, 24).render() == PIN_RENDER_24
    assert anonymity_report(PIN_CORPUS, 12).render() == PIN_RENDER_12_HEADER + PIN_RENDER_12_BUCKETS
    # the order of entries in the corpus does not matter
    shuffled = Corpus(tuple(random.Random(5).sample(PIN_CORPUS.entries, len(PIN_CORPUS.entries))))
    assert anonymity_report(shuffled, 24).render() == PIN_RENDER_24



def test_report_header_describes_the_whole_corpus_under_top():
    lines = PIN_RENDER_12_BUCKETS.splitlines(keepends=True)
    for top in range(len(lines) + 2):
        assert anonymity_report(PIN_CORPUS, 12, top_buckets=top).render() == PIN_RENDER_12_HEADER + "".join(lines[:top])


def test_report_refusal_names_the_bad_hashtag():
    for name, message in [
        ("fo o", "plain tag must not contain whitespace"),
        ("#foo", "plain tag is written without the leading '#'"),
        ("x" * 257, "plain tag exceeds 256 UTF-8 bytes"),
        ("a\ud800", "plain tag is not valid UTF-8"),
    ]:
        corpus = Corpus((("fine", 2), (name, 3)))
        with pytest.raises(ValueError) as refusal:
            anonymity_report(corpus, 8)
        assert str(refusal.value) == f"corpus hashtag {name!r}: {message}"


def test_report_groups_large_buckets_in_linear_time():
    # at k=1 the 50k tags fall into two buckets of about 25k; grouping that copies a
    # bucket per member added makes this report many times slower than at k=24,
    # where nearly every bucket holds one tag and each becomes an object
    corpus = Corpus(tuple((f"t{i}", 1 + i % 7) for i in range(50_000)))

    def seconds(k):
        began = time.perf_counter()
        report = anonymity_report(corpus, k)
        assert sum(bucket.volume for bucket in report.buckets) == report.total_volume
        return time.perf_counter() - began

    assert min(seconds(1), seconds(1)) < 2 * min(seconds(24), seconds(24))


@pytest.mark.parametrize("count", [2.5, True, math.nan, "3"])
def test_corpus_refuses_a_count_that_is_not_an_integer(count):
    # a float would be summed into total_volume, True counted as 1, a NaN would fail the
    # report's volume check and a string the comparison with 1
    with pytest.raises(ValueError) as refusal:
        Corpus((("fine", 2), ("odd", count)))
    assert str(refusal.value) == f"corpus hashtag 'odd': count must be an integer, not {count!r}"


def test_report_buckets_hold_no_per_instance_dict():
    # a bucket and its short tag take about 112 bytes slotted, and the buckets tuple 8 more per
    # bucket; with a __dict__ on each they took about 488
    corpus = Corpus(tuple((f"t{i}", 1 + i % 7) for i in range(10_000)))
    tracemalloc.start()
    try:
        report = anonymity_report(corpus, 24)
        kept = report.rank_frequency, [(b.short_tag.value, b.token, b.members, b.volume) for b in report.buckets]
        held = tracemalloc.get_traced_memory()[0]
        del report  # frees the buckets, their short tags and the tuple of them, but no value they hold
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(kept[1]) > 9_900  # at k=24 nearly every tag has a bucket of its own
    assert freed <= 200 * len(kept[1])


def test_load_corpus_locates_a_bad_count(tmp_path):
    path = tmp_path / "tags.csv"
    path.write_text("hashtag,count\nfoo,3\nbar,x\n")
    with pytest.raises(ValueError) as refusal:
        load_corpus(path)
    assert str(refusal.value) == f"{path}:3: invalid literal for int() with base 10: 'x'"


def test_load_corpus_locates_a_line_without_a_comma(tmp_path):
    path = tmp_path / "tags.csv"
    path.write_text("hashtag,count\nfoo,3\nbar\n")
    with pytest.raises(ValueError) as refusal:
        load_corpus(path)
    assert str(refusal.value) == f"{path}:3: expected 'hashtag,count'"
