"""Quantitative sizing of the protocol: entropy, collisions, bandwidth.

Everything here is closed-form arithmetic or corpus bookkeeping:

* entropy of plain-tag namespaces and the brute-force budget they buy,
* the probability that a suffix search of given size finds at least
  one collision with a target short tag,
* per-short-tag traffic under a uniform split of a global message rate,
* anonymity-set reports grouping a hashtag corpus by derived short tag,
  with rank-frequency data for eyeballing the heavy-tailed volume
  distribution.

The power-law "fit" is a log-log least-squares slope over the top
ranks. It is an inspection aid for generated and real corpora, not a
rigorous tail estimator.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .errors import PlainTagError
from .tagcrypt import (
    FAST_KDF,
    KdfConfig,
    ShortTag,
    _build_short_tag,
    _builder,
    check_k_range,
    encode_plain_tags,
    short_tags,
)
from .wire import encode_short_tags

SECONDS_PER_YEAR = 365.25 * 86400.0
_SLOPE_RANKS = 1000  # powerlaw_slope fits this many ranks, from the top


@dataclass(frozen=True)
class DictionaryWords:
    """One word drawn from a dictionary of ``size`` entries."""

    size: int

    def bits(self) -> float:
        if self.size < 1:
            raise ValueError("dictionary size must be >= 1")
        return math.log2(self.size)


@dataclass(frozen=True)
class DecimalDigits:
    count: int

    def bits(self) -> float:
        if self.count < 1:
            raise ValueError("digit count must be >= 1")
        return self.count * math.log2(10)


@dataclass(frozen=True)
class GlyphString:
    alphabet_size: int
    length: int

    def bits(self) -> float:
        if self.alphabet_size < 2 or self.length < 1:
            raise ValueError("glyph component needs alphabet >= 2 and length >= 1")
        return self.length * math.log2(self.alphabet_size)


@dataclass(frozen=True)
class NamespaceSpec:
    components: tuple

    def __post_init__(self):
        if not self.components:
            raise ValueError("namespace needs at least one component")


def entropy_bits(spec: NamespaceSpec) -> float:
    """log2 of the namespace cardinality: the sum of each component's log2, so no cardinality is built."""
    return sum(c.bits() for c in spec.components)


@dataclass(frozen=True)
class BruteForceTime:
    full_seconds: float
    expected_seconds: float

    @property
    def full_years(self) -> float:
        return self.full_seconds / SECONDS_PER_YEAR


def brute_force_time(entropy: float, rate: float, cores: int = 1) -> BruteForceTime:
    """Seconds to sweep a namespace at ``rate`` tries/sec/core.

    ``full_seconds`` covers the whole space; the expected time to the
    hit is half that; a space too large for a float takes ``inf`` seconds.
    """
    if not (entropy >= 0 and 0 < rate < math.inf) or cores < 1:  # a NaN fails both comparisons
        raise ValueError("entropy, rate, and cores must be positive, and the rate finite")
    full = (2.0**entropy if entropy < sys.float_info.max_exp else math.inf) / rate  # rate * cores may overflow
    if full < math.inf:  # int / int is correctly rounded for any core count; a float of a huge count overflows
        numerator, denominator = full.as_integer_ratio()
        full = numerator / (denominator * cores)
    if full / 2.0 == 0:  # a space of at least one tag takes some time; the quotient underflowed
        raise ValueError("rate and cores give a sweep time too small for a float")
    return BruteForceTime(full, full / 2.0)


def collision_probability(alphabet_size: int, short_tag_glyphs: int, suffix_glyphs: int) -> float:
    """P(at least one collision) for N = |A|^L tries against a c-glyph tag.

    With p = |A|^-c, evaluates 1 - (1 - p)^N = -expm1(-exp(ln N + ln(-log1p(-p)))).
    Below p = 2^-53, -log1p(-p) rounds to p, so ln p = -c ln|A| stands
    in and a p that underflows does no harm. The exponent is clamped at
    709, just below where exp overflows; the answer there is 1.0.
    """
    if alphabet_size < 2 or short_tag_glyphs < 1 or suffix_glyphs < 0:
        raise ValueError("need alphabet size >= 2, tag glyphs >= 1, suffix glyphs >= 0")
    ln_a = math.log(alphabet_size)
    ln_p = -short_tag_glyphs * ln_a
    p = math.exp(ln_p)
    ln_rate = ln_p if p < 2.0**-53 else math.log(-math.log1p(-p))
    return -math.expm1(-math.exp(min(709.0, suffix_glyphs * ln_a + ln_rate)))


@dataclass(frozen=True)
class BandwidthBudget:
    per_tag_per_second: float
    per_tag_per_minute: float
    link_messages_per_second: float


def bandwidth_budget(total_rate: float, k: int, link_bits_per_second: float, message_bits: float) -> BandwidthBudget:
    """Per-short-tag rate under a uniform split, and what a link carries."""
    check_k_range(k)
    if not (0 <= total_rate < math.inf and 0 < link_bits_per_second < math.inf and 0 < message_bits < math.inf):
        raise ValueError("rates and sizes must be positive and finite")  # a NaN fails the comparisons too
    per_tag, per_link = total_rate / 2.0**k, link_bits_per_second / message_bits
    if max(per_tag * 60.0, per_link) == math.inf:  # finite inputs whose quotient or product overflows
        raise ValueError("rates and sizes give a budget too large for a float")
    return BandwidthBudget(per_tag, per_tag * 60.0, per_link)


@dataclass(frozen=True)
class Corpus:
    """Hashtag activity counts: unique tags, each with a positive volume."""

    entries: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.entries]
        if len(set(names)) != len(names):
            seen = Counter(names)
            repeated = next(name for name in names if seen[name] > 1)
            raise ValueError(f"corpus hashtag {repeated!r} appears more than once")
        for name, count in self.entries:
            if type(count) is not int:  # so a bool, a float (NaN too) or a string is refused, not summed or compared
                raise ValueError(f"corpus hashtag {name!r}: count must be an integer, not {count!r}")
            if count < 1:
                raise ValueError(f"corpus hashtag {name!r}: count must be >= 1, not {count}")

    @property
    def total(self) -> int:
        return sum(count for _, count in self.entries)


def load_corpus(path) -> Corpus:
    """Read `hashtag,count` lines (a `hashtag,count` header is skipped)."""
    entries = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line or (lineno == 1 and line.lower() == "hashtag,count"):
                continue
            name, _, count = line.rpartition(",")
            if not name:
                raise ValueError(f"{path}:{lineno}: expected 'hashtag,count'")
            try:
                entries.append((name, int(count)))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return Corpus(tuple(entries))


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("hashtag,count\n")
        for name, count in corpus.entries:
            handle.write(f"{name},{count}\n")


def generate_powerlaw_corpus(n_tags: int, exponent: float, total: int, seed: int = 0) -> Corpus:
    """Sample a corpus whose tag volumes follow a Zipf law.

    ``total`` messages are spread over ``n_tags`` ranked tags with
    probability proportional to rank^-exponent; tags that draw zero
    volume are dropped (the realized corpus may hold fewer tags).
    """
    if n_tags < 1 or not exponent > 0 or total < 1:  # a NaN exponent fails too
        raise ValueError("need n_tags >= 1, exponent > 0, total >= 1")
    import numpy as np  # here only, so that importing hoot.analysis or hoot.cli never loads numpy

    try:
        ranks = np.arange(1, n_tags + 1, dtype=np.float64)
        weights = ranks**-exponent
        probabilities = weights / weights.sum()
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(total, probabilities)
    except MemoryError:  # numpy's _ArrayMemoryError, for an array too large to allocate
        raise ValueError(f"a corpus of {n_tags} tags does not fit in memory") from None
    width = len(str(n_tags))
    entries = tuple(
        (f"tag{rank:0{width}d}", int(count))
        for rank, count in enumerate(counts, 1)
        if count > 0
    )
    return Corpus(entries)


def rank_frequency(corpus: Corpus) -> list[tuple[int, int]]:
    """(rank, count) pairs, counts descending, for log-log plots."""
    ordered = sorted((count for _, count in corpus.entries), reverse=True)
    return list(enumerate(ordered, 1))


def powerlaw_slope(pairs) -> float | None:
    """Least-squares slope of log(count) vs log(rank) over the top ``_SLOPE_RANKS`` ranks."""
    import statistics  # here only, so that importing hoot.analysis or loading a corpus never loads it
    top = pairs[:_SLOPE_RANKS]
    if len(top) < 2:
        return None
    ranks = [math.log(rank) for rank, _ in top]
    counts = [math.log(count) for _, count in top]
    return statistics.linear_regression(ranks, counts).slope


@dataclass(frozen=True, slots=True)
class TagBucket:
    short_tag: ShortTag
    token: str
    members: tuple[tuple[str, int], ...]
    volume: int

    def cover_ratio(self, hashtag: str) -> float:
        """Other groups' volume relative to one member's own volume."""
        own = dict(self.members)[hashtag]
        return (self.volume - own) / own


_build_bucket = _builder(TagBucket)


@dataclass(frozen=True)
class AnonymityReport:
    """Buckets of a corpus, largest first, cut to ``top_buckets``.

    ``bucket_count``, ``total_volume`` and ``rank_frequency`` (one pair
    per hashtag) describe the whole corpus, whatever the cut.
    """

    k: int
    buckets: tuple[TagBucket, ...]
    bucket_count: int
    total_volume: int
    rank_frequency: tuple[tuple[int, int], ...]
    slope: float | None

    def render(self) -> str:
        lines = [
            f"k = {self.k}",
            f"hashtags = {len(self.rank_frequency)}",
            f"buckets = {self.bucket_count}",
            f"total_volume = {self.total_volume}",
            f"rank_frequency_slope = {'n/a' if self.slope is None else f'{self.slope:.4f}'}",
        ]
        for bucket in self.buckets:
            members = ", ".join(f"{name}:{count}" for name, count in bucket.members)
            lines.append(
                f"tag #{bucket.token}: groups={len(bucket.members)} volume={bucket.volume} [{members}]"
            )
        return "\n".join(lines) + "\n"

    def rank_frequency_csv(self) -> str:
        return "rank,count\n" + "".join(f"{rank},{count}\n" for rank, count in self.rank_frequency)


def anonymity_report(corpus: Corpus, k: int, kdf: KdfConfig = FAST_KDF, *, top_buckets: int | None = None) -> AnonymityReport:
    """Group a corpus by derived short tag and measure the cover traffic.

    Buckets come back sorted by volume (largest first, ties by token),
    each listing its colliding hashtags by volume (ties by name).
    ``top_buckets`` truncates the bucket list in the report; volumes are
    conserved regardless.

    The work is done over whole lists: the names are checked and
    encoded in C-level calls, hashed by ``short_tags`` and their tokens
    built by ``encode_short_tags``; entries and buckets are each put in
    order by two key sorts. Only the buckets kept become objects: each
    a slotted TagBucket and ShortTag, built positionally by their
    generated builders, which skip the checks those lists have passed.
    """
    if not corpus.entries:
        raise ValueError("corpus is empty")
    if top_buckets is not None and top_buckets < 0:
        raise ValueError(f"top_buckets must be >= 0, not {top_buckets}")
    entries = sorted(corpus.entries, key=itemgetter(0))  # names are unique, so the stable sort
    entries.sort(key=itemgetter(1), reverse=True)  # by count leaves each count's names in order
    try:
        values = short_tags(encode_plain_tags(list(map(itemgetter(0), entries))), kdf, k)
    except PlainTagError as exc:
        raise ValueError(f"corpus hashtag {exc.text!r}: {exc}") from None
    grouped: dict[int, list[tuple[str, int]]] = {}
    for value, entry in zip(values, entries):
        grouped.setdefault(value, []).append(entry)
    total = sum(map(itemgetter(1), entries))
    pairs = tuple(enumerate(map(itemgetter(1), entries), 1))
    del entries, values  # each list is freed once read, so the peak stays near the report's own size
    volumes = [sum(map(itemgetter(1), members)) for members in grouped.values()]
    rows = sorted(zip(volumes, encode_short_tags(list(grouped), k), grouped, map(tuple, grouped.values())),
                  key=itemgetter(1))
    del grouped, volumes
    rows.sort(key=itemgetter(0), reverse=True)  # by volume, each volume's tokens left in order
    assert sum(map(itemgetter(0), rows)) == total
    return AnonymityReport(
        k=k,
        # short_tags checked k and encode_short_tags that every value fits in k bits
        buckets=tuple([
            _build_bucket(_build_short_tag(value, k), token, members, volume)
            for volume, token, value, members in rows[:top_buckets]
        ]),
        bucket_count=len(rows),
        total_volume=total,
        rank_frequency=pairs,
        slope=powerlaw_slope(pairs),
    )
