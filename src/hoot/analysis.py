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
import statistics
from dataclasses import dataclass

from .tagcrypt import FAST_KDF, KdfConfig, PlainTag, ShortTag, short_tags
from .wire import encode_short_tag

SECONDS_PER_YEAR = 365.25 * 86400.0


@dataclass(frozen=True)
class DictionaryWords:
    """One word drawn from a dictionary of ``size`` entries."""

    size: int

    def cardinality(self) -> int:
        if self.size < 1:
            raise ValueError("dictionary size must be >= 1")
        return self.size


@dataclass(frozen=True)
class DecimalDigits:
    count: int

    def cardinality(self) -> int:
        if self.count < 1:
            raise ValueError("digit count must be >= 1")
        return 10**self.count


@dataclass(frozen=True)
class GlyphString:
    alphabet_size: int
    length: int

    def cardinality(self) -> int:
        if self.alphabet_size < 2 or self.length < 1:
            raise ValueError("glyph component needs alphabet >= 2 and length >= 1")
        return self.alphabet_size**self.length


@dataclass(frozen=True)
class NamespaceSpec:
    components: tuple

    def __post_init__(self):
        if not self.components:
            raise ValueError("namespace needs at least one component")


def entropy_bits(spec: NamespaceSpec) -> float:
    """log2 of the namespace cardinality."""
    return sum(math.log2(c.cardinality()) for c in spec.components)


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
    hit is half that.
    """
    if entropy < 0 or rate <= 0 or cores < 1:
        raise ValueError("entropy, rate, and cores must be positive")
    full = 2.0**entropy / (rate * cores)
    return BruteForceTime(full, full / 2.0)


def collision_probability(alphabet_size: int, short_tag_glyphs: int, suffix_glyphs: int) -> float:
    """P(at least one collision) for |A|^L tries against a c-glyph tag.

    Evaluates 1 - (1 - |A|^-c)^(|A|^L) in log space so extreme
    parameters neither overflow nor lose the tiny-probability regime.
    """
    if alphabet_size < 2 or short_tag_glyphs < 1 or suffix_glyphs < 0:
        raise ValueError("need alphabet size >= 2, tag glyphs >= 1, suffix glyphs >= 0")
    ln_a = math.log(alphabet_size)
    single = math.exp(-short_tag_glyphs * ln_a)
    trials_ln = suffix_glyphs * ln_a
    if single == 0.0:
        # per-try probability underflowed; first-order union bound in logs
        return math.exp(min(0.0, trials_ln - short_tag_glyphs * ln_a))
    log_miss = math.log1p(-single)
    try:
        exponent = -math.exp(trials_ln + math.log(-log_miss))
    except OverflowError:
        return 1.0
    return -math.expm1(exponent)


@dataclass(frozen=True)
class BandwidthBudget:
    per_tag_per_second: float
    per_tag_per_minute: float
    link_messages_per_second: float


def bandwidth_budget(total_rate: float, k: int, link_bits_per_second: float, message_bits: float) -> BandwidthBudget:
    """Per-short-tag rate under a uniform split, and what a link carries."""
    if total_rate < 0 or k < 1 or link_bits_per_second <= 0 or message_bits <= 0:
        raise ValueError("rates, k, and sizes must be positive")
    per_tag = total_rate / 2.0**k
    return BandwidthBudget(per_tag, per_tag * 60.0, link_bits_per_second / message_bits)


@dataclass(frozen=True)
class Corpus:
    """Hashtag activity counts: unique tags, each with a positive volume."""

    entries: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("corpus hashtags must be unique")
        if any(count < 1 for _, count in self.entries):
            raise ValueError("corpus counts must be >= 1")

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
            entries.append((name, int(count)))
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
    if n_tags < 1 or exponent <= 0 or total < 1:
        raise ValueError("need n_tags >= 1, exponent > 0, total >= 1")
    import numpy as np  # here only, so that importing hoot.analysis or hoot.cli never loads numpy

    ranks = np.arange(1, n_tags + 1, dtype=np.float64)
    weights = ranks**-exponent
    probabilities = weights / weights.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(total, probabilities)
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


def powerlaw_slope(pairs, max_rank: int = 1000) -> float | None:
    """Least-squares slope of log(count) vs log(rank) over the top ranks."""
    top = pairs[:max_rank]
    if len(top) < 2:
        return None
    ranks = [math.log(rank) for rank, _ in top]
    counts = [math.log(count) for _, count in top]
    return statistics.linear_regression(ranks, counts).slope


@dataclass(frozen=True)
class TagBucket:
    short_tag: ShortTag
    token: str
    members: tuple[tuple[str, int], ...]
    volume: int

    def cover_ratio(self, hashtag: str) -> float:
        """Other groups' volume relative to one member's own volume."""
        own = dict(self.members)[hashtag]
        return (self.volume - own) / own


@dataclass(frozen=True)
class AnonymityReport:
    k: int
    buckets: tuple[TagBucket, ...]
    total_volume: int
    rank_frequency: tuple[tuple[int, int], ...]
    slope: float | None

    def render(self) -> str:
        lines = [
            f"k = {self.k}",
            f"hashtags = {sum(len(b.members) for b in self.buckets)}",
            f"buckets = {len(self.buckets)}",
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

    Buckets come back sorted by volume (largest first), each listing
    its colliding hashtags. ``top_buckets`` truncates the bucket list
    in the report; volumes are conserved regardless.
    """
    if not corpus.entries:
        raise ValueError("corpus is empty")
    if top_buckets is not None and top_buckets < 0:
        raise ValueError(f"top_buckets must be >= 0, not {top_buckets}")
    entries = sorted(corpus.entries, key=lambda m: (-m[1], m[0]))  # each bucket lists its largest first
    values = short_tags([PlainTag(name).encoded() for name, _ in entries], kdf, k)  # PlainTag checks outside names
    grouped: dict[int, list[tuple[str, int]]] = {}
    for value, entry in zip(values, entries):
        grouped.setdefault(value, []).append(entry)
    buckets = []
    for value, members in grouped.items():
        tag = ShortTag(value, k)
        buckets.append(TagBucket(tag, encode_short_tag(tag), tuple(members), sum(count for _, count in members)))
    buckets.sort(key=lambda b: (-b.volume, b.token))
    assert sum(b.volume for b in buckets) == corpus.total
    pairs = tuple(rank_frequency(corpus))
    return AnonymityReport(
        k=k,
        buckets=tuple(buckets[:top_buckets]),
        total_volume=corpus.total,
        rank_frequency=pairs,
        slope=powerlaw_slope(pairs),
    )
