"""The benchmark's workloads: inputs made from the seed, one timed
operation at a time, and the checks that judge each operation.

Every workload has the same shape:

* ``__init__(hoot, seed, outdir)`` makes the inputs that need no program
  set-up and fills ``probe_spec``, the set-up a fresh interpreter repeats
  for ``setup_s`` (see ``probe.py``);
* ``prepare(state)`` takes the result of that set-up and makes the rest;
* ``rep(i, tally)`` runs operation i (0 is the untimed warm-up), checks
  its output outside the timed region, and returns (work done in
  ``unit``, seconds). Any ``cycle`` consecutive operations make one unit
  of work with the same per-layer counts, which the traced run measures;
* ``speed_kernel`` names the ``run.machine_speed`` kernel that tracks the
  workload, and ``alias`` the name its rate is printed under.

Operation mixes and sizes are fixed; the seed only changes the content,
so a run's figures do not depend on which seed it is given.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import string
import time
from pathlib import Path

import numpy as np

import reference

ALPHANUMERIC = string.ascii_lowercase + string.ascii_uppercase + string.digits


class SubscriberFilter:
    """One subscriber filters a feed that is almost all cover traffic."""

    name = "subscriber-filter"
    unit = "lines"
    alias = "filter_lines_per_s"
    speed_kernel = "interpreter"
    K = 24
    LINES = 20_000
    OWN = 100
    MALFORMED = 100
    CHUNK = 2_000
    cycle = LINES // CHUNK

    def __init__(self, hoot, seed: int, outdir):
        self.hoot = hoot
        self.seed = seed
        self.probe_spec = {"workload": self.name, "tag": f"garden-party-{seed}", "k": self.K}

    def prepare(self, material):
        self.material = material
        self.params = self.hoot.wire.WireParams(k=self.K)
        rng = random.Random(self.seed)
        ours = (material.short_tag.value, material.tag_key)
        cap = reference.capacity(1, self.K)
        pairs = []
        for i in range(self.OWN):
            message = rng.randbytes(cap if i == 0 else rng.randint(0, cap))
            pairs.append((reference.seal_line(message, [ours], self.K, rng), message))
        for _ in range(self.LINES - self.OWN - self.MALFORMED):
            # a colliding group's hoot relabelled with our short tag:
            # the key block unwraps under the wrong key, so the MAC fails
            foreign = (ours[0], rng.randbytes(16))
            message = rng.randbytes(rng.randint(0, cap))
            pairs.append((reference.seal_line(message, [foreign], self.K, rng), None))
        for i in range(self.MALFORMED):
            pairs.append(malformed_line(i, ours[0], self.K, rng))
        rng.shuffle(pairs)
        if max(len(line) for line, _ in pairs) > 140:
            raise RuntimeError("generated a line over the 140-glyph budget")
        self.chunks = [pairs[i : i + self.CHUNK] for i in range(0, self.LINES, self.CHUNK)]

    def rep(self, i: int, tally):
        chunk = self.chunks[i % self.cycle]
        parse, open_ = self.hoot.wire.parse, self.hoot.tagcrypt.open_with_material
        params, material = self.params, self.material
        out = []
        began = time.perf_counter()
        for line, _ in chunk:
            try:
                out.append(open_(parse(line, params), material))
            except Exception as exc:  # a ParseError is expected for planted lines
                out.append(exc)
        elapsed = time.perf_counter() - began
        ParseError = self.hoot.ParseError
        for got, (_, want) in zip(out, chunk):
            if isinstance(want, str):
                tally.check(isinstance(got, ParseError) and got.kind == want)
            elif want is None:
                tally.check(got is None)
            else:
                tally.check(isinstance(got, bytes) and got == want)
        return len(chunk), elapsed


def malformed_line(i: int, our_tag: int, k: int, rng) -> tuple[str, str]:
    """The i-th planted malformed line and the ParseError kind it must raise.

    Lines stay within 140 glyphs, so a budget check cannot pre-empt the
    planted fault.
    """
    tag = "#" + reference.token(our_tag, k)
    # an empty message: 60 payload bytes, 80 base64 glyphs
    payload = reference.seal_line(b"", [(our_tag, rng.randbytes(16))], k, rng).split(" ")[1]
    # k=24 leaves one padding bit in the last tag glyph; set it
    padded = tag[:-1] + reference.BASE32[reference.BASE32.index(tag[-1]) | 1]
    variants = [
        ("no-tag", payload),
        ("no-tag", "meet at dawn by the old mill"),
        ("bad-tag", tag[:-1] + " " + payload),
        ("bad-tag", tag[:-1] + "1 " + payload),
        ("bad-tag", padded + " " + payload),
        ("payload-length", tag),
        ("payload-length", tag + " " + payload[:-3]),
        ("payload-length", tag + " " + payload[:40]),
        ("payload-length", tag + " " + payload + "AB"),
        ("bad-alphabet", tag + " " + payload[:10] + "-" + payload[11:]),
        ("bad-alphabet", tag + " " + payload[:40] + " " + payload[40:]),
        ("bad-alphabet", tag + " " + payload + "="),
    ]
    kind, line = variants[i % len(variants)]
    return line, kind


# [target, cover, unrelated, short tag]: target and cover collide on the
# 16-bit short tag under the memory-hard KDF at work 2^14, the unrelated
# tag does not. Made by make_scenario_tags.py.
SCENARIO_TAGS = json.loads((Path(__file__).parent / "scenario_tags.json").read_text())


class CensorScenario:
    """A censor whitelists the target's colliding short tag for a known cover group.

    Every operation runs a new script on tags no earlier operation used,
    as each ``hoot simulate`` does: a tag-material cache may save work
    within one scenario but cannot carry results over from the last one.
    The whitelist names the short tag, as a censor reads it off the wire,
    so loading a script derives nothing.
    """

    name = "censor-scenario"
    unit = "posts"
    alias = "scenario_posts_per_s"
    speed_kernel = "scrypt"
    MESSAGES = 16
    REPLAYS = 3
    cycle = 1

    def __init__(self, hoot, seed: int, outdir):
        self.hoot = hoot
        self.seed = seed
        self.offset = random.Random(seed).randrange(len(SCENARIO_TAGS))
        self.probe_spec = {"workload": self.name, "script": self.script(0)}
        # What the script implies: every target post (replays included,
        # since a censored post never enters the replay index) is blocked
        # by the whitelist, nothing else is, and the other replays are
        # rejected as replays.
        per_group = self.MESSAGES + self.REPLAYS
        self.expected = {
            "submitted": 3 * per_group,
            "accepted": 2 * self.MESSAGES,
            "rejected_replay": 2 * self.REPLAYS,
            "rejected_censored": per_group,
            "rejected_malformed": 0,
            "target_posts": per_group,
            "target_blocked": per_group,
            "collateral_posts": 2 * per_group,
            "collateral_blocked": 0,
        }
        # (carries the shared token, groups, posts, blocked) per short tag
        self.expected_tags = [
            (False, ["neighbours"], per_group, 0),
            (True, ["fans", "organizers"], 2 * per_group, per_group),
        ]

    def script(self, i: int) -> dict:
        target, cover, unrelated, short = SCENARIO_TAGS[(self.offset + i) % len(SCENARIO_TAGS)]
        groups = [("organizers", target), ("fans", cover), ("neighbours", unrelated)]
        return {
            "seed": self.seed * 4096 + i,
            "k": 16,
            "kdf": {"mode": "memory-hard", "work": 2**14},
            "target_group": "organizers",
            "groups": [
                {"name": name, "plain_tag": tag, "messages": self.MESSAGES, "replays": self.REPLAYS}
                for name, tag in groups
            ],
            "policy": [
                {
                    "type": "whitelist-short-tag",
                    "short_tag": reference.token(short, 16),
                    "known_plain_tags": [cover],
                },
                {"type": "block-sender", "sender": "organizers"},
            ],
        }

    def prepare(self, script):
        self.first = script

    def rep(self, i: int, tally):
        script = self.first if i == 0 else self.hoot.feed.load_scenario(self.script(i))
        shared = reference.token(SCENARIO_TAGS[(self.offset + i) % len(SCENARIO_TAGS)][3], 16)
        run_scenario = self.hoot.feed.run_scenario
        began = time.perf_counter()
        stats = run_scenario(script)
        elapsed = time.perf_counter() - began
        summary = stats.to_dict()
        tags = sorted(
            (token == shared, t["groups"], t["total"], t["blocked"]) for token, t in summary["per_tag"].items()
        )
        ok = all(summary[key] == want for key, want in self.expected.items()) and tags == self.expected_tags
        if i == 0:  # the untimed warm-up also checks that a rerun renders identically
            ok = ok and run_scenario(script).render() == stats.render()
        tally.check(ok)
        return self.expected["submitted"], elapsed


def collider_matches(prefix: str, length: int, k: int, targets: list[str]) -> dict[str, list[str]]:
    """Every plain tag ``prefix + suffix`` whose fast-hash short tag equals a
    target's, found by walking the whole space with ``hashlib``."""
    wanted: dict[int, list[str]] = {}
    for target in targets:
        wanted.setdefault(reference.short_tag_fast(target, k), []).append(target)
    found: dict[str, list[str]] = {target: [] for target in targets}
    base = hashlib.sha1(prefix.encode("utf-8"))
    shift = 32 - k
    for glyphs in itertools.product(ALPHANUMERIC, repeat=length):
        suffix = "".join(glyphs)
        h = base.copy()
        h.update(suffix.encode("utf-8"))
        hits = wanted.get(int.from_bytes(h.digest()[:4], "big") >> shift)
        if hits:
            for target in hits:
                found[target].append(prefix + suffix)
    return found


class _Collider:
    SUFFIX = 3
    space = len(ALPHANUMERIC) ** SUFFIX

    def __init__(self, hoot, seed: int, outdir):
        self.hoot = hoot
        rng = random.Random(seed)
        self.prefix = f"fan-club-{rng.randrange(10**4)}-"
        self.targets = [f"topic-{rng.randrange(10**9)}" for _ in range(self.TARGETS)]
        self.oracle = collider_matches(self.prefix, self.SUFFIX, self.K, self.targets)
        self.probe_spec = {
            "workload": self.name,
            "prefix": self.prefix,
            "targets": self.targets,
            "suffix_length": self.SUFFIX,
            "alphabet": ALPHANUMERIC,
            "mode": self.MODE,
            "count": self.COUNT,
            "k": self.K,
            "seeds": self.SEEDS,
        }
        self.cycle = len(self.targets) * len(self.SEEDS)

    def prepare(self, searches):
        self.searches = searches

    def genuine(self, result, target: str) -> bool:
        """Each match recomputes, with hashlib alone, to the target's short tag."""
        want = reference.short_tag_fast(target, self.K)
        return all(
            tag.k == self.K and tag.value == want and reference.short_tag_fast(plain.text, self.K) == want
            for plain, tag in result.matches
        )


class CollideExhaustive(_Collider):
    """Exhaustive suffix search split over two shards."""

    name = "collider-exhaustive"
    unit = "candidates"
    alias = "collide_exhaustive_cands_per_s"
    speed_kernel = "scrypt"
    MODE = "exhaustive"
    K = 12
    COUNT = 1
    TARGETS = 3
    SEEDS = [0]
    SHARDS = 2

    def rep(self, i: int, tally):
        search = self.searches[i % self.cycle]
        target = self.targets[i % self.cycle]
        find_tag_sharded = self.hoot.collider.find_tag_sharded
        began = time.perf_counter()
        result = find_tag_sharded(search, self.SHARDS)
        elapsed = time.perf_counter() - began
        names = sorted(plain.text for plain, _ in result.matches)
        tally.check(
            names == sorted(self.oracle[target])
            and result.candidates_tried == self.space
            and self.genuine(result, target)
        )
        return self.space, elapsed


class CollideFirstN(_Collider):
    """Serial first-n search: the first two matches in a seeded order."""

    name = "collider-first-n"
    unit = "candidates"
    alias = "collide_first_n_cands_per_s"
    speed_kernel = "interpreter"
    MODE = "first-n"
    K = 16
    COUNT = 2
    TARGETS = 2
    SEEDS = [1, 2]

    def prepare(self, searches):
        super().prepare(searches)
        self.first_result = {}

    def rep(self, i: int, tally):
        index = i % self.cycle
        search = self.searches[index]
        target = self.targets[index // len(self.SEEDS)]
        find_tag = self.hoot.collider.find_tag
        began = time.perf_counter()
        result = find_tag(search)
        elapsed = time.perf_counter() - began
        names = [plain.text for plain, _ in result.matches]
        everything = self.oracle[target]
        tried = result.candidates_tried
        ok = (
            len(names) == min(self.COUNT, len(everything))
            and len(set(names)) == len(names)
            and set(names) <= set(everything)
            and self.genuine(result, target)
            and (tried == self.space if len(everything) < self.COUNT else self.COUNT <= tried <= self.space)
            and (names, tried) == self.first_result.setdefault(index, (names, tried))
        )
        tally.check(ok)
        return tried, elapsed


class CorpusReport:
    """Anonymity report over a Zipf(1.0) corpus of distinct hashtags.

    Every operation reports on a corpus of tags no earlier operation saw,
    so a tag-material cache cannot help, while any memory it holds shows
    in ``peak_rss_mb``. Set-up loads the first corpus with ``load_corpus``.
    """

    name = "corpus-report"
    unit = "tags"
    alias = "report_tags_per_s"
    speed_kernel = "interpreter"
    K = 24
    TAGS = 10_000
    VOLUME = 100_000
    cycle = 1

    def __init__(self, hoot, seed: int, outdir):
        self.hoot = hoot
        self.seed = seed
        weights = 1.0 / np.arange(1, self.TAGS + 1)
        counts = 1 + np.random.default_rng(seed).multinomial(self.VOLUME - self.TAGS, weights / weights.sum())
        self.counts = [int(count) for count in counts]
        self.path = outdir / f"corpus-{os.getpid()}.csv"
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write("hashtag,count\n")
            handle.writelines(f"{name},{count}\n" for name, count in self.entries(0))
        self.probe_spec = {"workload": self.name, "corpus": str(self.path)}

    def entries(self, i: int) -> list[tuple[str, int]]:
        """The i-th corpus: distinct random names, in rank order of volume."""
        rng = random.Random(f"corpus:{self.seed}:{i}")
        names: dict[str, None] = {}
        while len(names) < self.TAGS:
            names[format(rng.getrandbits(rng.randint(20, 56)), "x")] = None
        return list(zip(names, self.counts))

    def prepare(self, corpus):
        self.first = corpus

    def rep(self, i: int, tally):
        truth = self.entries(i)
        corpus = self.first if i == 0 else self.hoot.analysis.Corpus(tuple(truth))
        counts = dict(truth)
        anonymity_report = self.hoot.analysis.anonymity_report
        began = time.perf_counter()
        report = anonymity_report(corpus, self.K)
        elapsed = time.perf_counter() - began
        seen = set()
        ok = report.total_volume == self.VOLUME
        for bucket in report.buckets:
            value = bucket.short_tag.value
            ok = ok and bucket.token == reference.token(value, self.K)
            ok = ok and bucket.volume == sum(count for _, count in bucket.members)
            for name, count in bucket.members:
                ok = ok and reference.short_tag_fast(name, self.K) == value and counts.get(name) == count
                ok = ok and name not in seen
                seen.add(name)
        tally.check(ok and len(seen) == self.TAGS and sum(b.volume for b in report.buckets) == self.VOLUME)
        return self.TAGS, elapsed

    def close(self):
        self.path.unlink(missing_ok=True)


WORKLOADS = {
    w.name: w for w in (SubscriberFilter, CensorScenario, CollideExhaustive, CollideFirstN, CorpusReport)
}
