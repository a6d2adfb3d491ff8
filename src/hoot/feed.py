"""In-memory microblogging feed with censor policies and replay defense.

The feed accepts wire lines, rejects malformed or replayed posts,
applies an ordered censor rule list, and serves tag searches. Replay
detection hashes the key blocks and MAC, the per-post random material a
non-decrypting server can see, so a byte-identical repost is dropped
while a re-seal of the same plaintext (fresh session keys) passes.

Censor rules model the adversary:

* block-short-tag: drop every post carrying the tag. Blocking a target
  group this way necessarily blocks every colliding group too.
* block-sender: drop every post from one sender.
* whitelist-short-tag: drop posts on the tag that do not open under any
  of the censor's known plain tags; colluding-known traffic passes.

The first rule that matches a post decides it. Scenario scripts drive a
feed with several posting groups and produce per-tag and global
statistics, deterministically for a fixed seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
from dataclasses import dataclass, field
from enum import Enum
from collections import OrderedDict

from .errors import ParseError
from .tagcrypt import (
    FAST_KDF,
    Hoot,
    KdfConfig,
    PlainTag,
    ShortTag,
    derive_tag_material,
    kdf_config,
    open_with_material,
    seal,
)
from . import wire


class RejectReason(Enum):
    MALFORMED = "malformed"
    REPLAY = "replay"
    CENSORED = "censored"


@dataclass(frozen=True)
class PostOutcome:
    accepted: bool
    post_id: int | None = None
    reason: RejectReason | None = None
    rule_index: int | None = None
    detail: str = ""


@dataclass(frozen=True)
class FeedPost:
    id: int
    sender: str
    wire: str


@dataclass(frozen=True)
class BlockShortTag:
    tag: ShortTag


@dataclass(frozen=True)
class BlockSender:
    sender: str


@dataclass(frozen=True)
class WhitelistShortTag:
    tag: ShortTag
    known_plain_tags: tuple[PlainTag, ...]


Rule = BlockShortTag | BlockSender | WhitelistShortTag


@dataclass(frozen=True)
class CensorPolicy:
    rules: tuple[Rule, ...] = ()

    def decide(self, hoot: Hoot, sender: str, kdf: KdfConfig, k: int) -> int | None:
        """Index of the first rule that blocks the post, or None.

        A whitelist rule whose known tags open the post allows it
        outright; later rules are not consulted.
        """
        for index, rule in enumerate(self.rules):
            if isinstance(rule, BlockShortTag):
                if rule.tag in hoot.short_tags:
                    return index
            elif isinstance(rule, BlockSender):
                if rule.sender == sender:
                    return index
            else:
                if rule.tag not in hoot.short_tags:
                    continue
                for known in rule.known_plain_tags:
                    if open_with_material(hoot, derive_tag_material(known, kdf, k)) is not None:
                        return None
                return index
        return None


def dedup_key(hoot: Hoot) -> bytes:
    """Replay nonce as the server sees it: hash of key blocks and MAC."""
    return hashlib.sha1(b"".join(hoot.key_blocks) + hoot.mac).digest()


class Feed:
    """Single-writer feed; posts are totally ordered, reads see a prefix.

    ``replay_horizon`` bounds the dedup index to the most recent N
    accepted posts; unbounded by default, which is fine at desk scale.
    """

    def __init__(
        self,
        params: wire.WireParams = wire.DEFAULT_PARAMS,
        kdf: KdfConfig = FAST_KDF,
        policy: CensorPolicy = CensorPolicy(),
        replay_horizon: int | None = None,
    ):
        self.params = params
        self.kdf = kdf
        self.policy = policy
        self.replay_horizon = replay_horizon
        self._lock = threading.Lock()
        self._posts: list[FeedPost] = []
        self._by_tag: dict[ShortTag, list[int]] = {}
        self._seen: OrderedDict[bytes, None] = OrderedDict()

    def post(self, sender: str, wire_text: str) -> PostOutcome:
        try:
            hoot = wire.parse(wire_text, self.params)
        except ParseError as exc:
            return PostOutcome(False, reason=RejectReason.MALFORMED, detail=exc.kind)
        with self._lock:
            key = dedup_key(hoot)
            if key in self._seen:
                return PostOutcome(False, reason=RejectReason.REPLAY)
            rule_index = self.policy.decide(hoot, sender, self.kdf, self.params.k)
            if rule_index is not None:
                return PostOutcome(False, reason=RejectReason.CENSORED, rule_index=rule_index)
            post_id = len(self._posts) + 1
            entry = FeedPost(post_id, sender, wire_text)
            self._posts.append(entry)
            for tag in set(hoot.short_tags):
                self._by_tag.setdefault(tag, []).append(post_id)
            self._seen[key] = None
            if self.replay_horizon is not None:
                while len(self._seen) > self.replay_horizon:
                    self._seen.popitem(last=False)
            return PostOutcome(True, post_id=post_id)

    def search(self, short_tag: ShortTag, since: int = 0) -> list[FeedPost]:
        """Accepted posts carrying the tag with id > since, id-ordered.

        Every colliding group's posts come back indistinguishably.
        """
        with self._lock:
            ids = self._by_tag.get(short_tag, [])
            return [self._posts[i - 1] for i in ids if i > since]

    def __len__(self) -> int:
        with self._lock:
            return len(self._posts)


@dataclass(frozen=True)
class GroupSpec:
    name: str
    plain_tag: PlainTag
    messages: int
    rate: float = 1.0
    replays: int = 0

    def __post_init__(self):
        if self.messages < 0 or self.replays < 0:
            raise ValueError("message and replay counts must be >= 0")
        if self.rate <= 0:
            raise ValueError("posting rate must be positive")


@dataclass(frozen=True)
class ScenarioScript:
    """A reproducible multi-group posting run against one censor policy.

    The JSON form (see scripts in the repository docs):

        {
          "seed": 1,
          "k": 12,
          "kdf": {"mode": "fast-hash"},
          "glyph_budget": 140,
          "target_group": "organizers",
          "groups": [
            {"name": "organizers", "plain_tag": "rally-9qv",
             "messages": 10, "rate": 1.0, "replays": 0}
          ],
          "policy": [
            {"type": "block-short-tag", "plain_tag": "rally-9qv"},
            {"type": "block-sender", "sender": "organizers"},
            {"type": "whitelist-short-tag", "short_tag": "abc42",
             "known_plain_tags": ["popstar-fandom"]}
          ]
        }

    Rules name tags either by a base32 short-tag token ("short_tag") or
    by a plain tag the censor has learned ("plain_tag").
    """

    groups: tuple[GroupSpec, ...]
    policy: CensorPolicy = CensorPolicy()
    seed: int = 0
    k: int = 24
    kdf: KdfConfig = FAST_KDF
    glyph_budget: int = wire.DEFAULT_GLYPH_BUDGET
    target_group: str | None = None

    def __post_init__(self):
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise ValueError("group names must be unique")
        if self.target_group is not None and self.target_group not in names:
            raise ValueError(f"target group {self.target_group!r} is not defined")

    @property
    def wire_params(self) -> wire.WireParams:
        return wire.WireParams(k=self.k, glyph_budget=self.glyph_budget)


def _rule_tag(raw: dict, kdf: KdfConfig, k: int) -> ShortTag:
    if "short_tag" in raw:
        return wire.decode_short_tag(str(raw["short_tag"]).lstrip("#"), k)
    if "plain_tag" in raw:
        return derive_tag_material(PlainTag(raw["plain_tag"]), kdf, k).short_tag
    raise ValueError(f"rule {raw!r} names no tag (use 'short_tag' or 'plain_tag')")


def load_scenario(source: str | dict) -> ScenarioScript:
    """Build a script from a JSON string or an already-decoded dict."""
    raw = json.loads(source) if isinstance(source, str) else source
    given = raw.get("kdf", {})
    kdf = kdf_config(given.get("mode", "fast-hash"), given.get("work"), given.get("memory"),
                     given.get("parallelism"), given.get("output_bits"))
    k = int(raw.get("k", 24))
    groups = tuple(
        GroupSpec(
            name=g["name"],
            plain_tag=PlainTag(g["plain_tag"]),
            messages=int(g["messages"]),
            rate=float(g.get("rate", 1.0)),
            replays=int(g.get("replays", 0)),
        )
        for g in raw["groups"]
    )
    rules: list[Rule] = []
    for entry in raw.get("policy", []):
        kind = entry["type"]
        if kind == "block-short-tag":
            rules.append(BlockShortTag(_rule_tag(entry, kdf, k)))
        elif kind == "block-sender":
            rules.append(BlockSender(entry["sender"]))
        elif kind == "whitelist-short-tag":
            known = tuple(PlainTag(t) for t in entry.get("known_plain_tags", []))
            rules.append(WhitelistShortTag(_rule_tag(entry, kdf, k), known))
        else:
            raise ValueError(f"unknown rule type {kind!r}")
    return ScenarioScript(
        groups=groups,
        policy=CensorPolicy(tuple(rules)),
        seed=int(raw.get("seed", 0)),
        k=k,
        kdf=kdf,
        glyph_budget=int(raw.get("glyph_budget", wire.DEFAULT_GLYPH_BUDGET)),
        target_group=raw.get("target_group"),
    )


@dataclass
class TagTraffic:
    total: int = 0
    blocked: int = 0
    groups: set[str] = field(default_factory=set)
    target_posts: int = 0

    def cover_ratio(self) -> float | None:
        if self.target_posts == 0:
            return None
        return (self.total - self.target_posts) / self.target_posts


@dataclass
class FeedStats:
    """Outcome counters for one scenario run."""

    per_tag: dict[str, TagTraffic]
    submitted: int
    accepted: int
    rejected_replay: int
    rejected_censored: int
    rejected_malformed: int
    target_posts: int
    target_blocked: int
    collateral_blocked: int
    collateral_posts: int

    @property
    def target_block_rate(self) -> float:
        return self.target_blocked / self.target_posts if self.target_posts else 0.0

    @property
    def collateral_block_rate(self) -> float:
        return self.collateral_blocked / self.collateral_posts if self.collateral_posts else 0.0

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "accepted": self.accepted,
            "rejected_replay": self.rejected_replay,
            "rejected_censored": self.rejected_censored,
            "rejected_malformed": self.rejected_malformed,
            "target_posts": self.target_posts,
            "target_blocked": self.target_blocked,
            "target_block_rate": round(self.target_block_rate, 6),
            "collateral_posts": self.collateral_posts,
            "collateral_blocked": self.collateral_blocked,
            "collateral_block_rate": round(self.collateral_block_rate, 6),
            "per_tag": {
                token: {
                    "total": t.total,
                    "blocked": t.blocked,
                    "groups": sorted(t.groups),
                    "cover_ratio": t.cover_ratio(),
                }
                for token, t in sorted(self.per_tag.items())
            },
        }

    def render(self) -> str:
        """Deterministic key=value text, stable under diffing."""
        d = self.to_dict()
        per_tag = d.pop("per_tag")
        lines = [f"{key} = {value}" for key, value in d.items()]
        for token, t in per_tag.items():
            ratio = "n/a" if t["cover_ratio"] is None else f"{t['cover_ratio']:.4f}"
            lines.append(
                f"tag #{token}: total={t['total']} blocked={t['blocked']} "
                f"groups={len(t['groups'])} cover_ratio={ratio}"
            )
        return "\n".join(lines) + "\n"


def run_scenario(script: ScenarioScript) -> FeedStats:
    """Drive a feed through a script and measure the censor's effect.

    Posting order interleaves groups by rate (exponential interarrival
    times from the script seed); message bodies, session keys, and the
    resulting statistics are all deterministic for a fixed script.
    """
    rng = random.Random(script.seed)
    params = script.wire_params
    feed = Feed(params=params, kdf=script.kdf, policy=script.policy)

    events: list[tuple[float, str, int, GroupSpec]] = []
    for group in script.groups:
        clock = 0.0
        for i in range(group.messages):
            clock += rng.expovariate(group.rate)
            events.append((clock, group.name, i, group))
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    limit = wire.capacity(params, 1)
    tag_of = {
        g.name: derive_tag_material(g.plain_tag, script.kdf, script.k).short_tag for g in script.groups
    }
    token_of = {name: wire.encode_short_tag(tag) for name, tag in tag_of.items()}

    per_tag: dict[str, TagTraffic] = {}
    submitted = accepted = replays = censored = malformed = 0
    target_posts = target_blocked = collateral_blocked = collateral_posts = 0
    sent_wires: dict[str, list[str]] = {g.name: [] for g in script.groups}

    def account(group: GroupSpec, outcome: PostOutcome):
        nonlocal accepted, replays, censored, malformed
        nonlocal target_posts, target_blocked, collateral_blocked, collateral_posts
        traffic = per_tag.setdefault(token_of[group.name], TagTraffic())
        traffic.total += 1
        traffic.groups.add(group.name)
        is_target = group.name == script.target_group
        if is_target:
            traffic.target_posts += 1
            target_posts += 1
        else:
            collateral_posts += 1
        if outcome.accepted:
            accepted += 1
            return
        if outcome.reason is RejectReason.CENSORED:
            censored += 1
            traffic.blocked += 1
            if is_target:
                target_blocked += 1
            else:
                collateral_blocked += 1
        elif outcome.reason is RejectReason.REPLAY:
            replays += 1
        else:
            malformed += 1

    for _, name, i, group in events:
        body = f"{name} dispatch {i:04d}".encode("utf-8")
        if len(body) > limit:
            raise ValueError(f"scenario message for {name!r} exceeds the {limit}-byte capacity")
        line = wire.encode(seal(body, [group.plain_tag], script.kdf, k=script.k, rng=rng), params)
        sent_wires[name].append(line)
        submitted += 1
        account(group, feed.post(name, line))

    for group in script.groups:
        for line in sent_wires[group.name][: group.replays]:
            submitted += 1
            account(group, feed.post(group.name, line))

    stats = FeedStats(
        per_tag=per_tag,
        submitted=submitted,
        accepted=accepted,
        rejected_replay=replays,
        rejected_censored=censored,
        rejected_malformed=malformed,
        target_posts=target_posts,
        target_blocked=target_blocked,
        collateral_blocked=collateral_blocked,
        collateral_posts=collateral_posts,
    )
    for traffic in per_tag.values():
        assert traffic.blocked <= traffic.total
    return stats
