"""In-memory microblogging feed with censor policies and replay defense.

The feed accepts wire lines, rejects malformed or replayed posts,
applies an ordered censor rule list, and serves tag searches. The replay
key is the bytes of the key blocks and MAC, the per-post random material a
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

import json
import random
import sys
import threading
from dataclasses import dataclass, field
from enum import Enum
from collections import Counter

from .errors import ParseError
from .tagcrypt import (
    FAST_KDF,
    Hoot,
    KdfConfig,
    KdfMode,
    PlainTag,
    ShortTag,
    derive_tag_material,
    derive_tag_materials,
    open_with_material,
)
from . import wire


class RejectReason(Enum):
    MALFORMED = "malformed"
    REPLAY = "replay"
    CENSORED = "censored"


@dataclass(frozen=True, slots=True)
class PostOutcome:
    accepted: bool
    post_id: int | None = None
    reason: RejectReason | None = None
    rule_index: int | None = None
    detail: str = ""


@dataclass(frozen=True, slots=True)
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

    def decide(self, hoot: Hoot, sender: str, kdf: KdfConfig) -> int | None:
        """Index of the first rule that blocks the post, or None.

        A whitelist rule whose known tags, derived at its tag's k, open
        the post allows it outright; later rules are not consulted.
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
                    if open_with_material(hoot, derive_tag_material(known, kdf, rule.tag.k)) is not None:
                        return None
                return index
        return None


class Feed:
    """Single-writer feed that rejects every replay; posts are totally ordered, reads see a prefix."""

    def __init__(
        self,
        params: wire.WireParams = wire.DEFAULT_PARAMS,
        kdf: KdfConfig = FAST_KDF,
        policy: CensorPolicy = CensorPolicy(),
    ):
        self.params = params
        self.kdf = kdf
        self.policy = policy
        self._lock = threading.Lock()
        self._posts: list[FeedPost] = []
        self._by_tag: dict[ShortTag, list[int]] = {}
        self._seen: set[bytes] = set()  # each accepted post's key blocks and MAC, joined

    def post(self, sender: str, wire_text: str) -> PostOutcome:
        try:
            hoot = wire.parse(wire_text, self.params)
        except ParseError as exc:
            return PostOutcome(False, reason=RejectReason.MALFORMED, detail=exc.kind)
        with self._lock:
            key = b"".join(hoot.key_blocks) + hoot.mac
            if key in self._seen:
                return PostOutcome(False, reason=RejectReason.REPLAY)
            rule_index = self.policy.decide(hoot, sender, self.kdf)
            if rule_index is not None:
                return PostOutcome(False, reason=RejectReason.CENSORED, rule_index=rule_index)
            post_id = len(self._posts) + 1
            entry = FeedPost(post_id, sender, wire_text)
            self._posts.append(entry)
            for tag in set(hoot.short_tags):
                self._by_tag.setdefault(tag, []).append(post_id)
            self._seen.add(key)
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
        if not 0 < self.rate <= sys.float_info.max:  # a NaN fails too, and so does an int too large for a float
            raise ValueError("posting rate must be positive and finite")


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

    A rule names its tag once: by a base32 short-tag token ("short_tag")
    or by a plain tag the censor has learned ("plain_tag"). The "k" and
    "glyph_budget" keys make up ``params``.
    """

    groups: tuple[GroupSpec, ...]
    policy: CensorPolicy = CensorPolicy()
    seed: int = 0
    params: wire.WireParams = wire.DEFAULT_PARAMS
    kdf: KdfConfig = FAST_KDF
    target_group: str | None = None

    def __post_init__(self):
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise ValueError("group names must be unique")
        if self.target_group is not None and self.target_group not in names:
            raise ValueError(f"target group {self.target_group!r} is not defined")


def _typed(value, name: str, *json_types: type):
    """``value`` if its type is exactly one of ``json_types`` (so true is no number), else a ValueError."""
    if type(value) not in json_types:
        raise ValueError(f"scenario script field {name!r} has the wrong JSON type ({type(value).__name__})")
    return value


def _known(raw: dict, name: str | None, *keys: str) -> None:
    """Refuse by name the first key of ``raw`` (script field ``name``, or the script if None) not in ``keys``."""
    unknown = [key for key in raw if key not in keys]
    if unknown:
        where = "scenario script" if name is None else f"scenario script field {name!r}"
        raise ValueError(f"{where} has the unknown key {unknown[0]!r}")


def _rule_tag(raw: dict, kdf: KdfConfig, k: int) -> ShortTag:
    if "short_tag" in raw and "plain_tag" in raw:
        raise ValueError(f"rule {raw!r} names its tag twice (use 'short_tag' or 'plain_tag', not both)")
    if "short_tag" in raw:
        return wire.decode_short_tag(_typed(raw["short_tag"], "short_tag", str).removeprefix("#"), k)
    if "plain_tag" in raw:
        return derive_tag_material(PlainTag(_typed(raw["plain_tag"], "plain_tag", str)), kdf, k).short_tag
    raise ValueError(f"rule {raw!r} names no tag (use 'short_tag' or 'plain_tag')")


def _objects(raw: dict, name: str, default: list | None = None) -> list[dict]:
    """Field ``name`` of a script object, a list of JSON objects; KeyError if missing without a default."""
    items = raw[name] if default is None else raw.get(name, default)
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise ValueError(f"scenario script field {name!r} must be a list of objects")
    return items


def load_scenario(source: str | dict) -> ScenarioScript:
    """Build a script from a JSON string or an already-decoded dict.

    A missing field, a field of the wrong JSON type, a key the loader
    does not read (in the script, a group, a rule of its type or the
    ``kdf`` object, whose keys are "mode" and "work"), a rule naming both
    "short_tag" and "plain_tag", a mode no KdfMode has, a work under the
    fast hash or outside KdfConfig's range, or a k or glyph budget that
    WireParams refuses is a ValueError.
    """
    raw = json.loads(source) if isinstance(source, str) else source
    if not isinstance(raw, dict):
        raise ValueError("scenario script must be a JSON object")
    _known(raw, None, "seed", "k", "kdf", "glyph_budget", "target_group", "groups", "policy")
    given = raw.get("kdf", {})
    if not isinstance(given, dict):
        raise ValueError("scenario script field 'kdf' must be an object")
    _known(given, "kdf", "mode", "work")
    try:
        mode = _typed(given.get("mode", "fast-hash"), "mode", str)
        if mode not in {m.value for m in KdfMode}:
            raise ValueError(f"scenario script field 'mode' must be 'fast-hash' or 'memory-hard', not {mode!r}")
        kdf = KdfConfig(KdfMode(mode), _typed(given.get("work"), "work", int, type(None)))  # null is no work
        params = wire.WireParams(**{key: _typed(raw[key], key, int) for key in ("k", "glyph_budget") if key in raw})
        groups: list[GroupSpec] = []
        for g in _objects(raw, "groups"):
            _known(g, "groups", "name", "plain_tag", "messages", "rate", "replays")
            groups.append(
                GroupSpec(
                    name=_typed(g["name"], "name", str),
                    plain_tag=PlainTag(_typed(g["plain_tag"], "plain_tag", str)),
                    messages=_typed(g["messages"], "messages", int),
                    rate=_typed(g.get("rate", 1.0), "rate", int, float),
                    replays=_typed(g.get("replays", 0), "replays", int),
                )
            )
        rules: list[Rule] = []
        for entry in _objects(raw, "policy", []):
            kind = entry["type"]
            if kind == "block-short-tag":
                _known(entry, "policy", "type", "short_tag", "plain_tag")
                rules.append(BlockShortTag(_rule_tag(entry, kdf, params.k)))
            elif kind == "block-sender":
                _known(entry, "policy", "type", "sender")
                rules.append(BlockSender(_typed(entry["sender"], "sender", str)))
            elif kind == "whitelist-short-tag":
                _known(entry, "policy", "type", "short_tag", "plain_tag", "known_plain_tags")
                texts = _typed(entry.get("known_plain_tags", []), "known_plain_tags", list)
                known = tuple(PlainTag(_typed(text, "known_plain_tags", str)) for text in texts)
                rules.append(WhitelistShortTag(_rule_tag(entry, kdf, params.k), known))
            else:
                raise ValueError(f"unknown rule type {kind!r}")
        return ScenarioScript(
            groups=tuple(groups),
            policy=CensorPolicy(tuple(rules)),
            seed=_typed(raw.get("seed", 0), "seed", int),
            params=params,
            kdf=kdf,
            target_group=_typed(raw.get("target_group"), "target_group", str, type(None)),
        )
    except KeyError as exc:
        raise ValueError(f"scenario script lacks the field {exc}") from exc


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
    feed = Feed(params=script.params, kdf=script.kdf, policy=script.policy)

    events: list[tuple[float, str, int, GroupSpec]] = []
    for group in script.groups:
        clock = 0.0
        for i in range(group.messages):
            clock += rng.expovariate(group.rate)
            events.append((clock, group.name, i, group))
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    # One batch derives every group's tag, memory-hard ones in lanes, so sealing takes the
    # materials from the cache; a whitelist derives its known tags only when a post needs them.
    materials = derive_tag_materials([g.plain_tag for g in script.groups], script.kdf, script.params.k)
    token_of = {g.name: wire.encode_short_tag(material.short_tag) for g, material in zip(script.groups, materials)}

    outcomes = {g.name: Counter() for g in script.groups}  # each group's submissions by PostOutcome.reason
    sent_wires: dict[str, list[str]] = {g.name: [] for g in script.groups}
    for _, name, i, group in events:
        body = f"{name} dispatch {i:04d}".encode("utf-8")
        line = wire.seal_to_wire(body, [group.plain_tag], script.kdf, script.params, rng=rng)
        sent_wires[name].append(line)
        outcomes[name][feed.post(name, line).reason] += 1

    for group in script.groups:
        for line in sent_wires[group.name][: group.replays]:
            outcomes[group.name][feed.post(group.name, line).reason] += 1

    per_tag: dict[str, TagTraffic] = {}
    for name, counts in outcomes.items():
        if counts:
            traffic = per_tag.setdefault(token_of[name], TagTraffic())
            traffic.total += counts.total()
            traffic.blocked += counts[RejectReason.CENSORED]
            traffic.groups.add(name)
            if name == script.target_group:
                traffic.target_posts += counts.total()
    overall = sum(outcomes.values(), Counter())
    target = outcomes.get(script.target_group, Counter())
    return FeedStats(
        per_tag=per_tag,
        submitted=overall.total(),
        accepted=overall[None],
        rejected_replay=overall[RejectReason.REPLAY],
        rejected_censored=overall[RejectReason.CENSORED],
        rejected_malformed=overall[RejectReason.MALFORMED],
        target_posts=target.total(),
        target_blocked=target[RejectReason.CENSORED],
        collateral_blocked=overall[RejectReason.CENSORED] - target[RejectReason.CENSORED],
        collateral_posts=overall.total() - target.total(),
    )
