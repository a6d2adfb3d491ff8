"""Feed semantics: replay defense, censor rules, scenario runs."""

import inspect
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoot import wire
from hoot.collider import SearchMode, SearchSpec, find_tag
from hoot.feed import (
    BlockSender,
    BlockShortTag,
    CensorPolicy,
    Feed,
    GroupSpec,
    RejectReason,
    ScenarioScript,
    WhitelistShortTag,
    load_scenario,
    run_scenario,
)
from hoot.tagcrypt import FAST_KDF, PlainTag, derive_tag_material, seal

K = 12
PARAMS = wire.WireParams(k=K)


def tag_of(plain: PlainTag):
    return derive_tag_material(plain, FAST_KDF, K).short_tag


def wire_line(message: bytes, plain: PlainTag, seed: int) -> str:
    return wire.encode(seal(message, [plain], k=K, rng=random.Random(seed)), PARAMS)


def colliding_pair(prefix_a="meet-", prefix_b="fans-", seed=5):
    """Two plain tags engineered to share a 12-bit short tag."""
    first = PlainTag(prefix_a + "base")
    spec = SearchSpec(
        prefix=prefix_b,
        target=first,
        suffix_length=3,
        mode=SearchMode.FIRST_N,
        count=1,
        k=K,
        seed=seed,
    )
    matches = find_tag(spec).matches
    assert matches, "no collision found; enlarge the suffix space"
    second = matches[0][0]
    assert tag_of(first) == tag_of(second)
    return first, second


def test_post_search_round_trip():
    feed = Feed(params=PARAMS)
    ours = PlainTag("round-trip")
    outcome = feed.post("alice", wire_line(b"hello", ours, 1))
    assert outcome.accepted and outcome.post_id == 1
    posts = feed.search(tag_of(ours))
    assert len(posts) == 1 and posts[0].sender == "alice"
    assert feed.search(tag_of(ours), since=posts[-1].id) == []
    assert feed.search(tag_of(PlainTag("unknown"))) == []


def test_replay_rejected_once_stored():
    feed = Feed(params=PARAMS)
    line = wire_line(b"again", PlainTag("replayer"), 2)
    assert feed.post("a", line).accepted
    second = feed.post("b", line)
    assert not second.accepted and second.reason is RejectReason.REPLAY
    assert len(feed) == 1


def test_fresh_seal_of_same_plaintext_accepted():
    feed = Feed(params=PARAMS)
    ours = PlainTag("fresh-keys")
    assert feed.post("a", wire_line(b"same text", ours, 3)).accepted
    assert feed.post("a", wire_line(b"same text", ours, 4)).accepted
    assert len(feed) == 2


def test_replay_key_is_the_key_blocks_and_mac():
    # a repost with re-cased tag tokens carries the same key blocks and MAC, so it is
    # a replay; a re-seal of the same message draws fresh ones and is accepted
    feed = Feed(params=PARAMS)
    ours = PlainTag("recased-post")
    line = wire_line(b"same text", ours, 6)
    tokens, payload = line.rsplit(" ", 1)
    recased = f"{tokens.upper()} {payload}"
    assert recased != line and wire.parse(recased, PARAMS).short_tags == (tag_of(ours),)
    assert feed.post("a", line).accepted
    outcome = feed.post("b", recased)
    assert not outcome.accepted and outcome.reason is RejectReason.REPLAY
    assert feed.post("a", wire_line(b"same text", ours, 7)).accepted
    assert len(feed) == 2


def test_malformed_rejected():
    feed = Feed(params=PARAMS)
    outcome = feed.post("a", "not a wire line")
    assert not outcome.accepted and outcome.reason is RejectReason.MALFORMED
    assert outcome.detail == "no-tag"
    oversized = wire_line(b"m", PlainTag("long-post"), 1) + "A" * 4000
    outcome = feed.post("a", oversized)
    assert outcome.reason is RejectReason.MALFORMED and outcome.detail == "too-long"
    assert len(feed) == 0


def test_a_feed_takes_no_replay_horizon():
    with pytest.raises(TypeError):
        Feed(params=PARAMS, replay_horizon=2)
    assert isinstance(Feed(params=PARAMS)._seen, set)


def test_replay_rejected_after_a_thousand_other_posts():
    feed = Feed(params=PARAMS)
    first = wire_line(b"early", PlainTag("old-post"), 1)
    assert feed.post("a", first).accepted
    rng = random.Random(2)
    others = PlainTag("later-posts")
    for i in range(1000):
        assert feed.post("b", wire.encode(seal(f"m{i}".encode(), [others], k=K, rng=rng), PARAMS)).accepted
    outcome = feed.post("a", first)
    assert not outcome.accepted and outcome.reason is RejectReason.REPLAY
    assert len(feed) == 1001


def test_multi_tag_post_appears_in_both_searches():
    params = wire.WireParams(k=K, glyph_budget=280)
    feed = Feed(params=params)
    a, b = PlainTag("multi-a"), PlainTag("multi-b")
    line = wire.encode(seal(b"both", [a, b], k=K, rng=random.Random(7)), params)
    assert feed.post("x", line).accepted
    assert len(feed.search(tag_of(a))) == 1
    assert len(feed.search(tag_of(b))) == 1


def test_colliding_groups_share_one_search():
    ours, theirs = colliding_pair()
    feed = Feed(params=PARAMS)
    assert feed.post("a", wire_line(b"ours", ours, 20)).accepted
    assert feed.post("b", wire_line(b"theirs", theirs, 21)).accepted
    assert len(feed.search(tag_of(ours))) == 2


def test_block_short_tag_blocks_exactly_carriers():
    ours, theirs = colliding_pair()
    other = PlainTag("unrelated-group")
    policy = CensorPolicy((BlockShortTag(tag_of(ours)),))
    feed = Feed(params=PARAMS, policy=policy)
    blocked_a = feed.post("a", wire_line(b"m1", ours, 30))
    blocked_b = feed.post("b", wire_line(b"m2", theirs, 31))
    passed = feed.post("c", wire_line(b"m3", other, 32))
    assert blocked_a.reason is RejectReason.CENSORED and blocked_a.rule_index == 0
    assert blocked_b.reason is RejectReason.CENSORED
    assert passed.accepted
    assert len(feed) == 1


def test_block_sender():
    policy = CensorPolicy((BlockSender("mallory"),))
    feed = Feed(params=PARAMS, policy=policy)
    assert not feed.post("mallory", wire_line(b"m", PlainTag("any-group"), 40)).accepted
    assert feed.post("alice", wire_line(b"m", PlainTag("any-group"), 41)).accepted


def test_whitelist_blocks_iff_no_known_tag_opens():
    ours, theirs = colliding_pair()
    policy = CensorPolicy((WhitelistShortTag(tag_of(theirs), (theirs,)),))
    feed = Feed(params=PARAMS, policy=policy)
    covered = feed.post("fan", wire_line(b"fan talk", theirs, 50))
    hidden = feed.post("org", wire_line(b"our plan", ours, 51))
    assert covered.accepted
    assert hidden.reason is RejectReason.CENSORED and hidden.rule_index == 0
    # whitelist allow decides before a later block rule
    stacked = CensorPolicy(
        (WhitelistShortTag(tag_of(theirs), (theirs,)), BlockShortTag(tag_of(theirs)))
    )
    feed2 = Feed(params=PARAMS, policy=stacked)
    assert feed2.post("fan", wire_line(b"fan talk", theirs, 52)).accepted


def scenario_dict(policy, target="org", replays=0):
    ours, theirs = colliding_pair()
    return {
        "seed": 77,
        "k": K,
        "target_group": target,
        "groups": [
            {"name": "org", "plain_tag": ours.text, "messages": 10},
            {"name": "fans", "plain_tag": theirs.text, "messages": 100, "replays": replays},
        ],
        "policy": policy,
    }


def test_decide_derives_known_tags_at_the_rule_tag_k():
    assert list(inspect.signature(CensorPolicy.decide).parameters) == ["self", "hoot", "sender", "kdf"]
    fans, others = PlainTag("fans-at-k16"), PlainTag("others-at-k16")
    hoot = seal(b"cover", [fans], k=16, rng=random.Random(4))
    tag = derive_tag_material(fans, FAST_KDF, 16).short_tag
    assert CensorPolicy((WhitelistShortTag(tag, (fans,)),)).decide(hoot, "s", FAST_KDF) is None
    assert CensorPolicy((WhitelistShortTag(tag, (others,)),)).decide(hoot, "s", FAST_KDF) == 0


def test_scenario_block_short_tag_is_heavy_handed():
    raw = scenario_dict([{"type": "block-short-tag", "plain_tag": scenario_dict([])["groups"][0]["plain_tag"]}])
    stats = run_scenario(load_scenario(json.dumps(raw)))
    assert stats.target_block_rate == 1.0
    assert stats.collateral_blocked == 100
    assert stats.accepted == 0


def test_scenario_whitelist_spares_known_cover():
    base = scenario_dict([])
    raw = scenario_dict(
        [
            {
                "type": "whitelist-short-tag",
                "plain_tag": base["groups"][0]["plain_tag"],
                "known_plain_tags": [base["groups"][1]["plain_tag"]],
            }
        ],
        replays=2,
    )
    stats = run_scenario(load_scenario(json.dumps(raw)))
    assert stats.target_block_rate == 1.0
    assert stats.collateral_blocked == 0
    assert stats.rejected_replay == 2
    assert stats.accepted == 100


def test_scenario_empty_policy_blocks_nothing():
    stats = run_scenario(load_scenario(json.dumps(scenario_dict([]))))
    assert stats.rejected_censored == 0
    assert stats.accepted == 110
    assert stats.target_block_rate == 0.0


def test_scenario_determinism():
    raw = json.dumps(scenario_dict([{"type": "block-sender", "sender": "fans"}]))
    first = run_scenario(load_scenario(raw)).render()
    second = run_scenario(load_scenario(raw)).render()
    assert first == second
    assert "target_block_rate = 0.0" in first


def test_scenario_cover_ratio():
    stats = run_scenario(load_scenario(json.dumps(scenario_dict([]))))
    token = [t for t, traffic in stats.per_tag.items() if traffic.target_posts][0]
    assert stats.per_tag[token].cover_ratio() == pytest.approx(10.0)
    assert stats.per_tag[token].groups == {"org", "fans"}


def test_script_validation():
    with pytest.raises(ValueError):
        ScenarioScript(groups=(GroupSpec("a", PlainTag("t1"), 1), GroupSpec("a", PlainTag("t2"), 1)))
    with pytest.raises(ValueError):
        ScenarioScript(groups=(GroupSpec("a", PlainTag("t1"), 1),), target_group="ghost")
    with pytest.raises(ValueError):
        load_scenario(json.dumps({"groups": [], "policy": [{"type": "mystery"}]}))
    for rate in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            GroupSpec("a", PlainTag("t"), messages=1, rate=rate)


def test_a_rate_too_large_for_a_float_is_refused():
    with pytest.raises(ValueError, match="posting rate must be positive and finite"):
        load_scenario(json.dumps({"groups": [{"name": "a", "plain_tag": "t", "messages": 1, "rate": 10**330}]}))


def test_rule_tag_from_token():
    ours = PlainTag("token-rule")
    token = wire.encode_short_tag(tag_of(ours))
    script = load_scenario(
        json.dumps(
            {
                "seed": 1,
                "k": K,
                "groups": [{"name": "g", "plain_tag": ours.text, "messages": 3}],
                "policy": [{"type": "block-short-tag", "short_tag": f"#{token}"}],
            }
        )
    )
    stats = run_scenario(script)
    assert stats.rejected_censored == 3


# Fixed fast-hash scripts, one per rule type; "meet-base" and "fans-AN5" share a 12-bit short tag
PINNED_SCRIPTS = {
    "block-short-tag": {
        "seed": 3, "k": K, "target_group": "org",
        "groups": [
            {"name": "org", "plain_tag": "meet-base", "messages": 3},
            {"name": "fans", "plain_tag": "fans-AN5", "messages": 4, "replays": 2},
            {"name": "news", "plain_tag": "other-news", "messages": 3, "replays": 1},
        ],
        "policy": [{"type": "block-short-tag", "plain_tag": "meet-base"}],
    },
    "block-sender, a replaying target group": {
        "seed": 4, "k": K, "target_group": "org",
        "groups": [
            {"name": "org", "plain_tag": "meet-base", "messages": 4, "replays": 2},
            {"name": "fans", "plain_tag": "fans-AN5", "messages": 3, "replays": 1},
        ],
        "policy": [{"type": "block-sender", "sender": "fans"}],
    },
    "whitelist-short-tag, no target group": {
        "seed": 5, "k": K,
        "groups": [
            {"name": "org", "plain_tag": "meet-base", "messages": 3, "replays": 1},
            {"name": "fans", "plain_tag": "fans-AN5", "messages": 3, "replays": 1},
            {"name": "quiet", "plain_tag": "quiet-tag", "messages": 0},
        ],
        "policy": [{"type": "whitelist-short-tag", "plain_tag": "meet-base", "known_plain_tags": ["fans-AN5"]}],
    },
}

PINNED_STATS = {
    "block-short-tag": {
        "submitted": 13, "accepted": 3, "rejected_replay": 1, "rejected_censored": 9, "rejected_malformed": 0,
        "target_posts": 3, "target_blocked": 3, "target_block_rate": 1.0,
        "collateral_posts": 10, "collateral_blocked": 6, "collateral_block_rate": 0.6,
        "per_tag": {
            "47y": {"total": 4, "blocked": 0, "groups": ["news"], "cover_ratio": None},
            "ukq": {"total": 9, "blocked": 9, "groups": ["fans", "org"], "cover_ratio": 2.0},
        },
    },
    "block-sender, a replaying target group": {
        "submitted": 10, "accepted": 4, "rejected_replay": 2, "rejected_censored": 4, "rejected_malformed": 0,
        "target_posts": 6, "target_blocked": 0, "target_block_rate": 0.0,
        "collateral_posts": 4, "collateral_blocked": 4, "collateral_block_rate": 1.0,
        "per_tag": {
            "ukq": {"total": 10, "blocked": 4, "groups": ["fans", "org"], "cover_ratio": 4 / 6},
        },
    },
    "whitelist-short-tag, no target group": {
        "submitted": 8, "accepted": 3, "rejected_replay": 1, "rejected_censored": 4, "rejected_malformed": 0,
        "target_posts": 0, "target_blocked": 0, "target_block_rate": 0.0,
        "collateral_posts": 8, "collateral_blocked": 4, "collateral_block_rate": 0.5,
        "per_tag": {
            "ukq": {"total": 8, "blocked": 4, "groups": ["fans", "org"], "cover_ratio": None},
        },
    },
}


@pytest.mark.parametrize("name", list(PINNED_SCRIPTS))
def test_scenario_statistics_are_pinned(name):
    stats = run_scenario(load_scenario(PINNED_SCRIPTS[name]))
    assert stats.to_dict() == PINNED_STATS[name]


@st.composite
def small_scripts(draw):
    names = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=4, unique=True))
    groups = [
        {"name": n, "plain_tag": f"grp-{n}", "messages": draw(st.integers(0, 5)), "replays": draw(st.integers(0, 3))}
        for n in names
    ]
    rule = st.one_of(
        st.builds(lambda n: {"type": "block-short-tag", "plain_tag": f"grp-{n}"}, st.sampled_from(names)),
        st.builds(lambda n: {"type": "block-sender", "sender": n}, st.sampled_from(names)),
        st.builds(
            lambda n, known: {
                "type": "whitelist-short-tag", "plain_tag": f"grp-{n}", "known_plain_tags": [f"grp-{m}" for m in known],
            },
            st.sampled_from(names),
            st.lists(st.sampled_from(names), max_size=2, unique=True),
        ),
    )
    return {
        "seed": draw(st.integers(0, 2**16)),
        "k": 3,  # 8 short tags, so groups often collide
        "target_group": draw(st.none() | st.sampled_from(names)),
        "groups": groups,
        "policy": draw(st.lists(rule, max_size=3)),
    }


@settings(max_examples=100, deadline=None)
@given(raw=small_scripts())
def test_scenario_counters_sum_to_the_submissions(raw):
    stats = run_scenario(load_scenario(raw))
    submissions = sum(g["messages"] + min(g["replays"], g["messages"]) for g in raw["groups"])
    rejected = stats.rejected_replay + stats.rejected_censored + stats.rejected_malformed
    assert stats.accepted + rejected == stats.submitted == submissions
    assert stats.target_posts + stats.collateral_posts == stats.submitted
    assert stats.target_blocked + stats.collateral_blocked == stats.rejected_censored
    assert sum(t.total for t in stats.per_tag.values()) == stats.submitted
    assert sum(t.blocked for t in stats.per_tag.values()) == stats.rejected_censored


def test_load_scenario_lets_a_fault_of_the_program_surface(monkeypatch):
    # only a script value of the wrong type becomes a ValueError; a TypeError
    # from the code that builds the script keeps its own type
    def broken(*args):
        raise TypeError("a fault in the derivation")

    monkeypatch.setattr("hoot.feed.derive_tag_material", broken)
    raw = {"groups": [], "policy": [{"type": "block-short-tag", "plain_tag": "some-tag"}]}
    with pytest.raises(TypeError, match="a fault in the derivation"):
        load_scenario(json.dumps(raw))


def test_load_scenario_refuses_wire_settings_wire_params_refuses():
    groups = [{"name": "g", "plain_tag": "g-tag", "messages": 1}]
    with pytest.raises(ValueError, match="^glyph budget must be positive$"):
        load_scenario({"groups": groups, "glyph_budget": 0})
    with pytest.raises(ValueError, match="^k=65 outside supported range 1..64$"):
        load_scenario({"groups": groups, "k": 65})
    script = load_scenario({"groups": groups, "k": K, "glyph_budget": 280})
    assert script.params == wire.WireParams(k=K, glyph_budget=280)
    assert load_scenario({"groups": groups}).params == wire.DEFAULT_PARAMS


def test_a_rule_token_loses_one_leading_hash_only():
    token = wire.encode_short_tag(tag_of(PlainTag("hash-rule")))
    rule = {"type": "block-short-tag", "short_tag": f"##{token}"}
    with pytest.raises(ValueError, match=f"^short tag token needs 3 glyphs for k={K}, got 4$"):
        load_scenario({"groups": [], "k": K, "policy": [rule]})


@pytest.mark.parametrize(
    "mode, message",
    [
        (5, "^scenario script field 'mode' has the wrong JSON type \\(int\\)$"),
        (None, "^scenario script field 'mode' has the wrong JSON type \\(NoneType\\)$"),
        ("FAST-HASH", "^scenario script field 'mode' must be 'fast-hash' or 'memory-hard', not 'FAST-HASH'$"),
    ],
)
def test_a_bad_kdf_mode_is_refused_by_name(mode, message):
    with pytest.raises(ValueError, match=message):
        load_scenario({"groups": [], "kdf": {"mode": mode}})


@pytest.mark.parametrize("counts", [{"messages": -1}, {"messages": 1, "replays": -1}])
def test_a_negative_message_or_replay_count_is_refused(counts):
    with pytest.raises(ValueError, match="^message and replay counts must be >= 0$"):
        GroupSpec("a", PlainTag("t"), **{"messages": 0, **counts})


def test_a_rule_that_names_no_tag_is_refused():
    rule = {"type": "block-short-tag"}
    with pytest.raises(ValueError, match=r"^rule \{'type': 'block-short-tag'\} names no tag \(use 'short_tag' or 'plain_tag'\)$"):
        load_scenario({"groups": [], "policy": [rule]})
