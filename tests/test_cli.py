"""End-to-end CLI behavior: flags, streams, exit codes."""

import io
import json
import logging
import random
import re

import pytest

from hoot import analysis, collider, feed, wire
from hoot.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, build_parser, main, run_bench
from hoot.feed import load_scenario
from hoot.tagcrypt import KdfConfig, KdfMode, PlainTag, seal


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seal_then_open_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "seal", "meet at dawn", "--tag", "cli-group", "--kdf", "fast", "--seed", "3")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("#") and len(lines[0]) <= 140

    stream = tmp_path / "feed.txt"
    stream.write_text(lines[0] + "\n")
    code, out, _ = run(capsys, "open", str(stream), "--tag", "cli-group", "--kdf", "fast")
    assert code == EXIT_OK
    assert out == "meet at dawn\n"
    # a budget shorter than the line makes it malformed
    code, out, err = run(
        capsys, "open", str(stream), "--tag", "cli-group", "--kdf", "fast", "--glyph-budget", "50", "--stats",
    )
    assert code == EXIT_OK and out == ""
    assert "malformed=1" in err


def test_seal_is_deterministic_given_seed(capsys):
    _, first, _ = run(capsys, "seal", "m", "--tag", "t", "--kdf", "fast", "--seed", "5")
    _, second, _ = run(capsys, "seal", "m", "--tag", "t", "--kdf", "fast", "--seed", "5")
    assert first == second


def test_seal_two_tags_two_tokens(capsys):
    code, out, _ = run(
        capsys,
        "seal", "hi", "--tag", "one-group", "--tag", "two-group",
        "--kdf", "fast", "--k", "12", "--glyph-budget", "280", "--seed", "1",
    )
    assert code == EXIT_OK
    assert out.count("#") == 2


def test_seal_takes_any_k_up_to_64_under_either_kdf(capsys):
    # the line the fast hash sealed at k=40 when a flag had to widen its long tag to 168 bits
    code, out, _ = run(capsys, "seal", "--kdf", "fast", "--k", "40", "--tag", "abc", "--seed", "1", "hi")
    assert code == EXIT_OK
    assert out == "#vgmt4nsh e9XUfkRvzsLBWVUokF0sfD1gCCARuWTH94HL5IPzJU8erPU9NgaH8FViNL5aWsyklRvlWSj6BLHGQnojeFc\n"
    for kdf, token in (("fast", "vgmt4nsha2awu"), ("memory-hard", "nuuscwsswfpcs")):
        work = ["--kdf-work", "16"] if kdf == "memory-hard" else []
        code, out, _ = run(capsys, "seal", "--kdf", kdf, *work, "--k", "64", "--tag", "abc", "--seed", "1", "hi")
        assert code == EXIT_OK and out.startswith(f"#{token} "), kdf


def test_seal_over_capacity_names_the_limit(capsys):
    code, out, err = run(capsys, "seal", "x" * 200, "--tag", "t", "--kdf", "fast")
    assert code == EXIT_DATA
    assert out == ""
    assert "capacity 39" in err


def test_seal_without_tag_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("HOOT_TAG", raising=False)
    monkeypatch.setattr("sys.stdin", io.StringIO(""))  # not a tty
    code, _, err = run(capsys, "seal", "m", "--kdf", "fast")
    assert code == EXIT_USAGE
    assert "HOOT_TAG" in err


def test_tag_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("HOOT_TAG", "#env-group")
    code, out, _ = run(capsys, "seal", "m", "--kdf", "fast", "--seed", "2")
    assert code == EXIT_OK
    expected = wire.encode(seal(b"m", [PlainTag("env-group")], k=24, rng=random.Random(2)))
    assert out.strip() == expected


def test_a_tag_loses_one_leading_hash_only(capsys):
    _, plain, _ = run(capsys, "seal", "m", "--tag", "x", "--kdf", "fast", "--seed", "1")
    assert run(capsys, "seal", "m", "--tag", "#x", "--kdf", "fast", "--seed", "1")[:2] == (EXIT_OK, plain)
    code, out, err = run(capsys, "seal", "m", "--tag", "##x", "--kdf", "fast", "--seed", "1")
    assert code == EXIT_DATA and out == ""
    assert err.endswith("hoot seal: error: plain tag is written without the leading '#'\n")


def test_gen_corpus_refuses_a_nan_exponent(capsys, tmp_path):
    out_file = tmp_path / "c.csv"
    argv = "analyze", "gen-corpus", "--tags", "10", "--total", "5", "--exponent", "nan", "--out", str(out_file)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_DATA and out == ""
    assert err == "hoot analyze: error: need n_tags >= 1, exponent > 0, total >= 1\n"
    assert not out_file.exists()


def test_open_filters_cover_traffic_preserving_order(capsys, monkeypatch):
    rng = random.Random(9)
    ours, theirs = PlainTag("ours-cli"), PlainTag("theirs-cli")
    lines = []
    mine = []
    for i in range(30):
        if i % 3 == 0:
            body = f"msg {i}".encode()
            lines.append(wire.encode(seal(body, [ours], rng=rng)))
            mine.append(f"msg {i}")
        else:
            lines.append(wire.encode(seal(b"noise", [theirs], rng=rng)))
    tampered = lines[4][:-8] + "AAAAAAAA"
    lines[4] = tampered
    token, payload = lines[0].split(" ")
    lines += [
        "A" * 141,  # too-long
        "no hash tokens here",  # no-tag
        "#toolongtoken " + payload,  # bad-tag
        token + " AAAA",  # payload-length
        lines[0] + "*",  # bad-alphabet
    ]
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(("\n".join(lines) + "\n").encode())))
    code, out, err = run(capsys, "open", "-", "--tag", "ours-cli", "--kdf", "fast", "--stats")
    assert code == EXIT_OK
    assert out.splitlines() == mine
    assert (
        "matched=10 skipped=20 malformed=5 (bad-alphabet=1 bad-tag=1 no-tag=1 payload-length=1 too-long=1)"
        in err.splitlines()
    )


def test_open_empty_stream(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"")))
    code, out, _ = run(capsys, "open", "-", "--tag", "t", "--kdf", "fast")
    assert code == EXIT_OK and out == ""


def test_open_counts_a_blank_line_as_nothing(capsys, monkeypatch):
    line = wire.encode(seal(b"only", [PlainTag("blank-group")], rng=random.Random(2)))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(f"\n{line}\n  \n\r\n".encode())))
    code, out, err = run(capsys, "open", "-", "--tag", "blank-group", "--kdf", "fast", "--stats")
    assert code == EXIT_OK and out == "only\n"
    assert err.splitlines()[-1] == "matched=1 skipped=0 malformed=0"


def test_open_counts_a_non_utf8_line_as_malformed_from_a_path_and_stdin(capsys, monkeypatch, tmp_path):
    rng = random.Random(4)
    first, last = (wire.encode(seal(body, [PlainTag("utf8-group")], rng=rng)) for body in (b"first", b"last"))
    data = f"{first}\n".encode() + b"#abcde \xff\xfe\n" + f"{last}\n".encode()
    path = tmp_path / "feed.txt"
    path.write_bytes(data)
    argv = ["--tag", "utf8-group", "--kdf", "fast", "--stats"]
    from_path = run(capsys, "open", str(path), *argv)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    from_stdin = run(capsys, "open", "-", *argv)
    for code, out, err in (from_path, from_stdin):
        assert code == EXIT_OK and out == "first\nlast\n"
        assert err.splitlines()[-1] == "matched=2 skipped=0 malformed=1 (bad-alphabet=1)"


def test_collide_emits_verifiable_lines(capsys):
    code, out, _ = run(
        capsys,
        "collide", "--prefix", "cli-", "--target", "cli-target", "--suffix-len", "2",
        "--k", "8", "--kdf", "fast",
    )
    assert code == EXIT_OK
    for line in out.strip().splitlines():
        plain, token = line.split("\t")
        assert plain.startswith("cli-") and token.startswith("#")


def test_collide_shards_and_first_n(capsys):
    base = [
        "collide", "--prefix", "cli-", "--target", "cli-target", "--suffix-len", "2",
        "--k", "8", "--kdf", "fast",
    ]
    code, out, _ = run(capsys, *base, "--mode", "first-n", "--count", "1", "--seed", "6")
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 1


def test_collide_fans_out_and_prints_the_serial_matches(capsys):
    # 62^3 = 238,328 candidates, enough that the search runs in the shard pool on a multi-core machine
    code, out, _ = run(
        capsys,
        "collide", "--prefix", "cli-", "--target", "cli-target", "--suffix-len", "3", "--k", "8", "--kdf", "fast",
    )
    assert code == EXIT_OK
    serial = collider.find_tag(collider.SearchSpec(prefix="cli-", target=PlainTag("cli-target"), suffix_length=3, k=8))
    assert out.splitlines() == [f"{plain.text}\t#{wire.encode_short_tag(short)}" for plain, short in serial.matches]
    assert len(serial.matches) > 100


def test_collide_short_tag_target_and_shortfall(capsys):
    code, out, err = run(
        capsys,
        "collide", "--prefix", "cli-", "--target", "#aa", "--suffix-len", "1",
        "--k", "10", "--kdf", "fast", "--mode", "first-n", "--count", "5",
    )
    assert code == EXIT_DATA
    assert "of 5 requested" in err


def test_collide_refuses_count_and_seed_without_first_n(capsys):
    base = ["collide", "--prefix", "p-", "--target", "t", "--suffix-len", "1", "--kdf", "fast"]
    for extra in (["--count", "5"], ["--seed", "3"], ["--count", "5", "--seed", "3"]):
        code, out, err = run(capsys, *base, *extra)
        assert code == EXIT_USAGE and out == "", extra
        assert err == "hoot collide: usage error: --count and --seed need --mode first-n\n", extra
    code, out, err = run(capsys, *base, "--mode", "first-n", "--count", "0")
    assert code == EXIT_DATA and out == ""
    assert err.splitlines()[-1] == "hoot collide: error: first-n mode needs count >= 1"


def test_collide_rejects_a_space_of_invalid_plain_tags(capsys):
    code, out, err = run(
        capsys,
        "collide", "--prefix", "a b", "--target", "cli-target", "--suffix-len", "1",
        "--k", "24", "--kdf", "fast",
    )
    assert code == EXIT_DATA
    assert out == ""
    assert "whitespace" in err


def test_collide_names_an_undecodable_alphabet_byte_as_a_plain_tag_error(capsys):
    # Python decodes an argument's invalid UTF-8 byte 0xff to the lone surrogate U+DCFF
    for length in ("1", "0"):
        code, out, err = run(
            capsys, "collide", "--prefix", "p-", "--target", "t", "--suffix-len", length, "--alphabet", "a\udcff",
        )
        assert code == EXIT_DATA and out == ""
        assert err.splitlines()[-1] == "hoot collide: error: plain tag is not valid UTF-8"


def test_collide_refuses_a_space_beyond_2_to_the_64_before_searching(capsys, monkeypatch):
    searched = []
    monkeypatch.setattr(collider, "find_tag", searched.append)
    code, out, err = run(
        capsys, "collide", "--prefix", "cli-", "--target", "cli-target", "--suffix-len", "11", "--kdf", "fast",
    )
    assert code == EXIT_DATA
    assert out == "" and not searched
    assert f"space of {62**11} candidates is more than 2^64" in err


def test_collide_logs_the_estimate_beside_the_measured_run(caplog):
    argv = [
        "collide", "--prefix", "cli-", "--target", "cli-target", "--suffix-len", "3",
        "--k", "8", "--kdf", "fast", "--mode", "first-n", "--count", "2", "--seed", "4",
    ]
    args = build_parser().parse_args(argv)
    with caplog.at_level(logging.INFO, logger="hoot"):
        assert args.run(args) == EXIT_OK
    tried, estimate = [r.getMessage() for r in caplog.records if r.name == "hoot"][-2:]
    assert re.fullmatch(r"tried \d+ candidates in [0-9.]+s \(\d+/s\), 2 match\(es\)", tried)
    # first-n expects 2^k tries per match: 2 * 2^8 candidates
    assert re.fullmatch(r"estimate at \d+/s: 512 candidates in [0-9.]+s", estimate)


def test_simulate_text_and_json(capsys, tmp_path):
    script = {
        "seed": 3,
        "k": 12,
        "target_group": "org",
        "groups": [
            {"name": "org", "plain_tag": "sim-org", "messages": 4},
            {"name": "fans", "plain_tag": "sim-fans", "messages": 6},
        ],
        "policy": [{"type": "block-short-tag", "plain_tag": "sim-org"}],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(script))
    code, out, _ = run(capsys, "simulate", str(path))
    assert code == EXIT_OK
    assert "target_block_rate = 1.0" in out
    code, out, _ = run(capsys, "simulate", str(path), "--json")
    stats = json.loads(out)
    assert stats["target_blocked"] == 4


def test_simulate_seed_flag_stands_for_the_scripts_seed(capsys, tmp_path, monkeypatch):
    script = {"groups": [{"name": "a", "plain_tag": "seed-a", "messages": 3}, {"name": "b", "plain_tag": "seed-b", "messages": 2}]}
    plain, seeded = tmp_path / "plain.json", tmp_path / "seeded.json"
    plain.write_text(json.dumps(script))
    seeded.write_text(json.dumps({**script, "seed": 7}))
    ran = []
    real = feed.run_scenario
    monkeypatch.setattr(feed, "run_scenario", lambda script: ran.append(script) or real(script))
    from_flag = run(capsys, "simulate", str(plain), "--seed", "7")
    from_script = run(capsys, "simulate", str(seeded))
    assert from_flag == from_script and from_flag[0] == EXIT_OK
    assert ran[0] == ran[1] and ran[0].seed == 7


def test_simulate_over_capacity_names_the_limit(capsys, tmp_path):
    # "<name> dispatch 0000" is 44 bytes, over the 39-byte capacity of one k=24 tag in 140 glyphs
    script = {"groups": [{"name": "g" * 30, "plain_tag": "long-name-group", "messages": 1}]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(script))
    code, out, err = run(capsys, "simulate", str(path))
    assert code == EXIT_DATA
    assert out == ""
    assert "message of 44 bytes" in err and "capacity 39" in err


@pytest.mark.parametrize(
    "script, field",
    [
        ({"seed": 1, "k": 12}, "groups"),
        ({"k": 12, "groups": [{"plain_tag": "no-name", "messages": 2}]}, "name"),
        (
            {"k": 12, "groups": [{"name": "g", "plain_tag": "g-tag", "messages": 2}], "policy": [{"sender": "g"}]},
            "type",
        ),
    ],
    ids=["groups", "name", "type"],
)
def test_simulate_names_a_missing_script_field_in_one_line(capsys, tmp_path, script, field):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(script))
    code, out, err = run(capsys, "simulate", str(path))
    assert code == EXIT_DATA
    assert out == ""
    assert err == f"hoot simulate: error: scenario script lacks the field '{field}'\n"


@pytest.mark.parametrize(
    "script, message",
    [
        ({"groups": 5}, "scenario script field 'groups' must be a list of objects"),
        (
            {"k": 12, "groups": [{"name": "g", "plain_tag": "g-tag", "messages": 2}], "policy": [1]},
            "scenario script field 'policy' must be a list of objects",
        ),
        ({"groups": [], "kdf": "fast-hash"}, "scenario script field 'kdf' must be an object"),
        ([1], "scenario script must be a JSON object"),
        (
            {"k": 12, "groups": [{"name": "g", "plain_tag": "g-tag", "messages": [2]}]},
            "scenario script field 'messages' has the wrong JSON type (list)",
        ),
        (
            {"groups": [{"name": "g", "plain_tag": 5, "messages": 2}]},
            "scenario script field 'plain_tag' has the wrong JSON type (int)",
        ),
        ({"groups": [], "kdf": {"work": {}}}, "scenario script field 'work' has the wrong JSON type (dict)"),
        (
            {"groups": [], "kdf": {"mode": "memory-hard", "wrok": 4}},
            "scenario script field 'kdf' has the unknown key 'wrok'",
        ),
        (
            {"groups": [], "kdf": {"mode": "fast-hash", "output_bits": 192}},
            "scenario script field 'kdf' has the unknown key 'output_bits'",
        ),
        *(
            ({"groups": [], "kdf": {"mode": "memory-hard", key: 1}}, f"scenario script field 'kdf' has the unknown key {key!r}")
            for key in ("memory", "parallelism")
        ),
        (
            {"groups": [], "policy": [{"type": "whitelist-short-tag", "short_tag": "ab", "known_plain_tags": 3}]},
            "scenario script field 'known_plain_tags' has the wrong JSON type (int)",
        ),
        *(
            (
                {"k": 12, "groups": [{"name": "g", "plain_tag": "g-tag", "messages": 2, **fields}]},
                f"scenario script field {name!r} has the wrong JSON type ({kind})",
            )
            for fields, name, kind in [
                ({"messages": 2.7}, "messages", "float"),
                ({"messages": True}, "messages", "bool"),
                ({"messages": "5"}, "messages", "str"),
                ({"replays": 1.5}, "replays", "float"),
                ({"rate": True}, "rate", "bool"),
                ({"name": 5}, "name", "int"),
            ]
        ),
        ({"k": 12.9, "groups": []}, "scenario script field 'k' has the wrong JSON type (float)"),
        ({"groups": [], "target_group": ["g"]}, "scenario script field 'target_group' has the wrong JSON type (list)"),
        (
            {"groups": [], "policy": [{"type": "block-sender", "sender": ["x"]}]},
            "scenario script field 'sender' has the wrong JSON type (list)",
        ),
        (
            {"groups": [], "policy": [{"type": "block-short-tag", "short_tag": 12}]},
            "scenario script field 'short_tag' has the wrong JSON type (int)",
        ),
        *(
            (
                {"groups": [], "policy": [{"type": "whitelist-short-tag", "short_tag": "ab", "known_plain_tags": known}]},
                f"scenario script field 'known_plain_tags' has the wrong JSON type ({kind})",
            )
            for known, kind in [("popstar", "str"), ({"popstar": 1}, "dict"), (["popstar", 7], "int")]
        ),
        ({"groups": [], "glyph_budgett": 10}, "scenario script has the unknown key 'glyph_budgett'"),
        (
            {"groups": [{"name": "g", "plain_tag": "g-tag", "messages": 2, "replay": 5}]},
            "scenario script field 'groups' has the unknown key 'replay'",
        ),
        *(
            ({"groups": [], "policy": [rule]}, f"scenario script field 'policy' has the unknown key {key!r}")
            for rule, key in [
                ({"type": "block-sender", "sender": "g", "plain_tag": "g-tag"}, "plain_tag"),
                ({"type": "block-short-tag", "plain_tag": "g-tag", "known_plain_tags": []}, "known_plain_tags"),
                ({"type": "whitelist-short-tag", "plain_tag": "g-tag", "sender": "g"}, "sender"),
            ]
        ),
        *(
            (
                {"groups": [], "policy": [rule]},
                f"rule {rule!r} names its tag twice (use 'short_tag' or 'plain_tag', not both)",
            )
            for rule in [
                {"type": "block-short-tag", "short_tag": "abc", "plain_tag": "g-tag"},
                {"type": "whitelist-short-tag", "short_tag": "abc", "plain_tag": "g-tag"},
            ]
        ),
        ({"groups": [], "policy": [{"type": "mystery", "extra": 1}]}, "unknown rule type 'mystery'"),
    ],
    ids=[
        "groups", "policy", "kdf", "top-level", "scalar", "plain-tag", "kdf-field", "kdf-typo", "kdf-output-bits",
        "kdf-memory", "kdf-parallelism", "known-tags",
        "messages-float", "messages-bool", "messages-str", "replays-float", "rate-bool", "name-int", "k-float",
        "target-group-list", "sender-list", "short-tag-int",
        "known-tags-str", "known-tags-object", "known-tags-member",
        "script-key", "group-key", "block-sender-key", "block-short-tag-key", "whitelist-key",
        "block-short-tag-both-tags", "whitelist-both-tags", "unknown-type-with-extra-key",
    ],
)
def test_simulate_names_a_field_of_the_wrong_type_in_one_line(capsys, tmp_path, script, message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(script))
    code, out, err = run(capsys, "simulate", str(path))
    assert code == EXIT_DATA
    assert out == ""
    assert err == f"hoot simulate: error: {message}\n"


def test_simulate_refuses_a_rate_too_large_for_a_float(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"groups": [{"name": "g", "plain_tag": "g-tag", "messages": 2, "rate": 10**330}]}))
    code, out, err = run(capsys, "simulate", str(path))
    assert code == EXIT_DATA
    assert out == ""
    assert err == "hoot simulate: error: posting rate must be positive and finite\n"


def test_analyze_entropy_and_brute_force(capsys):
    code, out, _ = run(
        capsys, "analyze", "entropy", "--component", "dict:40000", "--component", "digits:7",
    )
    assert code == EXIT_OK
    assert out.startswith("entropy_bits=38.54")
    code, out, _ = run(
        capsys, "analyze", "brute-force", "--bits", "47", "--rate", str(2**18), "--cores", str(2**10),
    )
    assert "full_seconds=524288" in out
    # a space too large for a float takes inf seconds, however its size is given
    for argv in (
        ["brute-force", "--bits", "2000", "--rate", "1"],
        ["brute-force", "--bits", "1e400", "--rate", "1"],
        ["entropy", "--component", "glyphs:62:1000", "--rate", "1", "--cores", "1"],
    ):
        code, out, err = run(capsys, "analyze", *argv)
        assert code == EXIT_OK and err == "", argv
        assert "full_seconds=inf\nexpected_seconds=inf\nfull_years=inf\n" in out, argv
    for argv in (
        ["brute-force", "--bits", "nan", "--rate", "1"],
        ["brute-force", "--bits", "40", "--rate", "nan"],
        ["brute-force", "--bits", "40", "--rate", "inf"],
        ["brute-force", "--bits", "40", "--rate", "0"],
        ["brute-force", "--bits", "40", "--rate", "1", "--cores", "0"],
        ["entropy", "--component", "digits:7", "--rate", "0"],
        ["entropy", "--component", "digits:7", "--rate", "1", "--cores", "0"],
    ):
        code, out, err = run(capsys, "analyze", *argv)
        assert code == EXIT_DATA and out == "", argv
        assert err == "hoot analyze: error: entropy, rate, and cores must be positive, and the rate finite\n", argv


def test_analyze_collision_and_bandwidth(capsys):
    code, out, _ = run(
        capsys, "analyze", "collision-prob", "--alphabet-size", "62", "--tag-glyphs", "2", "--suffix-len", "3",
    )
    assert code == EXIT_OK and out.startswith("probability=")
    code, out, _ = run(
        capsys, "analyze", "bandwidth", "--total-rate", "7000", "--k", "18", "--link-bps", "128000",
    )
    assert "per_tag_per_minute=1.60217" in out
    assert "link_messages_per_second=114.286" in out
    for k in ("0", "65", "5000"):
        code, out, err = run(
            capsys, "analyze", "bandwidth", "--total-rate", "7000", "--k", k, "--link-bps", "1",
        )
        assert code == EXIT_DATA and out == "", k
        assert err == f"hoot analyze: error: k={k} outside supported range 1..64\n", k


def test_analyze_times_an_overflowing_rate_times_cores_and_refuses_an_overflowing_budget(capsys):
    code, out, err = run(capsys, "analyze", "entropy", "--component", "digits:4", "--rate", "1e308", "--cores", "2")
    assert code == EXIT_OK and err == ""
    assert "full_seconds=5e-305\n" in out
    code, out, err = run(
        capsys, "analyze", "bandwidth", "--total-rate", "1e308", "--k", "1", "--link-bps", "1e308", "--msg-bytes", "1e-300",
    )
    assert code == EXIT_DATA and out == ""
    assert err == "hoot analyze: error: rates and sizes give a budget too large for a float\n"
    code, out, err = run(capsys, "analyze", "brute-force", "--bits", "0", "--rate", "1e308", "--cores", str(10**20))
    assert code == EXIT_DATA and out == ""
    assert err == "hoot analyze: error: rate and cores give a sweep time too small for a float\n"


@pytest.mark.parametrize("report", [["brute-force", "--bits", "10"], ["entropy", "--component", "digits:4"]])
def test_analyze_refuses_a_core_count_too_large_for_a_float(capsys, report):
    code, out, err = run(capsys, "analyze", *report, "--rate", "1", "--cores", "1" + "0" * 400)
    assert code == EXIT_DATA and out == ""
    assert err == "hoot analyze: error: rate and cores give a sweep time too small for a float\n"


def test_analyze_corpus_pipeline(capsys, tmp_path):
    corpus_path = tmp_path / "tags.csv"
    rank_path = tmp_path / "rank.csv"
    code, out, _ = run(
        capsys, "analyze", "gen-corpus", "--tags", "500", "--total", "20000",
        "--seed", "4", "--out", str(corpus_path),
    )
    assert code == EXIT_OK and "wrote" in out
    code, out, _ = run(
        capsys, "analyze", "report", "--corpus", str(corpus_path), "--k", "10",
        "--top", "5", "--rank-out", str(rank_path),
    )
    assert code == EXIT_OK
    assert "total_volume = 20000" in out
    assert rank_path.read_text().startswith("rank,count\n")


def test_analyze_report_refuses_a_negative_top(capsys, tmp_path):
    corpus_path = tmp_path / "tags.csv"
    corpus_path.write_text("hashtag,count\n" + "".join(f"tag{i},{i}\n" for i in range(1, 6)))
    code, out, err = run(capsys, "analyze", "report", "--corpus", str(corpus_path), "--k", "8", "--top", "-1")
    assert code == EXIT_DATA
    assert out == ""
    assert err.splitlines()[-1] == "hoot analyze: error: top_buckets must be >= 0, not -1"


def test_analyze_missing_flags_is_usage(capsys):
    code, _, err = run(capsys, "analyze", "brute-force")
    assert code == EXIT_USAGE and "--bits" in err
    code, _, _ = run(capsys, "analyze", "entropy")
    assert code == EXIT_USAGE


def test_bench_report_shape(capsys):
    code, out, _ = run(capsys, "bench", "--iterations", "200", "--k", "12", "--seed", "1")
    assert code == EXIT_OK
    report = json.loads(out)
    assert set(report) >= {"seal_per_second", "open_per_second", "open_seal_ratio"}
    assert report["opened"] + report["dropped"] == 200


def test_run_bench_counts_mix():
    report = run_bench(iterations=100, k=12, reject_fraction=0.8, seed=3)
    assert report["opened"] == 20
    assert report["dropped"] == 80


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--iterations", "0"), "iterations must be at least 1, not 0"),
        (("--iterations", "-3"), "iterations must be at least 1, not -3"),
        (("--iterations", "10", "--reject-fraction", "2"), "reject fraction must lie in [0, 1], not 2.0"),
        (("--iterations", "10", "--reject-fraction", "-0.5"), "reject fraction must lie in [0, 1], not -0.5"),
        (("--iterations", "10", "--reject-fraction", "nan"), "reject fraction must lie in [0, 1], not nan"),
    ],
)
def test_bench_refuses_iterations_and_reject_fractions_out_of_range(capsys, flags, message):
    code, out, err = run(capsys, "bench", *flags)
    assert code == EXIT_DATA and out == ""
    assert err == f"hoot bench: error: {message}\n"


def test_run_bench_takes_one_iteration_and_either_end_of_the_reject_range():
    assert run_bench(iterations=1, k=12, reject_fraction=0.0, seed=3)["opened"] == 1
    assert run_bench(iterations=1, k=12, reject_fraction=1.0, seed=3)["dropped"] == 1


def test_config_file_defaults_can_be_overridden(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 12, "kdf": "fast", "seed": 11}))
    expected = wire.encode(seal(b"m", [PlainTag("t")], k=12, rng=random.Random(11)), wire.WireParams(k=12))
    for spelling in (["--config", str(config)], [f"--config={config}"]):
        _, from_config, _ = run(capsys, "seal", "m", "--tag", "t", *spelling)
        assert from_config.strip() == expected, spelling
    # an explicit flag beats the config file
    _, overridden, _ = run(capsys, "seal", "m", "--tag", "t", "--config", str(config), "--k", "24")
    assert overridden != from_config


def test_flags_a_command_does_not_read_are_usage_errors(capsys, tmp_path):
    script = tmp_path / "s.json"
    script.write_text(json.dumps({"groups": [{"name": "g", "plain_tag": "flag-group", "messages": 1}]}))
    feed = tmp_path / "feed.txt"
    feed.write_text("")
    conf = tmp_path / "k12.json"
    conf.write_text(json.dumps({"k": 12}))
    for argv in (
        ("simulate", str(script), "--k", "18", "--kdf", "memory-hard"),
        ("bench", "--iterations", "10", "--kdf", "fast"),
        ("collide", "--prefix", "p-", "--target", "t", "--suffix-len", "1", "--glyph-budget", "200"),
        ("collide", "--prefix", "p-", "--target", "t", "--suffix-len", "1", "--shards", "2"),
        ("open", str(feed), "--tag", "t", "--kdf", "fast", "--seed", "1"),
        ("seal", "m", "--tag", "t", "--kdf", "fast", "--kdf-output-bits", "192"),
        ("seal", "m", "--tag", "t", "--seed", "1", "--kdf", "fast", "--conf", str(conf)),  # no abbreviated flags
        ("seal", "m", "--tag", "t", "--kdf", "fast", "--gly", "100"),
        ("analyze", "entropy", "--component", "dict:10", "--kdf", "memory-hard", "--corpus", "x", "--tags", "4"),
        ("analyze", "entropy", "--component", "dict:10", "--k", "10"),
        ("analyze", "brute-force", "--bits", "40", "--rate", "1", "--component", "dict:10"),
        ("analyze", "collision-prob", "--alphabet-size", "62", "--tag-glyphs", "2", "--suffix-len", "3", "--rate", "1"),
        ("analyze", "bandwidth", "--total-rate", "7000", "--link-bps", "128000", "--kdf", "fast"),
        ("analyze", "report", "--corpus", str(feed), "--seed", "1"),
        ("analyze", "gen-corpus", "--tags", "5", "--total", "10", "--out", str(tmp_path / "c.csv"), "--k", "10"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert out == "" and "unrecognized arguments" in err


def _kdf_flags(parser) -> list[str]:
    return [flag for action in parser._actions for flag in action.option_strings if flag.startswith("--kdf-")]


def test_every_kdf_command_registers_only_kdf_work():
    commands = build_parser()._subparsers._group_actions[0].choices
    reports = commands["analyze"]._subparsers._group_actions[0].choices
    parsers = {name: commands[name] for name in ("seal", "open", "collide")} | {"analyze report": reports["report"]}
    for name, parser in parsers.items():
        assert _kdf_flags(parser) == ["--kdf-work"], name
    every = [*commands.values(), *reports.values()]
    assert sum(len(_kdf_flags(parser)) for parser in every) == 4
    assert load_scenario({"groups": [], "kdf": {"mode": "memory-hard", "work": 4}}).kdf.work == 4


def test_kdf_config_refuses_a_setting_for_the_fast_hash(capsys):
    # a flag left unset reaches KdfConfig as None, which is no setting
    assert KdfConfig(KdfMode.FAST_HASH, None) == KdfConfig()
    # a work at its memory-hard default is still a setting
    code, out, err = run(capsys, "seal", "m", "--tag", "t", "--seed", "1", "--kdf", "fast", "--kdf-work", "32768")
    assert code == EXIT_DATA and out == ""
    assert err.endswith("hoot seal: error: work is a memory-hard KDF setting; the fast-hash KDF takes none\n")


def test_a_work_that_scrypt_cannot_run_is_refused_before_the_config_is_logged(capsys):
    # 2^24 needs a maxmem past 2^31, which hashlib refuses; 2^22 is the largest it runs
    for work in ("16777216", "8388608", "3", "1"):
        code, out, err = run(capsys, "seal", "m", "--tag", "t", "--seed", "1", "--kdf-work", work)
        assert code == EXIT_DATA and out == "", work
        assert err == "hoot seal: error: memory-hard work factor must be a power of two from 2 to 2^22\n", work


def _kdf_commands(tmp_path) -> dict[str, list[str]]:
    """Each command that takes --kdf, with the other arguments it needs to exit 0."""
    lines = tmp_path / "feed.txt"
    lines.write_text("")
    corpus = tmp_path / "tags.csv"
    corpus.write_text("foo,3\nbar,1\n")
    return {
        "seal": ["seal", "m", "--tag", "t", "--seed", "1"],
        "open": ["open", str(lines), "--tag", "t"],
        "collide": ["collide", "--prefix", "p-", "--target", "t", "--suffix-len", "1", "--k", "8"],
        "analyze": ["analyze", "report", "--corpus", str(corpus)],
    }


@pytest.mark.parametrize("setting", ["work", "memory", "parallelism"])
@pytest.mark.parametrize("command", ["seal", "open", "collide", "analyze"])
def test_every_command_refuses_a_kdf_setting_for_the_fast_hash(capsys, tmp_path, command, setting):
    argv = _kdf_commands(tmp_path)[command]
    assert run(capsys, *argv, "--kdf", "fast")[0] == EXIT_OK
    code, out, err = run(capsys, *argv, "--kdf", "fast", f"--kdf-{setting}", "16")
    if setting == "work":
        assert code == EXIT_DATA and out == ""
        assert f"hoot {command}: error: work is a memory-hard KDF setting; the fast-hash KDF takes none\n" in err
        return
    # memory and parallelism are constants of the memory-hard KDF, not flags of either
    assert code == EXIT_USAGE and out == ""
    assert err.endswith(f"unrecognized arguments: --kdf-{setting} 16\n")
    assert run(capsys, *argv, "--kdf", "memory-hard", f"--kdf-{setting}", "16")[:2] == (EXIT_USAGE, "")


@pytest.mark.parametrize("setting", ["work", "memory", "parallelism"])
def test_a_config_file_giving_the_fast_hash_a_kdf_setting_is_refused(capsys, tmp_path, setting):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kdf": "fast", f"kdf_{setting}": 16}))
    code, out, err = run(capsys, "seal", "m", "--tag", "t", "--seed", "1", "--config", str(config))
    if setting == "work":
        assert code == EXIT_DATA and out == ""
        assert "hoot seal: error: work is a memory-hard KDF setting" in err
    else:  # no flag takes it, under either KDF
        assert code == EXIT_USAGE and out == ""
        assert err.endswith(f"hoot: error: unrecognized arguments: --kdf-{setting}=16\n")


def test_memory_hard_takes_a_kdf_work(capsys):
    code, out, err = run(capsys, "seal", "m", "--tag", "t", "--seed", "1", "--kdf", "memory-hard", "--kdf-work", "16")
    assert code == EXIT_OK and out.startswith("#")
    assert "hoot: config: k=24 kdf=memory-hard(work=16) glyph_budget=140 seed=1\n" in err
    script = load_scenario({"groups": [], "kdf": {"mode": "memory-hard", "work": 16}})
    assert script.kdf == KdfConfig(KdfMode.MEMORY_HARD, work=16)


@pytest.mark.parametrize("kdf", [{"mode": "fast-hash", "work": 16}, {"work": 16}], ids=["fast-hash", "default-mode"])
def test_a_scenario_giving_the_fast_hash_a_kdf_setting_is_refused(capsys, tmp_path, kdf):
    script = {"groups": [{"name": "g", "plain_tag": "g-tag", "messages": 2}], "kdf": kdf}
    with pytest.raises(ValueError, match="^work is a memory-hard KDF setting; the fast-hash KDF takes none$"):
        load_scenario(script)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(script))
    code, out, err = run(capsys, "simulate", str(path))
    assert code == EXIT_DATA and out == ""
    assert "hoot simulate: error: work is a memory-hard KDF setting" in err
    # null is no setting, as a missing key is
    assert load_scenario({**script, "kdf": dict.fromkeys(kdf, None) | {"mode": "fast-hash"}}).kdf == KdfConfig()


def test_a_scenario_spells_the_fast_hash_in_full(capsys, tmp_path):
    script = {"groups": [{"name": "g", "plain_tag": "g-tag", "messages": 2}], "kdf": {"mode": "fast"}}
    with pytest.raises(ValueError, match="^scenario script field 'mode' must be 'fast-hash' or 'memory-hard', not 'fast'$"):
        load_scenario(script)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(script))
    code, out, err = run(capsys, "simulate", str(path))
    assert code == EXIT_DATA and out == ""
    assert err == "hoot simulate: error: scenario script field 'mode' must be 'fast-hash' or 'memory-hard', not 'fast'\n"
    path.write_text(json.dumps({**script, "kdf": {"mode": "fast-hash"}}))
    assert run(capsys, "simulate", str(path))[0] == EXIT_OK


def test_config_key_a_command_lacks_is_named(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"glyph_budget": 200}))
    code, _, err = run(capsys, "bench", "--iterations", "10", "--config", str(config))
    assert code == EXIT_USAGE
    assert "--glyph-budget" in err


def test_a_config_key_that_names_no_flag_is_refused_with_its_own_value(capsys, tmp_path):
    # the key and its value are one token, so the message stays the message and the error names the value
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kdf_memory": 4}))
    code, out, err = run(capsys, "seal", "m", "--tag", "t", "--seed", "1", "--config", str(config))
    assert code == EXIT_USAGE and out == ""
    assert err.splitlines()[-1] == "hoot: error: unrecognized arguments: --kdf-memory=4"


def test_every_analyze_report_takes_its_own_config(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 10}))
    argv = ["analyze", "bandwidth", "--total-rate", "7000", "--link-bps", "128000"]
    assert run(capsys, *argv, "--config", str(config)) == run(capsys, *argv, "--k", "10")
    assert run(capsys, *argv, "--k", "10")[1] != run(capsys, *argv)[1]
    config.write_text(json.dumps({"corpus": "tags.csv"}))
    code, out, err = run(capsys, *argv, "--config", str(config))
    assert code == EXIT_USAGE and out == ""
    assert "unrecognized arguments: --corpus=tags.csv" in err
    commands = build_parser()._subparsers._group_actions[0].choices
    leaves = {(name,): parser for name, parser in commands.items() if name != "analyze"}
    reports = commands["analyze"]._subparsers._group_actions[0].choices
    leaves.update({("analyze", name): parser for name, parser in reports.items()})
    assert len(leaves) == 11
    for words, parser in leaves.items():
        assert any("--config" in action.option_strings for action in parser._actions), words
        code, out, _ = run(capsys, *words, "--help")
        assert code == EXIT_OK and out.startswith(f"usage: hoot {' '.join(words)} "), words


def test_config_is_read_once_and_names_no_other_config(capsys, tmp_path):
    first, second, nested = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "nested.json"
    first.write_text(json.dumps({"k": 12}))
    second.write_text(json.dumps({"k": 18}))
    nested.write_text(json.dumps({"config": str(second), "kdf": "fast"}))
    argv = ["seal", "m", "--tag", "t", "--seed", "1", "--kdf", "fast"]
    code, out, err = run(capsys, *argv, "--config", str(first), f"--config={second}")
    assert code == EXIT_USAGE and out == ""
    assert err.splitlines()[-1] == "hoot: error: --config given more than once"
    code, out, err = run(capsys, *argv, "--config", str(nested))
    assert code == EXIT_DATA and out == ""
    assert err == f"hoot: error: config file {nested} names another config file\n"


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "collide", "--prefix", "p")[0] == EXIT_USAGE  # missing required flags
    assert run(capsys, "unknown-command")[0] == EXIT_USAGE


def test_data_errors_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "simulate", str(tmp_path / "missing.json"))
    assert code == EXIT_DATA
    code, _, _ = run(capsys, "seal", "m", "--tag", "#bad tag#", "--kdf", "fast")
    assert code == EXIT_DATA


def test_config_file_errors_exit_two(capsys, tmp_path):
    (tmp_path / "bad.json").write_text("{bad")
    (tmp_path / "list.json").write_text("[1, 2]")
    for name in ("missing.json", "bad.json", "list.json"):
        code, out, err = run(capsys, "seal", "m", "--tag", "abc", f"--config={tmp_path / name}")
        assert code == EXIT_DATA, name
        assert out == "" and err.startswith(f"hoot: error: config file {tmp_path / name}"), name
        assert len(err.splitlines()) == 1, name


@pytest.mark.parametrize("value,kind", [(["rally"], "array"), (None, "null"), ({"text": "rally"}, "object")])
def test_a_config_files_array_object_or_null_value_is_refused(capsys, tmp_path, value, kind):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tag": value}))
    code, out, err = run(capsys, "seal", "m", "--kdf", "fast", "--seed", "1", "--config", str(config))
    assert code == EXIT_DATA and out == ""
    assert err == f"hoot: error: config file {config}: key 'tag' holds a JSON {kind}, which no flag takes\n"
    # refused even where an explicit flag would replace the value
    code, out, _ = run(capsys, "seal", "m", "--tag", "t", "--kdf", "fast", "--seed", "1", "--config", str(config))
    assert code == EXIT_DATA and out == ""


def test_a_trailing_config_flag_without_a_path_is_a_usage_error(capsys):
    code, out, err = run(capsys, "seal", "m", "--tag", "t", "--config")
    assert code == EXIT_USAGE and out == ""
    assert err.splitlines()[-1] == "hoot: error: --config needs a file path"


def test_a_config_files_true_turns_a_switch_on(capsys, tmp_path, monkeypatch):
    line = wire.encode(seal(b"hi", [PlainTag("switch-group")], rng=random.Random(1)))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(f"{line}\n".encode())))
    config = tmp_path / "open.json"
    config.write_text(json.dumps({"stats": True, "kdf": "fast"}))
    code, out, err = run(capsys, "open", "-", "--tag", "switch-group", "--config", str(config))
    assert code == EXIT_OK and out == "hi\n"
    assert err.splitlines()[-1] == "matched=1 skipped=0 malformed=0"
    script = tmp_path / "scenario.json"
    script.write_text(json.dumps({"groups": [{"name": "g", "plain_tag": "switch-g", "messages": 2}]}))
    config.write_text(json.dumps({"json": True}))
    code, out, _ = run(capsys, "simulate", str(script), "--config", str(config))
    assert code == EXIT_OK and json.loads(out)["submitted"] == 2
    config.write_text(json.dumps({"json": False}))
    code, out, _ = run(capsys, "simulate", str(script), "--config", str(config))
    assert code == EXIT_OK and out.startswith("submitted = 2\n")


def test_effective_config_is_logged(capsys):
    _, _, err = run(capsys, "seal", "m", "--tag", "t", "--kdf", "fast", "--seed", "1")
    assert "config:" in err and "k=24" in err


def test_the_config_log_names_no_setting_for_the_fast_hash(capsys):
    _, _, err = run(capsys, "seal", "m", "--tag", "t", "--kdf", "fast", "--seed", "1")
    assert "hoot: config: k=24 kdf=fast-hash glyph_budget=140 seed=1\n" in err
    _, _, err = run(capsys, "seal", "m", "--tag", "t", "--kdf", "memory-hard", "--kdf-work", "16", "--seed", "1")
    assert "hoot: config: k=24 kdf=memory-hard(work=16) glyph_budget=140 seed=1\n" in err


def test_open_takes_one_plain_tag(capsys, tmp_path, monkeypatch):
    _, line, _ = run(capsys, "seal", "for b", "--tag", "b", "--kdf", "fast", "--seed", "1")
    stream = tmp_path / "l.txt"
    stream.write_text(line)
    code, out, err = run(capsys, "open", str(stream), "--tag", "a", "--tag", "b", "--kdf", "fast", "--stats")
    assert code == EXIT_USAGE and out == ""
    assert err.endswith("hoot open: usage error: this command takes one plain tag, not 2\n")
    # a config file's "tag" yields to an explicit one
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tag": "a"}))
    single = tmp_path / "single.json"
    single.write_text(json.dumps({"tag": "b"}))
    for argv in (["--tag", "b"], ["--config", str(single)], ["--config", str(config), "--tag", "b"]):
        code, out, _ = run(capsys, "open", str(stream), *argv, "--kdf", "fast")
        assert code == EXIT_OK and out == "for b\n", argv
    monkeypatch.setenv("HOOT_TAG", "b")
    code, out, _ = run(capsys, "open", str(stream), "--kdf", "fast")
    assert code == EXIT_OK and out == "for b\n"


def test_a_config_files_tag_yields_to_an_explicit_tag(capsys, tmp_path):
    config = tmp_path / "a.json"
    config.write_text(json.dumps({"tag": "a", "k": 12}))
    _, alone, _ = run(capsys, "seal", "m", "--tag", "b", "--kdf", "fast", "--seed", "1", "--k", "12")
    assert alone.count("#") == 1
    for explicit in (["--tag", "b"], ["--tag=b"]):
        code, out, _ = run(capsys, "seal", "m", "--config", str(config), *explicit, "--kdf", "fast", "--seed", "1")
        assert code == EXIT_OK and out == alone, explicit
    # a key the command line does not give still applies
    _, from_file, _ = run(capsys, "seal", "m", "--config", str(config), "--kdf", "fast", "--seed", "1", "--k", "12")
    assert from_file.count("#") == 1 and from_file != alone


class _RecordingStream(io.BytesIO):
    """A byte stream that records the most bytes one read returned."""

    largest = 0

    def _seen(self, chunk):
        self.largest = max(self.largest, len(chunk))
        return chunk

    def readline(self, size=-1):
        return self._seen(super().readline(size))

    def __next__(self):
        return self._seen(super().__next__())


def test_open_reads_a_bounded_prefix_of_each_line(capsys, monkeypatch):
    rng = random.Random(6)
    first, last = (wire.encode(seal(body, [PlainTag("bounded")], rng=rng)) for body in (b"first", b"last"))
    limit = 4 * 140 + 2  # UTF-8 bytes of 140 glyphs, then CR LF
    at_limit = " " * (limit - 1 - len(first)) + first  # with its newline, exactly the limit: parsed
    over = at_limit + " "  # one byte more: too long, whatever whitespace it holds
    data = "\n".join([first, "A" * 100_000, at_limit, over, " " * limit, last]).encode()
    stream = _RecordingStream(data)
    monkeypatch.setattr("sys.stdin", type("Stdin", (), {"buffer": stream, "isatty": lambda self: False})())
    code, out, err = run(capsys, "open", "-", "--tag", "bounded", "--kdf", "fast", "--stats")
    assert code == EXIT_OK and out == "first\nfirst\nlast\n"
    assert err.splitlines()[-1] == "matched=3 skipped=0 malformed=3 (too-long=3)"
    assert 0 < stream.largest <= limit


@pytest.mark.parametrize("component", ["glyphs:62", "glyphs:62:x", "glyphs:62:3:1", "dict:1:2", "digits", "words:3", ""])
def test_entropy_names_a_malformed_or_unknown_component(capsys, component):
    code, out, err = run(capsys, "analyze", "entropy", "--component", "digits:7", "--component", component)
    assert code == EXIT_DATA and out == ""
    assert err == (
        f"hoot analyze: error: unknown namespace component {component!r} (use dict:N, digits:N, glyphs:SIZE:LEN)\n"
    )


def test_entropy_reads_cores_only_with_a_rate(capsys):
    code, out, err = run(capsys, "analyze", "entropy", "--component", "digits:7", "--cores", "8")
    assert code == EXIT_USAGE and out == ""
    assert err == "hoot analyze: usage error: --cores needs --rate\n"
    _, one_core, _ = run(capsys, "analyze", "entropy", "--component", "digits:7", "--rate", "1000", "--cores", "1")
    code, out, _ = run(capsys, "analyze", "entropy", "--component", "digits:7", "--rate", "1000")
    assert code == EXIT_OK and out == one_core
    code, out, _ = run(capsys, "analyze", "entropy", "--component", "digits:7", "--rate", "1000", "--cores", "8")
    assert code == EXIT_OK and out != one_core


def test_gen_corpus_with_more_tags_than_fit_in_memory_is_a_data_error(capsys, tmp_path, monkeypatch):
    # numpy's allocation fails as a MemoryError; no test asks for a huge array, which an
    # overcommitting kernel could grant and the writes then exhaust
    import numpy

    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(numpy, "arange", refuse)
    with pytest.raises(ValueError, match="^a corpus of 100000000000 tags does not fit in memory$"):
        analysis.generate_powerlaw_corpus(100_000_000_000, 1.0, 10)
    out_file = tmp_path / "c.csv"
    code, out, err = run(capsys, "analyze", "gen-corpus", "--tags", "100000000000", "--total", "10", "--out", str(out_file))
    assert code == EXIT_DATA and out == ""
    assert err == "hoot analyze: error: a corpus of 100000000000 tags does not fit in memory\n"
    assert not out_file.exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("fo o,3", "corpus hashtag 'fo o': plain tag must not contain whitespace"),
        ("bar,x", "{path}:3: invalid literal for int() with base 10: 'x'"),
        ("bar,0", "corpus hashtag 'bar': count must be >= 1, not 0"),
        ("foo,5", "corpus hashtag 'foo' appears more than once"),
    ],
    ids=["hashtag", "count", "zero-count", "repeated"],
)
def test_analyze_report_locates_a_bad_corpus_line(capsys, tmp_path, line, message):
    corpus_path = tmp_path / "tags.csv"
    corpus_path.write_text(f"hashtag,count\nfoo,3\n{line}\n")
    code, out, err = run(capsys, "analyze", "report", "--corpus", str(corpus_path), "--k", "8")
    assert code == EXIT_DATA
    assert out == ""
    assert err.splitlines()[-1] == "hoot analyze: error: " + message.format(path=corpus_path)


def test_analyze_report_header_counts_the_whole_corpus_under_top(capsys, tmp_path):
    corpus_path = tmp_path / "tags.csv"
    corpus_path.write_text("hashtag,count\nfoo,3\nbar,1\n")
    code, out, _ = run(capsys, "analyze", "report", "--corpus", str(corpus_path), "--k", "24", "--top", "0")
    assert code == EXIT_OK
    assert out.splitlines()[:4] == ["k = 24", "hashtags = 2", "buckets = 2", "total_volume = 4"]
