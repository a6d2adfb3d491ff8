"""End-to-end CLI behavior: flags, streams, exit codes."""

import io
import json
import logging
import random
import re

import pytest

from hoot import collider, wire
from hoot.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, build_parser, main, run_bench
from hoot.tagcrypt import PlainTag, seal


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
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code, out, err = run(capsys, "open", "-", "--tag", "ours-cli", "--kdf", "fast", "--stats")
    assert code == EXIT_OK
    assert out.splitlines() == mine
    assert (
        "matched=10 skipped=20 malformed=5 (bad-alphabet=1 bad-tag=1 no-tag=1 payload-length=1 too-long=1)"
        in err.splitlines()
    )


def test_open_empty_stream(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, out, _ = run(capsys, "open", "-", "--tag", "t", "--kdf", "fast")
    assert code == EXIT_OK and out == ""


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


def test_collide_rejects_a_space_of_invalid_plain_tags(capsys):
    code, out, err = run(
        capsys,
        "collide", "--prefix", "a b", "--target", "cli-target", "--suffix-len", "1",
        "--k", "24", "--kdf", "fast",
    )
    assert code == EXIT_DATA
    assert out == ""
    assert "whitespace" in err


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


def test_simulate_over_capacity_names_the_limit(capsys, tmp_path):
    # "<name> dispatch 0000" is 44 bytes, over the 39-byte capacity of one k=24 tag in 140 glyphs
    script = {"groups": [{"name": "g" * 30, "plain_tag": "long-name-group", "messages": 1}]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(script))
    code, out, err = run(capsys, "simulate", str(path))
    assert code == EXIT_DATA
    assert out == ""
    assert "message of 44 bytes" in err and "capacity 39" in err


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
    for argv in (
        ("simulate", str(script), "--k", "18", "--kdf", "memory-hard"),
        ("bench", "--iterations", "10", "--kdf", "fast"),
        ("collide", "--prefix", "p-", "--target", "t", "--suffix-len", "1", "--glyph-budget", "200"),
        ("collide", "--prefix", "p-", "--target", "t", "--suffix-len", "1", "--shards", "2"),
        ("open", str(feed), "--tag", "t", "--kdf", "fast", "--seed", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert out == "" and "unrecognized arguments" in err


def test_config_key_a_command_lacks_is_named(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"glyph_budget": 200}))
    code, _, err = run(capsys, "bench", "--iterations", "10", "--config", str(config))
    assert code == EXIT_USAGE
    assert "--glyph-budget" in err


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


def test_effective_config_is_logged(capsys):
    _, _, err = run(capsys, "seal", "m", "--tag", "t", "--kdf", "fast", "--seed", "1")
    assert "config:" in err and "k=24" in err
