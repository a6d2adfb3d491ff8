"""Wire codec: rendering, parsing, and capacity arithmetic."""

import random

import pytest

from hoot.errors import CapacityError, ConfigError, ParseError
from hoot.tagcrypt import FAST_KDF, PlainTag, ShortTag, open_hoot, seal
from hoot.wire import (
    DEFAULT_PARAMS,
    WireParams,
    capacity,
    decode_short_tag,
    encode,
    encode_short_tag,
    parse,
    seal_to_wire,
    total_glyphs,
)


def sealed(message=b"hello there", tags=("wire-group-a",), k=24, seed=0):
    rng = random.Random(seed)
    return seal(message, [PlainTag(t) for t in tags], k=k, rng=rng)


@pytest.mark.parametrize("k", [6, 11, 12, 18, 24, 25, 32])
def test_round_trip_across_k(k):
    params = WireParams(k=k)
    rng = random.Random(k)
    for _ in range(25):
        message = rng.randbytes(rng.randrange(0, capacity(params, 1) + 1))
        hoot = seal(message, [PlainTag(f"rt-{k}")], k=k, rng=rng)
        assert parse(encode(hoot, params), params) == hoot


def test_wire_shape_and_budget():
    params = WireParams(k=24)
    line = encode(sealed(), params)
    assert line.startswith("#")
    assert len(line) <= 140
    token, payload = line.split(" ")
    assert len(token) == 1 + 5  # '#' plus ceil(24/5) base32 glyphs
    assert token[1:] == token[1:].lower()


def test_two_tag_wire_has_two_tokens():
    params = WireParams(k=12, glyph_budget=280)
    hoot = sealed(tags=("one-group", "two-group"), k=12)
    line = encode(hoot, params)
    first, second, payload = line.split(" ")
    assert first.startswith("#") and second.startswith("#")
    assert parse(line, params) == hoot


def test_glyph_arithmetic_k18_single_tag():
    # 1 '#' + 4 tag glyphs + 1 space + ceil((320+160+160)/6) payload glyphs
    params = WireParams(k=18)
    assert total_glyphs(params, 1, 20) == 1 + 4 + 1 + 107 == 113
    hoot = sealed(message=b"x" * 20, k=18)
    assert len(encode(hoot, params)) == 113


def test_short_tag_glyph_rounding():
    assert len(encode_short_tag(ShortTag(0, 12))) == 3
    assert len(encode_short_tag(ShortTag(0, 24))) == 5
    assert len(encode_short_tag(ShortTag(0, 25))) == 5
    assert encode_short_tag(ShortTag(0, 24)) == "aaaaa"


def test_short_tag_case_insensitive_decode():
    tag = ShortTag(0xABCDEF, 24)
    token = encode_short_tag(tag)
    assert decode_short_tag(token.upper(), 24) == tag
    assert decode_short_tag(token, 24) == tag


def test_short_tag_decode_rejects_nonzero_padding():
    # k=24 leaves one pad bit in 5 glyphs; force it nonzero
    token = encode_short_tag(ShortTag(0xABCDEF, 24))
    raw = [c for c in token]
    # flip the lowest bit of the final glyph
    last_index = "abcdefghijklmnopqrstuvwxyz234567".index(raw[-1])
    raw[-1] = "abcdefghijklmnopqrstuvwxyz234567"[last_index ^ 1]
    with pytest.raises(ParseError) as err:
        decode_short_tag("".join(raw), 24)
    assert err.value.kind == "bad-tag"


def test_capacity_monotone_in_tags():
    params = WireParams(k=12, glyph_budget=600)
    values = [capacity(params, n) for n in range(1, 8)]
    assert values == sorted(values, reverse=True)


@pytest.mark.parametrize("k,n_tags", [(12, 1), (18, 1), (24, 1), (32, 1), (12, 2)])
def test_capacity_exactly_matches_encoder(k, n_tags):
    budget = 280 if n_tags > 1 else 140
    params = WireParams(k=k, glyph_budget=budget)
    limit = capacity(params, n_tags)
    tags = [f"cap-{k}-{i}" for i in range(n_tags)]
    fits = sealed(message=b"y" * limit, tags=tags, k=k)
    assert len(encode(fits, params)) <= budget
    with pytest.raises(CapacityError) as err:
        encode(sealed(message=b"y" * (limit + 1), tags=tags, k=k), params)
    assert err.value.capacity == limit


def test_default_budget_cannot_hold_two_tags():
    # two 320-bit key blocks plus the MAC already exceed 140 glyphs
    assert capacity(DEFAULT_PARAMS, 2) == 0
    with pytest.raises(CapacityError):
        encode(sealed(message=b"", tags=("a-group", "b-group")), DEFAULT_PARAMS)


def test_capacity_grid_is_exact():
    for k in range(1, 65):
        for budget in range(1, 401):
            params = WireParams(k=k, glyph_budget=budget)
            for n_tags in range(1, 5):
                c = capacity(params, n_tags)
                if c > 0:
                    assert total_glyphs(params, n_tags, c) <= budget
                if total_glyphs(params, n_tags, 0) <= budget:
                    assert total_glyphs(params, n_tags, c + 1) > budget


def test_seal_to_wire_enforces_capacity():
    limit = capacity(DEFAULT_PARAMS, 1)
    line = seal_to_wire(b"z" * limit, [PlainTag("fits")], rng=random.Random(1))
    assert len(line) <= 140
    with pytest.raises(CapacityError) as err:
        seal_to_wire(b"z" * (limit + 1), [PlainTag("fits")], rng=random.Random(1))
    assert str(limit) in str(err.value)


def test_parse_error_classification():
    params = WireParams(k=24)
    line = encode(sealed(), params)
    with pytest.raises(ParseError) as err:
        parse("no hash tokens here", params)
    assert err.value.kind == "no-tag"
    # a 10-byte message makes the payload 94 glyphs; dropping one leaves
    # 93 = 1 (mod 4), never a valid unpadded base64 length
    short_line = encode(sealed(message=b"0123456789"), params)
    with pytest.raises(ParseError) as err:
        parse(short_line[:-1], params)
    assert err.value.kind == "payload-length"
    with pytest.raises(ParseError) as err:
        parse(line + "*", params)
    assert err.value.kind == "bad-alphabet"
    with pytest.raises(ParseError) as err:
        parse(line.split(" ")[0] + " ", params)
    assert err.value.kind == "payload-length"
    with pytest.raises(ParseError) as err:
        parse("#toolongtoken " + line.split(" ")[1], params)
    assert err.value.kind == "bad-tag"
    with pytest.raises(ParseError) as err:
        parse(line + " extra", params)
    assert err.value.kind == "bad-alphabet"


@pytest.mark.parametrize("glyphs", [141, 4087])
def test_parse_rejects_lines_over_the_budget(glyphs):
    line = encode(sealed(), WireParams(k=24))
    padded = line + "A" * (glyphs - len(line))
    assert len(padded) == glyphs
    with pytest.raises(ParseError) as err:
        parse(padded, WireParams(k=24, glyph_budget=140))
    assert err.value.kind == "too-long"


def test_parse_rejects_noncanonical_trailing_bits():
    params = WireParams(k=24)
    line = encode(sealed(message=b"0123456789AB"), params)  # 72-byte body, 96 glyphs
    truncated = line[:-2]  # 94 glyphs: length-valid but trailing bits survive
    with pytest.raises(ParseError) as err:
        parse(truncated, params)
    assert err.value.kind == "payload-length"


def test_parse_payload_shorter_than_header():
    params = WireParams(k=24)
    token = "#" + encode_short_tag(ShortTag(5, 24))
    with pytest.raises(ParseError) as err:
        parse(token + " AAAA", params)
    assert err.value.kind == "payload-length"


def test_encode_rejects_mismatched_k():
    hoot = sealed(k=18)
    with pytest.raises(ConfigError):
        encode(hoot, WireParams(k=24))


def test_params_validation():
    with pytest.raises(ConfigError):
        WireParams(k=0)
    with pytest.raises(ConfigError):
        WireParams(glyph_budget=0)


README_WIRE = "#f7uuy qWCJvKcfPRqOmTcYOwYsNBAXv5l68nJ78hEQ6OgEYf7MXT83qE76G5ICPsQEFrfKB1GT2TgbjBAWIkGpdzfcmFOLn2rRes0d"


def test_readme_worked_example_is_bit_exact():
    tag = PlainTag("garden-party-x7")
    line = seal_to_wire(b"meet at dawn", [tag], FAST_KDF, rng=random.Random(42))
    assert line == README_WIRE
    assert len(line) == 103
    assert open_hoot(parse(line), tag, FAST_KDF) == b"meet at dawn"


@pytest.mark.parametrize("k,limit", [(12, 41), (18, 40), (24, 39), (32, 38)])
def test_readme_capacity_table(k, limit):
    assert capacity(WireParams(k=k, glyph_budget=140), 1) == limit
