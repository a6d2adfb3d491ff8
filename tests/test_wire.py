"""Wire codec: rendering, parsing, and capacity arithmetic."""

import base64
import binascii
import hashlib
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoot import wire
from hoot.errors import CapacityError, ConfigError, ParseError
from hoot.tagcrypt import (
    FAST_KDF,
    KEY_BLOCK_BYTES,
    KEY_BLOCK_NONCE_BYTES,
    MAC_BYTES,
    SESSION_KEY_BYTES,
    Hoot,
    PlainTag,
    ShortTag,
    derive_tag_material,
    open_hoot,
    open_with_material,
    seal,
)
from hoot.wire import (
    DEFAULT_PARAMS,
    WireParams,
    capacity,
    decode_short_tag,
    encode,
    encode_short_tag,
    encode_short_tags,
    parse,
    seal_to_wire,
    tag_glyphs,
    total_glyphs,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import reference  # noqa: E402  the benchmark's sealer, written from the README's wire format alone

BASE32 = "abcdefghijklmnopqrstuvwxyz234567"
BASE64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
# characters that C-level decoders treat differently from the glyph-level checks: padding, int()'s
# separators, signs and whitespace, ASCII digits outside base32, Unicode Nd digits, NUL, non-ASCII
# letters, and letters whose lowercase is ASCII (KELVIN SIGN) or two characters long (I WITH DOT ABOVE)
TRAPS = "=_+-\t\n 0189\u0663\uff10\x00\u00e9\u212a\u0130#"


def per_glyph_token(value: int, k: int) -> str:
    """The short-tag encoder one glyph at a time, as it was before tokens were built in bulk."""
    glyphs = tag_glyphs(k)
    padded = value << (glyphs * 5 - k)
    return "".join(BASE32[(padded >> (5 * i)) & 0x1F] for i in range(glyphs - 1, -1, -1))


def per_glyph_short_tag(text: str, k: int) -> ShortTag:
    """The short-tag decoder one glyph at a time, as it was before tokens went through int(·, 32),
    except that a non-ASCII glyph is refused instead of case-folded."""
    glyphs = tag_glyphs(k)
    if len(text) != glyphs:
        raise ParseError(f"short tag token needs {glyphs} glyphs for k={k}, got {len(text)}", kind="bad-tag")
    value = 0
    for glyph in text:
        if not glyph.isascii() or glyph.lower() not in BASE32:
            raise ParseError(f"glyph {glyph!r} is not base32", kind="bad-tag")
        value = (value << 5) | BASE32.index(glyph.lower())
    pad = glyphs * 5 - k
    if value & ((1 << pad) - 1):
        raise ParseError("short tag padding bits must be zero", kind="bad-tag")
    return ShortTag(value >> pad, k)


def classifying_parse(text: str, params: WireParams) -> Hoot:
    """The parser with glyph-level checks at every stage, as it was before valid lines took C-level decoders."""
    text = text.strip()
    if len(text) > params.glyph_budget:
        raise ParseError(f"{len(text)} glyphs exceed the budget of {params.glyph_budget}", kind="too-long")
    tokens = text.split(" ")
    tags = []
    index = 0
    while index < len(tokens) and tokens[index].startswith("#"):
        tags.append(per_glyph_short_tag(tokens[index][1:], params.k))
        index += 1
    if not tags:
        raise ParseError("no hashtag token found", kind="no-tag")
    if index == len(tokens) or tokens[index] == "":
        raise ParseError("missing payload after hashtag tokens", kind="payload-length")
    if len(tokens) - index > 1:
        raise ParseError("whitespace inside payload", kind="bad-alphabet")
    payload = tokens[index]
    bad = set(payload) - set(BASE64)
    if bad:
        raise ParseError(f"payload glyphs {sorted(bad)!r} outside the base64 alphabet", kind="bad-alphabet")
    if len(payload) % 4 == 1:
        raise ParseError("payload length is not a valid unpadded base64 length", kind="payload-length")
    try:
        body = base64.b64decode(payload + "=" * (-len(payload) % 4))
    except binascii.Error as exc:
        raise ParseError(f"payload does not decode: {exc}", kind="payload-length") from exc
    if base64.b64encode(body).rstrip(b"=").decode("ascii") != payload:
        raise ParseError("payload is not a canonical unpadded base64 encoding", kind="payload-length")
    fixed = len(tags) * KEY_BLOCK_BYTES + MAC_BYTES
    if len(body) < fixed:
        raise ParseError(
            f"payload holds {len(body)} bytes but {len(tags)} tag(s) require at least {fixed}",
            kind="payload-length",
        )
    blocks = tuple(body[i * KEY_BLOCK_BYTES : (i + 1) * KEY_BLOCK_BYTES] for i in range(len(tags)))
    return Hoot(tuple(tags), blocks, body[len(tags) * KEY_BLOCK_BYTES : fixed], body[fixed:])


def outcome(decode, *args):
    """What a decoder gives: ("ok", result) or ("error", kind, message)."""
    try:
        return ("ok", decode(*args))
    except ParseError as err:
        return ("error", err.kind, str(err))


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


def test_a_capacity_error_carries_the_capacity_and_states_need_and_budget():
    params = WireParams(k=12, glyph_budget=100)
    limit = capacity(params, 1)
    with pytest.raises(CapacityError) as err:
        encode(sealed(message=b"y" * (limit + 5), tags=["cap-state"], k=12), params)
    assert err.value.capacity == limit
    assert str(err.value) == (
        f"message of {limit + 5} bytes needs {total_glyphs(params, 1, limit + 5)} glyphs, over the budget of 100; "
        f"capacity {limit} bytes for 1 tag(s)"
    )


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


@pytest.mark.parametrize("length", [82, 83, 84])
@pytest.mark.parametrize("final", BASE64)
def test_parse_reads_canonical_trailing_bits_from_the_final_glyph(length, final):
    # 82 and 83 glyphs leave 4 and 2 unused low bits in the final glyph, 84 none; all hold a 60-byte header
    payload = "A" * (length - 1) + final
    padded = payload + "=" * (-length % 4)
    canonical = binascii.b2a_base64(binascii.a2b_base64(padded), newline=False) == padded.encode()
    got = outcome(parse, "#aaaaa " + payload, DEFAULT_PARAMS)
    if canonical:
        assert got[0] == "ok" and encode(got[1]) == "#aaaaa " + payload
    else:
        assert got[:2] == ("error", "payload-length")
    assert canonical == (length == 84 or BASE64.index(final) % (16 if length % 4 == 2 else 4) == 0)


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


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    k=st.integers(1, 32),
    seed=st.integers(0, 2**64),
    names=st.lists(st.text(st.sampled_from("abc-19"), min_size=1, max_size=12), min_size=1, max_size=2),
)
def test_seal_to_wire_equals_the_reference_sealer(data, k, seed, names):
    # the fast-hash long tag is SHA-1: bits [0, k) are the short tag and [k, k+128) the tag key
    groups = []
    for name in names:
        digest = int.from_bytes(hashlib.sha1(name.encode("utf-8")).digest(), "big")
        groups.append((digest >> (160 - k), ((digest >> (32 - k)) & ((1 << 128) - 1)).to_bytes(16, "big")))
    budget = 140 * len(names)  # two tags fit no line of 140 glyphs
    params = WireParams(k=k, glyph_budget=budget)
    length = data.draw(st.integers(0, reference.capacity(len(names), k, budget)), label="length")
    message = data.draw(st.binary(min_size=length, max_size=length), label="message")
    tags = [PlainTag(name) for name in names]
    line = seal_to_wire(message, tags, FAST_KDF, params, rng=random.Random(seed))
    assert line == reference.seal_line(message, groups, k, random.Random(seed))
    assert all(open_hoot(parse(line, params), tag, FAST_KDF, k=k) == message for tag in tags)


@pytest.mark.parametrize("k,limit", [(12, 41), (18, 40), (24, 39), (32, 38)])
def test_readme_capacity_table(k, limit):
    assert capacity(WireParams(k=k, glyph_budget=140), 1) == limit


@st.composite
def hoots(draw, k=st.integers(1, 64), n_tags=st.integers(1, 3), max_budget=400):
    """A hoot with random tags, key blocks and MAC, and wire params whose budget fits it."""
    k, n = draw(k), draw(n_tags)
    params = WireParams(k=k, glyph_budget=draw(st.integers(total_glyphs(WireParams(k=k), n, 0), max_budget)))
    tags = tuple(ShortTag(draw(st.integers(0, (1 << k) - 1)), k) for _ in range(n))
    blocks = tuple(draw(st.binary(min_size=KEY_BLOCK_BYTES, max_size=KEY_BLOCK_BYTES)) for _ in range(n))
    mac = draw(st.binary(min_size=MAC_BYTES, max_size=MAC_BYTES))
    ciphertext = draw(st.binary(max_size=capacity(params, n)))
    return Hoot(tags, blocks, mac, ciphertext), params


@st.composite
def mutated_lines(draw, k=st.integers(1, 32), n_tags=st.integers(1, 2), max_budget=200, edits=st.integers(1, 3)):
    """A valid line with a few glyphs replaced, inserted or deleted, often by a trap character."""
    hoot, params = draw(hoots(k=k, n_tags=n_tags, max_budget=max_budget))
    line = list(encode(hoot, params))
    glyph = st.one_of(st.sampled_from(TRAPS), st.sampled_from(BASE32 + BASE64), st.characters())
    for _ in range(draw(edits)):
        at = draw(st.integers(0, len(line)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert" or at == len(line):
            line.insert(at, draw(glyph))
        elif edit == "replace":
            line[at] = draw(glyph)
        else:
            del line[at]
    return "".join(line), params


def near_budget(length):
    """Lines of exactly ``length`` glyphs: a valid k=24 line padded with payload or trap glyphs."""
    return st.builds(
        lambda filler: (encode(sealed(), WireParams(k=24)) + filler * length)[:length], st.sampled_from("A" + TRAPS)
    )


MANY_TAGS = WireParams(k=12, glyph_budget=280)  # no line of two tags fits 140 glyphs at k=24
TWO_TAGS = encode(sealed(tags=("one-group", "two-group"), k=12), MANY_TAGS)
THREE_TAGS = encode(sealed(tags=("one-group", "two-group", "three-group"), k=12), MANY_TAGS)


@settings(max_examples=400, deadline=None)
@given(
    case=st.one_of(
        mutated_lines(),
        mutated_lines(k=st.just(12), n_tags=st.integers(2, 3), max_budget=280, edits=st.integers(0, 3)),
        st.tuples(st.text(alphabet=st.sampled_from(TRAPS + BASE32 + BASE64), max_size=150), st.just(DEFAULT_PARAMS)),
        st.tuples(st.text(max_size=150), st.just(DEFAULT_PARAMS)),
        st.tuples(st.one_of(near_budget(140), near_budget(141)), st.just(WireParams(k=24, glyph_budget=140))),
    )
)
@example(case=("#aaaaa AB=", DEFAULT_PARAMS))
@example(case=("#aaaaa AB==", DEFAULT_PARAMS))
@example(case=("#aaa_a " + "A" * 80, DEFAULT_PARAMS))
@example(case=("#\u212aaaaa " + "A" * 80, DEFAULT_PARAMS))
@example(case=(TWO_TAGS, MANY_TAGS))
@example(case=(THREE_TAGS, MANY_TAGS))
@example(case=(TWO_TAGS[1:], MANY_TAGS))  # the first token without its "#"
@example(case=(THREE_TAGS.replace(" #", " ", 1), MANY_TAGS))  # the second token without its "#"
@example(case=(THREE_TAGS.replace(" #", "  #", 1), MANY_TAGS))  # an empty token between two tags
@example(case=(THREE_TAGS.replace(" #", " ##", 1), MANY_TAGS))
@example(case=(" #".join(TWO_TAGS.rsplit(" ", 1)), MANY_TAGS))  # a payload that leads with "#"
def test_parse_agrees_with_the_classifying_oracle(case):
    text, params = case
    assert outcome(parse, text, params) == outcome(classifying_parse, text, params)


@settings(max_examples=300, deadline=None)
@given(hoots())
def test_parse_inverts_encode(case):
    hoot, params = case
    line = encode(hoot, params)
    assert len(line) <= params.glyph_budget
    parsed = parse(line, params)
    # parse skips the constructor's checks; the result is still what the checked constructor builds
    checked = Hoot(parsed.short_tags, parsed.key_blocks, parsed.mac, parsed.ciphertext)
    assert type(parsed) is Hoot and parsed == checked == hoot
    assert hash(parsed) == hash(checked) and repr(parsed) == repr(checked)


# Payload glyphs 10-31 carry body bits 60-191, and bits 64-191 are the first key block's wrapped
# k_enc. The MAC covers the ciphertext alone, so a glyph there that changes only k_enc bits still
# passes the MAC and decrypts the ciphertext under a wrong key.
WRAPPED_ENC_GLYPHS = range(KEY_BLOCK_NONCE_BYTES * 8 // 6, (KEY_BLOCK_NONCE_BYTES + SESSION_KEY_BYTES) * 8 // 6)


def open_mutated(message, seed, at, glyph):
    """Seal a line, replace its payload glyph ``at`` (a tag glyph for ``at`` < 0) with ``glyph``, parse and open it."""
    tag = PlainTag("mutation-group")
    line = seal_to_wire(message, [tag], rng=random.Random(seed))
    at += line.index(" ") + 1
    mutated = line[:at] + glyph + line[at + 1 :]
    try:
        hoot = parse(mutated)
    except ParseError:
        return None
    return open_with_material(hoot, derive_tag_material(tag))


@settings(max_examples=300, deadline=None)
@given(message=st.binary(max_size=capacity(DEFAULT_PARAMS, 1)), seed=st.integers(0, 2**32), data=st.data())
def test_one_glyph_mutation_never_opens_to_wrong_plaintext(message, seed, data):
    payload_glyphs = -(-8 * (KEY_BLOCK_BYTES + MAC_BYTES + len(message)) // 6)
    at = data.draw(st.integers(-tag_glyphs(24) - 2, payload_glyphs - 1).filter(lambda at: at not in WRAPPED_ENC_GLYPHS))
    glyph = data.draw(st.one_of(st.sampled_from(TRAPS + BASE32 + BASE64), st.characters()))
    # a tag glyph changed only in case names the same group, so it may still open to the message
    assert open_mutated(message, seed, at, glyph) in (None, message)


@pytest.mark.xfail(strict=True, reason="the MAC does not cover the wrapped k_enc, so a changed one opens to garbage")
def test_one_glyph_mutation_of_the_wrapped_enc_key_never_opens_to_wrong_plaintext():
    message = b"meet at dawn"
    wrong = [
        (at, glyph)
        for at in WRAPPED_ENC_GLYPHS
        for glyph in "AB"
        if open_mutated(message, 1, at, glyph) not in (None, message)
    ]
    assert wrong == []


@settings(max_examples=300, deadline=None)
@given(
    text=st.one_of(
        st.text(alphabet=st.sampled_from(BASE32 + BASE32.upper() + TRAPS), max_size=14), st.text(max_size=14)
    ),
    k=st.integers(1, 64),
)
def test_remembered_tokens_decode_as_they_did_first(text, k):
    first = outcome(decode_short_tag, text, k)
    assert outcome(decode_short_tag, text, k) == first
    if first[0] == "ok":
        assert outcome(decode_short_tag, text.upper(), k) == first == outcome(decode_short_tag, text.lower(), k)


def test_the_token_memo_is_bounded():
    assert decode_short_tag.cache_info().maxsize == wire._TOKEN_CACHE_SIZE
    for value in range(10_000):
        decode_short_tag(encode_short_tag(ShortTag(value, 24)), 24)
    assert decode_short_tag.cache_info().currsize <= decode_short_tag.cache_info().maxsize
    # a malformed token is never remembered, so it raises on every call
    for _ in range(2):
        with pytest.raises(ParseError, match="short tag padding bits must be zero"):
            decode_short_tag("aaaab", 24)


@pytest.mark.parametrize("k", range(1, 65))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_decode_short_tag_equals_per_glyph_oracle(k, data):
    glyphs = tag_glyphs(k)
    valid = "".join(data.draw(st.lists(st.sampled_from(BASE32 + BASE32.upper()), min_size=glyphs, max_size=glyphs)))
    text = data.draw(
        st.one_of(
            st.just(valid),
            st.builds(lambda at, c: valid[:at] + c + valid[at + 1 :], st.integers(0, glyphs - 1), st.sampled_from(TRAPS)),
            st.text(alphabet=st.sampled_from(TRAPS + BASE32 + BASE32.upper()), max_size=glyphs + 2),
            st.text(max_size=glyphs + 2),
        )
    )
    assert outcome(decode_short_tag, text, k) == outcome(per_glyph_short_tag, text, k)


@pytest.mark.parametrize("k", range(1, 65))
@settings(max_examples=30, deadline=None)
@given(value=st.integers(0, (1 << 64) - 1))
def test_encode_short_tag_equals_per_glyph_oracle_and_decodes_back(k, value):
    for tag in (ShortTag(0, k), ShortTag((1 << k) - 1, k), ShortTag(value >> (64 - k), k)):
        token = encode_short_tag(tag)
        assert token == per_glyph_token(tag.value, k)
        assert decode_short_tag(token, k) == tag


@pytest.mark.parametrize("k", range(1, 65))
@settings(max_examples=20, deadline=None)
@given(values=st.lists(st.integers(0, (1 << 64) - 1), max_size=40))
def test_encode_short_tags_equals_per_glyph_oracle_and_decodes_back(k, values):
    values = [0, (1 << k) - 1] + [value >> (64 - k) for value in values]
    tokens = encode_short_tags(values, k)
    assert tokens == [per_glyph_token(value, k) for value in values]
    assert [decode_short_tag(token, k) for token in tokens] == [ShortTag(value, k) for value in values]
    assert encode_short_tags([], k) == []


def test_encode_short_tags_refuses_what_no_short_tag_holds():
    for values, k, message in [
        ([1], 0, "k=0 outside supported range 1..64"),
        ([1], 65, "k=65 outside supported range 1..64"),
        ([0, 256], 8, "short tag values must fit in 8 bits"),
        ([-1], 8, "short tag values must fit in 8 bits"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            encode_short_tags(values, k)


def test_capacity_and_seal_to_wire_need_a_tag():
    with pytest.raises(ValueError, match="^capacity needs at least one tag$"):
        capacity(DEFAULT_PARAMS, 0)
    with pytest.raises(ValueError, match="^seal needs at least one plain tag$"):
        seal_to_wire(b"m", [])
