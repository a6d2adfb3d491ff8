"""Text rendering of sealed messages as hashtag-searchable lines.

This module is the normative wire format. A wire message is one line of
ASCII text, at most ``glyph_budget`` glyphs (140 by default):

    wire    := tag (" " tag)* " " payload
    tag     := "#" base32                  one token per addressed group
    payload := base64                      unpadded, standard alphabet

Short tags are rendered as ceil(k/5) lowercase base32 glyphs (alphabet
"abcdefghijklmnopqrstuvwxyz234567", 5 bits per glyph, bits most
significant first, unused trailing bits zero). Lowercase base32 is used
because hashtag search layers fold case; the payload is not searched,
so standard case-sensitive base64 (A-Z a-z 0-9 + /) applies there, at 6
bits per glyph and without padding. The payload bytes are:

    key_block[0] || ... || key_block[n-1] || mac || ciphertext

with one 40-byte key block per hashtag token, a 20-byte MAC, and the
remainder the message ciphertext. The number of key blocks is inferred
from the number of hashtag tokens; there is no explicit count field.
"""

from __future__ import annotations

import base64
import binascii
import functools
import struct
from dataclasses import dataclass
from typing import NoReturn

from .errors import CapacityError, ConfigError, ParseError
from .tagcrypt import (
    DEFAULT_K,
    FAST_KDF,
    KEY_BLOCK_BYTES,
    MAC_BYTES,
    KdfConfig,
    Hoot,
    ShortTag,
    _build_hoot,
    check_k_range,
    seal,
)

BASE32_ALPHABET = "abcdefghijklmnopqrstuvwxyz234567"
_BASE32_GLYPHS = BASE32_ALPHABET + BASE32_ALPHABET.upper()
_BASE32_PAIRS = [high + low for high in BASE32_ALPHABET for low in BASE32_ALPHABET]  # 10 bits to two glyphs
# a base32 glyph of either case to its int(·, 32) digit, and any other ASCII character to "!", which int() refuses
_BASE32_DIGITS = str.maketrans(
    {chr(c): "!" for c in range(128)}
    | dict(zip(_BASE32_GLYPHS, 2 * "0123456789abcdefghijklmnopqrstuv"))
)
_BASE64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_BASE64_GLYPHS = frozenset(_BASE64_ALPHABET)
# by payload length mod 4: the padding strict base64 decoding needs, and the final glyphs whose unused low
# bits are zero (4 bits at 2, 2 bits at 3, none at 0); strict decoding refuses a length of 1 however padded
_PAYLOAD_TAILS = (
    ("", _BASE64_GLYPHS),
    ("===", frozenset()),
    ("==", frozenset(_BASE64_ALPHABET[::16])),
    ("=", frozenset(_BASE64_ALPHABET[::4])),
)
_TOKEN_CACHE_SIZE = 256  # (token, k) pairs decode_short_tag remembers

DEFAULT_GLYPH_BUDGET = 140


@dataclass(frozen=True)
class WireParams:
    """Short-tag width k and glyph budget of a wire line.

    The rest of the layout is fixed by the protocol: 5-bit base32 tag
    glyphs, and tagcrypt's 40-byte key blocks and 20-byte MAC.
    """

    k: int = DEFAULT_K
    glyph_budget: int = DEFAULT_GLYPH_BUDGET

    def __post_init__(self):
        check_k_range(self.k, ConfigError)
        if self.glyph_budget < 1:
            raise ConfigError("glyph budget must be positive")


DEFAULT_PARAMS = WireParams()


def tag_glyphs(k: int) -> int:
    """Base32 glyphs that carry a k-bit short tag: ceil(k/5)."""
    return -(-k // 5)


def encode_short_tags(values: list[int], k: int) -> list[str]:
    """Render k-bit short-tag values as lowercase base32 tokens, without the '#'.

    Each token is ceil(k/5) glyphs of the value shifted left over the
    unused trailing bits. The tokens are built a column at a time: a
    column of single glyphs when the glyph count is odd, then columns of
    two glyphs from a 1,024-entry table, joined per token by one map.
    """
    check_k_range(k)
    if values and (min(values) < 0 or max(values) >> k):
        raise ValueError(f"short tag values must fit in {k} bits")
    shift = 5 * tag_glyphs(k)
    padded = [value << (shift - k) for value in values]
    columns = []
    if shift % 10:
        shift -= 5
        columns.append([BASE32_ALPHABET[value >> shift] for value in padded])
    while shift:
        shift -= 10
        columns.append([_BASE32_PAIRS[value >> shift & 0x3FF] for value in padded])
    return list(map("".join, zip(*columns)))


def encode_short_tag(tag: ShortTag) -> str:
    """Render a short tag as lowercase base32, without the '#'."""
    return encode_short_tags([tag.value], tag.k)[0]


@functools.lru_cache(maxsize=_TOKEN_CACHE_SIZE)
def decode_short_tag(text: str, k: int) -> ShortTag:
    """Inverse of encode_short_tag; case-insensitive on input.

    A token is ceil(k/5) ASCII base32 glyphs of either case. It folds
    onto int()'s base-32 digits and converts in one call. A token that
    call cannot take is "bad-tag", named by its length if that is wrong,
    else by its first glyph outside ASCII base32, so any token holding a
    non-ASCII character is refused.

    The last 256 results are remembered, so a repeated token is decoded
    once; a failure is not remembered and raises again on every call.
    """
    glyphs = tag_glyphs(k)
    if len(text) != glyphs:
        raise ParseError(f"short tag token needs {glyphs} glyphs for k={k}, got {len(text)}", kind="bad-tag")
    digits = text.translate(_BASE32_DIGITS)
    if not text.isascii() or "!" in digits:
        glyph = next(glyph for glyph in text if glyph not in _BASE32_GLYPHS)
        raise ParseError(f"glyph {glyph!r} is not base32", kind="bad-tag")
    value = int(digits, 32)
    pad = glyphs * 5 - k
    if value & ((1 << pad) - 1):
        raise ParseError("short tag padding bits must be zero", kind="bad-tag")
    return ShortTag(value >> pad, k)


def header_glyphs(params: WireParams, n_tags: int) -> int:
    """Glyphs taken by the hashtag tokens, separators, and payload gap."""
    return n_tags * (2 + tag_glyphs(params.k))


def total_glyphs(params: WireParams, n_tags: int, message_len: int) -> int:
    payload_bits = 8 * (n_tags * KEY_BLOCK_BYTES + MAC_BYTES + message_len)
    return header_glyphs(params, n_tags) + (payload_bits + 5) // 6


def capacity(params: WireParams, n_tags: int) -> int:
    """Largest message byte count that encodes within the glyph budget.

    Returns 0 when not even an empty message fits (many tags, small
    budget); encode() consistently rejects anything above the returned
    value and accepts anything at or below it whenever the header
    itself fits.
    """
    if n_tags < 1:
        raise ValueError("capacity needs at least one tag")
    payload_bits = 6 * (params.glyph_budget - header_glyphs(params, n_tags))
    return max(0, (payload_bits - 8 * (n_tags * KEY_BLOCK_BYTES + MAC_BYTES)) // 8)


def _check_fits(params: WireParams, n_tags: int, message_len: int) -> None:
    """Raise CapacityError unless the message renders within the glyph budget."""
    needed = total_glyphs(params, n_tags, message_len)
    if needed > params.glyph_budget:
        limit = capacity(params, n_tags)
        raise CapacityError(
            f"message of {message_len} bytes needs {needed} glyphs, over the budget of "
            f"{params.glyph_budget}; capacity {limit} bytes for {n_tags} tag(s)",
            capacity=limit,
        )


def encode(hoot: Hoot, params: WireParams = DEFAULT_PARAMS) -> str:
    """Render a hoot as one hashtag-searchable line."""
    for tag in hoot.short_tags:
        if tag.k != params.k:
            raise ConfigError(f"hoot carries k={tag.k} tags but params expect k={params.k}")
    _check_fits(params, len(hoot.short_tags), len(hoot.ciphertext))
    tokens = "#" + " #".join(encode_short_tags([tag.value for tag in hoot.short_tags], params.k))  # a hoot has a tag
    body = b"".join(hoot.key_blocks) + hoot.mac + hoot.ciphertext
    payload = base64.b64encode(body).rstrip(b"=").decode("ascii")
    return tokens + " " + payload


@functools.lru_cache(maxsize=8)
def _key_blocks(n_tags: int) -> struct.Struct:
    """Unpacks the leading ``n_tags`` 40-byte key blocks of a payload body and the 20-byte MAC after them as a tuple."""
    return struct.Struct(f"{KEY_BLOCK_BYTES}s" * n_tags + f"{MAC_BYTES}s")


def parse(text: str, params: WireParams = DEFAULT_PARAMS) -> Hoot:
    """Parse a wire line back into a hoot.

    Raises ParseError with a ``kind`` of "too-long" (more glyphs than
    ``params.glyph_budget``, checked before any decoding), "no-tag",
    "bad-tag", "payload-length", or "bad-alphabet".

    A line is cut once, at its last space, into hashtag tokens and a
    payload, and a line whose tokens lead with "#" and whose payload
    holds no "=", as every valid line's do, is checked by C-level
    decoders: one ``int(·, 32)`` per tag token not among
    ``decode_short_tag``'s remembered ones, and one strict
    ``binascii.a2b_base64`` for the payload. Only a line of another
    shape, or one that a decoder refuses, goes to ``_refuse``, whose
    glyph-level checks classify the failure. A decoded payload is
    canonical when its final glyph's unused low bits (4 when its length
    is 2 mod 4, 2 when it is 3) are zero, which is when re-encoding the
    bytes gives the payload back.
    """
    text = text.strip()
    if len(text) > params.glyph_budget:
        raise ParseError(f"{len(text)} glyphs exceed the budget of {params.glyph_budget}", kind="too-long")
    head, _, payload = text.rpartition(" ")  # a stripped line ends in no space, so the payload is not empty
    # strict mode would take "AB=" as padded, where _refuse finds a glyph outside the alphabet
    if head[:1] == "#" and "=" not in payload:
        k, tags = params.k, ()
        padding, finals = _PAYLOAD_TAILS[len(payload) % 4]
        try:
            # no decoded name holds a space, so every token of the head leads with "#"
            for name in head[1:].split(" #"):
                tags += (decode_short_tag(name, k),)
            body = binascii.a2b_base64(payload + padding, strict_mode=True)  # strict_mode: Python 3.11+
        except ValueError:  # a ParseError, a binascii.Error, or a payload that is not ASCII
            pass
        else:
            if payload[-1] not in finals:
                # non-zero trailing bits: a truncated or reframed payload
                raise ParseError("payload is not a canonical unpadded base64 encoding", kind="payload-length")
            layout = _key_blocks(len(tags))
            try:
                fields = layout.unpack_from(body)
            except struct.error:  # a body shorter than the layout
                raise ParseError(
                    f"payload holds {len(body)} bytes but {len(tags)} tag(s) require at least {layout.size}",
                    kind="payload-length",
                ) from None
            # Hoot's checks hold already: a tag or more, one 40-byte block per tag, a 20-byte MAC
            return _build_hoot(tags, fields[:-1], fields[-1], body[layout.size :])
    _refuse(text, params)


def _refuse(text: str, params: WireParams) -> NoReturn:
    """Raise the ParseError that classifies a stripped line, within the budget, that parse's decoders did not take."""
    tokens = text.split(" ")
    index = 0
    while index < len(tokens) and tokens[index].startswith("#"):
        decode_short_tag(tokens[index][1:], params.k)
        index += 1
    if index == 0:
        raise ParseError("no hashtag token found", kind="no-tag")
    if index == len(tokens) or tokens[index] == "":
        raise ParseError("missing payload after hashtag tokens", kind="payload-length")
    if len(tokens) - index > 1:
        raise ParseError("whitespace inside payload", kind="bad-alphabet")
    bad = set(tokens[index]) - _BASE64_GLYPHS
    if bad:
        raise ParseError(f"payload glyphs {sorted(bad)!r} outside the base64 alphabet", kind="bad-alphabet")
    # with no "=" and every glyph base64, strict mode refuses only a length of 1 (mod 4)
    raise ParseError("payload length is not a valid unpadded base64 length", kind="payload-length")


def seal_to_wire(
    message: bytes,
    plain_tags,
    cfg: KdfConfig = FAST_KDF,
    params: WireParams = DEFAULT_PARAMS,
    *,
    rng=None,
) -> str:
    """Seal and render in one step, enforcing the glyph budget.

    The capacity check runs before any key material is derived, so an
    over-long message fails fast with the exact limit in the error.
    """
    plain_tags = list(plain_tags)
    if not plain_tags:
        raise ValueError("seal needs at least one plain tag")
    _check_fits(params, len(plain_tags), len(message))
    return encode(seal(message, plain_tags, cfg, k=params.k, rng=rng), params)
