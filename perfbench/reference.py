"""Independent reference pieces of the hoot protocol, written from the
README's normative wire format rather than imported from ``hoot``.

The benchmark uses them to generate inputs (so the program under test
receives only finished wire lines) and to check outputs (so a defect in
``hoot`` cannot vouch for itself).
"""

from __future__ import annotations

import base64
import hashlib
import hmac

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

BASE32 = "abcdefghijklmnopqrstuvwxyz234567"


def short_tag_fast(name: str, k: int) -> int:
    """The k-bit short tag of a plain tag under the fast hash (k <= 160)."""
    digest = hashlib.sha1(name.encode("utf-8")).digest()
    return int.from_bytes(digest, "big") >> (160 - k)


def token(value: int, k: int) -> str:
    """Lowercase base32 rendering of a short tag, without the '#'."""
    glyphs = -(-k // 5)
    padded = value << (glyphs * 5 - k)
    return "".join(BASE32[(padded >> (5 * i)) & 31] for i in range(glyphs - 1, -1, -1))


def capacity(n_tags: int, k: int, budget: int = 140) -> int:
    """Largest message that fits a line: header, then base64 of blocks, MAC, text."""
    payload_glyphs = budget - n_tags * (2 + -(-k // 5))
    return max(0, (6 * payload_glyphs - n_tags * 320 - 160) // 8)


def _ctr(key: bytes, counter: bytes, data: bytes) -> bytes:
    enc = Cipher(algorithms.AES(key), modes.CTR(counter)).encryptor()
    return enc.update(data) + enc.finalize()


def seal_line(message: bytes, groups, k: int, rng) -> str:
    """Seal ``message`` for ``groups``, a list of (short tag value, tag key)."""
    k_enc, k_mac = rng.randbytes(16), rng.randbytes(16)
    ciphertext = _ctr(k_enc, bytes(16), message)
    mac = hmac.new(k_mac, ciphertext, hashlib.sha1).digest()
    blocks = b""
    for _, tag_key in groups:
        nonce = rng.randbytes(8)
        blocks += nonce + _ctr(tag_key, nonce + bytes(8), k_enc + k_mac)
    tags = " ".join("#" + token(value, k) for value, _ in groups)
    payload = base64.b64encode(blocks + mac + ciphertext).rstrip(b"=").decode("ascii")
    return tags + " " + payload
