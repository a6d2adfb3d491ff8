"""Tag derivation and message sealing for hashtag-keyed groups.

A group's only secret is its plain tag, a short human-shareable hashtag
string. A key derivation function stretches the plain tag into a long
tag; the first k bits become the short tag (the public, searchable group
identifier, deliberately collision-prone) and the next 128 bits become
the tag key. A fast-hash short tag is the leading k bits of SHA-1 at any
output_bits; ``short_tags`` is the batched form, one hashlib call per
tag and one unpack of the joined digests. Each sealed message
carries fresh random session keys wrapped under the tag key of every
addressed group, a MAC over the ciphertext, and the ciphertext itself:

    long_tag  = H(plain_tag)
    short_tag = long_tag.bits[0 : k]
    tag_key   = long_tag.bits[k : k+128]
    k_enc, k_mac = fresh random 128-bit keys
    ciphertext   = AES-CTR(k_enc, counter=0, message)
    key_block    = nonce || AES-CTR(tag_key, counter=nonce||0, k_enc||k_mac)
    mac          = HMAC-SHA1(k_mac, ciphertext)

Opening a candidate message checks the MAC before touching the message
ciphertext; a MAC mismatch is the normal signal that the message
belongs to a different group colliding on the same short tag.

The 64-bit random nonce on each key block keeps the tag key's CTR
keystream from repeating across messages of the same group; it travels
in the clear as the first 8 bytes of the 40-byte key block.

Under NIST SP 800-38A the CTR keystream is the block cipher applied to
the counter blocks, so a key block is computed as

    key_block = nonce || (k_enc||k_mac) XOR AES-ECB(tag_key, nonce||0 || nonce||1)

which is bit-identical to the AES-CTR formula above: the low 64 bits of
the counter only go from 0 to 1, so no carry reaches the nonce. Each
TagMaterial builds its AES-ECB context once, on first use, and reuses
it, under a lock, for every key block it wraps or unwraps.

Tag material is memoized per (plain tag, KDF config, k) in one bounded
least-recently-used cache of the last 64, fast hash and memory-hard
alike, so repeat callers share one TagMaterial and its AES context.
The cache lives in the process, so a fresh process pays scrypt again.
``short_tags`` bypasses it, so a search evicts no subscriber's material.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import hmac
import secrets
import struct
import threading
from dataclasses import dataclass, field

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .errors import ConfigError

MIN_K = 1
MAX_K = 64
DEFAULT_K = 24

TAG_KEY_BYTES = 16
SESSION_KEY_BYTES = 16
MAC_BYTES = 20
KEY_BLOCK_NONCE_BYTES = 8
KEY_BLOCK_BYTES = KEY_BLOCK_NONCE_BYTES + 2 * SESSION_KEY_BYTES

_ZERO_COUNTER = bytes(16)
_FIRST_COUNTER = bytes(8)
_SECOND_COUNTER = (1).to_bytes(8, "big")
_CACHE_SIZE = 64  # entries in the tag-material cache, the one cache of derived tags
_LEADING64 = struct.Struct(">Q12x")  # a SHA-1 digest's leading 64 bits; iter_unpack walks joined digests

# Fixed derivation salt: every subscriber must reach the same long tag
# from the plain tag alone, so the salt is a protocol constant and the
# plain tag itself carries all the entropy.
_KDF_SALT = b"hoot.tag.v1"


class KdfMode(enum.Enum):
    FAST_HASH = "fast-hash"
    MEMORY_HARD = "memory-hard"


@dataclass(frozen=True)
class KdfConfig:
    """How plain tags are stretched into long tags.

    Fast-hash mode is a single SHA-1 digest (160 bits), extended by a
    deterministic digest-keyed expansion when more bits are requested.
    Memory-hard mode uses scrypt with ``work`` as the CPU/memory cost,
    ``memory`` as a floor on bytes of state, and ``parallelism`` lanes.
    """

    mode: KdfMode = KdfMode.FAST_HASH
    work: int = 2**15
    memory: int = 2**20
    parallelism: int = 1
    output_bits: int = 160

    def __post_init__(self):
        if self.output_bits < MIN_K + 128:
            raise ConfigError(
                f"output_bits={self.output_bits} cannot hold a short tag plus a 128-bit tag key"
            )
        if self.mode is KdfMode.MEMORY_HARD:
            if self.work < 2 or self.work & (self.work - 1):
                raise ConfigError("memory-hard work factor must be a power of two >= 2")
            if self.memory < 1 or self.parallelism < 1:
                raise ConfigError("memory and parallelism factors must be positive")

    def scrypt_params(self) -> tuple[int, int, int]:
        """Map (work, memory, parallelism) onto scrypt's (n, r, p).

        r is sized so 128*r*n covers the requested memory, floored at 1.
        """
        n = self.work
        r = max(1, self.memory // (128 * n))
        return n, r, self.parallelism


FAST_KDF = KdfConfig()
MEMORY_HARD_KDF = KdfConfig(mode=KdfMode.MEMORY_HARD)


def kdf_config(mode: str, work=None, memory=None, parallelism=None, output_bits=None) -> KdfConfig:
    """Build a KdfConfig from a mode name and optional integer fields.

    ``mode`` is a KdfMode value, or "fast" as the command line spells
    "fast-hash". A field left as None keeps its KdfConfig default.
    """
    given = {"work": work, "memory": memory, "parallelism": parallelism, "output_bits": output_bits}
    fields = {key: int(value) for key, value in given.items() if value is not None}
    return KdfConfig(mode=KdfMode("fast-hash" if mode == "fast" else mode), **fields)


@dataclass(frozen=True)
class PlainTag:
    """The secret hashtag that doubles as the group's password."""

    text: str

    def __post_init__(self):
        if not self.text:
            raise ValueError("plain tag must be non-empty")
        if self.text.split() != [self.text]:
            raise ValueError("plain tag must not contain whitespace")
        if self.text.startswith("#"):
            raise ValueError("plain tag is written without the leading '#'")
        if len(self.text.encode("utf-8")) > 256:
            raise ValueError("plain tag exceeds 256 UTF-8 bytes")

    def encoded(self) -> bytes:
        return self.text.encode("utf-8")


@dataclass(frozen=True)
class LongTag:
    """Fixed-length bit string derived from a plain tag."""

    data: bytes
    bits: int

    def __post_init__(self):
        if self.bits < 1 or len(self.data) != (self.bits + 7) // 8:
            raise ValueError(f"{len(self.data)} bytes cannot hold exactly {self.bits} bits")

    def bit_slice(self, start: int, length: int) -> int:
        """Bits [start, start+length) as an integer, bit 0 the most significant."""
        end = start + length
        if start < 0 or length < 0 or end > self.bits:
            raise ValueError(f"bit range [{start}, {end}) outside 0..{self.bits}")
        total = int.from_bytes(self.data, "big")
        return (total >> (len(self.data) * 8 - end)) & ((1 << length) - 1)


@dataclass(frozen=True)
class ShortTag:
    """The first k bits of a long tag; the public group identifier."""

    value: int
    k: int

    def __post_init__(self):
        if not MIN_K <= self.k <= MAX_K:
            raise ValueError(f"k={self.k} outside supported range {MIN_K}..{MAX_K}")
        if not 0 <= self.value < (1 << self.k):
            raise ValueError(f"short tag value {self.value} does not fit in {self.k} bits")


@dataclass(frozen=True)
class TagMaterial:
    """Everything a subscriber derives from a plain tag.

    The tag key stays out of ``repr`` so a logged material does not leak
    the group's key. One instance may be shared between threads.
    """

    short_tag: ShortTag
    tag_key: bytes = field(repr=False)

    def __post_init__(self):
        if len(self.tag_key) != TAG_KEY_BYTES:
            raise ValueError("tag key must be 128 bits")

    @functools.cached_property
    def _ecb(self):
        # cryptography's cipher contexts raise "Already borrowed" when two
        # threads call update at once, so each use holds the lock.
        return Cipher(algorithms.AES(self.tag_key), modes.ECB()).encryptor(), threading.Lock()

    def __getstate__(self):
        # the cipher context and its lock cannot be pickled; a copy builds its own
        return {name: value for name, value in vars(self).items() if name != "_ecb"}

    def wrap(self, nonce: bytes, data: bytes) -> bytes:
        """XOR session-key bytes with the tag key's CTR keystream from nonce||0.

        Wrapping and unwrapping are the same operation.
        """
        if len(nonce) != KEY_BLOCK_NONCE_BYTES or len(data) != 2 * SESSION_KEY_BYTES:
            raise ValueError(f"wrap takes a {KEY_BLOCK_NONCE_BYTES}-byte nonce and {2 * SESSION_KEY_BYTES} bytes")
        ecb, lock = self._ecb
        with lock:
            stream = ecb.update(nonce + _FIRST_COUNTER + nonce + _SECOND_COUNTER)
        return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(len(data), "big")


@dataclass(frozen=True)
class Hoot:
    """One sealed message: short tags, wrapped keys, MAC, ciphertext."""

    short_tags: tuple[ShortTag, ...]
    key_blocks: tuple[bytes, ...]
    mac: bytes
    ciphertext: bytes = field(default=b"")

    def __post_init__(self):
        if not self.short_tags:
            raise ValueError("a hoot carries at least one short tag")
        if len(self.short_tags) != len(self.key_blocks):
            raise ValueError("one key block per short tag")
        for block in self.key_blocks:
            if len(block) != KEY_BLOCK_BYTES:
                raise ValueError(f"key blocks are {KEY_BLOCK_BYTES} bytes")
        if len(self.mac) != MAC_BYTES:
            raise ValueError(f"mac is {MAC_BYTES} bytes")


def _expand_digest(digest: bytes, nbytes: int) -> bytes:
    """Deterministic expansion keyed by the digest, digest-prefixed."""
    out = bytearray(digest)
    counter = 0
    while len(out) < nbytes:
        out += hashlib.sha1(digest + counter.to_bytes(4, "big")).digest()
        counter += 1
    return bytes(out[:nbytes])


def _long_tag_bits(cfg: KdfConfig) -> int:
    return max(160, cfg.output_bits) if cfg.mode is KdfMode.FAST_HASH else cfg.output_bits


def _check_k(long_tag_bits: int, k: int) -> None:
    ShortTag(0, k)  # raises unless MIN_K <= k <= MAX_K
    if long_tag_bits < k + 128:
        raise ValueError(f"long tag has {long_tag_bits} bits; k={k} needs {k + 128}")


def derive_long_tag(plain_tag: PlainTag, cfg: KdfConfig = FAST_KDF) -> LongTag:
    """Stretch a plain tag into its long tag.

    Fast-hash output is bit-identical to the plain SHA-1 digest of the
    tag's UTF-8 bytes (extended deterministically past 160 bits when the
    config asks for more). Memory-hard output comes from scrypt under a
    fixed protocol salt.
    """
    secret = plain_tag.encoded()
    bits = _long_tag_bits(cfg)
    nbytes = (bits + 7) // 8
    if cfg.mode is KdfMode.FAST_HASH:
        data = _expand_digest(hashlib.sha1(secret).digest(), nbytes)
    else:
        n, r, p = cfg.scrypt_params()
        data = hashlib.scrypt(secret, salt=_KDF_SALT, n=n, r=r, p=p, maxmem=256 * r * n * p + (1 << 20), dklen=nbytes)
    pad = len(data) * 8 - bits
    if pad:
        data = data[:-1] + bytes([data[-1] & (0xFF << pad) & 0xFF])
    return LongTag(data, bits)


def split_tag(long_tag: LongTag, k: int) -> TagMaterial:
    """Carve a long tag into its k-bit short tag and 128-bit tag key."""
    _check_k(long_tag.bits, k)
    short = ShortTag(long_tag.bit_slice(0, k), k)
    key = long_tag.bit_slice(k, 128).to_bytes(TAG_KEY_BYTES, "big")
    return TagMaterial(short, key)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def derive_tag_material(plain_tag: PlainTag, cfg: KdfConfig = FAST_KDF, k: int = DEFAULT_K) -> TagMaterial:
    return split_tag(derive_long_tag(plain_tag, cfg), k)


def short_tags(plain_tags: list[bytes], cfg: KdfConfig, k: int) -> list[int]:
    """``derive_tag_material(PlainTag(t), cfg, k).short_tag.value`` for each UTF-8 plain tag t.

    k is checked first. Memory-hard tags bypass the material cache; fast-hash
    tags are hashed with hashlib and read from the joined digests at once.
    """
    _check_k(_long_tag_bits(cfg), k)
    if cfg.mode is KdfMode.MEMORY_HARD:  # scrypt dwarfs the rest of a derivation
        return [split_tag(derive_long_tag(PlainTag(tag.decode("utf-8")), cfg), k).short_tag.value for tag in plain_tags]
    sha1, shift = hashlib.sha1, 64 - k
    digests = b"".join([sha1(tag).digest() for tag in plain_tags])
    return [leading >> shift for (leading,) in _LEADING64.iter_unpack(digests)]


def _ctr_xcrypt(key: bytes, counter_block: bytes, data: bytes) -> bytes:
    enc = Cipher(algorithms.AES(key), modes.CTR(counter_block)).encryptor()
    return enc.update(data) + enc.finalize()


def _random_bytes(rng, n: int) -> bytes:
    if rng is None:
        return secrets.token_bytes(n)
    return rng.randbytes(n)


def seal(
    message: bytes,
    plain_tags,
    cfg: KdfConfig = FAST_KDF,
    *,
    k: int = DEFAULT_K,
    rng=None,
) -> Hoot:
    """Seal a message for one or more groups.

    Fresh session keys are drawn per call (from ``rng`` if given, else
    the OS entropy pool), so sealing the same message twice yields
    unrelated ciphertexts. Multiple plain tags share one ciphertext and
    one MAC; each gets its own short tag and wrapped key block.
    """
    plain_tags = list(plain_tags)
    if not plain_tags:
        raise ValueError("seal needs at least one plain tag")
    keys = _random_bytes(rng, 2 * SESSION_KEY_BYTES)  # k_enc || k_mac
    ciphertext = _ctr_xcrypt(keys[:SESSION_KEY_BYTES], _ZERO_COUNTER, message)
    mac = hmac.digest(keys[SESSION_KEY_BYTES:], ciphertext, "sha1")
    short_tags = []
    key_blocks = []
    for tag in plain_tags:
        material = derive_tag_material(tag, cfg, k)
        nonce = _random_bytes(rng, KEY_BLOCK_NONCE_BYTES)
        short_tags.append(material.short_tag)
        key_blocks.append(nonce + material.wrap(nonce, keys))
    return Hoot(tuple(short_tags), tuple(key_blocks), mac, ciphertext)


def open_with_material(hoot: Hoot, material: TagMaterial) -> bytes | None:
    """Try to open a hoot with already-derived tag material.

    Returns the message bytes on a MAC match, else None. The MAC check
    runs before any message decryption, so rejecting cover traffic from
    colliding groups never touches the message ciphertext.
    """
    for position, short_tag in enumerate(hoot.short_tags):
        if short_tag != material.short_tag:
            continue
        block = hoot.key_blocks[position]
        keys = material.wrap(block[:KEY_BLOCK_NONCE_BYTES], block[KEY_BLOCK_NONCE_BYTES:])
        k_enc, k_mac = keys[:SESSION_KEY_BYTES], keys[SESSION_KEY_BYTES:]
        if hmac.compare_digest(hmac.digest(k_mac, hoot.ciphertext, "sha1"), hoot.mac):
            return _ctr_xcrypt(k_enc, _ZERO_COUNTER, hoot.ciphertext)
    return None


def open_hoot(hoot: Hoot, plain_tag: PlainTag, cfg: KdfConfig = FAST_KDF, *, k: int = DEFAULT_K) -> bytes | None:
    """Open a hoot with a plain tag; None means it is not ours.

    A hoot that shares our short tag but fails the MAC is ordinary
    cover traffic from a colliding group, not an error.
    """
    return open_with_material(hoot, derive_tag_material(plain_tag, cfg, k))
