"""Tag derivation and message sealing for hashtag-keyed groups.

A group's only secret is its plain tag, a short human-shareable hashtag
string. A key derivation function stretches the plain tag into a long
tag; the first k bits become the short tag (the public, searchable group
identifier, deliberately collision-prone) and the next 128 bits become
the tag key. Every long tag has the k + 128 bits the largest k needs,
and a short tag and tag key read only its leading bits. The KDF is
SHA-1 or memory-hard scrypt, whose one setting, ``work``, sets both its
time and its state (``KdfConfig``). A fast-hash short tag is the
leading k bits of SHA-1; ``short_tags`` is the batched form, one
hashlib call per tag and one unpack of the joined digests, and
``short_tag_positions`` finds one short tag in a batch with a byte scan
of the joined digests in place of the unpack. Each sealed message
carries fresh random session keys wrapped under the tag key of every
addressed group, a MAC over the ciphertext, and the ciphertext itself:

    long_tag  = H(plain_tag)                 192 bits, the most significant first
    short_tag = long_tag[0 : k]
    tag_key   = long_tag[k : k+128]
    k_enc, k_mac = fresh random 128-bit keys
    ciphertext   = AES-CTR(k_enc, counter=0, message)
    key_block    = nonce || AES-CTR(tag_key, counter=nonce||0, k_enc||k_mac)
    mac          = HMAC-SHA1(k_mac, ciphertext)
                 = SHA-1((k_mac^opad) || SHA-1((k_mac^ipad) || ciphertext))

Opening a candidate message checks the MAC before touching the message
ciphertext; a MAC mismatch is the normal signal that the message
belongs to a different group colliding on the same short tag. The MAC
is RFC 2104's HMAC, computed as its two ``hashlib`` SHA-1 calls, which
for a 16-byte key and a short ciphertext cost less than OpenSSL's
one-shot HMAC. ``_mac`` takes a key of any length to the int of its
64-byte block, zero-padded (a key over 64 bytes is hashed first), and
``_mac_of_block`` XORs that int with the ipad (0x36) and opad (0x5c)
blocks and hashes. A reject unwraps k_mac alone: it is the second
16-byte block of the wrapped keys, so its keystream is the one AES
block nonce||1. The open path reads k_mac as one int, the key block's
last 16 bytes XOR that keystream block, and enters ``_mac_of_block``
with it; k_enc's block nonce||0 is computed only on a match.

The 64-bit random nonce on each key block keeps the tag key's CTR
keystream from repeating across messages of the same group; it travels
in the clear as the first 8 bytes of the 40-byte key block.

Both keystreams are NIST SP 800-38A's: AES-ECB over the counter blocks
c||0, c||1, ..., with c the nonce or eight zero bytes. Each TagMaterial
builds its AES-ECB context (``_ecb_context``) once, on first use, and
reuses it, under a lock, for every key block it wraps or unwraps.

The module owns one least-recently-used cache of the last 64 tag
materials by (plain tag, KDF config, k), so repeat callers share one
TagMaterial and its AES context; its lock is held for a lookup or an
insert, never while a tag is derived. ``short_tags`` and
``short_tag_positions`` bypass it, so a search evicts no subscriber's
material.

The module owns hoot's use of the cores, which ``_cores()`` counts.
scrypt releases the interpreter lock, so ``derive_tag_materials``
derives a batch's missing memory-hard tags in lanes: one per core, at
most one per tag and at most two, so a batch holds at most two scrypt
buffers. Lanes run ``derive_long_tag`` alone, and the calling thread
caches the results; results and the error raised (the earliest failing
tag's) are the serial loop's. Fast-hash tags (a SHA-1 takes
microseconds) and ``short_tags`` never use lanes. A search fans out over
``_pool()``, a fork process pool of one worker per core that lasts as
long as the process, with a claim counter made before its workers fork.
Fork safety: a lock another thread holds at a fork stays held in the
child. So no lane outlives a call (the caller is the first lane and
joins the rest), and a pool worker takes only the counter's lock, which
the parent never holds at a fork, and looks up no material.
Six modules load on first use, not with hoot, so that importing hoot
stays cheap: multiprocessing and concurrent.futures with the pool,
cryptography with the first AES context (never in a lane or a pool
worker), numpy at a search's first step, logging where a memory-hard
search warns, and statistics in ``analysis.powerlaw_slope``.

The protocol's values are frozen slotted dataclasses: PlainTag,
ShortTag, LongTag and Hoot here, analysis.TagBucket, and feed.FeedPost
and feed.PostOutcome. A slotted instance holds no ``__dict__``, so a
report's buckets and their short tags take about a quarter of the
memory they took with one. TagMaterial keeps its ``__dict__``:
``functools.cached_property`` stores its AES context there, and
``__getstate__`` leaves that context out of a pickle or copy.
"""

from __future__ import annotations

import atexit
import collections
import enum
import functools
import hashlib
import hmac
import os
import struct
import threading
from dataclasses import dataclass, field, fields

from .errors import ConfigError, PlainTagError

MAX_PLAIN_TAG_BYTES = 256
MIN_K = 1
MAX_K = 64
DEFAULT_K = 24
LONG_TAG_BYTES = (MAX_K + 128) // 8  # the widest short tag and its tag key

TAG_KEY_BYTES = 16
SESSION_KEY_BYTES = 16
MAC_BYTES = 20
KEY_BLOCK_NONCE_BYTES = 8
KEY_BLOCK_BYTES = KEY_BLOCK_NONCE_BYTES + 2 * SESSION_KEY_BYTES
_WRAPPED_MAC_KEY = KEY_BLOCK_NONCE_BYTES + SESSION_KEY_BYTES  # where a key block's wrapped k_mac starts

_aes_ecb = None  # cryptography's Cipher, AES and one ECB mode, imported when the first AES context is built
_CACHE_SIZE = 64  # entries in the tag-material cache, the one cache of derived tags
_MAX_LANES = 2  # memory-hard lanes per batch, each holding one scrypt buffer
_workers = None  # the fork pool, started on first use and kept for the life of the process
_claims = None  # the pool's claim counter, a shared array with its own lock: a fan-out's next step and matches found
_workers_lock = threading.Lock()
_LEADING64 = struct.Struct(">Q12x")  # a 20-byte long-tag head's leading 64 bits; iter_unpack walks joined heads
_SHA1_BLOCK = 64  # bytes; HMAC pads its key to one block
# RFC 2104's ipad and opad bytes over a whole block, as ints to XOR with a padded key's int
_IPAD = int.from_bytes(b"\x36" * _SHA1_BLOCK, "big")
_OPAD = int.from_bytes(b"\x5c" * _SHA1_BLOCK, "big")
_MAC_KEY_PAD_BITS = 8 * (_SHA1_BLOCK - SESSION_KEY_BYTES)  # the zero bytes that pad k_mac to a block
_WRAPPED_MAC_KEY_MASK = (1 << 8 * SESSION_KEY_BYTES) - 1  # a key block's last 16 bytes, its wrapped k_mac
_MAC_KEY_COUNTER = (1).to_bytes(8, "big")  # k_mac's keystream block is nonce||1

# Fixed derivation salt: every subscriber must reach the same long tag
# from the plain tag alone, so the salt is a protocol constant and the
# plain tag itself carries all the entropy.
_KDF_SALT = b"hoot.tag.v1"


class KdfMode(enum.Enum):
    FAST_HASH = "fast-hash"
    MEMORY_HARD = "memory-hard"


@dataclass(frozen=True)
class KdfConfig:
    """How plain tags are stretched into long tags; the one place a KDF's setting is filled in and checked.

    Fast-hash mode is a SHA-1 digest, extended past its 160 bits by the
    first 32 bits of SHA-1(digest || four zero bytes). Memory-hard mode
    is scrypt with ``work`` as its cost n, r = max(1, 8192 // n) and
    p = 1. Its state, 128*r*n bytes, is the larger of 128*n and 1 MiB,
    and its time grows with r*n, so ``work`` sets both. ``work`` left
    None is not given. The fast hash takes none, and refuses one that is
    not None with ConfigError. A memory-hard config fills None with
    2**15, then checks that work is a power of two from 2 to 2**22, the
    largest whose scrypt hashlib can run (``maxmem`` stays under 2**31).
    """

    mode: KdfMode = KdfMode.FAST_HASH
    work: int | None = None

    def __post_init__(self):
        if self.mode is not KdfMode.MEMORY_HARD:  # a setting the fast hash would ignore is refused
            if self.work is not None:
                raise ConfigError("work is a memory-hard KDF setting; the fast-hash KDF takes none")
            return
        if self.work is None:
            object.__setattr__(self, "work", 2**15)  # frozen, so set as dataclass's own __init__ does
        if not 2 <= self.work <= 2**22 or self.work & (self.work - 1):
            raise ConfigError("memory-hard work factor must be a power of two from 2 to 2^22")


FAST_KDF = KdfConfig()
MEMORY_HARD_KDF = KdfConfig(mode=KdfMode.MEMORY_HARD)


@dataclass(frozen=True, slots=True)
class PlainTag:
    """The secret hashtag that doubles as the group's password."""

    text: str

    def __post_init__(self):
        if not self.text:
            raise PlainTagError("plain tag must be non-empty", text=self.text)
        if self.text.split() != [self.text]:
            raise PlainTagError("plain tag must not contain whitespace", text=self.text)
        if self.text.startswith("#"):
            raise PlainTagError("plain tag is written without the leading '#'", text=self.text)
        try:
            size = len(self.text.encode("utf-8"))
        except UnicodeEncodeError:  # a lone surrogate
            raise PlainTagError("plain tag is not valid UTF-8", text=self.text) from None
        if size > MAX_PLAIN_TAG_BYTES:
            raise PlainTagError(f"plain tag exceeds {MAX_PLAIN_TAG_BYTES} UTF-8 bytes", text=self.text)

    def encoded(self) -> bytes:
        return self.text.encode("utf-8")


def encode_plain_tags(texts: list[str]) -> list[bytes]:
    """``PlainTag(t).encoded()`` for each text t, checked by C-level calls over the whole list.

    The texts pass PlainTag's rules when joining them with spaces and
    splitting on whitespace gives them back (so none is empty or holds
    whitespace), none leads with '#', and each has a UTF-8 encoding of at
    most 256 bytes.
    Otherwise each goes through PlainTag in turn, and the first refused
    raises PlainTag's own error.
    """
    joined = " ".join(texts)
    # after the split check, a space only separates two texts
    if joined.split() == texts and not joined.startswith("#") and " #" not in joined:
        try:
            encoded = list(map(str.encode, texts))
        except UnicodeEncodeError:  # a lone surrogate, which PlainTag refuses
            pass
        else:
            if max(map(len, encoded), default=0) <= MAX_PLAIN_TAG_BYTES:
                return encoded
    return [PlainTag(text).encoded() for text in texts]


@dataclass(frozen=True, slots=True)
class LongTag:
    """The 192 bits a KDF stretches a plain tag into: the widest short tag and its tag key."""

    data: bytes

    def __post_init__(self):
        if len(self.data) != LONG_TAG_BYTES:
            raise ValueError(f"a long tag is {LONG_TAG_BYTES} bytes, not {len(self.data)}")


def check_k_range(k: int, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` unless k is a supported short-tag width."""
    if not MIN_K <= k <= MAX_K:
        raise error(f"k={k} outside supported range {MIN_K}..{MAX_K}")


@dataclass(frozen=True, slots=True)
class ShortTag:
    """The first k bits of a long tag; the public group identifier."""

    value: int
    k: int

    def __post_init__(self):
        check_k_range(self.k)
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
        return _ecb_context(self.tag_key), threading.Lock()

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
            return _keystream(ecb, nonce, data)


@dataclass(frozen=True, slots=True)
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


def _builder(cls):
    """A function that builds a ``cls`` instance from its fields, given in order, without ``__post_init__``'s checks.

    ``cls`` is a slotted dataclass. Its builder is generated once, as
    ``dataclasses`` generates ``__init__``: one straight-line call per
    field of that slot descriptor's ``__set__``. A loop over the fields,
    or ``object.__setattr__`` per field, takes 1.5 to 1.8 times as long.
    Only for a caller that has itself established every check:
    ``wire.parse`` for its Hoot, and ``analysis.anonymity_report`` for
    its buckets.
    """
    names = [slot.name for slot in fields(cls)]
    namespace = {"_new": object.__new__, "_cls": cls} | {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    sets = "".join(f"    _set_{name}(instance, {name})\n" for name in names)
    exec(f"def build({', '.join(names)}):\n    instance = _new(_cls)\n{sets}    return instance\n", namespace)
    return namespace["build"]


_build_short_tag = _builder(ShortTag)
_build_hoot = _builder(Hoot)


def derive_long_tag(plain_tag: PlainTag, cfg: KdfConfig = FAST_KDF) -> LongTag:
    """Stretch a plain tag into its 192-bit long tag.

    Fast-hash output is the plain SHA-1 digest of the tag's UTF-8 bytes
    followed by the first 4 bytes of SHA-1(digest || four zero bytes).
    Memory-hard output comes from scrypt under a fixed protocol salt.
    Either way a longer output would only append bits, so the material
    a k <= 64 reads is the leading bits of any wider derivation.
    """
    secret = plain_tag.encoded()
    if cfg.mode is KdfMode.FAST_HASH:
        digest = hashlib.sha1(secret).digest()
        data = digest + hashlib.sha1(digest + bytes(4)).digest()[:4]
    else:
        n, r = cfg.work, max(1, 8192 // cfg.work)  # 128*r*n bytes of state, at least 1 MiB
        data = hashlib.scrypt(secret, salt=_KDF_SALT, n=n, r=r, p=1, maxmem=256 * r * n + (1 << 20), dklen=LONG_TAG_BYTES)
    return LongTag(data)


def split_tag(long_tag: LongTag, k: int) -> TagMaterial:
    """Carve a long tag into its leading k bits, the short tag, and the 128 bits after them, the tag key."""
    check_k_range(k)
    leading = int.from_bytes(long_tag.data, "big") >> (MAX_K - k)  # the short tag's k bits, then the key's 128
    return TagMaterial(ShortTag(leading >> 128, k), (leading & ((1 << 128) - 1)).to_bytes(TAG_KEY_BYTES, "big"))


def _cores() -> int:
    """The cores this process may run on: its affinity mask's size where the platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):  # Linux; macOS, for one, has no affinity mask
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_lanes(derive, items: list) -> list:
    """``[derive(item) for item in items]`` for distinct items, in lanes as the module docstring says.

    A lane stops at its first failure, and the failure of the earliest
    item is raised, as the serial loop would raise it.
    """
    done, failed = [None] * len(items), {}  # by position, so that a lane only sets entries
    lanes = max(1, min(len(items), _cores(), _MAX_LANES))

    def lane(first):
        for i in range(first, len(items), lanes):
            try:
                done[i] = derive(items[i])
            except Exception as exc:  # re-raised in the calling thread below
                failed[i] = exc
                return

    others = [threading.Thread(target=lane, args=(i,), name=f"hoot-lane-{i}") for i in range(1, lanes)]
    for thread in others:
        thread.start()
    try:
        lane(0)
    finally:
        for thread in others:
            thread.join()
    if failed:
        raise failed[min(failed)]
    return done


def _pool():
    """The lasting fork process pool, one worker per core, and its claim counter, made on the first call."""
    global _workers, _claims
    with _workers_lock:  # two threads asking at once start one pool between them
        if _workers is None:
            import multiprocessing  # on first use, so that importing hoot stays cheap
            from concurrent.futures import ProcessPoolExecutor

            context = multiprocessing.get_context("fork")
            _claims = context.Array("q", 2)  # made before the workers fork, so that each inherits it
            _workers = ProcessPoolExecutor(_cores(), mp_context=context)
            atexit.register(_workers.shutdown)  # so that interpreter teardown never collects a live pool
        return _workers, _claims


def _drop_pool(pool) -> None:
    global _workers
    with _workers_lock:
        if _workers is pool:
            _workers = None


_materials = collections.OrderedDict()  # (plain tag text, config, k) -> TagMaterial, least recently used first
_materials_lock = threading.Lock()
_lookups = [0, 0]  # hits and misses, as functools.lru_cache counts them


def _lookup(key) -> TagMaterial | None:
    with _materials_lock:
        material = _materials.get(key)
        _lookups[material is None] += 1
        if material is not None:
            _materials.move_to_end(key)
    return material


def _insert(key, material: TagMaterial) -> TagMaterial:
    with _materials_lock:
        material = _materials.setdefault(key, material)  # one another thread cached first stays, and is returned
        if len(_materials) > _CACHE_SIZE:
            _materials.popitem(last=False)
    return material


def _cache_clear() -> None:
    with _materials_lock:
        _materials.clear()
        _lookups[:] = 0, 0


def derive_tag_material(plain_tag: PlainTag, cfg: KdfConfig = FAST_KDF, k: int = DEFAULT_K) -> TagMaterial:
    return _lookup(key := (plain_tag.text, cfg, k)) or _insert(key, split_tag(derive_long_tag(plain_tag, cfg), k))


derive_tag_material.cache_info = lambda: functools._CacheInfo(*_lookups, _CACHE_SIZE, len(_materials))
derive_tag_material.cache_clear = _cache_clear


def derive_tag_materials(plain_tags: list[PlainTag], cfg: KdfConfig, k: int) -> list[TagMaterial]:
    """``derive_tag_material(t, cfg, k)`` for each plain tag t, memory-hard tags in lanes.

    Each distinct tag is looked up once; this thread splits and caches the missing ones' long tags in order.
    """
    found = {tag: _lookup((tag.text, cfg, k)) for tag in dict.fromkeys(plain_tags)}
    missing = [tag for tag, material in found.items() if material is None]
    if missing:  # an all-cached batch starts no lane
        run = _in_lanes if cfg.mode is KdfMode.MEMORY_HARD else map
        for tag, long_tag in zip(missing, run(functools.partial(derive_long_tag, cfg=cfg), missing)):
            found[tag] = _insert((tag.text, cfg, k), split_tag(long_tag, k))
    return [found[tag] for tag in plain_tags]


def _long_tag_heads(plain_tags: list[bytes], cfg: KdfConfig) -> bytes:
    """The first 20 long-tag bytes of each UTF-8 plain tag, joined; memory-hard tags are derived serially, uncached."""
    if cfg.mode is KdfMode.MEMORY_HARD:  # scrypt dwarfs the rest of a derivation
        return b"".join([derive_long_tag(PlainTag(tag.decode("utf-8")), cfg).data[:20] for tag in plain_tags])
    sha1 = hashlib.sha1  # a fast-hash long tag starts with the SHA-1 digest
    return b"".join([sha1(tag).digest() for tag in plain_tags])


def short_tags(plain_tags: list[bytes], cfg: KdfConfig, k: int) -> list[int]:
    """``derive_tag_material(PlainTag(t), cfg, k).short_tag.value`` for each UTF-8 plain tag t.

    k is checked first; the values are read from the joined long-tag heads at once.
    """
    check_k_range(k)
    shift = 64 - k
    return [leading >> shift for (leading,) in _LEADING64.iter_unpack(_long_tag_heads(plain_tags, cfg))]


def short_tag_positions(plain_tags: list[bytes], cfg: KdfConfig, k: int, value: int) -> list[int]:
    """The positions i, in order, of the UTF-8 plain tags whose k-bit short tag is ``value``.

    Equal to ``[i for i, v in enumerate(short_tags(plain_tags, cfg, k)) if v == value]``,
    and k is checked first. The batch's long-tag heads are scanned in C:
    one ``translate`` marks each head whose first byte agrees with the
    value's leading min(k, 8) bits, and only the marked heads are read
    further.
    """
    check_k_range(k)
    heads, shift = _long_tag_heads(plain_tags, cfg), 64 - k
    spread = 1 << (8 - min(k, 8))  # first bytes that share the value's leading bits run from low to low + spread
    low = (value << shift >> 56) & 0xFF  # a value outside k bits marks bytes no confirmation passes
    marks = heads[::20].translate(bytes(low) + b"\x01" * spread + bytes(256 - low - spread))
    positions, at = [], marks.find(1)
    while at >= 0:
        if _LEADING64.unpack_from(heads, 20 * at)[0] >> shift == value:
            positions.append(at)
        at = marks.find(1, at + 1)
    return positions


@functools.lru_cache(maxsize=8)  # holds every counter range of a wire line's body and of a key block
def _counter_suffixes(blocks: int) -> tuple[bytes, ...]:
    return (b"", *(i.to_bytes(8, "big") for i in range(blocks)))


def _ecb_context(key: bytes):
    """A new AES-ECB encryptor under ``key``; the first call imports cryptography (see the module docstring)."""
    global _aes_ecb
    if _aes_ecb is None:  # two threads may both import; each stores the same classes
        from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
        _aes_ecb = Cipher, algorithms.AES, modes.ECB()
    cipher, aes, ecb = _aes_ecb
    return cipher(aes(key), ecb).encryptor()


def _keystream(ecb, prefix: bytes, data: bytes) -> bytes:
    """``data`` XOR the AES-CTR keystream: AES-ECB ``ecb`` over the 16-byte blocks prefix||0, prefix||1..."""
    n = len(data)
    stream = ecb.update(prefix.join(_counter_suffixes((n + 15) // 16)))
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream[:n], "big")).to_bytes(n, "big")


def _mac(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA1(key, data) per RFC 2104, as two SHA-1 calls."""
    if len(key) > _SHA1_BLOCK:
        key = hashlib.sha1(key).digest()
    return _mac_of_block(int.from_bytes(key, "big") << 8 * (_SHA1_BLOCK - len(key)), data)


def _mac_of_block(block: int, data: bytes) -> bytes:
    """HMAC-SHA1's two hashes, for a key given as the int of its zero-padded 64-byte block."""
    inner = hashlib.sha1((block ^ _IPAD).to_bytes(_SHA1_BLOCK) + data).digest()  # big-endian, the default
    return hashlib.sha1((block ^ _OPAD).to_bytes(_SHA1_BLOCK) + inner).digest()


def _random_bytes(rng, n: int) -> bytes:
    return os.urandom(n) if rng is None else rng.randbytes(n)


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
    one MAC; each gets its own short tag and wrapped key block. The
    tags' materials come from one ``derive_tag_materials`` batch, so
    new memory-hard tags are derived in lanes.
    """
    plain_tags = list(plain_tags)
    if not plain_tags:
        raise ValueError("seal needs at least one plain tag")
    materials = derive_tag_materials(plain_tags, cfg, k)
    keys = _random_bytes(rng, 2 * SESSION_KEY_BYTES)  # k_enc || k_mac
    ciphertext = _keystream(_ecb_context(keys[:SESSION_KEY_BYTES]), bytes(8), message)
    mac = _mac(keys[SESSION_KEY_BYTES:], ciphertext)
    short_tags = []
    key_blocks = []
    for material in materials:
        nonce = _random_bytes(rng, KEY_BLOCK_NONCE_BYTES)
        short_tags.append(material.short_tag)
        key_blocks.append(nonce + material.wrap(nonce, keys))
    return Hoot(tuple(short_tags), tuple(key_blocks), mac, ciphertext)


def open_with_material(hoot: Hoot, material: TagMaterial) -> bytes | None:
    """Try to open a hoot with already-derived tag material.

    Returns the message bytes on a MAC match, else None. The MAC check
    runs before any message decryption, so rejecting cover traffic from
    colliding groups never touches the message ciphertext, and unwraps
    only k_mac: k_enc is unwrapped on a match.
    """
    ours = material.short_tag
    for short_tag, block in zip(hoot.short_tags, hoot.key_blocks):
        if short_tag.value != ours.value or short_tag.k != ours.k:  # two field reads, not the dataclass __eq__ call
            continue
        # wrap's length checks hold in every Hoot: nonce || wrapped k_enc || wrapped k_mac, 40 bytes
        nonce = block[:KEY_BLOCK_NONCE_BYTES]
        ecb, lock = material._ecb
        lock.acquire()  # with its try, cheaper than a with statement
        try:
            stream = ecb.update(nonce + _MAC_KEY_COUNTER)
        finally:
            lock.release()
        # int.from_bytes reads big-endian by default; the block's last 16 bytes are the wrapped k_mac
        k_mac = int.from_bytes(block) & _WRAPPED_MAC_KEY_MASK ^ int.from_bytes(stream)
        if hmac.compare_digest(_mac_of_block(k_mac << _MAC_KEY_PAD_BITS, hoot.ciphertext), hoot.mac):
            with lock:
                k_enc = _keystream(ecb, nonce, block[KEY_BLOCK_NONCE_BYTES:_WRAPPED_MAC_KEY])
            return _keystream(_ecb_context(k_enc), bytes(8), hoot.ciphertext)
    return None


def open_hoot(hoot: Hoot, plain_tag: PlainTag, cfg: KdfConfig = FAST_KDF, *, k: int = DEFAULT_K) -> bytes | None:
    """Open a hoot with a plain tag; None means it is not ours.

    A hoot that shares our short tag but fails the MAC is ordinary
    cover traffic from a colliding group, not an error.
    """
    return open_with_material(hoot, derive_tag_material(plain_tag, cfg, k))
