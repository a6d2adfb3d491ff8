"""Tag derivation, splitting, and seal/open behavior."""

import copy
import hashlib
import os
import pickle
import random
import re
import subprocess
import sys
import threading
from dataclasses import replace

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.kdf.scrypt import Scrypt
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoot import tagcrypt
from hoot.collider import SearchSpec, find_tag, find_tag_sharded
from hoot.errors import ConfigError
from hoot.tagcrypt import (
    FAST_KDF,
    MEMORY_HARD_KDF,
    Hoot,
    KdfConfig,
    KdfMode,
    LongTag,
    PlainTag,
    ShortTag,
    TagMaterial,
    derive_long_tag,
    derive_tag_material,
    open_hoot,
    open_with_material,
    seal,
    short_tags,
    split_tag,
)

# Published SHA-1 test vectors.
SHA1_VECTORS = {
    "abc": "a9993e364706816aba3e25717850c26c9cd0d89d",
    "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq": "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
    "a": "86f7e437faa5a7fce15d1ddcb9eaeaea377667b8",
}


@pytest.mark.parametrize("text,digest", sorted(SHA1_VECTORS.items()))
def test_fast_hash_matches_sha1_vectors(text, digest):
    long_tag = derive_long_tag(PlainTag(text), FAST_KDF)
    assert long_tag.bits == 160
    assert long_tag.data.hex() == digest


def test_derivation_is_deterministic():
    cfg = FAST_KDF
    a = derive_long_tag(PlainTag("free-egypt-9rqt"), cfg)
    b = derive_long_tag(PlainTag("free-egypt-9rqt"), cfg)
    assert a == b


def test_memory_hard_deterministic_and_distinct_from_fast():
    cfg = KdfConfig(mode=KdfMode.MEMORY_HARD, work=2**14)
    a = derive_long_tag(PlainTag("abc"), cfg)
    b = derive_long_tag(PlainTag("abc"), cfg)
    assert a == b
    assert a.bits == 160
    assert a.data != derive_long_tag(PlainTag("abc"), FAST_KDF).data


def test_memory_hard_agrees_with_independent_scrypt():
    # Cross-check the scrypt invocation (parameter mapping, fixed salt,
    # output length) against a second library's implementation.
    cfg = KdfConfig(mode=KdfMode.MEMORY_HARD, work=2**14, memory=2**21, parallelism=1)
    n, r, p = cfg.scrypt_params()
    expected = Scrypt(salt=b"hoot.tag.v1", length=20, n=n, r=r, p=p).derive(b"abc")
    assert derive_long_tag(PlainTag("abc"), cfg).data == expected


def test_scrypt_parameter_mapping():
    cfg = KdfConfig(mode=KdfMode.MEMORY_HARD, work=2**10, memory=2**20, parallelism=2)
    assert cfg.scrypt_params() == (2**10, 8, 2)
    # memory below one block floors r at 1
    small = KdfConfig(mode=KdfMode.MEMORY_HARD, work=2**15, memory=2**20)
    assert small.scrypt_params() == (2**15, 1, 1)


def test_fast_hash_expansion_keeps_digest_prefix():
    wide = derive_long_tag(PlainTag("abc"), KdfConfig(output_bits=192))
    narrow = derive_long_tag(PlainTag("abc"), FAST_KDF)
    assert wide.bits == 192
    assert wide.data[:20] == narrow.data
    again = derive_long_tag(PlainTag("abc"), KdfConfig(output_bits=256))
    assert again.data[:24] == wide.data


def test_kdf_config_validation():
    with pytest.raises(ConfigError):
        KdfConfig(output_bits=100)
    with pytest.raises(ConfigError):
        KdfConfig(mode=KdfMode.MEMORY_HARD, work=1000)  # not a power of two
    with pytest.raises(ConfigError):
        KdfConfig(mode=KdfMode.MEMORY_HARD, parallelism=0)


def test_split_k32_consumes_whole_digest():
    long_tag = derive_long_tag(PlainTag("abc"))
    material = split_tag(long_tag, 32)
    assert material.short_tag == ShortTag(int.from_bytes(long_tag.data[:4], "big"), 32)
    assert material.tag_key == long_tag.data[4:20]


def test_split_k24_definitional_slice():
    long_tag = LongTag(bytes(range(20)), 160)
    material = split_tag(long_tag, 24)
    assert material.short_tag.value == int.from_bytes(bytes(range(3)), "big")
    # tag key is bits 24..151: bytes 3..18 inclusive
    assert material.tag_key == bytes(range(3, 19))


def test_split_insufficient_bits():
    with pytest.raises(ValueError):
        split_tag(LongTag(bytes(15), 120), 24)


def test_split_bit_disjointness():
    base = derive_long_tag(PlainTag("abc"))
    k = 24
    reference = split_tag(base, k)
    for bit in range(0, k + 128, 7):
        flipped = bytearray(base.data)
        flipped[bit // 8] ^= 0x80 >> (bit % 8)
        material = split_tag(LongTag(bytes(flipped), 160), k)
        if bit < k:
            assert material.short_tag != reference.short_tag
            assert material.tag_key == reference.tag_key
        else:
            assert material.short_tag == reference.short_tag
            assert material.tag_key != reference.tag_key


@pytest.mark.parametrize("k", [12, 18, 24, 32])
def test_seal_open_round_trip(k):
    rng = random.Random(k)
    tag = PlainTag(f"round-trip-{k}")
    for size in (0, 1, 16, 39):
        message = rng.randbytes(size)
        hoot = seal(message, [tag], k=k, rng=rng)
        assert open_hoot(hoot, tag, k=k) == message


def test_open_wrong_tag_is_no_match():
    hoot = seal(b"secret", [PlainTag("ours")], rng=random.Random(1))
    assert open_hoot(hoot, PlainTag("theirs")) is None


def test_open_with_wrong_k_is_no_match():
    tag = PlainTag("ours")
    hoot = seal(b"secret", [tag], k=24, rng=random.Random(1))
    assert open_hoot(hoot, tag, k=18) is None


def test_bit_flips_are_rejected():
    tag = PlainTag("ours")
    rng = random.Random(2)
    hoot = seal(b"attack at noon", [tag], rng=rng)
    for index in range(len(hoot.ciphertext)):
        damaged = bytearray(hoot.ciphertext)
        damaged[index] ^= 1
        assert open_hoot(Hoot(hoot.short_tags, hoot.key_blocks, hoot.mac, bytes(damaged)), tag) is None
    broken_mac = bytearray(hoot.mac)
    broken_mac[0] ^= 1
    assert open_hoot(Hoot(hoot.short_tags, hoot.key_blocks, bytes(broken_mac), hoot.ciphertext), tag) is None
    broken_block = bytearray(hoot.key_blocks[0])
    broken_block[-1] ^= 1
    assert open_hoot(Hoot(hoot.short_tags, (bytes(broken_block),), hoot.mac, hoot.ciphertext), tag) is None


def test_multi_tag_shares_one_ciphertext():
    tags = [PlainTag("group-one"), PlainTag("group-two")]
    hoot = seal(b"joint statement", tags, rng=random.Random(3))
    assert len(hoot.short_tags) == 2
    assert len(hoot.key_blocks) == 2
    assert open_hoot(hoot, tags[0]) == b"joint statement"
    assert open_hoot(hoot, tags[1]) == b"joint statement"


def test_sealing_is_nondeterministic():
    tag = PlainTag("repeat-group")
    seen_ct, seen_blocks, seen_macs = set(), set(), set()
    for _ in range(10_000):
        hoot = seal(b"same message", [tag])
        seen_ct.add(hoot.ciphertext)
        seen_blocks.add(hoot.key_blocks[0])
        seen_macs.add(hoot.mac)
    assert len(seen_ct) == 10_000
    assert len(seen_blocks) == 10_000
    assert len(seen_macs) == 10_000


def test_seeded_rng_reproduces_seals():
    tag = PlainTag("seeded")
    a = seal(b"m", [tag], rng=random.Random(9))
    b = seal(b"m", [tag], rng=random.Random(9))
    assert a == b


def test_seal_requires_tags():
    with pytest.raises(ValueError):
        seal(b"m", [])


def test_plain_tag_validation():
    for bad in ("", "has space", "tab\there", "#leading", "x" * 300):
        with pytest.raises(ValueError):
            PlainTag(bad)
    assert PlainTag("ok-tag_123").encoded() == b"ok-tag_123"


# ASCII, Unicode spaces and separators, and U+180E and U+200B, which str.isspace does not count
_WHITESPACE_TRAPS = "".join(map(chr, range(128))) + "\x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B)))
_WHITESPACE_TRAPS += "\u2028\u3000\u180e\u200b"


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from(_WHITESPACE_TRAPS), max_size=12))
@example("a\x1fb")
@example("\u180e\u200b")
@example("#\u3000")
def test_plain_tag_refuses_exactly_the_text_holding_whitespace(text):
    try:
        PlainTag(text)
    except ValueError as refusal:
        refused = str(refusal) == "plain tag must not contain whitespace"
    else:
        refused = False
    assert refused == any(c.isspace() for c in text)


def test_session_keys_and_hoot_validation():
    good = seal(b"m", [PlainTag("t")], rng=random.Random(0))
    with pytest.raises(ValueError):
        Hoot((), (), good.mac, b"")
    with pytest.raises(ValueError):
        Hoot(good.short_tags, (b"tiny",), good.mac, b"")
    with pytest.raises(ValueError):
        Hoot(good.short_tags, good.key_blocks, b"tiny", b"")


def test_derive_tag_material_convenience():
    material = derive_tag_material(PlainTag("abc"), FAST_KDF, 12)
    digest = hashlib.sha1(b"abc").digest()
    assert material.short_tag.value == int.from_bytes(digest[:2], "big") >> 4


# valid plain tags of mixed length, multi-byte text included, at most 256 UTF-8 bytes
_plain_texts = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=256).map(
    lambda text: "".join(c for c in text if not c.isspace()).lstrip("#").encode()[:256].decode("utf-8", "ignore") or "x"
)
_TINY_SCRYPT = KdfConfig(mode=KdfMode.MEMORY_HARD, work=2, memory=256)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_plain_texts, min_size=1, max_size=12),
    st.integers(1, 64),
    st.sampled_from([KdfConfig(output_bits=160), KdfConfig(output_bits=256)]),
)
@example(["a", "ä€𝄞", "é" * 128, "x" * 256], 64, KdfConfig(output_bits=256))
@example(["grp", "ä€𝄞"], 24, _TINY_SCRYPT)
@example(["grp", "z" * 200], 33, KdfConfig(mode=KdfMode.MEMORY_HARD, work=4, memory=512, output_bits=170))
def test_short_tags_equal_per_tag_derivation(texts, k, cfg):
    tags = [text.encode("utf-8") for text in texts]
    try:
        expected = [derive_tag_material(PlainTag(text), cfg, k).short_tag.value for text in texts]
    except ValueError as refusal:
        with pytest.raises(ValueError, match=re.escape(str(refusal))):
            short_tags(tags, cfg, k)
        return
    assert short_tags(tags, cfg, k) == expected


def test_short_tags_check_k_before_hashing():
    for cfg, k, message in [
        (KdfConfig(output_bits=160), 64, "long tag has 160 bits; k=64 needs 192"),
        (_TINY_SCRYPT, 33, "long tag has 160 bits; k=33 needs 161"),
        (FAST_KDF, 0, "k=0 outside supported range 1..64"),
        (KdfConfig(output_bits=256), 65, "k=65 outside supported range 1..64"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            short_tags([], cfg, k)
        with pytest.raises(ValueError, match=re.escape(message)):
            split_tag(derive_long_tag(PlainTag("t"), cfg), k)


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports hoot from this tree."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tagcrypt.__file__)))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout


def numpy_loaded_after(code: str) -> bool:
    out = run_fresh(code + "\nimport sys; print('numpy' in sys.modules)")
    return {"True": True, "False": False}[out.strip()]


def test_importing_hoot_leaves_numpy_unloaded():
    # numpy is imported when a first-n search starts, so that importing hoot stays cheap
    assert not numpy_loaded_after("import hoot, hoot.collider, hoot.tagcrypt")


def test_exhaustive_search_leaves_numpy_unloaded():
    # 4**7 = 16,384 candidates: many fast-hash steps, all hashed with hashlib
    assert not numpy_loaded_after(
        "from hoot import PlainTag\n"
        "from hoot.collider import SearchSpec, find_tag\n"
        "result = find_tag(SearchSpec(prefix='p-', target=PlainTag('t'), suffix_length=7, alphabet='abcd', k=8))\n"
        "assert result.candidates_tried == 16384"
    )


def test_setting_up_a_first_n_search_leaves_numpy_unloaded():
    # numpy is imported on the first first-n step, not when a search is built and its target resolved
    assert not numpy_loaded_after(
        "from hoot import PlainTag\n"
        "from hoot.collider import SearchMode, SearchSpec, resolve_target\n"
        "resolve_target(SearchSpec(prefix='p-', target=PlainTag('t'), suffix_length=3, mode=SearchMode.FIRST_N, k=16))"
    )


def test_a_search_below_the_fan_out_size_leaves_the_process_pool_unloaded():
    # 4^6 = 4,096 candidates make shards of 2,048, too few to fan out; the pool's imports wait until one does
    out = run_fresh(
        "import sys\n"
        "import hoot\n"
        "from hoot.collider import SearchSpec, find_tag_sharded\n"
        "find_tag_sharded(SearchSpec(prefix='p-', target=hoot.PlainTag('t'), suffix_length=6, alphabet='abcd', k=8), 2)\n"
        "print('multiprocessing' in sys.modules, 'concurrent.futures.process' in sys.modules)"
    )
    assert out.split() == ["False", "False"]


@pytest.mark.parametrize("search", ["find_tag(spec)", "find_tag_sharded(spec, 2)"])
def test_first_n_search_loads_numpy_before_its_clock_starts(search):
    # so that elapsed, and the rate hoot collide logs from it, time the search and not numpy's first import
    out = run_fresh(
        "import sys, time\n"
        "from hoot import PlainTag\n"
        "from hoot.collider import SearchMode, SearchSpec, find_tag, find_tag_sharded\n"
        "spec = SearchSpec(prefix='p-', target=PlainTag('t'), suffix_length=2, mode=SearchMode.FIRST_N, k=4)\n"
        "clock = time.perf_counter\n"
        "time.perf_counter = lambda: print('numpy' in sys.modules) or clock()\n"
        f"{search}\n"
    )
    assert out.splitlines()[0] == "True"


@pytest.fixture
def scrypt_calls(monkeypatch):
    """Count hashlib.scrypt calls, starting and ending with an empty tag-material cache."""
    calls = []
    real = hashlib.scrypt

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(hashlib, "scrypt", counting)
    derive_tag_material.cache_clear()
    yield calls
    derive_tag_material.cache_clear()


def test_memory_hard_derivation_is_cached(scrypt_calls):
    cfg = KdfConfig(mode=KdfMode.MEMORY_HARD, work=2**4)
    first = derive_tag_material(PlainTag("cached-tag"), cfg)
    assert derive_tag_material(PlainTag("cached-tag"), cfg) == first
    assert len(scrypt_calls) == 1
    derive_tag_material(PlainTag("cached-tag"), MEMORY_HARD_KDF)
    derive_tag_material(PlainTag("cached-tag"), MEMORY_HARD_KDF)
    assert len(scrypt_calls) == 2


def test_memory_hard_cache_misses_on_any_input_change(scrypt_calls):
    cfg = KdfConfig(mode=KdfMode.MEMORY_HARD, work=2**4)
    derive_tag_material(PlainTag("cached-tag"), cfg)
    derive_tag_material(PlainTag("other-tag"), cfg)
    derive_tag_material(PlainTag("cached-tag"), KdfConfig(mode=KdfMode.MEMORY_HARD, work=2**5))
    # k=64 needs a 192-bit long tag, so this derivation cannot come from the 160-bit ones
    derive_tag_material(PlainTag("cached-tag"), KdfConfig(mode=KdfMode.MEMORY_HARD, work=2**4, output_bits=192), 64)
    derive_tag_material(PlainTag("cached-tag"), cfg, 12)
    assert len(scrypt_calls) == 5


def test_memory_hard_cache_is_bounded(scrypt_calls):
    cfg = KdfConfig(mode=KdfMode.MEMORY_HARD, work=2**4)
    for i in range(65):
        derive_tag_material(PlainTag(f"tag-{i}"), cfg)
    assert len(scrypt_calls) == 65
    derive_tag_material(PlainTag("tag-0"), cfg)
    assert len(scrypt_calls) == 66


def test_sharded_memory_hard_search_resolves_its_target_from_the_cache(scrypt_calls):
    cfg = KdfConfig(mode=KdfMode.MEMORY_HARD, work=2**4)
    spec = SearchSpec(prefix="mh-", target=PlainTag("target-tag"), suffix_length=2, alphabet="abcd", k=8, kdf=cfg)
    result = find_tag_sharded(spec, 3)
    # one scrypt per candidate and one for the target, which the second and third shards take from the cache
    assert result.candidates_tried == 16
    assert len(scrypt_calls) == result.candidates_tried + 1
    # shards of 85 candidates evict the target from the 64-entry material cache, so no shard may derive it again
    scrypt_calls.clear()
    result = find_tag_sharded(replace(spec, alphabet="abcdefghijklmnop", kdf=_TINY_SCRYPT), 3)
    assert result.candidates_tried == 256
    assert len(scrypt_calls) == result.candidates_tried + 1


def test_a_memory_hard_search_keeps_the_material_cache(scrypt_calls):
    ours = derive_tag_material(PlainTag("our-group"), _TINY_SCRYPT)
    spec = SearchSpec(prefix="mh-", target=PlainTag("target-tag"), suffix_length=2, alphabet="abcdefghij", k=8, kdf=_TINY_SCRYPT)
    assert find_tag(spec).candidates_tried == 100
    # the search derives its target and 100 candidates without evicting our material
    assert derive_tag_material(PlainTag("our-group"), _TINY_SCRYPT) is ours
    assert len(scrypt_calls) == 102
    assert derive_tag_material.cache_info().hits == 1


def test_tag_material_is_cached_with_its_context(scrypt_calls):
    first = derive_tag_material(PlainTag("abc"), FAST_KDF, 24)
    assert derive_tag_material(PlainTag("abc"), FAST_KDF, 24) is first
    seal(b"m", [PlainTag("abc")], rng=random.Random(1))
    assert "_ecb" in vars(first)  # seal wrapped its key block with the cached material's context
    assert derive_tag_material(PlainTag("abc"), FAST_KDF, 12) is not first
    for i in range(64):
        derive_tag_material(PlainTag(f"tag-{i}"), FAST_KDF, 24)
    assert derive_tag_material(PlainTag("abc"), FAST_KDF, 24) is not first
    assert scrypt_calls == []


def test_fast_hash_is_not_cached(scrypt_calls):
    derive_long_tag(PlainTag("abc"), FAST_KDF)
    assert scrypt_calls == []


def _reference_ctr(key: bytes, nonce: bytes, data: bytes) -> bytes:
    enc = Cipher(algorithms.AES(key), modes.CTR(nonce + bytes(8))).encryptor()
    return enc.update(data) + enc.finalize()


@given(st.binary(min_size=16, max_size=16), st.binary(min_size=8, max_size=8), st.binary(min_size=32, max_size=32))
@example(bytes(16), b"\xff" * 8, bytes(32))
@example(b"\xff" * 16, b"\xff" * 8, b"\xff" * 32)
def test_wrap_equals_aes_ctr_from_nonce_counter(tag_key, nonce, data):
    material = TagMaterial(ShortTag(0, 24), tag_key)
    assert material.wrap(nonce, data) == _reference_ctr(tag_key, nonce, data)
    assert material.wrap(nonce, material.wrap(nonce, data)) == data


def test_wrap_rejects_wrong_lengths():
    material = TagMaterial(ShortTag(0, 24), bytes(16))
    with pytest.raises(ValueError):
        material.wrap(bytes(7), bytes(32))
    with pytest.raises(ValueError):
        material.wrap(bytes(8), bytes(31))


class _AllOnesNonce(random.Random):
    """Draws key-block nonces of all 0xff bytes, other bytes as usual."""

    def randbytes(self, n):
        return b"\xff" * n if n == tagcrypt.KEY_BLOCK_NONCE_BYTES else super().randbytes(n)


def test_seal_open_round_trip_with_all_ones_nonce():
    tag = PlainTag("all-ones-nonce")
    hoot = seal(b"counter edge", [tag], rng=_AllOnesNonce(5))
    assert hoot.key_blocks[0][: tagcrypt.KEY_BLOCK_NONCE_BYTES] == b"\xff" * 8
    assert open_hoot(hoot, tag) == b"counter edge"


def test_wrapping_context_joins_no_equality_hash_or_repr():
    derived = derive_tag_material(PlainTag("abc"))
    a, b = (TagMaterial(derived.short_tag, derived.tag_key) for _ in range(2))
    open_with_material(seal(b"m", [PlainTag("abc")], rng=random.Random(1)), a)
    assert "_ecb" in vars(a) and "_ecb" not in vars(b)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_material_pickles_and_copies_after_use():
    material = derive_tag_material(PlainTag("abc"))
    hoot = seal(b"m", [PlainTag("abc")], rng=random.Random(1))
    assert open_with_material(hoot, material) == b"m"
    for twin in (pickle.loads(pickle.dumps(material)), copy.deepcopy(material), copy.copy(material)):
        assert twin == material
        assert open_with_material(hoot, twin) == b"m"


def test_repr_hides_tag_key():
    material = derive_tag_material(PlainTag("abc"))
    assert material.tag_key.hex() not in repr(material)
    assert repr(material.tag_key) not in repr(material)


def test_shared_material_opens_correctly_across_threads():
    # Four threads share one material, and so its cipher context, from
    # its first use on. A short switch interval makes them interleave
    # inside wrap; 25 passes over the hoots make an overlap near certain.
    tag = PlainTag("shared-across-threads")
    material = derive_tag_material(tag)
    rng = random.Random(11)
    work = []
    for _ in range(4):
        batch = []
        for _ in range(200):
            message = rng.randbytes(rng.randint(0, 39))
            batch.append((seal(message, [tag], rng=rng), message))
        work.append(batch)
    wrong = [0] * len(work)
    done = [0] * len(work)
    start = threading.Barrier(len(work))

    def opener(index):
        start.wait()
        for _ in range(25):
            for hoot, message in work[index]:
                try:
                    if open_with_material(hoot, material) != message:
                        wrong[index] += 1
                except RuntimeError:
                    wrong[index] += 1
                done[index] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=opener, args=(i,)) for i in range(len(work))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert done == [25 * 200] * len(work)
    assert wrong == [0] * len(work)
