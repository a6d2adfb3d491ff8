"""Tag derivation, splitting, and seal/open behavior."""

import collections
import copy
import hashlib
import hmac
import os
import pickle
import random
import re
import subprocess
import sys
import threading
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.kdf.scrypt import Scrypt
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoot import tagcrypt
from hoot.analysis import TagBucket
from hoot.collider import SearchSpec, find_tag, find_tag_sharded
from hoot.errors import ConfigError, PlainTagError
from hoot.feed import FeedPost, PostOutcome, RejectReason, load_scenario, run_scenario
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
    derive_tag_materials,
    encode_plain_tags,
    open_hoot,
    open_with_material,
    seal,
    short_tag_positions,
    short_tags,
    split_tag,
)
from hoot.wire import DEFAULT_PARAMS, WireParams, capacity, seal_to_wire

# Published SHA-1 test vectors.
SHA1_VECTORS = {
    "abc": "a9993e364706816aba3e25717850c26c9cd0d89d",
    "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq": "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
    "a": "86f7e437faa5a7fce15d1ddcb9eaeaea377667b8",
}


@pytest.mark.parametrize("text,digest", sorted(SHA1_VECTORS.items()))
def test_fast_hash_matches_sha1_vectors(text, digest):
    long_tag = derive_long_tag(PlainTag(text), FAST_KDF)
    assert long_tag.bits == 192
    assert long_tag.data[:20].hex() == digest


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
    assert a.bits == 192
    assert a.data != derive_long_tag(PlainTag("abc"), FAST_KDF).data


def test_memory_hard_agrees_with_independent_scrypt():
    # Cross-check the scrypt invocation (parameter mapping, fixed salt,
    # output length) against a second library's implementation.
    cfg = KdfConfig(mode=KdfMode.MEMORY_HARD, work=2**14, memory=2**21, parallelism=1)
    n, r, p = cfg.scrypt_params()
    expected = Scrypt(salt=b"hoot.tag.v1", length=24, n=n, r=r, p=p).derive(b"abc")
    assert derive_long_tag(PlainTag("abc"), cfg).data == expected


def test_scrypt_parameter_mapping():
    cfg = KdfConfig(mode=KdfMode.MEMORY_HARD, work=2**10, memory=2**20, parallelism=2)
    assert cfg.scrypt_params() == (2**10, 8, 2)
    # memory below one block floors r at 1
    small = KdfConfig(mode=KdfMode.MEMORY_HARD, work=2**15, memory=2**20)
    assert small.scrypt_params() == (2**15, 1, 1)


def test_fast_hash_expansion_keeps_digest_prefix():
    digest = hashlib.sha1(b"abc").digest()
    wide = derive_long_tag(PlainTag("abc"), FAST_KDF)
    assert wide == LongTag(digest + hashlib.sha1(digest + bytes(4)).digest()[:4], 192)


def test_kdf_config_validation():
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
        material = split_tag(LongTag(bytes(flipped), base.bits), k)
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
    st.sampled_from([FAST_KDF, _TINY_SCRYPT]),
)
@example(["a", "ä€𝄞", "é" * 128, "x" * 256], 64, FAST_KDF)
@example(["grp", "ä€𝄞"], 24, _TINY_SCRYPT)
@example(["grp", "z" * 200], 64, KdfConfig(mode=KdfMode.MEMORY_HARD, work=4, memory=512))
def test_short_tags_equal_per_tag_derivation(texts, k, cfg):
    tags = [text.encode("utf-8") for text in texts]
    expected = [derive_tag_material(PlainTag(text), cfg, k).short_tag.value for text in texts]
    assert short_tags(tags, cfg, k) == expected


@settings(max_examples=200, deadline=None)
@given(
    texts=st.lists(_plain_texts, max_size=40),
    k=st.integers(1, 64),
    cfg=st.sampled_from([FAST_KDF, _TINY_SCRYPT]),
    pick=st.one_of(st.sampled_from(["zero", "ones"]), st.integers(0, 2**64 - 1), st.tuples(st.just("of"), st.integers(0, 99))),
)
@example([], 8, FAST_KDF, "zero")
@example(["a"], 1, FAST_KDF, ("of", 0))
@example(["ä€𝄞"], 64, FAST_KDF, ("of", 0))
@example(["a", "ä€𝄞", "é" * 128, "x" * 256, "b"], 7, FAST_KDF, ("of", 3))
@example([f"step-{i}" for i in range(4096)], 8, FAST_KDF, ("of", 11))
@example([f"step-{i}" for i in range(4096)], 3, FAST_KDF, "ones")
@example([f"step-{i}" for i in range(4096)], 12, FAST_KDF, ("of", 4095))
@example(["grp", "ä€𝄞", "grp"], 5, _TINY_SCRYPT, ("of", 0))
def test_short_tag_positions_equal_the_short_tags_filter(texts, k, cfg, pick):
    tags = [text.encode("utf-8") for text in texts]
    values = short_tags(tags, cfg, k)
    if pick == "zero":
        value = 0
    elif pick == "ones":
        value = (1 << k) - 1
    elif isinstance(pick, int):
        value = pick >> (64 - k)
    else:
        value = values[pick[1] % len(values)] if values else 0
    assert short_tag_positions(tags, cfg, k, value) == [i for i, v in enumerate(values) if v == value]


def test_short_tags_check_k_before_hashing():
    for cfg, k, message in [
        (FAST_KDF, 0, "k=0 outside supported range 1..64"),
        (_TINY_SCRYPT, 0, "k=0 outside supported range 1..64"),
        (FAST_KDF, 65, "k=65 outside supported range 1..64"),
        (_TINY_SCRYPT, 65, "k=65 outside supported range 1..64"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            short_tags([], cfg, k)
        with pytest.raises(ValueError, match=re.escape(message)):
            short_tag_positions([], cfg, k, 0)
        with pytest.raises(ValueError, match=re.escape(message)):
            split_tag(derive_long_tag(PlainTag("t"), cfg), k)
    # a long tag a caller builds may still be too narrow for k
    with pytest.raises(ValueError, match=re.escape("long tag has 160 bits; k=64 needs 192")):
        split_tag(LongTag(bytes(20), 160), 64)


def reference_long_tag(text: str, cfg: KdfConfig) -> bytes:
    """The 24-byte long tag of ``text``, built straight from ``hashlib``."""
    if cfg.mode is KdfMode.FAST_HASH:
        digest = hashlib.sha1(text.encode()).digest()
        return digest + hashlib.sha1(digest + bytes(4)).digest()[:4]
    n, r, p = cfg.scrypt_params()
    return hashlib.scrypt(text.encode(), salt=b"hoot.tag.v1", n=n, r=r, p=p, dklen=24)


def reference_material(text: str, cfg: KdfConfig, k: int) -> tuple[int, bytes]:
    """(short tag, tag key) carved from ``reference_long_tag`` by integer shifts."""
    bits = int.from_bytes(reference_long_tag(text, cfg), "big")
    return bits >> (192 - k), ((bits >> (64 - k)) & ((1 << 128) - 1)).to_bytes(16, "big")


PINNED_TAGS = ("abc", "free-egypt-9rqt", "ä€𝄞")
# SHA-256 over short tag (8 bytes) || tag key for k = 1..64 and each pinned tag, and the materials of
# "abc" at a few k, as KdfConfig(output_bits=max(160, k + 128)) derived them before the long tag's
# width was fixed at 192 bits
PINNED_MATERIALS = {
    "fast": (
        "d1a3ae9801d3fd9adbad9876e2d3b79003936514f1ce153c09d7ccf0da96ec90",
        {
            1: (0x1, "53327c6c8e0d02d5747c4ae2f0a184d9"),
            24: (0xA9993E, "364706816aba3e25717850c26c9cd0d8"),
            33: (0x153327C6C, "8e0d02d5747c4ae2f0a184d939a1b13b"),
            40: (0xA9993E3647, "06816aba3e25717850c26c9cd0d89d95"),
            64: (0xA9993E364706816A, "ba3e25717850c26c9cd0d89d9544fc1a"),
        },
    ),
    "tiny-scrypt": (
        "0659980cfba664132cbb4836429e3fc8f4eaeba196d639da728189dad4feff31",
        {
            1: (0x1, "2efebe23d0114c48e425152ddaa4ef88"),
            24: (0x977F5F, "11e808a62472128a96ed5277c44ac5b5"),
            33: (0x12EFEBE23, "d0114c48e425152ddaa4ef88958b6b6a"),
            40: (0x977F5F11E8, "08a62472128a96ed5277c44ac5b5b543"),
            64: (0x977F5F11E808A624, "72128a96ed5277c44ac5b5b5432dcd55"),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_MATERIALS))
def test_every_k_derives_the_pinned_material_of_the_reference_long_tag(name):
    cfg = {"fast": FAST_KDF, "tiny-scrypt": _TINY_SCRYPT}[name]
    pinned_digest, pinned = PINNED_MATERIALS[name]
    digest = hashlib.sha256()
    for k in range(1, 65):
        for text in PINNED_TAGS:
            material = derive_tag_material(PlainTag(text), cfg, k)
            value, key = reference_material(text, cfg, k)
            assert (material.short_tag, material.tag_key) == (ShortTag(value, k), key), (text, k)
            assert short_tags([text.encode()], cfg, k) == [value]
            digest.update(value.to_bytes(8, "big") + key)
    assert digest.hexdigest() == pinned_digest
    for k, (value, key) in pinned.items():
        assert reference_material("abc", cfg, k) == (value, bytes.fromhex(key))


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports hoot from this tree."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tagcrypt.__file__)))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout


def numpy_loaded_after(code: str) -> bool:
    out = run_fresh(code + "\nimport sys; print('numpy' in sys.modules)")
    return {"True": True, "False": False}[out.strip()]


def test_importing_hoot_leaves_numpy_unloaded():
    # numpy is imported when a search starts, so that importing hoot stays cheap
    assert not numpy_loaded_after("import hoot, hoot.collider, hoot.tagcrypt")


@pytest.mark.parametrize(
    "code",
    [
        "import hoot.cli",
        "from hoot.analysis import Corpus, anonymity_report\n"
        "report = anonymity_report(Corpus((('one', 5), ('two', 2), ('three', 1))), 8)\n"
        "assert report.total_volume == 8 and report.slope is not None",
    ],
    ids=["cli", "anonymity-report"],
)
def test_the_command_line_and_a_corpus_report_leave_numpy_unloaded(code):
    # only a search and generate_powerlaw_corpus import numpy
    assert not numpy_loaded_after(code)


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


def test_a_fast_hash_scenario_starts_no_thread_and_leaves_concurrent_futures_unloaded():
    # fast-hash tags never take lanes, so a fast-hash run starts no thread and imports no executor
    out = run_fresh(
        "import sys, threading\n"
        "import hoot\n"
        "from hoot.feed import load_scenario, run_scenario\n"
        "started = []\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda thread: started.append(thread) or start(thread)\n"
        "script = load_scenario({'k': 12, 'groups': [{'name': 'a', 'plain_tag': 'light-a', 'messages': 3},"
        " {'name': 'b', 'plain_tag': 'light-b', 'messages': 3}], 'policy': [{'type': 'whitelist-short-tag',"
        " 'plain_tag': 'light-a', 'known_plain_tags': ['light-b', 'light-c']}]})\n"
        "assert run_scenario(script).submitted == 6\n"
        "print(threading.active_count(), len(started), 'concurrent.futures' in sys.modules)"
    )
    assert out.split() == ["1", "0", "False"]


@pytest.mark.parametrize(
    "mode,search",
    [
        pytest.param(mode, search, id=search if mode == "FIRST_N" else f"{search}-exhaustive")
        for mode in ("FIRST_N", "EXHAUSTIVE")
        for search in ("find_tag(spec)", "find_tag_sharded(spec, 2)")
    ],
)
def test_first_n_search_loads_numpy_before_its_clock_starts(mode, search):
    # so that elapsed, and the rate hoot collide logs from it, time the search and not numpy's first import
    out = run_fresh(
        "import sys, time\n"
        "from hoot import PlainTag\n"
        "from hoot.collider import SearchMode, SearchSpec, find_tag, find_tag_sharded\n"
        f"spec = SearchSpec(prefix='p-', target=PlainTag('t'), suffix_length=2, mode=SearchMode.{mode}, k=4)\n"
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
    derive_tag_material(PlainTag("cached-tag"), cfg, 64)
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


def with_cores(monkeypatch, count: int) -> None:
    """Make ``os.sched_getaffinity``, and so the number of lanes, report ``count`` cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def scrypt_lanes(monkeypatch) -> set[str]:
    """The names of the threads that call ``hashlib.scrypt`` from now on."""
    names, real = set(), hashlib.scrypt

    def naming_its_thread(*args, **params):
        names.add(threading.current_thread().name)
        return real(*args, **params)

    monkeypatch.setattr(hashlib, "scrypt", naming_its_thread)
    return names


def lane_script(k: int = 16) -> dict:
    """A memory-hard scenario on three distinct group tags: echo shares org's, and a known tag is fans'."""
    return {
        "seed": 7,
        "k": k,
        "kdf": {"mode": "memory-hard", "work": 2, "memory": 256},
        "target_group": "org",
        "groups": [
            {"name": "org", "plain_tag": "lane-org", "messages": 6, "replays": 2},
            {"name": "fans", "plain_tag": "lane-fans", "messages": 6, "replays": 1},
            {"name": "echo", "plain_tag": "lane-org", "messages": 3},
            {"name": "crowd", "plain_tag": "lane-crowd", "messages": 4},
        ],
        "policy": [
            {"type": "whitelist-short-tag", "short_tag": "a" * -(-k // 5), "known_plain_tags": ["lane-unused"]},
            {"type": "whitelist-short-tag", "plain_tag": "lane-org", "known_plain_tags": ["lane-fans", "lane-known"]},
        ],
    }


LANE_TAGS = sorted(text.encode() for text in ("lane-org", "lane-fans", "lane-crowd", "lane-known"))


def test_a_memory_hard_scenario_runs_alike_in_one_lane_and_in_many(scrypt_calls, monkeypatch):
    script = load_scenario(lane_script())
    runs = []
    for count in (1, len(os.sched_getaffinity(0)), 4):
        with_cores(monkeypatch, count)
        derive_tag_material.cache_clear()
        scrypt_calls.clear()
        lanes = scrypt_lanes(monkeypatch)
        threads = threading.active_count()
        stats = run_scenario(script)
        assert threading.active_count() == threads
        # once per distinct plain tag: echo's duplicate and the known tag equal to fans' add none, the
        # rule on org's traffic derives lane-known as it first tries it, and no post reaches lane-unused
        assert sorted(scrypt_calls) == LANE_TAGS
        assert len(lanes) == min(count, 2)
        runs.append((stats.to_dict(), stats.render()))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0]["rejected_censored"] == 11 and runs[0][0]["rejected_replay"] == 1


def test_a_failing_lane_raises_what_the_serial_loop_raises(scrypt_calls, monkeypatch):
    counting = hashlib.scrypt

    def refusing(secret, **params):
        if secret.startswith(b"bad"):
            raise ValueError(f"refused {secret.decode()}")
        return counting(secret, **params)

    raw = lane_script()
    raw["groups"][1]["plain_tag"], raw["groups"][3]["plain_tag"] = "bad-fans", "bad-crowd"
    script = load_scenario(raw)
    monkeypatch.setattr(hashlib, "scrypt", refusing)
    # the distinct group tags are lane-org, bad-fans and bad-crowd: in two lanes the calling
    # thread's lane fails on bad-crowd and the other lane on the earlier bad-fans
    for count in (1, 4):
        with_cores(monkeypatch, count)
        derive_tag_material.cache_clear()
        with pytest.raises(ValueError, match="^refused bad-fans$"):
            run_scenario(script)

    tags = [PlainTag(text) for text in ("ok-0", "bad-1", "bad-2", "ok-3", "bad-4")]
    # in two lanes the calling thread's lane fails on bad-2 and the other lane on the earlier bad-1
    for count in (1, 2, 6):
        with_cores(monkeypatch, count)
        derive_tag_material.cache_clear()
        with pytest.raises(ValueError, match="^refused bad-1$"):
            derive_tag_materials(tags, _TINY_SCRYPT, 16)


def test_lanes_under_fast_thread_switching_derive_each_tag_once(scrypt_calls, monkeypatch):
    tags = [PlainTag(f"switch-{i % 40}") for i in range(100)]
    serial = [split_tag(derive_long_tag(tag, _TINY_SCRYPT), 16) for tag in tags]
    scrypt_calls.clear()
    lanes = scrypt_lanes(monkeypatch)
    with_cores(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        materials = derive_tag_materials(tags, _TINY_SCRYPT, 16)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(scrypt_calls) == sorted({tag.encoded() for tag in tags})
    assert materials == serial
    assert materials[0] is materials[40] is derive_tag_material(tags[0], _TINY_SCRYPT, 16)
    # eight cores still make two lanes, so a batch holds at most two scrypt buffers on any host
    assert len(lanes) == 2 and threading.current_thread().name in lanes
    # without the material cache, only de-duplication spares a repeat dealt to the other lane its derivation
    calls = []
    assert tagcrypt._in_lanes(lambda item: calls.append(item) or 2 * item, [3, 1, 3, 2, 1]) == [6, 2, 6, 4, 2]
    assert sorted(calls) == [1, 2, 3]


def test_a_pooled_search_after_a_memory_hard_scenario_equals_the_serial_search():
    # the shard pool forks on its first fan-out; here that fork follows the scenario's lanes
    out = run_fresh(
        "from hoot import PlainTag\n"
        "from hoot.collider import ALPHANUMERIC, SearchSpec, find_tag, find_tag_sharded\n"
        "from hoot.feed import load_scenario, run_scenario\n"
        f"run_scenario(load_scenario({lane_script()!r}))\n"
        "spec = SearchSpec(prefix='pool-', target=PlainTag('pool-target'), suffix_length=3, alphabet=ALPHANUMERIC, k=8)\n"
        "pooled, serial = find_tag_sharded(spec, 2), find_tag(spec)\n"
        "print(pooled.matches == serial.matches, pooled.candidates_tried == serial.candidates_tried, len(serial.matches) > 100)"
    )
    assert out.split() == ["True", "True", "True"]


def test_seal_derives_a_hoots_new_memory_hard_tags_in_lanes(scrypt_calls, monkeypatch):
    tags = [PlainTag("seal-lane-a"), PlainTag("seal-lane-b")]
    lines = []
    for count in (1, 2):
        with_cores(monkeypatch, count)
        derive_tag_material.cache_clear()
        scrypt_calls.clear()
        lanes = scrypt_lanes(monkeypatch)
        lines.append(seal_to_wire(b"two groups", tags, _TINY_SCRYPT, WireParams(k=12, glyph_budget=280), rng=random.Random(5)))
        assert sorted(scrypt_calls) == [tag.encoded() for tag in tags]
        assert len(lanes) == count
    assert lines[0] == lines[1]  # one core is the serial loop
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread.name))
    derive_tag_material.cache_clear()
    seal(b"one group", [PlainTag("seal-lane-c")], _TINY_SCRYPT, k=12, rng=random.Random(5))
    assert started == []
    # a hoot whose tags are all cached starts no lane and asks for no core count
    asked = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: asked.append(pid) or {0, 1})
    seal(b"cached group", [PlainTag("seal-lane-c")] * 2, _TINY_SCRYPT, k=12, rng=random.Random(5))
    assert started == [] and asked == []


class _Recording(collections.OrderedDict):
    """A material cache that records the name of each thread that inserts into it."""

    def __init__(self, inserters):
        super().__init__()
        self.inserters = inserters

    def __setitem__(self, key, value):
        self.inserters.append(threading.current_thread().name)
        super().__setitem__(key, value)


class _RecordingLock:
    """A lock that records the name of each thread that takes it."""

    def __init__(self, takers):
        self.lock, self.takers = threading.Lock(), takers

    def __enter__(self):
        self.takers.append(threading.current_thread().name)
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


def test_only_the_calling_thread_touches_the_material_cache(scrypt_calls, monkeypatch):
    inserters, takers = [], []
    monkeypatch.setattr(tagcrypt, "_materials", _Recording(inserters))
    monkeypatch.setattr(tagcrypt, "_materials_lock", _RecordingLock(takers))
    with_cores(monkeypatch, 2)
    lanes = scrypt_lanes(monkeypatch)
    tags = [PlainTag(f"insert-{i % 6}") for i in range(10)]
    materials = derive_tag_materials(tags, _TINY_SCRYPT, 16)
    assert len(lanes) == 2  # the batch ran on two lanes
    me = threading.current_thread().name
    # one lookup and one insert per distinct tag, all in this thread, the inserts in batch order
    assert inserters == [me] * 6 and takers == [me] * 12
    assert [key[0] for key in tagcrypt._materials] == [tag.text for tag in tags[:6]]
    assert materials == [split_tag(derive_long_tag(tag, _TINY_SCRYPT), 16) for tag in tags]


def test_the_material_cache_reports_and_resets_as_lru_cache_does(scrypt_calls):
    assert derive_tag_material.cache_info() == (0, 0, 64, 0)
    for i in range(100):
        derive_tag_material(PlainTag(f"bounded-{i}"), FAST_KDF, 12)
        assert derive_tag_material.cache_info().currsize == min(i + 1, 64)
    derive_tag_material(PlainTag("bounded-99"), FAST_KDF, 12)
    info = derive_tag_material.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (1, 100, 64, 64)
    derive_tag_material.cache_clear()
    info = derive_tag_material.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_threads_deriving_overlapping_batches_share_each_material(scrypt_calls, monkeypatch):
    with_cores(monkeypatch, 2)
    batches = [[PlainTag(f"overlap-{i}") for i in range(start, start + 20)] for start in (0, 10)]
    results = {}

    def derive(n):
        results[n] = derive_tag_materials(batches[n], _TINY_SCRYPT, 16)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=derive, args=(n,)) for n in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    for n, batch in enumerate(batches):
        assert results[n] == [split_tag(derive_long_tag(tag, _TINY_SCRYPT), 16) for tag in batch]
    # the 30 tags stay among the cache's last 64, so each key is one object, in both batches and later
    assert all(ours is theirs for ours, theirs in zip(results[0][10:], results[1][:10]))
    for tag, material in zip(batches[0] + batches[1], results[0] + results[1]):
        assert derive_tag_material(tag, _TINY_SCRYPT, 16) is material


def test_a_pooled_search_forked_while_the_material_cache_is_locked_equals_the_serial_search():
    # a worker inherits the lock as held at the fork, so a worker that took it would never finish: after
    # 120 s a watchdog kills the interpreter's process group, its pool workers included, and the run fails
    out = run_fresh(
        "import os, signal, threading\n"
        "os.setpgrp()\n"
        "watchdog = threading.Timer(120, os.killpg, (0, signal.SIGKILL))\n"
        "watchdog.daemon = True\n"
        "watchdog.start()\n"
        "from hoot import PlainTag, collider, tagcrypt\n"
        "from hoot.collider import ALPHANUMERIC, SearchSpec, find_tag\n"
        "held, release = threading.Event(), threading.Event()\n"
        "def hold():\n"
        "    with tagcrypt._materials_lock:\n"
        "        held.set()\n"
        "        release.wait()\n"
        "holder = threading.Thread(target=hold)\n"
        "holder.start()\n"
        "held.wait()\n"
        "spec = SearchSpec(prefix='pool-', target=PlainTag('pool-target'), suffix_length=3, alphabet=ALPHANUMERIC, k=8)\n"
        "pooled = find_tag(spec)\n"
        "forked = tagcrypt._workers is not None or len(os.sched_getaffinity(0)) == 1\n"
        "release.set()\n"
        "holder.join()\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "serial = find_tag(spec)\n"
        "print(forked, pooled.matches == serial.matches, pooled.candidates_tried == serial.candidates_tried)"
    )
    assert out.split() == ["True", "True", "True"]


@pytest.mark.parametrize("count", [2, None])
def test_searches_seals_and_lanes_without_an_affinity_mask_equal_the_serial_loop(count, scrypt_calls, monkeypatch):
    # where os has no sched_getaffinity (macOS, for one) the core count is os.cpu_count(), or 1 when that is unknown
    spec = SearchSpec(prefix="p-", target=PlainTag("t"), suffix_length=6, alphabet="abcd", k=8)  # too small to fan out
    tags, params = [PlainTag("no-mask-a"), PlainTag("no-mask-b")], WireParams(k=12, glyph_budget=280)
    with_cores(monkeypatch, 1)
    search = find_tag(spec)
    serial = [split_tag(derive_long_tag(tag, _TINY_SCRYPT), 16) for tag in tags]
    line = seal_to_wire(b"two groups", tags, _TINY_SCRYPT, params, rng=random.Random(5))
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    lanes = scrypt_lanes(monkeypatch)
    result = find_tag(spec)
    assert (result.matches, result.candidates_tried) == (search.matches, search.candidates_tried)
    derive_tag_material.cache_clear()
    assert derive_tag_materials(tags, _TINY_SCRYPT, 16) == serial
    assert len(lanes) == (count or 1)
    derive_tag_material.cache_clear()
    assert seal_to_wire(b"two groups", tags, _TINY_SCRYPT, params, rng=random.Random(5)) == line


def test_one_core_count_sizes_both_the_lanes_and_the_pool():
    # one core starts neither a pool worker nor a lane thread; two cores start two workers and one lane thread
    out = run_fresh(
        "import multiprocessing, os, threading\n"
        "from hoot import PlainTag, tagcrypt\n"
        "from hoot.collider import ALPHANUMERIC, SearchSpec, find_tag\n"
        "from hoot.tagcrypt import KdfConfig, KdfMode, derive_tag_material, derive_tag_materials\n"
        "started = []\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda thread: started.append(thread.name) or start(thread)\n"
        "spec = SearchSpec(prefix='pool-', target=PlainTag('pool-target'), suffix_length=3, alphabet=ALPHANUMERIC, k=8)\n"
        "tags, tiny = [PlainTag('cores-a'), PlainTag('cores-b')], KdfConfig(mode=KdfMode.MEMORY_HARD, work=2, memory=256)\n"
        "for cores in ({0}, {0, 1}):\n"
        "    os.sched_getaffinity = lambda pid: cores\n"
        "    matches = find_tag(spec).matches\n"
        "    workers = 0 if tagcrypt._workers is None else tagcrypt._workers._max_workers\n"
        "    derive_tag_material.cache_clear()\n"
        "    started.clear()\n"
        "    derive_tag_materials(tags, tiny, 16)\n"
        "    print(len(matches), workers, len(multiprocessing.active_children()), ','.join(started) or '-')\n"
    )
    one, two = (line.split() for line in out.splitlines())
    assert one[1:] == ["0", "0", "-"]
    assert two[1:] == ["2", "2", "hoot-lane-1"]
    assert one[0] == two[0] and int(one[0]) > 100


# RFC 2202's HMAC-SHA1 test cases 1-7, (key, data) to digest; cases 6 and 7 have keys longer than a block
RFC_2202 = {
    (b"\x0b" * 20, b"Hi There"): "b617318655057264e28bc0b6fb378c8ef146be00",
    (b"Jefe", b"what do ya want for nothing?"): "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79",
    (b"\xaa" * 20, b"\xdd" * 50): "125d7342b9ac11cd91a39af48aa17b4f63f175d3",
    (bytes(range(1, 26)), b"\xcd" * 50): "4c9007f4026250c6bc8414f9bf50c86c2d7235da",
    (b"\x0c" * 20, b"Test With Truncation"): "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04",
    (b"\xaa" * 80, b"Test Using Larger Than Block-Size Key - Hash Key First"): "aa4ae5e15272d00e95705637ce8a3b55ed402112",
    (b"\xaa" * 80, b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data"):
        "e8e99d0f45237d786d6bbaa7965c7808bbff1a91",
}


@settings(max_examples=300, deadline=None)
@given(key=st.binary(max_size=64) | st.binary(min_size=65, max_size=130), data=st.binary(max_size=300))
@example(key=b"\x0b" * 20, data=b"Hi There")  # RFC 2202, HMAC-SHA1 test case 1
@example(key=b"Jefe", data=b"what do ya want for nothing?")  # case 2
@example(key=b"\xaa" * 20, data=b"\xdd" * 50)  # case 3
@example(key=bytes(range(1, 26)), data=b"\xcd" * 50)  # case 4
@example(key=b"\x0c" * 20, data=b"Test With Truncation")  # case 5
@example(key=b"\xaa" * 80, data=b"Test Using Larger Than Block-Size Key - Hash Key First")  # case 6
@example(key=b"\xaa" * 80, data=b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data")  # case 7
@example(key=bytes(65), data=b"")  # longer than a block, so HMAC hashes it first
def test_mac_is_hmac_sha1(key, data):
    mac = tagcrypt._mac(key, data)
    assert mac == hmac.digest(key, data, "sha1")
    assert mac.hex() == RFC_2202.get((key, data), mac.hex())


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


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300), st.integers(min_value=0, max_value=2**32))
@example(b"", 0)
@example(bytes(300), 1)
def test_seal_body_equals_aes_ctr_from_zero_counter(message, seed):
    # bodies past one wire line, which seal_to_wire never carries, still get SP 800-38A CTR from 0
    tag = PlainTag("body-keystream")
    k_enc = random.Random(seed).randbytes(2 * tagcrypt.SESSION_KEY_BYTES)[: tagcrypt.SESSION_KEY_BYTES]
    hoot = seal(message, [tag], rng=random.Random(seed))
    assert hoot.ciphertext == _reference_ctr(k_enc, bytes(8), message)
    assert open_with_material(hoot, derive_tag_material(tag)) == message


OPEN_OWN = TagMaterial(ShortTag(0xC0FFEE, 24), bytes(range(16)))
OPEN_FOREIGN = TagMaterial(OPEN_OWN.short_tag, b"\x5a" * 16)  # our short tag under another group's tag key
OPEN_OTHER = TagMaterial(ShortTag(7, 24), b"\xa5" * 16)
ONE_TAG_CAPACITY = capacity(DEFAULT_PARAMS, 1)


def reference_hoot(message: bytes, keys: bytes, nonces: list[bytes], materials: list[TagMaterial]) -> Hoot:
    """A hoot sealed from the public wrap, hmac.digest and cryptography's AES-CTR alone; keys = k_enc || k_mac."""
    ciphertext = _reference_ctr(keys[:16], bytes(8), message)
    blocks = tuple(nonce + material.wrap(nonce, keys) for nonce, material in zip(nonces, materials))
    return Hoot(tuple(material.short_tag for material in materials), blocks, hmac.digest(keys[16:], ciphertext, "sha1"), ciphertext)


def reference_open(hoot: Hoot, material: TagMaterial) -> bytes | None:
    """Unwrap both session keys with the public wrap, check the MAC with hmac.digest, decrypt with AES-CTR."""
    for short_tag, block in zip(hoot.short_tags, hoot.key_blocks):
        if short_tag == material.short_tag:
            keys = material.wrap(block[:8], block[8:])
            if hmac.compare_digest(hmac.digest(keys[16:], hoot.ciphertext, "sha1"), hoot.mac):
                return _reference_ctr(keys[:16], bytes(8), hoot.ciphertext)
    return None


@settings(max_examples=300, deadline=None)
@given(
    message=st.binary(max_size=ONE_TAG_CAPACITY),
    keys=st.binary(min_size=32, max_size=32),
    nonces=st.lists(st.binary(min_size=8, max_size=8), min_size=2, max_size=2),
    senders=st.sampled_from([(OPEN_OWN,), (OPEN_FOREIGN,), (OPEN_OTHER, OPEN_OWN), (OPEN_OWN, OPEN_OTHER)]),
)
@example(message=b"", keys=bytes(32), nonces=[b"\xff" * 8] * 2, senders=(OPEN_OWN,))
@example(message=b"\xff" * ONE_TAG_CAPACITY, keys=b"\xff" * 32, nonces=[b"\xff" * 8] * 2, senders=(OPEN_OWN,))
@example(message=b"", keys=bytes(32), nonces=[b"\xff" * 8] * 2, senders=(OPEN_FOREIGN,))
@example(message=bytes(ONE_TAG_CAPACITY), keys=bytes(32), nonces=[bytes(8), b"\xff" * 8], senders=(OPEN_OTHER, OPEN_OWN))
def test_open_with_material_equals_the_reference_open(message, keys, nonces, senders):
    hoot = reference_hoot(message, keys, nonces, list(senders))
    for material in (OPEN_OWN, OPEN_FOREIGN, OPEN_OTHER):
        expected = message if material in senders else None
        assert reference_open(hoot, material) == expected
        assert open_with_material(hoot, material) == expected
    sealed = seal(message, [PlainTag("open-reference")], rng=random.Random(keys))
    material = derive_tag_material(PlainTag("open-reference"))
    assert open_with_material(sealed, material) == reference_open(sealed, material) == message


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


SLOTTED_VALUES = [
    PlainTag("slotted"),
    ShortTag(5, 8),
    LongTag(bytes(24), 192),
    seal(b"slotted", [PlainTag("slotted")], rng=random.Random(1)),
    TagBucket(ShortTag(5, 8), "au", (("slotted", 2), ("other", 1)), 3),
    FeedPost(1, "alice", "#aaaaa AAAA"),
    PostOutcome(False, reason=RejectReason.CENSORED, rule_index=0),
]


@pytest.mark.parametrize("value", SLOTTED_VALUES, ids=lambda value: type(value).__name__)
def test_protocol_values_are_slotted_frozen_and_copy_equal(value):
    assert not hasattr(value, "__dict__")
    for slot in fields(value):
        with pytest.raises(FrozenInstanceError):
            setattr(value, slot.name, getattr(value, slot.name))
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), replace(value)):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)


def test_repr_hides_tag_key():
    material = derive_tag_material(PlainTag("abc"))
    assert material.tag_key.hex() not in repr(material)
    assert repr(material.tag_key) not in repr(material)


def test_shared_material_opens_correctly_across_threads():
    # Four threads share one material, and so its cipher context, from
    # its first use on. A short switch interval makes them interleave
    # inside an unwrap; 25 passes over the hoots make an overlap near certain.
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


def outcome_of_plain_tags(encode, texts):
    try:
        return "ok", encode(texts)
    except ValueError as refusal:
        return type(refusal), str(refusal)


# whitespace traps, '#', a lone surrogate (no UTF-8 encoding), and characters of 1 to 4 UTF-8 bytes,
# to reach the 256-byte limit from either side
_NAME_GLYPHS = st.sampled_from(list("ab#") + [" ", "\x1c", "\u3000", "\xa0", "\u180e", "\ud800", "é", "€", "𝄞"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.text(_NAME_GLYPHS, max_size=6),
    st.builds(lambda fill, glyph, tail: fill * 254 + glyph + tail, st.sampled_from("aé"), st.sampled_from("ab#é€"), st.text(_NAME_GLYPHS, max_size=2)),
), max_size=6))
@example([])
@example(["", "a"])
@example(["a", "b\u3000c"])
@example(["a", "b\x1cc"])
@example(["a", "#b"])
@example(["a#", "b"])
@example(["x" * 256, "é" * 128])
@example(["x" * 257])
@example(["é" * 128 + "a"])
@example(["\ud800", "a b"])
def test_encode_plain_tags_refuses_exactly_as_plain_tag(texts):
    def one_at_a_time(texts):
        return [PlainTag(text).encoded() for text in texts]

    assert outcome_of_plain_tags(encode_plain_tags, texts) == outcome_of_plain_tags(one_at_a_time, texts)


def test_a_refused_plain_tag_carries_its_text_outside_the_message():
    for text, message in [
        ("", "plain tag must be non-empty"),
        ("fo o", "plain tag must not contain whitespace"),
        ("#foo", "plain tag is written without the leading '#'"),
        ("é" * 128 + "a", "plain tag exceeds 256 UTF-8 bytes"),
        ("a\ud800", "plain tag is not valid UTF-8"),
    ]:
        with pytest.raises(PlainTagError) as refusal:
            encode_plain_tags(["ok", text])
        assert (str(refusal.value), refusal.value.text) == (message, text)
