"""Command-line entry point: seal, open, collide, simulate, analyze, bench.

Machine output goes to stdout, diagnostics and the effective
configuration to stderr. Exit codes: 0 success, 1 usage error, 2 data
error. Plain tags can arrive via --tag, the HOOT_TAG environment
variable, or an interactive prompt, keeping secrets out of shell
history.
"""

from __future__ import annotations

import argparse
import getpass
import json
import logging
import os
import random
import sys
import time
from collections import Counter
from dataclasses import replace

from . import analysis, collider, feed, wire
from .errors import ConfigError, HootError, ParseError
from .tagcrypt import (
    DEFAULT_K,
    FAST_KDF,
    Hoot,
    KdfConfig,
    PlainTag,
    derive_tag_material,
    kdf_config,
    open_with_material,
    seal,
)

log = logging.getLogger("hoot")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

TAG_ENV_VAR = "HOOT_TAG"


class UsageError(Exception):
    """Bad or missing flags; exits with status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _apply_config_file(parser: _Parser, argv: list[str]) -> list[str]:
    """Fold `--config file.json` (or `--config=file.json`) defaults in ahead of explicit flags."""
    argv = [part for arg in argv for part in (arg.split("=", 1) if arg.startswith("--config=") else [arg])]
    if "--config" not in argv:
        return argv
    index = argv.index("--config")
    try:
        path = argv[index + 1]
    except IndexError:
        parser.error("--config needs a file path")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            defaults = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    if not isinstance(defaults, dict):
        raise ConfigError(f"config file {path} holds a JSON {type(defaults).__name__}, not an object")
    injected = []
    for key, value in defaults.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                injected.append(flag)
        else:
            injected.extend([flag, str(value)])
    rest = argv[:index] + argv[index + 2 :]
    # subcommand first, then config-file defaults, then explicit flags
    return rest[:1] + injected + rest[1:]


def _gather_tags(args, *, need_many: bool) -> list[PlainTag]:
    texts = list(args.tag or [])
    if not texts and os.environ.get(TAG_ENV_VAR):
        texts = [os.environ[TAG_ENV_VAR]]
    if not texts and sys.stdin.isatty():
        prompt = "plain tags (space-separated): " if need_many else "plain tag: "
        entered = getpass.getpass(prompt)
        texts = entered.split() if need_many else [entered]
    if not texts:
        raise UsageError(f"no plain tag given (use --tag, ${TAG_ENV_VAR}, or a terminal prompt)")
    return [PlainTag(t.lstrip("#")) for t in texts]


def _wire_params(args) -> wire.WireParams:
    return wire.WireParams(k=args.k, glyph_budget=args.glyph_budget)


def _kdf(args) -> KdfConfig:
    """Build the KDF the flags name and log the command's effective configuration."""
    kdf = kdf_config(args.kdf, args.kdf_work, args.kdf_memory, args.kdf_parallelism, args.kdf_output_bits)
    log.info(
        "config: k=%d kdf=%s(work=%d, memory=%d, parallelism=%d, output_bits=%d) "
        "glyph_budget=%s seed=%s",
        args.k,
        kdf.mode.value,
        kdf.work,
        kdf.memory,
        kdf.parallelism,
        kdf.output_bits,
        getattr(args, "glyph_budget", None),
        getattr(args, "seed", None),
    )
    return kdf


def _rng(args) -> random.Random | None:
    return random.Random(args.seed) if args.seed is not None else None


def cmd_seal(args) -> int:
    kdf = _kdf(args)
    tags = _gather_tags(args, need_many=True)
    message = sys.stdin.buffer.read() if args.message == "-" else args.message.encode("utf-8")
    line = wire.seal_to_wire(message, tags, kdf, _wire_params(args), rng=_rng(args))
    print(line)
    return EXIT_OK


def cmd_open(args) -> int:
    kdf = _kdf(args)
    tag = _gather_tags(args, need_many=False)[0]
    params = _wire_params(args)
    material = derive_tag_material(tag, kdf, params.k)
    stream = sys.stdin if args.file == "-" else open(args.file, "r", encoding="utf-8")
    matched = skipped = 0
    malformed = Counter()
    try:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                hoot = wire.parse(line, params)
            except ParseError as err:
                malformed[err.kind] += 1
                continue
            message = open_with_material(hoot, material)
            if message is None:
                skipped += 1
                continue
            matched += 1
            sys.stdout.write(message.decode("utf-8", errors="replace") + "\n")
    finally:
        if stream is not sys.stdin:
            stream.close()
    if args.stats:
        kinds = " ".join(f"{kind}={count}" for kind, count in sorted(malformed.items()))
        counts = f"matched={matched} skipped={skipped} malformed={malformed.total()}"
        print(f"{counts} ({kinds})" if kinds else counts, file=sys.stderr)
    return EXIT_OK


def cmd_collide(args) -> int:
    kdf = _kdf(args)
    if args.target.startswith("#"):
        target = wire.decode_short_tag(args.target[1:], args.k)
    else:
        target = PlainTag(args.target)
    spec = collider.SearchSpec(
        prefix=args.prefix,
        target=target,
        suffix_length=args.suffix_len,
        alphabet=args.alphabet,
        mode=collider.SearchMode(args.mode),
        count=args.count,
        k=args.k,
        kdf=kdf,
        seed=args.seed or 0,
    )
    result = collider.find_tag_sharded(spec, len(os.sched_getaffinity(0)))
    for plain, short in result.matches:
        print(f"{plain.text}\t#{wire.encode_short_tag(short)}")
    rate = result.candidates_tried / result.elapsed if result.elapsed else 0.0
    log.info(
        "tried %d candidates in %.3fs (%.0f/s), %d match(es)",
        result.candidates_tried,
        result.elapsed,
        rate,
        len(result.matches),
    )
    if rate:
        tries, seconds = collider.expected_tries(spec), collider.estimate_runtime(spec, rate)
        log.info("estimate at %.0f/s: %d candidates in %.3fs", rate, tries, seconds)
    if spec.mode is collider.SearchMode.FIRST_N and len(result.matches) < spec.count:
        print(
            f"hoot collide: found {len(result.matches)} of {spec.count} requested matches",
            file=sys.stderr,
        )
        return EXIT_DATA
    return EXIT_OK


def cmd_simulate(args) -> int:
    with open(args.script, "r", encoding="utf-8") as handle:
        script = feed.load_scenario(handle.read())
    if args.seed is not None:
        script = replace(script, seed=args.seed)
    stats = feed.run_scenario(script)
    if args.json:
        print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(stats.render())
    return EXIT_OK


def _parse_component(text: str):
    kind, _, rest = text.partition(":")
    if kind == "dict":
        return analysis.DictionaryWords(int(rest))
    if kind == "digits":
        return analysis.DecimalDigits(int(rest))
    if kind == "glyphs":
        size, _, length = rest.partition(":")
        return analysis.GlyphString(int(size), int(length))
    raise HootError(f"unknown namespace component {text!r} (use dict:N, digits:N, glyphs:SIZE:LEN)")


def _require(args, *names):
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise UsageError("missing required flag(s): " + ", ".join("--" + n for n in missing))


def cmd_analyze(args) -> int:
    if args.what == "entropy":
        if not args.component:
            raise UsageError("entropy needs at least one --component")
        spec = analysis.NamespaceSpec(tuple(_parse_component(c) for c in args.component))
        bits = analysis.entropy_bits(spec)
        print(f"entropy_bits={bits:.4f}")
        if args.rate and args.cores:
            budget = analysis.brute_force_time(bits, args.rate, args.cores)
            print(f"full_seconds={budget.full_seconds:.6g}")
            print(f"expected_seconds={budget.expected_seconds:.6g}")
            print(f"full_years={budget.full_years:.6g}")
    elif args.what == "brute-force":
        _require(args, "bits", "rate")
        budget = analysis.brute_force_time(args.bits, args.rate, args.cores)
        print(f"full_seconds={budget.full_seconds:.6g}")
        print(f"expected_seconds={budget.expected_seconds:.6g}")
        print(f"full_years={budget.full_years:.6g}")
    elif args.what == "collision-prob":
        _require(args, "alphabet-size", "tag-glyphs", "suffix-len")
        p = analysis.collision_probability(args.alphabet_size, args.tag_glyphs, args.suffix_len)
        print(f"probability={p:.10g}")
    elif args.what == "bandwidth":
        _require(args, "total-rate", "link-bps")
        budget = analysis.bandwidth_budget(args.total_rate, args.k, args.link_bps, args.msg_bytes * 8)
        print(f"per_tag_per_second={budget.per_tag_per_second:.6g}")
        print(f"per_tag_per_minute={budget.per_tag_per_minute:.6g}")
        print(f"link_messages_per_second={budget.link_messages_per_second:.6g}")
    elif args.what == "report":
        _require(args, "corpus")
        corpus = analysis.load_corpus(args.corpus)
        report = analysis.anonymity_report(corpus, args.k, _kdf(args), top_buckets=args.top)
        sys.stdout.write(report.render())
        if args.rank_out:
            with open(args.rank_out, "w", encoding="utf-8") as handle:
                handle.write(report.rank_frequency_csv())
    elif args.what == "gen-corpus":
        _require(args, "tags", "total", "out")
        corpus = analysis.generate_powerlaw_corpus(args.tags, args.exponent, args.total, args.seed or 0)
        analysis.save_corpus(corpus, args.out)
        print(f"wrote {len(corpus.entries)} tags, volume {corpus.total}, to {args.out}")
    return EXIT_OK


def run_bench(iterations: int = 2000, k: int = DEFAULT_K, reject_fraction: float = 0.9, seed: int | None = None) -> dict:
    """Measure seal and open throughput over the full wire pipeline.

    The open workload mixes hoots from a (simulated) colliding foreign
    group with our own, so the dominant path is the MAC-check-and-drop
    shortcut that never touches the message ciphertext. Tag material is
    derived once, as a subscribed reader would.
    """
    rng = random.Random(seed)
    params = wire.WireParams(k=k)
    ours = PlainTag("bench-our-group")
    foreign = PlainTag("bench-foreign-group")
    material = derive_tag_material(ours, FAST_KDF, k)

    messages = [f"bench message {i:06d}".encode() for i in range(iterations)]
    began = time.perf_counter()
    for body in messages:
        wire.encode(seal(body, [ours], FAST_KDF, k=k, rng=rng), params)
    seal_elapsed = time.perf_counter() - began
    seal_rate = iterations / seal_elapsed

    rejects = int(iterations * reject_fraction)
    lines = []
    for i in range(iterations):
        body = messages[i]
        if i < rejects:
            # foreign hoot relabeled with our short tag: byte-shape of a
            # colliding group's traffic, guaranteed MAC mismatch
            h = seal(body, [foreign], FAST_KDF, k=k, rng=rng)
            h = Hoot((material.short_tag,) * len(h.short_tags), h.key_blocks, h.mac, h.ciphertext)
        else:
            h = seal(body, [ours], FAST_KDF, k=k, rng=rng)
        lines.append(wire.encode(h, params))
    rng.shuffle(lines)

    matched = 0
    began = time.perf_counter()
    for line in lines:
        if open_with_material(wire.parse(line, params), material) is not None:
            matched += 1
    open_elapsed = time.perf_counter() - began
    open_rate = iterations / open_elapsed

    return {
        "iterations": iterations,
        "k": k,
        "reject_fraction": reject_fraction,
        "seal_per_second": round(seal_rate, 1),
        "open_per_second": round(open_rate, 1),
        "open_seal_ratio": round(open_rate / seal_rate, 3),
        "opened": matched,
        "dropped": iterations - matched,
    }


def cmd_bench(args) -> int:
    report = run_bench(args.iterations, args.k, args.reject_fraction, args.seed)
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def _add_k_and_kdf(parser: _Parser, default_kdf: str):
    parser.add_argument("--k", type=int, default=DEFAULT_K, help="short tag bits (default %(default)s)")
    parser.add_argument("--kdf", choices=["fast", "memory-hard"], default=default_kdf)
    parser.add_argument("--kdf-work", type=int, default=None)
    parser.add_argument("--kdf-memory", type=int, default=None)
    parser.add_argument("--kdf-parallelism", type=int, default=None)
    parser.add_argument("--kdf-output-bits", type=int, default=None)


def build_parser() -> _Parser:
    """One subparser per command, each registering only the flags it reads."""
    parser = _Parser(prog="hoot", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seal", help="seal a message for one or more groups")
    _add_k_and_kdf(p, "memory-hard")
    p.add_argument("--glyph-budget", type=int, default=wire.DEFAULT_GLYPH_BUDGET)
    p.add_argument("--seed", type=int, default=None, help="deterministic randomness")
    p.add_argument("message", help="message text, or '-' to read bytes from stdin")
    p.add_argument("--tag", action="append", help="plain tag (repeatable)")
    p.set_defaults(run=cmd_seal)

    p = sub.add_parser("open", help="filter a stream of wire lines for our group")
    _add_k_and_kdf(p, "memory-hard")
    p.add_argument("--glyph-budget", type=int, default=wire.DEFAULT_GLYPH_BUDGET)
    p.add_argument("file", nargs="?", default="-", help="wire lines file, or '-' for stdin")
    p.add_argument("--tag", action="append", help="plain tag")
    p.add_argument("--stats", action="store_true", help="print match counters to stderr")
    p.set_defaults(run=cmd_open)

    p = sub.add_parser("collide", help="search a suffix space for colliding plain tags")
    _add_k_and_kdf(p, "fast")
    p.add_argument("--seed", type=int, default=None, help="deterministic randomness")
    p.add_argument("--prefix", required=True)
    p.add_argument("--target", required=True, help="plain tag, or '#token' for a raw short tag")
    p.add_argument("--suffix-len", type=int, required=True)
    p.add_argument("--alphabet", default=collider.ALPHANUMERIC)
    p.add_argument("--mode", choices=["exhaustive", "first-n"], default="exhaustive")
    p.add_argument("--count", type=int, default=1, help="matches wanted in first-n mode")
    p.set_defaults(run=cmd_collide)

    p = sub.add_parser("simulate", help="run a feed/censor scenario script")
    p.add_argument("--seed", type=int, default=None, help="deterministic randomness")
    p.add_argument("script", help="scenario JSON file")
    p.add_argument("--json", action="store_true", help="emit stats as JSON")
    p.set_defaults(run=cmd_simulate)

    p = sub.add_parser("analyze", help="entropy, collision, bandwidth, and corpus reports")
    _add_k_and_kdf(p, "fast")
    p.add_argument("--seed", type=int, default=None, help="deterministic randomness")
    p.add_argument(
        "what",
        choices=["entropy", "brute-force", "collision-prob", "bandwidth", "report", "gen-corpus"],
    )
    p.add_argument("--component", action="append", default=[], help="dict:N | digits:N | glyphs:SIZE:LEN")
    p.add_argument("--bits", type=float)
    p.add_argument("--rate", type=float)
    p.add_argument("--cores", type=int, default=1)
    p.add_argument("--alphabet-size", type=int)
    p.add_argument("--tag-glyphs", type=int)
    p.add_argument("--suffix-len", type=int)
    p.add_argument("--total-rate", type=float)
    p.add_argument("--link-bps", type=float)
    p.add_argument("--msg-bytes", type=float, default=140)
    p.add_argument("--corpus")
    p.add_argument("--top", type=int, default=None, help="truncate the report to N buckets")
    p.add_argument("--rank-out", help="write rank,count CSV here")
    p.add_argument("--tags", type=int)
    p.add_argument("--exponent", type=float, default=1.0)
    p.add_argument("--total", type=int)
    p.add_argument("--out")
    p.set_defaults(run=cmd_analyze)

    p = sub.add_parser("bench", help="measure seal/open throughput")
    p.add_argument("--k", type=int, default=DEFAULT_K, help="short tag bits (default %(default)s)")
    p.add_argument("--seed", type=int, default=None, help="deterministic randomness")
    p.add_argument("--iterations", type=int, default=2000)
    p.add_argument("--reject-fraction", type=float, default=0.9)
    p.set_defaults(run=cmd_bench)

    for command in sub.choices.values():
        command.add_argument("--config", help="JSON file of default flag values for this command")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="hoot: %(message)s", force=True)
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_apply_config_file(parser, argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ConfigError as exc:  # an unreadable or malformed config file
        print(f"hoot: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    try:
        return args.run(args)
    except UsageError as exc:
        print(f"hoot {args.command}: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (HootError, ValueError, OSError) as exc:
        print(f"hoot {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
