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
    KdfMode,
    PlainTag,
    derive_tag_material,
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
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)  # a flag is taken only as written

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _apply_config_file(parser: _Parser, argv: list[str]) -> list[str]:
    """Fold `--config file.json` (or `--config=file.json`) defaults in ahead of explicit flags.

    A key whose flag the command line also gives is left out, so the explicit value stands alone.
    A null, array or object value is refused: no flag takes one.
    """
    argv = [part for arg in argv for part in (arg.split("=", 1) if arg.startswith("--config=") else [arg])]
    if "--config" not in argv:
        return argv
    index = argv.index("--config")
    try:
        path = argv[index + 1]
    except IndexError:
        parser.error("--config needs a file path")
    rest = argv[:index] + argv[index + 2 :]
    if "--config" in rest:
        parser.error("--config given more than once")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            defaults = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    if not isinstance(defaults, dict):
        raise ConfigError(f"config file {path} holds a JSON {type(defaults).__name__}, not an object")
    if "config" in defaults:
        raise ConfigError(f"config file {path} names another config file")
    given = {arg.partition("=")[0] for arg in rest if arg.startswith("--")}  # `--flag value` and `--flag=value`
    injected = []
    for key, value in defaults.items():
        kind = {type(None): "null", list: "array", dict: "object"}.get(type(value))
        if kind:  # no flag takes one, and str() would make it a value
            raise ConfigError(f"config file {path}: key {key!r} holds a JSON {kind}, which no flag takes")
        flag = "--" + key.replace("_", "-")
        if flag in given:  # an explicit flag replaces the file's value, even for a flag that appends
            continue
        if isinstance(value, bool):
            if value:
                injected.append(flag)
        else:
            injected.append(f"{flag}={value}")  # one token, so that a flag no command takes keeps its value
    # command words (`analyze` takes a report name too) first, then config-file defaults, then explicit flags
    words = 2 if rest[:1] == ["analyze"] else 1
    return rest[:words] + injected + rest[words:]


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
    if len(texts) > 1 and not need_many:
        raise UsageError(f"this command takes one plain tag, not {len(texts)}")
    return [PlainTag(t.removeprefix("#")) for t in texts]


def _wire_params(args) -> wire.WireParams:
    return wire.WireParams(k=args.k, glyph_budget=args.glyph_budget)


def _kdf(args) -> KdfConfig:
    """Build the KDF the flags name and log the effective configuration; only memory-hard reads a work."""
    mode = KdfMode.FAST_HASH if args.kdf == "fast" else KdfMode(args.kdf)
    kdf = KdfConfig(mode, args.kdf_work)
    kdf_text = kdf.mode.value if kdf.mode is KdfMode.FAST_HASH else f"{kdf.mode.value}(work={kdf.work})"
    budget_and_seed = getattr(args, "glyph_budget", None), getattr(args, "seed", None)
    log.info("config: k=%d kdf=%s glyph_budget=%s seed=%s", args.k, kdf_text, *budget_and_seed)
    return kdf


def cmd_seal(args) -> int:
    kdf = _kdf(args)
    tags = _gather_tags(args, need_many=True)
    message = sys.stdin.buffer.read() if args.message == "-" else args.message.encode("utf-8")
    rng = random.Random(args.seed) if args.seed is not None else None
    line = wire.seal_to_wire(message, tags, kdf, _wire_params(args), rng=rng)
    print(line)
    return EXIT_OK


def cmd_open(args) -> int:
    kdf = _kdf(args)
    tag = _gather_tags(args, need_many=False)[0]
    params = _wire_params(args)
    material = derive_tag_material(tag, kdf, params.k)
    stream = sys.stdin.buffer if args.file == "-" else open(args.file, "rb")
    limit = 4 * params.glyph_budget + 2  # UTF-8 bytes of a line within the budget, then CR LF
    matched = skipped = 0
    malformed = Counter()
    try:
        while raw := stream.readline(limit):
            if len(raw) == limit and not raw.endswith(b"\n"):  # too long whatever it holds; skip to its end
                while raw and not raw.endswith(b"\n"):
                    raw = stream.readline(limit)
                malformed["too-long"] += 1
                continue
            line = raw.decode("utf-8", errors="replace").strip()  # wire.parse refuses what did not decode
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
        if stream is not sys.stdin.buffer:
            stream.close()
    if args.stats:
        kinds = " ".join(f"{kind}={count}" for kind, count in sorted(malformed.items()))
        counts = f"matched={matched} skipped={skipped} malformed={malformed.total()}"
        print(f"{counts} ({kinds})" if kinds else counts, file=sys.stderr)
    return EXIT_OK


def cmd_collide(args) -> int:
    if args.mode != "first-n" and (args.count is not None or args.seed is not None):
        raise UsageError("--count and --seed need --mode first-n")
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
        count=1 if args.count is None else args.count,
        k=args.k,
        kdf=kdf,
        seed=args.seed or 0,
    )
    result = collider.find_tag(spec)
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
    kind, *numbers = text.split(":")
    kinds = {"dict": analysis.DictionaryWords, "digits": analysis.DecimalDigits, "glyphs": analysis.GlyphString}
    try:
        return kinds[kind](*map(int, numbers))
    except (KeyError, ValueError, TypeError):  # an unknown kind, a number that is not one, or too few or too many
        raise HootError(f"unknown namespace component {text!r} (use dict:N, digits:N, glyphs:SIZE:LEN)") from None


def _brute_force_lines(bits: float, rate: float, cores: int) -> str:
    budget = analysis.brute_force_time(bits, rate, cores)
    return (
        f"full_seconds={budget.full_seconds:.6g}\n"
        f"expected_seconds={budget.expected_seconds:.6g}\n"
        f"full_years={budget.full_years:.6g}\n"
    )


def cmd_analyze(args) -> int:
    if args.report == "entropy":
        if args.cores is not None and args.rate is None:
            raise UsageError("--cores needs --rate")
        spec = analysis.NamespaceSpec(tuple(_parse_component(c) for c in args.component))
        bits = analysis.entropy_bits(spec)
        cores = 1 if args.cores is None else args.cores
        brute_force = "" if args.rate is None else _brute_force_lines(bits, args.rate, cores)
        sys.stdout.write(f"entropy_bits={bits:.4f}\n" + brute_force)
    elif args.report == "brute-force":
        sys.stdout.write(_brute_force_lines(args.bits, args.rate, args.cores))
    elif args.report == "collision-prob":
        p = analysis.collision_probability(args.alphabet_size, args.tag_glyphs, args.suffix_len)
        print(f"probability={p:.10g}")
    elif args.report == "bandwidth":
        budget = analysis.bandwidth_budget(args.total_rate, args.k, args.link_bps, args.msg_bytes * 8)
        print(f"per_tag_per_second={budget.per_tag_per_second:.6g}")
        print(f"per_tag_per_minute={budget.per_tag_per_minute:.6g}")
        print(f"link_messages_per_second={budget.link_messages_per_second:.6g}")
    elif args.report == "report":
        corpus = analysis.load_corpus(args.corpus)
        report = analysis.anonymity_report(corpus, args.k, _kdf(args), top_buckets=args.top)
        sys.stdout.write(report.render())
        if args.rank_out:
            with open(args.rank_out, "w", encoding="utf-8") as handle:
                handle.write(report.rank_frequency_csv())
    elif args.report == "gen-corpus":
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
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, not {iterations}")
    if not 0 <= reject_fraction <= 1:  # NaN fails both comparisons
        raise ValueError(f"reject fraction must lie in [0, 1], not {reject_fraction}")
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
    parser.add_argument("--kdf-work", type=int, default=None, help="memory-hard KDF only")


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
    p.add_argument("--tag", action="append", help="plain tag (once)")
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
    p.add_argument("--count", type=int, default=None, help="matches wanted in first-n mode (default 1)")
    p.set_defaults(run=cmd_collide)

    p = sub.add_parser("simulate", help="run a feed/censor scenario script")
    p.add_argument("--seed", type=int, default=None,
                   help="sets the script's seed: it orders the posts and draws session keys; no printed figure depends on it")
    p.add_argument("script", help="scenario JSON file")
    p.add_argument("--json", action="store_true", help="emit stats as JSON")
    p.set_defaults(run=cmd_simulate)

    p = sub.add_parser("analyze", help="entropy, collision, bandwidth, and corpus reports")
    p.set_defaults(run=cmd_analyze)
    reports = p.add_subparsers(dest="report", required=True)
    p = reports.add_parser("entropy")
    p.add_argument("--component", action="append", required=True, help="dict:N | digits:N | glyphs:SIZE:LEN")
    p.add_argument("--rate", type=float)
    p.add_argument("--cores", type=int, default=None, help="with --rate only (default 1)")
    p = reports.add_parser("brute-force")
    p.add_argument("--bits", type=float, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--cores", type=int, default=1)
    p = reports.add_parser("collision-prob")
    p.add_argument("--alphabet-size", type=int, required=True)
    p.add_argument("--tag-glyphs", type=int, required=True)
    p.add_argument("--suffix-len", type=int, required=True)
    p = reports.add_parser("bandwidth")
    p.add_argument("--k", type=int, default=DEFAULT_K, help="short tag bits (default %(default)s)")
    p.add_argument("--total-rate", type=float, required=True)
    p.add_argument("--link-bps", type=float, required=True)
    p.add_argument("--msg-bytes", type=float, default=140)
    p = reports.add_parser("report")
    _add_k_and_kdf(p, "fast")
    p.add_argument("--corpus", required=True)
    p.add_argument("--top", type=int, default=None, help="truncate the report to N buckets")
    p.add_argument("--rank-out", help="write rank,count CSV here")
    p = reports.add_parser("gen-corpus")
    p.add_argument("--seed", type=int, default=None, help="deterministic randomness")
    p.add_argument("--tags", type=int, required=True)
    p.add_argument("--exponent", type=float, default=1.0)
    p.add_argument("--total", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="measure seal/open throughput")
    p.add_argument("--k", type=int, default=DEFAULT_K, help="short tag bits (default %(default)s)")
    p.add_argument("--seed", type=int, default=None, help="deterministic randomness")
    p.add_argument("--iterations", type=int, default=2000)
    p.add_argument("--reject-fraction", type=float, default=0.9)
    p.set_defaults(run=cmd_bench)

    for name, command in [*sub.choices.items(), *reports.choices.items()]:
        if name != "analyze":
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
