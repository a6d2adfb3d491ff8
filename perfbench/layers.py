"""Where the traced run records spans, and the per-layer metrics made from them.

Every per-layer metric describes one session: the workload's set-up plus
one unit of work (``cycle`` operations), averaged over the traced units.
Counts therefore repeat exactly for a given seed; times are seconds of
self time. A layer that the workload does not reach reads 0.
"""

from __future__ import annotations

import statistics

from tracing import percentile, self_times

PARSE_KINDS = ("no-tag", "bad-tag", "payload-length", "bad-alphabet")

# name -> unit; the order and units match BENCHMARK.json's per_layer list
PER_LAYER = {
    "tagcrypt.derive_memory_hard.calls": "count",
    "tagcrypt.derive_memory_hard.self_s": "s",
    "tagcrypt.derive_fast.calls": "count",
    "tagcrypt.derive_fast.self_s": "s",
    "tagcrypt.seal.calls": "count",
    "tagcrypt.seal.self_s": "s",
    "wire.encode.calls": "count",
    "wire.encode.self_s": "s",
    "tagcrypt.open.calls": "count",
    "tagcrypt.open.self_s": "s",
    "tagcrypt.open.p50_us": "us",
    "tagcrypt.open.p99_us": "us",
    "tagcrypt.open.hit_ratio": "ratio",
    "wire.parse.calls": "count",
    "wire.parse.self_s": "s",
    "wire.parse.p50_us": "us",
    **{f"wire.parse.rejects.{kind}": "count" for kind in PARSE_KINDS},
    "wire.parse.rejects.other": "count",
    "feed.post.calls": "count",
    "feed.post.self_s": "s",
    "feed.post.accepted_ratio": "ratio",
    "feed.decide.calls": "count",
    "feed.decide.self_s": "s",
    "collider.find_tag.calls": "count",
    "collider.find_tag.self_s": "s",
    "collider.candidates": "count",
    "collider.match_ratio": "ratio",
    "collider.shard_skew": "ratio",
    "analysis.anonymity_report.calls": "count",
    "analysis.anonymity_report.self_s": "s",
    "analysis.buckets": "count",
    "trace.overhead_frac": "ratio",
}


def _kdf_mode(args, kwargs, result, exc):
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    return "fast-hash" if cfg is None else cfg.mode.value


def _hit(args, kwargs, result, exc):
    return result is not None


def _parse_kind(args, kwargs, result, exc):
    return None if exc is None else getattr(exc, "kind", type(exc).__name__)


def _accepted(args, kwargs, result, exc):
    return result is not None and result.accepted


def _search(args, kwargs, result, exc):
    spec = args[0] if args else kwargs["spec"]
    if result is None:
        return (0, 0, spec.k)
    return (result.candidates_tried, len(result.matches), spec.k)


def _buckets(args, kwargs, result, exc):
    return None if result is None else len(result.buckets)


def install(tracer, hoot) -> None:
    """Wrap the public functions through which the layers call each other."""
    tagcrypt, wire, feed, collider, analysis = hoot.tagcrypt, hoot.wire, hoot.feed, hoot.collider, hoot.analysis
    for fn, name, note in (
        (tagcrypt.derive_long_tag, "tagcrypt.derive", _kdf_mode),
        (tagcrypt.seal, "tagcrypt.seal", None),
        (tagcrypt.open_with_material, "tagcrypt.open", _hit),
        (wire.encode, "wire.encode", None),
        (wire.parse, "wire.parse", _parse_kind),
        (feed.run_scenario, "feed.run_scenario", None),
        (collider.find_tag, "collider.find_tag", _search),
        (collider.find_tag_sharded, "collider.find_tag_sharded", None),
        (analysis.anonymity_report, "analysis.anonymity_report", _buckets),
    ):
        tracer.patch_function("hoot", fn, name, note)
    tracer.patch_method(feed.Feed, "post", "feed.post", _accepted)
    tracer.patch_method(feed.CensorPolicy, "decide", "feed.decide", None)


def layer_metrics(spans, setup_run: str, unit_runs: list[str], overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics of one session, from the spans of a traced run."""
    selfs = self_times(spans)
    units = set(unit_runs)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def session(name, keep=lambda s: True, value=lambda s: 1):
        setup = work = 0
        for s in by_name.get(name, ()):
            if keep(s):
                if s.run == setup_run:
                    setup += value(s)
                elif s.run in units:
                    work += value(s)
        return setup + work / len(unit_runs)

    def durations_us(name):
        return [s.duration * 1e6 for s in by_name.get(name, ())]

    out: dict[str, float] = {}
    for key, name, note in (
        ("tagcrypt.derive_memory_hard", "tagcrypt.derive", "memory-hard"),
        ("tagcrypt.derive_fast", "tagcrypt.derive", "fast-hash"),
        ("tagcrypt.seal", "tagcrypt.seal", None),
        ("wire.encode", "wire.encode", None),
        ("tagcrypt.open", "tagcrypt.open", None),
        ("wire.parse", "wire.parse", None),
        ("feed.post", "feed.post", None),
        ("feed.decide", "feed.decide", None),
        ("collider.find_tag", "collider.find_tag", None),
        ("analysis.anonymity_report", "analysis.anonymity_report", None),
    ):
        keep = (lambda s: True) if note is None else (lambda s, note=note: s.note == note)
        out[f"{key}.calls"] = session(name, keep)
        out[f"{key}.self_s"] = session(name, keep, lambda s: selfs[s.id])

    opens = by_name.get("tagcrypt.open", [])
    out["tagcrypt.open.p50_us"] = percentile(durations_us("tagcrypt.open"), 0.50)
    out["tagcrypt.open.p99_us"] = percentile(durations_us("tagcrypt.open"), 0.99)
    out["tagcrypt.open.hit_ratio"] = sum(s.note is True for s in opens) / len(opens) if opens else 0.0
    out["wire.parse.p50_us"] = percentile(durations_us("wire.parse"), 0.50)
    for kind in PARSE_KINDS:
        out[f"wire.parse.rejects.{kind}"] = session("wire.parse", lambda s, kind=kind: s.note == kind)
    out["wire.parse.rejects.other"] = session(
        "wire.parse", lambda s: s.note is not None and s.note not in PARSE_KINDS
    )
    posts = by_name.get("feed.post", [])
    out["feed.post.accepted_ratio"] = sum(s.note is True for s in posts) / len(posts) if posts else 0.0

    searches = by_name.get("collider.find_tag", [])
    out["collider.candidates"] = session("collider.find_tag", value=lambda s: s.note[0])
    expected = sum(s.note[0] / 2 ** s.note[2] for s in searches)
    out["collider.match_ratio"] = sum(s.note[1] for s in searches) / expected if expected else 0.0
    skews = []
    for coordinator in by_name.get("collider.find_tag_sharded", ()):
        shards = [s.duration for s in searches if s.parent == coordinator.id]
        if shards and sum(shards) > 0:
            skews.append(max(shards) / (sum(shards) / len(shards)))
    out["collider.shard_skew"] = statistics.median(skews) if skews else 0.0

    buckets = [s.note for s in by_name.get("analysis.anonymity_report", ()) if s.note is not None]
    out["analysis.buckets"] = statistics.median(buckets) if buckets else 0.0
    out["trace.overhead_frac"] = overhead_frac
    return {name: out[name] for name in PER_LAYER}
