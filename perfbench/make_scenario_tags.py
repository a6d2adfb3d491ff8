"""Regenerate ``scenario_tags.json``: plain-tag triples for censor-scenario.

    python3 perfbench/make_scenario_tags.py

Each triple is (target, cover, unrelated, short tag). Target and cover
collide on the 16-bit short tag under the memory-hard KDF at work 2^14;
the unrelated tag does not. A birthday search between two name
families finds many such pairs for a few thousand scrypt runs, where
finding a collision for one given tag would cost about 2^16 of them.
The derivation is written out here from the protocol (scrypt under the
fixed salt ``hoot.tag.v1``), not imported from ``hoot``.
"""

import hashlib
import json
from pathlib import Path

K = 16
WANTED = 256


def short_tag(name: str) -> int:
    digest = hashlib.scrypt(
        name.encode("utf-8"), salt=b"hoot.tag.v1", n=2**14, r=1, p=1, maxmem=1 << 25, dklen=20
    )
    return int.from_bytes(digest[:4], "big") >> (32 - K)


def main() -> None:
    targets: dict[int, str] = {}
    covers: dict[int, str] = {}
    pairs: list[tuple[str, str, int]] = []
    used = set()
    i = 0
    while len(pairs) < WANTED:
        target, cover = f"assembly-{i}", f"fan-club-{i}"
        for name, own, other, is_target in ((target, targets, covers, True), (cover, covers, targets, False)):
            value = short_tag(name)
            own.setdefault(value, name)
            match = other.get(value)
            if match is not None and value not in used:
                used.add(value)
                pairs.append((name, match, value) if is_target else (match, name, value))
        i += 1
    triples = []
    j = 0
    for target, cover, value in pairs:
        while short_tag(f"picnic-{j}") == value:
            j += 1
        triples.append([target, cover, f"picnic-{j}", value])
        j += 1
    path = Path(__file__).with_name("scenario_tags.json")
    path.write_text("[\n" + ",\n".join(json.dumps(t) for t in triples) + "\n]\n")


if __name__ == "__main__":
    main()
