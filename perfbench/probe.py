"""One workload's program set-up, in a fresh interpreter.

    python3 perfbench/probe.py '<json set-up spec>'

Imports ``hoot`` from the checkout's ``src/``, does the set-up a user of
that workload pays once (derive tag material, load a scenario, resolve
search targets, load a corpus) and prints ``ready <seconds>``: the time
from this file's first line to ready, which ``run.py`` reports as
``setup_s``. The interpreter's own start-up is left out: no change to
``hoot`` can move it, and on a shared host it is the noisiest part.
``run.py`` also calls ``set_up`` itself to get the state its timed loop
works on.
"""

import time

BEGAN = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def set_up(spec: dict):
    workload = spec["workload"]
    if workload == "subscriber-filter":
        import hoot

        return hoot.derive_tag_material(hoot.PlainTag(spec["tag"]), hoot.MEMORY_HARD_KDF, spec["k"])
    if workload == "censor-scenario":
        from hoot.feed import load_scenario

        return load_scenario(spec["script"])
    if workload.startswith("collider-"):
        from hoot import PlainTag
        from hoot.collider import SearchMode, SearchSpec, resolve_target

        searches = [
            SearchSpec(
                prefix=spec["prefix"],
                target=PlainTag(target),
                suffix_length=spec["suffix_length"],
                alphabet=spec["alphabet"],
                mode=SearchMode(spec["mode"]),
                count=spec["count"],
                k=spec["k"],
                seed=seed,
            )
            for target in spec["targets"]
            for seed in spec["seeds"]
        ]
        for search in searches:
            resolve_target(search)
        return searches
    if workload == "corpus-report":
        from hoot.analysis import load_corpus

        return load_corpus(spec["corpus"])
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    set_up(json.loads(sys.argv[1]))
    print(f"ready {time.perf_counter() - BEGAN!r}", flush=True)
