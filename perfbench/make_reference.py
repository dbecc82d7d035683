"""Regenerate reference.json: per-point reference values for every workload.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload's scenario once per seed in run.REFERENCE_SEEDS and
stores, per point, the mean, the across-seed standard deviation and the
seed count.  Regenerate only when a workload's configuration changes; a
change to the program is checked against the stored values, not a new set.
"""

from __future__ import annotations

import json
import sys
import time

import reference
import run


def main(argv: list[str]) -> int:
    names = argv or sorted(run.WORKLOADS)
    sys.path.insert(0, str(run.SRC))
    from diffcsi import harness

    try:
        with open(reference.REFERENCE_FILE, encoding="utf-8") as fh:
            refs = json.load(fh)
    except FileNotFoundError:
        refs = {}
    for name in names:
        samples = []
        for seed in run.REFERENCE_SEEDS:
            cfg = harness.ExperimentConfig(**run.config_overrides(name, seed))
            t0 = time.perf_counter()
            samples.append(reference.points(cfg.scenario, harness.run_scenario(cfg)))
            print(f"{name} seed {seed}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
        refs[name] = reference.build(samples)
    with open(reference.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
