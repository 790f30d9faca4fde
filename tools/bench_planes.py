"""Per-sample cost of the (1,n,1) regularity suite against its bare random draws.

For n = 1, 2 and 18 this times, in one process, two loops over the same
seeds:

* ``draws``: the random draws of the suite alone, one round per sample: the
  per-sample seeding, the unused ``choice`` and the ``randint`` pairs of both
  spanning vectors (n pairs each on every eighth sample, 2n otherwise), as
  ``verify_pu2n_criterion`` makes them;
* ``suite``: ``verify_pu2n_criterion(n, samples, seed, record=None)``.

The two alternate within each repeat, so host drift hits both alike.  Each
figure is the median of the repeats, in microseconds per sample, and
``ratio`` is the suite median over the draws median.  The JSON written holds
the git revision of the measured sources (with a ``dirty`` flag), the Python
and numpy versions and ``nproc``.

    python3 tools/bench_planes.py [--src DIR] [--out PATH]

``--src`` is the ``src`` directory whose ``hodge_domains`` is measured
(default: this checkout's); ``--out`` defaults to ``BENCH_planes.json`` at the
root of this checkout.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import statistics
import sys
import time
from pathlib import Path

from benchenv import environment

ROOT = Path(__file__).resolve().parent.parent
SIZES = (1, 2, 18)
SEED = 0
SAMPLES = 2000  # per repeat, as README's per-sample table has always been taken
REPEATS = 7


def bare_draws(n: int, samples: int, seed: int) -> None:
    rng = random.Random()
    for idx in range(samples):
        rng.seed(seed * 1_000_003 + idx)
        rng.choice((1, 1, 2, 3))
        for _ in range(2 * (n if idx % 8 == 7 else 2 * n)):
            rng.randint(-3, 3)
            rng.randint(-3, 3)


def per_sample_us(fn, n: int, samples: int, seed: int) -> float:
    start = time.perf_counter()
    fn(n, samples, seed)
    return (time.perf_counter() - start) / samples * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_planes.json")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))

    from hodge_domains.horizontal import verify_pu2n_criterion

    suite_fn = functools.partial(verify_pu2n_criterion, record=None)
    results = {}
    for n in SIZES:
        suite_fn(n, 50, SEED)  # fill the per-ranks caches before timing
        draws, suite = [], []
        for _ in range(REPEATS):
            draws.append(per_sample_us(bare_draws, n, SAMPLES, SEED))
            suite.append(per_sample_us(suite_fn, n, SAMPLES, SEED))
        d, s = statistics.median(draws), statistics.median(suite)
        results[str(n)] = {
            "draws_us": round(d, 2),
            "suite_us": round(s, 2),
            "ratio": round(s / d, 3),
            "draws_runs_us": [round(x, 2) for x in draws],
            "suite_runs_us": [round(x, 2) for x in suite],
        }
        print(f"n = {n}: draws {d:.2f} us, suite {s:.2f} us per sample, ratio {s / d:.2f}", file=sys.stderr)
    doc = {
        "what": "per-sample cost of verify_pu2n_criterion(n, samples, seed) and of its bare random draws",
        "unit": "us per sample, median of repeats",
        "samples": SAMPLES,
        "repeats": REPEATS,
        "seed": SEED,
        **environment(src),
        "results": results,
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
