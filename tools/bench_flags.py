"""Time of the flags and Higgs suites of `verify`, in process and in fresh
processes.

This records:

* ``suite_s``: in this process, the wall time of ``cli._suite_flags`` at
  seed 0 and 10 samples (10 flags) for the ranks (4,1,4,1,4), (10,10) and
  (1,18,1): perturbed flags, their membership and projection, a block
  h-unitary moving each flag, and the wire round trip;
* ``higgs_s``: in this process, the wall time of ``cli._suite_higgs`` at
  (4,1,4,1,4), seed 0 and 200 samples (400 fields, as the verify-flags
  benchmark workload draws them);
* ``pi2_s``: in this process, the wall time of ``cli._suite_pi2`` (the
  closed-form sphere classes against the relation closure, and the kernel
  certificate) for the ranks (4,1,4,1,4) and (1,)*20;
* ``verify_s``: the wall time of one fresh ``python3 -m hodge_domains.cli
  verify --ranks R --seed 0 --samples 10`` process for (1,18,1) and (10,10),
  every suite included;
* ``pair_s``: the wall time of the verify-flags workload's two commands,
  ``report --ranks 4,1,4,1,4`` and ``verify --ranks 4,1,4,1,4 --seed 0
  --samples 200``, each in a fresh process, summed.

Each repeat runs every case once, in turn, so host drift hits all cases
alike.  Each figure is the median of the repeats, in seconds.  The JSON
written holds the git revision of the measured sources (with a ``dirty``
flag), the Python and numpy versions and ``nproc``.

    python3 tools/bench_flags.py [--src DIR] [--out PATH]

``--src`` is the ``src`` directory whose ``hodge_domains`` is measured
(default: this checkout's); ``--out`` defaults to ``BENCH_flags.json`` at the
root of this checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from benchenv import environment, run_python

ROOT = Path(__file__).resolve().parent.parent
SUITE_RANKS = ((4, 1, 4, 1, 4), (10, 10), (1, 18, 1))
VERIFY_RANKS = ((1, 18, 1), (10, 10))
WORKLOAD_RANKS = (4, 1, 4, 1, 4)  # the verify-flags benchmark workload's
PI2_RANKS = (WORKLOAD_RANKS, (1,) * 20)
SEED = 0
SAMPLES = 10
WORKLOAD_SAMPLES = 200
REPEATS = 5


def suite_seconds(ranks: tuple, suite: str = "_suite_flags", samples: int = SAMPLES) -> float:
    """Wall seconds of one in-process run of the named suite of cli."""
    from hodge_domains import cli
    from hodge_domains.hodge import HodgeNumbers

    cfg = cli.RunConfig(ranks=HodgeNumbers(ranks), seed=SEED, samples=samples)
    start = time.perf_counter()
    passed, _ = getattr(cli, suite)(cfg)
    elapsed = time.perf_counter() - start
    if not passed:
        raise SystemExit(f"{suite} failed at {ranks}")
    return elapsed


def verify_seconds(src: Path, ranks: tuple, workdir: Path) -> float:
    """Wall seconds of one fresh `verify` process."""
    argv = ["-m", "hodge_domains.cli", "verify", "--ranks", label(ranks), "--seed", str(SEED), "--samples", str(SAMPLES)]
    return run_python(src, argv, workdir)[0]


def pair_seconds(src: Path, ranks: tuple, samples: int, workdir: Path) -> float:
    """Wall seconds of fresh `report` and `verify` processes at ranks, summed."""
    report = ["-m", "hodge_domains.cli", "report", "--ranks", label(ranks)]
    verify = ["-m", "hodge_domains.cli", "verify", "--ranks", label(ranks), "--seed", str(SEED), "--samples", str(samples)]
    return run_python(src, report, workdir)[0] + run_python(src, verify, workdir)[0]


def label(ranks: tuple) -> str:
    return ",".join(map(str, ranks))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_flags.json")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))

    suite = {ranks: [] for ranks in SUITE_RANKS}
    verify = {ranks: [] for ranks in VERIFY_RANKS}
    higgs, pair = {WORKLOAD_RANKS: []}, {WORKLOAD_RANKS: []}
    pi2 = {ranks: [] for ranks in PI2_RANKS}
    with tempfile.TemporaryDirectory() as tmp:
        verify_seconds(src, (1, 1), Path(tmp))  # warm-up: bytecode and file cache
        for _ in range(REPEATS):
            for ranks in SUITE_RANKS:
                suite[ranks].append(round(suite_seconds(ranks), 3))
            higgs[WORKLOAD_RANKS].append(round(suite_seconds(WORKLOAD_RANKS, "_suite_higgs", WORKLOAD_SAMPLES), 3))
            for ranks in PI2_RANKS:
                pi2[ranks].append(round(suite_seconds(ranks, "_suite_pi2"), 4))
            for ranks in VERIFY_RANKS:
                verify[ranks].append(round(verify_seconds(src, ranks, Path(tmp)), 3))
            pair[WORKLOAD_RANKS].append(round(pair_seconds(src, WORKLOAD_RANKS, WORKLOAD_SAMPLES, Path(tmp)), 3))
    results = {"suite_s": {}, "higgs_s": {}, "pi2_s": {}, "verify_s": {}, "pair_s": {}}
    for key, runs in (("suite_s", suite), ("higgs_s", higgs), ("pi2_s", pi2), ("verify_s", verify), ("pair_s", pair)):
        for ranks, times in runs.items():
            results[key][label(ranks)] = {"median": round(statistics.median(times), 4), "runs": times}
            print(f"{key} {label(ranks)}: {statistics.median(times):.4f} s", file=sys.stderr)
    doc = {
        "what": "wall time of cli._suite_flags, cli._suite_higgs and cli._suite_pi2 in process, and of fresh "
                "`verify` processes and of the verify-flags workload's report + verify pair",
        "unit": "s, median of repeats",
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
