"""Wall time and memory of the two `verify` commands of the benchmark workloads.

For each command this records ``wall_s`` and ``max_rss_mb``: the median over
repeats of the wall time and the maximum resident set size of one fresh
``python3 -m hodge_domains.cli verify ...`` process.  Each repeat runs every
command once, in turn, so host drift hits all alike.  It also records the
SHA-256 of each command's stdout (and of its ``--classify-out`` stream), which
must be the same in every repeat, so two BENCH files show whether two trees
print the same bytes.

A child's maximum RSS, as ``wait4`` reports it, also counts the copy of this
process that the child was before it exec'd Python, so no command reads lower
than this process's own size.  The ``python -c pass`` entry measures that
floor the same way.

The JSON written holds the git revision of the measured sources (with a
``dirty`` flag), the Python and numpy versions and ``nproc``.

    python3 tools/bench_verify.py [--src DIR] [--out PATH]

``--src`` is the ``src`` directory whose ``hodge_domains`` is measured
(default: this checkout's); ``--out`` defaults to ``BENCH_verify.json`` at the
root of this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import tempfile
from pathlib import Path

from benchenv import environment, run_python

ROOT = Path(__file__).resolve().parent.parent
CLI = ["-m", "hodge_domains.cli"]
COMMANDS = {  # the arguments after python3
    "verify-planes": [*CLI, "verify", "--ranks", "1,2,1", "--seed", "0", "--samples", "8000",
                      "--classify-out", "planes.jsonl"],
    "verify-flags": [*CLI, "verify", "--ranks", "4,1,4,1,4", "--seed", "0", "--samples", "200"],
    "python -c pass": ["-c", "pass"],
}
REPEATS = 7


def run_command(src: Path, argv: list[str], workdir: Path) -> tuple[float, float, dict]:
    """(wall seconds, max RSS in MB, SHA-256 of each output) of one fresh process."""
    stdout = workdir / "stdout.json"
    with open(stdout, "wb") as sink:
        wall, mb = run_python(src, argv, workdir, stdout=sink)
    outputs = [stdout] + [workdir / argv[i + 1] for i, a in enumerate(argv) if a == "--classify-out"]
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in outputs}
    return wall, mb, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_verify.json")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    walls = {name: [] for name in COMMANDS}
    rss = {name: [] for name in COMMANDS}
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        run_python(src, ["-c", "import hodge_domains.cli"], Path(tmp))  # warm-up: bytecode and file cache
        for _ in range(REPEATS):
            for name, command in COMMANDS.items():
                wall, mb, outputs = run_command(src, command, Path(tmp))
                if digests.setdefault(name, outputs) != outputs:
                    raise SystemExit(f"{name}: the output differs between repeats")
                walls[name].append(round(wall, 3))
                rss[name].append(round(mb, 1))
    results = {}
    for name, command in COMMANDS.items():
        results[name] = {
            "argv": command,
            "wall_s": round(statistics.median(walls[name]), 3),
            "max_rss_mb": round(statistics.median(rss[name]), 1),
            "wall_runs_s": walls[name],
            "max_rss_runs_mb": rss[name],
            "outputs_sha256": digests[name],
        }
        print(f"{name}: {results[name]['wall_s']} s, {results[name]['max_rss_mb']} MB", file=sys.stderr)
    doc = {
        "what": "wall time and max RSS of fresh `verify` processes (the verify commands of the benchmark"
                " workloads) and of `python -c pass`, the floor of the max RSS as measured here",
        "unit": "s and MB (2**20 bytes); medians of repeats",
        "repeats": REPEATS,
        **environment(src),
        "results": results,
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
