"""Wall time and memory of `mesh --subdivisions s`, end to end and stage by stage.

For s = 5, 6, 7 and 8 this records:

* ``wall_s`` and ``max_rss_mb``: the median over repeats of the wall time
  and the maximum resident set size of one fresh ``python3 -m
  hodge_domains.cli mesh --subdivisions s`` process.  Each repeat runs every
  s once, in turn, so host drift hits all sizes alike;
* ``stage_peak_mb``: in this process, under tracemalloc, the peak of each
  stage of the export above the memory traced when it starts:
  ``subdivide`` (the last subdivision, with the validation of the new mesh),
  ``three_color``, ``mesh_geometry``, ``gluing_pattern`` (with the
  ``color_pairs`` it glues) and ``export_text`` (the sidecar document and
  the OFF and sidecar text, consumed piece by piece).  ``stage_kept_mb`` is
  what each stage leaves allocated.

The JSON written holds the git revision of the measured sources (with a
``dirty`` flag), the Python and numpy versions and ``nproc``.

    python3 tools/bench_mesh.py [--src DIR] [--out PATH]

``--src`` is the ``src`` directory whose ``hodge_domains`` is measured
(default: this checkout's); ``--out`` defaults to ``BENCH_mesh.json`` at the
root of this checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path

from benchenv import environment, run_python

ROOT = Path(__file__).resolve().parent.parent
SIZES = (5, 6, 7, 8)
REPEATS = 5
MB = 1 << 20


def run_mesh(src: Path, s: int, workdir: Path) -> tuple[float, float]:
    """(wall seconds, max RSS in MB) of one fresh `mesh --subdivisions s` process."""
    return run_python(src, ["-m", "hodge_domains.cli", "mesh", "--subdivisions", str(s), "--out", "mesh.off"], workdir)


def stage_peaks(s: int) -> tuple[dict, dict]:
    """Traced peak and kept memory of each export stage at s subdivisions, in MB."""
    from hodge_domains import spheremesh, wire

    def gluing_pattern(tri, colors):
        pairs = spheremesh.color_pairs(tri, colors)
        spheremesh.gluing_pattern(tri, pairs)
        return pairs

    def export_text(tri, colors, centers, pairs):
        doc = spheremesh.sidecar_document(tri, colors, centers, pairs)
        for chunks in (spheremesh.off_chunks(tri), wire.indented_chunks(doc)):
            for _ in chunks:
                pass

    peak, kept = {}, {}

    def traced(name, fn, *args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        now, top = tracemalloc.get_traced_memory()
        peak[name], kept[name] = round((top - before) / MB, 1), round((now - before) / MB, 1)
        return result

    tri = spheremesh.octahedron()
    for _ in range(s - 1):
        tri = spheremesh.subdivide(tri)
    tracemalloc.start()
    tri = traced("subdivide", spheremesh.subdivide, tri)
    colors = traced("three_color", spheremesh.three_color, tri)
    centers = traced("mesh_geometry", spheremesh.mesh_geometry, tri)[0]
    pairs = traced("gluing_pattern", gluing_pattern, tri, colors)
    traced("export_text", export_text, tri, colors, centers, pairs)
    tracemalloc.stop()
    return peak, kept


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_mesh.json")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))

    walls = {s: [] for s in SIZES}
    rss = {s: [] for s in SIZES}
    with tempfile.TemporaryDirectory() as tmp:
        run_mesh(src, 0, Path(tmp))  # warm-up: bytecode and file cache
        for _ in range(REPEATS):
            for s in SIZES:
                wall, mb = run_mesh(src, s, Path(tmp))
                walls[s].append(round(wall, 3))
                rss[s].append(round(mb, 1))
    results = {}
    for s in SIZES:
        peak, kept = stage_peaks(s)
        results[str(s)] = {
            "faces": 8 * 4**s,
            "wall_s": round(statistics.median(walls[s]), 3),
            "max_rss_mb": round(statistics.median(rss[s]), 1),
            "wall_runs_s": walls[s],
            "max_rss_runs_mb": rss[s],
            "stage_peak_mb": peak,
            "stage_kept_mb": kept,
        }
        print(f"s = {s}: {results[str(s)]['wall_s']} s, {results[str(s)]['max_rss_mb']} MB; stage peaks {peak}",
              file=sys.stderr)
    doc = {
        "what": "wall time and max RSS of fresh `mesh --subdivisions s` processes; tracemalloc peak of each stage",
        "unit": "s and MB (2**20 bytes); wall time and max RSS are medians of repeats",
        "repeats": REPEATS,
        **environment(src),
        "results": results,
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
