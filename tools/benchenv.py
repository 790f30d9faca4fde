"""What the ``tools/bench_*.py`` scripts share: the environment block that
each writes into its ``BENCH_*.json`` (the git revision of the measured
sources, the Python and numpy versions and ``nproc``), and the wall time and
maximum RSS of one fresh Python process."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from pathlib import Path


def run_python(src: Path, argv: list[str], workdir: Path, stdout=subprocess.DEVNULL) -> tuple[float, float]:
    """(wall seconds, max RSS in MB) of one fresh ``python3 *argv`` process
    run in workdir, with src as its PYTHONPATH and its stdout sent to stdout.
    Exits naming argv if the process fails.

    The max RSS, as ``wait4`` reports it, also counts the copy of this
    process that the child was before it exec'd Python."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=workdir, env=env, stdout=stdout)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait for it
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024


def environment(src: Path) -> dict:
    """The "git", "python", "numpy" and "nproc" entries of a BENCH document
    measuring the sources under src.  numpy is imported here, so call this
    after every measurement: a child's max RSS counts what its parent held
    when it was spawned."""
    import numpy

    def git(*argv: str) -> str:
        return subprocess.run(["git", "-C", str(src), *argv], capture_output=True, text=True, check=True).stdout

    return {
        "git": {"revision": git("rev-parse", "HEAD").strip(),
                "dirty": bool(git("status", "--porcelain", "--", ".").strip())},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
