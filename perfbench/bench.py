"""Benchmark of the hodge-domains command line, run the way a user runs it.

Untraced (``--trace 0``): every command of a workload runs as a fresh,
single-threaded ``python -m hodge_domains.cli`` process, one at a time, and
the workload repeats until ``--seconds`` is used up (at least twice).  Prints
run_s, setup_s, peak_rss_mb and pass_ratio.

Traced (``--trace 1``): the same commands run once inside this process
untraced, then once under ``tracer.Tracer``; prints the per-layer metrics and
the tracing overhead.

Every output is checked: a command fails on a non-zero exit, a verify
document with ``"all_passed": false``, item counts other than the workload
declares, or output bytes that differ from ``reference.json`` (taken at the
default seed) or, for other seeds, from the first repeat in the run.

    python3 perfbench/bench.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Workloads are defined in workloads.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 0  # the seed reference.json was taken at

SETUP_PROBES = 2  # timed fresh imports before each repetition; setup_s is their median
COMMAND_TIMEOUT_S = 150
ITEM_KEYS = ("flags", "fields", "planes", "faces")
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]  # arguments after ``python -m hodge_domains.cli``
    files: tuple[str, ...]  # files it writes, relative to the work directory
    items: tuple[tuple[str, int], ...]  # work its output must report, see ITEM_KEYS


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]


def load_spec() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def workload(spec: dict, name: str, seed: int) -> Workload:
    commands = tuple(
        Command(
            argv=tuple(a.replace("{seed}", str(seed)) for a in c["argv"]),
            files=tuple(c.get("files", ())),
            items=tuple(sorted(c["items"].items())),
        )
        for c in spec["workloads"][name]["commands"]
    )
    return Workload(name, commands)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _work_reported(argv: tuple[str, ...], stdout: bytes, outputs: dict[str, bytes]) -> tuple[dict, bool]:
    """(item counts, suites passed) as a command's own output reports them."""
    items = dict.fromkeys(ITEM_KEYS, 0)
    if argv[0] == "verify":
        doc = json.loads(stdout)
        suites = {s["name"]: s for s in doc["suites"] if s["applicable"]}
        items["flags"] = suites.get("flags", {}).get("details", {}).get("flags", 0)
        items["fields"] = suites.get("higgs_rank_one", {}).get("details", {}).get("fields", 0)
        items["planes"] = suites.get("pu2n_criterion", {}).get("details", {}).get("samples", 0)
        return items, doc["all_passed"] is True
    for data in outputs.values():
        lines = data.split(b"\n", 2)
        if lines[0] == b"OFF":
            items["faces"] += int(lines[1].split()[1])
    return items, True


class OutputCheck:
    """Decides whether one command's outputs are correct."""

    def __init__(self, reference: dict[str, dict[str, str]]):
        self.reference = reference  # " ".join(argv) -> {"stdout" | file name: sha256}
        self.first_seen: dict[str, dict[str, str]] = {}

    def failure(self, cmd: Command, code: int, stdout: bytes, workdir: Path) -> str | None:
        """A reason the command failed, or None."""
        if code != 0:
            return f"exit code {code}"
        missing = [f for f in cmd.files if not (workdir / f).is_file()]
        if missing:
            return f"missing output {missing}"
        outputs = {f: (workdir / f).read_bytes() for f in cmd.files}
        try:
            items, passed = _work_reported(cmd.argv, stdout, outputs)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        if not passed:
            return '"all_passed" is false'
        expected = dict.fromkeys(ITEM_KEYS, 0) | dict(cmd.items)
        if items != expected:
            return f"reported work {items}, expected {expected}"
        digests = {"stdout": _sha256(stdout)} | {f: _sha256(d) for f, d in outputs.items()}
        key = " ".join(cmd.argv)
        if key in self.reference:
            if digests != self.reference[key]:
                return "output bytes differ from reference.json"
        elif digests != self.first_seen.setdefault(key, digests):
            return "output bytes differ from the first repeat"
        return None


# ---------------------------------------------------------------------------
# Untraced: one fresh process per command.
# ---------------------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], workdir: Path, env: dict[str, str]) -> tuple[float, int, float, bytes]:
    """Run one process to completion: (wall seconds, exit code, max RSS in MB, stdout)."""
    with open(workdir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024, out


def _report_failure(cmd: Command, problem: str, stderr: str = "") -> None:
    print(f"FAILED {' '.join(cmd.argv)}: {problem}\n{stderr[-2000:]}", file=sys.stderr)


def measure(wl: Workload, seconds: float, workdir: Path, check: OutputCheck) -> tuple[dict, int, int]:
    """Samples of each end-to-end timing, commands attempted, commands failed."""
    env = _child_env()
    deadline = time.perf_counter() + seconds
    probe = [sys.executable, "-c", "import hodge_domains.cli"]
    _, code, _, _ = spawn(probe, workdir, env)  # warm-up: bytecode and file cache
    if code != 0:
        raise SystemExit(f"bench: cannot import hodge_domains.cli from {SRC}")
    setup: list[float] = []
    run_s: list[float] = []
    rss: list[float] = []
    longest = 0.0
    attempted = failed = 0
    while True:
        started = time.perf_counter()
        # Probes spread over the run see the same host conditions as run_s.
        setup += [spawn(probe, workdir, env)[0] for _ in range(SETUP_PROBES)]
        total = peak = 0.0
        for cmd in wl.commands:
            for f in cmd.files:
                (workdir / f).unlink(missing_ok=True)
            wall, code, rss_mb, out = spawn(
                [sys.executable, "-m", "hodge_domains.cli", *cmd.argv], workdir, env)
            attempted += 1
            problem = check.failure(cmd, code, out, workdir)
            if problem:
                failed += 1
                _report_failure(cmd, problem, (workdir / "stderr.txt").read_text(errors="replace"))
            total += wall
            peak = max(peak, rss_mb)
        run_s.append(total)
        rss.append(peak)
        longest = max(longest, time.perf_counter() - started)
        if len(run_s) >= 2 and time.perf_counter() + longest > deadline:
            break
    return {"run_s": run_s, "setup_s": setup, "peak_rss_mb": rss}, attempted, failed


# ---------------------------------------------------------------------------
# Traced: the same commands in this process, plain and then under the tracer.
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _cwd(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def _in_process(cli, wl: Workload, workdir: Path, check: OutputCheck) -> tuple[float, int, int]:
    """(seconds inside cli.main, bytes written, commands failed) for one pass."""
    seconds = 0.0
    written = failed = 0
    with _cwd(workdir):
        for cmd in wl.commands:
            for f in cmd.files:
                (workdir / f).unlink(missing_ok=True)
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                t0 = time.perf_counter()
                try:
                    code = cli.main(list(cmd.argv))
                except Exception:  # a crashing command is a failed command
                    traceback.print_exc()
                    code = -1
                seconds += time.perf_counter() - t0
            out = buffer.getvalue().encode()
            problem = check.failure(cmd, code, out, workdir)
            if problem:
                failed += 1
                _report_failure(cmd, problem)
            written += len(out) + sum((workdir / f).stat().st_size for f in cmd.files
                                      if (workdir / f).is_file())
    return seconds, written, failed


def trace(wl: Workload, workdir: Path, check: OutputCheck):
    """(per-layer metrics, commands attempted, commands failed, tracer)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from hodge_domains import cli

    from tracer import Tracer

    plain_s, _, failed_plain = _in_process(cli, wl, workdir, check)
    tracer = Tracer()
    try:
        tracer.install()
        traced_s, written, failed_traced = _in_process(cli, wl, workdir, check)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["cli.bytes_out"] = written
    metrics["trace.wall_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - plain_s
    return metrics, 2 * len(wl.commands), failed_plain + failed_traced, tracer


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")  # within the samples
    return q[0], q[2]


def run(wl: Workload, seconds: float, traced: bool, workdir: Path, reference: dict) -> dict:
    """Run one workload and return its result object; prints one line per metric."""
    workdir.mkdir(parents=True, exist_ok=True)
    check = OutputCheck(reference)
    if traced:
        from tracer import PER_LAYER_UNITS

        values, attempted, failed, _ = trace(wl, workdir, check)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
        for name, metric in metrics.items():
            print(f"{wl.name}  {name} = {metric['value']:.6g} {metric['unit']}")
    else:
        samples, attempted, failed = measure(wl, seconds, workdir, check)
        metrics = {}
        for name, values in samples.items():
            median = statistics.median(values)
            p25, p75 = _quartiles(values)
            unit = END_TO_END_UNITS[name]
            metrics[name] = {"value": median, "unit": unit}
            print(f"{wl.name}  {name} = {median:.4f} {unit} "
                  f"(median; p25 {p25:.4f}, p75 {p75:.4f}; n={len(values)})")
        ratio = (attempted - failed) / attempted
        metrics["pass_ratio"] = {"value": ratio, "unit": "ratio"}
        print(f"{wl.name}  pass_ratio = {ratio:.4f} ratio "
              f"(fail_ratio {failed / attempted:.4f}; n={attempted} commands)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = list(spec["workloads"])
    parser = argparse.ArgumentParser(prog="bench.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="run length (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hodge_domains" / "cli.py").is_file():
        print(f"bench: {SRC / 'hodge_domains'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 1
    reference = json.loads((HERE / "reference.json").read_text())
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    chosen = names if args.workload == "all" else [args.workload]
    results = {
        name: run(workload(spec, name, args.seed), args.seconds, bool(args.trace), WORKDIR, reference)
        for name in chosen
    }
    if len(results) == 1:
        summary = results[chosen[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
