"""Tests of the benchmark harness itself, on tiny workloads."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import tracer
from hodge_domains import domain, exactla

BENCH = Path(bench.__file__)
CONFIG = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

TINY = bench.Workload(
    "tiny",
    (
        bench.Command(
            ("verify", "--ranks", "1,1,1", "--seed", "3", "--samples", "10"),
            (),
            (("fields", 10), ("flags", 10), ("planes", 10)),
        ),
        bench.Command(("mesh", "--subdivisions", "1", "--out", "m.off"), ("m.off", "m.json"), (("faces", 32),)),
    ),
)
TINY_MESH = bench.Workload("tiny-mesh", TINY.commands[1:])


def _printed_with_units(result: dict, printed: str, declared: list[dict]) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"tiny  {name} = ") and f" {unit}" in line for line in printed.splitlines()), name


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return bench.trace(TINY, tmp_path_factory.mktemp("traced"), bench.OutputCheck({}))


def test_untraced_run_prints_every_end_to_end_metric(tmp_path, capsys):
    result = bench.run(TINY, 0, False, tmp_path, {})
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * len(TINY.commands)
    assert result["metrics"]["pass_ratio"]["value"] == 1
    _printed_with_units(result, capsys.readouterr().out, CONFIG["end_to_end"])


def test_traced_run_prints_every_per_layer_metric(tmp_path, capsys):
    result = bench.run(TINY, 0, True, tmp_path, {})
    assert result["correct"]
    _printed_with_units(result, capsys.readouterr().out, CONFIG["per_layer"])


def test_exactla_spans_nest_under_domain_spans(traced):
    metrics, _, failed, tr = traced
    assert failed == 0
    names = [tr.names[n] for n in tr.name_id]
    parents = [names[p] if p >= 0 else None for p in tr.parent]
    under_domain = {n for n, p in zip(names, parents) if n.startswith("exactla.") and p and p.startswith("domain.")}
    # reached through the names domain imported, not only through exactla's own
    assert {"exactla.rank", "exactla.hermitian_definiteness", "exactla.nullspace"} <= under_domain
    assert metrics["exactla.rank.calls"] > 0 and metrics["exactla.hermitian_definiteness.calls"] > 0
    # every binding is restored once the traced pass ends
    assert domain.rank is exactla.rank and not hasattr(exactla.rank, "__wrapped__")


def test_layer_self_time_within_traced_wall_time(traced):
    metrics = traced[0]
    total = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert 0 < total <= metrics["trace.wall_s"]
    assert all(metrics[f"{layer}.self_s"] >= 0 for layer in tracer.LAYERS)


def test_corrupted_reference_digest_fails_every_command(tmp_path, capsys):
    key = " ".join(TINY_MESH.commands[0].argv)
    reference = {key: {"stdout": "0" * 64, "m.off": "0" * 64, "m.json": "0" * 64}}
    result = bench.run(TINY_MESH, 0, False, tmp_path, reference)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert result["metrics"]["pass_ratio"]["value"] == 0  # fail_ratio 1
    assert "differ from reference.json" in capsys.readouterr().err


def test_repeats_must_match_byte_for_byte(tmp_path):
    cmd = bench.Command(("report", "--ranks", "1,1"), (), ())
    check = bench.OutputCheck({})
    assert check.failure(cmd, 0, b'{"a": 1}\n', tmp_path) is None
    assert check.failure(cmd, 0, b'{"a": 1}\n', tmp_path) is None
    assert "first repeat" in check.failure(cmd, 0, b'{"a": 2}\n', tmp_path)
    assert "exit code 1" == check.failure(cmd, 1, b"", tmp_path)


@pytest.mark.parametrize("args", [["--workload", "no-such-workload"], ["--seed", "1.5"]])
def test_bad_arguments_exit_2_without_traceback(args):
    proc = subprocess.run([sys.executable, str(BENCH), *args], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "invalid" in proc.stderr
    assert proc.stdout == ""


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "mesh-export", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
