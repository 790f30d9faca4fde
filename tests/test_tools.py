"""The benchmark scripts under tools/ against the package they measure, so a
change of the package's API breaks a test rather than a script."""

import functools
import hashlib
import os
from pathlib import Path

import pytest

import hodge_domains

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SRC = Path(hodge_domains.__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def tools_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))


def test_stage_peaks_measures_every_export_stage():
    import bench_mesh

    peak, kept = bench_mesh.stage_peaks(1)
    stages = ["export_text", "gluing_pattern", "mesh_geometry", "subdivide", "three_color"]
    assert sorted(peak) == sorted(kept) == stages
    assert all(peak[name] >= 0 for name in stages)


def test_run_python_times_a_fresh_process(tmp_path):
    from benchenv import run_python

    wall, rss_mb = run_python(SRC, ["-c", "pass"], tmp_path)
    assert 0 < wall < 60 and rss_mb > 0
    with pytest.raises(SystemExit, match="exited 3"):
        run_python(SRC, ["-c", "raise SystemExit(3)"], tmp_path)


def test_run_python_sends_stdout_to_the_sink(tmp_path):
    from benchenv import run_python

    with open(tmp_path / "out.txt", "wb") as sink:
        run_python(SRC, ["-c", "import os, hodge_domains; print(os.getcwd())"], tmp_path, stdout=sink)
    assert (tmp_path / "out.txt").read_text() == f"{os.path.realpath(tmp_path)}\n"


def test_bench_flags_times_each_case_at_a_tiny_size(tmp_path):
    import bench_flags

    assert 0 < bench_flags.suite_seconds((1, 1, 1)) < 60
    assert 0 < bench_flags.suite_seconds((1, 1, 1), "_suite_higgs", 2) < 60
    assert 0 < bench_flags.suite_seconds((1, 1, 1), "_suite_pi2") < 60
    assert 0 < bench_flags.pair_seconds(SRC, (1, 1, 1), 2, tmp_path) < 60


def test_bench_planes_times_both_loops_at_a_tiny_size():
    import bench_planes
    from hodge_domains.horizontal import verify_pu2n_criterion

    suite = functools.partial(verify_pu2n_criterion, record=None)
    for fn in (bench_planes.bare_draws, suite):
        assert 0 < bench_planes.per_sample_us(fn, 1, 16, 0) < 60e6


def test_bench_verify_digests_stdout_and_the_classify_stream(tmp_path):
    import bench_verify

    code = "import sys; print('doc'); open(sys.argv[2], 'w').write('line\\n')"
    wall, mb, digests = bench_verify.run_command(SRC, ["-c", code, "--classify-out", "planes.jsonl"], tmp_path)
    assert 0 < wall < 60 and mb > 0
    assert digests == {"stdout.json": hashlib.sha256(b"doc\n").hexdigest(),
                       "planes.jsonl": hashlib.sha256(b"line\n").hexdigest()}
