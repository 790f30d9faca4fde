import hashlib
import json
import subprocess
import sys
import time

import pytest

import hodge_domains.pi2
from conftest import cli_env
from hodge_domains.cli import (
    EXIT_INVALID_INPUT,
    EXIT_OK,
    EXIT_RESOURCE_GUARD,
    EXIT_SUITE_FAILURE,
    RunConfig,
    ResourceGuardError,
    export_mesh,
    main,
    run_report,
    run_verify,
)
from hodge_domains.hodge import HodgeNumbers
from hodge_domains.pi2 import Pi2Class


def cfg_verify(ranks, seed=0, samples=50, **kw):
    return RunConfig(ranks=HodgeNumbers(ranks), seed=seed, samples=samples, **kw)


# -- report -----------------------------------------------------------------


def test_report_121():
    doc = run_report(RunConfig(ranks=HodgeNumbers((1, 2, 1))))
    assert doc["schema"] == "hodge-domains/1"
    assert doc["pi2"]["rank_domain"] == 1
    assert doc["superhorizontal"]["fully_generated"] is True
    assert doc["bracket_generation"]["ok"] is True


def test_report_111():
    doc = run_report(RunConfig(ranks=HodgeNumbers((1, 1, 1))))
    assert doc["domain"]["interior_rank_one"] is True
    assert doc["superhorizontal"]["generators"][0]["status"] == "unknown"


def test_report_131_dimension():
    doc = run_report(RunConfig(ranks=HodgeNumbers((1, 3, 1))))
    assert doc["domain"]["dim"] == 7


def test_report_cli_text_format(capsys):
    code = main(["report", "--ranks", "1,2,1", "--format", "text"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "ranks (1, 2, 1)" in out
    assert "fully_generated True" in out


def test_report_out_file(tmp_path):
    target = tmp_path / "report.json"
    code = main(["report", "--ranks", "2,1", "--out", str(target)])
    assert code == EXIT_OK
    doc = json.loads(target.read_text())
    assert doc["ranks"] == [2, 1]


# -- verify -----------------------------------------------------------------


def test_verify_121_all_pass():
    doc = run_verify(cfg_verify((1, 2, 1), seed=42, samples=60))
    assert doc["all_passed"]
    names = [s["name"] for s in doc["suites"]]
    assert names == [
        "dimensions",
        "pi2_calculus",
        "bracket_generation",
        "flags",
        "pu2n_criterion",
        "stabilizer_dimensions",
        "higgs_rank_one",
        "su22_embedding",
        "mesh",
    ]
    by_name = {s["name"]: s for s in doc["suites"]}
    assert not by_name["higgs_rank_one"]["applicable"]  # no interior rank-one block
    assert by_name["pu2n_criterion"]["applicable"]


def test_verify_111_n1_expectations():
    doc = run_verify(cfg_verify((1, 1, 1), seed=7, samples=80))
    assert doc["all_passed"]
    by_name = {s["name"]: s for s in doc["suites"]}
    pu = by_name["pu2n_criterion"]
    assert pu["passed"] and pu["details"]["found_regular_isotropic"] is False
    assert by_name["higgs_rank_one"]["applicable"]
    assert not by_name["su22_embedding"]["applicable"]


def test_verify_exit_codes_and_determinism(capsys):
    args = ["verify", "--ranks", "1,2,1", "--seed", "5", "--samples", "40"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert json.loads(out1)["all_passed"]


def test_verify_corrupted_oracle_fails(monkeypatch):
    def broken_oracle(pd):
        return {root: Pi2Class((0,) * pd.ranks.k) for root in pd.n_roots}

    monkeypatch.setattr(hodge_domains.pi2, "class_closure_oracle", broken_oracle)
    code = main(["verify", "--ranks", "1,1,1", "--samples", "10"])
    assert code == EXIT_SUITE_FAILURE


def test_verify_crashing_suite_fails(monkeypatch):
    def explode(pd):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(hodge_domains.pi2, "class_closure_oracle", explode)
    doc = run_verify(cfg_verify((1, 1)))
    assert not doc["all_passed"]
    by_name = {s["name"]: s for s in doc["suites"]}
    assert "synthetic failure" in by_name["pi2_calculus"]["details"]["error"]


def test_verify_classification_stream(tmp_path):
    stream = tmp_path / "planes.jsonl"
    doc = run_verify(cfg_verify((1, 2, 1), seed=9, samples=24, classify_out=str(stream)))
    assert doc["all_passed"]
    lines = stream.read_text().strip().split("\n")
    assert len(lines) == 24
    rec = json.loads(lines[0])
    assert set(rec) == {"seed", "isotropic", "regular", "complex_line"}


@pytest.mark.parametrize(
    "ranks, samples, stdout_sha256, planes_sha256",
    [
        ("1,2,1", "500", "7fde3c7f7605bbadceece0afca23d773d89bd68e8a1d2593a6f4ebc498b26166",
         "e545aa5929bb75d0225e40b80330c72c7f3ad8ea3d6fefe6781dc48d54ae807d"),
        ("1,18,1", "50", "80fa3d153f1978702465d4a4e21f70f1945284b0c51cfddfc56417719aa559fc",
         "c6fe16acfbe6c03260f2cafa2d1fb325b28fae29b38ab99d98cd7e7003e66e6f"),
    ],
    ids=["1,2,1", "1,18,1"],
)
def test_verify_planes_bytes_pinned(tmp_path, capsys, monkeypatch, ranks, samples, stdout_sha256, planes_sha256):
    # digests of the output before the plane path moved to Gaussian integers
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--ranks", ranks, "--seed", "0", "--samples", samples, "--classify-out", "planes.jsonl"]
    assert main(argv) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha256
    assert hashlib.sha256((tmp_path / "planes.jsonl").read_bytes()).hexdigest() == planes_sha256


def test_verify_out_file_and_text(tmp_path, capsys):
    target = tmp_path / "verify.txt"
    code = main(
        ["verify", "--ranks", "1,1", "--samples", "20", "--format", "text", "--out", str(target)]
    )
    assert code == EXIT_OK
    text = target.read_text()
    assert "[PASS] dimensions" in text
    assert "all passed" in text


def test_report_deterministic_bytes(capsys):
    args = ["report", "--ranks", "2,1,2"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


# -- resource guards and invalid input ------------------------------------------


def test_invalid_ranks_exit_2(capsys):
    assert main(["report", "--ranks", "1,0,1"]) == EXIT_INVALID_INPUT
    assert main(["report", "--ranks", "banana"]) == EXIT_INVALID_INPUT


def test_subdivision_guard_exit_3(tmp_path):
    assert main(["mesh", "--subdivisions", "9", "--out", str(tmp_path / "m.off")]) == EXIT_RESOURCE_GUARD


def test_samples_guard_exit_3():
    assert main(["verify", "--ranks", "1,1", "--samples", "2000000"]) == EXIT_RESOURCE_GUARD


def test_total_rank_guard_exit_3():
    with pytest.raises(ResourceGuardError):
        cfg_verify((11, 11))


def test_samples_must_be_positive():
    with pytest.raises(ValueError):
        cfg_verify((1, 1), samples=0)


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--ranks", "1,2,1", "--out", "x.json"],
        ["mesh", "--subdivisions", "1", "--out", "m.off"],
        ["verify", "--ranks", "1,2,1", "--samples", "4", "--classify-out", "x.jsonl"],
    ],
)
def test_unwritable_output_path_exit_2(tmp_path, capsys, argv):
    argv = argv[:-1] + [str(tmp_path / "missing" / argv[-1])]
    assert main(argv) == EXIT_INVALID_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid input: ") and err.count("\n") == 1


def test_unwritable_classify_out_fails_before_any_suite(tmp_path, capsys, monkeypatch):
    import hodge_domains.cli as cli

    ran = []
    monkeypatch.setattr(cli, "_SUITES", tuple((name, lambda cfg, name=name: ran.append(name)) for name, _ in cli._SUITES))
    argv = ["verify", "--ranks", "1,6,1", "--classify-out", str(tmp_path / "missing" / "x.jsonl")]
    assert main(argv) == EXIT_INVALID_INPUT
    assert ran == []
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and err.count("\n") == 1


def test_classify_out_rejected_for_other_ranks(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--ranks", "1,1", "--samples", "2", "--classify-out", "x.jsonl"]) == EXIT_INVALID_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid input: --classify-out needs ranks (1, n, 1)") and err.count("\n") == 1
    assert not (tmp_path / "x.jsonl").exists()


# -- mesh export ------------------------------------------------------------------


def test_mesh_export_s0(tmp_path):
    out = tmp_path / "octa.off"
    code, written = export_mesh(RunConfig(subdivisions=0, output=str(out), fmt="off"))
    assert code == EXIT_OK
    assert written == [str(out), str(tmp_path / "octa.json")]
    off = out.read_text()
    assert off.startswith("OFF\n6 8 12\n")
    side = json.loads((tmp_path / "octa.json").read_text())
    assert len(side["colors"]) == 6


def test_mesh_export_s3_audited(tmp_path):
    out = tmp_path / "m.off"
    code, written = export_mesh(RunConfig(subdivisions=3, output=str(out), fmt="off"))
    assert code == EXIT_OK
    header = out.read_text().split("\n")[1]
    v, f, e = map(int, header.split())
    assert v - e + f == 2
    assert f == 8 * 4**3


def test_mesh_export_json_format(tmp_path):
    out = tmp_path / "mesh.json"
    code = main(["mesh", "--subdivisions", "1", "--out", str(out), "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["vertices"]) == 18
    assert len(doc["faces"]) == 32


def test_mesh_export_rejects_json_off_path(tmp_path):
    code = main(["mesh", "--subdivisions", "0", "--out", str(tmp_path / "x.json")])
    assert code == EXIT_INVALID_INPUT


def test_mesh_export_deterministic(tmp_path):
    a, b = tmp_path / "a.off", tmp_path / "b.off"
    main(["mesh", "--subdivisions", "2", "--out", str(a)])
    main(["mesh", "--subdivisions", "2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_mesh_export_s6_within_readme_bound(tmp_path):
    # README states this bound beside the subdivisions guard
    start = time.perf_counter()
    cfg = RunConfig(subdivisions=6, output=str(tmp_path / "m.off"), fmt="off")
    code, written = export_mesh(cfg)
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK and len(written) == 2
    assert elapsed < 20.0, f"mesh export at 6 subdivisions took {elapsed:.1f} s"


# -- subprocess smoke ---------------------------------------------------------------


def test_cli_subprocess_roundtrip(tmp_path):
    cmd = [sys.executable, "-m", "hodge_domains.cli", "report", "--ranks", "1,2,1"]
    res = subprocess.run(cmd, capture_output=True, text=True, env=cli_env())
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["domain"]["dim"] == 5
