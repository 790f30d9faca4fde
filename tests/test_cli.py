import hashlib
import json
import subprocess
import sys
import time

import pytest

import hodge_domains.domain
import hodge_domains.horizontal
import hodge_domains.pi2
from conftest import all_rank_tuples, cli_env
from hodge_domains import wire
from hodge_domains.cli import (
    EXIT_INVALID_INPUT,
    EXIT_OK,
    EXIT_RESOURCE_GUARD,
    EXIT_SUITE_FAILURE,
    RunConfig,
    ResourceGuardError,
    _suite_pu2n,
    export_mesh,
    main,
    run_report,
    run_verify,
)
from hodge_domains.higgs import higgs_dumps, random_commuting_higgs
from hodge_domains.hodge import HodgeNumbers
from hodge_domains.horizontal import HALF_ZERO_PERIOD
from hodge_domains.pi2 import _root_str
from hodge_domains.rootcalc import bracket_generating_check, nilradical


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_passes_before_the_first_half_zero_draw(capsys, n):
    # samples 0..6 draw no plane from the half-zero stratum, where the
    # regular isotropic planes of n >= 2 are looked for
    for samples in range(1, HALF_ZERO_PERIOD):
        assert main(["verify", "--ranks", f"1,{n},1", "--samples", str(samples)]) == EXIT_OK
        pu = json.loads(capsys.readouterr().out)["suites"][4]
        assert pu["name"] == "pu2n_criterion" and pu["passed"]
        assert pu["details"]["found_regular_isotropic"] is False


def test_pu2n_passes_when_the_half_zero_draw_is_a_complex_line():
    # at 8 samples and n = 2 the one half-zero draw (sample 7) is a complex
    # line, so not regular, for 15 of seeds 0..2999: they find no regular
    # isotropic plane, and have nothing to find
    unfound = []
    for seed in range(3000):
        passed, details = _suite_pu2n(cfg_verify((1, 2, 1), seed=seed, samples=8))
        assert passed, seed
        if not details["found_regular_isotropic"]:
            unfound.append(seed)
    assert unfound == [79, 369, 622, 937, 1179, 1277, 1512, 1847, 1888, 1893, 2244, 2285, 2423, 2513, 2974]
    assert main(["verify", "--ranks", "1,2,1", "--seed", "79", "--samples", "8"]) == EXIT_OK


def test_verify_fails_when_isotropy_is_never_reported(monkeypatch, capsys):
    # a bracket that never vanishes reports no plane isotropic, so the
    # complex-independent half-zero draw of seed 0 yields no regular isotropic plane
    monkeypatch.setattr(hodge_domains.horizontal, "_bracket_entries", lambda ranks, u, w: [(1, 0)])
    assert main(["verify", "--ranks", "1,2,1", "--seed", "0", "--samples", "8"]) == EXIT_SUITE_FAILURE
    assert not json.loads(capsys.readouterr().out)["suites"][4]["passed"]


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
    def broken_oracle(ranks):
        return {root: (0,) * ranks.k for root in nilradical(ranks)}

    monkeypatch.setattr(hodge_domains.pi2, "class_closure_oracle", broken_oracle)
    code = main(["verify", "--ranks", "1,1,1", "--samples", "10"])
    assert code == EXIT_SUITE_FAILURE


def test_verify_crashing_suite_fails(monkeypatch):
    def explode(ranks):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(hodge_domains.pi2, "class_closure_oracle", explode)
    doc = run_verify(cfg_verify((1, 1)))
    assert not doc["all_passed"]
    by_name = {s["name"]: s for s in doc["suites"]}
    assert "synthetic failure" in by_name["pi2_calculus"]["details"]["error"]


def test_verify_fails_when_the_kernel_certificate_fails(monkeypatch, capsys):
    # pi2_report raises unless [c_0; ...; c_{k-2}; e_0] is unimodular, so the
    # pi2 suite fails through that error, and no other suite reads it
    monkeypatch.setattr(hodge_domains.pi2, "is_unimodular", lambda rows: False)
    assert main(["verify", "--ranks", "1,1,1", "--samples", "5"]) == EXIT_SUITE_FAILURE
    by_name = {s["name"]: s for s in json.loads(capsys.readouterr().out)["suites"]}
    assert [name for name, s in by_name.items() if not s["passed"]] == ["pi2_calculus"]
    assert by_name["pi2_calculus"]["details"] == {
        "error": "AssertionError: kernel basis does not span the exact integer kernel"}


def test_verify_fails_on_a_domain_dimension_off_by_one(monkeypatch, capsys):
    # dim is compared with the count of nilradical roots; the horizontal and
    # vertical split still fits under dim + 1 at k = 3, so only that count catches it
    original = hodge_domains.domain.describe_domain
    monkeypatch.setattr(hodge_domains.domain, "describe_domain",
                        lambda ranks: {**original(ranks), "dim": original(ranks)["dim"] + 1})
    assert main(["verify", "--ranks", "2,1,2,1", "--samples", "5"]) == EXIT_SUITE_FAILURE
    by_name = {s["name"]: s for s in json.loads(capsys.readouterr().out)["suites"]}
    assert [name for name, s in by_name.items() if not s["passed"]] == ["dimensions"]
    assert by_name["dimensions"]["details"] == {"checks": 4, "dim": 14}


def test_verify_fails_on_a_stabilizer_dimension_off_by_one(monkeypatch, capsys):
    # the orbit dimension n(2n+1) - stab is checked against two independent counts
    original = hodge_domains.horizontal.stabilizer_dimension
    monkeypatch.setattr(hodge_domains.horizontal, "stabilizer_dimension", lambda n, k: original(n, k) + 1)
    assert main(["verify", "--ranks", "1,1", "--samples", "5"]) == EXIT_SUITE_FAILURE
    by_name = {s["name"]: s for s in json.loads(capsys.readouterr().out)["suites"]}
    assert not by_name["stabilizer_dimensions"]["passed"]
    assert [name for name, s in by_name.items() if not s["passed"]] == ["stabilizer_dimensions"]
    assert by_name["stabilizer_dimensions"]["details"] == {"cases": 55}


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


def test_verify_flags_bytes_pinned(capsys):
    # the verify-flags document, whose Higgs suite samples 400 fields; the
    # digest the benchmark's reference.json holds for it
    assert main(["verify", "--ranks", "4,1,4,1,4", "--seed", "0", "--samples", "200"]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "98a1cab61a087f6cc5b68ae7a48e7c52a04a1d903842adb09a2e04fe5c9c0d2a"


def test_higgs_sampler_bytes_pinned():
    # the wire text of sampled fields over a grid, taken before commutation
    # and the nullspace sampler read the bracket table
    h = hashlib.sha256()
    for ranks in [(1, 1), (2, 1, 2), (4, 1, 4), (1, 1, 1, 1), (1, 2, 1), (2, 1, 3)]:
        for strategy in ("pullback", "nullspace"):
            for m_t in (1, 2, 3):
                for seed in range(4):
                    field = random_commuting_higgs(HodgeNumbers(ranks), m_t, seed=seed, strategy=strategy)
                    h.update(higgs_dumps(field).encode() + b"\n")
    assert h.hexdigest() == "faac29170d5e174d67bd721ac061531fb8f59d76370e381ac3cc5297f6d95afd"


def test_verify_total_rank_20_within_readme_bound(capsys):
    # the bound README states: 4x the 1.5 s measured in-process on 2 CPUs
    start = time.perf_counter()
    code = main(["verify", "--ranks", "1,18,1", "--samples", "10"])
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK and json.loads(capsys.readouterr().out)["all_passed"]
    assert elapsed < 6.0, f"verify at (1,18,1) with 10 samples took {elapsed:.1f} s"


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


def render_tree(tree) -> str:
    """A bracket-generation witness tree as text: a level-1 root, or
    [root, subtree] for the bracket of a level-1 root with a subtree."""
    if isinstance(tree[0], int):
        return _root_str(tree)
    root, sub = tree
    return f"[{_root_str(root)}, {render_tree(sub)}]"


def test_report_and_bracket_certificates_pinned():
    # every report document, and every bracket-generation certificate with its
    # witness trees in order, of total rank <= 8, 247 rank tuples
    reports, trees = hashlib.sha256(), hashlib.sha256()
    for hn in all_rank_tuples(8):
        reports.update(wire.dumps_indented(run_report(RunConfig(ranks=hn))).encode())
        ok, levels = bracket_generating_check(hn)
        trees.update(f"{hn.ranks} {ok}\n".encode())
        for lv, dim, witnesses in levels:
            trees.update(f"{lv} {dim} {len(witnesses)}: {' '.join(map(render_tree, witnesses))}\n".encode())
    assert reports.hexdigest() == "8d7b8bc93269f7733aeac8ca005ed71bd4d36e0c151ba0870d264e29641cc919"
    assert trees.hexdigest() == "44ae8b46543eabde58fd495276543d931345236376388e1d0f15fb33c20aa366"


def test_verify_documents_pinned():
    # every verify document at seed 0 with 8 samples for total rank <= 6:
    # 57 rank tuples covering all 6 patterns of applicable suites
    h = hashlib.sha256()
    for hn in all_rank_tuples(6):
        h.update(wire.dumps_indented(run_verify(RunConfig(ranks=hn, seed=0, samples=8))).encode())
    assert h.hexdigest() == "b1c54e733a99825b4c961f27512b426c21a8211ca286124d70d4c7235e37faa4"


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


def test_negative_seed_exit_2(tmp_path, capsys, monkeypatch):
    # random.seed drops the sign, so a negative seed would replay another
    # seed's draws under its own name in the documents
    import hodge_domains.cli as cli

    ran = []
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_SUITES", tuple((*entry[:3], lambda cfg, name=entry[0]: ran.append(name))
                                              for entry in cli._SUITES))
    argv = ["verify", "--ranks", "1,2,1", "--seed", "-1", "--out", "x.json", "--classify-out", "x.jsonl"]
    assert main(argv) == EXIT_INVALID_INPUT
    assert ran == [] and list(tmp_path.iterdir()) == []
    assert capsys.readouterr() == ("", "invalid input: seed must be nonnegative\n")


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
    suites = tuple((*entry[:3], lambda cfg, name=entry[0]: ran.append(name)) for entry in cli._SUITES)
    monkeypatch.setattr(cli, "_SUITES", suites)
    argv = ["verify", "--ranks", "1,6,1", "--classify-out", str(tmp_path / "missing" / "x.jsonl")]
    assert main(argv) == EXIT_INVALID_INPUT
    assert ran == []
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and err.count("\n") == 1


def test_unwritable_verify_out_fails_before_any_suite(tmp_path, capsys, monkeypatch):
    import hodge_domains.cli as cli

    ran = []

    def never(cfg):  # run_verify reports a raising suite as failed, so calls are recorded too
        ran.append(cfg)
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "_SUITES", tuple((*entry[:3], never) for entry in cli._SUITES))
    argv = ["verify", "--ranks", "1,6,1", "--out", str(tmp_path / "missing" / "x.json")]
    assert main(argv) == EXIT_INVALID_INPUT
    assert ran == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid input: ") and err.count("\n") == 1


@pytest.mark.parametrize("classify_out", ["x.json", "./x.json", "hard.json", "soft.json"])
def test_verify_rejects_one_file_for_both_outputs(tmp_path, capsys, monkeypatch, classify_out):
    import hodge_domains.cli as cli

    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.json").write_text('{"kept": true}\n')
    (tmp_path / "hard.json").hardlink_to(tmp_path / "x.json")
    (tmp_path / "soft.json").symlink_to(tmp_path / "x.json")
    ran = []
    monkeypatch.setattr(cli, "_SUITES", tuple((*entry[:3], lambda cfg, name=entry[0]: ran.append(name))
                                              for entry in cli._SUITES))
    argv = ["verify", "--ranks", "1,2,1", "--samples", "20", "--out", "x.json", "--classify-out", classify_out]
    assert main(argv) == EXIT_INVALID_INPUT
    assert ran == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "invalid input: --out and --classify-out name the same file x.json\n"
    assert (tmp_path / "x.json").read_text() == '{"kept": true}\n'  # the rejected run truncates nothing
    # a file that did not exist: the probe creates it, and the rejected run removes it again
    argv = ["verify", "--ranks", "1,2,1", "--samples", "20", "--out", "new.json", "--classify-out", "./new.json"]
    assert main(argv) == EXIT_INVALID_INPUT
    assert ran == [] and not (tmp_path / "new.json").exists()
    assert capsys.readouterr() == ("", "invalid input: --out and --classify-out name the same file new.json\n")


def test_unwritable_verify_out_keeps_an_existing_classify_out(tmp_path, capsys):
    planes = tmp_path / "p.jsonl"
    planes.write_text('{"kept": true}\n')
    argv = ["verify", "--ranks", "1,2,1", "--samples", "20", "--out", str(tmp_path / "missing" / "v.json"),
            "--classify-out", str(planes)]
    assert main(argv) == EXIT_INVALID_INPUT
    assert capsys.readouterr().err.startswith("invalid input: ")
    assert planes.read_text() == '{"kept": true}\n'
    # a classify-out that did not exist: the probe creates it, and the rejected run removes it again
    argv[argv.index(str(planes))] = str(tmp_path / "fresh.jsonl")
    assert main(argv) == EXIT_INVALID_INPUT
    assert capsys.readouterr().err.startswith("invalid input: ")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["p.jsonl"]


def test_verify_writes_two_distinct_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--ranks", "1,2,1", "--samples", "20", "--out", "x.json", "--classify-out", "planes.jsonl"]
    assert main(argv) == EXIT_OK
    assert json.loads((tmp_path / "x.json").read_text())["all_passed"]
    assert len((tmp_path / "planes.jsonl").read_text().splitlines()) == 20


def test_classify_out_rejected_for_other_ranks(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--ranks", "1,1", "--samples", "2", "--classify-out", "x.jsonl"]) == EXIT_INVALID_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid input: --classify-out needs ranks (1, n, 1)") and err.count("\n") == 1
    assert not (tmp_path / "x.jsonl").exists()


@pytest.mark.parametrize("existing", [False, True], ids=["empty_dir", "existing_files"])
@pytest.mark.parametrize("argv", [
    ["report", "--ranks", "1,2,1", "--out", "rep/"],
    ["report", "--ranks", "1,2,1", "--out", ""],
    ["mesh", "--out", "sub/"],
    ["mesh", "--format", "json", "--out", "jsn/"],
    ["mesh", "--out", "."],
    ["mesh", "--out", "./"],
    ["mesh", "--out", "sub/.."],
    ["verify", "--ranks", "1,2,1", "--samples", "5", "--out", "ver/"],
    ["verify", "--ranks", "1,2,1", "--samples", "5", "--classify-out", "cls/"],
], ids=["report_slash", "report_empty", "mesh_slash", "mesh_json_slash", "mesh_dot", "mesh_dot_slash",
        "mesh_dotdot", "verify_out_slash", "classify_out_slash"])
def test_output_path_naming_a_directory_exits_2(tmp_path, capsys, monkeypatch, argv, existing):
    # an output path whose last component is empty, . or .. names no file:
    # RunConfig rejects it before any suite or mesh build, and writes nothing
    import hodge_domains.cli as cli

    def never(cfg):
        raise AssertionError("the command ran")

    for name in ("run_report", "run_verify", "export_mesh"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.chdir(tmp_path)
    files = {name: f"{name} kept\n" for name in ("rep", "sub", "sub.json", "jsn.json", "ver", "cls")} if existing else {}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == EXIT_INVALID_INPUT
    option, path = argv[-2:]
    assert capsys.readouterr() == ("", f"invalid input: {option} {path!r} names a directory, not a file\n")
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == files


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


MESH_SHA256 = {
    # subdivisions: (OFF, sidecar), taken before the mesh topology moved to numpy arrays
    0: ("f34f2206e82402b3f83c8b06405ed1232597abfcec4419c29fe214a214064878",
        "4d02d161f7d80dd7457eaf8ee25d04020d45b2311af0fecc0e40ff2e2ff3b487"),
    1: ("c5d8ee3ca2985af6e9bf6c0f372f3d17e2fe3033a6e81dab7e449719491f2e6c",
        "992b6564577523f0521561af65bf91b8d1dc580c96582956dd3f74d0a7a27a9d"),
    2: ("61828df235286057a032e3310f18049cf092689606d6b073983a09dcad6582f4",
        "47322bc54d8f5779295523ab9e90ef1d1adc46cc7a83a5b1e08abaf47691ab7d"),
    3: ("7d776810fe9a0ea749be55c81ffa1635208abbd8d354c432d15b2df7f46ec6c3",
        "0a1340268850e0213d895fe40bd9c8ccf4d92ffd3d094910a67c1d18e83f8b64"),
    4: ("c59ae90803406045eff5b98abf9c468495e9e0e15deed2d6af3278bd745b073f",
        "8c20014ef3253b1c29fcdf0a5ae905d34841139716d7c4b2b8b2b69ce0ebfe75"),
    5: ("dd89392a325c87e17094c9d3642afc7d3a73218db0de426072f6a4dd29946dc2",
        "4601b7c77e3f90a0965b2cfeb3b09ebb3e5ec573a2ca8c1f688342331e0edd4a"),
    6: ("329d561a52d90a65e7926bb456dbe796b0c7f6c4c52df00ef2b8b8f82ceb067b",
        "2c7bd1d759357dbb3fed0199f93acfc04e55ae4559cd243bcee63e160e0ba1fc"),
    7: ("d4dc0d96803312d032a85329b5852b3f9b579ba6614600bb8e5002fa1396f7e0",
        "e6b85044c0bdfc773d9289e4e820526c99c6898778121b42f3ca4ffe68493d5f"),
}

MESH_JSON_SHA256 = {
    # subdivisions: the --format json document, taken at the same revision
    0: "a21160210c7b1e2de7257922b89265c86735603999bb29b0683444a051ca37b4",
    1: "72feae68fdb9e754596bf658463f93998833fcacd640c5b17aee29494628bea8",
    2: "a48f2282b537f81aac75f7100530bbec0fa8d828a6261bda69bf0b98e3fc53b3",
    3: "0464a167ec5929759d411655f2915a5f1e34a4736f38781c0cf381dd2296aa52",
    4: "151e8841c01425563ee83f6adc79959be41eccb914fdd343009613dda2c66be3",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("s", range(7))
def test_mesh_export_bytes_pinned(tmp_path, s):
    assert main(["mesh", "--subdivisions", str(s), "--out", str(tmp_path / "m.off")]) == EXIT_OK
    assert (_sha256(tmp_path / "m.off"), _sha256(tmp_path / "m.json")) == MESH_SHA256[s]


@pytest.mark.parametrize("s", range(5))
def test_mesh_json_format_bytes_pinned(tmp_path, s):
    argv = ["mesh", "--subdivisions", str(s), "--out", str(tmp_path / "m.json"), "--format", "json"]
    assert main(argv) == EXIT_OK
    assert _sha256(tmp_path / "m.json") == MESH_JSON_SHA256[s]


def test_mesh_export_s7_within_readme_bound(tmp_path):
    # README states this bound beside the s = 6/7/8 table
    start = time.perf_counter()
    code, written = export_mesh(RunConfig(subdivisions=7, output=str(tmp_path / "m.off"), fmt="off"))
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK
    assert elapsed < 10.0, f"mesh export at 7 subdivisions took {elapsed:.1f} s"
    assert (_sha256(tmp_path / "m.off"), _sha256(tmp_path / "m.json")) == MESH_SHA256[7]


@pytest.mark.parametrize(
    "blocked, argv",
    [
        ("x.off", ["--out", "x.off"]),
        ("x.json", ["--out", "x.off"]),
        ("x.json", ["--out", "x.json", "--format", "json"]),
    ],
    ids=["off", "sidecar", "json"],
)
def test_unwritable_mesh_path_leaves_no_file(tmp_path, capsys, monkeypatch, blocked, argv):
    # a directory where one output file should go
    monkeypatch.chdir(tmp_path)
    (tmp_path / blocked).mkdir()
    assert main(["mesh", "--subdivisions", "1", *argv]) == EXIT_INVALID_INPUT
    assert [p.name for p in tmp_path.iterdir()] == [blocked]
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid input: ") and err.count("\n") == 1
    # a file that was there keeps its bytes: a rejected export removes only what it made
    kept = ({"x.off", "x.json"} - {blocked}).pop()
    (tmp_path / kept).write_bytes(b"keep me\n")
    assert main(["mesh", "--subdivisions", "1", *argv]) == EXIT_INVALID_INPUT
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([blocked, kept])
    assert (tmp_path / kept).read_bytes() == b"keep me\n"


def test_mesh_export_verifies_the_coloring_once(tmp_path, monkeypatch):
    import hodge_domains.spheremesh as spheremesh

    # audit_mesh is the one coloring verifier: export colors the mesh once
    # and audits it once
    calls = []
    for name in ("audit_mesh", "three_color"):
        fn = getattr(spheremesh, name)
        monkeypatch.setattr(spheremesh, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    code, _ = export_mesh(RunConfig(subdivisions=2, output=str(tmp_path / "m.off"), fmt="off"))
    assert code == EXIT_OK and calls == ["three_color", "audit_mesh"]


def test_mesh_with_an_improper_coloring_exits_1_and_writes_nothing(tmp_path, capsys, monkeypatch):
    import numpy as np

    import hodge_domains.spheremesh as spheremesh

    # the coloring of a mesh that is not even: the audit, not three_color, rejects it
    monkeypatch.setattr(spheremesh, "three_color", lambda tri: np.zeros(tri.num_vertices, dtype=np.int64))
    assert main(["mesh", "--subdivisions", "1", "--out", str(tmp_path / "m.off")]) == EXIT_SUITE_FAILURE
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr() == ("", "mesh audit failed; nothing written\n")


# -- subprocess smoke ---------------------------------------------------------------


def test_cli_subprocess_roundtrip(tmp_path):
    cmd = [sys.executable, "-m", "hodge_domains.cli", "report", "--ranks", "1,2,1"]
    res = subprocess.run(cmd, capture_output=True, text=True, env=cli_env())
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["domain"]["dim"] == 5


def test_report_leaves_numpy_unloaded(tmp_path):
    # only the mesh paths import spheremesh, and with it numpy
    out = tmp_path / "report.json"
    code = ("import sys\nimport hodge_domains.cli as cli\n"
            f"code = cli.main(['report', '--ranks', '1,2,1', '--out', {str(out)!r}])\n"
            "print(code, 'numpy' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env())
    assert res.stdout.split() == ["0", "False"], res.stderr
    assert json.loads(out.read_text())["domain"]["dim"] == 5


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        (["verify", "--ranks", "1,2,1", "--samples", "8", "--out", "v.json"], False),
        (["mesh", "--subdivisions", "1", "--out", "m.off"], True),
    ],
    ids=["verify", "mesh"],
)
def test_numpy_loads_only_for_mesh_export(tmp_path, argv, loads_numpy):
    # verify's mesh suite audits on the standard library; the export needs arrays
    code = ("import sys\nimport hodge_domains.cli as cli\n"
            f"code = cli.main({argv!r})\n"
            "print(code, 'numpy' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env(), cwd=tmp_path)
    assert res.stdout.splitlines()[-1].split() == ["0", str(loads_numpy)], res.stderr
