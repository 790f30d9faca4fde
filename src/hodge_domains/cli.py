"""Command-line front end: domain reports, verification suites, and mesh export.

Commands
    hodge-domains report --ranks R [--format json|text] [--out PATH]
    hodge-domains verify --ranks R [--seed S] [--samples N] [--format json|text] [--out PATH] [--classify-out PATH]
    hodge-domains mesh [--subdivisions s] [--out PATH, default octahedron_s{s}.off] [--format off|json]

Exit codes: 0 success, 1 suite/audit failure, 2 invalid input (including an
unwritable output path), 3 resource guard.  All randomness flows from the
single --seed value, so identical configurations produce byte-identical JSON
output.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import domain as domain_mod
from . import pi2 as pi2_mod
from . import rootcalc as rootcalc_mod
from . import wire
from .hodge import HodgeNumbers

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_INVALID_INPUT = 2
EXIT_RESOURCE_GUARD = 3

MAX_SUBDIVISIONS = 8
MAX_SAMPLES = 1_000_000
MAX_TOTAL_RANK = 20


class ResourceGuardError(RuntimeError):
    pass


def _is_1n1(ranks: HodgeNumbers) -> bool:
    return len(ranks.ranks) == 3 and ranks.ranks[0] == ranks.ranks[2] == 1


@dataclass(frozen=True)
class RunConfig:
    ranks: Optional[HodgeNumbers] = None
    seed: int = 0
    samples: int = 1000
    subdivisions: int = 0
    output: Optional[str] = None
    fmt: str = "json"
    classify_out: Optional[str] = None

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.samples > MAX_SAMPLES:
            raise ResourceGuardError(f"samples {self.samples} exceeds the guard {MAX_SAMPLES}")
        if self.subdivisions < 0:
            raise ValueError("subdivisions must be nonnegative")
        if self.subdivisions > MAX_SUBDIVISIONS:
            raise ResourceGuardError(
                f"subdivisions {self.subdivisions} exceeds the guard {MAX_SUBDIVISIONS}"
            )
        if self.ranks is not None and self.ranks.m > MAX_TOTAL_RANK:
            raise ResourceGuardError(
                f"total rank {self.ranks.m} exceeds the guard {MAX_TOTAL_RANK}"
            )
        for option, path in (("--out", self.output), ("--classify-out", self.classify_out)):
            if path is not None and os.path.basename(path) in ("", ".", ".."):
                raise ValueError(f"{option} {path!r} names a directory, not a file")
        if self.classify_out and not _is_1n1(self.ranks):
            raise ValueError(f"--classify-out needs ranks (1, n, 1), got {self.ranks.ranks}")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def run_report(cfg: RunConfig) -> dict:
    ranks = cfg.ranks
    ok, levels = rootcalc_mod.bracket_generating_check(ranks)
    return {
        "schema": wire.SCHEMA,
        "command": "report",
        "ranks": list(ranks.ranks),
        "domain": domain_mod.describe_domain(ranks),
        "pi2": pi2_mod.pi2_report(ranks),
        "superhorizontal": pi2_mod.superhorizontal_generation_report(ranks),
        "bracket_generation": {
            "ok": ok,
            "levels": [{"level": lv, "dim": dim, "achieved": len(w)} for lv, dim, w in levels],
        },
    }


def _report_text(doc: dict) -> str:
    lines = [f"ranks {tuple(doc['ranks'])}"]
    d = doc["domain"]
    lines.append(
        f"domain: dim {d['dim']}, horizontal {d['horizontal_rank']}, "
        f"vertical {d['vertical_rank']}, interior_rank_one {d['interior_rank_one']}"
    )
    p = doc["pi2"]
    lines.append(
        f"pi2: flag manifold rank {p['rank_flag_manifold']}, domain rank {p['rank_domain']}, "
        f"basis {p['basis']}"
    )
    s = doc["superhorizontal"]
    gens = ", ".join(f"{g['index']}:{g['status']}" for g in s["generators"]) or "none"
    lines.append(f"superhorizontal generators: {gens}; fully_generated {s['fully_generated']}")
    b = doc["bracket_generation"]
    lines.append(f"bracket generation: {'ok' if b['ok'] else 'FAILED'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _interior_rank_one(ranks: HodgeNumbers) -> list[int]:
    return [i for i in range(1, ranks.k) if ranks.ranks[i] == 1]


def _wide_middles(ranks: HodgeNumbers) -> list[int]:
    """The walls i whose middle block i + 1 has rank >= 2."""
    return [i for i in range(ranks.k - 1) if ranks.ranks[i + 1] >= 2]


def _always(ranks: HodgeNumbers) -> bool:
    return True


def _suite_dimensions(cfg: RunConfig) -> tuple[bool, dict]:
    ranks = cfg.ranks
    r = ranks.ranks
    desc = domain_mod.describe_domain(ranks)
    dim = desc["dim"]
    split = desc["horizontal_rank"] + desc["vertical_rank"]
    ok = (
        dim == len(rootcalc_mod.nilradical(ranks))
        and split <= dim
        and (split == dim) == (ranks.k <= 2)
        and domain_mod.flag_in_period_domain(domain_mod.hodge_flag(ranks))
    )
    checks = 4
    if _is_1n1(ranks):
        ok = ok and dim == 2 * r[1] + 1 and desc["horizontal_rank"] == 2 * r[1]
        checks = 6
    return ok, {"checks": checks, "dim": dim}


def _suite_pi2(cfg: RunConfig) -> tuple[bool, dict]:
    ranks = cfg.ranks
    n_roots = rootcalc_mod.nilradical(ranks)
    oracle = pi2_mod.class_closure_oracle(ranks)
    mismatches = sum(pi2_mod.class_of_root(root, ranks) != oracle[root] for root in n_roots)
    kernel_ok = pi2_mod.pi2_report(ranks)["kernel_verified"]  # pi2_report raises unless its certificate holds
    details = {"n_roots": len(n_roots), "mismatches": mismatches, "kernel_verified": kernel_ok}
    return mismatches == 0 and kernel_ok, details


def _suite_bracket_generation(cfg: RunConfig) -> tuple[bool, dict]:
    from . import horizontal as horizontal_mod  # verify's suites import higgs and horizontal; report needs neither
    ok, levels = rootcalc_mod.bracket_generating_check(cfg.ranks)
    passed = ok and horizontal_mod.bracket_table_certified(cfg.ranks)
    return passed, {"levels": [[lv, len(w), dim] for lv, dim, w in levels]}


def _suite_flags(cfg: RunConfig) -> tuple[bool, dict]:
    ranks = cfg.ranks
    # exact membership tests cost O(m^3) rational arithmetic per flag
    count = min(cfg.samples, 50 if ranks.m <= 10 else 10)
    rng = random.Random(cfg.seed * 7919 + 11)
    ok = True
    for _ in range(count):
        flag = domain_mod.perturbed_flag(ranks, rng)
        ok = ok and domain_mod.flag_in_period_domain(flag)
        plane = domain_mod.project_to_symmetric_space(flag)
        ok = ok and domain_mod.form_definiteness(plane, ranks.signature_signs()) == "positive"
        u = domain_mod.random_block_unitary(ranks, rng)
        moved = domain_mod.apply_matrix(u, flag)
        ok = ok and domain_mod.flag_in_period_domain(moved)
        round_trip = domain_mod.flag_loads(domain_mod.flag_dumps(flag))
        ok = ok and round_trip.basis == flag.basis
    return ok, {"flags": count}


def _suite_pu2n(cfg: RunConfig) -> tuple[bool, dict]:
    from . import horizontal as horizontal_mod
    with open(cfg.classify_out, "w") if cfg.classify_out else nullcontext() as sink:
        record = (lambda entry: sink.write(wire.dumps(entry) + "\n")) if sink else None
        return horizontal_mod.verify_pu2n_criterion(cfg.ranks.ranks[1], cfg.samples, cfg.seed, record=record)


def _suite_stabilizers(cfg: RunConfig) -> tuple[bool, dict]:
    from . import horizontal as horizontal_mod
    ok = True
    cases = 0
    for n in range(1, 11):
        for k in range(1, n + 1):
            orbit = n * (2 * n + 1) - horizontal_mod.stabilizer_dimension(n, k)
            oracle = horizontal_mod.isotropic_tuple_orbit_dimension(n, k)
            ok = ok and orbit == oracle == 2 * n * k - k * (k - 1) // 2
            cases += 1
    return ok, {"cases": cases}


def _suite_higgs(cfg: RunConfig) -> tuple[bool, dict]:
    from . import higgs as higgs_mod
    ranks = cfg.ranks
    interior = _interior_rank_one(ranks)
    count = min(cfg.samples, 200)
    ok = True
    triggered = 0
    for pos, i in enumerate(interior):
        shape = HodgeNumbers((ranks.ranks[i - 1], 1, ranks.ranks[i + 1]))
        for j in range(count):
            strategy = "nullspace" if j % 2 == 0 else "pullback"
            field = higgs_mod.random_commuting_higgs(
                shape, m_t=2 + j % 2, seed=cfg.seed * 104729 + pos * 1000 + j, strategy=strategy
            )
            holds, hit = higgs_mod.rank_one_lemma_check(field)
            ok = ok and holds
            triggered += hit
            round_trip = higgs_mod.higgs_loads(higgs_mod.higgs_dumps(field))
            ok = ok and round_trip == field
    return ok, {"fields": count * len(interior), "triggered": triggered}


def _suite_su22(cfg: RunConfig) -> tuple[bool, dict]:
    from . import horizontal as horizontal_mod
    walls = _wide_middles(cfg.ranks)
    rng = random.Random(cfg.seed * 7919 + 22)  # a stream of its own, apart from the flags suite's
    return all([horizontal_mod.su22_embedding(cfg.ranks, i, rng) for i in walls]), {"walls": walls}


def _suite_mesh(cfg: RunConfig) -> tuple[bool, dict]:
    from . import meshaudit  # the standard library's audit: numpy loads only in `mesh`
    return meshaudit.levels_pass(), {"levels": meshaudit.LEVELS}


# (name, applies(ranks), reason when it does not apply, run(cfg) -> (passed, details)).
# The case split follows the C-VHS: the (1,n,1) plane criterion, the rank-one
# Higgs lemma at an interior rank-one block, and the embedded rank-(1,2,1)
# structure at a middle block of rank >= 2.
_SUITES = (
    ("dimensions", _always, None, _suite_dimensions),
    ("pi2_calculus", _always, None, _suite_pi2),
    ("bracket_generation", _always, None, _suite_bracket_generation),
    ("flags", _always, None, _suite_flags),
    ("pu2n_criterion", _is_1n1, "ranks are not (1, n, 1)", _suite_pu2n),
    ("stabilizer_dimensions", _always, None, _suite_stabilizers),
    ("higgs_rank_one", _interior_rank_one, "no interior rank-one block", _suite_higgs),
    ("su22_embedding", _wide_middles, "no middle block of rank >= 2", _suite_su22),
    ("mesh", _always, None, _suite_mesh),
)


@contextmanager
def _claimed(paths: list):
    """Probe each output path with mode "a", which truncates nothing, so that
    an unwritable one fails before any work.  The body gets the paths the
    probe created and empties the list once its outputs stand; whatever is
    left in it when the body ends, by an exception or a return, is removed,
    so a rejected run leaves no file that it made and every file that it did
    not make."""
    created = [path for path in paths if not os.path.lexists(path)]
    try:
        for path in paths:
            open(path, "a").close()
        yield created
    finally:
        for path in created:
            Path(path).unlink(missing_ok=True)


def run_verify(cfg: RunConfig) -> dict:
    paths = [path for path in (cfg.classify_out, cfg.output) if path]
    with _claimed(paths) as created:
        if len(paths) == 2 and os.path.samefile(*paths):
            raise ValueError(f"--out and --classify-out name the same file {cfg.output}")
        created.clear()  # the suites and the report write them
    suites = []
    for name, applies, reason, run in _SUITES:
        if not applies(cfg.ranks):
            suites.append({"name": name, "applicable": False, "passed": True, "details": {"reason": reason}})
            continue
        try:
            passed, details = run(cfg)
        except OSError:  # an unwritable output path is invalid input, not a failed suite
            raise
        except Exception as exc:  # a crashing suite is a failing suite
            passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
        suites.append({"name": name, "applicable": True, "passed": bool(passed), "details": details})
    return {
        "schema": wire.SCHEMA,
        "command": "verify",
        "ranks": list(cfg.ranks.ranks),
        "seed": cfg.seed,
        "samples": cfg.samples,
        "suites": suites,
        "all_passed": all(s["passed"] for s in suites),
    }


def _verify_text(doc: dict) -> str:
    lines = [f"verify ranks {tuple(doc['ranks'])} seed {doc['seed']} samples {doc['samples']}"]
    for s in doc["suites"]:
        status = ("PASS" if s["passed"] else "FAIL") if s["applicable"] else "SKIP"
        lines.append(f"  [{status}] {s['name']}")
    lines.append("all passed" if doc["all_passed"] else "FAILURES PRESENT")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# mesh export
# ---------------------------------------------------------------------------


def export_mesh(cfg: RunConfig) -> tuple[int, list[str]]:
    """Build, audit and write the subdivided colored octahedron.

    Returns (exit_code, written_paths).  Every output path is probed before
    the mesh is built; if one cannot be written or an audit fails, no file
    that the export made is left behind, and no file that it did not make is
    removed.
    """
    out = Path(cfg.output) if cfg.output else Path(f"octahedron_s{cfg.subdivisions}.off")
    if cfg.fmt != "json" and out.suffix == ".json":
        raise ValueError("OFF output path must not end in .json (the sidecar uses it)")
    paths = [out.with_suffix(".json")] if cfg.fmt == "json" else [out, out.with_suffix(".json")]
    from . import meshaudit
    from . import spheremesh as spheremesh_mod
    with _claimed(paths) as created:
        tri = spheremesh_mod.octahedron()
        for _ in range(cfg.subdivisions):
            tri = spheremesh_mod.subdivide(tri)
        coloring = spheremesh_mod.three_color(tri)
        # the geometry and the color pairs are computed once and shared by the audit and the sidecar
        geometry = spheremesh_mod.mesh_geometry(tri)
        pairs = spheremesh_mod.color_pairs(tri, coloring)
        if not meshaudit.audit_passes(spheremesh_mod.audit_mesh(tri, coloring, geometry, pairs)):
            return EXIT_SUITE_FAILURE, []
        doc = spheremesh_mod.sidecar_document(tri, coloring, geometry[0], pairs)
        if cfg.fmt == "json":
            doc["vertices"] = wire.Table([None] * 3, tuple(tri.vertices.T))
            doc["faces"] = wire.Table([None] * 3, tuple(tri.face_array.T))
            texts = [wire.indented_chunks(doc)]
        else:
            texts = [spheremesh_mod.off_chunks(tri), wire.indented_chunks(doc)]
        for path, chunks in zip(paths, texts):
            with open(path, "w") as handle:
                handle.writelines(chunks)
        created.clear()
    return EXIT_OK, [str(path) for path in paths]


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodge-domains",
        description="Invariants of PU(p,q) period domains, verified exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="combinatorial report for a rank tuple")
    rep.add_argument("--ranks", required=True, help="comma-separated ranks, e.g. 1,2,1")
    rep.add_argument("--format", default="json", choices=("json", "text"))
    rep.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="run the verification suites")
    ver.add_argument("--ranks", required=True)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--samples", type=int, default=1000)
    ver.add_argument("--format", default="json", choices=("json", "text"))
    ver.add_argument("--out", default=None)
    ver.add_argument(
        "--classify-out",
        default=None,
        help="stream per-sample plane classifications as JSON lines to this path",
    )

    mesh = sub.add_parser("mesh", help="export the subdivided colored octahedron")
    mesh.add_argument("--subdivisions", type=int, default=0)
    mesh.add_argument("--out", default=None)
    mesh.add_argument("--format", default="off", choices=("off", "json"))
    return parser


def _emit(doc: dict, fmt: str, out: Optional[str], to_text) -> None:
    payload = to_text(doc) if fmt == "text" else wire.dumps_indented(doc) + "\n"
    if out:
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            cfg = RunConfig(ranks=HodgeNumbers.parse(args.ranks), fmt=args.format, output=args.out)
            _emit(run_report(cfg), cfg.fmt, cfg.output, _report_text)
            return EXIT_OK
        if args.command == "verify":
            cfg = RunConfig(ranks=HodgeNumbers.parse(args.ranks), seed=args.seed, samples=args.samples,
                            fmt=args.format, output=args.out, classify_out=args.classify_out)
            doc = run_verify(cfg)
            _emit(doc, cfg.fmt, cfg.output, _verify_text)
            return EXIT_OK if doc["all_passed"] else EXIT_SUITE_FAILURE
        if args.command == "mesh":
            cfg = RunConfig(subdivisions=args.subdivisions, output=args.out, fmt=args.format)
            code, written = export_mesh(cfg)
            for path in written:
                sys.stdout.write(path + "\n")
            if code != EXIT_OK:
                sys.stderr.write("mesh audit failed; nothing written\n")
            return code
    except ResourceGuardError as exc:
        sys.stderr.write(f"resource guard: {exc}\n")
        return EXIT_RESOURCE_GUARD
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID_INPUT
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
