"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated time bound.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import random
import subprocess
import sys
import time

from conftest import all_rank_tuples, bounded_rank_tuples, cli_env, pointwise_rank, reference_is_kernel_basis
from hodge_domains.cli import RunConfig, run_verify
from hodge_domains.domain import describe_domain
from hodge_domains.exactla import Qi
from hodge_domains.higgs import (
    HiggsField,
    check_commutation,
    random_commuting_higgs,
    rank_one_lemma_check,
)
from hodge_domains.hodge import HodgeNumbers
from hodge_domains.horizontal import (
    isotropic_tuple_orbit_dimension,
    stabilizer_dimension,
    su22_embedding,
    verify_pu2n_criterion,
)
from hodge_domains.meshaudit import audit_passes
from hodge_domains.pi2 import class_closure_oracle, class_of_root, pi2_report
from hodge_domains.rootcalc import bracket_generating_check, nilradical
from hodge_domains.spheremesh import (
    audit_mesh,
    color_pairs,
    mesh_geometry,
    octahedron,
    subdivide,
    three_color,
)


def _finish(num: int, description: str, ok: bool, elapsed: float, bound: float):
    status = "PASS" if ok and elapsed < bound else "FAIL"
    print(f"[criterion {num:2d}] {status}  {description} ({elapsed:.2f}s, bound {bound:.0f}s)")
    assert ok, f"criterion {num} failed: {description}"
    assert elapsed < bound, f"criterion {num} exceeded its {bound}s bound ({elapsed:.2f}s)"


def test_criterion_01_dimension_identities():
    start = time.perf_counter()
    ok = True
    for n in range(1, 9):
        d = describe_domain(HodgeNumbers((1, n, 1)))
        ok = ok and d["dim"] == 2 * n + 1 and d["horizontal_rank"] == 2 * n
    _finish(1, "rank-(1,n,1) dimensions 2n+1 and horizontal rank 2n, n=1..8", ok, time.perf_counter() - start, 1.0)


def test_criterion_02_pi2_calculus():
    start = time.perf_counter()
    ok = True
    tuples = 0
    for hn in all_rank_tuples(8):
        tuples += 1
        rep = pi2_report(hn)
        ok = ok and rep["rank_flag_manifold"] == hn.k and rep["rank_domain"] == hn.k - 1
        ok = ok and rep["kernel_verified"]
        ok = ok and reference_is_kernel_basis(rep["kernel_basis"], hn.k)
        oracle = class_closure_oracle(hn)
        for root in nilradical(hn):
            ok = ok and class_of_root(root, hn) == oracle[root]
    _finish(
        2,
        f"sphere-class calculus: closed form vs relation closure, kernels ({tuples} rank tuples, m <= 8)",
        ok,
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_03_bracket_generation():
    start = time.perf_counter()
    ok = True
    tuples = 0
    for hn in bounded_rank_tuples(max_blocks=6, max_rank=3):
        tuples += 1
        ok = ok and bracket_generating_check(hn)[0]
    assert tuples == 9 + 27 + 81 + 243 + 729
    _finish(
        3,
        f"first level generates the nilradical by iterated brackets ({tuples} tuples, k <= 5, ranks <= 3)",
        ok,
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_04_pu2n_regularity_criterion():
    start = time.perf_counter()
    ok = True
    for n in (2, 3, 4):
        passed, rep = verify_pu2n_criterion(n, 10_000, seed=20_2400 + n, record=None)
        ok = ok and passed and rep["mismatches"] == 0 and rep["found_regular_isotropic"]
    _finish(
        4,
        "regular iff complex-independent on 10^4 exact planes each for n=2,3,4, with a regular isotropic witness",
        ok,
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_05_n1_obstruction():
    start = time.perf_counter()
    passed, rep = verify_pu2n_criterion(1, 10_000, seed=51, record=None)
    ok = (
        passed
        and rep["mismatches"] == 0
        and not rep["found_regular_isotropic"]
        and rep["isotropic_noncomplex"] == 0
        and rep["isotropic"] > 0
    )
    _finish(
        5,
        "n=1: no regular isotropic plane in 10^4 samples; every isotropic sample is a complex line",
        ok,
        time.perf_counter() - start,
        20.0,
    )


def test_criterion_06_stabilizer_dimensions():
    start = time.perf_counter()
    ok = True
    for n in range(1, 11):
        for k in range(1, n + 1):
            orbit = n * (2 * n + 1) - stabilizer_dimension(n, k)
            ok = ok and orbit == isotropic_tuple_orbit_dimension(n, k)
            ok = ok and orbit == 2 * n * k - k * (k - 1) // 2
    _finish(6, "isotropic-tuple stabilizer and orbit dimensions, 1 <= k <= n <= 10", ok, time.perf_counter() - start, 1.0)


def test_criterion_07_rank_one_lemma():
    start = time.perf_counter()
    ok = True
    triggered = 0
    count = 0
    shapes = [(a, 1, b) for a in range(1, 5) for b in range(1, 5)]
    combos = list(itertools.product(shapes, (2, 3), ("nullspace", "pullback")))
    seed = 0
    while count < 1000:
        shape, m_t, strategy = combos[count % len(combos)]
        field = random_commuting_higgs(HodgeNumbers(shape), m_t, seed=910_000 + seed, strategy=strategy)
        seed += 1
        count += 1
        holds, hit = rank_one_lemma_check(field)
        ok = ok and holds
        if hit:
            triggered += 1
    ok = ok and triggered >= 50

    # Exhaustive grid for shape (2,1,2), two directions, entries in {-1,0,1}:
    # every commuting field with rank(theta_0) >= 2 must have theta_1 = 0.
    hn = HodgeNumbers((2, 1, 2))
    grid_checked = 0
    grid_triggered = 0
    entries = (-1, 0, 1)
    for t0 in itertools.product(entries, repeat=4):
        theta0 = (((Qi(t0[0]), Qi(t0[1])),), ((Qi(t0[2]), Qi(t0[3])),))
        for t1 in itertools.product(entries, repeat=4):
            theta1 = (((Qi(t1[0]),), (Qi(t1[1]),)), ((Qi(t1[2]),), (Qi(t1[3]),)))
            field = HiggsField(hn, 2, (theta0, theta1))
            if check_commutation(field) is not None:
                continue
            grid_checked += 1
            if pointwise_rank(field, 0) >= 2:
                grid_triggered += 1
                ok = ok and pointwise_rank(field, 1) == 0
    ok = ok and grid_checked > 0 and grid_triggered > 0
    _finish(
        7,
        f"interior rank-one vanishing: 1000 seeded commuting fields ({triggered} triggered) "
        f"plus exhaustive grids ({grid_checked} commuting, {grid_triggered} triggered)",
        ok,
        time.perf_counter() - start,
        120.0,
    )


def test_criterion_08_su22_embedding():
    start = time.perf_counter()
    ok = True
    cases = []
    rng = random.Random(8)
    for ranks in ((1, 2, 1), (2, 3, 2), (2, 2, 2, 2)):
        hn = HodgeNumbers(ranks)
        for i in range(hn.k - 1):
            if hn.ranks[i + 1] >= 2:
                ok = ok and su22_embedding(hn, i, rng)
                cases.append((ranks, i))
    ok = ok and len(cases) == 4  # i=0 twice, plus i=0,1 for (2,2,2,2)
    _finish(
        8,
        "embedded rank-(1,2,1) models: the ambient bracket of carried pairs is the model's symplectic scalar",
        ok,
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_09_mesh_suite():
    start = time.perf_counter()
    ok = True
    tri = octahedron()
    prev_fineness = None
    for s in range(6):
        if s > 0:
            tri = subdivide(tri)
        coloring = three_color(tri)
        audit = audit_mesh(tri, coloring, mesh_geometry(tri), color_pairs(tri, coloring))
        ok = ok and audit_passes(audit)
        if prev_fineness is not None:
            ok = ok and audit["fineness"] < prev_fineness
        prev_fineness = audit["fineness"]
    _finish(
        9,
        "octahedron subdivisions s=0..5: even, 3-colored, Euler 2, circumcenters inside, gluing closed",
        ok,
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_10_determinism():
    start = time.perf_counter()
    cfg = RunConfig(ranks=HodgeNumbers((1, 2, 1)), seed=42, samples=300)
    first = json.dumps(run_verify(cfg), sort_keys=True)
    second = json.dumps(run_verify(cfg), sort_keys=True)
    ok = first == second and json.loads(first)["all_passed"]

    cmd = [
        sys.executable,
        "-m",
        "hodge_domains.cli",
        "verify",
        "--ranks",
        "1,2,1",
        "--seed",
        "42",
        "--samples",
        "200",
    ]
    run_a = subprocess.run(cmd, capture_output=True, env=cli_env())
    run_b = subprocess.run(cmd, capture_output=True, env=cli_env())
    ok = ok and run_a.returncode == 0 and run_a.stdout == run_b.stdout
    _finish(
        10,
        "verify is byte-identical across repeated runs with the same configuration",
        ok,
        time.perf_counter() - start,
        60.0,
    )
