"""Shared enumeration and matrix helpers for the suites."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Sequence

import hodge_domains
from hodge_domains.exactla import Qi, rank
from hodge_domains.hodge import HodgeNumbers


def cli_env() -> dict:
    """The environment for a `python -m hodge_domains.cli` child: this one with
    the package's source directory prepended to PYTHONPATH, so the child finds
    the package whether or not it is installed."""
    src = str(Path(hodge_domains.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


# the scalar has no subtraction or negation: x - y is x + y * MINUS_ONE
MINUS_ONE = Qi(-1)


def mat_sub(a, b):
    """The entrywise difference a - b of two matrices of Gaussian rationals."""
    return [[x + y * MINUS_ONE for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def bridge_root(ranks: HodgeNumbers, i: int, j: int) -> tuple[int, int]:
    """The root alpha_{R_i} + ... + alpha_{R_j} running from the last coordinate
    of block i to the first coordinate of block j+1 (i <= j <= k-1)."""
    walls = ranks.walls
    return walls[j], walls[i] - 1


def pointwise_rank(h, i: int) -> int:
    """Rank of theta_i of a Higgs field h with its directions stacked into one
    (tangent_dim * r_{i+1}) x r_i map: the rank the rank-one lemma reads."""
    return rank([row for mx in h.theta[i] for row in mx])


def compositions(m: int):
    """All ordered tuples of positive integers summing to m, length >= 2."""
    def rec(remaining, prefix):
        if remaining == 0:
            if len(prefix) >= 2:
                yield tuple(prefix)
            return
        for first in range(1, remaining + 1):
            yield from rec(remaining - first, prefix + [first])

    yield from rec(m, [])


def all_rank_tuples(max_m: int):
    """Every valid rank tuple with total rank between 2 and max_m."""
    for m in range(2, max_m + 1):
        for tup in compositions(m):
            yield HodgeNumbers(tup)


def bounded_rank_tuples(max_blocks: int, max_rank: int):
    """Every rank tuple with 2..max_blocks blocks and entries 1..max_rank."""
    def rec(blocks_left, prefix):
        if len(prefix) >= 2:
            yield HodgeNumbers(tuple(prefix))
        if blocks_left == 0:
            return
        for r in range(1, max_rank + 1):
            yield from rec(blocks_left - 1, prefix + [r])

    # depth-first over prefixes; each prefix is visited once, so no tuple repeats
    yield from rec(max_blocks, [])


def reference_hermite_normal_form(rows_in: Sequence[Sequence[int]]) -> list[list[int]]:
    """Canonical row-style Hermite normal form (zero rows dropped), by
    Euclid's algorithm down each column: two generating sets span one
    lattice iff their Hermite forms are equal."""
    rows = [list(map(int, r)) for r in rows_in]
    if not rows:
        return []
    nr, nc = len(rows), len(rows[0])
    piv = 0
    for c in range(nc):
        # Euclid within column c until at most one row below piv has a nonzero.
        while True:
            nz = [i for i in range(piv, nr) if rows[i][c] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(rows[i][c]))
            base = nz[0]
            for i in nz[1:]:
                q = rows[i][c] // rows[base][c]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[base])]
        nz = [i for i in range(piv, nr) if rows[i][c] != 0]
        if not nz:
            continue
        rows[piv], rows[nz[0]] = rows[nz[0]], rows[piv]
        if rows[piv][c] < 0:
            rows[piv] = [-x for x in rows[piv]]
        for i in range(nr):
            if i != piv and rows[i][c] != 0:
                q = rows[i][c] // rows[piv][c]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[piv])]
        piv += 1
    return rows[:piv]


def reference_is_kernel_basis(claimed: Sequence[Sequence[int]], k: int) -> bool:
    """Whether the vectors claimed are a Z-basis of the kernel of
    x -> sum_i (-1)^i x_i on Z^k, read off Hermite forms: there are k - 1 of
    them, each lies in the kernel, and together with e_0 (whose image is 1)
    they span Z^k, so the Hermite form of [claimed; e_0] is the identity."""
    e0 = [1] + [0] * (k - 1)
    identity = [[int(i == j) for j in range(k)] for i in range(k)]
    return (len(claimed) == k - 1
            and all(sum((-1) ** i * x for i, x in enumerate(c)) == 0 for c in claimed)
            and reference_hermite_normal_form([*claimed, e0]) == identity)


def flip(faces, u, v):
    """The faces with the edge (u, v) flipped: its faces (u, v, x) and
    (v, u, y) become (x, u, y) and (y, v, x)."""
    kept, third = [], {}
    for face in faces:
        turns = [face[r:] + face[:r] for r in range(3)]
        ends = [t[2] for t in turns if t[:2] in ((u, v), (v, u))]
        if ends:
            third[(u, v) in (t[:2] for t in turns)] = ends[0]
        else:
            kept.append(face)
    x, y = third[True], third[False]
    return kept + [(x, u, y), (y, v, x)]
