"""Second homotopy classes of root 2-spheres in the flag manifold and the
open orbit: coordinates in the wall basis, the projection to the Grassmannian,
kernels, and the generation report for horizontal representatives.

Classes live in Z^k with basis the classes of the wall-root spheres.  Two
relations compute everything: the class of a sum of roots is the sum of the
classes, and adding a block-diagonal (level-0) root does not change the class.
The closed form reads off which of the k walls a root's block interval
crosses; an independent brute-force fixpoint closure of the two relations is
kept alongside it as an oracle.
"""

from __future__ import annotations

from typing import Sequence

from .exactla import is_unimodular
from .hodge import HodgeNumbers
from .rootcalc import level_zero_roots, nilradical, root_sum, wall_roots


class OracleInconsistentError(RuntimeError):
    """The relation closure assigned contradictory sphere classes."""


class OracleUnderdeterminedError(RuntimeError):
    """The relation closure left some sphere class unassigned."""


def class_of_root(root: tuple[int, int], ranks: HodgeNumbers) -> tuple[int, ...]:
    """Closed form: coordinate w is 1 iff the root's block interval crosses wall w."""
    block_of = ranks.block_of
    lo, hi = block_of[root[1]], block_of[root[0]]
    if lo >= hi:
        raise ValueError(f"{_root_str(root)} is not a nilradical root for ranks {ranks.ranks}")
    return tuple(1 if lo <= w < hi else 0 for w in range(ranks.k))


def class_closure_oracle(ranks: HodgeNumbers) -> dict:
    """Brute-force closure of the two sphere-class relations over the root poset.

    Seeds the wall roots with the standard basis classes and saturates
    class(a+b) = class(a) + class(b) (a, b, a+b nilradical roots) and
    class(b+g) = class(b) (g a level-0 root) by fixpoint iteration.  Fails
    loudly if the system is inconsistent or underdetermined.
    """
    k = ranks.k
    n_roots = nilradical(ranks)
    known = {beta: tuple(int(w == i) for w in range(k)) for i, beta in enumerate(wall_roots(ranks))}

    def add(a, b):
        return tuple(x + y for x, y in zip(known[a], known[b]))

    n_set = set(n_roots)
    sum_relations = [(a, b, c) for ia, a in enumerate(n_roots) for b in n_roots[ia:]
                     if (c := root_sum(a, b)) in n_set]
    shift_relations = [(b, a) for b in n_roots for g in level_zero_roots(ranks)
                       if (a := root_sum(b, g)) in n_set]

    changed = True
    while changed:
        changed = False
        for a, b, c in sum_relations:
            if a in known and b in known and c not in known:
                known[c] = add(a, b)
                changed = True
        for b, a in shift_relations:
            if b in known and a not in known:
                known[a] = known[b]
                changed = True
            elif a in known and b not in known:
                known[b] = known[a]
                changed = True

    missing = [r for r in n_roots if r not in known]
    if missing:
        raise OracleUnderdeterminedError(
            f"classes of {', '.join(map(_root_str, missing))} not determined by the relations"
        )
    for a, b, c in sum_relations:
        if known[c] != add(a, b):
            raise OracleInconsistentError(
                f"additivity fails on {_root_str(a)} + {_root_str(b)} = {_root_str(c)}")
    for b, a in shift_relations:
        if known[a] != known[b]:
            raise OracleInconsistentError(f"level-0 shift changes the class of {_root_str(b)}")
    return known


def pi_u_star(coords: Sequence[int]) -> int:
    """Image degree of a sphere class, given by its coordinates, under the
    Grassmannian projection: the alternating coordinate sum."""
    return sum((-1) ** i * a for i, a in enumerate(coords))


def _root_str(root: tuple[int, int]) -> str:
    return f"e{root[0] + 1}-e{root[1] + 1}"


def pi2_report(ranks: HodgeNumbers) -> dict:
    """The report's "pi2" section: ranks and kernel data of the projection on
    second homotopy, with the wall roots beta_0 .. beta_{k-1} as the basis.

    The reported classes c_i = e_i + e_{i+1}, the closed-form classes of the
    roots from the last coordinate of block i to the first of block i+2, are
    checked to be a Z-basis of the kernel of pi_u*: Z^k -> Z.  As
    pi_u*(e_0) = 1, they are such a basis exactly when pi_u* kills each c_i
    and [c_0; ...; c_{k-2}; e_0] is unimodular: then Z^k = span(c) + Z e_0
    maps onto 0 + Z, and conversely the kernel and Z e_0 split Z^k.
    """
    k, walls = ranks.k, ranks.walls
    kernel_classes = [class_of_root((walls[i + 1], walls[i] - 1), ranks) for i in range(k - 1)]
    verified = all(pi_u_star(c) == 0 for c in kernel_classes) and is_unimodular(
        [*kernel_classes, [1] + [0] * (k - 1)]
    )
    if not verified:
        raise AssertionError("kernel basis does not span the exact integer kernel")
    return {
        "rank_flag_manifold": k,
        "rank_domain": k - 1,
        "basis": [_root_str(b) for b in wall_roots(ranks)],
        "kernel_basis": [list(c) for c in kernel_classes],
        "kernel_verified": verified,
    }


def superhorizontal_generation_report(ranks: HodgeNumbers) -> dict:
    """The report's "superhorizontal" section: which kernel generators admit
    horizontal sphere representatives.

    Generator i (i = 0..k-2), bridging walls i and i+1, is representable when
    the middle block has rank r_{i+1} >= 2.  When r_{i+1} = 1 the question is
    open, so the status is 'unknown' rather than 'false'.  Full generation is
    equivalent to no interior block having rank 1.
    """
    gens = []
    for i in range(ranks.k - 1):
        middle = ranks.ranks[i + 1]
        status = "representable" if middle >= 2 else "unknown"
        gens.append({"index": i, "middle_rank": middle, "status": status})
    fully = all(g["status"] == "representable" for g in gens)
    interior_one = ranks.has_interior_rank_one
    if fully == interior_one:
        raise AssertionError("generation report disagrees with the interior-rank-one flag")
    return {"generators": gens, "fully_generated": fully, "interior_rank_one": interior_one}
