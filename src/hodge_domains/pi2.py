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

from dataclasses import dataclass
from typing import Sequence

from .exactla import is_unimodular
from .hodge import HodgeNumbers
from .rootcalc import (
    ParabolicData,
    RootVector,
    parabolic_from_ranks,
    root_sum,
    wall_roots,
)


class OracleInconsistentError(RuntimeError):
    """The relation closure assigned contradictory sphere classes."""


class OracleUnderdeterminedError(RuntimeError):
    """The relation closure left some sphere class unassigned."""


@dataclass(frozen=True)
class Pi2Class:
    """An integer vector in the basis of wall-root sphere classes."""

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))

    @property
    def k(self) -> int:
        return len(self.coords)

    def __add__(self, other: "Pi2Class") -> "Pi2Class":
        if self.k != other.k:
            raise ValueError("class dimension mismatch")
        return Pi2Class(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __repr__(self):
        return f"Pi2Class{self.coords}"


def basis_class(k: int, i: int) -> Pi2Class:
    coords = [0] * k
    coords[i] = 1
    return Pi2Class(tuple(coords))


def class_of_root(root: RootVector, pd: ParabolicData) -> Pi2Class:
    """Closed form: coordinate w is 1 iff the root's block interval crosses wall w."""
    if root not in pd.n_roots:
        raise ValueError(f"{root!r} is not a nilradical root for ranks {pd.ranks.ranks}")
    lo = pd.block_of[root.minus_index]
    hi = pd.block_of[root.plus_index]
    k = pd.ranks.k
    return Pi2Class(tuple(1 if lo <= w < hi else 0 for w in range(k)))


def class_closure_oracle(pd: ParabolicData) -> dict:
    """Brute-force closure of the two sphere-class relations over the root poset.

    Seeds the wall roots with the standard basis classes and saturates
    class(a+b) = class(a) + class(b) (a, b, a+b nilradical roots) and
    class(b+g) = class(b) (g a level-0 root) by fixpoint iteration.  Fails
    loudly if the system is inconsistent or underdetermined.
    """
    k = pd.ranks.k
    n_roots = pd.sorted_n_roots()
    v_roots = sorted(pd.v_roots)
    known: dict[RootVector, Pi2Class] = {}
    for i, beta in enumerate(wall_roots(pd)):
        known[beta] = basis_class(k, i)

    sum_relations = []
    n_set = pd.n_roots
    for ia, a in enumerate(n_roots):
        for b in n_roots[ia:]:
            c = root_sum(a, b)
            if c is not None and c in n_set:
                sum_relations.append((a, b, c))
    shift_relations = []
    for b in n_roots:
        for g in v_roots:
            a = root_sum(b, g)
            if a is not None and a in n_set:
                shift_relations.append((b, a))

    changed = True
    while changed:
        changed = False
        for a, b, c in sum_relations:
            if a in known and b in known and c not in known:
                known[c] = known[a] + known[b]
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
            f"classes of {missing} not determined by the relations"
        )
    for a, b, c in sum_relations:
        if known[c] != known[a] + known[b]:
            raise OracleInconsistentError(f"additivity fails on {a!r} + {b!r} = {c!r}")
    for b, a in shift_relations:
        if known[a] != known[b]:
            raise OracleInconsistentError(f"level-0 shift changes the class of {b!r}")
    return known


def pi_u_star(coords: Sequence[int]) -> int:
    """Image degree of a sphere class, given by its coordinates, under the
    Grassmannian projection: the alternating coordinate sum."""
    return sum((-1) ** i * a for i, a in enumerate(coords))


def _root_str(root: RootVector) -> str:
    return f"e{root.plus_index + 1}-e{root.minus_index + 1}"


def pi2_report(ranks: HodgeNumbers) -> dict:
    """The report's "pi2" section: ranks and kernel data of the projection on
    second homotopy, with the wall roots beta_0 .. beta_{k-1} as the basis.

    The reported classes c_i = e_i + e_{i+1} are checked to be a Z-basis of
    the kernel of pi_u*: Z^k -> Z.  As pi_u*(e_0) = 1, they are such a basis
    exactly when pi_u* kills each c_i and [c_0; ...; c_{k-2}; e_0] is
    unimodular: then Z^k = span(c) + Z e_0 maps onto 0 + Z, and conversely
    the kernel and Z e_0 split Z^k.
    """
    k = ranks.k
    kernel_classes = [
        Pi2Class(tuple(1 if w in (i, i + 1) else 0 for w in range(k)))
        for i in range(k - 1)
    ]
    verified = all(pi_u_star(c.coords) == 0 for c in kernel_classes) and is_unimodular(
        [*(c.coords for c in kernel_classes), basis_class(k, 0).coords]
    )
    if not verified:
        raise AssertionError("kernel basis does not span the exact integer kernel")
    return {
        "rank_flag_manifold": k,
        "rank_domain": k - 1,
        "basis": [_root_str(b) for b in wall_roots(parabolic_from_ranks(ranks))],
        "kernel_basis": [list(c.coords) for c in kernel_classes],
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
