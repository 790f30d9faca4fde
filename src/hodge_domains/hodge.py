"""Hodge numbers: the tuple (r_0, ..., r_k) of block ranks.

Everything else in the package is driven by this tuple.  Coordinates of the
underlying C^(p+q) come in two orderings:

* block order: the r_0 coordinates of block 0 first, then block 1, and so on
  (used by the root/Lie-algebra layer);
* signature order: the p plus-signed coordinates first, then the q
  minus-signed ones (used by the flag/period-domain layer, where the
  Hermitian form is diag(+1 x p, -1 x q)).

``block_to_signature`` is the permutation between the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class HodgeNumbers:
    """Ranks (r_0, ..., r_k) of the graded pieces, all positive, k >= 1.  m, walls and
    block_of are cached in the instance __dict__, which __eq__ and __hash__ never read."""

    ranks: tuple[int, ...]

    def __post_init__(self):
        ranks = tuple(self.ranks)
        object.__setattr__(self, "ranks", ranks)
        if any(type(r) is not int for r in ranks):
            raise ValueError(f"invalid ranks {ranks!r}: every rank must be an int")
        if len(ranks) < 2:
            raise ValueError(f"invalid ranks {ranks!r}: need at least two blocks (k >= 1)")
        if any(r <= 0 for r in ranks):
            raise ValueError(f"invalid ranks {ranks!r}: every rank must be positive")

    @classmethod
    def parse(cls, text: str) -> "HodgeNumbers":
        """Parse a comma-separated rank list such as '1,2,1'."""
        try:
            ranks = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"invalid ranks {text!r}: expected comma-separated integers") from None
        return cls(ranks)

    @property
    def k(self) -> int:
        return len(self.ranks) - 1

    @cached_property
    def m(self) -> int:
        return sum(self.ranks)

    @property
    def p(self) -> int:
        return sum(r for i, r in enumerate(self.ranks) if i % 2 == 0)

    @property
    def q(self) -> int:
        return sum(r for i, r in enumerate(self.ranks) if i % 2 == 1)

    @cached_property
    def walls(self) -> tuple[int, ...]:
        """Cumulative sums R_i = r_0 + ... + r_i for i = 0..k-1 (1-based wall positions)."""
        acc, out = 0, []
        for r in self.ranks[:-1]:
            acc += r
            out.append(acc)
        return tuple(out)

    @cached_property
    def block_of(self) -> tuple[int, ...]:
        """0-based coordinate -> block index, in block order."""
        out = []
        for i, r in enumerate(self.ranks):
            out.extend([i] * r)
        return tuple(out)

    def block_range(self, i: int) -> range:
        """0-based coordinate range of block i, in block order."""
        start = sum(self.ranks[:i])
        return range(start, start + self.ranks[i])

    @property
    def has_interior_rank_one(self) -> bool:
        """Whether some interior block (0 < i < k) has rank 1."""
        return any(r == 1 for r in self.ranks[1:-1])

    def block_to_signature(self) -> tuple[int, ...]:
        """Permutation sending block-order coordinates to signature-order ones.

        Even blocks take the next unused plus coordinates (0..p-1), odd blocks
        the next unused minus coordinates (p..p+q-1), both 0-based.
        """
        next_pos, next_neg = 0, self.p
        out = []
        for i, r in enumerate(self.ranks):
            if i % 2 == 0:
                out.extend(range(next_pos, next_pos + r))
                next_pos += r
            else:
                out.extend(range(next_neg, next_neg + r))
                next_neg += r
        return tuple(out)

    def signature_signs(self) -> tuple[int, ...]:
        """Signs of the Hermitian form in signature order: +1 x p then -1 x q."""
        return (1,) * self.p + (-1,) * self.q
