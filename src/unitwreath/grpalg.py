"""Group algebra over GF(2) for a finite 2-group.

An algebra element is a subset of the group, stored as an int bitset over
the group's canonical element index.  Addition is symmetric difference,
multiplication is convolution through left-multiplication rows, which the
algebra takes from the group (FiniteGroup.row) as it reads them and keeps
(a RowStore), so the algebra is built only up to pcgroup.CAYLEY_LIMIT.
Odd-support elements are exactly the normalized units: the augmentation
ideal of a 2-group algebra in characteristic 2 is nilpotent, so they are
invertible with 2-power order.  The unit arithmetic the tests compare
the group-product paths against (powers, orders, inverses and conjugates
of units, computed in the algebra alone) lives with the tests, in
tests/algebra_reference.py.
"""

from __future__ import annotations

from . import kernels
from .pcgroup import FiniteGroup, check_table_limit


class RowStore(dict):
    """Left-multiplication rows by element, store[x][y] = x·y, built on first use.

    It starts with the identity's row; every other row is the group's,
    FiniteGroup.row, kept once read.
    """

    def __init__(self, group: FiniteGroup):
        super().__init__({0: list(group.elements())})
        self.group = group

    def __missing__(self, x: int) -> list[int]:
        if not 0 < x < self.group.order:
            raise IndexError(f"element index {x} out of range")
        row = self[x] = self.group.row(x)
        return row


class GroupAlgebra:
    """KG for K = GF(2); keeps the convolution kernel and its rows for its group."""

    def __init__(self, group: FiniteGroup):
        check_table_limit(group)
        self.group = group
        self.order = group.order
        self._conv = kernels.Convolver(RowStore(group))

    # --- constructors -----------------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, 0)

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, 1)

    def embed(self, g: int) -> "AlgebraElement":
        """Canonical (multiplicative) embedding of a group element."""
        return self.from_support((g,))

    def from_support(self, indices) -> "AlgebraElement":
        bits = 0
        for g in indices:
            if not 0 <= g < self.order:
                raise ValueError(f"element index {g} out of range")
            bits ^= 1 << g
        return AlgebraElement(self, bits)


class AlgebraElement:
    """An element of KG as an immutable bitset over the element index."""

    __slots__ = ("algebra", "bits")

    def __init__(self, algebra: GroupAlgebra, bits: int):
        self.algebra = algebra
        self.bits = bits

    def _check(self, other: "AlgebraElement") -> None:
        if self.algebra.group is not other.algebra.group:
            raise ValueError("algebra elements over different groups")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.algebra, self.bits ^ other.bits)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(
            self.algebra, self.algebra._conv.convolve(self.bits, other.bits)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.algebra.group is other.algebra.group
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash(self.bits)

    def support(self) -> tuple[int, ...]:
        return tuple(kernels.bit_indices(self.bits))

    def augmentation(self) -> int:
        """Image under the augmentation map KG -> GF(2)."""
        return self.bits.bit_count() & 1

    def words(self) -> str:
        """Human-readable sum of group-element words, e.g. "1 + b + b·z"."""
        if self.bits == 0:
            return "0"
        group = self.algebra.group
        return " + ".join(group.word_str(g) for g in self.support())

    def __repr__(self):
        return f"AlgebraElement({self.words()})"

