"""GF(2) convolution kernel.

Algebra elements are int bitsets over the group's element index.  The
product toggles one output bit per (support, support) pair via the left
operand's multiplication rows, which is the hot loop of every unit-group
closure.  A factor that multiplies many others is turned into its columns
once, and each product is then one XOR per support element (`apply`).
"""

from __future__ import annotations

IMPL = "python"


def bit_indices(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


class Convolver:
    """GF(2) convolution over left-multiplication rows, rows[x][y] = x·y.

    The rows are a full table, or the grpalg.RowStore that a GroupAlgebra
    builds for itself, which builds the row of each support element of the
    left operand the first time it is read and keeps it.
    """

    def __init__(self, rows):
        self._rows = rows  # never mutated here

    def convolve(self, ubits: int, vbits: int) -> int:
        v_idx = bit_indices(vbits)
        acc = 0
        rows = self._rows
        while ubits:
            low = ubits & -ubits
            row = rows[low.bit_length() - 1]
            for j in v_idx:
                acc ^= 1 << row[j]
            ubits ^= low
        return acc

    def columns(self, ubits: int) -> list[int]:
        """[u·gj for every j], from the row of each element of u's support.

        For each j the x·gj over x in the support are distinct, so column j
        is the OR of their shifted bits, built up one support row at a time.
        """
        if not ubits:
            return [0] * len(self._rows[0])
        first, *rest = [self._rows[i] for i in bit_indices(ubits)]
        cols = [1 << y for y in first]
        for row in rest:
            cols = [c | 1 << y for c, y in zip(cols, row)]
        return cols


def apply(columns: list[int], vbits: int) -> int:
    """The XOR of columns[j] over j in v's support, by bilinearity u·v for u's
    columns, and v·t for the columns gj·t of a group element t."""
    acc = 0
    while vbits:
        low = vbits & -vbits
        acc ^= columns[low.bit_length() - 1]
        vbits ^= low
    return acc
