"""Unit arithmetic computed in the group algebra alone, by convolution.

The package proves its facts about units by group products; these are the
references the tests compare those paths against.  Odd-support elements
are exactly the normalized units: the augmentation ideal of a 2-group
algebra in characteristic 2 is nilpotent, so they are invertible with
2-power order.
"""

from unitwreath.grpalg import AlgebraElement
from unitwreath.oracle import TableGroup


def _require_normalized(u: AlgebraElement) -> None:
    if u.augmentation() != 1:
        raise ValueError("not a normalized unit: augmentation is 0")


def power(u: AlgebraElement, m: int) -> AlgebraElement:
    """u^m by repeated squaring; a negative m powers the inverse."""
    if m < 0:
        return power(inverse_unit(u), -m)
    acc = u.algebra.one()
    base = u
    while m:
        if m & 1:
            acc = acc * base
        base = base * base
        m >>= 1
    return acc


def unit_order(u: AlgebraElement) -> int:
    """Order of a normalized unit; a power of 2, found by repeated squaring."""
    _require_normalized(u)
    order = 1
    one = u.algebra.one()
    while u != one:
        u = u * u
        order <<= 1
    return order


def inverse_unit(u: AlgebraElement) -> AlgebraElement:
    """u^(2^m - 1) where 2^m is the unit order."""
    _require_normalized(u)
    return power(u, unit_order(u) - 1)


def conjugate_unit(u: AlgebraElement, g: int) -> AlgebraElement:
    """embed(g)^-1 * u * embed(g)."""
    _require_normalized(u)
    algebra = u.algebra
    ginv = algebra.embed(algebra.group.inverse(g))
    return ginv * u * algebra.embed(g)


def order_of(group: TableGroup, x: int) -> int:
    """The order of x in a multiplication-table group."""
    return group._powers(x)[0]
