"""Brute-force machinery the constructive pipeline is checked against.

Everything here is deliberately naive: BFS closures in the unit group, an
explicit coordinate model of the wreath product C2 wr C_m, and a
backtracking isomorphism search over generator images of full tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .grpalg import AlgebraElement
# ClosureCapError is re-exported: bfs_closure raises it
from .pcgroup import ClosureCapError, closure  # noqa: F401

DEFAULT_CAP = 1 << 16


def bfs_closure(seeds, cap: int = DEFAULT_CAP) -> list[AlgebraElement]:
    """Smallest multiplicatively closed set of units containing the seeds and 1.

    Seeds must be normalized units over one group; the result is the
    subgroup they generate, sorted by bitset for determinism.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("bfs_closure needs at least one seed")
    algebra = seeds[0].algebra
    for u in seeds:
        if u.algebra.group is not algebra.group:
            raise ValueError("seeds over different groups")
        if u.augmentation() != 1:
            raise ValueError("seed is not a normalized unit")
    seen = closure([u.bits for u in seeds], algebra._conv.convolve, 1, cap)
    return [AlgebraElement(algebra, b) for b in sorted(seen)]


class TableGroup:
    """A finite group as an explicit multiplication table on 0..order-1."""

    def __init__(self, table: list[list[int]]):
        self.table = table
        self.order = len(table)
        self.identity = self._find_identity()
        self._orders: list[int] | None = None

    def _find_identity(self) -> int:
        rng = range(self.order)
        for e in rng:
            if all(self.table[e][x] == x == self.table[x][e] for x in rng):
                return e
        raise ValueError("multiplication table has no identity")

    @classmethod
    def from_elements(cls, elements, mulfn) -> "TableGroup":
        elements = list(elements)
        index = {x: i for i, x in enumerate(elements)}
        table = [[index[mulfn(x, y)] for y in elements] for x in elements]
        return cls(table)

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def inverse(self, x: int) -> int:
        return self.table[x].index(self.identity)

    def conjugate(self, x: int, g: int) -> int:
        return self.mul(self.mul(self.inverse(g), x), g)

    def order_of(self, x: int) -> int:
        k, y = 1, x
        while y != self.identity:
            y = self.mul(y, x)
            k += 1
        return k

    def order_profile(self) -> tuple[int, ...]:
        """Sorted element orders; fills the per-element list `_orders` once."""
        if self._orders is None:
            self._orders = [self.order_of(x) for x in range(self.order)]
        return tuple(sorted(self._orders))

    def closure(self, gens) -> set[int]:
        return closure(gens, self.mul, self.identity)

    def generating_sequence(self) -> list[int]:
        """Greedy generating sequence by decreasing element order, then index."""
        self.order_profile()
        gens: list[int] = []
        closed = {self.identity}
        for x in sorted(range(self.order), key=lambda x: (-self._orders[x], x)):
            if x not in closed:
                gens.append(x)
                closed = self.closure(gens)
        return gens


@dataclass(frozen=True)
class WreathModel:
    """Coordinate model of C2 wr C_m with the regular (rotation) action.

    Elements are pairs (v, t): v an m-bit base vector, t a shift.  The
    product is (v1, t1)(v2, t2) = (v1 + rot_t1(v2), t1 + t2 mod m) where
    rot_t moves coordinate j to j - t mod m.
    """

    m: int

    @property
    def order(self) -> int:
        return (1 << self.m) * self.m

    def rot(self, v: int, t: int) -> int:
        m = self.m
        t %= m
        mask = (1 << m) - 1
        return ((v >> t) | (v << (m - t))) & mask if t else v

    def mul(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        v1, t1 = x
        v2, t2 = y
        return (v1 ^ self.rot(v2, t1), (t1 + t2) % self.m)

    def identity(self) -> tuple[int, int]:
        return (0, 0)

    def base_unit(self, i: int) -> tuple[int, int]:
        return (1 << (i % self.m), 0)

    def shift(self) -> tuple[int, int]:
        return (0, 1)

    def elements(self) -> list[tuple[int, int]]:
        return [(v, t) for t in range(self.m) for v in range(1 << self.m)]

    def to_table_group(self) -> TableGroup:
        return TableGroup.from_elements(self.elements(), self.mul)


def reference_wreath(s: int) -> WreathModel:
    """The regular wreath product C2 wr C_{2^s}."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return WreathModel(m=1 << s)


@cache
def reference_table(s: int) -> TableGroup:
    """The table of reference_wreath(s), built once per s; do not mutate it."""
    return reference_wreath(s).to_table_group()


def _extend_isomorphism(a: TableGroup, b: TableGroup, gens, imgs):
    """Word extension of generator images; None unless a bijective hom.

    The BFS checks f(x·g) = f(x)·f(g) on every edge, for each generator g;
    every y is a word in the generators, so by induction on its length
    f(x·y) = f(x)·f(y).  A bijective f is therefore an isomorphism.
    """
    fmap = {a.identity: b.identity}
    queue = [a.identity]
    for x in queue:  # grows as it is read: a BFS
        fx = fmap[x]
        for g, h in zip(gens, imgs):
            y = a.mul(x, g)
            fy = b.mul(fx, h)
            known = fmap.get(y)
            if known is None:
                fmap[y] = fy
                queue.append(y)
            elif known != fy:
                return None
    if len(fmap) != a.order or len(set(fmap.values())) != a.order:
        return None
    return fmap


def isomorphic_small(a: TableGroup, b: TableGroup) -> bool:
    """Exact isomorphism test by backtracking over generator images.

    An image y of generator t is tried only if it has t's order and
    |img_u·y| = |g_u·g_t| for each earlier u; then the images so far must
    generate a subgroup as large as the generators so far do.
    Intended for orders up to 64; correct (if slower) beyond that.
    """
    if a.order != b.order or a.order_profile() != b.order_profile():
        return False
    a_ord, b_ord = a._orders, b._orders
    gens = a.generating_sequence()
    sizes = [len(a.closure(gens[: t + 1])) for t in range(len(gens))]
    pair_orders = [[a_ord[a.mul(u, g)] for u in gens[:t]] for t, g in enumerate(gens)]
    candidates = [[y for y in range(b.order) if b_ord[y] == a_ord[g]] for g in gens]

    def search(t: int, imgs: list[int]) -> bool:
        if t == len(gens):
            return _extend_isomorphism(a, b, gens, imgs) is not None
        for y in candidates[t]:
            if any(b_ord[b.mul(h, y)] != k for h, k in zip(imgs, pair_orders[t])):
                continue
            imgs.append(y)
            full = t + 1 == len(gens)  # then the leaf's bijection check sizes it
            if (full or len(b.closure(imgs)) == sizes[t]) and search(t + 1, imgs):
                return True
            imgs.pop()
        return False

    return search(0, [])
