"""Brute-force machinery the constructive pipeline is checked against.

Everything here is deliberately naive: BFS closures in the unit group, an
explicit coordinate model of the wreath product C2 wr C_m, and a
backtracking isomorphism search over generator images of full tables.
"""

from __future__ import annotations

from functools import cache

from .grpalg import AlgebraElement
from .pcgroup import closure, compose

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
        self._inverses: list[int] | None = None

    def _find_identity(self) -> int:
        rng = range(self.order)
        for e in rng:
            if all(self.table[e][x] == x == self.table[x][e] for x in rng):
                return e
        raise ValueError("multiplication table has no identity")

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def inverse(self, x: int) -> int:
        """x⁻¹, the power of x before 1: |x| lookups, where x's row has |G|."""
        return self._powers(x)[1]

    def conjugate(self, x: int, g: int) -> int:
        return self.mul(self.mul(self.inverse(g), x), g)

    def _powers(self, x: int) -> tuple[int, int]:
        """(|x|, x⁻¹): steps x, x², … to 1, and x⁻¹ is the power before 1."""
        k, y, last = 1, x, self.identity
        while y != self.identity:
            last, y = y, self.mul(y, x)
            k += 1
        return k, last

    def order_profile(self) -> tuple[int, ...]:
        """Sorted element orders; fills `_orders` and `_inverses` once."""
        if self._orders is None:
            powers = [self._powers(x) for x in range(self.order)]
            self._orders = [k for k, _ in powers]
            self._inverses = [inv for _, inv in powers]
        return tuple(sorted(self._orders))

    def _pair_orders(self, x: int, y: int) -> tuple[int, int]:
        """(|xy|, |(x, y)|), with (x, y) = x⁻¹y⁻¹xy; after order_profile()."""
        t, inv = self.table, self._inverses
        xy = t[x][y]
        return self._orders[xy], self._orders[t[t[inv[x]][inv[y]]][xy]]

    def closure(self, gens) -> set[int]:
        return closure(gens, self.mul, self.identity)

    def generating_sequence(self) -> list[int]:
        """A minimal generating sequence of a 2-group, by decreasing order, then index.

        Burnside's basis theorem: a set generates G exactly when it
        generates G modulo the Frattini subgroup, and in a 2-group that is
        H, the closure of the squares.  H holds G', as
        (x, y) = x⁻²(xy⁻¹)²y², so H is normal, and x² ∈ H: ⟨H, x⟩ = H ∪ H·x.
        Each x outside H is taken and doubles H, so the sequence has
        log2(|G| / |H|) = d(G) elements, found in fewer than |G| products
        after closing the squares.  Raises ValueError unless |G| is a
        power of 2.
        """
        if self.order & (self.order - 1):
            raise ValueError(f"order {self.order} is not a power of 2")
        self.order_profile()
        closed = self.closure({self.mul(x, x) for x in range(self.order)})
        gens: list[int] = []
        for x in sorted(range(self.order), key=lambda x: (-self._orders[x], x)):
            if x not in closed:
                gens.append(x)
                closed |= {self.mul(h, x) for h in closed}
        return gens


def table_from_rows(rows, identity: int) -> list[list[int]]:
    """Cayley table on 0..N-1 from the generators' left-multiplication rows.

    rows[k][y] is gk·y.  Every element x = gk·w that closure reaches from
    identity gets its row by composing gk's with w's, x·y = gk·(w·y)
    (pcgroup.compose), so the generators must generate the group.
    """
    table: list = [None] * len(rows[0])
    table[identity] = list(range(len(table)))

    def left(w: int, k: int) -> int:
        x = rows[k][w]
        if table[x] is None:
            table[x] = compose(rows[k], table[w])
        return x

    closure(range(len(rows)), left, identity)
    return table


class WreathModel:
    """Coordinate model of C2 wr C_m (order 2^m·m) with the regular (rotation) action.

    Elements are pairs (v, t): v an m-bit base vector, t a shift.  The
    product is (v1, t1)(v2, t2) = (v1 + rot_t1(v2), t1 + t2 mod m) where
    rot_t moves coordinate j to j - t mod m.
    """

    def __init__(self, m: int):
        self.m, self.order = m, (1 << m) * m

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
        """The table from the rows of the shift and the base unit e0, which generate."""
        elements = self.elements()
        index = {x: i for i, x in enumerate(elements)}
        gens = (self.shift(), self.base_unit(0))
        rows = [[index[self.mul(g, y)] for y in elements] for g in gens]
        return TableGroup(table_from_rows(rows, index[self.identity()]))


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
    """Exact isomorphism test of 2-groups by backtracking over generator images.

    The generators are a minimal generating sequence of a, so the search
    is d(a) deep (see TableGroup.generating_sequence; a must be a 2-group).
    An image y of generator t is tried only if it has t's order and, for
    each earlier u, |img_u·y| = |g_u·g_t| and |(img_u, y)| = |(g_u, g_t)|,
    both of which an isomorphism preserves; the images so far must then
    generate a subgroup as large as the generators so far do (at t = 0 the
    order test says so, and the leaf's bijection test sizes the last).
    Intended for orders up to 64; correct (if slower) beyond that.
    """
    if a.order != b.order or a.order_profile() != b.order_profile():
        return False
    gens = a.generating_sequence()
    sizes = {t: len(a.closure(gens[: t + 1])) for t in range(1, len(gens) - 1)}
    pairs = [[a._pair_orders(u, g) for u in gens[:t]] for t, g in enumerate(gens)]
    candidates = [[y for y in range(b.order) if b._orders[y] == a._orders[g]] for g in gens]

    def search(t: int, imgs: list[int]) -> bool:
        if t == len(gens):
            return _extend_isomorphism(a, b, gens, imgs) is not None
        for y in candidates[t]:
            if any(b._pair_orders(h, y) != k for h, k in zip(imgs, pairs[t])):
                continue
            imgs.append(y)
            if (t not in sizes or len(b.closure(imgs)) == sizes[t]) and search(t + 1, imgs):
                return True
            imgs.pop()
        return False

    return search(0, [])
