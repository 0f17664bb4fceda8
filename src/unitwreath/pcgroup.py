"""Finite 2-group engine over polycyclic presentations.

Groups are given by a triangular power/conjugation presentation in which
every relative order is 2, so a group on n generators has order 2^n and
every element has a unique normal form g1^e1 ... gn^en with ei in {0,1}.

Elements are handled as canonical indices: the integer whose binary digits
are the exponent vector, g1 most significant.  The identity is 0 and the
integer order on indices is the lexicographic order on exponent vectors.

Products are read off one table per generator, right[j][x] = x·gj, built
at load layer by layer: G_j = <gj, ..., gn> extends G_(j+1) by gj, and
x = H·L with H on letters <= j and L in G_(j+1) gives x·gj = H·gj·L^gj
(Sims 1994, ch. 9; Holt, Eick and O'Brien 2005, ch. 8).  Rows x ↦ [x·y]
are kept too, each built when first read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from pathlib import Path


class PcError(Exception):
    """Base class for presentation loading failures."""


class ParseError(PcError):
    """Malformed presentation source."""


class ConstraintError(PcError):
    """A relation word violates the triangular index constraints."""


class ConsistencyError(PcError):
    """Collection over the presentation does not realize a group of order 2^n."""


class TableLimitError(PcError):
    """The group is too large for an operation that needs its Cayley table."""


class ClosureCapError(Exception):
    """A closure grew past its size cap."""


WORD_SEP = "·"  # interpunct, used when printing element words


def _name_fault(gens) -> str | None:
    """Why words cannot name the generators apart (a repeat, "1", or a separator), or None."""
    if len(set(gens)) != len(gens):
        return "duplicate generator names"
    bad = [g for g in gens if g == "1" or set(g) & set("*·,=")]
    return f"generator name {bad[0]!r} is '1' or holds '*', '·', ',' or '='" if bad else None


@dataclass(frozen=True)
class PcPresentation:
    """Power/conjugation data for a 2-group on n generators.

    Words are tuples of 1-based generator indices.  Missing power entries
    mean gi^2 = 1; missing conjugation entries mean the pair commutes.
    """

    name: str
    gens: tuple[str, ...]
    powers: dict[int, tuple[int, ...]] = field(default_factory=dict)
    conjugations: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.gens)

    def validate(self) -> None:
        n = self.n
        if n < 1:
            raise ParseError(f"{self.name}: no generators declared")
        if fault := _name_fault(self.gens):
            raise ParseError(f"{self.name}: {fault}")
        for i, word in self.powers.items():
            if not 1 <= i <= n:
                raise ConstraintError(f"{self.name}: pow index {i} out of range")
            if any(not i < j <= n for j in word):
                raise ConstraintError(
                    f"{self.name}: power word of g{i} must use indices > {i}"
                )
        for (i, j), word in self.conjugations.items():
            if not (1 <= i < j <= n):
                raise ConstraintError(
                    f"{self.name}: conjugation pair ({i},{j}) requires i < j"
                )
            if not word or word[0] != j:
                raise ConstraintError(
                    f"{self.name}: conjugation word for ({i},{j}) must begin with g{j}"
                )
            # tail indices only need to exceed the conjugating index i:
            # collection moving gi past gj then only emits letters > i,
            # which is what termination needs
            if any(not k > i for k in word[1:]):
                raise ConstraintError(
                    f"{self.name}: conjugation word tail for ({i},{j}) must use indices > {i}"
                )


def parse_presentation(text: str, name_hint: str = "<input>") -> PcPresentation:
    """Parse the line-oriented presentation format.

    Syntax (UTF-8, '#' starts a comment):
        group <name>
        gens <g1> <g2> ... <gN>      (no name is 1 or holds *, ·, , or =)
        pow <gi> = <word>
        conj <gj> <gi> = <word>
    where <word> is a space-separated list of generator names, or "1".
    """
    name = None
    gens: list[str] = []
    gen_index: dict[str, int] = {}
    powers: dict[int, tuple[int, ...]] = {}
    conjugations: dict[tuple[int, int], tuple[int, ...]] = {}

    def parse_word(tokens: list[str], where: str) -> tuple[int, ...]:
        if tokens == ["1"]:
            return ()
        out = []
        for tok in tokens:
            if tok not in gen_index:
                raise ParseError(f"{name_hint}:{where}: unknown generator {tok!r}")
            out.append(gen_index[tok])
        return tuple(out)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        parts = line.split()
        kw = parts[0]
        if kw == "group":
            if name is not None:
                raise ParseError(f"{name_hint}:{where}: duplicate group line")
            if len(parts) != 2:
                raise ParseError(f"{name_hint}:{where}: expected 'group <name>'")
            name = parts[1]
        elif kw == "gens":
            if gens:
                raise ParseError(f"{name_hint}:{where}: duplicate gens line")
            if len(parts) < 2:
                raise ParseError(f"{name_hint}:{where}: expected generator names")
            gens = parts[1:]
            if fault := _name_fault(gens):
                raise ParseError(f"{name_hint}:{where}: {fault}")
            gen_index = {g: i for i, g in enumerate(gens, start=1)}
        elif kw == "pow":
            if not gens:
                raise ParseError(f"{name_hint}:{where}: pow before gens")
            m = re.match(r"pow\s+(\S+)\s*=\s*(.*)$", line)
            if not m:
                raise ParseError(f"{name_hint}:{where}: expected 'pow <g> = <word>'")
            g, rhs = m.group(1), m.group(2).split()
            if g not in gen_index:
                raise ParseError(f"{name_hint}:{where}: unknown generator {g!r}")
            i = gen_index[g]
            if i in powers:
                raise ParseError(f"{name_hint}:{where}: duplicate pow for {g}")
            if not rhs:
                raise ParseError(f"{name_hint}:{where}: empty right-hand side")
            powers[i] = parse_word(rhs, where)
        elif kw == "conj":
            if not gens:
                raise ParseError(f"{name_hint}:{where}: conj before gens")
            m = re.match(r"conj\s+(\S+)\s+(\S+)\s*=\s*(.*)$", line)
            if not m:
                raise ParseError(f"{name_hint}:{where}: expected 'conj <gj> <gi> = <word>'")
            gj, gi, rhs = m.group(1), m.group(2), m.group(3).split()
            for g in (gj, gi):
                if g not in gen_index:
                    raise ParseError(f"{name_hint}:{where}: unknown generator {g!r}")
            j, i = gen_index[gj], gen_index[gi]
            if not i < j:
                raise ConstraintError(
                    f"{name_hint}:{where}: conj {gj} {gi} requires {gi} before {gj} in gens order"
                )
            if (i, j) in conjugations:
                raise ParseError(f"{name_hint}:{where}: duplicate conj for ({gj},{gi})")
            if not rhs:
                raise ParseError(f"{name_hint}:{where}: empty right-hand side")
            conjugations[(i, j)] = parse_word(rhs, where)
        else:
            raise ParseError(f"{name_hint}:{where}: unknown keyword {kw!r}")

    if not gens:
        raise ParseError(f"{name_hint}: missing gens line")
    if name is None:
        raise ParseError(f"{name_hint}: missing group line")

    pres = PcPresentation(name=name, gens=tuple(gens), powers=powers,
                          conjugations=conjugations)
    pres.validate()
    return pres


def serialize_presentation(pres: PcPresentation) -> str:
    """Inverse of parse_presentation, up to comments and whitespace."""
    lines = [f"group {pres.name}", "gens " + " ".join(pres.gens)]

    def word_str(word: tuple[int, ...]) -> str:
        return " ".join(pres.gens[i - 1] for i in word) if word else "1"

    for i in sorted(pres.powers):
        lines.append(f"pow {pres.gens[i - 1]} = {word_str(pres.powers[i])}")
    for (i, j) in sorted(pres.conjugations):
        lines.append(
            f"conj {pres.gens[j - 1]} {pres.gens[i - 1]} = "
            f"{word_str(pres.conjugations[(i, j)])}"
        )
    return "\n".join(lines) + "\n"


def closure(gens, multiply, identity, cap: int | None = None) -> set:
    """Everything generated by gens under multiply, found breadth first.

    Starts from identity and multiplies on the right by each generator; in
    a finite group that reaches every product of the generators.  Raises
    ClosureCapError before the set would grow past cap elements.
    """
    gens = tuple(gens)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = multiply(x, g)
                if y not in seen:
                    if cap is not None and len(seen) >= cap:
                        raise ClosureCapError(f"closure exceeded cap {cap}")
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def table_from_rows(rows, identity: int) -> list[list[int]]:
    """Cayley table on 0..N-1 from the generators' left-multiplication rows.

    rows[k][y] is gk·y.  Every element x = gk·w that closure reaches from
    identity gets its row by lookups, x·y = gk·(w·y), so the generators
    must generate the group.
    """
    table: list = [None] * len(rows[0])
    table[identity] = list(range(len(table)))

    def left(w: int, k: int) -> int:
        x = rows[k][w]
        if table[x] is None:
            table[x] = list(map(rows[k].__getitem__, table[w]))
        return x

    closure(range(len(rows)), left, identity)
    return table


def doubled(right: list, j: int, start: int, word=lambda k: (k,)) -> list[int]:
    """[f(y) for y in G_(j+1)], where f(1) = start and f(w·gk) = f(w)·word(k).

    G_(j+1) is the indices below 2^(n-j); f doubles over y's last letter,
    reading right[l][v] = v·gl.  The default word gives f(y) = start·y.
    """
    n = len(right) - 1
    out = [start] * (1 << (n - j))
    for k in range(j + 1, n + 1):
        bit = 1 << (n - k)
        seg = out[::2 * bit]
        for l in word(k):
            seg = list(map(right[l].__getitem__, seg))
        out[bit::2 * bit] = seg
    return out


class RowStore(dict):
    """Left-multiplication rows by element, store[x][y] = x·y, built on first use.

    It starts with the identity's row.  A generator's row is doubled over
    the group's tables; the row of any other x = gl·w, where gl is the
    leading letter of x, is gl's row composed with w's, x·y = gl·(w·y): the
    rule of table_from_rows.
    """

    def __init__(self, right: list):
        super().__init__({0: list(range(len(right[-1])))})
        self.right = right  # right[j][x] = x·gj

    def __missing__(self, x: int) -> list[int]:
        if not 0 < x < len(self[0]):
            raise IndexError(f"element index {x} out of range")
        lead = 1 << (x.bit_length() - 1)
        if x == lead:
            row = self[x] = doubled(self.right, 0, x)
        else:
            row = self[x] = list(map(self[lead].__getitem__, self[x ^ lead]))
        return row


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as a sorted tuple of element indices."""

    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


class FiniteGroup:
    """A finite 2-group realized over a pc presentation by its tables x·gj.

    All operations are pure.  Construction builds `right`, right[j][x] = x·gj
    (n·order entries), then proves the presentation consistent by the
    overlap test, so that the tables hold the products of a group of order
    2^n.  `multiply` reads y's letters off the tables.  `rows` is a
    RowStore holding the identity's row; right multipliers, conjugate
    tables, the center and the group algebra's kernel read it, and each row
    they ask for is built once and kept.  Inverses are memoized.
    """

    def __init__(self, pres: PcPresentation):
        pres.validate()
        self.pres = pres
        self.name = pres.name
        self.n = pres.n
        self.order = 1 << pres.n
        self._inverses = {0: 0}
        self.right = self._tables()
        self._check_overlaps()
        self.rows = RowStore(self.right)

    # --- tables ---------------------------------------------------------

    def _tables(self) -> list:
        """[None, x·g1 table, ..., x·gn table], built for j = n down to 1.

        x·gj = H·gj·L^gj (see the module docstring).  L ↦ L^gj doubles over
        L's last letter through the conjugation words gk^gj and the tables
        for letters > j.  If H = H'·gj, then H·gj = H'·Pj with Pj = gj^2 in
        G_(j+1), and Pj's row on G_(j+1) doubles the same way.
        """
        n, pres = self.n, self.pres
        right: list = [None] * (n + 1)
        for j in range(n, 0, -1):
            gj = 1 << (n - j)
            conj = doubled(right, j, 0, lambda k: pres.conjugations.get((j, k), (k,)))
            square = reduce(lambda v, l: right[l][v], pres.powers.get(j, ()), 0)
            block = [gj + c for c in conj] + list(map(doubled(right, j, square).__getitem__, conj))
            right[j] = [h + v for h in range(0, self.order, 2 * gj) for v in block]
        return right

    # --- consistency and table ----------------------------------------

    def _check_overlaps(self) -> None:
        """Prove consistency by the overlap test, or raise ConsistencyError.

        With every relative order 2, the overlaps of the standard test (Sims
        1994, polycyclic-groups chapter; Holt, Eick and O'Brien 2005, ch. 8) are
        (gk gj) gi = gk (gj gi) for k > j > i, gj^2 gi = gj (gj gi),
        (gj gi) gi = gj gi^2 and gi^2 gi = gi gi^2: all k >= j >= i.  When
        both sides of each give the same normal form, the presentation
        defines a group of order 2^n and the tables hold its products.

        Every table entry is reached from x·gi by rewriting steps of the
        presentation (gj gj -> Pj, gk gj -> gj gk^gj), which terminate, so
        equal normal forms on an overlap join its critical pair; with all of
        them joined the rewriting is confluent by Newman's lemma.  In a
        consistent presentation every rewriting ends in the one normal form.
        """
        n, tables = self.n, self.right
        gens = [0] + [1 << (n - j) for j in range(1, n + 1)]
        for k in range(1, n + 1):
            for j in range(1, k + 1):
                gk_gj = tables[j][gens[k]]
                for i in range(1, j + 1):
                    left = tables[i][gk_gj]
                    right = self.multiply(gens[k], tables[i][gens[j]])
                    if left != right:
                        gk, gj, gi = (self.pres.gens[t - 1] for t in (k, j, i))
                        raise ConsistencyError(
                            f"{self.name}: overlap ({gk}·{gj})·{gi} collects to "
                            f"{self.word_str(left)} but {gk}·({gj}·{gi}) to "
                            f"{self.word_str(right)}"
                        )

    @property
    def cayley(self) -> list[list[int]]:
        """Every row, built and kept; TableLimitError above the algebra's limit."""
        from .grpalg import check_table_limit  # grpalg imports this module
        check_table_limit(self)
        return [self.rows[x] for x in self.elements()]

    # --- core operations ------------------------------------------------

    @property
    def identity(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def multiply(self, x: int, y: int) -> int:
        """x·y, collected: x times each letter of y, read off the tables."""
        right, top = self.right, self.n + 1
        while y:  # the first letter of y is g_(n + 1 - y.bit_length())
            k = y.bit_length()
            x = right[top - k][x]
            y ^= 1 << (k - 1)
        return x

    def right_multiplier(self, c: int):
        """The map y ↦ y·c: a lookup in c's right column.

        y = gl·w gives y·c = gl·(w·c), so the column doubles over the leading
        letter, one lookup in a generator's row per entry.
        """
        col = [c]
        for k in range(self.n):  # the generator 1 << k is g_(n - k)
            col += list(map(self.rows[1 << k].__getitem__, col))  # a bare map over col never ends
        return col.__getitem__

    def inverse(self, x: int) -> int:
        """x^-1 by the last letter: x = w·gj gives x^-1 = gj^-1·w^-1 (memoized)."""
        inv = self._inverses.get(x)
        if inv is None:
            gj = x & -x
            if x == gj:  # gj^-1 = gj·(gj^2)^-1, and gj^2 has only letters after gj
                square = self.right[self.n + 1 - gj.bit_length()][gj]
                inv = self.multiply(gj, self.inverse(square))
            else:
                inv = self.multiply(self.inverse(gj), self.inverse(x ^ gj))
            self._inverses[x] = inv
        return inv

    def conjugate(self, x: int, g: int) -> int:
        """g^-1 x g."""
        return self.multiply(self.multiply(self.inverse(g), x), g)

    def commutator(self, x: int, y: int) -> int:
        """(x, y) = x^-1 y^-1 x y."""
        return self.multiply(self.inverse(x), self.multiply(self.inverse(y), self.multiply(x, y)))

    def conjugates(self, b: int) -> list[int]:
        """[b^x for every x], doubled over x's last letter: b^(w·gl) = gl^-1·(b^w·gl)."""
        conj = [b] * self.order
        for l in range(1, self.n + 1):
            bit = 1 << (self.n - l)
            by_gl = map(self.right[l].__getitem__, conj[::2 * bit])
            conj[bit::2 * bit] = list(map(self.rows[self.inverse(bit)].__getitem__, by_gl))
        return conj

    def power(self, x: int, m: int) -> int:
        acc = 0
        base = x
        m %= 1 << self.n  # exponent only matters mod the group exponent
        while m:
            if m & 1:
                acc = self.multiply(acc, base)
            base = self.multiply(base, base)
            m >>= 1
        return acc

    def element_order(self, x: int) -> int:
        order = 1
        while x != 0:
            x = self.multiply(x, x)
            order <<= 1
        return order

    # --- subgroups -------------------------------------------------------

    def subgroup_closure(self, gens) -> Subgroup:
        right = [self.right_multiplier(g) for g in gens]
        seen = closure(range(len(right)), lambda x, k: right[k](x), self.identity)
        return Subgroup(elements=tuple(sorted(seen)))

    def derived_subgroup(self) -> Subgroup:
        gens = [1 << (self.n - j) for j in range(1, self.n + 1)]
        # (y, x) = (x, y)^-1, so the pairs x < y generate the same subgroup
        comms = sorted({self.commutator(x, y) for x, y in combinations(gens, 2)} - {0})
        return self.subgroup_closure(comms)

    def center(self) -> Subgroup:
        """The elements x with g·x = x·g for every generator g, read off g's row and table."""
        central = self.elements()
        for j in range(1, self.n + 1):
            row = self.rows[1 << (self.n - j)]
            central = [x for x in central if row[x] == self.right[j][x]]
        return Subgroup(elements=tuple(central))

    def is_cyclic(self, sub: Subgroup) -> tuple[bool, int | None]:
        """Whether the subgroup is cyclic, with a generator witness."""
        target = sub.order
        for x in sub.elements:
            if self.element_order(x) == target:
                return True, x
        return False, None

    # --- names and words ---------------------------------------------------

    def word_str(self, x: int) -> str:
        if x == 0:
            return "1"
        return WORD_SEP.join(g for i, g in enumerate(self.pres.gens) if x >> (self.n - 1 - i) & 1)

    def parse_word(self, text: str) -> int:
        """Element from a word like "b*c" or "b·c"; "1" is the identity."""
        text = text.strip()
        if text == "1":
            return 0
        names = {g: i for i, g in enumerate(self.pres.gens, start=1)}
        acc = 0
        for tok in re.split(r"[\s*·]+", text):
            if not tok:
                continue
            if tok not in names:
                raise ParseError(f"unknown generator {tok!r} in word {text!r}")
            acc = self.right[names[tok]][acc]
        return acc


def load(text: str, name_hint: str = "<input>") -> FiniteGroup:
    """Parse, validate, and realize a presentation; raises PcError subclasses."""
    return FiniteGroup(parse_presentation(text, name_hint))


def load_file(path) -> FiniteGroup:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise PcError(f"{p}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise PcError(f"{p}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return load(text, name_hint=str(p))
