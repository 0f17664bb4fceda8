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
(Sims 1994, ch. 9; Holt, Eick and O'Brien 2005, ch. 8).  Only this module
reads the tables: others take a row y ↦ x·y from FiniteGroup.row and a
column y ↦ y·t from FiniteGroup.column, and the group algebra alone keeps
the rows it convolves with.  The group keeps only its inverses besides.
FiniteGroup closes and filters no subgroup: construct.check_hypotheses
reads G' off the generators' commutators and filters Z(G) against the
few generators that lead no square or commutator.  The module holds the
limits CAYLEY_LIMIT and LOAD_LIMIT and imports nothing from the package.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import itemgetter
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
    """The group is too large to load, or for an operation that needs its Cayley table."""


# The largest group order whose algebra is built: convolution reads a row
# for every support element, and the enumerating checks can read them all.
CAYLEY_LIMIT = 512

# The largest group order that loads: the tables x·gj hold n·order ints; loading
# D8 x C2^15 (order 2^18) peaks at 205 MB (ru_maxrss of a fresh CPython 3.11).
LOAD_LIMIT = 1 << 18


def check_table_limit(group: FiniteGroup) -> None:
    """Raise TableLimitError when group's order is above CAYLEY_LIMIT."""
    if group.order > CAYLEY_LIMIT:
        raise TableLimitError(
            f"{group.name}: order {group.order} is above {CAYLEY_LIMIT}, the "
            "largest order whose Cayley table the group algebra can use"
        )


class ClosureCapError(Exception):
    """A closure grew past its size cap."""


WORD_SEP = "·"  # interpunct, used when printing element words
_SEPARATORS = frozenset("*·,=")  # no generator name may hold one


def _name_fault(gens) -> str | None:
    """Why words cannot name the generators apart (a repeat, "1", or a separator), or None."""
    if len(set(gens)) != len(gens):
        return "duplicate generator names"
    bad = [g for g in gens if g == "1" or not _SEPARATORS.isdisjoint(g)]
    return f"generator name {bad[0]!r} is '1' or holds '*', '·', ',' or '='" if bad else None


class PcPresentation:
    """Power/conjugation data of a 2-group: its name, the generator names gens
    (n of them), powers {i: gi^2} and conjugations {(i, j): gj^gi}.

    Words are tuples of 1-based generator indices.  Missing power entries
    mean gi^2 = 1; missing conjugation entries mean the pair commutes.
    """

    def __init__(self, name: str, gens: tuple[str, ...], powers: dict | None = None,
                 conjugations: dict | None = None):
        self.name, self.gens, self.n = name, gens, len(gens)
        self.powers = {} if powers is None else powers
        self.conjugations = {} if conjugations is None else conjugations

    def __eq__(self, other) -> bool:  # the four fields and n, which follows gens
        return isinstance(other, PcPresentation) and vars(self) == vars(other)

    def __repr__(self) -> str:  # a drawn presentation, as Hypothesis reports it
        return f"PcPresentation{self.name, self.gens, self.powers, self.conjugations!r}"

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
            head, sep, rhs = line.partition("=")
            head = head.split()
            if not sep or len(head) != 2:
                raise ParseError(f"{name_hint}:{where}: expected 'pow <g> = <word>'")
            g, rhs = head[1], rhs.split()
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
            head, sep, rhs = line.partition("=")
            head = head.split()
            if not sep or len(head) != 3:
                raise ParseError(f"{name_hint}:{where}: expected 'conj <gj> <gi> = <word>'")
            gj, gi, rhs = head[1], head[2], rhs.split()
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

    # FiniteGroup validates the index constraints the lines above leave open
    return PcPresentation(name=name, gens=tuple(gens), powers=powers,
                          conjugations=conjugations)


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


def compose(row, seq) -> list[int]:
    """[row[i] for i in seq], in one C call: operator.itemgetter(*seq)(row).

    Every row, column and table of the package is composed here.  row may
    be a list or a dict; itemgetter returns a scalar for one index and
    needs at least one, so those two lengths are built apart.
    """
    if len(seq) > 1:
        return list(itemgetter(*seq)(row))
    return [row[seq[0]]] if seq else []


def doubled(right: list, j: int, starts, word=lambda k: (k,)) -> list[int]:
    """[f(s, y) for s in starts for y in G_(j+1)], where f(s, 1) = s and
    f(s, w·gk) = f(s, w)·word(k).

    G_(j+1) is the indices below 2^(n-j), so each start owns a block of that
    length.  f doubles over y's last letter, composing the entries built so
    far with right[l][v] = v·gl (compose); the strides divide the block
    length, so every block shares each composition.  The default word gives
    f(s, y) = s·y, and row(x) passes starts = (x,).
    """
    n = len(right) - 1
    size = 1 << (n - j)
    out = [0] * (len(starts) * size)
    out[::size] = starts
    for k in range(j + 1, n + 1):
        bit = 1 << (n - k)
        seg = out[::2 * bit]
        for l in word(k):
            seg = compose(right[l], seg)
        out[bit::2 * bit] = seg
    return out


class FiniteGroup:
    """A finite 2-group realized over a pc presentation by its tables x·gj.

    All operations are pure.  Construction builds `right`, right[j][x] = x·gj
    (n·order entries), then proves the presentation consistent by the
    overlap test, so that the tables hold the products of a group of order
    2^n.  `multiply` reads y's letters off the tables, and `cyclic` lists
    <c> by c's; `row`, `column` and `cayley` build rows x·y and columns y·t
    and keep none.  Inverses are memoized, and nothing else is kept.
    """

    def __init__(self, pres: PcPresentation):
        pres.validate()
        self.pres = pres
        self.name = pres.name
        self.n = pres.n
        self.order = 1 << pres.n
        if self.order > LOAD_LIMIT:
            raise TableLimitError(
                f"{self.name}: order {self.order} is above {LOAD_LIMIT}, the largest "
                "order whose product tables are built at load"
            )
        self._inverses = {0: 0}
        self.right = self._tables()
        self._check_overlaps()

    # --- tables ---------------------------------------------------------

    def _tables(self) -> list:
        """[None, x·g1 table, ..., x·gn table], built for j = n down to 1.

        x·gj = H·gj·L^gj (see the module docstring), and gj's block holds
        x·gj for x < 2gj.  Its first half is gj·L^gj for L in G_(j+1); if
        H = H'·gj, then H·gj = H'·Pj·L^gj with Pj = gj^2 in G_(j+1), so its
        second half is Pj·L^gj.  One doubling from the starts gj and Pj
        builds both, over L's last letter through the conjugation words gk^gj
        and the tables for letters > j; each table repeats its block, shifted
        by the letters before gj.
        """
        n, pres = self.n, self.pres
        right: list = [None] * (n + 1)
        for j in range(n, 0, -1):
            gj = 1 << (n - j)
            square = reduce(lambda v, l: right[l][v], pres.powers.get(j, ()), 0)
            block = doubled(right, j, (gj, square),
                            lambda k: pres.conjugations.get((j, k), (k,)))
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

        For each (j, i) the tables of gj·gi's letters are read once, and k
        runs innermost: the left side is gk·gj·gi off the tables of gj and gi,
        the right side gk walked through those letters.  Of the failing
        overlaps the error names the least (k, j, i).
        """
        n, tables = self.n, self.right
        top = n + 1
        gens = [1 << (n - j) for j in range(n + 1)]  # gens[j] = gj for j >= 1
        failed = []
        for j in range(1, top):
            t_j, later = tables[j], gens[j:]
            for i in range(1, j + 1):
                t_i = tables[i]
                w, letters = t_i[gens[j]], []
                while w:  # gj·gi's letters in order, as in multiply
                    b = w.bit_length()
                    letters.append(tables[top - b])
                    w ^= 1 << (b - 1)
                for gk in later:
                    right = gk
                    for t in letters:
                        right = t[right]
                    if t_i[t_j[gk]] != right:
                        failed.append((top - gk.bit_length(), j, i))
        if failed:
            k, j, i = min(failed)
            left = tables[i][tables[j][gens[k]]]
            right = self.multiply(gens[k], tables[i][gens[j]])
            gk, gj, gi = (self.pres.gens[t - 1] for t in (k, j, i))
            raise ConsistencyError(
                f"{self.name}: overlap ({gk}·{gj})·{gi} collects to "
                f"{self.word_str(left)} but {gk}·({gj}·{gi}) to "
                f"{self.word_str(right)}"
            )

    @property
    def cayley(self) -> list[list[int]]:
        """Every row; TableLimitError above CAYLEY_LIMIT."""
        check_table_limit(self)
        return [self.row(x) for x in self.elements()]

    def row(self, x: int) -> list[int]:
        """[x·y for y in G], doubled over the tables."""
        return doubled(self.right, 0, (x,))

    def column(self, t: int) -> list[int]:
        """[y·t for y in G]: a copy of the first letter's table, then the
        tables of t's other letters composed over it in letter order."""
        right, top, column = self.right, self.n + 1, None
        while t:  # the first letter of t is g_(n + 1 - t.bit_length()), as in multiply
            table = right[top - t.bit_length()]
            column = table[:] if column is None else compose(table, column)
            t ^= 1 << (t.bit_length() - 1)
        return list(self.elements()) if column is None else column

    # --- core operations ------------------------------------------------

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

    def generator_commutator(self, i: int, j: int) -> int:
        """(gi, gj), read off the presentation: (gi, gj) = (gj^gi)^-1·gj for i < j.

        gj^gi is the conjugation word, collected over the tables; a pair with
        no conj line commutes.  For i > j, (gi, gj) = (gj, gi)^-1.
        """
        if i > j:
            return self.inverse(self.generator_commutator(j, i))
        word = self.pres.conjugations.get((i, j))
        if word is None:
            return 0
        right, conj = self.right, 0
        for l in word:
            conj = right[l][conj]
        return right[j][self.inverse(conj)]

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

    def cyclic(self, c: int) -> list[int]:
        """[c^0, c^1, ..., c^(|c|-1)]: each power the last one times c, one
        walk over the tables of c's letters, read off c once."""
        right, top, letters, y = self.right, self.n + 1, [], c
        while y:  # c's letters in order, as in multiply
            k = y.bit_length()
            letters.append(right[top - k])
            y ^= 1 << (k - 1)
        powers, x = [0], c
        while x:
            powers.append(x)
            for t in letters:
                x = t[x]
        return powers

    def element_order(self, x: int) -> int:
        order = 1
        while x != 0:
            x = self.multiply(x, x)
            order <<= 1
        return order

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
    """Read and load a presentation file; an unreadable file is a PcError naming it."""
    p = path if isinstance(path, Path) else Path(path)  # messages name the normalised path
    try:
        with open(p, "rb") as f:
            data = f.read()
        # a byte-order mark is dropped after decoding: error offsets stay the file's
        text = data.decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise PcError(f"{p}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise PcError(f"{p}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return load(text, name_hint=str(p))
