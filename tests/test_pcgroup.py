import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitwreath import pcgroup
from unitwreath.catalog import default_corpus_dir
from unitwreath.grpalg import GroupAlgebra
from unitwreath.pcgroup import (
    ConsistencyError,
    ConstraintError,
    ParseError,
    PcPresentation,
    TableLimitError,
    load,
    load_file,
    serialize_presentation,
)

D8XC2 = """group D8xC2
gens a c b z
pow a = c
conj b a = b c
"""


def elt(group, word):
    return group.parse_word(word)


class TestLoad:
    def test_single_generator_group(self):
        group = load("group C2\ngens a\n")
        assert group.order == 2

    def test_d8xc2_corpus_file(self, corpus_dir):
        group = load_file(corpus_dir / "o16" / "D8xC2.pc2")
        assert group.order == 16
        assert group.pres.gens == ("a", "c", "b", "z")

    def test_conjugation_word_below_conjugating_index(self):
        bad = "group X\ngens a b c\nconj c b = c a\n"
        with pytest.raises(ConstraintError):
            load(bad)

    def test_power_word_not_above_index(self):
        bad = "group X\ngens a b\npow b = a\n"
        with pytest.raises(ConstraintError):
            load(bad)

    def test_inconsistent_presentation(self):
        # b^a = b^2 = 1 collapses b, so only 2 of 4 normal forms are realized
        bad = "group X\ngens a b\nconj b a = b b\n"
        with pytest.raises(ConsistencyError, match=r"overlap \(b·a\)·a"):
            load(bad)

    @pytest.mark.parametrize(
        "text",
        [
            "gens a\n",  # missing group line
            "group X\n",  # missing gens
            "group X\ngens a a\n",  # duplicate generator
            "group X\ngens a\npow q = a\n",  # unknown generator
            "group X\ngens a\nfrob a\n",  # unknown keyword
            "group X\ngens a b\npow a = b\npow a = b\n",  # duplicate relation
            "group X\ngens 1 a\npow a = 1\n",  # a generator named as the identity
            "group X\ngens a b*c\n",  # names that words cannot refer to
            "group X\ngens a·b c\n",
            "group X\ngens a,b\n",
            "group X\ngens a=b\n",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            load(text)

    def test_a_bad_generator_name_is_reported_with_its_line(self):
        with pytest.raises(ParseError, match=r"^<input>:line 3: generator name '1' "):
            load("# a comment\ngroup X\ngens a 1\n")

    @pytest.mark.parametrize("gens", [("1", "a"), ("a*b", "c")])
    def test_a_presentation_built_in_code_keeps_the_name_rule(self, gens):
        pres = PcPresentation(name="X", gens=gens, powers={1: (2,)})
        with pytest.raises(ParseError, match=r"^X: generator name '(1|a\*b)' is '1' or holds"):
            pcgroup.FiniteGroup(pres)

    def test_serialize_round_trip(self, d8xc2):
        text = pcgroup.serialize_presentation(d8xc2.pres)
        again = load(text)
        assert again.cayley == d8xc2.cayley


class TestArithmetic:
    def test_identity_law(self, d8xc2):
        for x in d8xc2.elements():
            assert d8xc2.multiply(x, 0) == x
            assert d8xc2.multiply(0, x) == x

    def test_square_of_a_is_c(self, d8xc2):
        a, c = elt(d8xc2, "a"), elt(d8xc2, "c")
        assert d8xc2.multiply(a, a) == c

    def test_noncommuting_pair(self, d8xc2):
        a, b = elt(d8xc2, "a"), elt(d8xc2, "b")
        assert d8xc2.multiply(a, b) != d8xc2.multiply(b, a)

    def test_associativity_exhaustive(self, d8xc2):
        for x, y, w in itertools.product(d8xc2.elements(), repeat=3):
            assert d8xc2.multiply(d8xc2.multiply(x, y), w) == d8xc2.multiply(
                x, d8xc2.multiply(y, w)
            )

    def test_inverses(self, d8xc2):
        for x in d8xc2.elements():
            assert d8xc2.multiply(x, d8xc2.inverse(x)) == 0

    def test_cayley_matches_collection(self, d8xc2):
        for x in d8xc2.elements():
            for y in d8xc2.elements():
                assert d8xc2.cayley[x][y] == d8xc2.multiply(x, y)

    def test_orders(self, d8xc2):
        assert d8xc2.element_order(0) == 1
        assert d8xc2.element_order(elt(d8xc2, "a")) == 4
        assert d8xc2.element_order(elt(d8xc2, "z")) == 2

    def test_orders_divide_group_order(self, d8xc2):
        for x in d8xc2.elements():
            assert d8xc2.order % d8xc2.element_order(x) == 0

    def test_commutator_examples(self, d8xc2):
        a, b, c, z = (elt(d8xc2, w) for w in "abcz")
        assert d8xc2.commutator(b, a) == c
        assert d8xc2.commutator(a, 0) == 0
        for g in d8xc2.elements():
            assert d8xc2.commutator(z, g) == 0

    def test_conjugate_commutator_identity(self, d8xc2):
        # b^g = b * (b, g) for every pair, the identity the orbit relies on
        for b in d8xc2.elements():
            for g in d8xc2.elements():
                assert d8xc2.conjugate(b, g) == d8xc2.multiply(
                    b, d8xc2.commutator(b, g)
                )


class TestSubgroups:
    def test_derived_subgroup(self, d8xc2, d8):
        assert d8xc2.derived_subgroup().order == 2
        assert d8.derived_subgroup().order == 2
        abelian = load("group C4\ngens a b\npow a = b\n")
        assert abelian.derived_subgroup().elements == (0,)

    def test_center(self, d8xc2, d8):
        assert d8.center().order == 2
        center = d8xc2.center()
        assert center.order == 4
        z = elt(d8xc2, "z")
        assert z in center.elements

    def test_center_of_abelian_group(self):
        group = load("group C2xC2\ngens a b\n")
        assert group.center().order == 4

    def test_subgroup_closure(self, d8xc2):
        a, b = elt(d8xc2, "a"), elt(d8xc2, "b")
        assert d8xc2.subgroup_closure([]).elements == (0,)
        assert d8xc2.subgroup_closure([a]).order == 4
        assert d8xc2.subgroup_closure([a, b]).order == 8

    def test_closure_is_conjugation_stable_for_derived_and_center(self, d8xc2):
        for sub in (d8xc2.derived_subgroup(), d8xc2.center()):
            members = set(sub.elements)
            for x in members:
                for g in d8xc2.elements():
                    assert d8xc2.conjugate(x, g) in members

    def test_is_cyclic(self, d8xc2):
        c, z = elt(d8xc2, "c"), elt(d8xc2, "z")
        trivial = d8xc2.subgroup_closure([])
        assert d8xc2.is_cyclic(trivial) == (True, 0)
        ok, witness = d8xc2.is_cyclic(d8xc2.subgroup_closure([c]))
        assert ok and witness == c
        klein = d8xc2.subgroup_closure([c, z])
        assert klein.order == 4
        assert d8xc2.is_cyclic(klein) == (False, None)


class TestWords:
    def test_word_str_and_parse(self, d8xc2):
        assert d8xc2.word_str(0) == "1"
        x = d8xc2.parse_word("b*z")
        assert d8xc2.word_str(x) == "b·z"
        assert d8xc2.parse_word("b·z") == x
        assert d8xc2.parse_word("1") == 0

    def test_parse_word_reduces(self, d8xc2):
        assert d8xc2.parse_word("a*a") == d8xc2.parse_word("c")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_associativity_random_order_32(corpus32, data):
    group = data.draw(st.sampled_from(corpus32))
    x = data.draw(st.integers(0, group.order - 1))
    y = data.draw(st.integers(0, group.order - 1))
    w = data.draw(st.integers(0, group.order - 1))
    assert group.multiply(group.multiply(x, y), w) == group.multiply(
        x, group.multiply(y, w)
    )


def collect(pres: PcPresentation, x: int, y: int) -> int:
    """x·y by collection from the left over a word stack, with no memo.

    Moving gj into the normal form x leaves gj's power word (if x already
    had gj) and the conjugate gk^gj of every later gk of x to collect.
    """
    n = pres.n
    stack = [j for j in range(n, 0, -1) if y >> (n - j) & 1]  # y's first letter on top
    while stack:
        j = stack.pop()
        pos = n - j
        later = [k for k in range(j + 1, n + 1) if x >> (n - k) & 1]
        x = x >> pos << pos
        word = list(pres.powers.get(j, ())) if x >> pos & 1 else []
        x ^= 1 << pos
        for k in later:
            word.extend(pres.conjugations.get((j, k), (k,)))
        stack.extend(reversed(word))
    return x


def collected_table(pres: PcPresentation) -> list[list[int]]:
    """Every product by collection, without the loader's consistency proof."""
    order = 1 << pres.n
    return [[collect(pres, x, y) for y in range(order)] for x in range(order)]


def is_group_table(table: list[list[int]]) -> bool:
    """Identity 0, both translations bijective, and full associativity."""
    order = len(table)
    full = list(range(order))
    if table[0] != full or [row[0] for row in table] != full:
        return False
    if any(sorted(row) != full for row in table):
        return False
    if any(sorted(col) != full for col in zip(*table)):
        return False
    # (x·y)·w == x·(y·w) for all w at once, one (x, y) pair at a time
    return all(
        table[row_x[y]] == list(map(row_x.__getitem__, table[y]))
        for row_x in table
        for y in range(order)
    )


@st.composite
def twisted_presentations(draw):
    """Up to four random power or conjugation words, within the index constraints.

    Few twists keep the consistent draws common at every n.
    """
    n = draw(st.integers(1, 6))
    slots = [(i, i) for i in range(1, n)]
    slots += [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    powers, conjugations = {}, {}
    chosen = []
    if slots:
        chosen = draw(st.lists(st.sampled_from(slots), max_size=4, unique=True))
    for i, j in chosen:
        tail = tuple(draw(st.lists(st.integers(i + 1, n), min_size=1, max_size=2)))
        if i == j:
            powers[i] = tail
        else:
            conjugations[(i, j)] = (j, *tail)
    gens = tuple(f"g{i}" for i in range(1, n + 1))
    return PcPresentation("R", gens, powers, conjugations)


@settings(max_examples=150, deadline=None)
@given(twisted_presentations())
def test_overlap_verdict_matches_group_axioms(pres):
    table = collected_table(pres)
    try:
        group = load(serialize_presentation(pres))
    except ConsistencyError:
        assert not is_group_table(table)
    else:
        assert is_group_table(table)
        assert group.cayley == table


@pytest.mark.parametrize(
    "path",
    sorted(default_corpus_dir().rglob("*.pc2")),
    ids=lambda p: p.stem,
)
def test_corpus_table_matches_collection(path):
    group = load_file(path)
    assert group.cayley == collected_table(group.pres)


D8_ABC = "group D8\ngens a b c\npow a = c\nconj b a = b c\n"
Q8_ABC = "group Q8\ngens a b c\npow a = c\npow b = c\nconj b a = b c\n"


def test_collection_memo_belongs_to_its_group():
    """D8 and Q8 share generator names and differ only in b^2, so tables
    shared between groups would hand one of them the other's products."""
    for text in (D8_ABC, Q8_ABC, D8_ABC, Q8_ABC):
        group = load(text)
        assert group.cayley == collected_table(group.pres)


LADDER = range(4, 9)  # D_(2^n) x C2 for n = 4..8: orders 32 to 512


def equivalence_cases():
    """Every o16 and o32 file, then the ladder's n."""
    corpus = default_corpus_dir()
    paths = sorted(corpus.glob("o16/*.pc2")) + sorted(corpus.glob("o32/*.pc2"))
    return [pytest.param(p, id=p.stem) for p in paths] + [
        pytest.param(n, id=f"D{1 << n}xC2") for n in LADDER
    ]


def sample(group, size: int = 12) -> list[int]:
    """Every element of a small group; else the identity, the generators and a few more."""
    if group.order <= 32:
        return list(group.elements())
    gens = [1 << k for k in range(group.n)]
    return [0] + gens + random.Random(group.order).sample(range(group.order), size)


@pytest.mark.parametrize("case", equivalence_cases() + [pytest.param(9, id="D512xC2")])
def test_tables_match_collection(case, dihedral_times_c2):
    """right[j][x] = x·gj equals the reference collector's product, on every
    x up to order 512 and on sampled x above; loading builds no row but the
    identity's, at every order."""
    group = load_file(case) if isinstance(case, Path) else load(dihedral_times_c2(case))
    assert list(group.rows) == [0]
    xs = group.elements() if group.order <= 512 else sample(group, 64)
    for j in range(1, group.n + 1):
        gen = 1 << (group.n - j)
        assert [group.right[j][x] for x in xs] == [collect(group.pres, x, gen) for x in xs]


@pytest.mark.parametrize("case", equivalence_cases() + [pytest.param(9, id="D512xC2")])
def test_rows_inverses_columns_and_conjugates_match_collection(case, dihedral_times_c2):
    """Everything built on demand or by doubling equals collected products."""
    # a fresh group: no row but the identity's is built yet
    group = load_file(case) if isinstance(case, Path) else load(dihedral_times_c2(case))
    everything = group.elements()
    mul = group.multiply
    for x in everything:
        assert mul(x, group.inverse(x)) == 0
    for x in sample(group):
        assert group.rows[x] == [mul(x, y) for y in everything]
        assert list(map(group.right_multiplier(x), everything)) == [mul(y, x) for y in everything]
        assert group.conjugates(x) == [mul(mul(group.inverse(y), x), y) for y in everything]


def test_inverses_above_the_table_limit(dihedral_times_c2):
    """D512 x C2 (order 1024) is above the group algebra's table limit, so
    neither the algebra nor the full table is built, and its inverses,
    conjugate tables and right multipliers still hold."""
    group = load(dihedral_times_c2(9))
    assert group.order == 1024
    with pytest.raises(TableLimitError, match="order 1024 is above 512"):
        GroupAlgebra(group)
    with pytest.raises(TableLimitError, match="order 1024 is above 512"):
        group.cayley
    assert list(group.rows) == [0]
    xs = random.Random(1).sample(range(group.order), 64)
    for x in xs:
        assert group.multiply(x, group.inverse(x)) == 0
        assert group.multiply(group.inverse(x), x) == 0
    for b in xs[:2]:
        conj = group.conjugates(b)
        right = group.right_multiplier(b)
        for y in xs:
            assert conj[y] == group.multiply(group.multiply(group.inverse(y), b), y)
            assert right(y) == group.multiply(y, b)
