import itertools
import random
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import D8_SQUARED, assert_holds_no_row, corpus_paths, twisted_presentations
from unitwreath import pcgroup
from unitwreath.catalog import default_corpus_dir
from unitwreath.construct import REASON_NOT_CYCLIC, check_hypotheses
from unitwreath.grpalg import GroupAlgebra, RowStore
from unitwreath.pcgroup import (
    LOAD_LIMIT,
    ConsistencyError,
    ConstraintError,
    FiniteGroup,
    ParseError,
    PcError,
    PcPresentation,
    TableLimitError,
    load,
    load_file,
    parse_presentation,
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
        "text, error, message",
        [
            pytest.param(text, error, message, id=text)
            for text, error, message in [
                ("gens a\n", ParseError, "<input>: missing group line"),
                ("group X\n", ParseError, "<input>: missing gens line"),
                ("group X\ngens a a\n", ParseError, "line 2: duplicate generator names"),
                ("group X\ngens a\npow q = a\n", ParseError, "line 3: unknown generator 'q'"),
                ("group X\ngens a\nfrob a\n", ParseError, "line 3: unknown keyword 'frob'"),
                ("group X\ngens a b\npow a = b\npow a = b\n", ParseError,
                 "line 4: duplicate pow for a"),
                # a generator named as the identity
                ("group X\ngens 1 a\npow a = 1\n", ParseError, "line 2: generator name '1'"),
                # names that words cannot refer to
                ("group X\ngens a b*c\n", ParseError, "line 2: generator name 'b*c'"),
                ("group X\ngens a·b c\n", ParseError, "line 2: generator name 'a·b'"),
                ("group X\ngens a,b\n", ParseError, "line 2: generator name 'a,b'"),
                ("group X\ngens a=b\n", ParseError, "line 2: generator name 'a=b'"),
                ("group X\ngroup Y\ngens a\n", ParseError, "line 2: duplicate group line"),
                ("group X\ngens a\ngens b\n", ParseError, "line 3: duplicate gens line"),
                ("group X Y\ngens a\n", ParseError, "line 1: expected 'group <name>'"),
                ("group X\ngens\n", ParseError, "line 2: expected generator names"),
                ("group X\npow a = 1\ngens a\n", ParseError, "line 2: pow before gens"),
                ("group X\nconj b a = b\ngens a b\n", ParseError, "line 2: conj before gens"),
                ("group X\ngens a\npow a b\n", ParseError,
                 "line 3: expected 'pow <g> = <word>'"),
                ("group X\ngens a b c\npow a b = c\n", ParseError,
                 "line 3: expected 'pow <g> = <word>'"),
                ("group X\ngens a b c\npow a = b = c\n", ParseError,
                 "line 3: unknown generator '='"),
                ("group X\ngens a b c\nconj c a b = c\n", ParseError,
                 "line 3: expected 'conj <gj> <gi> = <word>'"),
                ("group X\ngens a b\nconj b a b\n", ParseError,
                 "line 3: expected 'conj <gj> <gi> = <word>'"),
                ("group X\ngens a\npow a =\n", ParseError, "line 3: empty right-hand side"),
                ("group X\ngens a b\nconj b a =\n", ParseError,
                 "line 3: empty right-hand side"),
                ("group X\ngens a b\nconj b q = b\n", ParseError,
                 "line 3: unknown generator 'q'"),
                ("group X\ngens a b\nconj a b = a\n", ConstraintError,
                 "line 3: conj a b requires b before a in gens order"),
                ("group X\ngens a b\nconj b a = b\nconj b a = b\n", ParseError,
                 "line 4: duplicate conj for (b,a)"),
                # the word 1 parses to the identity, which is no conjugate of b
                ("group X\ngens a b\npow a = 1\nconj b a = 1\n", ConstraintError,
                 "X: conjugation word for (1,2) must begin with g2"),
            ]
        ],
    )
    def test_parse_errors(self, text, error, message):
        with pytest.raises(PcError) as info:
            load(text)
        assert type(info.value) is error and message in str(info.value)

    @pytest.mark.parametrize("line", ["pow a=b", "pow\ta\t=\tb", "pow a =b c",
                                      "conj\tc a= c b", "conj c\ta\t=c  b"])
    def test_pow_and_conj_lines_split_at_the_equals_sign(self, line):
        """Tabs for spaces, and no space around "=", read as the spaced lines."""
        spaced = " = ".join(" ".join(side.split()) for side in line.split("="))
        assert spaced in ("pow a = b", "pow a = b c", "conj c a = c b")
        text = "group X\ngens a b c\n{}\n"
        assert parse_presentation(text.format(line)) == parse_presentation(text.format(spaced))

    def test_a_bad_generator_name_is_reported_with_its_line(self):
        with pytest.raises(ParseError, match=r"^<input>:line 3: generator name '1' "):
            load("# a comment\ngroup X\ngens a 1\n")

    @pytest.mark.parametrize(
        "gens, relations, error, message",
        [
            pytest.param(("1", "a"), {"powers": {1: (2,)}}, ParseError,
                         r"^X: generator name '1' is '1' or holds", id="gens0"),
            pytest.param(("a*b", "c"), {"powers": {1: (2,)}}, ParseError,
                         r"^X: generator name 'a\*b' is '1' or holds", id="gens1"),
            pytest.param((), {}, ParseError, r"^X: no generators declared$", id="no-gens"),
            pytest.param(("a", "b"), {"powers": {3: ()}}, ConstraintError,
                         r"^X: pow index 3 out of range$", id="pow-index"),
            pytest.param(("a", "b"), {"conjugations": {(2, 1): (1,)}}, ConstraintError,
                         r"^X: conjugation pair \(2,1\) requires i < j$", id="conj-pair"),
            pytest.param(("a", "b", "c"), {"conjugations": {(1, 2): (3,)}}, ConstraintError,
                         r"^X: conjugation word for \(1,2\) must begin with g2$", id="conj-word"),
        ],
    )
    def test_a_presentation_built_in_code_keeps_the_name_rule(self, gens, relations, error,
                                                              message):
        """validate holds a presentation built in code to the parser's rules:
        the generator names, and the indices of its relations."""
        pres = PcPresentation(name="X", gens=gens, **relations)
        with pytest.raises(error, match=message):
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
    """G' and Z(G) as check_hypotheses reports them, and pcgroup.closure."""

    def test_derived_subgroup(self, d8xc2, d8):
        for group in d8xc2, d8:
            report = check_hypotheses(group)
            assert (report.derived_order, report.derived_cyclic) == (2, True)
            assert report.derived_generator == elt(group, "c")
        report = check_hypotheses(load("group C4\ngens a b\npow a = b\n"))
        assert (report.derived_order, report.derived_cyclic, report.derived_generator) == (1, True, 0)

    def test_center(self, d8xc2, d8):
        assert check_hypotheses(d8).center == (0, elt(d8, "c"))
        assert check_hypotheses(d8).center_order == 2
        center = check_hypotheses(d8xc2).center
        assert len(center) == check_hypotheses(d8xc2).center_order == 4
        assert elt(d8xc2, "z") in center
        # D8 x C2 again: a^2 = b b collects to 1, so b leads no square and
        # its row must be tested; the word's first letter is not a leader
        group = load("group D8xC2\ngens a b c z\npow a = b b\nconj b a = b c\n")
        assert check_hypotheses(group).center == tuple(elt(group, w) for w in ("1", "z", "c", "c*z"))

    def test_center_of_abelian_group(self):
        group = load("group C2xC2\ngens a b\n")
        assert check_hypotheses(group).center == (0, 1, 2, 3)
        assert check_hypotheses(group).center_order == 4

    def test_subgroup_closure(self, d8xc2):
        a, b = elt(d8xc2, "a"), elt(d8xc2, "b")
        assert pcgroup.closure([], d8xc2.multiply, 0) == {0}
        assert len(pcgroup.closure([a], d8xc2.multiply, 0)) == 4
        assert len(pcgroup.closure([a, b], d8xc2.multiply, 0)) == 8

    def test_closure_is_conjugation_stable_for_derived_and_center(self, d8xc2):
        c = check_hypotheses(d8xc2).derived_generator
        for members in pcgroup.closure([c], d8xc2.multiply, 0), set(check_hypotheses(d8xc2).center):
            for x in members:
                for g in d8xc2.elements():
                    assert d8xc2.conjugate(x, g) in members

    def test_is_cyclic(self):
        report = check_hypotheses(load(D8_SQUARED))
        assert (report.derived_order, report.derived_cyclic) == (4, False)
        assert report.derived_generator is None
        assert not report.passed and report.failure_reason == REASON_NOT_CYCLIC


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


def least_failing_overlap(pres: PcPresentation) -> str | None:
    """The loader's error text, by brute force over collect: the first
    (k, j, i) with k >= j >= i, in that order, whose sides (gk·gj)·gi and
    gk·(gj·gi) collect apart, or None when every overlap holds."""
    n = pres.n

    def word(x):
        return "·".join(g for t, g in enumerate(pres.gens) if x >> (n - 1 - t) & 1) or "1"

    for k in range(1, n + 1):
        for j in range(1, k + 1):
            for i in range(1, j + 1):
                gk, gj, gi = (1 << (n - t) for t in (k, j, i))
                left = collect(pres, collect(pres, gk, gj), gi)
                right = collect(pres, gk, collect(pres, gj, gi))
                if left != right:
                    a, b, c = (pres.gens[t - 1] for t in (k, j, i))
                    return (f"{pres.name}: overlap ({a}·{b})·{c} collects to {word(left)} "
                            f"but {a}·({b}·{c}) to {word(right)}")
    return None


@settings(max_examples=150, deadline=None)
@given(twisted_presentations())
@example(parse_presentation("group R\ngens a b c\npow b = c\nconj c a = c c\n"))
def test_the_error_names_the_least_failing_overlap(pres):
    """The loader raises exactly when some overlap fails, and names the least
    (k, j, i).  The example fails at (b·b)·a and (c·a)·a: the loader meets
    (c·a)·a first, as it runs k innermost."""
    expected = least_failing_overlap(pres)
    try:
        FiniteGroup(pres)
    except ConsistencyError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


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
    return [pytest.param(p, id=p.stem) for p in corpus_paths()] + [
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
    x up to order 512 and on sampled x above; loading keeps no row, at
    every order."""
    group = load_file(case) if isinstance(case, Path) else load(dihedral_times_c2(case))
    assert_holds_no_row(group)
    xs = group.elements() if group.order <= 512 else sample(group, 64)
    for j in range(1, group.n + 1):
        gen = 1 << (group.n - j)
        assert [group.right[j][x] for x in xs] == [collect(group.pres, x, gen) for x in xs]


@pytest.mark.parametrize("case", equivalence_cases() + [pytest.param(9, id="D512xC2")])
def test_rows_inverses_columns_and_conjugates_match_collection(case, dihedral_times_c2):
    """Everything built on demand or by doubling equals collected products."""
    group = load_file(case) if isinstance(case, Path) else load(dihedral_times_c2(case))
    everything = group.elements()
    mul = group.multiply
    for x in everything:
        assert mul(x, group.inverse(x)) == 0
    rows = RowStore(group)  # a fresh algebra's rows: none but the identity's yet
    for x in sample(group):
        assert pcgroup.doubled(group.right, 0, (x,)) == [mul(x, y) for y in everything]
        assert rows[x] == [mul(x, y) for y in everything]
        assert group.column(x) == [mul(y, x) for y in everything]


def assert_starts_concatenate(group, rng):
    """doubled over several starts is the one-start doublings concatenated,
    for every j, with the default word and with gj's conjugation words; one
    start with the default word doubles s·y over G_(j+1)."""
    for j in range(group.n + 1):
        size = 1 << (group.n - j)
        words = [lambda k: (k,), lambda k: group.pres.conjugations.get((j, k), (k,))]
        starts = tuple(rng.choices(range(group.order), k=3))
        for word in words:
            assert pcgroup.doubled(group.right, j, starts, word) == [
                v for s in starts for v in pcgroup.doubled(group.right, j, (s,), word)]
        assert pcgroup.doubled(group.right, j, starts[:1]) == [
            group.multiply(starts[0], y) for y in range(size)]


@pytest.mark.parametrize("n", LADDER, ids=lambda n: f"D{1 << n}xC2")
def test_doubled_starts_concatenate_on_the_ladder(n, dihedral_times_c2):
    assert_starts_concatenate(load(dihedral_times_c2(n)), random.Random(n))


@settings(max_examples=100, deadline=None)
@given(twisted_presentations(), st.randoms(use_true_random=False))
def test_doubled_starts_concatenate_on_random_presentations(pres, rng):
    try:
        group = FiniteGroup(pres)
    except ConsistencyError:
        assume(False)
    assert_starts_concatenate(group, rng)


def assert_compose_picks(row, seq):
    """compose(row, seq) is the list [row[i] for i in seq], with seq a list
    or a tuple and row a list or a dict on the same indices."""
    for r in (row, dict(enumerate(row))):
        for q in (list(seq), tuple(seq)):
            got = pcgroup.compose(r, q)
            assert type(got) is list and got == [r[i] for i in q]


@pytest.mark.parametrize("seq", [[], [3], [4, 1], [2, 2]], ids=["empty", "one", "two", "repeat"])
def test_compose_on_short_sequences(seq):
    """itemgetter returns a scalar for one index and refuses none."""
    assert_compose_picks([10, 11, 12, 13, 14], seq)


@given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=64).flatmap(
    lambda row: st.tuples(st.just(row), st.lists(st.integers(0, len(row) - 1), max_size=100))))
def test_compose_on_random_sequences(row_seq):
    assert_compose_picks(*row_seq)


def test_inverses_above_the_table_limit(dihedral_times_c2):
    """D512 x C2 (order 1024) is above the group algebra's table limit, so
    neither the algebra nor the full table is built, and its inverses and
    doubled rows still hold."""
    group = load(dihedral_times_c2(9))
    assert group.order == 1024
    with pytest.raises(TableLimitError, match="order 1024 is above 512"):
        GroupAlgebra(group)
    with pytest.raises(TableLimitError, match="order 1024 is above 512"):
        group.cayley
    assert_holds_no_row(group)
    xs = random.Random(1).sample(range(group.order), 64)
    for x in xs:
        assert group.multiply(x, group.inverse(x)) == 0
        assert group.multiply(group.inverse(x), x) == 0
    for b in xs[:2]:
        row = pcgroup.doubled(group.right, 0, (b,))
        assert [row[y] for y in xs] == [group.multiply(b, y) for y in xs]


def assert_generator_commutators_match_products(group):
    """generator_commutator(i, j) is (gi, gj) as products give it, for every ordered pair."""
    gens = [1 << (group.n - k) for k in range(1, group.n + 1)]
    for i, j in itertools.product(range(1, group.n + 1), repeat=2):
        assert group.generator_commutator(i, j) == group.commutator(gens[i - 1], gens[j - 1]), (
            group.name, i, j)


@pytest.mark.parametrize(
    "case",
    [pytest.param(p, id=p.stem) for p in sorted(default_corpus_dir().rglob("*.pc2"))]
    + [pytest.param(n, id=f"D{1 << n}xC2") for n in LADDER],
)
def test_generator_commutators_match_products(case, dihedral_times_c2):
    """Every corpus file, and the ladder's D_(2^n) x C2 for n = 4..8."""
    group = load_file(case) if isinstance(case, Path) else load(dihedral_times_c2(case))
    assert_generator_commutators_match_products(group)


@settings(max_examples=100, deadline=None)
@given(twisted_presentations())
def test_generator_commutators_match_products_on_random_presentations(pres):
    try:
        group = FiniteGroup(pres)
    except ConsistencyError:
        assume(False)
    assert_generator_commutators_match_products(group)


def test_the_load_limit_is_checked_before_the_tables(monkeypatch):
    """Orders above LOAD_LIMIT are refused before any table is built."""

    class TablesBuilt(Exception):
        pass

    def refuse(group):
        raise TablesBuilt

    monkeypatch.setattr(FiniteGroup, "_tables", refuse)
    assert LOAD_LIMIT == 1 << 18  # D8 x C2^15, the widest group measured, still loads
    with pytest.raises(TablesBuilt):
        load("group E\ngens " + " ".join(f"g{i}" for i in range(18)) + "\n")
    with pytest.raises(TableLimitError, match=r"^E: order 524288 is above 262144, "):
        load("group E\ngens " + " ".join(f"g{i}" for i in range(19)) + "\n")
    with pytest.raises(TableLimitError, match="order 1073741824 is above 262144"):
        load("group E\ngens " + " ".join(f"g{i}" for i in range(30)) + "\n")


def assert_cyclic_lists_the_powers(group, xs):
    """cyclic(c) is [c^0, ..., c^(|c|-1)], each power taken by power()."""
    for c in xs:
        assert group.cyclic(c) == [group.power(c, e) for e in range(group.element_order(c))], (
            group.name, group.word_str(c))


@pytest.mark.parametrize("path", sorted(default_corpus_dir().rglob("*.pc2")), ids=lambda p: p.stem)
def test_cyclic_lists_the_powers_on_the_corpus(path):
    group = load_file(path)
    assert_cyclic_lists_the_powers(group, group.elements())


@settings(max_examples=100, deadline=None)
@given(twisted_presentations(), st.data())
def test_cyclic_lists_the_powers_on_random_presentations(pres, data):
    try:
        group = FiniteGroup(pres)
    except ConsistencyError:
        assume(False)
    xs = data.draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=8))
    assert_cyclic_lists_the_powers(group, xs)
