import itertools
import random

import pytest

from unitwreath import construct, oracle
from unitwreath.construct import run_pipeline, verify_wreath
from unitwreath.grpalg import conjugate_unit
from unitwreath.oracle import (
    TableGroup,
    WreathModel,
    bfs_closure,
    isomorphic_small,
    reference_table,
    reference_wreath,
)
from unitwreath.pcgroup import ClosureCapError, closure, load, load_file


@pytest.fixture(scope="module")
def h(d8xc2_algebra):
    group = d8xc2_algebra.group
    b, z = group.parse_word("b"), group.parse_word("z")
    one = d8xc2_algebra.one()
    return one + d8xc2_algebra.embed(b) * (one + d8xc2_algebra.embed(z))


def cyclic_table(m):
    return TableGroup([[(i + j) % m for j in range(m)] for i in range(m)])


def relabelled(group: TableGroup, rng: random.Random) -> TableGroup:
    """The same group with its elements renumbered by a random permutation."""
    perm = list(range(group.order))
    rng.shuffle(perm)
    table = [[0] * group.order for _ in range(group.order)]
    for x in range(group.order):
        for y in range(group.order):
            table[perm[x]][perm[y]] = perm[group.mul(x, y)]
    return TableGroup(table)


@pytest.fixture(scope="module")
def small_tables(corpus_dir):
    """Every corpus group of order 8, 16 and 32, by name."""
    return {
        p.stem: TableGroup(load_file(p).cayley)
        for d in ("o8", "o16", "o32")
        for p in sorted((corpus_dir / d).glob("*.pc2"))
    }


def same_profile_pairs(small_tables):
    """The pairs of corpus groups of order at most 16 with one order profile."""
    groups = [(n, g) for n, g in small_tables.items() if g.order <= 16]
    return [
        (x, y)
        for x, y in itertools.combinations(groups, 2)
        if x[1].order == y[1].order and x[1].order_profile() == y[1].order_profile()
    ]


def counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that appends 1 to the returned list per call."""
    calls = []
    function = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(1) or function(*args))
    return calls


class TestBfsClosure:
    def test_identity_seed(self, d8xc2_algebra):
        assert bfs_closure([d8xc2_algebra.one()]) == [d8xc2_algebra.one()]

    def test_h_generates_order_two(self, d8xc2_algebra, h):
        closed = bfs_closure([h])
        assert len(closed) == 2
        assert d8xc2_algebra.one() in closed and h in closed

    def test_orbit_with_a_has_size_16(self, d8xc2_algebra, h):
        group = d8xc2_algebra.group
        a = group.parse_word("a")
        orbit = [h, conjugate_unit(h, a)]
        closed = bfs_closure(orbit + [d8xc2_algebra.embed(a)])
        assert len(closed) == 16

    def test_closed_under_product_and_inverse(self, d8xc2_algebra, h):
        group = d8xc2_algebra.group
        closed = bfs_closure([h, d8xc2_algebra.embed(group.parse_word("z"))])
        members = {u.bits for u in closed}
        for u in closed:
            for v in closed:
                assert (u * v).bits in members
        from unitwreath.grpalg import inverse_unit

        for u in closed:
            assert inverse_unit(u).bits in members

    def test_cap(self, d8xc2_algebra, h):
        group = d8xc2_algebra.group
        a = d8xc2_algebra.embed(group.parse_word("a"))
        with pytest.raises(ClosureCapError):
            bfs_closure([h, a], cap=4)

    def test_rejects_non_normalized_seed(self, d8xc2_algebra):
        with pytest.raises(ValueError):
            bfs_closure([d8xc2_algebra.zero()])


class TestWreathModel:
    def test_orders(self):
        assert reference_wreath(1).order == 8
        assert reference_wreath(2).order == 64

    def test_s1_nonabelian(self):
        # the base unit e0 = (1, 0) and the shift t = (0, 1) do not commute
        model = reference_wreath(1)
        index = {x: i for i, x in enumerate(model.elements())}
        e0, t = index[model.base_unit(0)], index[model.shift()]
        table = model.to_table_group().table
        assert table[e0][t] != table[t][e0]

    def test_shift_order_and_action(self):
        for s in (1, 2):
            model = reference_wreath(s)
            tau = model.shift()
            x = model.identity()
            for _ in range(model.m):
                x = model.mul(x, tau)
            assert x == model.identity()
            # conjugating the coordinate-0 unit by tau moves it to coordinate 1
            tau_inv = (0, model.m - 1)
            conj = model.mul(model.mul(tau_inv, model.base_unit(0)), tau)
            assert conj == model.base_unit(1)

    @pytest.mark.parametrize("m", [2, 4])
    def test_associativity_exhaustive(self, m):
        model = WreathModel(m)
        elems = model.elements()
        for x, y, z in itertools.product(elems, repeat=3):
            assert model.mul(model.mul(x, y), z) == model.mul(x, model.mul(y, z))

    @pytest.mark.parametrize("s", [1, 2])
    def test_reference_passes_its_own_characterization(self, s):
        model = reference_wreath(s)
        table = model.to_table_group()
        idx = {x: i for i, x in enumerate(model.elements())}
        images = [idx[model.base_unit(i)] for i in range(model.m)]
        top = idx[model.shift()]
        checks = verify_wreath(table, images, top, s)
        assert all(checks.values()), checks
        assert isomorphic_small(table, reference_table(s))

    @pytest.mark.parametrize("s", [1, 2])
    def test_table_from_generator_rows_is_the_all_pairs_table(self, s):
        model = reference_wreath(s)
        elements = model.elements()
        index = {x: i for i, x in enumerate(elements)}
        table = [[index[model.mul(x, y)] for y in elements] for x in elements]
        assert model.to_table_group().table == table

    @pytest.mark.parametrize("s", [1, 2])
    def test_reference_table_is_built_once(self, s):
        assert reference_table(s) is reference_table(s)
        assert reference_table(s).table == reference_wreath(s).to_table_group().table


class TestIsomorphicSmall:
    def test_self_comparison(self):
        w = reference_wreath(1).to_table_group()
        assert isomorphic_small(w, w)

    def test_c8_is_not_the_wreath_product(self):
        assert not isomorphic_small(cyclic_table(8), reference_wreath(1).to_table_group())

    def test_order_mismatch(self):
        assert not isomorphic_small(cyclic_table(4), cyclic_table(8))

    def test_d8_is_c2_wr_c2(self, d8):
        assert isomorphic_small(
            TableGroup(d8.cayley), reference_wreath(1).to_table_group()
        )

    def test_symmetry(self, d8, d8xc2):
        w = reference_wreath(1).to_table_group()
        pairs = [
            (TableGroup(d8.cayley), w),
            (cyclic_table(8), w),
            (cyclic_table(8), cyclic_table(8)),
        ]
        for a, b in pairs:
            assert isomorphic_small(a, b) == isomorphic_small(b, a)

    def test_distinguishes_same_profile_groups(self, corpus_dir):
        from unitwreath.pcgroup import load_file

        q8 = TableGroup(load_file(corpus_dir / "o8" / "Q8.pc2").cayley)
        d8 = TableGroup(load_file(corpus_dir / "o8" / "D8.pc2").cayley)
        assert not isomorphic_small(q8, d8)


class TestGeneratorImageSearch:
    def test_generating_sequence(self, small_tables):
        for name, group in small_tables.items():
            gens = group.generating_sequence()
            orders = [group.order_of(g) for g in gens]
            assert orders == sorted(orders, reverse=True), name
            sizes = [len(group.closure(gens[: t + 1])) for t in range(len(gens))]
            assert sizes == sorted(set(sizes)) and sizes[-1] == group.order, name

    def test_random_relabelling_is_isomorphic(self, small_tables):
        rng = random.Random(1)
        for name, group in small_tables.items():
            other = relabelled(group, rng)
            assert isomorphic_small(group, other), name
            assert isomorphic_small(other, group), name

    def test_generating_sequence_is_a_basis(self, small_tables):
        """d(G) = log2|G : Φ(G)| generators, Φ(G) the closure of the squares,
        on every table and a relabelling of it, and none can be dropped."""
        rng = random.Random(2)
        for name, table in small_tables.items():
            for group in (table, relabelled(table, rng)):
                gens = group.generating_sequence()
                squares = {group.mul(x, x) for x in range(group.order)}
                frattini = closure(squares, group.mul, group.identity)
                assert 1 << len(gens) == group.order // len(frattini), name
                assert len(group.closure(gens)) == group.order, name
                for i in range(len(gens)):
                    assert len(group.closure(gens[:i] + gens[i + 1:])) < group.order, name

    def test_generating_sequence_needs_a_2_group(self):
        with pytest.raises(ValueError, match="not a power of 2"):
            cyclic_table(6).generating_sequence()

    def test_same_profile_groups_are_not_isomorphic(self, small_tables):
        pairs = same_profile_pairs(small_tables)
        assert len(pairs) == 7
        for (name_a, a), (name_b, b) in pairs:
            assert not isomorphic_small(a, b), (name_a, name_b)
            assert not isomorphic_small(b, a), (name_a, name_b)

    def test_same_profile_groups_are_refuted_in_few_leaves(self, monkeypatch, small_tables):
        """The commutator orders prune image pairs before the leaf: the 14
        refutations extend 384 image tuples; the product orders alone let
        1064 through, and the greedy sequence that preceded the basis 1696."""
        leaves = counted(monkeypatch, oracle, "_extend_isomorphism")
        for (_, a), (_, b) in same_profile_pairs(small_tables):
            assert not isomorphic_small(a, b) and not isomorphic_small(b, a)
        assert len(leaves) < 400


def test_each_section_quotient_is_accepted_at_its_first_leaf(monkeypatch, qualifying_paths):
    """On the 24 qualifying o16/o32 groups, the oracle's search over the
    basis extends one image tuple per section quotient, and it is an
    isomorphism onto the reference wreath product."""
    passing = [load_file(p) for p in qualifying_paths]
    searches = counted(monkeypatch, construct, "isomorphic_small")
    leaves = counted(monkeypatch, oracle, "_extend_isomorphism")
    for k, group in enumerate(passing, start=1):
        result = run_pipeline(group, use_oracle=True)
        assert result.section.checks["oracle-isomorphism"], group.name
        assert (len(searches), len(leaves)) == (k, k), group.name


@pytest.mark.parametrize("use_oracle", [True, False], ids=["oracle", "no-oracle"])
@pytest.mark.parametrize("source, s", [("D8xC2", 1), ("o32_45", 2), ("D32xC2", 3)])
def test_the_section_runs_the_cross_check_once(
    monkeypatch, corpus_dir, dihedral_times_c2, source, s, use_oracle
):
    """build_section alone runs --oracle: one isomorphism search and no
    detail for s <= ORACLE_MAX_S, none and the skip detail above it, and
    without use_oracle neither."""
    group = (load(dihedral_times_c2(5)) if source == "D32xC2"
             else load_file(next(corpus_dir.glob(f"*/{source}.pc2"))))
    searches = counted(monkeypatch, construct, "isomorphic_small")
    section = run_pipeline(group, use_oracle=use_oracle).section
    assert section.witness.s == s and section.verdict
    ran = use_oracle and s <= construct.ORACLE_MAX_S
    assert len(searches) == ran
    assert ("oracle-isomorphism" in section.checks) == ran
    skipped = use_oracle and not ran
    assert section.detail == (
        "oracle-isomorphism skipped: --oracle runs only for s <= 2" if skipped else None
    )


def test_inverse_in_a_relabelled_table():
    """TableGroup.inverse, the power before 1, on C2 wr C4 renumbered so that
    the identity is not element 0."""
    group = relabelled(reference_table(2), random.Random(3))
    assert group.identity != 0
    for x in range(group.order):
        y = group.inverse(x)
        assert group.mul(x, y) == group.mul(y, x) == group.identity
