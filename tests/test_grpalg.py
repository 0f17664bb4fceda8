import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_paths
from unitwreath import kernels
from unitwreath.grpalg import (
    GroupAlgebra,
    conjugate_unit,
    inverse_unit,
    unit_order,
)
from unitwreath.pcgroup import load, load_file


def bits_strategy(order):
    return st.integers(0, (1 << order) - 1)


def odd_bits_strategy(order):
    return bits_strategy(order).map(
        lambda b: b if b.bit_count() % 2 else b ^ 1
    ).filter(lambda b: b != 0)


@pytest.fixture(scope="module")
def h(d8xc2_algebra):
    group = d8xc2_algebra.group
    b, z = group.parse_word("b"), group.parse_word("z")
    one = d8xc2_algebra.one()
    return one + d8xc2_algebra.embed(b) * (one + d8xc2_algebra.embed(z))


class TestEmbedding:
    def test_identity_embeds_to_one(self, d8xc2_algebra):
        assert d8xc2_algebra.embed(0) == d8xc2_algebra.one()

    def test_multiplicative(self, d8xc2_algebra):
        group = d8xc2_algebra.group
        for x in group.elements():
            for y in group.elements():
                assert d8xc2_algebra.embed(x) * d8xc2_algebra.embed(
                    y
                ) == d8xc2_algebra.embed(group.multiply(x, y))

    def test_a_squared_is_c(self, d8xc2_algebra):
        group = d8xc2_algebra.group
        a = d8xc2_algebra.embed(group.parse_word("a"))
        assert a * a == d8xc2_algebra.embed(group.parse_word("c"))

    def test_support_size_one(self, d8xc2_algebra):
        for g in d8xc2_algebra.group.elements():
            assert d8xc2_algebra.embed(g).bits.bit_count() == 1


class TestAddMul:
    def test_add_zero_and_self(self, d8xc2_algebra, h):
        assert h + d8xc2_algebra.zero() == h
        assert h + h == d8xc2_algebra.zero()

    def test_one_plus_z_support(self, d8xc2_algebra):
        group = d8xc2_algebra.group
        z = group.parse_word("z")
        u = d8xc2_algebra.one() + d8xc2_algebra.embed(z)
        assert u.support() == (0, z)

    def test_one_plus_z_squares_to_zero(self, d8xc2_algebra):
        u = d8xc2_algebra.one() + d8xc2_algebra.embed(
            d8xc2_algebra.group.parse_word("z")
        )
        assert u * u == d8xc2_algebra.zero()

    def test_mul_by_one(self, d8xc2_algebra, h):
        assert d8xc2_algebra.one() * h == h
        assert h * d8xc2_algebra.one() == h

    def test_h_support(self, d8xc2_algebra, h):
        group = d8xc2_algebra.group
        b = group.parse_word("b")
        bz = group.multiply(b, group.parse_word("z"))
        assert set(h.support()) == {0, b, bz}
        assert h.bits.bit_count() == 3

    def test_group_mismatch_rejected(self, d8xc2_algebra, d8_algebra):
        with pytest.raises(ValueError):
            d8xc2_algebra.one() + d8_algebra.one()
        with pytest.raises(ValueError):
            d8xc2_algebra.one() * d8_algebra.one()


class TestAugmentation:
    def test_examples(self, d8xc2_algebra, h):
        assert d8xc2_algebra.zero().augmentation() == 0
        assert h.augmentation() == 1
        for g in d8xc2_algebra.group.elements():
            assert d8xc2_algebra.embed(g).augmentation() == 1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_ring_homomorphism(self, d8_algebra, data):
        u = d8_algebra.from_support([])
        order = d8_algebra.order
        ub = data.draw(bits_strategy(order))
        vb = data.draw(bits_strategy(order))
        u, v = type(u)(d8_algebra, ub), type(u)(d8_algebra, vb)
        assert (u + v).augmentation() == (u.augmentation() ^ v.augmentation())
        assert (u * v).augmentation() == (u.augmentation() & v.augmentation())


class TestUnits:
    def test_unit_orders(self, d8xc2_algebra, h):
        group = d8xc2_algebra.group
        assert unit_order(d8xc2_algebra.one()) == 1
        assert unit_order(h) == 2
        a = group.parse_word("a")
        assert unit_order(d8xc2_algebra.embed(a)) == group.element_order(a)

    def test_unit_order_rejects_even_support(self, d8xc2_algebra):
        u = d8xc2_algebra.one() + d8xc2_algebra.embed(
            d8xc2_algebra.group.parse_word("z")
        )
        with pytest.raises(ValueError):
            unit_order(u)

    def test_conjugate_by_identity(self, d8xc2_algebra, h):
        assert conjugate_unit(h, 0) == h

    def test_conjugate_by_a(self, d8xc2_algebra, h):
        group = d8xc2_algebra.group
        a = group.parse_word("a")
        bc = group.parse_word("b*c")
        bcz = group.multiply(bc, group.parse_word("z"))
        assert set(conjugate_unit(h, a).support()) == {0, bc, bcz}

    def test_conjugate_by_a_squared_fixes_h(self, d8xc2_algebra, h):
        group = d8xc2_algebra.group
        a2 = group.power(group.parse_word("a"), 2)
        assert conjugate_unit(h, a2) == h

    def test_conjugation_preserves_support_size_and_order(self, d8xc2_algebra, h):
        for g in d8xc2_algebra.group.elements():
            v = conjugate_unit(h, g)
            assert v.bits.bit_count() == h.bits.bit_count()
            assert unit_order(v) == unit_order(h)

    def test_inverse_examples(self, d8xc2_algebra, h):
        group = d8xc2_algebra.group
        one = d8xc2_algebra.one()
        assert inverse_unit(one) == one
        assert inverse_unit(h) == h
        a = group.parse_word("a")
        assert inverse_unit(d8xc2_algebra.embed(a)) == d8xc2_algebra.embed(
            group.power(a, 3)
        )

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_odd_support_elements_are_invertible(self, d8_algebra, data):
        from unitwreath.grpalg import AlgebraElement

        bits = data.draw(odd_bits_strategy(d8_algebra.order))
        u = AlgebraElement(d8_algebra, bits)
        v = inverse_unit(u)
        assert u * v == d8_algebra.one()
        assert v * u == d8_algebra.one()


class TestRingLaws:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_triples(self, d8_algebra, data):
        from unitwreath.grpalg import AlgebraElement

        order = d8_algebra.order
        u, v, w = (
            AlgebraElement(d8_algebra, data.draw(bits_strategy(order)))
            for _ in range(3)
        )
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w
        assert (u + v) * w == u * w + v * w

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_freshman_dream(self, d8_algebra, data):
        from unitwreath.grpalg import AlgebraElement

        x = AlgebraElement(d8_algebra, data.draw(bits_strategy(d8_algebra.order)))
        u = d8_algebra.one() + x
        assert u * u == d8_algebra.one() + x * x

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_conjugation_is_ring_automorphism(self, d8xc2_algebra, data):
        from unitwreath.grpalg import AlgebraElement

        group = d8xc2_algebra.group
        order = d8xc2_algebra.order
        g = data.draw(st.integers(0, group.order - 1))
        ge = d8xc2_algebra.embed(g)
        gi = d8xc2_algebra.embed(group.inverse(g))
        conj = lambda u: gi * u * ge
        u = AlgebraElement(d8xc2_algebra, data.draw(bits_strategy(order)))
        v = AlgebraElement(d8xc2_algebra, data.draw(bits_strategy(order)))
        assert conj(u * v) == conj(u) * conj(v)
        assert conj(u + v) == conj(u) + conj(v)


class TestKernel:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_convolve_matches_definition(self, d8xc2, data):
        conv = kernels.Convolver(d8xc2.cayley)
        u = data.draw(bits_strategy(d8xc2.order))
        v = data.draw(bits_strategy(d8xc2.order))
        expected = 0
        for x in d8xc2.elements():
            for y in d8xc2.elements():
                if u >> x & 1 and v >> y & 1:
                    expected ^= 1 << d8xc2.multiply(x, y)
        assert conv.convolve(u, v) == expected


def kernel_groups(dihedral_times_c2):
    return [load_file(p) for p in corpus_paths()] + [load(dihedral_times_c2(n)) for n in (4, 5, 6)]


def test_columns_then_apply_is_convolve(dihedral_times_c2):
    """apply(columns(u), v) = u·v, and apply over the columns gj ↦ gj·t is
    v·t, on every o16/o32 group and D_(2^n) x C2 for n = 4..6, for u = 0, 1
    and random u, v and t; the rows are each algebra's own RowStore."""
    rng = random.Random(19)
    groups = kernel_groups(dihedral_times_c2)
    assert len(groups) == 14 + 51 + 3
    for group in groups:
        conv = GroupAlgebra(group)._conv
        for u in [0, 1] + [rng.getrandbits(group.order) for _ in range(4)]:
            v = rng.getrandbits(group.order)
            assert kernels.apply(conv.columns(u), v) == conv.convolve(u, v), group.name
            t = rng.randrange(group.order)
            right = [1 << group.multiply(j, t) for j in group.elements()]
            assert kernels.apply(right, v) == conv.convolve(v, 1 << t), group.name
