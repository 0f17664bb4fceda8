"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import itertools
import random
import time

import pytest

from unitwreath import catalog
from unitwreath.construct import run_pipeline, verify_wreath
from unitwreath.grpalg import AlgebraElement, GroupAlgebra, inverse_unit, unit_order
from unitwreath.oracle import (
    TableGroup,
    bfs_closure,
    isomorphic_small,
    reference_table,
    reference_wreath,
)
from unitwreath.pcgroup import load_file


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def sweep(corpus_dir):
    """Timed full-verification sweep over the order-16 and order-32 corpora."""
    t0 = time.perf_counter()
    result16 = catalog.verify_all(corpus_dir / "o16", use_oracle=True)
    result32 = catalog.verify_all(corpus_dir / "o32", use_oracle=True)
    elapsed = time.perf_counter() - t0
    return result16, result32, elapsed


def test_criterion_1_end_to_end_d8xc2(corpus_dir):
    t0 = time.perf_counter()
    group = load_file(corpus_dir / "o16" / "D8xC2.pc2")
    result = run_pipeline(group, use_oracle=True)
    elapsed = time.perf_counter() - t0
    sec = result.section
    ok = (
        result.verdict
        and result.witness.s == 1
        and sec.base_order == 4
        and sec.quotient_order == 8
        and sec.checks["oracle-isomorphism"]
        and elapsed < 1.0
    )
    report(
        "1 (end-to-end D8xC2)",
        ok,
        f"s={result.witness.s} |X|={sec.base_order} "
        f"section={sec.quotient_order} oracle-iso="
        f"{sec.checks['oracle-isomorphism']} in {elapsed:.2f}s",
    )


def test_criterion_2_census(corpus_dir):
    t0 = time.perf_counter()
    census16 = catalog.scan(corpus_dir / "o16")
    census32 = catalog.scan(corpus_dir / "o32")
    elapsed = time.perf_counter() - t0
    counts = (
        census16.total(16),
        len(census16.passing(16)),
        census32.total(32),
        len(census32.passing(32)),
    )
    ok = counts == (14, 4, 51, 20) and elapsed < 10.0
    report(
        "2 (census 4 of 14 at order 16, 20 of 51 at order 32)",
        ok,
        f"got {counts} in {elapsed:.2f}s",
    )


def test_criterion_3_full_sweep(sweep):
    result16, result32, elapsed = sweep
    verdicts = [r.verdict for r in result16.results + result32.results]
    ok = (
        len(result16.results) == 4
        and len(result32.results) == 20
        and all(verdicts)
        and elapsed < 60.0
    )
    report(
        "3 (full verification sweep)",
        ok,
        f"{sum(verdicts)}/{len(verdicts)} pipelines pass in {elapsed:.2f}s",
    )


def test_criterion_4_witness_properties(sweep):
    result16, result32, _ = sweep
    checked = 0
    for result in result16.results + result32.results:
        group = result.group
        algebra = GroupAlgebra(group)
        w = result.witness
        units = [algebra.from_support((0, *pair)) for pair in result.orbit]  # certify's pairs
        m = 1 << w.s
        # (a) every orbit member has unit order 2
        assert all(unit_order(u) == 2 for u in units), group.name
        # (b) bitset equality with the closed form 1 + b (b,a^i) (1+z)
        for i, u in enumerate(units):
            comm = group.commutator(w.b, group.power(w.a, i))
            bc = group.multiply(w.b, comm)
            expected = algebra.from_support((0, bc, group.multiply(bc, w.z)))
            assert u == expected, (group.name, i)
        # (c) non-empty sub-products: support 1 + 2|S|, never 1
        one = algebra.one()
        for r in range(1, m + 1):
            for subset in itertools.combinations(units, r):
                prod = one
                for u in subset:
                    prod = prod * u
                assert prod.bits != 1, group.name
                assert prod.bits.bit_count() == 1 + 2 * r, group.name
        # (d) closure of X with a has the predicted order
        base = bfs_closure(units)
        ambient = bfs_closure(list(base) + [algebra.embed(w.a)])
        assert len(ambient) == (1 << (1 << w.s)) * group.element_order(w.a), group.name
        # (e) a^(2^s) centralizes X element-wise
        a_pow = algebra.embed(group.power(w.a, m))
        assert all(a_pow * x == x * a_pow for x in base), group.name
        checked += 1
    report("4 (witness property suite)", checked == 24, f"{checked} witnesses checked")


def test_criterion_5_algebra_laws(corpus_dir):
    d8 = load_file(corpus_dir / "o8" / "D8.pc2")
    algebra = GroupAlgebra(d8)
    one = algebra.one()
    # structural sample: all 4096 pairs of elements supported on the cyclic
    # subgroup <a> union its reflection coset, 6 elements deep
    window = list(range(6))
    elems = [
        algebra.from_support([g for k, g in enumerate(window) if (mask >> k) & 1])
        for mask in range(64)
    ]
    probes = [algebra.embed(g) for g in d8.elements()]
    pairs = 0
    for u in elems:
        for v in elems:
            assert u + v == v + u
            assert (one + u) * (one + u) == one + u * u  # freshman's dream
            assert (u * v).augmentation() == (u.augmentation() & v.augmentation())
            for w in probes:
                assert (u * v) * w == u * (v * w)
                assert w * (u + v) == w * u + w * v
            pairs += 1
    assert pairs == 4096

    rng = random.Random(20260823)
    # random triples over the order-16 and order-32 algebras
    for path in (corpus_dir / "o16" / "D8xC2.pc2",
                 sorted((corpus_dir / "o32").glob("*.pc2"))[0]):
        big = GroupAlgebra(load_file(path))
        top = (1 << big.order) - 1
        for _ in range(200):
            u, v, w = (AlgebraElement(big, rng.randint(0, top)) for _ in range(3))
            assert (u * v) * w == u * (v * w)
            assert u * (v + w) == u * v + u * w
            assert (u + v) * w == u * w + v * w
    # augmentation multiplicativity on 10^4 random pairs
    top = (1 << algebra.order) - 1
    for _ in range(10_000):
        u = AlgebraElement(algebra, rng.randint(0, top))
        v = AlgebraElement(algebra, rng.randint(0, top))
        assert (u * v).augmentation() == (u.augmentation() & v.augmentation())
    # every odd-support element tested has a verifying inverse
    inverted = 0
    for _ in range(200):
        bits = rng.randint(1, top)
        if bits.bit_count() % 2 == 0:
            bits ^= 1
        u = AlgebraElement(algebra, bits or 1)
        v = inverse_unit(u)
        assert u * v == one and v * u == one
        inverted += 1
    report("5 (algebra-law suite)", True,
           f"4096 structured pairs, 10000 augmentation pairs, {inverted} inverses")


def test_criterion_6_oracle_self_consistency():
    ok = True
    for s in (1, 2):
        model = reference_wreath(s)
        table = model.to_table_group()
        idx = {x: i for i, x in enumerate(model.elements())}
        images = [idx[model.base_unit(i)] for i in range(model.m)]
        top = idx[model.shift()]
        checks = verify_wreath(table, images, top, s)
        ok = ok and all(checks.values()) and isomorphic_small(table, reference_table(s))
    c8 = TableGroup([[(i + j) % 8 for j in range(8)] for i in range(8)])
    ok = ok and not isomorphic_small(c8, reference_wreath(1).to_table_group())
    report("6 (oracle self-consistency)", ok)
