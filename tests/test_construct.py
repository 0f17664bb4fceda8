import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitwreath import construct, kernels
from unitwreath.cli import _dump
from unitwreath.construct import (
    REASON_ABELIAN,
    REASON_NO_Z,
    BaseOrbit,
    ConstructionError,
    NoWitnessError,
    QuotientGroup,
    Witness,
    build_orbit,
    build_section,
    check_hypotheses,
    run_pipeline,
    select_witness,
    verify_base_group,
    verify_wreath,
    _commutators,
    _witness_invariants,
)
from unitwreath.grpalg import GroupAlgebra, conjugate_unit
from unitwreath.oracle import bfs_closure
from unitwreath.pcgroup import ClosureCapError, load, load_file


def section_quotient(result):
    """The section's QuotientGroup for a pipeline result, its generators and kernel."""
    algebra = result.orbit.units[0].algebra
    w = result.witness
    gens = list(result.orbit.units) + [algebra.embed(w.a)]
    kernel = bfs_closure([algebra.embed(algebra.group.power(w.a, 1 << w.s))])
    return QuotientGroup(gens, kernel), gens, kernel


def rep_key(bits):
    return bits.bit_count(), bits


@pytest.fixture(scope="module")
def pipeline(d8xc2):
    result = run_pipeline(d8xc2, use_oracle=True)
    assert result.error is None
    return result


class TestHypotheses:
    def test_abelian_fails(self):
        group = load("group C2xC2\ngens a b\n")
        report = check_hypotheses(group)
        assert not report.passed
        assert report.failure_reason == REASON_ABELIAN

    def test_d8_has_no_central_involution_outside_derived(self, d8):
        report = check_hypotheses(d8)
        assert not report.passed
        assert report.failure_reason == REASON_NO_Z
        assert report.derived_order == 2 and report.center_order == 2

    def test_d8xc2_passes(self, d8xc2):
        report = check_hypotheses(d8xc2)
        assert report.passed
        assert report.derived_order == 2
        assert report.center_order == 4
        z = d8xc2.parse_word("z")
        assert z in report.candidates_z
        # canonical order puts z first
        assert report.candidates_z[0] == z

    def test_reason_codes_cover_corpus(self, corpus32):
        reasons = {check_hypotheses(g).failure_reason for g in corpus32}
        assert None in reasons  # some pass
        assert REASON_ABELIAN in reasons


class TestWitness:
    def test_d8xc2_witness(self, d8xc2):
        report = check_hypotheses(d8xc2)
        w = select_witness(d8xc2, report)
        assert w.s == 1 and w.k == 2
        assert d8xc2.commutator(w.b, w.a) == d8xc2.parse_word("c")
        assert w.z == d8xc2.parse_word("z")
        # (b, a^2) = 1 since a^2 = c is central
        assert d8xc2.commutator(w.b, d8xc2.power(w.a, 2)) == 0

    def test_commutators_distinct(self, d8xc2):
        report = check_hypotheses(d8xc2)
        w = select_witness(d8xc2, report)
        comms = {
            d8xc2.commutator(w.b, d8xc2.power(w.a, i)) for i in range(1 << w.s)
        }
        assert len(comms) == 1 << w.s

    def test_invariants_list_the_commutators_in_order(self, corpus32):
        # _witness_invariants steps a^i by one product; compare with power(a, i)
        for group in corpus32:
            report = check_hypotheses(group)
            if not report.passed:
                continue
            w = select_witness(group, report)
            comms = _witness_invariants(
                group, _commutators(group, w.b), w.a, report.derived_order,
                group.element_order,
            )
            assert comms == [
                group.commutator(w.b, group.power(w.a, i)) for i in range(1 << w.s)
            ]

    @pytest.mark.parametrize("top", ["z", "1"])
    def test_invariants_require_b_to_commute_with_a_to_the_2_to_the_s(self, d8xc2, top):
        # a hand-built table (b, x): (b, a) = c of order 2 = |G'| and the
        # orbit [1, c] is distinct, so (b, a^2) = (b, c) alone decides
        a, b, c = (d8xc2.parse_word(w) for w in "abc")
        assert d8xc2.power(a, 2) == c
        comms = [0] * d8xc2.order
        comms[a], comms[c] = c, d8xc2.parse_word(top)
        expected = [0, c] if top == "1" else None
        assert _witness_invariants(d8xc2, comms, a, 2, d8xc2.element_order) == expected

    def test_requires_passing_report(self, d8):
        report = check_hypotheses(d8)
        with pytest.raises(ValueError):
            select_witness(d8, report)

    def test_override_accepted(self, d8xc2):
        report = check_hypotheses(d8xc2)
        a = d8xc2.parse_word("a")
        b = d8xc2.parse_word("b")
        z2 = d8xc2.parse_word("c*z")
        w = select_witness(d8xc2, report, override=(a, b, z2))
        assert w.z == z2

    def test_override_rejects_bad_pair(self, d8xc2):
        report = check_hypotheses(d8xc2)
        z = d8xc2.parse_word("z")
        with pytest.raises(NoWitnessError):
            # (c, c) = 1 does not generate the derived subgroup
            select_witness(
                d8xc2, report,
                override=(d8xc2.parse_word("c"), d8xc2.parse_word("c"), z),
            )

    def test_override_rejects_bad_z(self, d8xc2):
        report = check_hypotheses(d8xc2)
        with pytest.raises(NoWitnessError):
            select_witness(
                d8xc2, report,
                override=(
                    d8xc2.parse_word("a"),
                    d8xc2.parse_word("b"),
                    d8xc2.parse_word("c"),  # central but inside derived
                ),
            )


class TestOrbit:
    def test_d8xc2_orbit(self, pipeline, d8xc2):
        orbit = pipeline.orbit
        assert len(orbit.units) == 2
        words = [u.words() for u in orbit.units]
        assert words[0] == "1 + b + b·z"
        assert words[1] == "1 + c·b + c·b·z"

    def test_support_and_augmentation(self, pipeline):
        for u in pipeline.orbit.units:
            assert u.support_size() == 3
            assert u.augmentation() == 1

    def test_wraparound(self, pipeline, d8xc2):
        orbit = pipeline.orbit
        back = conjugate_unit(orbit.units[-1], pipeline.witness.a)
        assert back == orbit.units[0]

    def test_a_noncentral_z_breaks_the_closed_form(self, pipeline, d8xc2, d8xc2_algebra):
        # with z = b·z, which does not commute with a, unit 1 is not 1 + b(b,a)(1+z)
        w = pipeline.witness
        bad = Witness(a=w.a, b=w.b, z=d8xc2.parse_word("b*z"), s=w.s, k=w.k)
        with pytest.raises(ConstructionError, match="closed form fails at i=1"):
            build_orbit(d8xc2_algebra, bad)

    def test_a_short_orbit_does_not_wrap(self, pipeline, d8xc2_algebra):
        w = pipeline.witness
        bad = Witness(a=w.a, b=w.b, z=w.z, s=0, k=w.k)
        with pytest.raises(ConstructionError, match="does not wrap"):
            build_orbit(d8xc2_algebra, bad)


def assert_units_are_iterated_conjugates(units, a):
    """build_orbit steps b_i by group products; grpalg.conjugate_unit convolves."""
    u = units[0]
    for unit in units:
        assert unit == u, unit.algebra.group.name
        u = conjugate_unit(u, a)
    assert u == units[0]


def assert_orbit_is_iterated_conjugation(group):
    w = select_witness(group, check_hypotheses(group))
    assert_units_are_iterated_conjugates(build_orbit(GroupAlgebra(group), w).units, w.a)


def test_orbit_equals_iterated_conjugate_unit_on_the_corpus(corpus_dir):
    paths = sorted(corpus_dir.glob("o16/*.pc2")) + sorted(corpus_dir.glob("o32/*.pc2"))
    groups = [load_file(p) for p in paths]
    passing = [g for g in groups if check_hypotheses(g).passed]
    assert len(passing) == 24
    for group in passing:
        assert_orbit_is_iterated_conjugation(group)


@pytest.mark.parametrize("n", range(4, 9))
def test_orbit_equals_iterated_conjugate_unit_on_the_ladder(n, dihedral_times_c2):
    assert_orbit_is_iterated_conjugation(load(dihedral_times_c2(n)))


def test_the_ladder_top_reads_few_rows(dihedral_times_c2):
    """D256 x C2 (order 512) through hypotheses, witness and orbit builds 16
    rows, the identity's and the generators' 9 among them; the full table
    has 512."""
    group = load(dihedral_times_c2(8))
    report = check_hypotheses(group)
    build_orbit(GroupAlgebra(group), select_witness(group, report))
    assert group.order == 512
    assert len(group.rows) < group.order // 2


def test_the_orbit_reads_no_row(dihedral_times_c2):
    """build_orbit steps b_i by group products: on a fresh D256 x C2, with
    the witness found on a second load, it builds no row past the
    identity's, and its units are the iterated conjugate_unit of h."""
    reference = load(dihedral_times_c2(8))
    w = select_witness(reference, check_hypotheses(reference))
    group = load(dihedral_times_c2(8))
    units = build_orbit(GroupAlgebra(group), w).units
    assert list(group.rows) == [0]
    assert len(units) == 64
    assert_units_are_iterated_conjugates(units, w.a)


def test_the_witness_search_keeps_no_row_per_candidate(corpus_dir, dihedral_times_c2):
    """Stepping a^i by products keeps no row of a candidate a, and doubling
    b^-1's row keeps none of a candidate b: o32_45 holds fewer rows than
    elements after the search, and D512 x C2 (order 1024, n = 10) at most 2n
    after hypotheses and the search, whether the scan reaches b = t second
    (t last among the generators) or after 511 non-central rotations (t
    first)."""
    group = load_file(corpus_dir / "o32" / "o32_45.pc2")
    select_witness(group, check_hypotheses(group))
    assert len(group.rows) < group.order
    rots = [f"r{i}" for i in range(1, 9)]
    t_first = ["group D512xC2", "gens " + " ".join(["t"] + rots + ["c"])]
    t_first += [f"pow {rots[i]} = {rots[i + 1]}" for i in range(7)]
    t_first += [f"conj {rots[i]} t = " + " ".join(rots[i:]) for i in range(8)]  # ri^t = ri^-1
    for text in dihedral_times_c2(9), "\n".join(t_first) + "\n":
        group = load(text)
        w = select_witness(group, check_hypotheses(group))
        assert group.order == 1024
        assert [group.word_str(x) for x in (w.a, w.b, w.z)] == ["r1", "t", "c"]
        assert len(group.rows) <= 2 * group.n


def test_the_witness_above_the_table_limit(dihedral_times_c2):
    """D32768 x C2 (order 65,536, s = 13) gets the ladder's witness."""
    group = load(dihedral_times_c2(15))
    report = check_hypotheses(group)
    w = select_witness(group, report)
    assert group.order == 65536 and report.passed
    assert [group.word_str(x) for x in (w.a, w.b, w.z)] == ["r1", "t", "c"]
    assert w.s == 13


class TestBaseGroup:
    def test_x_is_the_four_group_of_units(self, pipeline, d8xc2):
        orbit = pipeline.orbit
        base, checks = verify_base_group(orbit)
        assert len(base) == 4
        h, ha = orbit.units
        expected = {1, h.bits, ha.bits, (h * ha).bits}
        assert {u.bits for u in base} == expected
        assert all(checks.values())

    def test_full_orbit_product_nontrivial(self, pipeline):
        prod = pipeline.orbit.units[0]
        for u in pipeline.orbit.units[1:]:
            prod = prod * u
        assert not prod.is_one()
        assert prod.support_size() == 1 + 2 * len(pipeline.orbit.units)

    def test_corrupted_orbit_rejected(self, pipeline, d8xc2_algebra):
        # replacing one member with its product kills independence
        h, ha = pipeline.orbit.units
        bad = type(pipeline.orbit)(units=(h, h))
        with pytest.raises(ConstructionError):
            verify_base_group(bad)

    def test_cap_bounds_the_base_group(self, pipeline):
        # m = 2 orbit units: X has 2^2 elements, which a cap of 4 admits
        base, _ = verify_base_group(pipeline.orbit, cap=4)
        assert len(base) == 4
        with pytest.raises(ClosureCapError, match=r"^base group X of order 2\^2 exceeds cap 3$"):
            verify_base_group(pipeline.orbit, cap=3)

    @pytest.mark.parametrize(
        "words, message",
        [
            # x = 1 + z: an involution whose x has 1 in its support
            pytest.param(["z"], r"1 in the support of x_i at \[0\]", id="one-in-support"),
            # commuting involutions, but (1 + z)(1 + c) = 1 + z + c + z·c is not 0
            pytest.param(["z", "c"], r"x_i·x_j ≠ 0 or supports meet at \[\(0, 1\)\]",
                         id="nonzero-product"),
        ],
    )
    def test_degenerate_orbits_rejected(self, d8xc2, d8xc2_algebra, words, message):
        units = tuple(d8xc2_algebra.embed(d8xc2.parse_word(w)) for w in words)
        with pytest.raises(ConstructionError, match=message):
            verify_base_group(BaseOrbit(units=units))


def assert_base_is_the_closure_of_the_orbit(group):
    orbit = build_orbit(GroupAlgebra(group), select_witness(group, check_hypotheses(group)))
    base, checks = verify_base_group(orbit)
    assert base == bfs_closure(orbit.units), group.name
    assert checks == dict.fromkeys(
        ("orbit-orders", "pairwise-commuting", "subset-products-nontrivial"), True
    )


def test_base_is_the_closure_of_the_orbit_on_the_corpus(corpus_dir):
    paths = sorted(corpus_dir.glob("o16/*.pc2")) + sorted(corpus_dir.glob("o32/*.pc2"))
    passing = [g for g in map(load_file, paths) if check_hypotheses(g).passed]
    assert len(passing) == 24
    for group in passing:
        assert_base_is_the_closure_of_the_orbit(group)


@pytest.mark.parametrize("n", [4, 5])
def test_base_is_the_closure_of_the_orbit_on_the_ladder(n, dihedral_times_c2):
    assert_base_is_the_closure_of_the_orbit(load(dihedral_times_c2(n)))


def test_the_base_group_makes_no_product_per_element(monkeypatch, dihedral_times_c2):
    """D32 x C2 (m = 8, |X| = 256): x_i·x_i for each i and x_i·x_j, x_j·x_i
    for each pair, m + m(m-1) = 64 convolutions; the 2^m elements of X are
    sums."""
    group = load(dihedral_times_c2(5))
    orbit = build_orbit(GroupAlgebra(group), select_witness(group, check_hypotheses(group)))
    calls = []
    convolve = kernels.Convolver.convolve
    monkeypatch.setattr(
        kernels.Convolver, "convolve", lambda self, u, v: calls.append(1) or convolve(self, u, v)
    )
    base, _ = verify_base_group(orbit)
    assert (len(orbit.units), len(base), len(calls)) == (8, 256, 64)


class TestSection:
    def test_orders(self, pipeline):
        sec = pipeline.section
        assert sec.base_order == 4
        assert sec.ambient_order == 16
        assert sec.kernel_order == 2
        assert sec.quotient_order == 8

    def test_all_checks_pass(self, pipeline):
        assert pipeline.section.verdict
        assert pipeline.section.checks["oracle-isomorphism"]

    def test_kernel_centralizes_base(self, pipeline, d8xc2):
        w = pipeline.witness
        a_pow = d8xc2.power(w.a, 1 << w.s)
        for u in pipeline.orbit.units:
            assert conjugate_unit(u, a_pow) == u

    def test_corrupted_quotient_fails(self, pipeline):
        quotient, _, _ = section_quotient(pipeline)
        table = quotient.to_table_group()
        *images, top = [row[0] for row in quotient.rows]
        # swap two entries in the top row: breaks the group structure
        corrupt = [row[:] for row in table.table]
        corrupt[top][images[0]], corrupt[top][images[1]] = (
            corrupt[top][images[1]],
            corrupt[top][images[0]],
        )
        from unitwreath.oracle import TableGroup

        checks = verify_wreath(
            TableGroup(corrupt), images, top, pipeline.witness.s, use_oracle=True
        )
        assert not all(checks.values())

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_quotient_multiplication_is_representative_independent(
        self, pipeline, d8xc2_algebra, data
    ):
        quotient, _, kernel = section_quotient(pipeline)
        table = quotient.to_table_group()
        conv = d8xc2_algebra._conv.convolve

        def coset(i):
            return sorted(conv(quotient.reps[i], k.bits) for k in kernel)

        i = data.draw(st.integers(0, quotient.order - 1))
        j = data.draw(st.integers(0, quotient.order - 1))
        ri = data.draw(st.sampled_from(coset(i)))
        rj = data.draw(st.sampled_from(coset(j)))
        assert conv(ri, rj) in coset(table.mul(i, j))

    def test_generator_row_table_matches_representative_products(self, corpus_dir):
        # the brute-force reference: the listed <gens> sorted into cosets, and
        # every pair of coset representatives convolved
        checked = 0
        paths = sorted(corpus_dir.glob("o16/*.pc2")) + sorted(corpus_dir.glob("o32/*.pc2"))
        for path in paths:
            result = run_pipeline(load_file(path), use_oracle=False)
            if not result.hypothesis.passed:
                continue
            quotient, gens, kernel = section_quotient(result)
            conv = gens[0].algebra._conv.convolve
            ambient = bfs_closure(gens)
            cosets = sorted(
                {frozenset(conv(u.bits, k.bits) for k in kernel) for u in ambient},
                key=lambda c: rep_key(min(c, key=rep_key)),
            )
            reps = [min(c, key=rep_key) for c in cosets]
            coset_of = {x: i for i, c in enumerate(cosets) for x in c}
            assert quotient.reps == reps, path.stem
            assert quotient.to_table_group().table == [
                [coset_of[conv(ri, rj)] for rj in reps] for ri in reps
            ], path.stem
            assert result.section.ambient_order == len(ambient), path.stem
            checked += 1
        assert checked == 24


class TestPipeline:
    def test_deterministic(self, d8xc2):
        first = _dump(run_pipeline(d8xc2, use_oracle=True).to_dict())
        second = _dump(run_pipeline(d8xc2, use_oracle=True).to_dict())
        assert first == second

    def test_failing_group_reports_reason(self, d8):
        result = run_pipeline(d8)
        assert not result.verdict
        assert result.error is not None
        assert result.section is None

    def test_without_oracle_check(self, d8xc2):
        result = run_pipeline(d8xc2, use_oracle=False)
        assert result.verdict
        assert "oracle-isomorphism" not in result.section.checks

    def test_cap_is_tested_before_the_witness_search(self, monkeypatch, dihedral_times_c2):
        # D64 x C2: |G'| = 16, so <X, a> has at least 2^17 elements
        def search(*args, **kwargs):
            raise AssertionError("searched for a witness")

        monkeypatch.setattr(construct, "select_witness", search)
        with pytest.raises(ClosureCapError, match=r"2\|X\| = 131072 exceeds cap 65536"):
            run_pipeline(load(dihedral_times_c2(6)))
