from dataclasses import asdict, replace
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algebra_reference import conjugate_unit
from conftest import (
    D8_C2_E64,
    D8_SQUARED,
    assert_holds_no_row,
    qualifying_presentations,
    twisted_presentations,
)
from unitwreath import construct, kernels, pcgroup
from unitwreath.cli import _dump
from unitwreath.construct import (
    REASON_ABELIAN,
    REASON_NO_Z,
    BaseOrbit,
    ConstructionError,
    NoWitnessError,
    PipelineResult,
    QuotientGroup,
    SectionReport,
    Witness,
    build_orbit,
    build_section,
    certified_section,
    certify,
    check_hypotheses,
    json_order,
    run_pipeline,
    select_witness,
    verify_base_group,
    verify_wreath,
    _qualifies,
)
from unitwreath.grpalg import GroupAlgebra
from unitwreath.oracle import DEFAULT_CAP, bfs_closure, reference_table, reference_wreath
from unitwreath.pcgroup import (
    ClosureCapError,
    ConsistencyError,
    FiniteGroup,
    closure,
    load,
    load_file,
    parse_presentation,
    serialize_presentation,
)


def section_quotient(result):
    """The section's QuotientGroup for a pipeline result, its generators and kernel."""
    algebra, w = GroupAlgebra(result.group), result.witness
    gens = list(build_orbit(algebra, w).units) + [algebra.embed(w.a)]
    kernel = bfs_closure([algebra.embed(algebra.group.power(w.a, 1 << w.s))])
    return QuotientGroup(gens, kernel, DEFAULT_CAP), gens, kernel


def rep_key(bits):
    return bits.bit_count(), bits


@pytest.fixture(scope="module")
def pipeline(d8xc2):
    result = run_pipeline(d8xc2, use_oracle=True)
    assert result.error is None
    return result


@pytest.fixture(scope="module")
def orbit(pipeline, d8xc2_algebra):
    return build_orbit(d8xc2_algebra, pipeline.witness)


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

    @pytest.mark.parametrize(
        "mask, neg, a, expected",
        [
            pytest.param(0b011, 0b100, 0b001, True, id="qualifies"),
            pytest.param(0b001, 0b110, 0b111, True, id="neg-letters-in-a-pair"),
            pytest.param(0b000, 0b000, 0b111, False, id="central-b"),
            pytest.param(0b011, 0b000, 0b000, False, id="identity-a"),
            pytest.param(0b011, 0b000, 0b100, False, id="a-misses-the-mask"),
            pytest.param(0b011, 0b000, 0b011, False, id="even-commutator-exponent"),
            pytest.param(0b011, 0b001, 0b001, False, id="k-a-is-3-mod-4"),
            pytest.param(0b011, 0b011, 0b010, False, id="mask-equals-neg"),
        ],
    )
    def test_qualify_reads_hand_built_masks(self, mask, neg, a, expected):
        # (b, a) generates G' when a holds an odd number of mask's letters,
        # and the (b, a^i), i < m, run through G' once when an even number of neg's
        assert _qualifies(mask, neg, a) is expected

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


# build_orbit's message when 1, the b_i and the b_i·z are not 2m+1 distinct elements
REPEATS = "subset-products-nontrivial fails: {} repeats among 1, the b_i and the b_i·z"


class TestOrbit:
    def test_d8xc2_orbit(self, orbit):
        assert len(orbit.units) == 2
        words = [u.words() for u in orbit.units]
        assert words[0] == "1 + b + b·z"
        assert words[1] == "1 + c·b + c·b·z"

    def test_support_and_augmentation(self, orbit):
        for u in orbit.units:
            assert u.bits.bit_count() == 3
            assert u.augmentation() == 1

    def test_wraparound(self, pipeline, orbit):
        back = conjugate_unit(orbit.units[-1], pipeline.witness.a)
        assert back == orbit.units[0]

    def test_a_noncentral_z_breaks_the_closed_form(self, pipeline, d8xc2, d8xc2_algebra):
        # with z = b·z, which does not commute with a, unit 1 is not 1 + b(b,a)(1+z)
        w = pipeline.witness
        bad = Witness(a=w.a, b=w.b, z=d8xc2.parse_word("b*z"), s=w.s, k=w.k)
        with pytest.raises(ConstructionError) as info:
            build_orbit(d8xc2_algebra, bad)
        assert str(info.value) == (
            "orbit closed form fails at i=1: (b_0·z)^a is z, not b_1·z = c·z")

    def test_a_short_orbit_does_not_wrap(self, pipeline, d8xc2_algebra):
        w = pipeline.witness
        bad = Witness(a=w.a, b=w.b, z=w.z, s=0, k=w.k)
        with pytest.raises(ConstructionError, match="does not wrap"):
            build_orbit(d8xc2_algebra, bad)

    @pytest.mark.parametrize(
        "path, s, a, b, z, message",
        [
            # z ∈ G': b_0·z = b_1
            pytest.param("o16/D8xC2.pc2", 1, "a", "b", "c", REPEATS.format("b"), id="z-in-derived"),
            # z = b·z does not commute with a
            pytest.param("o16/D8xC2.pc2", 1, "a", "b", "b*z",
                         "orbit closed form fails at i=1: (b_0·z)^a is z, not b_1·z = c·z",
                         id="z-moved-by-a"),
            # m = 1 unit, but b^a = c·b
            pytest.param("o16/D8xC2.pc2", 0, "a", "b", "z",
                         "orbit does not wrap around under conjugation by a", id="no-wrap"),
            # z = 1: b_i·z = b_i, so every x_i is 0
            pytest.param("o16/D8xC2.pc2", 1, "a", "b", "1", REPEATS.format("b"), id="z-one"),
            # a central b: b_0 = b_1, and the orbit still wraps
            pytest.param("o16/D8xC2.pc2", 1, "a", "c", "z", REPEATS.format("c"), id="b-central"),
            # b = 1, with one unit: 1 lies in the support of x_0, and 1, b, b·z
            # are 2m = 2 elements, one short
            pytest.param("o16/D8xC2.pc2", 0, "a", "1", "z", REPEATS.format("1"), id="b-one"),
            # a·z commutes with a, and squares to c
            pytest.param("o16/D8xC2.pc2", 1, "a", "b", "a*z",
                         "orbit-orders fails: z = a·z is not an involution",
                         id="z-not-involution"),
            # z = a is an involution that commutes with a, but a^b = a·e
            pytest.param("o32/o32_03.pc2", 1, "a", "b", "a",
                         "pairwise-commuting fails: z = a does not commute with b = b",
                         id="z-not-central"),
        ],
    )
    def test_each_certificate_check_is_named(self, corpus_dir, path, s, a, b, z, message):
        """A hand-built witness that fails one check of certify, by group
        products alone, gets that check's message."""
        group = load_file(corpus_dir / path)
        a, b, z = map(group.parse_word, (a, b, z))
        bad = Witness(a=a, b=b, z=z, s=s, k=group.element_order(a).bit_length() - 1)
        with pytest.raises(ConstructionError) as info:
            certify(group, bad)
        assert str(info.value) == message


def assert_exponents_give_the_commutators(group):
    """The report's parities and neg, against commutators and conjugates
    taken by products.  For every (b, a): a & mask(b) has odd weight, mask(b)
    the XOR of report.parities over b's letters, exactly when the
    commutator (b, a) = c^e, with e read off the powers of c, has e odd;
    and a & report.neg has even weight exactly when c^a = c^k with
    k ≡ 1 mod min(4, m).  Above order 64, b runs over the generators and
    the witness's b, and a over every element."""
    report = check_hypotheses(group)
    m, c, n = report.derived_order, report.derived_generator, group.n
    log = {group.power(c, e): e for e in range(m)}
    assert len(report.parities) == n
    bs = group.elements()
    if group.order > 64:
        bs = [select_witness(group, report).b] + [1 << k for k in range(n)]
    for b in bs:
        mask = 0
        for k, row in enumerate(report.parities, start=1):  # gk = 1 << (n - k)
            if b >> (n - k) & 1:
                mask ^= row
        assert [(a & mask).bit_count() % 2 for a in group.elements()] == [
            log[group.commutator(b, a)] % 2 for a in group.elements()
        ], (group.name, group.word_str(b))
    assert [(a & report.neg).bit_count() % 2 == 0 for a in group.elements()] == [
        log[group.conjugate(c, a)] % min(4, m) == 1 for a in group.elements()
    ], group.name


def test_exponents_give_the_commutators_on_the_corpus(qualifying_paths):
    for group in map(load_file, qualifying_paths):
        assert_exponents_give_the_commutators(group)


@pytest.mark.parametrize("n", range(4, 9))
def test_exponents_give_the_commutators_on_the_ladder(n, dihedral_times_c2):
    assert_exponents_give_the_commutators(load(dihedral_times_c2(n)))


@settings(max_examples=100, deadline=None)
@given(qualifying_presentations())
def test_exponents_give_the_commutators_on_random_groups(pres):
    assert_exponents_give_the_commutators(load(serialize_presentation(pres)))


@pytest.mark.parametrize("s", range(1, 9))
def test_full_period_is_k_one_mod_four(s):
    """Hull and Dobell for x ↦ k·x + 1 mod 2^s, every odd k: the orbit of 0
    runs through all 2^s residues exactly when k ≡ 1 mod min(4, 2^s)."""
    m = 1 << s
    for k in range(1, m, 2):
        orbit, x = set(), 0
        while x not in orbit:
            orbit.add(x)
            x = (k * x + 1) % m
        assert (len(orbit) == m) is (k % min(4, m) == 1), (s, k)


def brute_force_qualifies(group, m, a, b):
    """The side conditions from commutators and powers, each computed afresh."""
    return (
        group.element_order(group.commutator(b, a)) == m
        and len({group.commutator(b, group.power(a, i)) for i in range(m)}) == m
        and group.commutator(b, group.power(a, m)) == 0
    )


def assert_the_search_finds_the_first_witness(group, report):
    """Some (b, a) qualifies (select_witness proves it), and the witness is
    the first in canonical order that brute_force_qualifies."""
    m = report.derived_order
    first = next(
        ((a, b) for b in group.elements() for a in group.elements()
         if brute_force_qualifies(group, m, a, b)),
        None,
    )
    assert first is not None, group.name
    w = select_witness(group, report)
    assert (w.a, w.b, w.z) == (*first, report.candidates_z[0])


@settings(max_examples=500, deadline=None)  # every draw qualifies: 500 of 500 in a counted run
@given(qualifying_presentations(), st.data())
def test_the_search_matches_a_brute_force_scan(pres, data):
    """On random qualifying groups: a witness exists, it is the first (b, a)
    in canonical order that brute_force_qualifies, and a drawn override
    (a, b) is accepted exactly when it qualifies."""
    group = load(serialize_presentation(pres))
    report = check_hypotheses(group)
    assert report.passed
    assert_the_search_finds_the_first_witness(group, report)
    m, z = report.derived_order, report.candidates_z[0]
    a, b = (data.draw(st.integers(0, group.order - 1)) for _ in "ab")
    if brute_force_qualifies(group, m, a, b):
        assert select_witness(group, report, override=(a, b, z)).a == a
    else:
        with pytest.raises(NoWitnessError):
            select_witness(group, report, override=(a, b, z))


@settings(max_examples=200, deadline=None)
@given(twisted_presentations())
def test_every_passing_random_group_has_a_witness(pres):
    """The random presentations of test_the_hypotheses_match_brute_force,
    filtered to the consistent ones whose group passes the hypotheses
    (about one in ten): each has a witness, the first by brute force."""
    try:
        group = load(serialize_presentation(pres))
    except ConsistencyError:
        return
    report = check_hypotheses(group)
    if report.passed:
        assert_the_search_finds_the_first_witness(group, report)


def brute_force_hypotheses(group):
    """G' as the closure of every commutator, Z(G) by all-pairs commutation."""
    elements = group.elements()
    derived = closure({group.commutator(x, y) for x in elements for y in elements},
                      group.multiply, 0)
    center = tuple(x for x in elements
                   if all(group.multiply(x, y) == group.multiply(y, x) for y in elements))
    return {
        "derived": derived,
        "derived_order": len(derived),
        "derived_cyclic": any(group.element_order(x) == len(derived) for x in derived),
        "center": center,
        "center_order": len(center),
        "candidates_z": tuple(x for x in center
                              if group.element_order(x) == 2 and x not in derived),
    }


# the examples fix one group on each failing path: in five counted runs of
# 200 draws, 419 of 1,000 were consistent, 262 of them abelian, 12 with G'
# not cyclic, 38 without z and 107 passing
@settings(max_examples=200, deadline=None)
@example(parse_presentation("group C2xC2\ngens a b\n"))
@example(parse_presentation(D8_SQUARED))
@example(parse_presentation("group D8\ngens a c b\npow a = c\nconj b a = b c\n"))
@given(twisted_presentations())
def test_the_hypotheses_match_brute_force(pres):
    try:
        group = load(serialize_presentation(pres))
    except ConsistencyError:
        return
    assert_hypotheses_match_brute_force(group)


def test_the_corpus_hypotheses_match_brute_force(corpus_dir):
    paths = sorted(corpus_dir.rglob("*.pc2"))
    assert len(paths) == 73
    for path in paths:
        assert_hypotheses_match_brute_force(load_file(path))


def assert_hypotheses_match_brute_force(group):
    """G''s order and cyclicity, Z(G) and the candidates z read off the pc
    generators equal those of every element, and a cyclic G' is the cyclic
    group of the reported generator; the parities are reported exactly
    when the hypotheses pass."""
    report = check_hypotheses(group)
    expected = brute_force_hypotheses(group)
    derived = expected.pop("derived")
    assert {key: getattr(report, key) for key in expected} == expected, group.name
    if report.derived_cyclic:
        assert set(group.cyclic(report.derived_generator)) == derived, group.name
    else:
        assert report.derived_generator is None
    assert len(report.parities) == (group.n if report.passed else 0), group.name


def refuse_closure(*args, **kwargs):
    raise AssertionError("check_hypotheses listed a subgroup")


def test_qualifying_corpus_groups_list_no_subgroup(monkeypatch, qualifying_paths):
    """The cyclic test decides G' from the generator commutators alone on
    every qualifying o16/o32 group, with the report unchanged."""
    passing = [(g, check_hypotheses(g)) for g in map(load_file, qualifying_paths)]
    monkeypatch.setattr(construct, "closure", refuse_closure)
    for group, report in passing:
        assert check_hypotheses(group) == report, group.name


def counted_rows(monkeypatch) -> list[int]:
    """The x of every FiniteGroup.row(x) call from now on, in call order."""
    rows, row = [], FiniteGroup.row

    def counted(group, x):
        rows.append(x)
        return row(group, x)

    monkeypatch.setattr(FiniteGroup, "row", counted)
    return rows


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 15])
def test_the_ladder_hypotheses_list_no_subgroup(monkeypatch, n, dihedral_times_c2):
    """D_(2^n) x C2 up to order 65,536: no closure lists G' = <r2>, and
    the center's filter doubles the rows of r1 and t alone, since
    r2, ..., r(n-1) lead the squares and commutators and c commutes with
    every generator."""
    group = load(dihedral_times_c2(n))
    rows = counted_rows(monkeypatch)
    monkeypatch.setattr(construct, "closure", refuse_closure)
    report = check_hypotheses(group)
    assert [group.word_str(x) for x in rows] == ["r1", "t"]
    assert report.passed and report.derived_order == 1 << (n - 2)
    assert report.center_order == 4
    assert [group.word_str(z) for z in report.candidates_z] == ["c", f"r{n - 1}·c"]


@pytest.mark.parametrize("k", [1, 4, 13])
def test_the_center_filter_skips_the_central_generators(monkeypatch, k):
    """D8 x C2^k, up to order 65,536: the center's filter doubles the rows
    of r1 and t alone, of k + 3 generators.  r2 leads r1^2 and (t, r1),
    and each ci commutes with every generator, so it keeps every x."""
    cs = [f"c{i}" for i in range(1, k + 1)]
    group = load(f"group D8xC2^{k}\ngens r1 r2 t {' '.join(cs)}\n"
                 "pow r1 = r2\nconj t r1 = t r2\n")
    rows = counted_rows(monkeypatch)
    report = check_hypotheses(group)
    assert [group.word_str(x) for x in rows] == ["r1", "t"]
    assert report.passed and report.derived_order == 2
    assert report.center_order == 2 << k  # <r2, c1, ..., ck>
    assert len(report.candidates_z) == (2 << k) - 2  # every involution but r2


def test_the_hypotheses_and_the_search_reuse_the_commutators(monkeypatch, dihedral_times_c2):
    """D32 x C2 (n = 6 generators, |G'| = m = 8): check_hypotheses reads one
    generator commutator per conj line, 3 of the n(n-1)/2 = 15 pairs, and
    takes no commutator by products.  The witness search reads the report's
    parities alone: no commutator and no conjugation, and its only products
    are the four squarings of element_order(a), a = r1 of order 16."""
    group = load(dihedral_times_c2(5))
    calls = []
    for name in ("commutator", "generator_commutator", "conjugate", "multiply", "power"):
        method = getattr(group, name)
        monkeypatch.setattr(group, name, lambda *args, method=method, name=name:
                            calls.append(name) or method(*args))
    report = check_hypotheses(group)
    assert (group.n, report.derived_order, len(group.pres.conjugations)) == (6, 8, 3)
    assert (calls.count("generator_commutator"), calls.count("commutator")) == (3, 0)
    calls.clear()
    w = select_witness(group, report)
    assert (group.word_str(w.b), group.word_str(w.a), w.k) == ("t", "r1", 4)
    assert calls == ["multiply"] * 4


def test_the_report_does_not_grow_with_the_derived_subgroup(dihedral_times_c2):
    """D32768 x C2 (n = 16 generators, |G'| = 8192, |Z(G)| = 4): no tuple
    field of the report holds more than n + |Z(G)| entries."""
    group = load(dihedral_times_c2(15))
    report = check_hypotheses(group)
    assert (group.n, report.derived_order, report.center_order) == (16, 8192, 4)
    sizes = {key: len(value) for key, value in asdict(report).items()
             if isinstance(value, tuple)}
    assert sizes == {"center": 4, "candidates_z": 2, "parities": 16}
    assert max(sizes.values()) <= group.n + report.center_order


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


def test_orbit_equals_iterated_conjugate_unit_on_the_corpus(qualifying_paths):
    for group in map(load_file, qualifying_paths):
        assert_orbit_is_iterated_conjugation(group)


@pytest.mark.parametrize("n", range(4, 9))
def test_orbit_equals_iterated_conjugate_unit_on_the_ladder(n, dihedral_times_c2):
    assert_orbit_is_iterated_conjugation(load(dihedral_times_c2(n)))


def test_the_ladder_top_reads_few_rows(dihedral_times_c2):
    """D256 x C2 (order 512) through hypotheses, witness and orbit: the
    group keeps no row, and the algebra none but the identity's."""
    group = load(dihedral_times_c2(8))
    algebra = GroupAlgebra(group)
    build_orbit(algebra, select_witness(group, check_hypotheses(group)))
    assert group.order == 512
    assert_holds_no_row(group)
    assert list(algebra._conv._rows) == [0]


def test_the_orbit_reads_no_row(dihedral_times_c2):
    """build_orbit steps b_i by group products: on D256 x C2 its algebra
    builds no row past the identity's, and its units are the iterated
    conjugate_unit of h."""
    group = load(dihedral_times_c2(8))
    w = select_witness(group, check_hypotheses(group))
    algebra = GroupAlgebra(group)
    units = build_orbit(algebra, w).units
    assert list(algebra._conv._rows) == [0]
    assert len(units) == 64
    assert_units_are_iterated_conjugates(units, w.a)


def t_first_d512xc2():
    """D512 x C2 with the reflection t first among the generators."""
    rots = [f"r{i}" for i in range(1, 9)]
    lines = ["group D512xC2", "gens " + " ".join(["t"] + rots + ["c"])]
    lines += [f"pow {rots[i]} = {rots[i + 1]}" for i in range(7)]
    lines += [f"conj {rots[i]} t = " + " ".join(rots[i:]) for i in range(8)]  # ri^t = ri^-1
    return "\n".join(lines) + "\n"


def test_the_witness_search_keeps_no_row_per_candidate(corpus_dir, dihedral_times_c2):
    """The search reads one parity row per generator letter, and no row of
    the group: the group keeps no row after hypotheses and the search on
    o32_45, and on D512 x C2 (order 1024) whether the scan reaches b = t
    second (t last among the generators) or last (t first)."""
    group = load_file(corpus_dir / "o32" / "o32_45.pc2")
    select_witness(group, check_hypotheses(group))
    assert_holds_no_row(group)
    for text in dihedral_times_c2(9), t_first_d512xc2():
        group = load(text)
        w = select_witness(group, check_hypotheses(group))
        assert group.order == 1024
        assert [group.word_str(x) for x in (w.a, w.b, w.z)] == ["r1", "t", "c"]
        assert_holds_no_row(group)


def test_the_witness_search_builds_no_table(monkeypatch, corpus_dir, dihedral_times_c2):
    """After the hypotheses, the search doubles no row over the tables and
    composes no column: on o32_45 and on D512 x C2 in both generator
    orders."""
    texts = [(corpus_dir / "o32" / "o32_45.pc2").read_text(), dihedral_times_c2(9),
             t_first_d512xc2()]
    groups = [(group, check_hypotheses(group)) for group in map(load, texts)]

    def refuse(*args, **kwargs):
        raise AssertionError("the witness search built a table")

    monkeypatch.setattr(pcgroup, "doubled", refuse)
    monkeypatch.setattr(pcgroup, "compose", refuse)
    witnesses = [select_witness(group, report) for group, report in groups]
    assert [(g.word_str(w.b), g.word_str(w.a)) for (g, _), w in zip(groups, witnesses)] == [
        ("a", "b"), ("t", "r1"), ("t", "r1")]


def test_the_witness_above_the_table_limit(dihedral_times_c2):
    """D32768 x C2 (order 65,536, s = 13) gets the ladder's witness, and
    the group keeps no row after hypotheses and the search."""
    group = load(dihedral_times_c2(15))
    report = check_hypotheses(group)
    w = select_witness(group, report)
    assert group.order == 65536 and report.passed
    assert [group.word_str(x) for x in (w.a, w.b, w.z)] == ["r1", "t", "c"]
    assert w.s == 13
    assert_holds_no_row(group)


class TestBaseGroup:
    def test_x_is_the_four_group_of_units(self, orbit):
        base, checks = verify_base_group(orbit)
        assert len(base) == 4
        h, ha = orbit.units
        expected = {1, h.bits, ha.bits, (h * ha).bits}
        assert {u.bits for u in base} == expected
        assert all(checks.values())

    def test_full_orbit_product_nontrivial(self, orbit):
        prod = orbit.units[0]
        for u in orbit.units[1:]:
            prod = prod * u
        assert prod.bits != 1
        assert prod.bits.bit_count() == 1 + 2 * len(orbit.units)

    def test_cap_bounds_the_base_group(self, dihedral_times_c2):
        # D128 x C2 (m = 32): X would have 2^32 elements, past the closures'
        # limit of 2^16, and is refused before any is listed
        group = load(dihedral_times_c2(7))
        orbit = build_orbit(GroupAlgebra(group), select_witness(group, check_hypotheses(group)))
        assert len(orbit.units) == 32
        with pytest.raises(ClosureCapError,
                           match=r"^base group X of order 2\^32 exceeds cap 65536$"):
            verify_base_group(orbit)


def assert_base_is_the_closure_of_the_orbit(group):
    """The algebra behind build_orbit's certificate, by convolution: each
    x_i = h_i + 1 has x_i·x_i = 0 and x_i·x_j = x_j·x_i = 0, and X, listed
    as sums, is the closure of the units."""
    algebra = GroupAlgebra(group)
    orbit = build_orbit(algebra, select_witness(group, check_hypotheses(group)))
    convolve = algebra._conv.convolve  # a kernels.Convolver
    xs = [u.bits ^ 1 for u in orbit.units]
    assert not any(convolve(x, x) for x in xs), group.name
    assert not any(convolve(x, y) or convolve(y, x) for x, y in combinations(xs, 2)), group.name
    base, checks = verify_base_group(orbit)
    assert base == bfs_closure(orbit.units), group.name
    assert checks == dict.fromkeys(
        ("orbit-orders", "pairwise-commuting", "subset-products-nontrivial"), True
    )


def test_base_is_the_closure_of_the_orbit_on_the_corpus(qualifying_paths):
    for group in map(load_file, qualifying_paths):
        assert_base_is_the_closure_of_the_orbit(group)


@pytest.mark.parametrize("n", [4, 5])
def test_base_is_the_closure_of_the_orbit_on_the_ladder(n, dihedral_times_c2):
    assert_base_is_the_closure_of_the_orbit(load(dihedral_times_c2(n)))


@settings(max_examples=200, deadline=None)
@given(qualifying_presentations())
def test_base_is_the_closure_of_the_orbit_on_random_groups(pres):
    assert_base_is_the_closure_of_the_orbit(load(serialize_presentation(pres)))


def test_the_base_group_makes_no_product_per_element(monkeypatch, dihedral_times_c2):
    """D32 x C2 (m = 8, |X| = 256): build_orbit's certificate proves X ≅ C2^m,
    so the 2^m elements of X are sums, with no convolution and no group
    product."""
    group = load(dihedral_times_c2(5))
    orbit = build_orbit(GroupAlgebra(group), select_witness(group, check_hypotheses(group)))
    calls = []
    convolve, multiply = kernels.Convolver.convolve, group.multiply
    monkeypatch.setattr(
        kernels.Convolver, "convolve", lambda self, u, v: calls.append(1) or convolve(self, u, v)
    )
    monkeypatch.setattr(group, "multiply", lambda x, y: calls.append(1) or multiply(x, y))
    base, _ = verify_base_group(orbit)
    assert (len(orbit.units), len(base), len(calls)) == (8, 256, 0)


def test_the_orbit_makes_one_product_and_one_conjugation_per_unit(monkeypatch, dihedral_times_c2):
    """D32 x C2 (m = 8): build_orbit checks the closed form once, by the
    conjugation z^a, and the certificate's z·z and z^b, then takes b_i·z and
    b_(i+1) = b_i^a for each unit.  With the inverses of a and b memoized a
    conjugation is two products, so the orbit takes 5 + 3m = 29 products,
    and each unit's bits are those of from_support((0, b_i, b_i·z))."""
    group = load(dihedral_times_c2(5))
    w = select_witness(group, check_hypotheses(group))
    algebra = GroupAlgebra(group)
    group.inverse(w.a)
    group.inverse(w.b)
    calls = []
    for name in ("multiply", "conjugate"):
        method = getattr(group, name)
        monkeypatch.setattr(group, name, lambda *args, method=method, name=name:
                            calls.append(name) or method(*args))
    orbit = build_orbit(algebra, w)
    conjugate = ["conjugate", "multiply", "multiply"]
    assert calls == conjugate + ["multiply"] + conjugate + (["multiply"] + conjugate) * 8
    monkeypatch.undo()
    bs = [group.conjugate(w.b, group.power(w.a, i)) for i in range(8)]
    assert orbit.units == tuple(algebra.from_support((0, b, group.multiply(b, w.z))) for b in bs)


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

    def test_kernel_centralizes_base(self, pipeline, orbit, d8xc2):
        w = pipeline.witness
        a_pow = d8xc2.power(w.a, 1 << w.s)
        for u in orbit.units:
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

        checks = verify_wreath(TableGroup(corrupt), images, top, pipeline.witness.s)
        assert not all(checks.values())
        assert checks["regular-shift-action"] is False

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

    def test_generator_row_table_matches_representative_products(self, qualifying_paths):
        # the brute-force reference: the listed <gens> sorted into cosets, and
        # every pair of coset representatives convolved
        for path in qualifying_paths:
            result = run_pipeline(load_file(path), use_oracle=False)
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


def assert_two_generators_give_the_quotient(group):
    """QuotientGroup from (h_0, a) is QuotientGroup from all m + 1 generators,
    and index_of puts each orbit unit where the m + 1 generator rows do."""
    result = run_pipeline(group, use_oracle=False)
    full, gens, kernel = section_quotient(result)
    pair = QuotientGroup([gens[0], gens[-1]], kernel, DEFAULT_CAP)
    assert (pair.reps, pair.order) == (full.reps, full.order), group.name
    assert pair.to_table_group().table == full.to_table_group().table, group.name
    assert [pair.index_of(g.bits) for g in gens] == [row[0] for row in full.rows], group.name


def test_two_generators_give_the_quotient_on_the_corpus(qualifying_paths):
    for group in map(load_file, qualifying_paths):
        assert_two_generators_give_the_quotient(group)


@pytest.mark.parametrize("n", [4, 5])
def test_two_generators_give_the_quotient_on_the_ladder(n, dihedral_times_c2):
    assert_two_generators_give_the_quotient(load(dihedral_times_c2(n)))


def o32_45_section_inputs(corpus_dir):
    """o32_45 (m = 4) through the base group: build_section's arguments."""
    group = load_file(corpus_dir / "o32" / "o32_45.pc2")
    algebra = GroupAlgebra(group)
    w = select_witness(group, check_hypotheses(group))
    orbit = build_orbit(algebra, w)
    base, base_checks = verify_base_group(orbit)
    return algebra, w, base, orbit, base_checks


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_unit_outside_the_section_is_named(k, corpus_dir):
    # b has support 1 and lies outside <a>, as (b, a) != 1, so outside
    # <h_0, a> = X·<a>, whose elements of support 1 are the a^j
    algebra, w, base, orbit, base_checks = o32_45_section_inputs(corpus_dir)
    units = list(orbit.units)
    units[k] = algebra.embed(w.b)
    with pytest.raises(ConstructionError, match=rf"positions \[{k}\] lie outside <h_0, a>"):
        build_section(algebra, w, base, BaseOrbit(units=tuple(units)),
                      use_oracle=False, base_checks=base_checks)


@pytest.mark.parametrize("tampered, failure", [
    ({"k": 2}, "kernel <a^4>: past its certified order 1"),
    ({"s": 1}, "quotient <h_0, a>/<a^2>: past its certified order 8"),
], ids=["kernel", "quotient"])
def test_a_closure_past_its_certified_order_is_named(tampered, failure, corpus_dir):
    """o32_45 (s = 2, k = 3): the kernel <a^4> has 2 elements and the
    quotient 64 cosets.  A witness that certifies k = 2 caps the kernel at
    2^(k-s) = 1; one that certifies s = 1 closes <h_0, a>/<a^2>, of 32
    cosets, capped at 2^(m+s) = 8.  The closure that passes its certified
    order is named in a ConstructionError: the algebra and the certificate
    differ, and that is a verdict, not a resource limit."""
    algebra, w, base, orbit, base_checks = o32_45_section_inputs(corpus_dir)
    with pytest.raises(ConstructionError) as info:
        build_section(algebra, replace(w, **tampered), base, orbit, base_checks=base_checks)
    assert str(info.value) == ("the algebra cross-check differs from the certificate at the "
                               f"section's {failure}")


def test_orders_below_the_certified_ones_fail_quotient_order(corpus_dir):
    """o32_45 (s = 2, k = 3): a witness that certifies k = 4 admits both
    closures, but the kernel <a^4> has 2 elements, not 2^(k-s) = 4, so
    quotient-order, build_section's comparison with certified_section's
    orders, fails."""
    algebra, w, base, orbit, base_checks = o32_45_section_inputs(corpus_dir)
    section = build_section(algebra, replace(w, k=4), base, orbit, use_oracle=False,
                            base_checks=base_checks)
    assert (section.kernel_order, section.quotient_order) == (2, 64)
    assert [name for name, ok in section.checks.items() if not ok] == ["quotient-order"]


def test_the_section_makes_two_products_per_coset(monkeypatch, corpus_dir):
    """build_section on o32_45 closes the quotient from h_0 and a: two
    products per coset and |K| - 1 kernel translates of each coset but the
    kernel's own, every one a kernels.apply over columns; the m + 1
    generators took (m + 1)·|Q| convolutions."""
    algebra, w, base, orbit, base_checks = o32_45_section_inputs(corpus_dir)
    calls = []
    apply = kernels.apply
    monkeypatch.setattr(kernels, "apply", lambda cols, v: calls.append(1) or apply(cols, v))
    section = build_section(algebra, w, base, orbit, use_oracle=False, base_checks=base_checks)
    q, k = section.quotient_order, section.kernel_order
    assert (len(orbit.units), q, k, section.verdict) == (4, 64, 2, True)
    assert len(calls) == 2 * q + (q - 1) * (k - 1)


def assert_the_translates_are_products(group):
    """Each kernel element t's column, FiniteGroup.column(t), is
    [y·t for every y], collected; returns |K|."""
    _, _, kernel = section_quotient(run_pipeline(group, use_oracle=False))
    for t in (u.bits.bit_length() - 1 for u in kernel):
        assert group.column(t) == [
            group.multiply(y, t) for y in group.elements()], (group.name, t)
    return len(kernel)


def test_the_translates_are_products_on_the_corpus(qualifying_paths):
    groups = map(load_file, qualifying_paths)
    assert {assert_the_translates_are_products(g) for g in groups} == {1, 2, 4}


@pytest.mark.parametrize("n", [4, 5])
def test_the_translates_are_products_on_the_ladder(n, dihedral_times_c2):
    assert_the_translates_are_products(load(dihedral_times_c2(n)))


def assert_a_coset_is_named_by_its_least_bitset(group):
    """The section's quotient: a kernel translate y·t permutes y's support,
    so each coset's |K| members share one support size, and its
    representative is its least bitset.  Returns |K|."""
    quotient, _, kernel = section_quotient(run_pipeline(group, use_oracle=False))
    cosets = {}
    for member, rep in quotient._rep_of.items():
        cosets.setdefault(rep, []).append(member)
    assert sorted(cosets, key=rep_key) == quotient.reps, group.name
    for rep, members in cosets.items():
        assert len(members) == len(kernel), group.name
        assert len({x.bit_count() for x in members}) == 1, group.name
        assert rep == min(members), group.name
    return len(kernel)


def test_a_coset_is_named_by_its_least_bitset_on_the_corpus(qualifying_paths):
    groups = map(load_file, qualifying_paths)
    assert {assert_a_coset_is_named_by_its_least_bitset(g) for g in groups} == {1, 2, 4}


@pytest.mark.parametrize("n", [4, 5])
def test_a_coset_is_named_by_its_least_bitset_on_the_ladder(n, dihedral_times_c2):
    assert_a_coset_is_named_by_its_least_bitset(load(dihedral_times_c2(n)))


class RecordedRows:
    """A row store that records the elements whose rows are read."""

    def __init__(self, rows):
        self.rows, self.read = rows, set()

    def __getitem__(self, x):
        self.read.add(x)
        return self.rows[x]


@pytest.mark.parametrize("n", [4, 5])
def test_the_quotient_reads_only_the_rows_of_its_generators(monkeypatch, n, dihedral_times_c2):
    """On D16 x C2 and D32 x C2 QuotientGroup(h_0, a) reads from the
    algebra's RowStore the rows of supp(h_0) ∪ {a} and no other."""
    result = run_pipeline(load(dihedral_times_c2(n)), use_oracle=False)
    algebra, w = GroupAlgebra(result.group), result.witness
    h0 = build_orbit(algebra, w).units[0]
    kernel = bfs_closure([algebra.embed(algebra.group.power(w.a, 1 << w.s))])
    recorded = RecordedRows(algebra._conv._rows)
    monkeypatch.setattr(algebra._conv, "_rows", recorded)
    quotient = QuotientGroup([h0, algebra.embed(w.a)], kernel, DEFAULT_CAP)
    assert quotient.order == result.section.quotient_order == 1 << ((1 << w.s) + w.s)
    assert recorded.read == set(h0.support()) | {w.a}


# C2 wr C4 in coordinates (v, t), v a 4-bit base vector and t a shift: each
# case passes s, 2^s images and the shift τ = (0, 1) as top
@pytest.mark.parametrize(
    "s, images",
    [
        # <τ> is abelian of order 4 and normal under τ, but τ is no involution
        pytest.param(1, [(0, 1), (0, 2)], id="not-an-involution"),
        # involutions generating <even-weight vectors, τ²> of order 16, normal
        # under τ; τ² moves e0 + e1 to e2 + e3
        pytest.param(2, [(3, 0), (5, 0), (6, 0), (0, 2)], id="not-commuting"),
        # <e0, e1> is elementary abelian of order 4, and τ moves it; of order
        # 16 only the base itself is elementary abelian (brute force)
        pytest.param(1, [(1, 0), (2, 0)], id="not-normal-under-top"),
    ],
)
def test_the_base_is_tested_on_its_generators(s, images):
    table = reference_table(2)
    index = {x: i for i, x in enumerate(reference_wreath(2).elements())}
    checks = verify_wreath(table, [index[x] for x in images], index[(0, 1)], s)
    assert checks["base-normal-elem-abelian"] is False


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

    def test_cap_is_tested_before_the_algebra_is_built(self, monkeypatch, dihedral_times_c2):
        # D64 x C2: |G'| = 16, so the certified quotient has 2^(16+4)
        # elements, past oracle.DEFAULT_CAP: the certificate's verdict
        # stands, with no algebra
        monkeypatch.setattr(construct, "GroupAlgebra", refuse_the_algebra)
        result = run_pipeline(load(dihedral_times_c2(6)))
        assert result.verdict and result.section.base_order == 1 << 16
        assert result.section.detail == (
            "algebra cross-check not run: its quotient <X, a>/<a^16> has 2^20 elements, "
            "above 65536")

    def test_a_verdict_above_the_table_limit(self, monkeypatch, dihedral_times_c2):
        # D512 x C2 (order 1024, m = 128): no algebra, and no row of the group
        monkeypatch.setattr(construct, "GroupAlgebra", refuse_the_algebra)
        group = load(dihedral_times_c2(9))
        result = run_pipeline(group, use_oracle=True)
        assert result.verdict and result.error is None
        assert result.section.to_dict(group) == {
            **certified_section(result.witness).to_dict(group),
            "detail": "algebra cross-check not run: order 1024 is above 512, the largest "
                      "order whose group algebra is built",
        }
        assert result.section.quotient_order == 1 << 135
        assert len(result.orbit) == 128 and result.orbit_units()[0] == ("1 + t + t·c", [0, 2, 3])
        assert_holds_no_row(group)

    @pytest.mark.parametrize("flipped, first", [
        (["orbit-orders"], "orbit-orders"),
        (["top-order", "kernel-central"], "kernel-central"),
        (["kernel_order"], "kernel_order"),
        (["quotient_order", "complement-trivial-intersection"],
         "complement-trivial-intersection"),
    ])
    def test_a_cross_check_that_differs_is_named(self, monkeypatch, d8xc2, flipped, first):
        """build_section's report, with checks set False or orders doubled:
        the pipeline names the first that differs, in CHECK_NAMES order
        and then the orders, and gives no verdict."""
        real = construct.build_section

        def differ(*args, **kwargs):
            section = real(*args, **kwargs)
            for name in flipped:
                if name in section.checks:
                    section.checks[name] = False
                else:
                    setattr(section, name, 2 * getattr(section, name))
            return section

        monkeypatch.setattr(construct, "build_section", differ)
        result = run_pipeline(d8xc2, use_oracle=False)
        assert result.error == f"the algebra cross-check differs from the certificate at {first}"
        assert result.section is None and not result.verdict


@pytest.mark.parametrize("n, detail", [
    (4, None),
    (5, None),
    (6, "its quotient <X, a>/<a^16> has 2^20 elements, above 65536"),
    (7, "its quotient <X, a>/<a^32> has 2^37 elements, above 65536"),
    (8, "its quotient <X, a>/<a^64> has 2^70 elements, above 65536"),
    (None, "order 1024 is above 512, the largest order whose group algebra is built"),
], ids=["D16xC2", "D32xC2", "D64xC2", "D128xC2", "D256xC2", "D8xC2xE64"])
def test_one_gate_decides_the_cross_check(monkeypatch, dihedral_times_c2, n, detail):
    """D_(2^n) x C2 for n = 4..8 (s = n - 2) and D8 x C2 x E64 (order
    1024, s = 1): the algebra cross-check runs exactly where s <= 3 and
    |G| <= 512, the certified quotient 2^(m+s) then within
    oracle.DEFAULT_CAP; every other group says in one line why not."""
    group = load(D8_C2_E64 if n is None else dihedral_times_c2(n))
    real, calls = construct.build_section, []
    monkeypatch.setattr(construct, "build_section",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    result = run_pipeline(group, use_oracle=False)
    runs = result.witness.s <= 3 and group.order <= 512
    assert result.verdict and len(calls) == runs and (detail is None) == runs
    assert result.section.detail == (detail and "algebra cross-check not run: " + detail)


def count_certificates(monkeypatch):
    """Wrap construct.certify; the list it returns grows by one per call."""
    real, calls = construct.certify, []
    monkeypatch.setattr(construct, "certify", lambda *args: calls.append(1) or real(*args))
    return calls


def assert_one_certificate(calls, group):
    """run_pipeline calls certify once; where the algebra is built, the
    orbit it reports is build_orbit's supports."""
    calls.clear()
    result = run_pipeline(group, use_oracle=False)
    assert result.verdict and len(calls) == 1, (group.name, len(calls))
    if group.order <= pcgroup.CAYLEY_LIMIT:
        orbit = build_orbit(GroupAlgebra(group), result.witness)
        assert result.orbit == tuple(u.support() for u in orbit.units), group.name
    return result


def test_one_certificate_per_verdict_on_the_corpus(monkeypatch, qualifying_paths):
    calls = count_certificates(monkeypatch)
    for group in map(load_file, qualifying_paths):
        assert assert_one_certificate(calls, group).section.detail is None, group.name


@pytest.mark.parametrize("n, cross_checked", [(4, True), (6, False), (None, False)],
                         ids=["D16xC2", "D64xC2", "D8xC2xE64"])
def test_one_certificate_per_verdict_on_either_path(monkeypatch, dihedral_times_c2, n,
                                                    cross_checked):
    """D16 x C2 is cross-checked by the algebra; D64 x C2 (certified
    quotient 2^20) and D8 x C2 x E64 (order 1024) are not."""
    calls = count_certificates(monkeypatch)
    result = assert_one_certificate(calls, load(D8_C2_E64 if n is None else dihedral_times_c2(n)))
    assert (result.section.detail is None) == cross_checked


def refuse_the_algebra(group):
    raise AssertionError("built the group algebra")


def assert_the_certificate_is_the_section(group):
    """certified_section's report is build_section's: witness, orders,
    checks and verdict."""
    w = select_witness(group, check_hypotheses(group))
    algebra = GroupAlgebra(group)
    orbit = build_orbit(algebra, w)
    base, base_checks = verify_base_group(orbit)
    section = build_section(algebra, w, base, orbit, use_oracle=False, base_checks=base_checks)
    assert section.to_dict(group) == certified_section(w).to_dict(group), group.name


def test_the_certificate_is_the_section_on_the_corpus(qualifying_paths):
    for group in map(load_file, qualifying_paths):
        assert_the_certificate_is_the_section(group)


@settings(max_examples=50, deadline=None)
@given(qualifying_presentations())
def test_the_certificate_is_the_section_on_random_groups(pres):
    assert_the_certificate_is_the_section(load(serialize_presentation(pres)))


@pytest.mark.parametrize("e, written", [(0, 1), (52, 1 << 52), (53, "2^53"), (16384, "2^16384")])
def test_an_order_is_an_int_below_2_to_the_53(e, written):
    """JSON readers take every int below 2^53 exactly; from there up an
    order is written "2^e", which prints at any size."""
    assert json_order(1 << e) == written


def test_the_records_keep_their_defaults(d8xc2):
    """SectionReport and PipelineResult are plain classes: checks is fresh
    per report, and a result's later stages start unset."""
    w = Witness(a=1, b=2, z=4, s=1, k=1)
    one, two = SectionReport(w, 4, 8, 1, 8), SectionReport(w, 4, 8, 1, 8)
    one.checks["top-order"] = True
    assert (one.verdict, two.checks, two.verdict, two.detail) == (True, {}, False, None)
    result = PipelineResult(d8xc2, check_hypotheses(d8xc2))
    assert (result.witness, result.orbit, result.section, result.error) == (None,) * 4
    assert not result.verdict

