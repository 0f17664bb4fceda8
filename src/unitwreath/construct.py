"""Constructive wreath-section pipeline for the normalized unit group.

Given a finite non-abelian 2-group G with cyclic derived subgroup and a
central involution z outside it, this module builds the unit
h = 1 + b(1+z), its conjugate orbit under a, the elementary abelian base
group X the orbit generates, and the quotient of <X, a> by <a^(2^s)>, then
verifies that quotient is the regular wreath product C2 wr C_{2^s}.
Every step is recorded as a named boolean check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from . import oracle
from .grpalg import AlgebraElement, GroupAlgebra
from .oracle import TableGroup, bfs_closure, isomorphic_small, reference_table
from .pcgroup import ClosureCapError, FiniteGroup, closure, doubled

CHECK_NAMES = (
    "orbit-closed-form",
    "orbit-orders",
    "pairwise-commuting",
    "subset-products-nontrivial",
    "kernel-central",
    "quotient-order",
    "base-normal-elem-abelian",
    "top-order",
    "regular-shift-action",
    "complement-trivial-intersection",
    "oracle-isomorphism",
)

ORACLE_MAX_S = 2  # --oracle runs the isomorphism test up to C2 wr C4 (order 64)
REASON_ABELIAN = "abelian"
REASON_NOT_CYCLIC = "derived-not-cyclic"
REASON_NO_Z = "no-central-involution-outside-derived"


class NoWitnessError(Exception):
    """No (b, a) pair satisfies the witness side conditions."""


class ConstructionError(Exception):
    """A verification step falsified the construction for this witness."""


@dataclass(frozen=True)
class HypothesisReport:
    derived_order: int
    derived_cyclic: bool
    derived_generator: int | None  # c with G' = <c>, when G' is cyclic
    nonabelian: bool
    center: tuple[int, ...]
    center_order: int
    candidates_z: tuple[int, ...]
    passed: bool
    failure_reason: str | None

    def to_dict(self, group: FiniteGroup) -> dict:
        return {
            "group": group.name,
            "order": group.order,
            "nonabelian": self.nonabelian,
            "derived_order": self.derived_order,
            "derived_cyclic": self.derived_cyclic,
            "center_order": self.center_order,
            "candidates_z": [group.word_str(x) for x in self.candidates_z],
            "pass": self.passed,
            "failure_reason": self.failure_reason,
        }


@dataclass(frozen=True)
class Witness:
    a: int
    b: int
    z: int
    s: int
    k: int

    def to_dict(self, group: FiniteGroup) -> dict:
        return {
            "a": group.word_str(self.a),
            "b": group.word_str(self.b),
            "z": group.word_str(self.z),
            "s": self.s,
            "k": self.k,
        }


@dataclass(frozen=True)
class BaseOrbit:
    units: tuple[AlgebraElement, ...]


@dataclass
class SectionReport:
    witness: Witness
    base_order: int
    ambient_order: int
    kernel_order: int
    quotient_order: int
    checks: dict[str, bool] = field(default_factory=dict)
    detail: str | None = None

    @property
    def verdict(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    def to_dict(self, group: FiniteGroup) -> dict:
        return {
            "group": group.name,
            "witness": self.witness.to_dict(group),
            "base_order": self.base_order,
            "ambient_order": self.ambient_order,
            "kernel_order": self.kernel_order,
            "quotient_order": self.quotient_order,
            "checks": dict(self.checks),
            "verdict": "pass" if self.verdict else "fail",
            "detail": self.detail,
        }


class QuotientGroup:
    """The quotient of the unit group <gens> by a central subgroup, the kernel.

    A coset is named by its member of least (support size, bitset), and the
    cosets are indexed in the order of those representatives, so the
    identity's coset is 0.  The closure runs over representatives: each is
    multiplied on the left by each generator once, and rows[k][i] is the
    index of gens[k]·reps[i].  Every member of each coset found maps to its
    representative, so a product lands on its coset in one lookup, and so
    does index_of.  The reps and the table depend on <gens> alone.
    """

    def __init__(self, gens: list[AlgebraElement], kernel: list[AlgebraElement],
                 cap: int = oracle.DEFAULT_CAP):
        conv = gens[0].algebra._conv.convolve
        shifts = [k.bits for k in kernel if k.bits != 1]

        def key(bits: int) -> tuple[int, int]:
            return bits.bit_count(), bits

        products = {}
        # member to representative; the kernel is 1's coset
        self._rep_of = rep_of = {t.bits: 1 for t in kernel}

        def left(x: int, k: int) -> int:
            y = conv(gens[k].bits, x)
            rep = rep_of.get(y)
            if rep is None:  # a new coset: its translates by the kernel, once
                coset = [y] + [conv(y, t) for t in shifts]
                rep = min(coset, key=key)
                rep_of.update(dict.fromkeys(coset, rep))
            products[k, x] = rep
            return rep

        self.reps = sorted(closure(range(len(gens)), left, 1, cap), key=key)
        self.order = len(self.reps)
        self._index = index = {r: i for i, r in enumerate(self.reps)}
        self.rows = [[index[products[k, r]] for r in self.reps] for k in range(len(gens))]

    def index_of(self, bits: int) -> int | None:
        """The index of the coset holding the unit bits, or None outside <gens>."""
        return self._index.get(self._rep_of.get(bits))

    def to_table_group(self) -> TableGroup:
        """The table from the generators' rows of products with representatives."""
        return TableGroup(table_from_rows(self.rows, 0))


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


def check_hypotheses(group: FiniteGroup) -> HypothesisReport:
    """Test the hypotheses and list candidate central involutions; G is abelian iff G' = 1.

    The commutators (gi, gj) of the pc generators generate G'.  Down k:
    let those with i, j > k generate G_(k+1)', and H be generated by them
    and the (gk, gj), all in G_(k+1).  G_(k+1)' is characteristic in
    G_(k+1), so normal in G_k, and modulo it G_(k+1) is abelian: its
    elements fix H under conjugation, and x ↦ (x, gk) is a homomorphism on
    it, so h^gk = h·(h, gk) lies in H, a product of (gl, gk).  H is normal
    in G_k with an abelian quotient, so H = G_k'.

    So G' is cyclic exactly when every (gi, gj) lies in <c>, c the one of
    largest order (the least index among ties): the subgroups of a cyclic
    2-group form a chain.  Only a failing test lists G', as the closure of
    the (gi, gj), for its order and the candidates outside it.
    """
    gens = [1 << (group.n - j) for j in range(1, group.n + 1)]
    comms = {group.commutator(x, y) for x, y in combinations(gens, 2)}
    c = max(sorted(comms), key=group.element_order, default=0)
    derived, c_e = {0}, c  # <c>, m products
    while c_e:
        derived.add(c_e)
        c_e = group.multiply(c_e, c)
    cyclic = comms <= derived
    if not cyclic:
        derived, c = closure(comms, group.multiply, 0), None
    nonabelian = len(derived) > 1
    center = group.center()
    candidates = tuple(
        x for x in center if group.element_order(x) == 2 and x not in derived
    )
    reason = None
    if not nonabelian:
        reason = REASON_ABELIAN
    elif not cyclic:
        reason = REASON_NOT_CYCLIC
    elif not candidates:
        reason = REASON_NO_Z
    return HypothesisReport(
        derived_order=len(derived),
        derived_cyclic=cyclic,
        derived_generator=c,
        nonabelian=nonabelian,
        center=center,
        center_order=len(center),
        candidates_z=candidates,
        passed=reason is None,
        failure_reason=reason,
    )


def _commutator_exponents(group: FiniteGroup, report: HypothesisReport):
    """The map b ↦ [E[x] for every x], where (b, x) = c^E[x] and G' = <c>.

    c^g = c^k_g for each generator g, so (b, w·g) = (b, g)·(b, w)^g
    (Robinson, A Course in the Theory of Groups, 5.1.5) gives
    E[w·g] = E[g] + k_g·E[w] mod m: b's table doubles over x's last letter,
    through one list of m entries per generator.  The logarithms c^e ↦ e
    take m products and the k_g one conjugation each, once per search.
    """
    m, c = report.derived_order, report.derived_generator
    log, c_e = {}, 0
    for e in range(m):
        log[c_e] = e
        c_e = group.multiply(c_e, c)
    gens = [1 << (group.n - j) for j in range(1, group.n + 1)]
    k = [log[group.conjugate(c, g)] for g in gens]

    def exponents(b: int) -> list[int]:
        steps: list = [None]  # steps[j][e] is E[w·gj] when E[w] = e
        for g, k_g in zip(gens, k):
            e_g = log[group.commutator(b, g)]
            steps.append([(e_g + k_g * e) % m for e in range(m)])
        return doubled(steps, 0, 0)

    return exponents


def _qualifies(group: FiniteGroup, exps: list[int], a: int, m: int) -> bool:
    """Whether (b, a) meets the side conditions, read off b's exponents exps.

    (b, a) = c^exps[a] generates G' when exps[a] is odd; the (b, a^i) for
    i < m are distinct when their exponents are; (b, a^m) = 1 when
    exps[a^m] = 0.
    """
    if not exps[a] & 1:
        return False
    seen, a_i = set(), 0  # a^i, each one product with a; a's row is not built
    for _ in range(m):
        if exps[a_i] in seen:
            return False
        seen.add(exps[a_i])
        a_i = group.multiply(a_i, a)
    return exps[a_i] == 0


def select_witness(
    group: FiniteGroup,
    report: HypothesisReport,
    override: tuple[int, int, int] | None = None,
) -> Witness:
    """First (b, a) pair in canonical order meeting all side conditions.

    The conditions: (b, a) generates the derived subgroup, (b, a^(2^s)) = 1,
    and the 2^s commutators (b, a^i) are pairwise distinct.  Each is read
    off b's exponent table, the exponents e of its commutators (b, x) = c^e.
    z is the first candidate central involution.  An override (a, b, z) is
    validated against the same conditions.
    """
    if not report.passed:
        raise ValueError("select_witness requires a hypothesis-passing group")
    m = report.derived_order
    s = m.bit_length() - 1
    exponents = _commutator_exponents(group, report)

    if override is not None:
        a, b, z = override
        if z not in report.candidates_z:
            raise NoWitnessError(
                f"override z = {group.word_str(z)} is not a central involution "
                "outside the derived subgroup"
            )
        if not _qualifies(group, exponents(b), a, m):
            raise NoWitnessError(
                f"override pair (b, a) = ({group.word_str(b)}, {group.word_str(a)}) "
                "violates the witness side conditions"
            )
    else:
        z = report.candidates_z[0]
        central = set(report.center)
        for b in group.elements():
            if b in central:
                continue  # a central b has (b, a) = 1 for every a
            exps = exponents(b)
            a = next((a for a in group.elements() if _qualifies(group, exps, a, m)), None)
            if a is not None:
                break
        else:
            raise NoWitnessError(
                f"{group.name}: no (b, a) pair generates the derived subgroup with "
                f"(b, a^(2^{s})) = 1 and 2^{s} distinct commutators"
            )
    return Witness(a=a, b=b, z=z, s=s, k=group.element_order(a).bit_length() - 1)


def build_orbit(algebra: GroupAlgebra, w: Witness) -> BaseOrbit:
    """The conjugates h_i = h^(a^i) = 1 + b_i(1+z) of h = 1 + b(1+z), b_i = b^(a^i).

    b_(i+1) = b_i^a is one conjugation, so the m units take O(m) group
    products.  Conjugation by a carries h_i's support {1, b_i, b_i·z} onto
    h_(i+1)'s when (b_i·z)^a = b_(i+1)·z, which a central z makes true; the
    orbit wraps when b_m = b.
    """
    group = algebra.group
    units, b_i = [], w.b
    for i in range(1 << w.s):
        b_iz = group.multiply(b_i, w.z)
        units.append(algebra.from_support((0, b_i, b_iz)))
        b_i, got = group.conjugate(b_i, w.a), group.conjugate(b_iz, w.a)
        expected = group.multiply(b_i, w.z)
        if got != expected:
            raise ConstructionError(
                f"orbit closed form fails at i={i + 1}: (b_{i}·z)^a is "
                f"{group.word_str(got)}, not b_{i + 1}·z = {group.word_str(expected)}"
            )
    if b_i != w.b:
        raise ConstructionError("orbit does not wrap around under conjugation by a")
    return BaseOrbit(units=tuple(units))


def verify_base_group(orbit: BaseOrbit, cap: int = oracle.DEFAULT_CAP):
    """Certify that the orbit generates X ≅ C2^m, by the paper's identity.

    With h_i = 1 + x_i and (1+x)² = 1 + x² in characteristic 2, h_i is an
    involution when x_i ≠ 0 = x_i², and when every x_i·x_j = 0 the product
    of the h_i over S is 1 + Σ_{i∈S} x_i.  These 2^m sums are distinct when
    the supports of the x_i miss 1 and are pairwise disjoint: for
    x_i = b_i(1+z), x_i·x_j = b_i·b_j·(1+z)² = 0, and 1, the b_i and the
    b_i·z must be 2m+1 distinct elements.  Returns (X sorted by bitset,
    the three checks, all True); a failing condition raises
    ConstructionError naming its positions, and |X| > cap ClosureCapError.
    """
    algebra = orbit.units[0].algebra
    zero = algebra.zero()
    xs = [u + algebra.one() for u in orbit.units]
    m = len(xs)
    bad = [i for i, x in enumerate(xs) if x == zero or x * x != zero]
    if bad:
        raise ConstructionError(f"orbit members at positions {bad} are not of order 2")
    products = {(i, j): (xs[i] * xs[j], xs[j] * xs[i]) for i, j in combinations(range(m), 2)}
    noncomm = [ij for ij, (p, q) in products.items() if p != q]
    if noncomm:
        raise ConstructionError(f"orbit members at {noncomm} do not commute")
    if 1 << m > cap:
        raise ClosureCapError(f"base group X of order 2^{m} exceeds cap {cap}")
    at_one = [i for i, x in enumerate(xs) if x.bits & 1]
    meet = [(i, j) for (i, j), (p, _) in products.items() if p != zero or xs[i].bits & xs[j].bits]
    if at_one or meet:
        raise ConstructionError(f"sub-products degenerate: 1 in the support of x_i at {at_one}; "
                                f"x_i·x_j ≠ 0 or supports meet at {meet}")
    base = [1]
    for x in xs:
        base += [y ^ x.bits for y in base]
    checks = dict.fromkeys(CHECK_NAMES[1:4], True)  # orbit-orders to subset-products-nontrivial
    return [AlgebraElement(algebra, bits) for bits in sorted(base)], checks


def build_section(
    algebra: GroupAlgebra,
    w: Witness,
    base: list[AlgebraElement],
    orbit: BaseOrbit,
    use_oracle: bool = True,
    cap: int = oracle.DEFAULT_CAP,
    *,
    base_checks: dict[str, bool],
) -> SectionReport:
    """Quotient <X, a> / <a^(2^s)> and its wreath-product verification.

    X is h_0's orbit under a, so <X, a> = <h_0, a>: the quotient is closed
    from those two, and each orbit unit's image read off its coset.  A unit
    in no coset is not a conjugate of h_0: ConstructionError.
    """
    group = algebra.group
    gens = [orbit.units[0], algebra.embed(w.a)]
    a_pow = algebra.embed(group.power(w.a, 1 << w.s))
    kernel = bfs_closure([a_pow], cap=cap)

    checks = dict(base_checks)
    checks["orbit-closed-form"] = True  # build_orbit already enforced it
    # the kernel <a^m> is central in <h_0, a> exactly when a^m commutes with both
    checks["kernel-central"] = all(a_pow * g == g * a_pow for g in gens)

    quotient = QuotientGroup(gens, kernel, cap=cap)
    images = [quotient.index_of(u.bits) for u in orbit.units]
    outside = [k for k, image in enumerate(images) if image is None]
    if outside:
        raise ConstructionError(
            f"orbit units at positions {outside} lie outside <h_0, a>: not conjugates of h_0"
        )
    # Lagrange: the kernel <a^m> lies in <X, a>
    ambient_order = quotient.order * len(kernel)
    report = SectionReport(
        witness=w,
        base_order=len(base),
        ambient_order=ambient_order,
        kernel_order=len(kernel),
        quotient_order=quotient.order,
    )
    checks["quotient-order"] = (
        quotient.order == 1 << ((1 << w.s) + w.s)
        and ambient_order == (1 << (1 << w.s)) * (1 << w.k)
        and len(kernel) == 1 << (w.k - w.s)
    )

    table = quotient.to_table_group()
    top = quotient.rows[1][0]  # a's coset: a·1
    checks.update(verify_wreath(table, images, top, w.s, use_oracle=use_oracle))
    report.checks = checks
    if use_oracle and w.s > ORACLE_MAX_S:
        report.detail = f"oracle-isomorphism skipped: --oracle runs only for s <= {ORACLE_MAX_S}"
    return report


def verify_wreath(
    group: TableGroup,
    images: list[int],
    top: int,
    s: int,
    use_oracle: bool = True,
) -> dict[str, bool]:
    """Structural characterization of the regular wreath product C2 wr C_{2^s}.

    Works on any multiplication-table group: the quotient built by
    build_section, or the reference coordinate model checked against itself.
    The base is tested on its generators, the images: commuting involutions
    generate an elementary abelian group, and in a finite group <S> is
    normal in <T> when each s^t lies in <S>; commuting images fix each
    other, so t = top is left.
    """
    m = 1 << s
    checks = {}
    base = group.closure(images)
    top_cyc = group.closure([top])

    elem_abelian = all(group.mul(x, x) == group.identity for x in images) and all(
        group.mul(x, y) == group.mul(y, x) for x, y in combinations(images, 2)
    )
    normal = all(group.conjugate(x, top) in base for x in images)
    checks["base-normal-elem-abelian"] = (
        len(base) == 1 << m and elem_abelian and normal
    )
    checks["top-order"] = group.order_of(top) == m
    checks["regular-shift-action"] = all(
        group.conjugate(images[i], top) == images[(i + 1) % m] for i in range(m)
    )
    checks["complement-trivial-intersection"] = (
        base & top_cyc == {group.identity} and len(base) * len(top_cyc) == group.order
    )
    if use_oracle and s <= ORACLE_MAX_S:
        checks["oracle-isomorphism"] = isomorphic_small(group, reference_table(s))
    return checks


@dataclass
class PipelineResult:
    group: FiniteGroup
    hypothesis: HypothesisReport
    witness: Witness | None = None
    orbit: BaseOrbit | None = None
    section: SectionReport | None = None
    error: str | None = None

    @property
    def verdict(self) -> bool:
        return self.section is not None and self.section.verdict

    def to_dict(self) -> dict:
        out = {
            "group": self.group.name,
            "order": self.group.order,
            "hypothesis": self.hypothesis.to_dict(self.group),
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_dict(self.group)
        if self.orbit is not None:
            out["orbit"] = [
                {"words": u.words(), "support": list(u.support())}
                for u in self.orbit.units
            ]
        if self.section is not None:
            out["section"] = self.section.to_dict(self.group)
        out["verdict"] = "pass" if self.verdict else "fail"
        if self.error is not None:
            out["error"] = self.error
        return out


def run_pipeline(
    group: FiniteGroup,
    use_oracle: bool = True,
    override: tuple[int, int, int] | None = None,
    cap: int = oracle.DEFAULT_CAP,
    hypothesis: HypothesisReport | None = None,
) -> PipelineResult:
    """Hypotheses, witness, orbit, base group, section: the full check.

    A hypothesis report already computed for this group may be passed in.
    Resource limits are not verdicts: TableLimitError and ClosureCapError
    propagate to the caller.  The table limit and the cap's bound on
    <X, a> are tested before the witness search; the closures are capped
    as they run.
    """
    if hypothesis is None:
        hypothesis = check_hypotheses(group)
    result = PipelineResult(group=group, hypothesis=hypothesis)
    if not hypothesis.passed:
        result.error = f"hypotheses fail: {hypothesis.failure_reason}"
        return result
    # the table limit and the cap, both known before any search: the orbit
    # has m = |G'| units, so |X| = 2^m, and a is not in X (support 1,
    # against 1 + 2|S| >= 3)
    algebra = GroupAlgebra(group)
    m = hypothesis.derived_order
    if 2 << m > cap:
        raise ClosureCapError(
            f"ambient group <X, a> of order at least 2|X| = {2 << m} exceeds cap {cap}"
        )
    try:
        witness = select_witness(group, hypothesis, override=override)
        result.witness = witness
        orbit = build_orbit(algebra, witness)
        result.orbit = orbit
        base, base_checks = verify_base_group(orbit, cap=cap)
        result.section = build_section(
            algebra, witness, base, orbit,
            use_oracle=use_oracle, cap=cap, base_checks=base_checks,
        )
    except NoWitnessError as exc:
        if override is not None:
            raise  # a rejected override is the caller's input error
        result.error = str(exc)
    except ConstructionError as exc:
        result.error = str(exc)
    return result
