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
from functools import cache
from itertools import combinations

from . import oracle
from .grpalg import AlgebraElement, GroupAlgebra
from .oracle import TableGroup, bfs_closure, isomorphic_small, reference_table
from .pcgroup import ClosureCapError, FiniteGroup, closure, doubled, table_from_rows

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
    nonabelian: bool
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
    representative, so a product lands on its coset in one lookup.
    """

    def __init__(self, gens: list[AlgebraElement], kernel: list[AlgebraElement],
                 cap: int = oracle.DEFAULT_CAP):
        conv = gens[0].algebra._conv.convolve
        shifts = [k.bits for k in kernel if k.bits != 1]

        def key(bits: int) -> tuple[int, int]:
            return bits.bit_count(), bits

        products = {}
        rep_of = {t.bits: 1 for t in kernel}  # member to representative; the kernel is 1's coset

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
        index = {r: i for i, r in enumerate(self.reps)}
        self.rows = [[index[products[k, r]] for r in self.reps] for k in range(len(gens))]

    def to_table_group(self) -> TableGroup:
        """The table from the generators' rows of products with representatives."""
        return TableGroup(table_from_rows(self.rows, 0))


def check_hypotheses(group: FiniteGroup) -> HypothesisReport:
    """Test the hypotheses and list candidate central involutions; G is abelian iff G' = 1."""
    derived = group.derived_subgroup()
    nonabelian = derived.order > 1
    cyclic, _ = group.is_cyclic(derived)
    center = group.center()
    derived_set = set(derived.elements)
    candidates = tuple(
        x
        for x in center.elements
        if group.element_order(x) == 2 and x not in derived_set
    )
    reason = None
    if not nonabelian:
        reason = REASON_ABELIAN
    elif not cyclic:
        reason = REASON_NOT_CYCLIC
    elif not candidates:
        reason = REASON_NO_Z
    return HypothesisReport(
        derived_order=derived.order,
        derived_cyclic=cyclic,
        nonabelian=nonabelian,
        center_order=center.order,
        candidates_z=candidates,
        passed=reason is None,
        failure_reason=reason,
    )


def _commutators(group: FiniteGroup, b: int) -> list[int]:
    """[(b, x) for x in the group], each b^-1·b^x; b^-1's row is doubled, not kept."""
    return list(map(doubled(group.right, 0, group.inverse(b)).__getitem__, group.conjugates(b)))


def _witness_invariants(group: FiniteGroup, comms: list[int], a: int,
                        derived_order: int, order_of):
    """Commutator orbit of (b, a^i) when the pair qualifies, else None.

    comms is b's commutator table, _commutators(group, b), and order_of
    gives element orders, group.element_order or a memo of it.
    """
    if order_of(comms[a]) != derived_order:
        return None
    orbit = {}  # (b, a^i) for i < 2^s in order, so that a repeat ends the test at once
    a_i = 0  # a^i, each one product with a; a's row is not kept
    for _ in range(derived_order):
        if comms[a_i] in orbit:
            return None
        orbit[comms[a_i]] = None
        a_i = group.multiply(a_i, a)
    if comms[a_i] != 0:  # (b, a^(2^s)) = 1
        return None
    return list(orbit)


def select_witness(
    group: FiniteGroup,
    report: HypothesisReport,
    override: tuple[int, int, int] | None = None,
) -> Witness:
    """First (b, a) pair in canonical order meeting all side conditions.

    The conditions: (b, a) generates the derived subgroup, (b, a^(2^s)) = 1,
    and the 2^s commutators (b, a^i) are pairwise distinct.  z is the first
    candidate central involution.  An override (a, b, z) is validated
    against the same conditions.
    """
    if not report.passed:
        raise ValueError("select_witness requires a hypothesis-passing group")
    derived_order = report.derived_order
    s = derived_order.bit_length() - 1
    order_of = cache(group.element_order)  # commutators lie in G': m values

    def qualifies(comms: list[int], a: int) -> bool:
        return _witness_invariants(group, comms, a, derived_order, order_of) is not None

    if override is not None:
        a, b, z = override
        if z not in report.candidates_z:
            raise NoWitnessError(
                f"override z = {group.word_str(z)} is not a central involution "
                "outside the derived subgroup"
            )
        if not qualifies(_commutators(group, b), a):
            raise NoWitnessError(
                f"override pair (b, a) = ({group.word_str(b)}, {group.word_str(a)}) "
                "violates the witness side conditions"
            )
    else:
        z = report.candidates_z[0]
        central = set(group.center().elements)
        for b in group.elements():
            if b in central:
                continue  # a central b has (b, a) = 1 for every a
            comms = _commutators(group, b)
            a = next((a for a in group.elements() if qualifies(comms, a)), None)
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
    """Quotient <X, a> / <a^(2^s)> and its wreath-product verification."""
    group = algebra.group
    gens = list(orbit.units) + [algebra.embed(w.a)]
    a_pow = algebra.embed(group.power(w.a, 1 << w.s))
    kernel = bfs_closure([a_pow], cap=cap)

    checks = dict(base_checks)
    checks["orbit-closed-form"] = True  # build_orbit already enforced it
    # the kernel <a^m> is central in <gens> exactly when a^m commutes with gens
    checks["kernel-central"] = all(a_pow * g == g * a_pow for g in gens)

    quotient = QuotientGroup(gens, kernel, cap=cap)
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
    *images, top = [row[0] for row in quotient.rows]  # gens[k] is rows[k][0]
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
    """
    m = 1 << s
    checks = {}
    base = group.closure(images)
    top_cyc = group.closure([top])

    elem_abelian = all(group.mul(x, x) == group.identity for x in base) and all(
        group.mul(x, y) == group.mul(y, x) for x in base for y in base
    )
    normal = all(
        group.conjugate(x, g) in base for x in base for g in images + [top]
    )
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
