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
from itertools import combinations, compress
from operator import eq

from . import kernels, oracle
from .grpalg import AlgebraElement, GroupAlgebra
from .oracle import TableGroup, bfs_closure, isomorphic_small, reference_table, table_from_rows
from .pcgroup import ClosureCapError, FiniteGroup, closure, compose

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
    derived: tuple[int, ...]  # c^0, ..., c^(m-1) when G' = <c>, else G' sorted
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

    The kernel must be made of group elements (units of one-element
    support), as <a^(2^s)> is.  A kernel translate y·t multiplies y by a
    group element, which permutes y's support, so the members of a coset
    share one support size and its member of least (support size, bitset)
    is its least bitset.  That member names the coset, and the cosets are
    indexed in the order of (support size, bitset) of their
    representatives, so the identity's coset is 0.  The closure runs
    over representatives: each is multiplied on the left by each generator
    once, and rows[k][i] is the index of gens[k]·reps[i].  A product is
    one XOR per support element of the representative, through the
    generator's columns (kernels.apply), and so is a kernel translate y·t,
    through the column gj ↦ gj·t of the group element t (FiniteGroup.column):
    only the rows of the generators' supports are read.  Every member of each
    coset found maps to its representative, so a product lands on its
    coset in one lookup, and so does index_of.  The rows are the products
    composed with the reps and then with the index (pcgroup.compose).  The
    reps and the table depend on <gens> alone.
    """

    def __init__(self, gens: list[AlgebraElement], kernel: list[AlgebraElement],
                 cap: int = oracle.DEFAULT_CAP):
        algebra, apply = gens[0].algebra, kernels.apply
        cols = [algebra._conv.columns(g.bits) for g in gens]
        shifts = [[1 << y for y in algebra.group.column(t.bits.bit_length() - 1)]
                  for t in kernel if t.bits != 1]

        products = [{} for _ in gens]  # products[k][x] = the rep of gens[k]·x
        # member to representative; the kernel is 1's coset
        self._rep_of = rep_of = {t.bits: 1 for t in kernel}

        def left(x: int, k: int) -> int:
            y = apply(cols[k], x)
            rep = rep_of.get(y)
            if rep is None:  # a new coset: its translates by the kernel, once
                coset = [y] + [apply(c, y) for c in shifts]
                rep = min(coset)
                for member in coset:
                    rep_of[member] = rep
            products[k][x] = rep
            return rep

        reps = closure(range(len(gens)), left, 1, cap)
        self.reps = sorted(sorted(reps), key=int.bit_count)  # by (support size, bitset)
        self.order = len(self.reps)
        self._index = index = {r: i for i, r in enumerate(self.reps)}
        self.rows = [compose(index, compose(row, self.reps)) for row in products]

    def index_of(self, bits: int) -> int | None:
        """The index of the coset holding the unit bits, or None outside <gens>."""
        return self._index.get(self._rep_of.get(bits))

    def to_table_group(self) -> TableGroup:
        """The table from the generators' rows of products with representatives."""
        return TableGroup(table_from_rows(self.rows, 0))


def check_hypotheses(group: FiniteGroup) -> HypothesisReport:
    """Test the hypotheses and list G', Z(G) and the candidate central involutions.

    G is abelian iff G' = 1.  The commutators (gi, gj) of the pc generators,
    read off the conjugation words, generate G'.  Down k: let those with i, j > k generate G_(k+1)', and H
    be generated by them and the (gk, gj), all in G_(k+1).  G_(k+1)' is
    characteristic in G_(k+1), so normal in G_k, and modulo it G_(k+1) is
    abelian: its elements fix H under conjugation, and x ↦ (x, gk) is a
    homomorphism on it, so h^gk = h·(h, gk) lies in H, a product of
    (gl, gk).  H is normal in G_k with an abelian quotient, so H = G_k'.

    So G' is cyclic exactly when every (gi, gj) lies in <c>, c the one of
    largest order (the least index among ties): the subgroups of a cyclic
    2-group form a chain.  <c> is listed once, by m products, and only a
    failing test lists G' as the closure of the (gi, gj).

    Z(G) is filtered against the generators that lead no gi^2 and no
    (gi, gj).  A gk that leads (is the first letter of) one of those words
    lies in Φ(G)·G_(k+1), Φ(G) = G^2·G' the Frattini subgroup.  By
    induction down k the other generators generate G modulo Φ(G), so they
    generate G (Burnside's basis theorem).  Each g is tested by its row
    x ↦ g·x against its column x ↦ x·g, but for a generator whose
    commutators (gi, gj) are all 1: it is central, and keeps every x.  The
    filter is C-level, compress(center, map(eq, row, column)), with row and
    column composed over the surviving center past the first generator
    tested.  A candidate z is an x ≠ 1 of Z(G) outside G' with x·x = 1.
    """
    gens = [1 << (group.n - j) for j in range(1, group.n + 1)]
    pairs = {(i, j): group.generator_commutator(i, j)
             for i, j in combinations(range(1, group.n + 1), 2)}
    comms = set(pairs.values())
    c = max(sorted(comms), key=group.element_order, default=0)
    derived, c_e = [0], c  # <c> in order, m products
    while c_e:
        derived.append(c_e)
        c_e = group.multiply(c_e, c)
    members = set(derived)
    cyclic = comms <= members
    if not cyclic:
        members = closure(comms, group.multiply, 0)
        derived, c = sorted(members), None
    nonabelian = len(derived) > 1

    words = comms | {group.multiply(g, g) for g in gens}
    leaders = {w.bit_length() for w in words}  # gk's bit length is n + 1 - k
    moved = {k for ij, comm in pairs.items() if comm for k in ij}  # the noncentral gk
    center = group.elements()
    for j, g in enumerate(gens, start=1):
        if j in moved and g.bit_length() not in leaders:
            row, column = group.row(g), group.column(g)
            if len(center) < group.order:  # past the first: the survivors' entries
                row, column = compose(row, center), compose(column, center)
            center = list(compress(center, map(eq, row, column)))
    center = tuple(center)
    candidates = tuple(x for x in center if x and not group.multiply(x, x) and x not in members)
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
        derived=tuple(derived),
        nonabelian=nonabelian,
        center=center,
        center_order=len(center),
        candidates_z=candidates,
        passed=reason is None,
        failure_reason=reason,
    )


def _parity_masks(group: FiniteGroup, report: HypothesisReport):
    """(mask_of, neg): the map b ↦ mask(b), and the generators g with k_g ≡ 3 mod 4.

    mask(b) is the XOR over b's letters h of row(h), the generators g for
    which (h, g) = c^e with e odd (see select_witness).  A row is built the
    first time a letter is read, from a commutator for each generator
    g ≠ h, read off the presentation with the lower index first: (g, h) =
    (h, g)^-1 has the opposite exponent, of the same parity.  The logarithms c^e ↦ e
    are read off the report's powers of c, and neg takes one conjugation
    per generator.
    """
    log = dict(zip(report.derived, range(report.derived_order)))  # c^e ↦ e
    gens = [1 << i for i in range(group.n)]
    neg = sum(g for g in gens if log[group.conjugate(report.derived_generator, g)] % 4 == 3)
    n, comm = group.n, group.generator_commutator
    rows: dict[int, int] = {}

    def row(k: int) -> int:  # gk's row, as a mask; gl = 1 << (n - l)
        return (sum(1 << (n - l) for l in range(1, k) if log[comm(l, k)] % 2)
                + sum(1 << (n - l) for l in range(k + 1, n + 1) if log[comm(k, l)] % 2))

    def mask_of(b: int) -> int:
        mask = 0
        for h in gens:
            if b & h:
                if h not in rows:
                    rows[h] = row(n + 1 - h.bit_length())
                mask ^= rows[h]
        return mask

    return mask_of, neg


def _qualifies(mask: int, neg: int, a: int) -> bool:
    """Whether (b, a) meets the side conditions, b given by its mask.

    (b, a) generates G' when a holds an odd number of mask's letters, and
    the (b, a^i) for i < m are then distinct with (b, a^m) = 1 when a holds
    an even number of neg's letters (select_witness gives both proofs).
    """
    return (a & mask).bit_count() % 2 == 1 and (a & neg).bit_count() % 2 == 0


def select_witness(
    group: FiniteGroup,
    report: HypothesisReport,
    override: tuple[int, int, int] | None = None,
) -> Witness:
    """First (b, a) pair in canonical order meeting all side conditions.

    The conditions, with G' = <c> of order m = 2^s: (b, a) generates G',
    (b, a^m) = 1, and the m commutators (b, a^i), i < m, are pairwise
    distinct.  The order is b first, then a, each by index.  z is the first
    candidate central involution.  An override (a, b, z) is validated
    against the same conditions.

    Write c^g = c^(k_g), k_g odd, and (b, x) = c^(E_b(x)).  The identities
    (b, w·g) = (b, g)·(b, w)^g and (x·y, g) = (x, g)^y·(y, g) (Robinson, A
    Course in the Theory of Groups, 5.1.5) give E_b(w·g) = E_b(g) +
    k_g·E_b(w) and E_(x·y)(g) = k_y·E_x(g) + E_y(g) mod m.  So E_b(x) mod 2
    is additive over the letters of x and over those of b.  With row(h) the
    generators g for which E_h(g) is odd, and mask(b) the XOR of row(h)
    over b's letters h, (b, a) generates G' exactly when a & mask(b) has an
    odd number of bits.  A central b has mask 0.

    By the first identity E_b(a^i) = E_b(a)·σ_i, with σ_0 = 0 and
    σ_(i+1) = k_a·σ_i + 1.  When E_b(a) is odd it is a unit mod m, and the
    other two conditions say that σ_0, ..., σ_(m-1) are distinct: the
    bijection x ↦ k_a·x + 1 of Z/m has full period m, and then σ_m = 0.  By
    Hull and Dobell (SIAM Review 4, 1962) that holds, for odd k_a and
    increment 1, exactly when m = 2 or k_a ≡ 1 mod 4.  k_a is the product
    of the k_g over a's letters, so with neg the generators whose
    k_g ≡ 3 mod 4 (none when m = 2), it holds exactly when a & neg has an
    even number of bits.  Both tests depend on a and mask(b) alone.

    The scan.  mask is linear in b's exponent vector, so the b for which no
    a qualifies, those with mask(b) in {0, neg}, form a subspace W under
    XOR (⊕) of indices.  The least b outside W is a generator: with g its
    top letter, every index below g lies in W, b ⊕ g among them, so g does
    not, and g <= b.  So b runs over the generators, last first, and no
    table is built (_parity_masks).  For that b, a qualifying a holds a
    letter of mask outside neg, or one of mask inside neg and one of neg
    outside mask, so the least is the lowest letter of the first kind or
    the sum of the lowest letters of the other two, whichever qualifies and
    is smaller.
    """
    if not report.passed:
        raise ValueError("select_witness requires a hypothesis-passing group")
    m = report.derived_order
    s = m.bit_length() - 1
    mask_of, neg = _parity_masks(group, report)

    if override is not None:
        a, b, z = override
        if z not in report.candidates_z:
            raise NoWitnessError(
                f"override z = {group.word_str(z)} is not a central involution "
                "outside the derived subgroup"
            )
        if not _qualifies(mask_of(b), neg, a):
            raise NoWitnessError(
                f"override pair (b, a) = ({group.word_str(b)}, {group.word_str(a)}) "
                "violates the witness side conditions"
            )
    else:
        z = report.candidates_z[0]
        for b in (1 << i for i in range(group.n)):
            mask = mask_of(b)
            one, both, other = (x & -x for x in (mask & ~neg, mask & neg, neg & ~mask))
            a = min((x for x in (one, both | other) if _qualifies(mask, neg, x)), default=None)
            if a is not None:
                break
        else:
            raise NoWitnessError(
                f"{group.name}: no (b, a) pair generates the derived subgroup with "
                f"(b, a^(2^{s})) = 1 and 2^{s} distinct commutators"
            )
    return Witness(a=a, b=b, z=z, s=s, k=group.element_order(a).bit_length() - 1)


def build_orbit(algebra: GroupAlgebra, w: Witness) -> BaseOrbit:
    """The conjugates h_i = h^(a^i) = 1 + b_i(1+z) of h = 1 + b(1+z), b_i = b^(a^i),
    and the certificate that they generate X ≅ C2^m.

    Conjugation by a, an automorphism, carries h_i's support {1, b_i, b_i·z}
    onto {1, b_(i+1), b_(i+1)·z^a}: the closed form holds for every i exactly
    when z^a = z, which one conjugation checks (a failure shows at i = 1).
    Each unit then costs b_i·z and b_(i+1) = b_i^a, and its bitset is that
    of from_support((0, b_i, b_i·z)).  The orbit wraps when b_m = b.

    The certificate, with h_i = 1 + x_i: when z·z = 1 (orbit-orders) and
    z^b = z (pairwise-commuting), z is central in <a, b> ∋ b_i, so in
    characteristic 2 x_i·x_j = b_i·b_j·(1+z)² = b_i·b_j·(1+z²) = 0: the h_i
    are commuting involutions with product 1 + Σ_{i∈S} x_i over S.  When 1,
    the b_i and the b_i·z are 2m+1 distinct elements (subset-products-nontrivial),
    these 2^m sums are distinct, so X ≅ C2^m.
    """
    group, a, b, z = algebra.group, w.a, w.b, w.z
    word, m = group.word_str, 1 << w.s
    if group.conjugate(z, a) != z:
        got = group.conjugate(group.multiply(b, z), a)
        expected = group.multiply(group.conjugate(b, a), z)
        raise ConstructionError(
            f"orbit closed form fails at i=1: (b_0·z)^a is "
            f"{group.word_str(got)}, not b_1·z = {group.word_str(expected)}"
        )
    if group.multiply(z, z):
        raise ConstructionError(f"orbit-orders fails: z = {word(z)} is not an involution")
    if group.conjugate(z, b) != z:
        raise ConstructionError(
            f"pairwise-commuting fails: z = {word(z)} does not commute with b = {word(b)}")
    units, elements, b_i = [], [0], b
    for _ in range(m):
        b_z = group.multiply(b_i, z)
        units.append(AlgebraElement(algebra, 1 ^ (1 << b_i) ^ (1 << b_z)))
        elements += b_i, b_z
        b_i = group.conjugate(b_i, a)
    if b_i != b:
        raise ConstructionError("orbit does not wrap around under conjugation by a")
    if len(set(elements)) < 2 * m + 1:
        repeat = next(x for x in elements if elements.count(x) > 1)
        raise ConstructionError(f"subset-products-nontrivial fails: {word(repeat)} repeats "
                                "among 1, the b_i and the b_i·z")
    return BaseOrbit(units=tuple(units))


def verify_base_group(orbit: BaseOrbit, cap: int = oracle.DEFAULT_CAP):
    """X ≅ C2^m, by build_orbit's certificate the 2^m sums 1 + Σ_{i∈S} x_i
    for h_i = 1 + x_i, listed without a product.  Returns (X sorted by
    bitset, the three checks, all True); |X| > cap raises ClosureCapError.
    """
    xs = [u.bits ^ 1 for u in orbit.units]
    m = len(xs)
    if 1 << m > cap:
        raise ClosureCapError(f"base group X of order 2^{m} exceeds cap {cap}")
    base = [1]
    for x in xs:
        base += [y ^ x for y in base]
    # orbit-orders to subset-products-nontrivial: build_orbit enforced them
    checks = dict.fromkeys(CHECK_NAMES[1:4], True)
    return [AlgebraElement(orbit.units[0].algebra, bits) for bits in sorted(base)], checks


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
    in no coset is not a conjugate of h_0: ConstructionError.  verify_wreath
    tests the quotient, and --oracle runs here alone: the isomorphism search
    for s <= ORACLE_MAX_S, and above that a detail saying it was skipped.
    """
    group, m = algebra.group, 1 << w.s
    gens = [orbit.units[0], algebra.embed(w.a)]
    a_pow = algebra.embed(group.power(w.a, m))
    try:
        kernel = bfs_closure([a_pow], cap=cap)
    except ClosureCapError as exc:
        raise ClosureCapError(f"the section's kernel <a^{m}>: {exc}") from exc

    checks = dict(base_checks)
    checks["orbit-closed-form"] = True  # build_orbit already enforced it
    # the kernel <a^m> is central in <h_0, a> exactly when a^m commutes with both
    checks["kernel-central"] = all(a_pow * g == g * a_pow for g in gens)

    try:
        quotient = QuotientGroup(gens, kernel, cap=cap)
    except ClosureCapError as exc:
        raise ClosureCapError(f"the section's quotient <h_0, a>/<a^{m}>: {exc}") from exc
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
        quotient.order == 1 << (m + w.s)
        and ambient_order == (1 << m) * (1 << w.k)
        and len(kernel) == 1 << (w.k - w.s)
    )

    table = quotient.to_table_group()
    top = quotient.rows[1][0]  # a's coset: a·1
    checks.update(verify_wreath(table, images, top, w.s))
    if use_oracle and w.s <= ORACLE_MAX_S:
        checks["oracle-isomorphism"] = isomorphic_small(table, reference_table(w.s))
    elif use_oracle:
        report.detail = f"oracle-isomorphism skipped: --oracle runs only for s <= {ORACLE_MAX_S}"
    report.checks = checks
    return report


def verify_wreath(group: TableGroup, images: list[int], top: int, s: int) -> dict[str, bool]:
    """Structural characterization of the regular wreath product C2 wr C_{2^s}.

    Works on any multiplication-table group: the quotient built by
    build_section, or the reference coordinate model checked against itself.
    The base is tested on its generators, the images: commuting involutions
    generate an elementary abelian group, and in a finite group <S> is
    normal in <T> when each s^t lies in <S>; commuting images fix each
    other, so t = top is left.  Each image is conjugated by top once, for
    normality and the shift action; top's order is the size of <top>.
    """
    m = 1 << s
    base = group.closure(images)
    top_cyc = group.closure([top])
    shifted = [group.conjugate(x, top) for x in images]
    elem_abelian = all(group.mul(x, x) == group.identity for x in images) and all(
        group.mul(x, y) == group.mul(y, x) for x, y in combinations(images, 2)
    )
    return {
        "base-normal-elem-abelian": (
            len(base) == 1 << m and elem_abelian and all(y in base for y in shifted)
        ),
        "top-order": len(top_cyc) == m,
        "regular-shift-action": shifted == images[1:] + images[:1],
        "complement-trivial-intersection": (
            base & top_cyc == {group.identity} and len(base) * len(top_cyc) == group.order
        ),
    }


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
    # has m = |G'| units, so |X| = 2^m by build_orbit's certificate, and a
    # is not in X (support 1, against 1 + 2|S| >= 3)
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
