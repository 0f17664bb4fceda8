"""Constructive wreath-section pipeline for the normalized unit group.

Given a finite non-abelian 2-group G with cyclic derived subgroup and a
central involution z outside it, this module finds the witness (a, b, z),
certifies by group products that the conjugates of h = 1 + b(1+z) under a
give the section <X, a>/<a^(2^s)> ≅ C2 wr C_{2^s} (certify), and, where the
group algebra is built, cross-checks it there.  Every step is recorded as a
named boolean check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, compress
from operator import eq

from . import kernels, oracle
from .grpalg import AlgebraElement, GroupAlgebra
from .oracle import TableGroup, bfs_closure, isomorphic_small, reference_table, table_from_rows
from .pcgroup import CAYLEY_LIMIT, ClosureCapError, FiniteGroup, closure, compose

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
ORDER_FIELDS = ("base_order", "ambient_order", "kernel_order", "quotient_order")

ORACLE_MAX_S = 2  # --oracle runs the isomorphism test up to C2 wr C4 (order 64)
REASON_ABELIAN = "abelian"
REASON_NOT_CYCLIC = "derived-not-cyclic"
REASON_NO_Z = "no-central-involution-outside-derived"


class NoWitnessError(Exception):
    """A witness override (a, b, z) fails the side conditions."""


class ConstructionError(Exception):
    """A verification step falsified the construction for this witness."""


@dataclass(frozen=True)
class HypothesisReport:
    """What check_hypotheses found.  G' is given by its order and, when
    cyclic, its generator c; the witness search reads it only through
    parities and neg, which are filled when the hypotheses pass (() and 0
    otherwise).  Only center and candidates_z grow with the group, as
    Z(G) does: no field lists G'."""

    derived_order: int
    derived_cyclic: bool
    derived_generator: int | None  # c with G' = <c>, when G' is cyclic
    nonabelian: bool
    center: tuple[int, ...]
    center_order: int
    candidates_z: tuple[int, ...]
    passed: bool
    failure_reason: str | None
    parities: tuple[int, ...]  # parities[k-1]: the generators g with (gk, g) = c^e, e odd
    neg: int  # the generators g with c^g = c^k, k ≡ 3 mod 4

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


def json_order(x: int) -> int | str:
    """x = 2^e as reported: the int while e < 53, exact in every JSON reader
    (RFC 8259 §6), else "2^e", which prints past CPython's 4,300 digits."""
    return x if x < 1 << 53 else f"2^{x.bit_length() - 1}"


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

    def orders(self) -> dict[str, int | str]:
        """The four orders, each as json_order writes it."""
        return {name: json_order(getattr(self, name)) for name in ORDER_FIELDS}

    def to_dict(self, group: FiniteGroup) -> dict:
        return {
            "group": group.name,
            "witness": self.witness.to_dict(group),
            **self.orders(),
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
    """Test the hypotheses; report G' by its order and generator, Z(G), the
    candidate central involutions and the parities of the commutators.

    G is abelian iff G' = 1.  The commutators (gi, gj) of the pc generators,
    read off the conjugation words, generate G'.  Down k: let those with i, j > k generate G_(k+1)', and H
    be generated by them and the (gk, gj), all in G_(k+1).  G_(k+1)' is
    characteristic in G_(k+1), so normal in G_k, and modulo it G_(k+1) is
    abelian: its elements fix H under conjugation, and x ↦ (x, gk) is a
    homomorphism on it, so h^gk = h·(h, gk) lies in H, a product of
    (gl, gk).  H is normal in G_k with an abelian quotient, so H = G_k'.

    So G' is cyclic exactly when every (gi, gj) lies in <c>, c the one of
    largest order (the least index among ties): the subgroups of a cyclic
    2-group form a chain.  A pair with no conj line commutes, so one
    commutator is read per line.  <c> is listed once (FiniteGroup.cyclic),
    as the logarithms c^e ↦ e, and only a failing test closes G' under the
    (gi, gj).

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

    When the hypotheses pass, G' = <c> has order m = 2^s >= 2.  Write c^g =
    c^(k_g), k_g odd, and (x, y) = c^(E_x(y)).  The identities (b, w·g) =
    (b, g)·(b, w)^g and (x·y, g) = (x, g)^y·(y, g) (Robinson, A Course in
    the Theory of Groups, 5.1.5) give E_b(w·g) = E_b(g) + k_g·E_b(w) and
    E_(x·y)(g) = k_y·E_x(g) + E_y(g) mod m.  So E_x(y) mod 2 is additive
    over the letters of x and over those of y, and parities[k-1], the row
    of gk, holds the generators g with E_gk(g) odd.  (gj, gi) = (gi, gj)^-1
    has the opposite exponent, of the same parity, so each conj line sets
    two bits by one logarithm.  k_x is the product of the k_g over x's
    letters, so k_x ≡ 3 mod 4 exactly when x holds an odd number of the
    letters of neg, the generators with k_g ≡ 3 mod 4 (one conjugation c^g
    each).
    """
    gens = [1 << (group.n - j) for j in range(1, group.n + 1)]
    pairs = {ij: group.generator_commutator(*ij) for ij in group.pres.conjugations}
    comms = set(pairs.values())
    c = max(sorted(comms), key=group.element_order, default=0)
    log = {x: e for e, x in enumerate(group.cyclic(c))}  # c^e ↦ e
    members, cyclic = log, comms <= log.keys()
    if not cyclic:
        members, c = closure(comms, group.multiply, 0), None
    nonabelian = len(members) > 1

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
    parities, neg = [], 0
    if reason is None:
        parities = [0] * group.n
        for (i, j), comm in pairs.items():
            if log[comm] % 2:
                parities[i - 1] |= gens[j - 1]
                parities[j - 1] |= gens[i - 1]
        neg = sum(g for g in gens if log[group.conjugate(c, g)] % 4 == 3)
    return HypothesisReport(
        derived_order=len(members),
        derived_cyclic=cyclic,
        derived_generator=c,
        nonabelian=nonabelian,
        center=center,
        center_order=len(center),
        candidates_z=candidates,
        passed=reason is None,
        failure_reason=reason,
        parities=tuple(parities),
        neg=neg,
    )


def _mask(parities: tuple[int, ...], b: int) -> int:
    """mask(b), the XOR of the parity rows of b's letters: a & mask(b) has
    odd weight exactly when E_b(a) is odd (check_hypotheses)."""
    mask, n = 0, len(parities)
    while b:  # the first letter of b is g_(n + 1 - b.bit_length())
        k = b.bit_length()
        mask ^= parities[n - k]
        b ^= 1 << (k - 1)
    return mask


def _qualifies(mask: int, neg: int, a: int) -> bool:
    """Whether (b, a) meets the side conditions, b given by its mask.

    (b, a) generates G' when a holds an odd number of mask's letters, and
    the (b, a^i) for i < m are then distinct with (b, a^m) = 1 when a holds
    an even number of neg's letters (check_hypotheses and select_witness
    give the proofs).
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
    against the same conditions.  The search reads the report's parities
    and neg alone (check_hypotheses defines them, with E_b and k_g): it
    makes no commutator and no conjugation, and its only products are the
    squarings of element_order(a).

    (b, a) generates G' exactly when E_b(a) is odd, that is when a &
    mask(b) has an odd number of bits (_mask); a central b has mask 0.  By
    the first of check_hypotheses' identities E_b(a^i) = E_b(a)·σ_i, with
    σ_0 = 0 and σ_(i+1) = k_a·σ_i + 1.  When E_b(a) is odd it is a unit mod
    m, and the other two conditions say that σ_0, ..., σ_(m-1) are
    distinct: the bijection x ↦ k_a·x + 1 of Z/m has full period m, and
    then σ_m = 0.  By Hull and Dobell (SIAM Review 4, 1962) that holds, for
    odd k_a and increment 1, exactly when m = 2 or k_a ≡ 1 mod 4, that is
    when a & neg has an even number of bits (neg is 0 when m = 2).  Both
    tests depend on a and mask(b) alone.

    The scan.  mask is linear in b's exponent vector, so the b for which no
    a qualifies, those with mask(b) in {0, neg}, form a subspace W under
    XOR (⊕) of indices.  The least b outside W is a generator: with g its
    top letter, every index below g lies in W, b ⊕ g among them, so g does
    not, and g <= b.  So b runs over the generators, last first, and its
    mask is its parity row.  For that b, a qualifying a holds a letter of
    mask outside neg, or one of mask inside neg and one of neg outside
    mask, so the least is the lowest letter of the first kind or the sum of
    the lowest letters of the other two, whichever qualifies and is
    smaller.

    The scan always returns: the generator commutators generate G' = <c>
    (check_hypotheses), so some (gk, gj) has an odd exponent.  With b = gk
    and a = gj, (b, a) qualifies when m = 2 or k_a ≡ 1 mod 4; (b, a·b) when
    k_a ≡ 3 ≡ k_b, as E_b(a·b) = k_b·E_b(a) is odd and k_(a·b) = k_a·k_b ≡ 1;
    and (a, b) when k_a ≡ 3 and k_b ≡ 1, as E_a(b) = -E_b(a) is odd.  So some
    generator lies outside W.
    """
    if not report.passed:
        raise ValueError("select_witness requires a hypothesis-passing group")
    m = report.derived_order
    s = m.bit_length() - 1
    parities, neg = report.parities, report.neg

    if override is not None:
        a, b, z = override
        if z not in report.candidates_z:
            raise NoWitnessError(
                f"override z = {group.word_str(z)} is not a central involution "
                "outside the derived subgroup"
            )
        if not _qualifies(_mask(parities, b), neg, a):
            raise NoWitnessError(
                f"override pair (b, a) = ({group.word_str(b)}, {group.word_str(a)}) "
                "violates the witness side conditions"
            )
    else:
        z = report.candidates_z[0]
        for i, mask in enumerate(reversed(parities)):  # b = 1 << i, the generators last first
            one, both, other = (x & -x for x in (mask & ~neg, mask & neg, neg & ~mask))
            a = min((x for x in (one, both | other) if _qualifies(mask, neg, x)), default=None)
            if a is not None:
                b = 1 << i
                break
    return Witness(a=a, b=b, z=z, s=s, k=group.element_order(a).bit_length() - 1)


def certify(group: FiniteGroup, w: Witness) -> tuple[tuple[int, int], ...]:
    """The pairs (b_i, b_i·z), b_i = b^(a^i), i < m = 2^s: by group products
    alone, the certificate that <X, a>/<a^m> ≅ C2 wr C_m, X generated by the
    h_i = h^(a^i) = 1 + x_i, h = 1 + b(1+z), x_i = b_i(1+z).

    Conjugation by a carries h_i's support {1, b_i, b_i·z} onto {1, b_(i+1),
    b_(i+1)·z^a}: the closed form holds for every i exactly when z^a = z
    (else it fails at i = 1).  When z·z = 1 (orbit-orders) and z^b = z
    (pairwise-commuting), z is central in <a, b> ∋ b_i, so x_i·x_j =
    b_i·b_j·(1+z²) = 0 in characteristic 2: the h_i are commuting involutions
    with product 1 + Σ_{i∈S} x_i over S.  When 1, the b_i and the b_i·z are
    2m+1 distinct elements (subset-products-nontrivial), these 2^m sums are
    distinct, so X ≅ C2^m, and X ∩ <a> = 1: supports 1 + 2|S| against 1.
    When b_m = b, a shifts the h_i cyclically, and each 0 < i < m moves h_0:
    X is normal with the regular shift action, m divides |a| = 2^k, and
    |<X, a>| = 2^(m+k), |<a^m>| = 2^(k-s), |<X, a>/<a^m>| = 2^(m+s).  a^m
    commutes with a and fixes h_0, so every h_i: the kernel is central with
    no convolution.

    The section lies in V(F2·G), a subgroup of V(KG) for every field K of
    characteristic 2 (K ⊇ F2): one verdict over F2 covers every such K.
    """
    a, b, z = w.a, w.b, w.z
    word, m = group.word_str, 1 << w.s
    if group.conjugate(z, a) != z:
        got = group.conjugate(group.multiply(b, z), a)
        expected = group.multiply(group.conjugate(b, a), z)
        raise ConstructionError(f"orbit closed form fails at i=1: (b_0·z)^a is {word(got)}, "
                                f"not b_1·z = {word(expected)}")
    if group.multiply(z, z):
        raise ConstructionError(f"orbit-orders fails: z = {word(z)} is not an involution")
    if group.conjugate(z, b) != z:
        raise ConstructionError(
            f"pairwise-commuting fails: z = {word(z)} does not commute with b = {word(b)}")
    pairs, b_i = [], b
    for _ in range(m):
        pairs.append((b_i, group.multiply(b_i, z)))
        b_i = group.conjugate(b_i, a)
    if b_i != b:
        raise ConstructionError("orbit does not wrap around under conjugation by a")
    elements = [0, *chain.from_iterable(pairs)]
    if len(set(elements)) < 2 * m + 1:
        repeat = next(x for x in elements if elements.count(x) > 1)
        raise ConstructionError(f"subset-products-nontrivial fails: {word(repeat)} repeats "
                                "among 1, the b_i and the b_i·z")
    return tuple(pairs)


def certified_section(w: Witness) -> SectionReport:
    """What certify proves for w: every check but oracle-isomorphism, and the orders."""
    m = 1 << w.s
    return SectionReport(w, 1 << m, 1 << (m + w.k), 1 << (w.k - w.s), 1 << (m + w.s),
                         dict.fromkeys(CHECK_NAMES[:-1], True))


def build_orbit(algebra: GroupAlgebra, w: Witness) -> BaseOrbit:
    """The units h_i = 1 + b_i + b_i·z on certify's pairs: X's generators."""
    return BaseOrbit(units=tuple(AlgebraElement(algebra, 1 ^ (1 << b_i) ^ (1 << b_z))
                                 for b_i, b_z in certify(algebra.group, w)))


def verify_base_group(orbit: BaseOrbit, cap: int = oracle.DEFAULT_CAP):
    """X ≅ C2^m, by certify the 2^m sums 1 + Σ_{i∈S} x_i
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
    # orbit-orders to subset-products-nontrivial: certify enforced them
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
    checks["orbit-closed-form"] = True  # certify already enforced it
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
    orbit: tuple[tuple[int, int], ...] | None = None  # certify's pairs (b_i, b_i·z)
    section: SectionReport | None = None
    error: str | None = None

    @property
    def verdict(self) -> bool:
        return self.section is not None and self.section.verdict

    def orbit_units(self) -> list[tuple[str, list[int]]]:
        """Each h_i = 1 + b_i + b_i·z as its words and its sorted support."""
        supports = [sorted((0, *pair)) for pair in self.orbit]
        return [(" + ".join(map(self.group.word_str, s)), s) for s in supports]

    def to_dict(self) -> dict:
        out = {
            "group": self.group.name,
            "order": self.group.order,
            "hypothesis": self.hypothesis.to_dict(self.group),
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_dict(self.group)
        if self.orbit is not None:
            out["orbit"] = [{"words": words, "support": support}
                            for words, support in self.orbit_units()]
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
    """Hypotheses, witness and certificate: the verdict, at every order.

    A hypothesis report already computed for this group may be passed in.
    The report is certified_section's.  Where the group algebra is built
    (order at most CAYLEY_LIMIT, 2|X| = 2^(m+1) within cap) the algebra path
    cross-checks it, and --oracle's check and detail are build_section's;
    elsewhere the detail says why not.  A rejected override raises
    NoWitnessError and a capped closure ClosureCapError: not verdicts.
    """
    if hypothesis is None:
        hypothesis = check_hypotheses(group)
    result = PipelineResult(group=group, hypothesis=hypothesis)
    if not hypothesis.passed:
        result.error = f"hypotheses fail: {hypothesis.failure_reason}"
        return result
    w = result.witness = select_witness(group, hypothesis, override=override)
    m = 1 << w.s
    try:
        result.orbit = certify(group, w)
        section = certified_section(w)
        if group.order > CAYLEY_LIMIT:
            section.detail = (f"algebra cross-check not run: order {group.order} is above "
                              f"{CAYLEY_LIMIT}, the largest order whose group algebra is built")
        elif 2 << m > cap:
            section.detail = ("algebra cross-check not run: <X, a> has at least "
                              f"2|X| = 2^{m + 1} elements, above cap {cap}")
        else:
            algebra = GroupAlgebra(group)
            orbit = build_orbit(algebra, w)
            base, base_checks = verify_base_group(orbit, cap=cap)
            checked = build_section(algebra, w, base, orbit, use_oracle=use_oracle, cap=cap,
                                    base_checks=base_checks)
            want, got = ({**report.checks, **report.orders()} for report in (section, checked))
            differ = [name for name in want if got.get(name) != want[name]]
            if differ:
                raise ConstructionError(
                    f"the algebra cross-check differs from the certificate at {differ[0]}")
            section = checked
        result.section = section
    except ConstructionError as exc:
        result.error = str(exc)
    return result
