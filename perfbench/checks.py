"""Properties the verifier's output must have, checked independently of it.

Nothing here compares against a stored earlier output.  The census counts
come from the classification of 2-groups (PAPER.md), the section orders from
the theorem, and the witness and orbit facts are recomputed by brute force
from the group's multiplication alone.  Every function returns a list of
problems; an empty list means the property holds.
"""

from __future__ import annotations

# order: (groups of that order, groups meeting the theorem's hypotheses)
CENSUS = {16: (14, 4), 32: (51, 20)}


class Brute:
    """Element arithmetic that uses nothing of the group but `multiply`."""

    def __init__(self, group):
        self.mul = group.multiply
        self.order = group.order
        elems = range(self.order)
        self.identity = next(e for e in elems if all(self.mul(e, x) == x for x in elems))
        self.inv = [
            next(y for y in elems if self.mul(x, y) == self.identity) for x in elems
        ]

    def power(self, x: int, k: int) -> int:
        acc = self.identity
        for _ in range(k):
            acc = self.mul(acc, x)
        return acc

    def element_order(self, x: int) -> int:
        k, y = 1, x
        while y != self.identity:
            y = self.mul(y, x)
            k += 1
        return k

    def commutator(self, x: int, y: int) -> int:
        """(x, y) = x^-1 y^-1 x y."""
        return self.mul(self.mul(self.inv[x], self.inv[y]), self.mul(x, y))

    def closure(self, gens) -> set[int]:
        seen, frontier = {self.identity}, [self.identity]
        while frontier:
            frontier = [
                y for y in {self.mul(x, g) for x in frontier for g in gens} if y not in seen
            ]
            seen.update(frontier)
        return seen

    def derived_order(self) -> int:
        elems = range(self.order)
        return len(self.closure({self.commutator(x, y) for x in elems for y in elems}))

    def is_central(self, z: int) -> bool:
        return all(self.mul(z, x) == self.mul(x, z) for x in range(self.order))


def witness_problems(br: Brute, a: int, b: int, z: int, derived_order: int) -> list[str]:
    """The witness side conditions and the choice of z, by brute force.

    `derived_order` must be known independently of the program: from a
    brute-force derived subgroup, or from theory.  Since (b, a) lies in G',
    an order equal to |G'| makes <(b, a)> = G'.
    """
    probs = []
    m = derived_order
    c = br.commutator(b, a)
    if br.element_order(c) != derived_order:
        probs.append(f"(b,a) has order {br.element_order(c)}, |G'| = {derived_order}")
    if br.commutator(b, br.power(a, m)) != br.identity:
        probs.append("(b, a^(2^s)) != 1")
    if len({br.commutator(b, br.power(a, i)) for i in range(m)}) != m:
        probs.append("the 2^s commutators (b, a^i) are not distinct")
    if z == br.identity or br.mul(z, z) != br.identity or not br.is_central(z):
        probs.append("z is not a central involution")
    if z in br.closure([c]):
        probs.append("z lies in G'")
    return probs


def orbit_problems(br: Brute, a: int, b: int, z: int, s: int, supports) -> list[str]:
    """Orbit member i must be 1 + b·(b,a^i)·(1+z): support {1, b(b,a^i), b(b,a^i)z}."""
    m = 1 << s
    if len(supports) != m:
        return [f"orbit has {len(supports)} members, expected {m}"]
    probs = []
    for i, support in enumerate(supports):
        bc = br.mul(b, br.commutator(b, br.power(a, i)))
        expected = {br.identity, bc, br.mul(bc, z)}
        if len(support) != 3 or set(support) != expected:
            probs.append(f"orbit member {i} is not 1 + b(b,a^{i})(1+z)")
    return probs


def section_order_problems(s: int, base_order: int, quotient_order: int | None) -> list[str]:
    """|X| = 2^(2^s) and |<X,a>/<a^(2^s)>| = |C2 wr C_(2^s)| = 2^(2^s+s)."""
    probs = []
    if base_order != 1 << (1 << s):
        probs.append(f"base order {base_order} != 2^(2^{s})")
    if quotient_order is not None and quotient_order != 1 << ((1 << s) + s):
        probs.append(f"quotient order {quotient_order} != 2^(2^{s}+{s})")
    return probs


def census_problems(doc: dict, order: int) -> list[str]:
    """One order block with the classification's counts, and nothing failing."""
    total, passing = CENSUS[order]
    blocks = doc["census"]["orders"]
    probs = []
    if [b["order"] for b in blocks] != [order]:
        probs.append(f"census orders {[b['order'] for b in blocks]}, expected [{order}]")
    elif (blocks[0]["total"], blocks[0]["passing"]) != (total, passing):
        probs.append(
            f"order {order}: {blocks[0]['passing']} of {blocks[0]['total']}, "
            f"expected {passing} of {total}"
        )
    if doc["census"]["errors"]:
        probs.append(f"load errors: {doc['census']['errors']}")
    if len(doc["pipelines"]) != passing:
        probs.append(f"{len(doc['pipelines'])} pipelines, expected {passing}")
    if doc["verdict"] != "pass":
        probs.append("sweep verdict is not pass")
    return probs


def pipeline_problems(p: dict, group, oracle: bool) -> list[str]:
    """One `verify --json` pipeline entry against brute force and theory."""
    if p.get("verdict") != "pass" or "section" not in p or "witness" not in p:
        return [f"{p.get('group')}: verdict {p.get('verdict')}, error {p.get('error')}"]
    br = Brute(group)
    derived = br.derived_order()
    s = derived.bit_length() - 1
    w, sec = p["witness"], p["section"]
    probs = []
    if p["hypothesis"]["derived_order"] != derived or w["s"] != s:
        probs.append(f"reported |G'| {p['hypothesis']['derived_order']}, s {w['s']}; "
                     f"brute force gives {derived}")
    if not sec["checks"] or not all(sec["checks"].values()):
        probs.append(f"failed checks: {[k for k, v in sec['checks'].items() if not v]}")
    if ("oracle-isomorphism" in sec["checks"]) != oracle:
        probs.append(f"oracle-isomorphism {'missing' if oracle else 'present'}")
    probs += section_order_problems(s, sec["base_order"], sec["quotient_order"])
    a, b, z = (group.parse_word(w[k]) for k in ("a", "b", "z"))
    probs += witness_problems(br, a, b, z, derived)
    probs += orbit_problems(br, a, b, z, s, [u["support"] for u in p["orbit"]])
    return [f"{p['group']}: {msg}" for msg in probs]
