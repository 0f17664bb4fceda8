#!/usr/bin/env python3
"""Regenerate the bundled corpus of 2-group pc presentations.

Every group of order 2^(n+1) is a central extension of a group of order
2^n by C2, with the new generator last and central.  Starting from C2 and
enumerating all relation twists at each step therefore reaches every
isomorphism type; candidates failing the loader's consistency check are
discarded and the rest are deduplicated by exact isomorphism search.
The resulting counts per order must be 1, 2, 5, 14, 51.

Run from the repository root:  python3 scripts/make_corpus.py
"""

import sys
import time
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from unitwreath.construct import check_hypotheses
from unitwreath.oracle import TableGroup, isomorphic_small
from unitwreath.pcgroup import (
    ConsistencyError,
    FiniteGroup,
    PcPresentation,
    closure,
    load,
    serialize_presentation,
)

GEN_NAMES = "abcde"
MAX_N = 5
EXPECTED_COUNTS = {2: 1, 4: 2, 8: 5, 16: 14, 32: 51}

CANONICAL = {
    # spec-mandated file contents for the named corpus groups
    "D8xC2": "group D8xC2\ngens a c b z\npow a = c\nconj b a = b c\n",
    "D8": "group D8\ngens a c b\npow a = c\nconj b a = b c\n",
    "Q8": "group Q8\ngens a b c\npow a = c\npow b = c\nconj b a = b c\n",
    "C4": "group C4\ngens a b\npow a = b\n",
    "C2xC2": "group C2xC2\ngens a b\n",
    "C2": "group C2\ngens a\n",
}


def extensions(parent: PcPresentation):
    """All central C2-extensions of the parent, as candidate presentations."""
    n = parent.n
    new = n + 1
    slots = [("pow", i) for i in range(1, n + 1)]
    slots += [("conj", (i, j)) for i in range(1, n) for j in range(i + 1, n + 1)]
    for mask in range(1 << len(slots)):
        powers = dict(parent.powers)
        conjugations = dict(parent.conjugations)
        for bit, (kind, key) in enumerate(slots):
            if not (mask >> bit) & 1:
                continue
            if kind == "pow":
                powers[key] = parent.powers.get(key, ()) + (new,)
            else:
                i, j = key
                conjugations[key] = parent.conjugations.get(key, (j,)) + (new,)
        yield PcPresentation(
            name="tmp",
            gens=tuple(GEN_NAMES[:new]),
            powers=powers,
            conjugations=conjugations,
        )


def fingerprint(group: FiniteGroup, table: TableGroup):
    """Cheap exact-invariant tuple used to bucket isomorphism candidates."""
    profile = table.order_profile()
    center = check_hypotheses(group).center
    # G' is generated by the commutators of the pc generators
    derived = closure({group.generator_commutator(i, j)
                       for i, j in combinations(range(1, group.n + 1), 2)}, group.multiply, 0)
    # x^g = g⁻¹·x·g, two lookups in the table's rows and the inverses
    # order_profile filled
    rows, inverses = table.table, table._inverses
    class_sizes = []
    seen = set()
    for x in range(group.order):
        if x in seen:
            continue
        orbit = {rows[rows[g_inv][x]][g] for g, g_inv in enumerate(inverses)}
        seen |= orbit
        class_sizes.append(len(orbit))
    center_profile = tuple(sorted(group.element_order(x) for x in center))
    derived_profile = tuple(sorted(group.element_order(x) for x in derived))
    squares = len({group.multiply(x, x) for x in range(group.order)})
    return (
        group.order,
        profile,
        len(center),
        len(derived),
        center_profile,
        derived_profile,
        tuple(sorted(class_sizes)),
        squares,
    )


def classify(parents):
    """Extend each parent and return one representative per isomorphism type."""
    reps = []  # (presentation, FiniteGroup, TableGroup)
    buckets = {}
    tried = kept = 0
    for parent in parents:
        for cand in extensions(parent):
            tried += 1
            try:
                group = FiniteGroup(cand)
            except ConsistencyError:
                continue
            kept += 1
            table = TableGroup(group.cayley)
            fp = fingerprint(group, table)
            bucket = buckets.setdefault(fp, [])
            # fp holds |G'|, so the bucket is abelian with the group, and
            # abelian 2-groups with equal order profiles coincide
            abelian = fp[3] == 1
            known = any(abelian or isomorphic_small(table, reps[idx][2]) for idx in bucket)
            if not known:
                bucket.append(len(reps))
                reps.append((cand, group, table))
    print(f"  candidates tried: {tried}, consistent: {kept}, classes: {len(reps)}")
    return reps


def main():
    out_root = Path(__file__).resolve().parent.parent / "src/unitwreath/corpus"
    c2 = PcPresentation(name="C2", gens=("a",))
    levels = {2: [(c2, None, None)]}
    parents = [c2]
    for n in range(2, MAX_N + 1):
        order = 1 << n
        print(f"order {order}:")
        t0 = time.time()
        reps = classify(parents)
        print(f"  {time.time() - t0:.1f}s")
        if len(reps) != EXPECTED_COUNTS[order]:
            raise SystemExit(
                f"expected {EXPECTED_COUNTS[order]} classes of order {order}, "
                f"got {len(reps)}"
            )
        levels[order] = reps
        parents = [r[0] for r in reps]

    # write out, substituting canonical files where an isomorphic class exists
    canonical_groups = {
        name: load(text) for name, text in CANONICAL.items()
    }
    for order, reps in levels.items():
        out_dir = out_root / f"o{order}"
        out_dir.mkdir(parents=True, exist_ok=True)
        for old in out_dir.glob("*.pc2"):
            old.unlink()
        if order == 2:
            (out_dir / "C2.pc2").write_text(CANONICAL["C2"])
            continue
        idx = 0
        for pres, group, table in reps:
            name = None
            for cname, cgroup in canonical_groups.items():
                if cgroup.order == order and isomorphic_small(
                    table, TableGroup(cgroup.cayley)
                ):
                    name = cname
                    break
            if name is not None:
                (out_dir / f"{name}.pc2").write_text(CANONICAL[name])
                continue
            idx += 1
            named = PcPresentation(
                name=f"o{order}_{idx:02d}",
                gens=pres.gens,
                powers=pres.powers,
                conjugations=pres.conjugations,
            )
            (out_dir / f"{named.name}.pc2").write_text(serialize_presentation(named))
        print(f"wrote {order}: {len(list(out_dir.glob('*.pc2')))} files")


if __name__ == "__main__":
    main()
