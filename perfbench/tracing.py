"""Spans and counters around the program's public functions (`--trace 1`).

A wrapper is installed at every place its name is looked up.  `construct`
imports `bfs_closure` and `isomorphic_small` by name, so `construct.<name>`
is replaced as well as `oracle.<name>`; `QuotientGroup` calls
`algebra._conv.convolve` directly, so the method is replaced on the active
`Convolver` class.  Each span records its name, start, end and parent; a
span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import random
import time
from collections import Counter, defaultdict

# span name -> lookup sites, as "<module>.<attribute path>"
SITES = {
    "pcgroup.load_file": ["pcgroup.load_file"],
    "construct.run_pipeline": ["construct.run_pipeline"],
    "construct.check_hypotheses": ["construct.check_hypotheses"],
    "construct.select_witness": ["construct.select_witness"],
    "construct.build_orbit": ["construct.build_orbit"],
    "construct.verify_base_group": ["construct.verify_base_group"],
    "construct.build_section": ["construct.build_section"],
    "construct.quotient_table": ["construct.QuotientGroup.to_table_group"],
    "oracle.bfs_closure": ["oracle.bfs_closure", "construct.bfs_closure"],
    "oracle.isomorphic_small": ["oracle.isomorphic_small", "construct.isomorphic_small"],
    "kernel.convolve": ["kernels.Convolver.convolve"],
    "catalog.verify_all": ["catalog.verify_all"],
    "cli.render": ["catalog.SweepResult.to_dict", "cli._dump"],
}

# Spans that must never fire on a workload; every other span must fire.
ABSENT = {
    "corpus-oracle": set(),
    "corpus-construct": {"oracle.isomorphic_small"},
    "ladder": {
        "construct.run_pipeline",
        "oracle.isomorphic_small",
        "catalog.verify_all",
        "cli.render",
    },
}

# Work counted per call, from (args, result).
TALLIES = {
    "oracle.bfs_closure": lambda args, out: len(out),
    "kernel.convolve": lambda args, out: args[1].bit_count() * args[2].bit_count(),
}

# metric -> (span, what): inclusive seconds, calls, tally, or self seconds
LAYER_METRICS = {
    "pcgroup.load_s": ("pcgroup.load_file", "time"),
    "pcgroup.loads": ("pcgroup.load_file", "calls"),
    "construct.hypotheses_s": ("construct.check_hypotheses", "time"),
    "construct.witness_s": ("construct.select_witness", "time"),
    "construct.orbit_s": ("construct.build_orbit", "time"),
    "construct.base_s": ("construct.verify_base_group", "time"),
    "construct.section_s": ("construct.build_section", "time"),
    "construct.quotient_table_s": ("construct.quotient_table", "time"),
    "oracle.closures": ("oracle.bfs_closure", "calls"),
    "oracle.closure_elements": ("oracle.bfs_closure", "tally"),
    "oracle.closure_s": ("oracle.bfs_closure", "time"),
    "oracle.isomorphism_s": ("oracle.isomorphic_small", "time"),
    "oracle.isomorphism_calls": ("oracle.isomorphic_small", "calls"),
    "kernel.convolutions": ("kernel.convolve", "calls"),
    "kernel.pair_products": ("kernel.convolve", "tally"),
    "kernel.convolve_s": ("kernel.convolve", "time"),
    "catalog.self_s": ("catalog.verify_all", "self"),
    "cli.render_s": ("cli.render", "time"),
}


class Tracer:
    """Spans of the current pass, the layer metrics of past passes, and calls."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.tallies: Counter = Counter()
        self.fired: Counter = Counter()
        self.passes: list[dict[str, float]] = []
        self._stack: list[int] = []
        self._sites: list[tuple] = []  # (owner, attribute, original, wrapper)

    def wrap(self, name: str, fn, tally=None):
        spans, stack, tallies = self.spans, self._stack, self.tallies
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tally is not None:
                tallies[name] += tally(args, out)
            return out

        return traced

    def install(self, prog) -> None:
        """Make a wrapper for every site in SITES of this program; all start off."""
        self._sites = []
        for name, sites in SITES.items():
            for site in sites:
                module, *path = site.split(".")
                owner = getattr(prog, module)
                for part in path[:-1]:
                    owner = getattr(owner, part)
                fn = getattr(owner, path[-1])
                self._sites.append((owner, path[-1], fn, self.wrap(name, fn, TALLIES.get(name))))

    def switch(self, on: bool) -> None:
        """Put the wrappers in place of the originals, or the originals back."""
        for owner, attr, fn, wrapper in self._sites:
            try:
                setattr(owner, attr, wrapper if on else fn)
            except TypeError as exc:  # a compiled kernel's class is immutable
                raise SystemExit(f"cannot trace {owner.__name__}.{attr}: {exc}") from exc

    def take_pass(self) -> None:
        """Reduce the spans recorded since the last call to one pass's layer metrics."""
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(self.spans, covered):
            inclusive[name] += end - start
            self_time[name] += end - start - child
            calls[name] += 1
        self.fired.update(calls)
        source = {"time": inclusive, "self": self_time, "calls": calls, "tally": self.tallies}
        self.passes.append(
            {m: source[kind][span] for m, (span, kind) in LAYER_METRICS.items()}
        )
        self.spans.clear()
        self.tallies.clear()


def firing_problems(tracer: Tracer, workload: str) -> list[str]:
    """Wrappers that never fired where their layer works, or fired where it must not."""
    probs = []
    for name in SITES:
        if name in ABSENT[workload] and tracer.fired[name]:
            probs.append(f"{name} fired {tracer.fired[name]} times, expected none")
        elif name not in ABSENT[workload] and not tracer.fired[name]:
            probs.append(f"{name} never fired: its lookup site was missed or removed")
    return probs


# The dense products of large closures, as in benchmarks/bench_kernels.py.
DENSE_SOURCE = """
group D8xC2_5
gens a c b v w x y z
pow a = c
conj b a = b c
"""
DENSE_SUPPORT = 33
DENSE_PAIRS = 2000
DENSE_REPEATS = 3


def _bits_of(bits: int):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def reference_product(group, u: int, v: int) -> int:
    """GF(2) convolution straight from the definition: toggle every x·y."""
    acc = 0
    for x in _bits_of(u):
        for y in _bits_of(v):
            acc ^= 1 << group.multiply(x, y)
    return acc


def dense_product_rate(prog, seed: int) -> tuple[float, int, int]:
    """(median products/s, failed, attempted) for support-33 products at order 256."""
    group = prog.pcgroup.load(DENSE_SOURCE)
    rng = random.Random(seed)

    def operand() -> int:
        return sum(1 << g for g in rng.sample(range(group.order), DENSE_SUPPORT))

    pairs = [(operand(), operand()) for _ in range(DENSE_PAIRS)]
    conv = prog.kernels.Convolver(group.cayley)
    rates = []
    for _ in range(DENSE_REPEATS):
        t0 = time.perf_counter()
        products = [conv.convolve(u, v) for u, v in pairs]
        rates.append(DENSE_PAIRS / (time.perf_counter() - t0))
    failed = sum(
        p != reference_product(group, u, v) for p, (u, v) in zip(products, pairs)
    )
    rates.sort()
    return rates[len(rates) // 2], failed, DENSE_PAIRS
