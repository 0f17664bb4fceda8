"""The three workloads: two corpus sweeps through the CLI, and the ladder.

A workload is prepared once per set-up (`prepare`), then runs whole passes
(`run_pass`), each returning its wall time, the time of its slowest group
and its outputs.  `failed` then counts the pass's failed operations, out of
the same `ops_per_pass` on every pass.  The first pass's outputs are checked
in full against `checks`; a later pass with identical outputs inherits that
result, and one that differs is checked again and fails its determinism
operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

from checks import (
    CENSUS,
    Brute,
    census_problems,
    orbit_problems,
    pipeline_problems,
    section_order_problems,
    witness_problems,
)

# Named explicitly, so that adding a corpus order does not change the workload.
SWEEPS = ("o16", "o32")
LADDER = (4, 5, 6, 7, 8)  # D_(2^n) x C2: order 2^(n+1), s = n - 2
BASE_MAX_S = 3  # verify_base_group runs up to here (s = 4 took 17 s)
SECTION_MAX_S = 2  # build_section runs up to here (s = 3 took 76 s)


@dataclass
class PassResult:
    seconds: float
    slowest_group_s: float
    outputs: object
    scale: float = 1.0  # to the reference speed; see calibrate.py


class GroupClock:
    """Wall time per group name, counting only the outermost timed call."""

    def __init__(self):
        self.times: dict[str, float] = defaultdict(float)
        self._depth = 0

    def wrap(self, fn, name_of):
        def timed(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._depth -= 1
            self.times[name_of(args, out)] += time.perf_counter() - t0
            return out

        return timed


class CorpusSweep:
    """`unitwreath verify <o16|o32> [--oracle] --json`, in-process via cli.main."""

    def __init__(self, corpus: Path, oracle: bool):
        self.corpus = corpus
        self.oracle = oracle
        self.files = {d: sorted(p.stem for p in (corpus / d).glob("*.pc2")) for d in SWEEPS}
        # per sweep: the sweep itself, one load per file, one per qualifying group
        self.ops_per_pass = sum(
            1 + len(self.files[d]) + CENSUS[int(d[1:])][1] for d in SWEEPS
        )
        self.reference: dict | None = None  # the first pass's outputs
        self.reference_failed = 0
        self.problems: list[str] = []

    def prepare(self, prog, rng, workdir: Path) -> None:
        self.prog = prog
        self.rng = rng
        self.clock = GroupClock()
        pcgroup, construct = prog.pcgroup, prog.construct
        self.load = pcgroup.load_file  # unwrapped, for the checks
        pcgroup.load_file = self.clock.wrap(pcgroup.load_file, lambda a, out: out.name)
        construct.check_hypotheses = self.clock.wrap(
            construct.check_hypotheses, lambda a, out: a[0].name
        )
        construct.run_pipeline = self.clock.wrap(
            construct.run_pipeline, lambda a, out: a[0].name
        )

    def run_pass(self) -> PassResult:
        self.clock.times.clear()
        order = self.rng.sample(SWEEPS, len(SWEEPS))
        outputs = {}
        t0 = time.perf_counter()
        for d in order:
            argv = ["verify", str(self.corpus / d), "--json"]
            if self.oracle:
                argv.append("--oracle")
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = self.prog.cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - a crash fails the sweep's operations
                code = f"{type(exc).__name__}: {exc}"
            outputs[d] = (code, buf.getvalue())
        seconds = time.perf_counter() - t0
        return PassResult(seconds, max(self.clock.times.values()), outputs)

    def failed(self, outputs) -> int:
        if outputs == self.reference:
            return self.reference_failed
        failed, problems = 0, []
        for d in SWEEPS:
            code, text = outputs[d]
            probs = self._check_sweep(d, code, text)
            if self.reference is not None and self.reference[d] != outputs[d]:
                probs.append(f"{d}: --json output differs from the first pass")
            problems += probs
            failed += len({p.split(":")[0] for p in probs})
        if self.reference is None:
            self.reference, self.reference_failed = outputs, failed
        self.problems += problems
        return failed

    def _check_sweep(self, d: str, code: int, text: str) -> list[str]:
        """Problems, each prefixed by the operation it fails."""
        order = int(d[1:])
        passing = CENSUS[order][1]
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return (
                [f"{d}: exit {code} without JSON output"]
                + [f"{d}/load/{name}: no output" for name in self.files[d]]
                + [f"{d}/pipeline/{i}: no output" for i in range(passing)]
            )
        probs = [f"{d}: {p}" for p in census_problems(doc, order)]
        if code != 0:
            probs.append(f"{d}: exit code {code}")
        rows = {r["name"] for b in doc["census"]["orders"] for r in b["entries"]}
        errors = {e["name"] for e in doc["census"]["errors"]}
        probs += [
            f"{d}/load/{name}: not in the census" for name in self.files[d]
            if name not in rows or name in errors
        ]
        for i in range(passing):
            if i >= len(doc["pipelines"]):
                probs.append(f"{d}/pipeline/{i}: missing")
                continue
            p = doc["pipelines"][i]
            try:
                group = self.load(self.corpus / d / f"{p['group']}.pc2")
                found = pipeline_problems(p, group, self.oracle)
            except Exception as exc:  # noqa: BLE001 - malformed output fails its operation
                found = [f"{p.get('group')}: {type(exc).__name__}: {exc}"]
            probs += [f"{d}/pipeline/{i} {m}" for m in found]
        return probs


def dihedral_times_c2(n: int) -> str:
    """Pc presentation of D_(2^n) x C2.

    Rotations r1..r(n-1) with r(i+1) = ri^2, a reflection t with
    t^(ri) = t·ri^2, and a central c.
    """
    rots = [f"r{i}" for i in range(1, n)]
    lines = [f"group D{1 << n}xC2", "gens " + " ".join(rots + ["t", "c"])]
    lines += [f"pow {rots[i]} = {rots[i + 1]}" for i in range(n - 2)]
    lines += [f"conj t {rots[i]} = t {rots[i + 1]}" for i in range(n - 2)]
    return "\n".join(lines) + "\n"


class Ladder:
    """Stage by stage through the pipeline on D_(2^n) x C2, n = 4..8."""

    ops_per_pass = len(LADDER)  # one per rung

    def __init__(self):
        self.reference: list | None = None  # the first pass's rung summaries
        self.reference_failed = 0
        self.problems: list[str] = []

    def prepare(self, prog, rng, workdir: Path) -> None:
        self.prog = prog
        self.rng = rng
        self.paths = {}
        for n in LADDER:
            path = workdir / f"D{1 << n}xC2.pc2"
            path.write_text(dihedral_times_c2(n), encoding="utf-8")
            self.paths[n] = path

    def _rung(self, n: int):
        """Run the stages; return (group, summary), or (None, error text)."""
        pcgroup, construct = self.prog.pcgroup, self.prog.construct
        try:
            group = pcgroup.load_file(self.paths[n])
            report = construct.check_hypotheses(group)
            w = construct.select_witness(group, report)
            algebra = self.prog.grpalg.GroupAlgebra(group)
            orbit = construct.build_orbit(algebra, w)
            base = base_checks = section = None
            if w.s <= BASE_MAX_S:
                base, base_checks = construct.verify_base_group(orbit)
            if w.s <= SECTION_MAX_S:
                section = construct.build_section(
                    algebra, w, base, orbit, use_oracle=False, base_checks=base_checks
                )
        except Exception as exc:  # noqa: BLE001 - a failing rung is a failed operation
            return None, f"{type(exc).__name__}: {exc}"
        # plain data: a set-up's fresh import makes new classes, which never compare equal
        return group, (
            group.order,
            asdict(report),
            asdict(w),
            tuple(u.support() for u in orbit.units),
            None if base is None else len(base),
            base_checks,
            None if section is None else section.to_dict(group),
        )

    def run_pass(self) -> PassResult:
        order = self.rng.sample(LADDER, len(LADDER))
        results, times = {}, []
        t0 = time.perf_counter()
        for n in order:
            r0 = time.perf_counter()
            results[n] = self._rung(n)
            times.append(time.perf_counter() - r0)
        seconds = time.perf_counter() - t0
        return PassResult(seconds, max(times), results)

    def failed(self, results) -> int:
        summaries = [results[n][1] for n in LADDER]
        if summaries == self.reference:
            return self.reference_failed
        failed = 0
        for n in LADDER:
            group, summary = results[n]
            probs = self._check_rung(n, group, summary)
            if self.reference is not None and summary != self.reference[LADDER.index(n)]:
                probs.append("stage results differ from the first pass")
            self.problems += [f"D{1 << n}xC2: {p}" for p in probs]
            failed += bool(probs)
        if self.reference is None:
            self.reference, self.reference_failed = summaries, failed
        return failed

    def _check_rung(self, n: int, group, summary) -> list[str]:
        if group is None:
            return [summary]
        order, report, w, supports, base_order, base_checks, section = summary
        s = n - 2
        # theory: |G| = 2^(n+1), G' = <r^2> of order 2^(n-2), Z(G) = <r^(2^(n-2)), c>,
        # and the candidates for z are c and r^(2^(n-2))·c
        probs = []
        if order != 1 << (n + 1):
            probs.append(f"|G| = {order}")
        if not report["passed"] or report["derived_order"] != 1 << s:
            probs.append(f"hypotheses {report['failure_reason']}, |G'| = {report['derived_order']}")
        if report["center_order"] != 4 or len(report["candidates_z"]) != 2:
            probs.append(f"|Z(G)| = {report['center_order']}, {len(report['candidates_z'])} z")
        if w["s"] != s:
            probs.append(f"s = {w['s']}")
        a, b, z = w["a"], w["b"], w["z"]
        br = Brute(group)
        probs += witness_problems(br, a, b, z, 1 << s)
        probs += orbit_problems(br, a, b, z, s, supports)
        if s <= BASE_MAX_S:
            probs += section_order_problems(s, base_order, None)
            if not base_checks or not all(base_checks.values()):
                probs.append(f"base checks {base_checks}")
        if s <= SECTION_MAX_S:
            if section["verdict"] != "pass" or "oracle-isomorphism" in section["checks"]:
                probs.append(f"section checks {section['checks']}")
            probs += section_order_problems(s, section["base_order"], section["quotient_order"])
        return probs


WORKLOADS = {
    "corpus-oracle": lambda corpus: CorpusSweep(corpus, oracle=True),
    "corpus-construct": lambda corpus: CorpusSweep(corpus, oracle=False),
    "ladder": lambda corpus: Ladder(),
}
