#!/usr/bin/env python3
"""Benchmark of unitwreath: corpus sweeps with and without the oracle, and
the D_(2^n) x C2 ladder.  See README.md in this directory.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-oracle --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The end-to-end
times are scaled to the reference speed of calibrate.py; the line before
it gives them unscaled.
"""

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import calibrate
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = SRC / "unitwreath" / "corpus"
SETUPS = 5  # set-ups per run; setup_s is their median
MODULES = ("pcgroup", "grpalg", "kernels", "oracle", "construct", "catalog", "cli")


def import_program() -> SimpleNamespace:
    """Import unitwreath afresh from the checkout's sources."""
    for name in [m for m in sys.modules if m.split(".")[0] == "unitwreath"]:
        del sys.modules[name]
    prog = SimpleNamespace(
        **{m: importlib.import_module(f"unitwreath.{m}") for m in MODULES}
    )
    if not Path(prog.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported {prog.cli.__file__}, not the sources in {SRC}")
    return prog


def measure(workload, deadline: float, plain: list, traced: list, tracer=None) -> int:
    """Whole passes, at least one, until `deadline`; returns the failed operations.

    The reference work runs before and after each pass, and the pass is
    scaled by the mean of the two.  With a tracer every other pass is
    traced, so that traced and untraced passes see the same stretches of
    the machine's speed.
    """
    failed = 0
    before = calibrate.reference_seconds()
    while True:
        on = tracer is not None and len(traced) < len(plain)
        if tracer is not None:
            tracer.switch(on)
        result = workload.run_pass()
        if tracer is not None:
            tracer.switch(False)
        after = calibrate.reference_seconds()
        result.scale = 2 * calibrate.REFERENCE_S / (before + after)
        before = after
        if on:
            tracer.take_pass()
        failed += workload.failed(result.outputs)
        result.outputs = None  # a pass's groups and tables are large; keep only its times
        (traced if on else plain).append(result)
        if time.perf_counter() >= deadline:
            return failed


def run(args, workload, workdir: Path) -> int:
    rng = random.Random(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    # The set-ups are spread over the run, so that their median, like that
    # of the passes, does not rest on a single stretch of the machine's speed.
    setups, setup_scales, plain, traced, failed = [], [], [], [], 0
    for k in range(1, SETUPS + 1):
        before = calibrate.reference_seconds()
        t0 = time.perf_counter()
        prog = import_program()
        workload.prepare(prog, rng, workdir)
        warm = workload.run_pass()
        setups.append(time.perf_counter() - t0)
        after = calibrate.reference_seconds()
        setup_scales.append(2 * calibrate.REFERENCE_S / (before + after))
        failed += workload.failed(warm.outputs)  # the first is checked in full, untimed
        if tracer is not None:
            tracer.install(prog)
        failed += measure(workload, start + args.seconds * k / SETUPS, plain, traced, tracer)
    passes = SETUPS + len(plain) + len(traced)
    attempted = passes * workload.ops_per_pass

    median = statistics.median
    if tracer is None:
        metrics = {
            "setup_s": (median(t * c for t, c in zip(setups, setup_scales)), "s"),
            "pass_s": (median(r.seconds * r.scale for r in plain), "s"),
            "slowest_group_s": (median(r.slowest_group_s * r.scale for r in plain), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        problems = tracing.firing_problems(tracer, args.workload)
        if problems:
            print("error: the traced run missed layers:", *problems, sep="\n  ", file=sys.stderr)
            return 3
        rate, kernel_failed, kernel_attempted = tracing.dense_product_rate(prog, args.seed)
        failed += kernel_failed
        attempted += kernel_attempted
        metrics = {
            m: (median(p[m] for p in tracer.passes), unit_of(m))
            for m in tracing.LAYER_METRICS
        }
        metrics["kernel.dense_products_per_s"] = (rate, "1/s")
        metrics["trace.overhead_s"] = (
            median(r.seconds for r in traced) - median(r.seconds for r in plain), "s"
        )

    for problem in workload.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"kernel={prog.kernels.IMPL} python={platform.python_version()} "
        f"nproc={os.cpu_count()}"
    )
    print(
        f"# unscaled: setup_s={median(setups):.4f} "
        f"pass_s={median(r.seconds for r in plain):.4f} "
        f"slowest_group_s={median(r.slowest_group_s for r in plain):.4f} "
        f"speed={median(r.scale for r in plain):.3f} of the reference"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


def unit_of(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "unitwreath" / "__init__.py").is_file():
        print(f"error: no unitwreath sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True  # every set-up compiles the sources, as in a clean checkout
    workload = WORKLOADS[args.workload](CORPUS)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
