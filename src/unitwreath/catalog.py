"""Corpus management and census over bundled pc presentation files.

A corpus directory holds *.pc2 files (format defined in pcgroup).  scan
tallies hypothesis-passing groups per order; verify_all additionally runs
the full constructive pipeline on every passing group.
"""

from __future__ import annotations

from pathlib import Path

from . import construct, pcgroup
from .construct import HypothesisReport, PipelineResult
from .pcgroup import FiniteGroup, PcError


class CatalogEntry:
    """One corpus file: its name and, as far as they got, the group's order,
    the group, its hypothesis report, or the error that stopped the load."""

    def __init__(self, name: str, order: int | None = None, group: FiniteGroup | None = None,
                 report: HypothesisReport | None = None, error: str | None = None):
        self.name, self.order, self.group, self.report, self.error = (
            name, order, group, report, error)

    @property
    def s(self) -> int | None:
        if self.report is None or not self.report.passed:
            return None
        return self.report.derived_order.bit_length() - 1


def default_corpus_dir() -> Path:
    """The corpus bundled with the package."""
    return Path(__file__).parent / "corpus"


def load_entries(directory, order_filter: int | None = None) -> list[CatalogEntry]:
    directory = Path(directory)
    if not directory.is_dir():
        why = "Not a directory" if directory.exists() else "No such file or directory"  # strerror
        raise NotADirectoryError(f"{directory}: {why}")
    entries = []
    for path in sorted(directory.rglob("*.pc2")):
        entry = CatalogEntry(name=path.stem)
        try:
            group = pcgroup.load_file(path)
            entry.group = group
            entry.order = group.order
        except PcError as exc:
            entry.error = str(exc)
            entries.append(entry)
            continue
        if order_filter is not None and group.order != order_filter:
            continue
        entries.append(entry)
    return entries


class Census:
    """A scan's entries: the corpus files that fail to load or pass the order filter."""

    def __init__(self, entries: list[CatalogEntry]):
        self.entries = entries

    @property
    def errors(self) -> list[CatalogEntry]:
        return [e for e in self.entries if e.error is not None]

    def orders(self) -> list[int]:
        return sorted({e.order for e in self.entries if e.order is not None})

    def passing(self, order: int | None = None) -> list[CatalogEntry]:
        return [
            e
            for e in self.entries
            if e.report is not None
            and e.report.passed
            and (order is None or e.order == order)
        ]

    def total(self, order: int) -> int:
        return sum(1 for e in self.entries if e.order == order)

    def to_dict(self) -> dict:
        orders = []
        for order in self.orders():
            rows = []
            for e in sorted(self.entries, key=lambda e: e.name):
                if e.order != order or e.report is None:
                    continue
                row = {"name": e.name, "pass": e.report.passed}
                if e.report.passed:
                    row["s"] = e.s
                else:
                    row["reason"] = e.report.failure_reason
                rows.append(row)
            orders.append(
                {
                    "order": order,
                    "total": self.total(order),
                    "passing": len(self.passing(order)),
                    "entries": rows,
                }
            )
        return {
            "orders": orders,
            "errors": sorted(
                ({"name": e.name, "error": e.error} for e in self.errors),
                key=lambda r: r["name"],
            ),
        }

    def to_text(self) -> str:
        data = self.to_dict()
        lines = []
        for block in data["orders"]:
            lines.append(
                f"order {block['order']}: {block['passing']} of "
                f"{block['total']} groups satisfy the hypotheses"
            )
            for row in block["entries"]:
                if row["pass"]:
                    lines.append(f"  {row['name']:<12} pass  s={row['s']}")
                else:
                    lines.append(f"  {row['name']:<12} fail  {row['reason']}")
        for err in data["errors"]:
            lines.append(f"  ERROR {err['name']}: {err['error']}")
        return "\n".join(lines)


def scan(directory, order_filter: int | None = None) -> Census:
    """Load every corpus file and run the hypothesis filter."""
    entries = load_entries(directory, order_filter)
    for entry in entries:
        if entry.group is not None:
            entry.report = construct.check_hypotheses(entry.group)
    return Census(entries=entries)


class SweepResult:
    """A sweep's census, and the pipeline results of its passing groups."""

    def __init__(self, census: Census, results: list[PipelineResult]):
        self.census, self.results = census, results

    @property
    def verdict(self) -> bool:
        return not self.census.errors and all(r.verdict for r in self.results)

    def to_dict(self) -> dict:
        return {
            "census": self.census.to_dict(),
            "pipelines": [r.to_dict() for r in self.results],
            "verdict": "pass" if self.verdict else "fail",
        }


def verify_all(
    directory,
    order_filter: int | None = None,
    use_oracle: bool = True,
    keep_going: bool = True,
) -> SweepResult:
    """Run the full pipeline on every hypothesis-passing corpus group.

    The census' errors are the files that fail to load; every group that
    loads and passes the hypotheses gets a pipeline result.
    """
    census = scan(directory, order_filter)
    results = []
    for entry in sorted(census.passing(), key=lambda e: e.name):
        result = construct.run_pipeline(entry.group, use_oracle=use_oracle,
                                        hypothesis=entry.report)
        results.append(result)
        if not result.verdict and not keep_going:
            break
    return SweepResult(census=census, results=results)
