"""Plain-text report formatting shared by the experiment harnesses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned plain-text table.

    Floats are shown with four significant decimals; everything else uses
    ``str``.  Used by every ``report()`` function so experiment output is
    uniform and diffable.
    """
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.4g}"
        return str(cell)

    str_rows: List[List[str]] = [[fmt(c) for c in row] for row in rows]
    str_headers = [str(h) for h in headers]
    widths = [len(h) for h in str_headers]
    for row in str_rows:
        if len(row) != len(str_headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(str_headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(render_row(str_headers))
    lines.append(render_row(["-" * w for w in widths]))
    lines.extend(render_row(row) for row in str_rows)
    return "\n".join(lines)


def subsample(n: int, max_points: int) -> List[int]:
    """Indices of at most ``max_points`` evenly spaced items out of ``n``, ends included."""
    if n <= max_points:
        return list(range(n))
    return [int(round(i * (n - 1) / (max_points - 1))) for i in range(max_points)]


def ratio_line(label: str, ours: float, paper: float, unit: str = "x") -> str:
    """One-line comparison of a measured ratio against the paper's value."""
    return (
        f"{label}: measured {ours:.2f}{unit} vs paper {paper:.2f}{unit} "
        f"(relative difference {abs(ours - paper) / max(abs(paper), 1e-12) * 100:.0f}%)"
    )


@dataclass(frozen=True)
class FidelityRow:
    """One number of the paper next to the reproduction's.

    Every figure module states its paper numbers once, as rows of this
    type; its own ``report`` prints them as a "paper | reproduction"
    table and :mod:`repro.experiments.speedups` collects all of them into
    the fidelity table.
    """

    #: Where the paper states it (``"Fig. 3"``, ``"Section 6.3"``).
    source: str
    claim: str
    paper: float
    ours: float
    #: Largest relative deviation from ``paper`` that counts as reproduced.
    tolerance: float
    #: Context printed beside the row (the final metric of a training run).
    context: str = ""

    @property
    def inside(self) -> bool:
        return abs(self.ours - self.paper) <= self.tolerance * abs(self.paper)


def distribution_rows(
    source: str, what: str, paper: Mapping[str, Tuple[float, float]], summary: object
) -> List[FidelityRow]:
    """The min / max / mean-or-median / std rows of Figs. 2-4.

    ``paper`` maps a statistic's name (an attribute of ``summary``) to
    the paper's value and the tolerance the reproduction is held to.
    """
    return [
        FidelityRow(source, f"{stat} {what}", value, getattr(summary, stat), tolerance)
        for stat, (value, tolerance) in paper.items()
    ]


def paper_vs_ours_table(
    rows: Iterable[FidelityRow], title: str, extra: Iterable[Sequence[object]] = ()
) -> str:
    """The "quantity | paper | reproduction" table of a workload figure."""
    cells = [(r.claim, r.paper, r.ours) for r in rows]
    return format_table(["quantity", "paper", "reproduction"], cells + list(extra), title=title)


def fidelity_table(rows: Iterable[FidelityRow], title: str) -> str:
    """Every claim, the paper's value, ours, and whether ours is inside tolerance."""
    return format_table(
        ["source", "claim", "paper", "ours", "tolerance", "inside", "final metric (ours / paper)"],
        [
            (
                r.source, r.claim, r.paper, round(r.ours, 3), f"+-{r.tolerance:.0%}",
                "yes" if r.inside else "NO", r.context or "-",
            )
            for r in rows
        ],
        title=title,
    )
