"""Metric definitions and the analytic cost table (paper, Table IV).

The disaster experiments report four metrics:

* **data loss** -- data blocks whose location failed and whose repair failed
  (Fig. 11);
* **vulnerable data** -- data blocks left without any protecting redundancy
  after minimal-maintenance repairs (Fig. 12);
* **single-failure fraction** -- the share of repairs that were plain
  single-failure repairs (Fig. 13);
* **repair rounds** -- how many rounds the AE decoder needed (Table VI).

Scheme naming is the :mod:`repro.schemes` registry's: a scheme is named by a
registry identifier (``"ae-3-2-5"``, ``"rs-10-4"``, ``"lrc-azure"``,
``"rep-3"``, ``"xor-geo"``, ...), an :class:`AEParameters` setting, a bare
stripe code or a scheme instance (:func:`repro.schemes.resolve`), and
:func:`describe_scheme` / :func:`scheme_costs` read its
:class:`~repro.schemes.base.SchemeCapabilities` instead of a parallel
hand-written cost table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import repro.schemes as schemes
from repro.schemes import SchemeCapabilities, SchemeLike


def describe_scheme(scheme: SchemeLike) -> SchemeCapabilities:
    """The capabilities (and with them the Table IV row) of any scheme.

    Resolved through the :mod:`repro.schemes` registry, so every registered
    family (including LRC and flat XOR) gets a row, and the analytic numbers
    are the ones the live :class:`~repro.system.service.StorageService`
    reports.
    """
    return schemes.resolve(scheme, block_size=64).capabilities()


#: The schemes of Table IV (replication rows beyond 2/3/4-way are trivial).
PAPER_SCHEMES: Sequence[str] = (
    "rs-10-4",
    "rs-8-2",
    "rs-5-5",
    "rs-4-12",
    "ae-1",
    "ae-2-2-5",
    "ae-3-2-5",
    "rep-2",
    "rep-3",
    "rep-4",
)


def scheme_costs(specs: Sequence[SchemeLike] = PAPER_SCHEMES) -> List[Dict[str, object]]:
    """Table IV: additional storage and single-failure repair cost per scheme."""
    return [describe_scheme(spec).costs().as_row() for spec in specs]


@dataclass
class DisasterMetrics:
    """All metrics of one (scheme, disaster size) cell of the evaluation."""

    scheme: str
    disaster_fraction: float
    data_blocks: int
    data_loss: int
    vulnerable_data: int
    repair_rounds: int = 0
    single_failure_fraction: float = 0.0
    repaired_data: int = 0
    blocks_read: int = 0
    #: Data blocks repairable but left missing because the maintenance
    #: budget ran out -- reported separately from loss.
    deferred_data: int = 0
    #: Origin of a topology-targeted disaster ("site:0", "rack:eu/1");
    #: empty for randomly sampled disasters.
    label: str = ""

    @property
    def data_loss_fraction(self) -> float:
        return self.data_loss / self.data_blocks if self.data_blocks else 0.0

    @property
    def vulnerable_fraction(self) -> float:
        return self.vulnerable_data / self.data_blocks if self.data_blocks else 0.0

    def as_row(self) -> Dict[str, object]:
        percent = int(round(self.disaster_fraction * 100))
        row = {
            "scheme": self.scheme,
            "disaster (%)": f"{percent} ({self.label})" if self.label else percent,
            "data loss (blocks)": self.data_loss,
            "vulnerable data (%)": round(self.vulnerable_fraction * 100.0, 2),
            "repair rounds": self.repair_rounds,
            "single failures (%)": round(self.single_failure_fraction * 100.0, 1),
        }
        if self.deferred_data:
            row["deferred repairs (blocks)"] = self.deferred_data
        return row


def format_table(rows: Sequence[Dict[str, object]]) -> str:
    """Render a list of dict rows as an aligned plain-text table."""
    if not rows:
        return "(no rows)"
    # Union of keys in first-seen order, so optional columns (e.g. deferred
    # repairs under a maintenance budget) appear even when absent from row 0.
    headers = list(dict.fromkeys(key for row in rows for key in row))
    widths = {
        header: max(len(str(header)), *(len(str(row.get(header, ""))) for row in rows))
        for header in headers
    }
    lines = [
        "  ".join(str(header).ljust(widths[header]) for header in headers),
        "  ".join("-" * widths[header] for header in headers),
    ]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(header, "")).ljust(widths[header]) for header in headers)
        )
    return "\n".join(lines)
