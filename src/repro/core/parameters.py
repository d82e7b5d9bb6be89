"""Code parameters for alpha entanglement codes AE(alpha, s, p).

The three parameters control redundancy propagation (paper, Section III-B):

* ``alpha`` -- the number of parities created per data block, and the number
  of strands each data block participates in.  It fixes the code rate
  ``1 / (alpha + 1)`` and the storage overhead ``alpha * 100%``.
* ``s`` -- the number of horizontal strands (rows of the helical lattice).
* ``p`` -- the number of helical strands per helical class (right-handed and
  left-handed).  Together with ``s`` it controls the *global* connectivity of
  the lattice; increasing it raises fault tolerance at no storage cost.

Validity rules (paper, Section III-B, "Code Parameters"):

* ``alpha`` is 1, 2 or 3: the helical lattice has three strand classes
  (horizontal, right-handed, left-handed) and each parity of a block lives on
  its own class, so the lattice tops out at alpha=3;
* single entanglements (``alpha == 1``) use exactly one horizontal strand:
  ``s == 1`` and ``p == 0``;
* for ``alpha >= 2`` the lattice is well formed only when ``p >= s``.

A setting has one registry identifier, :attr:`AEParameters.scheme_id`
(``"ae-1"``, ``"ae-3-2-5"``), and :meth:`AEParameters.from_scheme_id` is its
inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Tuple

from repro.exceptions import InvalidParametersError


class StrandClass(str, Enum):
    """The three strand classes used to weave the helical lattice."""

    HORIZONTAL = "h"
    RIGHT_HANDED = "rh"
    LEFT_HANDED = "lh"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StrandClass.{self.name}"


#: Strand classes in the order they are activated as ``alpha`` grows.
STRAND_CLASS_ORDER: Tuple[StrandClass, ...] = (
    StrandClass.HORIZONTAL,
    StrandClass.RIGHT_HANDED,
    StrandClass.LEFT_HANDED,
)


class NodeCategory(str, Enum):
    """Position of a data node within its lattice column (paper, Table I/II)."""

    TOP = "top"
    CENTRAL = "central"
    BOTTOM = "bottom"


@dataclass(frozen=True)
class AEParameters:
    """Immutable description of an AE(alpha, s, p) code setting.

    Parameters
    ----------
    alpha:
        Number of parities per data block: 1, 2 or 3, one per strand class.
    s:
        Number of horizontal strands.
    p:
        Number of helical strands per helical class.  Must be 0 when
        ``alpha == 1`` and at least ``s`` otherwise.
    """

    alpha: int
    s: int
    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.alpha, int) or self.alpha < 1:
            raise InvalidParametersError(
                f"alpha must be a positive integer, got {self.alpha!r}"
            )
        if self.alpha > len(STRAND_CLASS_ORDER):
            # A fourth parity would have to reuse a strand class, and two
            # parities of one block on one class are the same block id.
            raise InvalidParametersError(
                f"alpha must be 1, 2 or 3, got {self.alpha}: the helical "
                "lattice has three strand classes and tops out at alpha=3"
            )
        if not isinstance(self.s, int) or self.s < 1:
            raise InvalidParametersError(f"s must be a positive integer, got {self.s!r}")
        if not isinstance(self.p, int) or self.p < 0:
            raise InvalidParametersError(
                f"p must be a non-negative integer, got {self.p!r}"
            )
        if self.alpha == 1:
            if self.s != 1 or self.p != 0:
                raise InvalidParametersError(
                    "single entanglements AE(1) require s == 1 and p == 0, "
                    f"got s={self.s}, p={self.p}"
                )
        else:
            if self.p < self.s:
                raise InvalidParametersError(
                    "alpha-entanglements with alpha > 1 require p >= s "
                    f"(got s={self.s}, p={self.p}); p < s deforms the lattice"
                )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def single(cls) -> "AEParameters":
        """AE(1,-,-): one horizontal strand, one parity per data block."""
        return cls(1, 1, 0)

    @classmethod
    def double(cls, s: int, p: int) -> "AEParameters":
        """AE(2, s, p): horizontal plus one class of helical strands."""
        return cls(2, s, p)

    @classmethod
    def triple(cls, s: int, p: int) -> "AEParameters":
        """AE(3, s, p): horizontal plus right- and left-handed helical strands."""
        return cls(3, s, p)

    @classmethod
    def helical(cls, p: int) -> "AEParameters":
        """The p-HEC code of the earlier work, i.e. AE(3, 2, p)."""
        return cls(3, 2, p)

    @classmethod
    def parse(cls, text: str) -> "AEParameters":
        """Parse a textual spec such as ``"AE(3,2,5)"`` or ``"AE(1,-,-)"``."""
        cleaned = text.strip().upper()
        if cleaned.startswith("AE"):
            cleaned = cleaned[2:]
        cleaned = cleaned.strip("()")
        parts = [part.strip() for part in cleaned.split(",")]
        if not parts or not parts[0]:
            raise InvalidParametersError(f"cannot parse AE spec from {text!r}")
        alpha = int(parts[0])
        if alpha == 1:
            return cls.single()
        if len(parts) != 3:
            raise InvalidParametersError(
                f"AE spec {text!r} must provide alpha, s and p for alpha > 1"
            )
        return cls(alpha, int(parts[1]), int(parts[2]))

    @classmethod
    def from_scheme_id(cls, scheme_id: str) -> "AEParameters":
        """The setting named by ``"ae-1"`` or ``"ae-<alpha>-<s>-<p>"``."""
        family, *args = scheme_id.strip().lower().split("-")
        if family == "ae" and args == ["1"]:
            return cls.single()
        if family == "ae" and len(args) == 3 and all(part.isdigit() for part in args):
            return cls(*map(int, args))
        raise InvalidParametersError(
            f"cannot read AE parameters from {scheme_id!r}; "
            "expected ae-1 or ae-<alpha>-<s>-<p>"
        )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def strand_classes(self) -> Tuple[StrandClass, ...]:
        """Strand classes in use: H for alpha=1, +RH for alpha=2, +LH for alpha=3."""
        return STRAND_CLASS_ORDER[: self.alpha]

    @property
    def helical_class_count(self) -> int:
        """Number of helical strand classes, ``alpha - 1`` for alpha >= 2."""
        return max(self.alpha - 1, 0)

    @property
    def strand_count(self) -> int:
        """Total number of strands: ``s + (alpha - 1) * p`` (paper, Sec. III-B)."""
        return self.s + self.helical_class_count * self.p

    @property
    def code_rate(self) -> Fraction:
        """Code rate ``1 / (alpha + 1)`` when data and parities are stored."""
        return Fraction(1, self.alpha + 1)

    @property
    def parity_only_rate(self) -> Fraction:
        """Improved rate ``1 / alpha`` for systems that only store parities."""
        return Fraction(1, self.alpha)

    @property
    def storage_overhead(self) -> float:
        """Additional storage as a fraction of the original data (alpha * 100%)."""
        return float(self.alpha)

    @property
    def single_failure_cost(self) -> int:
        """Blocks read to repair any single failure; always 2 for AE codes."""
        return 2

    @property
    def is_single(self) -> bool:
        """True for AE(1,-,-)."""
        return self.alpha == 1

    @property
    def scheme_id(self) -> str:
        """Registry identifier of the setting: ``"ae-1"`` or ``"ae-<alpha>-<s>-<p>"``."""
        if self.is_single:
            return "ae-1"
        return f"ae-{self.alpha}-{self.s}-{self.p}"

    def spec(self) -> str:
        """Human readable specification, e.g. ``"AE(3,2,5)"`` or ``"AE(1,-,-)"``."""
        if self.is_single:
            return "AE(1,-,-)"
        return f"AE({self.alpha},{self.s},{self.p})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.spec()
