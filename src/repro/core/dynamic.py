"""Dynamic fault tolerance: the parameter epochs of one archive.

One of the distinguishing properties of alpha entanglement codes is that the
parameters can evolve over the lifetime of an archive (paper, Sec. I and
III-B):

* **raising alpha** adds strand classes.  Strand wiring depends on ``(s, p)``
  alone, so the existing parities stay valid and no stored block is
  rewritten: encoding the stored data blocks once more under the raised
  setting reproduces them bit for bit and adds the new classes.  A live
  service does exactly that (``repro.system.transitions``, ``alpha-raise``);
* **changing s and/or p** re-wires the helical geometry.  Existing parities
  remain valid for the region of the lattice encoded under the old setting;
  new data is entangled under the new setting.  The library models this with
  *parameter epochs*: a position-indexed history of settings.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator, List

from repro.core.parameters import AEParameters
from repro.exceptions import InvalidParametersError


@dataclass(frozen=True)
class ParameterEpoch:
    """A contiguous region of the lattice encoded with one parameter setting."""

    first_index: int
    params: AEParameters

    def contains(self, index: int) -> bool:
        return index >= self.first_index


@dataclass
class EpochHistory:
    """Position-indexed history of parameter settings for one archive."""

    epochs: List[ParameterEpoch] = field(default_factory=list)

    @classmethod
    def starting_with(cls, params: AEParameters) -> "EpochHistory":
        return cls([ParameterEpoch(1, params)])

    def params_at(self, index: int) -> AEParameters:
        """The parameters in force at lattice position ``index``."""
        if not self.epochs:
            raise InvalidParametersError("epoch history is empty")
        starts = [epoch.first_index for epoch in self.epochs]
        slot = bisect_right(starts, index) - 1
        if slot < 0:
            raise InvalidParametersError(
                f"no parameter epoch covers position {index}"
            )
        return self.epochs[slot].params

    def change(self, first_index: int, params: AEParameters) -> None:
        """Switch to ``params`` starting at lattice position ``first_index``."""
        if self.epochs and first_index <= self.epochs[-1].first_index:
            raise InvalidParametersError(
                "parameter changes must use strictly increasing start positions"
            )
        self.epochs.append(ParameterEpoch(first_index, params))

    def __iter__(self) -> Iterator[ParameterEpoch]:
        return iter(self.epochs)
