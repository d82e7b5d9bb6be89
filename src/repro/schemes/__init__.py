"""String-keyed registry of redundancy schemes.

Every scheme the evaluation compares is reachable from one identifier::

    import repro.schemes as schemes

    scheme = schemes.get("ae-3-2-5")      # alpha entanglement AE(3,2,5)
    scheme = schemes.get("rs-10-4")       # Reed-Solomon RS(10,4)
    scheme = schemes.get("lrc-azure")     # Azure LRC(12,2,2)
    scheme = schemes.get("lrc-xorbas")    # HDFS-Xorbas LRC(10,2,4)
    scheme = schemes.get("rep-3")         # 3-way replication
    scheme = schemes.get("xor-geo")       # Facebook warm-BLOB geo XOR
    scheme = schemes.get("xor-raid5-5")   # RAID-5 single parity over 5 blocks

Identifiers are ``family-args`` strings; :func:`available` lists the
families.  :func:`resolve` accepts every way the library names a scheme -- an
identifier, an :class:`~repro.core.parameters.AEParameters` setting, a bare
:class:`~repro.codes.base.StripeCode` or a scheme instance.  New families are added with :func:`register` -- the factory
receives the dash-separated argument list and the block size and returns a
:class:`~repro.schemes.base.RedundancyScheme` instance.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Union

from repro.codes.base import StripeCode
from repro.codes.lrc import LocalReconstructionCode, azure_lrc, xorbas_lrc
from repro.codes.flat_xor import FlatXorCode, geo_xor_code, mirrored_pairs_code, raid5_code
from repro.codes.reed_solomon import ReedSolomonCode
from repro.codes.replication import ReplicationCode
from repro.core.parameters import AEParameters
from repro.exceptions import InvalidParametersError
from repro.schemes.base import (
    BlockSource,
    EncodedPart,
    RedundancyScheme,
    SchemeCapabilities,
    SchemeRepairOutcome,
    SchemeScrubOutcome,
)
from repro.schemes.stripe import StripeBlockId, StripeScheme

__all__ = [
    "BlockSource",
    "DEFAULT_SCHEME",
    "EncodedPart",
    "RedundancyScheme",
    "SchemeCapabilities",
    "SchemeRepairOutcome",
    "SchemeScrubOutcome",
    "StripeBlockId",
    "StripeScheme",
    "available",
    "get",
    "register",
    "resolve",
]

#: The flagship setting of the paper, used wherever a default is needed.
DEFAULT_SCHEME = "ae-3-2-5"

#: A factory builds a scheme from the dash-separated id arguments.
SchemeFactory = Callable[[str, Sequence[str], int], RedundancyScheme]

_FAMILIES: Dict[str, SchemeFactory] = {}
_EXAMPLES: Dict[str, str] = {}


def register(family: str, factory: SchemeFactory, example: str) -> None:
    """Register a scheme family under ``family`` (the id prefix)."""
    _FAMILIES[family.lower()] = factory
    _EXAMPLES[family.lower()] = example


def available() -> Dict[str, str]:
    """Registered families mapped to an example identifier."""
    return dict(_EXAMPLES)


def get(scheme_id: str, block_size: int = 4096) -> RedundancyScheme:
    """Resolve a scheme identifier to a fresh scheme instance."""
    cleaned = scheme_id.strip().lower()
    family, _, rest = cleaned.partition("-")
    if family not in _FAMILIES:
        raise InvalidParametersError(
            f"unknown redundancy scheme {scheme_id!r}; families: "
            + ", ".join(sorted(_FAMILIES))
        )
    args = [part for part in rest.split("-") if part] if rest else []
    try:
        return _FAMILIES[family](cleaned, args, block_size)
    except (ValueError, IndexError) as exc:
        raise InvalidParametersError(
            f"cannot parse scheme id {scheme_id!r} "
            f"(example: {_EXAMPLES[family]!r}): {exc}"
        ) from exc


#: Every way of naming a scheme :func:`resolve` accepts.
SchemeLike = Union[str, AEParameters, StripeCode, RedundancyScheme]


def resolve(scheme: SchemeLike, block_size: int = 4096) -> RedundancyScheme:
    """A scheme instance from a registry id, an AE setting, a bare stripe
    code or an instance (returned as is, whatever its block size)."""
    if isinstance(scheme, RedundancyScheme):
        return scheme
    if isinstance(scheme, str):
        return get(scheme, block_size)
    if isinstance(scheme, AEParameters):
        return get(scheme.scheme_id, block_size)
    if isinstance(scheme, StripeCode):
        return StripeScheme(scheme, f"stripe-{scheme.name}", block_size)
    raise InvalidParametersError(
        f"cannot resolve {scheme!r} to a redundancy scheme; name it by registry "
        "id ('rs-10-4', 'rep-3', 'ae-3-2-5', ...), AEParameters, StripeCode or "
        "a scheme instance"
    )


# ----------------------------------------------------------------------
# Built-in families
# ----------------------------------------------------------------------
def _ae_factory(scheme_id: str, args: Sequence[str], block_size: int) -> RedundancyScheme:
    # Imported lazily: repro.codes.entanglement imports this package.
    from repro.codes.entanglement import EntanglementScheme, PuncturedEntanglementScheme

    # ae-1 | ae-<alpha>-<s>-<p>, optionally followed by -p<keep%>: a
    # rate-punctured variant storing only keep% of the parities (paper
    # Sec. III-B).
    base, punctured, keep = scheme_id.partition("-p")
    params = AEParameters.from_scheme_id(base)
    if not punctured:
        return EntanglementScheme(params, block_size=block_size, scheme_id=scheme_id)
    percent = int(keep)
    if not 0 < percent <= 100:
        raise ValueError("puncture keep percentage must be in (0, 100]")
    return PuncturedEntanglementScheme(
        params, percent / 100.0, block_size=block_size, scheme_id=scheme_id
    )


def _rs_factory(scheme_id: str, args: Sequence[str], block_size: int) -> RedundancyScheme:
    if len(args) != 2:
        raise ValueError("expected rs-<k>-<m>")
    return StripeScheme(
        ReedSolomonCode(int(args[0]), int(args[1])), scheme_id, block_size
    )


def _lrc_factory(scheme_id: str, args: Sequence[str], block_size: int) -> RedundancyScheme:
    if args == ["azure"]:
        code: LocalReconstructionCode = azure_lrc()
    elif args == ["xorbas"]:
        code = xorbas_lrc()
    elif len(args) == 3:
        code = LocalReconstructionCode(int(args[0]), int(args[1]), int(args[2]))
    else:
        raise ValueError("expected lrc-azure, lrc-xorbas or lrc-<k>-<l>-<r>")
    return StripeScheme(code, scheme_id, block_size)


def _rep_factory(scheme_id: str, args: Sequence[str], block_size: int) -> RedundancyScheme:
    if len(args) != 1:
        raise ValueError("expected rep-<copies>")
    return StripeScheme(ReplicationCode(int(args[0])), scheme_id, block_size)


def _xor_factory(scheme_id: str, args: Sequence[str], block_size: int) -> RedundancyScheme:
    if args == ["geo"]:
        code: FlatXorCode = geo_xor_code()
    elif len(args) == 2 and args[0] == "raid5":
        code = raid5_code(int(args[1]))
    elif len(args) == 2 and args[0] == "mirror":
        code = mirrored_pairs_code(int(args[1]))
    else:
        raise ValueError("expected xor-geo, xor-raid5-<k> or xor-mirror-<k>")
    return StripeScheme(code, scheme_id, block_size)


register("ae", _ae_factory, "ae-3-2-5")
register("rs", _rs_factory, "rs-10-4")
register("lrc", _lrc_factory, "lrc-azure")
register("rep", _rep_factory, "rep-3")
register("xor", _xor_factory, "xor-geo")
