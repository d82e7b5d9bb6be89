"""Redundancy code implementations and the scheme registry surface.

The subpackage implements every code family of the paper's evaluation:
alpha entanglement (:class:`EntanglementScheme`, the protocol adapter over
the helical lattice) and the stripe-code baselines -- systematic
Reed-Solomon over GF(2^8), Azure/Xorbas Local Reconstruction Codes, flat
XOR codes and n-way replication -- as generator matrices of the one
stripe codec, :class:`repro.codes.base.StripeCode`.  The scheme registry of
:mod:`repro.schemes` is re-exported here (:func:`get_scheme`,
:func:`register_scheme`, :func:`available_schemes`) so ``repro.codes`` is a
one-stop import surface: every class a registry identifier resolves to is
in ``__all__``.
"""

from repro.codes.base import CodeCosts, StripeCode
from repro.codes.flat_xor import FlatXorCode, geo_xor_code, mirrored_pairs_code, raid5_code
from repro.codes.lrc import LocalReconstructionCode, azure_lrc, xorbas_lrc
from repro.codes.gf256 import (
    FIELD_SIZE,
    GROUP_ORDER,
    PRIMITIVE_POLYNOMIAL,
    PackedMatrix,
    gf_add,
    gf_div,
    gf_dot_bytes,
    gf_inverse,
    gf_matmul,
    gf_matmul_bytes,
    gf_matrix_inverse,
    gf_mul,
    gf_mul_bytes,
    gf_pack_matrix,
    gf_pivot_rows,
    gf_pow,
    gf_sub,
    vandermonde_matrix,
)
from repro.codes.reed_solomon import (
    PAPER_RS_SETTINGS,
    ReedSolomonCode,
    paper_rs_codes,
    systematic_encoding_matrix,
)
from repro.codes.replication import (
    PAPER_REPLICATION_FACTORS,
    ReplicationCode,
    paper_replication_codes,
)
from repro.codes.entanglement import (
    EntanglementScheme,
    PuncturedEntanglementScheme,
    punctured_scheme_id,
)

#: Names re-exported from :mod:`repro.schemes`; resolved lazily through the
#: module ``__getattr__`` below because repro.schemes imports the concrete
#: code modules of this package (a package-level cycle otherwise).
_SCHEME_EXPORTS = {
    "DEFAULT_SCHEME": "DEFAULT_SCHEME",
    "RedundancyScheme": "RedundancyScheme",
    "SchemeCapabilities": "SchemeCapabilities",
    "StripeBlockId": "StripeBlockId",
    "StripeScheme": "StripeScheme",
    "available_schemes": "available",
    "get_scheme": "get",
    "register_scheme": "register",
}


def __getattr__(name: str) -> object:
    if name in _SCHEME_EXPORTS:
        import repro.schemes as _schemes

        return getattr(_schemes, _SCHEME_EXPORTS[name])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CodeCosts",
    "DEFAULT_SCHEME",
    "EntanglementScheme",
    "FIELD_SIZE",
    "FlatXorCode",
    "GROUP_ORDER",
    "LocalReconstructionCode",
    "PAPER_REPLICATION_FACTORS",
    "PAPER_RS_SETTINGS",
    "PRIMITIVE_POLYNOMIAL",
    "PackedMatrix",
    "PuncturedEntanglementScheme",
    "RedundancyScheme",
    "ReedSolomonCode",
    "ReplicationCode",
    "SchemeCapabilities",
    "StripeBlockId",
    "StripeCode",
    "StripeScheme",
    "available_schemes",
    "azure_lrc",
    "geo_xor_code",
    "get_scheme",
    "gf_add",
    "gf_div",
    "gf_dot_bytes",
    "gf_inverse",
    "gf_matmul",
    "gf_matmul_bytes",
    "gf_matrix_inverse",
    "gf_mul",
    "gf_mul_bytes",
    "gf_pack_matrix",
    "gf_pivot_rows",
    "gf_pow",
    "gf_sub",
    "mirrored_pairs_code",
    "paper_replication_codes",
    "paper_rs_codes",
    "punctured_scheme_id",
    "raid5_code",
    "register_scheme",
    "systematic_encoding_matrix",
    "vandermonde_matrix",
    "xorbas_lrc",
]
