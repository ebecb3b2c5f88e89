"""GF(2^8) arithmetic substrate for Reed-Solomon coding.

Pure-NumPy implementation of the field the Golang ``reedsolomon`` library
uses: GF(2^8) with the primitive polynomial ``x^8 + x^4 + x^3 + x^2 + 1``
(0x11D). Element multiplication and division are exp/log table lookups; a
whole chunk times one scalar is a ``bytes.translate`` through that scalar's
256-byte product table, so the data path has no Python-level inner loops.
"""

from repro.gf.tables import (
    FIELD_SIZE,
    GENERATOR,
    PRIMITIVE_POLY,
    exp_table,
    log_table,
)
from repro.gf.arithmetic import (
    gf_add,
    gf_sub,
    gf_mul,
    gf_div,
    gf_pow,
    gf_inv,
    gf_mul_scalar,
    gf_mul_add_scalar,
)
from repro.gf.matrix import (
    gf_identity,
    gf_independent_rows,
    gf_mat_mul,
    gf_mat_vec,
    gf_mat_inv,
    gf_vandermonde,
    gf_cauchy,
    gf_rs_encoding_matrix,
    gf_mat_rank,
)

__all__ = [
    "FIELD_SIZE",
    "GENERATOR",
    "PRIMITIVE_POLY",
    "exp_table",
    "log_table",
    "gf_add",
    "gf_sub",
    "gf_mul",
    "gf_div",
    "gf_pow",
    "gf_inv",
    "gf_mul_scalar",
    "gf_mul_add_scalar",
    "gf_identity",
    "gf_independent_rows",
    "gf_mat_mul",
    "gf_mat_vec",
    "gf_mat_inv",
    "gf_vandermonde",
    "gf_cauchy",
    "gf_rs_encoding_matrix",
    "gf_mat_rank",
]
