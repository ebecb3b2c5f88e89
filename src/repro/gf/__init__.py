"""GF(2^8) arithmetic substrate for Reed-Solomon coding.

Pure-NumPy implementation of the field the Golang ``reedsolomon`` library
uses: GF(2^8) with the primitive polynomial ``x^8 + x^4 + x^3 + x^2 + 1``
(0x11D). Element multiplication and division are exp/log table lookups; a
whole chunk times one scalar is a ``bytes.translate`` through that scalar's
256-byte product table, so the data path has no Python-level inner loops.
"""

from repro.gf.arithmetic import gf_mul_scalar, gf_mul_add_scalar
from repro.gf.matrix import gf_mat_mul, gf_mat_inv, gf_rs_encoding_matrix

__all__ = [
    "gf_mul_scalar",
    "gf_mul_add_scalar",
    "gf_mat_mul",
    "gf_mat_inv",
    "gf_rs_encoding_matrix",
]
