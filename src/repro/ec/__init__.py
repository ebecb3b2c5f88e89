"""Reed-Solomon erasure coding with partial (incremental) reconstruction.

Mirrors the two modules of the paper's Golang prototype:

* the *encoding module* — :class:`RSCode` wraps ``split`` / ``encode`` /
  ``join`` (the ``Encoder.Split`` / ``Encoder.Encode`` APIs);
* the *repair module*'s coding primitive — :class:`PartialDecoder` is the
  Python analogue of the paper's ``Encoder.RecoverWithSomeShards``
  extension: it folds surviving shards into running partial sums one repair
  round at a time, so only ``P_a`` chunks (plus the accumulators) ever live
  in memory.
"""

from repro.ec.stripe import ChunkId, Stripe, StripeLayout
from repro.ec.encoder import RSCode
from repro.ec.decoder import decode_matrix_for, reconstruct
from repro.ec.lrc import LRCCode
from repro.ec.partial import PartialDecoder

__all__ = [
    "ChunkId",
    "Stripe",
    "StripeLayout",
    "RSCode",
    "LRCCode",
    "decode_matrix_for",
    "reconstruct",
    "PartialDecoder",
]
