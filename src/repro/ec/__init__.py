"""Reed-Solomon erasure coding with partial (incremental) reconstruction.

Mirrors the two modules of the paper's Golang prototype:

* the *encoding module* — :class:`~repro.ec.encoder.RSCode` wraps
  ``split`` / ``encode`` / ``join`` (the ``Encoder.Split`` /
  ``Encoder.Encode`` APIs);
* the *repair module*'s coding primitive —
  :class:`~repro.ec.partial.PartialDecoder` is the Python analogue of the
  paper's ``Encoder.RecoverWithSomeShards`` extension: it folds surviving
  shards into running partial sums one repair round at a time, so only
  ``P_a`` chunks (plus the accumulators) ever live in memory.
"""
