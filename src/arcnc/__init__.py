"""Adaptive random convolutional network coding: simulator and analysis.

Modules:
  gf        -- finite field arithmetic (prime and GF(2^k))
  polyalg   -- polynomials, polynomial matrices, decodability, decoding
  topology  -- network model, generators, flow machinery
  engine    -- the time-stepped adaptive coding protocol
  baseline  -- one-shot RLNC comparison baseline
  analysis  -- exact closed-form bounds, the paper's series, the law of T
  harness   -- command line interface
"""

__version__ = "1.0.0"
