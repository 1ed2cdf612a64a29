"""Scalar reference implementations the equivalence suites compare
against.

Each module here is the original one-step-at-a-time form of a fast
path the package ships — obviously correct, deliberately slow, and
run only by the tests:

* :mod:`reference.cache` — :class:`ScalarSetAssociativeCache`, the
  per-set list cache behind :class:`repro.memory.SetAssociativeCache`;
* :mod:`reference.chase` — the one-``load()``-per-hop chase loop
  behind :class:`repro.memory.ChaseEngine`, and :class:`ScalarPChase`,
  the P-chase probes run on it;
* :mod:`reference.te` — the per-point ``op_costs`` grid walk and the
  per-group LLM workload walk behind the batched TE cost paths.

The tensor-core sweeps need no twin here: their reference is the
per-instruction ``TensorCoreTimingModel.mma``/``wgmma`` pricing.
"""
