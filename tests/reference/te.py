"""Scalar references for the batched Transformer-Engine cost paths.

* :func:`seconds_grid_scalar` prices every grid point through the
  per-point ``op_costs`` walk — the reference for
  :meth:`repro.te.modules.Module.seconds_grid`.
* :func:`estimate_workload_scalar` runs one
  :meth:`~repro.te.llm.LlmInferenceModel.estimate` per batch group —
  the pre-vectorization walk behind
  :meth:`~repro.te.llm.LlmInferenceModel.estimate_workload`.
"""

from __future__ import annotations

import numpy as np

from repro.te.cost import CostModel, Precision
from repro.te.llm import GenerationEstimate
from repro.te.workload import ShareGptWorkload
from repro.te.modules import Module

__all__ = ["estimate_workload_scalar", "seconds_grid_scalar"]


def seconds_grid_scalar(module: Module, cost_model: CostModel, tokens,
                        precision: Precision, **kw) -> np.ndarray:
    """Price every grid point through the scalar ``op_costs`` walk."""
    tokens = np.asarray(tokens)
    flat = [sum(o.seconds for o in
                module.op_costs(cost_model, int(t), precision, **kw))
            for t in tokens.ravel()]
    return np.array(flat).reshape(tokens.shape)


def estimate_workload_scalar(m, model, precision: Precision, *,
                             n_requests: int = 64, batch: int = 8,
                             seed: int = 0) -> GenerationEstimate:
    """One ``m.estimate`` per batch group of the synthetic ShareGPT
    stream."""
    wl = ShareGptWorkload(seed=seed)
    total_text = 0
    total_time = 0.0
    for group in wl.batches(n_requests, batch):
        max_in = max(r.input_len for r in group)
        max_out = max(r.output_len for r in group)
        est = m.estimate(model, precision, batch=len(group),
                         input_len=max_in, output_len=max_out)
        if est.status != "ok":
            return est
        total_text += sum(r.total_len for r in group)
        total_time += est.prefill_s + max_out * est.decode_step_s
    return GenerationEstimate(
        tokens_per_second=total_text / total_time,
        status="ok",
    )
