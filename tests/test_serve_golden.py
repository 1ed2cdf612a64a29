"""The ``memory.latency`` answers of ``serve``, pinned byte for byte.

``tests/golden/serve/memory_latency.jsonl`` asks the chase oracle the
same ladder on every registered device: footprints of 1/4, 1/2, 1,
9/8 and 2 × the device's L1 at strides of 32, 64, 128 and 4096 B,
plus 16 B and 48 B strides (sub-sector and sector-straddling walks)
at 1/4 and 9/8 × L1.  The predictions and the counters/v2 metrics
export of ``serve --no-cache`` over it are committed beside it; any
change to the chase engine must reproduce both exactly.

Regenerate (only when the model is meant to change)::

    hopperdissect serve --no-cache \\
        --input tests/golden/serve/memory_latency.jsonl \\
        -o tests/golden/serve/memory_latency.predictions.jsonl \\
        --metrics tests/golden/serve/memory_latency.metrics.json
"""

from __future__ import annotations

from pathlib import Path

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden" / "serve"


def test_memory_latency_serve_golden(tmp_path, capsys):
    out = tmp_path / "predictions.jsonl"
    metrics = tmp_path / "metrics.json"
    rc = main(["serve", "--no-cache",
               "--input", str(GOLDEN / "memory_latency.jsonl"),
               "-o", str(out), "--metrics", str(metrics)])
    capsys.readouterr()
    assert rc == 0
    assert out.read_bytes() == \
        (GOLDEN / "memory_latency.predictions.jsonl").read_bytes()
    assert metrics.read_bytes() == \
        (GOLDEN / "memory_latency.metrics.json").read_bytes()
