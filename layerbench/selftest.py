"""Self-test of the layer benchmark: a tiny run of every workload.

Run from the repository root::

    python3 layerbench/selftest.py

For each workload it runs ``run.py --tiny`` untraced and traced and
asserts that the last line is the result object, that every metric
``BENCHMARK.json`` lists for that mode is emitted with its unit, that
the output checks pass, and that both runs of one seed print the same
output digest.  It then checks that the benchmark refuses to run,
without printing a result, in a directory holding only
``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
RUN = ["python3", "layerbench/run.py"]
#: the user-facing figures each workload prints under its own names
FIGURE_NAMES = {
    "suite": ("suite_cold_s", "suite_warm_s"),
    "oracle-mix": ("oracle_qps", "oracle_batch_p50_ms",
                   "oracle_batch_tail_ms", "oracle_rerun_qps"),
    "fuzz-sweep": ("fuzz_scenarios_per_s",),
}


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        RUN + ["--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _check_result(spec, workload: str, trace: int, proc) -> str:
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n" \
        f"{proc.stderr[-2000:]}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        f"{where}: result keys {sorted(result)}"
    assert result["correct"] is True, f"{where}: output checks failed\n" \
        + "\n".join(line for line in lines if "PROBLEM" in line)
    assert result["failed"] == 0 and result["attempted"] >= 1, where
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{where}: metrics/units differ from " \
        f"BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (where, name)
    for name in FIGURE_NAMES[workload]:
        assert any(line.startswith(f"{name} = ") for line in lines), \
            f"{where}: no {name} line"
    digest = [line for line in lines if line.startswith("output sha256:")]
    assert len(digest) == 1, f"{where}: no output digest"
    return digest[0]


def _check_refuses_without_program() -> None:
    """Only BENCHMARK.json and the benchmark's files: must fail."""
    (ROOT / ".layerbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".layerbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in json.loads((ROOT / "BENCHMARK.json").read_text())["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("suite", 0, cwd=bare)
        assert proc.returncode != 0, "ran without the program"
        assert '"correct"' not in proc.stdout, "printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in FIGURE_NAMES:
        digests = {_check_result(spec, workload, trace,
                                 _run(workload, trace))
                   for trace in (0, 1)}
        assert len(digests) == 1, f"{workload}: digests differ {digests}"
        print(f"ok {workload}: {digests.pop()}")
    _check_refuses_without_program()
    print("ok refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
