#!/usr/bin/env python
"""Validate counter dumps against the counters/v2 schema.

Usage::

    python benchmarks/validate_counters.py COUNTERS.json [MORE ...]

Each file must carry the ``hopperdissect.counters/v2`` schema tag —
the labeled dump written by ``--metrics PATH.json``
(:meth:`repro.obs.ObsSession.write_counters_v2`): run-level
``labels`` (string→string), ``experiments`` mapping experiment names
to counter banks, an ``orchestration`` bank for counters fired
outside any experiment, and canonical serialization in the v2 key
order (schema, context, labels, experiments sorted by name,
orchestration; counters in ``counter_sort_key`` order — histogram
buckets numeric by bound, *not* plain ``sort_keys``).  Any other
schema tag is rejected as unknown.

Every bank is monotonic — a negative value means a broken merge.
Exit code 0 when every file validates; prints one summary line per
file.  CI runs this as the counter-schema smoke step next to
``validate_trace.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.counters import counter_sort_key  # noqa: E402

_SCHEMA_V2 = "hopperdissect.counters/v2"
_KEYS_V2 = {"schema", "context", "labels", "experiments",
            "orchestration"}


def _check_bank(path: Path, where: str, counters) -> int:
    if not isinstance(counters, dict):
        raise ValueError(f"{path}: {where} must be an object")
    for name, value in counters.items():
        if not name or not isinstance(name, str):
            raise ValueError(
                f"{path}: bad counter name {name!r} in {where}")
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 0:
            raise ValueError(
                f"{path}: counter {name!r} in {where} has "
                f"non-monotonic or non-integer value {value!r}")
    names = list(counters)
    if names != sorted(names, key=counter_sort_key):
        raise ValueError(
            f"{path}: {where} not in canonical counter order")
    return len(counters)


def _check_context(path: Path, payload) -> None:
    ctx = payload["context"]
    if ctx is not None and not isinstance(ctx, str):
        raise ValueError(f"{path}: context must be a string or null")


def _validate_v2(path: Path, raw: str, payload: dict) -> int:
    if set(payload) != _KEYS_V2:
        raise ValueError(
            f"{path}: keys {sorted(payload)} != {sorted(_KEYS_V2)}")
    _check_context(path, payload)
    labels = payload["labels"]
    if not isinstance(labels, dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in labels.items()):
        raise ValueError(
            f"{path}: labels must map strings to strings")
    experiments = payload["experiments"]
    if not isinstance(experiments, dict):
        raise ValueError(f"{path}: experiments must be an object")
    total = 0
    for exp, bank in experiments.items():
        if not exp or not isinstance(exp, str):
            raise ValueError(f"{path}: bad experiment name {exp!r}")
        total += _check_bank(path, f"experiments[{exp!r}]", bank)
    if list(experiments) != sorted(experiments):
        raise ValueError(
            f"{path}: experiments not sorted by name")
    total += _check_bank(path, "orchestration",
                         payload["orchestration"])
    # v2 canonical form is the writer's exact key order — re-serialize
    # without re-sorting
    canonical = json.dumps(payload, sort_keys=False,
                           separators=(",", ":")) + "\n"
    if raw != canonical:
        raise ValueError(
            f"{path}: not in canonical v2 form (writer key order, "
            "compact separators, trailing newline)")
    return total


def validate(path: Path) -> int:
    raw = path.read_text()
    payload = json.loads(raw)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: top level must be an object")
    schema = payload.get("schema")
    if schema != _SCHEMA_V2:
        raise ValueError(
            f"{path}: unknown schema {schema!r} (expected "
            f"{_SCHEMA_V2!r})")
    return _validate_v2(path, raw, payload)


def main(argv) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: validate_counters.py COUNTERS [COUNTERS ...]",
              file=sys.stderr)
        return 2
    for arg in argv:
        n = validate(Path(arg))
        print(f"{arg}: OK ({n} counters)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
