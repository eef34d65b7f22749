"""Golden per-operation outcomes for the seeds the benchmark ships.

One JSON file per (workload, seed) under ``golden/<workload>/``: the
virtual-cycle outcome of every operation of one pass (identical in all
three cache regimes), the ``extra`` behaviour that is not per
operation, and a readable summary.  Floats round-trip exactly through
JSON, so comparison is exact.

Record or refresh the files only when a change means to move virtual
outcomes::

    python3 perfbench/golden.py --seeds 0-9 [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

DEFAULT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def path(directory: str, workload_name: str, seed: int) -> str:
    return os.path.join(directory, workload_name, f"seed-{seed}.json")


def load(directory: str, workload) -> dict | None:
    """The golden outcomes of this workload's seed, if shipped."""
    try:
        with open(path(directory, workload.name, workload.seed)) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def _rows(items: list, indent: str) -> str:
    """A JSON list with one item per line."""
    if not items:
        return "[]"
    body = ",\n".join(f"{indent} {json.dumps(item)}" for item in items)
    return f"[\n{body}\n{indent}]"


def dump(data: dict) -> str:
    """Golden file text: one operation (or event) per line, so a diff
    of two recordings shows which operations moved."""
    extra = ",\n".join(
        f'  {json.dumps(key)}: {_rows(rows, "  ")}' for key, rows in data["extra"].items()
    )
    return "".join([
        "{\n",
        f' "workload": {json.dumps(data["workload"])},\n',
        f' "seed": {data["seed"]},\n',
        f' "summary": {json.dumps(data["summary"])},\n',
        f' "extra": {{\n{extra}\n }},\n' if extra else ' "extra": {},\n',
        f' "outcomes": {_rows(data["outcomes"], " ")}\n',
        "}\n",
    ])


def save(directory: str, workload, first: dict) -> None:
    target = path(directory, workload.name, workload.seed)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    data = {
        "workload": workload.name,
        "seed": workload.seed,
        "summary": workload.summary(first["outcomes"], first["extra"]),
        "extra": first["extra"],
        "outcomes": first["outcomes"],
    }
    with open(target, "w") as fh:
        fh.write(dump(data))


def mismatches(want: list, got: list) -> list[tuple[int, object, object]]:
    """``(op, expected, actual)`` for every operation that differs."""
    bad = [(i, w, g) for i, (w, g) in enumerate(zip(want, got, strict=False)) if w != g]
    for i in range(min(len(want), len(got)), max(len(want), len(got))):
        bad.append((i, want[i] if i < len(want) else None, got[i] if i < len(got) else None))
    return bad


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    from run import WORKLOAD_NAMES, BenchError, spawn

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 0-9")
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = parser.parse_args()
    for name in args.workload or WORKLOAD_NAMES:
        for seed in args.seeds:
            try:
                result = spawn(name, seed, budget=1e-9, extra=["--record"])
            except BenchError as exc:
                print(f"{name} seed {seed}: {exc}", file=sys.stderr)
                return 1
            if result["failed"]:
                print(f"{name} seed {seed}: not recorded: {result['messages']}", file=sys.stderr)
                return 1
            print(f"recorded {path(DEFAULT_DIR, name, seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
