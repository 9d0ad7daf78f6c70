"""Correctness checks on the records a pass produces.

A cell fails when its status is ``failed`` (a crashed solve) or when it
disagrees with the expected digest: the committed reference at seeds that
have one, otherwise the first cold pass of the same run (passes must
repeat bit for bit).  Warm replays must return records byte-identical to
the cold pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import struct

REFERENCE_DIR = pathlib.Path(__file__).resolve().parent / "reference"

ERROR_FIELDS = (
    "eigenvalue_relative_error",
    "eigenvector_relative_error",
    "eigenvalue_absolute_error",
    "eigenvector_absolute_error",
)


def cell_key(record) -> str:
    return f"{record.matrix}|{record.format}"


def cell_digest(record) -> list:
    """``[status, restarts, matvecs, rounded_ops, SHA-256 of the error
    fields]`` of one record (the errors hashed as little-endian float64)."""
    errors = struct.pack("<4d", *(float(getattr(record, f)) for f in ERROR_FIELDS))
    return [
        record.status,
        int(record.restarts),
        int(record.matvecs),
        int(record.rounded_ops),
        hashlib.sha256(errors).hexdigest(),
    ]


def digests(records) -> dict:
    return {cell_key(r): cell_digest(r) for r in records}


def failed_cells(observed: dict, expected: dict) -> list:
    """Keys of the cells that crashed or differ from ``expected``."""
    return sorted(
        key
        for key, digest in observed.items()
        if digest[0] == "failed" or expected.get(key) != digest
    )


def record_bytes(record) -> str:
    """Canonical JSON of a record, for byte-identity between passes."""
    return json.dumps(dataclasses.asdict(record), sort_keys=True)


def warm_mismatches(cold_records, warm_records) -> list:
    """Keys of the cells whose warm replay is not byte-identical to the
    cold record (every cell when the replay lost or added records)."""
    if len(cold_records) != len(warm_records):
        return sorted({cell_key(r) for r in (*cold_records, *warm_records)})
    return [
        cell_key(a)
        for a, b in zip(cold_records, warm_records)
        if record_bytes(a) != record_bytes(b)
    ]


def reference_path(seed: int) -> pathlib.Path:
    return REFERENCE_DIR / f"seed{seed}.json"


def load_reference(seed: int, key: str):
    """The committed digests of reference ``key`` at ``seed``, or ``None``."""
    path = reference_path(seed)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(key)


def write_reference(seed: int, by_key: dict) -> pathlib.Path:
    path = reference_path(seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(by_key, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path
