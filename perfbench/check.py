"""Output checks: the experiment's own gates and the recorded reference.

A reference entry holds the exact-math part of a spec's result at the
commit that recorded it: the rows without the workload's seeded
Monte-Carlo fields, and `violations`. Row lists longer than
`DIGEST_ROWS` are stored as per-column digests instead of in full.
Numbers must agree within `TOL` (the tests' tolerance), everything else
exactly.
"""

from __future__ import annotations

import hashlib
import math

TOL = 1e-9
DIGEST_ROWS = 20


def gate_failure(result: dict):
    """Why the experiment's own checks reject this result, or None."""
    if result.get("violations", 0):
        return f"violations={result['violations']}"
    for row in result.get("rows", []):
        if row.get("keys_equal") is False and not row.get("refused"):
            return "keys_equal=false without refused"
    return None


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _digest(rows: list) -> dict:
    cols = {}
    for key in sorted({k for row in rows for k in row}):
        vals = [row.get(key) for row in rows]
        if all(_is_num(v) for v in vals):
            cols[key] = {"sum": math.fsum(vals),
                         "weighted": math.fsum((i + 1) * v
                                               for i, v in enumerate(vals)),
                         "scale": math.fsum(abs(v) * (i + 1)
                                            for i, v in enumerate(vals))}
        else:
            text = "\n".join(repr(v) for v in vals)
            cols[key] = {"sha256": hashlib.sha256(text.encode()).hexdigest()}
    return {"digest_of_rows": len(rows), "columns": cols}


def exact_part(result: dict, mc_fields) -> dict:
    """The part of a result that must match the reference."""
    rows = [{k: v for k, v in row.items() if k not in mc_fields}
            for row in result["rows"]]
    return {"violations": result.get("violations", 0),
            "rows": _digest(rows) if len(rows) > DIGEST_ROWS else rows}


def mismatch(ref, got, path="result"):
    """Path of the first difference beyond tolerance, or None."""
    if isinstance(ref, dict) and "digest_of_rows" in ref \
            and isinstance(got, dict) and "digest_of_rows" in got:
        if ref["digest_of_rows"] != got["digest_of_rows"]:
            return f"{path}: row count"
        for key, rc in ref["columns"].items():
            gc = got["columns"].get(key)
            if gc is None or rc.keys() != gc.keys():
                return f"{path}.{key}"
            if "sha256" in rc:
                if rc != gc:
                    return f"{path}.{key}"
                continue
            tol = TOL * max(1.0, rc["scale"])
            if abs(rc["sum"] - gc["sum"]) > tol \
                    or abs(rc["weighted"] - gc["weighted"]) > tol:
                return f"{path}.{key}"
        return mismatch(sorted(ref["columns"]), sorted(got["columns"]), path)
    if isinstance(ref, dict):
        if not isinstance(got, dict) or ref.keys() != got.keys():
            return path
        for k in ref:
            bad = mismatch(ref[k], got[k], f"{path}.{k}")
            if bad:
                return bad
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return path
        for i, (r, g) in enumerate(zip(ref, got)):
            bad = mismatch(r, g, f"{path}[{i}]")
            if bad:
                return bad
        return None
    if _is_num(ref) and _is_num(got):
        return None if abs(ref - got) <= TOL * max(1.0, abs(ref)) else path
    return None if ref == got and type(ref) is type(got) else path
