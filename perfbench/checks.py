"""Output checks. Each returns a list of problems; empty means correct.

Repeated runs are compared with each other inside one benchmark invocation,
never with a stored digest, so a change that legitimately alters the
program's random draws still passes as long as it stays deterministic.

The checks stream their files row by row, so the benchmark process's peak
RSS stays the program's own.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import struct
from pathlib import Path

LEDGER_TERMS = ("revenue_da", "revenue_rt", "cost_marginal", "cost_startup", "penalty")
# Relative to the sum of the terms' magnitudes: a few ulps of a five-term
# float64 sum.
LEDGER_RTOL = 1e-12


def file_digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def digest_tree(root: Path) -> dict:
    """sha256 of every file under ``root``, keyed by relative path."""
    root = Path(root)
    return {
        str(p.relative_to(root)): file_digest(p)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def compare_digests(reference: dict, current: dict) -> list:
    problems = []
    for name in sorted(set(reference) | set(current)):
        if name not in current:
            problems.append(f"{name}: missing in repeat")
        elif name not in reference:
            problems.append(f"{name}: not produced by the first run")
        elif reference[name] != current[name]:
            problems.append(f"{name}: differs from the first run of the same seed")
    return problems


def csv_rows(fh):
    """The rows of an open CSV file, ``#`` comment lines dropped."""
    return (r for r in csv.reader(fh) if r and not r[0].startswith("#"))


def read_csv(path: Path):
    """(header, rows) with ``#`` comment lines dropped. For small files."""
    with open(path, newline="") as fh:
        rows = list(csv_rows(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def check_ledger(path: Path, expected_rows: int | None = None) -> tuple:
    """Every row obeys profit = revenue_da + revenue_rt - cost_marginal -
    cost_startup - penalty. Returns (problems, number of rows that pay a
    startup cost or a penalty)."""
    with open(path, newline="") as fh:
        rows = csv_rows(fh)
        header = next(rows, [])
        missing = [c for c in ("profit",) + LEDGER_TERMS if c not in header]
        if missing:
            return [f"{path.name}: missing columns {missing}"], 0
        profit_col = header.index("profit")
        term_cols = [header.index(c) for c in LEDGER_TERMS]
        n = bad = busy = 0
        first_bad = None
        for row in rows:
            try:
                profit = float(row[profit_col])
                rda, rrt, cm, cs, pen = (float(row[j]) for j in term_cols)
            except (ValueError, IndexError) as exc:
                return [f"{path.name}: unreadable row {n} ({exc})"], 0
            recomputed = rda + rrt - cm - cs - pen
            scale = abs(rda) + abs(rrt) + abs(cm) + abs(cs) + abs(pen)
            if not abs(profit - recomputed) <= LEDGER_RTOL * max(scale, 1.0):
                bad += 1
                first_bad = n if first_bad is None else first_bad
            busy += cs > 0 or pen > 0
            n += 1
    if expected_rows is not None and n != expected_rows:
        return [f"{path.name}: {n} rows, expected {expected_rows}"], 0
    problems = []
    if bad:
        problems.append(f"{path.name}: {bad} rows break the profit identity, first at row {first_bad}")
    return problems, busy


def _bits(cell: str) -> bytes:
    return struct.pack("<d", float(cell))


def check_repaired(holes_path: Path, repaired_path: Path, removed: dict) -> list:
    """``repaired.csv`` has no empty cell, keeps every observed cell of the
    input bit-identical, and fills exactly the cells that were removed.

    ``removed`` maps a column name to the row indices emptied in the input.
    """
    with open(holes_path, newline="") as hf, open(repaired_path, newline="") as rf:
        h_rows, r_rows = csv_rows(hf), csv_rows(rf)
        h_header, r_header = next(h_rows, []), next(r_rows, [])
        if h_header != r_header:
            return [f"header {r_header} differs from input header {h_header}"]
        names = h_header[1:]
        gaps = [set(int(i) for i in removed.get(name, ())) for name in names]
        counts = {k: [0] * len(names) for k in ("empty", "misplaced", "changed", "nonfinite")}
        n = timestamps = 0
        for h, r in itertools.zip_longest(h_rows, r_rows):
            if h is None or r is None:
                rest = sum(1 for _ in (r_rows if h is None else h_rows))
                n_in, n_out = (n, n + 1 + rest) if h is None else (n + 1 + rest, n)
                return [f"{n_out} rows, input has {n_in}"]
            timestamps += h[0] != r[0]
            for j, (hc, rc) in enumerate(zip(h[1:], r[1:])):
                if rc == "":
                    counts["empty"][j] += 1
                    continue
                if (hc == "") != (n in gaps[j]):
                    counts["misplaced"][j] += 1
                if hc != "":
                    counts["changed"][j] += _bits(hc) != _bits(rc)
                elif not math.isfinite(float(rc)):
                    counts["nonfinite"][j] += 1
            n += 1
    problems = ["timestamps differ from the input"] if timestamps else []
    messages = {
        "empty": "empty cells after repair",
        "misplaced": "input gaps do not match the removed cells",
        "changed": "observed cells changed by repair",
        "nonfinite": "non-finite filled values",
    }
    for j, name in enumerate(names):
        problems += [f"{name}: {counts[k][j]} {msg}" for k, msg in messages.items() if counts[k][j]]
    return problems
