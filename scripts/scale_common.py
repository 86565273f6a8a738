"""Shared parts of the one-shot scale scripts in this directory.

Each script times a few seeded cases once, checks each result's SHA-256
against a hash recorded from an older checkout, and writes the rows under
a label into a JSON file at the repo root. ``--src`` picks the bakermill
package to time, so one script records both sides of a change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(doc: str, default_out: str, argv=None) -> argparse.Namespace:
    """Read ``--src``, ``--label`` and ``--out``, then put ``--src`` first on
    the import path."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the bakermill package to time")
    parser.add_argument("--label", default="change", help="key for this run in the output")
    parser.add_argument("--out", default=str(ROOT / default_out))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    return args


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def timed(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), seconds)``, the seconds rounded to 0.1 ms."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, round(time.perf_counter() - t0, 4)


def record(args: argparse.Namespace, note: str, results: list, failures: list) -> int:
    """Write ``results`` under ``args.label`` into ``args.out``, keeping the
    other labels there; the exit code is 1 if any case's hash mismatched."""
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data["note"] = note
    data[args.label] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "cases": results,
    }
    out.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {out}")
    if failures:
        print("hash mismatch: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0
