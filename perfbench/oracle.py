"""Oracle helper process for perfbench/run.py.

Reads pickled ``(spec, op)`` requests from stdin until EOF.  For each it
regenerates the instance from ``spec`` and computes the reference
spectrum of ``op``, and writes back a pickled
``(twin_fingerprint, eigenvalues, reference_seconds, error)``.  The
parent starts it with the same environment (one BLAS thread) and waits
for it to exit.
"""

import pickle
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import sympeig  # noqa: E402
from run import fingerprint  # noqa: E402


def main():
    rx, tx = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # stray prints must not corrupt the channel
    pickle.dump("ready", tx)
    tx.flush()
    while True:
        try:
            spec, op = pickle.load(rx)
        except EOFError:  # the parent closed the channel: done
            return 0
        try:
            twin, _ = spec.make()
            t0 = time.perf_counter()
            d = sympeig.reference(op).d
            reply = (fingerprint(np, twin), d, time.perf_counter() - t0, None)
        except Exception as exc:  # reported to the parent as a failed check
            reply = (None, None, None, f"{type(exc).__name__}: {exc}")
        pickle.dump(reply, tx)
        tx.flush()


if __name__ == "__main__":
    sys.exit(main())
