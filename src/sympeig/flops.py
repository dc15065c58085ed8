"""Lightweight floating-point operation accounting.

Counts follow the fused multiply-accumulate convention: one multiply
plus the accompanying add is a single flop.  Under this convention a
matrix product of shapes (a, b) x (b, c) costs a*b*c, and a sparse
matvec costs nnz per column.  Only the kernels on the solver's hot path
report counts (operator application, the symplectic Gram matrix, the
penalty gradient, and the coefficients of the penalty along a ray);
permutation kernels and O(p^2) bookkeeping are not charged.

Counting is off unless a counter is active; activation is per-thread.
Off, a call costs about 0.1 us on any thread (Python 3.11, one Xeon
vCPU), and an inner step of either solver makes three.
"""

import contextlib
import threading


class _Active(threading.local):
    # a class attribute, so a thread that never ran a counter reads None
    # without the AttributeError a missing thread-local attribute raises
    counter = None


_active = _Active()


class FlopCounter:
    """Accumulator handed out by :func:`count_flops`."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


def add_flops(amount):
    """Charge `amount` flops to the active counter, if any."""
    counter = _active.counter
    if counter is not None:
        counter.count += int(amount)


@contextlib.contextmanager
def count_flops():
    """Activate a fresh counter on this thread and yield it.

    Nested uses restore the previous counter on exit.
    """
    previous = _active.counter
    counter = FlopCounter()
    _active.counter = counter
    try:
        yield counter
    finally:
        _active.counter = previous
