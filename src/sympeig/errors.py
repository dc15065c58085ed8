"""Exception types shared across the package."""


class NumericalFailure(RuntimeError):
    """A numerical routine produced an unusable result.

    Raised when a factorization breaks down, an objective value turns
    non-finite, a basis is numerically rank-deficient for the symplectic
    SVD (the message gives the count of lost directions), or an input
    violates a positivity contract in a way that only shows up at run
    time.
    """
