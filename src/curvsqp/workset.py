"""Working-set estimation from bound proximity."""

from typing import NamedTuple

import numpy as np


class WorkingSet(NamedTuple):
    """Partition of the primal indices into active (near a bound) and free."""

    active: np.ndarray
    free: np.ndarray
    n: int
    threshold: float


def estimate(x, mu, epsilon_a=1e-2):
    """Indices with x_i <= min(mu, epsilon_a) are taken as active.

    Shrinking mu can only shrink the active set.
    """
    x = np.asarray(x, dtype=float)
    threshold = min(float(mu), float(epsilon_a))
    mask = x <= threshold
    idx = np.arange(x.shape[0])
    return WorkingSet(
        active=idx[mask],
        free=idx[~mask],
        n=x.shape[0],
        threshold=threshold,
    )


def restrict_principal(A, ws):
    """Principal submatrix of A on the free variables (a Hessian block)."""
    return np.asarray(A).take(ws.free, 0).take(ws.free, 1)


def restrict_columns(A, ws):
    """Free columns of A with every row kept (a constraint Jacobian)."""
    return np.asarray(A)[:, ws.free]


def embed(values, ws):
    """Scatter free-variable values into a full-length vector of zeros."""
    out = np.zeros(ws.n)
    out[ws.free] = values
    return out
