"""Working-set estimation from bound proximity."""

from typing import NamedTuple

import numpy as np


class WorkingSet(NamedTuple):
    """Partition of the primal indices into active (near a bound) and free."""

    active: np.ndarray
    free: np.ndarray


def estimate(x, mu, epsilon_a):
    """Indices with x_i <= min(mu, epsilon_a) are taken as active.

    Shrinking mu can only shrink the active set.
    """
    x = np.asarray(x, dtype=float)
    threshold = min(float(mu), float(epsilon_a))
    mask = x <= threshold
    idx = np.arange(x.shape[0])
    return WorkingSet(active=idx[mask], free=idx[~mask])


def restrict_principal(A, ws):
    """Principal submatrix of A on the free variables (a Hessian block).

    A 1-D A is a diagonal: its free entries are the block's diagonal.
    """
    A = np.asarray(A).take(ws.free, 0)
    return A.take(ws.free, 1) if A.ndim == 2 else A
