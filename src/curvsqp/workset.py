"""Working-set estimation from bound proximity."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WorkingSet:
    """Partition of the primal indices into active (near a bound) and free."""

    active: np.ndarray
    free: np.ndarray
    n: int
    epsilon_a: float
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
        epsilon_a=float(epsilon_a),
        threshold=threshold,
    )


def restrict(v, ws, part="free"):
    """Entries of the vector v on one part of the working set."""
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError("restrict takes a vector; see restrict_principal/_columns")
    return v[ws.free if part == "free" else ws.active]


def restrict_principal(A, ws):
    """Principal submatrix of A on the free variables (a Hessian block)."""
    return np.asarray(A)[np.ix_(ws.free, ws.free)]


def restrict_columns(A, ws):
    """Free columns of A with every row kept (a constraint Jacobian)."""
    return np.asarray(A)[:, ws.free]


def embed(values, ws, part="free"):
    """Scatter values for one part back to a full-length vector of zeros.

    Inverse of restrict on vectors: restrict(embed(v)) == v.
    """
    values = np.asarray(values, dtype=float)
    idx = ws.free if part == "free" else ws.active
    out = np.zeros(ws.n)
    out[idx] = values
    return out
