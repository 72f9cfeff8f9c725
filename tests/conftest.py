import numpy as np
from hypothesis import settings

from mixerlab.tensor import Tape

# every run draws the same examples, and no failure database is kept
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """Max elementwise error relative to the larger gradient magnitude."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), floor)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def fd_grad(f, arrays, h: float = 1e-5):
    """Central finite-difference gradients of scalar f w.r.t. each array.

    f receives the list of ndarrays and must return a plain float. Arrays
    are perturbed entry by entry, so keep them small.
    """
    grads = []
    for k, arr in enumerate(arrays):
        g = np.zeros_like(arr)
        flat = g.reshape(-1)
        base = arr.reshape(-1)
        for i in range(base.size):
            orig = base[i]
            base[i] = orig + h
            fp = f(arrays)
            base[i] = orig - h
            fm = f(arrays)
            base[i] = orig
            flat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def tape_grads(build_loss, tensors):
    """Run build_loss(tensors) under a fresh tape and return leaf grads."""
    for t in tensors:
        t.grad = None
    with Tape() as tape:
        loss = build_loss(tensors)
    tape.backward(loss)
    return [t.grad for t in tensors]
