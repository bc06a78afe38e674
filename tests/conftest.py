import hashlib

import numpy as np
import pytest

from tridax import Precision, TridiagonalBatch, random_dominant_system


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_system(n, seed, precision=Precision.FP64, margin=1.0):
    return random_dominant_system(n, np.random.default_rng(seed), precision, margin)


def dominant_batch(count, n, precision, seed):
    rng = np.random.default_rng(seed)
    return TridiagonalBatch.from_systems(random_dominant_system(n, rng, precision)
                                         for _ in range(count))


def digest(*arrays) -> str:
    """sha256 over each array's dtype, shape and bytes, for golden outputs."""
    h = hashlib.sha256()
    for x in arrays:
        x = np.ascontiguousarray(x)
        h.update(f"{x.dtype.str}{x.shape}".encode())
        h.update(x.tobytes())
    return h.hexdigest()
