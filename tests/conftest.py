import hashlib

import numpy as np
import pytest

from tridax import Mesh, Precision, TridiagonalBatch, adi, random_dominant_system
from tridax.core import TILED_SOLVERS


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_system(n, seed, precision=Precision.FP64, margin=1.0):
    return random_dominant_system(n, np.random.default_rng(seed), precision, margin)


def stack_systems(systems) -> TridiagonalBatch:
    """The batch holding ``systems`` in order, one row per system."""
    return TridiagonalBatch(*(np.stack([getattr(s, k) for s in systems]) for k in "abcd"))


def dominant_batch(count, n, precision, seed):
    """``count`` systems drawn one at a time, as the golden inputs were."""
    rng = np.random.default_rng(seed)
    return stack_systems([random_dominant_system(n, rng, precision) for _ in range(count)])


def tiles_for(algo, tiles):
    """``tiles`` for a tiled solver, ``None`` for one that takes no tile count."""
    return tiles if algo in TILED_SOLVERS else None


def digest(*arrays) -> str:
    """sha256 over each array's dtype, shape and bytes, for golden outputs."""
    h = hashlib.sha256()
    for x in arrays:
        x = np.ascontiguousarray(x)
        h.update(f"{x.dtype.str}{x.shape}".encode())
        h.update(x.tobytes())
    return h.hexdigest()


def stencil(mesh, gamma) -> Mesh:
    """The ADI right-hand side ``adi_run`` forms from ``mesh``, by its own
    stencil pass ``adi._stencil``, in a new mesh."""
    arr = np.ascontiguousarray(mesh.data)
    d = np.empty_like(arr)
    adi._stencil(arr, mesh.spatial_ndim, gamma, d,
                 np.empty(min(adi.STENCIL_CHUNK, arr.size), arr.dtype))
    return Mesh(d, mesh.spatial_ndim)
