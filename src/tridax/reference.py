"""Plain-loop ADI reference implementation.

Deliberately naive: explicit Python loops for the stencil, one scalar
Thomas elimination per line, nothing shared with the blocked driver except
the phase order and coefficient rule. Used to verify the production driver
(``--verify`` and the equivalence tests). Always computes in FP64.
"""

from __future__ import annotations

import numpy as np


def thomas_scalar(a, b, c, d):
    """Textbook scalar Thomas elimination; exact on ``fractions.Fraction`` inputs."""
    n = len(b)
    cs = [0.0] * n
    ds = [0.0] * n
    ds[0] = d[0] / b[0]
    cs[0] = c[0] / b[0]
    for i in range(1, n):
        r = 1 / (b[i] - a[i] * cs[i - 1])
        ds[i] = r * (d[i] - a[i] * ds[i - 1])
        cs[i] = r * c[i]
    u = [0.0] * n
    u[n - 1] = ds[n - 1]
    for i in range(n - 2, -1, -1):
        u[i] = ds[i] - cs[i] * u[i + 1]
    return u


def _line_coefficients(n, gamma):
    off = -(0.5 * gamma)
    a = [off] * n
    b = [1.0 + gamma] * n
    c = [off] * n
    a[0] = a[-1] = 0.0
    c[0] = c[-1] = 0.0
    b[0] = b[-1] = 1.0
    return a, b, c


def naive_adi_run(u0: np.ndarray, gamma: float, n_iter: int,
                  ndim: int | None = None) -> np.ndarray:
    """Run ``n_iter`` ADI steps over a (batch, z, y, x) FP64 array of ``ndim``
    spatial dimensions; unset, a z extent of 1 means 2-D."""
    u = np.asarray(u0, dtype=np.float64).copy()
    nb, nz, ny, nx = u.shape
    is_2d = nz == 1 if ndim is None else ndim == 2
    for _ in range(n_iter):
        d = np.zeros_like(u)
        for b in range(nb):
            for k in range(nz) if is_2d else range(1, nz - 1):
                for j in range(1, ny - 1):
                    for i in range(1, nx - 1):
                        ctr = u[b, k, j, i]
                        acc = (u[b, k, j, i - 1] - 2.0 * ctr) + u[b, k, j, i + 1]
                        acc = acc + ((u[b, k, j - 1, i] - 2.0 * ctr) + u[b, k, j + 1, i])
                        if not is_2d:
                            acc = acc + ((u[b, k - 1, j, i] - 2.0 * ctr) + u[b, k + 1, j, i])
                        d[b, k, j, i] = gamma * acc
        ax, bx, cx = _line_coefficients(nx, gamma)
        for b in range(nb):
            for k in range(nz):
                for j in range(ny):
                    d[b, k, j, :] = thomas_scalar(ax, bx, cx, d[b, k, j, :].tolist())
        ay, by, cy = _line_coefficients(ny, gamma)
        for b in range(nb):
            for k in range(nz):
                for i in range(nx):
                    d[b, k, :, i] = thomas_scalar(ay, by, cy, d[b, k, :, i].tolist())
        if not is_2d:
            az, bz, cz = _line_coefficients(nz, gamma)
            for b in range(nb):
                for j in range(ny):
                    for i in range(nx):
                        d[b, :, j, i] = thomas_scalar(az, bz, cz, d[b, :, j, i].tolist())
        u = u + d
    return u
