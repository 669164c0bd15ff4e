"""Reference implementations kept beside the tests as oracles for the library."""

import numpy as np

from qmlab.grid import Field2D, semiclassical_fft


def dense_left_quantization(sym, u: Field2D) -> Field2D:
    """p(x, hD) u by the direct O(N^4) quadrature, for any symbol:

        (2 pi h)^{-1} sum_xi e^{i<x,xi>/h} p(x, xi) FT[u](xi) dxi^2

    evaluated one x1 row at a time, p on blocks of 16 x2 samples.
    """
    g = u.grid
    n = g.points_per_axis
    x = g.x_coords
    xi = g.xi_coords
    spec = semiclassical_fft(u).values
    E = np.exp(1j * np.outer(x, xi) / g.h)  # shared by both axes
    scale = g.dxi ** 2 / (2.0 * np.pi * g.h)
    out = np.empty((n, n), dtype=np.complex128)
    for i1 in range(n):
        w = (E[i1, :, None] * spec) * scale  # (n_xi1, n_xi2)
        for j0 in range(0, n, 16):
            j1 = min(j0 + 16, n)
            p_block = np.asarray(
                sym.value(x[i1], x[j0:j1][:, None, None], xi[None, :, None], xi[None, None, :]),
                dtype=np.complex128,
            )
            out[i1, j0:j1] = np.einsum("xmn,mn,xn->x", p_block, w, E[j0:j1])
    return Field2D(g, out)
