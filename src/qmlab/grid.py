"""Uniform periodic 2-D grids, complex fields and the h-scaled Fourier transform.

Everything downstream computes on a square box [-L, L]^2 sampled at N points
per axis.  The conjugate frequency lattice is xi_m = pi*h*m/L for
m = -N/2 .. N/2-1, so the transform pair

    FT[u](xi)  = (2 pi h)^{-1} * sum_x u(x) exp(-i <x, xi>/h) dx^2
    IFT[U](x)  = (2 pi h)^{-1} * sum_xi U(xi) exp(+i <x, xi>/h) dxi^2

is exactly unitary at the discrete level (dx * dxi * N = 2 pi h per axis).

A field made by :func:`semiclassical_ifft` keeps its spectrum and synthesizes
its samples on their first read; every other construction leaves it ``None``.
:func:`semiclassical_fft` returns a carried spectrum and transforms only a field
without one.  A spectrum carries its support as a box, a dense block at a lattice
origin; the T_alpha indicator's box is its sector's, and its N^2 array is made
only when read.  Quantization and L^2 norms of pending samples read the block;
:func:`lp_norms` never holds the field: p = inf of a non-negative spectrum is
u(0), an even p is summed on M_i >= (p/2)(b_i - 1) + 1 points per axis, free of
aliasing (Orszag 1971; Boyd 2001, ch. 11), and any other p streams the N-lattice
synthesis in blocks of x2 columns.

All operations are pure functions; fields are immutable after construction
and norms use numpy's fixed-order pairwise summation, so results are
bit-reproducible run to run.
"""

from __future__ import annotations

import numbers
import struct
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "GridSpec",
    "GridError",
    "Field2D",
    "SpectralField2D",
    "semiclassical_fft",
    "semiclassical_ifft",
    "sfft1d",
    "isfft1d",
    "lp_norm",
    "lp_norms",
    "smoothstep",
    "write_field",
    "read_field",
]

MAGIC_FIELD = b"QML1"
_BLOCK = 64  # x2 columns per synthesis block or CWT walk; of 16, 64, 256 fastest at N = 1024, 2048


class GridError(ValueError):
    """Invalid grid or field construction."""


def _alternating_signs(n: int) -> np.ndarray:
    # (-1)^m for centered indices m = -n/2 .. n/2-1
    m = np.arange(-n // 2, n // 2)
    return np.where(m % 2 == 0, 1.0, -1.0)


def smoothstep(t: np.ndarray) -> np.ndarray:
    """C^inf ramp: 0 for t <= 0, 1 for t >= 1, exp-glue in between."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        lo = np.where(t > 0.0, np.exp(-1.0 / np.where(t > 0.0, t, 1.0)), 0.0)
        hi = np.where(t < 1.0, np.exp(-1.0 / np.where(t < 1.0, 1.0 - t, 1.0)), 0.0)
    return lo / (lo + hi)


@dataclass(frozen=True)
class GridSpec:
    """Square periodic grid on [-L, L]^2 carrying the small parameter h.

    Attributes
    ----------
    half_width : box is [-half_width, half_width]^2
    points_per_axis : even N >= 16; samples at -L + j*dx, dx = 2L/N
    h : semiclassical parameter in (0, 1]
    """

    half_width: float
    points_per_axis: int
    h: float

    def __post_init__(self):
        problems = []
        if not self.half_width > 0:
            problems.append(f"half_width must be > 0, got {self.half_width}")
        n = self.points_per_axis
        if n < 16 or n % 2 != 0:
            problems.append(f"points_per_axis must be even and >= 16, got {n}")
        if not (0 < self.h <= 1):
            problems.append(f"h must lie in (0, 1], got {self.h}")
        if problems:
            raise GridError("; ".join(problems))

    @property
    def n(self) -> int:
        return self.points_per_axis

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def dxi(self) -> float:
        return np.pi * self.h / self.half_width

    @property
    def x_coords(self) -> np.ndarray:
        n = self.points_per_axis
        return -self.half_width + self.dx * np.arange(n)

    @property
    def xi_coords(self) -> np.ndarray:
        n = self.points_per_axis
        return self.dxi * np.arange(-n // 2, n // 2)

    @property
    def xi_max(self) -> float:
        """Open right end of the representable frequency range."""
        return self.dxi * (self.points_per_axis // 2)

    @property
    def resolves_unit_band(self) -> bool:
        """Whether the lattice range [-xi_max, xi_max) contains [-2, 2]^2."""
        return self.xi_max > 2.0

    def x_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        x = self.x_coords
        return np.meshgrid(x, x, indexing="ij")


def _check_values(grid: GridSpec, values: np.ndarray, what: str, square=True) -> np.ndarray:
    values = np.asarray(values, dtype=np.complex128)
    n = grid.points_per_axis
    if square and values.shape != (n, n):
        raise GridError(f"{what} shape {values.shape} != grid shape {(n, n)}")
    if not np.all(np.isfinite(values.view(np.float64))):
        raise GridError(f"{what} contains non-finite entries")
    values.setflags(write=False)
    return values


@dataclass(frozen=True, eq=False)
class Field2D:
    """Complex samples u(x1, x2); row index = x1, column index = x2.

    ``spectrum``: the spectrum the samples are synthesized from by
    :func:`semiclassical_ifft`, else ``None``.  ``Field2D(grid, None, spectrum)``
    defers that synthesis to the first read of ``values``; given samples carry
    no spectrum, so the two never disagree.
    """

    grid: GridSpec
    samples: InitVar[np.ndarray | None] = None
    spectrum: SpectralField2D | None = field(default=None, repr=False)

    def __post_init__(self, samples):
        if self.spectrum is not None and self.spectrum.grid != self.grid:
            raise GridError("spectrum grid differs from the field grid")
        if (samples is None) == (self.spectrum is None):
            raise GridError("a field takes samples or a spectrum, exactly one")
        if samples is not None:
            object.__setattr__(self, "values", _check_values(self.grid, samples, "field"))

    @cached_property
    def values(self) -> np.ndarray:
        return _check_values(self.grid, _synthesize(self.spectrum), "field")

    @property
    def samples_pending(self) -> bool:
        """Whether the samples are still to be synthesized from ``spectrum``."""
        return "values" not in self.__dict__

    def l2_norm(self) -> float:
        """Riemann-sum L^2 norm; of pending samples, the spectrum's (discrete Plancherel)."""
        if self.samples_pending:
            return self.spectrum.l2_norm()
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2)) * self.grid.dx)


class SpectralField2D:
    """Samples on the centered frequency lattice xi_m = pi*h*m/L, m in [-N/2, N/2).

    Zero off its ``box`` = (block, origin): a given ``block`` whose [0, 0] sits at
    lattice index ``origin`` and whose N^2 ``values`` are made on first read, or
    given ``values`` whole, at (0, 0).
    """

    def __init__(self, grid: GridSpec, values: np.ndarray | None = None, *,
                 block: np.ndarray | None = None, origin: tuple[int, int] = (0, 0)):
        self.grid = grid
        if block is None:
            self.values = _check_values(grid, values, "spectrum")
            self.box = (self.values, (0, 0))
        elif min(origin) < 0 or max(o + b for o, b in zip(origin, np.shape(block))) > grid.n:
            raise GridError(f"block {np.shape(block)} at {origin} leaves the lattice")
        else:
            self.box = (_check_values(grid, block, "spectrum", False), tuple(map(int, origin)))

    @cached_property
    def values(self) -> np.ndarray:
        (block, (o1, o2)), n = self.box, self.grid.n
        out = np.zeros((n, n), dtype=np.complex128)
        out[o1:o1 + block.shape[0], o2:o2 + block.shape[1]] = block
        out.setflags(write=False)
        return out

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.box[0]) ** 2)) * self.grid.dxi)

    @property
    def warnings(self) -> tuple[str, ...]:
        """The lattice-coverage warning, when [-xi_max, xi_max) misses the band [-2, 2]^2."""
        g = self.grid
        return () if g.resolves_unit_band else (
            f"frequency lattice [{-g.xi_max:.4g}, {g.xi_max:.4g}) does not cover [-2, 2]^2",)


def semiclassical_fft(u: Field2D) -> SpectralField2D:
    """h-scaled Fourier transform of a field.

    Exact discrete quadrature of (2 pi h)^{-1} Int e^{-i<x,xi>/h} u dx via a
    fast transform; a plane wave on the lattice maps to a single spike of
    value (2L)^2/(2 pi h).  A carried spectrum is returned as it is.
    """
    if u.spectrum is not None:
        return u.spectrum
    g = u.grid
    ph = _alternating_signs(g.points_per_axis)
    coef = g.dx ** 2 / (2.0 * np.pi * g.h)
    vals = coef * ph[:, None] * ph[None, :] * np.fft.fftshift(np.fft.fft2(u.values))
    return SpectralField2D(g, vals)


def semiclassical_ifft(spec: SpectralField2D) -> Field2D:
    """Exact inverse of :func:`semiclassical_fft`; the field keeps ``spec`` and
    synthesizes its samples on their first read."""
    return Field2D(spec.grid, None, spec)


def _column_blocks(spec: SpectralField2D, m1: int, m2: int):
    """u on the m1 x m2 lattice x = -L + j 2L/m_i (its samples for m_i = N), as transposed
    (_BLOCK, m1) slabs of x2 columns in one reused buffer.  Box index m lands at m mod m_i
    (apart for m_i >= b_i); each box row, zero-padded, takes ifft2's axis-1 pass and each
    slab the axis-0 pass along its contiguous axis: on the N lattice, ifft2's samples."""
    g = spec.grid
    n = g.points_per_axis
    ph = _alternating_signs(n)
    coef = g.dx ** 2 / (2.0 * np.pi * g.h) * (n / m1) * (n / m2)
    block, (o1, o2) = spec.box
    r, c = np.arange(o1, o1 + block.shape[0]), np.arange(o2, o2 + block.shape[1])
    part = np.zeros((len(r), m2), dtype=np.complex128)
    part[:, (c - n // 2) % m2] = block / (coef * ph[r, None] * ph[None, c])
    part = np.fft.ifft(part, axis=1, out=part)
    rows = (r - n // 2) % m1
    buf = np.empty((_BLOCK, m1), dtype=np.complex128)
    for c0 in range(0, m2, _BLOCK):
        blk = buf[:min(_BLOCK, m2 - c0)]
        blk[...] = 0.0
        blk[:, rows] = part[:, c0:c0 + len(blk)].T
        yield np.fft.ifft(blk, axis=1, out=blk)


def _synthesize(spec: SpectralField2D) -> np.ndarray:
    n = spec.grid.points_per_axis
    out = np.empty((n, n), dtype=np.complex128)
    for c0, blk in zip(range(0, n, _BLOCK), _column_blocks(spec, n, n)):
        out[:, c0:c0 + len(blk)] = blk.T
    return out


def sfft1d(values: np.ndarray, grid: GridSpec, axis: int = -1) -> np.ndarray:
    """1-D h-scaled transform along one axis; lattice = grid.xi_coords."""
    n = grid.points_per_axis
    if values.shape[axis] != n:
        raise GridError(f"axis length {values.shape[axis]} != N = {n}")
    ph = _alternating_signs(n)
    shape = [1] * values.ndim
    shape[axis] = n
    coef = grid.dx / np.sqrt(2.0 * np.pi * grid.h)
    return coef * ph.reshape(shape) * np.fft.fftshift(np.fft.fft(values, axis=axis), axes=axis)


def isfft1d(values: np.ndarray, grid: GridSpec, axis: int = -1) -> np.ndarray:
    """Inverse of :func:`sfft1d`."""
    n = grid.points_per_axis
    ph = _alternating_signs(n)
    shape = [1] * values.ndim
    shape[axis] = n
    coef = grid.dx / np.sqrt(2.0 * np.pi * grid.h)
    return np.fft.ifft(np.fft.ifftshift(values / (coef * ph.reshape(shape)), axes=axis), axis=axis)


def _alias_free_length(b: int, p: int, n: int) -> int:
    """Smallest 5-smooth M >= (p/2)(b - 1) + 1 (M | 30^k), or N where that is not smaller."""
    m = max(1, p // 2 * (b - 1) + 1)
    while m < n and 30 ** m.bit_length() % m:
        m += 1
    return min(m, n)


def lp_norms(u: Field2D, ps) -> list[float]:
    """Riemann-sum L^p norms on the N^2 lattice for every p in ``ps``; max of |u|
    for p = inf.  Existing samples are reduced as one block.  Pending samples stay
    pending; each p takes one rule, read off p and the spectrum's box B (b1 x b2):
    - p = inf of a real non-negative spectrum S: u(0) = sum S dxi^2 / (2 pi h),
      a lattice value that bounds |u|;
    - an even integer p: |u|^p = u^(p/2) conj(u)^(p/2) has its spectrum in
      (p/2)(B - B), so the N-lattice sum is (N/M1)(N/M2) times the sum on any
      M1 x M2 lattice with M_i >= (p/2)(b_i - 1) + 1 (zero padding against
      aliasing: Orszag, J. Atmos. Sci. 28, 1971; Boyd, Chebyshev and Fourier
      Spectral Methods, 2nd ed., 2001, ch. 11); M_i is the smallest 5-smooth such
      length, or N where that is not smaller;
    - any other p: the N lattice.
    Each lattice streams its synthesis from :func:`_column_blocks`, checked finite;
    a non-finite norm (an overflowing synthesis or power sum) is refused."""
    ps = list(ps)
    for p in ps:
        if isinstance(p, bool) or not isinstance(p, numbers.Real) or not p >= 1:
            raise ValueError(f"lp_norm requires a real p >= 1, got {p!r}")
    g, n = u.grid, u.grid.points_per_axis
    block = u.spectrum.box[0] if u.samples_pending else None
    out, lattices = {}, {}
    for p in ps:
        if block is not None and np.isinf(p) and not (block.imag.any() or (block.real < 0).any()):
            out[p] = float(np.sum(block.real) * (g.dxi ** 2 / (2.0 * np.pi * g.h)))
            continue
        even = float(p).is_integer() and p % 2 == 0
        lattices.setdefault(None if block is None else tuple(
            _alias_free_length(b, int(p), n) if even else n for b in block.shape), []).append(p)
    for lattice, group in lattices.items():
        peak, sums = 0.0, dict.fromkeys((p for p in group if not np.isinf(p)), 0.0)
        for blk in (u.values,) if lattice is None else _column_blocks(u.spectrum, *lattice):
            if lattice is not None and not np.all(np.isfinite(blk.view(np.float64))):
                raise GridError("field contains non-finite entries")
            mod = np.abs(blk)
            peak = max(peak, mod.max())
            sums = {p: s + np.sum(mod ** p) for p, s in sums.items()}
        m1, m2 = lattice or (n, n)
        cell = g.dx ** 2 * (n / m1) * (n / m2)
        out.update((p, float(peak if np.isinf(p) else (sums[p] * cell) ** (1 / p))) for p in group)
    if not all(np.isfinite(v) for v in out.values()):
        raise GridError("non-finite L^p norm: the synthesis or its power sum overflows")
    return [out[p] for p in ps]


def lp_norm(u: Field2D, p: float) -> float:
    """Riemann-sum L^p norm; max of |u| for p = inf (see :func:`lp_norms`)."""
    return lp_norms(u, [p])[0]


# ---------------------------------------------------------------------------
# serialization: flat binary container
# ---------------------------------------------------------------------------

def write_field(u: Field2D, path) -> None:
    """Binary container: magic "QML1", N (int64 LE), L, h (float64 LE), then
    N^2 complex pairs of 8-byte reals, row-major."""
    g = u.grid
    with open(path, "wb") as fh:
        fh.write(MAGIC_FIELD)
        fh.write(struct.pack("<q", g.points_per_axis))
        fh.write(struct.pack("<d", g.half_width))
        fh.write(struct.pack("<d", g.h))
        fh.write(np.ascontiguousarray(u.values, dtype="<c16").tobytes())


def read_field(path) -> Field2D:
    """Read a :func:`write_field` container; the header is validated as a
    :class:`GridSpec` before the payload, and nothing may follow the payload."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC_FIELD:
            raise GridError(f"bad magic {magic!r}, expected {MAGIC_FIELD!r}")
        header = fh.read(24)
        if len(header) != 24:
            raise GridError("truncated field header")
        n, L, h = struct.unpack("<qdd", header)
        grid = GridSpec(L, n, h)
        raw = fh.read(16 * n * n)
        if len(raw) != 16 * n * n:
            raise GridError("truncated field file")
        if fh.read(1):
            raise GridError(f"trailing bytes after the {n}x{n} payload")
        values = np.frombuffer(raw, dtype="<c16").reshape(n, n).astype(np.complex128)
    return Field2D(grid, values)

