"""Physically-based embeddings of distances, angles, and torsions.

Three nested representations share one construction: spherical Bessel
radial factors pinned to zero at the cutoff through the root boundary
condition k = z_ln / c, combined with real spherical harmonics.

  * distance embedding  : norm(0,n) * j_0(n*pi*d/c) = sqrt(2/c) * sin(n*pi*d/c) / d
  * distance-angle      : norm(l,n) * j_l(z_ln*d/c) * Y_l^0(theta)
  * distance-angle-torsion: norm(l,n) * j_l(z_ln*d/c) * Y_l^m(theta, phi)

with norm(l,n) = sqrt(2 / (c^3 * j_{l+1}(z_ln)^2)). Harmonics are real-form
(cos/sin in m*phi) without the Condon-Shortley phase and unit-normalized
over the sphere. All evaluations are pure. Point arguments are scalars or
1-D arrays that broadcast together; all scalars give one point's result.

Each ingredient is computed once: the roots z_ln of every order in one
vectorized solve (cached per table size), the radial factors in one Bessel
recurrence over every distinct distance and order, ``_radial_table``, and
the harmonics in one sweep, ``_harmonics``, that yields every Y_l^m. The
distance embedding is the l = 0 rows of the radial table (z_0n = n*pi), and
the pair embeddings are products of the table and the sweep. So a caller
that holds the factors computes each once and passes the table to all three
embeddings as ``radial=`` and the sweep to ``sbf_embed`` and ``tbf_embed``
as ``angular=``. Both pair embeddings take the same sweep; the
distance-angle embedding reads its zonal Y_l^0 rows l*l + l, which only this
module names. The network keeps the radial table per edge and the sweep per
pair, and rebuilds the pair embeddings from them a block of pairs at a time.
A point's Bessel values depend only on that point, never on the other
points evaluated with it, so a shared or gathered table is bitwise the one
each embedding computes on its own. Arguments must be real, finite and in
range; complex, boolean or non-numeric points, NaN, infinity, Bessel
arguments above ``MAX_ARGUMENT``, an overflowing m*phi and orders or counts
that are not integers raise ``BasisError``, with or without the factors
given.

The factors keep one layout from here to the network, the point axis last:
the radial table is (n_shbf, n_srbf, points) and the sweep (n_shbf^2,
points), so each of their rows is one contiguous run over the points. The
pair embeddings are column-major: ``sbf_embed`` and ``tbf_embed`` fill
(columns, points) buffers and return their transposes, with the documented
shapes and (l, m, n) column order. Each product of a radial row and a
harmonic row then runs along the long point axis, and the network's
down-projection reads each column as one contiguous run. The distance
embedding is a C-contiguous copy of its rows, points first.
"""
from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

MAX_ORDER = 16
MAX_ROOTS = 64
# The largest Bessel argument: the top of the root bracket grid. The n-th root
# of j_l lies below (n + l) * pi, and a radial argument z_ln * d / c with
# d <= c is at most its root, so every argument the model evaluates is here.
MAX_ARGUMENT = (MAX_ROOTS + MAX_ORDER) * math.pi


class BasisError(ValueError):
    """Raised for malformed or out-of-range basis arguments."""


def _check_int(value, name: str, top: int, bottom: int = 0) -> int:
    """An order, m or count read through ``operator.index`` (numpy integers
    too) and checked to lie in [bottom, top]; anything else, a float too,
    raises ``BasisError``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise BasisError(f"{name} must be an integer, got {value!r}") from None
    if not bottom <= value <= top:
        raise BasisError(f"{name} {value} outside supported range [{bottom}, {top}]")
    return value


def _points(*args) -> tuple[bool, list[np.ndarray]]:
    """Whether all point arguments are scalars (only then is a result one
    point's), and each as a float64 1-D array of one broadcast length;
    equal-length arrays come back as is. An argument that is not integers or
    floats (booleans, complex numbers, strings, objects), a 2-D argument or
    lengths that do not broadcast raise ``BasisError``; the kind is read from
    the dtype before any conversion, once per argument."""
    arrays = [np.asarray(a) for a in args]
    if any(a.dtype.kind not in "iuf" for a in arrays):
        raise BasisError(f"point arguments must be real numbers, got dtypes "
                         f"{', '.join(str(a.dtype) for a in arrays)}")
    arrays = [a.astype(np.float64, copy=False) for a in arrays]
    shapes = {a.shape for a in arrays}
    if max(map(len, shapes)) > 1 or len({s[0] for s in shapes if s} - {1}) > 1:
        raise BasisError(f"point arguments must be scalars or 1-D arrays of lengths that "
                         f"broadcast, got shapes {', '.join(str(a.shape) for a in arrays)}")
    if len(shapes) == 1 and shapes != {()}:
        return False, arrays
    return shapes == {()}, list(np.broadcast_arrays(*(a.reshape(-1) for a in arrays)))


def _check_distance(d: np.ndarray, cutoff: float):
    # One comparison chain that NaN fails, unlike a search for bad values.
    if not np.all((d > 0) & (d <= cutoff * (1 + 1e-12))):
        raise BasisError(f"distance outside (0, {cutoff}]")


def _check_polar(theta: np.ndarray):
    if not np.all((theta >= -1e-9) & (theta <= np.pi + 1e-9)):
        raise BasisError("polar angle outside [0, pi]")


def _check_angle(angle: np.ndarray, top: int = 1):
    # The harmonics take cos and sin of m * angle for m up to top; NaN fails too.
    if not math.isfinite(max(top, 1) * float(np.abs(angle).max(initial=0.0))):
        raise BasisError(f"angle and {max(top, 1)} * angle must be finite")


def spherical_bessel(order: int, x) -> np.ndarray | float:
    """First-kind spherical Bessel function j_order(x) for 0 <= x <= MAX_ARGUMENT.

    Stable for all supported orders (0..16): values are produced by downward
    recurrence normalized through sum_l (2l+1) j_l^2 = 1, which avoids the
    catastrophic cancellation of upward recurrence at x < order. The x -> 0
    limit is handled analytically. Other arguments raise ``BasisError``.
    """
    order = _check_int(order, "order", MAX_ORDER)
    scalar, (x_arr,) = _points(x)
    if not np.all((x_arr >= 0) & (x_arr <= MAX_ARGUMENT)):
        raise BasisError(f"spherical Bessel argument must lie in [0, {MAX_ROOTS + MAX_ORDER}*pi]")
    result = _bessel_table(order, x_arr)[order]
    return float(result[0]) if scalar else result


# Arguments below this go through the ascending series; its terms decay
# immediately there, so no cancellation occurs. Each term is at most
# 1/(8k(2k+1)) of the one before, so from the eighth on (below 4.3e-20 of
# the first) a term is below half an ulp of the sum; nine leave a margin.
_SERIES_CUTOVER = 0.5
_SERIES_TERMS = 9


def _bessel_table(l_max: int, x: np.ndarray) -> np.ndarray:
    """j_l(x) for all l in 0..l_max, shape (l_max + 1, len(x)).

    The series gives exactly (1, 0, ..., 0) at x = 0.
    """
    table = np.zeros((l_max + 1, x.size), dtype=np.float64)
    small = x < _SERIES_CUTOVER
    if np.any(small):
        table[:, small] = _bessel_series(l_max, x[small])
    live = x >= _SERIES_CUTOVER
    if np.any(live):
        table[:, live] = _bessel_miller(l_max, x[live])
    return table


def _bessel_series(l_max: int, x: np.ndarray) -> np.ndarray:
    """Ascending series x^l/(2l+1)!! * sum_k t_k for small arguments.

    Every point sums the same ``_SERIES_TERMS`` correction terms, so its
    value does not depend on the other points of the call.
    """
    out = np.empty((l_max + 1, x.size), dtype=np.float64)
    half_sq = -0.5 * x * x
    for ell in range(l_max + 1):
        term = x ** ell / math.prod(range(2 * ell + 1, 0, -2), start=1.0)
        out[ell] = term
        for k in range(1, _SERIES_TERMS + 1):
            term = term * half_sq / (k * (2 * ell + 2 * k + 1))
            out[ell] += term
    return out


def _bessel_miller(l_max: int, xs: np.ndarray) -> np.ndarray:
    """Downward recurrence j_{m-1} = (2m+1)/x * j_m - j_{m+1}.

    Each point starts at its own order ceil(x) + l_max + 24 + int(2 sqrt(x)),
    high enough above both l_max and x that the minimal solution dominates,
    and is then normalized through the closure sum_l (2l+1) j_l(x)^2 = 1. The
    overall sign is right because the start order lies below its own first
    root, where the true j is positive. Above its start a point carries exact
    zeros, so its arithmetic is the same whatever else is in the call. The
    seed at the start order is 1: a seed near the underflow range would run
    the first steps of every point on slow subnormal numbers. Nothing is
    rescaled: a sweep of [0.5, 400], which holds ``MAX_ARGUMENT``, peaked at
    1.9e77 (l_max 16, x = 0.5) over every l_max, with a closure sum of at
    most 4.0e154.
    """
    starts = (np.ceil(xs).astype(np.int64) + l_max + 24
              + (2.0 * np.sqrt(xs)).astype(np.int64))
    by_start = np.argsort(starts, kind="stable")
    distinct, first, count = np.unique(starts[by_start], return_index=True,
                                       return_counts=True)
    starting = {start: by_start[i:i + n] for start, i, n
                in zip(distinct.tolist(), first.tolist(), count.tolist())}
    upper = np.zeros_like(xs)     # j at order m+1 (unnormalized)
    lower = np.zeros_like(xs)     # j at order m
    norm_sq = np.zeros_like(xs)
    recorded = np.zeros((l_max + 1, xs.size), dtype=np.float64)
    for m in range(int(distinct[-1]), 0, -1):
        fresh = starting.get(m)
        if fresh is not None:
            lower[fresh] = 1.0
            norm_sq[fresh] = 2 * m + 1
        previous = (2 * m + 1) / xs * lower - upper
        upper = lower
        lower = previous
        norm_sq = norm_sq + (2 * m - 1) * lower * lower
        if m - 1 <= l_max:
            recorded[m - 1] = lower
    return recorded / np.sqrt(norm_sq)


def bessel_roots(l_max: int, n_max: int) -> np.ndarray:
    """First n_max positive roots of j_l for every order l in 0..l_max.

    Order 0 is exactly n*pi. The other orders are solved together: sign
    changes of one Bessel table on a grid of step at most 1 bracket every
    root, then all brackets are bisected at once and polished by two Newton
    steps, which leaves |j_l(z)| of order 1e-16.
    """
    l_max = _check_int(l_max, "order", MAX_ORDER)
    n_max = _check_int(n_max, "n_max", MAX_ROOTS, 1)
    roots = np.empty((l_max + 1, n_max), dtype=np.float64)
    # j_0 = sin(x)/x: its roots are exactly n*pi.
    roots[0] = np.arange(1, n_max + 1) * np.pi
    if l_max > 0:
        # Roots of consecutive orders interlace, so the n-th root of j_l lies
        # below (n + l)*pi, and zeros of J_{l+1/2} are more than pi apart:
        # sign changes on a grid of step <= 1 up to (n_max + l_max)*pi bracket
        # each of the first n_max roots of every order in its own cell.
        top = (n_max + l_max) * np.pi
        grid = np.linspace(0.0, top, int(math.ceil(top)) + 1)[1:]
        on_grid = _bessel_table(l_max, grid)[1:]
        change = (on_grid[:, 1:] > 0.0) != (on_grid[:, :-1] > 0.0)
        change &= np.cumsum(change, axis=1) <= n_max
        rows, cells = np.nonzero(change)
        orders = rows + 1
        points = np.arange(rows.size)
        lo, hi = grid[cells], grid[cells + 1]
        f_lo = on_grid[rows, cells]
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            f_mid = _bessel_table(l_max, mid)[orders, points]
            take_hi = (f_lo * f_mid) <= 0.0
            hi = np.where(take_hi, mid, hi)
            lo = np.where(take_hi, lo, mid)
            f_lo = np.where(take_hi, f_lo, f_mid)
        mid = 0.5 * (lo + hi)
        for _ in range(2):
            table = _bessel_table(l_max, mid)
            value = table[orders, points]
            slope = table[orders - 1, points] - (orders + 1) / mid * value
            mid = mid - value / slope
        roots[1:] = mid.reshape(l_max, n_max)
    roots.setflags(write=False)
    return roots


def real_sph_harm(order: int, m: int, theta, phi=0.0) -> np.ndarray | float:
    """Real spherical harmonic of degree ``order`` and index m, |m| <= order.

    Unit-normalized (the square integrates to 1 over the sphere); positive m
    carries cos(m*phi), negative m carries sin(|m|*phi), and no
    Condon-Shortley phase is applied. m = 0 is the zonal harmonic and ignores
    phi. The value is row (order, m) of the sweep the embeddings use.
    Non-finite angles and an overflowing order * phi raise ``BasisError``.
    """
    order = _check_int(order, "order", MAX_ORDER)
    m = _check_int(m, "m", order, -order)
    scalar, (theta_arr, phi_arr) = _points(theta, phi)
    _check_angle(theta_arr)
    _check_angle(phi_arr, order)
    result = _harmonics(order + 1, theta_arr, phi_arr)[order * order + order + m]
    return float(result[0]) if scalar else result


def _harmonics(degrees: int, theta: np.ndarray, phi) -> np.ndarray:
    """Every Y_l^m with l < degrees; shape (degrees^2, len(theta)).

    Row l*l + l + m holds (l, m), so each degree's rows run m = -l..l, and
    each row is one contiguous run over the points. One upward recurrence in
    l per m evaluates P_l^m(cos theta) without the Condon-Shortley phase,
    from P_m^m = (2m-1)!! sin^m theta, and cos/sin of m*phi are computed
    once per m.
    """
    u = np.cos(theta)
    s = np.sin(theta)
    out = np.empty((degrees * degrees, theta.size), dtype=np.float64)
    pmm = np.ones_like(u)
    for m in range(degrees):
        if m > 0:
            pmm = pmm * (2 * m - 1) * s
            cos_m = np.cos(m * phi)
            sin_m = np.sin(m * phi)
        for ell, scaled in _legendre_rows(m, degrees, u, pmm):
            centre = ell * ell + ell
            if m == 0:
                out[centre] = scaled
            else:
                out[centre + m] = scaled * cos_m
                out[centre - m] = scaled * sin_m
    return out


def _legendre_rows(m: int, degrees: int, u: np.ndarray, pmm: np.ndarray):
    """Yield (l, c_lm * P_l^m(u)) for l = m..degrees-1, starting from P_m^m.

    c_lm is the unit normalization of the real harmonic, times sqrt(2) for
    m > 0; the caller multiplies by cos or sin of m*phi.
    """
    for ell in range(m, degrees):
        if ell == m:
            legendre = pmm
        elif ell == m + 1:
            below, legendre = pmm, (2 * m + 1) * u * pmm
        else:
            below, legendre = legendre, (
                (2 * ell - 1) * u * legendre - (ell + m - 1) * below) / (ell - m)
        norm = math.sqrt(
            (2 * ell + 1) / (4.0 * math.pi)
            * math.factorial(ell - m) / math.factorial(ell + m)
        )
        if m > 0:
            norm = math.sqrt(2.0) * norm
        yield ell, norm * legendre


@dataclass(frozen=True)
class BasisTables:
    """Precomputed Bessel roots and normalization constants for one cutoff.

    ``roots[l, n-1]`` is the n-th root of j_l; ``norms`` holds the matching
    prefactors sqrt(2 / (c^3 * j_{l+1}(root)^2)). Built once, immutable, and
    safe to share between threads.
    """

    cutoff: float
    n_srbf: int
    n_shbf: int
    roots: np.ndarray
    norms: np.ndarray

    @property
    def tbf_size(self) -> int:
        return self.n_shbf * self.n_shbf * self.n_srbf

    @property
    def sbf_size(self) -> int:
        return self.n_shbf * self.n_srbf


# Typed, so that a float count is validated, not answered by its int's entry.
@functools.lru_cache(maxsize=32, typed=True)
def build_tables(cutoff: float, n_srbf: int, n_shbf: int) -> BasisTables:
    """Construct (and cache) the root/normalization tables.

    The cutoff is a positive real number and the counts are integers in
    range; anything else raises ``BasisError``."""
    if not (isinstance(cutoff, numbers.Real) and cutoff > 0):
        raise BasisError(f"cutoff must be a positive real number, got {cutoff!r}")
    n_shbf = _check_int(n_shbf, "n_shbf", MAX_ORDER, 1)
    n_srbf = _check_int(n_srbf, "n_srbf", MAX_ROOTS, 1)
    roots = bessel_roots(n_shbf - 1, n_srbf)
    orders = np.arange(n_shbf)
    j_next = _bessel_table(n_shbf, roots.ravel()).reshape(
        n_shbf + 1, n_shbf, n_srbf)[orders + 1, orders]
    # A cube that overflows or underflows gives norms the check below rejects.
    with np.errstate(over="ignore", divide="ignore"):
        norms = np.sqrt(2.0 / (np.float64(cutoff) ** 3 * j_next * j_next))
    if not np.all(np.isfinite(norms)) or np.any(norms <= 0):
        raise BasisError("normalization constants must be finite and positive")
    norms.setflags(write=False)
    return BasisTables(cutoff=float(cutoff), n_srbf=n_srbf, n_shbf=n_shbf,
                       roots=roots, norms=norms)


def tables_for(cfg) -> BasisTables:
    """Tables matching a RunConfig."""
    return build_tables(cfg.cutoff_c, cfg.n_srbf, cfg.n_shbf)


def rbf_embed(d, tables: BasisTables, *, radial=None) -> np.ndarray:
    """Distance embedding sqrt(2/c) * sin(n*pi*d/c) / d for n = 1..n_srbf.

    Shape (len(d), n_srbf), C-contiguous, or (n_srbf,) for a scalar d. The
    values are the l = 0 rows of the radial table, copied points first: with
    z_0n = n*pi, norm(0, n) * j_0(n*pi*d/c) is the expression above, and the
    Bessel series carries it to its d -> 0 limit sqrt(2/c) * n*pi/c. A
    caller that holds the table passes it as ``radial``, as in ``sbf_embed``.
    """
    scalar, (d_arr,) = _points(d)
    radial = _radial_factor(radial, d_arr, tables)
    out = np.ascontiguousarray(radial[0].T)
    return out[0] if scalar else out


def sbf_embed(d, theta, tables: BasisTables, *, radial=None, angular=None) -> np.ndarray:
    """Distance-angle embedding, shape (points, n_shbf, n_srbf).

    d and theta are scalars or 1-D arrays that broadcast to the points; two
    scalars give one point's (n_shbf, n_srbf). Entry (l, n) is norm(l, n) *
    j_l(z_ln * d / c) * Y_l^0(theta). The array is a transposed view of an
    (n_shbf, n_srbf, points) buffer: the product runs along the point axis,
    and ``reshape(points, -1)`` gives the column-major feature without a
    copy.

    A caller that holds the factors passes them instead of having them
    computed, in the layout they are made in, points last: ``radial`` is the
    ``_radial_table`` of the broadcast d, shape (n_shbf, n_srbf, points), and
    ``angular`` the ``_harmonics`` sweep of the broadcast angles, shape
    (n_shbf^2, points), as ``tbf_embed`` takes it; only its zonal rows Y_l^0
    are read, so any phi may have made it. Either of another shape raises
    ``BasisError``; d and theta are range-checked all the same.
    """
    scalar, (d_arr, theta_arr) = _points(d, theta)
    radial = _radial_factor(radial, d_arr, tables)
    _check_polar(theta_arr)
    angular = _factor(angular, (tables.n_shbf ** 2, d_arr.size), "angular",
                      lambda: _harmonics(tables.n_shbf, theta_arr, 0.0))
    orders = np.arange(tables.n_shbf)
    zonal = angular[orders * orders + orders]
    out = (radial * zonal[:, None, :]).transpose(2, 0, 1)
    return out[0] if scalar else out


def tbf_embed(d, theta, phi, tables: BasisTables, *, radial=None, angular=None) -> np.ndarray:
    """Full 3D embedding, flattened over (l, m, n) in lexicographic order.

    Shape (points, n_shbf^2 * n_srbf), with d, theta and phi broadcast as
    in ``sbf_embed``; three scalars give one point's row. Entry (l, m, n) is
    norm(l, n) * j_l(z_ln * d / c) * Y_l^m(theta, phi). phi enters through
    cos/sin of m*phi only, so the embedding is 2*pi-periodic in phi.

    The result is column-major, the transpose of an (n_shbf^2 * n_srbf,
    points) buffer. Each of its rows is one radial row times one harmonic
    row, so every product runs along the long point axis, and the
    down-projection ``feature @ down`` reads the columns it needs as
    contiguous runs. ``radial`` is as in ``sbf_embed``; ``angular`` holds
    every harmonic Y_l^m of the broadcast angles in ``_harmonics``' row
    order, shape (n_shbf^2, points).
    """
    scalar, (d_arr, theta_arr, phi_arr) = _points(d, theta, phi)
    radial = _radial_factor(radial, d_arr, tables)
    _check_polar(theta_arr)
    _check_angle(phi_arr, tables.n_shbf - 1)
    angular = _factor(angular, (tables.n_shbf ** 2, d_arr.size), "angular",
                      lambda: _harmonics(tables.n_shbf, theta_arr, phi_arr))
    out = np.empty((tables.n_shbf ** 2, tables.n_srbf, d_arr.size), dtype=np.float64)
    for ell in range(tables.n_shbf):
        block = slice(ell * ell, (ell + 1) ** 2)
        np.multiply(radial[None, ell], angular[block, None], out=out[block])
    out = out.reshape(tables.tbf_size, d_arr.size).T
    return out[0] if scalar else out


def _radial_factor(radial, d: np.ndarray, tables: BasisTables) -> np.ndarray:
    """The radial table of the range-checked distances ``d``: ``radial`` if
    given, else computed."""
    _check_distance(d, tables.cutoff)
    return _factor(radial, (tables.n_shbf, tables.n_srbf, d.size), "radial",
                   lambda: _radial_table(d, tables))


def _factor(table, shape: tuple, name: str, make) -> np.ndarray:
    """A factor table: ``make()`` when ``table`` is None, else ``table`` as
    float64, checked to have ``shape`` (point axis last); any other shape
    raises ``BasisError``."""
    if table is None:
        return make()
    table = np.asarray(table, dtype=np.float64)
    if table.shape != shape:
        raise BasisError(f"{name} table of shape {table.shape} does not match "
                         f"the expected {shape}")
    return table


def _radial_table(d: np.ndarray, tables: BasisTables) -> np.ndarray:
    """norm(l, n) * j_l(z_ln * d / c) for all (l, n); shape (l, n, len(d)).

    The point axis is last, so the embeddings multiply whole rows along it;
    its l = 0 rows are the distance embedding. ``featurize_graph`` keeps the
    table per edge and gathers its columns to the pairs.

    The table is evaluated once per distinct value of ``d`` and gathered by
    one ``np.take``. One Bessel recurrence up to order n_shbf - 1 runs over
    every (l, n, distinct) argument, and block l keeps row l. Each argument
    starts its recurrence at an order set by its own value and n_shbf - 1, so
    a row does not depend on the other distances of the call; it can differ
    in the last bits from evaluating order l on its own, which starts lower.
    """
    distinct, inverse = np.unique(d, return_inverse=True)
    orders = np.arange(tables.n_shbf)
    x = (tables.roots / tables.cutoff)[:, :, None] * distinct
    values = _bessel_table(tables.n_shbf - 1, x.ravel()).reshape(
        tables.n_shbf, tables.n_shbf, tables.n_srbf, distinct.size)
    out = values[orders, orders] * tables.norms[:, :, None]
    return np.take(out, inverse, axis=2)
