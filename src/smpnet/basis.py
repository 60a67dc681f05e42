"""Physically-based embeddings of distances, angles, and torsions.

Three nested representations share one construction: spherical Bessel
radial factors pinned to zero at the cutoff through the root boundary
condition k = z_ln / c, combined with real spherical harmonics.

  * distance embedding  : sqrt(2/c) * sin(n*pi*d/c) / d
  * distance-angle      : norm(l,n) * j_l(z_ln*d/c) * Y_l^0(theta)
  * distance-angle-torsion: norm(l,n) * j_l(z_ln*d/c) * Y_l^m(theta, phi)

with norm(l,n) = sqrt(2 / (c^3 * j_{l+1}(z_ln)^2)). Harmonics are real-form
(cos/sin in m*phi) without the Condon-Shortley phase and unit-normalized
over the sphere. All evaluations accept scalars or 1-D arrays and are pure.

Each ingredient is computed once: the roots z_ln of every order in one
vectorized solve (cached per table size), the radial factors in one Bessel
recurrence over every distinct distance and order, and the harmonics in one
sweep that yields every Y_l^m column (the zonal Y_l^0 alone for the
distance-angle embedding). The radial factors depend only on the distance,
so a caller that embeds the same distances twice computes ``_radial_table``
once and passes it to both embeddings as ``radial=``; the network computes
it once per graph over the edge distances and gathers it to the pairs. A
point's Bessel values depend only on that point, never on the other points
evaluated with it, so the shared table is bitwise the one each embedding
computes on its own. Arguments must be finite and in range; NaN and
infinity raise ``BasisError``.

The pair embeddings are column-major: ``sbf_embed`` and ``tbf_embed`` fill
(columns, points) buffers and return their transposes, with the documented
shapes and (l, m, n) column order. Each product of a radial row and a
harmonic row then runs along the long point axis, and the network's
down-projection reads each column as one contiguous run.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

MAX_ORDER = 16
MAX_ROOTS = 64

# Distance embeddings switch to their analytic d -> 0 limit below this.
SMALL_DISTANCE = 1e-8


class BasisError(ValueError):
    """Raised for out-of-range basis arguments."""


def _check_order(order: int):
    if not 0 <= order <= MAX_ORDER:
        raise BasisError(f"order {order} outside supported range [0, {MAX_ORDER}]")


def spherical_bessel(order: int, x) -> np.ndarray | float:
    """First-kind spherical Bessel function j_order(x) for x >= 0.

    Stable for all supported orders (0..16): values are produced by downward
    recurrence normalized through sum_l (2l+1) j_l^2 = 1, which avoids the
    catastrophic cancellation of upward recurrence at x < order. The x -> 0
    limit is handled analytically.
    """
    _check_order(order)
    x_arr = np.asarray(x, dtype=np.float64)
    if not np.all((x_arr >= 0) & (x_arr < np.inf)):
        raise BasisError("spherical Bessel argument must be finite and >= 0")
    table = _bessel_table(order, np.atleast_1d(x_arr))
    result = table[order]
    return float(result[0]) if x_arr.ndim == 0 else result


def spherical_bessel_derivative(order: int, x) -> np.ndarray | float:
    """d/dx j_order(x) via j_{order-1} - (order+1)/x * j_order."""
    _check_order(order)
    x_arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all((x_arr > 0) & (x_arr < np.inf)):
        raise BasisError("derivative evaluation requires finite x > 0")
    table = _bessel_table(order + 1, x_arr)
    if order == 0:
        result = -table[1]
    else:
        result = table[order - 1] - (order + 1) / x_arr * table[order]
    return float(result[0]) if np.asarray(x).ndim == 0 else result


# Arguments below this go through the ascending series; its terms decay
# immediately there, so no cancellation occurs.
_SERIES_CUTOVER = 0.5
_RESCALE_LIMIT = 1e140


def _bessel_table(l_max: int, x: np.ndarray) -> np.ndarray:
    """j_l(x) for all l in 0..l_max, shape (l_max + 1, len(x))."""
    table = np.zeros((l_max + 1, x.size), dtype=np.float64)
    zero = x == 0.0
    table[0, zero] = 1.0
    small = ~zero & (x < _SERIES_CUTOVER)
    if np.any(small):
        table[:, small] = _bessel_series(l_max, x[small])
    live = x >= _SERIES_CUTOVER
    if np.any(live):
        table[:, live] = _bessel_miller(l_max, x[live])
    return table


def _bessel_series(l_max: int, x: np.ndarray) -> np.ndarray:
    """Ascending series x^l/(2l+1)!! * sum_k t_k for small arguments.

    Each point stops adding terms once its own term is negligible, so its
    value does not depend on the other points of the call.
    """
    out = np.empty((l_max + 1, x.size), dtype=np.float64)
    half_sq = -0.5 * x * x
    for ell in range(l_max + 1):
        term = x ** ell / _double_factorial(2 * ell + 1)
        total = term.copy()
        adding = np.ones(x.size, dtype=bool)
        for k in range(1, 40):
            term = term * half_sq / (k * (2 * ell + 2 * k + 1))
            np.add(total, term, out=total, where=adding)
            adding &= np.abs(term) > 1e-18 * np.abs(total)
            if not np.any(adding):
                break
        out[ell] = total
    return out


def _double_factorial(n: int) -> float:
    result = 1.0
    while n > 1:
        result *= n
        n -= 2
    return result


def _bessel_miller(l_max: int, xs: np.ndarray) -> np.ndarray:
    """Downward recurrence j_{m-1} = (2m+1)/x * j_m - j_{m+1}.

    Each point starts at its own order ceil(x) + l_max + 24 + int(2 sqrt(x)),
    high enough above both l_max and x that the minimal solution dominates,
    and is then normalized through the closure sum_l (2l+1) j_l(x)^2 = 1. The
    overall sign is right because the start order lies below its own first
    root, where the true j is positive. Above its start a point carries exact
    zeros, so its arithmetic is the same whatever else is in the call. The
    seed at the start order is 1: a seed near the underflow range would run
    the first steps of every point on slow subnormal numbers.
    Running values are rescaled whenever they grow large; the recorded rows
    and the closure sum are rescaled along with them.
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
        big = np.abs(previous) > _RESCALE_LIMIT
        if big.any():
            scale = np.where(big, 1.0 / _RESCALE_LIMIT, 1.0)
            previous = previous * scale
            lower = lower * scale
            recorded[:, big] /= _RESCALE_LIMIT
            norm_sq = norm_sq * scale * scale
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
    if not 0 <= l_max <= MAX_ORDER:
        raise BasisError(f"l_max {l_max} outside supported range [0, {MAX_ORDER}]")
    if not 1 <= n_max <= MAX_ROOTS:
        raise BasisError(f"n_max {n_max} outside supported range [1, {MAX_ROOTS}]")
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
    phi. The value is column (order, m) of the sweep the embeddings use.
    Non-finite angles raise ``BasisError``.
    """
    if not 0 <= order <= MAX_ORDER:
        raise BasisError(f"degree {order} outside supported range [0, {MAX_ORDER}]")
    if abs(m) > order:
        raise BasisError(f"|m| = {abs(m)} exceeds degree {order}")
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    phi_arr = np.atleast_1d(np.asarray(phi, dtype=np.float64))
    if not (np.all(np.isfinite(theta_arr)) and np.all(np.isfinite(phi_arr))):
        raise BasisError("harmonic angles must be finite")
    theta_arr, phi_arr = np.broadcast_arrays(theta_arr, phi_arr)
    result = _harmonics(order + 1, theta_arr, phi_arr)[:, order * order + order + m]
    return float(result[0]) if np.asarray(theta).ndim == 0 and np.asarray(phi).ndim == 0 else result


def _harmonics(degrees: int, theta: np.ndarray, phi) -> np.ndarray:
    """Every Y_l^m with l < degrees; shape (len(theta), degrees^2).

    Column l*l + l + m holds (l, m), so each degree's columns run m = -l..l.
    One upward recurrence in l per m evaluates P_l^m(cos theta) without the
    Condon-Shortley phase, from P_m^m = (2m-1)!! sin^m theta, and cos/sin of
    m*phi are computed once per m. The result is a transposed view.
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
    return out.T


def _zonal_harmonics(degrees: int, theta: np.ndarray) -> np.ndarray:
    """Y_l^0(theta) for l < degrees; shape (degrees, len(theta)).

    One Legendre recurrence, bitwise the m = 0 columns of ``_harmonics``.
    """
    u = np.cos(theta)
    out = np.empty((degrees, theta.size), dtype=np.float64)
    for ell, row in _legendre_rows(0, degrees, u, np.ones_like(u)):
        out[ell] = row
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


@functools.lru_cache(maxsize=32)
def build_tables(cutoff: float, n_srbf: int, n_shbf: int) -> BasisTables:
    """Construct (and cache) the root/normalization tables."""
    if not cutoff > 0:
        raise BasisError(f"cutoff must be positive, got {cutoff}")
    if not 1 <= n_shbf <= MAX_ORDER:
        raise BasisError(f"n_shbf {n_shbf} outside supported range [1, {MAX_ORDER}]")
    if not 1 <= n_srbf <= MAX_ROOTS:
        raise BasisError(f"n_srbf {n_srbf} outside supported range [1, {MAX_ROOTS}]")
    roots = bessel_roots(n_shbf - 1, n_srbf)
    orders = np.arange(n_shbf)
    j_next = _bessel_table(n_shbf, roots.ravel()).reshape(
        n_shbf + 1, n_shbf, n_srbf)[orders + 1, orders]
    norms = np.sqrt(2.0 / (cutoff ** 3 * j_next * j_next))
    if not np.all(np.isfinite(norms)) or np.any(norms <= 0):
        raise BasisError("normalization constants must be finite and positive")
    norms.setflags(write=False)
    return BasisTables(cutoff=float(cutoff), n_srbf=n_srbf, n_shbf=n_shbf,
                       roots=roots, norms=norms)


def tables_for(cfg) -> BasisTables:
    """Tables matching a RunConfig."""
    return build_tables(cfg.cutoff_c, cfg.n_srbf, cfg.n_shbf)


def _check_distance(d: np.ndarray, cutoff: float):
    # One comparison chain that NaN fails, unlike a search for bad values.
    if not np.all((d > 0) & (d <= cutoff * (1 + 1e-12))):
        raise BasisError(f"distance outside (0, {cutoff}]")


def rbf_embed(d, tables: BasisTables) -> np.ndarray:
    """Distance embedding sqrt(2/c) * sin(n*pi*d/c) / d for n = 1..n_srbf.

    Shape (..., n_srbf). Below d = 1e-8 the analytic d -> 0 limit
    sqrt(2/c) * n*pi/c is used.
    """
    scalar = np.asarray(d).ndim == 0
    d_arr = np.atleast_1d(np.asarray(d, dtype=np.float64))
    _check_distance(d_arr, tables.cutoff)
    c = tables.cutoff
    n = np.arange(1, tables.n_srbf + 1, dtype=np.float64)
    prefactor = math.sqrt(2.0 / c)
    small = d_arr < SMALL_DISTANCE
    safe_d = np.where(small, 1.0, d_arr)
    values = prefactor * np.sin(np.outer(d_arr, n) * (np.pi / c)) / safe_d[:, None]
    values[small] = prefactor * n * np.pi / c
    return values[0] if scalar else values


def sbf_embed(d, theta, tables: BasisTables, *, radial=None) -> np.ndarray:
    """Distance-angle embedding, shape (..., n_shbf, n_srbf).

    Entry (l, n) is norm(l, n) * j_l(z_ln * d / c) * Y_l^0(theta). The array
    is a transposed view of an (n_shbf, n_srbf, len(d)) buffer: the product
    runs along the long point axis, and ``reshape(len(d), -1)`` gives the
    column-major (points, n_shbf * n_srbf) feature without a copy. Only the
    zonal harmonics are evaluated.

    ``radial`` is the ``_radial_table`` of ``d``, shape (len(d), n_shbf,
    n_srbf), for a caller that shares one table with ``tbf_embed``; it is
    computed here when absent.
    """
    scalar = np.asarray(d).ndim == 0
    d_arr = np.atleast_1d(np.asarray(d, dtype=np.float64))
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    _check_distance(d_arr, tables.cutoff)
    _check_polar(theta_arr)
    radial = _radial_rows(d_arr, tables, radial)
    zonal = _zonal_harmonics(tables.n_shbf, theta_arr)
    out = (radial * zonal[:, None, :]).transpose(2, 0, 1)
    return out[0] if scalar else out


def tbf_embed(d, theta, phi, tables: BasisTables, *, radial=None) -> np.ndarray:
    """Full 3D embedding, flattened over (l, m, n) in lexicographic order.

    Entry (l, m, n) is norm(l, n) * j_l(z_ln * d / c) * Y_l^m(theta, phi);
    the flattened length is n_shbf^2 * n_srbf. phi enters through cos/sin of
    m*phi only, so the embedding is 2*pi-periodic in phi.

    The result is column-major, the transpose of an (n_shbf^2 * n_srbf,
    len(d)) buffer. Each of its rows is one radial row times one harmonic
    row, so every product runs along the long point axis, and the
    down-projection ``feature @ down`` reads the columns it needs as
    contiguous runs. ``radial`` is as in ``sbf_embed``.
    """
    scalar = np.asarray(d).ndim == 0
    d_arr = np.atleast_1d(np.asarray(d, dtype=np.float64))
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    phi_arr = np.atleast_1d(np.asarray(phi, dtype=np.float64))
    _check_distance(d_arr, tables.cutoff)
    _check_polar(theta_arr)
    if not np.all(np.isfinite(phi_arr)):
        raise BasisError("azimuth must be finite")
    theta_arr, phi_arr = np.broadcast_arrays(theta_arr, phi_arr)
    radial = _radial_rows(d_arr, tables, radial)
    angular = _harmonics(tables.n_shbf, theta_arr, phi_arr).T
    out = np.empty((tables.n_shbf ** 2, tables.n_srbf, d_arr.size), dtype=np.float64)
    for ell in range(tables.n_shbf):
        block = slice(ell * ell, (ell + 1) ** 2)
        np.multiply(radial[None, ell], angular[block, None], out=out[block])
    out = out.reshape(tables.tbf_size, d_arr.size).T
    return out[0] if scalar else out


def _radial_rows(d: np.ndarray, tables: BasisTables, radial) -> np.ndarray:
    """The (l, n, len(d)) radial rows: ``radial`` transposed, or computed."""
    if radial is None:
        return _radial_table(d, tables).transpose(1, 2, 0)
    radial = np.asarray(radial, dtype=np.float64)
    if radial.shape != (d.size, tables.n_shbf, tables.n_srbf):
        raise BasisError(f"radial table of shape {radial.shape} does not match "
                         f"{d.size} points and tables ({tables.n_shbf}, {tables.n_srbf})")
    return radial.transpose(1, 2, 0)


def _radial_table(d: np.ndarray, tables: BasisTables, index=None) -> np.ndarray:
    """norm(l, n) * j_l(z_ln * d / c) for all (l, n); shape (len(d), l, n).

    With ``index``, the rows are those of ``d[index]`` (shape (len(index), l,
    n)), computed from ``d`` alone: ``featurize_graph`` passes the edge
    distances and each pair's neighbor edge, so one table per graph serves
    both pair embeddings. The shape is a transposed view of an (l, n, rows)
    buffer, so the embeddings multiply whole rows along the point axis.

    The table is evaluated once per distinct value of ``d`` and gathered by
    one ``np.take``. One Bessel recurrence up to order n_shbf - 1 runs over
    every (l, n, distinct) argument, and block l keeps row l. Each argument
    starts its recurrence at an order set by its own value and n_shbf - 1, so
    a row does not depend on the other distances of the call; it can differ
    in the last bits from evaluating order l on its own, which starts lower.
    """
    distinct, inverse = np.unique(d, return_inverse=True)
    if index is not None:
        inverse = inverse[index]
    orders = np.arange(tables.n_shbf)
    x = (tables.roots / tables.cutoff)[:, :, None] * distinct
    values = _bessel_table(tables.n_shbf - 1, x.ravel()).reshape(
        tables.n_shbf, tables.n_shbf, tables.n_srbf, distinct.size)
    out = values[orders, orders] * tables.norms[:, :, None]
    return np.take(out, inverse, axis=2).transpose(2, 0, 1)


def _check_polar(theta: np.ndarray):
    if not np.all((theta >= -1e-9) & (theta <= np.pi + 1e-9)):
        raise BasisError("polar angle outside [0, pi]")
