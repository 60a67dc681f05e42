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


def spherical_bessel(order: int, x) -> np.ndarray | float:
    """First-kind spherical Bessel function j_order(x) for x >= 0.

    Stable for all supported orders (0..16): values are produced by downward
    recurrence normalized through sum_l (2l+1) j_l^2 = 1, which avoids the
    catastrophic cancellation of upward recurrence at x < order. The x -> 0
    limit is handled analytically.
    """
    if not 0 <= order <= MAX_ORDER:
        raise BasisError(f"order {order} outside supported range [0, {MAX_ORDER}]")
    x_arr = np.asarray(x, dtype=np.float64)
    if np.any(x_arr < 0):
        raise BasisError("spherical Bessel argument must be >= 0")
    table = _bessel_table(order, np.atleast_1d(x_arr))
    result = table[order]
    return float(result[0]) if x_arr.ndim == 0 else result


def spherical_bessel_derivative(order: int, x) -> np.ndarray | float:
    """d/dx j_order(x) via j_{order-1} - (order+1)/x * j_order."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(x_arr <= 0):
        raise BasisError("derivative evaluation requires x > 0")
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
    """Ascending series x^l/(2l+1)!! * sum_k t_k for small arguments."""
    out = np.empty((l_max + 1, x.size), dtype=np.float64)
    half_sq = -0.5 * x * x
    for ell in range(l_max + 1):
        term = x ** ell / _double_factorial(2 * ell + 1)
        total = term.copy()
        for k in range(1, 40):
            term = term * half_sq / (k * (2 * ell + 2 * k + 1))
            total += term
            if np.all(np.abs(term) <= 1e-18 * np.abs(total)):
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

    Starts high enough above both l_max and x that the minimal solution
    dominates, then normalizes through the closure sum_l (2l+1) j_l(x)^2 = 1.
    The overall sign is right because the start order lies below its own
    first root, where the true j is positive. Running values are rescaled
    whenever they grow large; the recorded rows and the closure sum are
    rescaled along with them.
    """
    x_top = float(np.max(xs))
    start = int(math.ceil(x_top)) + l_max + 24 + int(2.0 * math.sqrt(x_top))
    upper = np.zeros_like(xs)          # j at order m+1 (unnormalized)
    lower = np.full_like(xs, 1e-160)   # j at order m
    recorded = np.zeros((l_max + 1, xs.size), dtype=np.float64)
    norm_sq = (2 * start + 1) * lower * lower
    for m in range(start, 0, -1):
        previous = (2 * m + 1) / xs * lower - upper
        big = np.abs(previous) > _RESCALE_LIMIT
        if np.any(big):
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


@functools.lru_cache(maxsize=32)
def _cached_roots(l_max: int, n_max: int) -> np.ndarray:
    roots = np.zeros((l_max + 1, n_max + l_max), dtype=np.float64)
    # j_0 = sin(x)/x: its roots are exactly n*pi; they seed the interlacing.
    roots[0] = np.arange(1, n_max + l_max + 1) * np.pi
    for order in range(1, l_max + 1):
        count = n_max + l_max - order
        lo = roots[order - 1, :count].copy()
        hi = roots[order - 1, 1:count + 1].copy()
        f_lo = _bessel_table(order, lo)[order]
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            f_mid = _bessel_table(order, mid)[order]
            take_hi = (f_lo * f_mid) <= 0.0
            hi = np.where(take_hi, mid, hi)
            lo = np.where(take_hi, lo, mid)
            f_lo = np.where(take_hi, f_lo, f_mid)
        mid = 0.5 * (lo + hi)
        for _ in range(2):
            value = _bessel_table(order, mid)[order]
            slope = spherical_bessel_derivative(order, mid)
            mid = mid - value / slope
        roots[order, :count] = mid
    result = roots[:, :n_max]
    result.setflags(write=False)
    return result


def bessel_roots(l_max: int, n_max: int) -> np.ndarray:
    """First n_max positive roots of j_l for every order l in 0..l_max.

    Roots of order l are bracketed between consecutive roots of order l-1
    (they interlace) and polished by bisection plus Newton steps, giving
    |j_l(z)| below 1e-12.
    """
    if not 0 <= l_max <= MAX_ORDER:
        raise BasisError(f"l_max {l_max} outside supported range [0, {MAX_ORDER}]")
    if not 1 <= n_max <= MAX_ROOTS:
        raise BasisError(f"n_max {n_max} outside supported range [1, {MAX_ROOTS}]")
    return _cached_roots(l_max, n_max)


def real_sph_harm(order: int, m: int, theta, phi=0.0) -> np.ndarray | float:
    """Real spherical harmonic of degree ``order`` and index m, |m| <= order.

    Unit-normalized (the square integrates to 1 over the sphere); positive m
    carries cos(m*phi), negative m carries sin(|m|*phi), and no
    Condon-Shortley phase is applied. m = 0 is the zonal harmonic and ignores
    phi.
    """
    if not 0 <= order <= MAX_ORDER:
        raise BasisError(f"degree {order} outside supported range [0, {MAX_ORDER}]")
    if abs(m) > order:
        raise BasisError(f"|m| = {abs(m)} exceeds degree {order}")
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    phi_arr = np.atleast_1d(np.asarray(phi, dtype=np.float64))
    theta_arr, phi_arr = np.broadcast_arrays(theta_arr, phi_arr)
    m_abs = abs(m)
    legendre = _assoc_legendre(order, m_abs, theta_arr)
    norm = math.sqrt(
        (2 * order + 1) / (4.0 * math.pi)
        * math.factorial(order - m_abs) / math.factorial(order + m_abs)
    )
    if m == 0:
        result = norm * legendre
    elif m > 0:
        result = math.sqrt(2.0) * norm * legendre * np.cos(m_abs * phi_arr)
    else:
        result = math.sqrt(2.0) * norm * legendre * np.sin(m_abs * phi_arr)
    return float(result[0]) if np.asarray(theta).ndim == 0 and np.asarray(phi).ndim == 0 else result


def _assoc_legendre(order: int, m: int, theta: np.ndarray) -> np.ndarray:
    """P_order^m(cos theta) without Condon-Shortley phase, by upward recurrence."""
    u = np.cos(theta)
    s = np.sin(theta)
    pmm = np.ones_like(u)
    for i in range(1, m + 1):
        pmm = pmm * (2 * i - 1) * s
    if order == m:
        return pmm
    pm1 = (2 * m + 1) * u * pmm
    if order == m + 1:
        return pm1
    for ell in range(m + 2, order + 1):
        pmm, pm1 = pm1, ((2 * ell - 1) * u * pm1 - (ell + m - 1) * pmm) / (ell - m)
    return pm1


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
    norms = np.empty_like(roots)
    for ell in range(n_shbf):
        j_next = spherical_bessel(ell + 1, roots[ell])
        norms[ell] = np.sqrt(2.0 / (cutoff ** 3 * j_next * j_next))
    if not np.all(np.isfinite(norms)) or np.any(norms <= 0):
        raise BasisError("normalization constants must be finite and positive")
    norms.setflags(write=False)
    return BasisTables(cutoff=float(cutoff), n_srbf=n_srbf, n_shbf=n_shbf,
                       roots=roots, norms=norms)


def tables_for(cfg) -> BasisTables:
    """Tables matching a RunConfig."""
    return build_tables(cfg.cutoff_c, cfg.n_srbf, cfg.n_shbf)


def _check_distance(d: np.ndarray, cutoff: float):
    if np.any(d <= 0) or np.any(d > cutoff * (1 + 1e-12)):
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


def sbf_embed(d, theta, tables: BasisTables) -> np.ndarray:
    """Distance-angle embedding, shape (..., n_shbf, n_srbf).

    Entry (l, n) is norm(l, n) * j_l(z_ln * d / c) * Y_l^0(theta).
    """
    scalar = np.asarray(d).ndim == 0
    d_arr = np.atleast_1d(np.asarray(d, dtype=np.float64))
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    _check_distance(d_arr, tables.cutoff)
    _check_polar(theta_arr)
    radial = _radial_table(d_arr, tables)
    out = np.empty((d_arr.size, tables.n_shbf, tables.n_srbf), dtype=np.float64)
    for ell in range(tables.n_shbf):
        zonal = real_sph_harm(ell, 0, theta_arr)
        out[:, ell, :] = radial[:, ell, :] * np.atleast_1d(zonal)[:, None]
    return out[0] if scalar else out


def tbf_embed(d, theta, phi, tables: BasisTables) -> np.ndarray:
    """Full 3D embedding, flattened over (l, m, n) in lexicographic order.

    Entry (l, m, n) is norm(l, n) * j_l(z_ln * d / c) * Y_l^m(theta, phi);
    the flattened length is n_shbf^2 * n_srbf. phi enters through cos/sin of
    m*phi only, so the embedding is 2*pi-periodic in phi.
    """
    scalar = np.asarray(d).ndim == 0
    d_arr = np.atleast_1d(np.asarray(d, dtype=np.float64))
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    phi_arr = np.atleast_1d(np.asarray(phi, dtype=np.float64))
    _check_distance(d_arr, tables.cutoff)
    _check_polar(theta_arr)
    radial = _radial_table(d_arr, tables)
    out = np.empty((d_arr.size, tables.tbf_size), dtype=np.float64)
    col = 0
    for ell in range(tables.n_shbf):
        for m in range(-ell, ell + 1):
            angular = np.atleast_1d(real_sph_harm(ell, m, theta_arr, phi_arr))
            out[:, col:col + tables.n_srbf] = radial[:, ell, :] * angular[:, None]
            col += tables.n_srbf
    return out[0] if scalar else out


def _radial_table(d: np.ndarray, tables: BasisTables) -> np.ndarray:
    """norm(l, n) * j_l(z_ln * d / c) for all (l, n); shape (len(d), l, n).

    Pair distances repeat their neighbor edge's distance, so the table is
    evaluated once per distinct value and expanded. One Bessel recurrence up
    to order n_shbf - 1 runs over every (distinct, l, n) argument, and block
    l keeps row l. The recurrence's start order follows the largest argument
    of the call, so rows can differ in the last bits from evaluating each
    order on its own.
    """
    distinct, inverse = np.unique(d, return_inverse=True)
    orders = np.arange(tables.n_shbf)
    x = distinct[:, None, None] * (tables.roots / tables.cutoff)
    values = _bessel_table(tables.n_shbf - 1, x.ravel()).reshape(
        tables.n_shbf, distinct.size, tables.n_shbf, tables.n_srbf)
    out = values[orders, :, orders, :] * tables.norms[:, None, :]
    return out.transpose(1, 0, 2)[inverse]


def _check_polar(theta: np.ndarray):
    if np.any(theta < -1e-9) or np.any(theta > np.pi + 1e-9):
        raise BasisError("polar angle outside [0, pi]")
