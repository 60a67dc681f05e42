import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from smpnet.basis import (MAX_ARGUMENT, MAX_ORDER, BasisError, _harmonics, _radial_table,
                          bessel_roots, build_tables, rbf_embed, real_sph_harm, sbf_embed,
                          spherical_bessel, tbf_embed)

mp.mp.dps = 40


def oracle_jl(order: int, x: float) -> float:
    """High-precision spherical Bessel via the half-integer cylinder function."""
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    xm = mp.mpf(x)
    return float(mp.sqrt(mp.pi / (2 * xm)) * mp.besselj(order + mp.mpf(1) / 2, xm))


def gauss_legendre(n: int, a: float, b: float):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (nodes + 1.0), half * weights


# --- spherical Bessel ------------------------------------------------------------

def test_j0_limits_and_roots():
    assert spherical_bessel(0, 0.0) == 1.0
    assert abs(spherical_bessel(0, math.pi)) < 1e-15
    assert spherical_bessel(5, 0.0) == 0.0


def test_j1_at_pi_closed_form():
    # j_1(x) = sin(x)/x^2 - cos(x)/x, evaluated with the mpmath oracle
    expected = float(mp.sin(mp.pi) / mp.pi ** 2 - mp.cos(mp.pi) / mp.pi)
    assert abs(spherical_bessel(1, math.pi) - expected) < 1e-12
    assert abs(expected - 1 / math.pi) < 1e-15


def test_bessel_against_oracle_sweep():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        order = int(rng.integers(0, 17))
        x = float(rng.uniform(0.0, 100.0))
        mine = spherical_bessel(order, x)
        ref = oracle_jl(order, x)
        worst = max(worst, abs(mine - ref) / max(abs(ref), 1e-280))
    assert worst < 1e-9


@pytest.mark.parametrize("x, floor", [(0.5, 0.0), (MAX_ARGUMENT, 1.0 / MAX_ARGUMENT)])
def test_bessel_every_order_at_the_ends_of_the_internal_range(x, floor):
    # 0.5 is the smallest argument the recurrence takes (below it the series
    # runs); no root, table or radial factor needs one above MAX_ARGUMENT.
    # MAX_ARGUMENT is a root of j_0, so there the error is measured against
    # the 1/x envelope of j_l, not against the value itself.
    for order in range(MAX_ORDER + 1):
        mine = spherical_bessel(order, x)
        ref = oracle_jl(order, x)
        assert abs(mine - ref) <= 1e-9 * max(abs(ref), floor), order


def test_bessel_vectorized_matches_scalar():
    # Each point runs its own recurrence start order, and every point sums
    # the same series terms, so batched and scalar evaluations agree bitwise.
    xs = np.array([0.0, 1e-9, 0.3, 0.5, 2.0, 40.0, 1e-300, 0.49,
                   np.nextafter(0.5, 0.0), 0.5 - 1e-12, 0.4999])
    for order in (0, 3, 16):
        batch = spherical_bessel(order, xs)
        singles = [spherical_bessel(order, float(x)) for x in xs]
        assert np.array_equal(batch, singles)


def test_bessel_order_range_enforced():
    with pytest.raises(BasisError):
        spherical_bessel(17, 1.0)
    with pytest.raises(BasisError):
        spherical_bessel(-1, 1.0)
    with pytest.raises(BasisError):
        spherical_bessel(2, -0.5)


# --- roots -----------------------------------------------------------------------

def test_order_zero_roots_are_multiples_of_pi():
    roots = bessel_roots(0, 10)
    assert np.max(np.abs(roots[0] - np.arange(1, 11) * np.pi)) < 1e-12


def test_first_root_of_order_one():
    # Bisection on the closed form with mpmath as the independent oracle.
    f = lambda x: mp.sin(x) / x ** 2 - mp.cos(x) / x
    lo, hi = mp.mpf(3), mp.mpf(6)
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    reference = float((lo + hi) / 2)
    assert abs(bessel_roots(1, 1)[1, 0] - reference) < 1e-9
    assert abs(reference - 4.4934094579) < 1e-9


def test_roots_are_actual_zeros_and_increasing():
    roots = bessel_roots(7, 8)
    for order in range(8):
        for n in range(8):
            assert abs(spherical_bessel(order, roots[order, n])) < 1e-12
        assert np.all(np.diff(roots[order]) > 0)
    # interlacing columns: z_{l,1} increases with l, and z_{0,1} < z_{1,1} < z_{0,2}
    assert np.all(np.diff(roots[:, 0]) > 0)
    assert roots[0, 0] < roots[1, 0] < roots[0, 1]


@pytest.mark.parametrize("order", [0, 1, 7, 16])
def test_roots_against_mpmath(order):
    roots = bessel_roots(16, 64)
    for n in (1, 2, 30, 64):
        expected = float(mp.besseljzero(order + mp.mpf(1) / 2, n))
        assert abs(roots[order, n - 1] - expected) <= 2e-16 * expected, (order, n)


def test_root_range_enforced():
    with pytest.raises(BasisError):
        bessel_roots(17, 4)
    with pytest.raises(BasisError):
        bessel_roots(3, 65)


# --- real spherical harmonics ------------------------------------------------------

def test_y00_is_constant():
    expected = 1.0 / (2.0 * math.sqrt(math.pi))
    for theta, phi in [(0.0, 0.0), (1.1, 2.2), (math.pi, 5.0)]:
        assert abs(real_sph_harm(0, 0, theta, phi) - expected) < 1e-15


def test_y10_at_pole():
    assert abs(real_sph_harm(1, 0, 0.0) - math.sqrt(3.0 / (4.0 * math.pi))) < 1e-15


def test_real_form_cos_sin_symmetry():
    a = real_sph_harm(1, 1, math.pi / 2, 0.0)
    b = real_sph_harm(1, -1, math.pi / 2, math.pi / 2)
    assert abs(a - b) < 1e-15


def test_harmonics_orthonormal_under_quadrature():
    l_max = 4
    u_nodes, u_weights = np.polynomial.legendre.leggauss(64)
    theta = np.arccos(u_nodes)
    n_phi = 4 * l_max + 2
    phi = np.arange(n_phi) * 2.0 * math.pi / n_phi
    w_phi = 2.0 * math.pi / n_phi
    indices = [(l, m) for l in range(l_max + 1) for m in range(-l, l + 1)]
    values = np.stack([
        np.concatenate([np.atleast_1d(real_sph_harm(l, m, t, phi)) for t in theta])
        for (l, m) in indices
    ])
    weights = np.repeat(u_weights, n_phi) * w_phi
    gram = (values * weights) @ values.T
    assert np.max(np.abs(gram - np.eye(len(indices)))) < 1e-12


def test_harmonics_against_mpmath():
    rng = np.random.default_rng(11)
    for _ in range(200):
        l = int(rng.integers(0, 9))
        m = int(rng.integers(-l, l + 1))
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        complex_val = mp.spherharm(l, abs(m), mp.mpf(theta), mp.mpf(phi))
        if m == 0:
            expected = float(mp.re(complex_val))
        elif m > 0:
            expected = float(mp.sqrt(2) * (-1) ** m * mp.re(complex_val))
        else:
            expected = float(mp.sqrt(2) * (-1) ** m * mp.im(complex_val))
        mine = real_sph_harm(l, m, theta, phi)
        assert abs(mine - expected) < 1e-11, (l, m, theta, phi)


def test_harmonic_m_range_enforced():
    with pytest.raises(BasisError):
        real_sph_harm(2, 3, 0.4)


# --- embeddings -------------------------------------------------------------------

def test_rbf_boundary_and_midpoint():
    tables = build_tables(5.0, 6, 7)
    assert np.max(np.abs(rbf_embed(5.0, tables))) < 1e-12
    value = rbf_embed(2.5, tables)[0]
    expected = math.sqrt(2.0 / 5.0) * math.sin(math.pi / 2) / 2.5
    assert abs(value - expected) < 1e-12
    assert abs(expected - 0.2529822) < 5e-8


def test_rbf_small_distance_limit():
    tables = build_tables(5.0, 4, 2)
    tiny = rbf_embed(1e-10, tables)
    n = np.arange(1, 5)
    assert np.allclose(tiny, math.sqrt(2.0 / 5.0) * n * math.pi / 5.0, rtol=1e-12)
    near = rbf_embed(2e-8, tables)
    assert np.allclose(tiny, near, rtol=1e-6)


def test_rbf_orthonormal_under_quadrature():
    tables = build_tables(5.0, 6, 7)
    d, w = gauss_legendre(256, 0.0, 5.0)
    values = rbf_embed(d, tables)
    gram = (values * (w * d * d)[:, None]).T @ values
    assert np.max(np.abs(gram - np.eye(6))) < 1e-12


def test_sbf_boundary_and_sample_value():
    tables = build_tables(5.0, 3, 3)
    assert np.max(np.abs(sbf_embed(5.0, 0.7, tables))) < 1e-10
    value = sbf_embed(2.5, 0.123, tables)[0, 0]
    # (l, n) = (0, 1): the norm reduces to n*pi*sqrt(2/c^3), the radial factor
    # to j_0(pi/2), and the angular factor to Y_0^0.
    expected = (math.pi * math.sqrt(2.0 / 125.0)
                * oracle_jl(0, math.pi / 2)
                / (2.0 * math.sqrt(math.pi)))
    assert abs(value - expected) < 1e-12


def test_sbf_radial_orthonormality_per_order():
    tables = build_tables(5.0, 6, 7)
    d, w = gauss_legendre(256, 0.0, 5.0)
    for order in range(7):
        radial = np.empty((d.size, 6))
        for n in range(6):
            radial[:, n] = tables.norms[order, n] * spherical_bessel(
                order, tables.roots[order, n] * d / 5.0)
        gram = (radial * (w * d * d)[:, None]).T @ radial
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10


def test_sbf_order_zero_matches_rbf():
    tables = build_tables(5.0, 5, 3)
    rng = np.random.default_rng(21)
    y00 = 1.0 / (2.0 * math.sqrt(math.pi))
    for _ in range(100):
        d = float(rng.uniform(1e-3, 5.0))
        assert np.allclose(sbf_embed(d, 0.9, tables)[0] / y00,
                           rbf_embed(d, tables)[:5], rtol=1e-10)


def test_tbf_m0_entry_matches_sbf_and_value():
    tables = build_tables(5.0, 3, 3)
    full = tbf_embed(2.5, 0.3, 1.0, tables)
    # (l, m, n) = (0, 0, 1): independent of phi, equal to the sbf (0, 1) entry
    expected = (math.pi * math.sqrt(2.0 / 125.0)
                * oracle_jl(0, math.pi / 2)
                / (2.0 * math.sqrt(math.pi)))
    assert abs(full[0] - expected) < 1e-12
    assert abs(full[0] - sbf_embed(2.5, 0.3, tables)[0, 0]) < 1e-15


def test_tbf_m0_slice_equals_sbf_everywhere():
    tables = build_tables(5.0, 3, 4)
    columns = []
    col = 0
    for l in range(4):
        for m in range(-l, l + 1):
            if m == 0:
                columns.extend(range(col, col + 3))
            col += 3
    rng = np.random.default_rng(31)
    for _ in range(25):
        d = float(rng.uniform(0.1, 5.0))
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        full = tbf_embed(d, theta, phi, tables)
        flat = sbf_embed(d, theta, tables).ravel()
        assert np.max(np.abs(full[columns] - flat)) < 1e-12


def test_tbf_periodicity_and_size():
    tables = build_tables(5.0, 3, 3)
    a = tbf_embed(1.7, 0.9, 0.4, tables)
    b = tbf_embed(1.7, 0.9, 0.4 + 2.0 * math.pi, tables)
    assert a.size == 3 * 3 * 3
    assert np.max(np.abs(a - b)) < 1e-12
    assert np.max(np.abs(tbf_embed(5.0, 1.0, 2.0, tables))) < 1e-10


def test_repeated_distances_give_rows_of_distinct_call():
    # Pair distances repeat edge distances; evaluating each distinct value
    # once must give bitwise the rows of the call on the distinct values.
    tables = build_tables(5.0, 4, 4)
    rng = np.random.default_rng(5)
    d = np.concatenate([[0.02, 0.3], rng.uniform(0.5, 5.0, size=20)])
    theta = rng.uniform(0.0, math.pi, size=d.size)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=d.size)
    index = rng.permutation(np.concatenate([np.arange(d.size),
                                            rng.integers(0, d.size, size=3 * d.size)]))
    assert np.array_equal(sbf_embed(d[index], theta[index], tables),
                          sbf_embed(d, theta, tables)[index])
    assert np.array_equal(tbf_embed(d[index], theta[index], phi[index], tables),
                          tbf_embed(d, theta, phi, tables)[index])


def test_shared_radial_table_gives_standalone_embeddings():
    # The network keeps one table over edge distances, gathers it to the
    # pairs and passes it with the pairs' stored harmonic sweep; both
    # embeddings must be bitwise their standalone values, whichever factors
    # are given. The angle embedding reads the sweep's zonal columns, which
    # do not depend on phi.
    tables = build_tables(5.0, 6, 7)
    rng = np.random.default_rng(43)
    edge_d = np.concatenate([[0.02, 5.0], rng.uniform(0.1, 5.0, size=10)])
    neighbor = rng.integers(0, edge_d.size, size=40)
    d = edge_d[neighbor]
    theta = rng.uniform(0.0, math.pi, size=d.size)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=d.size)
    radial = _radial_table(edge_d, tables)[..., neighbor]
    assert np.array_equal(radial, _radial_table(d, tables))
    angular = _harmonics(tables.n_shbf, theta, phi)
    for factors in ({"radial": radial}, {"angular": angular},
                    {"radial": radial, "angular": angular}):
        assert np.array_equal(sbf_embed(d, theta, tables, **factors),
                              sbf_embed(d, theta, tables))
        assert np.array_equal(tbf_embed(d, theta, phi, tables, **factors),
                              tbf_embed(d, theta, phi, tables))
    # The distance embedding is the l = 0 rows of the same table, C-contiguous.
    rbf = rbf_embed(d, tables)
    assert rbf.flags.c_contiguous
    assert np.array_equal(rbf, _radial_table(d, tables)[0].T)
    assert np.array_equal(rbf_embed(d, tables, radial=radial), rbf)
    single = _radial_table(np.array([2.5]), tables)
    one = _harmonics(tables.n_shbf, np.array([0.3]), 1.0)
    assert np.array_equal(rbf_embed(2.5, tables, radial=single), rbf_embed(2.5, tables))
    assert np.array_equal(sbf_embed(2.5, 0.3, tables, radial=single, angular=one),
                          sbf_embed(2.5, 0.3, tables))
    assert np.array_equal(tbf_embed(2.5, 0.3, 1.0, tables, radial=single, angular=one),
                          tbf_embed(2.5, 0.3, 1.0, tables))


def test_misshaped_radial_table_raises():
    tables = build_tables(5.0, 4, 3)
    d = np.array([0.5, 1.5, 2.5])
    theta = np.array([0.2, 1.0, 2.0])
    radial = _radial_table(d, tables)
    # Too few orders, roots or points, the orders flattened, points first,
    # and another order count.
    for bad in (radial[:-1], radial[:, :-1], radial[:, :, :-1],
                radial.reshape(-1, d.size), radial.transpose(2, 0, 1),
                _radial_table(d, build_tables(5.0, 4, 4))):
        with pytest.raises(BasisError):
            rbf_embed(d, tables, radial=bad)
        with pytest.raises(BasisError):
            sbf_embed(d, theta, tables, radial=bad)
        with pytest.raises(BasisError):
            tbf_embed(d, theta, 0.4, tables, radial=bad)
    # A scalar d broadcasts to the angles' length, and so must its table; the
    # distance embedding's table has one point per distance.
    with pytest.raises(BasisError):
        rbf_embed(d, tables, radial=radial[..., :1])
    with pytest.raises(BasisError):
        sbf_embed(0.5, theta, tables, radial=radial[..., :1])
    with pytest.raises(BasisError):
        tbf_embed(0.5, theta, 0.4, tables, radial=radial[..., :1])


def test_misshaped_angular_table_raises():
    tables = build_tables(5.0, 4, 3)
    d = np.array([0.5, 1.5, 2.5, 3.5])
    theta = np.array([0.2, 1.0, 2.0, 3.0])
    angular = _harmonics(tables.n_shbf, theta, 0.4 + 0.0 * theta)
    orders = np.arange(tables.n_shbf)
    # Too few points or rows, points first, the zonal rows alone, another
    # degree count, and the sweep split by degree: both embeddings take the
    # whole sweep.
    for bad in (angular[:, :-1], angular[:-1], angular.T, angular[orders * orders + orders],
                _harmonics(tables.n_shbf + 1, theta, 0.4 + 0.0 * theta),
                angular.reshape(tables.n_shbf, tables.n_shbf, d.size)):
        with pytest.raises(BasisError, match="angular"):
            sbf_embed(d, theta, tables, angular=bad)
        with pytest.raises(BasisError, match="angular"):
            tbf_embed(d, theta, 0.4, tables, angular=bad)
    # A scalar theta broadcasts to the distances' length, and so must its table.
    with pytest.raises(BasisError, match="angular"):
        sbf_embed(d, 0.2, tables, angular=angular[:, :1])
    with pytest.raises(BasisError, match="angular"):
        tbf_embed(d, 0.2, 0.4, tables, angular=angular[:, :1])
    # The angles are range-checked even when their harmonics are given.
    with pytest.raises(BasisError, match="polar"):
        sbf_embed(d, theta + 4.0, tables, angular=angular)
    with pytest.raises(BasisError, match="finite"):
        tbf_embed(d, theta, np.inf, tables, angular=angular)


def test_tbf_full_orthonormality_small_tables():
    tables = build_tables(5.0, 3, 3)
    d, wd = gauss_legendre(128, 0.0, 5.0)
    u, wu = np.polynomial.legendre.leggauss(32)
    theta = np.arccos(u)
    n_phi = 16
    phi = np.arange(n_phi) * 2.0 * math.pi / n_phi
    w_phi = 2.0 * math.pi / n_phi
    grid_d, grid_t, grid_p = np.meshgrid(d, theta, phi, indexing="ij")
    weights = ((wd * d * d)[:, None, None]
               * wu[None, :, None]
               * np.full(n_phi, w_phi)[None, None, :])
    values = tbf_embed(grid_d.ravel(), grid_t.ravel(), grid_p.ravel(), tables)
    gram = (values * weights.ravel()[:, None]).T @ values
    assert np.max(np.abs(gram - np.eye(27))) < 1e-8


def test_embeddings_finite_on_random_sweep():
    tables = build_tables(5.0, 6, 7)
    rng = np.random.default_rng(41)
    d = rng.uniform(1e-6, 5.0, size=2000)
    theta = rng.uniform(0.0, math.pi, size=2000)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=2000)
    assert np.all(np.isfinite(rbf_embed(d, tables)))
    assert np.all(np.isfinite(sbf_embed(d, theta, tables)))
    assert np.all(np.isfinite(tbf_embed(d, theta, phi, tables)))


def test_embedding_range_errors():
    tables = build_tables(5.0, 3, 3)
    with pytest.raises(BasisError):
        rbf_embed(5.5, tables)
    with pytest.raises(BasisError):
        rbf_embed(0.0, tables)
    with pytest.raises(BasisError):
        sbf_embed(1.0, 3.5, tables)


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("call", [
    lambda t: spherical_bessel(2, NAN),
    lambda t: spherical_bessel(0, INF),
    lambda t: spherical_bessel(3, np.array([1.0, NAN])),
    lambda t: spherical_bessel(0, 1.0000001e8),
    lambda t: spherical_bessel(0, np.nextafter(MAX_ARGUMENT, np.inf)),
    lambda t: spherical_bessel(0, 1e4),
    lambda t: rbf_embed(NAN, t),
    lambda t: sbf_embed(NAN, 0.5, t),
    lambda t: tbf_embed(NAN, 0.5, 0.1, t),
    lambda t: sbf_embed(1.0, NAN, t),
    lambda t: tbf_embed(1.0, NAN, 0.1, t),
    lambda t: tbf_embed(np.array([1.0, 2.0]), np.array([0.5, NAN]), 0.1, t),
    lambda t: tbf_embed(1.0, 0.5, NAN, t),
    lambda t: tbf_embed(1.0, 0.5, INF, t),
    lambda t: real_sph_harm(2, 1, NAN, 0.3),
    lambda t: real_sph_harm(2, 1, 0.3, NAN),
    lambda t: real_sph_harm(2, 0, INF),
    lambda t: real_sph_harm(2, -1, 0.3, -INF),
    lambda t: real_sph_harm(3, 2, np.array([0.3, NAN]), 0.1),
    lambda t: sbf_embed([1.0, 2.0], [0.1, 0.2, 0.3], t),
    lambda t: tbf_embed([1.0, 2.0], [0.1, 0.2, 0.3], 0.0, t),
    lambda t: tbf_embed([1.0, 2.0], 0.5, [0.0, 1.0, 2.0], t),
    lambda t: real_sph_harm(2, 1, [0.1, 0.2], [0.1, 0.2, 0.3]),
    lambda t: spherical_bessel(1, [[1.0, 2.0]]),
    lambda t: rbf_embed([[1.0, 2.0]], t),
    lambda t: sbf_embed([[1.0, 2.0]], [0.1, 0.2], t),
    lambda t: tbf_embed(1.0, [[0.1, 0.2]], 0.0, t),
    lambda t: real_sph_harm(2, 1, 0.5, [[0.1, 0.2]]),
    lambda t: tbf_embed(1.0, 0.5, 1e308, t),
    lambda t: real_sph_harm(2, 2, 0.5, 1e308),
], ids=["bessel-nan", "bessel-inf", "bessel-nan-in-array", "bessel-above-max-argument",
        "bessel-just-above-max-argument", "bessel-far-above-max-argument",
        "rbf-nan-distance", "sbf-nan-distance", "tbf-nan-distance",
        "sbf-nan-polar", "tbf-nan-polar", "tbf-nan-polar-in-array",
        "tbf-nan-azimuth", "tbf-inf-azimuth", "harmonic-nan-polar",
        "harmonic-nan-azimuth", "harmonic-inf-polar", "harmonic-minus-inf-azimuth",
        "harmonic-nan-polar-in-array", "sbf-mismatched-lengths",
        "tbf-mismatched-polar-length", "tbf-mismatched-azimuth-length",
        "harmonic-mismatched-lengths", "bessel-2d", "rbf-2d", "sbf-2d", "tbf-2d",
        "harmonic-2d", "tbf-azimuth-overflows-in-sweep",
        "harmonic-azimuth-overflows-in-sweep"])
def test_non_finite_and_out_of_range_arguments_raise(call):
    with pytest.raises(BasisError):
        call(build_tables(5.0, 3, 3))


@pytest.mark.parametrize("call", [
    lambda: spherical_bessel(2.5, 1.0),
    lambda: real_sph_harm(2.0, 1, 0.3),
    lambda: real_sph_harm(2, 1.5, 0.3),
    lambda: bessel_roots(1.5, 3),
    lambda: bessel_roots(1, 3.0),
    lambda: build_tables(5.0, 6.0, 7),
    lambda: build_tables("5", 6, 7),
    lambda: build_tables(5.0, 6, "7"),
    lambda: rbf_embed(np.array([1 + 2j]), build_tables(5.0, 6, 7)),
    lambda: rbf_embed(1 + 1j, build_tables(5.0, 6, 7)),
    lambda: spherical_bessel(1, "x"),
    lambda: spherical_bessel(1, True),
    lambda: sbf_embed(1.0, np.array([0.5 + 0j]), build_tables(5.0, 6, 7)),
    lambda: tbf_embed(1.0, 0.5, "x", build_tables(5.0, 6, 7)),
    lambda: real_sph_harm(1, 0, np.array([0.3]), np.array([0.1 + 0j])),
], ids=["bessel-float-order", "harmonic-float-degree", "harmonic-float-m",
        "roots-float-order", "roots-float-count", "tables-float-count",
        "tables-string-cutoff", "tables-string-count", "rbf-complex-array",
        "rbf-complex-scalar", "bessel-string-argument", "bessel-bool-argument",
        "sbf-complex-polar", "tbf-string-azimuth", "harmonic-complex-azimuth"])
def test_malformed_basis_arguments_raise(call):
    # The int tables are cached first: 6.0 must not be answered by 6's entry.
    build_tables(5.0, 6, 7)
    with pytest.raises(BasisError):
        call()


def as_bits(values):
    values = np.asarray(values)
    return values.shape, values.dtype, values.tobytes()


@pytest.mark.parametrize("scalars", list(itertools.product([False, True], repeat=3)),
                         ids=lambda s: "-".join("scalar" if x else "array" for x in s))
def test_broadcast_calls_equal_stacked_scalar_calls(scalars):
    # Each of d, theta, phi is a scalar or an array of 5 points. A call must
    # give bitwise the stacked per-point scalar calls, or one point's result
    # when every argument it takes is a scalar.
    tables = build_tables(5.0, 4, 4)
    rng = np.random.default_rng(17)
    columns = [rng.uniform(0.05, 5.0, 5), rng.uniform(0.0, math.pi, 5),
               rng.uniform(-7.0, 7.0, 5)]
    args = [float(col[0]) if scalar else col for col, scalar in zip(columns, scalars)]

    def check(call, used):
        points = [call(*[float(columns[i][0 if scalars[i] else p]) for i in used])
                  for p in range(5)]
        expected = points[0] if all(scalars[i] for i in used) else np.stack(points)
        assert as_bits(call(*[args[i] for i in used])) == as_bits(expected)

    check(lambda d, theta: sbf_embed(d, theta, tables), (0, 1))
    check(lambda d, theta, phi: tbf_embed(d, theta, phi, tables), (0, 1, 2))
    for order, m in [(0, 0), (2, -1), (3, 0), (3, 3)]:
        check(lambda theta, phi: real_sph_harm(order, m, theta, phi), (1, 2))


def test_tables_invariants():
    tables = build_tables(5.0, 6, 7)
    assert np.max(np.abs(tables.roots[0] - np.arange(1, 7) * np.pi)) < 1e-12
    assert np.all(np.diff(tables.roots, axis=1) > 0)
    assert np.all(np.diff(tables.roots[:, 0]) > 0)
    assert np.all(np.isfinite(tables.norms)) and np.all(tables.norms > 0)
