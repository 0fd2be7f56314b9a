"""Points x sources kernels: blocking changes no bit of any result.

The oracle is the unblocked numpy expression over the full points x
sources table; a tiny block size forces many blocks and a partial last one.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rootfield import kernels


def _unblocked(z, a):
    """(F, S, d, F', S2), each from the whole table at once."""
    d = z[..., None] - a
    inv, rdist = 1.0 / d, 1.0 / np.abs(d)
    return (inv.sum(axis=-1), rdist.sum(axis=-1), np.abs(d).min(axis=-1),
            -(inv * inv).sum(axis=-1), (rdist * rdist).sum(axis=-1))


def _unblocked_self(x, w):
    d = x[:, None] - x
    np.fill_diagonal(d, np.inf)
    return (w / d).sum(axis=-1)


def _unblocked_weighted(z, a, w):
    inv = 1.0 / (z[..., None] - a)
    sq = np.abs(inv) ** 2
    return ((inv * w).sum(axis=-1), inv.sum(axis=-1),
            (inv * w * inv).sum(axis=-1), (inv * w).sum(axis=-1),
            (sq * w).sum(axis=-1), (sq * (w * np.abs(a))).sum(axis=-1))


@pytest.mark.parametrize("shape", [(23,), (5, 9)])
@pytest.mark.parametrize("n_sources", [3, 40])
def test_blocked_kernels_match_unblocked_bit_for_bit(monkeypatch, shape,
                                                      n_sources):
    rng = np.random.default_rng(11)
    a = rng.normal(size=n_sources) + 1j * rng.normal(size=n_sources)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # 7 pairs per block: 2 points per block for 3 sources, 1 for 40; 23 and
    # 45 points leave a partial last block
    monkeypatch.setattr(kernels, "_PAIRS", 7)
    want = _unblocked(z, a)
    # F, S and d are the three single reductions, bit for bit
    got = (kernels.field_sum(z, a), kernels.modulus_sum(z, a),
           kernels.min_distance(z, a))
    for g, want in zip(got + kernels.field_modulus_nearest(z, a),
                       want[:3] + want):
        assert g.shape == shape
        assert g.dtype == want.dtype
        assert np.array_equal(g, want)
    product = kernels.distance_product(z, a)
    assert product.shape == shape
    assert np.array_equal(product, np.abs(z[..., None] - a).prod(axis=-1))
    w = rng.integers(1, 4, size=n_sources).astype(float)
    got = kernels.weighted_field(z, a, w) + kernels.field_majorant(z, a, w)
    for g, want in zip(got, _unblocked_weighted(z, a, w)):
        assert g.shape == shape
        assert np.array_equal(g, want)
    # the self-skipping reduction: 3 points make blocks of 2 rows, so a
    # block boundary cuts the diagonal; 23 to 45 points make 1-row blocks
    for x in (a, z.ravel()):
        for weights in (1.0, rng.integers(1, 4, size=x.size).astype(float)):
            assert np.array_equal(kernels.self_field(x, weights),
                                  _unblocked_self(x, weights))


@pytest.mark.parametrize("n", [3, 23])
def test_self_field_rows_match_unblocked_bit_for_bit(monkeypatch, n):
    # 7 pairs per block: 2 rows per block for 3 points, 1 for 23, so block
    # boundaries cut the column each row skips
    monkeypatch.setattr(kernels, "_PAIRS", 7)
    rng = np.random.default_rng(5)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    picks = [np.arange(n), np.array([0, n - 1]), np.array([n - 1, 0, 1]),
             rng.permutation(n)[: n // 2 + 1], np.array([1]),
             np.zeros(0, dtype=int)]
    for weights in (1.0, rng.integers(1, 4, size=n).astype(float)):
        full = _unblocked_self(x, weights)
        for rows in picks:
            got = kernels.self_field(x, weights, rows)
            assert got.shape == rows.shape and got.dtype == np.complex128
            assert np.array_equal(got, full[rows])
        assert np.array_equal(kernels.self_field(x, weights), full)


def test_kernel_blocks_stay_small():
    # the evaluation table is sized for a core's L2 cache, not for the
    # input: on 20k points x 500 sources the peak traced allocation is the
    # five outputs plus a few MiB (a 2^20-pair table alone is 16 MiB)
    rng = np.random.default_rng(3)
    z = rng.normal(size=20_000) + 1j * rng.normal(size=20_000)
    a = rng.normal(size=500) + 1j * rng.normal(size=500)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        outs = kernels.field_modulus_nearest(z, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(v.nbytes for v in outs)
    assert held == 20_000 * (16 + 8 + 8 + 16 + 8)
    assert peak - held < 3 * 2 ** 20


def test_kernels_without_sources_or_points():
    z = np.array([[0.5, 1j], [2.0, -1.0]])
    none = np.zeros(0, dtype=complex)
    assert np.array_equal(kernels.field_sum(z, none), np.zeros((2, 2)))
    assert np.array_equal(kernels.modulus_sum(z, none), np.zeros((2, 2)))
    assert np.array_equal(kernels.min_distance(z, none),
                          np.full((2, 2), np.inf))
    f, s, d, fp, s2 = kernels.field_modulus_nearest(z, none)
    for v in (f, s, fp, s2):
        assert np.array_equal(v, np.zeros((2, 2)))
    assert np.array_equal(d, np.full((2, 2), np.inf))
    # no sources, no move and no rounding, whatever the radius
    assert np.array_equal(kernels.ball_bound(3.0, s, d, fp, s2, 0),
                          np.zeros((2, 2)))
    for f in (kernels.field_sum, kernels.modulus_sum, kernels.min_distance):
        assert f(none, z.ravel()).shape == (0,)
    assert [v.shape for v in kernels.field_modulus_nearest(none, z.ravel())] \
        == [(0,)] * 5
    assert np.array_equal(kernels.distance_product(z, none), np.ones((2, 2)))
    assert kernels.distance_product(none, z.ravel()).shape == (0,)


def test_kernel_hand_values():
    a = np.array([1.0, -1.0, 2j])
    assert kernels.field_sum(0.0, a) == pytest.approx(-1.0 + 1.0 + 0.5j)
    assert kernels.modulus_sum(0.0, a) == pytest.approx(2.5)
    assert kernels.min_distance(0.5, a) == pytest.approx(0.5)
    # p = (z - 1)(z + 1)(z - 2i) has p' = 3z^2 - 4iz - 1, so at 2 the
    # root sum is p'/p = (11 - 8i)/(3 (2 - 2i))
    f, s, d, fp, s2 = kernels.field_modulus_nearest(2.0, a)
    assert f == pytest.approx((11 - 8j) / (6 - 6j))
    assert s == pytest.approx(1.0 + 1.0 / 3.0 + 1.0 / np.sqrt(8.0))
    assert d == pytest.approx(1.0)
    # F' = p''/p - (p'/p)^2 with p''(2) = 12 - 4i and p(2) = 6 - 6i
    assert fp == pytest.approx((12 - 4j) / (6 - 6j) - f * f)
    assert s2 == pytest.approx(1.0 + 1.0 / 9.0 + 1.0 / 8.0)
    # |p(2)| = 1 * 3 * |2 - 2i|, and 0 on a root
    assert kernels.distance_product(2.0, a) == pytest.approx(6 * np.sqrt(2))
    assert kernels.distance_product(-1.0, a) == 0.0
    # p'(i) = 0: the root sum vanishes; p(1) = 0: a point on a source
    f, s, d, fp, s2 = kernels.field_modulus_nearest([1j, 1.0], a)
    assert abs(f[0]) < 1e-15 and d[1] == 0.0
    assert not np.isfinite(f[1]) and not np.isfinite(s[1])
    # a ball that reaches a source, or sits on one, bounds nothing
    bound = kernels.ball_bound(np.array([d[0], 0.0]), s, d, fp, s2, 3)
    assert np.array_equal(bound, [np.inf, np.inf])


def _ball(seed, k, spread, frac):
    """(sources, w, rho, the ball's terms at w, dense points of the ball):
    k sources around 0, within spread of one centre when spread < 1, and
    rho = frac times the distance from w to the nearest one."""
    rng = np.random.default_rng(seed)
    centre = rng.normal() + 1j * rng.normal()
    a = (centre * (spread < 1.0)
         + spread * (rng.normal(size=k) + 1j * rng.normal(size=k)))
    w = complex(rng.normal() + 1j * rng.normal())
    terms = [v[0] for v in kernels.field_modulus_nearest([w], a)]
    rho = frac * terms[2]
    # the move is analytic on the ball, so its largest modulus is on the
    # circle: sample that densely, and the inside too, on a radius that
    # keeps the rounded sample points in the ball
    r = max(rho - 4.0 * np.finfo(float).eps * (abs(w) + rho), 0.0)
    circle = w + r * np.exp(2j * np.pi * np.arange(4096) / 4096)
    inner = w + r * np.sqrt(rng.uniform(size=512)) \
        * np.exp(2j * np.pi * rng.uniform(size=512))
    return a, w, rho, terms, np.concatenate([circle, inner])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40),
       spread=st.sampled_from([1.0, 1e-2, 1e-5]),
       frac=st.one_of(st.floats(0.0, 0.99),
                      st.sampled_from([0.999, 0.99999, 1 - 1e-9])))
def test_ball_bound_covers_the_sampled_move(seed, k, spread, frac):
    # clustered sources make F' cancel or not; rho close to d puts the
    # circle next to a source
    a, w, rho, (f, s, d, fp, s2), z = _ball(seed, k, spread, frac)
    bound = kernels.ball_bound(rho, s, d, fp, s2, k)
    move = np.abs(kernels.field_sum(z, a) - kernels.field_sum(w, a))
    assert np.isfinite(bound)
    assert move.max() <= bound


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40),
       spread=st.sampled_from([1.0, 1e-2, 1e-5]),
       frac=st.one_of(st.floats(0.0, 1.5),
                      st.sampled_from([0.999, 0.99999, 1 - 1e-9])))
def test_ball_bound_is_never_above_the_first_order(seed, k, spread, frac):
    _, _, rho, (f, s, d, fp, s2), _ = _ball(seed, k, spread, frac)
    bound = kernels.ball_bound(rho, s, d, fp, s2, k)
    c = kernels.ROUNDING * (k + 2) * np.finfo(float).eps
    if rho < d:
        assert bound <= rho * s / (d - rho) + c * s / (1.0 - rho / d)
        # the rounding term alone remains on a ball of radius 0
        assert kernels.ball_bound(0.0, s, d, fp, s2, k) == c * s
    else:
        assert bound == np.inf
