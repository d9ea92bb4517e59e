import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from helpers import bessel_j
from xychain import isotropic
from xychain.bessel import MAX_ARGUMENT, MAX_ORDER, bessel_rows
from xychain.errors import OutOfRangeError


def _series_row(nmax, x):
    row = np.zeros(nmax + 1)
    half = 0.5 * x
    q = half * half
    lead = 1.0
    for n in range(nmax + 1):
        corr = 1.0 - q / (n + 1.0) + q * q / (2.0 * (n + 1.0) * (n + 2.0))
        row[n] = lead * corr
        lead *= half / (n + 1.0)
        if lead == 0.0:
            break
    return row


def bessel_row(nmax, x):
    """Reference ladder J_0..J_nmax(x): one scalar Miller sweep, the
    arithmetic each lane of `bessel_rows` must repeat bit for bit."""
    if x < 1e-4:
        return _series_row(nmax, x)
    m_start = max(nmax, int(math.ceil(x))) + 16
    m_start += int(2.0 * math.sqrt(m_start)) + 20
    if m_start % 2:
        m_start += 1
    row = np.zeros(nmax + 1)
    jp = 0.0
    j = 1e-290
    even_sum = 0.0
    for m in range(m_start, 0, -1):
        jm = (2.0 * m / x) * j - jp
        jp = j
        j = jm
        n = m - 1
        if n <= nmax:
            row[n] = jm
        if n % 2 == 0:
            even_sum += jm if n == 0 else 2.0 * jm
        if abs(j) > 1e250:
            j *= 1e-250
            jp *= 1e-250
            even_sum *= 1e-250
            row *= 1e-250
    row /= even_sum
    return row


def assert_rows_are_reference(nmax, x):
    rows = bessel_rows(nmax, x)
    assert rows.shape == (len(nmax), max(nmax) + 1)
    for row, n, v in zip(rows, nmax, x):
        assert np.array_equal(row[:n + 1], bessel_row(n, v)), (n, v)
        assert not row[n + 1:].any()


@given(st.integers(min_value=0, max_value=120),
       st.floats(min_value=0.0, max_value=200.0))
def test_matches_scipy(n, x):
    ref = scipy.special.jv(n, x)
    assert np.isclose(bessel_j(n, x), ref, rtol=1e-12, atol=1e-14)


def test_row_matches_scipy():
    x = 37.5
    row = bessel_rows([60], [x])[0]
    ref = scipy.special.jv(np.arange(61), x)
    assert np.allclose(row, ref, rtol=1e-12, atol=1e-14)


def test_negative_order_parity():
    for n in range(1, 8):
        assert np.isclose(bessel_j(-n, 13.2), (-1) ** n * bessel_j(n, 13.2))


def test_normalization_sum():
    # J_0^2 + 2 sum_{n>=1} J_n^2 = 1
    x = 25.0
    row = bessel_rows([80], [x])[0]
    total = row[0] ** 2 + 2.0 * np.sum(row[1:] ** 2)
    assert np.isclose(total, 1.0, atol=1e-12)


def test_signed_row_layout():
    # the ladder g_n = i^n J_n for n in [-nmax, nmax], centered at nmax,
    # with J_{-n} = (-1)^n J_n already applied
    nmax = 10
    x = 3.0
    g = isotropic._ladder(bessel_rows([nmax], [x])[0])
    assert len(g) == 2 * nmax + 1
    assert np.isclose(g[nmax], bessel_j(0, x))
    for n in (1, 4, 7):
        assert np.isclose(g[nmax + n], 1j ** n * bessel_j(n, x))
        assert np.isclose(g[nmax - n], 1j ** -n * (-1.0) ** n * bessel_j(n, x))


def test_out_of_range():
    with pytest.raises(OutOfRangeError):
        bessel_j(5000, 1.0)
    with pytest.raises(OutOfRangeError):
        bessel_j(3, 1e7)
    assert bessel_rows([MAX_ORDER], [MAX_ARGUMENT]).shape == (1, 2001)
    with pytest.raises(OutOfRangeError, match="order 2001 outside"):
        bessel_rows([3, MAX_ORDER + 1], [1.0, 1.0])
    with pytest.raises(OutOfRangeError, match="argument -0.5 outside"):
        bessel_rows([3, 4], [-0.5, 2001.0])
    with pytest.raises(OutOfRangeError, match="argument 2000.5 outside"):
        bessel_rows([3, 4], [1.0, 2000.5])


def test_batched_rows_match_the_scalar_reference():
    # one block mixing the series path (x = 0 and x < 1e-4), arguments up
    # to 2000, a lane whose sweep rescales by 1e-250 (nmax = 2000, x = 1)
    # and start orders from 36 to over 2100
    nmax = [0, 7, 2000, 5, 60, 300, 2000, 1999, 0, 40, 3]
    x = [0.0, 5e-5, 1.0, 9.99e-5, 1e-4, 300.0, 2000.0, 1500.25, 12.5, 0.37,
         700.0]
    assert_rows_are_reference(nmax, x)


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=400),
                          st.one_of(st.floats(min_value=0.0, max_value=1e-4),
                                    st.floats(min_value=0.0,
                                              max_value=500.0))),
                min_size=1, max_size=6))
def test_batched_rows_property(lanes):
    assert_rows_are_reference([n for n, _ in lanes], [v for _, v in lanes])


def _start_bound(nmax, x):
    """start * log1p(2 start / x) of the sweep of a lane, as in bessel_row:
    below 540 ln 10 no order of the lane can pass 1e250."""
    start = max(nmax, int(math.ceil(x))) + 16
    start += int(2.0 * math.sqrt(start)) + 20
    start += start % 2
    return start * math.log1p(2.0 * start / x)


def test_a_lane_past_the_bound_rescales_beside_lanes_within_it():
    # nmax 2000 at x = 0.01 passes 1e250 many times over, so its batch
    # tests every order; the other lanes keep the bound, and a batch of
    # them alone sweeps with no rescale test: every lane has the bits of
    # its own single-lane sweep and of the scalar reference
    nmax = [60, 2000, 300, 5, 40, 400]
    x = [37.5, 0.01, 300.0, 2.0, 0.37, 150.0]
    tripped = [_start_bound(n, v) >= 540 * math.log(10)
               for n, v in zip(nmax, x)]
    assert tripped == [False, True, False, False, False, False]
    mixed, within = bessel_rows(nmax, x), bessel_rows(nmax[2:], x[2:])
    for k, (n, v) in enumerate(zip(nmax, x)):
        alone = bessel_rows([n], [v])[0]
        assert mixed[k, :n + 1].tobytes() == alone.tobytes()
        assert np.array_equal(alone, bessel_row(n, v))
        assert not mixed[k, n + 1:].any()
        if k >= 2:
            assert within[k - 2, :n + 1].tobytes() == alone.tobytes()
