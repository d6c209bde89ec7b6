"""The two kernels of the canonical form: the closed-form 2x2 SVD and the
exact pseudo-inverse table of the phase fit.

``_svd2`` is checked against ``np.linalg.svd``, with each of LAPACK's
singular pairs turned to the pinned phase convention, and against the same
closed form evaluated in 50-digit ``decimal`` arithmetic. Against that
reference both singular values are within 4 ulp of s1, and each entry of U
and V within 16 eps * k, where k = s1^2 / (s1^2 - s2^2) is the condition
number of the singular vectors, or 1 on the equal-value branch. Over
14,000 blocks (random ones scaled by 1e-3 to 1, scaled unitaries and
rank-one outer products), the worst cases were 2.81 ulp and 12.8 eps * k.
``_pseudo_inverse`` is checked exactly, by the four Penrose identities in
integers, and against ``lstsq``.
"""

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from modal_ent.classify import _GRADIENTS, _exact_pseudo_inverse, _pseudo_inverse, _svd2

EPS = 2.0**-52


def _random_blocks(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))).tolist()


def _special_blocks():
    """Zero, rank-one, equal-singular-value and diagonal blocks."""
    rng = np.random.default_rng(71)
    yield "zero", [[0j, 0j], [0j, 0j]]
    for j in range(20):
        x, y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        yield f"rank one {j}", np.outer(x, y.conj()).tolist()
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        yield f"scaled unitary {j}", (0.4 * q).tolist()
    yield "rank one, first row zero", [[0j, 0j], [0.6 + 0j, 0.8j]]
    yield "diag(s, s)", [[0.5 + 0j, 0j], [0j, 0.5 + 0j]]
    yield "diag(s1, s2)", [[0.3 + 0j, 0j], [0j, 0.5 + 0j]]
    yield "diag(0, s)", [[0j, 0j], [0j, 0.5 + 0j]]
    yield "diag(s, 0)", [[0.5 + 0j, 0j], [0j, 0j]]
    yield "exchange", [[0j, 0.6 + 0j], [-0.8j, 0j]]


def _first_nonzero(vec):
    return next(z for z in vec if z != 0)


def _check_factorization(m, svd):
    """U and V are unitary, U^H m V = diag(s1, s2), and the pinned phases hold."""
    (u1, u2), (s1, s2), (v1, v2) = svd
    u, v, a = np.array([u1, u2]).T, np.array([v1, v2]).T, np.array(m)
    scale = max(s1, 1e-300)
    assert s1 >= s2 >= 0.0
    assert np.abs(u.conj().T @ u - np.eye(2)).max() < 8 * EPS
    assert np.abs(v.conj().T @ v - np.eye(2)).max() < 8 * EPS
    assert np.abs(u.conj().T @ a @ v - np.diag([s1, s2])).max() < 16 * EPS * scale
    for vec in (v1, v2):
        lead = _first_nonzero(vec)
        assert lead.imag == 0.0 and lead.real > 0.0
    t = complex(np.conj(u2) @ a @ v2)
    if abs(t) > 1e-12 * s1:
        assert t.real >= 0.0 and abs(t.imag) < 4 * EPS * s1
    else:
        lead = _first_nonzero(u2)
        assert lead.real > 0.0 and abs(lead.imag) < 4 * EPS


def _lapack_in_convention(m):
    """``np.linalg.svd`` of ``m``, with each singular pair's phase turned so
    that its right vector's first nonzero component is real and positive."""
    u, s, vh = np.linalg.svd(np.array(m))
    v = vh.conj().T
    for i in range(2):
        lead = next(z for z in v[:, i] if abs(z) > 1e-14)
        phase = abs(lead) / lead
        v[:, i] *= phase
        u[:, i] *= phase
    return u, s, v


@pytest.mark.parametrize("seed", range(3))
def test_svd2_matches_lapack_on_random_blocks(seed):
    for m in _random_blocks(seed, 500):
        svd = _svd2(m)
        _check_factorization(m, svd)
        (u1, u2), (s1, s2), (v1, v2) = svd
        lu, ls, lv = _lapack_in_convention(m)
        cond = s1 * s1 / (s1 * s1 - s2 * s2)
        assert np.abs(np.subtract((s1, s2), ls)).max() < 4 * EPS * s1
        assert np.abs(np.array([v1, v2]).T - lv).max() < 1e-14 * cond
        assert np.abs(np.array([u1, u2]).T - lu).max() < 1e-14 * cond


def test_svd2_pins_its_conventions_on_special_blocks():
    for label, m in _special_blocks():
        svd = _svd2(m)
        (u1, u2), (s1, s2), (v1, v2) = svd
        try:
            _check_factorization(m, svd)
            ls = np.linalg.svd(np.array(m), compute_uv=False)
            assert np.abs(np.subtract((s1, s2), ls)).max() < 4 * EPS * max(s1, 1e-300)
            if label.startswith(("zero", "scaled unitary", "diag(s, s)")):
                # equal singular values: V = I, and u1 is the first column of m, normalized
                assert (v1, v2) == ((1, 0), (0, 1))
            if label == "zero":
                assert (u1, u2, s1, s2) == ((1, 0), (0, 1), 0.0, 0.0)
            if label.startswith("rank one"):
                assert s2 < 4 * EPS * s1
        except AssertionError as exc:
            raise AssertionError(f"{label}: {exc}") from exc
    # diagonal blocks factor as LAPACK factors them, with exact zeros and ones
    assert _svd2([[0.3 + 0j, 0j], [0j, 0.5 + 0j]])[::2] == (((0, 1), (1, 0)), ((0, 1), (1, 0)))
    assert _svd2([[0j, 0j], [0j, 0.5 + 0j]])[::2] == (((0, 1), (1, 0)), ((0, 1), (1, 0)))
    assert _svd2([[0.5 + 0j, 0j], [0j, 0j]])[::2] == (((1, 0), (0, 1)), ((1, 0), (0, 1)))


def _dc(z):
    return Decimal(z.real), Decimal(z.imag)


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _scale(a, r):
    return a[0] * r, a[1] * r


def _conj(a):
    return a[0], -a[1]


def _abs(a):
    return (a[0] * a[0] + a[1] * a[1]).sqrt()


def _apply(m, vec):
    (a, b), (c, d) = m
    return _add(_mul(a, vec[0]), _mul(b, vec[1])), _add(_mul(c, vec[0]), _mul(d, vec[1]))


def decimal_svd(m):
    """``_svd2``'s closed form, branches included, in 50-digit decimals from
    the exact values of the block's entries."""
    with localcontext() as ctx:
        ctx.prec = 50
        m = [[_dc(z) for z in row] for row in m]
        (a, b), (c, d) = m
        zero, one = (Decimal(0), Decimal(0)), (Decimal(1), Decimal(0))
        p = _abs(a) ** 2 + _abs(c) ** 2
        q = _abs(b) ** 2 + _abs(d) ** 2
        x = _add(_mul(_conj(a), b), _mul(_conj(c), d))
        gap = ((p - q) ** 2 + 4 * _abs(x) ** 2).sqrt()
        s1 = ((p + q + gap) / 2).sqrt()
        if gap <= Decimal("1e-12") * s1 * s1:
            v1, v2 = (one, zero), (zero, one)
        else:
            e = _scale(_conj(x), 1 / _abs(x)) if _abs(x) else one
            alpha, beta = (p - q + gap, 2 * _abs(x)) if p >= q else (2 * _abs(x), q - p + gap)
            n = (alpha * alpha + beta * beta).sqrt()
            v1 = ((alpha / n, Decimal(0)), _scale(e, beta / n))
            v2 = ((beta / n, Decimal(0)), _scale(e, -alpha / n)) if beta else (zero, one)
        y, z = _apply(m, v1)
        n = (_abs(y) ** 2 + _abs(z) ** 2).sqrt()
        u1 = (_scale(y, 1 / n), _scale(z, 1 / n)) if n else (one, zero)
        my, mz = _apply(m, v2)
        t = _add(_mul(_scale(u1[1], -1), my), _mul(u1[0], mz))
        if _abs(t) > Decimal("1e-12") * s1:
            w = _scale(t, 1 / _abs(t))
        elif _abs(u1[1]):
            w = _scale(u1[1], -1 / _abs(u1[1]))
        else:
            w = _scale(u1[0], 1 / _abs(u1[0]))
        u2 = (_mul(_scale(_conj(u1[1]), -1), w), _mul(_conj(u1[0]), w))
        s2 = min(_abs(_add(_mul(a, d), _scale(_mul(b, c), -1))) / s1, s1) if s1 else Decimal(0)
        return (u1, u2), (s1, s2), (v1, v2)


def test_svd2_is_within_its_bound_of_a_50_digit_reference():
    blocks = [*_random_blocks(72, 1000), *(m for _, m in _special_blocks())]
    for m in blocks:
        (u1, u2), (s1, s2), (v1, v2) = _svd2(m)
        (du1, du2), (ds1, ds2), (dv1, dv2) = decimal_svd(m)
        ulp = Decimal(math.ulp(s1)) if s1 else Decimal(0)
        for got, want in ((s1, ds1), (s2, ds2)):
            assert abs(Decimal(got) - want) <= 4 * ulp
        # the equal-value branch takes V = I, so its vectors need no gap
        cond = 1.0 if ds1 * ds1 - ds2 * ds2 <= Decimal("1e-12") * ds1 * ds1 else float(
            ds1 * ds1 / (ds1 * ds1 - ds2 * ds2))
        bound = Decimal(16 * EPS * cond)
        for vec, ref in zip((u1, u2, v1, v2), (du1, du2, dv1, dv2)):
            for got, want in zip(vec, ref):
                assert abs(Decimal(got.real) - want[0]) <= bound
                assert abs(Decimal(got.imag) - want[1]) <= bound


PATTERNS = [kept for n in range(1, 7) for kept in itertools.combinations(range(6), n)]


def test_pseudo_inverse_meets_the_penrose_identities_exactly():
    # A X A = A, X A X = X, and A X and X A symmetric, with X = N / den,
    # checked in integers for all 63 nonempty kept-slot patterns
    assert len(PATTERNS) == 63
    for kept in PATTERNS:
        a = np.array([_GRADIENTS[k] for k in kept], dtype=object)
        numerators, den = _exact_pseudo_inverse(kept)
        n = np.array(numerators, dtype=object)
        assert den > 0 and n.shape == (6, len(kept))
        assert (a.dot(n).dot(a) == den * a).all()
        assert (n.dot(a).dot(n) == den * n).all()
        assert (a.dot(n) == a.dot(n).T).all()
        assert (n.dot(a) == n.dot(a).T).all()
        assert _pseudo_inverse(kept) == tuple(tuple(x / den for x in row) for row in numerators)


def test_pseudo_inverse_agrees_with_lstsq():
    # the float table's A+ b is within 4 eps of the exact product, and lstsq
    # within 2e-14 of both; the largest lstsq error measured was 1.1e-14
    rng = np.random.default_rng(73)
    for kept in PATTERNS:
        a = np.array([_GRADIENTS[k] for k in kept], dtype=float)
        numerators, den = _exact_pseudo_inverse(kept)
        for _ in range(5):
            b = rng.uniform(-math.pi, math.pi, len(kept)).tolist()
            got = [sum(x * y for x, y in zip(row, b)) for row in _pseudo_inverse(kept)]
            exact = [float(sum(Fraction(x, den) * Fraction(y) for x, y in zip(row, b))) for row in numerators]
            assert np.abs(np.subtract(got, exact)).max() <= 4 * EPS
            assert np.abs(np.linalg.lstsq(a, b, rcond=None)[0] - got).max() < 2e-14
