"""Exact certificates of three algebraic claims, in Gaussian rationals.

The production pair-block action ``operators._moved`` and the invariant
polynomials ``invariants._invariant_polynomials`` use only ``+``, ``-`` and
``*``, so they run unchanged on :class:`exact.Gaussian` numbers, and each
claim below is checked by ``==`` or ``<=`` with no tolerance:

- (a) an element of determinant one on every mode keeps I1 and I2;
- (b) an element acting on one mode, with level block L and vacancy entry
  s, scales I1 by D^2 and I2 by D, where D = det(L) s;
- (g) every 3x3 matrix A has det(A^dagger A) <= (tr(A^dagger A) / 3)^3,
  the AM-GM step that makes each instrument's monotone margin factor
  ``sum_i |det A_i|^(2/3) - 1`` non-positive.

Only the standard library and the package are imported.
"""

import itertools

from exact import Gaussian, random_gaussians

from modal_ent.invariants import _invariant_polynomials
from modal_ent.operators import _moved

#: the identity on one mode, as _moved takes it
IDENTITY = ((1, 0), (0, 1)), 1


def _conj(z) -> Gaussian:
    z = Gaussian.of(z)
    return Gaussian(z.re, -z.im)


def _inverse(z: Gaussian) -> Gaussian:
    """1 / z, from the Fraction parts, since Gaussian has no division."""
    n = z.re * z.re + z.im * z.im
    return Gaussian(z.re / n, -z.im / n)


def _det2(block):
    (a, b), (c, d) = block
    return a * d - b * c


def _level_block(seed: int):
    """A seeded invertible 2x2 level block of Gaussian rationals, as rows."""
    for attempt in itertools.count():
        a, b, c, d = random_gaussians(4, 1000 * seed + attempt)
        if a * d - b * c != 0:
            return (a, b), (c, d)


def _nonzero_gaussian(seed: int) -> Gaussian:
    for attempt in itertools.count():
        (z,) = random_gaussians(1, 1000 * seed + attempt)
        if z != 0:
            return z


def test_determinant_one_elements_keep_i1_and_i2_exactly():
    moved_some = 0
    for seed in range(100):
        v = random_gaussians(12, seed)
        # each mode's vacancy entry is 1 / det L, so every factor has determinant one
        element = [(block, _inverse(_det2(block))) for block in (_level_block(3 * seed + k + 1) for k in range(3))]
        assert all(_det2(block) * s == 1 for block, s in element)
        moved = _moved(v, element)
        i1, i2 = _invariant_polynomials(v)[3:]
        assert i1 != 0 and i2 != 0
        assert _invariant_polynomials(moved)[3:] == (i1, i2)
        moved_some += moved != v
    assert moved_some == 100


def test_one_mode_elements_scale_i1_by_d_squared_and_i2_by_d():
    for seed in range(100):
        v = random_gaussians(12, 500 + seed)
        block, s = _level_block(700 + seed), _nonzero_gaussian(900 + seed)
        d = _det2(block) * s
        i1, i2 = _invariant_polynomials(v)[3:]
        for mode in range(3):
            element = [IDENTITY] * 3
            element[mode] = block, s
            j1, j2 = _invariant_polynomials(_moved(v, element))[3:]
            assert j1 == d * d * i1
            assert j2 == d * i2


def _det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _gram(m):
    """A^dagger A of a 3x3 matrix given as rows."""
    return [[sum((_conj(m[k][i]) * m[k][j] for k in range(3)), Gaussian()) for j in range(3)] for i in range(3)]


def test_outcome_determinant_is_bounded_by_its_trace_exactly():
    def check(m):
        gram = _gram(m)
        det, trace = _det3(gram), gram[0][0] + gram[1][1] + gram[2][2]
        # A^dagger A is Hermitian, so both are real; det(A^dagger A) = |det A|^2
        assert det.im == 0 and trace.im == 0
        assert det == _conj(_det3(m)) * _det3(m)
        assert 27 * det.re <= trace.re**3
        return 27 * det.re == trace.re**3

    equal = []
    for seed in range(150):
        a, b, c, d, v = random_gaussians(5, 2000 + seed)
        # a compliant outcome: a level block and a vacancy entry, zeros between
        equal.append(check([[a, b, 0], [c, d, 0], [0, 0, v]]))
        # and any matrix at all
        equal.append(check([random_gaussians(3, 3000 + 3 * seed + k) for k in range(3)]))
    assert not any(equal)
    # equality holds exactly for multiples of a unitary
    for z in random_gaussians(10, 4000):
        i = Gaussian(0, 1)
        assert check([[0, z, 0], [i * z, 0, 0], [0, 0, -z]])
