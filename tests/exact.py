"""Exact Gaussian-rational numbers, for the tests only.

``Gaussian(re, im)`` is ``re + i im`` with :class:`fractions.Fraction`
parts. Sums, differences, products and ``==`` are exact. It mixes with ints
and with Python floats and complex numbers, each read exactly, so a formula
written over Python complex numbers, constants such as ``1j`` included,
runs on it unchanged and its identities can be checked with no tolerance.
"""

import random
from fractions import Fraction


class Gaussian:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x):
        """``x`` as a Gaussian, or None when it is not a number this class reads."""
        if isinstance(x, Gaussian):
            return x
        if isinstance(x, complex):
            return Gaussian(x.real, x.imag)
        return Gaussian(x) if isinstance(x, (int, float, Fraction)) else None

    def __add__(self, other):
        o = Gaussian.of(other)
        return NotImplemented if o is None else Gaussian(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return Gaussian(-self.re, -self.im)

    def __sub__(self, other):
        o = Gaussian.of(other)
        return NotImplemented if o is None else Gaussian(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = Gaussian.of(other)
        if o is None:
            return NotImplemented
        return Gaussian(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = Gaussian.of(other)
        return NotImplemented if o is None else (self.re, self.im) == (o.re, o.im)

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"Gaussian({self.re}, {self.im})"


def random_gaussians(count, seed):
    """``count`` seeded Gaussian rationals whose parts are ``a / b`` with
    ``|a| <= 9`` and ``1 <= b <= 9``."""
    gen = random.Random(seed)

    def part():
        return Fraction(gen.randint(-9, 9), gen.randint(1, 9))

    return [Gaussian(part(), part()) for _ in range(count)]
