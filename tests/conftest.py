import random
import threading
from fractions import Fraction

import numpy as np
import pytest

from strz.exponents import Criticality, Exponent, classify_potential


def random_rational(rng: random.Random, lo: Fraction, hi: Fraction, max_den: int = 32) -> Fraction:
    den = rng.randint(1, max_den)
    lo_num = int(lo * den) + 1
    hi_num = int(hi * den)
    if hi_num < lo_num:
        return Fraction(lo_num, den)
    return Fraction(rng.randint(lo_num, hi_num), den)


def random_critical_pair(rng: random.Random, n: int, r_lo: Fraction, r_hi: Fraction):
    """(r, s) on the critical line 1/r + n/(2s) = 1 with r in [r_lo, r_hi].

    r is rational with small denominator; s follows exactly from criticality.
    The excluded corner (n, r, s) = (2, 2, 2) is avoided.
    """
    while True:
        if rng.random() < 0.05 and r_hi >= 2 >= r_lo and n >= 3:
            r = Fraction(2)
        else:
            r = random_rational(rng, r_lo - 1, r_hi, max_den=32) + 0
            if r < r_lo or r > r_hi:
                continue
        if r <= 1:
            continue
        s_recip = Fraction(2, n) * (1 - 1 / r)
        if s_recip == 0:
            continue
        s = 1 / s_recip
        if s < 1:
            continue
        if n == 2 and r == 2:
            continue  # companion pair would be the excluded endpoint
        cls = classify_potential(Exponent(r), Exponent(s), n)
        assert cls.criticality is Criticality.CRITICAL
        return Exponent(r), Exponent(s)


@pytest.fixture
def rng():
    return random.Random(20240817)


def same_bits(a, b):
    """Equal bit for bit, so that +0 and -0 differ (== would pass them)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.fixture
def worker_ffts(monkeypatch):
    """Names of the np.fft calls made off the calling thread, in call order.

    The worker thread calls no name that a traced benchmark run patches, so
    it transforms one axis at a time; the tests that pin that rule read it
    from this one list."""
    main = threading.get_ident()
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        def recorded(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            if threading.get_ident() != main:
                calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, recorded)
    return calls
