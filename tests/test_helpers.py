"""The shared test constructors return at every size their callers may ask for."""

import numpy as np
import pytest

from helpers import diagonalizable_real_spectrum, rng


def test_diagonalizable_real_spectrum_at_n_800():
    a, lam = diagonalizable_real_spectrum(rng(800), 800)
    assert a.shape == (800, 800)
    assert lam.shape == (800,)
    assert -3.0 <= lam[0] and lam[-1] < 3.0
    assert np.diff(lam).min() >= 1e-3


def test_diagonalizable_real_spectrum_refuses_gaps_below_1e_3():
    with pytest.raises(ValueError):
        diagonalizable_real_spectrum(rng(0), 3001)
    with pytest.raises(ValueError):
        diagonalizable_real_spectrum(rng(0), 11, lo=0.0, hi=0.02)
