"""Round trip of band structures through the on-disk cache."""

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qpgaps import cache
from qpgaps.fourier import FourierMap
from qpgaps.spectrum import BandStructure

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def band_structures(draw):
    q = draw(st.integers(1, 1000))
    n_bands = draw(st.integers(0, 12))
    n = draw(st.integers(0, 4))
    re = draw(st.lists(finite, min_size=2 * n + 1, max_size=2 * n + 1))
    im = draw(st.lists(finite, min_size=2 * n + 1, max_size=2 * n + 1))
    return BandStructure(
        approximant=(draw(st.integers(0, q)), q),
        lam=draw(finite),
        potential=FourierMap(np.array(re) + 1j * np.array(im), draw(st.sampled_from((1, 2))),
                             entire=draw(st.booleans())),
        bands=tuple((draw(finite), draw(finite)) for _ in range(n_bands)),
        theta_grid=draw(st.integers(1, 1 << 12)),
        bands_below=tuple(draw(st.lists(st.integers(1, 1000), max_size=24))),
        flagged=draw(st.booleans()),
    )


@settings(max_examples=100, deadline=None)
@given(bs=band_structures())
def test_store_then_load_returns_the_band_structure(bs):
    with tempfile.TemporaryDirectory() as cache_dir:
        cache.store_band_structure(cache_dir, "k", bs)
        got = cache.load_band_structure(cache_dir, "k", strict=True)
    # field by field: FourierMap has no usable ==
    assert got.approximant == bs.approximant
    assert got.lam == bs.lam
    assert got.bands == bs.bands
    assert got.theta_grid == bs.theta_grid
    assert got.bands_below == bs.bands_below
    assert got.flagged is bs.flagged
    assert got.potential.period == bs.potential.period
    assert got.potential.entire is bs.potential.entire
    assert np.array_equal(got.potential.coeffs, bs.potential.coeffs)
