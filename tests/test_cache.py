"""Round trip of band structures through the on-disk cache, and what a
damaged entry reads as."""

import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpgaps import __version__, cache, spectrum
from qpgaps.cli import _band_structure_cached
from qpgaps.cocycle import amo_potential
from qpgaps.errors import CacheCorruptionError
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


def _stored_entry(cache_dir):
    bs = BandStructure(approximant=(1, 1), lam=0.0, potential=amo_potential(),
                       bands=((-2.0, 2.0),), theta_grid=1)
    return cache.store_band_structure(str(cache_dir), "k", bs)


def _forged(**fields):
    """Damage that passes the key and checksum checks: the named payload
    fields replaced (None deletes one) and the checksum recomputed."""
    def damage(path):
        with open(path) as fh:
            payload = json.load(fh)
        del payload["checksum"]
        for name, value in fields.items():
            if value is None:
                del payload[name]
            else:
                payload[name] = value
        payload["checksum"] = cache.content_hash(payload)
        with open(path, "w") as fh:
            fh.write(cache.canonical_json(payload))
    return damage


def _overwritten(data):
    def damage(path):
        with open(path, "rb") as fh:
            text = fh.read()
        with open(path, "wb") as fh:
            fh.write(data(text))
    return damage


DAMAGE = {
    "truncated file": _overwritten(lambda text: text[: len(text) // 2]),
    "non-JSON bytes": _overwritten(lambda _text: b"\xff\xfe\x00 not json"),
    "a JSON list": _overwritten(lambda _text: b"[1, 2, 3]"),
    "a missing key": _forged(bands=None),
    "wrong-typed bands": _forged(bands=5),
    "potential row without values": _forged(potential="# period=1 shape=scalar entire=1\n0\n"),
    "potential row with a bad float": _forged(potential="# period=1 shape=scalar entire=1\n0 zz 0\n"),
}


@pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE.keys())
def test_damaged_entry_is_a_miss_or_a_corruption_error(tmp_path, damage):
    damage(_stored_entry(tmp_path))
    assert cache.load_band_structure(str(tmp_path), "k") is None
    with pytest.raises(CacheCorruptionError):
        cache.load_band_structure(str(tmp_path), "k", strict=True)


@pytest.mark.parametrize("strict", [False, True])
def test_programming_error_in_a_load_propagates(tmp_path, monkeypatch, strict):
    _stored_entry(tmp_path)

    def broken(**_fields):
        raise AttributeError("programming error")

    monkeypatch.setattr(cache, "BandStructure", broken)
    with pytest.raises(AttributeError, match="programming error"):
        cache.load_band_structure(str(tmp_path), "k", strict=strict)


def test_an_entry_keyed_without_the_union_method_is_not_served(tmp_path):
    """A cache written before the key named the union method holds, under
    the key of the same inputs, a band structure that is no longer served."""
    f = amo_potential()
    old_key = cache.content_hash({
        "kind": "band_structure", "version": __version__, "lambda": 0.25,
        "potential": f.to_text(), "p": 8, "q": 13, "theta_samples": None, "e_resolution": 1e-12,
    })
    stale = BandStructure(approximant=(8, 13), lam=0.25, potential=f, bands=((-9.0, 9.0),),
                          theta_grid=8)
    cache.store_band_structure(str(tmp_path), old_key, stale)
    assert cache.load_band_structure(str(tmp_path), old_key, strict=True).bands == stale.bands
    assert cache.band_structure_key(0.25, f, (8, 13), None) != old_key
    got = _band_structure_cached(0.25, f, (8, 13), None, str(tmp_path))
    assert got.bands == spectrum.band_structure(0.25, f, (8, 13)).bands
