"""Axes, transforms, and Grid JSON serialization."""

import json
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton.grids import (
    FREQUENCY,
    IDLER,
    SIGNAL,
    TIME,
    Axis,
    ComplexGrid2D,
    IntensityGrid2D,
    conjugate_axis,
    grid_from_json,
    grid_to_json,
    load_grid,
    save_grid,
    total_power,
    transform_photon,
)


def test_axis_values_centered():
    ax = Axis(FREQUENCY, SIGNAL, center=2.0, step=0.1, count=8)
    v = ax.values()
    assert v[8 // 2] == pytest.approx(2.0)
    assert np.allclose(np.diff(v), 0.1)


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis("energy", SIGNAL, 0.0, 1.0, 8)
    with pytest.raises(ValueError):
        Axis(FREQUENCY, "pump", 0.0, 1.0, 8)
    with pytest.raises(ValueError):
        Axis(FREQUENCY, SIGNAL, 0.0, -1.0, 8)
    with pytest.raises(ValueError):
        Axis(FREQUENCY, SIGNAL, 0.0, 1.0, 1)


def test_conjugate_axis_relations():
    ax = Axis(FREQUENCY, SIGNAL, center=2.289, step=0.0025, count=64)
    tx = conjugate_axis(ax)
    assert tx.domain == TIME
    assert tx.photon == SIGNAL
    assert tx.count == ax.count
    assert tx.step == pytest.approx(2 * np.pi / (ax.count * ax.step))
    assert tx.center == 0.0
    assert tx.paired_center == ax.center


def test_conjugate_axis_involution():
    ax = Axis(FREQUENCY, IDLER, center=2.574, step=0.004, count=32)
    back = conjugate_axis(conjugate_axis(ax))
    assert back.compatible_with(ax)
    assert back.paired_center == ax.paired_center


def test_grid_axis_roles_enforced(small_axes):
    ax_s, ax_i = small_axes
    with pytest.raises(ValueError):
        ComplexGrid2D(ax_i, ax_s, np.zeros((32, 32), complex))


def test_grid_rejects_nonfinite(small_axes):
    ax_s, ax_i = small_axes
    v = np.zeros((32, 32))
    v[3, 4] = np.nan
    with pytest.raises(ValueError):
        IntensityGrid2D(ax_s, ax_i, v)


def test_grid_values_read_only(random_complex_grid):
    with pytest.raises(ValueError):
        random_complex_grid.values[0, 0] = 1.0


def test_with_values_keeps_grid_type(random_complex_grid):
    for g in (random_complex_grid, random_complex_grid.intensity()):
        h = g.with_values(2 * g.values)
        assert type(h) is type(g)
        assert h.values.dtype == g.values.dtype
        assert (h.axis_s, h.axis_i) == (g.axis_s, g.axis_i)


def test_grids_pickle_round_trip(random_complex_grid):
    # the Monte Carlo pool pickles measurement sets
    for g in (random_complex_grid, random_complex_grid.intensity()):
        h = pickle.loads(pickle.dumps(g))
        assert type(h) is type(g)
        assert (h.axis_s, h.axis_i) == (g.axis_s, g.axis_i)
        assert h.values.dtype == g.values.dtype
        assert np.array_equal(h.values, g.values)
        assert not h.values.flags.writeable
        with pytest.raises(FrozenInstanceError):
            h.values = g.values


def test_transform_round_trip(random_complex_grid):
    g = random_complex_grid
    t = transform_photon(g, SIGNAL)
    assert (t.axis_s.domain, t.axis_i.domain) == (TIME, FREQUENCY)
    h = transform_photon(t, SIGNAL)
    assert np.max(np.abs(h.values - g.values)) < 1e-10
    assert h.axis_s.compatible_with(g.axis_s)


def test_transform_preserves_power(random_complex_grid):
    g = random_complex_grid
    p0 = total_power(g)
    for photon in (SIGNAL, IDLER):
        h = transform_photon(g, photon)
        assert total_power(h) == pytest.approx(p0, abs=1e-10 * p0)


def test_transform_matches_direct_dft_sum(small_axes):
    # oracle: brute-force quadrature of the exp(-i*w*t)/sqrt(2*pi) kernel
    ax_s, ax_i = small_axes
    rng = np.random.default_rng(3)
    v = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    g = ComplexGrid2D(ax_s, ax_i, v)
    h = transform_photon(g, SIGNAL)
    dw = ax_s.offsets()
    t = h.axis_s.values()
    direct = np.einsum("jk,jm->mk", v, np.exp(-1j * np.outer(dw, t))) * ax_s.step / np.sqrt(2 * np.pi)
    assert np.max(np.abs(h.values - direct)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([16, 32, 64]),
    seed=st.integers(0, 2**31 - 1),
    photon=st.sampled_from([SIGNAL, IDLER]),
)
def test_transform_unitarity_property(n, seed, photon):
    ax_s = Axis(FREQUENCY, SIGNAL, 2.1, 0.003, n)
    ax_i = Axis(FREQUENCY, IDLER, 2.5, 0.002, n)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = ComplexGrid2D(ax_s, ax_i, v)
    h = transform_photon(g, photon)
    assert total_power(h) == pytest.approx(total_power(g), rel=1e-10)
    back = transform_photon(h, photon)
    assert np.max(np.abs(back.values - v)) < 1e-10


def test_grid_json_round_trip(random_complex_grid, tmp_path):
    path = tmp_path / "g.json"
    save_grid(path, random_complex_grid)
    g2 = load_grid(path)
    assert isinstance(g2, ComplexGrid2D)
    assert np.array_equal(g2.values, random_complex_grid.values)
    assert g2.axis_s.compatible_with(random_complex_grid.axis_s)
    assert g2.axis_i.paired_center == random_complex_grid.axis_i.paired_center


def test_grid_json_intensity_round_trip(small_axes, tmp_path):
    ax_s, ax_i = small_axes
    g = IntensityGrid2D(ax_s, ax_i, np.random.default_rng(0).random((32, 32)))
    path = tmp_path / "i.json"
    save_grid(path, g)
    g2 = load_grid(path)
    assert isinstance(g2, IntensityGrid2D)
    assert np.array_equal(g2.values, g.values)


def test_grid_json_schema_fields(random_complex_grid):
    doc = grid_to_json(random_complex_grid)
    assert doc["kind"] == "complex"
    assert doc["axis_s"]["units"] == "rad/fs"
    assert len(doc["values_re"]) == 32 * 32
    assert len(doc["values_im"]) == 32 * 32
    # row-major layout: element [j, k] at index j*count_i + k
    assert doc["values_re"][1] == pytest.approx(random_complex_grid.values[0, 1].real)


def test_grid_json_unknown_kind(random_complex_grid):
    doc = grid_to_json(random_complex_grid)
    doc["kind"] = "spectrum"
    with pytest.raises(ValueError):
        grid_from_json(json.loads(json.dumps(doc)))
