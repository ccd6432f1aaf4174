"""Axes, transforms, and Grid JSON serialization."""

import base64
import json
import pickle
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import grids
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
    write_json,
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


@pytest.mark.parametrize("rtol, atol", [(1e-9, 1e-12), (1e-9, 1e-8)])  # center, step
def test_axis_isclose_matches_numpy_on_edge_values(rtol, atol):
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan]
    # one rtol step either side of a value, and the nearest floats around it
    for base in (1.0, -2.289, 3e-3):
        edges.append(base)
        for point in (base + (atol + rtol * abs(base)), base - (atol + rtol * abs(base))):
            edges += [point, np.nextafter(point, np.inf), np.nextafter(point, -np.inf)]
    for a in edges:
        for b in edges:
            with np.errstate(over="ignore"):  # 1e308 - -1e308
                want = bool(np.isclose(a, b, rtol=rtol, atol=atol))
            assert grids._isclose(a, b, rtol, atol) == want, (a, b)


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


@pytest.mark.parametrize("call, message", [
    (lambda g: ComplexGrid2D(g.axis_s, g.axis_i, g.values[:, :16]),
     "values shape (32, 16) does not match axes (32, 32)"),
    (lambda g: transform_photon(g, "pump"), "unknown photon 'pump'"),
], ids=["values_off_the_axes", "unknown_photon"])
def test_grid_refusals(random_complex_grid, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(random_complex_grid)


def test_total_power_of_an_intensity_grid_is_its_field_power(random_complex_grid):
    intensity = random_complex_grid.intensity()
    assert isinstance(intensity, IntensityGrid2D)
    assert total_power(intensity) == pytest.approx(total_power(random_complex_grid), rel=1e-14)
    assert total_power(intensity) == pytest.approx(intensity.values.sum() * 0.0025 * 0.0030, rel=1e-14)


def test_grid_values_read_only(random_complex_grid):
    with pytest.raises(ValueError):
        random_complex_grid.values[0, 0] = 1.0


def test_grid_owns_a_float_copy_of_integer_values(random_complex_grid):
    # Poisson counts arrive as int64; the grid converts them in its one copy
    counts = np.arange(random_complex_grid.values.size, dtype=np.int64).reshape(random_complex_grid.values.shape)
    h = IntensityGrid2D(random_complex_grid.axis_s, random_complex_grid.axis_i, counts)
    assert h.values.dtype == np.float64
    assert not h.values.flags.writeable
    assert not np.shares_memory(h.values, counts)
    assert np.array_equal(h.values, counts)


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


def test_write_json_keeps_the_previous_file_when_encoding_fails(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"x": 1})
    with pytest.raises(TypeError):
        write_json(path, {"x": object()})
    assert path.read_text() == '{"x": 1}'


def test_grid_json_schema_fields(random_complex_grid):
    doc = grid_to_json(random_complex_grid)
    assert doc["kind"] == "complex"
    assert doc["axis_s"]["units"] == "rad/fs"
    assert "values_re" not in doc and "values_im" not in doc
    values = np.frombuffer(base64.b64decode(doc["values_b64"], validate=True), dtype="<c16")
    assert len(values) == 32 * 32
    # row-major layout: element [j, k] at index j*count_i + k
    assert values[1] == random_complex_grid.values[0, 1]
    intensity = grid_to_json(random_complex_grid.intensity())
    assert len(base64.b64decode(intensity["values_b64"], validate=True)) == 32 * 32 * 8


def _legacy_grid_to_json(g):
    """The Grid JSON writer before ``values_b64``: the real and imaginary parts
    as row-major lists of floats, the reference that the reader still takes."""
    doc = {
        "kind": "complex" if isinstance(g, ComplexGrid2D) else "intensity",
        "axis_s": grids._axis_to_json(g.axis_s),
        "axis_i": grids._axis_to_json(g.axis_i),
        "values_re": np.real(g.values).ravel().tolist(),
    }
    if isinstance(g, ComplexGrid2D):
        doc["values_im"] = np.imag(g.values).ravel().tolist()
    return doc


# signed zeros, the smallest subnormals and the largest magnitudes the manifests take
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def _extreme_grids():
    ax_s, ax_i = Axis(FREQUENCY, SIGNAL, 2.0, 0.01, 33), Axis(FREQUENCY, IDLER, 2.5, 0.02, 31)
    rng = np.random.default_rng(11)
    v = rng.standard_normal((33, 31)) + 1j * rng.standard_normal((33, 31))
    v[0, : len(EXTREMES)] = np.array(EXTREMES) + 1j * np.array(EXTREMES[::-1])
    g = ComplexGrid2D(ax_s, ax_i, v)
    # a grid may hold Fortran-ordered values; the file is row-major either way
    transposed = ComplexGrid2D(ax_s, ax_i, np.asfortranarray(v))
    assert transposed.values.flags.f_contiguous
    return [g, transposed, IntensityGrid2D(ax_s, ax_i, v.real), IntensityGrid2D(ax_s, ax_i, v.imag)]


@pytest.mark.parametrize("index", range(4), ids=["complex", "fortran_ordered", "intensity_re", "intensity_im"])
def test_grid_json_round_trip_is_bitwise(tmp_path, index):
    g = _extreme_grids()[index]
    path = tmp_path / "g.json"
    save_grid(path, g)
    h = load_grid(path)
    assert type(h) is type(g) and (h.axis_s, h.axis_i) == (g.axis_s, g.axis_i)
    assert np.array_equal(_bits(h.values), _bits(g.values))
    assert not h.values.flags.writeable


@pytest.mark.parametrize("index", range(4), ids=["complex", "fortran_ordered", "intensity_re", "intensity_im"])
def test_legacy_grid_json_decodes_to_the_same_values(index):
    g = _extreme_grids()[index]
    legacy = grid_from_json(json.loads(json.dumps(_legacy_grid_to_json(g))))
    current = grid_from_json(json.loads(json.dumps(grid_to_json(g))))
    assert type(legacy) is type(current) is type(g)
    assert (legacy.axis_s, legacy.axis_i) == (current.axis_s, current.axis_i)
    assert np.array_equal(_bits(legacy.values), _bits(current.values))


def test_grid_json_payload_is_half_the_legacy_size(small_axes):
    rng = np.random.default_rng(5)
    g = ComplexGrid2D(*small_axes, rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
    for grid in (g, g.intensity()):
        current, legacy = (len(json.dumps(f(grid))) for f in (grid_to_json, _legacy_grid_to_json))
        assert current < 0.6 * legacy


def test_grid_json_unknown_kind(random_complex_grid):
    doc = grid_to_json(random_complex_grid)
    doc["kind"] = "spectrum"
    with pytest.raises(ValueError):
        grid_from_json(json.loads(json.dumps(doc)))
