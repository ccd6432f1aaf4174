"""Axes, complex/intensity grids, and the Fourier conventions linking the
frequency and time representations of each photon.

Grids are centered: sample k of an axis lies at ``center + (k - count//2) * step``.
Transforms operate on envelope coordinates (offsets from the axis center), so
the optical carrier never has to be resolved on the grid; absolute centers are
kept in the :class:`Axis` metadata.  The frequency-to-time kernel is
``exp(-i*omega*t)`` and both directions carry the unitary ``1/sqrt(2*pi)``
normalization, so total power is preserved.  A transform always goes to the
conjugate domain of the axis it acts on: time from frequency, frequency from
time.
"""

import binascii
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

FREQUENCY = "frequency"
TIME = "time"
SIGNAL = "signal"
IDLER = "idler"

_UNITS = {FREQUENCY: "rad/fs", TIME: "fs"}


class DomainMismatchError(ValueError):
    """An operation was applied to an axis in the wrong domain."""


@dataclass(frozen=True)
class Axis:
    """One photon coordinate axis (frequency or time).

    ``paired_center`` stores the conjugate domain's center so that
    ``conjugate_axis`` is an involution: a time axis derived from a frequency
    axis is centered at zero delay but remembers the optical center frequency.
    """

    domain: str
    photon: str
    center: float
    step: float
    count: int
    paired_center: float = 0.0

    def __post_init__(self):
        if self.domain not in (FREQUENCY, TIME):
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.photon not in (SIGNAL, IDLER):
            raise ValueError(f"unknown photon {self.photon!r}")
        if self.count < 2:
            raise ValueError("axis needs at least 2 samples")
        if not self.step > 0:
            raise ValueError("axis step must be positive")

    @property
    def units(self):
        return _UNITS[self.domain]

    def values(self):
        """Sample coordinates, center + (k - count//2) * step."""
        return self.center + self.offsets()

    def offsets(self):
        """Envelope coordinates (k - count//2) * step."""
        return (np.arange(self.count) - self.count // 2) * self.step

    def compatible_with(self, other):
        return (
            self.domain == other.domain
            and self.photon == other.photon
            and self.count == other.count
            and _isclose(self.center, other.center, rtol=1e-9, atol=1e-12)
            and _isclose(self.step, other.step, rtol=1e-9, atol=1e-8)
        )


def _isclose(a, b, rtol, atol):
    """``np.isclose(a, b, rtol, atol)`` for two floats, without the array
    set-up that made it most of the cost of validating a ``MeasurementSet``:
    |a - b| <= atol + rtol |b| when b is finite, else a == b, so inf matches
    inf and NaN matches nothing."""
    return a == b or (math.isfinite(b) and abs(a - b) <= atol + rtol * abs(b))


def conjugate_axis(a: Axis) -> Axis:
    """Conjugate-variable axis: same count, step 2*pi/(N*step), domain flipped.

    Frequency -> time produces an axis centered at zero (delays are measured
    relative to the mean arrival); time -> frequency restores the stored
    optical center, so the map is an involution.
    """
    new_domain = TIME if a.domain == FREQUENCY else FREQUENCY
    return Axis(
        domain=new_domain,
        photon=a.photon,
        center=a.paired_center,
        step=2.0 * np.pi / (a.count * a.step),
        count=a.count,
        paired_center=a.center,
    )


def _validated_values(values, axis_s, axis_i, dtype):
    values = np.array(values, dtype=dtype)  # always a copy, which the grid owns
    if values.shape != (axis_s.count, axis_i.count):
        raise ValueError(
            f"values shape {values.shape} does not match axes "
            f"({axis_s.count}, {axis_i.count})"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("grid contains non-finite values")
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class _Grid2D:
    """A function of two photon coordinates on a regular grid, stored as a
    read-only array of the subclass's ``_dtype``.  Rows follow the signal
    axis, columns the idler axis."""

    axis_s: Axis
    axis_i: Axis
    values: np.ndarray

    def __post_init__(self):
        if self.axis_s.photon != SIGNAL or self.axis_i.photon != IDLER:
            raise ValueError("axis_s must be the signal axis, axis_i the idler axis")
        object.__setattr__(
            self, "values", _validated_values(self.values, self.axis_s, self.axis_i, self._dtype)
        )

    def with_values(self, values):
        return type(self)(self.axis_s, self.axis_i, values)

    def __reduce__(self):
        # rebuilt through the constructor, so the unpickled values are read-only too
        return type(self), (self.axis_s, self.axis_i, self.values)


@dataclass(frozen=True)
class ComplexGrid2D(_Grid2D):
    """Complex-valued grid, such as a joint spectral amplitude."""

    _dtype = np.complex128

    def intensity(self):
        return IntensityGrid2D(self.axis_s, self.axis_i, np.abs(self.values) ** 2)


@dataclass(frozen=True)
class IntensityGrid2D(_Grid2D):
    """Real-valued (raw data may be signed) grid with the same axis layout."""

    _dtype = np.float64


def dft_scale(axis: Axis) -> float:
    """Factor that makes ``np.fft.fft`` from a frequency axis, or
    ``np.fft.ifft`` from a time axis, the unitary centered transform."""
    if axis.domain == FREQUENCY:
        return axis.step / np.sqrt(2.0 * np.pi)
    return axis.count * axis.step / np.sqrt(2.0 * np.pi)


def transform_photon(g: ComplexGrid2D, photon: str) -> ComplexGrid2D:
    """Unitary centered DFT along one photon's axis, to its conjugate domain.

    From frequency it uses the exp(-i*omega*t) kernel on envelope
    coordinates; from time, its inverse.  The transformed axis is replaced by
    its conjugate and total power is preserved.
    """
    if photon not in (SIGNAL, IDLER):
        raise ValueError(f"unknown photon {photon!r}")
    ax_idx = 0 if photon == SIGNAL else 1
    axes = [g.axis_s, g.axis_i]
    axis = axes[ax_idx]

    v = np.fft.ifftshift(g.values, axes=ax_idx)
    v = (np.fft.fft if axis.domain == FREQUENCY else np.fft.ifft)(v, axis=ax_idx)
    v = np.fft.fftshift(v, axes=ax_idx) * dft_scale(axis)

    axes[ax_idx] = conjugate_axis(axis)
    return ComplexGrid2D(*axes, v)


def unit_peak(values):
    """``values`` divided by their maximum, or unchanged when it is not positive."""
    peak = values.max()
    return values / peak if peak > 0 else values


def total_power(g) -> float:
    """Riemann-sum power: sum(|values|^2) (complex) or sum(values) (intensity),
    times the product of axis steps."""
    measure = g.axis_s.step * g.axis_i.step
    if isinstance(g, ComplexGrid2D):
        return float(np.sum(np.abs(g.values) ** 2) * measure)
    return float(np.sum(g.values) * measure)


# ---------------------------------------------------------------------------
# Grid JSON I/O


def _axis_to_json(a: Axis):
    return {
        "domain": a.domain,
        "photon": a.photon,
        "center": a.center,
        "step": a.step,
        "count": a.count,
        "units": a.units,
        "paired_center": a.paired_center,
    }


def _axis_from_json(d):
    return Axis(
        domain=d["domain"],
        photon=d["photon"],
        center=float(d["center"]),
        step=float(d["step"]),
        count=int(d["count"]),
        paired_center=float(d.get("paired_center", 0.0)),
    )


# the byte layout of values_b64 for each grid kind: little-endian, whatever the machine
_FILE_DTYPES = {"complex": np.dtype("<c16"), "intensity": np.dtype("<f8")}


def grid_to_json(g) -> dict:
    """The grid's Grid JSON document; ``values_b64`` holds base64 of its
    row-major values as little-endian float64 or complex128."""
    kind = "complex" if isinstance(g, ComplexGrid2D) else "intensity"
    values = np.ascontiguousarray(g.values, dtype=_FILE_DTYPES[kind])
    return {
        "kind": kind,
        "axis_s": _axis_to_json(g.axis_s),
        "axis_i": _axis_to_json(g.axis_i),
        "values_b64": binascii.b2a_base64(values, newline=False).decode("ascii"),
    }


def _decoded_values(payload, shape, dtype):
    if not isinstance(payload, str):
        raise TypeError(f"values_b64 must be a string, not {type(payload).__name__}")
    try:
        raw = binascii.a2b_base64(payload, strict_mode=True)
    except ValueError as exc:
        raise ValueError(f"values_b64 is not base64: {exc}") from None
    size = shape[0] * shape[1] * dtype.itemsize
    if len(raw) != size:
        raise ValueError(f"values_b64 holds {len(raw)} bytes, not the {size} of {shape[0]} x {shape[1]} values "
                         f"of {dtype.itemsize} bytes")
    return np.frombuffer(raw, dtype).reshape(shape)


def grid_from_json(doc):
    """The grid of a Grid JSON document.  One without ``values_b64`` but with
    ``values_re`` (and, when complex, ``values_im``) is read in the earlier
    list form."""
    axis_s = _axis_from_json(doc["axis_s"])
    axis_i = _axis_from_json(doc["axis_i"])
    shape = (axis_s.count, axis_i.count)
    kind = doc["kind"]
    if kind not in _FILE_DTYPES:
        raise ValueError(f"unknown grid kind {kind!r}")
    cls = ComplexGrid2D if kind == "complex" else IntensityGrid2D
    if "values_b64" in doc or "values_re" not in doc:
        return cls(axis_s, axis_i, _decoded_values(doc["values_b64"], shape, _FILE_DTYPES[kind]))
    values = np.asarray(doc["values_re"], dtype=float).reshape(shape)
    if kind == "complex":
        values = values + 1j * np.asarray(doc["values_im"], dtype=float).reshape(shape)
    return cls(axis_s, axis_i, values)


def write_json(path, doc, indent=None):
    """Write ``doc`` as JSON, the one writer of every output document."""
    # json.dumps, unlike json.dump, encodes with the C encoder when indent is None;
    # it encodes before the file is opened, so a document that fails leaves it as it was
    text = json.dumps(doc, indent=indent)
    with open(path, "w") as fh:
        fh.write(text)


def save_grid(path, g, extra=None):
    """Write ``g`` as Grid JSON, with the keys of ``extra`` after the grid's."""
    write_json(path, {**grid_to_json(g), **(extra or {})})


@contextmanager
def naming_file(path, what="grid file"):
    """Re-raise a malformed document's KeyError, TypeError or ValueError naming the file."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{what} {path} has no key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} {path}: {exc}") from exc


def load_grid(path):
    with open(path) as fh, naming_file(path):
        return grid_from_json(json.load(fh))
