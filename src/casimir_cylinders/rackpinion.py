r"""Proximity-force estimates for corrugated rack-and-pinion couplings.

The lateral interaction between sinusoidally corrugated conducting
surfaces at mean gap d, amplitude h and lateral shift x is, per unit
area,

    E_pp = hbar c h^2 / d^5 * cos(2 pi x / lambda) * J(d / lambda),

with J a smooth profile function that never needs an explicit form here:
all ratio-type outputs are exact for constant J and the profile can be
injected as a table otherwise.

Wrapping the rack around a pinion of radius a gives two variants:

* plane rack:       E = hbar c h^2 cos(2 pi x/lambda) L a
                        * integral dtheta J(d(theta)/lambda) / d(theta)^5,
                    d(theta) = d + a (1 - cos theta);
* cylindrical rack: E = 2 pi a L * E_pp, valid for nearly equal radii
                    with gap much smaller than the radius.

Because the lateral force is -dE/dx and every energy carries the same
cosine, the cylindrical-to-plane force ratio equals the energy ratio;
for constant J and d << a it grows like 5.172 sqrt(a/d), comfortably
above the sqrt(a/d) lower estimate.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import HBAR_C
from .quadrature import gauss_legendre_01

__all__ = [
    "ValidityWarning",
    "CorrugationSpec",
    "ProfileJ",
    "energy_pp",
    "energy_plane_rack",
    "energy_cyl_rack",
    "force_ratio",
]


_NODES_PER_PANEL = 32  # Gauss-Legendre nodes on each panel of the theta integral


class ValidityWarning(UserWarning):
    """Inputs are outside the regime where the proximity estimate holds."""


@dataclass(frozen=True)
class CorrugationSpec:
    """Corrugation and pinion parameters; lengths in meters.

    amplitude (h) must stay below the mean gap (d) for the perturbative
    corrugation treatment to make sense.
    """

    amplitude: float
    wavelength: float
    displacement: float
    gap: float
    radius: float
    length: float

    def __post_init__(self):
        if not all(math.isfinite(getattr(self, f)) for f in self.__dataclass_fields__):
            raise ValueError("all parameters must be finite")
        if min(self.amplitude, self.wavelength, self.gap, self.radius, self.length) <= 0.0:
            raise ValueError("all lengths must be positive")
        if not self.amplitude < self.gap:
            raise ValueError("corrugation amplitude must stay below the mean gap")


class ProfileJ:
    """Profile function J(d/lambda), either constant or tabulated.

    Tables interpolate linearly and extrapolate flat at the range ends; a
    constant is the flat two-point table.  Every entry must be finite.
    """

    def __init__(self, ratios, values):
        ratios = np.asarray(ratios, dtype=float)
        values = np.asarray(values, dtype=float)
        if ratios.ndim != 1 or ratios.shape != values.shape or ratios.size < 2:
            raise ValueError("need matching 1-d tables with at least two points")
        if not (np.isfinite(ratios).all() and np.isfinite(values).all()):
            raise ValueError("profile table entries must be finite")
        if np.any(np.diff(ratios) <= 0.0):
            raise ValueError("table abscissas must increase")
        self._ratios = ratios
        self._values = values

    @classmethod
    def constant(cls, value=1.0):
        return cls((0.0, 1.0), (value, value))

    @classmethod
    def from_table(cls, table):
        table = np.asarray(table, dtype=float)
        if table.ndim != 2 or table.shape[1] != 2:
            raise ValueError(f"need a two-column table of d/lambda and J, got shape {table.shape}")
        return cls(ratios=table[:, 0], values=table[:, 1])

    @classmethod
    def from_file(cls, path):
        """Two-column text file: d/lambda and J(d/lambda)."""
        return cls.from_table(np.loadtxt(path, ndmin=2))

    def __call__(self, ratio):
        return np.interp(ratio, self._ratios, self._values)


def energy_pp(c, profile=None):
    """Corrugated parallel-plate interaction energy per unit area (J/m^2)."""
    profile = profile or ProfileJ.constant()
    cosine = math.cos(2.0 * math.pi * c.displacement / c.wavelength)
    return HBAR_C * c.amplitude ** 2 / c.gap ** 5 * cosine * float(profile(c.gap / c.wavelength))


def _theta_integral(c, profile):
    """integral(0, 2pi) J(d(theta)/lambda) / d(theta)^5 dtheta.

    The integrand spikes at theta = 0 (width ~ sqrt(2 d/a) when d << a),
    so the half-circle is covered by geometrically growing panels of
    ``_NODES_PER_PANEL`` nodes anchored at the spike and mirrored by
    symmetry.  1 - cos theta is taken as 2 sin^2(theta/2), which does not
    cancel inside the spike.
    """
    width = math.sqrt(2.0 * c.gap / c.radius)
    if not width > 0.0:  # the panels below would never reach pi
        raise ValueError(f"gap/radius = {c.gap / c.radius:.3g} is too small to resolve")
    edges = [0.0]
    step = min(width, math.pi)
    while edges[-1] < math.pi:
        edges.append(min(edges[-1] + step, math.pi))
        step *= 2.0
    u, w = gauss_legendre_01(_NODES_PER_PANEL)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        theta = a + (b - a) * u
        d_theta = c.gap + c.radius * (2.0 * np.sin(0.5 * theta) ** 2)
        values = profile(d_theta / c.wavelength) / d_theta ** 5
        total += (b - a) * float(np.dot(w, values))
    return 2.0 * total  # theta and 2pi - theta contribute equally


def energy_plane_rack(c, profile=None):
    """Interaction energy of a pinion against a flat corrugated rack (J)."""
    profile = profile or ProfileJ.constant()
    cosine = math.cos(2.0 * math.pi * c.displacement / c.wavelength)
    return (
        HBAR_C
        * c.amplitude ** 2
        * cosine
        * c.length
        * c.radius
        * _theta_integral(c, profile)
    )


def energy_cyl_rack(c, profile=None):
    """Interaction energy of a pinion enclosed by a corrugated shell (J).

    Exact product form 2 pi a L * E_pp; warns when the gap is not small
    against the radius, where the nearly-equal-radii assumption frays.
    """
    if c.radius / c.gap < 10.0:
        warnings.warn(
            f"a/d = {c.radius / c.gap:.3g} < 10: outside the close-fitting regime",
            ValidityWarning,
            stacklevel=2,
        )
    return 2.0 * math.pi * c.radius * c.length * energy_pp(c, profile)


def force_ratio(c, profile=None):
    """Lateral-force enhancement of the cylindrical rack over the plane one.

    The common cosine differentiates identically, so the ratio reduces to

        2 pi J(d/lambda) / d^5  /  integral dtheta J(d(theta)/lambda)/d(theta)^5.

    Independent of amplitude, wavelength, displacement and length; for
    constant J and d << a it approaches (256/(35 sqrt 2)) sqrt(a/d).
    """
    profile = profile or ProfileJ.constant()
    numerator = 2.0 * math.pi * float(profile(c.gap / c.wavelength)) / c.gap ** 5
    return numerator / _theta_integral(c, profile)
