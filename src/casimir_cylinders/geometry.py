"""Geometric data model, dimensionless conventions and result records.

All evaluators work in natural units (hbar = c = 1) and report the
dimensionless interaction energy

    e_hat = 4 pi a^2 E / (hbar c L)

where a is the inner-cylinder radius and L the common cylinder length.
``to_physical`` is the single conversion point back to SI.

Shape parameters:

* concentric shells:     alpha = b/a > 1 (outer over inner radius)
* eccentric shells:      alpha = b/a, delta = eps/a with 0 <= delta < alpha - 1
* cylinder before plane: h_over_a = H/a > 1, H the axis-to-plane distance
"""

import math
from dataclasses import asdict, dataclass, field, fields
from enum import Enum

__all__ = [
    "HBAR_C",
    "GeometryError",
    "Concentric",
    "Eccentric",
    "CylinderPlane",
    "Polarization",
    "TruncationSpec",
    "QuadratureSpec",
    "ConvergenceReport",
    "EnergyResult",
    "validate",
    "gap",
    "to_physical",
    "geometry_to_dict",
    "geometry_from_dict",
]

HBAR_C = 3.16152649e-26  # J m

# Resource caps; reaching one is reported as non-convergence rather than
# returned as an unconverged number.  NODE_CAP is fixed; the other two are
# only the TruncationSpec defaults, which a caller may raise.
N_MAX_CAP = 512
M_MAX_CAP = 4096
NODE_CAP = 4096


class GeometryError(ValueError):
    """Invalid geometry; ``reason`` names the violated constraint."""

    def __init__(self, reason, message):
        super().__init__(f"{reason}: {message}")
        self.reason = reason


@dataclass(frozen=True)
class Concentric:
    """Two coaxial shells with radius ratio alpha = b/a."""

    alpha: float


@dataclass(frozen=True)
class Eccentric:
    """Shells with parallel, displaced axes: alpha = b/a, delta = eps/a."""

    alpha: float
    delta: float


@dataclass(frozen=True)
class CylinderPlane:
    """Cylinder of radius a at axis-to-plane distance H = h_over_a * a."""

    h_over_a: float


class Polarization(Enum):
    TM = "TM"  # Dirichlet boundary condition
    TE = "TE"  # Neumann boundary condition


def validate(g):
    """Check geometry invariants; raise GeometryError naming the violation.

    Accepted region: {alpha > 1, 0 <= delta < alpha - 1} for shells,
    {h_over_a > 1} for the cylinder-plane configuration.  The touching
    limit delta = alpha - 1 is rejected because the spectral formula
    diverges there.  Every field must be finite.
    """
    if not isinstance(g, (Concentric, Eccentric, CylinderPlane)):
        raise TypeError(f"not a geometry: {g!r}")
    for f in fields(g):
        value = getattr(g, f.name)
        if not math.isfinite(value):
            raise GeometryError("non-finite", f"{f.name} = {value} must be finite")
    if isinstance(g, CylinderPlane):
        if not g.h_over_a > 1.0:
            raise GeometryError("intersecting-plane", f"H/a = {g.h_over_a} must exceed 1")
    elif not g.alpha > 1.0:
        raise GeometryError("degenerate", f"alpha = {g.alpha} must exceed 1")
    elif isinstance(g, Eccentric):
        if g.delta < 0.0:
            raise GeometryError("negative-eccentricity", f"delta = {g.delta} must be >= 0")
        if not g.delta < g.alpha - 1.0:
            raise GeometryError(
                "overlap", f"delta = {g.delta} must stay below alpha - 1 = {g.alpha - 1.0}"
            )
    return g


def gap(g):
    """Dimensionless closest-approach gap; sets the frequency decay scale.

    The spectral integrands fall off like exp(-2 * gap * beta).
    """
    if isinstance(g, Concentric):
        return g.alpha - 1.0
    if isinstance(g, Eccentric):
        return g.alpha - 1.0 - g.delta
    if isinstance(g, CylinderPlane):
        return g.h_over_a - 1.0
    raise TypeError(f"not a geometry: {g!r}")


def to_physical(e_hat, a, L):
    """Convert e_hat to an energy in Joules for radius a and length L in meters."""
    if not (0.0 < a < math.inf and 0.0 < L < math.inf):
        raise ValueError("lengths must be positive and finite")
    return e_hat * HBAR_C * L / (4.0 * math.pi * a * a)


_TYPE_NAMES = {Concentric: "concentric", Eccentric: "eccentric", CylinderPlane: "cylinder-plane"}


def geometry_to_dict(g):
    """JSON-ready mapping with a 'type' discriminator."""
    if type(g) not in _TYPE_NAMES:
        raise TypeError(f"not a geometry: {g!r}")
    return {"type": _TYPE_NAMES[type(g)], **asdict(g)}


def geometry_from_dict(d):
    """Inverse of ``geometry_to_dict``; malformed input raises ValueError or KeyError."""
    if not isinstance(d, dict):
        raise ValueError(f"geometry must be a JSON object, not {type(d).__name__}")
    for cls, kind in _TYPE_NAMES.items():
        if d.get("type") == kind:
            return cls(*(_number(d, f.name) for f in fields(cls)))
    raise ValueError(f"unknown geometry type: {d.get('type')!r}")


def _number(d, name):
    try:
        return float(d[name])
    except TypeError:
        raise ValueError(f"{name} must be a number, not {d[name]!r}") from None


@dataclass(frozen=True)
class TruncationSpec:
    """Matrix half-bandwidth and inner-sum cutoff.

    ``n_max`` bounds the spectral-matrix indices n, p in [-n_max, n_max];
    ``m_max`` caps the inner sum |m| <= m_max.  With ``adapt`` set the
    evaluators grow both from small values until the result is stable to
    ``rel_tol``; the listed values then act as hard caps.
    """

    n_max: int = N_MAX_CAP
    m_max: int = M_MAX_CAP
    adapt: bool = True
    rel_tol: float = 1e-4

    def __post_init__(self):
        if self.n_max < 1 or self.m_max < self.n_max:
            raise ValueError("need m_max >= n_max >= 1")
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")
        if not math.isfinite(self.rel_tol):
            raise ValueError(f"rel_tol = {self.rel_tol} must be finite")


class QuadratureRule(Enum):
    TRANSFORMED_GAUSS = "transformed-gauss"
    ADAPTIVE_PANEL = "adaptive-panel"


@dataclass(frozen=True)
class QuadratureSpec:
    """Semi-infinite frequency quadrature: node count and decay mapping.

    ``scale`` multiplies the geometric decay length 1/(2*gap) used to map
    Gauss nodes onto the beta axis.
    """

    node_count: int = 128
    scale: float = 1.0
    rule: QuadratureRule = QuadratureRule.TRANSFORMED_GAUSS

    def __post_init__(self):
        if self.node_count < 8:
            raise ValueError("node_count must be at least 8")
        if not self.scale > 0.0:
            raise ValueError("scale must be positive")
        if not math.isfinite(self.scale):
            raise ValueError(f"scale = {self.scale} must be finite")
        if not isinstance(self.rule, QuadratureRule):
            raise ValueError(f"rule = {self.rule!r} must be a QuadratureRule")


@dataclass(frozen=True)
class ConvergenceReport:
    n_max_final: int = 0
    m_max_final: int = 0
    node_count_final: int = 0
    rel_change_last: float = 0.0
    accelerated: bool = False


@dataclass(frozen=True)
class EnergyResult:
    """Dimensionless interaction energy with its TM/TE split and diagnostics.

    e_hat = e_tm + e_te holds exactly by construction; e_hat < 0 for
    every valid geometry (the interaction is attractive).
    """

    e_hat: float
    e_tm: float
    e_te: float
    truncation_used: TruncationSpec
    quadrature_used: QuadratureSpec
    converged: bool
    est_rel_error: float
    report: ConvergenceReport = field(default_factory=ConvergenceReport)
