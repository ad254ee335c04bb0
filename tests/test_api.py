import types

import casimir_cylinders

# Every public name of the package; a refactor may add names, but this
# test must be edited on purpose to remove one.
PUBLIC_NAMES = {
    "Concentric", "ConvergenceReport", "CorrugationSpec", "CylinderPlane", "Eccentric",
    "EnergyResult", "GeometryError", "HBAR_C", "NoConvergenceError", "NonContractiveError",
    "PfaOrder", "Polarization", "ProfileJ", "QuadratureRule", "QuadratureSpec",
    "SpectralMatrix", "TruncationError", "TruncationSpec", "ValidityWarning",
    "accelerated_series", "addition_theorem_check", "bessel_i", "bessel_i_prime", "bessel_k",
    "bessel_k_prime", "build_concentric", "build_cylinder_plane", "build_eccentric",
    "energy_concentric_accelerated", "energy_cyl_rack", "energy_difference", "energy_exact",
    "energy_plane_rack", "energy_pp", "force_ratio", "geometry_from_dict", "geometry_to_dict",
    "large_alpha_asymptote", "log_det_one_minus", "pfa_concentric", "scaled_bessel_pair",
    "slow_series", "tilde_energy", "tm_te_split", "to_physical", "uniform_i_ratio",
    "uniform_k_ratio", "validate",
}


def test_package_exports_are_unchanged():
    exported = {
        name for name, value in vars(casimir_cylinders).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
    assert casimir_cylinders.__version__ == "0.1.0"
