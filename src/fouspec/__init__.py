"""Spectral analysis and small-noise estimation error of the fractional
Ornstein-Uhlenbeck signal observed in white noise.

Submodules
----------
model           parameters, fBm/fOU covariance kernels, matrix assembly
spectral_oracle Nystrom reference spectra and the exact H = 1/2 spectrum
asymptotics     first-order eigenvalue/eigenfunction formulas, theta, h, rho0
ia_refine       integro-algebraic refinement of frequencies and eigenpairs
error_analysis  eigen-series / Wiener-Hopf errors, asymptote sweeps, `estimate`
cli             `fouspec` command-line front end
validation      acceptance-criteria runner

Submodule attributes are re-exported lazily so importing `fouspec` stays
cheap and the CLI can pin BLAS thread counts before numpy loads.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "ModelParams": "model",
    "QuadGrid": "model",
    "CovMatrix": "model",
    "fbm_cov": "model",
    "fou_cov": "model",
    "fou_cov_singular": "model",
    "cov_matrix": "model",
    "EigenPair": "spectral_oracle",
    "Spectrum": "spectral_oracle",
    "nystrom_eigs": "spectral_oracle",
    "nystrom_extend": "spectral_oracle",
    "ou_closed_form_eigs": "spectral_oracle",
    "ThetaProfile": "asymptotics",
    "b_alpha_closed": "asymptotics",
    "b_alpha_numeric": "asymptotics",
    "eta_h": "asymptotics",
    "nu_first_order": "asymptotics",
    "lambda_from_nu": "asymptotics",
    "theta0": "asymptotics",
    "h_weight": "asymptotics",
    "rho0": "asymptotics",
    "phi_first_order": "asymptotics",
    "phi_integral_first_order": "asymptotics",
    "IARefinement": "ia_refine",
    "solve_p": "ia_refine",
    "evaluate_abxi": "ia_refine",
    "find_nu": "ia_refine",
    "refined_eigenpair": "ia_refine",
    "refined_spectrum": "ia_refine",
    "MseReport": "error_analysis",
    "WienerHopfTable": "error_analysis",
    "mse_series": "error_analysis",
    "mercer_remainder": "error_analysis",
    "mse_wiener_hopf": "error_analysis",
    "mse_asymptotic": "error_analysis",
    "convergence_study": "error_analysis",
    "build_spectrum": "error_analysis",
    "estimate": "error_analysis",
    "DomainError": "exceptions",
    "SolverError": "exceptions",
    "TruncationError": "exceptions",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        import importlib
        mod = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
