"""Ambiguity filtering: robust estimation of f(X_t) from noisy observations
when the signal drift is only known up to a Girsanov perturbation class.

Modules
-------
model       filtering model, noise and the forward simulator
policies    drift policies theta(t, x, m)
presets     named coefficient presets for b, sigma, h, f
filtering   particle-filter banks and systematic resampling
features    regression bases and per-step ridge projections
bsde        least-squares Monte Carlo backward solvers and derivative checks
minimax     cost evaluation, fixed-point driver, saddle diagnostics
oracles     closed-form and brute-force references used by the test suite
errors      exception hierarchy and its CLI exit codes
cli         config-driven experiment runner
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
