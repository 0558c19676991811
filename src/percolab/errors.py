"""Error taxonomy shared across the package.

The CLI maps these onto exit codes: invalid configuration exits 2,
numerical failures exit 3.
"""
from __future__ import annotations


class InvalidConfigError(ValueError):
    """A config file, CLI argument or operation input is malformed."""


class NumericalFailureError(RuntimeError):
    """A numerical procedure could not produce a trustworthy result."""


class BracketError(NumericalFailureError):
    """A root finder could not bracket a sign change."""


class NonconvergenceError(NumericalFailureError):
    """An iteration budget was exhausted before reaching tolerance."""


class CriticalWindowError(ValueError):
    """A query landed too close to the critical time to be meaningful."""
