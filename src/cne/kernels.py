"""The Cauchy similarity kernel of the SNE-style losses.

phi(d) = 1/(d^2+1) serves every Cauchy-kernel loss; its unnormalized
companion phi_tilde = 1/d^2 satisfies phi_tilde/(phi_tilde+1) = phi exactly.
Squared distances are clamped below EPS_SQ_DIST before any log or division.
"""

from __future__ import annotations

import numpy as np

from .errors import CneError

EPS_SQ_DIST = 1e-12


def cauchy(d_sq):
    """Cauchy similarity 1/(d^2 + 1), in (0, 1]."""
    d_sq = np.asarray(d_sq, dtype=np.float64)
    if np.any(d_sq < 0):
        raise CneError("squared distance must be non-negative")
    return cauchy_unchecked(d_sq)


def cauchy_unchecked(d_sq):
    """cauchy() of a float64 array already known to be non-negative, unchecked:
    the losses pass squared distances they have just clamped."""
    return 1.0 / (d_sq + 1.0)


def cauchy_unnormalized(d_sq):
    """Unnormalized kernel phi_tilde = 1/d^2 with phi_tilde/(phi_tilde+1) = cauchy(d^2)."""
    d_sq = np.asarray(d_sq, dtype=np.float64)
    if np.any(d_sq <= 0):
        raise CneError("cauchy_unnormalized requires d^2 > 0 (singular at 0)")
    return 1.0 / d_sq
