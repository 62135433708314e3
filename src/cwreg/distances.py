"""Distance matrices and Gaussian kernel weights for local regression.

Geographic distance is the Euclidean distance between projected
coordinates in meters. Attribute distance is the Euclidean distance
between standardized attribute vectors. Local models weight their
observations through a Gaussian kernel applied to the convex blend

    d = r * d_geographic + (1 - r) * d_attribute

so r = 1 weights purely by geography and r = 0 purely by attribute
similarity. The two raw distances live on incommensurate scales, so by
default each matrix is rescaled by its maximum over training pairs
("max-scale") before blending; the stored maxima are reused to rescale
query-to-training distances at prediction time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .data import _finite_array, _finite_number
from .errors import ParameterError

NORMALIZATION_MODES = ("max-scale", "none")


@dataclass(frozen=True)
class DistanceSpec:
    """Blend ratio, attribute columns, and distance normalization mode.

    Parameters
    ----------
    r : float
        Weight of the geographic distance in the blend, in [0, 1].
    attribute_columns : sequence of str
        Covariate columns entering the attribute distance. Must be
        non-empty whenever r < 1.
    normalization : str
        "max-scale" divides each distance matrix by its training
        maximum before blending; "none" blends raw distances.
    """

    r: float = 1.0
    attribute_columns: tuple[str, ...] = ()
    normalization: str = "max-scale"

    def __post_init__(self):
        if not (_finite_number(self.r) and 0.0 <= self.r <= 1.0):
            raise ParameterError(
                f"blend ratio r must be a number in [0, 1], got {self.r!r}")
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "attribute_columns", tuple(self.attribute_columns))
        if self.normalization not in NORMALIZATION_MODES:
            raise ParameterError(
                f"unknown normalization {self.normalization!r}, "
                f"expected one of {NORMALIZATION_MODES}"
            )
        if self.r < 1.0 and not self.attribute_columns:
            raise ParameterError("attribute_columns must be non-empty when r < 1")


def geographic_distances(coords_a, coords_b) -> np.ndarray:
    """Pairwise Euclidean distances between two coordinate sets.

    Both arguments are (n, 2) arrays of projected easting/northing in
    meters. Returns an (n_a, n_b) matrix.
    """
    return cdist(_finite_array(coords_a, "coords_a", (None, 2)),
                 _finite_array(coords_b, "coords_b", (None, 2)))


def attribute_distances(attrs_a, attrs_b) -> np.ndarray:
    """Pairwise Euclidean distances between standardized attribute vectors.

    Standardization is the caller's job (see data.standardize); this
    function only checks that the two sides agree on dimensionality.
    """
    a = _finite_array(attrs_a, "attrs_a", (None, None))
    b = _finite_array(attrs_b, "attrs_b", (None, a.shape[1]))
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    return cdist(a, b)


def _blend_rows(geo, attr, r, out, term=None):
    """r * geo + (1 - r) * attr of equal-shape rows, the one blend rule:
    at r = 1 or 0 geo or attr itself, else written into `out`, its
    second term first into `term` if given (else a new array). Nothing
    is checked."""
    if r in (0.0, 1.0):
        return geo if r else attr
    np.multiply(geo, r, out=out)
    out += np.multiply(attr, 1.0 - r, out=term)
    return out


def gaussian_weights(distances, bandwidth) -> np.ndarray:
    """Gaussian kernel weights exp(-(d / h)^2), by _gaussian: exp(-1) at
    d = h, exp(-4) at 2h, exactly 1 at d = 0 and exactly 0 where the
    exponent overflows, for any finite h > 0, h = 1e-300 too (1/h^2 is
    clamped). Bandwidths of shape (k, 1, 1) give k stacked kernels."""
    h = _bandwidths(bandwidth)
    with np.errstate(over="ignore"):
        return _gaussian(np.square(_nonnegative(distances)), h)


def _bandwidths(bandwidth):
    """`bandwidth` as a float array, every entry finite and > 0, or raise."""
    h = np.asarray(bandwidth, dtype=float)
    if not (np.isfinite(h) & (h > 0)).all():
        raise ParameterError(f"bandwidth must be positive, got {bandwidth}")
    return h


def _nonnegative(distances):
    """`distances` as a float array, every entry >= 0 (not NaN), or raise."""
    d = np.asarray(distances, dtype=float)
    if not (d >= 0).all():
        raise ParameterError("distances must be nonnegative numbers")
    return d


def _gaussian(squared, h, out=None):
    """exp(s * -d^2), s = 1/h^2, of squared distances (into `out`): the
    one kernel formula. For every finite h > 0 a weight is exactly 1 at
    d = 0 and 0 where s d^2 overflows, silently; s is clamped to the
    largest float, so 0 * s is 0 where 1/h^2 overflows (h < 1e-154)."""
    with np.errstate(over="ignore"):
        s = np.minimum(np.square(1.0 / h), np.finfo(float).max)
        w = np.multiply(squared, -s, out=out)
    return np.exp(w, out=w)


def training_scale(distances) -> float:
    """Rescaling constant for max-scale normalization.

    Returns the maximum entry of a training distance matrix, or 1.0
    when the matrix is empty or all-zero so that division is a no-op.
    A maximum that is not finite (coordinates so large that their
    distances overflow) raises ParameterError.
    """
    d = np.asarray(distances, dtype=float)
    if d.size == 0:
        return 1.0
    m = float(d.max())
    if not np.isfinite(m):
        raise ParameterError(
            f"the largest training distance is {m}: coordinates too large")
    return m if m > 0 else 1.0
