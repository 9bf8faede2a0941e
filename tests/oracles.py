"""Reference formulas the tests check the production code against.

None of these is on a run path: the load vector uses the separable source
load of RhsAssembler and the vorticity comes from CausalVorticity. They are
kept here, written the straightforward way, as independent oracles.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.integrate import quad

from galbrun.physics import SourceKind, SourceSpec, source_spatial


def _bump(spec: SourceSpec, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gaussian bump value and centered offsets at the given points."""
    dx = pts[..., 0] - spec.center[0]
    dy = pts[..., 1] - spec.center[1]
    w2 = spec.width * spec.width
    g = np.exp(-0.5 * (dx * dx + dy * dy) / w2)
    return g, dx, dy


def eval_source(spec: SourceSpec, pts: np.ndarray, t: float) -> np.ndarray:
    """Force vectors at points of shape (..., 2); same leading shape out."""
    return source_spatial(spec, pts) * float(spec.time_profile(t))


def source_curl_spatial(spec: SourceSpec, pts: np.ndarray) -> np.ndarray:
    """Spatial factor W of curl f = W(x, y) * p(t).

    For the rotational source W = -amplitude * laplacian(G); identically
    zero for irrotational or absent sources.
    """
    if spec.kind != SourceKind.ROTATIONAL:
        return np.zeros(pts.shape[:-1])
    g, dx, dy = _bump(spec, pts)
    w2 = spec.width * spec.width
    r2 = dx * dx + dy * dy
    return spec.amplitude * g * (2.0 / w2 - r2 / (w2 * w2))


def source_curl_spatial_gradient(spec: SourceSpec, pts: np.ndarray) -> np.ndarray:
    """Gradient of W, needed for grad psi under the Duhamel integral."""
    out = np.zeros(pts.shape)
    if spec.kind != SourceKind.ROTATIONAL:
        return out
    g, dx, dy = _bump(spec, pts)
    w2 = spec.width * spec.width
    w4 = w2 * w2
    r2 = dx * dx + dy * dy
    radial = spec.amplitude * g * (r2 / (w4 * w2) - 4.0 / w4)
    out[..., 0] = radial * dx
    out[..., 1] = radial * dy
    return out


def source_curl(spec: SourceSpec, pts: np.ndarray, t: float) -> np.ndarray:
    return source_curl_spatial(spec, pts) * float(spec.time_profile(t))


class AnalyticVorticity:
    """General closed-form vorticity for uniform flow.

    For M != 0:

        psi(x, y, t) = alpha(x - M t, y) + x beta(x - M t, y)
                       + (1/M^2) int_0^x (x - a) curl_f(a, y, t - (x - a)/M) da

    and in the degenerate M = 0 limit the convected integral becomes the
    repeated time integral int_0^t int_0^t' curl_f(x, y, t'') dt'' dt',
    evaluated here in its equivalent single-integral form
    int_0^t (t - t') curl_f(x, y, t') dt'.

    alpha and beta are caller-supplied functions of (x0, y); both default
    to zero. curl_f is any callable (x, y, t) -> scalar. Quadrature is
    adaptive to rel_tol (scipy.integrate.quad), scalar evaluation.
    """

    def __init__(
        self,
        curl_f: Callable[[float, float, float], float],
        M: float,
        alpha: Callable[[float, float], float] | None = None,
        beta: Callable[[float, float], float] | None = None,
        rel_tol: float = 1e-10,
    ):
        self.curl_f = curl_f
        self.M = float(M)
        self.alpha = alpha
        self.beta = beta
        self.rel_tol = rel_tol

    def _homogeneous(self, x: float, y: float, t: float) -> float:
        x0 = x - self.M * t
        val = 0.0
        if self.alpha is not None:
            val += self.alpha(x0, y)
        if self.beta is not None:
            val += x * self.beta(x0, y)
        return val

    def value(self, x: float, y: float, t: float) -> float:
        if self.M == 0.0:
            part, _ = quad(
                lambda tp: (t - tp) * self.curl_f(x, y, tp),
                0.0,
                t,
                epsabs=self.rel_tol,
                epsrel=self.rel_tol,
                limit=200,
            )
        else:
            m2 = self.M * self.M

            def integrand(a: float) -> float:
                return (x - a) * self.curl_f(a, y, t - (x - a) / self.M)

            part, _ = quad(
                integrand, 0.0, x, epsabs=self.rel_tol, epsrel=self.rel_tol, limit=200
            )
            part /= m2
        return self._homogeneous(x, y, t) + part

    def __call__(self, pts: np.ndarray, t: float) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, 2)
        vals = np.array([self.value(p[0], p[1], t) for p in flat])
        return vals.reshape(pts.shape[:-1])
