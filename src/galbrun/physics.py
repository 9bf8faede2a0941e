"""Sources, Lagrangian vorticity and the energy audit.

The displacement equation is driven by f_s = f + s curl psi, where psi is
the Lagrangian vorticity transported by the mean flow. For uniform flow
psi is known in closed form from curl f, so the regularization term never
requires solving an auxiliary PDE.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss

from galbrun.assembly import (
    TRI_QP_BARY,
    _CHUNK,
    _cell_pattern,
    _diagonal,
    _Pattern,
    triangle_gradients,
    triangle_quadrature,
)
from galbrun.mesh import DofMap, Mesh


class ProfileKind(str, Enum):
    GAUSSIAN_PULSE = "gaussian_pulse"
    RICKER = "ricker"


@dataclass(frozen=True)
class TimeProfile:
    """Excitation envelope p(t).

    gaussian_pulse: exp(-(t-t0)^2 / (2 sigma^2))
    ricker:         (1 - ((t-t0)/sigma)^2) * exp(-(t-t0)^2 / (2 sigma^2))
    """

    kind: ProfileKind = ProfileKind.GAUSSIAN_PULSE
    t0: float = 0.5
    sigma: float = 0.1

    def __call__(self, t: np.ndarray | float) -> np.ndarray | float:
        u = (np.asarray(t, dtype=float) - self.t0) / self.sigma
        if self.kind == ProfileKind.GAUSSIAN_PULSE:
            return np.exp(-0.5 * u * u)
        return (1.0 - u * u) * np.exp(-0.5 * u * u)

    def support_window(self) -> tuple[float, float]:
        """Interval outside which p is numerically negligible."""
        return (self.t0 - 9.0 * self.sigma, self.t0 + 9.0 * self.sigma)


class SourceKind(str, Enum):
    ROTATIONAL = "rotational"
    IRROTATIONAL = "irrotational"
    NONE = "none"


@dataclass(frozen=True)
class SourceSpec:
    """Separable volume force f(x, t) = amplitude * g_vec(x) * p(t).

    The spatial part derives from a Gaussian bump
    G = exp(-|x - center|^2 / (2 width^2)):

    rotational:   g_vec = (dG/dy, -dG/dx)   (divergence free)
    irrotational: g_vec = grad G            (curl free)
    """

    kind: SourceKind = SourceKind.ROTATIONAL
    center: tuple[float, float] = (0.0, 0.0)
    width: float = 0.25
    amplitude: float = 1.0
    time_profile: TimeProfile = TimeProfile()


def source_spatial(spec: SourceSpec, pts: np.ndarray) -> np.ndarray:
    """Spatial factor amplitude * g_vec of f = source_spatial * p(t)."""
    out = np.zeros(pts.shape)
    if spec.kind == SourceKind.NONE:
        return out
    dx = pts[..., 0] - spec.center[0]
    dy = pts[..., 1] - spec.center[1]
    w2 = spec.width * spec.width
    g = np.exp(-0.5 * (dx * dx + dy * dy) / w2)
    amp = spec.amplitude / w2
    if spec.kind == SourceKind.ROTATIONAL:
        out[..., 0] = -amp * dy * g
        out[..., 1] = amp * dx * g
    else:
        out[..., 0] = -amp * dx * g
        out[..., 1] = -amp * dy * g
    return out


class CausalVorticity:
    """Vorticity of the solution started from rest, for uniform flow.

    The transported vorticity obeys (d/dt + M d/dx)^2 psi = curl f with
    zero initial data, whose characteristic (Duhamel) solution is

        psi(x, y, t) = int_0^t tau W(x - M tau, y) p(t - tau) dtau

    for a separable curl f = W(x, y) p(t). This equals the general closed
    form alpha + x beta + convected double integral with alpha, beta chosen
    to cancel the state at t = 0 (the tests check it against that form).
    The integral is Gauss-Legendre over the overlap of [0, t] with the
    support window of p.

    The rotational source has W = A g_x(x - c_x) g_y(y - c_y) times a
    polynomial in the offsets, and the characteristic shift moves only x.
    So psi and grad psi are combinations of the four 1-D moments

        I_m(x, t) = sum_q w_q tau_q p(t - tau_q) g_x(xi_q) xi_q^m,
        xi_q = x - c_x - M tau_q,   m = 0..3,

    with coefficients that depend on y only (gradient_coefficients). The
    moments are evaluated once per distinct x of the points.
    """

    def __init__(self, source: SourceSpec, M: float, n_nodes: int = 48):
        self.source = source
        self.M = float(M)
        self.n_nodes = n_nodes
        self._z, self._w = leggauss(n_nodes)

    def _tau_nodes(self, t: float) -> tuple[np.ndarray, np.ndarray] | None:
        win = self.source.time_profile.support_window()
        lo, hi = max(0.0, t - win[1]), min(t, t - win[0])
        if hi <= lo:
            return None
        tau = 0.5 * (hi - lo) * self._z + 0.5 * (hi + lo)
        return tau, 0.5 * (hi - lo) * self._w

    def moments(self, x: np.ndarray, t: float) -> np.ndarray | None:
        """[I0, I1, I2, I3] at the abscissae x, shape (4, x.size), or None
        while psi vanishes (no rotational source, or t before the window)."""
        if self.source.kind != SourceKind.ROTATIONAL:
            return None
        nodes = self._tau_nodes(t)
        if nodes is None:
            return None
        tau, w = nodes
        coef = w * tau * self.source.time_profile(t - tau)
        xi = (x - self.source.center[0])[:, None] - self.M * tau[None, :]
        gx = np.exp(-0.5 * xi * xi / (self.source.width * self.source.width))
        out = np.empty((4, x.size))
        for m in range(4):
            out[m] = gx @ coef
            gx = gx * xi
        return out

    def _y_factors(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """y - c_y and A g_y(y - c_y) at each point."""
        dy = pts[..., 1] - self.source.center[1]
        w2 = self.source.width * self.source.width
        return dy, self.source.amplitude * np.exp(-0.5 * dy * dy / w2)

    def gradient_coefficients(self, pts: np.ndarray) -> np.ndarray:
        """C of shape pts.shape[:-1] + (2, 4) with
        grad psi(p, t) = sum_m C[p, :, m] I_m(x_p, t).

        With a = A g_y (dy^2/w^6 - 4/w^4) and b = A g_y / w^6:
        dpsi/dx = a I1 + b I3 and dpsi/dy = dy (a I0 + b I2).
        """
        dy, agy = self._y_factors(pts)
        w2 = self.source.width * self.source.width
        w4, w6 = w2 * w2, w2 * w2 * w2
        a = agy * (dy * dy / w6 - 4.0 / w4)
        b = agy / w6
        out = np.zeros(pts.shape[:-1] + (2, 4))
        out[..., 0, 1], out[..., 0, 3] = a, b
        out[..., 1, 0], out[..., 1, 2] = dy * a, dy * b
        return out

    def _point_moments(self, pts: np.ndarray, t: float) -> np.ndarray | None:
        """The moments at each point, shape (4,) + pts.shape[:-1], or None."""
        x, inv = np.unique(pts[..., 0], return_inverse=True)
        moments = self.moments(x, t)
        if moments is None:
            return None
        return moments[:, inv.reshape(pts.shape[:-1])]

    def gradient(self, pts: np.ndarray, t: float) -> np.ndarray:
        moments = self._point_moments(pts, t)
        if moments is None:
            return np.zeros(pts.shape)
        return np.einsum(
            "...cm,m...->...c", self.gradient_coefficients(pts), moments
        )


# A separable load f(x, t) = f_j(x) p_j(t): the spatial field at (..., 2)
# points, pointwise (its value at a point depends on that point alone), and
# the scalar time profile.
Load = tuple[Callable[[np.ndarray], np.ndarray], Callable[[float], float]]


class RhsAssembler:
    """Per-step load vector F(t) of the regularized right-hand side.

    F_i(t) = int (f + s curl psi) . phi_i, with curl of the scalar psi
    taken as (dpsi/dy, -dpsi/dx). Every force f is a sum of separable loads
    f_j(x) p_j(t), so each F_j = int f_j . phi_i is assembled once here
    and a call returns sum_j p_j(t) F_j.

    grad psi is a fixed combination of the vorticity's moments at the
    distinct x of the quadrature points, so the load of s curl psi is a
    fixed sparse map of them, also built once: a call evaluates the
    moments and applies the map.
    """

    def __init__(
        self,
        mesh: Mesh,
        dofs: DofMap,
        loads: tuple[Load, ...],
        s: float,
        vorticity=None,
    ):
        self.s = float(s)
        self.vorticity = vorticity
        qp, qw = triangle_quadrature(mesh)
        self.n_dofs = dofs.n_dofs
        self._loads = [(self._scatter(mesh, dofs, f, qp, qw), p) for f, p in loads]
        self._vorticity_x = self._vorticity_map = None
        if vorticity is not None and self.s != 0.0:
            self._vorticity_x, self._vorticity_map = self._vorticity_load_map(
                mesh, dofs, qp, qw
            )

    @staticmethod
    def _scatter(
        mesh: Mesh,
        dofs: DofMap,
        f: Callable[[np.ndarray], np.ndarray],
        qp: np.ndarray,
        qw: np.ndarray,
    ) -> np.ndarray:
        """Load vector int f . phi_i of the pointwise force f at the
        quadrature points qp with weights qw, summed at the nodes and
        restricted to the dofs. f is evaluated _CHUNK triangles at a time,
        with the same bits: evaluated at every point at once, it set the
        traced peak and, at 320x80, the run's peak RSS (measured at
        ef72a3c)."""
        vals = np.empty((2,) + qw.shape)  # by component, each triangle's nodes
        for start in range(0, len(qw), _CHUNK):
            e = slice(start, start + _CHUNK)
            fe = f(qp[e])
            for comp in range(2):
                vals[comp, e] = (qw[e] * fe[..., comp]) @ TRI_QP_BARY
        nodal = np.zeros((mesh.n_nodes, 2))
        for comp, v in enumerate(vals):
            nodal[:, comp] = np.bincount(
                mesh.triangles.ravel(), weights=v.ravel(), minlength=mesh.n_nodes
            )
        return dofs.restrict(nodal)

    def _vorticity_load_map(
        self, mesh: Mesh, dofs: DofMap, qp: np.ndarray, qw: np.ndarray
    ) -> tuple[np.ndarray, sp.csr_matrix]:
        """(x, P): the distinct x of the quadrature points qp, and the sparse
        map P taking the moments [I0; I1; I2; I3] at x to the load of
        s curl psi. Column m n_x + j of P is that load when I_m(x_j) = 1 and
        every other moment is 0: the sum, over the points p whose x is x_j,
        of qw_p phi_i(p) times the moment's gradient coefficient at p.

        P is summed on the pattern of the (node, x) pairs of the points, with
        one column group per moment: bit for bit the sums of the quadrature
        scatter times a per-point selection of x, without either matrix.
        """
        x, inv = np.unique(qp[..., 0].ravel(), return_inverse=True)
        inv = inv.astype(np.int32).reshape(qp.shape[:-1])
        q, k = np.nonzero(TRI_QP_BARY)  # the point and node of each phi != 0
        col_dofs = np.arange(4 * len(x)).reshape(4, len(x))  # m n_x + j
        pattern = _Pattern(mesh.triangles[:, k], inv[:, q], dofs, col_dofs)
        del inv

        def blocks(e: slice) -> dict[tuple[int, int], np.ndarray]:
            weight = qw[e][:, q] * TRI_QP_BARY[q, k]
            grad = self.vorticity.gradient_coefficients(qp[e])
            out = {}
            # s curl psi = (s dpsi/dy, -s dpsi/dx): load component c takes
            # the derivative along axis 1 - c.
            for c, sign in enumerate((self.s, -self.s)):
                for m in range(4):
                    coef = sign * grad[:, q, 1 - c, m]
                    if coef.any():  # a zero term changes no kept sum
                        out[c, m] = weight * coef
            return out

        return x, pattern.scatter(blocks)

    def __call__(self, t: float) -> np.ndarray:
        # Summed onto the first term, not onto zeros: a fresh zero vector
        # per call costs more than the products.
        terms = [float(profile(t)) * load for load, profile in self._loads]
        F = sum(terms[1:], terms[0]) if terms else np.zeros(self.n_dofs)
        if self._vorticity_map is not None:
            moments = self.vorticity.moments(self._vorticity_x, t)
            if moments is not None:
                F += self._vorticity_map @ moments.ravel()
        return F


def make_energy_stiffness(mesh: Mesh, dofs: DofMap, M: float) -> sp.csr_matrix:
    """Matrix of the energy gradient term int |grad xi|^2 - M^2 |dxi/dx|^2.

    Assembled independently of the system stiffness; on the constrained
    space it coincides with Ah + Dh at s = 1 (a discrete integration by
    parts identity). Runs log the scheme's own energy with its K; this
    is the reference the test suite compares it against.
    """

    def blocks(e: slice) -> dict[tuple[int, int], np.ndarray]:
        gx, gy, a = triangle_gradients(mesh, e)
        gg = (1.0 - M * M) * gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :]
        return _diagonal(a[:, None, None] * gg)

    return _cell_pattern(mesh.triangles, dofs).scatter(blocks)


def energy(
    d: np.ndarray, Mh_d: np.ndarray, xi_curr: np.ndarray, K_prev: np.ndarray
) -> tuple[float, float]:
    """(E, kinetic): the discrete energy of a consecutive state pair
    (xi_prev, xi_curr) and its kinetic part,

    E = 1/2 [ d^T Mh d + xi_curr^T K_prev ], kinetic = 1/2 d^T Mh d,

    from d = (xi_curr - xi_prev)/dt, Mh_d = Mh d and K_prev = K xi_prev,
    the stiffness applied to the earlier state: the step that made xi_curr
    already formed all three. Both parts are sums over rows, and
    dynamics.StepOperator takes them on each component block's rows and
    sums the blocks.

    With K and BC the scheme's stiffness and damping, as run_simulation
    uses, the leapfrog scheme balances it exactly:

        E_{n+1/2} - E_{n-1/2} = -dt v^T sym(BC) v + dt F^T v,

    v = (x_{n+1} - x_{n-1}) / (2 dt). Without a source it is therefore
    non-increasing where sym(BC) >= 0, and conserved to roundoff for
    the closed box at M = 0. For s != 1, K need not be positive and
    E may go negative; the kinetic part never does. Overflows to inf
    (silently, callers check finiteness) while a blown-up run is being
    detected. The dot products go through einsum, not BLAS, whose threaded
    ddot sums in an order set by the thread count.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        kinetic = 0.5 * float(np.einsum("i,i", d, Mh_d))
        return kinetic + 0.5 * float(np.einsum("i,i", xi_curr, K_prev)), kinetic


def boundary_flux(d: np.ndarray, flux_mass: sp.spmatrix) -> float:
    """Outflow rate d^T flux_mass d with the same backward difference
    d = (xi_curr - xi_prev) / dt as energy().

    dynamics.StepOperator passes each block's rows of the step's d on the
    dofs of Gamma and flux_mass = sym(BC) restricted alike, and sums the
    blocks' rates: the boundary mass of the outflow
    int_Gamma |dxi/dt|^2 (assembly's energy identity), or zero for the
    closed box at M = 0. The scheme's velocity is centered,
    (x_{n+1} - x_{n-1}) / (2 dt); this backward difference sits half a step
    off it, so the balance E_n - E_{n-1} = -dt * flux holds only to
    O(dt^2), not exactly.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.einsum("i,i", d, flux_mass @ d))


def well_posedness_margin(M: float, s: float) -> float:
    """min(1, s) - M^2; positive is the sufficient well-posedness regime."""
    return min(1.0, s) - M * M

