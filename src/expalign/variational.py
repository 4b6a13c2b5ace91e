"""Free-energy minimization over the prompt-patch simplex.

The functional is linear energy minus a weighted geometry score plus a
temperature-weighted KL to the uniform reference. Its unique minimizer has a
closed Gibbs form; a multiplicative-weights (entropic mirror descent) iteration
is kept alongside as an independent numeric check.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError

SIMPLEX_TOL = 1e-9
LOG_FLOOR = 1e-300  # floor for log evaluation only; masses themselves are untouched


@dataclass(frozen=True)
class GibbsProblem:
    """Energy field, geometry score, temperature, and geometry weight.

    energy and geometry may have any matching shape; the pair set is their
    flattened index space. geometry is zero outside masked regions by
    construction of the callers.
    """

    energy: np.ndarray
    geometry: np.ndarray = None
    tau: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        e = np.asarray(self.energy, dtype=np.float64)
        g = np.zeros_like(e) if self.geometry is None else np.asarray(self.geometry, dtype=np.float64)
        if g.shape != e.shape:
            raise DimensionError(f"geometry shape {g.shape} must match energy shape {e.shape}")
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(g))):
            raise DomainError("energy and geometry must be finite")
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise DomainError(f"temperature must be positive, got {self.tau}")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise DomainError(f"geometry weight must be nonnegative, got {self.lam}")
        object.__setattr__(self, "energy", e)
        object.__setattr__(self, "geometry", g)

    @property
    def size(self):
        return self.energy.size

    def effective_energy(self):
        """E - lam * A, flattened."""
        return (self.energy - self.lam * self.geometry).ravel()


def _check_simplex(q):
    """q, one point (n,) or a stack (K, n), with negative rounding clipped to 0
    once every row is checked to lie on the simplex."""
    low, total = q.min(axis=-1), q.sum(axis=-1)
    on = (low >= -SIMPLEX_TOL) & (abs(total - 1.0) <= SIMPLEX_TOL)  # False for a row with a NaN mass
    if not on.all():
        i = int(np.argmin(on))  # the first row off the simplex; 0 for a point
        which = "mass vector" if q.ndim == 1 else f"row {i} of the mass stack"
        raise DomainError(f"{which} off the simplex: min={low.reshape(-1)[i]:.3e}, "
                          f"sum={float(total.reshape(-1)[i])!r}")
    return np.maximum(q, 0.0)


def kl_divergence(q, r):
    """KL(q || r) with the 0 * log 0 = 0 convention."""
    q = np.asarray(q, dtype=np.float64).ravel()
    r = np.asarray(r, dtype=np.float64).ravel()
    pos = q > 0
    return float(np.sum(q[pos] * (np.log(q[pos]) - np.log(np.maximum(r[pos], LOG_FLOOR)))))


def _free_energies(q, e_eff, tau, log_u):
    """<q, e_eff> + tau * KL(q || uniform) of a point (n,) or of each row of a stack
    (K, n), with the 0 * log 0 = 0 convention; log_u is log(1/n)."""
    pos = q > 0
    return q @ e_eff + tau * (q * (np.log(np.where(pos, q, 1.0)) - log_u)).sum(axis=-1, where=pos)


def free_energy(q, prob):
    """F[q] = <q, E - lam*A> + tau * KL(q || uniform).

    An array of prob.size entries, of any shape, is one point and gives a float; a
    (K, prob.size) stack gives the K values of its rows, each row checked on the
    simplex. _free_energies evaluates the same expression at any positive point.
    """
    qf = np.asarray(q, dtype=np.float64)
    if qf.size == prob.size:
        qf = qf.ravel()
    elif qf.ndim != 2 or qf.shape[1] != prob.size or qf.shape[0] == 0:
        raise DimensionError(f"mass must be {prob.size} entries or a (K, {prob.size}) stack, "
                             f"got shape {qf.shape}")
    qf = _check_simplex(qf)
    values = _free_energies(qf, prob.effective_energy(), prob.tau, np.log(1.0 / prob.size))
    return float(values) if qf.ndim == 1 else values


def _free_energy_gradient(q, e_eff, tau, u):
    return e_eff + tau * (np.log(np.maximum(q, LOG_FLOOR) / u) + 1.0)


def free_energy_gradient(q, prob):
    """Gradient of the unconstrained free-energy expression at positive q."""
    qf = np.asarray(q, dtype=np.float64).ravel()
    return _free_energy_gradient(qf, prob.effective_energy(), prob.tau, 1.0 / prob.size)


def gibbs(z):
    """exp(z) / sum(exp(z)) along the last axis, max-shifted, with weight exactly 0 at -inf: the
    token posterior, the contrastive softmax and the free-energy minimizer all normalize here."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def gibbs_closed_form(prob):
    """The unique minimizer: the Gibbs distribution of -(E - lam*A) / tau."""
    return gibbs(-prob.effective_energy() / prob.tau).reshape(prob.energy.shape)


@dataclass(frozen=True)
class MirrorDescentResult:
    q: np.ndarray
    converged: bool
    iterations: int
    residual: float
    free_energy: float


def minimize_free_energy_numeric(prob, max_iters=500, tol=1e-12):
    """Entropic mirror descent from the uniform start.

    Multiplicative update q <- normalize(q * exp(-eta * grad F)) with
    eta = 0.5 / tau (log-space contraction 1/2 toward the Gibbs fixed point),
    halving eta whenever a step would increase F. Non-convergence within
    max_iters is reported through the result record, not raised.
    """
    n = prob.size
    e_eff, u, log_u = prob.effective_energy(), 1.0 / n, np.log(1.0 / n)  # per-solve constants
    q = np.full(n, u)
    eta = 0.5 / prob.tau
    f_cur = _free_energies(_check_simplex(q), e_eff, prob.tau, log_u)
    residual = np.inf
    for it in range(1, max_iters + 1):
        grad = _free_energy_gradient(q, e_eff, prob.tau, u)
        grad = grad - grad.max()  # additive shifts cancel in the normalization
        q_new = q * np.exp(-eta * grad)
        q_new /= q_new.sum()
        f_new = _free_energies(_check_simplex(q_new), e_eff, prob.tau, log_u)
        if f_new > f_cur + 1e-15:
            eta *= 0.5
            continue
        residual = float(abs(q_new - q).max())
        q, f_cur = q_new, f_new
        if residual <= tol:
            return MirrorDescentResult(
                q=q.reshape(prob.energy.shape), converged=True, iterations=it,
                residual=residual, free_energy=float(f_cur),
            )
    return MirrorDescentResult(
        q=q.reshape(prob.energy.shape), converged=False, iterations=max_iters,
        residual=float(residual), free_energy=float(f_cur),
    )


def random_simplex(rng, n, count=1):
    """Symmetric Dirichlet(1) samples via normalized exponentials, shape (count, n)."""
    x = rng.exponential(1.0, size=(count, n))
    return x / x.sum(axis=1, keepdims=True)
