"""Constructors for the named Gaussian states and conditional mutual information.

All states are zero-mean.  Mode bookkeeping is positional with string labels;
partial traces and entropies are taken by label.  The constructors take
parameter arrays, which broadcast, and give one state holding their stack.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ENERGY, GAIN, TRANSMISSIVITY, DomainError, in_domain, memory_refusal
from .symplectic import gaussian_entropy, marginal, n_modes_of

#: signs of the P-quadrature block of a constructor's covariance relative to
#: its Q-quadrature block: Z = diag(1, -1) on each correlation of the first mode
_P_SIGNS = np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]])


@functools.cache
def _construction_subsets(n):
    """The whole state, each mode and each all-but-one-mode group, as
    nonempty frozensets of mode indices without repeats."""
    whole = frozenset(range(n))
    subsets = [whole] + [frozenset({m}) for m in range(n)] + [whole - {m} for m in range(n)]
    return tuple(s for s in dict.fromkeys(subsets) if s)


@functools.lru_cache(maxsize=256)
def _padding(n, subsets, ndim):
    """Mask of the covariance entries each subset keeps, shaped to broadcast
    against a stack of ndim dimensions with the subset axis first; and the vacuum."""
    kept = np.zeros((len(subsets), n), dtype=bool)
    for row, subset in enumerate(subsets):
        kept[row, list(subset)] = True
    kept = np.repeat(kept, 2, axis=1)
    kept = (kept[:, :, None] & kept[:, None, :]).reshape(-1, *(1,) * (ndim - 2), 2 * n, 2 * n)
    return kept, 0.5 * np.eye(2 * n)


def _charge(points, n, copies):
    """Refuse with DomainError when the entropy kernel's working set on ``copies``
    padded stacks of ``points`` covariances of n modes exceeds
    ``errors.MEMORY_LIMIT``."""
    d = 2 * n
    # per padded d x d matrix, six float copies (the matrix, its Cholesky factor,
    # L^T Delta L, its antisymmetric part, and the complex Hermitian matrix, which
    # counts twice) and 8 (d + 6) B for its spectrum; and 136 KiB for numpy's buffers
    # (8192 complex entries) and the interpreter.  Measured (tracemalloc) on 1 to 4
    # modes, a construction peaks at 0.78 to 0.99 of this from 10^3 points on.
    nbytes = copies * points * 8 * (6 * d**2 + d + 6) + 136 * 2**10
    refusal = memory_refusal(nbytes, "{} points need {}", points)
    if refusal:
        raise DomainError(refusal)


def _padded(cov, subsets):
    """Copies of the stack cov along a new first axis, one per subset of mode
    indices, with every mode outside it a vacuum block, which adds no entropy.

    Refused with DomainError by ``_charge`` before they are built."""
    d = cov.shape[-1]
    _charge(cov.size // d**2, d // 2, len(subsets))
    kept, vacuum = _padding(d // 2, tuple(subsets), cov.ndim)
    return np.where(kept, cov, vacuum)


@dataclass(frozen=True)
class GaussianState:
    """Zero-mean Gaussian state: mode labels and a covariance, or a stack of them.

    Construction validates the covariance with one stacked kernel call, which
    also gives the entropies of the whole state, of each mode and of each
    all-but-one-mode marginal: every marginal of a state of up to three modes.
    ``entropy`` and ``gaussian_cmi`` read them; any other group of modes costs
    one more kernel call, whose result is kept as well.  Each is a float for
    one covariance and an array of the stack's shape for a stack.
    """

    cov: np.ndarray
    labels: tuple
    #: von Neumann entropies by frozenset of mode indices, one array per subset
    _memo: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        cov = np.array(self.cov, dtype=float)  # a read-only copy keeps the memo valid
        cov.flags.writeable = False
        object.__setattr__(self, "cov", cov)
        n = n_modes_of(cov)
        subsets = _construction_subsets(n)
        entropies = gaussian_entropy(_padded(cov, subsets))
        object.__setattr__(self, "_memo", dict(zip(subsets, entropies)))
        if len(self.labels) != n or len(set(self.labels)) != n:
            raise DomainError(f"need {n} distinct mode labels, got {self.labels}")

    def _memoized(self, subsets):
        """Entropies of frozensets of mode indices; those not in the memo come
        from one padded kernel call and are kept."""
        missing = [s for s in dict.fromkeys(subsets) if s not in self._memo]
        if missing:
            self._memo.update(zip(missing, gaussian_entropy(_padded(self.cov, missing))))
        return [self._memo[s] for s in subsets]

    @property
    def n_modes(self):
        return len(self.labels)

    def mode_indices(self, labels):
        try:
            return [self.labels.index(l) for l in labels]
        except ValueError as exc:
            raise DomainError(f"unknown mode label in {labels}") from exc

    def marginal_cov(self, labels):
        return marginal(self.cov, self.mode_indices(labels))

    def entropy(self, labels=None):
        modes = self.mode_indices(self.labels if labels is None else labels)
        if not modes or len(set(modes)) != len(modes):
            raise DomainError(f"mode subset {modes} is empty or has duplicates")
        out = self._memoized([frozenset(modes)])[0]
        return out if out.ndim else float(out)


def _params(n, *checks):
    """The (name, value, domain) checks of in_domain, their values brought to one
    shape by adding 0.0 times all of them, which is exact for finite values.

    A stack of states of n modes built from arrays is charged by ``_charge``, as
    its construction's padded stacks, from their broadcast shape: a stack too
    large is refused before anything of that shape is built."""
    params = [in_domain(*check) for check in checks]
    shapes = [p.shape for p in params if isinstance(p, np.ndarray)]  # the rest are floats
    if shapes:
        try:
            points = math.prod(np.broadcast_shapes(*shapes))
        except ValueError:
            shapes = ", ".join(str(np.shape(p)) for p in params)
            raise DomainError(f"parameter shapes {shapes} do not broadcast") from None
        _charge(points, n, len(_construction_subsets(n)))
    zero = sum(0.0 * p for p in params)
    return [p + zero for p in params]


def _covariance(q):
    """Covariances (..., 2n, 2n) from the nested rows q, all entries of one shape,
    of their Q-quadrature blocks; the P block is Q times the signs _P_SIGNS."""
    q = np.array(q)
    q = q.transpose(*range(2, q.ndim), 0, 1)
    n = q.shape[-1]
    cov = np.zeros(q.shape[:-2] + (2 * n, 2 * n))
    cov[..., 0::2, 0::2] = q
    cov[..., 1::2, 1::2] = _P_SIGNS[:n, :n] * q
    return cov


def thermal_state(E, label="A"):
    """One-mode thermal state with mean energy E: covariance (E + 1/2) I."""
    (E,) = _params(1, ("mean energy", E, ENERGY))
    return GaussianState(cov=_covariance([[E + 0.5]]), labels=(label,))


def tms_thermal_state(kappa, E, labels=("A", "B")):
    """Two-mode squeezer applied to thermal(E) tensor vacuum; closed-form covariance."""
    kappa, E = _params(2, ("squeezing gain", kappa, GAIN), ("mean energy", E, ENERGY))
    ab = (E + 1.0) * np.sqrt(kappa * (kappa - 1.0))
    cov = _covariance([[kappa * (E + 1.0) - 0.5, ab], [ab, (kappa - 1.0) * (E + 1.0) + 0.5]])
    return GaussianState(cov=cov, labels=tuple(labels))


def gamma_attenuated(eta, E, labels=("A", "B")):
    """Attenuator with transmissivity eta on half of a two-mode squeezed vacuum."""
    return GaussianState(cov=attenuated_tmsv_cov(eta, E), labels=tuple(labels))


def gamma_amplified(kappa, E, labels=("A", "B")):
    """Amplifier with gain kappa on half of a two-mode squeezed vacuum."""
    kappa, E = _params(2, ("amplifier gain", kappa, GAIN), ("mean energy", E, ENERGY))
    c = np.sqrt(kappa * E * (E + 1.0))
    return GaussianState(cov=_covariance([[kappa * E + kappa - 0.5, c], [c, E + 0.5]]),
                         labels=tuple(labels))


def attenuated_tmsv_cov(eta, E):
    """Closed-form covariance of the AR state: attenuator on half a TMSV of energy E."""
    eta, E = _params(2, ("transmissivity", eta, TRANSMISSIVITY), ("mean energy", E, ENERGY))
    c = np.sqrt(eta * E * (E + 1.0))
    return _covariance([[E + 0.5, c], [c, eta * E + 0.5]])


def extension_family(kappa, E, eta, labels=("A", "B", "R")):
    """Three-mode Gaussian extension of tms_thermal_state(kappa, E).

    The AB two-mode squeezer applied to the attenuated two-mode squeezed vacuum
    on AR (energy E, transmissivity eta) and a vacuum mode B, in closed form.
    With a = E + 1/2, c = sqrt(eta E (E + 1)), t = sqrt(kappa),
    s = sqrt(kappa - 1) and Z = diag(1, -1), the blocks are
    AA = (kappa a + (kappa - 1)/2) I, BB = ((kappa - 1) a + kappa/2) I,
    RR = (eta E + 1/2) I, AB = t s (a + 1/2) Z, AR = t c Z and BR = s c I.
    The AB blocks are evaluated as in tms_thermal_state, so tracing out R
    leaves exactly its covariance.
    """
    kappa, E, eta = _params(3, ("squeezing gain", kappa, GAIN), ("mean energy", E, ENERGY),
                            ("transmissivity", eta, TRANSMISSIVITY))
    c, t, s, root = np.sqrt((eta * E * (E + 1.0), kappa, kappa - 1.0, kappa * (kappa - 1.0)))
    ab, tc, sc = (E + 1.0) * root, t * c, s * c
    q = [  # the Q quadratures of A, B, R
        [kappa * (E + 1.0) - 0.5, ab, tc],
        [ab, (kappa - 1.0) * (E + 1.0) + 0.5, sc],
        [tc, sc, eta * E + 0.5],
    ]
    return GaussianState(cov=_covariance(q), labels=tuple(labels))


def gaussian_cmi(state, part_a, part_b, part_r=()):
    """Conditional mutual information I(A;B|R) = S(AR) + S(BR) - S(R) - S(ABR) in nats.

    The four entropies come from the state's memo, which its construction
    filled with the whole state, each mode and each all-but-one-mode marginal;
    so on a state of up to three modes with R nonempty, the CMI costs no
    kernel call beyond the one that validated the state.  Other groups, such
    as the empty R of a mutual information, take one more padded call.
    """
    part_a, part_b, part_r = tuple(part_a), tuple(part_b), tuple(part_r)
    parts = part_a + part_b + part_r
    if len(set(parts)) != len(parts):
        raise DomainError("parts A, B, R must be disjoint")
    modes = state.mode_indices(parts)  # A's, then B's, then R's
    a, r = modes[:len(part_a)], modes[len(part_a) + len(part_b):]
    subsets = [frozenset(a + r), frozenset(modes[len(part_a):]), frozenset(r), frozenset(modes)]
    s_ar, s_br, s_r, s_abr = state._memoized(subsets)
    out = s_ar + s_br - s_r - s_abr
    return out if out.ndim else float(out)
