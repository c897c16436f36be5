"""The four benchmark workloads and the checks on their outputs.

A workload draws its inputs from its seed, sets up, and then hands out rounds
of operations.  Each operation is a pair ``(call, verify)``: ``call()`` is the
timed call into ``cvsquash`` and ``verify(result)`` checks the result against
``reference`` or against a property the paper proves, recording the worst
deviation of every check.  Package functions are looked up through their
module at call time, so the tracer's wrappers see every call.
"""

from pathlib import Path

import numpy as np

import reference as ref
from cvsquash import cli, fock, states
from cvsquash.entropics import ChannelParam


class Checks:
    """Worst deviation seen by each named check, next to its tolerance.

    A check passes when deviation <= tolerance.  Deviations are signed where
    the check is one-sided (a bound minus the value it bounds)."""

    def __init__(self):
        self.worst = {}
        self.tolerance = {}
        self.runs = {}
        self.failed = {}

    def within(self, name, deviation, tolerance):
        deviation = float(deviation)
        ok = deviation <= tolerance  # NaN fails
        if name not in self.worst or not deviation <= self.worst[name]:
            self.worst[name] = deviation
        self.tolerance[name] = tolerance
        self.runs[name] = self.runs.get(name, 0) + 1
        if not ok:
            self.failed[name] = self.failed.get(name, 0) + 1
        return ok

    def report(self):
        return {name: {"worst": self.worst[name], "tolerance": self.tolerance[name],
                       "runs": self.runs[name], "failed": self.failed.get(name, 0)}
                for name in sorted(self.worst)}


def _all(results):
    """Every check is evaluated (so each records its deviation) before combining."""
    return all(list(results))


class BlockCaches:
    """Lookup and miss counts of the Fock block caches, across clears.

    The caches are private to ``cvsquash.fock``; when a later version drops
    them the counts read zero and ``clear`` does nothing."""

    NAMES = ("_squeezer_blocks", "_bs_blocks")

    def __init__(self):
        self._banked = [0, 0]

    def _live(self):
        lookups = misses = 0
        for name in self.NAMES:
            info = getattr(getattr(fock, name, None), "cache_info", None)
            if info is not None:
                stats = info()
                lookups += stats.hits + stats.misses
                misses += stats.misses
        return lookups, misses

    def counts(self):
        lookups, misses = self._live()
        return self._banked[0] + lookups, self._banked[1] + misses

    def clear(self):
        lookups, misses = self._live()
        self._banked[0] += lookups
        self._banked[1] += misses
        for name in self.NAMES:
            clear = getattr(getattr(fock, name, None), "cache_clear", None)
            if clear is not None:
                clear()


class Workload:
    """Seeded inputs, a set-up step and rounds of ``(call, verify)`` pairs.

    ``counters`` holds counts that no span gives, reported per operation by
    the traced run; each workload adds to the ones it reaches."""

    name = None
    #: the parts of calibration's kernel whose work is most like this
    #: workload's; they scale its times to the reference speed
    CALIBRATION = ("python", "numpy")

    def __init__(self, seed, checks, out_dir):
        self.rng = np.random.default_rng(seed)
        self.checks = checks
        self.out_dir = Path(out_dir)
        self.caches = BlockCaches()
        self.counters = {"cli.rows_written": 0, "fock.oracle_cmi.amplitude_bytes": 0}

    def setup(self):
        """Input generation and any warm-up; timed as part of ``setup_s``."""

    def round(self):
        raise NotImplementedError


def _cmi(kappa, E, eta):
    return states.gaussian_cmi(states.extension_family(kappa, E, eta), "A", "B", "R")


class ExtensionGrid(Workload):
    """Covariance route: CMI of the extension family at eta, 1 - eta and 1/2."""

    name = "extension-grid"
    KAPPA = (1.0, 10.0)
    #: E <= 20 is the energy range of criterion 02's eta grid.  Above it the
    #: validation fault in FAULT_POINT fires on about one draw in 3000, on
    #: some seeds and not others, which would make the failed share seed
    #: dependent; the fault is measured through FAULT_POINT instead.
    ENERGY = (0.0, 20.0)
    POOL = 256
    #: a physical state that validate_covariance rejects (min symplectic
    #: eigenvalue 0.49999999989); attempted once per round, it fails every time
    FAULT_POINT = (7.431522040847808, 46.06778512697446, 0.9950608628339832)

    def setup(self):
        k = self.rng.uniform(*self.KAPPA, self.POOL)
        E = self.rng.uniform(*self.ENERGY, self.POOL)
        eta = self.rng.uniform(0.0, 1.0, self.POOL)
        self.points = [tuple(map(float, p)) for p in zip(k, E, eta)] + [self.FAULT_POINT]

    def round(self):
        return [self.op(*p) for p in self.points]

    def op(self, kappa, E, eta):
        def call():
            return _cmi(kappa, E, eta), _cmi(kappa, E, 1.0 - eta), _cmi(kappa, E, 0.5)

        def verify(result):
            at_eta, at_mirror, at_half = result
            c = self.checks
            s = ref.extension_conditional_entropy(E, eta)
            return _all([
                c.within("half_closed_form", abs(0.5 * at_half - ref.esq_upper(kappa, E)), 1e-10),
                c.within("min_at_half", at_half - min(at_eta, at_mirror), 1e-10),
                c.within("cosh_bound", ref.cosh_lower(kappa, s) - min(at_eta, at_mirror), 1e-9),
                c.within("eta_symmetry", abs(at_eta - at_mirror), 1e-8),
            ])

        return call, verify


class ClassicalSweep(Workload):
    """Bound and classical curves through the CLI, one kappa per call."""

    name = "classical-sweep"
    KAPPAS = 16
    E_MAX = 5.0
    STEPS = 400
    #: rows compared with the dense scan: every 50th and the last
    SCAN_ROWS = tuple(range(0, STEPS, 50)) + (STEPS - 1,)
    #: 12 significant digits are printed, so values agree to 5e-12 relative
    PRINTED = 1e-11
    HEADER = "kappa,E,esq_lower,esq_upper,esq_classical"

    def setup(self):
        # (1, 10]: kappa = 1 has no classical minimiser to find
        self.kappas = [float(10.0 - 9.0 * u) for u in self.rng.uniform(0.0, 1.0, self.KAPPAS)]
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.energies = [self.E_MAX * i / (self.STEPS - 1) for i in range(self.STEPS)]

    def round(self):
        return [self.op(i, k) for i, k in enumerate(self.kappas)]

    def op(self, index, kappa):
        path = self.out_dir / f"figure1-{index}.csv"
        argv = ["figure1", "--kappas", repr(kappa), "--e-min", "0", "--e-max", repr(self.E_MAX),
                "--steps", str(self.STEPS), "--output", str(path)]

        def call():
            return cli.main(argv)

        def verify(code):
            c = self.checks
            if not c.within("exit_code", abs(code), 0):
                return False
            lines = path.read_text(encoding="utf-8").splitlines()
            self.counters["cli.rows_written"] += len(lines) - 1
            if not (c.within("header", 0 if lines[0] == self.HEADER else 1, 0)
                    and c.within("row_count", abs(len(lines) - 1 - self.STEPS), 0)):
                return False
            rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
            return _all(self._row(kappa, i, row) for i, row in enumerate(rows))

        return call, verify

    def _row(self, kappa, i, row):
        k, E, lower, upper, classical = row
        E_i = self.energies[i]
        tol = self.PRINTED * max(1.0, abs(classical))
        c = self.checks
        ok = [
            c.within("row_parameters", max(abs(k - kappa) / kappa, abs(E - E_i) / max(1.0, E_i)),
                     self.PRINTED),
            c.within("lower_closed_form", abs(lower - ref.esq_lower(kappa)), tol),
            c.within("upper_closed_form", abs(upper - ref.esq_upper(kappa, E_i)), tol),
            c.within("ordering", max(lower - upper, upper - classical), tol),
            c.within("gap_limit", upper - lower - ref.GAP_LIMIT, tol),
        ]
        if E_i > 0.0:
            # strict: the classical value must clear the upper bound by more
            # than the printed rounding
            ok.append(c.within("classical_above_upper", upper - classical, -tol))
        if i in self.SCAN_ROWS:
            scan = ref.classical_by_scan(kappa, E_i)
            ok.append(c.within("classical_scan", abs(classical - scan), 1e-8))
        return all(ok)


class OracleCmi(Workload):
    """Fock route with cold block caches: oracle_cmi at rule-selected cutoffs."""

    name = "oracle-cmi"
    #: expm blocks, N^4 arrays and N^2 x N^2 eigensolves: dense LAPACK
    CALIBRATION = ("lapack",)
    #: one operation per cutoff in each round; the dense path needs N^4 memory
    CUTOFFS = (28, 32, 36, 40, 44)
    #: the cutoff whose operation is drawn at eta = 1/2
    HALF_CUTOFF = 36
    KAPPA = (1.0, 2.5)
    ENERGY = (0.0, 1.5)

    def draw(self, N):
        """Uniform (kappa, E, eta), kept when the cutoff rule selects N."""
        while True:
            kappa = float(self.rng.uniform(*self.KAPPA))
            E = float(self.rng.uniform(*self.ENERGY))
            eta = 0.5 if N == self.HALF_CUTOFF else float(self.rng.uniform(0.0, 1.0))
            e_max = max(kappa * (E + 1.0) - min(eta, 1.0 - eta) * E - 1.0, E)
            if kappa > 1.0 and ref.required_cutoff(e_max) == N:
                return kappa, E, eta

    def round(self):
        return [self.op(N, *self.draw(N)) for N in self.CUTOFFS]

    def op(self, N, kappa, E, eta):
        def call():
            self.caches.clear()  # microseconds against the 0.1-2 s of the call
            return fock.oracle_cmi(kappa, E, eta, N)

        def verify(value):
            self.counters["fock.oracle_cmi.amplitude_bytes"] += 8 * N**4
            c = self.checks
            ok = [c.within("covariance_route", abs(value - _cmi(kappa, E, eta)), 1e-5)]
            if eta == 0.5:
                ok.append(c.within("half_closed_form",
                                   abs(value - 2.0 * ref.esq_upper(kappa, E)), 1e-5))
            return all(ok)

        return call, verify


class ChannelEntropy(Workload):
    """Fock route with warm block caches: random states through the amplifier
    and its complement."""

    name = "channel-entropy"
    #: numpy calls on 40 x 40 matrices and the vectors of small blocks
    CALIBRATION = ("numpy",)
    CUTOFF = 40
    GAINS = (1.2, 2.0)
    STATES = 32

    def __init__(self, seed, checks, out_dir):
        super().__init__(seed, checks, out_dir)
        self._bounds = {}

    def setup(self):
        self.states = [fock.random_one_mode_state(self.rng, self.CUTOFF)
                       for _ in range(self.STATES)]
        self.channels = [ChannelParam.amplifier(k) for k in self.GAINS]
        for channel in self.channels:  # fill the block caches
            for complement in (False, True):
                fock.apply_channel_fock(self.states[0], channel, complement=complement,
                                        enforce_cutoff=False)

    def round(self):
        return [self.op(i, channel, complement)
                for i in range(self.STATES) for channel in self.channels
                for complement in (False, True)]

    def bound(self, i, kappa, complement):
        """Minimum output entropy at the input's entropy (Theorems 4 and 5)."""
        key = (i, kappa, complement)
        if key not in self._bounds:
            s_in = ref.von_neumann(self.states[i].matrix)
            moe = ref.moe_complement if complement else ref.moe_amplifier
            self._bounds[key] = moe(kappa, s_in)
        return self._bounds[key]

    def op(self, i, channel, complement):
        state = self.states[i]

        def call():
            out = fock.apply_channel_fock(state, channel, complement=complement,
                                          enforce_cutoff=False)
            return out, fock.spectral_entropy(out)

        def verify(result):
            out, entropy = result
            lost = 1.0 - float(np.real(np.trace(out.matrix)))
            c = self.checks
            name = "moe_complement" if complement else "moe_amplifier"
            return _all([
                c.within(name, self.bound(i, channel.value, complement) - entropy, 1e-6),
                c.within("lost_trace", lost - out.tail_bound, 1e-12),
            ])

        return call, verify


WORKLOADS = {w.name: w for w in (ExtensionGrid, ClassicalSweep, OracleCmi, ChannelEntropy)}
