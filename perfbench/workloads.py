"""The benchmark's three closed-loop workloads.

One client in one process: every op starts when the previous one returns,
the way a researcher's script or the `phaseinfo` CLI drives the library.
Every workload runs at the default grid G = 4096 and draws its inputs from
the workload seed alone.

A workload is built once (its set-up), then hands out the fixed op list of
one pass as often as asked.  Each op is a ``(name, call)`` pair;
``call(api)`` runs it against ``api``, a namespace of the public functions
the workloads call, so that a traced run can hand in wrapped versions of
them.  ``check(tag, results)`` runs after the timed region and returns, for
each op of the pass ``tag``, ``None`` or the reason its result is wrong.
``expected_failures`` maps the name of an op the package is known to refuse
to the exception type and message it refuses with; any other raise makes
the run incorrect.  ``exercised_counts`` and ``bypassed_counts`` name the
traced counts that a pass must make positive and must leave at zero.

The phaseinfo package must be importable before this module is imported.
"""

import json
import math
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from phaseinfo import bounds, circular, cli, measurement, optimizer, states
from phaseinfo.errors import ConfigurationError

GRID = 4096
TWO_PI = 2.0 * math.pi

# The public functions the workloads call, by the name they use for them.
PUBLIC = {
    "bound_report": bounds.bound_report,
    "optimize_state": optimizer.optimize_state,
    "cli_main": cli.main,
    "uniform_prior": circular.uniform_prior,
    "posterior_update": circular.posterior_update,
    "entropy": circular.entropy,
    "circular_moments": circular.circular_moments,
}


def plain_api():
    return SimpleNamespace(**PUBLIC)


# --- mc_bounds -------------------------------------------------------------

MC_STATES = (
    ("N1", lambda: states.normalize(np.array([1.0, 1.0]))),
    ("sine8", lambda: states.sine_state(8)),
    ("sine32", lambda: states.sine_state(32)),
)
# The CLI's default mode list.
MC_MODES = (1, 4, 16, 64)
# At 20 trials the known refusal of the sine32, M = 1 cell shows for every
# seed tried (20 of 20); at 10 trials it shows for 17 of 20.
MC_TRIALS = 20
# At M = 1 every trial sees the same posterior up to quadrature, so the mean
# equals the single-shot information to within the grid bias (4e-9 at N = 32).
MC_SINGLE_TOL = 1e-8
# Allowed distance from the stored reference mean, in standard deviations of
# the difference of the two sample means.
MC_SIGMAS = 6.0


class McBounds:
    """`bound_report` for three states and the CLI's default mode list.

    One op is one (state, M) cell.
    """

    name = "mc_bounds"
    # The known refusal: the Monte Carlo mean of this cell exceeds the
    # single-shot information by about 4e-9 of quadrature bias, beyond the
    # fixed slack of bound_report's chain check.  It stays in the op list and
    # counts as a failed op.
    expected_failures = {
        "bound_report sine32 M=1": (ConfigurationError, "exceeds chain bound"),
    }
    exercised_counts = (
        "states.dense_evals",
        "measurement.outcomes",
        "circular.posterior_outcomes",
        "bounds.trials",
    )
    bypassed_counts = ("optimizer.iterations", "cli.calls", "serialize.calls")

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.trials = 3 if smoke else MC_TRIALS
        modes = MC_MODES[:2] if smoke else MC_MODES
        self.cells = [
            (label, make_state(), m) for label, make_state in MC_STATES for m in modes
        ]
        path = Path(__file__).resolve().parent / "mc_reference.json"
        with open(path, "r", encoding="utf-8") as fh:
            ref = json.load(fh)
        self.ref_trials = ref["trials"]
        self.ref = {(c["state"], c["modes"]): (c["mean"], c["sd"]) for c in ref["cells"]}

    def ops(self, tag):
        def cell(state, m):
            return lambda api: api.bound_report(state, m, self.trials, self.seed)

        return [
            ("bound_report %s M=%d" % (label, m), cell(state, m))
            for label, state, m in self.cells
        ]

    def check(self, tag, results):
        return [
            None if report is None else self._check_cell(label, state, m, report)
            for (label, state, m), report in zip(self.cells, results)
        ]

    def _check_cell(self, label, state, m, report):
        try:
            bounds.BoundReport(**report.to_dict())
        except ValueError as exc:
            return "BoundReport invariants: %s" % exc
        if report.modes != m or report.mc_trials != self.trials:
            return "report is for M=%d, %d trials" % (report.modes, report.mc_trials)
        if m == 1:
            single = circular.mutual_information_single(state, GRID)
            if abs(report.mc_information - single) > MC_SINGLE_TOL:
                return "M=1 mean %.17g differs from single-shot information %.17g" % (
                    report.mc_information,
                    single,
                )
            return None
        mean, sd = self.ref[(label, m)]
        tol = MC_SIGMAS * sd * math.sqrt(1.0 / self.trials + 1.0 / self.ref_trials)
        if abs(report.mc_information - mean) > tol:
            return "mean %.17g is %.3g from reference %.17g (tolerance %.3g)" % (
                report.mc_information,
                abs(report.mc_information - mean),
                mean,
                tol,
            )
        return None


# --- optimize_sweep --------------------------------------------------------

SWEEP_N_MAX = 32
# Test oracles for the optimum at these cutoffs (tests/test_optimizer.py).
SWEEP_ORACLES = {2: 0.6137056389500783, 4: 1.0602574596, 8: 1.6152923025}
SWEEP_ORACLE_TOL = 1e-6
# Rounding allowance for the ordering checks: the optimizer stops once a
# step gains less than its 1e-10 tolerance.
SWEEP_ORDER_TOL = 1e-9


class OptimizeSweep:
    """`optimize_state` at every cutoff 0..32 with the default config.

    One op is one cutoff.
    """

    name = "optimize_sweep"
    expected_failures = {}
    exercised_counts = ("optimizer.starts", "optimizer.iterations")
    bypassed_counts = (
        "states.dense_evals",
        "measurement.calls",
        "circular.posterior_outcomes",
        "bounds.calls",
    )

    def __init__(self, seed, smoke=False):
        n_max = 3 if smoke else SWEEP_N_MAX
        self.configs = [
            optimizer.OptimizerConfig(max_photon=n, seed=seed) for n in range(n_max + 1)
        ]

    def ops(self, tag):
        def cutoff(config):
            return lambda api: api.optimize_state(config)

        return [("optimize_state N=%d" % c.max_photon, cutoff(c)) for c in self.configs]

    def check(self, tag, results):
        verdicts = []
        previous = None
        for config, result in zip(self.configs, results):
            if result is None:
                verdicts.append(None)
                previous = None
                continue
            verdicts.append(self._check_cutoff(config.max_photon, result, previous))
            previous = result.information
        return verdicts

    def _check_cutoff(self, n, result, previous):
        if not result.converged:
            return "winning start did not converge"
        if result.state.max_photon != n:
            return "state has cutoff %d" % result.state.max_photon
        oracle = SWEEP_ORACLES.get(n)
        if oracle is not None and abs(result.information - oracle) > SWEEP_ORACLE_TOL:
            return "optimum %.17g differs from oracle %.17g" % (result.information, oracle)
        sine = circular.mutual_information_single(states.sine_state(n), GRID)
        if result.information < sine - SWEEP_ORDER_TOL:
            return "optimum %.17g below the sine state's %.17g" % (result.information, sine)
        if previous is not None and result.information < previous - SWEEP_ORDER_TOL:
            return "optimum %.17g below the previous cutoff's %.17g" % (
                result.information,
                previous,
            )
        return None


# --- posterior_stream ------------------------------------------------------

STREAM_CUTOFFS = (1, 8, 32)
STREAM_SHOTS = 64
# Agreement of the sequential posterior with the batch one (relative to its
# peak), and of the CLI's entropy with the long-double reference.
STREAM_TOL = 1e-9


def dense_entropy_reference(state, rows=256):
    """Canonical-density entropy from the dense sum, in long double.

    Evaluated ``rows`` grid nodes at a time to keep its memory small.
    """
    n = np.arange(state.dim, dtype=np.longdouble)
    c = state.amplitudes.astype(np.clongdouble)
    total = np.longdouble(0)
    for start in range(0, GRID, rows):
        phi = 2 * np.pi * np.arange(start, start + rows, dtype=np.longdouble) / GRID
        amp = np.exp(1j * np.multiply.outer(phi, n)) @ c
        p = (amp.real**2 + amp.imag**2) / (2 * np.pi)
        p = p[p > 1e-300]
        total += (p * np.log(p)).sum()
    return float(-total * (2 * np.pi) / GRID)


class PosteriorStream:
    """An interactive analysis of three state files, one call at a time.

    For each file: `phaseinfo info` and `phaseinfo simulate` in process,
    read the record back, then fold the outcomes into a uniform prior one
    at a time, taking the entropy and circular moments after every update.
    One op is one of these top-level calls.  Set-up writes the state files
    into ``workdir``; each pass writes its CLI outputs there too, and the
    check of that pass removes them.
    """

    name = "posterior_stream"
    expected_failures = {}
    exercised_counts = (
        "cli.calls",
        "serialize.bytes",
        "states.dense_evals",
        "measurement.outcomes",
        "circular.posterior_outcomes",
        "circular.densities",
    )
    bypassed_counts = ("optimizer.iterations", "bounds.calls")

    def __init__(self, seed, workdir, smoke=False):
        self.workdir = Path(workdir)
        self.shots = 4 if smoke else STREAM_SHOTS
        rng = np.random.default_rng(seed)
        self.files = []
        for n in STREAM_CUTOFFS:
            state = states.random_state(n, int(rng.integers(2**31)))
            path = self.workdir / ("state-N%d.json" % n)
            states.save_state(state, str(path))
            self.files.append(
                SimpleNamespace(
                    n=n,
                    state=state,
                    path=str(path),
                    true_phase=TWO_PI * float(rng.random()),
                    seed=int(rng.integers(2**31)),
                )
            )

    def _expected(self, f):
        """The file's expected results, computed once with the plain API."""
        if not hasattr(f, "expected"):
            outcomes = measurement.sample_outcomes(
                f.state, f.true_phase, self.shots, f.seed, grid_size=GRID
            ).outcomes
            posterior = circular.posterior_from_outcomes(f.state, outcomes, GRID)
            f.expected = SimpleNamespace(
                outcomes=outcomes,
                posterior=posterior,
                entropy=circular.entropy(posterior),
                moments=circular.circular_moments(posterior),
                info_entropy=dense_entropy_reference(f.state),
            )
        return f.expected

    def _outputs(self, f, tag):
        return (
            str(self.workdir / ("info-N%d-%d.json" % (f.n, tag))),
            str(self.workdir / ("record-N%d-%d.json" % (f.n, tag))),
        )

    def ops(self, tag):
        ops = []
        for f in self.files:
            ops.extend(self._file_ops(f, tag))
        return ops

    def _file_ops(self, f, tag):
        info_out, record_out = self._outputs(f, tag)
        fold = {}

        def info(api):
            return api.cli_main(["info", "--state", f.path, "--out", info_out])

        def simulate(api):
            return api.cli_main(
                [
                    "simulate",
                    "--state", f.path,
                    "--true-phase", repr(f.true_phase),
                    "--shots", str(self.shots),
                    "--seed", str(f.seed),
                    "--out", record_out,
                ]
            )

        def read(api):
            with open(record_out, "r", encoding="utf-8") as fh:
                fold["outcomes"] = np.array(json.load(fh)["outcomes"], dtype=np.float64)
            return fold["outcomes"]

        def prior(api):
            fold["posterior"] = api.uniform_prior(GRID)

        def update(j):
            def op(api):
                fold["posterior"] = api.posterior_update(
                    fold["posterior"], f.state, fold["outcomes"][j]
                )
                return fold["posterior"] if j == self.shots - 1 else None

            return op

        def entropy(api):
            return api.entropy(fold["posterior"])

        def moments(api):
            return api.circular_moments(fold["posterior"])

        ops = [
            ("cli info N=%d" % f.n, info),
            ("cli simulate N=%d" % f.n, simulate),
            ("read record N=%d" % f.n, read),
            ("uniform_prior N=%d" % f.n, prior),
        ]
        for j in range(self.shots):
            ops.append(("posterior_update N=%d" % f.n, update(j)))
            ops.append(("entropy N=%d" % f.n, entropy))
            ops.append(("circular_moments N=%d" % f.n, moments))
        return ops

    def check(self, tag, results):
        verdicts = []
        per_file = len(results) // len(self.files)
        for k, f in enumerate(self.files):
            chunk = results[k * per_file : (k + 1) * per_file]
            verdicts.extend(self._check_file(f, tag, chunk))
            for path in self._outputs(f, tag):
                if os.path.exists(path):
                    os.remove(path)
        return verdicts

    def _check_file(self, f, tag, chunk):
        want = self._expected(f)
        verdicts = [None] * len(chunk)
        for i in (0, 1):
            if chunk[i] is not None and chunk[i] != 0:
                verdicts[i] = "cli.main returned %r" % (chunk[i],)
        if chunk[0] == 0:
            with open(self._outputs(f, tag)[0], "r", encoding="utf-8") as fh:
                reported = float(json.load(fh)["entropy"])
            if abs(reported - want.info_entropy) > STREAM_TOL:
                verdicts[0] = "info entropy %.17g, dense long-double reference %.17g" % (
                    reported,
                    want.info_entropy,
                )
        if chunk[2] is not None and not np.array_equal(chunk[2], want.outcomes):
            verdicts[2] = "record read back differs from sample_outcomes"
        last_update, last_entropy, last_moments = len(chunk) - 3, len(chunk) - 2, len(chunk) - 1
        for i in range(4, len(chunk)):
            value = chunk[i]
            if value is None:
                continue
            if i == last_update:
                verdicts[i] = _compare_density(value, want.posterior)
            elif i == last_entropy:
                if abs(value - want.entropy) > STREAM_TOL:
                    verdicts[i] = "entropy %.17g, batch posterior's %.17g" % (value, want.entropy)
            elif i == last_moments:
                got, ref = value.mean_resultant_length, want.moments.mean_resultant_length
                if abs(got - ref) > STREAM_TOL:
                    verdicts[i] = "mean resultant length %.17g, batch posterior's %.17g" % (got, ref)
            elif isinstance(value, float):
                if not math.isfinite(value):
                    verdicts[i] = "entropy is not finite"
            elif not 0.0 <= value.mean_resultant_length <= 1.0:
                verdicts[i] = "mean resultant length outside [0, 1]"
        return verdicts


def _compare_density(got, want):
    scale = float(np.max(want.values))
    diff = float(np.max(np.abs(got.values - want.values)))
    if diff > STREAM_TOL * scale:
        return "sequential posterior differs from batch by %.3g (peak %.3g)" % (diff, scale)
    return None


KINDS = {kind.name: kind for kind in (McBounds, OptimizeSweep, PosteriorStream)}
NAMES = tuple(KINDS)


def build(name, seed, workdir, smoke=False):
    """The workload called ``name``, with its inputs built from ``seed``."""
    if name == PosteriorStream.name:
        return PosteriorStream(seed, workdir, smoke)
    return KINDS[name](seed, smoke)
