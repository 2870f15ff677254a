import dataclasses
import functools
import math

import numpy as np
import pytest

from apgate import tomography
from apgate.config import paper_profile
from apgate.protocols import run_bell, run_eraser, run_ghz, tomo_roundtrip
from apgate.qlin import DensityMatrix, PureState, UP, fidelity_pure
from apgate.tomography import (MLE_TOL, CountsTable, FitError,
                               MeasurementSetting, all_settings,
                               linear_inversion, mle_batch, mle_reconstruct,
                               monte_carlo_errors, simulate_batch,
                               simulate_counts)
from oracle import (born_probabilities, log_likelihood,
                    reference_linear_inversion, reference_mle)

BELL = PureState(np.array([1, 0, 0, 1]) / math.sqrt(2))


def random_pure(rng, dim=4):
    return PureState(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def random_mixed(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


def exact_records(rho, n, scale=1.0):
    settings = all_settings(n)
    return CountsTable(settings, [scale * born_probabilities(rho, s) for s in settings])


def trace_distance(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()


# --- settings and Born rule ---------------------------------------------------

def test_all_settings_complete():
    names = {s.name for s in all_settings(2)}
    assert len(names) == 9
    assert "XX" in names and "ZY" in names


def test_setting_projectors_complete_and_orthogonal():
    for s in (MeasurementSetting(("X",)), MeasurementSetting(("Y", "Z"))):
        projs = s.projectors()
        total = projs.sum(axis=0)
        assert np.allclose(total, np.eye(projs.shape[1]), atol=1e-12)
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                assert np.allclose(projs[i] @ projs[j], 0.0, atol=1e-12)


def test_born_up_state():
    rho = PureState(UP).density()
    assert np.allclose(born_probabilities(rho, MeasurementSetting(("Z",))),
                       [1.0, 0.0], atol=1e-12)
    assert np.allclose(born_probabilities(rho, MeasurementSetting(("X",))),
                       [0.5, 0.5], atol=1e-12)


def test_born_bell_xx():
    # |Phi+> in X (x) X: only ++ and -- fire, by hand expansion.
    p = born_probabilities(BELL.density(), MeasurementSetting(("X", "X")))
    assert np.allclose(p, [0.5, 0.0, 0.0, 0.5], atol=1e-12)


def test_born_normalized_for_random_states():
    rng = np.random.default_rng(31)
    for _ in range(10):
        rho = random_pure(rng).density()
        for s in all_settings(2):
            p = born_probabilities(rho, s)
            assert np.all(p >= 0)
            assert p.sum() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_born_map_matches_einsum_oracle(n):
    # The cached map is the only route from a density matrix to Born weights in
    # the package; the per-setting einsum sums in another order.
    rng = np.random.default_rng(40 + n)
    settings = all_settings(n)
    to_op = tomography._born_map(tuple(s.name for s in settings))
    for _ in range(20):
        rho = random_mixed(rng, 2 ** n)
        weights = rho.entries.reshape(1, -1).view(float) @ to_op.T
        reference = np.concatenate([born_probabilities(rho, s) for s in settings])
        assert np.abs(weights[0] - reference).max() <= 1e-15


# --- counts --------------------------------------------------------------------

def test_simulate_counts_rejects_zero_shots():
    with pytest.raises(ValueError):
        simulate_counts(BELL.density(), all_settings(2), 0,
                        np.random.default_rng(0))


def test_simulate_counts_frequencies():
    rho = DensityMatrix(np.eye(2) / 2)
    rng = np.random.default_rng(5)
    table = simulate_counts(rho, [MeasurementSetting(("Z",))], 100_000, rng)
    assert table.counts.shape == (1, 2) and table.counts.sum() == 100_000
    se = math.sqrt(0.25 / 100_000)
    assert abs(table.frequencies[0, 0] - 0.5) < 5 * se


class _WeightRecorder:
    """Stands in for a generator: keeps the weights it is asked to draw from."""

    def multinomial(self, n, pvals):
        self.pvals = pvals
        return np.zeros(pvals.shape, dtype=np.int64)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_simulate_batch_rows_match_single_draws(n):
    # Row b of a stacked draw is simulate_counts of matrix b on an identically
    # seeded generator, and its weights are those of a stack of one, bit for bit.
    rng = np.random.default_rng(60 + n)
    rhos = [random_mixed(rng, 2 ** n) for _ in range(7)]
    stack, settings = np.array([r.entries for r in rhos]), all_settings(n)
    counts = simulate_batch(stack, settings, 2000, [np.random.default_rng(b) for b in range(7)])
    recorders = [_WeightRecorder() for _ in rhos]
    simulate_batch(stack, settings, 2000, recorders)
    for b, rho in enumerate(rhos):
        table = simulate_counts(rho, settings, 2000, np.random.default_rng(b))
        assert np.array_equal(counts[b], table.counts)
        alone = _WeightRecorder()
        simulate_batch(stack[b:b + 1], settings, 2000, [alone])
        assert np.array_equal(recorders[b].pvals, alone.pvals)


@pytest.mark.parametrize("shots", [1000, 100_000])
def test_roundtrip_draws_state_i_from_child_i(shots):
    # State i and its counts come from child i of the seed sequence alone, so a
    # longer run starts with the shorter run's fidelities, bit for bit.
    for seed in (1, 2, 3, 4):
        short = tomo_roundtrip(paper_profile(seed=seed), n_states=2, shots=shots)
        long = tomo_roundtrip(paper_profile(seed=seed), n_states=5, shots=shots)
        assert np.array_equal(long.raw_counts["fidelities"][:2], short.raw_counts["fidelities"])


def test_round_trip_linear_inversion_from_counts():
    rng = np.random.default_rng(7)
    table = simulate_counts(BELL.density(), all_settings(2), 100_000, rng)
    est = linear_inversion(table)
    assert trace_distance(est, BELL.density().entries) <= 0.02


# --- linear inversion ------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_linear_inversion_exact_on_exact_probabilities(n):
    rng = np.random.default_rng(40 + n)
    rho = random_pure(rng, 2 ** n).density()
    est = linear_inversion(exact_records(rho, n))
    assert np.max(np.abs(est - rho.entries)) < 1e-12


def test_linear_inversion_single_qubit_up():
    est = linear_inversion(exact_records(PureState(UP).density(), 1))
    assert np.allclose(est, np.diag([1.0, 0.0]), atol=1e-12)


def test_linear_inversion_requires_complete_settings():
    table = exact_records(BELL.density(), 2)
    for _ in range(2):        # on every call: the cached inversion map stores no failure
        with pytest.raises(ValueError, match="tomographically complete"):
            linear_inversion(CountsTable(table.settings[:5], table.counts[:5]))


def _random_table(settings, seed):
    rng = np.random.default_rng(seed)
    return CountsTable(settings, rng.integers(0, 50, (len(settings), 2 ** settings[0].n_qubits)))


def _assert_matches_reference(table):
    # One product with the cached map sums in another order than the
    # reference loop, so the two agree to rounding (6.7e-16 at most seen),
    # not bit for bit.  A wrong inversion is far outside 1e-14: dropping the
    # repeated settings moves an entry by 0.19, reversing the outcome order
    # by 0.17 to 0.46.
    assert np.max(np.abs(linear_inversion(table) - reference_linear_inversion(table))) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_linear_inversion_matches_reference_loop(n):
    for seed in range(3):
        _assert_matches_reference(_random_table(all_settings(n), 60 + 10 * n + seed))


def test_linear_inversion_matches_reference_on_reordered_and_repeated_settings():
    settings = all_settings(2)
    shuffled = [settings[i] for i in np.random.default_rng(7).permutation(len(settings))]
    for chosen in (shuffled, settings + [settings[4], settings[0]]):
        _assert_matches_reference(_random_table(chosen, 8))


def test_basis_matrix_is_shared_and_read_only():
    first = MeasurementSetting(("X", "Y")).basis_matrix()
    assert MeasurementSetting(("x", "y")).basis_matrix() is first
    with pytest.raises(ValueError):
        first[0, 0] = 0.0
    # The Born map and its least-squares inverse are cached the same way, per
    # tuple of setting names.  The inverse's rows, the duals of the outcome
    # projectors, span the Hermitian matrices: rank 4^n of the 2 * 4^n columns.
    for n in (1, 2, 3):
        for make in (tomography._born_map, tomography._inversion_map):
            first = make(tuple(s.name for s in all_settings(n)))
            assert make(tuple(s.name for s in all_settings(n))) is first
            with pytest.raises(ValueError):
                first[0, 0] = 0.0
        assert np.linalg.matrix_rank(first) == 4 ** n


def test_linear_inversion_finite_counts_can_go_negative():
    # Documented diagnostic: low statistics on a pure state produce small
    # negative eigenvalues in some runs while staying Hermitian, unit trace.
    seen_negative = False
    for seed in range(10):
        rng = np.random.default_rng(seed)
        table = simulate_counts(BELL.density(), all_settings(2), 200, rng)
        est = linear_inversion(table)
        assert np.max(np.abs(est - est.conj().T)) < 1e-12
        assert np.trace(est).real == pytest.approx(1.0, abs=1e-12)
        if np.linalg.eigvalsh(est)[0] < 0:
            seen_negative = True
    assert seen_negative


# --- maximum likelihood -----------------------------------------------------------

def test_mle_fixed_point_on_exact_probabilities():
    report = mle_reconstruct(exact_records(BELL.density(), 2, scale=1e6))
    assert report.converged
    assert fidelity_pure(report.rho, BELL) >= 1 - 1e-6


def test_mle_round_trip_bell_counts():
    rng = np.random.default_rng(8)
    table = simulate_counts(BELL.density(), all_settings(2), 10_000, rng)
    report = mle_reconstruct(table)
    assert fidelity_pure(report.rho, BELL) >= 0.99


def test_mle_round_trip_maximally_mixed():
    rng = np.random.default_rng(9)
    rho = DensityMatrix(np.eye(4) / 4)
    table = simulate_counts(rho, all_settings(2), 100_000, rng)
    report = mle_reconstruct(table)
    assert trace_distance(report.rho.entries, rho.entries) <= 0.02


def test_mle_log_likelihood_monotone():
    rng = np.random.default_rng(10)
    table = simulate_counts(random_pure(rng).density(), all_settings(2),
                            5000, rng)
    report = mle_reconstruct(table)
    gains = np.diff(report.ll_history)
    assert gains.size > 0
    assert gains.min() >= -1e-9 * (1 + abs(report.log_likelihood))
    # Multinomial log-likelihood of the counts under the returned state.
    ll = sum(c @ np.log(np.clip(born_probabilities(report.rho, s), 1e-12, None))
             for s, c in zip(table.settings, table.counts))
    assert report.log_likelihood == pytest.approx(ll, abs=1e-6)


def test_mle_output_always_physical():
    # Pathological counts (all weight on one outcome per setting) still give
    # a physical state.
    counts = np.zeros((9, 4))
    counts[:, 0] = 100
    report = mle_reconstruct(CountsTable(all_settings(2), counts))
    evals = np.linalg.eigvalsh(report.rho.entries)
    assert evals[0] >= -1e-10
    assert np.trace(report.rho.entries).real == pytest.approx(1.0, abs=1e-10)


def test_mle_iteration_cap_reported():
    # The seed-3 state of test_mle_certifies_high_shot_pure_states: from its
    # linear-inversion start this fit needs 7 iterations, and at 3 its gap is
    # 1.4 nats, above MLE_TOL.
    rng = np.random.default_rng(3)
    state = PureState(rng.normal(size=4) + 1j * rng.normal(size=4))
    table = simulate_counts(state.density(), all_settings(2), 100_000, rng)
    report = mle_reconstruct(table, max_iter=3)
    assert report.iterations == 3
    assert not report.converged


def test_mle_starts_at_projected_linear_inversion():
    # Every start of a batch is its own table's projected linear inversion.
    rng = np.random.default_rng(18)
    tables = [simulate_counts(random_pure(rng).density(), all_settings(2), 1000, rng)
              for _ in range(5)]
    reports = mle_batch(all_settings(2), [t.counts for t in tables], max_iter=0)
    for table, report in zip(tables, reports):
        start = tomography._project(linear_inversion(table).reshape(1, -1).view(float), 4)
        expected = DensityMatrix(start.view(complex).reshape(4, 4)).entries
        assert np.array_equal(report.rho.entries, expected)
        assert report.iterations == 0 and len(report.ll_history) == 1


def assert_report_consistent(report):
    assert len(report.ll_history) == report.iterations + 1
    # The history holds each accepted step's signed change.  Only a plain step
    # may lower l, and only by the projection's rounding, 1e-16 relative per
    # entry: a drop beyond 1e-12 |l| is a kept step that lowered the likelihood.
    assert np.diff(report.ll_history).min(initial=0.0) >= -1e-12 * abs(report.log_likelihood)
    assert report.log_likelihood == report.ll_history[-1]
    assert report.converged == (report.gap <= MLE_TOL)


@pytest.mark.parametrize("n", [2, 3])
def test_mle_batch_is_batch_invariant(n):
    rng = np.random.default_rng(14)
    counts = [simulate_counts(random_pure(rng, 2 ** n).density(), all_settings(n), 2000, rng)
              .counts for _ in range(7)]
    batch = mle_batch(all_settings(n), counts)
    alone = mle_batch(all_settings(n), counts[4:5])[0]
    assert np.array_equal(alone.rho.entries, batch[4].rho.entries)
    assert (alone.ll_history, alone.iterations, alone.gap) == (
        batch[4].ll_history, batch[4].iterations, batch[4].gap)
    for report in batch:
        assert report.converged
        assert_report_consistent(report)


@pytest.mark.parametrize("seed", [3, 5, 11])
def test_mle_certifies_high_shot_pure_states(seed):
    # Plain R-rho-R ends these at the 5000 cap with gaps of 0.8-2.7 nats.
    rng = np.random.default_rng(seed)
    state = PureState(rng.normal(size=4) + 1j * rng.normal(size=4))
    report = mle_reconstruct(simulate_counts(state.density(), all_settings(2), 100_000, rng))
    assert report.converged and report.gap <= MLE_TOL
    assert_report_consistent(report)


def test_mle_certifies_slow_bootstrap_replica():
    # Bootstrap replica 17 of criterion 11's 5000-shot table, near the
    # state-space boundary: from its linear-inversion start the fit certifies
    # in 5 iterations, well inside the bound.
    rho = DensityMatrix.from_json_dict(run_bell(paper_profile()).derived["density_matrix"])
    table = simulate_counts(rho, all_settings(2), 5000, np.random.default_rng(200))
    replicas = np.random.default_rng(201).multinomial(
        np.round(table.counts.sum(axis=1)).astype(np.int64), table.frequencies,
        size=(100, len(table.settings)))
    report = mle_reconstruct(CountsTable(table.settings, replicas[17]))
    assert report.converged and report.iterations <= 100
    assert_report_consistent(report)


def test_mle_keeps_plain_steps_whose_drop_is_rounding():
    # A 1e5-shot near-pure table: near the optimum the projection's rounding
    # outweighs the true gain of a plain step; rejecting such steps left the
    # fit at a 0.25-nat gap until the cap.
    counts = [[18101, 24631, 5367, 51901], [27215, 15655, 40168, 16962],
              [41913, 1109, 40143, 16835], [7004, 8122, 16193, 68681],
              [15018, 26, 52240, 32716], [7777, 7579, 74142, 10502],
              [3027, 19092, 20256, 57625], [6404, 15880, 61089, 16627],
              [17149, 5004, 64884, 12963]]
    report = mle_reconstruct(CountsTable(all_settings(2), counts))
    assert report.converged
    assert_report_consistent(report)


def test_roundtrip_certifies_near_pure_high_shot_state():
    # Comparing whole log-likelihoods (about -8e5 nats) left this fit at a
    # 0.42-nat gap after 5000 iterations; gains summed from the step's own
    # probabilities certify it.
    derived = tomo_roundtrip(paper_profile(seed=47708599), n_states=1, shots=90_000).derived
    assert derived["all_monotone"] and derived["mean_iterations"] < 1000


def test_mle_capped_report_is_consistent():
    rng = np.random.default_rng(15)
    table = simulate_counts(random_pure(rng).density(), all_settings(2), 10_000, rng)
    for cap in (1, 3, 5000):
        assert_report_consistent(mle_reconstruct(table, max_iter=cap))


def test_mle_history_drops_only_by_rounding():
    # Momentum steps that would lower the likelihood are refused (momentum
    # restarts instead).  A fit that kept them would drop by 1e-8 |l| and more
    # in some of these 60 fits.
    for shots in (1000, 10_000, 100_000):
        rng = np.random.default_rng(shots)
        counts = [simulate_counts(random_pure(rng).density(), all_settings(2), shots, rng).counts
                  for _ in range(20)]
        for report in mle_batch(all_settings(2), counts):
            assert_report_consistent(report)


def test_mle_finishes_a_pass_in_which_no_fit_moves(monkeypatch):
    # In one pass of this 5-state batch every fit still active restarts its
    # momentum, so no fit moves and the certificate is taken of an empty stack.
    eigh, sizes = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
    derived = tomo_roundtrip(paper_profile(seed=11), n_states=5, shots=1000).derived
    assert 0 in sizes
    assert derived["all_monotone"] and derived["min_fidelity"] > 0.9


@functools.lru_cache(maxsize=None)
def _reference_tables():
    cfg = dataclasses.replace(paper_profile(), mode="monte-carlo", mc_replicas=2)
    eraser = run_eraser(cfg).raw_counts["counts"].reshape(9, 2, 4)    # atom outcome F2, F1
    rng = np.random.default_rng(3)
    near_pure = simulate_counts(random_pure(rng).density(), all_settings(2), 100_000, rng)
    sparse = simulate_counts(BELL.density(), all_settings(2), 300, np.random.default_rng(4))
    return {"bell": (all_settings(2), run_bell(cfg).raw_counts["counts"]),
            "eraser-phi-plus": (all_settings(2), eraser[:, 1]),
            "eraser-phi-minus": (all_settings(2), eraser[:, 0]),
            "ghz": (all_settings(3), run_ghz(cfg).raw_counts["counts"]),
            "near-pure-1e5": (all_settings(2), near_pure.counts),
            "zero-counts": (all_settings(2), sparse.counts)}


@pytest.mark.parametrize("name", ["bell", "eraser-phi-plus", "eraser-phi-minus", "ghz",
                                  "near-pure-1e5", "zero-counts"])
def test_mle_gap_bounds_the_reference_shortfall(name):
    # reference_mle ends within 0.01 nats of the maximum by its own bound, so
    # l_ref - l(rho) is at least the fit's true shortfall minus 0.01, and the
    # certified gap must cover it at every cap.  Both likelihoods are direct
    # sums over the outcomes, each term rounded to 1e-16 relative: 1e-12 |l|
    # covers their rounding.  A gap halved by mistake fails here (bell at 5
    # iterations: shortfall 0.045 nats, gap 0.058).
    settings, counts = _reference_tables()[name]
    assert name != "zero-counts" or np.any(counts == 0)
    _, l_ref = reference_mle(settings, counts)
    for cap in (2, 5, 10, 20, 40, None):
        report = mle_batch(settings, [counts], *([cap] if cap else []))[0]
        shortfall = l_ref - log_likelihood(settings, counts, report.rho.entries)
        assert shortfall <= report.gap + 1e-12 * abs(l_ref), (cap, shortfall, report.gap)
    assert report.converged and shortfall <= MLE_TOL


def test_monte_carlo_uncertified_replica_raises(monkeypatch):
    core = tomography.mle_batch
    monkeypatch.setattr(tomography, "mle_batch",
                        lambda settings, counts, max_iter=5000: core(settings, counts, 1))
    table = simulate_counts(BELL.density(), all_settings(2), 1000, np.random.default_rng(16))
    with pytest.raises(FitError, match=r"^bootstrap replica 0 of 4: gap .* after 1 iterations$"):
        monte_carlo_errors(table, lambda r: 1.0, resamples=4, rng=np.random.default_rng(17))


# --- Monte-Carlo errors -------------------------------------------------------------

def test_monte_carlo_zero_variance():
    counts = np.zeros((3, 2))
    counts[:, 0] = 500
    rng = np.random.default_rng(12)
    std = monte_carlo_errors(CountsTable(all_settings(1), counts),
                             lambda rho: float(rho.entries[0, 0].real),
                             resamples=10, rng=rng)
    assert std["metric"] < 1e-12


def test_monte_carlo_error_scaling():
    # Interior state (away from the pure-state boundary, where the
    # reconstruction error follows the 1/sqrt(shots) law cleanly).
    rng = np.random.default_rng(13)
    rho = DensityMatrix(0.8 * BELL.density().entries + 0.2 * np.eye(4) / 4)
    fid = lambda m: fidelity_pure(m, BELL)
    stds = {}
    for shots in (800, 3200):
        table = simulate_counts(rho, all_settings(2), shots,
                                np.random.default_rng(100))
        stds[shots] = monte_carlo_errors(table, fid, resamples=80, rng=rng)["metric"]
    ratio = stds[800] / stds[3200]
    assert 1.4 <= ratio <= 2.6  # 1/sqrt(shots): factor 2 within 30 percent


def test_single_draws_match_per_setting_loops():
    # Reference: one multinomial call per setting, and per setting and replica.
    rho = DensityMatrix(0.8 * BELL.density().entries + 0.2 * np.eye(4) / 4)
    settings = all_settings(2)
    table = simulate_counts(rho, settings, 300, np.random.default_rng(21))
    rng = np.random.default_rng(21)
    loop = [rng.multinomial(300, p / p.sum())
            for p in (born_probabilities(rho, s) for s in settings)]
    assert np.array_equal(table.counts, loop)

    fid = lambda m: fidelity_pure(m, BELL)
    std = monte_carlo_errors(table, fid, resamples=4, rng=np.random.default_rng(22))
    rng = np.random.default_rng(22)
    values = [fid(mle_reconstruct(CountsTable(settings, [
        rng.multinomial(int(round(c.sum())), c / c.sum()) for c in table.counts])).rho)
        for _ in range(4)]
    assert std["metric"] == float(np.std(values, ddof=1))


def test_monte_carlo_requires_two_resamples():
    table = exact_records(BELL.density(), 2, scale=100)
    with pytest.raises(ValueError):
        monte_carlo_errors(table, lambda r: 1.0, resamples=1,
                           rng=np.random.default_rng(0))


def test_counts_record_validation():
    with pytest.raises(ValueError):
        CountsTable([MeasurementSetting(("Z",))], np.array([[1.0, -2.0]]))
    with pytest.raises(ValueError):
        CountsTable([MeasurementSetting(("Z", "X"))], np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        CountsTable(all_settings(1), np.ones((2, 2)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_counts_table_rejects_non_finite_counts(bad):
    with pytest.raises(ValueError, match="finite"):
        CountsTable(all_settings(1), [[bad, 1], [1, 1], [1, 1]])


@pytest.mark.parametrize("build,message", [
    (lambda: MeasurementSetting(("Q",)), "labels must each be one of X, Y, Z"),
    (lambda: simulate_counts(BELL.density(), [MeasurementSetting(("Z",))], 10,
                             np.random.default_rng(0)), "need settings of the states' dimension"),
    (lambda: simulate_counts(BELL.density(), [], 10, np.random.default_rng(0)),
     "need settings of the states' dimension"),
    (lambda: simulate_counts(BELL.density(), all_settings(2), 1.5, np.random.default_rng(0)),
     "shots must be a whole number"),
    (lambda: simulate_counts(BELL.density(), all_settings(2), 2 ** 53, np.random.default_rng(0)),
     "shots must be a whole number"),
    (lambda: simulate_counts(BELL.density(), all_settings(2), 2 ** 60, np.random.default_rng(0)),
     "shots must be a whole number"),
    (lambda: CountsTable(all_settings(1), [[0, 0], [1, 1], [1, 1]]).frequencies,
     "a setting has no counts"),
    (lambda: mle_batch(all_settings(1), np.zeros((1, 3, 2))), "a setting has no counts"),
    (lambda: mle_batch(all_settings(2), np.ones((3, 6, 4))), "counts need one row per setting"),
    (lambda: mle_batch(all_settings(2), np.ones((2, 9, 2))),
     "row width does not match the settings"),
    (lambda: tomography.linear_inversions(all_settings(2), np.ones((3, 6, 4))),
     "counts need one row per setting"),
    (lambda: mle_batch(all_settings(1)[:2], np.ones((1, 2, 2))),
     "settings do not form a tomographically complete set"),
    (lambda: mle_batch(all_settings(1), [[[0, 0], [1, 1], [1, 1]]]), "a setting has no counts"),
    (lambda: mle_batch(all_settings(1), [[[3, -1], [1, 1], [1, 1]]]),
     "counts must be finite and nonnegative"),
    (lambda: mle_batch(all_settings(1), [[[math.nan, 1], [1, 1], [1, 1]]]),
     "counts must be finite and nonnegative"),
], ids=["bad-label", "born-dimension", "no-settings", "fractional-shots", "shots-at-2**53",
        "shots-2**60", "empty-setting", "empty-table", "mle-misshaped-rows",
        "mle-wrong-width", "linv-misshaped-rows", "mle-incomplete", "mle-empty-setting",
        "mle-negative-count", "mle-nan-count"])
def test_tomography_guards(build, message):
    with pytest.raises(ValueError, match=message):
        build()
