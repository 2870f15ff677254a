import dataclasses
import functools
import itertools
import math
import sys
import types

import numpy as np
import pytest

from apgate import protocols, tomography
from apgate.config import ideal_profile, paper_profile
from apgate.protocols import ghz_target, run_bell, run_eraser, run_ghz, tomo_roundtrip
from apgate.qlin import DensityMatrix, PureState, UP, fidelity_pure
from apgate.tomography import (MLE_TOL, CountsTable, FitError,
                               MeasurementSetting, all_settings,
                               linear_inversion, mle_batch, mle_reconstruct,
                               monte_carlo_errors, simulate_batch,
                               simulate_counts)
from oracle import (born_probabilities, log_likelihood, reference_cauchy_step,
                    reference_certificate, reference_first_step, reference_linear_inversion,
                    reference_mle, reference_project)

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


def test_all_settings_are_built_once():
    # One cached tuple of frozen settings per qubit count, handed out as a fresh
    # list: equal to a fresh build, and edits to one list reach no later call.
    for n in (1, 2, 3):
        fresh = [MeasurementSetting(labels) for labels in itertools.product("XYZ", repeat=n)]
        first = all_settings(n)
        assert first == fresh and all(a is b for a, b in zip(first, all_settings(n)))
        first.reverse()
        first.append(first.pop(0))
        first[0] = MeasurementSetting(("Z",) * n)
        assert all_settings(n) == fresh
    with pytest.raises(dataclasses.FrozenInstanceError):
        all_settings(1)[0].labels = ("X",)


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
    assert abs(tomography._frequencies(table.counts)[0, 0] - 0.5) < 5 * se


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


def _hermitian_rows(rng, dim, kind, count):
    # Hermitian matrices U diag(l) U^H off unit trace by a common offset: "interior"
    # projects with every weight positive, "clipped" clips one (weight 0 for an
    # eigenvalue 0.5 below the rest), "rank-1" clips all but the top one.
    for _ in range(count):
        w = rng.uniform(0.5, 1.5, size=dim)
        if kind == "clipped":
            w[0] = 0.0
        elif kind == "rank-1":
            w[:-1] = 0.0
        lam = w / w.sum() + rng.uniform(-0.2, 0.2) / dim
        if kind != "interior":
            lam[w == 0.0] -= rng.uniform(0.5, 1.0, size=(w == 0.0).sum())
        u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        m = (u * lam) @ u.conj().T
        yield 0.5 * (m + m.conj().T), int((w == 0.0).sum())


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_project_matches_the_bisection_oracle(dim):
    # Flagged rows (full rank before) take the trace shift x - s I where no weight
    # clips and fall back to eigh where one does; unflagged rows take eigh.  Both
    # must give the Frobenius projection of oracle.reference_project.
    rng = np.random.default_rng(dim)
    rows = [r for kind in ("interior", "clipped", "rank-1")
            for r in _hermitian_rows(rng, dim, kind, 8)]
    order = rng.permutation(len(rows))
    m = np.array([rows[i][0] for i in order])
    clipped = np.array([rows[i][1] for i in order])
    x = m.reshape(len(m), -1).view(float)
    expected, oracle_clipped = reference_project(m)
    assert np.array_equal(oracle_clipped, clipped)
    flags = {"flagged": np.ones(len(x), bool), "unflagged": np.zeros(len(x), bool),
             "mixed": rng.random(len(x)) < 0.5}
    out = {name: tomography._project(x, dim, full) for name, full in flags.items()}
    for name, (rho, ker, full) in out.items():
        got = rho.view(complex).reshape(-1, dim, dim)
        assert np.abs(got - expected).max() <= 1e-13, name
        assert np.array_equal(ker.any(axis=(1, 2)), clipped > 0), name
        assert np.array_equal(full, clipped == 0), name
        assert np.array_equal(np.linalg.matrix_rank(ker), clipped), name
    (rho_f, ker_f, _), (rho_u, ker_u, _) = out["flagged"], out["unflagged"]
    clip = clipped > 0
    assert rho_f[clip].tobytes() == rho_u[clip].tobytes()
    assert ker_f[clip].tobytes() == ker_u[clip].tobytes()
    # Interior flagged rows moved only on the diagonal's real parts: x - s I.
    off = np.ones(2 * dim * dim, bool)
    off[::2 * dim + 2] = False
    assert np.array_equal(rho_f[~clip][:, off], x[~clip][:, off])
    assert not np.array_equal(rho_f[~clip], rho_u[~clip])
    for name, full in flags.items():        # each row alone, bit for bit
        for i in range(len(x)):
            alone = tomography._project(x[i:i + 1], dim, full[i:i + 1])
            assert all(a[0].tobytes() == b[i].tobytes() for a, b in zip(alone, out[name]))


def _near_shift_rows(rng, dim, margins):
    # Hermitian rows whose lowest eigenvalue lies ``margin`` above s = (tr x - 1)/d:
    # that difference is (1 - sum mu)/d for the spectrum mu with lowest entry 0, so
    # mu's other entries sum to 1 - d margin; a common offset leaves it unchanged.
    for margin in margins:
        mu = np.concatenate([[0.0], rng.uniform(0.5, 1.5, size=dim - 1)])
        lam = mu * (1.0 - dim * margin) / mu.sum() + rng.uniform(-0.3, 0.3)
        u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        m = (u * lam) @ u.conj().T
        yield 0.5 * (m + m.conj().T)


def _spy_factorization(monkeypatch):
    # Wraps the stacked factorization _project calls; each call appends the rows
    # that factor (True) and those that do not.  eigvalsh fails the test.
    cholesky, factored = tomography._umath_linalg.cholesky_lo, []

    def spied(a, *args, **kwargs):
        out = cholesky(a, *args, **kwargs)
        factored.append(~np.isnan(out[:, 0, 0]))
        return out

    monkeypatch.setattr(tomography, "_umath_linalg", types.SimpleNamespace(cholesky_lo=spied))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: pytest.fail("eigvalsh called"))
    return factored


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_project_shifts_exactly_where_the_lowest_eigenvalue_exceeds_s(dim, monkeypatch):
    # Flagged rows whose x - s I is positive definite are x - s I; one stacked
    # Cholesky factorization of the flagged rows decides each row, and the rows
    # that do not factor take eigh.  With lambda_min - s from 1e-9 to 1e-1 in size,
    # either sign, the shift must follow the eigenvalues exactly, and no eigvalsh
    # is called.
    rng = np.random.default_rng(40 + dim)
    margins = np.exp(rng.uniform(np.log(1e-9), np.log(1e-1), size=24))
    margins *= np.where(rng.random(24) < 0.5, -1.0, 1.0)
    m = np.array(list(_near_shift_rows(rng, dim, margins)))
    x = m.reshape(len(m), -1).view(float)
    s = (x[:, ::2 * dim + 2].sum(axis=1) - 1.0) / dim
    above = np.linalg.eigvalsh(m)[:, 0] > s
    assert np.array_equal(above, margins > 0.0)
    shifted = x.copy()
    shifted[:, ::2 * dim + 2] -= s[:, None]
    expected, _ = reference_project(m)
    factored = _spy_factorization(monkeypatch)
    stacks = {"mixed": np.arange(len(x)), "above": np.flatnonzero(above)}
    flags = {"flagged": np.ones(len(x), bool), "some": rng.random(len(x)) < 0.5}
    for (sname, rows), (fname, full) in itertools.product(stacks.items(), flags.items()):
        rho, ker, kept = tomography._project(x[rows], dim, full[rows])
        shift = full[rows] & above[rows]
        assert np.array_equal(kept, above[rows]), (sname, fname)
        assert rho[shift].tobytes() == shifted[rows][shift].tobytes()
        assert ker[shift].tobytes() == np.zeros((shift.sum(), dim, dim), complex).tobytes()
        got = rho.view(complex).reshape(-1, dim, dim)
        assert np.abs(got - expected[rows]).max() <= 1e-13, (sname, fname)
        for i, row in enumerate(rows):        # each row alone, bit for bit
            alone = tomography._project(x[row:row + 1], dim, full[row:row + 1])
            assert all(a[0].tobytes() == b[i].tobytes() for a, b in zip(alone, (rho, ker, kept)))
    assert any(f.all() for f in factored) and any(not f.all() for f in factored)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_project_decides_each_row_alone_within_rounding_of_the_shift(dim, monkeypatch):
    # Where lambda_min - s is within rounding of 0 the factorization and eigh may
    # disagree, so a row's decision must still be its own: in a stack that also
    # holds a row which fails to factor, every row gives its bytes alone, the
    # stacked factorization fails exactly the rows np.linalg.cholesky rejects
    # alone, and a flagged row that factors is x - s I.
    rng = np.random.default_rng(60 + dim)
    margins = np.exp(rng.uniform(np.log(1e-17), np.log(1e-15), size=48))
    margins = np.concatenate([margins * np.where(rng.random(48) < 0.5, -1.0, 1.0), [-0.1]])
    m = np.array(list(_near_shift_rows(rng, dim, margins)))
    x = m.reshape(len(m), -1).view(float)
    s = (x[:, ::2 * dim + 2].sum(axis=1) - 1.0) / dim
    shifted = x.copy()
    shifted[:, ::2 * dim + 2] -= s[:, None]
    factors = []
    for a in shifted.view(complex).reshape(-1, dim, dim):
        try:
            np.linalg.cholesky(a)
            factors.append(True)
        except np.linalg.LinAlgError:
            factors.append(False)
    assert True in factors and not factors[-1]
    spied = _spy_factorization(monkeypatch)
    for full in (np.ones(len(x), bool), rng.random(len(x)) < 0.5):
        full[-1] = True
        out = tomography._project(x, dim, full)
        assert np.array_equal(spied[-1], np.array(factors)[full])
        for i in range(len(x)):
            alone = tomography._project(x[i:i + 1], dim, full[i:i + 1])
            assert all(a[0].tobytes() == b[i].tobytes() for a, b in zip(alone, out))
        shift = full & np.array(factors)
        assert out[2][shift].all() and out[0][shift].tobytes() == shifted[shift].tobytes()


def test_mle_starts_at_projected_linear_inversion():
    # Every start of a batch is its own table's linear inversion, projected with its row
    # flagged for the trace shift.  The paper-profile bell table's inversion is positive
    # definite, so its start is the inversion less its trace shift, not the reconstruction
    # from its eigendecomposition; the pure-state tables' inversions take _simplex.
    rng = np.random.default_rng(18)
    tables = [simulate_counts(random_pure(rng).density(), all_settings(2), 1000, rng)
              for _ in range(5)] + [CountsTable(*_reference_tables()["bell"])]
    reports = mle_batch(all_settings(2), [t.counts for t in tables], max_iter=0)
    for table, report in zip(tables, reports):
        inversion = linear_inversion(table).reshape(1, -1).view(float)
        start, _, full = tomography._project(inversion, 4, np.ones(1, bool))
        expected = DensityMatrix(start.view(complex).reshape(4, 4)).entries
        assert np.array_equal(report.rho.entries, expected)
        assert report.iterations == 0 and len(report.ll_history) == 1
        assert full[0] == (table is tables[-1])
        if full[0]:
            shift = (np.trace(linear_inversion(table)).real - 1.0) / 4
            assert np.array_equal(start.view(complex).reshape(4, 4),
                                  linear_inversion(table) - shift * np.eye(4))


def assert_report_consistent(report):
    assert len(report.ll_history) == report.iterations + 1
    # The history holds each accepted step's signed change.  Only a plain step
    # may lower l, and only by the projection's rounding, 1e-16 relative per
    # entry: a drop beyond 1e-12 |l| is a kept step that lowered the likelihood.
    assert np.diff(report.ll_history).min(initial=0.0) >= -1e-12 * abs(report.log_likelihood)
    assert report.log_likelihood == report.ll_history[-1]
    assert report.converged == (report.gap <= MLE_TOL)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mle_batch_is_batch_invariant(n):
    # 1e3- and 1e5-shot tables mixed: the fits certify at different iterations,
    # so each pass runs on another set of live fits, moved to other rows of the
    # stacks.  Every report equals its fit run alone, at every cap.
    rng = np.random.default_rng(14 + n)
    counts = [simulate_counts(random_pure(rng, 2 ** n).density(), all_settings(n), shots, rng)
              .counts for shots in (1000, 100_000, 1000, 100_000, 1000, 100_000, 1000)]
    for cap in (0, 1, 2, 7, 5000):
        batch = mle_batch(all_settings(n), counts, cap)
        for table, report in zip(counts, batch):
            alone = mle_batch(all_settings(n), [table], cap)[0]
            assert np.array_equal(alone.rho.entries, report.rho.entries)
            assert (alone.log_likelihood, alone.iterations, alone.converged, alone.ll_history,
                    alone.gap) == (report.log_likelihood, report.iterations, report.converged,
                                   report.ll_history, report.gap)
            assert_report_consistent(report)
    assert all(report.converged for report in batch)
    assert len({report.iterations for report in batch}) >= 2


def test_mle_batch_mixing_full_rank_and_null_space_fits_is_batch_invariant(monkeypatch):
    # The paper-profile Monte-Carlo bell table and 20 bootstrap replicas fit to
    # full rank, so their trials are flagged for the trace shift; 1e5-shot
    # pure-state tables fit with a null space, so theirs take eigh.  Each pass
    # then projects both kinds in one call, and every report must still equal
    # its fit run alone.
    settings, counts = _reference_tables()["bell"]
    full_rank = tomography._replicas(tomography._counts(settings, [counts])[0], 20,
                                     np.random.default_rng(8))
    rng = np.random.default_rng(9)
    pure = [simulate_counts(random_pure(rng).density(), settings, 100_000, rng).counts
            for _ in range(4)]
    tables = np.insert(np.concatenate([[counts], full_rank]), [3, 8, 13, 21], pure, axis=0)
    core, flags = tomography._project, []
    monkeypatch.setattr(tomography, "_project",
                        lambda x, dim, full=None: flags.append(full) or core(x, dim, full))
    for cap in (0, 1, 2, 7, 5000):
        batch = mle_batch(settings, tables, cap)
        for table, report in zip(tables, batch, strict=True):
            alone = mle_batch(settings, [table], cap)[0]
            assert alone.rho.entries.tobytes() == report.rho.entries.tobytes()
            assert (alone.ll_history, alone.gap, alone.iterations) == (
                report.ll_history, report.gap, report.iterations)
    assert all(report.converged for report in batch)
    lowest = [np.linalg.eigvalsh(r.rho.entries)[0] for r in batch]
    assert sum(v > 1e-6 for v in lowest) == 21 and sum(v < 1e-12 for v in lowest) == 4
    assert any(f is not None and f.any() and not f.all() for f in flags)


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
        np.round(table.counts.sum(axis=1)).astype(np.int64),
        tomography._frequencies(table.counts),
        size=(100, len(table.settings)))
    report = mle_reconstruct(CountsTable(table.settings, replicas[17]))
    assert report.converged and report.iterations <= 100
    assert_report_consistent(report)


def test_mle_keeps_plain_steps_whose_drop_is_rounding():
    # A 1e5-shot near-pure table: near the optimum the projection's rounding
    # outweighs the true gain of a plain step; rejecting such steps left the
    # fit at a 0.25-nat gap until the cap.  It certifies in 43 iterations; a
    # dual point split in R's eigenbasis at <v_k|rho|v_k> = 1e-3 took 112, as
    # R's nearly degenerate top eigenvectors mix rho's support and the bound's
    # first-order term N tr(rho M) outweighed the true shortfall.
    counts = [[18101, 24631, 5367, 51901], [27215, 15655, 40168, 16962],
              [41913, 1109, 40143, 16835], [7004, 8122, 16193, 68681],
              [15018, 26, 52240, 32716], [7777, 7579, 74142, 10502],
              [3027, 19092, 20256, 57625], [6404, 15880, 61089, 16627],
              [17149, 5004, 64884, 12963]]
    report = mle_reconstruct(CountsTable(all_settings(2), counts))
    assert report.converged and report.iterations <= 60
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
    # In one pass of this 5-state batch (pass 48, of the one fit still live)
    # every fit still iterating restarts its momentum, so no fit moves: each
    # fit with at least k iterations repeats its log-likelihood at step k.
    core, reports = protocols.mle_batch, []
    monkeypatch.setattr(protocols, "mle_batch", lambda *a: reports.extend(core(*a)) or reports)
    derived = tomo_roundtrip(paper_profile(seed=58), n_states=5, shots=100_000).derived
    assert len(reports) == 5
    assert any(all(r.ll_history[k] == r.ll_history[k - 1] for r in reports if r.iterations >= k)
               for k in range(1, max(r.iterations for r in reports) + 1))
    assert derived["all_monotone"] and derived["min_fidelity"] > 0.9


def test_mle_stalled_fit_keeps_its_state_null_space_and_flag(monkeypatch):
    # A fit none of whose 64 halvings passes stays where it is for that pass.  Here
    # every trial of one rank-deficient fit of a 3-fit batch reads NaN in pass 2, so
    # no step of it passes: at pass 3 it must hold pass 2's state bytes, null space
    # and flag (False, as its state has a null space), and its history repeats.
    rng = np.random.default_rng(9)
    settings, target, stall = all_settings(2), 1, 2
    tables = [simulate_counts(random_pure(rng).density(), settings, 100_000, rng).counts
              for _ in range(3)]
    plain = mle_batch(settings, tables)
    core, seen, hits = tomography._project, {}, []

    def spy(x, dim, full=None):
        rho, ker, kept = core(x, dim, full)
        trial, loop = sys._getframe(1), sys._getframe(2)
        if loop.f_code is not tomography.mle_batch.__code__:     # the start
            return rho, ker, kept
        it, fits = loop.f_locals["it"], loop.f_locals["fits"]
        if it in (stall, stall + 1) and it not in seen:
            i = np.flatnonzero(fits == target)
            seen[it] = [loop.f_locals[k][i].copy() for k in ("x", "ker", "full")]
        if it == stall:
            hit = fits[np.arange(len(fits))[trial.f_locals["rows"]]] == target
            rho[hit] = np.nan
            hits.append(int(hit.sum()))
        return rho, ker, kept

    monkeypatch.setattr(tomography, "_project", spy)
    reports = mle_batch(settings, tables)
    assert hits == [1] * 64 and sorted(seen) == [stall, stall + 1]
    (x0, ker0, full0), (x1, ker1, full1) = seen[stall], seen[stall + 1]
    assert not full0[0] and ker0.any()
    assert (x1.tobytes(), ker1.tobytes(), full1.tobytes()) == (
        x0.tobytes(), ker0.tobytes(), full0.tobytes())
    history = reports[target].ll_history
    assert history[stall + 1] == history[stall]
    assert history[:stall + 1] == plain[target].ll_history[:stall + 1]
    assert all(r.converged for r in reports)
    for b in {0, 1, 2} - {target}:       # the other fits run as without the stall
        assert reports[b].rho.entries.tobytes() == plain[b].rho.entries.tobytes()


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


def test_mle_falls_back_to_the_frank_wolfe_gap():
    # The start of this 100-shot GHZ table (the projected linear inversion,
    # of rank 3 or more) lies so far from the maximum that its dual point puts
    # y'_i <= 0 on an observed outcome, so the certificate is the Frank-Wolfe
    # gap N (lambda_max(R) - 1), here rebuilt from the oracle's Born weights
    # and the settings' projectors.  Its true shortfall is 42 nats.
    settings = all_settings(3)
    counts = simulate_counts(ghz_target().density(), settings, 100, np.random.default_rng(0)).counts
    report = mle_batch(settings, [counts], 0)[0]
    total = counts.sum()
    r = sum(np.einsum("o,oij->ij", c / total / np.maximum(born_probabilities(report.rho, s),
                                                           tomography.PROB_FLOOR),
                      s.projectors()) for s, c in zip(settings, counts))
    assert report.gap == pytest.approx(total * (np.linalg.eigvalsh(r)[-1] - 1.0), rel=1e-9)
    _, l_ref = reference_mle(settings, counts)
    shortfall = l_ref - log_likelihood(settings, counts, report.rho.entries)
    assert 1.0 < shortfall <= report.gap
    assert not report.converged and mle_batch(settings, [counts])[0].converged


@pytest.mark.parametrize("source", ["bell", 10_000])
def test_certificate_solves_only_where_it_can_certify(source, monkeypatch):
    # The bound's eigenvalue term N log s is never negative, so it is solved
    # only for fits whose eigen-free first term is within MLE_TOL.  Solving it for
    # every live fit in every pass took 706 rows in the bell batch.  The projection
    # decides its trace shift and the fitted states' check their floor by Cholesky
    # factorization, so every row counted here is the bound's.  The bell fits have
    # full rank, so the norm ||A||_inf bounds the term and certifies each of them:
    # 0 rows (101 while every certifying fit took eigvalsh, 202 while the projection
    # and the check did too).  The pure-state fits (source: a shot count of
    # _pure_tables) end with a null space, so the term takes eigenvalues there: once
    # per fit, in the pass that certifies it.
    settings = all_settings(2)
    if source == "bell":
        counts = _reference_tables()["bell"][1]
        batch = np.concatenate([[counts], tomography._replicas(
            tomography._counts(settings, [counts])[0], 100, np.random.default_rng(5))])
    else:
        batch = _pure_tables()[source]
    eigvalsh, rows = np.linalg.eigvalsh, []

    def counted(a, *args, **kwargs):
        caller = sys._getframe(1)       # the Frank-Wolfe call comes after gap binds fw
        if not (caller.f_code.co_name == "gap" and "fw" in caller.f_locals):
            rows.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    reports = mle_batch(settings, batch)
    assert all(r.converged for r in reports)
    if source == "bell":
        assert sum(rows) == 0, sum(rows)
    else:
        assert 0 < sum(rows) <= len(reports), sum(rows)


def _bootstrap_batch(settings, tables, resamples=100):
    # The tables, then each table's bootstrap replicas, as fit_with_errors batches them.
    rng = np.random.default_rng(5)
    observed = tomography._counts(settings, tables)
    return np.concatenate([observed] + [tomography._replicas(c, resamples, rng) for c in observed])


@functools.lru_cache(maxsize=None)
def _certificate_batches():
    # The paper-profile Monte-Carlo bell table and its eraser tables, each with 100
    # replicas: every fit has full rank, and no outcome has zero counts.  And 200 tables
    # of the maximally mixed 2-qubit state at 12 shots per setting, whose zero-count
    # outcomes the dual point clips in some of the fits that end at full rank.
    tables, rng = _reference_tables(), np.random.default_rng(5)
    low_shot = simulate_batch(np.repeat(np.eye(4, dtype=complex)[None] / 4, 200, axis=0),
                              all_settings(2), 12, [rng] * 200)
    return {"bell": _bootstrap_batch(all_settings(2), [tables["bell"][1]]),
            "eraser": _bootstrap_batch(all_settings(2), [tables["eraser-phi-plus"][1],
                                                         tables["eraser-phi-minus"][1]]),
            "low-shot": low_shot}


@pytest.mark.parametrize("name", ["bell", "eraser", "low-shot"])
def test_certified_gap_covers_the_eigenvalue_bound(name):
    # At full rank the certificate's eigenvalue term N log max(1, lambda_max(A)),
    # A = sum_i y'_i Pi_i, takes ||A||_inf (the largest absolute row sum) in place of
    # lambda_max where that certifies.  oracle.reference_certificate rebuilds y', A and
    # the bound with eigvalsh from each certified full-rank fit's final state: the gap
    # must cover that bound, and equal it where the dual point clips no outcome (A is
    # then I up to rounding), both within 1e-9 nats of rounding.  A clipped zero-count
    # outcome adds delta_i Pi_i to A, off its diagonal too: a norm taken as A's largest
    # diagonal entry undershoots lambda_max there, by up to 0.22 nats in the low-shot
    # batch, and fails.
    settings = all_settings(2)
    batch = _certificate_batches()[name]
    reports = mle_batch(settings, batch)
    assert all(r.converged for r in reports)
    checked, clipped = 0, 0
    for counts, report in zip(batch, reports, strict=True):
        if np.linalg.eigvalsh(report.rho.entries)[0] <= 1e-9:    # the oracle needs full rank
            continue
        bound, clips = reference_certificate(settings, counts, report.rho.entries)
        assert report.gap >= bound - 1e-9, (report.gap, bound)
        assert clips or abs(report.gap - bound) <= 1e-9, (report.gap, bound)
        checked, clipped = checked + 1, clipped + (clips > 0)
    if name == "low-shot":
        assert checked >= 30 and clipped >= 3 and (batch == 0).any(axis=(1, 2)).sum() >= 100
    else:
        assert (checked, clipped) == (len(batch), 0)


@pytest.mark.parametrize("run", [run_bell, run_eraser])
def test_full_rank_batches_take_no_eigenvalues(run, monkeypatch):
    # The default-seed paper-profile Monte-Carlo bell and eraser runs fit their tables
    # and 100 replicas each in one mle_batch.  Every start is positive definite, so it
    # keeps its trace shift, and every fit is certified by the norm bound, so the batch
    # calls neither eigh nor eigvalsh (it took one eigh over its starts and one eigvalsh
    # in each certifying pass before).
    core, sizes, inside, calls = tomography.mle_batch, [], [], []

    def fit(settings, counts, *args):
        sizes.append(len(counts))
        inside.append(True)
        try:
            return core(settings, counts, *args)
        finally:
            inside.clear()

    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, name=name, solver=solver, **kw:
                            (inside and calls.append(name)) or solver(a, *args, **kw))
    monkeypatch.setattr(tomography, "mle_batch", fit)
    run(dataclasses.replace(paper_profile(), mode="monte-carlo"))
    assert sizes == [101 if run is run_bell else 202] and calls == [], calls


def test_start_that_no_row_factors_is_simplex_after_one_factorization(monkeypatch):
    # The ideal-profile Monte-Carlo bell table and its replicas come from a pure state,
    # so no start's trace shift factors: the start makes one stacked factorization of
    # all 101 rows, then projects the whole stack by _simplex, bit for bit.
    settings = all_settings(2)
    cfg = dataclasses.replace(ideal_profile(), mode="monte-carlo", mc_replicas=2)
    batch = _bootstrap_batch(settings, [run_bell(cfg).raw_counts["counts"]])
    inversions = tomography.linear_inversions(settings, batch).reshape(len(batch), -1)
    expected = tomography._simplex(inversions.view(float), 4)
    linalg, simplex, factors, projected = tomography._umath_linalg, tomography._simplex, [], []

    def cholesky_lo(a, *args, **kwargs):
        factors.append(linalg.cholesky_lo(a, *args, **kwargs))
        return factors[-1]

    def spy(x, dim):
        projected.append(simplex(x, dim))
        return projected[-1]

    monkeypatch.setattr(tomography, "_umath_linalg", types.SimpleNamespace(cholesky_lo=cholesky_lo))
    monkeypatch.setattr(tomography, "_simplex", spy)
    reports = mle_batch(settings, batch, 0)
    assert len(factors) == 1 and np.isnan(factors[0][:, 0, 0]).all()
    assert len(factors[0]) == len(projected[0][0]) == len(batch) and len(projected) == 1
    assert all(a.tobytes() == b.tobytes() for a, b in zip(projected[0], expected))
    starts = DensityMatrix.stack(expected[0].view(complex).reshape(-1, 4, 4))
    assert all(r.rho.entries.tobytes() == e.entries.tobytes() for r, e in zip(reports, starts))


@functools.lru_cache(maxsize=None)
def _pure_tables():
    # 40 random pure 2-qubit tables at each of 1e3, 1e4 and 1e5 shots, in that order
    # from one generator.
    rng = np.random.default_rng(7)
    return {shots: np.array([simulate_counts(random_pure(rng).density(), all_settings(2),
                                             shots, rng).counts for _ in range(40)])
            for shots in (1000, 10_000, 100_000)}


@pytest.mark.parametrize("source", [paper_profile, ideal_profile, 1000, 10_000, 100_000])
def test_first_pass_projects_about_two_states_per_fit(source, monkeypatch):
    # Pass 0 starts each fit's line search at its curvature (Cauchy) step t0, so it
    # projects about two trial states per fit: the one that fails at t0 and the half
    # that passes, or the one that passes at t0.  Halving from 1 projected 3.81 per fit
    # in this paper-profile batch (385 rows; none of its fits accepts t = 1).  Here it
    # takes 202: one fit passes at t0, and one, whose Cauchy step 0.255 lies just above
    # 1/4, fails at 1/2 and 1/4.  The ideal-profile fits accept t = 1 from t_c >= 1: one
    # trial each.  Most pure-state fits (source: a shot count of _pure_tables) pass at
    # t0: 1.23 to 1.40 per fit, where a search that doubles a passing t0 while the
    # double passes takes 2.25 to 2.53, so 1.5 tells the two apart.
    settings = all_settings(2)
    if isinstance(source, int):
        batch = _pure_tables()[source]
    else:
        cfg = dataclasses.replace(source(), mode="monte-carlo", mc_replicas=2)  # same counts as 100
        counts = run_bell(cfg).raw_counts["counts"]
        replicas = tomography._replicas(tomography._counts(settings, [counts])[0], 100,
                                        np.random.default_rng(5))
        batch = np.concatenate([[counts], replicas])
    core, rows = tomography._project, []
    monkeypatch.setattr(tomography, "_project",
                        lambda x, dim, full=None: rows.append(len(x)) or core(x, dim, full))
    start = mle_batch(settings, batch, 0)
    assert not any(r.converged for r in start)       # every fit runs pass 0
    rows.clear()
    mle_batch(settings, batch, 1)
    per_fit = (sum(rows) - len(batch)) / len(batch)  # less the starts' projection
    if source is paper_profile:
        assert per_fit <= 2.05, per_fit
    elif source is ideal_profile:
        assert per_fit == 1.0, per_fit
    else:
        assert per_fit <= 1.5, per_fit


def _first_step_tables():
    # 36 pure and mixed states of 2 and 3 qubits with white noise 1e-4 to 1e-2, at
    # 300 to 30000 shots: none is certified at its start; at this seed the first
    # accepted steps run from 1 down to 2^-9, and in two fits halving from 1 accepts
    # a step above the Cauchy start.
    rng = np.random.default_rng(1)
    for n, pure, eps, shots in itertools.product((2, 3), (True, False), (1e-4, 1e-3, 1e-2),
                                                 (300, 3000, 30000)):
        rank = 1 if pure else int(rng.integers(2, 2 ** n + 1))
        a = rng.normal(size=(2 ** n, rank)) + 1j * rng.normal(size=(2 ** n, rank))
        rho = (1 - eps) * a @ a.conj().T / np.sum(np.abs(a) ** 2) + eps * np.eye(2 ** n) / 2 ** n
        yield n, simulate_batch(rho[None], all_settings(n), shots, [rng])[0]


def test_first_step_matches_halving_from_the_cauchy_step():
    # Pass 0 accepts, bit for bit, the step that halving from the table's Cauchy start
    # t0 accepts (oracle.reference_cauchy_step, oracle.reference_first_step): each
    # table alone and in one batch per qubit count.  Where halving from 1 accepts a
    # step <= t0, the two searches accept the same step; in the two tables where it
    # accepts more, pass 0 takes the step below t0 instead.
    steps, above, by_n = set(), 0, {2: [], 3: []}
    for n, counts in _first_step_tables():
        start = reference_cauchy_step(all_settings(n), counts)
        x, history, t = reference_first_step(all_settings(n), counts, start)
        from_one = reference_first_step(all_settings(n), counts)
        if from_one[2] <= start:
            assert (from_one[0].tobytes(), *from_one[1:]) == (x.tobytes(), history, t)
        above += from_one[2] > start
        expected = DensityMatrix(x.view(complex).reshape(2 ** n, 2 ** n)).entries
        by_n[n].append((counts, expected, history))
        steps.add(t)
    for n, cases in by_n.items():
        batch = mle_batch(all_settings(n), [c for c, _, _ in cases], 1)
        for (counts, expected, history), report in zip(cases, batch, strict=True):
            alone = mle_batch(all_settings(n), [counts], 1)[0]
            for r in (report, alone):
                assert r.iterations == 1 and r.ll_history == history
                assert r.rho.entries.tobytes() == expected.tobytes()
    assert above == 2                                # both kinds of table
    assert max(steps) == 1.0 and min(steps) <= 2.0 ** -7, sorted(steps)


def test_monte_carlo_uncertified_replica_raises(monkeypatch):
    core = tomography.mle_batch
    monkeypatch.setattr(tomography, "mle_batch",
                        lambda settings, counts, max_iter=5000: core(settings, counts, 0))
    table = simulate_counts(BELL.density(), all_settings(2), 1000, np.random.default_rng(16))
    with pytest.raises(FitError, match=r"^bootstrap replica 0 of 4: gap .* after 0 iterations$"):
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
    (lambda: CountsTable(all_settings(1), [[0, 0], [1, 1], [1, 1]]),
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
