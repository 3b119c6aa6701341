"""Bottleneck Lagrangian minimization and the constrained relevance curve."""

import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

import infosep.ib
from infosep.dist import (
    JointDistribution,
    conditional_kernel,
    marginals,
    mutual_information,
    validate_and_trim,
)
from infosep.errors import DimensionError, InvalidDistribution
from infosep.harness import dsbs, random_joint, random_refinement
from infosep.ib import ib_curve, ib_fixed_point, theta_of_R
from infosep.modal import reduce_joint
from test_modal import probe_tables

MI_DSBS01 = 0.5310044064107188


def binary_entropy(p):
    p = np.clip(p, 1e-300, 1.0)
    q = np.clip(1.0 - p, 1e-300, 1.0)
    return float(-(p * np.log2(p) + q * np.log2(q)))


def crossover_mix(a, e):
    return a * (1.0 - e) + e * (1.0 - a)


def scalar_channel_oracle(a, beta):
    """Best binary-symmetric test channel for a symmetric binary source.

    Reduces the optimization to one scalar crossover parameter and solves it
    by bounded search; an independent route to the Lagrangian optimum.
    """
    def objective(e):
        return (1.0 - binary_entropy(e)) - beta * (
            1.0 - binary_entropy(crossover_mix(a, e)))
    r = minimize_scalar(objective, bounds=(0.0, 0.5), method="bounded",
                        options={"xatol": 1e-12})
    return min(objective(0.0), float(r.fun))


def curve_height(a, rate):
    """Closed-form relevance bound for the symmetric binary pair at a rate."""
    if rate <= 0.0:
        return 0.0
    if rate >= 1.0:
        return 1.0 - binary_entropy(a)
    e = brentq(lambda t: binary_entropy(t) - (1.0 - rate), 0.0, 0.5,
               xtol=1e-15)
    return 1.0 - binary_entropy(crossover_mix(a, e))


class TestFixedPoint:
    def test_beta_at_most_one_is_constant(self, dsbs01):
        for beta in (0.25, 0.5, 1.0):
            r = ib_fixed_point(dsbs01, beta)
            assert r.lagrangian.value == 0.0
            assert r.converged
            assert float(r.i_ux) == 0.0 and float(r.i_uy) == 0.0

    def test_identity_pair_beta_two(self):
        j = JointDistribution(np.eye(2) / 2)
        r = ib_fixed_point(j, 2.0)
        assert float(r.lagrangian) == pytest.approx(-1.0, abs=1e-6)
        assert float(r.i_ux) == pytest.approx(1.0, abs=1e-6)

    def test_dsbs_beta_five_matches_scalar_oracle(self, dsbs01):
        r = ib_fixed_point(dsbs01, 5.0)
        assert float(r.lagrangian) == pytest.approx(-1.655242503469, abs=1e-9)
        assert float(r.lagrangian) == pytest.approx(
            scalar_channel_oracle(0.1, 5.0), abs=1e-9)
        # beats the plain U=X witness
        assert float(r.lagrangian) <= 1.0 - 5.0 * MI_DSBS01 + 1e-12

    def test_dsbs_beta_two_matches_scalar_oracle(self, dsbs01):
        r = ib_fixed_point(dsbs01, 2.0)
        assert float(r.lagrangian) == pytest.approx(-0.118034938241, abs=1e-9)
        assert float(r.lagrangian) == pytest.approx(
            scalar_channel_oracle(0.1, 2.0), abs=1e-9)

    def test_solution_points_lie_on_closed_form_curve(self, dsbs01):
        for beta in (2.0, 3.0, 5.0):
            r = ib_fixed_point(dsbs01, beta)
            assert float(r.i_uy) == pytest.approx(
                curve_height(0.1, float(r.i_ux)), abs=1e-9)

    def test_history_is_nonincreasing(self, dsbs01):
        r = ib_fixed_point(dsbs01, 5.0)
        h = np.asarray(r.history)
        assert h.size >= 2
        assert np.all(np.diff(h) <= 1e-9)

    def test_information_inequalities(self):
        for seed in range(8):
            j = random_joint(4, 3, seed=seed)
            r = ib_fixed_point(j, 2.5, seed=0)
            mi = mutual_information(j).value
            assert float(r.i_uy) <= float(r.i_ux) + 1e-9
            assert float(r.i_uy) <= mi + 1e-9
            assert float(r.lagrangian) <= 1e-9
            np.testing.assert_allclose(r.kernel.k.sum(axis=1), 1.0,
                                       atol=1e-9)

    def test_outputs_match_the_kernel(self, dsbs01):
        # the reported informations and Lagrangian belong to the returned kernel
        for j in (dsbs01, random_joint(3, 3, seed=0), random_joint(4, 3, seed=2)):
            px = j.p.sum(axis=1)
            for beta in (1.5, 2.0, 5.0):
                for restarts in (0, 10):
                    r = ib_fixed_point(j, beta, restarts=restarts)
                    q = r.kernel.k
                    i_ux = mutual_information(validate_and_trim(px[:, None] * q))
                    i_uy = mutual_information(validate_and_trim(q.T @ j.p))
                    assert float(r.i_ux) == pytest.approx(i_ux.value, abs=1e-12)
                    assert float(r.i_uy) == pytest.approx(i_uy.value, abs=1e-12)
                    assert r.history[-1] == pytest.approx(float(r.lagrangian),
                                                          abs=1e-12)

    def test_deterministic_given_seed(self, dsbs01):
        a = ib_fixed_point(dsbs01, 3.0, seed=9)
        b = ib_fixed_point(dsbs01, 3.0, seed=9)
        assert float(a.lagrangian) == float(b.lagrangian)
        np.testing.assert_array_equal(a.kernel.k, b.kernel.k)

    def test_iteration_cap(self, dsbs01, monkeypatch):
        # at beta = 2 the copy start needs 8 iterations to converge
        full = ib_fixed_point(dsbs01, 2.0, restarts=0)
        assert full.converged and len(full.history) > 6
        monkeypatch.setattr(infosep.ib, "MAX_ITERS", 5)
        r = ib_fixed_point(dsbs01, 2.0, restarts=0)
        assert not r.converged
        assert len(r.history) == 6

    def test_slow_multiplier_ends_in_few_iterations(self, dsbs01):
        # beta = 1.5 lies just below the critical 1 / sigma_1^2 = 1.5625,
        # where the refresh map alone contracts by about 0.96 per cycle and
        # the copy start needs 454 of them
        r = ib_fixed_point(dsbs01, 1.5, restarts=0)
        assert r.converged and len(r.history) - 1 <= 20

    def test_default_card(self, dsbs01):
        r = ib_fixed_point(dsbs01, 2.0)
        assert r.card_u == dsbs01.nx + 1

    def test_bad_beta_rejected(self, dsbs01):
        with pytest.raises(ValueError):
            ib_fixed_point(dsbs01, 0.0)
        with pytest.raises(ValueError):
            ib_fixed_point(dsbs01, -1.0)
        for beta in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                ib_fixed_point(dsbs01, beta)

    def test_negative_restarts_rejected(self, dsbs01):
        with pytest.raises(ValueError, match="restarts"):
            ib_fixed_point(dsbs01, 2.0, restarts=-1)

    def test_bad_card_rejected(self, dsbs01):
        with pytest.raises(DimensionError):
            ib_fixed_point(dsbs01, 2.0, card_u=0)

    def test_size_limit_raises_before_solving(self, dsbs01):
        with pytest.raises(DimensionError, match="--card-u"):
            ib_fixed_point(dsbs01, 2.0, card_u=2**20 + 1, restarts=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_when_p_u_underflows(self):
        # cells 10^-U(0, 320), 30% zeroed: P(x) q(u|x) can underflow to
        # zero where q(u|x) does not, and P(u) with it
        rng = np.random.default_rng(0)
        solved = 0
        for _ in range(400):
            nx, ny = rng.integers(2, 4, size=2)
            cells = 10.0 ** -rng.uniform(0, 320, size=(nx, ny))
            cells[rng.random((nx, ny)) < 0.3] = 0.0
            try:
                j = validate_and_trim(cells)
            except InvalidDistribution:
                continue
            for sol in infosep.ib._ib_solve(j, (1.5, 5.0), None, 0, 0, "bits"):
                solved += 1
                assert np.isfinite([sol.i_ux.value, sol.i_uy.value,
                                    sol.lagrangian.value]).all(), j.p.tolist()
        assert solved > 700

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_wide_range_cells_run_free_of_warnings(self):
        # the extrapolation subtracts logs of kernels, where -inf - -inf
        # would appear; cells from 1e-310 to 1e308 make such kernels
        solved = 0
        for j in probe_tables(400):
            for sol in infosep.ib._ib_solve(j, (1.5, 2.0, 5.0, 20.0), None, 2,
                                            0, "bits"):
                solved += 1
                assert np.isfinite([sol.i_ux.value, sol.i_uy.value,
                                    sol.lagrangian.value]).all(), j.p.tolist()
                assert np.all(np.diff(sol.history) <= 1e-9), j.p.tolist()
        assert solved > 1000

    def test_lagrangian_invariance_under_refinement(self):
        base = random_joint(2, 2, alpha=2.0, seed=31)
        refined, s, t = random_refinement(base, 4, 4, seed=31)
        red = reduce_joint(refined, s, t)
        for beta in (1.5, 2.0, 5.0):
            a = ib_fixed_point(refined, beta, restarts=10, seed=0)
            b = ib_fixed_point(red, beta, restarts=10, seed=0)
            assert abs(float(a.lagrangian) - float(b.lagrangian)) <= 5e-3


def assert_same_solution(a, b):
    assert a.beta == b.beta and a.card_u == b.card_u
    np.testing.assert_array_equal(a.kernel.k, b.kernel.k)
    for field in ("i_ux", "i_uy", "lagrangian"):
        assert getattr(a, field) == getattr(b, field), field
    assert a.converged == b.converged
    assert a.restarts_used == b.restarts_used
    assert a.history == b.history


class TestIbBatch:
    """All (beta, start) runs of one call advance in lockstep stacks."""

    GRID = (0.5, 1.5, 2.0, 2.0, 5.0)

    @pytest.mark.parametrize("restarts", [0, 10])
    @pytest.mark.parametrize("table", ["dsbs", "random"])
    def test_curve_solutions_match_each_beta_alone(self, table, restarts):
        j = dsbs(0.1) if table == "dsbs" else random_joint(3, 3, seed=0)
        c = ib_curve(j, self.GRID, restarts=restarts, seed=0)
        for beta, sol in zip(self.GRID, c.solutions):
            assert_same_solution(
                sol, ib_fixed_point(j, beta, restarts=restarts, seed=0))

    def test_cut_run_beside_converging_runs(self, dsbs01, monkeypatch):
        # alone, the copy start at beta = 1.5 needs 7 iterations and the
        # one at beta = 5 needs 2: the cap cuts only the first
        monkeypatch.setattr(infosep.ib, "MAX_ITERS", 4)
        c = ib_curve(dsbs01, self.GRID, restarts=0)
        by_beta = dict(zip(self.GRID, c.solutions))
        assert not by_beta[1.5].converged and len(by_beta[1.5].history) == 5
        assert by_beta[5.0].converged and len(by_beta[5.0].history) < 5
        for beta, sol in zip(self.GRID, c.solutions):
            assert_same_solution(sol, ib_fixed_point(dsbs01, beta, restarts=0))

    def test_memory_stays_within_one_stack(self, monkeypatch):
        # 48 x 911 x 48 is just over 2**21 work entries per run, so each
        # stack holds one run: restarts=10 runs 11 stacks one after another
        # and peaks about where restarts=0 does, where one stack of all 11
        # runs would need about eleven times it
        j = random_joint(48, 48, seed=0)
        monkeypatch.setattr(infosep.ib, "MAX_ITERS", 1)

        def peak(restarts):
            tracemalloc.start()
            try:
                ib_fixed_point(j, 2.0, card_u=911, restarts=restarts)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(10) <= 1.5 * peak(0)


HISTORY_TABLES = {
    "dsbs": dsbs(0.1),
    "random3x3": random_joint(3, 3, seed=0),
    "random4x3": random_joint(4, 3, seed=2),
    "dsbs8x8": random_refinement(dsbs(0.1), 8, 8, seed=3)[0],
    # P(u) and P(u) P(y) underflow to zero on some kernels
    "underflow": validate_and_trim([[1.0, 3.54e-146], [8.94e-130, 0.0]]),
}


class TestIbHistory:
    """Each run of a lockstep `_ib_run` stack is the run alone, bit for bit,
    and ``history[c]`` holds the pairs of the kernels the runs held after
    ``c`` iterations."""

    BETAS = (1.5, 2.0, 5.0, 20.0)

    @pytest.mark.parametrize("cap", ["at_end", "every_cycle", "mid_run"])
    @pytest.mark.parametrize("restarts", [0, 10])
    @pytest.mark.parametrize("table", sorted(HISTORY_TABLES))
    def test_batched_history_is_the_per_cycle_one(self, table, restarts, cap,
                                                  monkeypatch):
        j = HISTORY_TABLES[table]
        px, py = marginals(j)
        pygx = conditional_kernel(j).k
        card = j.nx + 1
        # the starts and multipliers of `_ib_solve` over BETAS
        copy = np.arange(card) == np.minimum(np.arange(j.nx), card - 1)[:, None]
        inits = [copy * 1.0, *np.random.default_rng(0).dirichlet(
            np.ones(card), size=(restarts, j.nx))]
        stack = np.stack([q for _ in self.BETAS for q in inits])
        beta = np.repeat(self.BETAS, len(inits))

        def run(idxs=slice(None)):
            return infosep.ib._ib_run(stack[idxs], px, pygx, py, beta[idxs])

        q, conv, history, cycles = run()
        longest = int(cycles.max())
        assert len(history) == longest + 1
        if cap == "every_cycle":
            # a cap of c iterations returns the kernels held after c
            for c in range(longest + 1):
                monkeypatch.setattr(infosep.ib, "MAX_ITERS", c)
                held = run()[0]
                np.testing.assert_array_equal(
                    infosep.ib._ib_pairs(held, px, px[:, None] * pygx, py),
                    history[c], err_msg=str(c))
            return
        if cap == "mid_run":
            # the longest run is cut beside runs that end by themselves
            monkeypatch.setattr(infosep.ib, "MAX_ITERS", longest // 2)
            q, conv, history, cycles = run()
            assert not conv.all() and len(history) == longest // 2 + 1
        for r in range(len(stack)):
            alone = run(slice(r, r + 1))
            np.testing.assert_array_equal(alone[0][0], q[r])
            assert alone[1][0] == conv[r] and alone[3][0] == cycles[r]
            np.testing.assert_array_equal(alone[2][:, 0],
                                          history[:cycles[r] + 1, r])
            # a stopped run repeats its last pair
            assert (history[cycles[r]:, r] == history[cycles[r], r]).all()

    def test_kept_kernels_stay_within_the_budget(self, monkeypatch):
        # a run keeps only the kernels of its current iteration, so twelve
        # iterations peak where one does, up to the history's pairs: a few
        # KiB, where one more 48 x 911 kernel would take 342 KiB
        j = random_joint(48, 48, seed=0)
        # no run settles, so each makes every iteration it may
        monkeypatch.setattr(infosep.ib, "CONV_TOL", -1.0)

        def peak(max_iters):
            monkeypatch.setattr(infosep.ib, "MAX_ITERS", max_iters)
            tracemalloc.start()
            try:
                r = ib_fixed_point(j, 2.0, card_u=911, restarts=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(r.history) == max_iters + 1
            return peak

        short = peak(1)
        assert peak(12) <= short + 8 * 1024


class TestCurve:
    def test_empty_grid(self, dsbs01):
        with pytest.raises(ValueError):
            ib_curve(dsbs01, [])

    def test_envelope_monotone_and_concave(self, dsbs01):
        c = ib_curve(dsbs01, beta_grid=(1.1, 1.5, 2.0, 3.0, 5.0, 10.0))
        rs = np.array([p[0] for p in c.points])
        ths = np.array([p[1] for p in c.points])
        assert np.all(np.diff(rs) >= -1e-12)
        assert np.all(np.diff(ths) >= -1e-9)
        assert np.all(ths >= -1e-9) and np.all(ths <= c.mi + 1e-9)
        # slopes never increase along the envelope
        slopes = []
        for i in range(len(rs) - 1):
            dr = rs[i + 1] - rs[i]
            if dr > 1e-12:
                slopes.append((ths[i + 1] - ths[i]) / dr)
        assert all(s2 <= s1 + 1e-7 for s1, s2 in zip(slopes, slopes[1:]))

    def test_achieved_relevance_monotone_in_beta(self, dsbs01):
        c = ib_curve(dsbs01, beta_grid=(1.1, 1.5, 2.0, 3.0, 5.0, 10.0))
        uy = [float(sol.i_uy) for sol in c.solutions]
        assert all(b >= a - 1e-9 for a, b in zip(uy, uy[1:]))

    def test_reaches_the_saturation_corner(self, dsbs01):
        c = ib_curve(dsbs01, beta_grid=(1.5, 2.0, 5.0))
        assert c.points[-1][0] == pytest.approx(1.0, abs=1e-9)
        assert c.points[-1][1] == pytest.approx(MI_DSBS01, abs=1e-9)

    def test_identity_pair_envelope_is_diagonal(self):
        j = JointDistribution(np.eye(2) / 2)
        c = ib_curve(j, beta_grid=(1.5, 2.0, 5.0))
        assert float(theta_of_R(c, 0.5)) == pytest.approx(0.5, abs=1e-9)
        assert float(theta_of_R(c, 1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_product_envelope_is_flat(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.6, 0.4]))
        c = ib_curve(j, beta_grid=(1.5, 2.0, 5.0))
        for rate in (0.0, 0.2, 0.5):
            assert float(theta_of_R(c, rate)) <= 1e-9

    def test_envelope_below_closed_form(self, dsbs01):
        # the achieved envelope is an inner approximation of the true curve
        c = ib_curve(dsbs01, beta_grid=(1.5, 2.0, 3.0, 5.0))
        for rate in np.linspace(0.0, 1.0, 11):
            assert float(theta_of_R(c, rate)) <= (
                curve_height(0.1, float(rate)) + 1e-9)

    def test_curve_invariance_under_refinement(self, dsbs01, dsbs01_refined):
        j, s, t = dsbs01_refined
        grid = (1.5, 2.0, 5.0)
        c_raw = ib_curve(j, beta_grid=grid, seed=0)
        c_red = ib_curve(reduce_joint(j, s, t), beta_grid=grid, seed=0)
        top = c_red.saturation_rate
        for rate in np.linspace(0.0, top, 11):
            a = float(theta_of_R(c_raw, float(rate)))
            b = float(theta_of_R(c_red, float(rate)))
            assert abs(a - b) <= 5e-3


class TestThetaOfR:
    def test_zero_rate(self, dsbs01):
        c = ib_curve(dsbs01, beta_grid=(1.5, 2.0, 5.0))
        assert float(theta_of_R(c, 0.0)) <= 5e-3

    def test_saturation_at_hs(self, dsbs01):
        c = ib_curve(dsbs01, beta_grid=(1.5, 2.0, 5.0))
        assert float(theta_of_R(c, c.saturation_rate)) == pytest.approx(
            MI_DSBS01, abs=5e-3)

    def test_clamped_beyond_alphabet_entropy(self, dsbs01):
        c = ib_curve(dsbs01, beta_grid=(2.0,))
        assert float(theta_of_R(c, 50.0)) == pytest.approx(MI_DSBS01,
                                                           abs=1e-12)

    def test_negative_rate_rejected(self, dsbs01):
        c = ib_curve(dsbs01, beta_grid=(2.0,))
        for rate in (-0.1, float("nan")):
            with pytest.raises(ValueError):
                theta_of_R(c, rate)

    def test_unit_carried(self, dsbs01):
        c = ib_curve(dsbs01, beta_grid=(2.0,), unit="nats")
        v = theta_of_R(c, c.saturation_rate)
        assert v.unit == "nats"
        assert float(v) == pytest.approx(MI_DSBS01 * np.log(2.0), abs=5e-3)
