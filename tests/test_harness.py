"""Refinement generation, separability verification, sampling pipeline."""

from unittest import mock

import numpy as np
import pytest

import infosep.common_info
from infosep.dist import (
    DeterministicMap,
    JointDistribution,
    conditional_mutual_information,
    mutual_information,
)
from infosep.errors import InsufficientStatistic
from infosep.harness import (
    DEFAULT_MEASURES,
    dsbs,
    random_joint,
    random_refinement,
    simulate_and_estimate,
    verify_separability,
)
from infosep.modal import check_sufficiency, minimal_sufficient_maps, modal_decompose
from oracles import cube_cmi, refines

#: solver settings that keep the battery fast
CHEAP = dict(seed=0, restarts=3, wyner_card=4)


class TestGenerators:
    def test_dsbs_build(self):
        j = dsbs(0.1)
        np.testing.assert_allclose(j.p, [[0.45, 0.05], [0.05, 0.45]],
                                   atol=1e-15)

    def test_dsbs_rejects_bad_flip(self):
        with pytest.raises(ValueError):
            dsbs(-0.1)
        with pytest.raises(ValueError):
            dsbs(1.1)

    def test_random_joint_deterministic(self):
        a = random_joint(2, 2, seed=7)
        b = random_joint(2, 2, seed=7)
        np.testing.assert_array_equal(a.p, b.p)

    def test_random_joint_seed_sensitivity(self):
        a = random_joint(2, 2, seed=7)
        b = random_joint(2, 2, seed=8)
        assert not np.array_equal(a.p, b.p)

    def test_random_joint_always_valid(self):
        for seed in range(10):
            j = random_joint(5, 3, seed=seed)
            assert j.p.sum() == pytest.approx(1.0, abs=1e-12)
            assert j.p.sum(axis=1).min() > 0.0
            assert j.p.sum(axis=0).min() > 0.0


class TestRefinement:
    def test_trivial_splits_identity(self, dsbs01):
        j, s, t = random_refinement(dsbs01, 2, 2)
        np.testing.assert_allclose(j.p, dsbs01.p, atol=1e-15)
        assert list(s.assignment) == [0, 1]
        assert list(t.assignment) == [0, 1]

    def test_split_x_only(self, dsbs01):
        j, s, t = random_refinement(dsbs01, 4, 2)
        assert j.nx == 4 and j.ny == 2
        assert list(t.assignment) == [0, 1]
        assert mutual_information(j).value == pytest.approx(
            0.5310044064107188, abs=1e-12)

    def test_block_structure(self, dsbs01_refined):
        j, s, t = dsbs01_refined
        base = dsbs(0.1)
        # P(x,y) = P_ST(s(x), t(y)) * wx(x) * wy(y) inside each block
        ps = np.zeros(2)
        np.add.at(ps, s.assignment, j.p.sum(axis=1))
        np.testing.assert_allclose(ps, [0.5, 0.5], atol=1e-12)
        red = np.zeros((2, 2))
        np.add.at(red, (s.assignment[:, None], t.assignment[None, :]), j.p)
        np.testing.assert_allclose(red, base.p, atol=1e-12)

    def test_refinement_maps_always_sufficient(self):
        for seed in range(8):
            base = random_joint(3, 3, seed=seed)
            j, s, t = random_refinement(base, 8, 7, seed=seed)
            v = check_sufficiency(j, s, t)
            assert v.sufficient
            assert v.max_ratio_gap <= 1e-12

    def test_spectrum_matches_base(self):
        base = random_joint(3, 3, seed=40)
        j, s, t = random_refinement(base, 9, 9, seed=41)
        sig_base = modal_decompose(base).sigmas
        sig_ref = modal_decompose(j).sigmas
        assert sig_base.shape == sig_ref.shape
        np.testing.assert_allclose(sig_ref, sig_base, atol=1e-9)

    def test_three_equivalent_sufficiency_statements(self):
        """Ratio equality, vanishing conditional MI, and the two-step chain
        describe the same property on every refinement instance."""
        for seed in range(5):
            base = random_joint(2, 3, seed=seed)
            j, s, t = random_refinement(base, 5, 6, seed=seed)
            v = check_sufficiency(j, s, t)
            assert v.max_ratio_gap <= 1e-12
            assert cube_cmi(j, s, 0) <= 1e-10
            assert cube_cmi(j, t, 1) <= 1e-10
            # X - S - T - Y: I(X; T | S) = 0 and I(S; Y | T) = 0
            nx, ny = j.nx, j.ny
            pxst = np.zeros((nx, s.image_size, t.image_size))
            for x in range(nx):
                for y in range(ny):
                    pxst[x, s.assignment[x], t.assignment[y]] += j.p[x, y]
            assert conditional_mutual_information(
                pxst.transpose(0, 2, 1)).value <= 1e-10
            psty = np.zeros((s.image_size, ny, t.image_size))
            for x in range(nx):
                for y in range(ny):
                    psty[s.assignment[x], y, t.assignment[y]] += j.p[x, y]
            assert conditional_mutual_information(psty).value <= 1e-10

    def test_minimal_maps_factor_through_refinement(self):
        for seed in range(5):
            base = random_joint(2, 2, alpha=2.0, seed=seed)
            j, s, t = random_refinement(base, 5, 5, seed=seed)
            ms, mt = minimal_sufficient_maps(j)
            assert refines(s, ms)
            assert refines(t, mt)

    def test_random_refinement_deterministic(self, dsbs01):
        a = random_refinement(dsbs01, 5, 5, seed=2)
        b = random_refinement(dsbs01, 5, 5, seed=2)
        np.testing.assert_array_equal(a[0].p, b[0].p)
        for ma, mb in zip(a[1:], b[1:]):
            np.testing.assert_array_equal(ma.assignment, mb.assignment)


@pytest.fixture(scope="module")
def full_battery(dsbs01_refined):
    """The default battery on the 4x4 refinement of DSBS(0.1)."""
    j, s, t = dsbs01_refined
    with mock.patch.object(infosep.common_info, "MAX_ITERS", 300):
        return verify_separability(j, s, t, **CHEAP)


class TestVerifySeparability:
    def test_refined_dsbs_full_battery(self, full_battery):
        rep = full_battery
        assert rep.overall
        assert rep.sufficient
        names = [row.measure for row in rep.rows]
        assert "mi" in names and "gk" in names and "wyner" in names
        assert any(n.startswith("ib[") for n in names)
        assert any(n.startswith("theta[") for n in names)
        for row in rep.rows:
            assert row.passed, row
            assert row.gap <= row.tol

    def test_row_tolerances(self, full_battery):
        # exact measures must agree to 1e-9, solver-based ones to 5e-3
        for row in full_battery.rows:
            exact = row.measure in ("mi", "gk") or row.measure.startswith("f:")
            assert exact or row.measure.startswith(("wyner", "ib[", "theta["))
            assert row.tol == (1e-9 if exact else 5e-3), row

    def test_strict_aggregates_once(self, dsbs01_refined, pushforward_calls):
        j, s, t = dsbs01_refined
        rep = verify_separability(j, s, t, measures=("mi", "gk"), strict=True,
                                  **CHEAP)
        assert rep.overall
        assert len(pushforward_calls) == 1

    def test_insufficient_maps_reported_not_raised(self):
        j = JointDistribution(np.eye(2) / 2)
        rep = verify_separability(j, DeterministicMap.constant(2),
                                  DeterministicMap.identity(2),
                                  measures=("mi",), **CHEAP)
        assert not rep.sufficient
        assert not rep.overall
        row = rep.rows[0]
        assert row.measure == "mi"
        assert row.gap == pytest.approx(1.0, abs=1e-9)
        assert not row.passed

    def test_strict_mode_raises(self):
        j = JointDistribution(np.eye(2) / 2)
        with pytest.raises(InsufficientStatistic):
            verify_separability(j, DeterministicMap.constant(2),
                                DeterministicMap.identity(2),
                                measures=("mi",), strict=True, **CHEAP)

    def test_product_any_maps_pass(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.5, 0.5]))
        rep = verify_separability(j, DeterministicMap.constant(2),
                                  DeterministicMap.constant(2),
                                  measures=("mi", "f:tv", "gk"), **CHEAP)
        assert rep.overall

    def test_measure_subset_selection(self, dsbs01_refined):
        j, s, t = dsbs01_refined
        rep = verify_separability(j, s, t, measures=("mi", "f:chi2"),
                                  **CHEAP)
        assert [row.measure for row in rep.rows] == ["mi", "f:chi2"]

    def test_report_dict_round_trip(self, dsbs01_refined):
        import json
        j, s, t = dsbs01_refined
        rep = verify_separability(j, s, t, measures=("mi",), **CHEAP)
        doc = rep.to_dict()
        assert doc["overall"] is True
        assert doc["rows"][0]["measure"] == "mi"
        json.dumps(doc)  # must be serializable as-is

    def test_default_measures_cover_all_families(self):
        families = {m.split(":")[0].split("[")[0] for m in DEFAULT_MEASURES}
        assert families == {"mi", "f", "gk", "wyner", "ib", "theta"}


class TestSimulateAndEstimate:
    def test_aggregation_identity(self, dsbs01_refined):
        j, s, t = dsbs01_refined
        sim = simulate_and_estimate(j, s, t, n=5000, seed=3)
        agg = np.zeros_like(sim.counts_reduced)
        np.add.at(agg, (s.assignment[:, None].repeat(j.ny, axis=1),
                        np.broadcast_to(t.assignment, (j.nx, j.ny))),
                  sim.counts_raw)
        np.testing.assert_array_equal(agg, sim.counts_reduced)
        assert sim.counts_raw.sum() == 5000
        assert sim.counts_reduced.shape == (s.image_size, t.image_size)

    def test_deterministic_given_seed(self, dsbs01_refined):
        j, s, t = dsbs01_refined
        a = simulate_and_estimate(j, s, t, n=1000, seed=11)
        b = simulate_and_estimate(j, s, t, n=1000, seed=11)
        np.testing.assert_array_equal(a.counts_raw, b.counts_raw)
        assert float(a.mi_plugin_raw) == float(b.mi_plugin_raw)

    def test_single_sample_gives_zero_estimates(self, dsbs01_refined):
        j, s, t = dsbs01_refined
        sim = simulate_and_estimate(j, s, t, n=1, seed=0)
        assert float(sim.mi_plugin_raw) == 0.0
        assert float(sim.mi_plugin_reduced) == 0.0

    def test_large_sample_both_estimates_close(self, dsbs01):
        ident = minimal_sufficient_maps(dsbs01)
        sim = simulate_and_estimate(dsbs01, *ident, n=100_000, seed=2024)
        assert float(sim.mi_true) == pytest.approx(0.5310044064107188,
                                                   abs=1e-12)
        assert abs(float(sim.mi_plugin_raw) - 0.53100) <= 0.02
        assert abs(float(sim.mi_plugin_reduced) - 0.53100) <= 0.02

    def test_reduced_estimate_has_the_smaller_bias(self, dsbs01):
        # 8x8 refinement of a 2x2 base at n = 1,000: the first-order (Miller)
        # biases are 49 / 2000 nats raw and 1 / 2000 reduced
        j, s, t = random_refinement(dsbs01, 8, 8, seed=3)
        n = 1000
        raw, red = np.array([
            (sim.mi_plugin_raw.value - sim.mi_true.value,
             sim.mi_plugin_reduced.value - sim.mi_true.value)
            for sim in (simulate_and_estimate(j, s, t, n=n, seed=k, unit="nats")
                        for k in range(100))]).T
        miller_raw, miller_red = 49 / (2 * n), 1 / (2 * n)
        # merging symbols of the empirical table never raises its MI
        assert (raw >= red).all()
        assert 0.5 * miller_raw < raw.mean() < 1.5 * miller_raw
        excess, miller_excess = (raw - red).mean(), miller_raw - miller_red
        assert 0.5 * miller_excess < excess < 1.5 * miller_excess
        assert abs(red.mean()) < 0.25 * miller_raw

    def test_estimates_in_report_unit(self, dsbs01_refined):
        j, s, t = dsbs01_refined
        sim = simulate_and_estimate(j, s, t, n=2000, seed=5, unit="nats")
        assert sim.mi_true.unit == "nats"
        assert sim.mi_plugin_raw.unit == "nats"
