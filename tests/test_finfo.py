"""The f-information family and its reduction invariance."""

import warnings

import numpy as np
import pytest

from infosep.dist import DeterministicMap, JointDistribution, mutual_information
from infosep.errors import InsufficientStatistic, InvalidGenerator
from infosep.finfo import (
    BUILTIN_GENERATORS,
    FGenerator,
    f_information,
    get_generator,
)
from infosep.harness import verify_separability
from infosep.modal import modal_decompose

DSBS01 = np.array([[0.45, 0.05], [0.05, 0.45]])


def dirichlet_joint(nx, ny, seed, alpha=1.0):
    rng = np.random.default_rng(seed)
    return JointDistribution(
        rng.dirichlet(np.full(nx * ny, alpha)).reshape(nx, ny))


class TestGeneratorRegistry:
    def test_builtins_present(self):
        assert set(BUILTIN_GENERATORS) == {
            "kl", "reverse-kl", "chi2", "tv", "hellinger2"}

    def test_lookup_by_name(self):
        assert get_generator("kl").name == "kl"

    def test_unknown_name(self):
        with pytest.raises(InvalidGenerator):
            get_generator("alpha-div")

    def test_generator_values(self):
        u = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(get_generator("kl").fn(u),
                                   u * np.log(u), atol=1e-15)
        np.testing.assert_allclose(get_generator("reverse-kl").fn(u),
                                   -np.log(u), atol=1e-15)
        np.testing.assert_allclose(get_generator("chi2").fn(u),
                                   (u - 1.0) ** 2, atol=1e-15)
        np.testing.assert_allclose(get_generator("tv").fn(u),
                                   np.abs(u - 1.0) / 2.0, atol=1e-15)
        np.testing.assert_allclose(get_generator("hellinger2").fn(u),
                                   (np.sqrt(u) - 1.0) ** 2, atol=1e-15)

    def test_value_at_zero(self):
        assert get_generator("kl").value_at_zero == 0.0
        assert get_generator("reverse-kl").value_at_zero == np.inf
        assert get_generator("chi2").value_at_zero == 1.0
        assert get_generator("tv").value_at_zero == 0.5
        assert get_generator("hellinger2").value_at_zero == 1.0

    def test_f_of_one_enforced(self):
        with pytest.raises(InvalidGenerator):
            FGenerator("shifted", lambda u: u, value_at_zero=0.0)

    def test_negative_limit_at_zero_rejected(self):
        with pytest.raises(InvalidGenerator):
            FGenerator("chi2-", lambda u: (u - 1.0) ** 2, value_at_zero=-1.0)

    def test_nonconvex_generator_warns(self):
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            FGenerator("wiggle", lambda u: np.sin(u - 1.0), value_at_zero=0.0)
        assert any("convex" in str(w.message) for w in log)

    def test_custom_convex_generator_accepted(self):
        gen = FGenerator("quartic", lambda u: (u - 1.0) ** 4, value_at_zero=1.0)
        j = JointDistribution(DSBS01)
        assert f_information(j, gen).value > 0.0


class TestFInformationValues:
    def test_product_zero_for_all(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.6, 0.4]))
        for gen in BUILTIN_GENERATORS.values():
            assert f_information(j, gen).value == pytest.approx(0.0, abs=1e-12)

    def test_dsbs_chi2(self):
        j = JointDistribution(DSBS01)
        assert f_information(j, "chi2").value == pytest.approx(0.64, abs=1e-12)

    def test_dsbs_kl_matches_mi(self):
        j = JointDistribution(DSBS01)
        assert f_information(j, "kl").value == pytest.approx(
            0.5310044064107188, abs=1e-12)

    def test_dsbs_reverse_kl(self):
        j = JointDistribution(DSBS01)
        assert f_information(j, "reverse-kl").value == pytest.approx(
            0.7369655941662061, abs=1e-12)

    def test_dsbs_tv(self):
        j = JointDistribution(DSBS01)
        assert f_information(j, "tv").value == pytest.approx(0.4, abs=1e-12)

    def test_dsbs_hellinger2(self):
        j = JointDistribution(DSBS01)
        assert f_information(j, "hellinger2").value == pytest.approx(
            0.2111456180001683, abs=1e-12)

    def test_kl_equals_mi_in_both_units(self):
        for seed in range(20):
            j = dirichlet_joint(4, 5, seed)
            for unit in ("bits", "nats"):
                assert f_information(j, "kl", unit).value == pytest.approx(
                    mutual_information(j, unit).value, abs=1e-12)

    def test_chi2_is_dimensionless(self):
        j = JointDistribution(DSBS01)
        assert f_information(j, "chi2", "bits").value == (
            f_information(j, "chi2", "nats").value)

    def test_reverse_kl_infinite_on_zero_cell(self):
        p = np.array([[0.5, 0.0], [0.25, 0.25]])
        j = JointDistribution(p)
        assert f_information(j, "reverse-kl").value == np.inf
        # the finite generators stay finite on the same support
        assert np.isfinite(f_information(j, "kl").value)
        assert np.isfinite(f_information(j, "chi2").value)

    def test_chi2_spectrum_identity(self):
        for seed in range(30):
            j = dirichlet_joint(5, 6, seed)
            md = modal_decompose(j)
            assert f_information(j, "chi2").value == pytest.approx(
                float(np.sum(md.sigmas ** 2)), abs=1e-9)

    def test_tv_and_hellinger_ranges(self):
        for seed in range(30):
            j = dirichlet_joint(4, 4, seed, alpha=0.5)
            tv = f_information(j, "tv").value
            h2 = f_information(j, "hellinger2").value
            assert -1e-12 <= tv <= 1.0 + 1e-12
            assert -1e-12 <= h2 <= 2.0 + 1e-12

    def test_monotone_under_any_pushforward(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            j = dirichlet_joint(6, 6, int(rng.integers(1 << 30)))
            s = DeterministicMap(np.array([0, 0, 1, 1, 2, 2]))
            t = DeterministicMap(rng.permutation([0, 0, 0, 1, 1, 2]))
            from infosep.dist import pushforward
            red = pushforward(j, s, t)
            for gen in BUILTIN_GENERATORS.values():
                a = f_information(j, gen).value
                b = f_information(red, gen).value
                assert b <= a + 1e-12


def f_invariance(j, s, t, generators=tuple(BUILTIN_GENERATORS)):
    """The strict f-information battery: (report, gap per generator name)."""
    rep = verify_separability(j, s, t, measures=[f"f:{g}" for g in generators],
                              strict=True)
    return rep, {r.measure[2:]: r.gap for r in rep.rows}


class TestInvarianceCheck:
    def test_identity_maps_zero_gaps(self):
        j = JointDistribution(DSBS01)
        rep, gaps = f_invariance(
            j, DeterministicMap.identity(2), DeterministicMap.identity(2))
        assert rep.overall
        assert all(g == 0.0 for g in gaps.values())

    def test_refined_dsbs_all_builtins(self, dsbs01_refined):
        j, s, t = dsbs01_refined
        rep, gaps = f_invariance(j, s, t)
        assert rep.overall
        assert set(gaps) == set(BUILTIN_GENERATORS)
        assert all(g <= 1e-10 for g in gaps.values())

    def test_random_base_refined_tv(self):
        from infosep.harness import random_joint, random_refinement
        base = random_joint(3, 3, seed=8)
        j, s, t = random_refinement(base, 9, 9, seed=9)
        rep, gaps = f_invariance(j, s, t, generators=("tv",))
        assert rep.overall
        assert gaps["tv"] <= 1e-10

    def test_insufficient_maps_raise(self):
        j = JointDistribution(np.eye(2) / 2)
        with pytest.raises(InsufficientStatistic):
            f_invariance(
                j, DeterministicMap.constant(2), DeterministicMap.identity(2))

    def test_infinite_values_on_both_sides_agree(self):
        # zero cell survives reduction: inf == inf counts as gap 0
        p = np.array([[0.25, 0.25, 0.0], [0.125, 0.125, 0.25]])
        j = JointDistribution(p)
        from infosep.modal import minimal_sufficient_maps
        s, t = minimal_sufficient_maps(j)
        rep, _ = f_invariance(j, s, t)
        assert rep.overall
