"""Gacs-Korner and Wyner common information."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import infosep.common_info
from infosep.common_info import (
    MIN_WYNER_CELL,
    MOMENTUM_WAIT,
    _renormalize,
    _start_kernel,
    _wyner_eval,
    _wyner_grad,
    _wyner_matrices,
    _wyner_stage,
    gacs_korner,
    wyner_solve,
)
from infosep.dist import (
    DeterministicMap,
    JointDistribution,
    conditional_mutual_information,
    entropy,
    lift_conditional,
    marginals,
    mutual_information,
    validate_and_trim,
)
from infosep.errors import DimensionError, NumericalError
from infosep.harness import dsbs, random_joint, random_refinement
from infosep.modal import minimal_sufficient_maps, reduce_joint
from oracles import NoFeasiblePoint, gk_spectral, wyner_grid_oracle

DSBS01 = np.array([[0.45, 0.05], [0.05, 0.45]])


def binary_entropy(p):
    return -(p * np.log2(p) + (1 - p) * np.log2(1 - p))


def wyner_dsbs(flip):
    """Closed-form Wyner value of DSBS(flip): the crossover factors through
    two identical binary symmetric channels with parameter a,
    2a(1-a) = flip, and the optimum is 1 + h(flip) - 2 h(a)."""
    a = (1.0 - np.sqrt(1.0 - 2.0 * flip)) / 2.0
    return 1.0 + binary_entropy(flip) - 2.0 * binary_entropy(a)


WYNER_DSBS01 = wyner_dsbs(0.1)


def block_joint(masses, sizes, seed=0):
    """Blocks with given masses; random positive table inside each block."""
    rng = np.random.default_rng(seed)
    nx = sum(s[0] for s in sizes)
    ny = sum(s[1] for s in sizes)
    p = np.zeros((nx, ny))
    ox = oy = 0
    for mass, (bx, by) in zip(masses, sizes):
        cell = rng.dirichlet(np.ones(bx * by)).reshape(bx, by)
        p[ox:ox + bx, oy:oy + by] = mass * cell
        ox += bx
        oy += by
    return JointDistribution(p)


def zeroed_cell(seed, cell):
    """``random_joint(3, 3, seed)`` with one cell set to zero."""
    p = random_joint(3, 3, seed=seed).p.copy()
    p.ravel()[cell] = 0.0
    return validate_and_trim(p)


def two_block_uniform():
    p = np.zeros((4, 4))
    p[:2, :2] = 0.125
    p[2:, 2:] = 0.125
    return JointDistribution(p)


class TestGacsKorner:
    def test_product_zero(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.5, 0.5]))
        r = gacs_korner(j)
        assert r.k == 0
        assert r.value.value == 0.0
        assert r.common_map_x.image_size == 1

    def test_full_support_dsbs_zero(self, dsbs01):
        r = gacs_korner(dsbs01)
        assert r.k == 0
        assert r.value.value == 0.0

    def test_identity_on_four_symbols(self):
        j = JointDistribution(np.eye(4) / 4)
        r = gacs_korner(j)
        assert r.k == 3
        assert r.value.value == pytest.approx(2.0, abs=1e-12)

    def test_two_block_uniform_exactly_one_bit(self):
        r = gacs_korner(two_block_uniform())
        assert r.k == 1
        assert r.value.value == 1.0
        assert r.component_count == 2

    def test_three_blocks(self):
        j = block_joint([0.5, 0.25, 0.25], [(2, 2), (2, 1), (1, 2)], seed=4)
        r = gacs_korner(j)
        assert r.value.value == pytest.approx(1.5, abs=1e-9)
        assert r.k == 2

    def test_common_maps_agree_on_support(self):
        j = block_joint([0.4, 0.6], [(2, 3), (3, 2)], seed=1)
        r = gacs_korner(j)
        fx = r.common_map_x.assignment
        gy = r.common_map_y.assignment
        for x in range(j.nx):
            for y in range(j.ny):
                if j.p[x, y] > 0.0:
                    assert fx[x] == gy[y]

    def test_value_is_entropy_of_common_part(self):
        j = block_joint([0.3, 0.45, 0.25], [(1, 2), (2, 2), (2, 1)], seed=2)
        r = gacs_korner(j)
        px, _ = marginals(j)
        masses = np.zeros(r.common_map_x.image_size)
        np.add.at(masses, r.common_map_x.assignment, px)
        assert r.value.value == pytest.approx(entropy(masses).value, abs=1e-12)

    def test_bounded_by_min_entropy(self):
        for seed in range(10):
            j = block_joint([0.5, 0.5], [(2, 1), (1, 3)], seed=seed)
            r = gacs_korner(j)
            px, py = marginals(j)
            assert r.value.value <= min(entropy(px).value,
                                        entropy(py).value) + 1e-9


class TestComponentOracle:
    """The support-graph route, and its agreement with the spectral oracle."""

    def test_dsbs_single_component(self, dsbs01):
        r = gacs_korner(dsbs01)
        assert r.component_count == 1
        assert r.value.value == 0.0

    def test_connected_support_gives_positive_zero(self, dsbs01):
        assert math.copysign(1.0, gacs_korner(dsbs01).value.value) == 1.0

    def test_two_block(self):
        r = gacs_korner(two_block_uniform())
        assert r.component_count == 2
        assert r.value.value == 1.0

    def test_multi_hop_component_first_occurrence_labels(self):
        # x0-y1-x2-y3 and x1-y0-x3-y2 are two paths of three hops; x0 and y0
        # lie in different components
        p = np.zeros((4, 4))
        for x, y in [(0, 1), (2, 1), (2, 3), (1, 0), (3, 0), (3, 2)]:
            p[x, y] = 1.0 / 6.0
        r = gacs_korner(JointDistribution(p))
        assert r.component_count == 2
        assert r.common_map_x.assignment.tolist() == [0, 1, 0, 1]
        assert r.common_map_y.assignment.tolist() == [1, 0, 1, 0]
        assert r.value.value == pytest.approx(1.0, abs=1e-12)

    def test_three_block_masses(self):
        j = block_joint([0.5, 0.25, 0.25], [(2, 2), (1, 2), (2, 1)], seed=6)
        r = gacs_korner(j)
        assert r.value.value == pytest.approx(1.5, abs=1e-12)

    def test_agreement_with_spectral_on_random_blocks(self):
        rng = np.random.default_rng(2718)
        for case in range(25):
            nblocks = 1 + case % 4
            masses = rng.dirichlet(np.full(nblocks, 2.0))
            sizes = [(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
                     for _ in range(nblocks)]
            j = block_joint(masses, sizes, seed=case)
            a = gk_spectral(j)
            b = gacs_korner(j)
            assert a.value.value == pytest.approx(b.value.value, abs=1e-9)
            assert a.component_count == b.component_count
            # identical partitions up to relabeling
            pa = a.common_map_x.assignment
            pb = b.common_map_x.assignment
            for i in range(j.nx):
                for k in range(j.nx):
                    assert (pa[i] == pa[k]) == (pb[i] == pb[k])

    @staticmethod
    def _assert_same(a, b):
        assert (a.value.value, a.k, a.component_count) == \
            (b.value.value, b.k, b.component_count)
        assert a.common_map_x.assignment.tolist() == b.common_map_x.assignment.tolist()
        assert a.common_map_y.assignment.tolist() == b.common_map_y.assignment.tolist()

    def test_near_unit_mode_on_connected_support(self):
        # sigma = 1 - 2e-9 lies within the oracle's UNIT_TOL of 1, yet the
        # support is connected, so the common part is trivial
        j = validate_and_trim([[1.0, 1e-9], [1e-9, 1.0]])
        r = gacs_korner(j)
        assert (r.value.value, r.k, r.component_count) == (0.0, 0, 1)
        self._assert_same(gk_spectral(j), r)

    @pytest.mark.parametrize("eps", [1e-7, 1e-9, 1e-11])
    def test_two_blocks_with_off_block_leakage(self, eps):
        p = block_joint([0.4, 0.6], [(2, 2), (2, 3)], seed=0).p.copy()
        p[p == 0.0] = eps
        j = validate_and_trim(p)
        self._assert_same(gk_spectral(j), gacs_korner(j))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("eps", [1e-9, 1e-11, 1e-13])
    def test_mixed_exact_and_near_unit_modes_never_read_low(self, eps, seed):
        # blocks 0 and 1 leak into each other through two cells of mass eps:
        # an exact unit mode and a near one within 1e-8 of it, whose
        # features the oracle's SVD mixes; the near mode differs across the
        # leaking cells, so it falls outside the null space of the
        # support-cell differences and the oracle still finds the exact mode
        p = block_joint([0.3, 0.3, 0.4], [(2, 2)] * 3, seed=seed).p.copy()
        p[0, 2] = p[3, 1] = eps
        j = validate_and_trim(p)
        self._assert_same(gk_spectral(j), gacs_korner(j))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scale", [1e-60, 1e-100])
    def test_tiny_mass_symbol_never_reads_low(self, scale, seed):
        # x1 keeps a mass near scale, so the spectral oracle loses the unit
        # mode's feature on it to rounding and raises; the support graph
        # still has its two blocks
        p = block_joint([0.5, 0.5], [(2, 2), (2, 2)], seed=seed).p.copy()
        p[1] *= scale
        j = validate_and_trim(p)
        r = gacs_korner(j)
        assert (r.k, r.component_count) == (1, 2)
        assert r.common_map_x.assignment.tolist() == [0, 0, 1, 1]
        assert r.common_map_y.assignment.tolist() == [0, 0, 1, 1]
        assert r.value.value == pytest.approx(
            binary_entropy(j.p[:2].sum()), abs=1e-12)

    def test_agreement_with_spectral_over_wide_cell_range(self):
        # cells from 1 down to 1e-300 give symbols of tiny mass and
        # near-unit modes; wherever the oracle answers, the two routes agree
        # to the bit
        cells = [0.0, 0.5, 1.0, 1e-3, 1e-9, 1e-40, 1e-160, 1e-200, 1e-300]
        rng = np.random.default_rng(1973)
        answered = 0
        for _ in range(400):
            p = rng.choice(cells, size=tuple(rng.integers(1, 6, size=2)))
            if not p.any():
                continue
            j = validate_and_trim(p)
            r = gacs_korner(j)
            try:
                a = gk_spectral(j)
            except NumericalError:
                continue
            self._assert_same(a, r)
            answered += 1
        assert answered >= 360

    def test_invariance_under_refinement(self):
        base = block_joint([0.5, 0.5], [(1, 1), (1, 1)], seed=0)
        refined, s, t = random_refinement(base, 4, 5, seed=13)
        ra = gacs_korner(refined)
        rb = gacs_korner(reduce_joint(refined, s, t))
        assert ra.k == rb.k
        assert ra.value.value == pytest.approx(rb.value.value, abs=1e-9)


class TestWynerSolve:
    def test_product_near_zero(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.5, 0.5]))
        r = wyner_solve(j, restarts=4, seed=0)
        assert r.converged
        assert float(r.value) <= 1e-4

    def test_identity_one_bit(self):
        j = JointDistribution(np.eye(2) / 2)
        r = wyner_solve(j, restarts=4, seed=0)
        assert r.converged
        assert float(r.value) == pytest.approx(1.0, abs=1e-6)

    def test_dsbs_closed_form(self, dsbs01):
        r = wyner_solve(dsbs01, card_w=2, restarts=10, seed=0)
        assert r.converged
        assert float(r.value) == pytest.approx(WYNER_DSBS01, abs=1e-6)
        assert float(r.markov_residual) <= 1e-6

    @pytest.mark.parametrize("flip", [0.05, 0.1])
    def test_dsbs_closed_form_from_the_copy_starts(self, flip):
        # the benchmark's warm-up solve; momentum from the first step leaves
        # the copy starts in a worse basin (0.99995 bits at flip 0.1)
        r = wyner_solve(dsbs(flip), card_w=2, restarts=0)
        assert float(r.value) == pytest.approx(wyner_dsbs(flip), abs=1e-6)

    def test_random_3x3_stages_end_by_themselves(self):
        # plain descent stops at the MAX_ITERS cap here, at 0.951942 bits
        r = wyner_solve(random_joint(3, 3, seed=0), restarts=0)
        assert r.converged
        assert float(r.value) <= 0.9420765

    def test_reductions_of_refinements_take_the_base_path(self):
        # a reduced table equals its base only up to summation rounding;
        # the descent reads both rounded to 40 mantissa bits
        base = random_joint(3, 3, seed=1)
        want = float(wyner_solve(base, restarts=2, seed=0).value)
        for seed in range(3):
            raw, _, _ = random_refinement(base, 8, 7, seed=seed)
            red = reduce_joint(raw, *minimal_sufficient_maps(raw))
            assert red.p.shape == base.p.shape
            got = float(wyner_solve(red, restarts=2, seed=0).value)
            assert got == pytest.approx(want, abs=1e-12)

    def test_iteration_cap_reports_unconverged(self, dsbs01, monkeypatch):
        # five steps per stage leave the descent far from a stationary point;
        # the value is still a certified bound, just a loose one
        full = wyner_solve(dsbs01, card_w=2, restarts=2, seed=0)
        monkeypatch.setattr(infosep.common_info, "MAX_ITERS", 5)
        capped = wyner_solve(dsbs01, card_w=2, restarts=2, seed=0)
        assert not capped.converged
        assert WYNER_DSBS01 - 1e-12 <= float(capped.value) <= 1.0
        assert full.converged
        assert float(full.value) < float(capped.value)

    @pytest.mark.parametrize("j", [
        block_joint([0.5, 0.5], [(2, 2), (2, 2)], seed=0),
        block_joint([0.3, 0.7], [(2, 3), (3, 2)], seed=1),
        block_joint([0.5, 0.5], [(1, 1), (3, 3)], seed=4),
        zeroed_cell(0, 1),
        zeroed_cell(2, 1),
    ], ids=["blocks2x2", "blocks2x3", "blocks1x1", "zero-cell-0", "zero-cell-2"])
    def test_bound_is_tight_with_zero_cells(self, j):
        # the certificate's repair must not drop every atom on a table with
        # zero cells, which would leave only the copy bound min(H(X), H(Y))
        r = wyner_solve(j, restarts=2, seed=0)
        px, py = marginals(j)
        cap = min(entropy(px).value, entropy(py).value)
        assert mutual_information(j).value - 1e-12 <= float(r.value)
        assert float(r.value) <= cap - 0.1
        assert float(r.markov_residual) <= 1e-12

    @pytest.mark.parametrize("seed, cell, upper, lower", [
        (0, 0, 0.821667, 0.816528), (1, 6, 0.328844, 0.325548),
        (1, 7, 0.311983, 0.295564), (3, 2, 0.997025, 0.985761)])
    def test_leaking_atoms_lose_an_entry_not_the_atom(self, seed, cell,
                                                       upper, lower):
        # dropping each atom that leaks onto the zero cell leaves exactly
        # min(H(X), H(Y)) on these tables; ``lower`` is certified by the
        # dual of the concave envelope
        j = zeroed_cell(seed, cell)
        r = wyner_solve(j, restarts=2, seed=0)
        px, py = marginals(j)
        assert lower <= float(r.value) <= upper + 1e-6
        assert float(r.value) < min(entropy(px).value, entropy(py).value)

    def test_polish_reaches_the_hard_tables_value(self):
        # the exact value is 0.0076221 bits and the dual of the concave
        # envelope certifies at least 0.0076204; a fixed 200-step EM polish
        # left 0.0166398
        r = wyner_solve(random_joint(2, 2, alpha=2.0, seed=822560579))
        assert 0.0076204 <= float(r.value) <= 0.0079

    def test_entry_cut_no_looser_than_the_atom_drop(self):
        # dropping each leaking atom gave 0.58198 bits here, and the entry
        # cut under a fixed 200-step EM polish 0.58908
        j = zeroed_cell(25, 2)
        r = wyner_solve(j, restarts=2, seed=0)
        assert mutual_information(j).value <= float(r.value) <= 0.58198

    def test_feasibility_of_accepted_result(self, dsbs01):
        r = wyner_solve(dsbs01, card_w=2, restarts=6, seed=1)
        if r.converged:
            assert float(r.markov_residual) <= 1e-6

    def test_kernel_shape_and_rows(self, dsbs01):
        r = wyner_solve(dsbs01, card_w=3, restarts=2, seed=0)
        assert r.kernel.k.shape == (4, 3 + 2)
        np.testing.assert_allclose(r.kernel.k.sum(axis=1), 1.0, atol=1e-9)

    def test_value_between_mi_and_min_entropy(self, monkeypatch):
        monkeypatch.setattr(infosep.common_info, "MAX_ITERS", 300)
        for seed in (0, 1, 2):
            j = random_joint(3, 3, seed=seed)
            r = wyner_solve(j, card_w=3, restarts=2, seed=0)
            px, py = marginals(j)
            mi = mutual_information(j).value
            cap = min(entropy(px).value, entropy(py).value)
            assert float(r.value) >= mi - max(1e-6, float(r.markov_residual))
            assert float(r.value) <= cap + 5e-3

    def test_deterministic_given_seed(self, dsbs01):
        a = wyner_solve(dsbs01, card_w=2, restarts=3, seed=7)
        b = wyner_solve(dsbs01, card_w=2, restarts=3, seed=7)
        assert float(a.value) == float(b.value)
        np.testing.assert_array_equal(a.kernel.k, b.kernel.k)

    def test_invariance_under_refinement(self):
        base = random_joint(2, 2, alpha=2.0, seed=5)
        refined, s, t = random_refinement(base, 4, 4, seed=5)
        ra = wyner_solve(refined, card_w=4, restarts=6, seed=0)
        rb = wyner_solve(base, restarts=6, seed=0)
        assert abs(float(ra.value) - float(rb.value)) <= 5e-3

    def test_reduced_kernel_lifts_to_raw_cells(self):
        raw, _, _ = random_refinement(dsbs(0.1), 8, 7, seed=4)
        s, t = minimal_sufficient_maps(raw)
        red = reduce_joint(raw, s, t, strict=True)
        r = wyner_solve(red, restarts=2, seed=0)
        cells = DeterministicMap(
            (s.assignment[:, None] * red.ny + t.assignment[None, :]).ravel(),
            red.nx * red.ny)
        q = lift_conditional(r.kernel, cells).k
        pxyw = raw.p.ravel()[:, None] * q
        i_w_xy = mutual_information(validate_and_trim(pxyw)).value
        i_xy_w = conditional_mutual_information(
            pxyw.reshape(raw.nx, raw.ny, r.kernel.k.shape[1])).value
        assert i_w_xy == pytest.approx(r.value.value, abs=1e-9)
        assert i_xy_w == pytest.approx(r.markov_residual.value, abs=1e-9)

    def test_size_limit_raises_before_solving(self):
        j = random_joint(2, 3, seed=0)
        with pytest.raises(DimensionError, match="--wyner-card"):
            wyner_solve(j, card_w=2**22 // 6 + 1, restarts=0)

    def test_size_limit_counts_certificate_columns(self, monkeypatch):
        # 256x256 cells by 64 symbols is exactly 2**22 entries, but the
        # certified kernel has 64 + 256 columns
        def refuse(*args, **kwargs):
            raise AssertionError("solver started above the size limit")

        for name in ("_start_kernel", "_wyner_stage", "_wyner_certify"):
            monkeypatch.setattr(infosep.common_info, name, refuse)
        j = random_joint(256, 256, seed=0)
        with pytest.raises(DimensionError, match="320 auxiliary symbols"):
            wyner_solve(j, card_w=64, restarts=1)

    def test_no_start_raises_before_solving(self, dsbs01):
        # card_w 1 is below both alphabet sizes: no copy start, no restarts
        with pytest.raises(DimensionError, match="--restarts"):
            wyner_solve(dsbs01, card_w=1, restarts=0)
        assert wyner_solve(dsbs01, card_w=1, restarts=1).restarts_used == 1

    def test_negative_restarts_rejected(self, dsbs01):
        with pytest.raises(ValueError, match="restarts"):
            wyner_solve(dsbs01, restarts=-1)

    def test_cells_below_the_normal_range_rejected(self):
        # P(x, y) times the kernel floor would leave the normal float range
        j = validate_and_trim([[1.0, 1.0], [1e-300, 1e-300]])
        with pytest.raises(NumericalError, match="positive cell"):
            wyner_solve(j, restarts=0)
        ok = validate_and_trim([[1.0, 1.0], [2 * MIN_WYNER_CELL] * 2])
        assert ok.p.min() >= MIN_WYNER_CELL
        assert float(wyner_solve(ok, restarts=0).value) == 0.0


@given(nx=st.integers(1, 4), ny=st.integers(1, 4), seed=st.integers(0, 10**6),
       zeros=st.lists(st.integers(0, 15), max_size=3),
       card=st.integers(1, 18), restarts=st.integers(0, 2),
       max_iters=st.sampled_from([5, 60, 400]))
def test_certificate_is_an_exact_feasible_bound(nx, ny, seed, zeros, card,
                                                restarts, max_iters):
    p = random_joint(nx, ny, seed=seed).p.copy()
    p.ravel()[[z for z in zeros if z < p.size]] = 0.0
    assume(p.sum() > 0.0)
    j = validate_and_trim(p)
    assume(restarts > 0 or card >= min(j.nx, j.ny))
    # function-scoped fixtures do not mix with @given, so the cap is
    # patched here
    with mock.patch.object(infosep.common_info, "MAX_ITERS", max_iters):
        r = wyner_solve(j, card_w=card, restarts=restarts, seed=seed)
    width = r.kernel.k.shape[1]
    assert r.card_w == card
    assert width == max(card + min(j.nx, j.ny), j.nx, j.ny)
    pxyw = j.p.reshape(-1, 1) * r.kernel.k
    np.testing.assert_allclose(pxyw.sum(axis=1), j.p.ravel(), rtol=0, atol=1e-12)
    i_xy_w = conditional_mutual_information(
        pxyw.reshape(j.nx, j.ny, width)).value
    assert i_xy_w <= 1e-12
    assert r.markov_residual.value <= 1e-12
    i_w_xy = mutual_information(validate_and_trim(pxyw)).value
    assert r.value.value == pytest.approx(i_w_xy, abs=1e-12)
    px, py = marginals(j)
    assert mutual_information(j).value - 1e-12 <= r.value.value
    assert r.value.value <= min(entropy(px).value, entropy(py).value) + 1e-12


@pytest.fixture
def zero_cell_table():
    """A 3x4 table with two empty cells, as the Wyner solver takes it."""
    p = random_joint(3, 4, seed=2).p.copy()
    p[0, 1] = p[2, 3] = 0.0
    return p / p.sum()


class TestWynerEval:
    """The penalized objective on a 3x4 table with two empty cells."""

    LAM = 7.0

    @pytest.fixture
    def problem(self, zero_cell_table):
        p = zero_cell_table
        q = np.random.default_rng(5).dirichlet(np.ones(5), size=12)
        h_xy = float((p[p > 0.0] * np.log(p[p > 0.0])).sum())
        return q, p, h_xy, _wyner_matrices(p, self.LAM)

    def test_value_and_residual(self, problem):
        q, p, h_xy, (marg, _, _) = problem
        value, resid, _ = _wyner_eval(q, marg, h_xy)
        pxyw = p.reshape(12, 1) * q
        i_w_xy = mutual_information(validate_and_trim(pxyw),
                                    unit="nats").value
        i_xy_w = conditional_mutual_information(pxyw.reshape(3, 4, 5),
                                                unit="nats").value
        assert value == pytest.approx(i_w_xy, abs=1e-12)
        assert resid == pytest.approx(i_xy_w, abs=1e-12)

    def test_gradient_is_scaled_central_difference(self, problem):
        q, p, h_xy, (marg, expand, scale) = problem
        eps = 1e-6
        grad = _wyner_grad(_wyner_eval(q, marg, h_xy)[2], expand, scale)

        def objective(qq):
            value, resid, _ = _wyner_eval(qq, marg, h_xy)
            return value + self.LAM * resid

        fd = np.zeros_like(q)
        for idx in np.ndindex(*q.shape):
            step = np.zeros_like(q)
            step[idx] = eps
            fd[idx] = (objective(q + step) - objective(q - step)) / (2 * eps)
        cells = p.ravel()
        on = cells > 0.0
        assert (~on).sum() == 2
        np.testing.assert_allclose(fd[on] / cells[on, None], grad[on],
                                   rtol=1e-5)
        assert np.all(grad[~on] == 0.0)

    def test_one_product_and_one_log_per_evaluation(self, problem,
                                                    monkeypatch):
        # a stack of 4 starts: the marginals of all of them come from one
        # product by the incidence matrix, and their logs from one call
        q, _, h_xy, (marg, _, _) = problem
        stack = np.stack([q, q[::-1], q, q[::-1]])
        logs = []
        log = np.log

        def counted_log(a, *args, **kwargs):
            logs.append(np.shape(a))
            return log(a, *args, **kwargs)

        monkeypatch.setattr(np, "log", counted_log)
        value, resid, _ = _wyner_eval(stack, marg, h_xy)
        assert logs == [(4, 12, 5), (4, 3 + 4 + 1, 5)]
        monkeypatch.undo()
        for i in range(4):
            alone = _wyner_eval(stack[i], marg, h_xy)
            assert alone[0] == value[i] and alone[1] == resid[i]


class TestWynerBatch:
    """All starts of a solve advance in lockstep as one stack."""

    def test_batched_stage_matches_each_start_alone(self, zero_cell_table,
                                                    monkeypatch):
        p = zero_cell_table
        rng = np.random.default_rng(0)
        kinds = ["x", "dirichlet", "dirichlet", "dirichlet"]
        stack = _renormalize(np.stack(
            [_start_kernel(k, 3, 4, 4, rng) for k in kinds])).reshape(4, 12, 4)
        max_iters = 120
        monkeypatch.setattr(infosep.common_info, "MAX_ITERS", max_iters)
        out, steps = _wyner_stage(stack, p, 10.0)
        # the copy start is cut by max_iters, the others stop on their own
        # past MOMENTUM_WAIT, each after a different number of steps
        assert steps[0] == max_iters
        assert len(set(steps.tolist())) == len(kinds)
        assert np.all(steps[1:] < max_iters)
        assert np.all(steps > MOMENTUM_WAIT)
        for i in range(len(kinds)):
            alone, alone_steps = _wyner_stage(stack[i:i + 1], p, 10.0)
            assert alone_steps[0] == steps[i]
            np.testing.assert_allclose(out[i], alone[0], rtol=0.0, atol=1e-12)

    def test_a_start_that_cannot_descend_ends_at_the_step_floor(
            self, zero_cell_table, monkeypatch):
        # every trial scores 1e300 worse than the start, so each one is
        # rejected and the step size halves from 0.5 until it falls below
        # 1e-13, 43 trials after the first evaluation
        evals = []
        score = _wyner_eval

        def worse(q, marg, h_xy):
            value, resid, logs = score(q, marg, h_xy)
            evals.append(q.shape)
            return (value + 1e300 if len(evals) > 1 else value), resid, logs

        monkeypatch.setattr(infosep.common_info, "_wyner_eval", worse)
        start = _renormalize(_start_kernel(
            "dirichlet", 3, 4, 4, np.random.default_rng(0))).reshape(1, 12, 4)
        out, steps = _wyner_stage(start, zero_cell_table, 10.0)
        assert steps.tolist() == [0]
        assert np.array_equal(out, start)
        assert len(evals) == 44

    @pytest.fixture(scope="class")
    def chunk_peaks(self):
        """Peak traced memory of one solve with ``MAX_ITERS`` 1, by restarts.

        16x16 cells by 4096 + 16 certified symbols is just over 2**20
        entries per start, so a chunk holds 3 starts.  restarts=0 runs the
        2 copy starts in one stack, restarts=10 runs 12 starts in chunks
        of 3.
        """
        j = random_joint(16, 16, seed=0)
        peaks = {}
        with mock.patch.object(infosep.common_info, "MAX_ITERS", 1):
            for restarts in (0, 10):
                tracemalloc.start()
                try:
                    wyner_solve(j, card_w=4096, restarts=restarts)
                    peaks[restarts] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        return peaks

    def test_memory_stays_within_chunk(self, chunk_peaks):
        # restarts=10 peaks at about 1.5 times restarts=0, where a single
        # stack of all 12 starts would need about six times it
        assert chunk_peaks[10] <= 2.25 * chunk_peaks[0]

    def test_memory_not_above_the_marginal_sum_round(self, chunk_peaks):
        # The descent round that took P(x, w), P(y, w) and P(w) as axis
        # sums peaked at 151.2 MiB (restarts=0) and 219.1 MiB (restarts=10)
        # on these solves with numpy 2.4; the incidence products may not
        # raise either.
        assert chunk_peaks[0] <= 151.2 * 2**20
        assert chunk_peaks[10] <= 219.1 * 2**20


class TestWynerGridOracle:
    def test_identity_binary(self):
        j = JointDistribution(np.eye(2) / 2)
        v = wyner_grid_oracle(j, grid_steps=101)
        assert float(v) == pytest.approx(1.0, abs=0.01)

    def test_product(self):
        j = JointDistribution(np.outer([0.5, 0.5], [0.5, 0.5]))
        v = wyner_grid_oracle(j, grid_steps=101)
        assert float(v) == pytest.approx(0.0, abs=0.01)

    def test_dsbs_cross_check(self, dsbs01):
        v = wyner_grid_oracle(dsbs01, grid_steps=201)
        r = wyner_solve(dsbs01, card_w=2, restarts=10, seed=0)
        assert abs(float(v) - float(r.value)) <= 0.01

    def test_rejects_non_2x2(self):
        j = JointDistribution(np.full((2, 3), 1.0 / 6.0))
        with pytest.raises(DimensionError):
            wyner_grid_oracle(j)

    def test_no_feasible_point(self):
        # generic entries miss every lattice point at an exact-match tolerance
        j = JointDistribution(np.array([[0.4, 0.21], [0.17, 0.22]]))
        with pytest.raises(NoFeasiblePoint):
            wyner_grid_oracle(j, grid_steps=11, match_tol=1e-9)
