"""Release gate: ten numbered end-to-end checks with pinned tolerances.

Each test covers one gate, measures its worst-case gap and wall time, and
records a one-line PASS/FAIL summary that the session prints at the end.
Runtime budgets are asserted, not just reported.  Frozen reference values
were computed independently before the build (closed forms for the doubly
symmetric binary source, scalar-channel reductions for the bottleneck).
"""

import json
import time

import numpy as np
import pytest

import infosep.common_info
from infosep.cli import main as cli_main
from infosep.common_info import gacs_korner, wyner_solve
from infosep.dist import (
    DeterministicMap,
    JointDistribution,
    entropy,
    marginals,
    mutual_information,
)
from infosep.finfo import f_information
from infosep.harness import (
    dsbs,
    random_joint,
    random_refinement,
    simulate_and_estimate,
    verify_separability,
)
from infosep.ib import ib_curve, ib_fixed_point, theta_of_R
from infosep.modal import modal_decompose
from oracles import gk_spectral

GENERATORS = ("kl", "reverse-kl", "chi2", "tv", "hellinger2")


def _hb(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p)))


def _record(log, num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    log.append(f"criterion {num:>2}  {label:<36} {status}  {detail}")


def _maxabs(arr) -> float:
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _seeds(rng):
    return int(rng.integers(0, 2**31))


# ---------------------------------------------------------------- suites

@pytest.fixture(scope="module")
def suite_random():
    # 200 seeded Dirichlet joints, alphabet sizes 2..12 on both axes
    rng = np.random.default_rng(20260801)
    out = []
    for _ in range(200):
        nx = int(rng.integers(2, 13))
        ny = int(rng.integers(2, 13))
        out.append(random_joint(nx, ny, seed=_seeds(rng)))
    return out


@pytest.fixture(scope="module")
def suite_refinement():
    # 100 refinement instances: bases <= 4x4 refined to <= 12x12
    rng = np.random.default_rng(20260802)
    out = []
    for _ in range(100):
        bx = int(rng.integers(2, 5))
        by = int(rng.integers(2, 5))
        base = random_joint(bx, by, seed=_seeds(rng))
        nx = int(rng.integers(bx, 13))
        ny = int(rng.integers(by, 13))
        refined, s, t = random_refinement(base, nx, ny, seed=_seeds(rng))
        out.append((base, refined, s, t))
    return out


def _block_instance(rng):
    """Block-diagonal joint with 1..4 blocks of random shape and mass."""
    k = int(rng.integers(1, 5))
    masses = rng.dirichlet(np.full(k, 2.0))
    shapes = [(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
              for _ in range(k)]
    nx = sum(a for a, _ in shapes)
    ny = sum(b for _, b in shapes)
    p = np.zeros((nx, ny))
    r = c = 0
    for m, (a, b) in zip(masses, shapes):
        p[r:r + a, c:c + b] = m * rng.dirichlet(np.full(a * b, 1.0)).reshape(a, b)
        r += a
        c += b
    return JointDistribution(p / p.sum()), k


@pytest.fixture(scope="module")
def suite_blocks():
    rng = np.random.default_rng(20260803)
    return [_block_instance(rng) for _ in range(50)]


@pytest.fixture(scope="module")
def suite_solver():
    # 10 seeded 2x2 bases refined to 4x4, shared by the solver-limited gates
    rng = np.random.default_rng(20260804)
    out = []
    for _ in range(10):
        base = random_joint(2, 2, alpha=2.0, seed=_seeds(rng))
        refined, s, t = random_refinement(base, 4, 4, seed=_seeds(rng))
        out.append((base, refined, s, t))
    return out


# ------------------------------------------------------------- criteria

def test_criterion_01_modal_decomposition(suite_random, acceptance_log):
    """Orthonormality and dependence-kernel reconstruction at 1e-9."""
    t0 = time.perf_counter()
    worst = 0.0
    for j in suite_random:
        md = modal_decompose(j)
        px, py = marginals(j)
        gram_f = (md.F * px[:, None]).T @ md.F
        gram_g = (md.G * py[:, None]).T @ md.G
        r = md.sigmas.size
        worst = max(worst, _maxabs(gram_f - np.eye(r)),
                    _maxabs(gram_g - np.eye(r)))
        recon = (md.F * md.sigmas[None, :]) @ md.G.T
        b = j.p / np.outer(px, py) - 1.0
        worst = max(worst, _maxabs(recon - b))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 10.0
    _record(acceptance_log, 1, "modal decomposition", ok,
            f"worst gap {worst:.2e}, {dt:.1f}s / 10s budget, 200 joints")
    assert worst <= 1e-9
    assert dt < 10.0


def test_criterion_02_f_information_invariance(suite_refinement,
                                               acceptance_log):
    """All five generators agree across sufficient reduction at 1e-9."""
    t0 = time.perf_counter()
    worst = 0.0
    for _, refined, s, t in suite_refinement:
        rep = verify_separability(refined, s, t,
                                  measures=[f"f:{g}" for g in GENERATORS],
                                  strict=True)
        assert rep.overall
        gaps = {r.measure[2:]: r.gap for r in rep.rows}
        finite = [g for g in gaps.values() if np.isfinite(g)]
        worst = max(worst, max(finite))
        assert set(gaps) == set(GENERATORS)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 30.0
    _record(acceptance_log, 2, "f-information invariance", ok,
            f"worst gap {worst:.2e}, {dt:.1f}s / 30s budget, 100 instances")
    assert worst <= 1e-9
    assert dt < 30.0


def test_criterion_03_gk_block_structure(suite_blocks, acceptance_log):
    """Component value matches the spectral oracle and survives refinement."""
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(20260813)
    for j, k_true in suite_blocks:
        spectral = gk_spectral(j)
        component = gacs_korner(j)
        assert spectral.k == k_true - 1
        assert component.component_count == k_true
        worst = max(worst, abs(float(spectral.value) - float(component.value)))
        refined, _, _ = random_refinement(j, j.nx + 2, j.ny + 2, seed=_seeds(rng))
        lifted = gacs_korner(refined)
        assert lifted.k == component.k
        worst = max(worst, abs(float(lifted.value) - float(component.value)))
    two_block = JointDistribution(np.kron(np.eye(2) / 2.0, np.full((2, 2), 0.25)))
    exact = gacs_korner(two_block)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and float(exact.value) == 1.0
    _record(acceptance_log, 3, "deterministic common part", ok,
            f"worst gap {worst:.2e}, two-block case {float(exact.value)!r} bits, "
            f"{dt:.1f}s, 50 instances")
    assert worst <= 1e-9
    assert float(exact.value) == 1.0


def _assert_certified(r, j):
    """The Wyner result is an exactly feasible auxiliary's value."""
    px, py = marginals(j)
    assert float(r.markov_residual) <= 1e-12
    assert mutual_information(j).value - 1e-12 <= float(r.value)
    assert float(r.value) <= min(entropy(px).value, entropy(py).value) + 1e-12


def test_criterion_04_wyner_invariance(suite_solver, acceptance_log):
    """Relaxation value survives refinement; matches the closed form."""
    t0 = time.perf_counter()
    worst = 0.0
    for base, refined, _, _ in suite_solver:
        rb = wyner_solve(base, restarts=20, seed=0)
        rr = wyner_solve(refined, restarts=20, seed=0)
        _assert_certified(rb, base)
        _assert_certified(rr, refined)
        worst = max(worst, abs(float(rb.value) - float(rr.value)))
    # 0.1 = 2a(1-a) with a the smaller root; value = 1 + h(0.1) - 2 h(a)
    a = (1.0 - np.sqrt(1.0 - 2.0 * 0.1)) / 2.0
    closed_form = 1.0 + _hb(0.1) - 2.0 * _hb(a)
    sol = wyner_solve(dsbs(0.1), restarts=20, seed=0)
    assert sol.converged
    _assert_certified(sol, dsbs(0.1))
    oracle_gap = abs(float(sol.value) - closed_form)
    dt = time.perf_counter() - t0
    ok = worst <= 5e-3 and oracle_gap <= 1e-6 and dt < 300.0
    _record(acceptance_log, 4, "relaxation invariance", ok,
            f"worst gap {worst:.2e}, oracle gap {oracle_gap:.2e} "
            f"(closed form {closed_form:.6f}), {dt:.0f}s / 300s budget")
    assert worst <= 5e-3
    assert oracle_gap <= 1e-6
    assert dt < 300.0


def test_criterion_05_ib_invariance(suite_solver, acceptance_log):
    """Bottleneck Lagrangian survives refinement; closed-form spot checks."""
    t0 = time.perf_counter()
    worst = 0.0
    for beta in (1.5, 2.0, 5.0):
        for base, refined, _, _ in suite_solver:
            sb = ib_fixed_point(base, beta, restarts=20, seed=0)
            sr = ib_fixed_point(refined, beta, restarts=20, seed=0)
            worst = max(worst, abs(float(sb.lagrangian) - float(sr.lagrangian)))
    trivial = ib_fixed_point(dsbs(0.1), 0.5, restarts=5, seed=0)
    copy = JointDistribution(np.eye(2) / 2.0)
    copy_sol = ib_fixed_point(copy, 2.0, restarts=10, seed=0)
    copy_gap = abs(float(copy_sol.lagrangian) + 1.0)
    dt = time.perf_counter() - t0
    ok = worst <= 5e-3 and float(trivial.lagrangian) == 0.0 \
        and copy_gap <= 1e-6 and dt < 300.0
    _record(acceptance_log, 5, "bottleneck invariance", ok,
            f"worst gap {worst:.2e}, sub-unit multiplier {float(trivial.lagrangian)!r}, "
            f"copy-source gap {copy_gap:.1e}, {dt:.0f}s / 300s budget")
    assert worst <= 5e-3
    assert float(trivial.lagrangian) == 0.0
    assert copy_gap <= 1e-6
    assert dt < 300.0


def test_criterion_06_curve_endpoints(suite_solver, acceptance_log):
    """Relevance curve hits (0, 0) and saturates at the mutual information."""
    t0 = time.perf_counter()
    worst = 0.0
    base0 = dsbs(0.1)
    refined0, _, _ = random_refinement(base0, 4, 4, seed=3)
    instances = [base0, refined0]
    for base, refined, _, _ in suite_solver:
        instances.extend((base, refined))
    for j in instances:
        curve = ib_curve(j, (1.5, 2.0, 5.0), restarts=10, seed=0)
        mi = float(mutual_information(j))
        at_zero = abs(float(theta_of_R(curve, 0.0)))
        at_sat = abs(float(theta_of_R(curve, curve.saturation_rate)) - mi)
        beyond = abs(float(theta_of_R(curve, curve.saturation_rate + 1.0)) - mi)
        worst = max(worst, at_zero, at_sat, beyond)
    dt = time.perf_counter() - t0
    ok = worst <= 5e-3 and dt < 120.0
    _record(acceptance_log, 6, "curve endpoints", ok,
            f"worst endpoint gap {worst:.2e}, {dt:.1f}s, "
            f"{len(instances)} instances")
    assert worst <= 5e-3
    assert dt < 120.0


def test_criterion_07_sandwich(suite_random, suite_refinement, suite_blocks,
                               suite_solver, acceptance_log, monkeypatch):
    """Ordering: common part <= mutual information <= Wyner bound <= min entropy.

    The common-part link gets 1e-6 slack.  The Wyner value is the I(W;XY)
    of an exactly feasible auxiliary, capped at min(H(X), H(Y)), so it lies
    between the other two at any iteration cap: both links through it get
    1e-12, as in `_assert_certified`.  A cap of 150 steps per stage keeps
    the solves short.
    """
    monkeypatch.setattr(infosep.common_info, "MAX_ITERS", 150)
    t0 = time.perf_counter()
    instances = list(suite_random)
    instances += [refined for _, refined, _, _ in suite_refinement]
    instances += [j for j, _ in suite_blocks]
    for base, refined, _, _ in suite_solver:
        instances.extend((base, refined))
    instances.append(dsbs(0.1))
    worst = 0.0
    for j in instances:
        mi = float(mutual_information(j))
        gk = float(gacs_korner(j).value)
        px, py = marginals(j)
        cap = min(float(entropy(px)), float(entropy(py)))
        wv = float(wyner_solve(j, card_w=max(j.nx, j.ny), restarts=1,
                               seed=0).value)
        worst = max(worst, gk - mi - 1e-6, mi - wv - 1e-12, wv - cap - 1e-12)
        assert gk <= mi + 1e-6
        assert mi <= wv + 1e-12
        assert wv <= cap + 1e-12
    dt = time.perf_counter() - t0
    ok = worst <= 0.0 and dt < 300.0
    _record(acceptance_log, 7, "sandwich ordering", ok,
            f"worst violation {worst:.2e}, {dt:.0f}s / 300s budget, "
            f"{len(instances)} instances")
    assert dt < 300.0


def test_criterion_08_chi2_spectrum_identity(suite_random, acceptance_log):
    """Chi-squared information equals the summed squared singular values."""
    t0 = time.perf_counter()
    worst = 0.0
    for j in suite_random:
        md = modal_decompose(j)
        gap = abs(float(f_information(j, "chi2"))
                  - float(np.sum(md.sigmas ** 2)))
        worst = max(worst, gap)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9
    _record(acceptance_log, 8, "chi-squared spectrum identity", ok,
            f"worst gap {worst:.2e}, {dt:.1f}s, 200 joints")
    assert worst <= 1e-9


def test_criterion_09_sampling_pipeline(acceptance_log):
    """Plug-in estimates near truth; count aggregation exact."""
    t0 = time.perf_counter()
    target = 0.53100
    base = dsbs(0.1)
    ident = DeterministicMap.identity(2)
    direct = simulate_and_estimate(base, ident, ident, n=100_000, seed=2024)
    refined, s, t = random_refinement(base, 4, 4, seed=3)
    piped = simulate_and_estimate(refined, s, t, n=100_000, seed=2024)
    errs = [abs(float(r.mi_plugin_raw) - target) for r in (direct, piped)]
    errs += [abs(float(r.mi_plugin_reduced) - target) for r in (direct, piped)]
    agg = np.zeros((2, 2))
    np.add.at(agg, (np.asarray(s.assignment)[:, None].repeat(4, axis=1),
                    np.asarray(t.assignment)[None, :].repeat(4, axis=0)),
              piped.counts_raw)
    exact = bool(np.array_equal(agg, piped.counts_reduced))
    dt = time.perf_counter() - t0
    worst = max(errs)
    ok = worst <= 0.02 and exact
    _record(acceptance_log, 9, "sampling pipeline", ok,
            f"worst estimate error {worst:.4f} / 0.02, aggregation exact: "
            f"{exact}, n=100000, {dt:.1f}s")
    assert worst <= 0.02
    assert exact


def test_criterion_10_cli_determinism(tmp_path, acceptance_log):
    """Byte-identical reports modulo timestamp; documented exit codes."""
    t0 = time.perf_counter()
    src = tmp_path / "dsbs01.json"
    src.write_text(json.dumps({"p": [[0.45, 0.05], [0.05, 0.45]]}))

    def strip_ts(raw: bytes) -> bytes:
        return b"\n".join(line for line in raw.splitlines()
                          if b'"timestamp"' not in line)

    blobs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = cli_main(["measures", str(src), "--seed", "7", "--restarts", "2",
                         "--json-out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    deterministic = strip_ts(blobs[0]) == strip_ts(blobs[1])

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    neg = tmp_path / "neg.json"
    neg.write_text(json.dumps({"p": [[0.9, -0.1], [0.1, 0.1]]}))
    lossy = tmp_path / "lossy.json"
    lossy.write_text(json.dumps({"s": [0, 0], "t": [0, 1]}))
    codes = {
        "ok": 0,
        "missing": cli_main(["measures", str(tmp_path / "absent.json")]),
        "malformed": cli_main(["measures", str(bad)]),
        "invalid": cli_main(["measures", str(neg)]),
        "unwritable": cli_main(["measures", str(src), "--restarts", "2",
                                "--json-out",
                                str(tmp_path / "no_dir" / "x.json")]),
        "verify-failed": cli_main(["verify", str(src), "--maps", str(lossy),
                                   "--restarts", "1", "--wyner-card", "2"]),
    }
    expected = {"ok": 0, "missing": 2, "malformed": 2, "invalid": 2,
                "unwritable": 3, "verify-failed": 4}
    codes_ok = codes == expected
    dt = time.perf_counter() - t0
    ok = deterministic and codes_ok
    _record(acceptance_log, 10, "cli determinism and exit codes", ok,
            f"deterministic: {deterministic}, exit codes: {codes}, {dt:.1f}s")
    assert deterministic
    assert codes == expected
