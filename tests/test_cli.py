"""Command-line surface: parsing, reports, determinism, exit codes."""

import hashlib
import json
import warnings

import numpy as np
import pytest

import infosep.cli
import infosep.common_info
import infosep.harness
from infosep.cli import EXIT_IO, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, main
from infosep.common_info import gacs_korner, wyner_solve
from infosep.dist import DeterministicMap, mutual_information
from infosep.finfo import BUILTIN_GENERATORS, f_information
from infosep.harness import dsbs, random_joint, random_refinement
from infosep.ib import ib_fixed_point
from infosep.modal import modal_decompose

DSBS01 = [[0.45, 0.05], [0.05, 0.45]]


@pytest.fixture
def dsbs_file(tmp_path):
    path = tmp_path / "dsbs01.json"
    path.write_text(json.dumps({"p": DSBS01}))
    return str(path)


@pytest.fixture
def rowdup_file(tmp_path):
    path = tmp_path / "rowdup.json"
    path.write_text(json.dumps({"p": [[0.3, 0.1], [0.15, 0.05], [0.1, 0.3]]}))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestMeasures:
    def test_dsbs_report_values(self, capsys, dsbs_file):
        code, doc = run_json(capsys, [
            "measures", dsbs_file, "--wyner-card", "2", "--seed", "0",
            "--restarts", "2"])
        assert code == EXIT_OK
        m = doc["measures"]
        assert m["mi"] == pytest.approx(0.5310, abs=1e-4)
        assert m["f_info"]["chi2"] == pytest.approx(0.64, abs=1e-9)
        assert m["gk"]["value"] == 0.0
        assert m["wyner"]["value"] == pytest.approx(0.8727, abs=5e-3)
        assert m["sigmas"] == [0.8]
        assert m["h_x"] == 1.0 and m["h_y"] == 1.0
        assert doc["input"]["nx"] == 2
        assert len(doc["input"]["sha256"]) == 64

    def test_product_all_zero(self, capsys, tmp_path):
        path = tmp_path / "prod.json"
        path.write_text(json.dumps(
            {"p": [[0.15, 0.15], [0.35, 0.35]]}))
        code, doc = run_json(capsys, [
            "measures", str(path), "--restarts", "2", "--seed", "0"])
        assert code == EXIT_OK
        m = doc["measures"]
        assert m["mi"] <= 1e-9
        assert m["gk"]["value"] == 0.0
        assert m["wyner"]["value"] <= 1e-4
        assert m["sigmas"] == []

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["measures", str(path)]) == EXIT_PARSE

    def test_missing_file(self, tmp_path):
        assert main(["measures", str(tmp_path / "nope.json")]) == EXIT_PARSE

    def test_invalid_distribution(self, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({"p": [[0.9, -0.4], [0.25, 0.25]]}))
        assert main(["measures", str(path)]) == EXIT_PARSE
        path.write_text(json.dumps({"p": [[0.5, -1e-17], [0.25, 0.25]]}))
        assert main(["measures", str(path)]) == EXIT_PARSE

    @pytest.mark.parametrize("beta", ["-1", "0", "nan", "inf"])
    def test_bad_beta_flag(self, capsys, dsbs_file, beta):
        assert main(["measures", dsbs_file, f"--beta={beta}"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: --beta") and err.count("\n") == 1

    def test_solver_size_limit(self, capsys, tmp_path):
        path = _write(tmp_path, "big.json", random_joint(100, 100, seed=0).p)
        assert main(["measures", path, "--restarts", "0"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--wyner-card" in err

    def test_solver_size_limit_counts_certificate_columns(
            self, capsys, monkeypatch, tmp_path):
        # 256x256 cells by 64 symbols is exactly 2**22 entries, but the
        # certified kernel has 64 + 256 columns, so nothing is solved
        def refuse(*args, **kwargs):
            raise AssertionError("solver started above the size limit")

        for name in ("_start_kernel", "_wyner_stage", "_wyner_certify"):
            monkeypatch.setattr(infosep.common_info, name, refuse)
        path = _write(tmp_path, "big.json", random_joint(256, 256, seed=0).p)
        assert main(["measures", path, "--wyner-card", "64",
                     "--restarts", "1"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--wyner-card" in err

    def test_no_wyner_start(self, capsys, dsbs_file):
        # card 1 leaves no copy start and --restarts 0 adds no random one
        assert main(["measures", dsbs_file, "--wyner-card", "1",
                     "--restarts", "0"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--wyner-card" in err and "--restarts" in err

    def test_total_that_overflows(self, capsys, tmp_path):
        path = _write(tmp_path, "big.json", [[1e308, 1e308], [1.0, 1.0]])
        code, doc = run_json(capsys, ["measures", path, "--restarts", "0"])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        assert doc["input"]["nx"] == 2 and doc["input"]["reduced_nx"] == 1
        assert doc["measures"]["mi"] == 0.0

    def test_wyner_residual_with_underflowing_products(self, capsys, tmp_path):
        # the products of marginals in I(X;Y|W) underflow on the first row;
        # the report is valid JSON, with no NaN
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"p": [[1e-200, 0.0], [0.5, 0.5]]}))
        assert main(["measures", str(path), "--restarts", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "NaN" not in out
        assert json.loads(out)["measures"]["wyner"]["residual"] == 0.0

    def test_wyner_residual_beside_overflowing_f_information(
            self, capsys, tmp_path):
        # the f-informations of this table still divide by an underflowed
        # P(x) P(y) and come out NaN; the Wyner residual does not
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"p": [[1e-200, 1e-200], [0.0, 1.0]]}))
        with pytest.warns(RuntimeWarning):
            code = main(["measures", str(path), "--restarts", "0"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["measures"]["wyner"]["residual"] == 0.0

    def test_mi_and_bottleneck_with_underflowing_products(
            self, capsys, tmp_path):
        # P(x) P(y) and P(u) P(y) underflow on the first cell; mi and every
        # I(U;Y) stay finite.  The f-informations still divide by the
        # underflowed product and warn.
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"p": [[1e-170, 0.0], [0.0, 1.0]]}))
        with pytest.warns(RuntimeWarning):
            code = main(["measures", str(path), "--restarts", "0"])
        assert code == EXIT_OK
        m = json.loads(capsys.readouterr().out)["measures"]
        assert m["mi"] == pytest.approx(m["h_x"], rel=1e-9)
        assert m["mi"] == pytest.approx(5.647277761308517e-168, rel=1e-9)
        for beta, sol in m["ib"].items():
            assert sol["i_uy"] == pytest.approx(m["mi"], rel=1e-9)
            assert sol["lagrangian"] == pytest.approx(
                (1.0 - float(beta)) * m["mi"], rel=1e-9)

    def test_point_mass_reports_positive_zero(self, capsys, tmp_path):
        path = _write(tmp_path, "point.json", [[0.5, 0.5]])
        assert main(["measures", path, "--restarts", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "-0.0" not in out
        assert json.loads(out)["measures"]["h_x"] == 0.0

    def test_tiny_mass_symbol_keeps_its_block(self, capsys, tmp_path):
        # the unit mode's spectral feature on x1 is lost to rounding, but
        # the support graph still has both blocks
        code, doc = run_json(capsys, ["measures", tiny_mass_file(tmp_path),
                                      "--restarts", "0"])
        assert code == EXIT_OK
        gk = doc["measures"]["gk"]
        assert (gk["k"], gk["component_count"]) == (1, 2)

    def test_bottleneck_i_ux_with_underflowing_p_u(self, capsys, tmp_path):
        # P(x) q(u|x) underflows to zero on the tiny rows, so P(u) does too
        # while q(u|x) does not; I(U;X), an average of KL(P(X|u) || P(X))
        # under P(u), divides by no such P(u) and stays finite
        path = _write(tmp_path, "tiny.json", [[1.0, 3.54e-146], [8.94e-130, 0.0]])
        assert main(["measures", path, "--restarts", "0"]) == EXIT_OK
        m = json.loads(capsys.readouterr().out)["measures"]
        for sol in m["ib"].values():
            assert 0.0 <= sol["i_ux"] <= m["h_x"]
            assert sol["lagrangian"] == 0.0 and sol["converged"]

    def test_decomposes_once(self, capsys, dsbs_file, modal_decompose_calls):
        # the sigmas take the one decomposition; Gacs-Korner needs none
        assert main(["measures", dsbs_file, "--restarts", "0"]) == EXIT_OK
        assert len(modal_decompose_calls) == 1

    def test_unwritable_output(self, dsbs_file, tmp_path):
        target = tmp_path / "no-such-dir" / "out.json"
        assert main(["measures", dsbs_file, "--restarts", "1",
                     "--json-out", str(target)]) == EXIT_IO

    def test_json_out_file(self, dsbs_file, tmp_path):
        target = tmp_path / "report.json"
        code = main(["measures", dsbs_file, "--wyner-card", "2",
                     "--restarts", "2", "--json-out", str(target)])
        assert code == EXIT_OK
        doc = json.loads(target.read_text())
        assert doc["measures"]["mi"] == pytest.approx(0.5310, abs=1e-4)

    def test_beta_flag_repeatable(self, capsys, dsbs_file):
        code, doc = run_json(capsys, [
            "measures", dsbs_file, "--wyner-card", "2", "--restarts", "2",
            "--beta", "0.5", "--beta", "2"])
        assert code == EXIT_OK
        assert set(doc["measures"]["ib"]) == {"0.5", "2"}
        assert doc["measures"]["ib"]["0.5"]["lagrangian"] == 0.0

    def test_byte_determinism_modulo_timestamp(self, capsys, dsbs_file):
        argv = ["measures", dsbs_file, "--wyner-card", "2", "--seed", "5",
                "--restarts", "2"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        strip = lambda text: [ln for ln in text.splitlines()
                              if '"timestamp"' not in ln]
        assert strip(first) == strip(second)
        assert first.endswith("\n")

    def test_csv_input_matches_json_input(self, capsys, dsbs_file, tmp_path):
        csv_path = tmp_path / "dsbs01.csv"
        csv_path.write_text("0.45,0.05\n0.05,0.45\n")
        _, doc_json = run_json(capsys, [
            "measures", dsbs_file, "--wyner-card", "2", "--seed", "0",
            "--restarts", "2"])
        _, doc_csv = run_json(capsys, [
            "measures", str(csv_path), "--wyner-card", "2", "--seed", "0",
            "--restarts", "2"])
        assert doc_csv["measures"] == doc_json["measures"]

    def test_env_seed_fallback(self, capsys, dsbs_file, monkeypatch):
        monkeypatch.setenv("INFOSEP_SEED", "17")
        _, doc = run_json(capsys, ["measures", dsbs_file, "--restarts", "1",
                                   "--wyner-card", "2"])
        assert doc["seed"] == 17
        # explicit flag wins over the environment
        _, doc = run_json(capsys, ["measures", dsbs_file, "--restarts", "1",
                                   "--wyner-card", "2", "--seed", "3"])
        assert doc["seed"] == 3

    def test_unit_flag_scales_but_keeps_structure(self, capsys, dsbs_file):
        _, bits = run_json(capsys, [
            "measures", dsbs_file, "--wyner-card", "2", "--seed", "0",
            "--restarts", "2"])
        _, nats = run_json(capsys, [
            "measures", dsbs_file, "--wyner-card", "2", "--seed", "0",
            "--restarts", "2", "--unit", "nats"])

        def shape(doc):
            if isinstance(doc, dict):
                return {k: shape(v) for k, v in doc.items()}
            if isinstance(doc, list):
                return [shape(v) for v in doc]
            return type(doc).__name__

        assert shape(bits["measures"]) == shape(nats["measures"])
        ratio = np.log2(np.e)
        assert bits["measures"]["mi"] == pytest.approx(
            nats["measures"]["mi"] * ratio, rel=1e-9)
        assert bits["measures"]["h_x"] == pytest.approx(
            nats["measures"]["h_x"] * ratio, rel=1e-9)
        # dimensionless quantities must not rescale
        assert bits["measures"]["f_info"]["chi2"] == (
            nats["measures"]["f_info"]["chi2"])
        assert bits["measures"]["sigmas"] == nats["measures"]["sigmas"]


def _write(tmp_path, name, p):
    path = tmp_path / name
    path.write_text(json.dumps({"p": np.asarray(p).tolist()}))
    return str(path)


def tiny_mass_file(tmp_path):
    """Two 2x2 blocks of mass 0.5 with row x1 scaled to a mass near 1e-60."""
    rng = np.random.default_rng(0)
    p = np.zeros((4, 4))
    for b in (0, 2):
        p[b:b + 2, b:b + 2] = 0.5 * rng.dirichlet(np.ones(4)).reshape(2, 2)
    p[1] *= 1e-60
    return _write(tmp_path, "tiny_mass.json", p)


def _assert_close(a, b, tol, where="measures"):
    if isinstance(a, dict):
        assert sorted(a) == sorted(b), where
        for key in a:
            _assert_close(a[key], b[key], tol, f"{where}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for k, (u, v) in enumerate(zip(a, b)):
            _assert_close(u, v, tol, f"{where}[{k}]")
    elif isinstance(a, float):
        assert a == pytest.approx(b, abs=tol), where
    else:
        assert a == b, where


class TestReduceFirst:
    """`measures` solves on the minimal sufficient alphabet."""

    ARGS = ["--restarts", "2", "--seed", "0"]

    @pytest.mark.parametrize("base", [dsbs(0.1), random_joint(3, 3, seed=0)],
                             ids=["dsbs0.1", "random3x3"])
    def test_refinement_reports_base_measures(self, capsys, tmp_path, base):
        refined, _, _ = random_refinement(base, 8, 7, seed=4)
        _, doc_base = run_json(capsys, [
            "measures", _write(tmp_path, "base.json", base.p), *self.ARGS])
        code, doc = run_json(capsys, [
            "measures", _write(tmp_path, "refined.json", refined.p), *self.ARGS])
        assert code == EXIT_OK
        assert (doc["input"]["nx"], doc["input"]["ny"]) == (8, 7)
        assert (doc["input"]["reduced_nx"], doc["input"]["reduced_ny"]) == (
            base.nx, base.ny)
        assert doc["measures"]["wyner"]["card_w"] == base.nx * base.ny
        for doc_ in (doc_base, doc):
            del doc_["measures"]["h_x"], doc_["measures"]["h_y"]
        _assert_close(doc["measures"], doc_base["measures"], 1e-9)

    def test_wyner_card_applies_to_reduced_alphabet(self, capsys, tmp_path):
        refined, _, _ = random_refinement(dsbs(0.1), 4, 4, seed=3)
        _, doc = run_json(capsys, [
            "measures", _write(tmp_path, "refined.json", refined.p),
            "--restarts", "0", "--wyner-card", "3", "--beta", "2"])
        assert doc["measures"]["wyner"]["card_w"] == 3

    def test_lossy_maps_fall_back_to_raw_solve(self, capsys, tmp_path,
                                               monkeypatch, rowdup_file):
        def constant_maps(joint):
            return (DeterministicMap.constant(joint.nx),
                    DeterministicMap.constant(joint.ny))

        monkeypatch.setattr(infosep.cli, "minimal_sufficient_maps", constant_maps)
        betas = (1.5, 2.0, 5.0)
        code, doc = run_json(capsys, ["measures", rowdup_file, *self.ARGS])
        assert code == EXIT_OK
        joint, _ = infosep.cli._load_distribution(rowdup_file)
        assert (doc["input"]["reduced_nx"], doc["input"]["reduced_ny"]) == (3, 2)
        gk = gacs_korner(joint)
        wyner = wyner_solve(joint, restarts=2, seed=0)
        ibs = {b: ib_fixed_point(joint, b, restarts=2, seed=0) for b in betas}
        raw = {
            "mi": mutual_information(joint).value,
            "f_info": {name: f_information(joint, gen).value
                       for name, gen in BUILTIN_GENERATORS.items()},
            "sigmas": [float(v) for v in modal_decompose(joint).sigmas],
            "gk": {"value": gk.value.value, "k": gk.k,
                   "component_count": gk.component_count},
            "wyner": {"value": wyner.value.value,
                      "residual": wyner.markov_residual.value,
                      "converged": wyner.converged, "card_w": wyner.card_w},
            "ib": {f"{b:g}": {"lagrangian": sol.lagrangian.value,
                              "i_ux": sol.i_ux.value, "i_uy": sol.i_uy.value,
                              "converged": sol.converged}
                   for b, sol in ibs.items()},
        }
        assert wyner.card_w == 6
        del doc["measures"]["h_x"], doc["measures"]["h_y"]
        _assert_close(doc["measures"], raw, 1e-11)


class TestReduce:
    def test_duplicated_rows(self, capsys, rowdup_file):
        code, doc = run_json(capsys, ["reduce", rowdup_file])
        assert code == EXIT_OK
        assert doc["maps"]["s"] == [0, 0, 1]
        assert doc["maps"]["t"] == [0, 1]
        np.testing.assert_allclose(doc["reduced"]["p"],
                                   [[0.45, 0.15], [0.1, 0.3]], atol=1e-12)

    def test_minimal_input_identity(self, capsys, dsbs_file):
        code, doc = run_json(capsys, ["reduce", dsbs_file])
        assert code == EXIT_OK
        assert doc["maps"]["s"] == [0, 1]
        np.testing.assert_allclose(doc["reduced"]["p"], DSBS01, atol=1e-12)

    def test_product_collapses_to_point(self, capsys, tmp_path):
        path = tmp_path / "prod.json"
        path.write_text(json.dumps({"p": [[0.15, 0.15], [0.35, 0.35]]}))
        code, doc = run_json(capsys, ["reduce", str(path)])
        assert code == EXIT_OK
        assert doc["reduced"]["p"] == [[1.0]]

    def test_out_files(self, rowdup_file, tmp_path):
        out = tmp_path / "reduced.json"
        maps = tmp_path / "maps.json"
        code = main(["reduce", rowdup_file, "--out", str(out),
                     "--maps-out", str(maps)])
        assert code == EXIT_OK
        assert json.loads(maps.read_text())["s"] == [0, 0, 1]
        red = json.loads(out.read_text())
        np.testing.assert_allclose(red["p"], [[0.45, 0.15], [0.1, 0.3]],
                                   atol=1e-12)

    def test_default_maps_path(self, rowdup_file, tmp_path):
        out = tmp_path / "reduced.json"
        code = main(["reduce", rowdup_file, "--out", str(out)])
        assert code == EXIT_OK
        side = tmp_path / "reduced.maps.json"
        assert json.loads(side.read_text())["t"] == [0, 1]


    def test_tiny_mass_symbol_strict(self, capsys, tmp_path):
        # the y columns of each block have P(x|y) equal up to about 1e-60
        # but density ratios at x1 that differ by order one
        code, doc = run_json(capsys, ["reduce", tiny_mass_file(tmp_path),
                                      "--strict"])
        assert code == EXIT_OK
        assert doc["maps"] == {"s": [0, 1, 2, 3], "t": [0, 1, 2, 3]}

    def test_zero_patterns_keep_their_columns(self, capsys, tmp_path):
        path = _write(tmp_path, "zeros.json", [[1e-200, 0.0], [0.5, 0.5]])
        code, doc = run_json(capsys, ["reduce", path, "--strict"])
        assert code == EXIT_OK
        assert doc["maps"] == {"s": [0, 1], "t": [0, 1]}

    def test_subnormal_marginal_strict_without_warning(self, capsys, tmp_path):
        # the ratio beside the subnormal marginals overflows to +inf on the
        # raw and the reduced table alike
        path = _write(tmp_path, "subnormal.json", [[1e-310, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc = run_json(capsys, ["reduce", path, "--strict"])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        assert doc["maps"] == {"s": [0, 1], "t": [0, 1]}

    def test_huge_ratio_strict(self, capsys, tmp_path):
        # y1 and y2 are identical columns; their ratio at x0, about 1e10 /
        # 1e-300, differs between the raw and the reduced table by rounding
        path = _write(tmp_path, "huge.json",
                      [[1e-300, 1e-310, 1e-310], [1.0, 0.0, 0.0]])
        code, doc = run_json(capsys, ["reduce", path, "--strict"])
        assert code == EXIT_OK
        assert doc["maps"] == {"s": [0, 1], "t": [0, 1, 1]}


class TestVerify:
    def test_zero_pattern_table_verifies(self, capsys, tmp_path):
        # reverse KL is +inf raw and reduced, as the zero cell stays apart
        path = _write(tmp_path, "zeros.json", [[1e-200, 0.0], [0.5, 0.5]])
        code, doc = run_json(capsys, ["verify", path, "--restarts", "0"])
        assert code == EXIT_OK
        assert doc["report"]["sufficient"] is True

    def test_auto_refine_passes(self, dsbs_file):
        code = main(["verify", dsbs_file, "--auto-refine", "4", "4",
                     "--seed", "3", "--restarts", "3", "--wyner-card", "4"])
        assert code == EXIT_OK

    @pytest.mark.parametrize("seed, zeroed", [(0, None), (1, 7)],
                             ids=["rj33", "rj33z7"])
    def test_auto_refined_random_3x3_verifies(self, capsys, tmp_path, seed,
                                              zeroed):
        # the raw 9x9 and the reduced Wyner solves agree within SOLVER_TOL;
        # with stages capped at MAX_ITERS they read 0.942112 against
        # 0.952022 bits (rj33) and 0.329117 against 0.310549 (rj33z7)
        p = random_joint(3, 3, seed=seed).p.copy()
        if zeroed is not None:
            p.ravel()[zeroed] = 0.0
        code, doc = run_json(capsys, [
            "verify", _write(tmp_path, "rj33.json", p), "--auto-refine", "9",
            "9", "--seed", "5", "--restarts", "2"])
        assert code == EXIT_OK
        assert doc["report"]["overall"] is True

    def test_given_maps_pass(self, capsys, rowdup_file, tmp_path):
        maps = tmp_path / "maps.json"
        # integral floats are integers, as DeterministicMap reads them
        for s in ([0, 0, 1], [0.0, 0.0, 1.0]):
            maps.write_text(json.dumps({"s": s, "t": [0, 1]}))
            code, doc = run_json(capsys, [
                "verify", rowdup_file, "--maps", str(maps),
                "--restarts", "2", "--wyner-card", "2"])
            assert code == EXIT_OK
            assert doc["report"]["s"] == [0, 0, 1]

    def test_lossy_maps_fail(self, capsys, tmp_path):
        path = tmp_path / "ident.json"
        path.write_text(json.dumps({"p": [[0.5, 0.0], [0.0, 0.5]]}))
        maps = tmp_path / "maps.json"
        maps.write_text(json.dumps({"s": [0, 0], "t": [0, 1]}))
        code = main(["verify", str(path), "--maps", str(maps),
                     "--restarts", "2", "--wyner-card", "2"])
        capsys.readouterr()
        assert code == EXIT_VERIFY

    def test_strict_lossy_maps_fail_fast(self, capsys, tmp_path):
        path = tmp_path / "ident.json"
        path.write_text(json.dumps({"p": [[0.5, 0.0], [0.0, 0.5]]}))
        maps = tmp_path / "maps.json"
        maps.write_text(json.dumps({"s": [0, 0], "t": [0, 1]}))
        code = main(["verify", str(path), "--maps", str(maps), "--strict"])
        capsys.readouterr()
        assert code == EXIT_VERIFY

    def test_insufficient_maps_fail_when_every_row_passes(self, capsys,
                                                           tmp_path):
        # the README's exit code 4 covers maps that are not sufficient, even
        # where no measure moves by more than its tolerance
        path = _write(tmp_path, "near.json",
                      [[0.2, 0.1, 0.1000001], [0.1, 0.2, 0.1999999]])
        maps = tmp_path / "maps.json"
        maps.write_text(json.dumps({"s": [0, 1], "t": [0, 1, 1]}))
        code, doc = run_json(capsys, ["verify", path, "--maps", str(maps),
                                      "--restarts", "0"])
        assert code == EXIT_VERIFY
        rep = doc["report"]
        assert all(row["pass"] for row in rep["rows"])
        assert rep["sufficient"] is False and rep["overall"] is False
        assert rep["sufficiency_gap"] == pytest.approx(3.75e-7, rel=1e-3)

    def test_product_any_maps_pass(self, capsys, tmp_path):
        path = tmp_path / "prod.json"
        path.write_text(json.dumps({"p": [[0.15, 0.15], [0.35, 0.35]]}))
        maps = tmp_path / "maps.json"
        maps.write_text(json.dumps({"s": [0, 0], "t": [0, 0]}))
        code = main(["verify", str(path), "--maps", str(maps),
                     "--restarts", "2", "--wyner-card", "2"])
        capsys.readouterr()
        assert code == EXIT_OK

    def test_report_structure(self, capsys, dsbs_file):
        code, doc = run_json(capsys, [
            "verify", dsbs_file, "--auto-refine", "4", "4", "--seed", "3",
            "--restarts", "3", "--wyner-card", "4"])
        assert code == EXIT_OK
        rep = doc["report"]
        assert rep["overall"] is True
        assert rep["sufficient"] is True
        assert any(r["measure"] == "wyner" for r in rep["rows"])

    def test_solver_size_limit_is_not_a_failed_verification(self, capsys,
                                                              tmp_path):
        path = _write(tmp_path, "big.json", random_joint(46, 46, seed=0).p)
        maps = tmp_path / "maps.json"
        maps.write_text(json.dumps({"s": list(range(46)), "t": list(range(46))}))
        assert main(["verify", path, "--maps", str(maps),
                     "--restarts", "0"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--wyner-card" in err

    @pytest.mark.parametrize("size", [("50000", "50000"), ("2049", "2048")])
    def test_auto_refine_size_limit(self, capsys, monkeypatch, dsbs_file,
                                    size):
        # the dense refined table would be allocated by this one
        def refuse(*args, **kwargs):
            raise AssertionError("refinement built above the size limit")

        monkeypatch.setattr(infosep.cli, "random_refinement", refuse)
        assert main(["verify", dsbs_file, "--auto-refine", *size]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--auto-refine" in err
        assert err.count("\n") == 1

    def test_cells_below_the_wyner_range(self, capsys, tmp_path):
        path = _write(tmp_path, "tiny.json", [[1.0, 1.0], [1e-310, 1e-310]])
        assert main(["verify", path, "--restarts", "0"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: Wyner solver") and err.count("\n") == 1

    def test_bad_maps_file(self, capsys, monkeypatch, dsbs_file, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("a solver ran")

        # every case fails before a solver starts
        monkeypatch.setattr(infosep.harness, "wyner_solve", refuse)
        monkeypatch.setattr(infosep.harness, "ib_curve", refuse)
        maps = tmp_path / "maps.json"
        for doc in ({"s": [0, 0, 0]},  # wrong length, no t
                    {"s": [0, 0, 0], "t": [0, 1]},  # well formed, wrong length
                    {"s": [0, 1.5], "t": [0, 1]},  # not integral
                    {"s": ["0", "1"], "t": [0, 1]},  # not numbers
                    {"s": [True, False], "t": [0, 1]},  # booleans
                    {"s": [0, float("inf")], "t": [0, 1]},  # Infinity
                    {"s": [0, 1e30], "t": [0, 1]}):  # beyond int64
            maps.write_text(json.dumps(doc))
            assert main(["verify", dsbs_file,
                         "--maps", str(maps)]) == EXIT_PARSE
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Warning" not in err


class TestIbSweep:
    def test_default_grid_rows(self, capsys, dsbs_file):
        code = main(["ib-sweep", dsbs_file, "--seed", "0"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "beta,i_ux,i_uy,lagrangian,converged"
        data = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
        assert [row[0] for row in data] == ["0.5", "1.5", "2", "3", "5"]
        assert float(data[0][3]) == 0.0          # beta <= 1 closed form
        assert all(row[4] in ("true", "false") for row in data)
        envelope = [ln for ln in lines if ln.startswith("# envelope,")]
        assert envelope

    def test_identity_beta_two(self, capsys, tmp_path):
        path = tmp_path / "ident.json"
        path.write_text(json.dumps({"p": [[0.5, 0.0], [0.0, 0.5]]}))
        code = main(["ib-sweep", str(path), "--beta-grid", "2"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        row = out.strip().splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(-1.0, abs=1e-6)

    def test_csv_out(self, dsbs_file, tmp_path):
        target = tmp_path / "sweep.csv"
        code = main(["ib-sweep", dsbs_file, "--beta-grid", "0.5,5",
                     "--csv-out", str(target)])
        assert code == EXIT_OK
        assert target.read_text().startswith("beta,")

    def test_subnormal_marginal_rows_are_finite(self, capsys, tmp_path):
        # P(x0) = P(y0) = 1e-310: density ratios beside the subnormal
        # marginal overflow, yet I(U;X) = I(U;Y) = I(X;Y), about 1.03e-307
        # bits, at every multiplier above 1
        path = _write(tmp_path, "subnormal.json", [[1e-310, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["ib-sweep", path, "--beta-grid", "1.5,2,3,5"])
        out, err = capsys.readouterr()
        assert code == EXIT_OK and err == ""
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]
                if not ln.startswith("#")]
        assert len(rows) == 4
        for beta, i_ux, i_uy, lagrangian, converged in rows:
            assert float(i_ux) == pytest.approx(1.0298e-307, rel=1e-4)
            assert float(i_uy) == float(i_ux)
            assert float(lagrangian) == pytest.approx(
                (1.0 - float(beta)) * float(i_ux), rel=1e-9)
            assert converged == "true"

    def test_bad_grid(self, dsbs_file):
        assert main(["ib-sweep", dsbs_file,
                     "--beta-grid", "a,b"]) == EXIT_PARSE
        assert main(["ib-sweep", dsbs_file, "--beta-grid", ","]) == EXIT_PARSE

    def test_nonpositive_grid(self, capsys, dsbs_file):
        assert main(["ib-sweep", dsbs_file,
                     "--beta-grid=-1,2"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: --beta-grid") and err.count("\n") == 1
        assert main(["ib-sweep", dsbs_file, "--beta-grid", "0"]) == EXIT_PARSE


@pytest.mark.parametrize("command", ["measures", "verify", "ib-sweep"])
def test_negative_restarts(capsys, dsbs_file, command):
    assert main([command, dsbs_file, "--restarts", "-3"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err == "error: --restarts must be non-negative, got -3\n"


def test_seed_from_the_environment_must_be_an_integer(capsys, dsbs_file,
                                                    monkeypatch):
    monkeypatch.setenv("INFOSEP_SEED", "abc")
    assert main(["measures", dsbs_file]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: INFOSEP_SEED must be an integer, got 'abc'\n"


def test_negative_seed(capsys, dsbs_file, monkeypatch):
    assert main(["measures", dsbs_file, "--seed", "-1"]) == EXIT_PARSE
    monkeypatch.setenv("INFOSEP_SEED", "-1")
    assert main(["ib-sweep", dsbs_file]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err == "error: seed must be non-negative, got -1\n" * 2


def test_only_reports_with_a_digest_hash_the_input(capsys, dsbs_file,
                                                   monkeypatch, tmp_path):
    # measures and verify report the sha256 of the input bytes; reduce and
    # ib-sweep report no digest and do not hash
    hashed = []
    sha256 = hashlib.sha256

    def counted(blob):
        hashed.append(len(blob))
        return sha256(blob)

    monkeypatch.setattr(infosep.cli.hashlib, "sha256", counted)
    want = sha256(open(dsbs_file, "rb").read()).hexdigest()
    for argv in (["measures", dsbs_file, "--restarts", "0"],
                 ["verify", dsbs_file, "--restarts", "0"]):
        hashed.clear()
        code, doc = run_json(capsys, argv)
        assert code == EXIT_OK
        assert hashed and doc["input"]["sha256"] == want
    for argv in (["reduce", dsbs_file],
                 ["ib-sweep", dsbs_file, "--beta-grid", "2"]):
        hashed.clear()
        assert main(argv) == EXIT_OK
        assert hashed == []
