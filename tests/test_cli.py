import json

import numpy as np
import pytest

from ddstab import cli
from ddstab.cli import main
from ddstab.lmi import LmiProblem, solve_feasibility
from ddstab.systems import DataBatch, REFERENCE_CASCADE_GAIN_PLUS


def run(*argv):
    return main(list(argv))


#: Decomposition options that give no valid X+, with the n_plus they would
#: give on the reference cascade: a negative head block, and an X+ of
#: dimension 0 (no head block, and a reaction bound that leaves no slow mode).
BAD_SPLITS = pytest.mark.parametrize(
    "split, n_plus",
    [(["--head-dim", "-1"], 1), (["--head-dim", "-2"], 0), (["--head-dim", "0", "--b0", "-3"], 0)],
    ids=["head-dim-1", "head-dim-2", "empty"],
)


def write_gain(path, K):
    with open(path, "w") as fh:
        json.dump({"schema_version": 1, "K": np.atleast_2d(K).tolist()}, fh)


def assert_fits_data(batch, A, B):
    """[A B] W = Xi1, W = [Xi0; Ups0], to 1e-12 ||[A B]|| ||W||."""
    AB, W = np.hstack([A, B]), np.vstack([batch.Xi0, batch.Ups0])
    residual = np.linalg.norm(AB @ W - batch.Xi1, 2)
    assert residual <= 1e-12 * np.linalg.norm(AB, 2) * np.linalg.norm(W, 2)


@pytest.fixture()
def cascade_file(tmp_path):
    path = tmp_path / "cascade.json"
    assert run("generate", "--scenario", "heat-cascade", "--out", str(path)) == 0
    return path


class TestGenerate:
    def test_heat_cascade_defaults(self, cascade_file):
        batch = DataBatch.load(cascade_file)
        assert batch.N == 5
        assert batch.n == 52
        assert batch.m == 1

    def test_invalid_config_nonzero_exit(self, tmp_path):
        assert run(
            "generate", "--scenario", "counterexample", "--n", "0",
            "--out", str(tmp_path / "x.json"),
        ) == 2

    @pytest.mark.parametrize(
        "option",
        [["--n", "-2"], ["--n", "0"], ["--m", "-1"], ["--radius", "-1"], ["--radius", "0"],
         ["--radius", "nan"], ["--radius", "inf"]],
        ids=["n-negative", "n-zero", "m-negative", "radius-negative", "radius-zero",
             "radius-nan", "radius-inf"],
    )
    def test_random_lti_rejects_bad_size_or_radius(self, tmp_path, option, capsys):
        """No state, a negative input count and a radius that is not finite
        and positive are input errors: exit 2 with a message, and no file."""
        path = tmp_path / "x.json"
        assert run("generate", "--scenario", "random-lti", *option, "--out", str(path)) == 2
        assert "error:" in capsys.readouterr().err
        assert not path.exists()

    def test_batch_without_state_exits_2(self, tmp_path, capsys):
        """A hand-written batch with samples but no state columns is rejected
        on load, so analyze exits 2 rather than with a negative verdict."""
        path = tmp_path / "empty-state.json"
        path.write_text(json.dumps({"x1": [[], []], "x0": [[], []], "u0": [[1.0], [2.0]]}))
        assert run("analyze", "--in", str(path), "--mode", "stabilize") == 2
        assert "state coordinate" in capsys.readouterr().err

    def test_counterexample(self, tmp_path):
        path = tmp_path / "cex.json"
        assert run("generate", "--scenario", "counterexample", "--n", "100", "--out", str(path)) == 0
        batch = DataBatch.load(path)
        assert batch.N == 100 and batch.n == 100
        assert not batch.x1.any()

    def test_random_lti_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            assert run("generate", "--scenario", "random-lti", "--seed", "7", "--out", str(p)) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_heat_cascade_overrides(self, tmp_path):
        path = tmp_path / "small.json"
        assert run(
            "generate", "--scenario", "heat-cascade", "--n-modes", "12", "--samples", "8",
            "--out", str(path),
        ) == 0
        batch = DataBatch.load(path)
        assert batch.n == 14 and batch.N == 8


class TestParser:
    def test_successive_calls_do_not_leak_state(self, tmp_path):
        """The parser is built once per process; an option given in one call
        does not carry over to the next."""
        small, default = tmp_path / "small.json", tmp_path / "default.json"
        assert run(
            "generate", "--scenario", "heat-cascade", "--n-modes", "12", "--samples", "9",
            "--out", str(small),
        ) == 0
        assert run("generate", "--scenario", "heat-cascade", "--out", str(default)) == 0
        assert DataBatch.load(small).N == 9
        batch = DataBatch.load(default)
        assert batch.N == 5 and batch.n == 52
        assert cli.build_parser() is cli.build_parser()

    def test_command_looked_up_at_call_time(self, cascade_file, monkeypatch):
        """main runs the cmd_<command> bound when it is called, so a rebound
        command function (a tracer's wrapper) is the one that runs."""
        seen = []
        monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args.mode) or 7)
        assert run("analyze", "--in", str(cascade_file), "--mode", "identify") == 7
        assert seen == ["identify"]


class TestAnalyze:
    def test_finite_plus_reference(self, cascade_file, tmp_path):
        report_path = tmp_path / "report.json"
        code = run(
            "analyze", "--in", str(cascade_file), "--mode", "finite-plus",
            "--gamma", "0.9", "--gamma-minus", "0.89", "--a0", "0.1", "--b0", "0",
            "--out", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["informative"] is True
        assert report["decomposition"]["n0"] == 2
        assert report["decomposition"]["n_plus"] == 4
        assert report["achieved_radius"] <= 0.9
        assert len(report["K_plus"][0]) == 4

    def test_identify_zero_input_negative(self, tmp_path):
        path = tmp_path / "zero.json"
        DataBatch(x1=np.zeros((3, 2)), x0=np.eye(3)[:, :2] @ np.eye(2), u0=np.zeros((3, 1))).save(path)
        assert run("analyze", "--in", str(path), "--mode", "identify") == 1

    def test_identify_excited_positive(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "ok.json"
        DataBatch(
            x1=rng.standard_normal((6, 2)),
            x0=rng.standard_normal((6, 2)),
            u0=rng.standard_normal((6, 1)),
        ).save(path)
        assert run("analyze", "--in", str(path), "--mode", "identify") == 0

    def test_stabilize_full_dimension_fails_on_cascade(self, cascade_file, tmp_path):
        # 52 states from 5 samples cannot be informative at full dimension
        report = tmp_path / "report.json"
        assert run(
            "analyze", "--in", str(cascade_file), "--mode", "stabilize", "--out", str(report)
        ) == 1
        payload = json.loads(report.read_text())
        assert payload["stage"] == "lmi" and payload["reason"] == "rank"
        assert payload["margin"] < 0.0 and "pbh_mode" not in payload

    def test_unreachable_mode_reported(self, tmp_path, capsys):
        """x1 = A x0 + B u0 with the mode 1.25 of A out of the input's reach:
        the report names the mode that decides the negative verdict."""
        rng = np.random.default_rng(3)
        A = np.array([[1.25, 0.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 1.5]])
        B = np.array([[0.0], [0.0], [1.0]])
        x0, u0 = rng.standard_normal((8, 3)), rng.standard_normal((8, 1))
        path, report = tmp_path / "pbh.json", tmp_path / "report.json"
        DataBatch(x1=x0 @ A.T + u0 @ B.T, x0=x0, u0=u0).save(path)
        capsys.readouterr()
        assert run("analyze", "--in", str(path), "--mode", "stabilize", "--out", str(report)) == 1
        assert "pbh mode 1.25" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert payload["stage"] == "lmi" and payload["reason"] == "pbh"
        assert payload["pbh_mode"] == pytest.approx([1.25, 0.0], abs=1e-9)
        assert payload["margin"] == pytest.approx(-1.0 / (1.0 + 1.25**2), rel=1e-9)

    @pytest.mark.parametrize("n, seed", [(8, 3), (12, 0), (12, 1), (12, 2), (16, 0)])
    def test_minimal_data_former_false_negatives(self, tmp_path, n, seed):
        """Minimal random-LTI data (N = n + 1, radius 2) that a damped-Newton
        LMI search used to call not informative at its iteration cap, though
        a Riccati gain stabilizes each: the verdict is informative, and the
        right inverse behind the gain is exact to 1e-10."""
        data, report = tmp_path / "data.json", tmp_path / "report.json"
        assert run(
            "generate", "--scenario", "random-lti", "--n", str(n), "--seed", str(seed),
            "--samples", str(n + 1), "--radius", "2.0", "--out", str(data),
        ) == 0
        assert run(
            "analyze", "--in", str(data), "--mode", "stabilize", "--gamma", "0.9",
            "--out", str(report),
        ) == 0
        payload = json.loads(report.read_text())
        assert payload["informative"] is True
        assert payload["achieved_radius"] < 0.9
        batch = DataBatch.load(data)
        sol = solve_feasibility(LmiProblem(Xi0=batch.Xi0, Xi1=batch.Xi1, gamma=0.9))
        assert np.linalg.norm(batch.Xi0 @ sol.right_inverse - np.eye(n)) <= 1e-10
        assert np.allclose(batch.Ups0 @ sol.right_inverse, payload["K"], rtol=0, atol=0)

    def test_tol_reaches_rank_test(self, tmp_path):
        """--tol is the rank and PBH tolerance of the stabilization verdict:
        at 0.5 the state data of random-LTI n = 8 have rank 1 of 8, while the
        default tolerance certifies the same data."""
        data, loose, default = (tmp_path / f for f in ("data.json", "loose.json", "default.json"))
        assert run(
            "generate", "--scenario", "random-lti", "--n", "8", "--seed", "0", "--out", str(data)
        ) == 0
        args = ("analyze", "--in", str(data), "--mode", "stabilize", "--gamma", "0.9")
        assert run(*args, "--tol", "0.5", "--out", str(loose)) == 1
        payload = json.loads(loose.read_text())
        assert payload["informative"] is False
        assert payload["stage"] == "lmi" and payload["reason"] == "rank"
        assert run(*args, "--out", str(default)) == 0
        payload = json.loads(default.read_text())
        assert payload["informative"] is True
        assert payload["certificate"]["M"] == pytest.approx(2.7809, abs=5e-5)

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    @pytest.mark.parametrize("mode", ["identify", "stabilize", "finite-plus"])
    def test_non_finite_tol_exit_2(self, cascade_file, tmp_path, mode, tol):
        """A NaN or infinite --tol counts no singular value, so it would read
        as rank 0: it is an input error, and no report is written."""
        report = tmp_path / "report.json"
        assert run(
            "analyze", "--in", str(cascade_file), "--mode", mode, "--tol", tol, "--out", str(report)
        ) == 2
        assert not report.exists()

    @pytest.mark.parametrize("option", ["--a0", "--b0", "--tau"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_decomposition_bound_exit_2(self, cascade_file, tmp_path, option, value):
        """A NaN or infinite parameter bound has no mode cutoff: an input
        error, and no report is written."""
        report = tmp_path / "report.json"
        assert run(
            "analyze", "--in", str(cascade_file), "--mode", "finite-plus", option, value,
            "--out", str(report),
        ) == 2
        assert not report.exists()

    @BAD_SPLITS
    def test_bad_split_exit_2(self, cascade_file, tmp_path, split, n_plus):
        report = tmp_path / "report.json"
        assert run(
            "analyze", "--in", str(cascade_file), "--mode", "finite-plus", *split,
            "--out", str(report),
        ) == 2
        assert not report.exists()

    def test_malformed_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("analyze", "--in", str(bad), "--mode", "identify") == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert run("analyze", "--in", str(tmp_path / "nope.json"), "--mode", "identify") == 2

    def test_report_round_trip_and_determinism(self, cascade_file, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = (
            "analyze", "--in", str(cascade_file), "--mode", "finite-plus",
            "--gamma", "0.9", "--seed", "3",
        )
        assert run(*args, "--out", str(r1)) == 0
        assert run(*args, "--out", str(r2)) == 0
        assert r1.read_bytes() == r2.read_bytes()
        payload = json.loads(r1.read_text())
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == r1.read_text()


class TestVerify:
    def test_reference_gain_plus_mode(self, cascade_file, tmp_path):
        gain = tmp_path / "gain.json"
        write_gain(gain, REFERENCE_CASCADE_GAIN_PLUS)
        report = tmp_path / "verify.json"
        code = run(
            "verify", "--in", str(cascade_file), "--gain", str(gain), "--mode", "plus",
            "--gamma", "0.9", "--trials", "200", "--seed", "0", "--out", str(report),
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["failures"] == 0
        assert payload["worst_radius"] <= 0.9 + 1e-6

    def test_zero_gain_fails_on_unstable_family(self, tmp_path):
        data = tmp_path / "lti.json"
        assert run(
            "generate", "--scenario", "random-lti", "--n", "3", "--radius", "1.3",
            "--seed", "5", "--out", str(data),
        ) == 0
        gain = tmp_path / "zero.json"
        write_gain(gain, np.zeros((1, 3)))
        report = tmp_path / "fail.json"
        assert run(
            "verify", "--in", str(data), "--gain", str(gain), "--mode", "full",
            "--gamma", "0.9", "--trials", "20", "--out", str(report),
        ) == 1
        payload = json.loads(report.read_text())
        assert "offending_sample" in payload
        assert payload["offending_sample"]["radius"] > 0.9

    def test_full_mode_reports_worst_sample(self, cascade_file, tmp_path):
        gain = tmp_path / "zero.json"
        write_gain(gain, np.zeros((1, 52)))
        report = tmp_path / "full.json"
        assert run(
            "verify", "--in", str(cascade_file), "--gain", str(gain), "--mode", "full",
            "--gamma", "0.9", "--trials", "20", "--out", str(report),
        ) == 1
        payload = json.loads(report.read_text())
        assert payload["failures"] == 20
        sample = payload["offending_sample"]
        assert sample["radius"] == payload["worst_radius"] > 0.9
        loop = np.array(sample["A"])  # zero gain: the loop is A
        assert np.max(np.abs(np.linalg.eigvals(loop))) == pytest.approx(sample["radius"], rel=1e-12)
        assert_fits_data(DataBatch.load(cascade_file), sample["A"], sample["B"])

    def test_full_mode_decides_the_whole_family(self, tmp_path):
        """With N = 4 < n + m = 5 the family is not one system.  The
        synthesized gain has [I; K] in Ran [Xi0; Ups0], so every compatible
        system shares its loop.  Perturbed off that range, it is defeated by
        a compatible system, which is reported: 200 sampled systems at scale
        1 all stayed below gamma (worst radius 0.689808)."""
        data, report = tmp_path / "lti.json", tmp_path / "analysis.json"
        assert run(
            "generate", "--scenario", "random-lti", "--n", "3", "--m", "2", "--samples", "4",
            "--seed", "1", "--out", str(data),
        ) == 0
        assert run(
            "analyze", "--in", str(data), "--mode", "stabilize", "--out", str(report),
        ) == 0
        K = np.array(json.loads(report.read_text())["K"])
        gain, out = tmp_path / "gain.json", tmp_path / "verify.json"
        write_gain(gain, K)
        argv = ["verify", "--in", str(data), "--gain", str(gain), "--mode", "full",
                "--out", str(out)]
        assert run(*argv) == 0
        K = K + 0.02 * np.random.default_rng(5).standard_normal((2, 3))
        write_gain(gain, K)
        assert run(*argv) == 1
        payload = json.loads(out.read_text())
        assert payload["failures"] == 200
        sample = payload["offending_sample"]
        A, B = np.array(sample["A"]), np.array(sample["B"])
        radius = np.max(np.abs(np.linalg.eigvals(A + B @ K)))
        assert radius == pytest.approx(payload["worst_radius"], rel=1e-9)
        assert radius > 0.9 and sample["radius"] == payload["worst_radius"]
        assert_fits_data(DataBatch.load(data), A, B)

    def test_full_mode_accepts_synthesized_gain(self, tmp_path):
        data = tmp_path / "lti.json"
        assert run(
            "generate", "--scenario", "random-lti", "--n", "3", "--seed", "7", "--out", str(data),
        ) == 0
        report = tmp_path / "analysis.json"
        assert run(
            "analyze", "--in", str(data), "--mode", "stabilize", "--gamma", "0.95",
            "--out", str(report),
        ) == 0
        gain = tmp_path / "gain.json"
        write_gain(gain, json.loads(report.read_text())["K"])
        assert run(
            "verify", "--in", str(data), "--gain", str(gain), "--mode", "full",
            "--gamma", "0.95", "--trials", "50",
        ) == 0

    def test_full_mode_on_identifying_data_checks_one_loop(self, tmp_path):
        """Random-LTI data with N = 2(n + m) identify their system, so the
        compatible family is one system, whose loop radius is reported."""
        data = tmp_path / "lti.json"
        assert run(
            "generate", "--scenario", "random-lti", "--n", "3", "--seed", "7", "--out", str(data),
        ) == 0
        report = tmp_path / "analysis.json"
        assert run(
            "analyze", "--in", str(data), "--mode", "stabilize", "--gamma", "0.9",
            "--out", str(report),
        ) == 0
        K = np.array(json.loads(report.read_text())["K"])
        gain, out = tmp_path / "gain.json", tmp_path / "verify.json"
        write_gain(gain, K)
        assert run(
            "verify", "--in", str(data), "--gain", str(gain), "--mode", "full",
            "--gamma", "0.9", "--trials", "37", "--seed", "4", "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["trials"] == 37 and payload["failures"] == 0
        batch = DataBatch.load(data)
        AB = batch.Xi1 @ np.linalg.pinv(np.vstack([batch.Xi0, batch.Ups0]))
        loop = AB[:, :3] + AB[:, 3:] @ K
        radius = np.max(np.abs(np.linalg.eigvals(loop)))
        assert radius == pytest.approx(payload["worst_radius"], rel=1e-9)

    def test_gain_shape_mismatch_exit_2(self, cascade_file, tmp_path):
        gain = tmp_path / "bad_gain.json"
        write_gain(gain, np.zeros((1, 3)))
        assert run(
            "verify", "--in", str(cascade_file), "--gain", str(gain), "--mode", "plus",
            "--gamma", "0.9",
        ) == 2
        assert run(
            "verify", "--in", str(cascade_file), "--gain", str(gain), "--mode", "full",
            "--gamma", "0.9",
        ) == 2

    def test_zero_trials_vacuous_pass(self, cascade_file, tmp_path, capsys):
        gain = tmp_path / "gain.json"
        write_gain(gain, REFERENCE_CASCADE_GAIN_PLUS)
        code = run(
            "verify", "--in", str(cascade_file), "--gain", str(gain), "--mode", "plus",
            "--gamma", "0.9", "--trials", "0",
        )
        assert code == 0
        assert "vacuous" in capsys.readouterr().out

    @pytest.mark.parametrize("option", ["--gamma", "--scale", "--a0", "--b0", "--tau"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_gamma_or_scale_exit_2(self, cascade_file, tmp_path, option, value):
        """``radius > nan`` is never true, so a NaN gamma would pass every
        gain; scale, checked though nothing is drawn, must be finite; a
        non-finite parameter bound has no mode cutoff."""
        gain, report = tmp_path / "gain.json", tmp_path / "verify.json"
        write_gain(gain, REFERENCE_CASCADE_GAIN_PLUS)
        assert run(
            "verify", "--in", str(cascade_file), "--gain", str(gain), "--mode", "plus",
            "--trials", "5", option, value, "--out", str(report),
        ) == 2
        assert not report.exists()

    @BAD_SPLITS
    def test_bad_split_exit_2(self, cascade_file, tmp_path, split, n_plus):
        """The gain has the n_plus columns the split asks for, so the
        split itself is what gets rejected."""
        gain, report = tmp_path / "gain.json", tmp_path / "verify.json"
        write_gain(gain, np.atleast_2d(REFERENCE_CASCADE_GAIN_PLUS)[:, :n_plus])
        assert run(
            "verify", "--in", str(cascade_file), "--gain", str(gain), "--mode", "plus",
            "--trials", "5", *split, "--out", str(report),
        ) == 2
        assert not report.exists()

    @pytest.mark.parametrize("mode, columns", [("plus", 4), ("full", 52)])
    @pytest.mark.parametrize("entry", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_gain_exit_2(self, cascade_file, tmp_path, mode, columns, entry):
        """A NaN or infinite gain entry is an input error (exit 2, no
        report), not a gain that fails (exit 1)."""
        K = np.zeros((1, columns))
        K[0, 0] = entry
        gain, report = tmp_path / "gain.json", tmp_path / "verify.json"
        write_gain(gain, K)
        assert run(
            "verify", "--in", str(cascade_file), "--gain", str(gain), "--mode", mode,
            "--gamma", "0.9", "--out", str(report),
        ) == 2
        assert not report.exists()


class TestVerdictChain:
    def test_generate_analyze_verify_under_time_budget(self, tmp_path):
        import time

        t0 = time.perf_counter()
        data = tmp_path / "d.json"
        report = tmp_path / "r.json"
        gain = tmp_path / "g.json"
        assert run("generate", "--scenario", "heat-cascade", "--out", str(data)) == 0
        assert run(
            "analyze", "--in", str(data), "--mode", "finite-plus",
            "--gamma", "0.9", "--gamma-minus", "0.89", "--a0", "0.1", "--b0", "0",
            "--out", str(report),
        ) == 0
        payload = json.loads(report.read_text())
        assert payload["decomposition"]["n0"] == 2
        write_gain(gain, payload["K_plus"])
        assert run(
            "verify", "--in", str(data), "--gain", str(gain), "--mode", "plus",
            "--gamma", "0.9", "--trials", "200", "--seed", "0",
        ) == 0
        assert time.perf_counter() - t0 < 60.0


class TestNoise:
    def test_zero_budget_reduces_to_nominal(self, cascade_file, tmp_path):
        report = tmp_path / "noise.json"
        code = run(
            "noise", "--in", str(cascade_file), "--gamma", "0.9", "--c1", "0", "--c0", "0",
            "--project", "--trials", "3", "--out", str(report),
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["gamma_tilde"] == pytest.approx(0.9)
        assert payload["margin_ok"] is True

    def test_small_budget_passes(self, cascade_file, tmp_path):
        report = tmp_path / "noise.json"
        code = run(
            "noise", "--in", str(cascade_file), "--gamma", "0.9",
            "--c1", "0.003", "--c0", "0.003", "--project", "--trials", "5",
            "--out", str(report),
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["gamma_tilde"] < 1.0
        assert payload["verification"]["violations"] == 0

    def test_budget_violation_exit_1(self, cascade_file, tmp_path):
        report = tmp_path / "noise.json"
        code = run(
            "noise", "--in", str(cascade_file), "--gamma", "0.9",
            "--c1", "0.05", "--c0", "0.05", "--project", "--trials", "2",
            "--out", str(report),
        )
        assert code == 1
        payload = json.loads(report.read_text())
        assert payload["applicable"] is False or payload["margin_ok"] is False

    def test_unprojected_cascade_not_applicable(self, cascade_file):
        code = run(
            "noise", "--in", str(cascade_file), "--gamma", "0.9", "--c1", "0", "--c0", "0",
        )
        assert code == 1

    def test_unprojected_draws_checked(self, tmp_path, capsys):
        """Unprojected data with N > n + m: every trial's loop is checked and
        the check passes."""
        data, report = tmp_path / "rl.json", tmp_path / "noise.json"
        assert run("generate", "--scenario", "random-lti", "--n", "3", "--seed", "7",
                   "--out", str(data)) == 0
        code = run(
            "noise", "--in", str(data), "--gamma", "0.9", "--c1", "0.001", "--c0", "0.001",
            "--trials", "50", "--out", str(report),
        )
        assert code == 0
        assert "inconclusive" not in capsys.readouterr().out
        verification = json.loads(report.read_text())["verification"]
        assert verification["rejected_draws"] < 50
        assert verification["worst_radius"] > 0.0
        assert verification["violations"] == 0

    def test_unprojected_draws_all_kept(self, tmp_path):
        """Every drawn factor pair lies in the class, so no draw is rejected
        and every trial is checked."""
        data, report = tmp_path / "rl.json", tmp_path / "noise.json"
        assert run("generate", "--scenario", "random-lti", "--n", "8", "--seed", "0",
                   "--out", str(data)) == 0
        code = run(
            "noise", "--in", str(data), "--gamma", "0.9", "--c1", "0.001", "--c0", "0.001",
            "--trials", "60", "--out", str(report),
        )
        assert code == 0
        verification = json.loads(report.read_text())["verification"]
        assert verification["rejected_draws"] == 0
        assert verification["worst_radius"] > 0.0
        assert verification["violations"] == 0

    @BAD_SPLITS
    def test_bad_split_exit_2(self, cascade_file, tmp_path, split, n_plus):
        report = tmp_path / "noise.json"
        assert run(
            "noise", "--in", str(cascade_file), "--gamma", "0.9", "--c1", "0.003",
            "--c0", "0.003", "--project", "--trials", "5", *split, "--out", str(report),
        ) == 2
        assert not report.exists()

    def test_negative_trials_rejected(self, cascade_file, tmp_path):
        report = tmp_path / "noise.json"
        code = run(
            "noise", "--in", str(cascade_file), "--gamma", "0.9", "--c1", "0.003",
            "--c0", "0.003", "--project", "--trials", "-5", "--out", str(report),
        )
        assert code == 2
        assert not report.exists()

    @pytest.mark.parametrize(
        "option, value",
        [("--tol", "nan"), ("--tol", "inf"), ("--c1", "nan"), ("--c0", "inf"), ("--a0", "nan"),
         ("--b0", "nan"), ("--b0", "inf"), ("--tau", "nan"), ("--tau", "inf")],
    )
    def test_non_finite_tol_or_constant_exit_2(self, cascade_file, tmp_path, option, value):
        args = {"--tol": "1e-9", "--c1": "0.003", "--c0": "0.003", option: value}
        report = tmp_path / "noise.json"
        code = run(
            "noise", "--in", str(cascade_file), "--gamma", "0.9", "--project",
            "--trials", "5", "--out", str(report), *(x for kv in args.items() for x in kv),
        )
        assert code == 2
        assert not report.exists()

    def test_zero_trials_vacuous_pass(self, cascade_file, capsys):
        code = run(
            "noise", "--in", str(cascade_file), "--gamma", "0.9", "--c1", "0.003",
            "--c0", "0.003", "--project", "--trials", "0",
        )
        assert code == 0
        assert "warning: trials = 0, verification passes vacuously" in capsys.readouterr().out


class TestOneGainPerDataset:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_finite_plus_and_projected_noise_certify_the_same_gain(
        self, cascade_file, tmp_path, seed
    ):
        """Both commands synthesize on the same projected DataBatch, so the
        cascade chain reports one gain and one M, bit for bit."""
        dec = ["--gamma-minus", "0.89", "--a0", "0.1", "--b0", "0"]
        report, noisy = tmp_path / "report.json", tmp_path / "noise.json"
        assert run(
            "analyze", "--in", str(cascade_file), "--mode", "finite-plus", "--gamma", "0.9",
            "--out", str(report), *dec,
        ) == 0
        assert run(
            "noise", "--in", str(cascade_file), "--gamma", "0.9", "--c1", "0.003",
            "--c0", "0.003", "--project", "--trials", "200", "--seed", str(seed),
            "--out", str(noisy), *dec,
        ) == 0
        plus, robust = json.loads(report.read_text()), json.loads(noisy.read_text())
        assert plus["K_plus"] == robust["K"]
        assert plus["certificate"]["M"] == robust["M"]


class TestPlusContract:
    """Every command on X+ runs one X+ step, which holds the finite-data
    contract 0 < gamma_minus < gamma < 1."""

    @pytest.mark.parametrize("gamma", ["0.88", "0.89", "1.0"], ids=["below", "equal", "one"])
    @pytest.mark.parametrize("command", ["analyze", "verify", "noise"])
    def test_gamma_outside_contract_exit_2(self, cascade_file, tmp_path, capsys, command, gamma):
        """gamma at or below gamma_minus = 0.89, or at 1, is an input error
        for all three commands: exit 2, a message, and no report.  Before,
        ``verify`` passed and ``noise`` reported margin_ok at gamma = 0.88."""
        gain, report = tmp_path / "gain.json", tmp_path / "report.json"
        write_gain(gain, REFERENCE_CASCADE_GAIN_PLUS)
        argv = {
            "analyze": ["--mode", "finite-plus"],
            "verify": ["--gain", str(gain), "--mode", "plus", "--trials", "5"],
            "noise": ["--c1", "0.001", "--c0", "0.001", "--project", "--trials", "5"],
        }[command]
        assert run(
            command, "--in", str(cascade_file), *argv, "--gamma", gamma, "--gamma-minus", "0.89",
            "--out", str(report),
        ) == 2
        assert "need 0 < gamma_minus < gamma < 1" in capsys.readouterr().err
        assert not report.exists()

    def test_plus_gain_with_wrong_row_count_exit_2(self, cascade_file, tmp_path, capsys):
        """The cascade has one input, so a gain with two rows of n_plus = 4
        entries is an input error, as in full mode, not a matmul failure."""
        gain, report = tmp_path / "gain.json", tmp_path / "verify.json"
        write_gain(gain, [[0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4]])
        assert run(
            "verify", "--in", str(cascade_file), "--gain", str(gain), "--mode", "plus",
            "--gamma", "0.9", "--out", str(report),
        ) == 2
        assert "gain must be m x n = (1, 4), got (2, 4)" in capsys.readouterr().err
        assert not report.exists()


class TestNegativeSeed:
    """A negative seed is an input error (exit 2, no output file) wherever
    a seed keys a stream, also where no stream ends up drawn."""

    def test_generate_random_lti(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        assert run(
            "generate", "--scenario", "random-lti", "--seed", "-5", "--out", str(path)
        ) == 2
        assert "--seed" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize(
        "data_args, m",
        [(["--n", "3", "--m", "2", "--samples", "4"], 2), (["--n", "3", "--seed", "7"], 1)],
        ids=["drawn-family", "point-family"],
    )
    def test_verify_full(self, tmp_path, data_args, m):
        data, gain, report = tmp_path / "d.json", tmp_path / "gain.json", tmp_path / "v.json"
        assert run("generate", "--scenario", "random-lti", *data_args, "--out", str(data)) == 0
        write_gain(gain, np.zeros((m, 3)))
        assert run(
            "verify", "--in", str(data), "--gain", str(gain), "--mode", "full", "--seed", "-2",
            "--out", str(report),
        ) == 2
        assert not report.exists()

    def test_noise_unprojected(self, tmp_path):
        data, report = tmp_path / "rl.json", tmp_path / "noise.json"
        assert run(
            "generate", "--scenario", "random-lti", "--n", "3", "--seed", "7", "--out", str(data)
        ) == 0
        assert run(
            "noise", "--in", str(data), "--gamma", "0.9", "--c1", "0.001", "--c0", "0.001",
            "--seed", "-1", "--out", str(report),
        ) == 2
        assert not report.exists()

    def test_noise_projected(self, cascade_file, tmp_path):
        report = tmp_path / "noise.json"
        assert run(
            "noise", "--in", str(cascade_file), "--gamma", "0.9", "--c1", "0.003",
            "--c0", "0.003", "--project", "--seed", "-1", "--out", str(report),
        ) == 2
        assert not report.exists()


class TestSamplingCheckedBeforeSynthesis:
    """noise rejects a negative --trials or --seed before it synthesizes, so
    the error (exit 2, no report) does not depend on the verdict: the
    unprojected cascade is not a frame, the projected one certifies."""

    @pytest.mark.parametrize("option", [["--seed", "-1"], ["--trials", "-1"]], ids=["seed", "trials"])
    @pytest.mark.parametrize("project", [[], ["--project"]], ids=["unprojected", "projected"])
    def test_exit_2_without_report(self, cascade_file, tmp_path, capsys, option, project):
        report = tmp_path / "noise.json"
        assert run(
            "noise", "--in", str(cascade_file), "--gamma", "0.9", "--c1", "0.003",
            "--c0", "0.003", *project, *option, "--out", str(report),
        ) == 2
        assert "error: trials and seed must be >= 0" in capsys.readouterr().err
        assert not report.exists()


class TestNoInputRoundTrip:
    """With m = 0 analyze writes the (0, n) gain as "K": [], and verify reads
    it back as that gain."""

    def test_full_mode(self, tmp_path):
        data, report = tmp_path / "d.json", tmp_path / "a.json"
        gain, checked = tmp_path / "gain.json", tmp_path / "v.json"
        assert run(
            "generate", "--scenario", "random-lti", "--n", "3", "--m", "0", "--radius", "0.5",
            "--out", str(data),
        ) == 0
        assert run("analyze", "--in", str(data), "--mode", "stabilize", "--out", str(report)) == 0
        analysis = json.loads(report.read_text())
        assert analysis["K"] == []
        gain.write_text(json.dumps({"K": analysis["K"]}))
        assert run(
            "verify", "--in", str(data), "--gain", str(gain), "--mode", "full",
            "--out", str(checked),
        ) == 0
        worst = json.loads(checked.read_text())["worst_radius"]
        assert worst == pytest.approx(analysis["achieved_radius"], rel=1e-12)

    def test_plus_mode(self, tmp_path):
        """A 4-state system with X- = the last two coordinates invariant:
        X+ (n0 = 2, no head block) is the leading 2 x 2 block."""
        rng = np.random.default_rng(3)
        A = np.array([[0.5, 0.2, 0.0, 0.0], [-0.1, 0.4, 0.0, 0.0],
                      [0.3, 0.1, 0.2, 0.0], [0.0, 0.2, 0.1, 0.3]])
        x0 = rng.standard_normal((6, 4))
        data = tmp_path / "d.json"
        DataBatch(x1=x0 @ A.T, x0=x0, u0=np.zeros((6, 0))).save(data)
        split = ["--head-dim", "0"]
        report, gain, checked = tmp_path / "a.json", tmp_path / "gain.json", tmp_path / "v.json"
        assert run(
            "analyze", "--in", str(data), "--mode", "finite-plus", *split, "--out", str(report)
        ) == 0
        analysis = json.loads(report.read_text())
        assert analysis["K_plus"] == [] and analysis["decomposition"]["n_plus"] == 2
        gain.write_text(json.dumps({"K": analysis["K_plus"]}))
        assert run(
            "verify", "--in", str(data), "--gain", str(gain), "--mode", "plus", *split,
            "--out", str(checked),
        ) == 0
        worst = json.loads(checked.read_text())["worst_radius"]
        assert worst == pytest.approx(analysis["achieved_radius"], rel=1e-12)
