import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ddstab import cli
from ddstab.cli import main
from ddstab.lmi import LmiProblem, solve_feasibility
from ddstab.systems import DataBatch, REFERENCE_CASCADE_GAIN_PLUS


def run(*argv):
    return main(list(argv))


def write_gain(path, K):
    with open(path, "w") as fh:
        json.dump({"schema_version": 1, "K": np.atleast_2d(K).tolist()}, fh)


def assert_fits_data(batch, A, B):
    """[A B] W = Xi1, W = [Xi0; Ups0], to 1e-12 ||[A B]|| ||W||."""
    AB, W = np.hstack([A, B]), np.vstack([batch.Xi0, batch.Ups0])
    residual = np.linalg.norm(AB @ W - batch.Xi1, 2)
    assert residual <= 1e-12 * np.linalg.norm(AB, 2) * np.linalg.norm(W, 2)


#: Commands that read a hand-written batch given with --in.
BATCH_COMMANDS = {
    "stabilize": "analyze --mode stabilize",
    "finite-plus": "analyze --mode finite-plus --head-dim 1 --a0 100",
    "noise": "noise --gamma 0.9 --c1 0 --c0 0",
}


@pytest.fixture()
def cascade_file(tmp_path):
    path = tmp_path / "cascade.json"
    assert run("generate", "--scenario", "heat-cascade", "--out", str(path)) == 0
    return path


# One table for the contract every rejected input holds: exit 2, nothing on
# stdout, one "error: " line on stderr and no --out file (`rejects`).
# Each row is (command line, --out, stderr fragment) by id; a placeholder
# names a file of BAD_INPUT_FILES or GENERATED_INPUTS, {missing} a file
# never written, and {tmp} the row's own tmp_path.  A test class checks the
# rows of its command with table_test, and test_bad_input the rest.

GAIN = np.atleast_2d(REFERENCE_CASCADE_GAIN_PLUS).tolist()
BAD_INPUT_FILES = {
    "gain": {"K": GAIN},
    # the n_plus columns of a bad split, so that the split is what is rejected
    "gain_1": {"K": [row[:1] for row in GAIN]},
    "gain_0": {"K": [[]]},
    "zeros_1x2": {"K": [[0.0] * 2]},
    "zeros_1x3": {"K": [[0.0] * 3]},
    "zeros_2x3": {"K": [[0.0] * 3] * 2},
    "two_rows": {"K": [[0.1, 0.2, 0.3, 0.4]] * 2},
    **{
        f"{mode}_{name}": {"K": [[value] + [0.0] * (columns - 1)]}
        for mode, columns in (("plus", 4), ("full", 52))
        for name, value in (("nan", np.nan), ("inf", np.inf), ("neg_inf", -np.inf))
    },
    "both_keys": {"K": [[0.0] * 4], "K_plus": [[0.0] * 4]},
    "no_key": {"informative": False},
    "bare_matrix": [[0.0] * 4],
    "not_json": "{not json",
    "no_state": {"x1": [[], []], "x0": [[], []], "u0": [[1.0], [2.0]]},
    "nan_entry": {"x1": [[1.0, 0.0]], "x0": [[np.nan, 0.0]], "u0": [[1.0]]},
    "no_u0": {"x1": [[1.0, 0.0]], "x0": [[0.0, 1.0]]},
    "widths_differ": {"x1": [[1.0, 0.0]], "x0": [[0.0, 0.0, 0.0]], "u0": [[1.0]]},
    "states_3d": {"x1": [[[1.0, 2.0]], [[0.5, 1.0]]], "x0": [[[1.0, 0.0]], [[0.0, 1.0]]],
                  "u0": [[1.0], [0.0]]},
    "inputs_3d": {"x1": [[1.0, 0.0]], "x0": [[0.0, 1.0]], "u0": [[[1.0]]]},
    # Xi1 Xi0^+ leaves double precision; on huge_over_tiny W = [Xi0; Ups0]
    # has rank 1, so Xi1 W^+ is finite and verify decides the family there
    "huge_over_tiny": {"x1": [[1e200, 0.0], [0.0, 1e200]], "x0": [[1e-200, 0.0], [0.0, 1e-200]],
                       "u0": [[1.0], [0.0]]},
    "subnormal": {"x1": [[1e-320, 0.0], [0.0, 1e-320]], "x0": [[1e-320, 0.0], [0.0, 1e-320]],
                  "u0": [[1e-320], [0.0]]},
}
GENERATED_INPUTS = {
    "cascade": "--scenario heat-cascade",
    "lti": "--scenario random-lti --n 3 --seed 7",
    "wide": "--scenario random-lti --n 3 --m 2 --samples 4 --seed 1",
}


def rejected(id, line, fragment, out="{tmp}/out.json"):
    return id, (line, out, fragment)


LTI = "generate --scenario random-lti"
PLUS = "analyze --in {cascade} --mode finite-plus"
VERIFY = "verify --in {cascade} --gain {gain} --mode plus"
NOISE = "noise --in {cascade} --gamma 0.9 --c1 0.003 --c0 0.003"
PROJECTED = NOISE + " --project"
TOL = "tol must be finite and positive"
BOUNDS = "a0 and tau must be finite and positive, and b0 finite"
CONTRACT = "need 0 < gamma_minus < gamma < 1"
SAMPLING = "trials and seed must be >= 0"
SIZES = "need --n >= 1 and --m >= 0"
RADIUS = "--radius must be finite and positive"
TRAJECTORY = "x1 contains non-finite entries"
OVERFLOW = "the data overflow double precision"
POWER_BOUND = "the bound (M + s) gamma_tilde^k overflows"
UNADDRESSABLE = "too big for numpy to address"
#: Decomposition options that give no valid X+: a negative head block, and
#: an X+ of dimension 0 (no head block, and a reaction bound that leaves no
#: slow mode).
NEGATIVE_HEAD, NO_PLUS = "--head-dim -1", "--head-dim 0 --b0 -3"

BAD_INPUTS = dict([
    rejected("generate-counterexample-n-0", "generate --scenario counterexample --n 0", "n must be >= 1"),
    rejected("generate-counterexample-n-2^62", "generate --scenario counterexample --n 4611686018427387904",
             UNADDRESSABLE),
    rejected("generate-n-negative", f"{LTI} --n -2", SIZES),
    rejected("generate-n-zero", f"{LTI} --n 0", SIZES),
    rejected("generate-m-negative", f"{LTI} --m -1", SIZES),
    rejected("generate-n-2^31", f"{LTI} --n 2147483648", UNADDRESSABLE),
    rejected("generate-m-10^18", f"{LTI} --m 1000000000000000000", UNADDRESSABLE),
    rejected("generate-radius-negative", f"{LTI} --radius -1", RADIUS),
    rejected("generate-radius-zero", f"{LTI} --radius 0", RADIUS),
    rejected("generate-radius-nan", f"{LTI} --radius nan", RADIUS),
    rejected("generate-radius-inf", f"{LTI} --radius inf", RADIUS),
    rejected("generate-scale-nan", f"{LTI} --scale nan", "--scale must be finite"),
    rejected("generate-scale-inf", f"{LTI} --scale inf", "--scale must be finite"),
    rejected("generate-seed-negative", f"{LTI} --seed -1", "--seed must be >= 0"),
    rejected("generate-radius-1e200", f"{LTI} --radius 1e200", TRAJECTORY),
    rejected("generate-radius-3-samples-700", f"{LTI} --radius 3 --samples 700", TRAJECTORY),
    # batch files that are not a valid batch
    *(rejected(f"analyze-{name.replace('_', '-')}", f"analyze --in {{{name}}} --mode identify",
               f"cannot read data batch from {{{name}}}")
      for name in ("not_json", "missing", "nan_entry", "no_u0", "widths_differ", "states_3d", "inputs_3d")),
    rejected("analyze-no-state", "analyze --in {no_state} --mode stabilize", "state coordinate"),
    # batches whose products Xi1 Xi0^+ (or Xi1 W^+) leave double precision
    *(rejected(f"{command}-{data.replace('_', '-')}", f"{line} --in {{{data}}}", OVERFLOW)
      for command, line in BATCH_COMMANDS.items() for data in ("huge_over_tiny", "subnormal")),
    rejected("verify-subnormal", "verify --mode full --gain {zeros_1x2} --in {subnormal}", OVERFLOW),
    # analyze options
    *(rejected(f"analyze-{mode}-tol-{value}", f"analyze --in {{cascade}} --mode {mode} --tol {value}", TOL)
      for mode in ("identify", "stabilize", "finite-plus") for value in ("nan", "inf")),
    *(rejected(f"analyze-{option}-{value}", f"{PLUS} --{option} {value}", BOUNDS)
      for option in ("a0", "b0", "tau") for value in ("nan", "inf")),
    rejected("analyze-head-dim-1", f"{PLUS} {NEGATIVE_HEAD}", "head_dim = -1 must be >= 0"),
    rejected("analyze-head-dim-2", f"{PLUS} --head-dim -2", "head_dim = -2 must be >= 0"),
    rejected("analyze-no-plus", f"{PLUS} {NO_PLUS}", "n_plus = 0 outside 1..52"),
    # verify gains and options
    *(rejected(f"verify-{name.replace('_', '-')}", f"verify --in {{cascade}} --gain {{{name}}} --mode plus",
               f"cannot read gain from {{{name}}}")
      for name in ("both_keys", "no_key", "bare_matrix")),
    rejected("verify-plus-gain-1x3", "verify --in {cascade} --gain {zeros_1x3} --mode plus",
             "gain must be m x n = (1, 4), got (1, 3)"),
    rejected("verify-full-gain-1x3", "verify --in {cascade} --gain {zeros_1x3} --mode full",
             "gain must be m x n = (1, 52), got (1, 3)"),
    rejected("verify-plus-gain-2x4", "verify --in {cascade} --gain {two_rows} --mode plus",
             "gain must be m x n = (1, 4), got (2, 4)"),
    *(rejected(f"verify-{mode}-gain-{value.replace('_', '-')}",
               f"verify --in {{cascade}} --gain {{{mode}_{value}}} --mode {mode}",
               "gain entries must be finite")
      for mode in ("plus", "full") for value in ("nan", "inf", "neg_inf")),
    *(rejected(f"verify-{option}-{value}", f"{VERIFY} --{option} {value}", fragment)
      for option, fragment in (("gamma", CONTRACT), ("gamma-minus", "gamma_minus must lie in (0, 1)"),
                               ("a0", BOUNDS), ("b0", BOUNDS), ("tau", BOUNDS))
      for value in ("nan", "inf")),
    rejected("verify-head-dim-1", f"verify --in {{cascade}} --gain {{gain_1}} --mode plus {NEGATIVE_HEAD}",
             "head_dim = -1 must be >= 0"),
    rejected("verify-head-dim-2", "verify --in {cascade} --gain {gain_0} --mode plus --head-dim -2",
             "head_dim = -2 must be >= 0"),
    rejected("verify-no-plus", f"verify --in {{cascade}} --gain {{gain_0}} --mode plus {NO_PLUS}",
             "n_plus = 0 outside 1..52"),
    rejected("verify-seed-negative", f"{VERIFY} --seed -1", SAMPLING),
    rejected("verify-trials-negative", f"{VERIFY} --trials -1", SAMPLING),
    rejected("verify-drawn-family-seed-negative",
             "verify --in {wide} --gain {zeros_2x3} --mode full --seed -2", SAMPLING),
    rejected("verify-point-family-seed-negative",
             "verify --in {lti} --gain {zeros_1x3} --mode full --seed -2", SAMPLING),
    # noise options; a negative --trials or --seed is found before synthesis,
    # where the unprojected cascade is not a frame and the projected one
    # certifies
    rejected("noise-tol-nan", f"{PROJECTED} --tol nan", TOL),
    rejected("noise-tol-inf", f"{PROJECTED} --tol inf", TOL),
    *(rejected(f"noise-{option}-{value}", f"{PROJECTED} --{option} {value}", BOUNDS)
      for option, value in (("a0", "nan"), ("b0", "nan"), ("b0", "inf"), ("tau", "nan"), ("tau", "inf"))),
    rejected("noise-c1-nan", "noise --in {cascade} --gamma 0.9 --c0 0.003 --project --c1 nan",
             "c1 and c0 must be finite"),
    rejected("noise-c0-inf", "noise --in {cascade} --gamma 0.9 --c1 0.003 --project --c0 inf",
             "c1 and c0 must be finite"),
    rejected("noise-c1-negative", "noise --in {cascade} --gamma 0.9 --c0 0.003 --project --c1 -0.001",
             "c1 and c0 must be nonnegative"),
    rejected("noise-head-dim-1", f"{PROJECTED} {NEGATIVE_HEAD}", "head_dim = -1 must be >= 0"),
    rejected("noise-head-dim-2", f"{PROJECTED} --head-dim -2", "head_dim = -2 must be >= 0"),
    rejected("noise-no-plus", f"{PROJECTED} {NO_PLUS}", "n_plus = 0 outside 1..52"),
    rejected("noise-seed-negative", f"{NOISE} --seed -1", SAMPLING),
    rejected("noise-trials-negative", f"{NOISE} --trials -1", SAMPLING),
    rejected("noise-projected-seed-negative", f"{PROJECTED} --seed -1", SAMPLING),
    rejected("noise-projected-trials-negative", f"{PROJECTED} --trials -1", SAMPLING),
    rejected("noise-projected-trials-minus-5", f"{PROJECTED} --trials -5", SAMPLING),
    rejected("noise-lti-seed-negative", "noise --in {lti} --gamma 0.9 --c1 0.001 --c0 0.001 --seed -1",
             SAMPLING),
    # the zero-trials warning waits for the inputs to pass
    rejected("noise-trials-0-projected-gamma", f"{PROJECTED} --trials 0 --gamma 1.5", CONTRACT),
    rejected("noise-trials-0-gamma", f"{NOISE} --trials 0 --gamma 1.5", "gamma must lie in (0, 1)"),
    rejected("noise-trials-0-c1-negative", "noise --in {cascade} --gamma 0.9 --c0 0.003 --trials 0 --c1 -0.001",
             "c1 and c0 must be nonnegative"),
    # gamma_tilde above about 1.19e3 at M = 3.94 makes (M + s) gamma_tilde^k
    # overflow within the power horizon, found after synthesis
    rejected("noise-c1-400", "noise --in {cascade} --gamma 0.9 --c1 400 --c0 0.003 --project", POWER_BOUND),
    rejected("noise-c1-1000", "noise --in {cascade} --gamma 0.9 --c1 1000 --c0 0.003 --project", POWER_BOUND),
    rejected("noise-c1-1000-trials-0",
             "noise --in {cascade} --gamma 0.9 --c1 1000 --c0 0.003 --project --trials 0", POWER_BOUND),
    rejected("noise-c0-0.2535", "noise --in {cascade} --gamma 0.9 --c1 0.003 --c0 0.2535 --project",
             POWER_BOUND),
    # a noise draw numpy cannot address, found after synthesis
    rejected("noise-trials-2^62", f"{PROJECTED} --trials 4611686018427387904", UNADDRESSABLE),
    rejected("noise-trials-2^63", f"{PROJECTED} --trials 9223372036854775808", UNADDRESSABLE),
    # gamma outside 0 < gamma_minus < gamma < 1 on X+
    *(rejected(f"{command}-gamma-{name}", f"{line} --gamma {gamma} --gamma-minus 0.89", CONTRACT)
      for command, line in (("analyze", PLUS), ("verify", VERIFY),
                            ("noise", "noise --in {cascade} --c1 0.001 --c0 0.001 --project"))
      for name, gamma in (("below", "0.88"), ("equal", "0.89"), ("one", "1.0"))),
    # outputs that cannot be written, found before any work
    *(rejected(f"{command}-out-in-missing-directory", line, "cannot write {tmp}/missing/out.json",
               out="{tmp}/missing/out.json")
      for command, line in (("generate", "generate --scenario heat-cascade"), ("analyze", PLUS),
                            ("verify", VERIFY), ("noise", PROJECTED))),
    rejected("analyze-out-is-a-directory", PLUS, "cannot write {tmp}", out="{tmp}"),
    rejected("analyze-out-under-a-file", PLUS, "cannot write {cascade}/out.json", out="{cascade}/out.json"),
])


@pytest.fixture(scope="module")
def bad_input_files(tmp_path_factory):
    """The files of BAD_INPUTS by placeholder; {missing} is never written."""
    root = tmp_path_factory.mktemp("bad-inputs")
    paths = {name: str(root / f"{name}.json")
             for name in (*GENERATED_INPUTS, *BAD_INPUT_FILES, "missing")}
    for name, options in GENERATED_INPUTS.items():
        assert run("generate", *options.split(), "--out", paths[name]) == 0
    for name, payload in BAD_INPUT_FILES.items():
        with open(paths[name], "w") as fh:
            fh.write(payload if isinstance(payload, str) else json.dumps(payload))
    return paths


@pytest.fixture()
def rejects(bad_input_files, tmp_path, capfd):
    """Check a row of BAD_INPUTS: the input exits 2 with one stderr line
    "error: ..." that holds the row's fragment, prints nothing on stdout (at
    the file descriptor, so a LAPACK message counts), warns nothing, and
    writes no --out file and no missing parent directory."""
    paths = {**bad_input_files, "tmp": str(tmp_path)}

    def check(row):
        line, out, fragment = BAD_INPUTS[row]
        out = Path(out.format(**paths))
        before = out.exists(), out.parent.exists()
        argv = [word.format(**paths) for word in line.split()] + ["--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*argv) == 2
        captured = capfd.readouterr()
        assert captured.out == "" and caught == []
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.err.endswith("\n") and fragment.format(**paths) in captured.err
        assert (out.exists(), out.parent.exists()) == before and not out.is_file()

    return check


#: The BAD_INPUTS rows that a table_test checks; test_bad_input checks the rest.
CLAIMED = set()


def table_test(rows):
    """A test that checks BAD_INPUTS rows with `rejects`: one row, or a dict
    from the test's parameter ids to rows."""
    if isinstance(rows, str):
        CLAIMED.add(rows)

        def test(self, rejects):
            rejects(rows)

        return test
    CLAIMED.update(rows.values())

    @pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))
    def test(self, rejects, row):
        rejects(row)

    return test


class TestGenerate:
    def test_heat_cascade_defaults(self, cascade_file):
        batch = DataBatch.load(cascade_file)
        assert batch.N == 5
        assert batch.n == 52
        assert batch.m == 1


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

    # rejected inputs, checked by the contract of BAD_INPUTS
    test_invalid_config_nonzero_exit = table_test("generate-counterexample-n-0")
    test_batch_without_state_exits_2 = table_test("analyze-no-state")
    test_random_lti_rejects_bad_size_or_radius = table_test({
        **{name: f"generate-{name}" for name in ("n-negative", "n-zero", "m-negative")},
        **{f"{option}-{value}": f"generate-{option}-{value}"
           for option, values in (("radius", ("negative", "zero", "nan", "inf")), ("scale", ("nan", "inf")))
           for value in values},
    })
    test_overflowing_trajectory_one_error_line = table_test(
        {name: f"generate-{name}" for name in ("radius-1e200", "radius-3-samples-700")})


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

    def test_finite_plus_short_state_data_is_stage_rank(self, tmp_path, capsys):
        """finite-plus labels state data short of rank n_plus as stage "rank"
        with margin rank - n_plus, in the report and on stdout; stabilize
        reports the same verdict as stage "lmi" with the LMI's margin -1."""
        x0 = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 0.0]])  # rank 1 of 3
        path, report = tmp_path / "short.json", tmp_path / "report.json"
        DataBatch(x1=np.zeros((3, 3)), x0=x0, u0=np.zeros((3, 1))).save(path)
        plus = ["--mode", "finite-plus", "--head-dim", "2", "--a0", "100"]
        for mode, stage, margin in ((plus, "rank", -2.0), (["--mode", "stabilize"], "lmi", -1.0)):
            capsys.readouterr()
            assert run("analyze", "--in", str(path), *mode, "--out", str(report)) == 1
            assert capsys.readouterr().out == (
                f"not informative at gamma=0.9 (stage {stage}, rank, margin {margin:.3e})\n"
            )
            payload = json.loads(report.read_text())
            assert (payload["stage"], payload["reason"], payload["margin"]) == (stage, "rank", margin)
            assert payload.get("decomposition", {"n_plus": 3})["n_plus"] == 3

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

    # rejected inputs, checked by the contract of BAD_INPUTS
    test_missing_file_exit_2 = table_test("analyze-missing")
    test_malformed_input_exit_2 = table_test("analyze-not-json")
    test_bad_batch_file_exit_2 = table_test(
        {name: f"analyze-{name}" for name in ("nan-entry", "no-u0", "widths-differ", "states-3d", "inputs-3d")})
    test_non_finite_tol_exit_2 = table_test(
        {f"{mode}-{value}": f"analyze-{mode}-tol-{value}"
         for mode in ("identify", "stabilize", "finite-plus") for value in ("nan", "inf")})
    test_non_finite_decomposition_bound_exit_2 = table_test(
        {f"{value}---{option}": f"analyze-{option}-{value}"
         for option in ("a0", "b0", "tau") for value in ("nan", "inf")})
    test_bad_split_exit_2 = table_test(
        {"head-dim-1": "analyze-head-dim-1", "head-dim-2": "analyze-head-dim-2", "empty": "analyze-no-plus"})


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

    @pytest.mark.parametrize("seed", ["0", "3"])
    def test_gain_read_from_finite_plus_report(self, cascade_file, tmp_path, seed):
        """verify --gain takes an analyze --mode finite-plus report as it is:
        the report is that of the same gain written as {"K": K_plus}."""
        analysis = tmp_path / "report.json"
        assert run(
            "analyze", "--in", str(cascade_file), "--mode", "finite-plus", "--gamma", "0.9",
            "--out", str(analysis),
        ) == 0
        gain = tmp_path / "gain.json"
        write_gain(gain, json.loads(analysis.read_text())["K_plus"])
        reports = []
        for source in (analysis, gain):
            out = tmp_path / f"verify-{source.stem}.json"
            assert run(
                "verify", "--in", str(cascade_file), "--gain", str(source), "--mode", "plus",
                "--gamma", "0.9", "--seed", seed, "--out", str(out),
            ) == 0
            reports.append(out.read_text())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["failures"] == 0

    def test_gain_read_from_stabilize_report(self, tmp_path):
        """verify --gain takes the K of an analyze --mode stabilize report."""
        data, analysis = tmp_path / "lti.json", tmp_path / "report.json"
        assert run(
            "generate", "--scenario", "random-lti", "--n", "3", "--seed", "7", "--out", str(data)
        ) == 0
        assert run(
            "analyze", "--in", str(data), "--mode", "stabilize", "--gamma", "0.9",
            "--out", str(analysis),
        ) == 0
        out = tmp_path / "verify.json"
        assert run(
            "verify", "--in", str(data), "--gain", str(analysis), "--mode", "full",
            "--gamma", "0.9", "--out", str(out),
        ) == 0
        assert json.loads(out.read_text())["failures"] == 0


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
        assert payload["failures"] == 1
        sample = payload["offending_sample"]
        assert sample["radius"] == payload["worst_radius"] > 0.9
        loop = np.array(sample["A"])  # zero gain: the loop is A
        assert np.max(np.abs(np.linalg.eigvals(loop))) == pytest.approx(sample["radius"], rel=1e-12)
        assert_fits_data(DataBatch.load(cascade_file), sample["A"], sample["B"])

    def test_full_mode_decides_the_whole_family(self, tmp_path):
        """With N = 4 < n + m = 5 the family is not one system.  The
        synthesized gain has [I; K] in Ran [Xi0; Ups0], so every compatible
        system shares its loop.  Perturbed off that range, it is defeated by
        a compatible system, which is reported, at --trials 0 too: 200
        sampled systems at scale 1 all stayed below gamma (worst radius
        0.689808)."""
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
        argv = ["verify", "--in", str(data), "--mode", "full", "--out", str(out)]
        assert run(*argv, "--gain", str(report)) == 0
        K = K + 0.02 * np.random.default_rng(5).standard_normal((2, 3))
        write_gain(gain, K)
        assert run(*argv, "--gain", str(gain), "--trials", "0") == 1
        at_zero = out.read_text()
        assert run(*argv, "--gain", str(gain)) == 1
        assert out.read_text() == at_zero
        payload = json.loads(out.read_text())
        assert payload["failures"] == 1
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
        assert payload["failures"] == 0
        assert "trials" not in payload and "seed" not in payload
        batch = DataBatch.load(data)
        AB = batch.Xi1 @ np.linalg.pinv(np.vstack([batch.Xi0, batch.Ups0]))
        loop = AB[:, :3] + AB[:, 3:] @ K
        radius = np.max(np.abs(np.linalg.eigvals(loop)))
        assert radius == pytest.approx(payload["worst_radius"], rel=1e-9)


    def test_trial_count_leaves_the_verdict(self, cascade_file, tmp_path, capsys):
        """verify decides the family once, so --trials 0 and --trials 200
        write the same report and the same line, with no warning."""
        gain = tmp_path / "gain.json"
        write_gain(gain, REFERENCE_CASCADE_GAIN_PLUS)
        reports, lines = [], []
        for trials in ("0", "200"):
            out = tmp_path / f"verify-{trials}.json"
            assert run(
                "verify", "--in", str(cascade_file), "--gain", str(gain), "--mode", "plus",
                "--gamma", "0.9", "--trials", trials, "--out", str(out),
            ) == 0
            reports.append(out.read_text())
            lines.append(capsys.readouterr().out)
        assert reports[0] == reports[1] and lines[0] == lines[1]
        assert "vacuous" not in lines[0] and json.loads(reports[0])["failures"] == 0

    @pytest.mark.parametrize("trials", ["0", "1", "200"])
    def test_zero_gain_fails_at_every_trial_count(self, cascade_file, tmp_path, trials):
        """K+ = 0 leaves the loop A+, of radius 1.118034 on the reference
        cascade: one failure and its system, whatever the count."""
        gain, out = tmp_path / "zero.json", tmp_path / "verify.json"
        write_gain(gain, np.zeros((1, 4)))
        assert run(
            "verify", "--in", str(cascade_file), "--gain", str(gain), "--mode", "plus",
            "--gamma", "0.9", "--trials", trials, "--out", str(out),
        ) == 1
        payload = json.loads(out.read_text())
        assert payload["failures"] == 1
        assert payload["worst_radius"] == pytest.approx(1.118034, abs=1e-6)
        sample = payload["offending_sample"]
        A_plus = np.array(sample["A_plus"])
        assert np.max(np.abs(np.linalg.eigvals(A_plus))) == pytest.approx(sample["radius"], rel=1e-12)


    def test_scale_is_not_an_option(self, cascade_file, tmp_path):
        """verify draws nothing, so it takes no --scale: argparse rejects it."""
        gain = tmp_path / "gain.json"
        write_gain(gain, REFERENCE_CASCADE_GAIN_PLUS)
        with pytest.raises(SystemExit) as exc:
            run(
                "verify", "--in", str(cascade_file), "--gain", str(gain), "--mode", "plus",
                "--scale", "1",
            )
        assert exc.value.code == 2

    # rejected inputs, checked by the contract of BAD_INPUTS
    test_gain_file_needs_exactly_one_key = table_test(
        {"both": "verify-both-keys", "neither": "verify-no-key", "bare-matrix": "verify-bare-matrix"})
    test_gain_shape_mismatch_exit_2 = table_test("verify-plus-gain-1x3")
    test_non_finite_gain_exit_2 = table_test(
        {f"{value}-{mode}-{columns}": f"verify-{mode}-gain-{name}"
         for mode, columns in (("plus", 4), ("full", 52))
         for value, name in (("nan", "nan"), ("inf", "inf"), ("-inf", "neg-inf"))})
    test_non_finite_gamma_or_scale_exit_2 = table_test(
        {f"{value}---{option}": f"verify-{option}-{value}"
         for option in ("gamma", "gamma-minus", "a0", "b0", "tau") for value in ("nan", "inf")})
    test_bad_split_exit_2 = table_test(
        {"head-dim-1": "verify-head-dim-1", "head-dim-2": "verify-head-dim-2", "empty": "verify-no-plus"})


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

    def test_unstabilizable_without_input_not_applicable_at_lmi(self, tmp_path, capsys):
        """With m = 0 and an unstable A no gain exists: the synthesis PBH
        verdict is reported as stage "lmi", with no verification."""
        data, report = tmp_path / "m0.json", tmp_path / "noise.json"
        assert run("generate", "--scenario", "random-lti", "--n", "3", "--m", "0",
                   "--radius", "1.5", "--out", str(data)) == 0
        code = run(
            "noise", "--in", str(data), "--gamma", "0.9", "--c1", "0.001", "--c0", "0.001",
            "--out", str(report),
        )
        assert code == 1
        payload = json.loads(report.read_text())
        assert payload["applicable"] is False
        assert payload["stage"] == "lmi"
        assert payload["detail"] == "pbh, margin -3.077e-01"
        assert "verification" not in payload
        assert "not applicable: stage lmi" in capsys.readouterr().out

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


    def test_zero_trials_vacuous_pass(self, cascade_file, capsys):
        code = run(
            "noise", "--in", str(cascade_file), "--gamma", "0.9", "--c1", "0.003",
            "--c0", "0.003", "--project", "--trials", "0",
        )
        assert code == 0
        assert "warning: trials = 0, verification passes vacuously" in capsys.readouterr().out

    def test_zero_trials_not_applicable_prints_no_warning(self, cascade_file, capsys):
        """Without --project the synthesis stops at the frame stage, so no
        verification runs and the zero-trials warning is not printed."""
        code = run(
            "noise", "--in", str(cascade_file), "--gamma", "0.9", "--c1", "0.003",
            "--c0", "0.003", "--trials", "0",
        )
        assert code == 1
        assert capsys.readouterr().out == (
            "not applicable: stage frame (state sequence is not a frame: rank 5 < dim 52)\n"
        )

    # rejected inputs, checked by the contract of BAD_INPUTS
    test_negative_trials_rejected = table_test("noise-projected-trials-minus-5")
    test_non_finite_tol_or_constant_exit_2 = table_test({
        **{f"--{option}-{value}": f"noise-{option}-{value}"
           for option, value in (("tol", "nan"), ("tol", "inf"), ("a0", "nan"), ("b0", "nan"), ("b0", "inf"),
                                 ("tau", "nan"), ("tau", "inf"), ("c1", "nan"), ("c0", "inf"))},
        "--c1--0.001": "noise-c1-negative",
    })
    test_bad_split_exit_2 = table_test(
        {"head-dim-1": "noise-head-dim-1", "head-dim-2": "noise-head-dim-2", "empty": "noise-no-plus"})
    test_zero_trials_bad_input_prints_nothing = table_test(
        {"projected-gamma": "noise-trials-0-projected-gamma", "gamma": "noise-trials-0-gamma",
         "negative-c1": "noise-trials-0-c1-negative"})
    test_overflowing_power_bound_exit_2 = table_test(
        {name: f"noise-{name}" for name in ("c1-400", "c1-1000", "c1-1000-trials-0", "c0-0.2535")})


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


class TestNoInputRoundTrip:
    """With m = 0 analyze writes the (0, n) gain as "K": [], and verify reads
    it back as that gain."""

    def test_full_mode(self, tmp_path):
        data, report, checked = tmp_path / "d.json", tmp_path / "a.json", tmp_path / "v.json"
        assert run(
            "generate", "--scenario", "random-lti", "--n", "3", "--m", "0", "--radius", "0.5",
            "--out", str(data),
        ) == 0
        assert run("analyze", "--in", str(data), "--mode", "stabilize", "--out", str(report)) == 0
        analysis = json.loads(report.read_text())
        assert analysis["K"] == []
        assert run(
            "verify", "--in", str(data), "--gain", str(report), "--mode", "full",
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


class TestHugePbhMode:
    """x1 = 1e155 x0 with no input reaching either mode: |mode|^2 leaves
    double precision above about 1.34e154, but the PBH verdict still stands,
    with margin -(1 / |mode|)^2 = -1e-310, a subnormal below zero.  Each
    command that decides it exits 1 with its negative verdict, no traceback."""

    BATCH = {"x1": [[1e155, 0.0], [0.0, 1e155]], "x0": [[1.0, 0.0], [0.0, 1.0]], "u0": [[1.0], [0.0]]}
    MARGIN = -((1.0 / 1e155) ** 2)

    @pytest.mark.parametrize("command", ["stabilize", "finite-plus", "noise"])
    def test_pbh_verdict(self, tmp_path, capsys, command):
        path, report = tmp_path / "data.json", tmp_path / "r.json"
        path.write_text(json.dumps(self.BATCH))
        argv = BATCH_COMMANDS[command].split()
        assert run(*argv, "--in", str(path), "--out", str(report)) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(report.read_text())
        assert payload["stage"] == "lmi"
        assert self.MARGIN < 0.0
        if command == "noise":
            assert payload["detail"] == "pbh, margin -1.000e-310"
            assert captured.out == "not applicable: stage lmi (pbh, margin -1.000e-310)\n"
        else:
            assert (payload["reason"], payload["margin"]) == ("pbh", self.MARGIN)
            assert payload["pbh_mode"] == [1e155, 0.0]
            assert "pbh mode 1e+155+0j (|mode| 1e+155), margin -1.000e-310)" in captured.out


class TestOutOfRangeVerdicts:
    """Two batches whose verdict leaves double precision: modes 1.5e308
    (1 +- i) out of reach of the input, whose modulus overflows, give the
    pbh verdict with margin -0.0; a loop of radius 0.5 with a transient of
    1e160 gives "numerical", as its Stein witness overflows.  Each exits 1
    with its verdict line and nothing on stderr."""

    HUGE_MODULUS = {"x1": [[1.5e308, -1.5e308], [1.5e308, 1.5e308]], "x0": [[1, 0], [0, 1]], "u0": [[1], [0]]}
    HUGE_WITNESS = {"x1": [[0.5, 0.0], [1e160, 0.5]], "x0": [[1, 0], [0, 1]], "u0": [[], []]}
    LINES = {
        ("modulus", "stabilize"): "not informative at gamma=0.9 (stage lmi, pbh mode "
        "1.5e+308+1.5e+308j (|mode| inf), margin -0.000e+00)\n",
        ("modulus", "noise"): "not applicable: stage lmi (pbh, margin -0.000e+00)\n",
        ("witness", "stabilize"): "not informative at gamma=0.9 (stage lmi, numerical, margin -1.235e+160)\n",
        ("witness", "noise"): "not applicable: stage lmi (numerical, margin -1.235e+160)\n",
    }

    @pytest.mark.parametrize("batch", ["modulus", "witness"])
    @pytest.mark.parametrize("command", ["stabilize", "noise"])
    def test_verdict(self, tmp_path, capfd, batch, command):
        path, report = tmp_path / "data.json", tmp_path / "r.json"
        path.write_text(json.dumps(self.HUGE_MODULUS if batch == "modulus" else self.HUGE_WITNESS))
        argv = BATCH_COMMANDS[command].split()
        assert run(*argv, "--in", str(path), "--out", str(report)) == 1
        captured = capfd.readouterr()
        assert (captured.out, captured.err) == (self.LINES[batch, command], "")
        payload = json.loads(report.read_text())
        if command == "stabilize":
            margin = payload["margin"]
            if batch == "modulus":
                assert payload["reason"] == "pbh" and margin == 0.0 and np.signbit(margin)
                assert payload["pbh_mode"][0] == 1.5e308
            else:
                assert payload["reason"] == "numerical" and margin == pytest.approx(-1e160 / 0.81)


class TestPlusContract:
    """Every command on X+ runs one X+ step, which holds the finite-data
    contract 0 < gamma_minus < gamma < 1."""

    test_gamma_outside_contract_exit_2 = table_test(
        {f"{command}-{name}": f"{command}-gamma-{name}"
         for command in ("analyze", "verify", "noise") for name in ("below", "equal", "one")})
    test_plus_gain_with_wrong_row_count_exit_2 = table_test("verify-plus-gain-2x4")


class TestUnwritableOutput:
    """An output that cannot be written is an input error, found before any
    work."""

    test_missing_directory_exit_2 = table_test(
        {command: f"{command}-out-in-missing-directory" for command in ("generate", "analyze", "verify", "noise")})
    test_directory_or_under_a_file_exit_2 = table_test(
        {"directory": "analyze-out-is-a-directory", "under-a-file": "analyze-out-under-a-file"})


class TestNegativeSeed:
    """A negative seed is an input error wherever a seed keys a stream, also
    where no stream ends up drawn."""

    test_generate_random_lti = table_test("generate-seed-negative")
    test_verify_full = table_test(
        {family: f"verify-{family}-seed-negative" for family in ("drawn-family", "point-family")})
    test_noise_unprojected = table_test("noise-lti-seed-negative")
    test_noise_projected = table_test("noise-projected-seed-negative")


class TestSamplingCheckedBeforeSynthesis:
    """noise rejects a negative --trials or --seed before it synthesizes, so
    the error does not depend on the verdict: the unprojected cascade is not
    a frame, the projected one certifies.  verify rejects them in the same
    words."""

    test_exit_2_without_report = table_test(
        {f"{name}-{option}": f"noise-{prefix}{option}-negative"
         for name, prefix in (("unprojected", ""), ("projected", "projected-")) for option in ("seed", "trials")})
    test_verify_names_trials = table_test({option: f"verify-{option}-negative" for option in ("seed", "trials")})


class TestOverflowingData:
    """Data whose products Xi1 Xi0^+ (or Xi1 W^+) leave double precision are
    an input error for every command that forms them."""

    test_exit_2 = table_test({
        **{f"{data}-{command}": f"{command}-{data}"
           for data in ("huge-over-tiny", "subnormal") for command in BATCH_COMMANDS},
        "subnormal-verify": "verify-subnormal",
    })


@pytest.mark.parametrize("row", [row for row in BAD_INPUTS if row not in CLAIMED])
def test_bad_input(rejects, row):
    """The rows of BAD_INPUTS that no test above checks."""
    rejects(row)


def test_module_entry_point(tmp_path):
    """python -m ddstab.cli exits with main's code: 2 with one error line
    on a rejected input, 1 with the pbh verdict on TestHugePbhMode's batch."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def ddstab(*argv):
        return subprocess.run([sys.executable, "-m", "ddstab.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    bad = ddstab("generate", "--scenario", "random-lti", "--n", "0", "--out", str(tmp_path / "x.json"))
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr == "error: need --n >= 1 and --m >= 0, got n=0, m=1\n"
    data = tmp_path / "data.json"
    data.write_text(json.dumps(TestHugePbhMode.BATCH))
    verdict = ddstab("analyze", "--in", str(data), "--mode", "stabilize")
    assert (verdict.returncode, verdict.stderr) == (1, "")
    assert verdict.stdout.startswith("not informative at gamma=0.9 (stage lmi, pbh mode 1e+155")
