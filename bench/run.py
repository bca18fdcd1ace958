"""Benchmark of ddstab's CLI pipelines, end to end and per module.

Run from the repository root:

    python3 bench/run.py --workload cascade --seed 0 --seconds 30 --trace 0

Workloads (see bench/README.md for why each was chosen):

  cascade            generate -> analyze finite-plus -> verify -> noise on the
                     heat cascade; the verify/noise seed differs per op
  stabilize          analyze --mode stabilize on random-LTI data, N = 2(n+m)
  stabilize-minimal  the same on minimal data, N = n + 1, radius 2

Every op goes through ``ddstab.cli.main(argv)`` in this process, and every
output is checked against bench/checks.py.  A run repeats whole rounds of
the workload's ops for about ``--seconds``.  With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced rounds alternate and the per-module
metrics are reported per traced round.  Generated inputs, result files and
span traces go to .bench_out/ under the repository root.
"""

import os

# Fixed before numpy loads: verdicts depend on the BLAS thread count, and at
# the default count fresh processes now and then stall on their first call.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    for _var in BLAS_VARS:
        os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402

GAMMA = 0.9
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ddstab; print(time.perf_counter() - t)"
)

# Heat-cascade chain, as in the README's reference experiment.
CASCADE_OPS_PER_ROUND = 4
CASCADE_TRIALS = "200"
C1 = C0 = 0.003
GAMMA_MINUS, A0, B0, TAU, HEAD_DIM = 0.89, 0.1, 0.0, 0.05, 2

# Random-LTI instances (n, generator seed).  The instances do not depend on
# --seed, which only orders them: a verdict that fails from a program fault
# then fails in every run, so the failed share is the same in every run.
STABILIZE = [(8, s) for s in range(4)] + [(12, s) for s in range(4)] + [
    (16, 0), (16, 1), (20, 0), (20, 1)]
STABILIZE_MINIMAL = [(8, s) for s in range(4)] + [(12, s) for s in range(4)] + [(16, 0)]
# cert_M on these workloads is the geometric mean of M over the instances the
# program certifies at the commit that introduced the benchmark, so a fix that
# certifies more instances does not move it.
CERT_M_STABILIZE = [i for i in STABILIZE if i != (20, 0)]
CERT_M_MINIMAL = [(8, 0), (8, 1), (8, 2), (12, 3)]


class BenchError(RuntimeError):
    """The benchmark cannot establish the right answer for an op."""


def cli_run(argv):
    from ddstab import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def check_gain_report(A, B, K, cert):
    """The reported gain stabilizes (A, B) at GAMMA with the reported (M, k0)
    certificate; returns the closed-loop radius."""
    K = np.asarray(K)
    rho = checks.check_stabilizes(A, B, K, GAMMA)
    checks.check_power_bound(A + B @ K, cert["M"], GAMMA, 2 * cert["horizon_checked"] + 100)
    return rho


class Cascade:
    """One op: generate, analyze finite-plus, verify plus, noise --project."""

    def __init__(self, work, seed):
        self.work = work
        self.round = [1000 * seed + j for j in range(CASCADE_OPS_PER_ROUND)]
        self.warmup = 1000 * seed + 999
        self.n_plus = HEAD_DIM + checks.modal_cutoff(A0, B0, TAU, GAMMA_MINUS)
        self.cert_M = float("nan")

    def prepare(self):
        """The op generates its own data; nothing to write beforehand."""

    def run(self, op_seed):
        w = self.work
        decomposition = ["--gamma-minus", str(GAMMA_MINUS), "--a0", str(A0), "--b0", str(B0)]
        code = cli_run(["generate", "--scenario", "heat-cascade", "--out", w / "data.json"])
        if code:
            return code
        code = cli_run(["analyze", "--in", w / "data.json", "--mode", "finite-plus",
                        "--gamma", str(GAMMA), "--out", w / "report.json"] + decomposition)
        if code:
            return code
        with open(w / "gain.json", "w") as fh:
            json.dump({"K": read_json(w / "report.json")["K_plus"]}, fh)
        code = cli_run(["verify", "--in", w / "data.json", "--gain", w / "gain.json",
                        "--mode", "plus", "--gamma", str(GAMMA), "--trials", CASCADE_TRIALS,
                        "--seed", str(op_seed), "--out", w / "verify.json"] + decomposition)
        if code:
            return code
        return cli_run(["noise", "--in", w / "data.json", "--gamma", str(GAMMA),
                        "--c1", str(C1), "--c0", str(C0), "--project",
                        "--trials", CASCADE_TRIALS, "--seed", str(op_seed),
                        "--out", w / "noise.json"] + decomposition)

    def check(self, op_seed, code):
        """True when the op succeeded and its outputs check; False when it failed."""
        if code != 0:
            return False
        w = self.work
        data = read_json(w / "data.json")
        report = read_json(w / "report.json")
        p = self.n_plus
        if report["decomposition"]["n_plus"] != p:
            raise checks.CheckFailed(f"n_plus {report['decomposition']['n_plus']} != {p}")
        x1, x0 = np.asarray(data["x1"]), np.asarray(data["x0"])
        A, B = checks.recover_system(x1[:, :p], x0[:, :p], data["u0"])
        rho = check_gain_report(A, B, report["K_plus"], report["certificate"])
        verify = read_json(w / "verify.json")
        if verify["failures"] != 0 or not math.isclose(verify["worst_radius"], rho, rel_tol=1e-9):
            raise checks.CheckFailed(
                f"verify: worst radius {verify['worst_radius']!r} with {verify['failures']} "
                f"failures, expected {rho!r} with 0")
        noisy = read_json(w / "noise.json")
        if not noisy["margin_ok"] or noisy["verification"]["violations"] != 0:
            raise checks.CheckFailed(f"noise: margin_ok {noisy['margin_ok']}, "
                                     f"{noisy['verification']['violations']} violations")
        checks.check_robust_rate(noisy["gamma_tilde"], noisy["M"], GAMMA, C1, C0)
        Kn = np.asarray(noisy["K"])
        checks.check_stabilizes(A, B, Kn, GAMMA)
        checks.check_power_bound(A + B @ Kn, noisy["M"], GAMMA, 200)
        self.cert_M = report["certificate"]["M"]
        return True


class Stabilize:
    """One op: analyze --mode stabilize on one pre-generated random-LTI batch."""

    def __init__(self, work, seed, instances, minimal, cert_m_instances):
        self.work = work
        self.instances = instances
        self.minimal = minimal
        self.cert_m_instances = cert_m_instances
        self.round = list(instances)
        random.Random(seed).shuffle(self.round)
        self.warmup = instances[0]
        self.systems = {}
        self.witnesses = {}
        self.M = {}

    def path(self, instance, kind):
        return self.work / f"{kind}-n{instance[0]}-s{instance[1]}.json"

    def prepare(self):
        for n, s in self.instances:
            argv = ["generate", "--scenario", "random-lti", "--n", str(n), "--seed", str(s),
                    "--out", self.path((n, s), "data")]
            if self.minimal:
                argv += ["--samples", str(n + 1), "--radius", "2.0"]
            if cli_run(argv):
                raise BenchError(f"generate failed for n={n}, seed={s}")

    def run(self, instance):
        return cli_run(["analyze", "--in", self.path(instance, "data"), "--mode", "stabilize",
                        "--gamma", str(GAMMA), "--out", self.path(instance, "report")])

    def system(self, instance):
        if instance not in self.systems:
            data = read_json(self.path(instance, "data"))
            self.systems[instance] = checks.recover_system(data["x1"], data["x0"], data["u0"])
        return self.systems[instance]

    def check(self, instance, code):
        """True when certified and checked; False for a verdict shown wrong.

        A "not informative" verdict is a failed op only when an independent
        Riccati gain stabilizes the recovered system at rate gamma.
        """
        A, B = self.system(instance)
        if code == 0:
            report = read_json(self.path(instance, "report"))
            check_gain_report(A, B, report["K"], report["certificate"])
            self.M[instance] = report["certificate"]["M"]
            return True
        if instance not in self.witnesses:
            self.witnesses[instance] = checks.riccati_witness(A, B, GAMMA)
        if self.witnesses[instance] is None:
            raise BenchError(f"no stabilizing witness for n={instance[0]}, seed={instance[1]}: "
                             "the negative verdict cannot be judged")
        return False

    @property
    def cert_M(self):
        Ms = [self.M[i] for i in self.cert_m_instances if i in self.M]
        return math.exp(statistics.fmean(math.log(m) for m in Ms)) if Ms else float("nan")


def make_workload(name, work, seed):
    if name == "cascade":
        return Cascade(work, seed)
    if name == "stabilize":
        return Stabilize(work, seed, STABILIZE, False, CERT_M_STABILIZE)
    return Stabilize(work, seed, STABILIZE_MINIMAL, True, CERT_M_MINIMAL)


def import_seconds():
    """Time of ``import ddstab`` in a fresh interpreter with this run's BLAS setting."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def setup(workload):
    """Import, input generation and one warm-up op, repeated; medians."""
    imports, setups = [], []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        workload.prepare()
        workload.run(workload.warmup)
        setups.append(t_import + time.perf_counter() - t0)
        imports.append(t_import)
    return statistics.median(setups), statistics.median(imports)


class Run:
    """Counts and times of the ops of one run."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.op_seconds = {}  # op -> its times in this run

    def one_round(self):
        total = 0.0
        for op in self.workload.round:
            if self.tracer is not None:
                self.tracer.op = self.attempted
            t0 = time.perf_counter()
            try:
                code = self.workload.run(op)
            except Exception:  # a crash of the program is a failed op
                traceback.print_exc()
                code = None
            dt = time.perf_counter() - t0
            total += dt
            self.op_seconds.setdefault(op, []).append(dt)
            self.attempted += 1
            try:
                if not self.workload.check(op, code):
                    self.failed += 1
            except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
                # ValueError covers numpy's LinAlgError; KeyError and TypeError
                # a report that lacks a field or holds the wrong kind of value
                print(f"check failed on op {op}: {exc!r}", file=sys.stderr)
                self.correct = False
        return total


def measure(workload, seconds, tracer=None):
    """Whole rounds for about ``seconds``; with a tracer, alternate untraced
    and traced rounds.  Returns the Run and the round times of each kind."""
    run = Run(workload, tracer)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(plain) > len(traced):
            tracer.install()
            try:
                traced.append(run.one_round())
            finally:
                tracer.uninstall()
        else:
            plain.append(run.one_round())
        rounds = plain + traced
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * statistics.fmean(rounds) >= seconds and (tracer is None or traced):
            return run, plain, traced


def number(x):
    """A count as an int when it is whole, else the float."""
    return int(x) if float(x).is_integer() else x


def end_to_end(run, plain, setup_s, cert_M):
    # Typical op time: the median of each op's times, then the geometric mean
    # over the workload's ops.  The median pooled over a mix of ops sits on
    # one op and follows that op's noise.
    medians = [statistics.median(times) for times in run.op_seconds.values()]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.fmean(plain), "s"),
        "op_gmean_ms": (1000 * statistics.geometric_mean(medians), "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "cert_M": (cert_M, "1"),
    }


def per_layer(tracer, traced, plain, import_s):
    r = len(traced)
    spans = tracer.totals()
    counters = tracer.counters

    def calls(name):
        return (number(spans.get(name, (0, 0.0, 0.0))[0] / r), "count")

    def ms(name):
        return (1000 * spans.get(name, (0, 0.0, 0.0))[1] / r, "ms")

    def self_ms(name):
        return (1000 * spans.get(name, (0, 0.0, 0.0))[2] / r, "ms")

    def count(key):
        return (number(counters.get(key, 0) / r), "count")

    return {
        "operators.operator_norm.calls": count("operators.operator_norm.calls"),
        "operators.operator_norm.ms": (
            1000 * counters.get("operators.operator_norm.seconds", 0.0) / r, "ms"),
        "operators.spectral_radius.calls": count("operators.spectral_radius.calls"),
        "operators.pseudo_inverse.calls": calls("operators.pseudo_inverse"),
        "operators.rank_at_tol.calls": calls("operators.rank_at_tol"),
        "operators.construct_certificate.ms": ms("operators.construct_certificate"),
        "operators.construct_certificate.k0": count("operators.construct_certificate.k0"),
        "lmi.solve_feasibility.ms": ms("lmi.solve_feasibility"),
        "lmi.solve_feasibility.calls": calls("lmi.solve_feasibility"),
        "lmi.solve_feasibility.iterations": count("lmi.solve_feasibility.iterations"),
        "lmi.solve_feasibility.infeasible": count("lmi.solve_feasibility.infeasible"),
        "informativity.synthesize_gain.self_ms": self_ms("informativity.synthesize_gain"),
        "informativity.sample_compatible_systems.ms": ms("informativity.sample_compatible_systems"),
        "informativity.sample_compatible_systems.systems": count(
            "informativity.sample_compatible_systems.systems"),
        "noise.robust_stabilization.self_ms": self_ms("noise.robust_stabilization"),
        "noise.verify_robust_gain.self_ms": self_ms("noise.verify_robust_gain"),
        "noise.verify_robust_gain.rejected_draws": count("noise.verify_robust_gain.rejected_draws"),
        "noise.noise_in_class.calls": calls("noise.noise_in_class"),
        "finitedata.project_data.ms": ms("finitedata.project_data"),
        "finitedata.finite_informative.self_ms": self_ms("finitedata.finite_informative"),
        "finitedata.verify_on_compatible_plus.ms": ms("finitedata.verify_on_compatible_plus"),
        "systems.DataBatch.load.ms": ms("systems.DataBatch.load"),
        "systems.DataBatch.save.ms": ms("systems.DataBatch.save"),
        "cli.cmd_generate.ms": ms("cli.cmd_generate"),
        "cli.cmd_analyze.ms": ms("cli.cmd_analyze"),
        "cli.cmd_verify.ms": ms("cli.cmd_verify"),
        "cli.cmd_noise.ms": ms("cli.cmd_noise"),
        "ddstab.import_ms": (1000 * import_s, "ms"),
        "trace.slowdown": (statistics.fmean(traced) / statistics.fmean(plain), "ratio"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cascade", "stabilize", "stabilize-minimal"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ddstab" / "__init__.py").is_file():
        print(f"error: no ddstab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ddstab

    if Path(ddstab.__file__).resolve().parent != (SRC / "ddstab").resolve():
        print(f"error: imported ddstab from {ddstab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = make_workload(args.workload, work, args.seed)
        setup_s, import_s = setup(workload)
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        run, plain, traced = measure(workload, args.seconds, tracer)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer(tracer, traced, plain, import_s)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end(run, plain, setup_s, workload.cert_M)

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(plain) + len(traced), "ops_per_round": len(workload.round),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS}, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
    }
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(dict(result, info=info, round_seconds=plain + traced,
                       op_seconds={str(op): t for op, t in run.op_seconds.items()}),
                  fh, indent=2)
        fh.write("\n")
    print(" ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
