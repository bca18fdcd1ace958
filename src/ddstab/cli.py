"""Command-line front end: generate, analyze, verify, noise.

All artifacts are JSON (schema_version 1, matrices as row-major arrays of
arrays) so runs diff cleanly and reports round-trip.  Exit codes: 0 for
success / informative, 1 for a completed analysis with a negative verdict,
2 for input errors, each a DdstabError (an unwritable --out is found first).
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import finitedata, informativity, lmi, noise as noise_mod
from .errors import DdstabError, InvalidParams
from .operators import DEFAULT_TOL, _check_addressable, spectral_radius
from .systems import (
    DataBatch,
    LinearSystem,
    assemble_single_trajectory,
    counterexample_sequences,
    reference_cascade_scenario,
    simulate,
)

SCHEMA_VERSION = 1


def _write_report(report, path):
    if path:
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _load_batch(path):
    try:
        return DataBatch.load(path)
    except (OSError, DdstabError, ValueError, TypeError) as exc:
        raise InvalidParams(f"cannot read data batch from {path}: {exc}") from exc


def _load_gain(path):
    """The gain of a JSON file with exactly one of the keys "K" (a gain file,
    or an analyze --mode stabilize report) and "K_plus" (an analyze --mode
    finite-plus report)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        keys = [key for key in ("K", "K_plus") if key in payload]
        if len(keys) != 1:
            raise KeyError("exactly one of 'K' and 'K_plus' is needed")
        return np.atleast_2d(np.asarray(payload[keys[0]], dtype=float))
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise InvalidParams(f"cannot read gain from {path}: {exc}") from exc


def _decomposition_args(parser):
    parser.add_argument("--gamma-minus", type=float, default=0.89, help="tail decay bound")
    parser.add_argument("--a0", type=float, default=0.1, help="lower bound on the diffusivity")
    parser.add_argument("--b0", type=float, default=0.0, help="upper bound on the reaction rate")
    parser.add_argument("--tau", type=float, default=0.05, help="sampling period")
    parser.add_argument(
        "--head-dim", type=int, default=2, help="dimension of the finite head block"
    )


def _project_plus(args, batch):
    """The X+ step of every command on X+: mode cutoff, split, the rates'
    contract, and the projected batch with the report's decomposition block."""
    n0 = finitedata.mode_cutoff(args.a0, args.b0, args.tau, args.gamma_minus)
    if args.head_dim < 0:
        raise InvalidParams(f"head_dim = {args.head_dim} must be >= 0")
    dec = finitedata.Decomposition(batch.n, args.head_dim + n0)
    finitedata._check_rates(args.gamma, args.gamma_minus)
    return finitedata.project_data(batch, dec), {"n0": n0, "n_plus": dec.n_plus}


def cmd_generate(args):
    if args.scenario == "heat-cascade":
        samples = 5 if args.samples is None else args.samples
        _, batch, _ = reference_cascade_scenario(n_modes=args.n_modes, n_samples=samples)
    elif args.scenario == "counterexample":
        batch = counterexample_sequences(args.n)
    else:
        batch = _random_lti_batch(args)
    batch.save(args.out)
    print(f"wrote {args.scenario} batch: N={batch.N}, n={batch.n}, m={batch.m} -> {args.out}")
    return 0


def _random_lti_batch(args):
    if args.n < 1 or args.m < 0:
        raise InvalidParams(f"need --n >= 1 and --m >= 0, got n={args.n}, m={args.m}")
    if not (0.0 < args.radius < np.inf):
        raise InvalidParams(f"--radius must be finite and positive, got {args.radius}")
    if not np.isfinite(args.scale):
        raise InvalidParams(f"--scale must be finite, got {args.scale}")
    if args.seed < 0:
        raise InvalidParams(f"--seed must be >= 0, got {args.seed}")
    _check_addressable((args.n, args.n), "A")
    _check_addressable((args.n, args.m), "B")
    rng = np.random.default_rng(args.seed)
    A = rng.standard_normal((args.n, args.n))
    rho = spectral_radius(A)
    if rho > 0:
        A = A * (args.radius / rho)
    B = rng.standard_normal((args.n, args.m))
    sys_ = LinearSystem(A=A, B=B)
    x0 = rng.standard_normal(args.n)
    steps = args.samples if args.samples is not None else 2 * (args.n + args.m)
    inputs = [args.scale * rng.standard_normal(args.m) for _ in range(steps)]
    with np.errstate(over="ignore", invalid="ignore"):  # DataBatch rejects what overflows
        traj = simulate(sys_, x0, inputs)
    return assemble_single_trajectory(
        traj, inputs, meta=f"random-lti n={args.n} m={args.m} seed={args.seed}"
    )


def cmd_analyze(args):
    batch = _load_batch(args.input)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "mode": args.mode,
        "input": {"N": batch.N, "n": batch.n, "m": batch.m, "meta": batch.meta},
    }
    if args.mode == "identify":
        verdict = informativity.identification_informative(batch, args.tol)
        report["informative"] = verdict.informative
        report["rank"] = verdict.rank
        report["required_rank"] = verdict.required_rank
        print(
            f"identification: {'informative' if verdict else 'not informative'} "
            f"(rank {verdict.rank} of {verdict.required_rank})"
        )
        code = 0 if verdict else 1
    elif args.mode == "stabilize":
        result = informativity.synthesize_gain(batch, args.gamma, args.tol)
        code = _fill_gain_report(report, result, args.gamma)
    else:
        batch, dec = _project_plus(args, batch)
        report["decomposition"] = {**dec, "gamma_minus": args.gamma_minus}
        result = finitedata.finite_informative(batch, args.gamma, args.gamma_minus, args.tol)
        code = _fill_gain_report(report, result, args.gamma, n_plus=dec["n_plus"])
        if code == 0:
            print(f"decomposition: n0={dec['n0']}, n_plus={dec['n_plus']}")
    _write_report(report, args.out)
    return code


def _fill_gain_report(report, result, gamma, n_plus=None):
    """Write the verdict into an analyze report and print its line.  An
    lmi.Infeasible is stage "lmi"; on X+ (``n_plus`` given, the gain written
    as K_plus) a short Xi0 is stage "rank" with margin rank - n_plus."""
    report["gamma"] = gamma
    if isinstance(result, lmi.Infeasible):
        stage, margin = "lmi", result.best_margin
        if n_plus is not None and result.reason == "rank":
            stage, margin = "rank", float(result.rank - n_plus)
        report.update(informative=False, stage=stage, reason=result.reason, margin=margin)
        why = result.reason
        if result.mode is not None:
            report["pbh_mode"] = [result.mode.real, result.mode.imag]
            why += f" mode {result.mode:.6g} (|mode| {lmi._modulus(result.mode):.6g})"
        print(f"not informative at gamma={gamma} (stage {stage}, {why}, margin {margin:.3e})")
        return 1
    report["informative"] = True
    report["K" if n_plus is None else "K_plus"] = result.K.tolist()
    report["lmi_margin"] = result.lmi_margin
    report["achieved_radius"] = result.achieved_radius
    cert = result.certificate
    report["certificate"] = {"M": cert.M, "gamma": cert.gamma, "horizon_checked": cert.horizon_checked}
    print(
        f"informative at gamma={gamma}: closed-loop radius {result.achieved_radius:.6f}, "
        f"certificate M={cert.M:.4f}"
    )
    return 0


def cmd_verify(args):
    batch = _load_batch(args.input)
    K = _load_gain(args.gain)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "mode": args.mode,
        "gamma": args.gamma,
    }
    keys, where = ("A", "B"), "compatible family"
    if args.mode == "plus":
        batch, report["decomposition"] = _project_plus(args, batch)
        keys, where = ("A_plus", "B_plus"), "compatible family on X+"
    if batch.m == 0 and K.size == 0:
        K = K.reshape(0, batch.n)  # an m = 0 gain is written as [], read as (1, 0)
    fam = finitedata.verify_on_compatible_plus(batch, K, args.gamma, args.trials, args.seed)
    report["worst_radius"] = fam.worst_radius
    report["failures"] = fam.failures
    if fam.failures > 0:
        A, B = fam.worst_sample
        report["offending_sample"] = {
            keys[0]: A.tolist(), keys[1]: B.tolist(), "radius": fam.worst_radius
        }
    print(
        f"{where}: decided radius {fam.worst_radius:.6f} (one system, nothing drawn), "
        f"{fam.failures} failures"
    )
    _write_report(report, args.out)
    return 0 if fam.failures == 0 else 1


def cmd_noise(args):
    batch = _load_batch(args.input)
    informativity._check_sampling(args.trials, args.seed)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "noise",
        "gamma": args.gamma,
        "c1": args.c1,
        "c0": args.c0,
    }
    if args.project:
        batch, report["decomposition"] = _project_plus(args, batch)
    result = noise_mod.robust_stabilization(batch, args.gamma, args.c1, args.c0, args.tol)
    if isinstance(result, noise_mod.NotApplicable):
        report["applicable"] = False
        report["stage"] = result.stage
        report["detail"] = result.detail
        print(f"not applicable: stage {result.stage} ({result.detail})")
        _write_report(report, args.out)
        return 1
    report["applicable"] = True
    report["M"] = result.M
    report["gamma_tilde"] = result.gamma_tilde
    report["margin_ok"] = result.margin_ok
    report["K"] = result.K.tolist()
    verification = noise_mod.verify_robust_gain(
        batch, result.M, result.gamma_tilde, args.c1, args.c0, result.Omega, trials=args.trials, seed=args.seed
    )
    if args.trials == 0:
        print("warning: trials = 0, verification passes vacuously")
    report["verification"] = verification.to_dict()
    print(
        f"robust synthesis: M={result.M:.4f}, gamma_tilde={result.gamma_tilde:.6f}, "
        f"margin_ok={result.margin_ok}; sampled worst radius "
        f"{verification.worst_radius:.6f} ({verification.violations} violations)"
    )
    _write_report(report, args.out)
    ok = result.margin_ok and verification.violations == 0
    return 0 if ok else 1


@functools.cache
def build_parser():
    """The argument parser, built once per process.  It holds no command
    functions: main looks ``cmd_<command>`` up when it runs, so a rebinding
    of those names (a tracer, a test) takes effect."""
    parser = argparse.ArgumentParser(
        prog="ddstab",
        description="Data informativity analysis and certified gain synthesis "
        "for discrete-time linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a data batch JSON file")
    gen.add_argument(
        "--scenario",
        required=True,
        choices=["heat-cascade", "random-lti", "counterexample"],
    )
    gen.add_argument("--out", required=True, help="output path")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n-modes", type=int, default=50, help="heat-cascade modal truncation")
    gen.add_argument("--samples", type=int, default=None, help="number of data samples")
    gen.add_argument("--n", type=int, default=3, help="state dimension / truncation order")
    gen.add_argument("--m", type=int, default=1, help="input dimension (random-lti)")
    gen.add_argument("--scale", type=float, default=1.0, help="input excitation scale")
    gen.add_argument("--radius", type=float, default=1.1, help="spectral radius of random A")

    ana = sub.add_parser("analyze", help="informativity analysis of a data batch")
    ana.add_argument("--in", dest="input", required=True)
    ana.add_argument("--mode", required=True, choices=["identify", "stabilize", "finite-plus"])
    ana.add_argument("--gamma", type=float, default=0.9)
    ana.add_argument("--tol", type=float, default=DEFAULT_TOL)
    ana.add_argument("--seed", type=int, default=0, help="unused: the synthesis is deterministic")
    ana.add_argument("--out", default=None, help="write a JSON report here")
    _decomposition_args(ana)

    ver = sub.add_parser("verify", help="decide a gain on the whole compatible family")
    ver.add_argument("--in", dest="input", required=True)
    ver.add_argument(
        "--gain", required=True,
        help='JSON file {"K": [[...]]}, or an analyze report with "K" or "K_plus"',
    )
    ver.add_argument("--mode", required=True, choices=["plus", "full"])
    ver.add_argument("--gamma", type=float, default=0.9)
    ver.add_argument("--trials", type=int, default=200, help="checked >= 0; nothing is counted")
    ver.add_argument("--seed", type=int, default=0, help="checked >= 0; nothing is drawn")
    ver.add_argument("--out", default=None)
    _decomposition_args(ver)

    noi = sub.add_parser("noise", help="robust synthesis and verification from noisy data")
    noi.add_argument("--in", dest="input", required=True)
    noi.add_argument("--gamma", type=float, required=True)
    noi.add_argument("--c1", type=float, required=True)
    noi.add_argument("--c0", type=float, required=True)
    noi.add_argument("--trials", type=int, default=20)
    noi.add_argument("--tol", type=float, default=DEFAULT_TOL)
    noi.add_argument("--seed", type=int, default=0)
    noi.add_argument("--project", action="store_true", help="analyze on X+ via the modal split")
    noi.add_argument("--out", default=None)
    _decomposition_args(noi)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        out = args.out and os.path.abspath(args.out)
        if out and (os.path.isdir(out) or not os.access(os.path.dirname(out) + "/", os.W_OK)):
            raise InvalidParams(f"cannot write {args.out}")
        return globals()[f"cmd_{args.command}"](args)
    except (DdstabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
