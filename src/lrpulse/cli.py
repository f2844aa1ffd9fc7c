"""Command-line front end: tables, synth, simulate, verify, calibrate-c.

Every command accepts its options as flags and/or a JSON config file
(--config); explicit flags override file values. Output files are written
atomically (temp file + rename). Exit codes: 0 success, 1 validation or usage
error or failed verification, 2 numerical non-convergence, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .errors import (CalibrationError, ConvergenceError, PropagationError,
                     SingularityError, SynthesisError)
from .propagate import PropagationConfig, deviation_from_analytic, propagate
from .synthesis import (PulseSchedule, calibrate_strategy_c, load_schedule_csv,
                        solve_omega_T_for_A, solve_omega_T_for_B, strategy_a,
                        strategy_b, strategy_c)
from .verify import run_verification
from .core import _sample, ket

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NONCONVERGENCE = 2
EXIT_IO = 3

TABLE_I_PARAMS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
TABLE_II_PARAMS = (0.4, 0.5, 0.6, 0.7)

DEFAULT_TARGET_DELTA_EPS = np.pi / 6

# the strategies each schedule option applies to
_STRATEGY_OPTIONS = {"A": "a", "B": "b", "delta_t_over_T": "b", "neglect_imag": "b",
                     "T": "ab", "omega_T_over_pi": "ab", "omega": "c",
                     "Omega0_over_omega": "c", "target_delta_epsilon": "c",
                     "n_periods": "c"}


def _atomic_write(path: str, writer) -> None:
    """Call writer(tmp_path) then rename tmp_path onto path."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, obj: dict) -> None:
    def writer(tmp):
        with open(tmp, "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    _atomic_write(path, writer)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def finite_float(text: str) -> float:
    """The type of every float option: a float that is neither nan nor inf."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"not a finite number: {text}")
    return value


def _merge_config(args: argparse.Namespace,
                  parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Fill unset options from the JSON config file, if one was given; a value
    passes its flag's type (str if none) on str(value), a switch takes a bool.
    A required flag is not a config key: it must be given on the command line."""
    path = getattr(args, "config", None)
    if not path:
        return args
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    # the subcommand's own options; help and config are not config keys
    actions = {a.dest: a for a in sub.choices[args.command]._actions
               if a.dest not in ("help", "config")}
    for key, value in cfg.items():
        action = actions.get(key)
        if action is None:
            raise ValueError(f"{path}: unknown config key {key!r}")
        if action.required:
            raise ValueError(f"{path}: config key {key!r} is a required flag; "
                             f"give {action.option_strings[0]} on the command line")
        if getattr(args, key) is not None or value is None:
            continue
        if action.nargs == 0 and not isinstance(value, bool):
            raise ValueError(f"{path}: config key {key!r} must be true or false")
        if action.nargs != 0:
            try:
                value = (action.type or str)(str(value))
            except ValueError:
                raise ValueError(f"{path}: config key {key!r}: invalid "
                                 f"{action.type.__name__} value {value!r}") from None
        setattr(args, key, value)
    return args


def _default(args, name, value):
    if getattr(args, name, None) is None:
        setattr(args, name, value)


# ---------------------------------------------------------------------------
# schedule construction shared by synth / simulate / verify
# ---------------------------------------------------------------------------

def build_schedule(args) -> tuple[PulseSchedule, dict, float, str]:
    """Schedule plus calibration info, output time scale, and time-unit label."""
    strategy = args.strategy
    if strategy not in ("a", "b", "c"):
        raise ValueError(f"unknown strategy {strategy!r}")
    for name, strategies in _STRATEGY_OPTIONS.items():
        # given as a flag or config key; a False neglect_imag is not given
        value = getattr(args, name)
        if value is not None and value is not False and strategy not in strategies:
            raise ValueError(f"option --{name.replace('_', '-')} does not "
                             f"apply to --strategy {strategy}")
    info: dict = {}
    if strategy in ("a", "b"):
        param_name = "A" if strategy == "a" else "B"
        param = getattr(args, param_name)
        if param is None:
            raise ValueError(f"missing required option --{param_name}")
        _default(args, "T", 1.0)
        T = args.T
        if T <= 0:
            raise ValueError("T must be positive")
        if args.omega_T_over_pi is not None:
            omega_T = args.omega_T_over_pi * np.pi
        else:
            solver = solve_omega_T_for_A if strategy == "a" else solve_omega_T_for_B
            cal = solver(param)
            omega_T = cal.value
            info["calibration"] = {"omega_T_over_pi": omega_T / np.pi,
                                   "residual": cal.residual,
                                   "iterations": cal.iterations}
        omega = omega_T / T
        if strategy == "a":
            schedule = strategy_a(param, omega, T)
        else:
            _default(args, "delta_t_over_T", 0.01)
            schedule = strategy_b(param, omega, T, args.delta_t_over_T * T,
                                  neglect_imag=bool(args.neglect_imag))
        return schedule, info, T, "t/T"
    _default(args, "omega", 1.0)
    _default(args, "n_periods", 6)
    omega = args.omega
    if omega <= 0:
        raise ValueError("omega must be positive")
    if args.Omega0_over_omega is not None:
        kappa = args.Omega0_over_omega
    else:
        _default(args, "target_delta_epsilon", DEFAULT_TARGET_DELTA_EPS)
        target = args.target_delta_epsilon
        cal = calibrate_strategy_c(target)
        kappa = cal.value
        info["calibration"] = {"Omega0_over_omega": kappa,
                               "target_delta_epsilon": target,
                               "residual": cal.residual,
                               "iterations": cal.iterations}
    schedule = strategy_c(kappa * omega, omega, args.n_periods)
    return schedule, info, 0.5 * np.pi / omega, "t/(pi/2w)"


def _envelope_summary(schedule: PulseSchedule) -> dict:
    ts = schedule.sample_times(400)
    (op, _, dd, _), _ = _sample(schedule, ts)   # each sampler called once
    op, dd = np.asarray(op, dtype=complex), np.asarray(dd, dtype=float)
    return {
        "max_abs_omega_p": float(np.max(np.abs(op))),
        "max_re_omega_p": float(np.max(op.real)),
        "min_re_omega_p": float(np.min(op.real)),
        "max_im_omega_p": float(np.max(op.imag)),
        "min_im_omega_p": float(np.min(op.imag)),
        "max_abs_delta": float(np.max(np.abs(dd))),
        "endpoint_abs_omega_p": [float(np.abs(op[0])), float(np.abs(op[-1]))],
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_tables(args) -> int:
    if args.which == "I":
        params, solver, label = TABLE_I_PARAMS, solve_omega_T_for_A, "A"
    else:
        params, solver, label = TABLE_II_PARAMS, solve_omega_T_for_B, "B"
    rows = [(p, solver(p).value / np.pi) for p in params]

    def writer(tmp):
        with open(tmp, "w") as fh:
            fh.write(f"{label.lower()},omegaT_over_pi\n")
            for p, u in rows:
                fh.write(f"{p:.12g},{u:.12g}\n")
    _atomic_write(args.out, writer)
    print(f"wrote table {args.which} ({len(rows)} rows) to {args.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    schedule, info, time_scale, unit = build_schedule(args)
    _default(args, "samples_per_period", 200)
    spp = args.samples_per_period
    _atomic_write(args.out,
                  lambda tmp: schedule.write_csv(tmp, spp, time_scale))
    written = [args.out]
    if schedule.strategy == "b" and schedule.params.get("neglect_imag"):
        # emit the unmodified-imaginary-part variant alongside for comparison
        base = strategy_b(schedule.params["B"], schedule.omega,
                          schedule.t_end,
                          schedule.params["delta_t_over_T"] * schedule.t_end,
                          neglect_imag=False)
        root, ext = os.path.splitext(args.out)
        alt = root + ".withimag" + ext
        _atomic_write(alt, lambda tmp: base.write_csv(tmp, spp, time_scale))
        written.append(alt)
    if args.summary:
        summary = {"schema_version": 1, "schedule": schedule.header(),
                   "time_unit": unit, "envelope": _envelope_summary(schedule)}
        summary.update(info)
        _write_json(args.summary, summary)
        written.append(args.summary)
    print("wrote " + ", ".join(written))
    return EXIT_OK


def cmd_simulate(args) -> int:
    schedule, info, time_scale, unit = build_schedule(args)
    _default(args, "steps_per_period", 2000)
    cfg = PropagationConfig(steps_per_carrier_period=args.steps_per_period,
                            record_states=True)
    report = propagate(schedule, ket(1), cfg)
    deviation = None
    if schedule.strategy != "b":
        deviation = deviation_from_analytic(report, schedule)
    summary = report.summary()
    summary["time_unit"] = unit
    summary["analytic_deviation"] = deviation
    summary.update(info)
    if args.out:
        _atomic_write(args.out, lambda tmp: report.write_csv(tmp, time_scale))
    if args.summary:
        _write_json(args.summary, summary)
    print(f"final populations: p1={report.final_populations[0]:.6f} "
          f"p2={report.final_populations[1]:.6f} "
          f"p3={report.final_populations[2]:.6f}")
    print(f"max p2={report.max_p2:.6f}  norm drift={report.norm_drift:.3g}"
          + (f"  analytic deviation={deviation:.3g}"
             if deviation is not None else ""))
    return EXIT_OK


def cmd_verify(args) -> int:
    schedule, info, _, _ = build_schedule(args)
    _default(args, "steps_per_period", 2000)
    csv = load_schedule_csv(args.schedule) if args.schedule else None
    result = run_verification(schedule, csv=csv,
                              steps_per_period=args.steps_per_period)
    result.update(info)
    if args.out:
        _write_json(args.out, result)
    for name, check in result["checks"].items():
        status = "pass" if check["passed"] else "FAIL"
        print(f"{status}  {name}")
    if not result["passed"]:
        failed = [n for n, c in result["checks"].items() if not c["passed"]]
        print("verification failed: " + ", ".join(failed), file=sys.stderr)
        return EXIT_VALIDATION
    print("all checks passed")
    return EXIT_OK


def cmd_calibrate_c(args) -> int:
    _default(args, "target_delta_epsilon", DEFAULT_TARGET_DELTA_EPS)
    target = args.target_delta_epsilon
    cal = calibrate_strategy_c(target)
    out = {"schema_version": 1, "target_delta_epsilon": target,
           "Omega0_over_omega": cal.value, "residual": cal.residual,
           "iterations": cal.iterations}
    if args.out:
        _write_json(args.out, out)
    print(f"Omega0/omega = {cal.value:.10f} "
          f"(residual {cal.residual:.3g}, {cal.iterations} iterations)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--config", help="JSON config file; flags override its keys")


def _add_strategy(p):
    p.add_argument("--strategy", choices=("a", "b", "c"))
    p.add_argument("--A", type=finite_float, help="strategy-a window amplitude")
    p.add_argument("--B", type=finite_float, help="strategy-b window amplitude")
    p.add_argument("--T", type=finite_float, help="schedule duration in seconds "
                   "(strategies a/b, default 1.0)")
    p.add_argument("--omega-T-over-pi", dest="omega_T_over_pi",
                   type=finite_float,
                   help="override the calibrated omega*T (in units of pi)")
    p.add_argument("--delta-t-over-T", dest="delta_t_over_T",
                   type=finite_float,
                   help="strategy-b patch half-width in units of T (default 0.01)")
    p.add_argument("--neglect-imag", dest="neglect_imag", action="store_true",
                   default=None, help="strategy-b: drop the imaginary envelope part")
    p.add_argument("--omega", type=finite_float,
                   help="strategy-c carrier frequency (default 1.0)")
    p.add_argument("--Omega0-over-omega", dest="Omega0_over_omega",
                   type=finite_float,
                   help="strategy-c amplitude ratio; omit to calibrate")
    p.add_argument("--target-delta-epsilon", dest="target_delta_epsilon",
                   type=finite_float,
                   help="strategy-c per-period phase increment target "
                   "(default pi/6)")
    p.add_argument("--n-periods", dest="n_periods", type=int,
                   help="strategy-c carrier periods (default 6)")


class _Parser(argparse.ArgumentParser):
    """Raises argparse.ArgumentError on a usage error, such as a missing or
    unknown flag or a value its type rejects, so main exits 1, not 2."""

    def error(self, message):
        if message.startswith("the following arguments are required: --"):
            message += "; a config key cannot stand in for a required flag"
        raise argparse.ArgumentError(None, message)


def make_parser() -> argparse.ArgumentParser:
    """The lrpulse parser; its subcommand parsers share its class."""
    parser = _Parser(
        prog="lrpulse",
        description="Invariant-based pulse design for driven three-level "
                    "systems beyond the rotating-wave approximation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="write a calibration table as CSV")
    _add_common(p)
    p.add_argument("--which", choices=("I", "II"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("synth", help="synthesize a pulse schedule CSV")
    _add_common(p)
    _add_strategy(p)
    p.add_argument("--out", required=True)
    p.add_argument("--summary", help="optional JSON summary path")
    p.add_argument("--samples-per-period", dest="samples_per_period",
                   type=int, help="CSV samples per carrier period (default 200)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="synthesize, propagate, and report populations")
    _add_common(p)
    _add_strategy(p)
    p.add_argument("--out", help="population-trace CSV path")
    p.add_argument("--summary", help="JSON summary path")
    p.add_argument("--steps-per-period", dest="steps_per_period",
                   type=int, help="RK4 steps per carrier period (default 2000)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the self-check suites")
    _add_common(p)
    _add_strategy(p)
    p.add_argument("--schedule", help="also check the invariance residual "
                   "of this schedule CSV file at each of its interior rows")
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--steps-per-period", dest="steps_per_period",
                   type=int, help="RK4 steps per carrier period (default 2000)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("calibrate-c", help="solve the strategy-c amplitude ratio")
    _add_common(p)
    p.add_argument("--target-delta-epsilon", dest="target_delta_epsilon",
                   type=finite_float)
    p.add_argument("--out", help="JSON result path")
    p.set_defaults(func=cmd_calibrate_c)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = _merge_config(parser.parse_args(argv), parser)
        return args.func(args)
    except (ValueError, json.JSONDecodeError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (CalibrationError, ConvergenceError, SynthesisError,
            SingularityError, PropagationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
