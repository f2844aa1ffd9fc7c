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
from typing import NamedTuple

import numpy as np

from .errors import (CalibrationError, ConvergenceError, PropagationError,
                     SingularityError, SynthesisError)
from .propagate import PropagationConfig, deviation_from_analytic, propagate
from .synthesis import (PulseSchedule, calibrate_strategy_c, load_schedule_csv,
                        solve_omega_T_for_A, solve_omega_T_for_B, strategy_a,
                        strategy_b, strategy_c)
from .verify import run_verification
from .core import ket

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NONCONVERGENCE = 2
EXIT_IO = 3

TABLE_I_PARAMS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
TABLE_II_PARAMS = (0.4, 0.5, 0.6, 0.7)


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
# options: one table per command
# ---------------------------------------------------------------------------

def finite_float(text: str) -> float:
    """The type of every float option: a float that is neither nan nor inf."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"not a finite number: {text}")
    return value


class _Option(NamedTuple):
    """A command option: flag --name (each _ as -), config key name. kind
    parses its text: a function, a tuple of choices, or bool for a switch."""
    name: str
    kind: object = str
    default: object = None
    strategies: str = "abc"
    help: str = ""
    required: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


_TARGET = _Option("target_delta_epsilon", finite_float, np.pi / 6, "c",
                  "per-period phase increment target")
# in the order the applicability check reports them
_STRATEGY = (
    _Option("strategy", ("a", "b", "c"), help="pulse design strategy"),
    _Option("A", finite_float, None, "a", "window amplitude"),
    _Option("B", finite_float, None, "b", "window amplitude"),
    _Option("delta_t_over_T", finite_float, 0.01, "b", "patch half-width over T"),
    _Option("neglect_imag", bool, False, "b", "drop the imaginary envelope part"),
    _Option("T", finite_float, 1.0, "ab", "schedule duration in seconds"),
    _Option("omega_T_over_pi", finite_float, None, "ab", "omit to calibrate"),
    _Option("omega", finite_float, 1.0, "c", "carrier frequency"),
    _Option("Omega0_over_omega", finite_float, None, "c", "omit to calibrate"),
    _TARGET,
    _Option("n_periods", int, 6, "c", "carrier periods"),
)
_STEPS = _Option("steps_per_period", int, 2000, help="RK4 steps per carrier period")

# command: (help, options); the handler is cmd_<command with - as _>
_COMMANDS = {
    "tables": ("write a calibration table as CSV", (
        _Option("which", ("I", "II"), required=True, help="Table I or II"),
        _Option("out", required=True, help="CSV path"))),
    "synth": ("synthesize a pulse schedule CSV", _STRATEGY + (
        _Option("out", required=True, help="schedule CSV path"),
        _Option("summary", help="optional JSON summary path"),
        _Option("samples_per_period", int, 200,
                help="CSV samples per carrier period"))),
    "simulate": ("synthesize, propagate, and report populations", _STRATEGY + (
        _Option("out", help="population-trace CSV path"),
        _Option("summary", help="JSON summary path"), _STEPS)),
    "verify": ("run the self-check suites", _STRATEGY + (
        _Option("schedule", help="also check the invariance residual of this "
                "schedule CSV file at each of its interior rows"),
        _Option("out", help="JSON report path"), _STEPS)),
    "calibrate-c": ("solve the strategy-c amplitude ratio", (
        _TARGET, _Option("out", help="JSON result path"))),
}


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset options from the JSON config file, if one was given: str(value)
    passes its option's kind (is one of its choices), a switch takes a bool,
    and a required flag is not a config key."""
    path = args.config
    if not path:
        return args
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    options = {opt.name: opt for opt in _COMMANDS[args.command][1]}
    for key, value in cfg.items():
        opt = options.get(key)
        if opt is None:
            raise ValueError(f"{path}: unknown config key {key!r}")
        if opt.required:
            raise ValueError(f"{path}: config key {key!r} is a required flag; "
                             f"give {opt.flag} on the command line")
        if getattr(args, key) is not None or value is None:
            continue
        if opt.kind is bool and not isinstance(value, bool):
            raise ValueError(f"{path}: config key {key!r} must be true or false")
        if opt.kind is not bool:
            parse = str if isinstance(opt.kind, tuple) else opt.kind
            try:
                value = parse(str(value))
            except ValueError:
                raise ValueError(f"{path}: config key {key!r}: invalid "
                                 f"{parse.__name__} value {value!r}") from None
            if isinstance(opt.kind, tuple) and value not in opt.kind:
                raise ValueError(f"{path}: config key {key!r}: invalid choice "
                                 f"{value!r} (choose from {', '.join(opt.kind)})")
        setattr(args, key, value)
    return args


def _fill_defaults(args, strategy=None) -> None:
    """Default each unset option that applies to strategy (any, if None); a
    given option, flag or config key, that does not apply is an error."""
    for opt in _COMMANDS[args.command][1]:
        value = getattr(args, opt.name)
        if strategy is None or strategy in opt.strategies:
            if value is None:
                setattr(args, opt.name, opt.default)
        elif value is not None and value is not False:   # a false switch is not given
            raise ValueError(f"option {opt.flag} does not apply to "
                             f"--strategy {strategy}")


# ---------------------------------------------------------------------------
# schedule construction shared by synth / simulate / verify
# ---------------------------------------------------------------------------

def build_schedule(args) -> tuple[PulseSchedule, dict, float, str]:
    """Schedule plus calibration info, output time scale, and time-unit label."""
    strategy = args.strategy
    if strategy is None:
        raise ValueError("missing required option --strategy")
    _fill_defaults(args, strategy)
    info: dict = {}
    if strategy in ("a", "b"):
        param_name = "A" if strategy == "a" else "B"
        param = getattr(args, param_name)
        if param is None:
            raise ValueError(f"missing required option --{param_name}")
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
            schedule = strategy_b(param, omega, T, args.delta_t_over_T * T,
                                  neglect_imag=args.neglect_imag)
        return schedule, info, T, "t/T"
    omega = args.omega
    if omega <= 0:
        raise ValueError("omega must be positive")
    if args.Omega0_over_omega is not None:
        kappa = args.Omega0_over_omega
    else:
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
    op, _, dd, _, _ = schedule.sample(ts)
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
    spp = args.samples_per_period
    _atomic_write(args.out,
                  lambda tmp: schedule.write_csv(tmp, spp, time_scale))
    written = [args.out]
    if args.neglect_imag:
        # emit the unmodified-imaginary-part variant alongside for comparison
        base = strategy_b(args.B, schedule.omega, args.T,
                          args.delta_t_over_T * args.T, neglect_imag=False)
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
    csv = load_schedule_csv(args.schedule)[1] if args.schedule else None
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
    _fill_defaults(args)
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

class _Parser(argparse.ArgumentParser):
    """Raises argparse.ArgumentError on a usage error, such as a missing or
    unknown flag or a value its type rejects, so main exits 1, not 2."""

    def error(self, message):   # each enclosing parser calls it again on message
        hint = "; a config key cannot stand in for a required flag"
        if message.startswith("the following arguments are required: --"):
            message = message.removesuffix(hint) + hint
        raise argparse.ArgumentError(None, message)


def make_parser() -> argparse.ArgumentParser:
    """The lrpulse parser and, of its class, one parser per _COMMANDS entry;
    each handler is looked up in the module now, so a rebound cmd_* is called."""
    parser = _Parser(
        prog="lrpulse",
        description="Invariant-based pulse design for driven three-level "
                    "systems beyond the rotating-wave approximation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        for opt in options:   # help shows where the option applies and its default
            notes = "; ".join(filter(None, [
                opt.strategies != "abc" and "strategy " + "/".join(opt.strategies),
                opt.default is not None and f"default {opt.default}"]))
            kind = ({"action": "store_true", "default": None} if opt.kind is bool
                    else {"choices": opt.kind} if isinstance(opt.kind, tuple)
                    else {"type": opt.kind})
            p.add_argument(opt.flag, required=opt.required, **kind,
                           help=f"{opt.help} ({notes})" if notes else opt.help)
        p.set_defaults(func=globals()["cmd_" + command.replace("-", "_")])
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = _merge_config(parser.parse_args(argv))
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
