"""The option table behind every command: each option behaves the same as a
flag and as a config key, and --help shows where it applies and its default."""

import json

import pytest

from lrpulse.cli import _COMMANDS, main

# a value other than the default for every option of the table; an option
# added without one here fails test_flag_and_config_key_agree
VALUES = {
    "strategy": "c", "A": 0.7, "B": 0.5, "delta_t_over_T": 0.02,
    "neglect_imag": True, "T": 2.0, "omega_T_over_pi": None, "omega": 2.0,
    "Omega0_over_omega": 0.31, "target_delta_epsilon": 0.4, "n_periods": 2,
    "out": "o2.out", "summary": "s2.json", "schedule": "s.csv",
    "samples_per_period": 30, "steps_per_period": 300,
}
# short runs of each strategy; omega_T_over_pi is the calibrated value
STRATEGY = {"a": {"A": 0.7, "omega_T_over_pi": 15.8274},
            "b": {"B": 0.5, "omega_T_over_pi": 11.3369},
            "c": {"Omega0_over_omega": 0.3, "n_periods": 1}}
COMMAND = {"synth": {"out": "o.csv", "summary": "s.json",
                     "samples_per_period": 20},
           "simulate": {"out": "o.csv", "summary": "s.json",
                        "steps_per_period": 200},
           "verify": {"out": "v.json", "steps_per_period": 200},
           "calibrate-c": {"out": "c.json"}}

CASES = [(command, opt) for command, (_, options) in _COMMANDS.items()
         for opt in options if not opt.required]


def flags(options):
    argv = []
    for name, value in options.items():
        flag = "--" + name.replace("_", "-")
        argv += [flag] if value is True else [flag, str(value)]
    return argv


def run(tmp_path, monkeypatch, capsys, command, given, config):
    """Exit code, stdout and the files written by one run in its own
    directory, the config file left out."""
    tmp_path.mkdir()
    monkeypatch.chdir(tmp_path)
    if command == "verify":   # the file --schedule reads, of the strategy-c base
        assert main(["synth", *flags({"strategy": "c", **STRATEGY["c"]}),
                     "--out", "s.csv"]) == 0
    argv = [command, *flags(given)]
    if config:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", "cfg.json"]
    capsys.readouterr()
    code = main(argv)
    files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())
             if p.name != "cfg.json"}
    return code, capsys.readouterr(), files


@pytest.mark.parametrize("command,opt", CASES,
                         ids=[f"{c}-{o.name}" for c, o in CASES])
def test_flag_and_config_key_agree(tmp_path, monkeypatch, capsys, command, opt):
    # the cheapest strategy the option applies to, if the command takes one
    value = VALUES[opt.name]
    base = dict(COMMAND[command])
    if any(o.name == "strategy" for o in _COMMANDS[command][1]):
        strategy = opt.strategies[-1]
        base = {"strategy": strategy, **STRATEGY[strategy], **base}
    if opt.name == "target_delta_epsilon":
        base.pop("Omega0_over_omega", None)   # calibrate to the target
    if value is None:   # the base value, given the other way
        value = base[opt.name]
    base.pop(opt.name, None)
    by_flag = run(tmp_path / "flag", monkeypatch, capsys, command,
                  {**base, opt.name: value}, {})
    by_key = run(tmp_path / "key", monkeypatch, capsys, command, base,
                 {opt.name: value})
    assert by_flag == by_key
    # every run succeeds but verify's of the neglect_imag variant, which fails
    # its invariance check
    code, _, files = by_flag
    assert code == ((command, opt.name) == ("verify", "neglect_imag")) and files


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_help_names_strategies_and_defaults(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for opt in _COMMANDS[command][1]:
        assert "--" + opt.name.replace("_", "-") in text
        if opt.default is not None:
            assert f"default {opt.default})" in text, opt.name
        if opt.strategies != "abc":
            assert "strategy " + "/".join(opt.strategies) in text, opt.name
