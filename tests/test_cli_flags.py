"""The flags of each command: `track`'s constant flags are `FcgConfig`'s fields.

Every command accepts a fixed set of flags with fixed defaults; these tests
pin them, so a flag built from the configuration cannot appear, vanish or
change its default unnoticed.
"""

import re
from dataclasses import fields

import pytest

from fcgtrack.cli import _build_parser, _config, main
from fcgtrack.core import FcgConfig

REQUIRED = ["--det", "d.txt", "--features", "f.fcgf", "--out", "o.txt"]

# A value for every field, none of them its default.
NON_DEFAULT = {
    "window": 4,
    "tracklet_threshold": 0.07,
    "track_threshold": 0.09,
    "kt": 12,
    "ct": 2.5,
    "off": 0.3,
    "kf": 1.5,
    "cf": 3.0,
    "score_threshold": 0.4,
    "use_temporal": False,
    "use_spatial": False,
    "use_motion": True,
    "consecutive": False,
    "feature_dim": 16,
}
TOGGLES = {
    "use_temporal": "--no-temporal",
    "use_spatial": "--no-spatial",
    "use_motion": "--motion",
    "consecutive": "--non-consecutive",
}

TRACK_OPTIONS = [
    "-h, --help", "--det", "--features", "--out", "--ratio", "--threads",
    "--window", "--tracklet-threshold", "--track-threshold", "--kt", "--ct",
    "--off", "--kf", "--cf", "--score-threshold", "--feature-dim",
    "--no-temporal", "--no-spatial", "--motion", "--non-consecutive",
]

# Flag -> default of every command, the toggles of `track` left out.
FLAG_DEFAULTS = {
    "track": {
        "--det": None, "--features": None, "--out": None, "--ratio": 1, "--threads": 1,
        "--window": 6, "--tracklet-threshold": 0.055, "--track-threshold": 0.055,
        "--kt": 40, "--ct": 4.0, "--off": 0.15, "--kf": 2.0, "--cf": 2.0,
        "--score-threshold": 0.7, "--feature-dim": 2048,
    },
    "synth": {
        "--identities": None, "--frames": None, "--sigma": 0.0, "--seed": 0,
        "--out-dir": None, "--feature-dim": 2048, "--motion-model": "linear",
        "--occlude": [], "--exit": [], "--arena": (1920.0, 1080.0), "--box": (50.0, 100.0),
    },
    "eval": {"--gt": None, "--pred": None, "--iou-threshold": 0.5},
    "subsample": {
        "--det": None, "--features": None, "--ratio": None, "--out-dir": None,
        "--gt": None, "--score-threshold": 0.7, "--feature-dim": 2048,
    },
}


def parse_track(*flags):
    return _build_parser().parse_args(["track", *REQUIRED, *flags])


def commands():
    (action,) = [a for a in _build_parser()._actions if a.dest == "command"]
    return action.choices


def test_every_field_is_set_through_its_flag():
    assert set(NON_DEFAULT) == {f.name for f in fields(FcgConfig)}
    defaults = FcgConfig()
    assert all(value != getattr(defaults, name) for name, value in NON_DEFAULT.items())
    flags = []
    for name, value in NON_DEFAULT.items():
        if name in TOGGLES:
            flags.append(TOGGLES[name])
        else:
            flags += ["--" + name.replace("_", "-"), str(value)]
    assert _config(parse_track(*flags)) == FcgConfig(**NON_DEFAULT)


def test_no_flag_gives_the_default_config():
    args = parse_track()
    assert _config(args) == FcgConfig()
    assert (args.ratio, args.threads) == (1, 1)


@pytest.mark.parametrize("name, flag", TOGGLES.items())
def test_each_toggle_flips_only_its_field(name, flag):
    expected = FcgConfig(**{name: not getattr(FcgConfig(), name)})
    assert _config(parse_track(flag)) == expected


def test_track_help_lists_the_flags(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main(["track", "--help"])
    assert stop.value.code == 0
    options = capsys.readouterr().out.split("options:\n")[1]
    listed = re.findall(r"^  (-h, --help|--[a-z-]+)", options, flags=re.M)
    assert listed == TRACK_OPTIONS
    for flag in ("--no-temporal", "--no-spatial", "--motion", "--non-consecutive"):
        assert re.search(rf"^  {flag}\s+\S", options, flags=re.M), flag


@pytest.mark.parametrize("command", FLAG_DEFAULTS)
def test_each_command_keeps_its_flags_and_defaults(command):
    parser = commands()[command]
    got = {a.option_strings[-1]: a.default for a in parser._actions if a.dest != "help"}
    toggles = set(TOGGLES.values()) if command == "track" else set()
    assert set(got) == set(FLAG_DEFAULTS[command]) | toggles
    assert {flag: got[flag] for flag in FLAG_DEFAULTS[command]} == FLAG_DEFAULTS[command]


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--arena", "5", "expected WxH, got '5'"),
        ("--box", "1x2x3", "expected WxH, got '1x2x3'"),
        ("--box", "ax2", "expected WxH, got 'ax2'"),
        ("--occlude", "1:2", "expected id:start:end, got '1:2'"),
        ("--occlude", "1:2:x", "expected id:start:end, got '1:2:x'"),
        ("--exit", "1:2:3", "expected id:frame, got '1:2:3'"),
        ("--exit", "1.5:2", "expected id:frame, got '1.5:2'"),
    ],
)
def test_synth_value_errors_keep_their_text(tmp_path, capsys, flag, value, message):
    argv = ["synth", "--identities", "2", "--frames", "5", "--out-dir", str(tmp_path)]
    assert main([*argv, flag, value]) == 1
    assert capsys.readouterr().err == f"usage error: argument {flag}: {message}\n"


def test_synth_sizes_accept_either_case(tmp_path):
    args = _build_parser().parse_args(
        ["synth", "--identities", "2", "--frames", "5", "--out-dir", str(tmp_path),
         "--arena", "640X480", "--box", "20x40", "--occlude", "1:2:3", "--exit", "2:4"]
    )
    assert args.arena == (640.0, 480.0) and args.box == (20.0, 40.0)
    assert args.occlude == [(1, 2, 3)] and args.exit == [(2, 4)]
