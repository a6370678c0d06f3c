"""The CLI's byte contract, committed as a corpus.

Each entry tests/golden/cli/<case>/ holds one `ecgmon` command line and
its exit code (entry.json), its stdout and stderr, and the files it wrote
(files/).  The test replays every entry through `cli.main` in a temporary
working directory that holds a copy of tests/golden/cli/inputs/, and
compares all of it byte for byte.

After an intended output change, regenerate the corpus with

    PYTHONPATH=src python tests/test_cli_golden.py

and name each changed entry and the reason for it in CHANGES.md.
"""

import contextlib
import io
import json
import os
import shlex
import shutil
import tempfile
from pathlib import Path

import pytest

from ecgmon.cli import main
from ecgmon.config import _KEYS, ConfigError, PipelineConfig

CORPUS = Path(__file__).parent / "golden" / "cli"
INPUTS = CORPUS / "inputs"

# argparse wraps usage text to the terminal's width
COLUMNS = "80"

# one refused value per flag that sets a config key, with the config file
# that sets the same key to the same value
REFUSED = {
    "run --bpm 9000": "[signal]\nbpm = 9000\n",
    "run --bpm nan": "[signal]\nbpm = nan\n",
    "run --bpm 0": "[signal]\nbpm = 0\n",
    "run --duration nan": "[signal]\nduration = nan\n",
    "run --sink bogus": "[telemetry]\nsink = bogus\n",
    "simulate --out x.csv --bpm 9000": "[signal]\nbpm = 9000\n",
    "simulate --out x.csv --source sine --amplitude nan":
        "[signal]\nsource = sine\nsine_amplitude = nan\n",
    "simulate --out x.csv --rate 100": "[signal]\nsample_rate = 100\n",
    "simulate --out x.csv --duration 0": "[signal]\nduration = 0\n",
    "simulate --out x.csv --duration 1e308": "[signal]\nduration = 1e308\n",
    "simulate --out x.csv --mains-amplitude nan": "[noise]\nmains_amplitude = nan\n",
    "simulate --out x.csv --wander-amplitude inf": "[noise]\nwander_amplitude = inf\n",
    "simulate --out x.csv --emg-sigma -1": "[noise]\nemg_sigma = -1\n",
    "simulate --out x.csv --seed -1": "[noise]\nseed = -1\n",
    "metrics --rate 100": "[signal]\nsample_rate = 100\n",
    "metrics --noise-sigma nan": "[noise]\nemg_sigma = nan\n",
    "metrics --seed -1": "[noise]\nseed = -1\n",
    "stream --in sine.csv --half-capacity 0": "[adc]\nhalf_capacity = 0\n",
    "plot --in sine.csv --width 0": "[render]\nwidth = 0\n",
    "plot --in sine.csv --ascii --height 0": "[render]\nheight = 0\n",
    "send --in sine.csv --bpm 72 --sink bogus": "[telemetry]\nsink = bogus\n",
    "send --in sine.csv --bpm 72 --low-bpm 200": "[alerts]\nlow_bpm = 200\n",
    "send --in sine.csv --bpm 72 --high-bpm inf": "[alerts]\nhigh_bpm = inf\n",
    "send --in sine.csv --bpm 72 --max-ecg -1": "[telemetry]\nmax_ecg = -1\n",
}

# flag command line ({} takes the text) -> the config key the flag sets and
# texts to parse; int keys are decimal, whatever base a literal names
INT_TEXTS = ("010", "1_000", "0x10", "abc")
PARSED = {
    "simulate --out x.csv --duration 1 --seed {}": ("noise", "seed", INT_TEXTS),
    "stream --in sine.csv --half-capacity {}": ("adc", "half_capacity", INT_TEXTS),
    "simulate --out x.csv --duration 1 --bpm {}": ("signal", "bpm", ("1e2", "fast")),
}

# entry name -> command line after `ecgmon`, run in a copy of INPUTS
CASES = {
    "run": "run",
    "run-sine": "run --source sine --bpm 120 --duration 4",
    "run-config": "run --config run.cfg",
    "run-config-publish": "run --config run.cfg --publish --sink file:records.jsonl",
    "simulate-ecg-noise": "simulate --duration 2 --mains-amplitude 0.3 --wander-amplitude 0.2 "
                          "--emg-sigma 0.05 --seed 3 --out ecg.csv",
    "simulate-sine": "simulate --source sine --bpm 120 --amplitude 1 --duration 2 --out sine2.csv",
    "notch": "notch --in noisy.csv --out clean.csv",
    "detect": "detect --in sine.csv",
    "stream": "stream --in sine.csv --half-capacity 128",
    "plot-svg": "plot --in sine.csv --out sine.svg",
    "plot-ascii": "plot --in sine.csv --ascii",
    "send-stdout": "send --in sine.csv --bpm 130",
    "send-file": "send --in sine.csv --bpm 72 --sink file:sent.jsonl --timestamp 1700000000",
    "metrics": "metrics",
    "metrics-response-csv": "metrics --response-csv response.csv",
    "metrics-noise": "metrics --noise-sigma 0.05 --seed 3",
    "usage-error": "simulate --source nope --out x.csv",
    "config-error": "run --config bad.cfg",
    "config-error-board-key": "run --config board.cfg",
    "config-error-mains-nyquist": "run --config mains450.cfg",
    "config-error-noise-key": "run --config noise-key.cfg",
    "config-error-adc-key": "run --config adc.cfg",
    "config-error-metrics-probe": "metrics --config rate90.cfg",
    "unparsable-simulate-seed-abc": "simulate --out x.csv --seed abc",
    "unparsable-run-bpm-fast": "run --bpm fast",
    "help": "--help",
    **{f"help-{cmd}": f"{cmd} --help"
       for cmd in ("run", "simulate", "metrics", "notch", "detect", "stream", "plot", "send")},
    **{"-".join(["refused", cmd.split()[0], cmd.split()[-2].lstrip("-"), cmd.split()[-1]]): cmd
       for cmd in REFUSED},
}


def run_case(command: str, workdir: Path) -> dict:
    """Run one command line through `main` in workdir, which starts as a copy
    of INPUTS; returns its exit code, stdout, stderr and written files."""
    shutil.copytree(INPUTS, workdir, dirs_exist_ok=True)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(shlex.split(command))
    finally:
        os.chdir(cwd)
    inputs = {p.name for p in INPUTS.iterdir()}
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.name not in inputs}
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def read_entry(name: str) -> dict:
    entry = CORPUS / name
    doc = json.loads((entry / "entry.json").read_text(encoding="utf-8"))
    files = entry / "files"
    return {
        "command": doc["command"],
        "exit": doc["exit"],
        "stdout": (entry / "stdout").read_bytes().decode("utf-8"),
        "stderr": (entry / "stderr").read_bytes().decode("utf-8"),
        "files": {p.name: p.read_bytes() for p in sorted(files.iterdir())} if files.is_dir() else {},
    }


def write_entry(name: str, command: str, result: dict) -> None:
    entry = CORPUS / name
    shutil.rmtree(entry, ignore_errors=True)
    entry.mkdir(parents=True)
    (entry / "entry.json").write_text(
        json.dumps({"command": command, "exit": result["exit"]}, indent=1) + "\n", encoding="utf-8")
    for stream in ("stdout", "stderr"):
        with open(entry / stream, "w", encoding="utf-8", newline="") as fh:
            fh.write(result[stream])
    for fname, data in result["files"].items():
        (entry / "files").mkdir(exist_ok=True)
        (entry / "files" / fname).write_bytes(data)


def test_corpus_holds_every_case():
    entries = {p.name for p in CORPUS.iterdir() if p.is_dir() and p != INPUTS}
    assert entries == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes(name, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    expected = read_entry(name)
    assert expected["command"] == CASES[name]
    actual = run_case(CASES[name], tmp_path)
    assert {**actual, "command": CASES[name]} == expected


@pytest.mark.parametrize("command", sorted(REFUSED))
def test_refused_flag_is_refused_like_its_file_key(command, tmp_path, monkeypatch):
    """A flag that sets a config key exits 1 before any output, with the
    message the same key and value in a config file gives."""
    monkeypatch.setenv("COLUMNS", COLUMNS)
    flag = run_case(command, tmp_path / "flag")
    (tmp_path / "file").mkdir()
    (tmp_path / "file" / "f.cfg").write_text(REFUSED[command])
    from_file = run_case("run --config f.cfg", tmp_path / "file")
    assert (flag["exit"], flag["stdout"], flag["files"]) == (1, "", {})
    assert from_file["exit"] == 1
    flag_prefix = "ecgmon: config error: command line: "
    file_prefix = "ecgmon: config error: f.cfg: "
    assert flag["stderr"].startswith(flag_prefix) and from_file["stderr"].startswith(file_prefix)
    assert flag["stderr"][len(flag_prefix):] == from_file["stderr"][len(file_prefix):]


@pytest.mark.parametrize("command, text",
                         [(cmd, text) for cmd, (_, _, texts) in PARSED.items() for text in texts])
def test_flag_text_parses_like_its_file_value(command, text, tmp_path, monkeypatch):
    """A flag's text and the same text as its key's file value give the same
    value (the flag's bytes equal those of the value's decimal text), or the
    same refusal, less the file's name and line."""
    monkeypatch.setenv("COLUMNS", COLUMNS)
    section, key, _ = PARSED[command]
    flag = run_case(command.format(text), tmp_path / "flag")
    try:
        cfg = PipelineConfig.loads(f"[{section}]\n{key} = {text}\n", name="f.cfg")
    except ConfigError as exc:
        file_prefix = "f.cfg: line 2: "
        assert str(exc).startswith(file_prefix)
        reason = str(exc)[len(file_prefix):]
        assert flag == {"exit": 1, "stdout": "", "files": {},
                        "stderr": f"ecgmon: config error: command line: {reason}\n"}
    else:
        owner, attr = _KEYS[key]
        value = getattr(cfg if owner is None else getattr(cfg, owner), attr)
        assert flag == run_case(command.format(value), tmp_path / "value")


def regenerate() -> None:
    os.environ["COLUMNS"] = COLUMNS
    for stale in CORPUS.iterdir():
        if stale.is_dir() and stale != INPUTS and stale.name not in CASES:
            shutil.rmtree(stale)
    for name, command in CASES.items():
        with tempfile.TemporaryDirectory() as workdir:
            write_entry(name, command, run_case(command, Path(workdir)))


if __name__ == "__main__":
    regenerate()
