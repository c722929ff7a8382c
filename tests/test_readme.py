"""The README's command-line examples print the committed golden outputs.

Each `wchernoff ...` command of the README's `sh` block runs as written, in a
fresh `python -m wchernoff.cli` process, and its stdout must equal
`tests/golden/<command>.txt` byte for byte.  After a change that is meant to
alter an output, regenerate the files with `python tests/test_readme.py`.
"""

import os
import re
import shlex
import subprocess
import sys

import pytest

import wchernoff

SRC = os.path.dirname(os.path.dirname(os.path.abspath(wchernoff.__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
README = os.path.join(os.path.dirname(HERE), "README.md")


def readme_commands():
    """The argv of each `wchernoff ...` command in the README's `sh` blocks."""
    with open(README) as f:
        script = "".join(re.findall(r"```sh\n(.*?)```", f.read(), re.S))
    # a command starts at a line with no indent; only the mary JSON spans lines
    commands = re.split(r"\n(?=\S)", script.replace("\\\n", " "))
    return [shlex.split(cmd)[1:] for cmd in commands if cmd.startswith("wchernoff ")]


def run(argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "wchernoff.cli", *argv], env=env,
                          capture_output=True, check=True).stdout


def test_readme_lists_the_seven_commands():
    assert [argv[0] for argv in readme_commands()] == [
        "chernoff", "curve", "divergence", "simulate", "mary", "tailbound", "identities"]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_prints_its_golden_output(argv):
    with open(os.path.join(GOLDEN, f"{argv[0]}.txt"), "rb") as f:
        assert run(argv) == f.read()


if __name__ == "__main__":
    for argv in readme_commands():
        with open(os.path.join(GOLDEN, f"{argv[0]}.txt"), "wb") as f:
            f.write(run(argv))
