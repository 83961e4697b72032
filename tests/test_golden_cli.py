"""Byte-exact CLI outputs that the check-weights goldens do not cover.

Each file in ``tests/golden_cli`` pins one command on every corpus scenario,
in name order: a ``### <name> exit <code>`` header, the command's stdout,
then its stderr lines prefixed ``stderr: ``.  ``search-weights`` runs on the
scenario with its ``weight:`` lines removed.  After a deliberate output
change, regenerate the files with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

import starweight
from starweight.cli import main

CORPUS = Path(starweight.__file__).parent / "corpus"
GOLDEN = Path(__file__).parent / "golden_cli"

COMMANDS = {
    "parse": (["parse"], False),
    "star-edges-dot": (["star", "--edges", "--dot", "-"], False),
    "check-weights-json": (["check-weights", "--json"], False),
    "cycles": (["cycles"], False),
    "trivial-cycles-4": (["trivial-cycles", "--length", "4"], False),
    "search-weights-stripped": (["search-weights"], True),
    "classify-equation": (["classify-equation"], False),
    "classify-equation-json": (["classify-equation", "--json"], False),
}


def _strip_weights(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if not l.startswith("weight:")) + "\n"


def render(command: str) -> str:
    """The golden text of one command over the whole corpus."""
    args, stripped = COMMANDS[command]
    chunks = []
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted(CORPUS.glob("*.scn")):
            if stripped:
                target = Path(tmp) / path.name
                target.write_text(_strip_weights(path.read_text(encoding="utf-8")), encoding="utf-8")
                path = target
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([args[0], str(path), *args[1:]])
            chunks.append(f"### {path.stem} exit {code}\n")
            chunks.append(out.getvalue())
            chunks.extend(f"stderr: {line}\n" for line in err.getvalue().splitlines())
    return "".join(chunks)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_output_matches_golden(command):
    golden = (GOLDEN / f"{command}.txt").read_text(encoding="utf-8")
    assert render(command) == golden


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for command in sorted(COMMANDS):
        (GOLDEN / f"{command}.txt").write_text(render(command), encoding="utf-8")
        sys.stdout.write(f"wrote {GOLDEN / command}.txt\n")
