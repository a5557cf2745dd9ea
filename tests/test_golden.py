"""The README CLI commands and the bundled campaign report, byte for byte.

tests/golden/cli/NAME.txt holds ``exit N`` on its first line and then the
command's stdout; a command with ``--out FILE`` also writes FILE, which is
compared with the golden of that name (campaign.csv, campaign.json).  The
map specs the commands read are checked in beside them.  A change that
moves any byte must regenerate the goldens deliberately:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from arithdyn.cli import main
from arithdyn.corpus import export_corpus

GOLDEN = Path(__file__).resolve().parent / "golden"
SPECS = GOLDEN / "cli"

# name -> (argv, --out golden or None); SPEC:x reads tests/golden/cli/x,
# OUT:x writes x in a scratch directory, CORPUS is the exported corpus
README_COMMANDS = {
    "orbit": ("orbit --map SPEC:square.json --point 2,1 --n 4", None),
    "dyndeg": ("dyndeg --map SPEC:cremona.json --n 6", None),
    "arithdeg": ("arithdeg --map SPEC:mono.json --point 2,3 --n 40", None),
    "canht": ("canht --map SPEC:square.json --point 2,1 --beta 2"
              " --certified", None),
    "count": ("count --map SPEC:square.json --point 2,1 --n 20"
              " --B 5,50,500", None),
    "spectral": ("spectral --matrix 2,1;1,1", None),
    "campaign": ("campaign --out OUT:report.csv", "campaign.csv"),
    "campaign-json": ("campaign --out OUT:report.json", "campaign.json"),
    "campaign-corpus": ("campaign --corpus CORPUS --out OUT:report.csv",
                        "campaign.csv"),
}


def run_command(name, workdir):
    """(exit code and stdout as golden text, --out file text or None)."""
    workdir = Path(workdir)
    argv_text, out_golden = README_COMMANDS[name]
    argv = []
    for arg in argv_text.split():
        if arg.startswith("SPEC:"):
            arg = str(SPECS / arg[5:])
        elif arg.startswith("OUT:"):
            out_path = workdir / arg[4:]
            arg = str(out_path)
        elif arg == "CORPUS":
            arg = str(workdir / "corpus")
            export_corpus(arg)
        argv.append(arg)
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main(argv)
    text = f"exit {code}\n" + stdout.getvalue()
    out = out_path.read_text(encoding="utf-8") if out_golden else None
    return text, out


@pytest.mark.parametrize("name", README_COMMANDS)
def test_readme_command_matches_golden(name, tmp_path):
    text, out = run_command(name, tmp_path)
    assert text == (SPECS / f"{name}.txt").read_text(encoding="utf-8")
    out_golden = README_COMMANDS[name][1]
    if out_golden:
        assert out == (GOLDEN / out_golden).read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    for name, (_, out_golden) in README_COMMANDS.items():
        with tempfile.TemporaryDirectory() as tmp:
            text, out = run_command(name, tmp)
        (SPECS / f"{name}.txt").write_text(text, encoding="utf-8")
        if out_golden:
            (GOLDEN / out_golden).write_text(out, encoding="utf-8")
