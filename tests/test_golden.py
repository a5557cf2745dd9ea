"""The CLI commands and the bundled campaign report, byte for byte.

README_COMMANDS are the commands README shows; BRANCH_COMMANDS reach the
output branches those miss (monomial orbit, cycle and indeterminacy notes,
heuristic and refused canht, the count truncation warning).

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
BRANCH_COMMANDS = {
    "orbit-mono": ("orbit --map SPEC:mono.json --point 1,2,3 --n 3", None),
    "orbit-cycle": ("orbit --map SPEC:square.json --point 1,1 --n 4", None),
    "orbit-indeterminate": ("orbit --map SPEC:cremona.json --point 1,0,0"
                            " --n 3", None),
    "dyndeg-mono": ("dyndeg --map SPEC:mono.json", None),
    "canht-heuristic": ("canht --map SPEC:square.json --point 2,1 --beta 2"
                        " --n 10", None),
    "canht-mono": ("canht --map SPEC:mono.json --point 2,3 --beta 2", None),
    "count-truncated": ("count --map SPEC:square.json --point 2,1 --n 4"
                        " --B 5,50,500", None),
}
COMMANDS = {**README_COMMANDS, **BRANCH_COMMANDS}


def run_command(name, workdir):
    """(exit code and stdout as golden text, --out file text or None)."""
    workdir = Path(workdir)
    argv_text, out_golden = COMMANDS[name]
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


def check_golden(name, workdir):
    text, out = run_command(name, workdir)
    assert text == (SPECS / f"{name}.txt").read_text(encoding="utf-8")
    out_golden = COMMANDS[name][1]
    if out_golden:
        assert out == (GOLDEN / out_golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", README_COMMANDS)
def test_readme_command_matches_golden(name, tmp_path):
    check_golden(name, tmp_path)


@pytest.mark.parametrize("name", BRANCH_COMMANDS)
def test_branch_command_matches_golden(name, tmp_path):
    check_golden(name, tmp_path)


if __name__ == "__main__":
    import tempfile

    for name, (_, out_golden) in COMMANDS.items():
        with tempfile.TemporaryDirectory() as tmp:
            text, out = run_command(name, tmp)
        (SPECS / f"{name}.txt").write_text(text, encoding="utf-8")
        if out_golden:
            (GOLDEN / out_golden).write_text(out, encoding="utf-8")
