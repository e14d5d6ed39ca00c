"""CLI stdout against golden files.

Each file under tests/golden/ holds the stdout of one CLI run on a bundled
fixture: the README examples, indec, tors, heart and verify on a2, a3,
loop and square, verify on d4, the benchmark's headline command, indec on a3
over F_3, the benchmark's odd-prime scan, the JSON reports of indec and
tors on d4, indec on the two scale fixtures, linear A4 over F_3 and D5 over
F_2, and tors on D5.  The scale goldens were written by the exhaustive
arrow-matrix scan that generate-and-close replaced (about 160 s for A4 over
F_3), so they pin the closure's universe to the scan's at scale.  The tors
golden on D5 (182 classes, 455 covers) was written by the torsion closure
that read the quotients of single members and paired every new member with
every closed one, so it pins the lattice read from semibricks off the Hom
table to that closure's.  For example, tests/golden/tors-a3-dot.out is the output of

    heart-simples tors fixtures/a3.quiver --format dot

A change to a kernel must leave every byte and exit code as it is; a golden
file changes only with an intended change of the output.
"""

from pathlib import Path

import pytest

from torsionheart import cli

FIXTURES = Path(__file__).parent.parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "indec-a2": ["indec", "a2.quiver"],
    "heart-a2-gens-1.0": ["heart", "a2.quiver", "--gens", "1.0"],
    "heart-a2-gens-1.0-json-oracle": [
        "heart", "a2.quiver", "--gens", "1.0", "--format", "json", "--oracle"],
    "tors-a3-dot": ["tors", "a3.quiver", "--format", "dot"],
    "indec-a3": ["indec", "a3.quiver"],
    "indec-a3-field-3": ["indec", "a3.quiver", "--field", "3"],
    "indec-d4-json": ["indec", "d4.quiver", "--format", "json"],
    "tors-d4-json": ["tors", "d4.quiver", "--format", "json"],
    "tors-a3": ["tors", "a3.quiver"],
    "indec-loop": ["indec", "loop.quiver"],
    "tors-loop": ["tors", "loop.quiver"],
    "tors-square": ["tors", "square.quiver", "--dim-bound", "1,1,1,1"],
    "heart-a3-gens-2": ["heart", "a3.quiver", "--gens", "2"],
    "verify-a3": ["verify", "a3.quiver"],
    "verify-loop": ["verify", "loop.quiver"],
    "verify-d4": ["verify", "d4.quiver"],
    "indec-a4": ["indec", "a4.quiver"],
    "indec-d5": ["indec", "d5.quiver"],
    "tors-d5": ["tors", "d5.quiver"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    command, fixture, *flags = CASES[name]
    code = cli.main([command, str(FIXTURES / fixture), *flags])
    out, err = capsys.readouterr()
    assert (code, err) == (cli.EXIT_OK, "")
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
