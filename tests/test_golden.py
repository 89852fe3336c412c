"""Golden digests of CLI outputs.

The byte-stability tests elsewhere compare two runs of the same code, so
a refactor could change every report consistently and still pass them.
These pipelines compare against sha256 digests recorded once, so any
change to a report, certificate, SVG, HD or MSD byte shows up here.  The
runs use relative file names in a temporary working directory, which
keeps the ``input:`` lines free of temporary paths.
"""

import hashlib
import shlex

from multisect.cli import main

PRESENTATION = "gens 2\ng1 g2 g1^-1 g2^-1\ng1 g1 g1 g1 g1\ng2 g2 g2 g2 g2\n"

# (argv, expected exit code); every file written is digested below
PIPELINE = (
    ("construct lens --p 5 --q 2 -o l52.hd", 0),
    ("construct bisect -i l52.hd -o b.msd", 0),
    ("construct double -i b.msd -o d.msd", 0),
    ("construct insert -i d.msd --count 2 -o i.msd", 0),
    ("validate -i i.msd -o i.validate", 0),
    ("pi1 -i i.msd -o i.pi1", 0),
    ("homology -i i.msd -o i.homology", 0),
    ("render -i i.msd --svg i.svg", 0),
    ("construct glue -i l52.hd --copies 3 --cap auto -o g.msd", 0),
    ("construct merge -i g.msd --interface 3 -o m.msd", 0),
    ("validate -i m.msd -o m.validate", 0),
    ("pi1 -i m.msd -o m.pi1", 0),
    ("homology -i m.msd -o m.homology", 0),
    ("distinguish --flip --diagram b.msd -o flip.cert", 0),
    ("distinguish --presentation p.txt --tuple1 'g1, g2' --tuple2 'g1, g2 g2' "
     "-o distinct.cert", 0),
    ("distinguish --presentation p.txt --tuple1 'g1, g2' "
     "--tuple2 'g1, g2 g2 g2 g2' -o inconclusive.cert", 20),
    ("distinguish --presentation p.txt --tuple1 'g1, g2' "
     "--tuple2 'g1, g1 g2 g1^-1' -o same.cert", 10),
)

DIGESTS = {
    "l52.hd": "33fd1086357a04fa87adf17edf2a6fca6b132f08a3ce78acb628ec103c6da422",
    "b.msd": "bb90ab9fb1b732dca2e4489163c58021b7c8e0859d6315f52b8247cc2a75934c",
    "d.msd": "c713bc24fcc5e84122b16f9c4c2e41e71325269e9c0a9327f1dcc1ef42bcdc86",
    "i.msd": "2478a278307cbe5dba87fabadd8fe8271dbcf55c354cffa684c60bf574ea7f2a",
    "i.validate": "a77d065b23e1d426260da9fed4c626078d156ec376c48dc780fe23f850fd6e32",
    "i.pi1": "e06950f631d72c7bd1ef2ed1d63da51ef93b49f1826b8d59c378a6b78aa169d8",
    "i.homology": "ecfd2028c5d11bb60599ba484aa05c79a27b8e1aced7a2bba0dc526ffc951420",
    "i.svg": "3eb1ddb9fbdce169b5b8b8936df33aa040f6f8bf5363f08fb66f903ca94106db",
    "g.msd": "32ade3c39d12b6512919cd7a11d6cd80e8cb6af48adc29246e45df23e6dbc2be",
    "m.msd": "e2e1a49756d2db6b2b5e7e451dbca8db08127f494a7811a04afad4b0d7eba709",
    "m.validate": "4412e6af6141ad6945a7cd1a0a39ee5a66993551a2dd6830499895880821b705",
    "m.pi1": "845f087deec46a769c7fa75f9ea3fa37d60531c2111258e6f9174d255b7637aa",
    "m.homology": "25af42d0f609f092dbf0ed51eb1613742d0ff698cc2245e263ef7e1ad5ddd1c6",
    "flip.cert": "d8ce47f1d79753665b6bdf28649369b940e185dcd8edfa4ac52947055d3d21dc",
    "distinct.cert": "2cecfa576834153a929f886d7f356f938927daa45e63ffc1d8303323c65b6047",
    "inconclusive.cert": "a84563b8548fd66d68772326b20bd87270e12568136d532bec00e8a2c4751194",
    "same.cert": "264a78766d925d969845af14ae64c33dc66d9232936c4b809a85819badb7ff5c",
}


# lens(5,2) with its standardizer's inverse block left out: parsing this
# file and the bisection built from it takes the determinant branch of
# the automorphism check, which tracked inverses otherwise bypass
NO_INVERSE_HD = ("HD 1\ngenus 1\nname lens(5,2)\nparams 5 2\nsystem beta\n"
                 "curve g2 g2 g2 g1 g2 g2 g1\nstandardizer\n"
                 "image g1 g1 g2^-1 g1 g1 g2^-1 g1\nimage g2 g1^-1 g1^-1\n")

NO_INVERSE_PIPELINE = (
    ("construct bisect -i n.hd -o nb.msd", 0),
    ("validate -i nb.msd -o nb.validate", 0),
    ("homology -i nb.msd -o nb.homology", 0),
)

NO_INVERSE_DIGESTS = {
    "nb.msd": "d16cfe228a43efd8021321ea2e262b2329f81a04c6aad12635e1dbebf29b065a",
    "nb.validate": "3a12327815bced4d4ec09ce1dfaa86b60d86a80a632694068bd4bc55181e3b78",
    "nb.homology": "e4bdd8c5c92eb03eefa50d62c4ed2cc8a7f37a78372f4c77ee9f4e8d6ad46bdf",
}


def _run_pipeline(tmp_path, monkeypatch, inputs, pipeline, expected):
    monkeypatch.chdir(tmp_path)
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    for command, code in pipeline:
        assert main(shlex.split(command)) == code, command
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in expected}
    assert digests == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*expected, *inputs])


def test_pipeline_outputs_match_recorded_digests(tmp_path, monkeypatch):
    _run_pipeline(tmp_path, monkeypatch, {"p.txt": PRESENTATION}, PIPELINE, DIGESTS)
    # every same_orbit certificate's moves replay under the strict move parser
    certs = [(tmp_path / name).read_text() for name in DIGESTS if name.endswith(".cert")]
    same = [text for text in certs if "\nverdict: same_orbit\n" in text]
    assert same and all("\nreplay-verified: true\n" in text for text in same)


def test_standardizer_without_inverse_matches_recorded_digests(tmp_path, monkeypatch):
    _run_pipeline(tmp_path, monkeypatch, {"n.hd": NO_INVERSE_HD},
                  NO_INVERSE_PIPELINE, NO_INVERSE_DIGESTS)


def test_distinguish_digests_ignore_the_environment(tmp_path, monkeypatch):
    # the command line alone decides a certificate, not the environment
    monkeypatch.setenv("MULTISECT_BOUND", "1")
    pipeline = [(command, code) for command, code in PIPELINE
                if command.startswith(("construct lens", "construct bisect",
                                       "distinguish"))]
    names = ("l52.hd", "b.msd", "flip.cert", "distinct.cert",
             "inconclusive.cert", "same.cert")
    _run_pipeline(tmp_path, monkeypatch, {"p.txt": PRESENTATION}, pipeline,
                  {name: DIGESTS[name] for name in names})
