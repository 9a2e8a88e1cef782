"""The standing stdout corpus: argvs of the feqlab CLI, each with the sha256
of its stdout, its exit code and the sha256 of each file it writes, in
tests/stdout_corpus.json.

    PYTHONPATH=src python tests/regen_stdout_corpus.py          # list changes
    PYTHONPATH=src python tests/regen_stdout_corpus.py --write  # re-record

Every argv runs in-process through cli.main. An argv that names a file
holds the placeholder FIXTURES for its directory, so that no key holds a
path; its run writes the fixture files into a fresh temporary directory and
puts that directory in place of FIXTURES. A file the run writes there is
keyed by its name under FIXTURES. Without --write the script prints each
argv whose stdout, exit code or written files differ from the stored corpus;
with --write it records the corpus afresh, with the numpy version and the
OpenBLAS core it ran on (the last bits of a printed float may depend on
them). A change that alters stdout on purpose re-records the corpus and
lists the changed argvs.
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from feqlab import cli
from feqlab.feq import GroupFunction, write_function
from feqlab.groups import CATALOG_NAMES, build_catalog_group
from feqlab.morphisms import enumerate_characters

from morphism_oracle import write_character

CORPUS = Path(__file__).with_name("stdout_corpus.json")
INVOLUTIONS = {"S3": 4, "Q8": 10, "D4": 6}  # of each kind

PERTURB_Z4 = ["perturb", "--group", "Z4", "--sigma", "inv", "--epsilon", "0.01"]
STABILITY_Z2 = ["stability", "--domain", "lattice:2", "--radii", "2",
                "--epsilon", "0.01"]

# the argvs of tests/test_cli.py that are refused with exit code 4 and
# need no file
CONFIG_ERRORS = [
    ["frobnicate"],
    ["catalog", "--group", "E8"],
    ["catalog", "--group", "x"],
    ["catalog", "--group", "ZxZ"],
    ["solve"],
    ["solve", "--group", "Z4", "--sigma", "inv", "--chi", "7"],
    ["perturb", "--group", "Z4", "--sigma", "inv"],
    PERTURB_Z4 + ["--shape", "nope"],
    PERTURB_Z4 + ["--target", "x"],
    PERTURB_Z4 + ["--epsilon", "-1"],
    PERTURB_Z4 + ["--epsilon", "nan"],
    PERTURB_Z4 + ["--seed", "-1"],
    PERTURB_Z4 + ["--shape", "single-point", "--point", "99"],
    PERTURB_Z4 + ["--tol", "1e-9"],
    PERTURB_Z4 + ["--epsilon", "1e200"],
    STABILITY_Z2 + ["--point", "999"],
    STABILITY_Z2 + ["--shape", "single-point", "--point", "-1"],
    STABILITY_Z2 + ["--epsilon", "1e160"],
    STABILITY_Z2 + ["--epsilon", "1e100"],
    STABILITY_Z2 + ["--epsilon", "1e160", "--target", "g"],
    ["solve", "--group", "Z4", "--tol", "nan"],
    ["solve", "--group", "Z4", "--tol", "-1"],
    ["solve", "--group", "Z4", "--tol", "inf"],
    ["audit", "--group", "S3", "--sigma", "inv", "--tol", "nan"],
    ["audit", "--group", "S3", "--sigma", "inv", "--tol", "inf"],
    STABILITY_Z2 + ["--a", "-2"],
    STABILITY_Z2 + ["--a", "13"],
    ["stability", "--domain", "lattice:2", "--radii", "0"],
    ["stability", "--domain", "lattice:2", "--radii", "a,b"],
    ["stability", "--domain", "tree:3", "--epsilon", "0.01"],
    ["perturb", "--domain", "lattice:2", "--radius", "-1", "--epsilon", "1e-2"],
    ["perturb", "--domain", "lattice:0", "--epsilon", "1e-2"],
    ["stability", "--domain", "free:0"],
    ["stability", "--domain", "lattice:x"],
    ["perturb", "--group", "S3", "--sigma", "auto:x", "--epsilon", "1e-2"],
    ["solve", "--group", "S3", "--sigma", "anti:x"],
    ["stability", "--domain", "lattice:2", "--sigma", "conj"],
    ["stability", "--domain", "lattice:1", "--radii", "2", "--chi-z", "0"],
    ["perturb", "--domain", "lattice:1", "--radius", "3", "--chi-z", "inf",
     "--epsilon", "1e-2"],
    ["perturb", "--domain", "lattice:1", "--radius", "3", "--chi-z", "1e300",
     "--epsilon", "1e-2"],
    ["perturb", "--domain", "lattice:1", "--radius", "3", "--chi", "2",
     "--epsilon", "0.01"],
    ["perturb", "--group", "Z4", "--epsilon", "0.01", "--radius", "3",
     "--chi-z", "2"],
    ["perturb", "--group", "Z4", "--domain", "S3", "--epsilon", "0.01"],
    ["stability", "--domain", "lattice:2", "--radii", "300"],
    # the window budget, unpatched: centrality's pair masks estimate
    # 589,555,241 windows on Z^2 r=24 under the identity
    ["stability", "--domain", "lattice:2", "--radii", "24", "--sigma", "id"],
    ["perturb", "--domain", "free:2", "--radius", "40", "--epsilon", "0.01"],
]


FIXTURES = "$FIXTURES"

# argvs that read or write a file under FIXTURES (write_fixtures)
FILE_ARGVS = [
    ["solve", "--config", f"{FIXTURES}/solve.cfg"],
    ["solve", "--config", f"{FIXTURES}/latin1.cfg"],
    ["solve", "--group", "Z4", "--sigma", "inv", "--chi-file",
     f"{FIXTURES}/chi.txt"],
    ["audit", "--group", "Z4", "--sigma", "inv", "--f", f"{FIXTURES}/f.txt",
     "--g", f"{FIXTURES}/g.txt"],
    ["solve", "--group", "S3", "--sigma", "id", "--out-dir",
     f"{FIXTURES}/out"],
    STABILITY_Z2 + ["--csv-out", f"{FIXTURES}/growth.csv"],
    # the directory of the CSV does not exist: exit code 4
    STABILITY_Z2 + ["--csv-out", f"{FIXTURES}/missing/growth.csv"],
    # two flags name the character: exit code 4
    ["solve", "--group", "Z4", "--sigma", "inv", "--chi-file",
     f"{FIXTURES}/chi.txt", "--chi", "3"],
    # the same files behind a UTF-8 byte-order mark
    ["solve", "--config", f"{FIXTURES}/bom-solve.cfg"],
    ["solve", "--group", "Z4", "--sigma", "inv", "--chi-file",
     f"{FIXTURES}/bom-chi.txt"],
    ["audit", "--group", "Z4", "--sigma", "inv", "--f",
     f"{FIXTURES}/bom-f.txt", "--g", f"{FIXTURES}/bom-g.txt"],
    # the two other flags that write a file
    ["audit", "--group", "S3", "--sigma", "inv", "--out",
     f"{FIXTURES}/audit.txt"],
    PERTURB_Z4 + ["--out-prefix", f"{FIXTURES}/run"],
]


def write_fixtures(directory):
    """The files FILE_ARGVS read: a config file, one that is not UTF-8, the
    character i^x of Z4 and the exact Z4 pair f = i^x, g = cos(pi x / 2)
    under inversion, and a copy of each but the second behind a UTF-8
    byte-order mark."""
    d = Path(directory)
    (d / "solve.cfg").write_text("group = Z4\nsigma = inv\nchi = 1\n",
                                 encoding="utf-8")
    (d / "latin1.cfg").write_bytes(b"group = Z4 # \xff\n")
    Z4 = build_catalog_group("Z4")
    m = enumerate_characters(Z4)[1]
    write_character(m, d / "chi.txt")
    write_function(GroupFunction(Z4, m.values), d / "f.txt")
    write_function(GroupFunction(Z4, m.values.real), d / "g.txt")
    for name in ("solve.cfg", "chi.txt", "f.txt", "g.txt"):
        (d / f"bom-{name}").write_bytes(b"\xef\xbb\xbf"
                                        + (d / name).read_bytes())


def argvs():
    """Every argv of the corpus, in a fixed order."""
    out = [["catalog"]]
    out += [["catalog", "--group", name, "--morphisms", "--characters"]
            for name in [*CATALOG_NAMES, "Z2xZ128"]]
    for name in CATALOG_NAMES:
        specs = ["id", "inv"] + [f"{kind}:{k}" for kind in ("auto", "anti")
                                 for k in range(INVOLUTIONS.get(name, 0))]
        out += [[sub, "--group", name, "--sigma", spec]
                for sub in ("solve", "audit") for spec in specs]
    # exit code 2: rounding leaves some check above a zero tolerance
    out += [["solve", "--group", "Z4", "--sigma", "inv", "--tol", "0"],
            ["audit", "--group", "S3", "--sigma", "inv", "--tol", "0"]]
    # each domain at radius 1, where sigma = id and inv satisfy both laws,
    # and past it, where one of the two N/A rows appears off lattices;
    # lattice:2 r=12 and heisenberg r=4 have audit chunks in which most
    # candidate windows leave the ball
    for domain, radii in (("lattice:1", ("1", "1,2")),
                          ("lattice:2", ("1", "1,2", "2,4,6,8", "12")),
                          ("heisenberg", ("1", "1,2", "1,2,3", "1,2,3,4")),
                          ("free:2", ("1", "1,2", "1,2,3"))):
        out += [["stability", "--domain", domain, "--radii", r, "--sigma", s]
                for r in radii for s in ("id", "inv")]
    # nodes that are one element under inversion, the identity or
    # commuting letters; a nonzero --a puts the section letter in nodes
    for domain, extra in (("lattice:3", ["--radii", "1,2"]),
                          ("lattice:1", ["--radii", "4,8,16"]),
                          ("lattice:2", ["--radii", "4,8", "--a", "7"]),
                          ("heisenberg", ["--radii", "1,2,3", "--a", "5"]),
                          ("free:2", ["--radii", "1,2,3", "--a", "3"])):
        out += [["stability", "--domain", domain, *extra, "--sigma", s]
                for s in ("id", "inv")]
    out += [["stability", "--domain", "lattice:1"],
            ["stability", "--domain", "lattice:2", "--radii", "2,4",
             "--shape", "character-phase", "--target", "f"],
            PERTURB_Z4,
            ["perturb", "--group", "S3", "--sigma", "inv", "--epsilon",
             "0.01", "--shape", "single-point", "--point", "2"],
            ["perturb", "--domain", "lattice:2", "--radius", "6",
             "--epsilon", "0.01"],
            ["perturb", "--domain", "heisenberg", "--radius", "2",
             "--epsilon", "0.01", "--sigma", "id"]]
    # the noise is drawn per element id, so these pin the BFS order of
    # rows keyed in one word of 2-byte digits (300 levels), and in two
    # words (9-entry lattice rows, 10-letter words)
    out += [["perturb", "--domain", domain, "--radius", r, "--epsilon", "0.01"]
            for domain, r in (("lattice:9", "2"), ("free:2", "6"),
                              ("lattice:1", "200"))]
    # most right-multiplication entries of these balls' tables come from
    # the top level of their auxiliary ball; lattice:1447 r=1 has the
    # widest auxiliary table under the element cap
    out += [["perturb", "--domain", domain, "--radius", r, "--epsilon", "0.01"]
            for domain, r in (("lattice:37", "2"), ("free:26", "2"),
                              ("lattice:1447", "1"))]
    # the narrowest kinds refused at radius 1: their 2896 generators and
    # the identity are over the element cap
    out += [["perturb", "--domain", "lattice:1448", "--radius", "1",
             "--epsilon", "1e-2"],
            ["stability", "--domain", "free:1448", "--radii", "1"]]
    return out + CONFIG_ERRORS + FILE_ARGVS


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def contents(directory):
    """The bytes of every file under directory, by its name there."""
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(Path(directory).rglob("*")) if p.is_file()}


def run(argv):
    """The sha256 of the stdout, the exit code and, when the run writes
    files under FIXTURES, the sha256 of each of them, of one in-process
    run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()), \
            tempfile.TemporaryDirectory() as d:
        if any(FIXTURES in arg for arg in argv):
            write_fixtures(d)
        fixtures = contents(d)
        try:
            code = cli.main([arg.replace(FIXTURES, d) for arg in argv])
        except SystemExit as exc:
            code = exc.code
        written = {name: sha256(data) for name, data in contents(d).items()
                   if fixtures.get(name) != data}
    result = {"stdout_sha256": sha256(out.getvalue().encode("utf-8")),
              "exit": code}
    if written:
        result["files"] = written
    return result


def blas_core():
    """The OpenBLAS core of numpy's own copy, or "unknown"."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(
        np.__file__)), "numpy.libs", "libscipy_openblas*"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def environment():
    return {"numpy": np.__version__, "openblas_core": blas_core()}


def key(argv):
    return " ".join(argv)


def changed(stored):
    """The argvs whose run differs from the stored one (argv key -> run),
    then the stored argvs the corpus no longer lists."""
    now = {key(argv): run(argv) for argv in argvs()}
    return ([k for k in now if stored.get(k) != now[k]]
            + [k for k in stored if k not in now])


def main(write):
    if write:
        runs = {key(argv): run(argv) for argv in argvs()}
        CORPUS.write_text(json.dumps(
            {"recorded_with": environment(), "runs": runs}, indent=1) + "\n")
        print(f"recorded {len(runs)} argvs")
        return 0
    stored = json.loads(CORPUS.read_text())
    if stored["recorded_with"] != environment():
        print(f"corpus recorded with {stored['recorded_with']}, "
              f"running on {environment()}")
    keys = changed(stored["runs"])
    for k in keys:
        print(k)
    print(f"{len(keys)} of {len(argvs())} argvs changed")
    return 1 if keys else 0


if __name__ == "__main__":
    sys.exit(main("--write" in sys.argv[1:]))
