"""Run a fixed grid of CLI commands and print a digest line per command.

Usage: PYTHONPATH=src python tests/cli_grid.py DIR

Writes small synthetic inputs into DIR (missing or empty), then runs each
argv of GRID through `venncal.cli.main` with DIR as the working directory,
so every path in an argv, a message or a manifest is relative.  Each printed
line holds the exit code, the argv, and the sha256 of stdout, of stderr and
of every file the command wrote or changed.  Two checkouts that behave alike
print identical lines, so comparing the output of two trees checks that a
change keeps every CLI file, message and exit code.  The exit status is 1
when some command exits with another code than GRID declares.

The lines are preceded by a `# field: value` header naming what the bytes
depend on besides the code: numpy's version, the SIMD targets numpy found
(its float64 exp and log round differently on AVX-512), the machine and the
C library.  `tests/cli_grid.expected` holds this output for the committed
code; Tier-1 compares it line by line when the header matches the host.  A
change that alters an output on purpose regenerates it in the same commit:

    PYTHONPATH=src python tests/cli_grid.py "$(mktemp -d)" > tests/cli_grid.expected

The inputs come from Python's `random` module, not from the package, so a
change to the program cannot change what the grid feeds it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import random
import sys
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from venncal.cli import main

FEATURES = "--train train.csv --test test.csv"
SCORES = "--calib-scores calib.csv --scores-in scores.csv"
FOLD_SCORES = "--calib-scores calib0.csv calib1.csv calib2.csv --scores-in s0.csv s1.csv s2.csv"
MIXED = "--train mixed-train.csv --test mixed-test.csv"
QUOTED = "--train quoted-train.csv --test quoted-test.csv"

# (argv, the exit code it must give): every method on both routes, every
# modelling flag, and the usual error cases (exit 2 usage, 3 data or file, 4 degenerate)
GRID = [
    ("synth --n 50 --seed 3 --out synth.csv", 0),
    # feature route
    (f"calibrate --method underlying {FEATURES} --ratio 2:1 --out f-underlying.csv", 0),
    (f"calibrate --method underlying {FEATURES} --ratio 2:1 --ridge 0.01 --out f-ridge.csv", 0),
    (f"calibrate --method platt {FEATURES} --ratio 2:1 --out f-platt.csv", 0),
    (f"calibrate --method platt {FEATURES} --ratio 2:1 --sigmoid-scores --out f-platt-sig.csv",
     0),
    (f"calibrate --method isotonic {FEATURES} --ratio 1:1 --out f-iso.csv", 0),
    (f"calibrate --method isotonic {FEATURES} --ratio 1:1 --dummy-endpoints --out f-iso-dummy.csv",
     0),
    (f"calibrate --method ivap {FEATURES} --ratio 2:1 --intervals --out f-ivap.csv", 0),
    (f"calibrate --method ivap {FEATURES} --ratio 2:1 --merge brier --randomize-split --seed 5 "
     "--out f-ivap-brier.csv", 0),
    (f"calibrate --method ivap {FEATURES} --ratio 2:1 --tune --out f-ivap-tune.csv", 0),
    (f"calibrate --method ivap {FEATURES} --all-mode --scorer stump --out f-ivap-stump.csv", 0),
    (f"calibrate --method ivap {FEATURES} --ratio 2:1 --positive-label 0 --out f-ivap-pos0.csv",
     0),
    ("calibrate --method platt --train train-bare.csv --test test-bare.csv --no-header "
     "--label-column col1 --ratio 2:1 --out f-platt-bare.csv", 0),
    (f"calibrate --method cvap {FEATURES} --folds 3 --intervals --out f-cvap.csv", 0),
    (f"calibrate --method cvap {FEATURES} --folds 3 --merge brier --randomize-folds --seed 7 "
     "--intervals --out f-cvap-brier.csv", 0),
    (f"calibrate --method cvap {FEATURES} --folds 3 --scorer constant --out f-cvap-const.csv", 0),
    (f"calibrate --method cvap {FEATURES} --folds 3 --scorer stump --out f-cvap-stump.csv", 0),
    (f"calibrate --method cvap {FEATURES} --folds 3 --tune --out f-cvap-tune.csv", 0),
    # nominal columns and "" or "?" cells, imputed from the training file; yes/no labels
    (f"calibrate --method underlying {MIXED} --ratio 2:1 --out m-underlying.csv", 0),
    (f"calibrate --method platt {MIXED} --ratio 2:1 --out m-platt.csv", 0),
    (f"calibrate --method isotonic {MIXED} --ratio 2:1 --out m-iso.csv", 0),
    (f"calibrate --method ivap {MIXED} --ratio 2:1 --intervals --out m-ivap.csv", 0),
    (f"calibrate --method ivap {MIXED} --ratio 2:1 --scorer stump --out m-ivap-stump.csv", 0),
    (f"calibrate --method cvap {MIXED} --folds 3 --intervals --out m-cvap.csv", 0),
    (f"calibrate --method ivap {MIXED} --ratio 2:1 --positive-label no --out m-ivap-no.csv", 0),
    (f"compare {MIXED} --ratio 2:1 --folds 3 --out c-mixed.csv", 0),
    # quoted fields and CRLF line ends: csv.reader reads these files
    (f"calibrate --method platt {QUOTED} --ratio 2:1 --out q-platt.csv", 0),
    (f"calibrate --method ivap {QUOTED} --ratio 2:1 --intervals --out q-ivap.csv", 0),
    (f"calibrate --method cvap {QUOTED} --folds 3 --out q-cvap.csv", 0),
    (f"compare {QUOTED} --ratio 2:1 --folds 3 --out c-quoted.csv", 0),
    ("calibrate --method ivap --calib-scores calib-quoted.csv --scores-in scores-crlf.csv "
     "--intervals --out s-ivap-quoted.csv", 0),
    # score-file route
    ("calibrate --method underlying --scores-in probs.csv --out s-underlying.csv", 0),
    (f"calibrate --method platt {SCORES} --out s-platt.csv", 0),
    (f"calibrate --method isotonic {SCORES} --out s-iso.csv", 0),
    (f"calibrate --method isotonic {SCORES} --dummy-endpoints --out s-iso-dummy.csv", 0),
    (f"calibrate --method ivap {SCORES} --intervals --out s-ivap.csv", 0),
    (f"calibrate --method ivap {SCORES} --merge brier --out s-ivap-brier.csv", 0),
    (f"calibrate --method cvap {FOLD_SCORES} --intervals --out s-cvap.csv", 0),
    (f"calibrate --method cvap {FOLD_SCORES} --merge brier --intervals --out s-cvap-brier.csv", 0),
    # evaluate and compare
    ("evaluate --pred f-ivap.csv --truth test.csv --out e-ivap.json", 0),
    ("evaluate --pred f-ivap.csv --truth test.csv --pred-column p1", 0),
    ("evaluate --pred pred2.csv --truth yes.csv --positive-label yes", 0),
    ("evaluate --pred m-ivap.csv --truth mixed-test.csv --positive-label yes", 0),
    ("evaluate --pred m-ivap-no.csv --truth mixed-test.csv --positive-label no "
     "--out e-mixed-no.json", 0),
    ("evaluate --pred q-ivap.csv --truth quoted-test.csv --pred-column p0", 0),
    (f"compare {FEATURES} --ratio 2:1 --out c-log.csv", 0),
    (f"compare {FEATURES} --ratio 2:1 --merge brier --dummy-endpoints --out c-brier.csv", 0),
    (f"compare {FEATURES} --all-mode --folds 3 --tune --out c-all.csv", 0),
    # errors
    ("calibrate --method ivap --train missing.csv --test test.csv --ratio 2:1 --out x.csv", 3),
    (f"calibrate --method ivap {FEATURES} --ratio 2 --out x.csv", 2),
    (f"calibrate --method ivap {FEATURES} --ratio a:b --out x.csv", 2),
    (f"calibrate --method ivap {FEATURES} --ratio 0:1 --out x.csv", 2),
    (f"compare {FEATURES} --out x.csv", 2),
    (f"compare {FEATURES} --all-mode --out x.csv", 0),
    ("calibrate --method ivap --calib-scores calib.csv --scores-in nan.csv --out x.csv", 3),
    ("calibrate --method ivap --calib-scores calib.csv --scores-in inf.csv --out x.csv", 3),
    ("calibrate --method cvap --calib-scores calib0.csv calib1.csv calib-neginf.csv "
     "--scores-in s0.csv s1.csv s2.csv --out x.csv", 3),
    (f"calibrate --method ivap {FEATURES} --ratio 2:1 --scorer stump --tune --out x.csv", 2),
    (f"calibrate --method ivap {SCORES} --tune --out x.csv", 2),
    (f"calibrate --method ivap {SCORES} --sigmoid-scores --out x.csv", 2),
    (f"compare {FEATURES} --ratio 2:1 --scorer constant --sigmoid-scores --out x.csv", 2),
    ("evaluate --pred pred2.csv --truth yes.csv", 3),
    (f"calibrate --method ivap {MIXED.replace('mixed-test', 'mixed-unseen')} --ratio 2:1 "
     "--out x.csv", 3),
    ("calibrate --method ivap --train ones.csv --test ones.csv --ratio 1:1 --out x.csv", 4),
    # a negative seed is a usage error, used or not
    ("synth --n 50 --seed -1 --out synth-neg.csv", 2),
    (f"calibrate --method ivap {FEATURES} --ratio 2:1 --seed -1 --out x.csv", 2),
    # Platt's fit on uninformative scores has slope 0: one constant for every score
    ("calibrate --method platt --calib-scores calib-zero.csv --scores-in scores-inf.csv "
     "--out s-platt-flat.csv", 0),
    # a flag that no run of the command reads is a usage error, one kind of run and flag each
    (f"calibrate --method underlying {FEATURES} --ratio 2:1 --sigmoid-scores --out x.csv", 2),
    (f"calibrate --method cvap {FEATURES} --folds 3 --sigmoid-scores --out x.csv", 2),
    (f"calibrate --method platt {FEATURES} --ratio 2:1 --merge brier --out x.csv", 2),
    (f"calibrate --method platt {FEATURES} --ratio 2:1 --dummy-endpoints --out x.csv", 2),
    (f"calibrate --method platt {FEATURES} --ratio 2:1 --folds 3 --out x.csv", 2),
    (f"calibrate --method platt {FEATURES} --ratio 2:1 --randomize-folds --out x.csv", 2),
    (f"calibrate --method ivap {FEATURES} --ratio 2:1 --tune --randomize-folds --out x.csv", 2),
    (f"calibrate --method cvap {FEATURES} --folds 3 --all-mode --out x.csv", 2),
    (f"calibrate --method cvap {FEATURES} --folds 3 --randomize-split --out x.csv", 2),
    (f"calibrate --method cvap {FEATURES} --folds 3 --ratio 2:1 --out x.csv", 2),
    (f"calibrate --method ivap {FEATURES} --all-mode --ratio 2:1 --out x.csv", 2),
    (f"calibrate --method ivap {FEATURES} --all-mode --randomize-split --out x.csv", 2),
    (f"calibrate --method ivap {FEATURES} --ratio 2:1 --scorer stump --ridge 0.01 --out x.csv", 2),
    (f"calibrate --method ivap {FEATURES} --ratio 2:1 --tune --ridge 0.01 --out x.csv", 2),
    ("calibrate --method underlying --scores-in probs.csv --calib-scores calib.csv --out x.csv", 2),
    (f"calibrate --method platt {SCORES} --folds 3 --ratio 2:1 --label-column zzz --out x.csv", 2),
    (f"calibrate --method ivap {SCORES} --scorer stump --out x.csv", 2),
    (f"calibrate --method ivap {SCORES} --ridge 0.01 --out x.csv", 2),
    (f"calibrate --method ivap {SCORES} --no-header --positive-label yes --out x.csv", 2),
    (f"calibrate --method ivap {SCORES} --all-mode --randomize-split --out x.csv", 2),
    (f"calibrate --method cvap {FOLD_SCORES} --randomize-folds --out x.csv", 2),
    (f"calibrate --method ivap {SCORES} --dummy-endpoints --out x.csv", 2),
    (f"calibrate --method isotonic {SCORES} --merge brier --out x.csv", 2),
    (f"compare {FEATURES} --all-mode --folds 3 --ratio 5:1 --out x.csv", 2),
    (f"compare {FEATURES} --all-mode --folds 3 --randomize-split --out x.csv", 2),
    (f"compare {FEATURES} --ratio 2:1 --scorer stump --ridge 0.01 --out x.csv", 2),
    (f"compare {FEATURES} --ratio 2:1 --tune --ridge 0.01 --out x.csv", 2),
    # a ridge that is not positive and finite, before any file is read
    (f"calibrate --method ivap {FEATURES} --ratio 2:1 --ridge nan --out x.csv", 2),
    (f"calibrate --method ivap {FEATURES} --ratio 2:1 --ridge 0 --out x.csv", 2),
    # each refusal of cli.py that no line above reaches
    ("synth --n 0 --out x.csv", 2),
    ("calibrate --method cvap --calib-scores calib0.csv --scores-in s0.csv --out x.csv", 2),
    ("calibrate --method cvap --calib-scores calib0.csv calib1.csv --scores-in s0.csv "
     "--out x.csv", 2),
    (f"calibrate --method cvap {FOLD_SCORES} --folds 2 --out x.csv", 2),
    ("calibrate --method cvap --calib-scores calib0.csv calib1.csv --scores-in s0.csv probs.csv "
     "--out x.csv", 3),
    ("calibrate --method ivap --calib-scores calib.csv --scores-in s0.csv s1.csv --out x.csv", 2),
    ("calibrate --method platt --scores-in scores.csv --out x.csv", 2),
    ("calibrate --method underlying --scores-in scores.csv --out x.csv", 3),
    ("calibrate --method ivap --test test.csv --ratio 2:1 --out x.csv", 2),
    ("evaluate --pred pred2.csv --truth test.csv", 3),
    # usage errors raised before a missing input file is opened
    ("compare --ratio 2:1 --test missing.csv --out x.csv", 2),
    ("calibrate --method platt --scores-in missing.csv --out x.csv", 2),
    ("calibrate --method platt --tune --train missing.csv --test missing.csv --out x.csv", 2),
]


def platform_fields() -> dict[str, str]:
    """The header's fields: what the grid's bytes depend on besides the code."""
    return {"numpy": np.__version__,
            "simd": " ".join(f for f in __cpu_dispatch__ if __cpu_features__[f]),
            "machine": platform.machine(),
            "libc": " ".join(platform.libc_ver())}


def write_inputs(root: Path) -> None:
    """The grid's input files, from seeded `random` draws."""
    rng = random.Random(20150101)

    def rows(n):
        labels = [rng.randrange(2) for _ in range(n)]
        return [(y + rng.gauss(0.0, 1.0), y) for y in labels]

    files = {}
    for name, n in (("train", 240), ("test", 60)):
        body = "".join(f"{x!r},{y}\n" for x, y in rows(n))
        files[f"{name}.csv"] = "x,label\n" + body
        files[f"{name}-bare.csv"] = body
    for name in ("calib", "calib0", "calib1", "calib2"):
        # integer-rounded scores tie, so dedup has work
        files[f"{name}.csv"] = "score,label\n" + "".join(
            f"{round(x * 4) / 4!r},{y}\n" for x, y in rows(80))
    for name in ("scores", "s0", "s1", "s2"):
        files[f"{name}.csv"] = "score\n" + "".join(f"{rng.gauss(0.5, 1.0)!r}\n" for _ in range(50))
    files["probs.csv"] = "score\n" + "".join(f"{rng.random()!r}\n" for _ in range(20))
    files["nan.csv"] = "score\n0.5\nnan\n1.5\n"
    files["inf.csv"] = "score\n0.5\ninf\n"
    files["calib-neginf.csv"] = "score,label\n0.0,0\n-inf,1\n1.0,1\n"
    files["yes.csv"] = "x,label\n1.0,yes\n2.0,yes\n"
    files["ones.csv"] = "x,label\n1.0,1\n2.0,1\n"
    files["pred2.csv"] = "p\n0.25\n0.75\n"
    files["calib-zero.csv"] = "score,label\n0.0,0\n0.0,0\n0.0,0\n0.0,1\n"
    files["scores-inf.csv"] = "score\n0.0\n5.0\ninf\n-inf\n"

    def mixed(n):
        # a nominal column, missing cells of both kinds (some padded, as the
        # loader strips cells), an all-missing column and yes/no labels
        lines = []
        for x, y in rows(n):
            color = rng.choice(("red", "red", "blue", "green") if y else ("green", "blue"))
            cells = [repr(x), color, rng.choice(("?", ""))]
            for j in (0, 1):
                if rng.random() < 0.1:
                    cells[j] = rng.choice(("", "?", " ? "))
            lines.append(",".join([*cells, ("no", "yes")[y]]) + "\n")
        return "x,color,blank,label\n" + "".join(lines)

    def quoted(n):
        colors = ('"red, dark"', "blue", '"green ""lime"""')
        return '"x","color",label\r\n' + "".join(
            f'"{x!r}",{colors[rng.randrange(2) + y]},{y}\r\n' for x, y in rows(n))

    files["mixed-train.csv"] = mixed(240)
    files["mixed-test.csv"] = mixed(60)
    files["mixed-unseen.csv"] = "x,color,blank,label\n0.5,purple,?,yes\n-0.5,red,,no\n"
    files["quoted-train.csv"] = quoted(240)
    files["quoted-test.csv"] = quoted(60)
    files["calib-quoted.csv"] = '"score","label"\n' + "".join(
        f'"{round(x * 4) / 4!r}",{y}\n' for x, y in rows(80))
    files["scores-crlf.csv"] = "score\r\n" + "".join(
        f"{rng.gauss(0.5, 1.0)!r}\r\n" for _ in range(50))
    for name, text in files.items():
        (root / name).write_bytes(text.encode())


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(root: Path) -> dict:
    """name: (modification time, sha256) of each file, so a rewrite shows as written."""
    return {p.name: (p.stat().st_mtime_ns, _sha(p.read_bytes()))
            for p in sorted(root.iterdir()) if p.is_file()}


def run_command(argv: str) -> tuple[int, str]:
    """Run one argv in the working directory: (exit code, digest line)."""
    before = _files(Path("."))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    written = {name: stamp[1] for name, stamp in _files(Path(".")).items()
               if before.get(name) != stamp}
    return code, " ".join([str(code), argv, f"stdout={_sha(out.getvalue().encode())}",
                           f"stderr={_sha(err.getvalue().encode())}",
                           *(f"{name}={sha}" for name, sha in written.items())])


def run_grid(root) -> list[tuple[str, int, str]]:
    """Run GRID in `root`, a missing or empty directory: per command, (argv,
    exit code, digest line)."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    if any(root.iterdir()):
        raise ValueError(f"{root} is not empty")
    write_inputs(root)
    here = os.getcwd()
    os.chdir(root)
    try:
        return [(argv, *run_command(argv)) for argv, _ in GRID]
    finally:
        os.chdir(here)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    for field, value in platform_fields().items():
        print(f"# {field}: {value}")
    failed = False
    for (argv, code, line), (_, want) in zip(run_grid(sys.argv[1]), GRID):
        print(line)
        if code != want:
            print(f"unexpected exit code {code} (declared {want}): {argv}", file=sys.stderr)
            failed = True
    sys.exit(1 if failed else 0)
