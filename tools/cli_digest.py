"""Byte-identity corpus for the leanreg CLI.

    python tools/cli_digest.py [--blas-threads N] > digest.txt

Writes fixed-seed CSVs to a temporary directory, runs a fixed list of
``--help``, ``fit``, ``test``, ``bootstrap``, ``simulate`` and ``check``
commands as ``python -m leanreg`` against this checkout's ``src/`` with BLAS
pinned to N threads (``OPENBLAS_NUM_THREADS``, 1 by default) and the help
wrapped at 80 columns, and prints one line per command:

    <exit code> <sha256 of stdout> <command>

and appends `` !warning`` to the line of a command whose stderr holds a
Python warning.

Commands run inside the temporary directory and name the CSVs by relative
path, so the echoed configs, and so the digests, do not depend on where the
directory is. A command that ends in ``< name`` gets that CSV's bytes on
stdin, through a pipe. Compare the output of two checkouts with ``diff``: a
changed line is a command whose exit code or stdout bytes changed; so is the
diff of one checkout's output at two thread counts, which the determinism
contract asks to be empty. Uses only the standard library and numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

DGPS = (
    "linear_homoscedastic",
    "quadratic_mean_iid",
    "heteroscedastic_iid",
    "fixed_x_heteroscedastic",
    "fixed_x_nonidentical_mean",
)


def write_csvs(directory: pathlib.Path) -> None:
    """Six seeded CSVs plus twenty-four tiny, late, wide or huge edge cases: 30 files in all."""
    # small, wide and tall grow in size; resid is one where RSS / (n - p) and a
    # value decoded from the classical meat matrix differ in the last bit; spans
    # (about 10 MB) is over two of read_csv's 4 MiB span minimums, so a machine
    # with two or more usable cores parses it in line-aligned spans; p40 has 40
    # covariates, so the matmuls with sigma_hat^-1 and R_s^-T have inner dimension 40
    shapes = {
        "small": (300, 2, 1), "wide": (1000, 4, 2), "tall": (20000, 10, 3), "resid": (300, 2, 11),
        "spans": (50000, 10, 4), "p40": (1000, 40, 5),
    }
    for name, (n, p, seed) in shapes.items():
        rng = np.random.default_rng(seed)
        x = rng.random((n, p))
        noise = (0.2 + x[:, 0]) * rng.standard_normal(n)
        y = 1.0 + x @ np.linspace(1.0, -1.0, p) + x[:, 0] ** 2 + noise
        header = ",".join([f"x{j}" for j in range(p)] + ["y"])
        np.savetxt(
            directory / f"{name}.csv", np.column_stack([x, y]),
            delimiter=",", header=header, comments="", fmt="%.17g",
        )
    # the spans rows under a quoted header, as R's write.csv writes one
    rows = (directory / "spans.csv").read_bytes().split(b"\n", 1)[1]
    header = ",".join(f'"x{j}"' for j in range(shapes["spans"][1])) + ',"y"\n'
    (directory / "quotedspans.csv").write_bytes(header.encode() + rows)
    (directory / "collinear.csv").write_text("a,b,y\n1,2,1\n2,4,2\n3,6,5\n")
    # y = 1 + 2x exactly, so with an intercept every residual and avar entry is zero
    (directory / "exact.csv").write_text("x,y\n" + "".join(f"{x},{1 + 2 * x}\n" for x in range(8)))
    # n == p with an intercept, so a student_t reference has no degrees of freedom
    (directory / "tworow.csv").write_text("x,y\n0.1,0.3\n0.7,0.2\n")
    # a Latin-1 header is not UTF-8, and a header may name the response twice
    (directory / "latin1.csv").write_bytes("caf\u00e9,y\n1,2\n2,3\n3,5\n".encode("latin-1"))
    (directory / "twice.csv").write_text("x,y,y\n0,1,2\n1,3,4\n2,5,7\n")
    # 5000 valid rows, then a Latin-1 line: past the decoder's first buffered chunk
    rows = "".join(f"{i},{i}\n" for i in range(5000))
    (directory / "late.csv").write_bytes(("x,y\n" + rows + "caf\u00e9,1\n").encode("latin-1"))
    # cells that only the row-by-row fallback reader parses: quoted numbers,
    # underscores, CRLF with blank-cell rows, padding around a blank row; a '#'
    # cell it rejects; and a byte-order mark, which the vectorized pass takes
    (directory / "quoted.csv").write_text('x,y\n"0.5","1.25"\n"1.5",2\n2.5,"4.75"\n3,"5"\n')
    (directory / "underscore.csv").write_text("x,y\n1_000,2\n2_000,3\n3_500,5\n4_000,4.5\n")
    crlf = "x,y|0.1,1|,,|0.4,2.5|,,|0.9,3|1.2,3.25|".replace("|", "\r\n")
    (directory / "crlf.csv").write_bytes(crlf.encode())
    (directory / "padded.csv").write_text("x , y\n 0.25 , 1 \n  ,  \n 0.5,2\n0.75 , 2.5\n 1 ,3.5\n")
    (directory / "hash.csv").write_text("x,y\n1,2\n2,3#4\n3,5\n")
    (directory / "bom.csv").write_bytes(b"\xef\xbb\xbfx,y\n0.1,1\n0.4,2.5\n0.9,3\n1.2,3.25\n")
    # cells over the csv module's 131072-character field limit: a data cell in a
    # file the quoted cell sends to the fallback reader, and a header cell
    wide_cell = "0" * 140000 + "1"
    (directory / "longcell.csv").write_text(f'x,y\n"0.5",1\n{wide_cell},2\n')
    (directory / "longheader.csv").write_text("x" * 140000 + ",y\n0.5,1\n1.5,2\n")
    # values near the top of double range: squared residuals overflow in big,
    # x'x overflows in bigx; and a directory where simulate's coverage table goes
    (directory / "big.csv").write_text("x,y\n1,1e200\n2,-3e200\n3,2e200\n4,5e199\n")
    (directory / "bigx.csv").write_text("x,y\n1e200,1\n2e200,3\n3e200,2\n")
    (directory / "sim.csv").mkdir()
    # a 0-byte file, and one that holds only the response column
    (directory / "empty.csv").write_bytes(b"")
    (directory / "onlyy.csv").write_text("y\n1\n2\n3\n")
    # a unix-time covariate, whose mean square is far from the intercept's; a
    # covariate whose x'x is subnormal; one whose standard errors overflow; and
    # a bad cell below a header over two lines, so its row is the file's fourth line
    rng = np.random.default_rng(8)
    times = 1.7e9 + rng.uniform(0.0, 3.2e7, 200).round()
    y = 3.0 + 2e-7 * (times - 1.7e9) + rng.standard_normal(200)
    epoch = "".join(f"{t:.0f},{v!r}\n" for t, v in zip(times.tolist(), y.tolist()))
    (directory / "epoch.csv").write_text("unix_time,y\n" + epoch)
    (directory / "tinyx.csv").write_text("x,y\n1e-160,1\n2e-160,3\n3e-160,2\n4e-160,7\n")
    rows = "1e-150,1000000\n2e-150,1000003\n3e-150,999999\n4e-150,1000005\n"
    (directory / "tinyse.csv").write_text("x,y\n" + rows)
    (directory / "twoline.csv").write_text('"x1\nfirst",y\n1,2\n2,abc\n')


def commands() -> list[list[str]]:
    """The corpus, with data paths relative to the CSV directory."""
    # the help texts, wrapped at the 80 columns that main pins
    cmds = [["--help"]] + [[command, "--help"] for command in ("fit", "test", "bootstrap", "simulate", "check")]
    for name in ("small", "wide", "tall"):
        data = ["--data", f"{name}.csv", "--response", "y"]
        cmds += [
            ["fit", *data],
            ["fit", *data, "--add-intercept"],
            ["test", *data, "--add-intercept", "--null", "0"],
            ["test", *data, "--coef", "1", "--null", "0.5", "--reference", "t", "--variance", "classical"],
            ["test", *data, "--add-intercept", "--reference", "bootstrap", "--B", "300", "--seed", "7"],
            ["bootstrap", *data, "--add-intercept", "--B", "300", "--seed", "11"],
            ["bootstrap", *data, "--B", "300", "--seed", "12", "--weights", "rademacher",
             "--variance", "hc1", "--alpha", "0.1"],
            ["bootstrap", *data, "--B", "200", "--seed", "13", "--m", "150"],
        ]
    cmds += [
        ["fit", "--data", "collinear.csv", "--response", "y"],
        ["test", "--data", "small.csv", "--response", "y", "--coef", "2"],
        ["bootstrap", "--data", "small.csv", "--response", "y", "--B", "50", "--seed", "1",
         "--variance", "classical"],
    ]
    small = ["--data", "small.csv", "--response", "y", "--add-intercept"]
    exact = ["--data", "exact.csv", "--response", "y", "--add-intercept"]
    cmds += [
        ["test", *small, "--coef", "1", "--reference", "bootstrap", "--B", "300", "--seed", "7"],
        ["test", *small, "--reference", "t"],
        ["test", *small, "--coef", "0", "--null", "1", "--variance", "hc1"],
        ["test", *exact, "--coef", "0"],
        ["test", *exact],
        ["bootstrap", *exact, "--B", "50", "--seed", "1"],
        ["test", "--data", "tworow.csv", "--response", "y", "--add-intercept", "--coef", "1",
         "--reference", "t"],
    ]
    # m-of-n ignores the weight law; a null vector of the right and of the wrong length;
    # no --data, and --data files that cannot be read or name the response twice
    cmds += [
        ["bootstrap", "--data", "small.csv", "--response", "y", "--B", "200", "--seed", "13",
         "--m", "150", "--weights", "rademacher"],
        ["test", *small, "--null", "1,0.5,-0.5"],
        ["test", *small, "--null", "1,2"],
        ["fit", "--response", "y"],
        ["fit", "--data", ".", "--response", "y"],
        ["fit", "--data", "latin1.csv", "--response", "y"],
        ["fit", "--data", "twice.csv", "--response", "y"],
        ["fit", "--data", "resid.csv", "--response", "y"],
        ["fit", "--data", "late.csv", "--response", "y"],
    ]
    # the span-parsed file, and rademacher draws summed over several GEMM calls per row;
    # the same rows under a quoted header are span-parsed too
    spans = ["--data", "spans.csv", "--response", "y", "--add-intercept"]
    cmds += [
        ["fit", *spans],
        ["bootstrap", *spans, "--B", "100", "--seed", "14", "--weights", "rademacher"],
        ["fit", "--data", "quotedspans.csv", "--response", "y", "--add-intercept"],
    ]
    for name in ("quoted", "underscore", "crlf", "padded", "hash", "bom", "longcell", "longheader"):
        cmds.append(["fit", "--data", f"{name}.csv", "--response", "y", "--add-intercept"])
    for dgp in DGPS:
        cmds += [
            ["check", "--dgp", dgp, "--n", "500", "--seed", "3"],
            ["simulate", "--dgp", dgp, "--n", "100", "--reps", "20", "--B", "200", "--seed", "5",
             "--methods", "classical_normal,sandwich_normal,bootstrap_rectangle,"
             "bootstrap_ellipsoid,max_t_bootstrap"],
        ]
    cmds.append(["simulate", "--dgp", "heteroscedastic_iid", "--n", "80", "--reps", "10",
                 "--B", "100", "--seed", "6", "--weights", "rademacher"])
    # the test listed before the rectangle, which then reads the test's max-|t| reference
    cmds.append(["simulate", "--dgp", "heteroscedastic_iid", "--n", "80", "--reps", "10", "--B", "100",
                 "--seed", "6", "--weights", "rademacher",
                 "--methods", "max_t_bootstrap,bootstrap_ellipsoid,bootstrap_rectangle"])
    # non-default noise scales reach the population moments of the random-x kinds
    cmds += [
        ["check", "--dgp", "heteroscedastic_iid", "--noise-scale", "0.3", "--n", "500", "--seed", "3"],
        ["check", "--dgp", "quadratic_mean_iid", "--noise-scale", "7.7", "--n", "500", "--seed", "3"],
        ["check", "--dgp", "linear_homoscedastic", "--noise-scale", "0.3", "--n", "500", "--seed", "3"],
    ]
    # the smallest fixed design every method runs on (n = p + 1), and a method listed twice
    cmds += [
        ["check", "--dgp", "fixed_x_heteroscedastic", "--n", "3", "--seed", "3"],
        ["simulate", "--dgp", "fixed_x_heteroscedastic", "--n", "3", "--reps", "8", "--B", "50",
         "--seed", "4", "--methods", "classical_normal,sandwich_normal,bootstrap_rectangle,"
         "bootstrap_ellipsoid,max_t_bootstrap"],
        ["simulate", "--dgp", "quadratic_mean_iid", "--n", "40", "--reps", "6", "--B", "50",
         "--seed", "5", "--methods", "sandwich_normal,max_t_bootstrap,sandwich_normal"],
    ]
    # a one-point fixed design (singular), the two-point one, the large-n design
    # rule, and a noise scale whose targets do not fit in a double
    cmds += [
        ["check", "--dgp", "fixed_x_nonidentical_mean", "--n", "1", "--seed", "3"],
        ["check", "--dgp", "fixed_x_nonidentical_mean", "--n", "2", "--seed", "3"],
        ["check", "--dgp", "fixed_x_heteroscedastic", "--n", "100000", "--seed", "3"],
        ["check", "--dgp", "heteroscedastic_iid", "--noise-scale", "1e200", "--n", "50", "--seed", "3"],
        ["check", "--dgp", "linear_homoscedastic", "--noise-scale", "1e200", "--n", "500", "--seed", "3"],
    ]
    # a one-covariate bootstrap (its draws_cov is 1 x 1), a report path in a missing
    # directory, and an HC1 studentizer, which leaves bootstrap p-values as HC0 gives them
    cmds += [
        ["bootstrap", "--data", "exact.csv", "--response", "y", "--B", "50", "--seed", "1"],
        ["fit", "--data", "small.csv", "--response", "y", "--out", "nodir/x.json"],
        ["test", *small, "--reference", "bootstrap", "--B", "300", "--seed", "7", "--variance", "hc1"],
    ]
    # results that do not fit in a double, and a coverage table path that is a directory
    big = ["--data", "big.csv", "--response", "y", "--add-intercept"]
    cmds += [
        ["test", *big, "--coef", "1"],
        ["test", *big, "--variance", "classical", "--coef", "1"],
        ["test", *big, "--reference", "bootstrap", "--B", "50", "--seed", "1"],
        ["fit", *big],
        ["bootstrap", *big, "--B", "50", "--seed", "1"],
        ["fit", "--data", "bigx.csv", "--response", "y"],
        ["simulate", "--dgp", "quadratic_mean_iid", "--n", "50", "--reps", "2", "--methods",
         "sandwich_normal", "--seed", "3", "--out", "sim.json"],
    ]
    # bootstrap tests whose null sits near the estimate, so their p-values read the draws
    cmds += [
        ["test", *small, "--coef", "1", "--null", "2.0", "--reference", "bootstrap", "--B", "300",
         "--seed", "7"],
        ["test", *small, "--null", "0.6,2.1,-1.0", "--reference", "bootstrap", "--B", "300",
         "--seed", "7"],
    ]
    # Monte Carlo runs over several stacks of replications (16 at n=500, 40 at n=200), with
    # a last stack that is not full: interval methods only, and with the bootstrap methods; each
    # of the stacked draws' branches (x @ beta, a random-x profile, both fixed designs) is here
    cmds += [
        ["simulate", "--dgp", "heteroscedastic_iid", "--n", "500", "--reps", "40", "--seed", "8",
         "--methods", "classical_normal,sandwich_normal"],
        ["simulate", "--dgp", "fixed_x_nonidentical_mean", "--n", "500", "--reps", "37", "--seed", "8",
         "--methods", "sandwich_normal,classical_normal,sandwich_normal"],
        ["simulate", "--dgp", "linear_homoscedastic", "--n", "500", "--reps", "40", "--seed", "8",
         "--methods", "classical_normal,sandwich_normal"],
        ["simulate", "--dgp", "fixed_x_heteroscedastic", "--n", "500", "--reps", "37", "--seed", "8"],
        ["simulate", "--dgp", "quadratic_mean_iid", "--n", "200", "--reps", "90", "--B", "100",
         "--seed", "9", "--methods", "classical_normal,sandwich_normal,bootstrap_rectangle,"
         "bootstrap_ellipsoid,max_t_bootstrap"],
    ]
    # Monte Carlo runs that end at a stacked gate: k_check's overflow, the RSS's, the meat's
    # error raised before the RSS's, DegenerateDof at n = p, and a first failing replication
    # (17) in the second 16-replication stack; and a max-|t| test with too few draws to reject
    huge = ["simulate", "--dgp", "linear_homoscedastic", "--noise-scale", "1e153", "--n", "500",
            "--reps", "40", "--seed", "8", "--methods"]
    cmds += [
        [*huge, "classical_normal,sandwich_normal"],
        [*huge, "classical_normal"],
        [*huge, "bootstrap_rectangle,classical_normal", "--B", "50"],
        ["simulate", "--dgp", "fixed_x_heteroscedastic", "--n", "2", "--reps", "5", "--seed", "8",
         "--methods", "sandwich_normal,classical_normal"],
        ["simulate", "--dgp", "linear_homoscedastic", "--noise-scale", "5.5e152", "--n", "500",
         "--reps", "40", "--seed", "13", "--methods", "classical_normal,sandwich_normal"],
        ["simulate", "--dgp", "quadratic_mean_iid", "--n", "30", "--reps", "200", "--B", "10",
         "--seed", "3", "--methods", "max_t_bootstrap"],
    ]
    # piped data, which the fallback reader reads again from memory and where an
    # undecodable line is located; a 0-byte file, and a response-only file
    stdin = ["--data", "/dev/stdin", "--response", "y"]
    cmds += [
        ["fit", *stdin, "--add-intercept", "<", "quoted.csv"],
        ["fit", *stdin, "<", "latin1.csv"],
        ["fit", "--data", "empty.csv", "--response", "y"],
        ["fit", "--data", "onlyy.csv", "--response", "y"],
    ]
    # the singularity gate in other units, a subnormal x'x, a numpy overflow
    # that must not warn, and a row named by its physical line
    cmds += [
        ["fit", "--data", "epoch.csv", "--response", "y", "--add-intercept"],
        ["fit", "--data", "tinyx.csv", "--response", "y"],
        ["fit", "--data", "twoline.csv", "--response", "y"],
        ["test", "--data", "tinyse.csv", "--response", "y", "--coef", "0"],
    ]
    # products with inner dimension p = 40 in the fit, the sandwich and 2000 gaussian draws,
    # which the diff at two BLAS threads covers
    p40 = ["--data", "p40.csv", "--response", "y"]
    cmds += [["fit", *p40], ["bootstrap", *p40, "--B", "2000", "--seed", "15"]]
    # B=9 draws at alpha=0.05, too few to rank the quantile: the test's p-value is at least its
    # floor 1/(B+1) > alpha, and the rectangle takes the largest draw and warns
    cmds += [
        ["test", *small, "--reference", "bootstrap", "--B", "9", "--seed", "7"],
        ["bootstrap", *small, "--B", "9", "--seed", "7"],
    ]
    return cmds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Digest the stdout of a fixed list of leanreg commands.")
    parser.add_argument("--blas-threads", type=int, default=1, metavar="N",
                        help="OPENBLAS_NUM_THREADS for every command (default 1)")
    threads = parser.parse_args(argv).blas_threads
    if threads < 1:
        parser.error("--blas-threads must be at least 1")
    # argparse wraps help to the terminal width, which COLUMNS sets
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=str(SRC), COLUMNS="80")
    env.pop("LEANREG_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        write_csvs(pathlib.Path(tmp))
        for cmd in commands():
            args, stdin = cmd, None
            if cmd[-2:-1] == ["<"]:
                args, stdin = cmd[:-2], (pathlib.Path(tmp) / cmd[-1]).read_bytes()
            proc = subprocess.run(
                [sys.executable, "-m", "leanreg", *args], input=stdin, capture_output=True, env=env,
                cwd=tmp,
            )
            digest = hashlib.sha256(proc.stdout).hexdigest()
            flag = " !warning" if b"Warning: " in proc.stderr else ""
            print(f"{proc.returncode} {digest} {' '.join(cmd)}{flag}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
