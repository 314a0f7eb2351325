import csv
import json
import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leanreg.simlab
import leanreg.variance
from leanreg import (
    Dataset,
    EmptyData,
    MissingColumn,
    NonNumericCell,
    fit_ols,
    hc1_avar,
    max_t_test,
    run_bootstrap,
    sandwich_avar,
)
from leanreg import cli
from leanreg.cli import main, read_csv, write_csv
from leanreg.simlab import DGP_KINDS

EXAMPLE_CSV = "x0,x1,y\n1,0,0\n1,1,1\n1,2,4\n"


@pytest.fixture
def example_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(EXAMPLE_CSV)
    return str(path)


def cut_into_spans(patch, cores):
    """Make read_csv cut any file into up to ``cores`` spans, one per usable core."""
    patch.setattr(cli, "_SPAN_MIN_BYTES", 1)
    patch.setattr(cli, "_usable_cores", lambda: cores)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def run_json(args, capsys):
    code, out = run_cli(args, capsys)
    assert code == 0, out
    return json.loads(out)


class TestReadCsv:
    def test_parses_example(self, example_csv):
        data = read_csv(example_csv, "y")
        np.testing.assert_array_equal(data.x, [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        np.testing.assert_array_equal(data.y, [0.0, 1.0, 4.0])

    def test_add_intercept_prepends_ones(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("u,y\n0,0\n1,1\n2,4\n")
        data = read_csv(str(path), "y", add_intercept=True)
        np.testing.assert_array_equal(data.x, [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfy,x\n0,0\n1,1\n4,2\n")
        data = read_csv(str(path), "y")
        np.testing.assert_array_equal(data.x, [[0.0], [1.0], [2.0]])
        np.testing.assert_array_equal(data.y, [0.0, 1.0, 4.0])

    def test_missing_column(self, example_csv):
        from leanreg import MissingColumn

        with pytest.raises(MissingColumn):
            read_csv(example_csv, "response")

    def test_repeated_response_column(self, tmp_path):
        from leanreg import MissingColumn

        path = tmp_path / "twice.csv"
        path.write_text("x,y,y\n0,1,2\n1,3,4\n2,5,7\n")
        with pytest.raises(MissingColumn, match="exactly once"):
            read_csv(str(path), "y")

    def test_nan_cell_rejected(self, tmp_path):
        from leanreg import NonNumericCell

        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,NaN\n")
        with pytest.raises(NonNumericCell, match="row 2"):
            read_csv(str(path), "y")

    def test_text_cell_rejected(self, tmp_path):
        from leanreg import NonNumericCell

        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\nfoo,3\n")
        with pytest.raises(NonNumericCell, match="'x'"):
            read_csv(str(path), "y")

    @pytest.mark.parametrize("text", ['"x1\nfirst",y\n1,2\n2,abc\n', 'x1,y\n"1\n",2\n2,abc\n'],
                             ids=["two-line-header", "two-line-cell"])
    def test_a_row_is_named_by_the_line_it_ends_on(self, tmp_path, text):
        path = tmp_path / "twoline.csv"
        path.write_text(text)
        with pytest.raises(NonNumericCell) as exc:
            read_csv(str(path), "y")
        assert str(exc.value) == f"{path}: cell 'abc' at row 4, column 'y' is not numeric"

    def test_overlong_row_rejected(self, tmp_path):
        from leanreg import NonNumericCell

        path = tmp_path / "bad.csv"
        path.write_text("x,y\n2,3,abc\n")
        with pytest.raises(NonNumericCell, match="row 2 has 3 cells, expected 2"):
            read_csv(str(path), "y")

    def test_empty_file(self, tmp_path):
        from leanreg import EmptyData

        path = tmp_path / "empty.csv"
        path.write_text("x,y\n")
        with pytest.raises(EmptyData):
            read_csv(str(path), "y")

    def test_zero_byte_file_is_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        with pytest.raises(EmptyData) as exc:
            read_csv(str(path), "y")
        assert str(exc.value) == f"{path} is empty"

    @pytest.mark.parametrize("body", ["", "\n\n\r\n", ",,\n,\n"], ids=["bare", "blank", "commas"])
    def test_header_without_data_raises_without_warning(self, tmp_path, body):
        path = tmp_path / "empty.csv"
        path.write_text("x,y\n" + body, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyData, match="has a header but no data rows"):
                read_csv(str(path), "y")

    def test_round_trip_preserves_floats_exactly(self, tmp_path):
        rng = np.random.default_rng(2024)
        data = Dataset(x=rng.standard_normal((20, 3)) * 1e3, y=rng.standard_normal(20) / 1e7)
        path = tmp_path / "rt.csv"
        write_csv(data, str(path))
        back = read_csv(str(path), "y")
        np.testing.assert_array_equal(back.x, data.x)
        np.testing.assert_array_equal(back.y, data.y)


def oracle_read_csv(path, response):
    """read_csv's contract restated with csv.reader and float() alone: (x, y) or an error.

    x carries the intercept column, so a file holding only the response is a dataset.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise EmptyData(f"{path} is empty")
        header = [h.strip() for h in header]
        if header.count(response) != 1:
            raise MissingColumn(
                f"response column {response!r} must appear exactly once in header {header}"
            )
        table = []
        for row in reader:
            r = reader.line_num
            if all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise NonNumericCell(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
            values = []
            for name, cell in zip(header, row):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise NonNumericCell(
                        f"{path}: cell {cell!r} at row {r}, column {name!r} is not numeric"
                    ) from None
                if not math.isfinite(values[-1]):
                    raise NonNumericCell(f"{path}: non-finite value at row {r}, column {name!r}")
            table.append(values)
    if not table:
        raise EmptyData(f"{path} has a header but no data rows")
    table = np.array(table)
    j = header.index(response)
    return np.column_stack([np.ones(len(table)), np.delete(table, j, axis=1)]), table[:, j]


FORMATS = (repr, "%.17g".__mod__, "%.6g".__mod__, "%.3e".__mod__, lambda v: f"  {v!r} ")
# cells the vectorized pass parses, cells only float() takes, and cells no one takes
PLAIN_CELL = st.builds(
    lambda fmt, v: fmt(v), st.sampled_from(FORMATS), st.floats(allow_nan=False, allow_infinity=False)
) | st.integers(-10**6, 10**6).map(str)
FALLBACK_CELL = st.sampled_from(['"1.5"', '"-2e3"', "1_000", "\u0661\u0662", "\t2 ", ""])
BAD_CELL = st.sampled_from(["  ", "1#2", "#", "inf", "-inf", "nan", "1e500", "abc", '"1,5"'])


@st.composite
def csv_texts(draw):
    """A header naming "y" in the first, middle or last column, then rows of mixed cells.

    Header names are plain, quoted or padded, and a covariate's may be a
    quoted name over two lines, so only the csv module knows where the data start.
    """
    width = draw(st.integers(1, 4))
    where = draw(st.sampled_from([0, width // 2, width - 1]))
    names = [f"x{j}" for j in range(width - 1)]
    names.insert(where, "y")
    header = [
        draw(st.sampled_from([name, f'"{name}"', f"  {name} "] + [f'"{name}\nz"'] * (name != "y")))
        for name in names
    ]
    cell = st.one_of(*[PLAIN_CELL] * 6, FALLBACK_CELL, BAD_CELL)
    # full-width rows twice as often as short or long ones and blank rows
    row = st.one_of(
        st.lists(cell, min_size=width, max_size=width),
        st.lists(cell, min_size=width, max_size=width),
        st.lists(cell, min_size=max(width - 1, 1), max_size=width + 1),
        st.sampled_from([[], [""] * width, [""] * (width + 1)]),
    )
    rows = draw(st.lists(row, min_size=0, max_size=5))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)] + [",".join(r) for r in rows]
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


def assert_matches_oracle(path, text):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(text)
    try:
        expected = oracle_read_csv(path, "y")
    except (EmptyData, MissingColumn, NonNumericCell) as exc:
        with pytest.raises(type(exc)) as got:
            read_csv(path, "y", add_intercept=True)
        assert str(got.value) == str(exc)
        return
    data = read_csv(path, "y", add_intercept=True)
    assert data.x.tobytes() == expected[0].tobytes()
    assert data.y.tobytes() == expected[1].tobytes()
    assert data.x.shape == expected[0].shape


class TestReadCsvMatchesOracle:
    @given(text=csv_texts())
    @settings(max_examples=400, deadline=None)
    def test_values_or_error_match_csv_and_float(self, tmp_path_factory, text):
        assert_matches_oracle(str(tmp_path_factory.getbasetemp() / "oracle.csv"), text)

    @given(text=csv_texts())
    @settings(max_examples=400, deadline=None)
    def test_span_parse_matches_csv_and_float(self, tmp_path_factory, text):
        # every text with data past the header is cut into two or three spans
        with pytest.MonkeyPatch.context() as patch:
            cut_into_spans(patch, 3)
            assert_matches_oracle(str(tmp_path_factory.getbasetemp() / "spans.csv"), text)
        no_child_left()


def write_span_csv(path, rows=3000, newline="\n", last=b"", header="x0,y,x1"):
    """A CSV of mixed float formats, optionally ending in a ``last`` line of bytes."""
    rng = np.random.default_rng(21)
    values = rng.standard_normal((rows, 3)) * [1.0, 1e-7, 1e9]
    lines = [header] + [f"{a!r},{b:.17g},{c:.6e}" for a, b, c in values.tolist()]
    path.write_bytes(("\ufeff" + newline.join(lines) + newline).encode() + last)
    return str(path)


def span_bounds(path):
    """``cli._span_bounds`` of ``path``, on a text stream past the header as read_csv reads it."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        next(csv.reader(iter(handle.readline, "")))
        return cli._span_bounds(handle.fileno(), handle.tell())


class TestReadCsvSpans:
    @pytest.mark.parametrize("newline, header", [
        ("\n", "x0,y,x1"),
        ("\r\n", "x0,y,x1"),
        # a quoted header is what R's write.csv writes
        ("\n", '"x0","y","x1"'),
        ("\r\n", '"x\n0",y,x1'),
        ("\n", "x" * 70000 + ",y,x1"),
    ], ids=["lf", "crlf", "quoted", "two-line-name", "over-64KiB"])
    def test_tables_do_not_depend_on_the_span_count(self, tmp_path, monkeypatch, newline, header):
        path = write_span_csv(tmp_path / "spans.csv", newline=newline, header=header)
        assert span_bounds(path) is None
        one = read_csv(path, "y", add_intercept=True)
        for cores in (2, 3):
            cut_into_spans(monkeypatch, cores)
            bounds = span_bounds(path)
            # the first span starts right after the byte-order mark and the header record
            assert len(bounds) == cores + 1 and bounds[0] == len(f"\ufeff{header}{newline}".encode())
            data = read_csv(path, "y", add_intercept=True)
            assert data.x.tobytes() == one.x.tobytes() and data.x.shape == one.x.shape
            assert data.y.tobytes() == one.y.tobytes()
            no_child_left()

    def test_header_ended_by_a_lone_carriage_return_keeps_one_span(self, tmp_path, monkeypatch):
        # the decoder holds a pending carriage return, so tell() is no byte offset
        path = str(tmp_path / "cr.csv")
        cut_into_spans(monkeypatch, 3)
        assert_matches_oracle(path, "x0,y\r" + "".join(f"{i},{i / 7!r}\n" for i in range(500)))
        assert span_bounds(path) is None

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fit_reads_data_from_a_pipe(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(200, 2))
        path = tmp_path / "d.csv"
        write_csv(Dataset(x=x, y=x @ [1.0, -1.0] + rng.standard_normal(200)), str(path))
        args = ["fit", "--response", "y", "--add-intercept", "--data"]
        expected = run_json([*args, str(path)], capsys)["results"]
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        # a pipe has no size, so no file of any length is cut into spans
        cut_into_spans(monkeypatch, 3)
        writer = threading.Thread(target=pipe.write_bytes, args=(path.read_bytes(),), daemon=True)
        writer.start()
        try:
            assert run_json([*args, str(pipe)], capsys)["results"] == expected
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_fallback_reads_a_pipe_again_from_memory(self, tmp_path):
        # a quoted cell sends the rows to the row-by-row fallback after loadtxt has
        # consumed the pipe, which cannot seek back; the in-memory copy, like the
        # file, drops a byte-order mark before the response's name
        path = tmp_path / "quoted.csv"
        command = [sys.executable, "-m", "leanreg", "fit", "--response", "y", "--data"]
        for bom in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(bom + b'y,x\n2,"1"\n3,2\n5,3\n')
            by_path = subprocess.run([*command, str(path)], capture_output=True)
            piped = subprocess.run(
                [*command, "/dev/stdin"], input=path.read_bytes(), capture_output=True
            )
            assert by_path.returncode == piped.returncode == 0, piped.stdout
            assert json.loads(piped.stdout)["results"] == json.loads(by_path.stdout)["results"]

    @pytest.mark.parametrize(
        "last, error",
        [(b"1.5,abc,2\n", "NonNumericCell"), ("caf\u00e9,1,2\n".encode("latin-1"), "UnicodeDecodeError")],
        ids=["bad-cell", "latin1"],
    )
    def test_error_in_last_span_matches_one_span(self, tmp_path, monkeypatch, capsys, last, error):
        path = write_span_csv(tmp_path / "bad.csv", last=last)
        args = ["fit", "--data", path, "--response", "y"]
        code, one = run_cli(args, capsys)
        assert code == 3 and json.loads(one)["error"]["type"] == error
        cut_into_spans(monkeypatch, 3)
        assert run_cli(args, capsys) == (3, one)
        no_child_left()

    def test_failed_fork_parses_in_process(self, tmp_path, monkeypatch):
        path = write_span_csv(tmp_path / "spans.csv")
        one = read_csv(path, "y")

        def no_fork():
            raise OSError("fork refused")

        cut_into_spans(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", no_fork)
        data = read_csv(path, "y")
        assert data.x.tobytes() == one.x.tobytes() and data.y.tobytes() == one.y.tobytes()

    def test_interrupt_reaps_every_child(self, tmp_path, monkeypatch):
        path = write_span_csv(tmp_path / "spans.csv")
        parent, loadtxt = os.getpid(), cli._loadtxt

        def interrupted_here(source):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return loadtxt(source)

        cut_into_spans(monkeypatch, 3)
        monkeypatch.setattr(cli, "_loadtxt", interrupted_here)
        with pytest.raises(KeyboardInterrupt):
            read_csv(path, "y")
        no_child_left()


class TestFitCommand:
    def test_fit_matches_derived_values(self, example_csv, capsys):
        payload = run_json(["fit", "--data", example_csv, "--response", "y"], capsys)
        res = payload["results"]
        np.testing.assert_allclose(res["beta_hat"], [-1.0 / 3.0, 2.0], atol=1e-12)
        # oracle: compose the variance-module derived matrices
        sigma = np.array([[1.0, 1.0], [1.0, 5.0 / 3.0]])
        kmat = np.array([[2.0 / 9.0, 2.0 / 9.0], [2.0 / 9.0, 8.0 / 27.0]])
        inv = np.linalg.inv(sigma)
        avar = inv @ kmat @ inv
        np.testing.assert_allclose(res["se_sandwich_hc0"], np.sqrt(np.diag(avar) / 3.0), atol=1e-10)
        np.testing.assert_allclose(
            res["se_classical"], np.sqrt(np.diag((2.0 / 3.0) * inv) / 3.0), atol=1e-10
        )
        assert payload["config"]["command"] == "fit"

    def test_fit_builds_k_check_once(self, example_csv, monkeypatch, capsys):
        calls = []
        real_k_check = leanreg.variance.k_check

        def k_check(fit):
            calls.append(fit)
            return real_k_check(fit)

        monkeypatch.setattr(leanreg.variance, "k_check", k_check)
        res = run_json(["fit", "--data", example_csv, "--response", "y"], capsys)["results"]
        assert len(calls) == 1
        # HC1 is derived from the HC0 estimate, bit for bit what sandwich_avar computes
        hc1 = hc1_avar(calls[0], sandwich_avar(calls[0]))
        assert res["se_sandwich_hc1"] == hc1.se.tolist()

    @pytest.mark.parametrize("kind, error", [
        ("missing", "FileNotFoundError"),
        ("directory", "IsADirectoryError"),
        ("latin1", "UnicodeDecodeError"),
    ], ids=["missing", "directory", "latin1"])
    def test_missing_file_exits_3(self, tmp_path, kind, error, capsys):
        path = tmp_path / "data.csv"
        if kind == "directory":
            path.mkdir()
        elif kind == "latin1":
            path.write_bytes("caf\u00e9,y\n1,2\n2,3\n3,5\n".encode("latin-1"))
        code, out = run_cli(["fit", "--data", str(path), "--response", "y"], capsys)
        assert code == 3
        assert json.loads(out)["error"]["type"] == error

    def test_late_non_utf8_line_is_located(self, tmp_path, capsys):
        path = tmp_path / "late.csv"
        rng = np.random.default_rng(4)
        rows = "".join(f"{a},{b}\n" for a, b in rng.random((5000, 2)).tolist())
        path.write_bytes(("x,y\n" + rows + "caf\u00e9,1\n").encode("latin-1"))
        code, out = run_cli(["fit", "--data", str(path), "--response", "y"], capsys)
        assert code == 3
        error = json.loads(out)["error"]
        assert error["type"] == "UnicodeDecodeError"
        # the header is line 1, so the Latin-1 line is 5002; 0xe9 is its fourth byte
        assert f"in position 3: invalid continuation byte in {path}, line 5002 " in error["message"]
        with pytest.raises(UnicodeDecodeError) as exc:
            read_csv(str(path), "y")
        assert (exc.value.object, exc.value.start) == ("caf\u00e9,1\n".encode("latin-1"), 3)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_non_utf8_fifo_is_located_without_a_second_open(self, tmp_path):
        # the bad line is found in the bytes already read: opening the FIFO by
        # name again would wait for a writer that never comes
        fifo = tmp_path / "ff"
        os.mkfifo(fifo)
        latin1 = "caf\u00e9,y\n1,2\n".encode("latin-1")
        writer = threading.Thread(target=fifo.write_bytes, args=(latin1,), daemon=True)
        writer.start()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "leanreg", "fit", "--data", str(fifo), "--response", "y"],
                capture_output=True, text=True, timeout=30,
            )
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert proc.returncode == 3, proc.stdout
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "UnicodeDecodeError"
        assert f"invalid continuation byte in {fifo}, line 1 " in error["message"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_non_utf8_pipe_is_located(self):
        proc = subprocess.run(
            [sys.executable, "-m", "leanreg", "fit", "--data", "/dev/stdin", "--response", "y"],
            input="caf\u00e9,y\n1,2\n2,3\n".encode("latin-1"), capture_output=True, timeout=60,
        )
        assert proc.returncode == 3, proc.stdout
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "UnicodeDecodeError"
        assert "invalid continuation byte in /dev/stdin, line 1 " in error["message"]

    def test_response_only_file_needs_an_intercept(self, tmp_path, capsys):
        path = tmp_path / "onlyy.csv"
        path.write_text("y\n1\n2\n3\n")
        code, out = run_cli(["fit", "--data", str(path), "--response", "y"], capsys)
        assert code == 3
        error = json.loads(out)["error"]
        assert error["type"] == "MissingColumn"
        assert error["message"] == (
            f"{path} has no covariate column besides 'y'; an intercept-only fit needs --add-intercept"
        )
        res = run_json(["fit", "--data", str(path), "--response", "y", "--add-intercept"], capsys)
        assert res["results"]["beta_hat"] == [2.0]

    def test_n_equal_to_p_reports_no_classical_errors(self, tmp_path, capsys):
        path = tmp_path / "tworow.csv"
        path.write_text("x,y\n0.1,0.3\n0.7,0.2\n")
        payload = run_json(["fit", "--data", str(path), "--response", "y", "--add-intercept"], capsys)
        assert payload["warnings"] == ["n == p: classical and HC1 standard errors are undefined"]
        res = payload["results"]
        assert (res["n"], res["p"], res["se_classical"]) == (2, 2, None)
        assert "sigma2_classical" not in res and "se_sandwich_hc1" not in res

    def test_long_data_cell_in_fallback_exits_3(self, tmp_path, capsys):
        # the quoted cell sends the file to the row-by-row reader, whose csv module
        # refuses the 140001-character cell on line 3
        path = tmp_path / "longcell.csv"
        path.write_text('x,y\n"0.5",1\n' + "0" * 140000 + "1,2\n")
        code, out = run_cli(["fit", "--data", str(path), "--response", "y"], capsys)
        assert code == 3
        error = json.loads(out)["error"]
        assert error["type"] == "NonNumericCell"
        assert error["message"].startswith(f"{path}: line 3: field larger than field limit")

    def test_long_header_cell_exits_3(self, tmp_path, capsys):
        path = tmp_path / "longheader.csv"
        path.write_text("x" * 140000 + ",y\n0.5,1\n1.5,2\n")
        code, out = run_cli(["fit", "--data", str(path), "--response", "y"], capsys)
        assert code == 3
        error = json.loads(out)["error"]
        assert error["type"] == "NonNumericCell"
        assert error["message"].startswith(f"{path}: line 1: field larger than field limit")

    def test_sigma2_classical_is_the_estimator(self, tmp_path, capsys):
        # rss / (n - p) itself, not decoded back from the classical meat matrix
        rng = np.random.default_rng(11)
        x = rng.random((300, 2))
        y = 1.0 + x @ [1.0, -1.0] + x[:, 0] ** 2 + (0.2 + x[:, 0]) * rng.standard_normal(300)
        path = tmp_path / "resid.csv"
        np.savetxt(path, np.column_stack([x, y]), delimiter=",", header="x0,x1,y", comments="",
                   fmt="%.17g")
        res = run_json(["fit", "--data", str(path), "--response", "y"], capsys)["results"]
        fit = fit_ols(read_csv(str(path), "y"))
        expected = fit.residuals @ fit.residuals / (fit.n - fit.p)
        assert res["sigma2_classical"] == expected

    def test_singular_design_exits_4(self, tmp_path, capsys):
        path = tmp_path / "collinear.csv"
        path.write_text("a,b,y\n1,2,1\n2,4,2\n3,6,5\n")
        code, out = run_cli(["fit", "--data", str(path), "--response", "y"], capsys)
        assert code == 4
        assert json.loads(out)["error"]["type"] == "SingularDesign"

    def test_usage_error_exits_2(self, example_csv):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--response", "y"])  # --data missing
        assert exc.value.code == 2


class TestTestCommand:
    @pytest.mark.parametrize("coef", ["-1", "2"])
    def test_coef_out_of_range_exits_4(self, example_csv, coef, capsys):
        code, out = run_cli(["test", "--data", example_csv, "--response", "y", "--coef", coef], capsys)
        assert code == 4
        assert json.loads(out)["error"]["type"] == "BadCoordinate"

    @pytest.mark.parametrize("null_args", [["--null", "nan"], ["--coef", "0", "--null", "inf"]])
    def test_non_finite_null_exits_2(self, example_csv, null_args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test", "--data", example_csv, "--response", "y", *null_args])
        assert exc.value.code == 2
        assert "--null must be finite" in capsys.readouterr().err

    def test_normal_reference_t_test(self, example_csv, capsys):
        payload = run_json(
            ["test", "--data", example_csv, "--response", "y", "--coef", "1", "--null", "0"],
            capsys,
        )
        res = payload["results"]
        assert res["reference"] == "std_normal"
        assert res["conservative"] is True
        assert 0.0 <= res["p_value"] <= 1.0
        assert any("finite" in w for w in payload["warnings"])

    def test_max_t_normal_warns_about_bonferroni(self, example_csv, capsys):
        payload = run_json(
            ["test", "--data", example_csv, "--response", "y", "--null", "0"], capsys
        )
        assert any("Bonferroni" in w for w in payload["warnings"])

    def test_bootstrap_reference_requires_seed(self, example_csv, monkeypatch):
        monkeypatch.delenv("LEANREG_SEED", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(
                ["test", "--data", example_csv, "--response", "y",
                 "--coef", "1", "--reference", "bootstrap"]
            )
        assert exc.value.code == 2

    def test_seed_env_fallback(self, example_csv, capsys, monkeypatch):
        monkeypatch.setenv("LEANREG_SEED", "55")
        payload = run_json(
            ["test", "--data", example_csv, "--response", "y",
             "--coef", "1", "--reference", "bootstrap", "--B", "99"],
            capsys,
        )
        assert payload["config"]["seed"] == 55
        assert payload["results"]["b"] == 99

    def test_null_vector_matches_library(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        x = rng.uniform(size=(40, 2))
        data = Dataset(x=x, y=x @ [0.5, -0.5] + (0.5 + x[:, 0]) * rng.standard_normal(40))
        path = tmp_path / "d.csv"
        write_csv(data, str(path))
        args = ["test", "--data", str(path), "--response", "y", "--add-intercept"]
        res = run_json(args + ["--null", "0.2,0.5,-0.5"], capsys)["results"]
        fit = fit_ols(read_csv(str(path), "y", add_intercept=True))
        expected = max_t_test(fit, sandwich_avar(fit), np.array([0.2, 0.5, -0.5]), "std_normal")
        assert res["statistic"] == expected.statistic
        assert res["p_value"] == expected.p_value
        assert res["null_value"] == [0.2, 0.5, -0.5]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--null", "1,2"])
        assert exc.value.code == 2
        assert "--null has 2 entries, expected 1 or 3" in capsys.readouterr().err

    @pytest.mark.parametrize("env_seed", ["abc", "1.5"])
    def test_invalid_seed_env_exits_2(self, env_seed, capsys, monkeypatch):
        # same exit and message kind as --seed -1, not a ValueError traceback
        monkeypatch.setenv("LEANREG_SEED", env_seed)
        with pytest.raises(SystemExit) as exc:
            main(["check", "--dgp", "quadratic_mean_iid", "--n", "50"])
        assert exc.value.code == 2
        assert "config error: LEANREG_SEED" in capsys.readouterr().err


class TestBootstrapCommand:
    def test_replay_is_byte_identical(self, example_csv, capsys):
        args = [
            "bootstrap", "--data", example_csv, "--response", "y",
            "--B", "200", "--alpha", "0.1", "--seed", "17",
        ]
        code1, out1 = run_cli(args, capsys)
        code2, out2 = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_thread_count_does_not_change_results(self, example_csv, capsys):
        # the thread cap is echoed in the config but must never touch results
        base = [
            "bootstrap", "--data", example_csv, "--response", "y",
            "--B", "150", "--seed", "29",
        ]
        p1 = run_json(base + ["--threads", "1"], capsys)
        p4 = run_json(base + ["--threads", "4"], capsys)
        assert json.dumps(p1["results"], sort_keys=True) == json.dumps(p4["results"], sort_keys=True)

    @pytest.mark.parametrize("b, clamped", [(1, True), (18, True), (19, False)])
    def test_warns_when_too_few_draws_for_the_quantile(self, example_csv, capsys, b, clamped):
        # ceil(0.95 * (B + 1)) exceeds B up to B = 18, where the largest draw stands in
        args = ["bootstrap", "--data", example_csv, "--response", "y", "--B", str(b), "--seed", "1"]
        warned = run_json(args, capsys)["warnings"]
        assert len(warned) == clamped
        if clamped:
            assert f"B={b} draws are too few for the 0.95 quantile" in warned[0]

    def test_m_flag_switches_to_resampling(self, example_csv, capsys):
        payload = run_json(
            ["bootstrap", "--data", example_csv, "--response", "y",
             "--B", "50", "--m", "2", "--seed", "1", "--weights", "rademacher"],
            capsys,
        )
        assert payload["results"]["method"] == "resample_m_of_n"
        assert payload["results"]["m"] == 2
        # resampling counts follow no weight law, so none is reported
        assert payload["results"]["weight_dist"] is None

    def test_one_covariate_draws_cov_is_a_matrix(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1,2\n2,3\n3,5\n")
        res = run_json(
            ["bootstrap", "--data", str(path), "--response", "y", "--B", "5", "--seed", "1"], capsys
        )["results"]
        draws = run_bootstrap(fit_ols(read_csv(str(path), "y")), b=5, seed=1).draws_t[:, 0]
        assert np.shape(res["draws_cov"]) == np.shape(res["k_check"]) == (1, 1)
        np.testing.assert_allclose(res["draws_cov"], [[np.var(draws)]], rtol=1e-14)

    def test_gaussian_bootstrap_factors_sigma_hat_and_the_scores_once(self, tmp_path, monkeypatch,
                                                                      capsys):
        # the draws, k_check, the sandwich and the ellipsoid all read the fit's factors
        counts = {"cholesky": 0, "tsqr_r": 0}
        real_cholesky, real_tsqr_r = np.linalg.cholesky, leanreg.linalg.tsqr_r

        def cholesky(a, *args, **kwargs):
            counts["cholesky"] += 1
            return real_cholesky(a, *args, **kwargs)

        def tsqr_r(a):
            assert np.shape(a) == (200, 2)
            counts["tsqr_r"] += 1
            return real_tsqr_r(a)

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        monkeypatch.setattr(leanreg.linalg, "tsqr_r", tsqr_r)
        rng = np.random.default_rng(4)
        x = rng.random(200)
        path = tmp_path / "het.csv"
        np.savetxt(path, np.column_stack([x, 1.0 + x + (0.2 + x) * rng.standard_normal(200)]),
                   delimiter=",", header="x,y", comments="", fmt="%.17g")
        run_json(["bootstrap", "--data", str(path), "--response", "y", "--add-intercept",
                  "--B", "200", "--seed", "2"], capsys)
        assert counts == {"cholesky": 1, "tsqr_r": 1}


class TestSimulateCommand:
    def test_single_replication_binary_coverage(self, capsys):
        payload = run_json(
            ["simulate", "--dgp", "heteroscedastic_iid", "--n", "60", "--reps", "1",
             "--methods", "classical_normal,sandwich_normal", "--seed", "5"],
            capsys,
        )
        for values in payload["results"]["coverage"].values():
            assert all(v in (0.0, 1.0) for v in values)
        # the seed is echoed once, in the config
        assert "seed" not in payload["results"] and payload["config"]["seed"] == 5

    def test_replay_and_threads_byte_identical(self, capsys):
        args = [
            "simulate", "--dgp", "fixed_x_nonidentical_mean", "--n", "50", "--reps", "6",
            "--methods", "sandwich_normal,bootstrap_ellipsoid", "--B", "60", "--seed", "14",
        ]
        _, out1 = run_cli(args + ["--threads", "1"], capsys)
        p2 = run_json(args + ["--threads", "3"], capsys)
        assert json.dumps(json.loads(out1)["results"], sort_keys=True) == json.dumps(
            p2["results"], sort_keys=True
        )
        # replay from the echoed config: same args, same bytes
        _, out3 = run_cli(args + ["--threads", "1"], capsys)
        assert out1 == out3

    @pytest.mark.parametrize("methods", ["", ","])
    def test_empty_method_is_refused(self, capsys, methods):
        # an empty --methods names no method; it does not fall back to the default ones
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--dgp", "heteroscedastic_iid", "--n", "30", "--reps", "2",
                  "--methods", methods, "--seed", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unknown method ''" in captured.err

    @pytest.mark.parametrize(
        "methods, b, clamped",
        [("bootstrap_rectangle", 18, True), ("bootstrap_ellipsoid", 18, True),
         ("bootstrap_rectangle,bootstrap_ellipsoid", 19, False), ("max_t_bootstrap", 18, False)],
    )
    def test_warns_when_regions_have_too_few_draws(self, capsys, methods, b, clamped):
        # max-|t| reports a p-value, which ranks no quantile
        payload = run_json(
            ["simulate", "--dgp", "heteroscedastic_iid", "--n", "50", "--reps", "2",
             "--methods", methods, "--B", str(b), "--seed", "3"],
            capsys,
        )
        assert any("too few for the 0.95 quantile" in w for w in payload["warnings"]) == clamped

    @pytest.mark.parametrize("b, unrejectable", [(18, True), (19, False)])
    def test_warns_when_max_t_has_too_few_draws_to_reject(self, capsys, b, unrejectable):
        # the add-one p-value is at least 1/(B+1), above alpha = 0.05 for B = 18
        payload = run_json(
            ["simulate", "--dgp", "heteroscedastic_iid", "--n", "50", "--reps", "2",
             "--methods", "max_t_bootstrap", "--B", str(b), "--seed", "3"],
            capsys,
        )
        warned = [w for w in payload["warnings"] if "max_t_bootstrap cannot reject" in w]
        assert bool(warned) == unrejectable
        assert warned == [] or "1/(B+1) = 0.05263" in warned[0]

    def test_writes_json_and_csv(self, tmp_path, capsys):
        out = tmp_path / "cov.json"
        code = main(
            ["simulate", "--dgp", "quadratic_mean_iid", "--n", "50", "--reps", "2",
             "--methods", "sandwich_normal,max_t_bootstrap", "--B", "50", "--seed", "3",
             "--out", str(out)]
        )
        assert code == 0
        results = json.loads(out.read_text())["results"]
        assert results["replications"] == 2
        csv_text = (tmp_path / "cov.csv").read_text()
        assert csv_text.startswith("method,metric,coordinate,value")
        assert "sandwich_normal" in csv_text
        rows = list(csv.DictReader(csv_text.splitlines()))
        for metric in ("rejection_rate", "rejection_se"):
            side = {r["method"]: float(r["value"]) for r in rows if r["metric"] == metric}
            assert side == results[metric] and "max_t_bootstrap" in side


class TestOutPath:
    @pytest.mark.parametrize("command", [
        ["fit", "--data", "DATA", "--response", "y"],
        ["fit", "--data", "missing.csv", "--response", "y"],
        ["simulate", "--dgp", "quadratic_mean_iid", "--n", "50", "--reps", "2",
         "--methods", "sandwich_normal", "--seed", "3"],
    ], ids=["fit", "fit-missing-data", "simulate"])
    def test_out_in_missing_directory_is_a_config_error(
        self, example_csv, tmp_path, monkeypatch, capsys, command
    ):
        calls = []
        monkeypatch.setattr(leanreg.simlab, "run_coverage", lambda *a, **k: calls.append(a))
        command = [example_csv if arg == "DATA" else arg for arg in command]
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(SystemExit) as exc:
            main(command + ["--out", str(tmp_path / "nodir" / "x.json")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "config error: --out" in captured.err and "Traceback" not in captured.err
        assert sorted(tmp_path.rglob("*")) == before
        assert calls == []

    def test_out_that_is_a_directory_is_a_config_error(self, example_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", example_csv, "--response", "y", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "is a directory or not in a writable directory" in capsys.readouterr().err

    def test_coverage_table_that_is_a_directory_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(leanreg.simlab, "run_coverage", lambda *a, **k: calls.append(a))
        (tmp_path / "cov.csv").mkdir()
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--dgp", "quadratic_mean_iid", "--n", "50", "--reps", "2",
                  "--methods", "sandwich_normal", "--seed", "3", "--out", str(tmp_path / "cov.json")])
        assert exc.value.code == 2
        assert "config error: the coverage table" in capsys.readouterr().err
        assert not (tmp_path / "cov.json").exists()
        assert calls == []


class TestNonFiniteResults:
    # y near the top of double range: the squared residuals overflow, so the
    # sandwich is NaN; x near it: x'x overflows, so the design cannot be factored
    BIG_Y = "x,y\n1,1e200\n2,-3e200\n3,2e200\n4,5e199\n"
    BIG_X = "x,y\n1e200,1\n2e200,3\n3e200,2\n"

    @pytest.mark.parametrize("data, args", [
        (BIG_Y, ["test", "--add-intercept", "--coef", "1"]),
        (BIG_Y, ["test", "--add-intercept", "--reference", "bootstrap", "--B", "50", "--seed", "1"]),
        (BIG_Y, ["fit", "--add-intercept"]),
        (BIG_Y, ["bootstrap", "--add-intercept", "--B", "50", "--seed", "1"]),
        (BIG_X, ["fit"]),
    ], ids=["test-coef", "test-bootstrap", "fit", "bootstrap", "fit-big-x"])
    def test_exits_4_without_nan_or_infinity(self, tmp_path, capsys, data, args):
        path = tmp_path / "big.csv"
        path.write_text(data)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out = run_cli([*args, "--data", str(path), "--response", "y"], capsys)
        assert code == 4
        # strict JSON: NaN and Infinity are no JSON values
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in stdout"))
        assert payload["error"]["type"] == "NonFiniteValue"

    @pytest.mark.parametrize("args, message", [
        (["fit"], "k_check, the sandwich meat matrix, is outside double range"),
        (["test", "--coef", "1"], "k_check, the sandwich meat matrix, is outside double range"),
        (["test", "--reference", "bootstrap", "--B", "50", "--seed", "1"],
         "k_check, the sandwich meat matrix, is outside double range"),
        (["bootstrap", "--B", "50", "--seed", "1"],
         "k_check, the sandwich meat matrix, is outside double range"),
        (["test", "--variance", "classical", "--coef", "1"],
         "residual sum of squares is outside double range"),
    ], ids=["fit", "test-coef", "test-bootstrap", "bootstrap", "test-classical"])
    def test_residual_overflow_is_named_without_warnings(self, tmp_path, args, message):
        # a fresh interpreter, so numpy warnings reach stderr as a user sees them
        path = tmp_path / "big.csv"
        path.write_text(self.BIG_Y)
        proc = subprocess.run(
            [sys.executable, "-m", "leanreg", *args, "--data", str(path), "--response", "y",
             "--add-intercept"],
            capture_output=True,
        )
        assert proc.returncode == 4
        assert proc.stderr == b""
        assert json.loads(proc.stdout)["error"] == {"message": message, "type": "NonFiniteValue"}

    def test_design_overflow_is_named_without_warnings(self, tmp_path):
        # a fresh interpreter, so numpy warnings reach stderr as a user sees them
        path = tmp_path / "bigx.csv"
        path.write_text(self.BIG_X)
        proc = subprocess.run(
            [sys.executable, "-m", "leanreg", "fit", "--data", str(path), "--response", "y"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 4
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["error"] == {
            "message": "design second-moment matrix is outside double range", "type": "NonFiniteValue",
        }

    # x near 1e-150 and y near 1e6: the fit is finite, its standard errors overflow
    TINY_X = "x,y\n1e-150,1000000\n2e-150,1000003\n3e-150,999999\n4e-150,1000005\n"

    def test_result_overflow_is_named_by_report_json(self, tmp_path, capsys):
        path = tmp_path / "tinyse.csv"
        path.write_text(self.TINY_X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(["fit", "--data", str(path), "--response", "y"], capsys)
        assert code == 4
        assert json.loads(out)["error"] == {
            "message": "the fit result holds an infinity or NaN", "type": "NonFiniteValue",
        }

    @pytest.mark.parametrize("args", [
        ["fit"], ["test", "--coef", "0"], ["bootstrap", "--B", "50", "--seed", "1"],
    ], ids=["fit", "test-coef", "bootstrap"])
    def test_result_overflow_prints_no_numpy_warning(self, tmp_path, args):
        # a fresh interpreter, so numpy warnings reach stderr as a user sees them
        path = tmp_path / "tinyse.csv"
        path.write_text(self.TINY_X)
        proc = subprocess.run(
            [sys.executable, "-m", "leanreg", *args, "--data", str(path), "--response", "y"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 4
        assert "Warning" not in proc.stderr
        assert json.loads(proc.stdout)["error"]["type"] == "NonFiniteValue"


class TestCheckCommand:
    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_scale_exits_2(self, noise, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--dgp", "quadratic_mean_iid", "--n", "50", "--seed", "1",
                  "--noise-scale", noise])
        assert exc.value.code == 2
        assert "config error: noise_scale" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", DGP_KINDS)
    def test_noise_scale_past_double_range_exits_2(self, kind, capsys):
        args = ["check", "--dgp", kind, "--n", "50", "--seed", "1", "--noise-scale"]
        with pytest.raises(SystemExit) as exc:
            main([*args, "1e200"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "leanreg: config error: noise_scale=1e+200 puts a target outside double range\n"
        )
        # a large scale that fits still reports finite numbers
        payload = run_json([*args, "1e10"], capsys)
        assert "Infinity" not in json.dumps(payload) and "NaN" not in json.dumps(payload)

    @pytest.mark.parametrize("command", [
        ["check", "--dgp", "fixed_x_heteroscedastic", "--n", "0", "--seed", "1"],
        ["simulate", "--dgp", "fixed_x_nonidentical_mean", "--n", "0", "--reps", "2", "--seed", "1"],
    ], ids=["check", "simulate"])
    def test_empty_sample_size_exits_2(self, command):
        # a fresh interpreter, so numpy warnings reach stderr as a user sees them
        proc = subprocess.run(
            [sys.executable, "-m", "leanreg", *command], capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert "config error: need n >= 1" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_fixed_design_check_is_clean(self, capsys):
        payload = run_json(
            ["check", "--dgp", "fixed_x_nonidentical_mean", "--n", "80", "--seed", "2"], capsys
        )
        det = payload["results"]["deterministic_inequality"]
        # a fixed design's sigma_hat is sigma_n up to its own rounding: sigma_n is
        # the exact moment rounded once, sigma_hat a float sum over the design
        assert det["d2n"] <= 1e-15
        assert det["precondition_holds"] and det["sandwich_ok"] and det["remainder_ok"]
        assert payload["results"]["influence_remainder"] <= 1e-9
        assert payload["warnings"] == []

    def test_random_design_check(self, capsys):
        # n large enough that the sampled design perturbation sits safely
        # inside the lambda/2 precondition
        payload = run_json(
            ["check", "--dgp", "quadratic_mean_iid", "--n", "4000", "--seed", "11"], capsys
        )
        det = payload["results"]["deterministic_inequality"]
        assert det["precondition_holds"] is True
        assert det["sandwich_ok"] and det["remainder_ok"]


def test_every_numeric_flag_at_an_edge_exits_with_a_chosen_code(tmp_path, capsys):
    # each command with each of its numeric flags at 0 and -1, and alpha at 0, 1 and where
    # 1 - alpha/2 rounds to 1: main returns 0, 3 or 4 or exits 2, never 1, an uncaught error's
    rng = np.random.default_rng(1)
    path = tmp_path / "d.csv"
    table = np.column_stack([np.ones(20), rng.random(20), rng.standard_normal(20)])
    np.savetxt(path, table, delimiter=",", header="x0,x1,y", comments="")
    data = ["--data", str(path), "--response", "y"]
    boot = [*data, "--B", "20", "--seed", "1"]
    dgp = ["--dgp", "heteroscedastic_iid", "--n", "20", "--seed", "1"]
    base = {"fit": data, "test": [*boot, "--reference", "bootstrap"], "bootstrap": boot,
            "simulate": [*dgp, "--reps", "2", "--B", "20"], "check": dgp}
    edges = dict.fromkeys(("b", "m", "n", "reps", "coef", "threads", "seed"), ("0", "-1"))
    edges["alpha"] = ("0", "1", "1e-17")
    codes = {}
    for command, (_, _, flags) in cli._COMMANDS.items():
        for flag in flags:
            for value in edges.get(flag, ()):
                args = [command, *base[command], cli._FLAGS[flag][0], value]
                try:
                    codes[" ".join(args[-2:]), command] = main(args)
                except SystemExit as exc:
                    codes[" ".join(args[-2:]), command] = exc.code
                capsys.readouterr()
    assert len(codes) == 42
    assert {key: code for key, code in codes.items() if code not in (0, 2, 3, 4)} == {}


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "leanreg", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_cli_import_skips_scipy_stats(tmp_path):
    # each step loads only what it runs: no scipy on import or on the default fit and
    # bootstrap paths, and the lab, the diagnostics and inference only in their own commands
    path = tmp_path / "data.csv"
    path.write_text(EXAMPLE_CSV.replace("\n1,2,4\n", "\n1,2,4\n1,3,8\n1,4,17\n"))
    data = ["--data", str(path), "--response", "y"]
    code = (
        "import contextlib, io, json, sys\n"
        "def loaded(): return sorted({m if m.startswith('leanreg') else m.split('.')[0] for m in sys.modules})\n"
        "import leanreg\n"
        "print(json.dumps(loaded()))\n"
        "import leanreg.cli\n"
        "print(json.dumps(loaded()))\n"
        "for args in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert leanreg.cli.main(args.split('|')) == 0, args\n"
        "    print(json.dumps(loaded()))\n"
    )
    runs = [
        ["fit", *data],
        ["bootstrap", *data, "--B", "50", "--seed", "1"],
        ["test", *data, "--coef", "1"],
        ["simulate", "--dgp", "quadratic_mean_iid", "--n", "50", "--reps", "2",
         "--methods", "sandwich_normal", "--seed", "3"],
        ["check", "--dgp", "quadratic_mean_iid", "--n", "50", "--seed", "3"],
    ]
    proc = subprocess.run([sys.executable, "-c", code, *("|".join(run) for run in runs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    root, cli_import, fit, boot, test, simulate, check = map(set, map(json.loads, proc.stdout.splitlines()))

    def ours(modules):
        return {m for m in modules if m.split(".")[0] == "leanreg"}

    assert ours(root) == {"leanreg"} and "numpy" not in root
    cli_modules = {"cli", "bootstrap", "variance", "ols", "linalg", "exceptions"}
    assert ours(cli_import) == {"leanreg"} | {f"leanreg.{m}" for m in cli_modules}
    assert not {"statistics", "fractions", "scipy"} & cli_import
    assert not {"leanreg.simlab", "leanreg.diagnostics", "leanreg.inference", "scipy"} & (fit | boot)
    assert "leanreg.inference" in test and "leanreg.simlab" not in test
    assert "leanreg.simlab" in simulate and "leanreg.simlab" in check


def test_student_t_reference_p_value_is_unchanged(tmp_path, capsys):
    # pinned p-value of scipy's stdtr, which the student_t branch now imports lazily
    rng = np.random.default_rng(5)
    x = rng.random(40)
    y = 1.0 + 0.3 * x + (0.2 + x) * rng.standard_normal(40)
    path = tmp_path / "tref.csv"
    np.savetxt(path, np.column_stack([x, y]), delimiter=",", header="x,y", comments="",
               fmt="%.17g")
    res = run_json(["test", "--data", str(path), "--response", "y", "--add-intercept",
                    "--coef", "1", "--reference", "t"], capsys)["results"]
    assert res["reference"] == "student_t" and res["df"] == 38
    assert res["p_value"] == pytest.approx(0.4811603842602029, rel=1e-10)


def test_gaussian_bootstrap_bits_do_not_depend_on_blas_threads(tmp_path, blas_thread_stdouts):
    rng = np.random.default_rng(0)
    x = rng.random((3000, 12))
    y = 1.0 + x @ np.linspace(1.0, -1.0, 12) + (0.2 + x[:, 0]) * rng.standard_normal(3000)
    path = tmp_path / "wide.csv"
    header = ",".join([f"x{j}" for j in range(12)] + ["y"])
    np.savetxt(path, np.column_stack([x, y]), delimiter=",", header=header, comments="",
               fmt="%.17g")
    command = [sys.executable, "-m", "leanreg", "bootstrap", "--data", str(path),
               "--response", "y", "--add-intercept", "--B", "2000", "--seed", "3"]
    outputs = blas_thread_stdouts(command)
    assert outputs[0] == outputs[1]


def test_stacked_simulate_does_not_depend_on_blas_threads(blas_thread_stdouts):
    # 40 replications at n=500 are fitted in stacks of 16, 16 and 8
    command = [sys.executable, "-m", "leanreg", "simulate", "--dgp", "heteroscedastic_iid", "--n", "500",
               "--reps", "40", "--seed", "8", "--methods", "classical_normal,sandwich_normal"]
    outputs = blas_thread_stdouts(command)
    assert outputs[0] == outputs[1]


def _fit_stdouts_at_blas_threads(path, n, seed, blas_thread_stdouts):
    # a CSV of the CLI byte-identity corpus (tools/cli_digest.py), n rows of 10 covariates
    rng = np.random.default_rng(seed)
    x = rng.random((n, 10))
    noise = (0.2 + x[:, 0]) * rng.standard_normal(n)
    y = 1.0 + x @ np.linspace(1.0, -1.0, 10) + x[:, 0] ** 2 + noise
    header = ",".join([f"x{j}" for j in range(10)] + ["y"])
    np.savetxt(path, np.column_stack([x, y]), delimiter=",", header=header, comments="",
               fmt="%.17g")
    command = [sys.executable, "-m", "leanreg", "fit", "--data", str(path), "--response", "y",
               "--add-intercept"]
    return blas_thread_stdouts(command)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable cores")
def test_tall_fit_does_not_depend_on_blas_threads(tmp_path, blas_thread_stdouts):
    # tall.csv: its RSS is a fixed-order numpy sum, and x.T @ y happens not to move at this shape
    outputs = _fit_stdouts_at_blas_threads(tmp_path / "tall.csv", 20000, 3, blas_thread_stdouts)
    assert outputs[0] == outputs[1]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable cores")
@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the fit's x.T @ y is a GEMV, which OpenBLAS splits by its thread count",
)
def test_spans_fit_does_not_depend_on_blas_threads(tmp_path, blas_thread_stdouts):
    outputs = _fit_stdouts_at_blas_threads(tmp_path / "spans.csv", 50000, 4, blas_thread_stdouts)
    assert outputs[0] == outputs[1]
