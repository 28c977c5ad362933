"""Sample moments and instrumental-variable estimation."""

import csv
import os
import re
import subprocess
import sys
import tracemalloc
import zipfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import semcontrol as sc
from semcontrol import estimation, simulate
from semcontrol.cli import run_command


def _iv_stderr(data, treatment, response, instrument, gamma_hat):
    """Influence-function standard error of the covariance-ratio estimator."""
    x = data.column(treatment) - data.column(treatment).mean()
    y = data.column(response) - data.column(response).mean()
    z = data.column(instrument) - data.column(instrument).mean()
    c_xz = (x * z).mean()
    psi = z * (y - gamma_hat * x) / c_xz
    return psi.std(ddof=1) / np.sqrt(len(psi))


@pytest.fixture
def loop_with_instrument():
    """X <-> Y loop with direct effect 0.5 and one valid instrument Z."""
    return sc.StructuralModel.from_edges(
        [("X", "Y", 0.5), ("Y", "X", 0.3), ("Z", "X", 0.8)],
        variables=["Y", "X", "Z"],
    )


class TestSampleMoments:
    def test_constant_column_has_zero_variance(self):
        data = sc.Dataset(("A", "B"), np.array([[1.0, 0.0], [1.0, 1.5], [1.0, 3.0]]))
        mom = sc.sample_moments(data)
        assert mom.var("A") == 0.0
        assert mom.n_obs == 3

    def test_two_point_covariance_with_bessel_divisor(self):
        data = sc.Dataset(("A", "B"), np.array([[0.0, 0.0], [2.0, 2.0]]))
        mom = sc.sample_moments(data)
        assert np.allclose(mom.covariance, [[2.0, 2.0], [2.0, 2.0]])

    def test_matches_implied_moments_on_draws(self, loop_with_instrument):
        model = loop_with_instrument
        implied = sc.implied_moments(model)
        n = 100_000
        data = sc.draw_equilibrium(model, sc.SimulationConfig(n, seed=2))
        mom = sc.sample_moments(data)
        sd = np.sqrt(np.diag(implied.covariance))
        assert np.all(np.abs(mom.mean - implied.mean) < 3 * sd / np.sqrt(n))
        for i in range(3):
            for j in range(3):
                se = np.sqrt(
                    (implied.covariance[i, i] * implied.covariance[j, j]
                     + implied.covariance[i, j] ** 2) / (n - 1)
                )
                assert abs(mom.covariance[i, j] - implied.covariance[i, j]) < 3 * se

    def test_too_few_rows(self):
        with pytest.raises(sc.TooFewRows):
            sc.sample_moments(sc.Dataset(("A",), np.array([[1.0]])))

    def test_standardized_data_has_zero_mean(self, loop_with_instrument):
        data = sc.draw_equilibrium(loop_with_instrument, sc.SimulationConfig(5000, seed=4))
        centered = sc.Dataset(data.columns, data.rows - data.rows.mean(axis=0))
        mom = sc.sample_moments(centered)
        assert np.linalg.norm(mom.mean) < 1e-12


class TestDataset:
    def test_missing_values_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            sc.Dataset(("A",), np.array([[np.nan]]))

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            sc.Dataset(("A", "A"), np.zeros((2, 2)))

    def test_csv_round_trip(self, tmp_path, loop_with_instrument):
        data = sc.draw_equilibrium(loop_with_instrument, sc.SimulationConfig(50, seed=9))
        path = tmp_path / "draws.csv"
        data.to_csv(path)
        loaded = sc.Dataset.from_csv(path)
        assert loaded.columns == data.columns
        assert np.array_equal(loaded.rows, data.rows)

    def test_missing_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,B\n1.0,\n")
        with pytest.raises(sc.InputFormatError, match="missing"):
            sc.Dataset.from_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,B\n1.0,2.0,3.0\n")
        with pytest.raises(sc.InputFormatError, match="ragged"):
            sc.Dataset.from_csv(path)

    def test_a_callers_array_is_copied_and_stays_writable(self):
        rows = np.zeros((2, 2))
        data = sc.Dataset(("A", "B"), rows)
        rows[0, 0] = 1.0
        assert rows.flags.writeable and data.rows[0, 0] == 0.0
        assert not data.rows.flags.writeable

    def test_from_csv_holds_one_copy_of_the_rows(self, tmp_path):
        # one segment, so the single pass reads it; np.loadtxt's growing buffer is the rest
        rows = np.random.default_rng(5).normal(size=(20_000, 5))
        path = tmp_path / "draws.csv"
        sc.Dataset(tuple("ABCDE"), rows).to_csv(path)
        tracemalloc.start()
        try:
            data = sc.Dataset.from_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(data.rows, rows)
        assert peak < 1.5 * rows.nbytes

    def test_a_read_in_segments_holds_its_rows_once(self, tmp_path, pools, monkeypatch):
        # about 37 segments, each appended to the rows as it arrives; the pool's modules
        # are loaded before tracing, so that the bound measures the rows, and the buffer
        # behind them keeps no growth slack
        import concurrent.futures  # noqa: F401
        import multiprocessing  # noqa: F401
        rows = np.random.default_rng(6).normal(size=(100_000, 5))
        path = tmp_path / "draws.csv"
        sc.Dataset(tuple("ABCDE"), rows).to_csv(path)
        monkeypatch.setattr(simulate, "_CSV_SEGMENT_BYTES", 2**18)
        tracemalloc.start()
        try:
            data = sc.Dataset.from_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pools == [2, 2]  # the write's two blocks, then the read's segments
        assert np.array_equal(data.rows, rows)
        assert peak < 1.5 * rows.nbytes
        owner = data.rows
        while isinstance(owner, np.ndarray):
            owner = owner.base
        owner = owner.obj if isinstance(owner, memoryview) else owner
        assert sys.getsizeof(owner) - sys.getsizeof(type(owner)()) == rows.nbytes

    def test_three_names_are_one_class(self):
        """The table lives in ``simulate``; ``estimation`` and the package re-export it."""
        assert estimation.Dataset is simulate.Dataset is sc.Dataset


def _reference_to_csv(data, path):
    """The row-at-a-time writer that Dataset.to_csv must match byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.columns)
        for row in data.rows:
            writer.writerow([repr(float(v)) for v in row])


#: Finite values whose shortest repr takes every form: signed zeros,
#: subnormals, the extremes, and the switches to exponent notation.
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                1.7976931348623157e308, -1.7976931348623157e308,
                1e16, -1e16, 9999999999999998.0, 1e-5, 0.0001, 0.1, -1.0 / 3.0]


def _assert_round_trip(tmp_path, data):
    ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
    data.to_csv(ours)
    _reference_to_csv(data, reference)
    assert ours.read_bytes() == reference.read_bytes()
    loaded = sc.Dataset.from_csv(ours)
    assert loaded.columns == data.columns
    assert np.array_equal(loaded.rows, data.rows)
    assert loaded.rows.tobytes() == data.rows.tobytes()  # -0.0 keeps its sign


class TestCsvFormat:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), width=st.integers(1, 600), block_cells=st.integers(1, 2048))
    def test_writer_matches_row_writer_across_blocks(self, tmp_path_factory, data, width,
                                                     block_cells):
        # a small block makes rows on both sides of a block boundary cheap to test
        step = max(1, block_cells // width)
        n = data.draw(st.sampled_from([1, step - 1, step, step + 1, 2 * step + 1, 3 * step])
                      .filter(lambda rows: rows >= 1), label="rows")
        values = data.draw(arrays(float, (n, width), elements=st.one_of(
            st.sampled_from(_EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))))
        dataset = sc.Dataset(tuple(f"v{j}" for j in range(width)), values)
        with mock.patch.object(simulate, "_CSV_BLOCK_CELLS", block_cells):
            _assert_round_trip(tmp_path_factory.mktemp("csv"), dataset)

    @pytest.mark.parametrize("width, extra", [(600, -1), (600, 1), (5, 1)])
    def test_writer_matches_row_writer_at_the_block_size(self, tmp_path, width, extra):
        n = simulate._CSV_BLOCK_CELLS // width + extra
        values = np.random.default_rng(width).standard_normal((n, width))
        values.flat[:len(_EDGE_VALUES)] = _EDGE_VALUES
        _assert_round_trip(tmp_path, sc.Dataset(tuple(f"v{j}" for j in range(width)), values))

    def test_cells_are_formatted_as_their_repr(self):
        """About 10^6 cells of every kind against ``repr``: exact digits for
        ``1e-4 <= |x| < 1e16``, ``repr`` for the rest and for declined ties."""
        rng = np.random.default_rng(15)
        n = 2**17
        near = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                               [float(f"1e{k}") for k in range(-5, 18)]])
        bits = rng.integers(0, 2**64, n // 2, dtype=np.uint64).view(float)
        families = [
            rng.standard_normal(2 * n), rng.random(n),
            bits[np.isfinite(bits)],
            rng.integers(-10**6, 10**6, n).astype(float),
            rng.integers(-2**53, 2**53, n // 4).astype(float),
            np.concatenate([np.round(rng.standard_normal(n // 8) * 10.0**e, d)
                            for e, d in [(-3, 6), (0, 1), (0, 2), (2, 3), (5, 2), (8, 0)]]),
            np.concatenate([near, np.nextafter(near, np.inf), np.nextafter(near, -np.inf)]),
            rng.standard_normal(n // 2) * 10.0**rng.integers(-8, 20, n // 2),
            1.2e15 + rng.integers(0, 10**6, n // 8) * 0.25,  # ties at the 17th digit
            rng.standard_normal(n // 4) * 1e-7,  # no cell in the kernel's range
            [9.999999999999999e-05, 0.0001, 9999999999999998.0, 1e16, 0.0, -0.0,
             5e-324, 1.7976931348623157e308, -1.7976931348623157e308],
        ]
        for family in families:
            values = np.asarray(family, dtype=float)
            values *= rng.choice([-1.0, 1.0], len(values))
            # 7 cells a row: each sub-chunk is 1170 whole rows, 8190 cells, not 2^13
            block = np.resize(values, (-(-len(values) // 7), 7))
            expected = (("%r,%r,%r,%r,%r,%r,%r\r\n" * len(block))
                        % tuple(block.ravel().tolist())).encode()
            got = simulate._csv_lines(block)
            if got != expected:
                rows = [(a, b) for a, b in zip(got.split(b"\r\n"), expected.split(b"\r\n"))
                        if a != b]
                pytest.fail(f"first differing row: {rows[0]}")

    def test_a_block_is_formatted_in_memory_bounded_by_its_text(self):
        block = np.random.default_rng(16).standard_normal((simulate._CSV_BLOCK_CELLS // 8, 8))
        tracemalloc.start()
        try:
            text = simulate._csv_lines(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(text)

    def test_header_is_written_as_csv(self, tmp_path):
        columns = ("plain", "with,comma", 'with "quote"', "with\r\nbreak", " padded ")
        _assert_round_trip(tmp_path, sc.Dataset(columns, np.arange(10.0).reshape(2, 5)))


_HEADER = "X,Y,Z\r\n"
_ROWS = "1,2,3\r\n2,1,5\r\n4,4,1\r\n"
_PARSED = [[1.0, 2.0, 3.0], [2.0, 1.0, 5.0], [4.0, 4.0, 1.0]]


class TestMalformedCsv:
    """Each malformed file gives the outcome the row-at-a-time reader gave.

    Two outcomes changed with the move to ``np.loadtxt``: ``1_000`` and
    non-ASCII digits, which Python's ``float`` reads, are non-numeric cells.
    """

    @pytest.mark.parametrize("text, parsed", [
        (_HEADER + "1,2,3\r\n\r\n2,1,5\r\n\r\n4,4,1\r\n\r\n", _PARSED),
        ('"X","Y","Z"\r\n"1","2","3"\r\n2,"1",5\r\n4,4,"1"\r\n', _PARSED),
        (_HEADER + " 1 , 2,3 \r\n2 ,1, 5\r\n\t4,4,1\r\n", _PARSED),
        ("X,Y,Z\n1,2,3\n2,1,5\n4,4,1\n", _PARSED),
        ("X,Y,Z\r1,2,3\r2,1,5\r4,4,1\r", _PARSED),
        (_HEADER + "1,2,3\r\n2,1,5\r\n4,4,1", _PARSED),
        (_HEADER + "1e0,+2,3.\r\n2,.1e1,5\r\n4,4,1\r\n", _PARSED),
        ("\ufeff" + _HEADER + _ROWS, _PARSED),
        (_HEADER + "1." + "0" * 200000 + ",2,3\r\n2,1,5\r\n4,4,1\r\n", _PARSED),
    ], ids=["blank-lines", "quoted", "padded", "lf", "bare-cr", "no-final-newline",
            "number-forms", "byte-order-mark", "cell-over-the-csv-field-limit"])
    def test_accepted(self, tmp_path, capsys, text, parsed):
        path = tmp_path / "obs.csv"
        path.write_bytes(text.encode())
        data = sc.Dataset.from_csv(path)
        assert data.columns == ("X", "Y", "Z")
        assert data.rows.tolist() == parsed
        assert self._estimate(path, capsys)[0] == 0

    @pytest.mark.parametrize("text, error, message", [
        ("", sc.InputFormatError, "{path}: empty CSV file"),
        (_HEADER, sc.InputFormatError, "{path}: no data rows"),
        (_HEADER + "\r\n\r\n", sc.InputFormatError, "{path}: no data rows"),
        (_HEADER + "1,2,3\r\n   \r\n" + _ROWS, sc.InputFormatError, "{path}:3: ragged row"),
        (_HEADER + "1,2,3,\r\n" + _ROWS, sc.InputFormatError, "{path}:2: ragged row"),
        (_HEADER + "1,2\r\n" + _ROWS, sc.InputFormatError, "{path}:2: ragged row"),
        (_HEADER + "1,2,3\r\n2,1,5,7\r\n", sc.InputFormatError, "{path}:3: ragged row"),
        ("X,Y\r\n" + _ROWS, sc.InputFormatError, "{path}:2: ragged row"),
        (_HEADER + "1,2,3\r\n2,abc,5\r\n", sc.InputFormatError,
         "{path}:3: non-numeric or missing cell"),
        (_HEADER + "1,2,3\r\n\r\n2,abc,5\r\n", sc.InputFormatError,
         "{path}:4: non-numeric or missing cell"),
        (_HEADER + "1,,3\r\n", sc.InputFormatError, "{path}:2: non-numeric or missing cell"),
        (_HEADER + '"1,5",2,3\r\n', sc.InputFormatError,
         "{path}:2: non-numeric or missing cell"),
        (_HEADER + "# comment\r\n" + _ROWS, sc.InputFormatError, "{path}:2: ragged row"),
        ("X\r\n1\r\n#1\r\n", sc.InputFormatError, "{path}:3: non-numeric or missing cell"),
        (_HEADER + "nan,2,3\r\n" + _ROWS, sc.InputFormatError, "{path}:2: non-finite cell"),
        (_HEADER + "1e400,2,3\r\n" + _ROWS, sc.InputFormatError, "{path}:2: non-finite cell"),
        (_HEADER + _ROWS + "1_000,2,3\r\n", sc.InputFormatError,
         "{path}:5: non-numeric or missing cell"),
        (_HEADER + "\u0661,2,3\r\n" + _ROWS, sc.InputFormatError,
         "{path}:2: non-numeric or missing cell"),
        (b"X,Y,Z\r\n1,2\xe9,3\r\n4,5,6\r\n", sc.InputFormatError, "{path}:2: not valid UTF-8"),
        (b"X,\xe9,Z\r\n1,2,3\r\n", sc.InputFormatError, "{path}:1: not valid UTF-8"),
        ('X,Y\r\n"1\r\n",2\r\n3,x\r\n', sc.InputFormatError,
         "{path}:4: non-numeric or missing cell"),
        ('X,Y\r\n1,2\r\n"1\r\nx",2\r\n', sc.InputFormatError,
         "{path}:3: non-numeric or missing cell"),
        ("X,Y,Z" + "Z" * 200000 + "\r\n" + _ROWS, sc.InputFormatError,
         "{path}:1: field larger than field limit (131072)"),
        (_HEADER + '"' + "9" * 200000 + '",2,3\r\n' + _ROWS, sc.InputFormatError,
         "{path}:2: field larger than field limit (131072)"),
        ('X,Y\r\n"1\r\n",2\r\n"' + "9" * 200000 + '",2\r\n', sc.InputFormatError,
         "{path}:4: field larger than field limit (131072)"),
    ], ids=["empty", "header-only", "blank-only", "whitespace-line", "trailing-comma",
            "ragged-line-2", "ragged-line-3", "all-rows-wider", "text-cell",
            "text-cell-after-a-blank-line", "empty-cell",
            "quoted-comma", "hash-line", "hash-one-column", "nan", "overflow", "underscore",
            "arabic-indic-digit", "latin-1-cell", "latin-1-header", "after-a-quoted-line-end",
            "spanning-lines", "header-over-the-field-limit", "infinite-cell-over-the-field-limit",
            "field-limit-after-a-quoted-line-end"])
    def test_rejected(self, tmp_path, capsys, text, error, message):
        path = tmp_path / "obs.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        message = message.format(path=path)
        with pytest.raises(error) as info:
            sc.Dataset.from_csv(path)
        assert type(info.value) is error and str(info.value) == message
        assert self._estimate(path, capsys) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e400", '" NaN "'])
    def test_non_finite_cell_names_its_line(self, tmp_path, capsys, cell):
        path = tmp_path / "obs.csv"
        path.write_bytes((_HEADER + _ROWS + f"1,{cell},3\r\n" + _ROWS).encode())
        with pytest.raises(sc.InputFormatError, match=f"^{path}:5: non-finite cell$"):
            sc.Dataset.from_csv(path)
        assert self._estimate(path, capsys) == (2, f"error: {path}:5: non-finite cell\n")

    def test_duplicate_columns_name_the_file(self, tmp_path, capsys):
        path = tmp_path / "obs.csv"
        path.write_bytes((_HEADER.replace("Z", "X") + _ROWS).encode())
        with pytest.raises(sc.InputFormatError, match="^.*obs.csv: duplicate column names$"):
            sc.Dataset.from_csv(path)
        assert self._estimate(path, capsys) == (2, f"error: {path}: duplicate column names\n")

    @staticmethod
    def _estimate(path, capsys):
        code = run_command(["estimate", "--data", str(path), "--treatment", "X",
                            "--response", "Y", "--instruments", "Z"])
        return code, capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
class TestPipedCsv:
    """A --data file that cannot seek, such as a pipe, is read into memory once."""

    def test_a_pipe_gives_the_files_report(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_bytes((_HEADER + _ROWS * 10).encode())
        piped = self._estimate(input=path.read_bytes())
        with open(path, "rb") as fh:  # a redirected file is a regular file
            redirected = self._estimate(stdin=fh)
        assert (piped.returncode, piped.stderr) == (0, b"")
        assert piped.stdout == redirected.stdout and b"gamma_hat" in piped.stdout

    def test_a_bad_cell_in_a_pipe_names_its_line(self):
        result = self._estimate(input=(_HEADER + _ROWS + "1,abc,3\r\n").encode())
        assert result.returncode == 2
        assert result.stderr == b"error: /dev/stdin:5: non-numeric or missing cell\n"

    @staticmethod
    def _estimate(**stdin) -> subprocess.CompletedProcess:
        env = {**os.environ, "PYTHONPATH": str(Path(sc.__file__).parent.parent)}
        return subprocess.run(
            [sys.executable, "-c", "from semcontrol.cli import main; main()", "estimate",
             "--data", "/dev/stdin", "--treatment", "X", "--response", "Y",
             "--instruments", "Z"],
            env=env, capture_output=True, timeout=120, **stdin)


@pytest.fixture
def pools(monkeypatch):
    """Two usable CPUs on any machine; the worker counts of the pools that start."""
    if not hasattr(os, "fork"):
        pytest.skip("the worker pool forks")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = []
    in_workers = simulate._in_workers

    def spy(work, items, workers):
        started.append(workers)
        return in_workers(work, items, workers)

    monkeypatch.setattr(simulate, "_in_workers", spy)
    return started


def _outcome(path):
    """What Dataset.from_csv makes of a file: its columns and row bits, or its error."""
    try:
        data = sc.Dataset.from_csv(path)
    except (sc.InputFormatError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return data.columns, data.rows.tobytes()


def _single_pass_outcome(path, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_read_segments", lambda path: None)
        return _outcome(path)


@pytest.fixture
def route(tmp_path, monkeypatch):
    """The route that Dataset.from_csv takes: ``route()`` gives the spans that
    ``_parse_segment`` read, in this process or a forked worker, and whether
    ``_read_whole`` ran, since the last call."""
    log, whole = tmp_path / "spans.log", []
    parse, read_whole = simulate._parse_segment, simulate._read_whole

    def parse_spy(path, span):
        with open(log, "a") as fh:  # a forked worker's list would stay in the worker
            fh.write(f"{span[0]} {span[1]}\n")
        return parse(path, span)

    def whole_spy(path, data):
        whole.append(path)
        return read_whole(path, data)

    monkeypatch.setattr(simulate, "_parse_segment", parse_spy)
    monkeypatch.setattr(simulate, "_read_whole", whole_spy)

    def taken():
        spans = sorted(tuple(map(int, line.split()))
                       for line in (log.read_text() if log.exists() else "").splitlines())
        log.unlink(missing_ok=True)
        ran_whole = bool(whole)
        whole.clear()
        return spans, ran_whole

    return taken


_BODY = [f"{i},{i + 0.5},{-i}\r\n" for i in range(40)]


def _with_row(row: str, header: str = _HEADER) -> bytes:
    """A file of about ten 64-byte segments whose 22nd line is ``row``."""
    return (header + "".join(_BODY[:20]) + row + "".join(_BODY[20:])).encode()


class TestParallelCsv:
    """A file of several blocks or segments is formatted or parsed by forked workers,
    with the bytes and bits of the single pass."""

    def test_pool_writer_matches_row_writer(self, tmp_path, pools, monkeypatch):
        monkeypatch.setattr(simulate, "_CSV_BLOCK_CELLS", 40)
        values = np.random.default_rng(3).standard_normal((301, 7))
        values.flat[:len(_EDGE_VALUES)] = _EDGE_VALUES
        _assert_round_trip(tmp_path, sc.Dataset(tuple(f"v{j}" for j in range(7)), values))
        assert pools == [2]  # 61 blocks on two workers; the file is one segment

    @pytest.mark.parametrize("edit, started", [
        (lambda text: text, True),
        (lambda text: text.replace("\r\n", "\n"), True),
        (lambda text: text.replace("\r\n", "\r\n\r\n"), True),
        (lambda text: re.sub(r"(\d),", r"\1 , ", text), True),
        (lambda text: text[:-2], True),
        (lambda text: text.replace("\r\n", "\r"), False),  # no LF: one segment
    ], ids=["crlf", "lf", "blank-lines", "padded", "no-final-newline", "bare-cr"])
    def test_segments_parse_to_the_single_pass_bits(self, tmp_path, pools, monkeypatch, edit,
                                                    started):
        values = np.random.default_rng(4).standard_normal((200, 4))
        values.flat[:len(_EDGE_VALUES)] = _EDGE_VALUES
        columns = ("A", "B", "C", "D")
        path = tmp_path / "obs.csv"
        sc.Dataset(columns, values).to_csv(path)
        path.write_bytes(edit(path.read_bytes().decode()).encode())
        monkeypatch.setattr(simulate, "_CSV_SEGMENT_BYTES", 256)
        assert _outcome(path) == (columns, values.tobytes())
        assert pools == ([2] if started else [])
        assert _single_pass_outcome(path, monkeypatch) == (columns, values.tobytes())

    @pytest.mark.parametrize("cell, fault", [
        ("abc", "non-numeric or missing cell"),
        ("1_000", "non-numeric or missing cell"),
        ("nan", "non-finite cell"),
        ("1e400", "non-finite cell"),
        ("2,3", "ragged row"),
    ])
    def test_bad_cell_in_the_last_segment_names_its_line(self, tmp_path, capsys, pools,
                                                         monkeypatch, cell, fault):
        path = tmp_path / "obs.csv"
        path.write_bytes(_with_row("", _HEADER) + f"1,{cell},3\r\n".encode())
        monkeypatch.setattr(simulate, "_CSV_SEGMENT_BYTES", 64)
        message = f"{path}:42: {fault}"
        assert _outcome(path) == ("InputFormatError", message)
        assert pools == [2]
        assert TestMalformedCsv._estimate(path, capsys) == (2, f"error: {message}\n")

    def test_segments_of_another_width_name_the_first_ragged_row(self, tmp_path, pools,
                                                                  route, monkeypatch):
        # 16-byte rows: the 64-byte segments hold 5 rows each, and the width changes
        # between two segments, so every segment parses on its own; a width other than
        # the header's is a fault of the file, named without a second parse
        path = tmp_path / "obs.csv"
        path.write_bytes((_HEADER + "100,200,300000\r\n" * 20
                          + "1,20,300,40000\r\n" * 20).encode())
        monkeypatch.setattr(simulate, "_CSV_SEGMENT_BYTES", 64)
        assert _outcome(path) == ("InputFormatError", f"{path}:22: ragged row")
        assert pools == [2]
        assert not route()[1]

    @pytest.mark.parametrize("text, started, whole, fault", [
        (_with_row('"1.5","2",3\r\n'), True, False, None),
        (_with_row('"1"2,"2",3\r\n'), True, False, None),
        (_with_row('1,"' + "\n" * 100 + '2",3\r\n'), True, True, None),
        (_with_row('1,"1' + "\n" * 100 + '2",3\r\n'), True, True,
         ":22: non-numeric or missing cell"),
        # the row is longer than a segment, so a cut follows it: its segment ends inside
        # the quote, which np.loadtxt would accept, while the single pass reads on
        (_with_row('1,2,"3' + " " * 100 + "\r\n"), True, True,
         ":22: non-numeric or missing cell"),
        (_with_row("\u0661,2,3\r\n"), True, True, ":22: non-numeric or missing cell"),
        (_with_row("1,\u00a02,3\r\n"), True, False, None),
        (_with_row("1,2,3\r\n").replace(b"2,3\r\n", b"2\xe9,3\r\n", 1), True, True,
         ":22: not valid UTF-8"),
        (_with_row("1,2,3\r\n", '"X","Y","Z"\r\n'), False, True, None),
        (_with_row("1,2,3\r\n", '"X\nA",Y,Z\r\n'), False, True, None),
        (_with_row("1,2,3\r\n", "X,Y,Z\u00e9\r\n"), True, False, None),
        (_with_row("1,2,3\r\n", "X,Y,Z\r"), False, True, None),
        # the header is read before any segment, and the csv module refuses it
        (_with_row("1,2,3\r\n", "X,Y,Z" + "Z" * 200000 + "\r\n"), False, False,
         ":1: field larger than field limit (131072)"),
        (b"\xef\xbb\xbf" + _with_row("1,2,3\r\n"), True, False, None),
        (_with_row("1,2,3\r\n").replace(b"Z\r\n", b"Z\xe9\r\n", 1), True, False,
         ":1: not valid UTF-8"),
        (b"\n" + b"\r\n" * 100, True, False, ": no data rows"),
    ], ids=["quoted-cells", "open-and-close-in-one-cell", "quoted-line-ends-across-cuts",
            "quoted-text-across-cuts", "unterminated-quote-at-a-cut", "non-ascii-digit",
            "no-break-space", "latin-1-byte", "quoted-header", "quoted-line-end-in-header",
            "non-ascii-header", "bare-cr-after-header", "header-over-the-field-limit",
            "bom-header", "invalid-utf-8-header", "empty-header-over-blank-lines"])
    def test_quotes_and_non_ascii_give_the_single_pass_result(self, tmp_path, pools, route,
                                                             monkeypatch, text, started, whole,
                                                             fault):
        # UTF-8 and paired quotes stay in the segments; an odd count or a byte that is not
        # UTF-8 in one sends the file to the single pass, as does a header that is not
        # one plain line
        path = tmp_path / "obs.csv"
        path.write_bytes(text)
        monkeypatch.setattr(simulate, "_CSV_SEGMENT_BYTES", 64)
        parallel = _outcome(path)
        assert pools == ([2] if started else [])
        assert route()[1] == whole
        assert parallel == _single_pass_outcome(path, monkeypatch)
        if fault:
            assert parallel == ("InputFormatError", f"{path}{fault}")
        else:
            assert parallel[0] != "InputFormatError"

    def test_the_cpu_count_does_not_choose_the_route(self, tmp_path, pools, route,
                                                     monkeypatch):
        # on one CPU the segments are parsed in this process, on two by forked workers
        values = np.random.default_rng(7).standard_normal((200, 4))
        columns = ("A", "B", "C", "D")
        path = tmp_path / "obs.csv"
        sc.Dataset(columns, values).to_csv(path)
        monkeypatch.setattr(simulate, "_CSV_SEGMENT_BYTES", 256)
        routes = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            assert _outcome(path) == (columns, values.tobytes())
            routes.append(route())
        assert pools == [2]  # one block to write; the read on two CPUs
        spans, whole = routes[0]
        assert routes[1] == routes[0] and len(spans) > 20 and not whole
        assert _single_pass_outcome(path, monkeypatch) == (columns, values.tobytes())

    def test_quoted_cells_read_as_the_single_pass_reads_them(self, tmp_path, route,
                                                            monkeypatch):
        # random files of 24-byte segments whose cells open, close, double and leave
        # quotes open across line ends; every outcome, errors included, is the single pass's
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(simulate, "_CSV_SEGMENT_BYTES", 24)
        cells = ["1", '"3"', '" 4 "', '"5"6', '7"8', '"9', '""', '"1""2"', '"1\n2"',
                 '"3\r\n"', " 5 ", "x"]
        weights = np.array([8, 6, 4, 4, 0.25, 0.25, 0.25, 0.25, 0.25, 2, 4, 0.25])
        rng = np.random.default_rng(20)
        path = tmp_path / "obs.csv"
        quoted_in_segments = 0
        for _ in range(500):
            width = int(rng.integers(1, 4))
            lines = [",".join(rng.choice(cells, width, p=weights / weights.sum()))
                     for _ in range(rng.integers(1, 10))]
            ends = rng.choice(["\r\n", "\n", "\r\n\r\n"], len(lines), p=[0.6, 0.3, 0.1])
            text = ",".join("ABC"[:width]) + "\r\n" + "".join(map(str.__add__, lines, ends))
            path.write_bytes(text.encode())
            route()  # forget the last file's single pass
            outcome = _outcome(path)
            quoted_in_segments += '"' in text and not route()[1]
            assert outcome == _single_pass_outcome(path, monkeypatch), text
        assert quoted_in_segments > 100

    @pytest.mark.parametrize("machine", ["one-cpu", "no-fork"])
    def test_serial_where_workers_cannot_help(self, tmp_path, pools, monkeypatch, machine):
        if machine == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        else:
            monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(simulate, "_CSV_BLOCK_CELLS", 40)
        monkeypatch.setattr(simulate, "_CSV_SEGMENT_BYTES", 256)
        values = np.random.default_rng(5).standard_normal((301, 7))
        _assert_round_trip(tmp_path, sc.Dataset(tuple(f"v{j}" for j in range(7)), values))
        assert pools == []

    @pytest.mark.parametrize("command, patch, failure", [
        ("simulate", "_csv_lines = lambda block: os._exit(3)", "BrokenProcessPool: "),
        ("simulate", "_csv_lines = lambda block: 1 / 0",
         "ZeroDivisionError: division by zero"),
        ("estimate", "_parse_segment = lambda path, span: os._exit(3)", "BrokenProcessPool: "),
    ], ids=["writer-dies", "writer-raises", "reader-dies"])
    def test_failed_worker_exits_two_and_writes_nothing(self, tmp_path, command, patch,
                                                       failure):
        if not hasattr(os, "fork"):
            pytest.skip("the worker pool forks")
        model, data, out = tmp_path / "model.json", tmp_path / "obs.csv", tmp_path / "out.csv"
        sc.save_model(sc.iverson_model(), model)
        data.write_bytes(_with_row("1,2,3\r\n"))
        out.write_text("old\n")
        argv = (["simulate", "--model", str(model), "--n", "300", "--out", str(out)]
                if command == "simulate" else
                ["estimate", "--data", str(data), "--treatment", "X", "--response", "Y",
                 "--instruments", "Z"])
        script = (
            "import os, sys; sys.path.insert(0, sys.argv[1])\n"
            "from semcontrol import cli, simulate\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "simulate._CSV_BLOCK_CELLS = 40\n"
            "simulate._CSV_SEGMENT_BYTES = 64\n"
            f"simulate.{patch}\n"
            "sys.exit(cli.run_command(sys.argv[2:]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(Path(sc.__file__).parent.parent), *argv],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: a CSV worker process failed: {failure}")
        assert result.stderr.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "obs.csv", "out.csv"]
        assert out.read_text() == "old\n"


class TestIVEstimate:
    def test_study_ratio(self, iverson_moments):
        est = sc.iv_estimate(iverson_moments, "X", "Y", "Z3")
        assert est.gamma_hat == pytest.approx(0.003 / 0.061, abs=1e-15)
        assert est.gamma_hat == pytest.approx(0.0492, abs=5e-5)
        # the study's own rounding keeps three decimals
        assert round(est.gamma_hat, 3) == 0.049
        assert est.denominator == pytest.approx(0.061)

    def test_equal_covariances_give_unit_effect(self):
        cov = np.array([
            [1.0, 0.5, 0.3],
            [0.5, 1.0, 0.3],
            [0.3, 0.3, 1.0],
        ])
        mom = sc.MomentSummary(("Y", "X", "Z"), np.zeros(3), cov)
        assert sc.iv_estimate(mom, "X", "Y", "Z").gamma_hat == 1.0

    def test_recovers_known_effect_from_draws(self, loop_with_instrument):
        data = sc.draw_equilibrium(loop_with_instrument, sc.SimulationConfig(200_000, seed=3))
        mom = sc.sample_moments(data)
        est = sc.iv_estimate(mom, "X", "Y", "Z")
        se = _iv_stderr(data, "X", "Y", "Z", est.gamma_hat)
        assert abs(est.gamma_hat - 0.5) < 5 * se

    def test_weak_instrument_rejected(self):
        cov = np.eye(3)
        cov[0, 1] = cov[1, 0] = 0.4
        mom = sc.MomentSummary(("Y", "X", "Z"), np.zeros(3), cov)
        with pytest.raises(sc.WeakInstrument):
            sc.iv_estimate(mom, "X", "Y", "Z")

    def test_consistency_across_seeds(self, loop_with_instrument):
        estimates = []
        for seed in range(20):
            data = sc.draw_equilibrium(
                loop_with_instrument, sc.SimulationConfig(100_000, seed=seed)
            )
            mom = sc.sample_moments(data)
            estimates.append(sc.iv_estimate(mom, "X", "Y", "Z").gamma_hat)
        estimates = np.array(estimates)
        spread = estimates.std(ddof=1)
        assert abs(estimates.mean() - 0.5) < 5 * spread / np.sqrt(len(estimates))
        assert np.all(np.abs(estimates - 0.5) < 5 * spread)


class TestTSLSEstimate:
    def test_single_instrument_equals_iv(self, iverson_moments):
        iv = sc.iv_estimate(iverson_moments, "X", "Y", "Z3")
        tsls = sc.tsls_estimate(iverson_moments, "X", "Y", ("Z3",))
        assert tsls.gamma_hat == pytest.approx(iv.gamma_hat, abs=1e-12)

    def test_two_instruments_recover_known_effect(self):
        model = sc.StructuralModel.from_edges(
            [("X", "Y", 0.5), ("Y", "X", 0.3), ("Z1", "X", 0.8), ("Z2", "X", -0.6)],
            variables=["Y", "X", "Z1", "Z2"],
        )
        data = sc.draw_equilibrium(model, sc.SimulationConfig(200_000, seed=8))
        mom = sc.sample_moments(data)
        est = sc.tsls_estimate(mom, "X", "Y", ("Z1", "Z2"))
        se1 = _iv_stderr(data, "X", "Y", "Z1", est.gamma_hat)
        assert abs(est.gamma_hat - 0.5) < 5 * se1
        assert est.denominator > 0.0

    def test_duplicated_instrument_is_rank_deficient(self, iverson_moments):
        with pytest.raises(sc.SingularInstrumentBlock):
            sc.tsls_estimate(iverson_moments, "X", "Y", ("Z3", "Z3"))

    def test_weak_projected_variance_rejected(self):
        cov = np.eye(3)
        cov[0, 1] = cov[1, 0] = 0.4
        mom = sc.MomentSummary(("Y", "X", "Z"), np.zeros(3), cov)
        with pytest.raises(sc.WeakInstrument):
            sc.tsls_estimate(mom, "X", "Y", ("Z",))

    def test_no_instruments_rejected(self, iverson_moments):
        with pytest.raises(ValueError):
            sc.tsls_estimate(iverson_moments, "X", "Y", ())


class TestCovarianceFiles:
    def test_load_covariance(self, tmp_path):
        path = tmp_path / "cov.json"
        path.write_text(
            '{"variables": ["A", "B"], "matrix": [[1.0, 0.2], [0.2, 2.0]], "n": 10}'
        )
        mom = sc.load_covariance(path)
        assert mom.n_obs == 10
        assert np.allclose(mom.mean, 0.0)
        assert mom.cov("A", "B") == 0.2

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cov.json"
        path.write_text('{"variables": ["A"], "matrix": [[1.0]], "junk": 0}')
        with pytest.raises(sc.InputFormatError, match="unknown covariance keys"):
            sc.load_covariance(path)

    def test_asymmetric_matrix_rejected(self, tmp_path):
        path = tmp_path / "cov.json"
        path.write_text('{"variables": ["A", "B"], "matrix": [[1.0, 0.5], [0.2, 1.0]]}')
        with pytest.raises(sc.InputFormatError, match="symmetric"):
            sc.load_covariance(path)


class TestBundledFixtures:
    def test_fixtures_load_from_a_zipped_package(self, tmp_path):
        package = Path(sc.__file__).parent
        archive = tmp_path / "semcontrol.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for path in package.rglob("*"):
                if path.is_file() and "__pycache__" not in path.parts:
                    zf.write(path, path.relative_to(package.parent))
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]); import semcontrol as sc; "
            "assert sc.__file__.startswith(sys.argv[1]), sc.__file__; "
            "print(sc.iverson_moments().n_obs, sc.iverson_model().n_variables)"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        result = subprocess.run(
            [sys.executable, "-c", script, str(archive)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["213", "5"]

    def test_published_covariance_values(self, iverson_moments):
        assert iverson_moments.variables == ("Y", "X", "Z1", "Z2", "Z3")
        assert iverson_moments.var("Y") == 1.041
        assert iverson_moments.cov("X", "Z3") == 0.061
        assert iverson_moments.n_obs == 213

    def test_fitted_model_reproduces_the_published_covariance(
        self, iverson_model, iverson_moments
    ):
        implied = sc.implied_moments(iverson_model)
        assert np.abs(implied.covariance - iverson_moments.covariance).max() < 1e-12
        assert np.abs(implied.mean).max() < 1e-12

    def test_instrument_exclusion_in_fitted_model(self, iverson_model):
        # Z3 reaches Y only through X, which is what makes it an instrument
        assert not iverson_model.diagram.has_edge("Z3", "Y")
        assert iverson_model.diagram.has_edge("Z3", "X")
