import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from mvgdp import (
    AllocationError,
    ConfigError,
    ContractViolationError,
    DataBounds,
    EvalReport,
    Experiment,
    ExperimentConfig,
    FormatError,
    MechanismKind,
    PrecisionAllocation,
    PrivacyParams,
    QueryKind,
    QuerySpec,
    RandomStream,
    ReportFormat,
    ShapeError,
    covariance_sensitivity,
    covariance_sensitivity_l1,
    delta_rho,
    derive_directions_dp,
    emit_report,
    format_significant,
    gamma_covariance,
    gaussian_iid_baseline,
    gaussian_noise_scale,
    laplace_iid_baseline,
    load_csv_matrix,
    load_dense_csv,
    mean_ci95,
    mvg_equimodal,
    mvg_unimodal,
    parse_directions_source,
    parse_theta_spec,
    ridge_regression_rmse,
    rss,
    run_experiment,
)
from mvgdp import budget, harness, mechanisms, sensitivity
from mvgdp.harness import read_csv_gram
from mvgdp.mechanisms import plan_directions_dp, trials_per_chunk
from mvgdp.sensitivity import AuditedGram


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsvMatrix:
    def test_header_and_transpose(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3,4\n")
        matrix, names = load_csv_matrix(path, has_header=True)
        assert names == ["a", "b"]
        assert np.array_equal(matrix, np.array([[1.0, 3.0], [2.0, 4.0]]))

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "e.csv", "")
        with pytest.raises(FormatError, match="no data rows"):
            load_csv_matrix(path)

    def test_single_row_becomes_column(self, tmp_path):
        path = write(tmp_path, "r.csv", "1,2,3\n")
        matrix, names = load_csv_matrix(path, has_header=False)
        assert names is None
        assert matrix.shape == (3, 1)

    def test_ragged_rows_report_line(self, tmp_path):
        path = write(tmp_path, "bad.csv", "1,2\n3,4,5\n")
        with pytest.raises(FormatError, match="line 2"):
            load_csv_matrix(path)

    def test_non_numeric_reports_cell(self, tmp_path):
        path = write(tmp_path, "bad.csv", "1,2\n3,oops\n")
        with pytest.raises(FormatError, match="line 2, column 2"):
            load_csv_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="not found"):
            load_csv_matrix(tmp_path / "nope.csv")

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "d.csv", "1,2\n\n3,4\n")
        matrix, _ = load_csv_matrix(path)
        assert matrix.shape == (2, 2)

    # Excel's "CSV UTF-8" files start with a UTF-8 byte-order mark
    def test_byte_order_mark_is_not_part_of_the_first_cell(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.0,2\n3,4\n")
        matrix, names = load_csv_matrix(path)
        assert names is None
        assert np.array_equal(matrix, np.array([[1.0, 3.0], [2.0, 4.0]]))

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n")
        matrix, names = load_csv_matrix(path, has_header=True)
        assert names == ["a", "b"]
        assert np.array_equal(matrix, np.array([[1.0], [2.0]]))


class TestLoaderParity:
    """The vectorized loader against ``float()`` and the file's own lines."""

    def test_values_bit_identical_to_float(self, tmp_path):
        cells = [["4.9e-324", "1e-320", "0.12345678901234567"],
                 ["-0.0", "1.7976931348623157e308", "2.2250738585072014e-308"],
                 [" 0.30000000000000004 ", '"3.25"', '" -7.5e-5 "']]
        text = "".join(",".join(row) + "\r\n" for row in cells)
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode("utf-8"))
        matrix, _ = load_csv_matrix(path)
        expected = np.array([[float(cell.strip().strip('"')) for cell in row]
                             for row in cells])
        assert matrix.T.tobytes() == expected.tobytes()
        assert np.signbit(matrix[0, 1])  # -0.0 keeps its sign

    def test_result_is_transpose_of_c_ordered_records(self, tmp_path):
        path = write(tmp_path, "d.csv", "1,2,3\n4,5,6\n")
        matrix, _ = load_csv_matrix(path)
        assert matrix.T.flags.c_contiguous
        assert np.array_equal(load_dense_csv(path), matrix.T)

    def test_hash_cell_is_data_not_comment(self, tmp_path):
        path = write(tmp_path, "h.csv", "1,2\n#3,4\n")
        with pytest.raises(FormatError, match="line 2, column 1: '#3'"):
            load_csv_matrix(path)

    def test_underscore_digits_rejected(self, tmp_path):
        path = write(tmp_path, "u.csv", "1,1_000\n")
        with pytest.raises(FormatError, match="line 1, column 2"):
            load_csv_matrix(path)

    def test_bad_cell_after_header_and_blank_lines(self, tmp_path):
        path = write(tmp_path, "b.csv", "\na,b\n\n1,2\n  \n\n3,x\n4,5\n")
        with pytest.raises(FormatError, match="line 7, column 2: 'x'"):
            load_csv_matrix(path, has_header=True)

    def test_ragged_row_after_blank_lines(self, tmp_path):
        path = write(tmp_path, "r.csv", "1,2\n\n \t\n3,4,5\n")
        with pytest.raises(FormatError, match="line 4 has 3 cells, expected 2"):
            load_csv_matrix(path)

    def test_bad_cell_deep_in_file(self, tmp_path):
        good = "".join(f"{i},{i / 7}\n" for i in range(5000))
        path = write(tmp_path, "deep.csv", good + "1,nope\n" + good)
        with pytest.raises(FormatError, match="line 5001, column 2"):
            load_csv_matrix(path)

    def test_header_width_mismatch(self, tmp_path):
        path = write(tmp_path, "w.csv", "a,b,c\n\n1,2\n")
        with pytest.raises(FormatError, match="line 3 has 2 cells, expected 3"):
            load_csv_matrix(path, has_header=True)

    def test_whitespace_and_empty_cell_lines_skipped(self, tmp_path):
        path = write(tmp_path, "s.csv", '  \n1,2\n \t \n,\n"", \n3,4\n\n')
        matrix, _ = load_csv_matrix(path)
        assert np.array_equal(matrix, np.array([[1.0, 3.0], [2.0, 4.0]]))

    def test_header_only_has_no_data(self, tmp_path):
        path = write(tmp_path, "ho.csv", "a,b\n\n")
        with pytest.raises(FormatError, match="no data rows"):
            load_csv_matrix(path, has_header=True)


def integer_rows(n_rows, width=2):
    # small integers: every Gram sum is exact, however it is blocked
    return [[(3 * i + j) % 7 - 3 for j in range(width)] for i in range(n_rows)]


def csv_text(rows):
    return "".join(",".join(str(v) for v in row) + "\n" for row in rows)


def tall_dataset(tmp_path, n_records):
    # 16 features of falling scale in [-1, 1]; a 4096-record block holds
    # GRAM_BLOCK_CELLS cells, so 10 000 records span three blocks
    rng = np.random.default_rng(6)
    x = np.linspace(1.0, 0.25, 16)[:, None] * rng.uniform(-1.0, 1.0, (16, n_records))
    path = tmp_path / "tall.csv"
    np.savetxt(path, x.T, delimiter=",", fmt="%.17g")
    return path, x


class TestGramReader:
    """``read_csv_gram`` streams the file in blocks through the parser
    ``load_csv_matrix`` uses; these tests shrink the block so small files
    span several."""

    @pytest.fixture
    def three_row_blocks(self, monkeypatch):
        # 2-cell rows, so blocks of 3 rows: lines 1-3, 4-6, 7-9, ...
        monkeypatch.setattr(sensitivity, "GRAM_BLOCK_CELLS", 6)

    def test_gram_of_many_blocks_is_exact_on_integers(self, tmp_path,
                                                      three_row_blocks):
        rows = integer_rows(10)
        path = write(tmp_path, "d.csv", csv_text(rows))
        gram = read_csv_gram(path, -3.0, 3.0)
        x = np.array(rows, dtype=float).T
        assert np.array_equal(gram.gram, x @ x.T)
        assert gram.bounds == DataBounds(2, 10, -3.0, 3.0)
        assert not gram.gram.flags.writeable

    @pytest.mark.parametrize("line", [2, 4, 8])
    def test_bad_cell_names_its_line(self, tmp_path, three_row_blocks, line):
        lines = csv_text(integer_rows(10)).splitlines(keepends=True)
        lines[line - 1] = "1,oops\n"
        path = write(tmp_path, "d.csv", "".join(lines))
        with pytest.raises(FormatError, match=f"line {line}, column 2: 'oops'"):
            read_csv_gram(path, -3.0, 3.0)

    # line 4 opens the second block, line 5 is inside it
    @pytest.mark.parametrize("line", [4, 5, 10])
    def test_ragged_row_names_its_line(self, tmp_path, three_row_blocks, line):
        lines = csv_text(integer_rows(10)).splitlines(keepends=True)
        lines[line - 1] = "1,2,3\n"
        path = write(tmp_path, "d.csv", "".join(lines))
        with pytest.raises(FormatError, match=f"line {line} has 3 cells, expected 2"):
            read_csv_gram(path, -3.0, 3.0)

    def test_a_whole_block_of_wider_rows_names_its_first_line(self, tmp_path,
                                                              three_row_blocks):
        path = write(tmp_path, "d.csv", csv_text(integer_rows(3))
                     + csv_text(integer_rows(3, width=3)))
        with pytest.raises(FormatError, match="line 4 has 3 cells, expected 2"):
            read_csv_gram(path, -3.0, 3.0)

    def test_nan_in_a_later_block_names_no_value_or_line(self, tmp_path,
                                                         three_row_blocks):
        lines = csv_text(integer_rows(10)).splitlines(keepends=True)
        lines[7] = "1,nan\n"
        path = write(tmp_path, "d.csv", "".join(lines))
        with pytest.raises(ContractViolationError,
                           match="^the data holds a cell that is not a number") as info:
            read_csv_gram(path, -3.0, 3.0)
        message = str(info.value)
        assert "nan" not in message.lower() and "line" not in message
        assert "8" not in message and "d.csv" not in message

    @pytest.mark.parametrize("cell", ["3.5", "inf", "-inf"])
    def test_value_outside_the_box_is_clamped(self, tmp_path, three_row_blocks, cell):
        lines = csv_text(integer_rows(10)).splitlines(keepends=True)
        lines[4] = f"1,{cell}\n"
        gram = read_csv_gram(write(tmp_path, "d.csv", "".join(lines)), -3.0, 3.0)
        lines[4] = f"1,{float(np.clip(float(cell), -3.0, 3.0))!r}\n"
        clipped = read_csv_gram(write(tmp_path, "c.csv", "".join(lines)), -3.0, 3.0)
        assert gram.gram.tobytes() == clipped.gram.tobytes()
        assert gram.bounds == clipped.bounds == DataBounds(2, 10, -3.0, 3.0)

    def test_blank_lines_across_a_block_boundary_are_skipped(self, tmp_path,
                                                             three_row_blocks):
        rows = integer_rows(7)
        lines = csv_text(rows).splitlines(keepends=True)
        text = ("".join(lines[:3]) + "\n,,\n \t\n" + "".join(lines[3:6])
                + '"",\n\n' + lines[6])
        path = write(tmp_path, "d.csv", text)
        gram = read_csv_gram(path, -3.0, 3.0)
        x = np.array(rows, dtype=float).T
        assert gram.bounds.num_samples == 7
        assert np.array_equal(gram.gram, x @ x.T)

    def test_byte_order_mark_and_header(self, tmp_path, three_row_blocks):
        rows = integer_rows(8)
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n" + csv_text(rows).encode())
        gram = read_csv_gram(path, -3.0, 3.0, has_header=True)
        x = np.array(rows, dtype=float).T
        assert np.array_equal(gram.gram, x @ x.T)
        path.write_bytes(b"\xef\xbb\xbf" + csv_text(rows).encode())
        assert np.array_equal(read_csv_gram(path, -3.0, 3.0).gram, x @ x.T)

    def test_header_width_mismatch(self, tmp_path, three_row_blocks):
        path = write(tmp_path, "w.csv", "a,b,c\n\n" + csv_text(integer_rows(5)))
        with pytest.raises(FormatError, match="line 3 has 2 cells, expected 3"):
            read_csv_gram(path, -3.0, 3.0, has_header=True)

    @pytest.mark.parametrize("text", ["", "\n,,\n"])
    def test_no_data_rows(self, tmp_path, text):
        path = write(tmp_path, "e.csv", text)
        with pytest.raises(FormatError, match="no data rows"):
            read_csv_gram(path, 0.0, 1.0)

    @pytest.mark.parametrize("tail", ["", "\n\n,\n"])
    def test_an_empty_tail_block_parses_nothing(self, tmp_path, three_row_blocks,
                                                tail):
        # 9 rows fill three blocks exactly; no fourth loadtxt may run on
        # nothing, which would warn "input contained no data"
        path = write(tmp_path, "d.csv", csv_text(integer_rows(9)) + tail)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_csv_gram(path, -3.0, 3.0).bounds.num_samples == 9

    def test_one_block_is_one_product_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1.0, 1.0, (16, 4000))  # under one 4096-row block
        path = tmp_path / "d.csv"
        np.savetxt(path, x.T, delimiter=",", fmt="%.17g")
        gram = read_csv_gram(path, -1.0, 1.0)
        x, _ = load_csv_matrix(path)
        assert gram.gram.tobytes() == (x @ x.T).tobytes()
        assert AuditedGram.of(x, -1.0, 1.0).gram.tobytes() == (x @ x.T).tobytes()

    def test_many_blocks_are_one_product_to_rounding(self, tmp_path):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1.0, 1.0, (16, 10000))  # three 4096-row blocks
        path = tmp_path / "d.csv"
        np.savetxt(path, x.T, delimiter=",", fmt="%.17g")
        gram = read_csv_gram(path, -1.0, 1.0).gram
        x, _ = load_csv_matrix(path)
        product = x @ x.T
        assert np.max(np.abs(gram - product)) <= 1e-12 * np.max(np.abs(product))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_records_in_memory_give_the_streamed_gram_bit_for_bit(self, tmp_path,
                                                                  order):
        path, x = tall_dataset(tmp_path, 10000)
        streamed = read_csv_gram(path, -1.0, 1.0)
        in_memory = AuditedGram.of(np.asarray(x, order=order), -1.0, 1.0)
        assert in_memory.gram.tobytes() == streamed.gram.tobytes()
        assert in_memory.bounds.num_samples == streamed.bounds.num_samples == 10000

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_gram_of_records_in_memory_copies_nothing(self, order):
        # X takes 16 * 40 000 * 8 B = 5.1 MB, a block of records 512 KiB
        rng = np.random.default_rng(6)
        x = np.asarray(rng.uniform(-1.0, 1.0, (16, 40000)), order=order)
        tracemalloc.start()
        try:
            AuditedGram.of(x, -1.0, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * sensitivity.GRAM_BLOCK_CELLS * 8

    def test_records_outside_the_box_in_a_late_block_are_clamped(self):
        x = np.random.default_rng(6).uniform(-0.5, 0.5, (16, 50000))
        x[0, 0], x[3, 49000] = -np.inf, 1.5  # in the first and the last block
        gram = AuditedGram.of(x, -1.0, 1.0)
        clipped = AuditedGram.of(np.clip(x, -1.0, 1.0), -1.0, 1.0)
        assert gram.gram.tobytes() == clipped.gram.tobytes()
        assert x[3, 49000] == 1.5  # the caller's records are not written

    def test_directions_from_the_records_equal_directions_from_the_file(
            self, tmp_path):
        path, x = tall_dataset(tmp_path, 10000)
        bounds = DataBounds(16, 10000, -1.0, 1.0)
        p = PrivacyParams(0.2, 0.002)
        plan = plan_directions_dp(read_csv_gram(path, -1.0, 1.0), p)
        drawn = derive_directions_dp(x, p, 2, RandomStream(3), bounds=bounds)
        assert drawn.tobytes() == plan.draw(RandomStream(3)).tobytes()

    def test_audited_gram_needs_an_audit(self):
        with pytest.raises(TypeError):
            AuditedGram(np.eye(2), 2, 5, 0.0, 1.0)
        # every 2.0 is clamped to 1.0, and a NaN cannot be
        assert np.array_equal(AuditedGram.of(np.full((2, 3), 2.0), 0.0, 1.0).gram,
                              np.full((2, 2), 3.0))
        with pytest.raises(ContractViolationError, match="not a number"):
            AuditedGram.of(np.full((2, 3), np.nan), 0.0, 1.0)
        with pytest.raises(ShapeError, match="at least one block of records"):
            AuditedGram.of(np.zeros((2, 0)), 0.0, 1.0)
        for x in (np.zeros(5), np.zeros((0, 5))):
            with pytest.raises(ShapeError, match="must be M x N with M >= 1"):
                AuditedGram.of(x, 0.0, 1.0)

    def test_plan_directions_dp_takes_only_the_gram(self, tmp_path):
        _, data = covariance_dataset(tmp_path)
        p = PrivacyParams(0.2, 0.002)
        gram = AuditedGram.of(data, -1.0, 1.0)
        plan = plan_directions_dp(gram, p)
        assert plan.covariance.tobytes() == (gram.gram / data.shape[1]).tobytes()
        with pytest.raises(TypeError, match=r"AuditedGram\.of\(x, lo, hi\)"):
            plan_directions_dp(data, p)

    def test_direction_noise_follows_the_grams_own_box(self, tmp_path):
        # the box the records were audited against sets the sensitivity,
        # so no declared box can narrow the direction noise
        _, data = covariance_dataset(tmp_path)
        p = PrivacyParams(0.2, 0.002)
        m, n = data.shape
        sds = [plan_directions_dp(AuditedGram.of(data, lo, hi), p).noise_sd
               for lo, hi in ((-1.0, 1.0), (-2.0, 2.0))]
        assert sds == [gaussian_noise_scale(covariance_sensitivity(
                           DataBounds(m, n, lo, hi)), p)
                       for lo, hi in ((-1.0, 1.0), (-2.0, 2.0))]
        assert sds[1] == pytest.approx(4.0 * sds[0])

    @pytest.mark.parametrize("experiment", [Experiment.FIRST_PC,
                                            Experiment.DIRECTION_ABLATION])
    def test_run_from_the_file_equals_run_from_the_records(self, tmp_path,
                                                           experiment):
        path, data = covariance_dataset(tmp_path)
        cfg = base_config(path, DataBounds(3, data.shape[1], -1.0, 1.0),
                          MechanismKind.MVG_EQUIMODAL, experiment,
                          theta_spec="binary:0.9:0", directions_source="dp:0.2",
                          trials=5)
        x, _ = load_csv_matrix(path)
        gram = read_csv_gram(path, -1.0, 1.0)
        assert run_experiment(cfg) == run_experiment(cfg, data=x)
        assert run_experiment(cfg) == run_experiment(cfg, data=gram)

    @pytest.mark.parametrize("experiment, directions", [
        (Experiment.FIRST_PC, "standard"),
        (Experiment.FIRST_PC, "dp:0.2"),
        (Experiment.DIRECTION_ABLATION, "dp:0.2"),
    ])
    def test_run_from_many_blocks_equals_run_from_the_records(self, tmp_path,
                                                               experiment, directions):
        path, x = tall_dataset(tmp_path, 10000)
        cfg = base_config(path, DataBounds(16, 10000, -1.0, 1.0),
                          MechanismKind.MVG_EQUIMODAL, experiment,
                          theta_spec="binary:0.9:0,1", directions_source=directions,
                          trials=5)
        assert run_experiment(cfg) == run_experiment(cfg, data=x)

    def test_records_experiments_reject_a_gram(self, tmp_path):
        path, data = covariance_dataset(tmp_path)
        cfg = base_config(path, DataBounds(3, data.shape[1], -1.0, 1.0),
                          MechanismKind.MVG_UNIMODAL, Experiment.COVARIANCE_ESTIMATION)
        with pytest.raises(ConfigError, match="releases the records"):
            run_experiment(cfg, data=read_csv_gram(path, -1.0, 1.0))

    def test_a_gram_of_another_box_is_rejected(self, tmp_path):
        path, data = covariance_dataset(tmp_path)
        cfg = base_config(path, DataBounds(3, data.shape[1], -1.0, 1.0),
                          MechanismKind.MVG_EQUIMODAL, Experiment.FIRST_PC)
        with pytest.raises(ConfigError, match="audited against"):
            run_experiment(cfg, data=read_csv_gram(path, -2.0, 2.0))

    def test_firstpc_run_memory_stays_within_blocks(self, tmp_path):
        # at 16 features a 16 x 40 000 dataset spans ten 4096-row blocks;
        # holding X would take 40 000 * 16 * 8 B = 5.1 MB
        path, _ = tall_dataset(tmp_path, 40000)
        cfg = base_config(path, DataBounds(16, 40000, -1.0, 1.0),
                          MechanismKind.MVG_EQUIMODAL, Experiment.FIRST_PC,
                          theta_spec="binary:0.9:0,1", directions_source="dp:0.2",
                          trials=5)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            report = run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.trials == 5
        assert peak - before < 4 * sensitivity.GRAM_BLOCK_CELLS * 8


class TestLoadDenseCsv:
    def test_no_transpose(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,2\n3,4\n")
        assert np.array_equal(load_dense_csv(path),
                              np.array([[1.0, 2.0], [3.0, 4.0]]))


class TestThetaSpecParsing:
    def test_uniform(self):
        theta = parse_theta_spec("uniform", 3)
        assert np.allclose(theta.theta, 1 / 3)

    def test_binary(self):
        theta = parse_theta_spec("binary:0.8:0,1", 4)
        assert np.allclose(theta.theta, [0.4, 0.4, 0.1, 0.1])

    def test_explicit(self):
        theta = parse_theta_spec("0.4,0.4,0.1,0.1", 4)
        assert np.allclose(theta.theta, [0.4, 0.4, 0.1, 0.1])

    def test_binary_grammar_sorts_the_favored_set(self):
        assert harness.parse_theta_grammar("binary:0.8:2,0,2") == (0.8, [0, 2])

    @pytest.mark.parametrize("spec, message", [
        ("binary:1.5:0", "tau must lie in (0, 1), got 1.5"),
        ("binary:0:0", "tau must lie in (0, 1), got 0.0"),
        ("binary:nan:0", "tau must lie in (0, 1), got nan"),
        ("binary:0.9:", "favored index set must not be empty"),
        ("binary:0.9:,", "favored index set must not be empty"),
        ("binary:0.9:0,-1", "favored indices [-1, 0] must not be negative"),
    ])
    def test_binary_rules_that_need_no_m(self, spec, message):
        with pytest.raises(AllocationError, match=re.escape(message)):
            harness.parse_theta_grammar(spec)

    @pytest.mark.parametrize("spec, message", [
        ("0.5,-1,0.5", "every allocation share must be positive"),
        ("0.5,0,0.5", "every allocation share must be positive"),
        ("0.5,nan,0.5", "theta must be finite"),
        ("0.5,inf", "theta must be finite"),
    ])
    def test_share_rules_that_need_no_m(self, spec, message):
        with pytest.raises(AllocationError, match=re.escape(message)):
            harness.parse_theta_grammar(spec)

    def test_errors(self):
        with pytest.raises(ConfigError):
            parse_theta_spec("binary:0.8", 4)
        with pytest.raises(ConfigError):
            parse_theta_spec("binary:x:0", 4)
        with pytest.raises(ConfigError):
            parse_theta_spec("0.5,0.5", 3)
        with pytest.raises(ConfigError):
            parse_theta_spec("a,b,c", 3)


class TestDirectionsParsing:
    def test_forms(self):
        assert parse_directions_source("standard") == ("standard", None)
        assert parse_directions_source("dp:0.2") == ("dp", 0.2)
        assert parse_directions_source("w.csv") == ("file", "w.csv")

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            parse_directions_source("dp:1.5")
        with pytest.raises(ConfigError):
            parse_directions_source("dp:abc")


class TestFormatting:
    def test_six_significant_digits(self):
        assert format_significant(0.01624) == "0.0162400"
        assert format_significant(0.00026) == "0.000260000"
        assert format_significant(0.0) == "0"
        assert format_significant(123456.7) == "123457"
        assert format_significant(1000.0) == "1000.00"
        assert format_significant(-0.01624) == "-0.0162400"

    @pytest.mark.parametrize("x, text", [
        (9.9999996, "10.0000"),
        (99999.96, "100000"),
        (-9.9999996, "-10.0000"),
        (0.099999996, "0.100000"),
    ])
    def test_rounding_carry_keeps_six_digits(self, x, text):
        assert format_significant(x) == text

    @pytest.mark.parametrize("x, text", [(float("nan"), "nan"), (float("inf"), "inf"),
                                         (-float("inf"), "-inf")])
    def test_a_non_finite_value_is_named(self, x, text):
        assert format_significant(x) == text

    @pytest.mark.parametrize("fmt", ["text", "csv", None])
    def test_a_format_that_is_not_a_report_format_is_rejected(self, fmt):
        with pytest.raises(ConfigError, match=f"fmt must be a ReportFormat, got {fmt!r}"):
            emit_report(EvalReport("RMSE", 0.5, 0.0, 1), fmt)

    def test_text_report_layout(self):
        report = EvalReport("RMSE", 0.01624, 0.00026, 100)
        out = emit_report(report, ReportFormat.TEXT)
        assert out == "metric=RMSE mean=0.0162400 ci95=±0.000260000 trials=100\n".encode()

    def test_single_trial_zero_width(self):
        report = EvalReport("RMSE", 0.5, 0.0, 1)
        out = emit_report(report, ReportFormat.TEXT).decode()
        assert "ci95=±0 " in out

    def test_csv_round_trip(self):
        report = EvalReport("RSS", 0.0666123, 0.0019312, 100)
        out = emit_report(report, ReportFormat.CSV).decode()
        header, row = out.strip().split("\n")
        assert header == "metric,mean,ci95,trials"
        name, mean, ci, trials = row.split(",")
        assert name == "RSS"
        assert float(mean) == pytest.approx(report.mean, rel=1e-5)
        assert float(ci) == pytest.approx(report.ci95_half_width, rel=1e-5)
        assert int(trials) == 100

    def test_multiple_reports(self):
        reports = [EvalReport("a", 1.0, 0.1, 2), EvalReport("b", 2.0, 0.2, 2)]
        text = emit_report(reports, ReportFormat.TEXT).decode()
        assert text.count("\n") == 2
        csv_out = emit_report(reports, ReportFormat.CSV).decode()
        assert csv_out.count("\n") == 3


def regression_dataset(tmp_path, n_records=50, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.uniform(0.0, 1.0, (n_records, 3))
    target = np.clip(0.6 * feats[:, 0] + 0.3 * feats[:, 2]
                     + 0.05 * rng.standard_normal(n_records), 0.0, 1.0)
    rows = np.column_stack([feats, target])
    path = tmp_path / "reg.csv"
    np.savetxt(path, rows, delimiter=",")
    return path, rows.T  # in-memory convention: rows are features


def covariance_dataset(tmp_path, n_records=400, seed=1):
    rng = np.random.default_rng(seed)
    scale = np.array([1.0, 0.7, 0.2])
    data = scale[:, None] * rng.choice([-1.0, 1.0], size=(3, n_records))
    path = tmp_path / "cov.csv"
    np.savetxt(path, data.T, delimiter=",")
    return path, data


# the mechanism table's i.i.d. baselines, which take no allocation or directions
BASELINES = [kind for kind, row in harness._MECHANISMS.items() if not row.mvg]


def base_config(path, bounds, mechanism, experiment, **kw):
    defaults = dict(
        experiment=experiment,
        dataset_path=path,
        bounds=bounds,
        privacy=PrivacyParams(1.0, 0.01),
        mechanism=mechanism,
        trials=3,
        seed=11,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_regression_vanishing_noise_matches_baseline(self, tmp_path):
        path, x = regression_dataset(tmp_path)
        n = x.shape[1]
        bounds = DataBounds(4, n, 0.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.GAUSSIAN_IID,
                          Experiment.REGRESSION, trials=1,
                          privacy=PrivacyParams(1e6, 0.01))
        with pytest.warns(UserWarning):
            report = run_experiment(cfg)
        n_train = int(round(0.72 * n))
        train, test = x[:, :n_train], x[:, n_train:]
        clean = ridge_regression_rmse((train[:-1], train[-1]),
                                      (test[:-1], test[-1]), reg=1.0)
        assert report.mean == pytest.approx(clean, abs=1e-3)

    def test_regression_split_matches_paper_proportions(self, tmp_path,
                                                        monkeypatch):
        # the paper trains on 248 of Liver's 345 records
        x = np.random.default_rng(6).uniform(0.0, 1.0, (4, 345))
        planned = []
        original = harness.plan_releases

        def recording(mechanism, q, value, *args):
            planned.append((q.n, value))
            return original(mechanism, q, value, *args)

        monkeypatch.setattr(harness, "plan_releases", recording)
        cfg = base_config(tmp_path / "unused.csv", DataBounds(4, 345, 0.0, 1.0),
                          MechanismKind.MVG_UNIMODAL, Experiment.REGRESSION)
        run_experiment(cfg, data=x)
        [(n, value)] = planned
        assert n == 248
        assert np.array_equal(value, x[:, :248])

    def test_regression_with_mvg_runs(self, tmp_path):
        path, x = regression_dataset(tmp_path)
        bounds = DataBounds(4, x.shape[1], 0.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.MVG_UNIMODAL,
                          Experiment.REGRESSION, theta_spec="binary:0.9:0,3")
        report = run_experiment(cfg)
        assert report.metric_name == "RMSE"
        assert report.trials == 3
        assert np.isfinite(report.mean)

    @pytest.mark.parametrize("shape, message", [
        ((1, 40), "at least one feature column plus the target column"),
        ((4, 1), "leaves no valid split of 1 records"),
    ], ids=["one-row", "one-record"])
    def test_regression_rejects_a_dataset_it_cannot_split(self, tmp_path, shape,
                                                          message):
        cfg = base_config(tmp_path / "unused.csv", DataBounds(*shape, 0.0, 1.0),
                          MechanismKind.MVG_UNIMODAL, Experiment.REGRESSION)
        with pytest.raises(ConfigError, match=message):
            run_experiment(cfg, data=np.full(shape, 0.5))

    def test_firstpc_runs_with_equimodal(self, tmp_path):
        path, data = covariance_dataset(tmp_path)
        bounds = DataBounds(3, data.shape[1], -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                          Experiment.FIRST_PC, theta_spec="uniform")
        report = run_experiment(cfg)
        assert report.metric_name == "delta_rho"
        assert report.mean >= 0.0

    def test_firstpc_near_noiseless(self, tmp_path):
        path, data = covariance_dataset(tmp_path, n_records=200)
        bounds = DataBounds(3, 200, -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.GAUSSIAN_IID,
                          Experiment.FIRST_PC, trials=1,
                          privacy=PrivacyParams(1e8, 0.01))
        with pytest.warns(UserWarning):
            report = run_experiment(cfg)
        assert report.mean == pytest.approx(0.0, abs=1e-10)

    def test_covest_near_noiseless(self, tmp_path):
        path, data = covariance_dataset(tmp_path, n_records=60)
        bounds = DataBounds(3, 60, -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.GAUSSIAN_IID,
                          Experiment.COVARIANCE_ESTIMATION, trials=1,
                          privacy=PrivacyParams(1e8, 0.01))
        with pytest.warns(UserWarning):
            report = run_experiment(cfg)
        assert report.metric_name == "RSS"
        assert report.mean < 1e-8

    def test_laplace_mechanism_runs(self, tmp_path):
        path, data = covariance_dataset(tmp_path, n_records=100)
        bounds = DataBounds(3, 100, -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.LAPLACE_IID,
                          Experiment.FIRST_PC)
        report = run_experiment(cfg)
        assert np.isfinite(report.mean)

    def test_dp_derived_directions_path(self, tmp_path):
        path, data = covariance_dataset(tmp_path, n_records=100)
        bounds = DataBounds(3, 100, -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                          Experiment.FIRST_PC, directions_source="dp:0.2",
                          theta_spec="binary:0.9:0", trials=2)
        report = run_experiment(cfg)
        assert np.isfinite(report.mean)

    def test_determinism(self, tmp_path):
        path, data = covariance_dataset(tmp_path)
        bounds = DataBounds(3, data.shape[1], -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                          Experiment.FIRST_PC)
        a = emit_report(run_experiment(cfg), ReportFormat.TEXT)
        b = emit_report(run_experiment(cfg), ReportFormat.TEXT)
        assert a == b

    def test_trial_values_pair_by_seed(self, tmp_path):
        # trial t replays RandomStream(seed + t) whatever the trial count, so
        # a longer run reproduces the shorter run's trials as its prefix;
        # seed + t wraps through 2^64 - 1 to 0 and 1, using both seed words
        path, data = covariance_dataset(tmp_path)
        bounds = DataBounds(3, data.shape[1], -1.0, 1.0)
        seed = 2 ** 64 - 2
        x, _ = load_csv_matrix(path)
        s_bar = x @ x.T / x.shape[1]
        q = harness.covariance_query(bounds)
        theta = parse_theta_spec("uniform", 3)
        values = []
        for t in range(4):
            stream = RandomStream((seed + t) % 2 ** 64)
            noisy = mvg_equimodal(s_bar, q, PrivacyParams(1.0, 0.01), theta,
                                  np.eye(3), stream).output
            _, vecs = np.linalg.eigh((noisy + noisy.T) / 2.0)
            values.append(delta_rho(vecs[:, -1], s_bar))
        for trials in (2, 4):
            cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                              Experiment.FIRST_PC, trials=trials, seed=seed)
            assert run_experiment(cfg) == mean_ci95(values[:trials], "delta_rho")

    def test_dp_directions_replay_bit_for_bit(self, tmp_path):
        # the harness plans the directions once per run; each trial must
        # still equal a fresh derive_directions_dp on the trial's stream
        path, _ = covariance_dataset(tmp_path, n_records=300)
        bounds = DataBounds(3, 300, -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                          Experiment.FIRST_PC, directions_source="dp:0.2",
                          theta_spec="binary:0.9:0", trials=4)
        report = run_experiment(cfg)
        x, _ = load_csv_matrix(path)
        s_bar = x @ x.T / 300
        q = QuerySpec(3, 3, sensitivity=covariance_sensitivity(bounds),
                      gamma=gamma_covariance(bounds), kind=QueryKind.COVARIANCE)
        p_dir = PrivacyParams(1.0 * 0.2, 0.01 * 0.2)
        p_mech = PrivacyParams(1.0 * (1.0 - 0.2), 0.01 * (1.0 - 0.2))
        theta = parse_theta_spec("binary:0.9:0", 3)
        values = []
        for t in range(cfg.trials):
            stream = RandomStream(cfg.seed + t)
            w = derive_directions_dp(x, p_dir, 3, stream, bounds=bounds)
            noisy = mvg_equimodal(s_bar, q, p_mech, theta, w, stream).output
            _, vecs = np.linalg.eigh((noisy + noisy.T) / 2.0)
            values.append(delta_rho(vecs[:, -1], s_bar))
        assert report == mean_ci95(values, "delta_rho")

    def test_supplied_data_skips_the_load(self, tmp_path, monkeypatch):
        path, data = covariance_dataset(tmp_path)
        bounds = DataBounds(3, data.shape[1], -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                          Experiment.FIRST_PC)
        x, _ = load_csv_matrix(path)
        expected = run_experiment(cfg)

        def no_load(*args, **kwargs):
            raise AssertionError("the dataset was loaded again")

        monkeypatch.setattr(harness, "load_csv_matrix", no_load)
        monkeypatch.setattr(harness, "read_csv_gram", no_load)
        assert run_experiment(cfg, data=x) == expected

    def test_nan_cell_aborts_naming_no_value(self, tmp_path):
        path = write(tmp_path, "nan.csv", "0.5,0.1\nnan,0.2\n0.3,0.4\n")
        cfg = base_config(path, DataBounds(2, 3, 0.0, 1.0),
                          MechanismKind.GAUSSIAN_IID, Experiment.FIRST_PC)
        with pytest.raises(ContractViolationError, match="not a number") as info:
            run_experiment(cfg)
        assert "nan" not in str(info.value).lower() and "line" not in str(info.value)

    def test_records_outside_the_box_are_clamped(self, tmp_path):
        path, data = covariance_dataset(tmp_path)
        bounds = DataBounds(3, data.shape[1], -0.5, 0.5)  # data escapes this box
        cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                          Experiment.FIRST_PC)
        clipped = np.clip(data, -0.5, 0.5)
        assert run_experiment(cfg) == run_experiment(cfg, data=clipped)
        assert run_experiment(cfg, data=data) == run_experiment(cfg, data=clipped)

    @pytest.mark.parametrize("directions", ["standard", "dp:0.2"])
    @pytest.mark.parametrize("record", [3, 45], ids=["train", "test"])
    def test_a_regression_clamps_its_train_and_test_records(self, tmp_path,
                                                            directions, record):
        path, x = regression_dataset(tmp_path)
        x[1, record] = 1.5
        cfg = base_config(path, DataBounds(4, x.shape[1], 0.0, 1.0),
                          MechanismKind.MVG_UNIMODAL, Experiment.REGRESSION,
                          directions_source=directions)
        clipped = run_experiment(cfg, data=np.clip(x, 0.0, 1.0))
        assert run_experiment(cfg, data=x) == clipped
        x[1, record] = 1.0
        assert run_experiment(cfg, data=x) == clipped

    def test_shape_mismatch_is_config_error(self, tmp_path):
        path, data = covariance_dataset(tmp_path)
        bounds = DataBounds(5, 17, -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                          Experiment.FIRST_PC)
        with pytest.raises(ShapeError):
            run_experiment(cfg)

    @pytest.mark.parametrize("source", ["file", "records", "gram"])
    def test_every_input_meets_one_shape_check(self, tmp_path, source):
        path, x = covariance_dataset(tmp_path)
        cfg = base_config(path, DataBounds(3, 17, -1.0, 1.0),
                          MechanismKind.MVG_EQUIMODAL, Experiment.FIRST_PC)
        data = {"file": None, "records": x,
                "gram": read_csv_gram(path, -1.0, 1.0)}[source]
        with pytest.raises(ShapeError, match="bounds declare 3x17 but the data is 3x400$"):
            run_experiment(cfg, data=data)
        with pytest.raises(ShapeError, match="bounds declare 3x17 but the data is 3x400$"):
            harness.clamp_records(x, cfg.bounds, "standard")

    def test_equimodal_on_rectangular_query_rejected(self, tmp_path):
        path, x = regression_dataset(tmp_path)
        bounds = DataBounds(4, x.shape[1], 0.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                          Experiment.REGRESSION)
        with pytest.raises(ShapeError, match="square"):
            run_experiment(cfg)

    @pytest.mark.parametrize("kind", BASELINES, ids=lambda kind: kind.value)
    @pytest.mark.parametrize("experiment", [Experiment.FIRST_PC,
                                            Experiment.COVARIANCE_ESTIMATION],
                             ids=lambda experiment: experiment.value)
    @pytest.mark.parametrize("theta_spec", ["binary:0.9:0", "0.5,0.3,0.2"])
    def test_allocation_with_baseline_rejected(self, tmp_path, kind, experiment,
                                               theta_spec):
        # a baseline adds i.i.d. noise, so an allocation would be ignored
        path, data = covariance_dataset(tmp_path)
        bounds = DataBounds(3, data.shape[1], -1.0, 1.0)
        with pytest.raises(ConfigError, match="allocation"):
            base_config(path, bounds, kind, experiment, theta_spec=theta_spec)

    @pytest.mark.parametrize("kind", BASELINES, ids=lambda kind: kind.value)
    def test_directions_with_baseline_rejected(self, tmp_path, kind):
        path, data = covariance_dataset(tmp_path)
        bounds = DataBounds(3, data.shape[1], -1.0, 1.0)
        with pytest.raises(ConfigError, match="MVG"):
            base_config(path, bounds, kind, Experiment.FIRST_PC,
                        directions_source="dp:0.2")

    def test_trials_validation(self, tmp_path):
        path, data = covariance_dataset(tmp_path)
        with pytest.raises(ConfigError):
            base_config(path, DataBounds(3, data.shape[1], -1.0, 1.0),
                        MechanismKind.MVG_EQUIMODAL, Experiment.FIRST_PC,
                        trials=0)

    @pytest.mark.parametrize("field, value, message", [
        ("experiment", "firstpc", "unknown experiment 'firstpc'"),
        ("mechanism", "gauss", "unknown mechanism 'gauss'"),
        ("ridge_reg", float("inf"), "ridge_reg must be positive and finite, got inf"),
        ("ridge_reg", float("nan"), "ridge_reg must be positive and finite, got nan"),
        ("ridge_reg", "1", "ridge_reg must be a real number, got '1'"),
        ("ridge_reg", None, "ridge_reg must be a real number, got None"),
        ("ridge_reg", True, "ridge_reg must be a real number, got True"),
        ("theta_spec", None, "theta_spec must be a string, got None"),
        ("theta_spec", 3, "theta_spec must be a string, got 3"),
        ("directions_source", None, "directions_source must be a string, got None"),
        ("bounds", None, "bounds must be a DataBounds, got None"),
        ("bounds", (3, 400, -1.0, 1.0), "bounds must be a DataBounds, got (3, 400"),
        ("privacy", None, "privacy must be a PrivacyParams, got None"),
        ("csv_has_header", "no", "csv_has_header must be a bool, got 'no'"),
        ("dataset_path", None, "dataset_path must be a str or PathLike, got None"),
        ("dataset_path", 3, "dataset_path must be a str or PathLike, got 3"),
    ])
    def test_config_rejects_a_bad_field(self, tmp_path, field, value, message):
        # rejected on construction, so no run reads the (missing) dataset
        fields = dict(experiment=Experiment.FIRST_PC,
                      dataset_path=tmp_path / "missing.csv",
                      bounds=DataBounds(3, 400, -1.0, 1.0),
                      privacy=PrivacyParams(1.0, 0.01),
                      mechanism=MechanismKind.MVG_EQUIMODAL)
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig(**{**fields, field: value})

    @pytest.mark.parametrize("options, message", [
        (dict(theta_spec="bogus"), "could not parse allocation 'bogus'"),
        (dict(directions_source="dp:1.5"), "direction budget fraction must lie in (0, 1)"),
        (dict(mechanism=MechanismKind.GAUSSIAN_IID, theta_spec="binary:0.9:0"),
         "allocation 'binary:0.9:0' applies only to MVG"),
        (dict(mechanism=MechanismKind.LAPLACE_IID, directions_source="dp:0.2"),
         "directions 'dp:0.2' apply only to MVG"),
        (dict(experiment=Experiment.DIRECTION_ABLATION),
         "needs a binary allocation (binary:TAU:I,J,...), got 'uniform'"),
    ], ids=["allocation", "directions", "baseline-allocation", "baseline-directions",
            "ablation"])
    def test_config_rejects_an_option_before_any_read(self, tmp_path, options, message):
        # the dataset does not exist, so only a check at construction passes
        fields = dict(experiment=Experiment.FIRST_PC,
                      dataset_path=tmp_path / "missing.csv",
                      bounds=DataBounds(3, 400, -1.0, 1.0),
                      privacy=PrivacyParams(1.0, 0.01),
                      mechanism=MechanismKind.MVG_EQUIMODAL)
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig(**{**fields, **options})

    def test_a_replaced_option_is_checked(self, tmp_path):
        cfg = base_config(tmp_path / "missing.csv", DataBounds(3, 400, -1.0, 1.0),
                          MechanismKind.MVG_EQUIMODAL, Experiment.FIRST_PC)
        with pytest.raises(ConfigError, match="could not parse allocation 'bogus'"):
            dataclasses.replace(cfg, theta_spec="bogus")


@pytest.mark.parametrize("kind", list(MechanismKind), ids=lambda kind: kind.value)
def test_every_mechanism_rejects_a_wrong_shaped_value(kind):
    # a kind added without a library entry here fails on the lookup
    bounds = DataBounds(3, 100, -1.0, 1.0)
    q = harness.covariance_query(bounds)
    p = PrivacyParams(1.0, 0.01)
    theta = PrecisionAllocation.uniform(3)
    bad = np.zeros((3, 4))
    library = {
        MechanismKind.MVG_UNIMODAL: lambda: mvg_unimodal(bad, q, p, theta, np.eye(3),
                                                         RandomStream(0)),
        MechanismKind.MVG_EQUIMODAL: lambda: mvg_equimodal(bad, q, p, theta, np.eye(3),
                                                           RandomStream(0)),
        MechanismKind.GAUSSIAN_IID: lambda: gaussian_iid_baseline(bad, q, p,
                                                                  RandomStream(0)),
        MechanismKind.LAPLACE_IID: lambda: laplace_iid_baseline(bad, q, 1.0,
                                                                RandomStream(0)),
    }[kind]
    message = r"query value has shape \(3, 4\), expected \(3, 3\)"
    with pytest.raises(ShapeError, match=message):
        library()
    with pytest.raises(ShapeError, match=message):
        harness.plan_releases(kind, q, bad, p, ["uniform"], "standard", None)


def test_laplace_rejects_a_query_of_unknown_l1_sensitivity():
    # the Laplace scale comes from the spec alone: a spec without an L1
    # sensitivity must not borrow one
    bounds = DataBounds(3, 100, -1.0, 1.0)
    p = PrivacyParams(1.0, 0.01)
    custom = QuerySpec(3, 3, sensitivity=5.0, gamma=100.0, kind=QueryKind.CUSTOM)
    with pytest.raises(ConfigError, match="got a custom query"):
        harness.plan_releases(MechanismKind.LAPLACE_IID, custom, np.zeros((3, 3)), p,
                              ["uniform"], "standard", None)
    (plan,) = harness.plan_releases(MechanismKind.LAPLACE_IID,
                                    harness.covariance_query(bounds), np.zeros((3, 3)),
                                    p, ["uniform"], "standard", None)
    assert plan.scale == covariance_sensitivity_l1(bounds) == 0.18


@pytest.mark.parametrize("kind", BASELINES, ids=lambda kind: kind.value)
def test_plan_releases_rejects_a_baseline_allocation(kind):
    # a direct caller has no config, so the planner keeps the baseline rule
    bounds = DataBounds(3, 100, -1.0, 1.0)
    with pytest.raises(ConfigError, match="allocation 'binary:0.9:0' applies only"):
        harness.plan_releases(kind, harness.covariance_query(bounds), np.eye(3) / 4,
                              PrivacyParams(1.0, 0.01), ["binary:0.9:0"],
                              "standard", None)


def test_standard_directions_plan_the_standard_side():
    bounds = DataBounds(3, 100, -1.0, 1.0)
    (plan,) = harness.plan_releases(MechanismKind.MVG_EQUIMODAL,
                                    harness.covariance_query(bounds), np.eye(3) / 4,
                                    PrivacyParams(1.0, 0.01), ["binary:0.9:0"],
                                    "standard", None)
    assert plan.design.basis_sigma is None
    assert plan.design.basis_psi is None


@pytest.mark.parametrize("kind", list(harness._MECHANISMS), ids=lambda kind: kind.value)
def test_arms_with_one_allocation_report_alike(tmp_path, kind):
    # a baseline plans every arm as one plan object; each arm but the last
    # must still color its own copy of the shared noise
    path, data = covariance_dataset(tmp_path)
    bounds = DataBounds(3, data.shape[1], -1.0, 1.0)
    cfg = base_config(path, bounds, kind, Experiment.FIRST_PC)
    gram = read_csv_gram(path, -1.0, 1.0)
    first, second = harness._run_firstpc(cfg, gram, [("delta_rho", "uniform")] * 2)
    assert first == second == run_experiment(cfg)


class TestAblation:
    def test_ordering_in_low_noise_regime(self, tmp_path):
        # With noise small against the spectral gaps, favoring the truly
        # informative directions must beat both a uniform allocation and the
        # inverted one. (At tight budgets the noise dominates the spectrum
        # and the top eigenvector of the estimate chases the most-noised
        # directions instead, so criterion 7 of the acceptance suite checks
        # the informative-block error at eps = 1 rather than this ordering.)
        rng = np.random.default_rng(20257)
        scale = np.array([2.0, np.sqrt(3.0), np.sqrt(0.1), np.sqrt(0.1)])
        data = scale[:, None] * rng.choice([-1.0, 1.0], size=(4, 2000))
        path = tmp_path / "synthetic.csv"
        np.savetxt(path, data.T, delimiter=",")
        cfg = ExperimentConfig(
            experiment=Experiment.DIRECTION_ABLATION,
            dataset_path=path,
            bounds=DataBounds(4, 2000, -2.0, 2.0),
            privacy=PrivacyParams(30_000.0, 1.0 / 2000),
            mechanism=MechanismKind.MVG_EQUIMODAL,
            theta_spec="binary:0.9:0,1",
            trials=200,
            seed=7,
        )
        favored, complement, uniform = run_experiment(cfg)
        assert favored.mean < uniform.mean
        assert favored.mean < complement.mean

    def test_three_arms(self, tmp_path):
        path, data = covariance_dataset(tmp_path)
        bounds = DataBounds(3, data.shape[1], -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                          Experiment.DIRECTION_ABLATION,
                          theta_spec="binary:0.9:0", trials=2)
        reports = run_experiment(cfg)
        names = [r.metric_name for r in reports]
        assert names == ["delta_rho[favored=0]", "delta_rho[complement=1+2]",
                         "delta_rho[uniform]"]

    def test_requires_binary_spec(self, tmp_path):
        # rejected before the (missing) dataset is read
        with pytest.raises(ConfigError, match="needs a binary allocation"):
            base_config(tmp_path / "missing.csv", DataBounds(3, 400, -1.0, 1.0),
                        MechanismKind.MVG_EQUIMODAL,
                        Experiment.DIRECTION_ABLATION, theta_spec="uniform")

    def test_malformed_binary_spec(self, tmp_path):
        path, data = covariance_dataset(tmp_path)
        bounds = DataBounds(3, data.shape[1], -1.0, 1.0)
        with pytest.raises(ConfigError, match="binary:TAU:I,J"):
            base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                        Experiment.DIRECTION_ABLATION, theta_spec="binary:0.9")


def spread_dataset(tmp_path, m=16, n_records=300, seed=3):
    # a decaying spectrum in [-1, 1], so the top direction is well defined
    rng = np.random.default_rng(seed)
    data = np.linspace(1.0, 0.2, m)[:, None] * rng.uniform(-1.0, 1.0, (m, n_records))
    path = tmp_path / "spread.csv"
    np.savetxt(path, data.T, delimiter=",")
    x, _ = load_csv_matrix(path)
    return path, x


class TestBatchedTrials:
    """Runs draw their trials in chunks of stacked releases; every report
    must equal a per-trial replay through the single-release library calls,
    across chunk boundaries."""

    P = PrivacyParams(1.0, 0.01)

    def firstpc_replay(self, x, bounds, release):
        s_bar = x @ x.T / x.shape[1]
        values = []
        for t in range(40):
            noisy = release(s_bar, RandomStream(11 + t))
            _, vecs = np.linalg.eigh((noisy + noisy.T) / 2.0)
            values.append(delta_rho(vecs[:, -1], s_bar))
        return mean_ci95(values, "delta_rho")

    @pytest.mark.parametrize("source", ["standard", "file", "dp:0.2", "gauss",
                                        "laplace"])
    def test_firstpc_equals_per_trial_replay(self, tmp_path, source):
        path, x = spread_dataset(tmp_path)
        bounds = DataBounds(16, 300, -1.0, 1.0)
        q = harness.covariance_query(bounds)
        theta = parse_theta_spec("binary:0.9:0,1", 16)
        # 40 trials of 16 x 16 stacks span three chunks: 16, 16 and 8
        assert trials_per_chunk(16, 16) == 16
        mechanism = MechanismKind.MVG_EQUIMODAL
        directions = "standard"
        theta_spec = "binary:0.9:0,1"
        if source == "standard":
            def release(s_bar, stream):
                return mvg_equimodal(s_bar, q, self.P, theta, np.eye(16), stream).output
        elif source == "file":
            basis = np.linalg.qr(np.random.default_rng(8).standard_normal((16, 16)))[0]
            directions = str(tmp_path / "w.csv")
            np.savetxt(directions, basis, delimiter=",")
            w = load_dense_csv(directions)

            def release(s_bar, stream):
                return mvg_equimodal(s_bar, q, self.P, theta, w, stream).output
        elif source == "dp:0.2":
            directions = source
            p_dir = PrivacyParams(0.2, 0.01 * 0.2)
            p_mech = PrivacyParams(1.0 * (1.0 - 0.2), 0.01 * (1.0 - 0.2))

            def release(s_bar, stream):
                w = derive_directions_dp(x, p_dir, 16, stream, bounds=bounds)
                return mvg_equimodal(s_bar, q, p_mech, theta, w, stream).output
        elif source == "gauss":
            mechanism = MechanismKind.GAUSSIAN_IID
            theta_spec = "uniform"  # a baseline takes no allocation

            def release(s_bar, stream):
                return gaussian_iid_baseline(s_bar, q, self.P, stream)
        else:
            mechanism = MechanismKind.LAPLACE_IID
            theta_spec = "uniform"

            def release(s_bar, stream):
                return laplace_iid_baseline(s_bar, q, 1.0, stream)
        cfg = base_config(path, bounds, mechanism, Experiment.FIRST_PC,
                          theta_spec=theta_spec, directions_source=directions,
                          trials=40)
        assert run_experiment(cfg) == self.firstpc_replay(x, bounds, release)

    @pytest.mark.parametrize("mechanism", ["mvg-uni", "gauss", "laplace"])
    def test_covest_equals_per_trial_replay(self, tmp_path, mechanism):
        path, x = spread_dataset(tmp_path, m=3, n_records=100)
        bounds = DataBounds(3, 100, -1.0, 1.0)
        assert trials_per_chunk(3, 100) == 13  # 30 trials span three chunks
        # a baseline takes no allocation
        theta_spec = "binary:0.9:0" if mechanism == "mvg-uni" else "uniform"
        cfg = base_config(path, bounds, MechanismKind(mechanism),
                          Experiment.COVARIANCE_ESTIMATION,
                          theta_spec=theta_spec, trials=30)
        q = harness.identity_query(bounds)
        theta = parse_theta_spec("binary:0.9:0", 3)
        release = {
            "mvg-uni": lambda stream: mvg_unimodal(x, q, self.P, theta, np.eye(3),
                                                   stream).output,
            "gauss": lambda stream: gaussian_iid_baseline(x, q, self.P, stream),
            "laplace": lambda stream: laplace_iid_baseline(x, q, 1.0, stream),
        }[mechanism]
        s_bar = x @ x.T / 100
        values = []
        for t in range(30):
            out = release(RandomStream(11 + t))
            values.append(rss(out @ out.T / 100, s_bar))
        assert run_experiment(cfg) == mean_ci95(values, "RSS")

    def test_regression_equals_per_trial_replay(self, tmp_path):
        path, x = regression_dataset(tmp_path)
        n_train = int(round(0.72 * x.shape[1]))
        train, test = x[:, :n_train], x[:, n_train:]
        train_bounds = DataBounds(4, n_train, 0.0, 1.0)
        assert trials_per_chunk(4, n_train) == 28  # 60 trials span three chunks
        cfg = base_config(path, DataBounds(4, x.shape[1], 0.0, 1.0),
                          MechanismKind.MVG_UNIMODAL, Experiment.REGRESSION,
                          theta_spec="binary:0.9:0,3", directions_source="dp:0.2",
                          trials=60)
        q = harness.identity_query(train_bounds)
        theta = parse_theta_spec("binary:0.9:0,3", 4)
        p_dir = PrivacyParams(0.2, 0.01 * 0.2)
        p_mech = PrivacyParams(1.0 * (1.0 - 0.2), 0.01 * (1.0 - 0.2))
        values = []
        for t in range(60):
            stream = RandomStream(11 + t)
            w = derive_directions_dp(train, p_dir, 4, stream, bounds=train_bounds)
            out = mvg_unimodal(train, q, p_mech, theta, w, stream).output
            values.append(ridge_regression_rmse((out[:-1], out[-1]),
                                                (test[:-1], test[-1]), 1.0))
        assert run_experiment(cfg) == mean_ci95(values, "RMSE")

    def test_ablation_plans_once_per_arm(self, tmp_path, monkeypatch):
        path, data = covariance_dataset(tmp_path)
        calls = {"check": 0, "budget": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # a cold memo, so each arm's spectrum is computed here
        mechanisms.release_spectrum.cache_clear()
        monkeypatch.setattr(mechanisms, "check_condition",
                            counted("check", mechanisms.check_condition))
        monkeypatch.setattr(mechanisms, "precision_budget_equimodal",
                            counted("budget", mechanisms.precision_budget_equimodal))
        # 1000 trials of 3 x 3 stacks span three chunks per arm
        assert trials_per_chunk(3, 3) == 455
        cfg = base_config(path, DataBounds(3, data.shape[1], -1.0, 1.0),
                          MechanismKind.MVG_EQUIMODAL, Experiment.DIRECTION_ABLATION,
                          theta_spec="binary:0.9:0", trials=1000)
        assert len(run_experiment(cfg)) == 3
        assert calls == {"check": 3, "budget": 3}

    @pytest.mark.parametrize("directions, roles, experiment", [
        pytest.param("standard", 1, Experiment.FIRST_PC, id="standard-1"),
        pytest.param("dp:0.2", 2, Experiment.FIRST_PC, id="dp:0.2-2"),
        pytest.param("standard", 1, Experiment.DIRECTION_ABLATION,
                     id="standard-1-ablation"),
        pytest.param("dp:0.2", 2, Experiment.DIRECTION_ABLATION,
                     id="dp:0.2-2-ablation"),
    ])
    def test_each_stream_draws_once_per_role(self, tmp_path, monkeypatch,
                                             directions, roles, experiment):
        # the ablation's three arms share each trial's draws
        path, data = covariance_dataset(tmp_path)
        seeds = []
        original = mechanisms.sample_standard_matrix

        def counted(stream, m, n, **kwargs):
            seeds.append(stream.seed)
            return original(stream, m, n, **kwargs)

        monkeypatch.setattr(mechanisms, "sample_standard_matrix", counted)
        cfg = base_config(path, DataBounds(3, data.shape[1], -1.0, 1.0),
                          MechanismKind.MVG_EQUIMODAL, experiment,
                          theta_spec="binary:0.9:0", directions_source=directions,
                          trials=700)
        run_experiment(cfg)
        assert len(seeds) == roles * 700
        assert sorted(seeds) == sorted(list(range(11, 711)) * roles)

    def test_ablation_plans_the_directions_once(self, tmp_path, monkeypatch):
        path, data = covariance_dataset(tmp_path)
        calls = []
        original = harness.plan_directions_dp

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "plan_directions_dp", counted)
        cfg = base_config(path, DataBounds(3, data.shape[1], -1.0, 1.0),
                          MechanismKind.MVG_EQUIMODAL, Experiment.DIRECTION_ABLATION,
                          theta_spec="binary:0.9:0", directions_source="dp:0.2",
                          trials=20)
        assert len(run_experiment(cfg)) == 3
        assert len(calls) == 1

    @pytest.mark.parametrize("directions", ["standard", "dp:0.2"])
    def test_ablation_arms_equal_one_arm_runs(self, tmp_path, directions):
        path, x = spread_dataset(tmp_path)
        # 40 trials of 16 x 16 stacks span three chunks
        cfg = base_config(path, DataBounds(16, 300, -1.0, 1.0),
                          MechanismKind.MVG_EQUIMODAL, Experiment.DIRECTION_ABLATION,
                          theta_spec="binary:0.9:0,1", directions_source=directions,
                          trials=40)
        arms = ["binary:0.9:0,1", "binary:0.9:" + ",".join(map(str, range(2, 16))),
                "uniform"]
        for report, spec in zip(run_experiment(cfg), arms, strict=True):
            one_arm = run_experiment(dataclasses.replace(
                cfg, experiment=Experiment.FIRST_PC, theta_spec=spec))
            assert report == dataclasses.replace(one_arm,
                                                 metric_name=report.metric_name)

    @pytest.mark.parametrize("experiment, arms", [(Experiment.FIRST_PC, 1),
                                                  (Experiment.DIRECTION_ABLATION, 3)],
                             ids=["one-arm", "ablation"])
    def test_only_the_last_arm_takes_the_drawn_noise(self, tmp_path, monkeypatch,
                                                      experiment, arms):
        drawn, colored = [], []
        draw_noise = mechanisms.ReleasePlan.draw_noise
        color = mechanisms.ReleasePlan.color

        def spy_draw_noise(plan, streams):
            noise = draw_noise(plan, streams)
            drawn.append(noise[0])
            return noise

        def spy_color(plan, noise, bases):
            colored.append(noise)
            return color(plan, noise, bases)

        monkeypatch.setattr(mechanisms.ReleasePlan, "draw_noise", spy_draw_noise)
        monkeypatch.setattr(mechanisms.ReleasePlan, "color", spy_color)
        path, data = covariance_dataset(tmp_path)
        # 1000 trials of 3 x 3 stacks span three chunks
        cfg = base_config(path, DataBounds(3, data.shape[1], -1.0, 1.0),
                          MechanismKind.MVG_EQUIMODAL, experiment,
                          theta_spec="binary:0.9:0", trials=1000)
        run_experiment(cfg)
        assert len(drawn) == 3 and len(colored) == 3 * arms
        for chunk, noise in enumerate(drawn):
            takers = [own is noise for own in colored[chunk * arms:(chunk + 1) * arms]]
            assert takers == [False] * (arms - 1) + [True]

    def test_dp_run_memory_stays_within_chunks(self, tmp_path):
        rng = np.random.default_rng(5)
        x = np.linspace(1.0, 0.25, 16)[:, None] * rng.uniform(-1.0, 1.0, (16, 2000))
        cfg = base_config(tmp_path / "unused.csv", DataBounds(16, 2000, -1.0, 1.0),
                          MechanismKind.MVG_EQUIMODAL, Experiment.FIRST_PC,
                          theta_spec="binary:0.9:0,1", directions_source="dp:0.2",
                          trials=250)
        run_experiment(dataclasses.replace(cfg, trials=2), data=x)  # warm caches
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            report = run_experiment(cfg, data=x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.trials == 250
        # one stack of 250 trials would hold 500 KiB per temporary
        assert peak - before <= 256 * 1024


class TestBudgetTermsComputedOnce:
    """The budget terms of one (QuerySpec, PrivacyParams) are computed once,
    however many releases, arms and condition checks read them."""

    @pytest.fixture
    def computed(self, monkeypatch):
        calls = {"harmonic_numbers": 0, "zeta": 0}

        def counted(name):
            fn = getattr(budget, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        budget.budget_terms.cache_clear()
        mechanisms.release_spectrum.cache_clear()
        for name in calls:
            monkeypatch.setattr(budget, name, counted(name))
        yield calls
        budget.budget_terms.cache_clear()
        mechanisms.release_spectrum.cache_clear()

    def test_two_releases_compute_the_terms_once(self, computed):
        rng = np.random.default_rng(4)
        x = rng.choice([-1.0, 1.0], size=(3, 200))
        bounds = DataBounds(3, 200, -1.0, 1.0)
        q = harness.covariance_query(bounds)
        p = PrivacyParams(1.0, 1 / 200)
        theta = PrecisionAllocation.uniform(3)
        for seed in (1, 2):
            mvg_equimodal(x @ x.T / 200, q, p, theta, np.eye(3), RandomStream(seed))
        assert computed == {"harmonic_numbers": 1, "zeta": 1}

    def test_ablation_computes_the_terms_once(self, tmp_path, computed):
        path, data = covariance_dataset(tmp_path)
        cfg = base_config(path, DataBounds(3, data.shape[1], -1.0, 1.0),
                          MechanismKind.MVG_EQUIMODAL, Experiment.DIRECTION_ABLATION,
                          theta_spec="binary:0.9:0", trials=5)
        assert len(run_experiment(cfg)) == 3
        assert computed == {"harmonic_numbers": 1, "zeta": 1}
