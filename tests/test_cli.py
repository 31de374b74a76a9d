"""End-to-end tests of the command-line interface."""

import argparse
import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from effdof import DEFAULT_REPLICATES, VarianceComponent, satterthwaite_df
from effdof.cli import _ADAPTERS, _TABLE_METHODS, build_parser, main, read_components
from effdof.reference import REFERENCE_K_VALUES, REFERENCE_NU_VALUES
from effdof.simulation import _x2, sample_chi2_matrix
from test_acceptance import published_x2


def write_csv(path, rows, header="weight,s2,df"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return str(path)


def parse_csv(output: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(output)))


class TestReadComponents:
    def test_csv_round_trip(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", ["1,1,1", "1.25,3.5,6"])
        components = read_components(path)
        assert components == [VarianceComponent(1, 1, 1), VarianceComponent(1.25, 3.5, 6)]

    def test_json_input(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([{"weight": 1, "s2": 1, "df": 1},
                                    {"weight": 2, "s2": 0.5, "df": 9}]))
        components = read_components(str(path))
        assert components[1].df == 9

    def test_zero_weight_rows_are_dropped(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", ["1,1,1", "0,9,9", "1,1,1"])
        assert len(read_components(path)) == 2

    @pytest.mark.parametrize("row, message", [
        ("0,1,1.5", "row 2: df must be an integer, got '1.5'"),
        ("0,x,1", "row 2: s2 must be a number, got 'x'"),
    ], ids=["df", "s2"])
    def test_kept_zero_weight_row_names_its_bad_field(self, tmp_path, capsys, row, message):
        # Such a row once reported "weight must be > 0, got '0'".
        path = write_csv(tmp_path / "c.csv", [row, "1,1,1"])
        assert main(["estimate", path]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name, text, message", [
        ("c.csv", "weight,s2,df\n0,-5,3\n1,1,1\n", "row 2: s2 must be >= 0, got '-5'"),
        ("c.csv", "weight,s2,df\n0,nan,1\n1,1,1\n", "row 2: s2 must be finite, got 'nan'"),
        ("c.csv", "weight,s2,df\n0,1e400,1\n1,1,1\n", "row 2: s2 must be finite, got '1e400'"),
        ("c.csv", "weight,s2,df\n0,1,0\n1,1,1\n", "row 2: df must be >= 1, got 0"),
        ("c.csv", "weight,s2,df\n0,1,-3\n1,1,1\n", "row 2: df must be >= 1, got -3"),
        ("c.json", '[{"weight": 0, "s2": -1, "df": 0}, {"weight": 1, "s2": 1, "df": 1}]',
         "row 1: s2 must be >= 0, got -1"),
    ], ids=["s2-negative", "s2-nan", "s2-overflow", "df-0", "df-negative", "json"])
    def test_zero_weight_row_passes_the_component_rules(self, tmp_path, capsys, name, text,
                                                        message):
        # Such rows were once dropped without a word.
        path = tmp_path / name
        path.write_text(text)
        assert main(["estimate", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_csv_row_number_is_its_line_number(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        path.write_text("weight,s2,df\n1,1,1\n\n\n1,x,1\n")
        assert main(["estimate", str(path)]) == 2
        assert "row 5: s2 must be a number, got 'x'" in capsys.readouterr().err

    def test_header_is_required(self, tmp_path):
        path = (tmp_path / "c.csv")
        path.write_text("1,1,1\n2,2,2\n")
        with pytest.raises(Exception, match="header"):
            read_components(str(path))


class TestEstimateCommand:
    def test_all_methods_table(self, tmp_path, capsys):
        path = write_csv(tmp_path / "c.csv", ["1,1,1", "1,1,1"])
        assert main(["estimate", path, "--format", "csv"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        values = {row["method"]: float(row["value"]) for row in rows}
        assert values["satterthwaite"] == 2.0
        assert values["vd2025"] == 2.0
        assert values["adjusted(c=2.24, p=0)"] == pytest.approx(6.0 / 2.12, rel=1e-12)

    def test_csv_output_round_trips_exactly(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        rows = [f"{10.0 ** rng.uniform(-2, 2)!r},{10.0 ** rng.uniform(-2, 2)!r},"
                f"{int(rng.integers(1, 40))}" for _ in range(5)]
        path = write_csv(tmp_path / "c.csv", rows)
        assert main(["estimate", path, "--method", "satterthwaite", "--format", "csv"]) == 0
        out_value = float(parse_csv(capsys.readouterr().out)[0]["value"])
        assert out_value == satterthwaite_df(read_components(path)).value

    @pytest.mark.parametrize("argv", [
        ["estimate", "COMPONENTS"],
        ["apply", "rubin", "--m", "5", "--sampling-s2", "4", "--sampling-df", "10",
         "--imputation-s2", "1"],
        ["reproduce", "--table", "1", "--diff", "--replicates", "50", "--seed", "4"],
        ["reproduce", "--table", "x2", "--diff", "--replicates", "50", "--seed", "4"],
    ], ids=["estimate", "apply-rubin", "table-1-diff", "x2-diff"])
    def test_json_matches_csv_numbers(self, tmp_path, capsys, argv):
        path = write_csv(tmp_path / "c.csv", ["1,2,4", "1.25,3,6"])
        argv = [path if a == "COMPONENTS" else a for a in argv]
        assert main(argv + ["--format", "csv"]) == 0
        csv_rows = [{k: v if k == "method" else float(v) for k, v in row.items()}
                    for row in parse_csv(capsys.readouterr().out)]
        assert main(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        if isinstance(payload, dict):  # a table's cells, or one adapter record
            payload = payload.get("cells") or [{k: payload[k] for k in ("method", "value")}]
        assert csv_rows == payload

    @pytest.mark.parametrize("name, text", [
        ("c.csv", "weight,s2,df\n1,2,3\n2,1,5\n"),
        ("c.json", '[{"weight": 1, "s2": 2, "df": 3}, {"weight": 2, "s2": 1, "df": 5}]'),
    ], ids=["csv", "json"])
    def test_byte_order_mark_is_ignored(self, tmp_path, capsys, name, text):
        # Excel's "CSV UTF-8" starts the file with one; it once exited 2.
        outputs = []
        for prefix in ("", "\ufeff"):
            path = tmp_path / name
            path.write_text(prefix + text, encoding="utf-8")
            assert main(["estimate", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_markdown_rounds_to_four_decimals(self, tmp_path, capsys):
        path = write_csv(tmp_path / "c.csv", ["1,1,1", "1,1,1"])
        main(["estimate", path, "--method", "adjusted"])
        assert "| 2.8302 |" in capsys.readouterr().out

    def test_custom_constant_and_offset(self, tmp_path, capsys):
        path = write_csv(tmp_path / "c.csv", ["1,1,1", "1,1,1"])
        main(["estimate", path, "--method", "adjusted", "--constant", "2",
              "--offset", "1", "--format", "csv"])
        rows = parse_csv(capsys.readouterr().out)
        assert float(rows[0]["value"]) == 2.0

    def test_empty_file_exits_2(self, tmp_path, capsys):
        path = write_csv(tmp_path / "c.csv", [])
        assert main(["estimate", path]) == 2
        assert "no components" in capsys.readouterr().err

    def test_negative_weight_reports_row_number(self, tmp_path, capsys):
        path = write_csv(tmp_path / "c.csv", ["1,1,1", "-1,2,3"])
        assert main(["estimate", path]) == 2
        assert "row 3" in capsys.readouterr().err

    def test_single_component_vd2025_exits_3(self, tmp_path, capsys):
        path = write_csv(tmp_path / "c.csv", ["1,1,1"])
        assert main(["estimate", path, "--method", "vd2025"]) == 3
        assert "offset exceeds" in capsys.readouterr().err

    def test_all_with_single_component_skips_vd2025(self, tmp_path, capsys):
        path = write_csv(tmp_path / "c.csv", ["1,5,3"])
        assert main(["estimate", path, "--format", "csv"]) == 0
        captured = capsys.readouterr()
        methods = [r["method"] for r in parse_csv(captured.out)]
        assert methods == ["satterthwaite", "adjusted(c=2.24, p=0)"]
        assert "vd2025 skipped" in captured.err

    def test_all_zero_variances_exit_3(self, tmp_path, capsys):
        path = write_csv(tmp_path / "c.csv", ["1,0,1", "1,0,1"])
        assert main(["estimate", path]) == 3
        assert "degenerate" in capsys.readouterr().err

    def test_huge_weights_match_unit_scale(self, tmp_path, capsys):
        # Weights near 1e200 overflow when w * s2 is squared directly.
        assert main(["estimate", write_csv(tmp_path / "big.csv", ["1e200,4.0,10", "1.2e200,1.0,4"]),
                     "--format", "csv"]) == 0
        big = parse_csv(capsys.readouterr().out)
        assert main(["estimate", write_csv(tmp_path / "unit.csv", ["1,4.0,10", "1.2,1.0,4"]),
                     "--format", "csv"]) == 0
        unit = parse_csv(capsys.readouterr().out)
        assert [r["method"] for r in big] == [r["method"] for r in unit]
        for b, u in zip(big, unit):
            assert float(b["value"]) == pytest.approx(float(u["value"]), rel=1e-12)

    def test_missing_file_exits_2(self, capsys):
        assert main(["estimate", "does-not-exist.csv"]) == 2

    def test_df_beyond_double_range_exits_2(self, tmp_path, capsys):
        path = write_csv(tmp_path / "c.csv", ["1,1,1", "1,1,1" + "0" * 400])
        assert main(["estimate", path]) == 2
        assert "row 3" in capsys.readouterr().err

    def test_json_weight_beyond_doubles_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('[{"weight": 1' + "0" * 400 + ', "s2": 1, "df": 3}]')
        assert main(["estimate", str(path)]) == 2
        assert "row 1: weight must be finite" in capsys.readouterr().err

    def test_df_at_2_53_exits_0(self, tmp_path, capsys):
        path = write_csv(tmp_path / "c.csv", [f"1,1,{2**53}"])
        assert main(["estimate", path, "--method", "satterthwaite", "--format", "csv"]) == 0
        assert float(parse_csv(capsys.readouterr().out)[0]["value"]) == 2.0**53

    @pytest.mark.parametrize("df", [2**53 + 1, 10**400])
    def test_df_beyond_2_53_exits_2_naming_the_row(self, tmp_path, capsys, df):
        path = write_csv(tmp_path / "c.csv", ["1,1,3", f"1,1,{df}"])
        assert main(["estimate", path]) == 2
        err = capsys.readouterr().err
        assert "row 3: df must be <= 9007199254740992, 2^53" in err and err.count("\n") == 1

    def test_unknown_method_flag_exits_2(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", ["1,1,1"])
        assert main(["estimate", path, "--method", "bogus"]) == 2


class TestApplyCommands:
    def test_rubin(self, capsys):
        assert main(["apply", "rubin", "--m", "5", "--sampling-s2", "4",
                     "--sampling-df", "10", "--imputation-s2", "1",
                     "--format", "csv"]) == 0
        value = float(parse_csv(capsys.readouterr().out)[0]["value"])
        assert value == pytest.approx(14.733510312436186, rel=1e-12)

    def test_welch_symmetric(self, capsys):
        assert main(["apply", "welch", "--s2-1", "3", "--s2-2", "3",
                     "--n1", "10", "--n2", "10", "--format", "csv"]) == 0
        value = float(parse_csv(capsys.readouterr().out)[0]["value"])
        assert value == pytest.approx(22.0 / (1.0 + 2.24 / 18.0), rel=1e-12)

    def test_jackknife_equal_deviations(self, capsys):
        assert main(["apply", "jackknife", "--deviations"] + ["0.5"] * 10
                    + ["--format", "csv"]) == 0
        value = float(parse_csv(capsys.readouterr().out)[0]["value"])
        assert value == pytest.approx(30.0 / 1.224, rel=1e-12)

    def test_markdown_includes_component_table(self, capsys):
        main(["apply", "rubin", "--m", "5", "--sampling-s2", "4",
              "--sampling-df", "10", "--imputation-s2", "1"])
        out = capsys.readouterr().out
        assert "| weight | s2 | df |" in out
        assert "| 1.2 | 1 | 4 |" in out

    def test_json_payload(self, capsys):
        main(["apply", "jackknife", "--deviations", "0.5", "-0.5", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["components"]) == 2
        assert payload["components"][0] == {"weight": 1.0, "s2": 0.25, "df": 1}

    def test_welch_df_validation_exit_3(self, capsys):
        assert main(["apply", "welch", "--s2-1", "1", "--s2-2", "1",
                     "--n1", "10", "--n2", "10", "--df1", "10"]) == 3

    def test_jackknife_deviation_whose_square_overflows_exit_3(self, capsys):
        assert main(["apply", "jackknife", "--deviations", "1e200", "1e200"]) == 3
        err = capsys.readouterr().err
        assert "deviations" in err and "1e+200" in err and "s2" not in err

    def test_each_namespace_holds_every_field_of_its_dataclass(self):
        """The adapter's inputs are built from the dests of the same names."""
        required = {
            "rubin": ["--m", "5", "--sampling-s2", "4", "--sampling-df", "10",
                      "--imputation-s2", "1"],
            "welch": ["--s2-1", "1", "--s2-2", "1", "--n1", "3", "--n2", "3"],
            "jackknife": ["--deviations", "1", "2"],
        }
        assert set(required) == set(_ADAPTERS)
        for adapter, flags in required.items():
            args = vars(build_parser().parse_args(["apply", adapter, *flags]))
            inputs, _ = _ADAPTERS[adapter]
            assert {f.name for f in dataclasses.fields(inputs)} <= set(args), adapter

    def test_each_adapter_has_exactly_its_options(self):
        """Flags built from the dataclasses keep the names, dests, types and arity of the
        hand-written ones, and no option is added (jackknife has no --offset)."""
        def subcommands(parser):
            return next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices

        shared = {"--constant": ("constant", float, None, False),
                  "--offset": ("offset", int, None, False),
                  "--format": ("format", None, None, False)}
        expected = {  # option: (dest, type, nargs, required)
            "rubin": {"--m": ("m", int, None, True),
                      "--sampling-s2": ("sampling_s2", float, None, True),
                      "--sampling-df": ("sampling_df", int, None, True),
                      "--imputation-s2": ("imputation_s2", float, None, True), **shared},
            "welch": {"--s2-1": ("s2_1", float, None, True),
                      "--s2-2": ("s2_2", float, None, True),
                      "--n1": ("n1", int, None, True), "--n2": ("n2", int, None, True),
                      "--df1": ("df1", int, None, False), "--df2": ("df2", int, None, False),
                      **shared},
            "jackknife": {"--deviations": ("deviations", float, "+", True),
                          "--constant": shared["--constant"], "--format": shared["--format"]},
        }
        adapters = subcommands(subcommands(build_parser())["apply"])
        assert set(adapters) == set(expected)
        for name, parser in adapters.items():
            options = {a.option_strings[-1]: (a.dest, a.type, a.nargs, a.required)
                       for a in parser._actions if a.dest != "help"}
            assert options == expected[name], name


class TestDensityCommand:
    def test_raw_samples_within_bounds(self, capsys):
        assert main(["density", "--replicates", "2000", "--seed", "3", "--raw"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        samples = [float(r["sample"]) for r in rows]
        assert len(samples) == 2000
        assert min(samples) >= 1.0 and max(samples) <= 2.0

    def test_histogram_counts_cover_all_samples(self, capsys):
        assert main(["density", "--replicates", "5000", "--seed", "3",
                     "--bins", "20"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 20
        assert sum(int(r["count"]) for r in rows) == 5000
        assert float(rows[0]["bin_left"]) == 1.0
        assert float(rows[-1]["bin_right"]) == 2.0

    def test_modes_at_both_ends(self, capsys):
        """The ratio density piles up near 1 and 2."""
        assert main(["density", "--replicates", "1000000", "--seed", "3",
                     "--bins", "50"]) == 0
        counts = [int(r["count"]) for r in parse_csv(capsys.readouterr().out)]
        assert counts[0] > counts[1]
        assert counts[-1] > counts[-2]

    def test_seed_reproducibility(self, capsys):
        main(["density", "--replicates", "500", "--seed", "8", "--raw"])
        first = capsys.readouterr().out
        main(["density", "--replicates", "500", "--seed", "8", "--raw"])
        assert capsys.readouterr().out == first


class TestReproduceCommand:
    def test_table_1_small_run(self, capsys):
        assert main(["reproduce", "--table", "1", "--replicates", "1000",
                     "--seed", "4", "--format", "csv"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 64
        first = rows[0]
        assert (first["k"], first["nu"]) == ("2", "1")
        assert 1.30 < float(first["mean"]) < 1.55

    def test_diff_adds_published_and_z(self, capsys):
        assert main(["reproduce", "--table", "3", "--replicates", "1000",
                     "--seed", "4", "--diff", "--format", "csv"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert {"published", "z"} <= set(rows[0])
        cell = next(r for r in rows if r["k"] == "2" and r["nu"] == "1")
        assert float(cell["published"]) == 2.00

    def test_markdown_grid_layout(self, capsys):
        assert main(["reproduce", "--table", "4", "--replicates", "500",
                     "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "| K\\nu | 1 | 3 | 5 | 7 | 9 | 15 | 30 | 80 |" in out

    def test_json_payload_shape(self, capsys):
        assert main(["reproduce", "--table", "2", "--replicates", "500",
                     "--seed", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["replicates"] == 500
        assert len(payload["cells"]) == 64

    def test_x2_summary_rows(self, capsys):
        """One row per published table, its variant's label and its published cells' X2."""
        assert main(["reproduce", "--table", "x2", "--replicates", "400",
                     "--seed", "4", "--format", "csv", "--diff"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert [r["method"] for r in rows] == [v.label for v in _TABLE_METHODS.values()] == [
            "satterthwaite", "vd2025", "adjusted(c=2.24, p=0)", "adjusted(c=2.69, p=0)"]
        assert [f"{float(r['published']):.5f}" for r in rows] == [
            "539.97150", "1.31998", "0.40057", "0.22813"]
        assert all(float(r["x2"]) >= 0.0 for r in rows)

    def test_x2_markdown_published_column(self, capsys):
        assert main(["reproduce", "--table", "x2", "--replicates", "400",
                     "--seed", "4", "--diff"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "| method | x2 | published |"
        assert [line.rsplit(" | ", 1)[1] for line in lines[2:]] == [
            "539.97150 |", "1.31998 |", "0.40057 |", "0.22813 |"]

    def test_x2_rows_are_the_x2_of_tables_1_to_4(self, capsys):
        """Row i is the pseudo chi-square of the cells `--table i` prints, bit for bit."""
        options = ["--replicates", "300", "--seed", "4", "--format", "json"]
        assert main(["reproduce", "--table", "x2", *options]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == len(_TABLE_METHODS)
        for table_id, row in zip(_TABLE_METHODS, rows):
            assert main(["reproduce", "--table", table_id, *options]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert row["method"] == payload["method"]
            assert row["x2"] == float(_x2((c["mean"], c["expected"]) for c in payload["cells"]))

    def test_x2_published_column_is_the_x2_of_the_published_cells(self, capsys):
        assert main(["reproduce", "--table", "x2", "--replicates", "40", "--diff",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["published"] for r in rows] == [published_x2(t) for t in _TABLE_METHODS]

    def test_x2_draws_one_table(self, capsys, monkeypatch):
        """The four X2 variants come from one draw pass: one sampler call per cell."""
        calls = []

        def counting(rng, n, k, nu, out=None):
            calls.append((k, nu))
            return sample_chi2_matrix(rng, n, k, nu, out)

        monkeypatch.setattr("effdof.simulation.sample_chi2_matrix", counting)
        assert main(["reproduce", "--table", "x2", "--replicates", "50"]) == 0
        assert sorted(calls) == [(k, nu) for k in REFERENCE_K_VALUES
                                 for nu in REFERENCE_NU_VALUES]

    def test_x2_bytes_do_not_depend_on_the_chunk_size(self, capsys, monkeypatch):
        """Chunks of 2^17 variates, the size before 2^15, print the same bytes."""
        argv = ["reproduce", "--table", "x2", "--replicates", "1000", "--format", "csv"]
        assert main(argv) == 0
        current = capsys.readouterr().out
        monkeypatch.setattr("effdof.simulation._CHUNK_SCALARS", 1 << 17)
        assert main(argv) == 0
        assert capsys.readouterr().out == current

    def test_thread_flag_reproducible(self, capsys):
        """The default (every available CPU) and any --threads print the serial bytes."""
        for args in (["reproduce", "--table", "1", "--replicates", "400", "--seed", "4",
                      "--format", "csv"],
                     ["reproduce", "--table", "x2", "--replicates", "40"]):
            main(args + ["--threads", "1"])
            serial = capsys.readouterr().out
            for extra in ([], ["--threads", "4"]):
                main(args + extra)
                assert capsys.readouterr().out == serial


class TestCalibrateCommand:
    def test_small_study_summary_and_curve(self, tmp_path, capsys):
        curve_path = tmp_path / "curve.csv"
        assert main(["calibrate", "--kmax", "3", "--numax", "3",
                     "--cmin", "2.1", "--cmax", "2.6", "--step", "0.05",
                     "--replicates", "1500", "--seed", "6",
                     "--curve-out", str(curve_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["size"] == [3, 3]
        assert 2.1 <= summary["c_opt"] <= 2.6
        assert summary["degree"] <= 6
        with open(curve_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["C", "X2"]
        assert len(rows) == 12  # header + 11 sampled constants

    def test_failed_study_removes_only_a_curve_file_it_created(self, tmp_path, capsys):
        new, existing = tmp_path / "new.csv", tmp_path / "existing.csv"
        existing.write_text("kept\n")
        for path in (new, existing):
            assert main(["calibrate", "--kmax", "2", "--numax", "1", "--replicates", "2",
                         "--cmin", "0", "--cmax", "1e-17", "--step", "1e-18",
                         "--curve-out", str(path)]) == 3
        assert not new.exists()
        assert existing.read_text() == "kept\n"

    def test_no_curve_file_while_the_study_runs_or_after_an_interrupt(self, tmp_path,
                                                                     monkeypatch):
        new, existing = tmp_path / "new.csv", tmp_path / "existing.csv"
        existing.write_bytes(b"kept\r\n")
        seen = []

        def interrupted(*args, **kwargs):
            seen.append((new.exists(), existing.read_bytes()))
            raise KeyboardInterrupt

        monkeypatch.setattr("effdof.calibration.run_calibration", interrupted)
        for path in (new, existing):
            with pytest.raises(KeyboardInterrupt):
                main(["calibrate", "--kmax", "2", "--numax", "1", "--curve-out", str(path)])
        assert seen == [(False, b"kept\r\n")] * 2
        assert not new.exists()
        assert existing.read_bytes() == b"kept\r\n"

    def test_step_larger_than_interval_exits_2(self, capsys):
        assert main(["calibrate", "--cmin", "2.1", "--cmax", "2.2",
                     "--step", "0.5"]) == 2
        assert "empty grid" in capsys.readouterr().err

    def test_inverted_bounds_exit_2(self):
        assert main(["calibrate", "--cmin", "3.0", "--cmax", "2.5"]) == 2

    def test_bounds_of_the_default_interval_accepted(self, capsys):
        assert main(["calibrate", "--kmax", "2", "--numax", "2",
                     "--cmin", "2.0", "--cmax", "2.5", "--step", "0.05",
                     "--replicates", "300", "--seed", "6"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert 2.0 <= summary["c_opt"] <= 2.5

    def test_interval_wider_than_1000_exits_0(self, capsys):
        # A dense search once refused any interval wider than 1000.
        assert main(["calibrate", "--kmax", "2", "--numax", "1", "--replicates", "2",
                     "--cmin", "0", "--cmax", "5000", "--step", "25"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert 0.0 <= summary["c_opt"] <= 5000.0

    @pytest.mark.parametrize("argv", [
        ["--kmax", "100000", "--numax", "100000", "--replicates", "2"],
        ["--kmax", "1000000000000"],
    ], ids=["10^10-cells", "kmax-10^12"])
    def test_grid_of_more_than_a_million_cells_exits_3(self, capsys, argv):
        # The first once built every cell before it ran out of memory; the
        # second never finished collecting its K values.
        assert main(["calibrate", *argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: grid of ") and err.count("\n") == 1

    def test_override_outside_default_interval(self, capsys):
        assert main(["calibrate", "--kmax", "2", "--numax", "2",
                     "--cmin", "1.5", "--cmax", "1.9", "--step", "0.1",
                     "--replicates", "300", "--folds", "2",
                     "--max-degree", "1", "--seed", "6"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert 1.5 <= summary["c_opt"] <= 1.9


# Every 1 + C/(K nu) rounds to 1: once only seeds 1 and 6 of 1-12 exited 3.
_FLAT = ["--cmin", "0", "--cmax", "1e-17", "--step", "1e-18"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bounds", [
    ["--cmin", "0", "--cmax", "1e300", "--step", "1e299"],
    ["--cmin", "1e-320", "--cmax", "2e-320", "--step", "1e-321"],
    ["--cmin", "5e307", "--cmax", "1.7e308", "--step", "1e307"],
    _FLAT,
    ["--cmin", "0", "--cmax", "1e308", "--step", "1e-300"],
    ["--cmin", "0", "--cmax", "3", "--step", "1e-12"],
    *([*_FLAT, "--seed", str(seed)] for seed in range(2, 13)),
], ids=["wider-than-the-dense-search", "subnormal", "near-the-largest-double", "flat-curve",
        "infinite-count", "trillions-of-constants",
        *(f"flat-curve-seed-{seed}" for seed in range(2, 13))])
def test_extreme_c_interval_exits_3(bounds, capfd):
    """A clean exit 3: no traceback, no warning, and no LAPACK message, which
    comes from compiled code straight to the process's stdout."""
    assert main(["calibrate", "--kmax", "2", "--numax", "1", "--replicates", "2",
                 *bounds]) == 3
    out, err = capfd.readouterr()
    assert "error" in err and "Traceback" not in err
    assert "DLASCL" not in out + err


class TestParserBasics:
    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_help_exits_0(self):
        assert main(["--help"]) == 0


class TestParserDefaults:
    def test_replicates(self):
        assert DEFAULT_REPLICATES == 10_000
        for argv in (["reproduce", "--table", "1"], ["calibrate"]):
            assert build_parser().parse_args(argv).replicates == 10_000

    def test_calibrate(self):
        args = build_parser().parse_args(["calibrate"])
        assert (args.kmax, args.numax, args.folds) == (5, 5, 10)

    def test_density(self):
        args = build_parser().parse_args(["density"])
        assert (args.replicates, args.bins) == (1_000_000, 50)

    @pytest.mark.parametrize("argv, minimum", [(["reproduce", "--table", "1"], 2), (["density"], 1)],
                             ids=["reproduce", "density"])
    def test_replicates_minimum(self, argv, minimum, capsys):
        assert build_parser().parse_args([*argv, "--replicates", str(minimum)]).replicates == minimum
        assert main([*argv, "--replicates", str(minimum - 1)]) == 2
        assert f"must be >= {minimum}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["estimate", "FILE"],
        ["apply", "rubin", "--m", "5", "--sampling-s2", "4", "--sampling-df", "10",
         "--imputation-s2", "1"],
    ], ids=["estimate", "apply-rubin"])
    @pytest.mark.parametrize("fmt", ["csv", "markdown", "json"])
    def test_explicit_offset_zero_prints_the_default_bytes(self, argv, fmt, tmp_path, capsys):
        argv = [write_csv(tmp_path / "c.csv", ["1,1,1", "2,3,4"]) if a == "FILE" else a
                for a in argv] + ["--format", fmt]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main([*argv, "--offset", "0"]) == 0
        assert capsys.readouterr().out == default


# Component files that read_components rejects before building a component.
_BAD_FILES = {
    "empty.csv": "",
    "short-row.csv": "weight,s2,df\n1,1,1\n1,1\n",
    "long-row.csv": "weight,s2,df\n1,1,1,7\n1,2,3\n",
    "invalid.json": "[{\"weight\": 1,",
    "object.json": "{\"weight\": 1, \"s2\": 1, \"df\": 1}",
    "no-df.json": "[{\"weight\": 1, \"s2\": 1}]",
}


@pytest.mark.parametrize("argv", [
    ["reproduce", "--table", "1", "--replicates", "0"],
    ["reproduce", "--table", "1", "--replicates", "1"],
    ["calibrate", "--replicates", "1"],
    ["calibrate", "--folds", "1"],
    ["calibrate", "--max-degree", "0"],
    ["calibrate", "--step", "nan"],
    ["calibrate", "--cmax", "inf"],
    ["density", "--bins", "0"],
    ["estimate", "NOT_UTF8"],
    ["calibrate", "--cmin", "-5", "--kmax", "2", "--numax", "1"],
    ["reproduce", "--table", "x2", "--threads", "0"],
    ["reproduce", "--table", "1", "--threads", "-3"],
    ["calibrate", "--threads", "0"],
    ["calibrate", "--threads", "1e9"],
    ["calibrate", "--kmax", "2", "--numax", "1", "--curve-out", "MISSING_DIR"],
    *(["estimate", name] for name in _BAD_FILES),
], ids=["reproduce-replicates-0", "reproduce-replicates-1", "calibrate-replicates-1",
        "calibrate-folds-1", "calibrate-max-degree-0", "calibrate-step-nan",
        "calibrate-cmax-inf", "density-bins-0", "estimate-not-utf8",
        "calibrate-cmin-negative", "reproduce-threads-0", "reproduce-threads-negative",
        "calibrate-threads-0", "calibrate-threads-not-int",
        "calibrate-curve-out-missing-dir",
        *(f"estimate-{name.replace('.', '-')}" for name in _BAD_FILES)])
def test_invalid_input_exits_2_before_any_simulation(argv, tmp_path, capsys, monkeypatch):
    path = tmp_path / "latin1.csv"
    path.write_bytes("weight,s2,df\n1,1,1\n\u00e9,1,1\n".encode("latin-1"))
    paths = {"NOT_UTF8": str(path), "MISSING_DIR": str(tmp_path / "missing" / "curve.csv")}
    for name, text in _BAD_FILES.items():
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    for name in ("simulation.generate_table", "simulation.generate_tables",
                 "calibration.run_calibration", "simulation.ratio_samples_k2_nu1"):
        monkeypatch.setattr(f"effdof.{name}", lambda *a, **k: pytest.fail("simulation ran"))
    assert main([paths.get(a, a) for a in argv]) == 2
    assert "error" in capsys.readouterr().err
