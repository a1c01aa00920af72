"""Machine-readable reports: schema, serialization round-trips, and the
CSV / plot-data companions."""
import csv
import json

import numpy as np
import pytest

from maxreg.report import (
    SCHEMA_VERSION,
    SEMINORM_COLUMNS,
    RegularityReport,
    SeminormRow,
    emit_plot_data,
    emit_report,
    load_report,
    report_from_dict,
)


def sample_report():
    rows = [
        SeminormRow("bmo", 0.5, 0.3393954321, (-0.25, 0.25), 512,
                    divergent_flag=False, seed=7),
        SeminormRow("dini", 1.0, 3.5264, None, 512, divergent_flag=True,
                    seed=7),
    ]
    return RegularityReport(
        experiment_id="exp-001",
        coefficient={"kind": "sqrt_product", "seed": 7, "lambda": 0.5,
                     "Lambda": 1.5, "T": 1.0, "M": 0.3361,
                     "M_natural": 0.3361},
        resolutions={"n_t": 512, "n_x": 64, "window_factor": 4},
        norms={"u_H1_H": 0.123456789012345, "u_E": 0.25,
               "f_L2_H": 1.0},
        ratios={"maxreg": 0.5064},
        seminorms=rows,
        diagnostics={"gmres_iterations": 11},
    )


class TestSchema:
    def test_version_field_present(self):
        assert sample_report().schema_version == SCHEMA_VERSION
        assert sample_report().to_dict()["schema_version"] == SCHEMA_VERSION

    def test_negative_norm_rejected(self):
        with pytest.raises(ValueError):
            RegularityReport(experiment_id="bad", norms={"u_E": -1.0})

    def test_empty_report_is_valid(self, tmp_path):
        path = emit_report(RegularityReport(experiment_id="empty"),
                           str(tmp_path / "empty.json"))
        loaded = load_report(path)
        assert loaded.experiment_id == "empty"
        assert loaded.norms == {} and loaded.seminorms == []

    def test_to_dict_is_json_safe(self):
        rep = sample_report()
        rep.diagnostics["numpy_scalar"] = np.float64(1.5)
        rep.diagnostics["numpy_flag"] = np.bool_(True)
        rep.diagnostics["theta"] = 1.0 + 10.0j
        d = rep.to_dict()
        text = json.dumps(d)
        assert json.loads(text)["diagnostics"]["theta"] == {"re": 1.0,
                                                            "im": 10.0}


class TestRoundTrip:
    def test_json_round_trip_bit_exact(self, tmp_path):
        rep = sample_report()
        path = emit_report(rep, str(tmp_path / "r.json"), format="json")
        loaded = load_report(path)
        assert loaded.to_dict() == rep.to_dict()
        # floats survive exactly (shortest-roundtrip repr)
        assert loaded.norms["u_H1_H"] == rep.norms["u_H1_H"]
        assert loaded.seminorms[0].value == rep.seminorms[0].value

    def test_dict_round_trip(self):
        rep = sample_report()
        again = report_from_dict(rep.to_dict())
        assert again.to_dict() == rep.to_dict()

    def test_row_without_seed_loads_with_none(self):
        # reports written before rows carried a seed still load
        d = sample_report().to_dict()
        for row in d["seminorms"]:
            del row["seed"]
        again = report_from_dict(d)
        assert [r.seed for r in again.seminorms] == [None, None]
        assert again.seminorms[0].achieving_interval == (-0.25, 0.25)
        assert again.to_dict()["seminorms"] == [{**row, "seed": None} for row in d["seminorms"]]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(sample_report(), str(tmp_path / "r.xml"),
                        format="xml")


class TestCsv:
    def test_column_order_and_row_count(self, tmp_path):
        rep = sample_report()
        path = emit_report(rep, str(tmp_path / "r.csv"), format="csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SEMINORM_COLUMNS
        assert len(rows) == 1 + len(rep.seminorms)
        assert rows[1][0] == "bmo"
        assert float(rows[1][2]) == rep.seminorms[0].value
        assert rows[2][3] == "" and rows[2][4] == ""  # no achieving interval


class TestPlotData:
    def test_two_column_companion(self, tmp_path):
        x = np.linspace(0.0, 1.0, 5)
        y = x ** 2 / 3.0
        path = emit_plot_data(str(tmp_path / "p.csv"), x, y,
                              header=("t", "norm_u"))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "norm_u"]
        assert len(rows) == 6
        # repr round-trips the floats exactly
        assert [float(r[1]) for r in rows[1:]] == list(y)
