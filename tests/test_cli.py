"""Command-line front end tests: file outputs, schema, exit codes,
byte determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import hankellab
from hankellab.cli import main

SPECTRAL_SCHEMA = {
    "type": "object",
    "required": ["alpha", "family", "predicted", "steps"],
    "properties": {
        "alpha": {"type": "number"},
        "family": {"type": "object"},
        "predicted": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["lo", "hi", "multiplicity"],
                "properties": {
                    "lo": {"type": "number"},
                    "hi": {"type": "number"},
                    "multiplicity": {"type": "integer"},
                },
            },
        },
        "steps": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["R", "N", "max_gap", "outliers", "hausdorff", "hypothesis_ok"],
                "properties": {
                    "R": {"type": "number"},
                    "N": {"type": "integer"},
                    "max_gap": {"type": "number"},
                    "outliers": {"type": "array", "items": {"type": "number"}},
                    "hausdorff": {"type": "number"},
                    "hypothesis_ok": {"type": "boolean"},
                },
            },
        },
    },
}

VERIFICATION_SCHEMA = {
    "type": "object",
    "required": ["checks", "verdict"],
    "properties": {
        "verdict": {"enum": ["pass", "fail"]},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "anchor", "grids", "metrics", "verdict"],
                "properties": {
                    "name": {"type": "string"},
                    "anchor": {"type": "string"},
                    "grids": {"type": "array"},
                    "metrics": {"type": "array"},
                    "verdict": {"enum": ["pass", "fail"]},
                },
            },
        },
    },
}


def read_csv_column(path, column, header=True):
    lines = path.read_text().strip().split("\n")
    if header:
        names = lines[0].split(",")
        idx = names.index(column)
        return np.array([float(l.split(",")[idx]) for l in lines[1:]])
    return np.array([float(l) for l in lines])


class TestSymbolCommand:
    def test_carleman_symbol_table(self, tmp_path):
        assert main(["symbol", "--alpha", "0", "--out", str(tmp_path)]) == 0
        path = tmp_path / "symbol.csv"
        xi = read_csv_column(path, "xi")
        sg = read_csv_column(path, "sigma_gamma")
        diff = read_csv_column(path, "abs_diff")
        row0 = np.argmin(np.abs(xi))
        assert xi[row0] == 0.0
        assert abs(sg[row0] - math.pi) <= 1e-12
        assert diff.max() <= 1e-8
        # evenness in xi
        order = np.argsort(xi)
        assert sg[order] == pytest.approx(sg[order][::-1], rel=1e-12)

    def test_large_alpha(self, tmp_path):
        # each Gamma factor of the symbol overflows on its own from alpha ~ 98.6
        assert main(["symbol", "--alpha", "200", "--out", str(tmp_path)]) == 0
        sg = read_csv_column(tmp_path / "symbol.csv", "sigma_gamma")
        assert np.isfinite(sg).all() and sg.max() <= 4.86e-122

    @pytest.mark.parametrize("alpha", ["20", "200"])
    def test_routes_agree_relatively_at_large_alpha(self, tmp_path, alpha):
        # abs_diff cannot see an error where sigma is below ~1e-9 (every xi
        # from alpha ~ 20 on): the two routes' ratio can
        assert main(["symbol", "--alpha", alpha, "--out", str(tmp_path)]) == 0
        sg = read_csv_column(tmp_path / "symbol.csv", "sigma_gamma")
        sq = read_csv_column(tmp_path / "symbol.csv", "sigma_quadrature")
        assert len(sg) == 101 and (sg > 0.0).all()
        assert np.abs(sq / sg - 1.0).max() <= 1e-12

    def test_alpha_near_minus_half_without_a_numpy_warning(self, tmp_path):
        # the quadrature window passes x ~ 709, where e^x overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["symbol", "--alpha", "-0.45", "--out", str(tmp_path)]) == 0
        assert read_csv_column(tmp_path / "symbol.csv", "abs_diff").max() <= 1e-8

    def test_half_alpha_value_one(self, tmp_path):
        assert main(["symbol", "--alpha", "0.5", "--out", str(tmp_path)]) == 0
        xi = read_csv_column(tmp_path / "symbol.csv", "xi")
        sg = read_csv_column(tmp_path / "symbol.csv", "sigma_gamma")
        assert sg[np.argmin(np.abs(xi))] == pytest.approx(1.0, abs=1e-12)


class TestSpectrumCommand:
    def test_carleman_defaults_single_step(self, tmp_path):
        code = main(
            ["spectrum", "--alpha", "0", "--R", "8", "--N", "400", "--out", str(tmp_path)]
        )
        assert code == 0
        eigs = read_csv_column(tmp_path / "eigs_R8_N400.csv", None, header=False)
        assert (np.diff(eigs) >= 0.0).all()
        assert len(eigs) == 400
        report = json.loads((tmp_path / "spectral_report.json").read_text())
        jsonschema.validate(report, SPECTRAL_SCHEMA)
        assert report["alpha"] == 0.0
        assert report["predicted"] == [
            {"lo": 0.0, "hi": pytest.approx(math.pi, abs=1e-12), "multiplicity": 2}
        ]
        step = report["steps"][0]
        assert step["outliers"] == []
        assert step["hypothesis_ok"] is True
        assert step["R"] == 8.0 and step["N"] == 400

    def test_family_with_dropped_end(self, tmp_path):
        code = main(
            [
                "spectrum",
                "--alpha",
                "0",
                "--kernel",
                "rational(0,1,1,1)",
                "--R",
                "6",
                "--N",
                "200",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "spectral_report.json").read_text())
        assert len(report["predicted"]) == 1
        assert report["predicted"][0]["hi"] == pytest.approx(math.pi, abs=1e-12)
        assert report["predicted"][0]["multiplicity"] == 1

    def test_sign_change_family_negative_interval(self, tmp_path):
        code = main(
            [
                "spectrum",
                "--alpha",
                "0",
                "--kernel",
                "rational(1,-1,1,1)",
                "--R",
                "8",
                "--N",
                "400",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "spectral_report.json").read_text())
        los = sorted(iv["lo"] for iv in report["predicted"])
        assert los[0] == pytest.approx(-math.pi, abs=1e-12)
        eigs = read_csv_column(tmp_path / "eigs_R8_N400.csv", None, header=False)
        assert eigs.min() < -0.5  # negative branch genuinely populated

    @pytest.mark.parametrize("alpha,name", [("0.5", "power"), ("0", "carleman")])
    def test_model_names_are_rational_one(self, tmp_path, alpha, name):
        # power and carleman are the family (1, 1, 1, 1), so they assemble
        # the same matrix as rational(1,1,1,1), bit for bit
        reports = {}
        for kernel in (name, "rational(1,1,1,1)"):
            out = tmp_path / kernel
            args = ["spectrum", "--alpha", alpha, "--kernel", kernel, "--R", "8", "--N", "400"]
            assert main(args + ["--out", str(out)]) == 0
            reports[kernel] = json.loads((out / "spectral_report.json").read_text())
        eigs = [(tmp_path / k / "eigs_R8_N400.csv").read_bytes() for k in reports]
        assert eigs[0] == eigs[1]
        for report in reports.values():
            del report["family"]["kernel"]
        assert reports[name] == reports["rational(1,1,1,1)"]


class TestVerifyCommand:
    def test_defaults_pass(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ladder": [[6, 200], [8, 400]]}))
        code = main(["verify", "--config", str(config), "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "verification_report.json").read_text())
        jsonschema.validate(report, VERIFICATION_SCHEMA)
        assert report["verdict"] == "pass"
        assert {c["name"] for c in report["checks"]} == {
            "C1",
            "C2",
            "C3",
            "C4",
            "C5",
            "C6",
            "C7",
            "C8",
        }
        for check in report["checks"]:
            assert set(check) == {"name", "anchor", "grids", "metrics", "verdict", "rule"}

    @pytest.mark.parametrize("fault", [None, "one_wrong_weight"])
    def test_verdicts_rederived_from_the_report(self, tmp_path, monkeypatch, fault):
        # each check's rule gives its recorded verdict from the written rows
        # alone; the fault (one node's weight off by 1e-6) must fail C2's
        # per-step bound
        if fault:
            make = hankellab.verify.make_grid

            def one_wrong_weight(R, N):
                grid = make(R, N)
                w = grid.weights.copy()
                w[3] *= 1.0 + 1e-6
                return dataclasses.replace(grid, weights=w)

            monkeypatch.setattr(hankellab.verify, "make_grid", one_wrong_weight)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ladder": [[6, 200], [8, 400]], "alpha": 0.5, "kernel": "rational(2,1,1,2)"}))
        code = main(["verify", "--config", str(config), "--out", str(tmp_path / "out")])
        report = json.loads((tmp_path / "out" / "verification_report.json").read_text())
        verdicts = {c["name"]: c["verdict"] for c in report["checks"]}
        assert code == (1 if fault else 0)
        assert verdicts["C2"] == ("fail" if fault else "pass")
        for check in report["checks"]:
            assert check["anchor"] != "(check aborted)"
            holds = hankellab.verify._CHECKS[check["name"]][2](check["metrics"])
            assert check["verdict"] == ("pass" if holds else "fail")

    def test_checks_help_lists_every_name(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--help"])
        assert info.value.code == 0
        names = hankellab.verify.CHECK_NAMES
        assert len(names) == 8
        assert ",".join(names) in capsys.readouterr().out

    def test_subset_of_checks(self, tmp_path):
        code = main(
            [
                "verify",
                "--alpha",
                "0.5",
                "--R",
                "6",
                "--N",
                "200",
                "--checks",
                "C2,C5",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "verification_report.json").read_text())
        assert [c["name"] for c in report["checks"]] == ["C2", "C5"]

    def test_byte_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["verify", "--alpha", "0", "--R", "6", "--N", "200", "--checks", "C2,C4,C6"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        b1 = (out1 / "verification_report.json").read_bytes()
        b2 = (out2 / "verification_report.json").read_bytes()
        assert b1 == b2

    def test_weighted_top_is_spectrum_top(self, tmp_path):
        # verify's C8 and spectrum solve the one weighted matrix of a step
        args = ["--alpha", "0.5", "--kernel", "power", "--R", "8", "--N", "400"]
        assert main(["verify", *args, "--checks", "C8", "--out", str(tmp_path / "v")]) == 0
        assert main(["spectrum", *args, "--out", str(tmp_path / "s")]) == 0
        report = json.loads((tmp_path / "v" / "verification_report.json").read_text())
        (c8,) = report["checks"]
        eigs = read_csv_column(tmp_path / "s" / "eigs_R8_N400.csv", None, header=False)
        assert c8["metrics"][0]["weighted_hankel"]["top"] == eigs.max()

    @pytest.mark.parametrize("kernel,alpha", [("power", "0.5"), ("rational(2,1,1,2)", "0.5")])
    def test_spectrum_step_memory(self, tmp_path, traced_peak, kernel, alpha):
        # the weighted matrix is assembled and solved as its upper row
        # strips (0.54 N^2 doubles at N = 1600), never as an N x N array:
        # 0.93-0.95 N^2 measured for the whole step, 1.40 when it was one
        N = 1600
        args = ["spectrum", "--alpha", alpha, "--kernel", kernel, "--R", "12", "--N", str(N)]
        code, peak = traced_peak(lambda: main(args + ["--out", str(tmp_path)]))
        assert code == 0
        assert peak <= 1.05 * 8 * N**2

    def test_single_coarse_step_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["verify", "--alpha", "0", "--R", "4", "--N", "50", "--checks", "C1"]
        c1 = main(args + ["--out", str(out1)])
        c2 = main(args + ["--out", str(out2)])
        assert c1 == c2
        assert (out1 / "verification_report.json").read_bytes() == (
            out2 / "verification_report.json"
        ).read_bytes()


class TestConfigValidation:
    def test_alpha_at_boundary_rejected(self, tmp_path):
        assert main(["verify", "--alpha", "-0.5", "--out", str(tmp_path)]) == 2

    def test_unknown_kernel_rejected(self, tmp_path):
        out = tmp_path / "out"
        assert main(["spectrum", "--kernel", "mystery", "--out", str(out)]) == 2
        assert not out.exists()

    def test_carleman_requires_alpha_zero(self, tmp_path):
        assert main(
            ["spectrum", "--alpha", "0.5", "--kernel", "carleman", "--out", str(tmp_path)]
        ) == 2

    def test_odd_N_rejected(self, tmp_path):
        assert main(
            ["spectrum", "--R", "6", "--N", "201", "--out", str(tmp_path)]
        ) == 2

    def test_R_without_N_rejected(self, tmp_path):
        assert main(["spectrum", "--R", "6", "--out", str(tmp_path)]) == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"laddr": [[6, 200]]}))
        assert main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 2

    def test_non_increasing_ladder_rejected_before_output(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ladder": [[8, 400], [6, 200]]}))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--checks", ","], ["--checks", ""], "config"])
    def test_empty_check_selection_rejected_before_output(self, tmp_path, flags):
        # an empty selection names no check; it must not run all eight
        if flags == "config":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"checks": []}))
            flags = ["--config", str(config)]
        out = tmp_path / "out"
        assert main(["verify", "--R", "6", "--N", "200", *flags, "--out", str(out)]) == 2
        assert not out.exists()

    def test_repeated_spectrum_step_rejected_before_output(self, tmp_path):
        # the ladder rule that verify applies holds for spectrum too
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ladder": [[6, 200], [6, 200]]}))
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "raw",
        [
            {"ladder": [[6]]},
            {"ladder": 5},
            {"ladder": [[6, 200.7]]},
            {"ladder": [[math.inf, 200]]},
            {"alpha": "abc"},
            {"checks": 5},
            {"delta": "x"},
            {"interior_margin": math.inf},
            {"output_dir": 5},
        ],
        ids=[
            "short_step",
            "not_a_list",
            "fractional_N",
            "infinite_R",
            "alpha_text",
            "checks_number",
            "delta_text",
            "infinite_margin",
            "output_dir_number",
        ],
    )
    def test_malformed_config_rejected(self, tmp_path, raw):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["spectrum", "--alpha", "inf"],
            ["spectrum", "--R", "inf", "--N", "200"],
            ["verify", "--alpha", "inf"],
            ["spectrum", "--R", "6", "--N", "200", "--delta", "inf"],
            ["spectrum", "--R", "6", "--N", "200", "--margin", "inf"],
            ["spectrum", "--kernel", "rational(nan,1,1,1)", "--R", "6", "--N", "200"],
            ["spectrum", "--weight", "rational(nan,1)", "--R", "6", "--N", "200"],
            ["verify", "--kernel", "rational(nan,1,1,1)", "--R", "6", "--N", "200"],
            ["spectrum", "--kernel", "rational(1,1,1e200,1)", "--R", "6", "--N", "200"],
            # finite parameters whose kernel overflows on the grid
            ["spectrum", "--kernel", "rational(1e307,1,1,1)", "--R", "6", "--N", "200"],
            # predicts no interval, so the default delta and margin are 0
            ["spectrum", "--kernel", "rational(0,0,0,0)", "--R", "6", "--N", "200"],
            ["spectrum", "--kernel", "rational(0,0,0,0)", "--R", "6", "--N", "200", "--delta", "1"],
        ],
        ids=[
            "spectrum_alpha",
            "spectrum_R",
            "verify_alpha",
            "spectrum_delta",
            "spectrum_margin",
            "spectrum_nan_kernel",
            "spectrum_nan_weight",
            "verify_nan_kernel",
            "spectrum_endpoint_overflow",
            "spectrum_kernel_overflow",
            "spectrum_zero_family_defaults",
            "spectrum_zero_family_default_margin",
        ],
    )
    def test_non_finite_parameter_rejected(self, tmp_path, args):
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == 2
        assert not out.exists()

    def test_kernel_overflow_reported_without_a_numpy_warning(self, tmp_path):
        args = ["spectrum", "--kernel", "rational(1e307,1,1,1)", "--R", "6", "--N", "200"]
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert main(args + ["--out", str(tmp_path / "out")]) == 2
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]

    def test_margin_emptying_every_interval_rejected(self, tmp_path):
        # [0, pi] less 2 at both ends is empty: no fill to report
        out = tmp_path / "out"
        args = ["spectrum", "--R", "6", "--N", "200", "--margin", "2", "--out", str(out)]
        assert main(args) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [["spectrum", "--delta", "0.1", "--margin", "0.1"], ["verify", "--checks", "C2"]],
        ids=["spectrum_delta_and_margin", "verify"],
    )
    def test_zero_family_accepted(self, tmp_path, args):
        family = ["--kernel", "rational(0,0,0,0)", "--R", "6", "--N", "200"]
        assert main(args + family + ["--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize(
        "args",
        [
            ["symbol", "--kernel", "mystery"],
            ["symbol", "--weight", "power"],
            ["symbol", "--R", "6", "--N", "200"],
            ["symbol", "--delta", "1"],
            ["symbol", "--margin", "1"],
            ["symbol", "--checks", "C1"],
            ["spectrum", "--R", "6", "--N", "200", "--checks", "C1"],
            ["verify", "--R", "6", "--N", "200", "--checks", "C2", "--delta", "9"],
            ["verify", "--R", "6", "--N", "200", "--checks", "C2", "--margin", "5"],
        ],
        ids=[
            "symbol_kernel",
            "symbol_weight",
            "symbol_ladder",
            "symbol_delta",
            "symbol_margin",
            "symbol_checks",
            "spectrum_checks",
            "verify_delta",
            "verify_margin",
        ],
    )
    def test_flag_the_command_does_not_read_rejected(self, tmp_path, args):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_bad_json_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        assert main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 2

    def test_weight_override(self, tmp_path):
        code = main(
            [
                "spectrum",
                "--alpha",
                "0",
                "--kernel",
                "power",
                "--weight",
                "rational(1,2)",
                "--R",
                "6",
                "--N",
                "200",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "spectral_report.json").read_text())
        assert report["family"]["b_inf"] == 2.0


def _builtin_only(obj) -> bool:
    """Whether obj is made of dicts with str keys, lists, tuples, str, int,
    float, bool and None alone (no numpy scalars), which json writes
    exactly: each float as its shortest round-trip repr."""
    if type(obj) is dict:
        return all(type(k) is str and _builtin_only(v) for k, v in obj.items())
    if type(obj) in (list, tuple):
        return all(_builtin_only(v) for v in obj)
    return obj is None or type(obj) in (str, int, float, bool)


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--alpha", "0.5", "--kernel", "power"],
        ["verify", "--alpha", "0", "--kernel", "rational(1,-1,1,1)"],
        ["verify", "--alpha", "0.5", "--kernel", "rational(2,1,1,2)", "--checks", "C6,C8"],
        ["spectrum", "--alpha", "0", "--kernel", "carleman"],
        ["spectrum", "--alpha", "0.5", "--kernel", "rational(0,1,1,1)", "--weight", "rational(1,2)"],
    ],
    ids=lambda a: " ".join(a[:5]),
)
def test_report_payloads_hold_builtin_types(tmp_path, monkeypatch, args):
    payloads, write = [], hankellab.cli._write_json
    monkeypatch.setattr(
        hankellab.cli, "_write_json", lambda path, p: payloads.append(p) or write(path, p)
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ladder": [[6, 200], [8, 400]]}))
    assert main(args + ["--config", str(config), "--out", str(tmp_path)]) in (0, 1)
    assert len(payloads) == 1 and _builtin_only(payloads[0])


def test_cli_import_loads_no_test_oracle():
    # the runtime depends on numpy only; scipy, mpmath, jsonschema and
    # hypothesis are test oracles
    src = Path(hankellab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = (
        "import sys, hankellab.cli; "
        "print(sorted({'scipy', 'mpmath', 'jsonschema', 'hypothesis'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
