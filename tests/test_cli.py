import argparse
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qherm
from qherm.cli import main

WORKED = {
    "format": 1,
    "kind": "dense",
    "dim": 2,
    "entries": [[1, 0], [1, 0], [0, 0], [2, 0]],
    "label": "worked",
}
G_FILE = {
    "format": 1,
    "kind": "dense",
    "dim": 2,
    "entries": [[1, 0], [-1, 0], [-1, 0], [2, 0]],
    "label": "metric",
}
ROTATION = {
    "format": 1,
    "kind": "dense",
    "dim": 2,
    "entries": [[0, 0], [1, 0], [-1, 0], [0, 0]],
}
HERMITIAN = {
    "format": 1,
    "kind": "dense",
    "dim": 2,
    "entries": [[2, 0], [0, 1], [0, -1], [3, 0]],
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_analyze_classifications(tmp_path, capsys):
    cases = [
        (HERMITIAN, "hermitian"),
        (WORKED, "quasi_hermitian_pd"),
        (ROTATION, "pseudo_hermitian_indefinite"),
        (
            {"format": 1, "kind": "dense", "dim": 2, "entries": [[1, 0], [1, 0], [0, 0], [1, 0]]},
            "defective",
        ),
        (
            {"format": 1, "kind": "dense", "dim": 2, "entries": [[0, 1], [0, 0], [0, 0], [2, 0]]},
            "not_pseudo_hermitian",
        ),
    ]
    for payload, expected in cases:
        path = _write(tmp_path, "input.json", payload)
        out = str(tmp_path / "report.json")
        assert main(["analyze", path, "--json-out", out]) == 0
        report = json.loads(open(out).read())
        assert report["classification"] == expected, expected
        assert report["tool"] == "qherm"
    capsys.readouterr()


@pytest.mark.parametrize("s", [1e-200, 1e-170, 1.0, 1e160, 1e200])
def test_badly_scaled_non_hermitian_input(tmp_path, capsys, s):
    # s * [[1, 1], [0, 2]]: squaring its entries under- or overflows at the ends
    scaled = dict(WORKED, entries=[[s, 0], [s, 0], [0, 0], [2 * s, 0]])
    path = _write(tmp_path, "scaled.json", scaled)
    assert main(["lattice", path]) == 2
    assert "error: Hermiticity defect 5.774e-01 exceeds tolerance 1.000e-10" in capsys.readouterr().err
    out = str(tmp_path / "report.json")
    assert main(["analyze", path, "--json-out", out]) == 0
    assert json.loads(open(out).read())["classification"] == "quasi_hermitian_pd"
    capsys.readouterr()


def test_analyze_worked_report_content(tmp_path, capsys):
    path = _write(tmp_path, "worked.json", WORKED)
    out = str(tmp_path / "report.json")
    assert main(["analyze", path, "--json-out", out]) == 0
    report = json.loads(open(out).read())
    assert report["input"] == {"dim": 2, "label": "worked"}
    assert report["metric"]["residual"] <= 1e-12
    assert report["transform"]["herm_residual"] <= 1e-12
    eigs = np.array([complex(re, im) for re, im in report["spectrum"]["eigenvalues"]])
    assert np.allclose(eigs, [1.0, 2.0], atol=1e-12)
    assert report["spectrum"]["all_real"] is True
    capsys.readouterr()


def test_json_output_byte_identical(tmp_path, capsys):
    path = _write(tmp_path, "worked.json", WORKED)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["analyze", path, "--json-out", out1]) == 0
    assert main(["analyze", path, "--json-out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    assert main(["metric", path, "--json-out", out1]) == 0
    assert main(["metric", path, "--json-out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    capsys.readouterr()


def test_metric_and_transform_commands(tmp_path, capsys):
    path = _write(tmp_path, "worked.json", WORKED)
    gpath = _write(tmp_path, "metric.json", G_FILE)
    out = str(tmp_path / "m.json")
    assert main(["metric", path, "--json-out", out]) == 0
    report = json.loads(open(out).read())
    scale = report["scale"]
    entries = np.array(report["G"]["entries"])
    g = (entries[:, 0] + 1j * entries[:, 1]).reshape(2, 2) / scale
    assert np.abs(g - np.array([[1, -1], [-1, 2]])).max() <= 1e-12

    out = str(tmp_path / "k.json")
    assert main(["transform", path, "--metric", gpath, "--json-out", out]) == 0
    assert json.loads(open(out).read())["herm_residual"] <= 1e-12
    capsys.readouterr()


def test_metric_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "rot.json", ROTATION)
    assert main(["metric", path]) == 2
    capsys.readouterr()


def test_analyze_refuses_a_pseudo_metric_that_overflows(tmp_path, capsys):
    # the rotation under a diagonal similarity of condition 1e200: eigenvalues
    # +-i, and S^-* M S^-1 overflows before it can be normalized
    scaled = {**ROTATION, "entries": [[0, 0], [1e200, 0], [-1e-200, 0], [0, 0]]}
    path = _write(tmp_path, "scaled.json", scaled)
    with pytest.warns(qherm.IllConditionedWarning):
        assert main(["analyze", path]) == 2
    assert capsys.readouterr().err == (
        "error: solve_pseudo_metric: pseudo metric entries overflow "
        "(eigenvector basis condition 1.000e+200)\n"
    )


def test_qsim_command(tmp_path, capsys):
    a = _write(tmp_path, "a.json", WORKED)
    b = _write(
        tmp_path,
        "b.json",
        {
            "format": 1,
            "kind": "dense",
            "dim": 2,
            "entries": [[1, 0], [0, 0], [1, 0], [2, 0]],  # adjoint of worked
        },
    )
    t = _write(tmp_path, "t.json", G_FILE)
    out = str(tmp_path / "qsim.json")
    assert main(["qsim", a, b, t, "--json-out", out]) == 0
    report = json.loads(open(out).read())
    assert report["passed"] is True
    assert report["intertwining"]["residual"] <= 1e-12
    assert report["spectral_match"]["inclusion"] is True

    # a wrong intertwiner is a verification failure, not a usage error
    bad_t = _write(
        tmp_path,
        "bad.json",
        {"format": 1, "kind": "dense", "dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]},
    )
    assert main(["qsim", a, b, bad_t]) == 1
    capsys.readouterr()


def test_lattice_command(tmp_path, capsys):
    gpath = _write(tmp_path, "g.json", G_FILE)
    out = str(tmp_path / "lat.json")
    assert main(["lattice", gpath, "--samples", "5", "--seed", "3", "--json-out", out]) == 0
    report = json.loads(open(out).read())
    assert report["passed"] is True
    assert len(report["norms"]) == 5
    assert set(report["norms"][0]) == {
        "plain",
        "g",
        "g_inv",
        "rg",
        "rg_inv",
        "rginv",
        "rginv_inv",
    }
    capsys.readouterr()


def test_spectral_command_csv(tmp_path, capsys):
    path = _write(tmp_path, "worked.json", WORKED)
    csv_out = str(tmp_path / "x.csv")
    json_out = str(tmp_path / "x.json")
    assert (
        main(
            [
                "spectral",
                path,
                "--samples",
                "3",
                "--seed",
                "1",
                "--csv-out",
                csv_out,
                "--json-out",
                json_out,
            ]
        )
        == 0
    )
    lines = open(csv_out).read().strip().splitlines()
    assert lines[0] == "sample,lambda,re,im"
    assert len(lines) == 1 + 3 * 2  # samples x thresholds
    report = json.loads(open(json_out).read())
    assert report["passed"] is True
    assert report["thresholds"] == [pytest.approx(1.0), pytest.approx(2.0)]
    capsys.readouterr()


def test_samsonov_command(tmp_path, capsys):
    csv_out = str(tmp_path / "s.csv")
    code = main(
        ["samsonov", "--d", "0", "--b", "0", "--L", "40", "--n", "64,128", "--csv-out", csv_out]
    )
    assert code == 0
    lines = open(csv_out).read().strip().splitlines()
    assert lines[0] == (
        "n,h,min_eig_G,gap_to_d2,residual_full,"
        "herm_residual_h,max_im_lambda_H,order_estimates"
    )
    assert len(lines) == 3
    capsys.readouterr()


def test_samsonov_spec_file(tmp_path, capsys):
    path = _write(
        tmp_path,
        "spec.json",
        {"format": 1, "kind": "samsonov", "d": 0.0, "b": 0.0, "box_length": 40.0, "n": 64},
    )
    assert main(["samsonov", path]) == 0
    assert main(["samsonov", path, "--n", "64,128"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "payload",
    [
        "not json at all {",
        json.dumps([1, 2, 3]),
        json.dumps({"format": 2, "kind": "dense", "dim": 1, "entries": [[1, 0]]}),
        json.dumps({"format": 1, "kind": "mystery"}),
        json.dumps({"format": 1, "kind": "dense", "dim": 2, "entries": [[1, 0]]}),
        json.dumps({"format": 1, "kind": "dense", "dim": -2, "entries": []}),
        json.dumps({"format": 1, "kind": "dense", "dim": 1, "entries": [[1]]}),
        json.dumps({"format": 1, "kind": "dense", "dim": 1, "entries": [["x", 0]]}),
        json.dumps({"format": 1, "kind": "dense", "dim": 1, "entries": [[1, 0]], "label": 7}),
        json.dumps({"format": 1, "kind": "samsonov", "d": 0.0, "b": 0.0, "n": 4}),
        json.dumps({"format": 1, "kind": "samsonov", "d": "x", "b": 0.0, "n": 64}),
        pytest.param(
            json.dumps({"format": 1, "kind": "dense", "dim": 1, "entries": [[10**400, 0]]}),
            id="dense-entry-overflows-float",
        ),
        pytest.param(
            json.dumps({"format": 1, "kind": "samsonov", "d": 10**400, "b": 0.0, "n": 64}),
            id="samsonov-d-overflows-float",
        ),
    ],
)
def test_malformed_files_exit_two(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    for command in (["analyze", str(path)], ["metric", str(path)], ["samsonov", str(path)]):
        assert main(command) == 2
    capsys.readouterr()


def test_missing_file_exit_two(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_unwritable_json_out_exit_two(tmp_path, capsys):
    path = _write(tmp_path, "worked.json", WORKED)
    assert main(["analyze", path, "--json-out", str(tmp_path / "nope" / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_analyze_exactly_defective_json(tmp_path, capsys):
    # a nilpotent Jordan block: the eigenvector matrix is exactly singular
    path = _write(
        tmp_path,
        "jordan3.json",
        {
            "format": 1,
            "kind": "dense",
            "dim": 3,
            "entries": [[0, 0], [1, 0], [0, 0], [0, 0], [0, 0], [1, 0], [0, 0], [0, 0], [0, 0]],
        },
    )
    out = tmp_path / "report.json"
    assert main(["analyze", path, "--json-out", str(out)]) == 0
    text = out.read_text()
    assert '"vector_condition":null' in text
    assert json.loads(text)["classification"] == "defective"
    capsys.readouterr()


def test_nan_entries_rejected(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"format": 1, "kind": "dense", "dim": 1, "entries": [[NaN, 0]]}'
    )
    assert main(["analyze", str(path)]) == 2
    capsys.readouterr()


def test_transform_force_flag(tmp_path, capsys):
    # identity is not a metric for the worked matrix: refuse, unless forced
    a = _write(tmp_path, "a.json", WORKED)
    eye = _write(
        tmp_path,
        "eye.json",
        {"format": 1, "kind": "dense", "dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]},
    )
    assert main(["transform", a, "--metric", eye]) == 2
    with pytest.warns(UserWarning):
        assert main(["transform", a, "--metric", eye, "--force"]) == 0
    capsys.readouterr()


def test_qsim_dimension_mismatch_exit_two(tmp_path, capsys):
    a = _write(tmp_path, "a.json", WORKED)
    small = _write(
        tmp_path, "one.json", {"format": 1, "kind": "dense", "dim": 1, "entries": [[1, 0]]}
    )
    assert main(["qsim", a, a, small]) == 2
    capsys.readouterr()


def test_samsonov_bad_schedule_exit_two(capsys):
    assert main(["samsonov", "--d", "0", "--b", "0", "--n", "64,abc"]) == 2
    capsys.readouterr()
    # a repeated size would run one grid twice and divide by log(n/n) = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["samsonov", "--d", "-1", "--b", "1", "--n", "100,100"]) == 2
    assert "schedule must be ascending grid sizes, got [100, 100]" in capsys.readouterr().err


def test_samsonov_takes_no_tol(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["samsonov", "--d", "0", "--b", "0", "--n", "64", "--tol", "1e-6"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_samsonov_underflowing_metric_exit_two(capsys):
    # at h = 1e300/16 every entry of G = L* L would underflow to zero
    assert main(["samsonov", "--d", "0", "--b", "0", "--L", "1e300", "--n", "16,32"]) == 2
    assert "= 1.6e-299 lies outside [1e-37, 1e+37]" in capsys.readouterr().err


@pytest.mark.parametrize("b", ["1e-150", "1e-170", "-1e-300"])
def test_samsonov_herm_residual_where_the_square_underflows(tmp_path, capsys, b):
    # |1 - hc| is 6e-172 at b = 1e-170, so |1 - hc|^2 underflows to 0 while
    # L is not singular: the residual is the sqrt 2 of its neighbours, not null
    json_out = tmp_path / "s.json"
    argv = ["samsonov", "--d=16", f"--b={b}", "--L=1", "--n=16", "--json-out", str(json_out)]
    assert main(argv) in (0, 1)
    capsys.readouterr()
    assert json.loads(json_out.read_text())["rows"][0]["herm_residual_h"] == 1.4142135623730951


# each overflowed a float square of |c| or 1/h in the report
_OVERFLOWING = [
    pytest.param({"d": 1e200, "b": 0.0, "box_length": 1.0}, "1e+200", id="d"),
    pytest.param({"d": 1.0, "b": 1e200, "box_length": 1.0}, "1e+200", id="b"),
    pytest.param({"d": 1e155, "b": 1.0, "box_length": 1.0}, "1e+155", id="c-squared"),
    pytest.param({"d": 1.0, "b": 0.0, "box_length": 1e-200}, "1.6e+201", id="inverse-h"),
]


@pytest.mark.parametrize("spec, scale", _OVERFLOWING)
def test_samsonov_flags_beyond_float_range_exit_two(capsys, spec, scale):
    argv = ["--d", str(spec["d"]), "--b", str(spec["b"]), "--L", str(spec["box_length"])]
    assert main(["samsonov", *argv, "--n", "16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: max(|d|, |b|, n / box_length) = {scale} lies outside [1e-37, 1e+37]: "
        "the report's numbers would overflow or underflow"
    ]


@pytest.mark.parametrize("spec, scale", _OVERFLOWING)
def test_samsonov_spec_beyond_float_range_exit_two(tmp_path, capsys, spec, scale):
    path = _write(tmp_path, "spec.json", {"format": 1, "kind": "samsonov", **spec, "n": 16})
    assert main(["samsonov", path]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {path}: max(|d|, |b|, n / box_length) = {scale} lies outside")


def _dense_with(entry, index):
    """A 2x2 dense payload whose entry ``index`` is replaced by ``entry``."""
    entries = [[1, 0], [0.5, 0], [0, -1.5], [2, 0]]
    entries[index] = entry
    return {"format": 1, "kind": "dense", "dim": 2, "entries": entries}


_NOT_A_PAIR = "must be a [re, im] number pair"


# each input passes the file-level checks, so only the per-entry check can
# reject it; the whole message, entry index included, is the one the
# per-entry check gave before the bulk parse
@pytest.mark.parametrize(
    "payload, message",
    [
        pytest.param(_dense_with([True, 0], 1), f"entry 1 {_NOT_A_PAIR}", id="true-re"),
        pytest.param(_dense_with([1.5, False], 2), f"entry 2 {_NOT_A_PAIR}", id="false-im"),
        pytest.param(_dense_with(["1.5", 0], 3), f"entry 3 {_NOT_A_PAIR}", id="numeric-string"),
        pytest.param(_dense_with([[1, 0], 0], 1), f"entry 1 {_NOT_A_PAIR}", id="nested-pair"),
        pytest.param(_dense_with([1, 0, 0], 2), f"entry 2 {_NOT_A_PAIR}", id="triple"),
        pytest.param(_dense_with(1.5, 3), f"entry 3 {_NOT_A_PAIR}", id="bare-number"),
        pytest.param(_dense_with({"re": 1, "im": 0}, 1), f"entry 1 {_NOT_A_PAIR}", id="dict"),
        pytest.param(_dense_with(True, 0), f"entry 0 {_NOT_A_PAIR}", id="bare-true"),
        pytest.param(_dense_with(None, 2), f"entry 2 {_NOT_A_PAIR}", id="null"),
        pytest.param(_dense_with("12", 1), f"entry 1 {_NOT_A_PAIR}", id="two-char-string"),
        pytest.param(
            _dense_with([0, 10**400], 2),
            "entry 2: int too large to convert to float",
            id="int-overflows-float",
        ),
    ],
)
def test_bulk_parse_rejections_name_the_entry(tmp_path, capsys, payload, message):
    path = _write(tmp_path, "bad.json", payload)
    assert main(["analyze", path]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def _upper_triangular(corner):
    entries = [[1, 0], [corner, 0], [0, 0], [2, 0]]
    return {"format": 1, "kind": "dense", "dim": 2, "entries": entries}


# the canonical metric of [[1, c], [0, 2]] has smallest eigenvalue about
# 1/c^2: zero in floats for c = 1e200, subnormal for c = 1e160
@pytest.mark.parametrize(
    "command, corner",
    [("metric", 1e200), ("analyze", 1e200), ("transform", 1e200), ("analyze", 1e160)],
)
def test_metric_below_the_float_range_exit_two(tmp_path, capsys, command, corner):
    path = _write(tmp_path, "a.json", _upper_triangular(corner))
    json_out = str(tmp_path / "out.json")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", qherm.IllConditionedWarning)
        assert main([command, path, "--json-out", json_out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: solve_metric: metric eigenvalue ")
    assert not os.path.exists(json_out)


HUGE_N = 10**400


def test_samsonov_spec_huge_n_exit_two(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(f'{{"format": 1, "kind": "samsonov", "d": -1, "b": 1, "n": {HUGE_N}}}')
    assert main(["samsonov", str(path)]) == 2
    assert "grid size n is too large for a float" in capsys.readouterr().err


def test_samsonov_flag_huge_n_exit_two(capsys):
    assert main(["samsonov", "--d", "-1", "--b", "1", "--n", str(HUGE_N)]) == 2
    assert "grid size n is too large for a float" in capsys.readouterr().err


def test_json_past_the_int_digit_limit_exit_two(tmp_path, capsys):
    # Python refuses to parse a decimal int of more than 4300 digits
    path = tmp_path / "spec.json"
    path.write_text(f'{{"format": 1, "kind": "samsonov", "d": -1, "b": 1, "n": 1{"0" * 5000}}}')
    assert main(["samsonov", str(path)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


def _no_grid(grid):
    raise AssertionError("no grid may be solved for a rejected schedule")


def test_the_grid_sentinel_fires_on_an_accepted_schedule(monkeypatch):
    # the report takes the extremes of sigma(G) once per grid, so a schedule
    # it accepts reaches the sentinel of the two tests below
    monkeypatch.setattr("qherm.halfline._metric_extremes", _no_grid)
    with pytest.raises(AssertionError, match="no grid may be solved"):
        main(["samsonov", "--d", "-1", "--b", "1", "--n", "100"])


def test_samsonov_flag_beyond_grid_limit_builds_no_grid(monkeypatch, capsys):
    # the report solves the metric's secular equation once per grid, so no
    # call means no grid
    monkeypatch.setattr("qherm.halfline._metric_extremes", _no_grid)
    assert main(["samsonov", "--d", "-1", "--b", "1", "--n", "100,1048577"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: grid size n = 1048577 exceeds the largest grid 1048576"
    ]


def test_samsonov_spec_beyond_grid_limit_exit_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("qherm.halfline._metric_extremes", _no_grid)
    path = tmp_path / "spec.json"
    path.write_text('{"format": 1, "kind": "samsonov", "d": -1, "b": 1, "n": 1048577}')
    assert main(["samsonov", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: grid size n = 1048577 exceeds the largest grid 1048576"
    ]


def test_samsonov_at_n_65536_forms_no_dense_matrix(tmp_path, capsys):
    # one n x n complex matrix at n = 65536 would take 64 GiB: the report
    # forms none
    json_out = tmp_path / "out.json"
    argv = ["samsonov", "--d", "-1", "--b", "1", "--L", "40", "--n", "65536"]
    assert main([*argv, "--json-out", str(json_out)]) == 0
    capsys.readouterr()
    (row,) = json.loads(json_out.read_text())["rows"]
    assert row["n"] == 65536
    assert all(np.isfinite(v) for k, v in row.items() if k != "order_estimates")


@pytest.mark.parametrize("field, value", [("d", True), ("b", "1e0"), ("box_length", "40")])
def test_samsonov_spec_takes_only_numbers(tmp_path, capsys, field, value):
    spec = {"format": 1, "kind": "samsonov", "d": -1, "b": 1, "box_length": 40, "n": 64}
    path = _write(tmp_path, "spec.json", {**spec, field: value})
    assert main(["samsonov", path]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: {field} must be a number"]


def _usage_error(argv) -> int:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


@pytest.mark.parametrize("command,payload", [("spectral", WORKED), ("lattice", G_FILE)])
def test_samples_below_one_exit_two(tmp_path, capsys, command, payload):
    path = _write(tmp_path, "input.json", payload)
    assert _usage_error([command, path, "--samples", "0"]) == 2
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize("command,payload", [("spectral", WORKED), ("lattice", G_FILE)])
def test_negative_seed_exit_two(tmp_path, capsys, command, payload):
    path = _write(tmp_path, "input.json", payload)
    assert _usage_error([command, path, "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "-1", "-1e-300"])
def test_negative_or_nonfinite_tol_exit_two(tmp_path, capsys, value):
    # at --tol inf the worked matrix would pass as hermitian, at -1 as not pseudo-Hermitian
    path = _write(tmp_path, "worked.json", WORKED)
    assert _usage_error(["analyze", path, f"--tol={value}"]) == 2
    assert "--tol" in capsys.readouterr().err


def _fresh_process(script: str, cwd) -> subprocess.CompletedProcess:
    """Run ``script`` in a new interpreter that imports this checkout's qherm."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(qherm.__file__)))
    env = dict(os.environ, PYTHONPATH=package_root)
    return subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=60,
    )


def test_main_constructs_no_argument_parser(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    path = _write(tmp_path, "worked.json", WORKED)
    assert main(["analyze", path]) == 0
    assert main(["samsonov", "--d", "-1", "--b", "1", "--L", "40", "--n", "100,200"]) == 0
    assert built == []
    capsys.readouterr()


def test_option_values_do_not_leak_into_later_calls(tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, "worked.json", WORKED)
    first = ["--json-out", "a.json", "--csv-out", "a.csv"]
    later = ["--json-out", "b.json", "--csv-out", "b.csv"]
    monkeypatch.chdir(tmp_path)
    assert main(["spectral", path, "--samples", "3", *first]) == 0
    assert main(["spectral", path, *later]) == 0
    fresh = _fresh_process(
        "from qherm.cli import main\n"
        f"raise SystemExit(main(['spectral', {path!r}, '--json-out', 'c.json', "
        "'--csv-out', 'c.csv']))\n",
        tmp_path,
    )
    assert fresh.returncode == 0, fresh.stderr
    for suffix in ("json", "csv"):
        assert (tmp_path / f"b.{suffix}").read_bytes() == (tmp_path / f"c.{suffix}").read_bytes()
    # the first call's 3 samples are in its table, so the comparison can see a leak
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()
    assert main(["analyze", path, "--tol", "1e-6", "--json-out", "t.json"]) == 0
    assert json.loads((tmp_path / "t.json").read_text())["tolerances"]["tol"] == 1e-6
    assert main(["samsonov", "--d", "-1", "--b", "1", "--n", "100,200", "--json-out", "s.json"]) == 0
    assert json.loads((tmp_path / "s.json").read_text())["tolerances"]["tol"] == 1e-10
    capsys.readouterr()


def test_main_works_after_a_usage_error_and_after_version(tmp_path, capsys):
    path = _write(tmp_path, "worked.json", WORKED)
    out = str(tmp_path / "r.json")
    assert main(["analyze", path, "--json-out", out]) == 0
    expected = open(out, "rb").read()
    assert _usage_error(["spectral", path, "--samples", "0"]) == 2
    assert main(["analyze", path, "--json-out", out]) == 0
    assert open(out, "rb").read() == expected
    assert _usage_error(["--version"]) == 0
    assert capsys.readouterr().out.strip().endswith(qherm.__version__)
    assert main(["analyze", path, "--json-out", out]) == 0
    assert open(out, "rb").read() == expected
    capsys.readouterr()


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
def test_report_files_get_the_mode_of_open(tmp_path, umask):
    script = (
        "import os, stat\n"
        "from qherm.cli import main\n"
        f"os.umask({umask})\n"
        "open('plain.txt', 'w').close()\n"
        "code = main(['samsonov', '--d', '-1', '--b', '1', '--n', '100,200',\n"
        "             '--json-out', 'r.json', '--csv-out', 'r.csv'])\n"
        "modes = [oct(stat.S_IMODE(os.stat(p).st_mode)) for p in ('plain.txt', 'r.json', 'r.csv')]\n"
        "# like open(path, 'w'), a report written over a file keeps that file's mode\n"
        "os.chmod('r.json', 0o640)\n"
        "main(['samsonov', '--d', '-1', '--b', '1', '--n', '100,200', '--json-out', 'r.json'])\n"
        "print(code, *modes, oct(stat.S_IMODE(os.stat('r.json').st_mode)))\n"
    )
    done = _fresh_process(script, tmp_path)
    assert done.returncode == 0, done.stderr
    code, plain, report, table, rewritten = done.stdout.splitlines()[-1].split()
    assert (code, plain) == ("0", oct(0o666 & ~umask))
    assert report == table == plain
    assert rewritten == oct(0o640)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.txt", "r.csv", "r.json"]


@pytest.mark.parametrize(
    "command,residual",
    [("analyze", lambda r: r["transform"]["herm_residual"]), ("transform", lambda r: r["herm_residual"])],
    ids=["analyze", "transform"],
)
def test_subnormal_scale_writes_finite_reports(tmp_path, capsys, command, residual):
    # 1e-300 * [[1, 2], [0, 3]]: the Hermiticity residual of K is taken where
    # squaring its entries underflows and max|K - K*| is subnormal
    tiny = dict(WORKED, entries=[[1e-300, 0], [2e-300, 0], [0, 0], [3e-300, 0]])
    path = _write(tmp_path, "tiny.json", tiny)
    out = str(tmp_path / "r.json")
    assert main([command, path, "--json-out", out]) == 0
    assert 0.0 <= residual(json.loads(open(out).read())) <= 1e-14
    capsys.readouterr()


def _scaled_pair(s):
    """``s * [[1, 2], [0, 3]]``, its adjoint and ``s * I``: the last is no metric for the first."""
    a = dict(WORKED, entries=[[s, 0], [2 * s, 0], [0, 0], [3 * s, 0]])
    a_adjoint = dict(WORKED, entries=[[s, 0], [0, 0], [2 * s, 0], [3 * s, 0]])
    return a, a_adjoint, dict(G_FILE, entries=[[s, 0], [0, 0], [0, 0], [s, 0]])


@pytest.mark.parametrize("s", [1e-200, 1e-170, 1e-160, 1.0, 1e160, 1e200])
def test_a_wrong_metric_is_refused_at_every_scale(tmp_path, capsys, s):
    # G A and T A - B T under- or overflow at the ends; the verdicts must not move
    a, a_adjoint, g = (
        _write(tmp_path, name, payload)
        for name, payload in zip(("a.json", "a_adj.json", "g.json"), _scaled_pair(s))
    )
    out = str(tmp_path / "r.json")
    assert main(["transform", a, "--metric", g, "--json-out", out]) == 2
    err = capsys.readouterr().err
    assert err == "error: metric relation residual 5.345e-01 exceeds 1.000e-10\n"
    assert main(["qsim", a, a_adjoint, g, "--json-out", out]) == 1
    report = json.loads(open(out).read())
    assert report["intertwining"]["residual"] == pytest.approx(0.2672612419124244, rel=1e-15)
    assert report["push"] is None and report["passed"] is False
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("s", [1e-200, 1.0, 1e160])
def test_qsim_push_is_scale_free(tmp_path, capsys, s):
    # s I intertwines s [[1, 2], [0, 3]] with itself: the push keeps both
    # eigenvectors and passes at every scale
    a, _, t = (
        _write(tmp_path, name, payload)
        for name, payload in zip(("a.json", "a_adj.json", "t.json"), _scaled_pair(s))
    )
    out = str(tmp_path / "r.json")
    assert main(["qsim", a, a, t, "--json-out", out]) == 0
    push = json.loads(open(out).read())["push"]
    assert push["annihilated"] == [] and push["passed"] is True
    capsys.readouterr()


@pytest.mark.parametrize("n", [64.5, True])
def test_samsonov_spec_n_must_be_an_integer(tmp_path, capsys, n):
    spec = {"format": 1, "kind": "samsonov", "d": -1.0, "b": 1.0, "box_length": 40.0, "n": n}
    path = _write(tmp_path, "spec.json", spec)
    assert main(["samsonov", path]) == 2
    assert capsys.readouterr().err == f"error: {path}: n must be an integer\n"


def test_dense_command_refuses_a_samsonov_spec(tmp_path, capsys):
    spec = {"format": 1, "kind": "samsonov", "d": -1.0, "b": 1.0, "n": 64}
    path = _write(tmp_path, "spec.json", spec)
    assert main(["analyze", path]) == 2
    assert capsys.readouterr().err == f"error: {path}: expected a dense operator file\n"


def test_samsonov_refuses_a_dense_file(tmp_path, capsys):
    path = _write(tmp_path, "worked.json", WORKED)
    assert main(["samsonov", path]) == 2
    assert capsys.readouterr().err == f"error: {path}: expected a samsonov spec file\n"


def test_failed_report_write_leaves_no_temporary_file(tmp_path, capsys):
    # the report path is a directory: the rename over it fails after the
    # temporary file is written, and the temporary file must go with it
    path = _write(tmp_path, "worked.json", WORKED)
    target = tmp_path / "taken"
    target.mkdir()
    assert main(["analyze", path, "--json-out", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken", "worked.json"]
    assert list(target.iterdir()) == []
