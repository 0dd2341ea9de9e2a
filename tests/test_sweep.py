import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from polyradii.bodies import Body, make_body
from polyradii.svgplot import emit_plot
from polyradii.sweep import (
    CSV_COLUMNS,
    SweepConfig,
    SweepRow,
    check_i2_identity,
    config_from_dict,
    default_check_config,
    consistency_checks,
    load_config,
    normalizer,
    regime_flag,
    rows_to_csv,
    run_sweep,
    gaussian_oracle_report,
    write_csv,
)
from polyradii import cli

BALL_CFG = dict(body="ball", n=2, N_list=[4096], k_list=[1, 2], M=32, R=3, seed=77)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown config keys: mm"):
        config_from_dict({"body": "cube", "n": 4, "N_list": [8], "k_list": [1], "mm": 3})
    with pytest.raises(ValueError, match="1..n"):
        SweepConfig(body="cube", n=4, N_list=[8], k_list=[5])
    with pytest.raises(ValueError, match=">= n"):
        SweepConfig(body="cube", n=4, N_list=[3], k_list=[1])
    with pytest.raises(ValueError, match="cube, ball, cross, simplex"):
        SweepConfig(body="dodecahedron", n=4, N_list=[8], k_list=[1])
    with pytest.raises(ValueError):
        SweepConfig(body="cube", n=4, N_list=[], k_list=[1])
    # exact types at the boundary: each of these used to raise TypeError,
    # pass validation, or truncate silently
    base = {"body": "cube", "n": 4, "N_list": [8], "k_list": [1]}
    for key, value in [("n", "16"), ("n", 16.7), ("n", 4.0), ("n", True), ("M", 64.5),
                       ("R", None), ("m", "100"), ("seed", 1.5), ("seed", False)]:
        with pytest.raises(ValueError, match="must be integers"):
            config_from_dict({**base, key: value})
    for key, value in [("N_list", 64), ("N_list", [64.5]), ("N_list", ["8"]),
                       ("k_list", [True]), ("k_list", "1")]:
        with pytest.raises(ValueError, match="lists of integers"):
            config_from_dict({**base, key: value})
    with pytest.raises(ValueError, match="unknown config keys: s"):
        config_from_dict({**base, "s": 2})
    with pytest.raises(ValueError, match="out must be a path"):
        config_from_dict({**base, "out": 5})
    with pytest.raises(ValueError, match="JSON object"):
        config_from_dict([base])
    with pytest.raises(ValueError, match="missing config keys: k_list, n"):
        config_from_dict({"body": "cube", "N_list": [8]})
    # a repeated N or k would write rows with the same (N, k, replica) twice
    for key, value, message in [("N_list", [16, 16], "N_list repeats 16"),
                                ("k_list", [4, 4, 2], "k_list repeats 4"),
                                ("k_list", [1, 4, 2, 4], "k_list repeats 4")]:
        with pytest.raises(ValueError, match=message):
            config_from_dict({**base, "n": 8, key: value})


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BALL_CFG))
    cfg = load_config(str(path))
    assert cfg.body == "ball" and cfg.N_list == [4096] and cfg.seed == 77


def test_row_count_and_grid_order():
    cfg = SweepConfig(body="cube", n=4, N_list=[4, 16], k_list=[1, 2, 4], M=8, R=5)
    rows = run_sweep(cfg)
    assert len(rows) == 2 * 3 * 5
    expected_order = [(N, k, r) for N in (4, 16) for k in (1, 2, 4) for r in range(5)]
    assert [(row.N, row.k, row.replica) for row in rows] == expected_order
    csv_text = rows_to_csv(rows)
    assert csv_text.count("\n") == 31  # 30 data rows + header
    assert csv_text.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_sweep_rerun_is_byte_identical(tmp_path):
    cfg_a = SweepConfig(**BALL_CFG)
    cfg_b = SweepConfig(**BALL_CFG)
    a = rows_to_csv(run_sweep(cfg_a))
    b = rows_to_csv(run_sweep(cfg_b))
    assert a.encode() == b.encode()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_sweep(cfg_a), str(p1))
    write_csv(run_sweep(cfg_b), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_ball_rows_near_exact_radius():
    body = make_body("ball", 2)
    rows = run_sweep(SweepConfig(**BALL_CFG))
    for row in rows:
        assert abs(row.estimate - body.scale) <= 3 * row.stderr + 0.01 * body.scale
        assert row.ratio == pytest.approx(row.estimate / row.normalizer)


def test_regime_flag():
    # e^sqrt(16) ~ 54.6
    assert regime_flag(16, 54) == "in-regime"
    assert regime_flag(16, 55) == "out-of-regime"
    rows = run_sweep(SweepConfig(**BALL_CFG))
    assert all(row.regime_flag == "out-of-regime" for row in rows)


def test_normalizer_definition():
    assert normalizer(4, 1, 0.5) == pytest.approx(1.0)  # log 1 = 0
    assert normalizer(1, 100, 2.0) == pytest.approx(2.0 * math.sqrt(math.log(100)))


def test_write_csv_keeps_previous_file_on_failure(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(run_sweep(SweepConfig(**BALL_CFG)), str(path))
    previous = path.read_bytes()

    def interrupted():
        yield from run_sweep(SweepConfig(**BALL_CFG))[:2]
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_csv(interrupted(), str(path))
    assert path.read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_csv_float_precision(tmp_path):
    rows = [
        SweepRow("cube", 2, 4, 1, 0, 7, 1 / 3, 1e-17, 0.1, 0.2, 5 / 3, "in-regime")
    ]
    text = rows_to_csv(rows)
    assert "0.33333333333333331" in text
    assert text.startswith(",".join(CSV_COLUMNS))


def test_gaussian_oracle_report():
    # (k = n, N = 1): each replica is one Gaussian vector, fully projected
    rows = gaussian_oracle_report([3], [1], M=600, seed=11, n=3)
    row = rows[0]
    assert row.agrees
    assert row.oracle == pytest.approx(2 * math.sqrt(2 / math.pi), abs=1e-8)
    assert abs(row.mc - row.oracle) <= 3 * row.stderr
    # oracle column ignores seed and M
    a = gaussian_oracle_report([2, 4], [10], M=0, seed=1)
    b = gaussian_oracle_report([2, 4], [10], M=8, seed=999)
    assert [r.oracle for r in a] == [r.oracle for r in b]
    assert math.isnan(a[0].mc)


def test_consistency_checks_default_all_pass():
    results = consistency_checks(default_check_config())
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]
    names = {r.name for r in results}
    assert {
        "profile_monotone",
        "i2_identity",
        "subspace_moment_identity",
        "subspace_moment_band",
        "positive_moment_band",
        "negative_moment_band",
        "centroid_width_band",
        "grassmann_negative_moment_band",
        "tail_sandwich_grid",
    } <= names
    exact = next(r for r in results if r.name == "profile_monotone")
    assert "exact" in exact.detail


def test_corrupted_scale_fails_i2_check(key):
    good = make_body("ball", 8)
    assert check_i2_identity(good, 20000, key.child(0)).passed
    corrupted = Body("ball", 8, good.scale * 2.0)
    assert not check_i2_identity(corrupted, 20000, key.child(1)).passed


def _write_ball_csv(tmp_path):
    csv_path = tmp_path / "ball.csv"
    write_csv(run_sweep(SweepConfig(**BALL_CFG)), str(csv_path))
    return csv_path


def test_emit_plot_valid_and_deterministic(tmp_path):
    csv_path = _write_ball_csv(tmp_path)
    out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_plot(str(csv_path), "k", "ratio", str(out1))
    emit_plot(str(csv_path), "k", "ratio", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    root = ET.parse(out1).getroot()
    assert root.tag.endswith("svg")


def test_emit_plot_flat_ball_ratio(tmp_path):
    # normalizer is constant in k here (log N > n), so the ratio column of a
    # dense ball cloud is flat
    csv_path = _write_ball_csv(tmp_path)
    ratios = [float(line.split(",")[10]) for line in csv_path.read_text().splitlines()[1:]]
    assert max(ratios) - min(ratios) < 0.05
    emit_plot(str(csv_path), "k", "ratio", str(tmp_path / "flat.svg"))


def test_emit_plot_unknown_column(tmp_path):
    csv_path = _write_ball_csv(tmp_path)
    with pytest.raises(ValueError, match="available columns: body,"):
        emit_plot(str(csv_path), "k", "nope", str(tmp_path / "x.svg"))


def test_emit_plot_short_row_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "short.csv"
    csv_path.write_text("body,N,k,estimate\ncube,10,2\n")
    svg = tmp_path / "x.svg"
    argv = ["plot", str(csv_path), "--x", "k", "--y", "estimate", "--out", str(svg)]
    assert cli.main(argv) == 1
    assert "polyradii: error:" in capsys.readouterr().err
    assert not svg.exists()
    with pytest.raises(ValueError, match="line 2: missing field"):
        emit_plot(str(csv_path), "k", "estimate", str(svg))


def test_emit_plot_non_finite_value_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "nan.csv"
    svg = tmp_path / "x.svg"
    for bad, match in (
        ("nan", "line 3: non-finite value"),
        ("inf", "line 3: non-finite value"),
        ("abc", "line 3: column 'estimate' is not a number: 'abc'"),
    ):
        csv_path.write_text(f"body,N,k,estimate\ncube,10,1,1.5\ncube,10,2,{bad}\n")
        argv = ["plot", str(csv_path), "--x", "k", "--y", "estimate", "--out", str(svg)]
        assert cli.main(argv) == 1
        assert "polyradii: error:" in capsys.readouterr().err
        assert not svg.exists()
        with pytest.raises(ValueError, match=match):
            emit_plot(str(csv_path), "k", "estimate", str(svg))


def test_emit_plot_escapes_markup_in_labels(tmp_path):
    csv_path = tmp_path / "markup.csv"
    csv_path.write_text("body,N,k<n,y&z>\na&b<c,10,1,1.5\na&b<c,10,2,2.5\n")
    svg = tmp_path / "markup.svg"
    emit_plot(str(csv_path), "k<n", "y&z>", str(svg))
    texts = {el.text for el in ET.parse(svg).getroot() if el.tag.endswith("text")}
    assert {"y&z> vs k<n", "a&b<c N=10", "k<n"} <= texts


def test_cli_estimate(capsys):
    rc = cli.main(
        ["estimate", "--body", "ball", "--n", "3", "--N", "500", "--k", "2",
         "--M", "16", "--seed", "5"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "estimate" in out and "ratio" in out
    # the README example, printed bytes recorded before estimate ran through radius_profile
    rc = cli.main(
        ["estimate", "--body", "cube", "--n", "16", "--N", "256", "--k", "4",
         "--M", "64", "--seed", "7"]
    )
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert "estimate   1.056461465" in lines
    assert "stderr     0.008442" in lines
    assert "ratio      1.554127194" in lines


def test_cli_sweep_and_plot(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BALL_CFG, "out": str(tmp_path / "s.csv")}))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 0
    first = (tmp_path / "s.csv").read_bytes()
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "s.csv").read_bytes() == first
    rc = cli.main(
        ["plot", str(tmp_path / "s.csv"), "--x", "k", "--y", "estimate",
         "--out", str(tmp_path / "s.svg")]
    )
    assert rc == 0 and (tmp_path / "s.svg").exists()


def test_cli_sweep_replica_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BALL_CFG, "out": str(tmp_path / "s.csv")}))
    assert cli.main(["sweep", "--config", str(cfg_path), "--R", "1"]) == 0
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert len(lines) == 1 + 1 * 2 * 1  # header + |N_list| * |k_list| * R


def test_cli_sweep_seed_override_changes_rows(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BALL_CFG, "out": str(tmp_path / "s.csv")}))
    cli.main(["sweep", "--config", str(cfg_path)])
    first = (tmp_path / "s.csv").read_bytes()
    cli.main(["sweep", "--config", str(cfg_path), "--seed", "123"])
    assert (tmp_path / "s.csv").read_bytes() != first


def test_cli_usage_errors_exit_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["estimate", "--body", "pyramid", "--n", "3", "--N", "10", "--k", "1"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 1
    # runtime errors (not argparse) also exit 1: unwritable output path
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BALL_CFG, "out": "/no/such/dir/out.csv"}))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 1
    # malformed configs and invalid overrides exit 1 without writing a CSV
    out = tmp_path / "out.csv"
    for cfg in ([BALL_CFG], {**BALL_CFG, "n": "2"}, {**BALL_CFG, "N_list": 4096}):
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
    cfg_path.write_text(json.dumps(BALL_CFG))
    for bad in ("0", "-3"):
        assert cli.main(["sweep", "--config", str(cfg_path), "--R", bad, "--out", str(out)]) == 1
    assert not out.exists()
    # a negative MC replica count is an error, not the oracle-only table
    assert cli.main(["gaussian", "--k", "2", "--N", "100", "--M", "-3"]) == 1
    # gaussian validates M, every k and every N before the first row is computed
    assert cli.main(["gaussian", "--k", "2", "--N", "100", "--M", "1"]) == 1
    assert "M must be 0 (oracle only) or >= 2, got M=1" in capsys.readouterr().err
    assert cli.main(["gaussian", "--k", "1,8", "--N", "10", "--n", "4"]) == 1
    assert "k=8 outside 1..n for n=4" in capsys.readouterr().err
    assert cli.main(["gaussian", "--k", "1", "--N", "100,0"]) == 1
    assert "N=0 must be >= 1" in capsys.readouterr().err
    # a repeated k or N would print duplicate rows; it is rejected before any row
    for k, N, message in (("8,8", "100,100", "k_list repeats 8"),
                          ("8", "100,10,100", "N_list repeats 100")):
        assert cli.main(["gaussian", "--k", k, "--N", N, "--M", "0"]) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
    # the check suite needs n >= 5 and says so before any check runs
    for n in (3, 4):
        small = {"body": "cube", "n": n, "N_list": [16], "k_list": [1], "M": 8, "R": 1, "m": 1000}
        cfg_path.write_text(json.dumps(small))
        assert cli.main(["check", "--config", str(cfg_path), "--q", "1"]) == 1
        assert f"check needs n >= 5, got n={n}" in capsys.readouterr().err
    # estimate names an out-of-range k and the range it must lie in
    for bad in ("5", "0"):
        assert cli.main(["estimate", "--body", "cube", "--n", "4", "--N", "10", "--k", bad]) == 1
        assert f"k={bad} outside 1..4" in capsys.readouterr().err
    # check --q outside the suite's range fails before any check runs
    for bad in ("8", "0"):
        assert cli.main(["check", "--q", bad]) == 1
        assert f"check needs 1 <= q <= 7 for n=16, got q={bad}" in capsys.readouterr().err
    # the moment checks need m >= 100 points, and check says so before any check runs
    small_m = {"body": "cube", "n": 16, "N_list": [256], "k_list": [1], "M": 8, "R": 1, "m": 50}
    cfg_path.write_text(json.dumps(small_m))
    assert cli.main(["check", "--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert "check needs m >= 100, got m=50" in captured.err and captured.out == ""
    # an input too large to allocate (6.94 EiB, beyond any address space) and a CSV
    # field over the csv module's limit exit 1 with a message, not a traceback
    big = tmp_path / "big.csv"
    big.write_text("body,N,k,estimate\ncube,10,1," + "1" * 200000 + "\n")
    for argv, message in (
        (["estimate", "--body", "cube", "--n", "100", "--N", str(10**16), "--k", "1", "--M", "2"],
         "Unable to allocate"),
        (["plot", str(big), "--x", "k", "--y", "estimate", "--out", str(tmp_path / "big.svg")],
         f"{big} line 2: field larger than field limit"),
    ):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert f"polyradii: error: {message}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


def test_cli_gaussian(capsys):
    rc = cli.main(["gaussian", "--k", "1,3", "--N", "1,10", "--M", "200", "--seed", "9"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "oracle" in out and out.count("yes") == 4


def test_cli_gaussian_oracle_only(capsys):
    rc = cli.main(["gaussian", "--k", "2", "--N", "100", "--M", "0"])
    assert rc == 0
    assert "3.19826492" in capsys.readouterr().out  # oracle column only


def test_cli_check_exit_codes(monkeypatch, capsys):
    from polyradii.sweep import CheckResult

    monkeypatch.setattr(cli, "consistency_checks", lambda config, q: [CheckResult("x", "d", True)])
    assert cli.main(["check"]) == 0
    monkeypatch.setattr(cli, "consistency_checks", lambda config, q: [CheckResult("x", "d", False)])
    assert cli.main(["check"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_default_check_config_is_valid():
    cfg = default_check_config()
    assert cfg.body == "cube" and cfg.n == 16


def test_readme_config_example_parses():
    # the README's config block, with its // comments stripped, is a valid config
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("A sweep config is", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    text = "\n".join(line.split("//", 1)[0] for line in block.splitlines())
    cfg = config_from_dict(json.loads(text))
    assert cfg.body == "cube" and cfg.n == 100
