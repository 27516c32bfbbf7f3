import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import psimoment
from psimoment import cli
from psimoment.report import from_csv


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_wall(csv_text):
    return "\n".join(",".join(line.split(",")[:-1])
                     for line in csv_text.splitlines())


def test_sieve_count(capsys):
    code, out, err = run_cli(["sieve", "--limit", "100000", "--count"], capsys)
    assert code == 0
    assert "9592" in out


def test_predict_thm_ii(capsys):
    code, out, err = run_cli(
        ["predict", "--formula", "thm-ii", "--x", "1e10", "--delta", "1e-5",
         "--k", "4"], capsys)
    assert code == 0
    value = float(out.split()[-1])
    assert value == pytest.approx(1.0195e22, rel=1e-3)


def test_predict_cramer(capsys):
    code, out, err = run_cli(
        ["predict", "--formula", "cramer", "--x", "1e10", "--h", "1e5"], capsys)
    assert code == 0
    assert "1.15129e+06" in out and "2.30259e+06" in out


def test_predict_missing_param(capsys):
    code, out, err = run_cli(["predict", "--formula", "thm-ii", "--x", "1e8"], capsys)
    assert code == 2


def test_fixed_sum_csv(tmp_path, capsys):
    out_path = tmp_path / "r.csv"
    code, out, err = run_cli(
        ["fixed", "--x", "2000", "--h", "50", "--k", "2", "--out", str(out_path)],
        capsys)
    assert code == 0
    report = from_csv(out_path.read_text())
    assert report.mode == "fixed-sum"
    row = report.rows[0]
    assert row.k == 2 and row.actual > 0 and row.predicted_thm > 0
    assert row.ratio == pytest.approx(row.actual / row.predicted_thm, rel=1e-14)


def test_scaled_json_stdout(capsys):
    code, out, err = run_cli(
        ["scaled", "--x", "1000", "--delta", "0.05", "--k", "2",
         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "scaled-integral"
    assert payload["rows"][0]["actual"] == pytest.approx(32630.0141711, rel=1e-9)


def test_end_to_end_determinism(tmp_path, capsys):
    args = ["scaled", "--x", "5000", "--delta", "0.02", "--k", "2,4"]
    paths = []
    for i in range(2):
        p = tmp_path / f"run{i}.csv"
        assert run_cli(args + ["--out", str(p)], capsys)[0] == 0
        paths.append(p)
    # Byte-identical except the wall-clock column.
    assert strip_wall(paths[0].read_text()) == strip_wall(paths[1].read_text())


def test_threads_flag_identical_report(tmp_path, capsys):
    args = ["scaled", "--x", "20000", "--delta", "0.05", "--k", "2",
            "--segment-size", "4096"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli(args + ["--threads", "1", "--out", str(a)], capsys)
    run_cli(args + ["--threads", "4", "--out", str(b)], capsys)
    assert strip_wall(a.read_text()) == strip_wall(b.read_text())


def test_reproduce_refuses_long_run(capsys):
    # A deliberately tiny segment size inflates the projection far past 30 min
    # (~3.7 h on 2 CPUs; 65536 projects only ~35 min, too close to the guard).
    code, out, err = run_cli(
        ["reproduce", "ms-table", "--segment-size", "16384"], capsys)
    assert code == 2
    assert "confirm-long" in err


def test_reproduce_projects_from_last_full_segment(monkeypatch, caplog, capsys):
    monkeypatch.setitem(cli.REPRODUCE_TABLES, "scaled-1e8",
                        ("scaled-integral", 10**4, 0.01))
    timed = []
    monkeypatch.setattr(cli, "sweep_segment", timed.append)
    with caplog.at_level(logging.INFO, logger="psimoment"):
        code = cli.main(["reproduce", "scaled-1e8", "--segment-size", "1024"])
    assert code == 0
    (a, b, *_), = timed
    # The last of the 10 segments is a short remainder; the one before is full.
    assert (a, b) == (1 + 8 * 1024, 1 + 9 * 1024)
    assert "projected wall time" in caplog.text
    assert "actual wall time" in caplog.text


def test_usage_error_exit_code():
    for args in (["fixed", "--x", "100"],  # missing --h
                 # without --checkpoint there is nothing to resume from
                 ["scaled", "--x", "100", "--delta", "0.1", "--resume"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2


def test_domain_error_exit_code(capsys):
    for args in (["fixed", "--x", "10", "--h", "20"],
                 # sum mode would truncate these to integers
                 ["fixed", "--x", "1000", "--h", "2.5"],
                 ["fixed", "--x", "1000.9", "--h", "10"],
                 # 10^10 segments: refused before any of them is built
                 ["fixed", "--x", "1e10", "--h", "1e5", "--segment-size", "1"],
                 ["reproduce", "ms-table", "--segment-size", "1"],
                 # one segment of 10^9 integers: refused before it is sieved
                 ["scaled", "--x", "1e9", "--delta", "1e-4",
                  "--segment-size", "1000000000"]):
        code, out, err = run_cli(args, capsys)
        assert code == 2, args
        assert err.startswith("error: "), args


def test_io_error_exit_code(capsys):
    code, out, err = run_cli(
        ["scaled", "--x", "100", "--delta", "0.1", "--k", "2",
         "--out", "/nonexistent-dir/r.csv"], capsys)
    assert code == 4


def test_numeric_range_exit_code(monkeypatch, capsys):
    from psimoment.errors import NumericRangeError

    def boom(*a, **kw):
        raise NumericRangeError("overflow")

    monkeypatch.setattr(cli.scaled_mod, "moment_integral_scaled", boom)
    code, out, err = run_cli(["scaled", "--x", "100", "--delta", "0.1"], capsys)
    assert code == 3


def test_console_entry_point():
    # The child imports the same package as this process, installed or not.
    src = str(Path(psimoment.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "psimoment.cli", "sieve", "--limit", "10"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.strip() == "4"


def test_checkpoint_resume_via_cli(tmp_path, capsys):
    ck = tmp_path / "ck.jsonl"
    args = ["scaled", "--x", "10000", "--delta", "0.05", "--k", "2",
            "--segment-size", "1024", "--checkpoint", str(ck)]
    a = tmp_path / "a.csv"
    run_cli(args + ["--out", str(a)], capsys)
    # Truncate to header + one segment, then resume.
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines[:2]) + "\n")
    b = tmp_path / "b.csv"
    run_cli(args + ["--resume", "--out", str(b)], capsys)
    assert strip_wall(a.read_text()) == strip_wall(b.read_text())


@pytest.mark.parametrize("args", [
    ["fixed", "--x", "inf", "--h", "10"],
    ["fixed", "--x", "1000", "--h", "nan", "--mode", "integral"],
    ["scaled", "--x", "nan", "--delta", "0.1"],
    ["scaled", "--x", "1000", "--delta", "inf"],
])
def test_non_finite_input_exit_code(args):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
