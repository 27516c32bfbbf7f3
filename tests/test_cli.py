import csv
import io
import json
import logging
import multiprocessing
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import psimoment
from psimoment import MangoldtSieve, cli, prime_count, sweep
from psimoment import sieve as sieve_module
from psimoment.report import CSV_COLUMNS

from oracles import from_csv


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


@pytest.mark.parametrize("n", [2, 30031, 10**6])
def test_sieve_count_is_one_pass(n, monkeypatch, capsys):
    # --count takes the prime count and psi from one sieve pass: one mask and
    # one lambda_segment call per chunk (it used to sieve everything twice).
    masks, segments = [], []
    odd_mask, lambda_segment = sieve_module._odd_mask, sieve_module.lambda_segment
    monkeypatch.setattr(sieve_module, "_odd_mask",
                        lambda lo, hi, base: masks.append((lo, hi)) or odd_mask(lo, hi, base))
    monkeypatch.setattr(sieve_module, "lambda_segment",
                        lambda seg, base: segments.append(seg) or lambda_segment(seg, base))
    code, out, err = run_cli(["sieve", "--limit", str(n), "--count"], capsys)
    assert code == 0
    chunks = list(sieve_module._chunks(0, n))
    assert masks == chunks
    assert [(seg.lo, seg.hi) for seg in segments] == chunks
    assert out == (f"primes<={n}: {prime_count(n)}\n"
                   f"psi({n}) = {MangoldtSieve().psi(n):.17g}\n")


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


def test_predict_out_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "p.csv"
    code, out, err = run_cli(
        ["predict", "--formula", "ms", "--x", "1e10", "--h", "1e5", "--k", "2",
         "--out", str(out_path)], capsys)
    assert code == 0 and out == ""
    row, = from_csv(out_path.read_text()).rows
    assert err == f"k=2  {row.predicted_ms:.6g}\n"


def test_predict_format_csv_stdout_is_only_csv(capsys):
    code, out, err = run_cli(
        ["predict", "--formula", "thm-i", "--x", "1e10", "--h", "1e5",
         "--k", "2,4", "--format", "csv"], capsys)
    assert code == 0
    records = list(csv.reader(io.StringIO(out)))
    assert records[0] == CSV_COLUMNS
    assert [len(r) for r in records[1:]] == [len(CSV_COLUMNS)] * 2
    assert [row.k for row in from_csv(out).rows] == [2, 4]
    assert err.startswith("k=2  ")


@pytest.mark.parametrize("flag", [["--out", "cramer.csv"], ["--format", "json"]])
def test_predict_cramer_has_no_report(flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        ["predict", "--formula", "cramer", "--x", "1e10", "--h", "1e5", *flag], capsys)
    assert code == 2 and err.startswith("error: ")
    assert not (tmp_path / "cramer.csv").exists()


def test_readme_cli_examples_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines()]
    examples = [shlex.split(line) for line in lines if line.startswith("psimoment ")]
    assert len(examples) >= 8
    for words in examples:
        cli.build_parser().parse_args(words[1:])


def test_huge_finite_run_exits_2(capsys):
    code, out, err = run_cli(["scaled", "--x", "1e308", "--delta", "1"], capsys)
    assert code == 2 and err.startswith("error: ") and "exceeds 1048576 segments" in err


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


def test_fixed_repeated_orders_give_one_row_each(tmp_path, capsys):
    # --k 2,2,4 is --k 2,4: the same rows and the same checkpoint digest.
    ck = tmp_path / "ck.jsonl"
    args = ["fixed", "--x", "1000", "--h", "10", "--format", "csv", "--checkpoint", str(ck)]
    code, repeated, err = run_cli(args + ["--k", "2,2,4"], capsys)
    assert code == 0, err
    assert [row.k for row in from_csv(repeated).rows] == [2, 4]
    code, resumed, err = run_cli(args + ["--k", "2,4", "--resume"], capsys)
    assert code == 0, err
    assert strip_wall(resumed) == strip_wall(repeated)


def test_predict_repeated_orders_print_one_line_each(capsys):
    code, out, err = run_cli(["predict", "--formula", "thm-ii", "--x", "1e8",
                              "--delta", "1e-4", "--k", "2,2"], capsys)
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == ["k=2"]


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


def test_reproduce_refuses_long_run(monkeypatch, capsys):
    # A deliberately tiny segment size inflates the projection: 610k segments
    # project to ~20 min to ~4 h on 2 CPUs, depending on the machine, so the
    # guard is lowered to 1 min, which no machine sieves 1e10 within.  Were
    # the run not refused, it would go ahead for hours.
    monkeypatch.setattr(cli, "LONG_RUN_SECONDS", 60)
    code, out, err = run_cli(
        ["reproduce", "ms-table", "--segment-size", "16384"], capsys)
    assert code == 2
    assert "exceeds 1 min" in err and "confirm-long" in err


# A small stand-in for a published table: 10 segments at --segment-size 1024,
# 98 at 1024 with SMALL_TABLE_X.
SMALL_TABLE = ("scaled-integral", 10**4, 0.01)
SMALL_TABLE_X = ("scaled-integral", 10**5, 0.01)


def _count_sweeps(monkeypatch, path=None):
    """Record each segment sweep_segment sweeps, in a list or, across pool
    processes, as a line of path."""
    swept, real = [], sweep.sweep_segment

    def counted(workspace, task):
        swept.append(task[:2])
        if path is not None:
            with path.open("a") as fh:
                fh.write(f"{task[0]}\n")
        return real(workspace, task)

    monkeypatch.setattr(sweep, "sweep_segment", counted)
    return swept


def test_reproduce_sweeps_each_segment_once(monkeypatch, capsys):
    # The long-run guard times the run's own segments: nothing is swept
    # outside the run.
    monkeypatch.setitem(cli.REPRODUCE_TABLES, "scaled-1e8", SMALL_TABLE)
    swept = _count_sweeps(monkeypatch)
    code, out, err = run_cli(["reproduce", "scaled-1e8", "--segment-size", "1024"], capsys)
    assert code == 0, err
    tasks = sweep.tasks(*SMALL_TABLE, (2, 4, 6), 1024)
    assert len(tasks) == 10
    assert swept == [task[:2] for task in tasks]


def _actual_hex(csv_text):
    return [row.actual.hex() for row in from_csv(csv_text).rows]


def test_reproduce_refusal_keeps_segments_for_resume(monkeypatch, tmp_path, caplog,
                                                     capsys):
    monkeypatch.setitem(cli.REPRODUCE_TABLES, "scaled-1e8", SMALL_TABLE_X)
    monkeypatch.setattr(cli, "LONG_RUN_SECONDS", 1e-6)  # every run projects past it
    ck = tmp_path / "ck.jsonl"
    args = ["reproduce", "scaled-1e8", "--segment-size", "1024", "--format", "csv",
            "--checkpoint", str(ck)]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert "exceeds 0 min; re-run with --confirm-long to proceed" in err
    # The guard waits for 2 x workers finished segments; their records stay.
    records = len(ck.read_text().splitlines()) - 1  # less the header
    assert 2 <= records < 98
    with caplog.at_level(logging.INFO, logger="psimoment"):
        code, resumed, err = run_cli(args + ["--resume", "--confirm-long"], capsys)
    assert code == 0, err
    assert f"resuming: {records} of 98 segments already done" in caplog.text
    code, whole, err = run_cli(["reproduce", "scaled-1e8", "--segment-size", "1024",
                                "--format", "csv", "--confirm-long"], capsys)
    assert code == 0, err
    assert _actual_hex(resumed) == _actual_hex(whole)


FORKED = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                            reason="pool processes see the patched sweep only when forked")


@FORKED
def test_reproduce_pooled_refusal_stops_the_pool(monkeypatch, tmp_path, capsys):
    # 2 workers, 98 segments: the run stops handing out tasks at the 4th
    # finished segment and sweeps only those it has already handed out.  The
    # pool processes count them in a file.
    monkeypatch.setitem(cli.REPRODUCE_TABLES, "scaled-1e8", SMALL_TABLE_X)
    monkeypatch.setattr(cli, "LONG_RUN_SECONDS", 1e-6)
    path = tmp_path / "swept"
    _count_sweeps(monkeypatch, path)
    code, out, err = run_cli(["reproduce", "scaled-1e8", "--segment-size", "1024",
                              "--threads", "2"], capsys)
    assert code == 2
    assert "re-run with --confirm-long to proceed" in err
    assert 4 <= len(path.read_text().split()) < 98


@pytest.mark.parametrize("threads", [1, pytest.param(2, marks=FORKED)])
def test_reproduce_refusal_records_every_swept_segment(threads, monkeypatch, tmp_path,
                                                       capsys):
    # A refused run finishes the tasks it has handed out, and with
    # --checkpoint each segment it swept has exactly one record.
    monkeypatch.setitem(cli.REPRODUCE_TABLES, "scaled-1e8", SMALL_TABLE_X)
    monkeypatch.setattr(cli, "LONG_RUN_SECONDS", 1e-6)
    path, ck = tmp_path / "swept", tmp_path / "ck.jsonl"
    _count_sweeps(monkeypatch, path)
    code, out, err = run_cli(["reproduce", "scaled-1e8", "--segment-size", "1024",
                              "--threads", str(threads), "--checkpoint", str(ck)], capsys)
    assert code == 2
    assert "re-run with --confirm-long to proceed" in err
    starts = [task[0] for task in sweep.tasks(*SMALL_TABLE_X, (2, 4, 6), 1024)]
    records = [json.loads(line)["segment"] for line in ck.read_text().splitlines()[1:]]
    swept = [float(a) for a in path.read_text().split()]
    assert 2 <= len(swept) < 98
    assert sorted(starts[i] for i in records) == sorted(swept)


def test_reproduce_format_json_stdout(monkeypatch, capsys):
    monkeypatch.setitem(cli.REPRODUCE_TABLES, "scaled-1e8",
                        ("scaled-integral", 10**4, 0.01))
    code, out, err = run_cli(["reproduce", "scaled-1e8", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["mode"] == "scaled-integral"
    assert "mode=scaled-integral" in err


def test_reproduce_takes_k(monkeypatch, capsys):
    monkeypatch.setitem(cli.REPRODUCE_TABLES, "scaled-1e8", SMALL_TABLE)
    args = ["reproduce", "scaled-1e8", "--format", "csv"]
    code, out, err = run_cli(args + ["--k", "8,10"], capsys)
    assert code == 0, err
    want = psimoment.moment_integral_scaled(10**4, 0.01, [8, 10])
    assert {row.k: row.actual for row in from_csv(out).rows} == want
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    assert [row.k for row in from_csv(out).rows] == [2, 4, 6]


@pytest.mark.parametrize("checkpoint", [False, True])
def test_ctrl_c_exits_130(checkpoint, monkeypatch, tmp_path, capsys):
    # One stderr line and no traceback; with --checkpoint it says how to go on.
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.fixed_mod, "moment_integral_fixed", interrupted)
    ck = tmp_path / "ck.jsonl"
    args = ["fixed", "--x", "1000", "--h", "10", "--mode", "integral"]
    code, out, err = run_cli(args + (["--checkpoint", str(ck)] if checkpoint else []),
                             capsys)
    assert code == 130
    assert out == ""
    assert err.splitlines() == [f"interrupted; re-run with --resume to continue from {ck}"
                                if checkpoint else "interrupted"]
    if checkpoint:
        # The run stopped before its checkpoint existed; the advice still
        # holds, and gives the bits of a fresh run.
        monkeypatch.undo()
        assert not ck.exists()
        code, resumed, err = run_cli(args + ["--checkpoint", str(ck), "--resume"], capsys)
        assert code == 0, err
        code, fresh, err = run_cli(args, capsys)
        assert code == 0, err
        assert strip_wall(resumed) == strip_wall(fresh)
        assert len(ck.read_text().splitlines()) == 2  # the header and the one segment


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
    # A window so wide that one segment would sieve ~10^9 integers: refused
    # before the sieve runs.
    t0 = time.perf_counter()
    code, out, err = run_cli(["scaled", "--x", "1e9", "--delta", "1"], capsys)
    assert code == 2
    assert err.startswith("error: ") and "delta" in err
    assert time.perf_counter() - t0 < 0.5
    # At the largest segment size every window widens the one sieve call past
    # the cap, so the message names the segment size too.
    for args, name in ((["fixed", "--x", "1e9", "--h", "1", "--mode", "integral"], "h"),
                       (["scaled", "--x", "2e8", "--delta", "1e-9"], "delta")):
        code, out, err = run_cli(args + ["--segment-size", "67108864"], capsys)
        assert code == 2, args
        assert f"use a smaller {name} or segment size" in err, err


def test_segment_size_past_the_span_cap_cuts_one_segment(capsys):
    # The sieve span is a segment's only cap: a segment size past 2^26 cuts
    # [1, 1e6] into the same one segment as --segment-size 1000000.
    args = ["scaled", "--x", "1e6", "--delta", "1e-4", "--k", "2", "--segment-size"]
    code, large, err = run_cli(args + ["134217728"], capsys)
    assert code == 0, err
    code, exact, err = run_cli(args + ["1000000"], capsys)
    assert code == 0, err
    assert strip_wall(large) == strip_wall(exact)


def test_report_prediction_columns(capsys):
    # Odd k has no claim.  At X/h below norm_scale the theorem form has none
    # either, while the variant integrated from x = 1 has one.
    code, out, err = run_cli(["fixed", "--x", "100", "--h", "50", "--k", "1,2"], capsys)
    assert code == 0, err
    odd, even = from_csv(out).rows
    assert (odd.predicted_thm, odd.predicted_ms, odd.ratio) == (None, None, None)
    assert (even.predicted_thm, even.ratio) == (None, None)
    assert even.predicted_ms == psimoment.fixed_main_term_from_one(100, 50, 2)
    # Scaled windows have no variant from x = 1, and at delta >= 1/norm_scale
    # no theorem form, although the fixed one would take 0.5 as its h.
    code, out, err = run_cli(
        ["scaled", "--x", "1000", "--delta", "0.05", "--k", "1,2,4"], capsys)
    assert code == 0, err
    rows = from_csv(out).rows
    assert [row.predicted_ms for row in rows] == [None, None, None]
    assert [row.predicted_thm is None for row in rows] == [True, False, False]
    code, out, err = run_cli(["scaled", "--x", "1000", "--delta", "0.5", "--k", "2"], capsys)
    assert code == 0, err
    (row,) = from_csv(out).rows
    assert (row.predicted_thm, row.predicted_ms, row.ratio) == (None, None, None)


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
