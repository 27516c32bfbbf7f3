import json

from psimoment import __version__
from psimoment.report import (
    CSV_COLUMNS,
    MomentReport,
    MomentRow,
    render_table,
    to_csv,
    to_json,
)

from oracles import from_csv


def sample_report():
    return MomentReport(
        mode="scaled-integral",
        x=1e8,
        h_or_delta=1e-4,
        rows=(
            MomentRow(2, 4.0075e12, 3.8976e12, None, 1.028197352216749),
            MomentRow(4, 6.5161e17, 6.0766e17, None, 1.0723265619426),
        ),
        wall_seconds=12.5,
    )


def test_csv_round_trip():
    r = sample_report()
    back = from_csv(to_csv(r))
    assert back.mode == r.mode
    assert back.x == r.x and back.h_or_delta == r.h_or_delta
    assert back.wall_seconds == r.wall_seconds
    assert back.rows == r.rows


def test_json_fields_match_csv_columns():
    payload = json.loads(to_json(sample_report()))
    row_fields = set(payload["rows"][0]) | {"mode", "x", "h_or_delta", "wall_seconds"}
    assert row_fields == set(CSV_COLUMNS) - {"k"} | {"k"}


def test_csv_golden_bytes():
    # Frozen once from the implementation; byte determinism contract.
    expected = (
        "k,mode,x,h_or_delta,actual,predicted_thm,predicted_ms,ratio,wall_seconds\n"
        "2,scaled-integral,100000000,0.0001,4007500000000,3897600000000,"
        ",1.0281973522167489,12.5\n"
        "4,scaled-integral,100000000,0.0001,6.5161e+17,"
        "6.0766e+17,,1.0723265619425999,12.5\n"
    )
    assert to_csv(sample_report()) == expected
    assert to_csv(sample_report()) == to_csv(sample_report())


def test_json_golden_bytes():
    # Frozen once from the implementation, like the CSV bytes above.
    expected = (
        '{\n  "h_or_delta": 0.0001,\n  "mode": "scaled-integral",\n  "rows": [\n'
        '    {\n      "actual": 4007500000000.0,\n      "k": 2,\n'
        '      "predicted_ms": null,\n      "predicted_thm": 3897600000000.0,\n'
        '      "ratio": 1.028197352216749\n    },\n'
        '    {\n      "actual": 6.5161e+17,\n      "k": 4,\n'
        '      "predicted_ms": null,\n      "predicted_thm": 6.0766e+17,\n'
        '      "ratio": 1.0723265619426\n    }\n  ],\n'
        f'  "version": "{__version__}",\n  "wall_seconds": 12.5,\n  "x": 100000000.0\n}}\n'
    )
    assert to_json(sample_report()) == expected


def test_render_table_smoke():
    text = render_table(sample_report())
    assert "k" in text and "1.0282" in text


def test_full_precision_round_trip_floats():
    r = MomentReport("fixed-sum", 10.0, 2.0,
                     (MomentRow(2, 1.914649923595519, None, None, None),),
                     0.0)
    back = from_csv(to_csv(r))
    assert back.rows[0].actual == 1.914649923595519
