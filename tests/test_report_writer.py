"""``cli.dump_json`` renders every report byte for byte as the recursive writer in ``report_oracle`` does."""

from __future__ import annotations

import collections
import enum
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import statwintgen.cli as cli
import statwintgen.wintgen as wg
from report_oracle import dump_json as oracle_dump_json
from statwintgen.cli import EXIT_USAGE, dump_json, main

TOOLS = Path(__file__).resolve().parent.parent / "tools"


class Level(enum.IntEnum):
    LOW = 3


class Tagged(str):
    pass


class Ratio(float):
    pass


EDGE_CASES = {
    "negative zero": -0.0,
    "smallest subnormal": 5e-324,
    "1e16": 1e16,
    "1e-7": 1e-7,
    "largest double": 1.7976931348623157e308,
    "empty list": [],
    "empty dict": {},
    "nested empties": [[], {}, [[]], {"a": {}, "b": [[], []]}],
    "quotes and backslashes": {'key "q"\\': 'say "hi" \\ back\\slash'},
    "control characters": ["tab\tnewline\nnul\x00unit\x1fdel\x7f"],
    "non-ascii": {"ümlaut ∑": "日本 😀   \ud800"},
    "mixed list": [1.0, 2, True, 3.5, False, None, -0.0, 4.0],
    "plain floats": [0.1, -0.0, 5e-324, 1e16, 1e-7, 123456789.123456789],
    "nested plain floats": {"points": [[0.5, -0.25, 1.0 / 3.0], [2.0, 1e300, -1e-300]], "trace": [1.5]},
    "report": {"schema": cli.SCHEMA, "passed": True, "rows": [{"seed": "7-0", "n": 3, "slack": 0.125}] * 3},
}

# Values no report holds: numpy values, tuples, subclasses of the plain types and keys that are not str.
NOT_PLAIN = {
    "float32": np.float32(0.1),
    "float64": np.float64(1.0 / 3.0),
    "float16": np.float16(-2.5),
    "int64": np.int64(-7),
    "uint8": np.uint8(255),
    "bool_": np.bool_(True),
    "0-d array": np.array(2.5),
    "3-d array": np.arange(24.0).reshape(2, 3, 4) / 7.0,
    "arrays in a list": [np.arange(3), np.array([True, False])],
    "float in a list of floats": [0.5, np.float64(4.0)],
    "tuple": (1.0, 2, "x"),
    "empty tuple": (),
    "tuple in a report": {"rows": [{"point": (0.5, 0.25)}]},
    "int key": {1: "one"},
    "float key": {2.5: [1.0]},
    "bool key": {True: "yes"},
    "None key": {None: 0},
    "str subclass key": {Tagged("tag"): 1.0},
    "int enum": Level.LOW,
    "str subclass": Tagged("tag"),
    "float subclass": Ratio(0.75),
    "OrderedDict": collections.OrderedDict(b=1.0),
    "object": object(),
    "nested object": [1.0, {"a": object()}],
    "dict view": {1j: 1.0}.values(),
    "complex": {"a": 1j},
}


@pytest.mark.parametrize("value", list(EDGE_CASES.values()), ids=list(EDGE_CASES))
def test_edge_cases_render_as_the_recursive_writer(value):
    assert dump_json(value) == oracle_dump_json(value)


@pytest.mark.parametrize("value", list(NOT_PLAIN.values()), ids=list(NOT_PLAIN))
def test_values_no_report_holds_are_refused(value):
    for writer in (dump_json, oracle_dump_json):
        with pytest.raises(TypeError, match=r"^cannot serialize <(class|enum) '"):
            writer(value)


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_digest_battery_report_renders_as_the_recursive_writer(monkeypatch, tmp_path):
    digests = _load_tool("report_digests")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STATWINTGEN_OUTDIR", raising=False)
    for name, text in digests.FILES.items():
        Path(name).write_text(text)
    for name, config in digests.CONFIGS.items():
        Path(name).write_text(json.dumps(config))
    rendered, writer = [], cli.dump_json

    def recording(obj):
        text = writer(obj)
        rendered.append((obj, text))
        return text

    monkeypatch.setattr(cli, "dump_json", recording)
    mismatched, reports = [], 0
    for argv in digests.battery():
        del rendered[:]
        Path(digests.OUT).unlink(missing_ok=True)
        main(argv + ["--out", digests.OUT])
        if rendered:  # the commands that write a JSON report: all but the CSV sweeps and the refusals
            obj, text = rendered[-1]  # the outermost call returns last
            assert Path(digests.OUT).read_text() == text + "\n", argv
            mismatched += [argv] if text != oracle_dump_json(obj) else []
            reports += 1
    assert mismatched == []
    assert reports == 46  # 59 commands: 4 CSV sweeps and 9 refusals write no JSON report


def test_every_digest_battery_report_over_a_longer_file_equals_the_fresh_report(monkeypatch, tmp_path, capsys):
    # reports are rewritten in place: over a file longer than any report, a command must leave the bytes,
    # stdout, stderr and exit code it gives on a fresh path, and a command that writes no report leaves the file
    digests = _load_tool("report_digests")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STATWINTGEN_OUTDIR", raising=False)
    for name, text in digests.FILES.items():
        Path(name).write_text(text)
    for name, config in digests.CONFIGS.items():
        Path(name).write_text(json.dumps(config))
    out, filler = Path(digests.OUT), b"\xff" * (1 << 20)  # the 3900-row n = 2 CSV sweep is 511 687 bytes
    written = 0
    for argv in digests.battery():
        out.unlink(missing_ok=True)
        fresh = main(argv + ["--out", digests.OUT]), capsys.readouterr()
        report = out.read_bytes() if out.exists() else filler
        assert len(report) < len(filler) or report == filler, argv
        out.write_bytes(filler)
        assert (main(argv + ["--out", digests.OUT]), capsys.readouterr()) == fresh, argv
        assert out.read_bytes() == report, argv
        written += report != filler
    assert written == 50  # 59 commands: 9 refusals write no report


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE, ids=str)
@pytest.mark.parametrize("where", [
    lambda x: x,
    lambda x: [1.0, x, 2.0],  # a list of plain floats
    lambda x: {"rows": [{"a": 1.0}, {"b": x}]},
    lambda x: [None, x],
], ids=["top level", "plain-float list", "dict in a list", "mixed list"])
def test_non_finite_floats_are_refused_at_any_depth(bad, where):
    for writer in (dump_json, oracle_dump_json):
        with pytest.raises(ValueError, match=r"^non-finite float in report$"):
            writer(where(bad))


@pytest.mark.parametrize("field, bad", [("trace", [0.5, math.nan]), ("min_slack", math.inf)], ids=["trace", "min_slack"])
def test_cli_refuses_a_non_finite_report_without_writing_it(monkeypatch, tmp_path, capsys, field, bad):
    search = wg.sharpness_search

    def poisoned(*args, **kwargs):
        return search(*args, **kwargs)._replace(**{field: bad})

    monkeypatch.setattr(wg, "sharpness_search", poisoned)
    out = tmp_path / "report.json"
    assert main(["wintgen", "sharpness", "--iterations", "5", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: non-finite float in report"]
    assert not out.exists()


def test_nested_structures_render_as_the_recursive_writer():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    leaves = st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
        st.lists(st.floats(), max_size=6), st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
    )
    trees = st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=5), inner, max_size=4)), max_leaves=20)

    def outcome(writer, value):
        try:
            return writer(value)
        except (ValueError, TypeError) as exc:
            return type(exc), str(exc)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(trees)
    def check(value):
        assert outcome(dump_json, value) == outcome(oracle_dump_json, value)

    check()
