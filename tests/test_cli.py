import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cencay
from cencay.cli import main
from cencay import iso
from cencay.errors import InternalError, InvalidInputError
from cencay.files import (
    emit_report,
    graph_from_dict,
    graph_to_dict,
    group_from_dict,
    group_to_dict,
    load_graph,
    load_group,
    result_from_dict,
    result_to_dict,
    save_graph,
    save_group,
    verify_emitted_order,
)
from cencay.fixtures import builtin_group
from cencay.group import socle
from cencay.iso import IsoResult, automorphisms
from .fixture_groups import sym5


def test_builtin_groups():
    assert builtin_group("alt5").order == 60
    pgl = builtin_group("pgl27")
    assert pgl.order == 336
    assert socle(pgl).order == 168
    sym6 = builtin_group("sym6")
    from cencay.group import automorphism_group

    assert len(automorphism_group(sym6)) == 1440
    assert builtin_group("trivial").order == 1
    assert builtin_group("trivial3").order == 1
    with pytest.raises(InvalidInputError):
        builtin_group("monster")


def test_group_roundtrip(tmp_path):
    G = builtin_group("alt5")
    path = tmp_path / "g.json"
    save_group(G, path)
    G2 = load_group(path)
    assert np.array_equal(G.table, G2.table)
    assert G2.names == G.names


def test_group_file_validation(tmp_path):
    bad = {"order": 2, "table": [[0, 1], [1, 1]]}
    with pytest.raises(InvalidInputError):
        group_from_dict(bad)
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InvalidInputError):
        load_group(path)


def test_graph_roundtrip(tmp_path, sym5_transp_file):
    gamma = load_graph(sym5_transp_file)
    assert gamma.k == 3
    path2 = tmp_path / "copy.json"
    save_graph(gamma, path2)
    gamma2 = load_graph(path2)
    assert gamma2.partition.classes == gamma.partition.classes


def test_graph_rejects_bad_class0(tmp_path):
    from cencay.cayley import build_central_cayley, partition_from_class_merge

    G = builtin_group("sym5")
    gamma = build_central_cayley(
        G, partition_from_class_merge(G, [[0], [1], [2, 3, 4, 5, 6]])
    )
    data = graph_to_dict(gamma)
    data["colors"][0] = [1]
    with pytest.raises(InvalidInputError):
        graph_from_dict(data)


def test_result_roundtrip():
    res = IsoResult(
        "isomorphic",
        np.arange(5, dtype=np.int32),
        [np.array([1, 0, 2, 3, 4], dtype=np.int32)],
        2,
        5,
    )
    d = result_to_dict(res)
    back = result_from_dict(d)
    assert back.verdict == res.verdict
    assert np.array_equal(back.representative, res.representative)
    assert back.aut_order == 2
    assert d["aut_order"] == "2"


def test_emitted_order_verification(tmp_path, sym5_transp_file):
    gamma = load_graph(sym5_transp_file)
    res = automorphisms(gamma)
    payload = emit_report(res, tmp_path / "report.json", n=120, m=2, section_kind="normal")
    assert payload["aut_order"] == "28800"
    assert payload["order_verification"] == "certificate"
    # a corrupted order must be caught on emit, with the certificate and without
    with pytest.raises(InternalError):
        verify_emitted_order(dataclasses.replace(res, aut_order=28801), 120)
    bad = IsoResult(res.verdict, res.representative, res.aut_generators, 28801, 5)
    with pytest.raises(Exception):
        verify_emitted_order(bad, 120)


@pytest.fixture(scope="module")
def sym5_transp_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    gpath = tmp / "sym5.json"
    save_group(builtin_group("sym5"), gpath)
    assert main(["graph", "--group", str(gpath), "--merge", "0;1;2,3,4,5,6",
                 "-o", str(tmp / "transp.json")]) == 0
    return tmp / "transp.json"


def test_cli_group_and_classes(tmp_path, capsys):
    assert main(["group", "alt5", "-o", str(tmp_path / "a5.json")]) == 0
    out = capsys.readouterr().out
    assert "order 60" in out
    assert main(["classes", str(tmp_path / "a5.json")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("0\tsize 1")


def test_cli_json_on_section_and_classes(tmp_path, sym5_transp_file, capsys):
    assert main(["section", str(sym5_transp_file), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"section_kind": "normal", "L": 60, "U": 120, "m": 2}
    assert main(["group", "alt5", "-o", str(tmp_path / "a5.json")]) == 0
    capsys.readouterr()
    assert main(["classes", str(tmp_path / "a5.json"), "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(r["size"], r["order"]) for r in rows] == [(1, 1), (12, 5), (12, 5), (15, 2), (20, 3)]
    assert rows[0]["rep"] == "()"


def test_cli_group_and_graph_take_no_json_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["group", "alt5", "--json"])
    assert exc.value.code == 2
    assert main(["group", "alt5", "-o", str(tmp_path / "a5.json")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["graph", "--group", str(tmp_path / "a5.json"), "--merge", "0;1,2;3;4",
              "-o", str(tmp_path / "g.json"), "--json"])
    assert exc.value.code == 2


def test_cli_unknown_group_exit2(capsys):
    assert main(["group", "nonsense"]) == 2


def test_cli_section_output(sym5_transp_file, capsys):
    assert main(["section", str(sym5_transp_file)]) == 0
    assert capsys.readouterr().out.strip() == "normal, L=60, U=120, m=2"


def test_cli_iso_self_exit0(sym5_transp_file, capsys):
    assert main(["iso", str(sym5_transp_file), str(sym5_transp_file)]) == 0
    out = capsys.readouterr().out
    assert "isomorphic" in out


def test_cli_iso_swap_exit1(tmp_path, capsys):
    gpath = tmp_path / "sym5.json"
    save_group(builtin_group("sym5"), gpath)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["graph", "--group", str(gpath), "--merge", "0;4;3;1,2,5,6", "-o", str(a)]) == 0
    assert main(["graph", "--group", str(gpath), "--merge", "0;3;4;1,2,5,6", "-o", str(b)]) == 0
    assert main(["iso", str(a), str(b)]) == 1


def test_cli_json_and_report(sym5_transp_file, tmp_path, capsys):
    report = tmp_path / "rep.json"
    assert main(["aut", str(sym5_transp_file), "--json", "-o", str(report)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["aut_order"] == "28800"
    saved = json.loads(report.read_text())
    assert saved["aut_order"] == "28800"
    assert saved["type"] == "normal"
    assert saved["m"] == 2
    assert payload == saved


def test_cli_json_alone_is_certified(sym5_transp_file, capsys):
    assert main(["aut", str(sym5_transp_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order_verification"] == "certificate"
    assert payload["type"] == "normal"
    assert payload["timing_seconds"] > 0


def test_cli_internal_error_exit4(sym5_transp_file, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InternalError("representative fails the color check")

    monkeypatch.setattr(iso, "iso_test", broken)
    assert main(["iso", str(sym5_transp_file), str(sym5_transp_file)]) == 4
    assert "representative fails" in capsys.readouterr().err


def test_cli_unexpected_error_exit5(sym5_transp_file, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr(iso, "iso_test", broken)
    assert main(["iso", str(sym5_transp_file), str(sym5_transp_file)]) == 5
    assert "Traceback" in capsys.readouterr().err


def test_cli_oracle_small(tmp_path, capsys):
    gpath = tmp_path / "a5.json"
    save_group(builtin_group("alt5"), gpath)
    g = tmp_path / "g.json"
    assert main(["graph", "--group", str(gpath), "--merge", "0;1,2,3,4", "-o", str(g)]) == 0
    assert main(["oracle", str(g), str(g), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["aut_order"] == str(math.factorial(60))


def test_cli_invalid_graph_exit2(tmp_path):
    gpath = tmp_path / "c6.json"
    from cencay.group import group_from_generators

    save_group(group_from_generators([tuple((i + 1) % 6 for i in range(6))]), gpath)
    # cyclic group: not almost simple
    assert main(["graph", "--group", str(gpath), "--merge", "0;1,2,3,4,5", "-o",
                 str(tmp_path / "g.json")]) == 2


def test_cli_overlapping_or_empty_classes_exit2(tmp_path):
    from cencay.group import conjugacy_classes

    G = builtin_group("alt5")
    gpath = tmp_path / "a5.json"
    save_group(G, gpath)
    cc = [list(c) for c in conjugacy_classes(G).classes]
    for name, colors in (
        ("overlap", [cc[0], cc[1], cc[1] + cc[2], cc[3] + cc[4]]),
        ("empty", [cc[0], cc[1], [], cc[2] + cc[3] + cc[4]]),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"group": "a5.json", "colors": colors}))
        assert main(["aut", str(path)]) == 2
        assert main(["iso", str(path), str(path)]) == 2


def _set(path, value):
    """An edit of a graph payload: store value at the key path."""
    def edit(data):
        *head, last = path
        for key in head:
            data = data[key]
        data[last] = value(data[last]) if callable(value) else value
    return edit


MALFORMED = {
    "ragged table": _set(("group", "table", 3), lambda row: row[:-1]),
    "string entry": _set(("group", "table", 2, 5), lambda x: str(x)),
    "huge entry": _set(("group", "table", 2, 5), 2**40),
    "entry beyond int64": _set(("group", "table", 2, 5), 2**70),
    "negative entry": _set(("group", "table", 2, 5), -1),
    "float table": _set(("group", "table"), lambda t: [[x + 0.0 for x in r] for r in t]),
    "bool entry": _set(("group", "table", 0, 1), True),
    "string order": _set(("group", "order"), "60"),
    "fractional order": _set(("group", "order"), 60.5),
    "colors not a list": _set(("colors",), 7),
    "string color element": _set(("colors", 1, 0), lambda x: str(x)),
    "nested color element": _set(("colors", 1, 0), lambda x: [x]),
    "bool color element": _set(("colors", 1, 0), True),
    "names not a list": _set(("group", "names"), 5),
}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=list(MALFORMED))
def test_cli_malformed_json_exit2(tmp_path, edit, capsys):
    from cencay.cayley import build_central_cayley, partition_from_class_merge

    G = builtin_group("alt5")
    gamma = build_central_cayley(G, partition_from_class_merge(G, [[0], [1, 2], [3, 4]]))
    data = graph_to_dict(gamma)
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["aut", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    with pytest.raises(InvalidInputError):
        graph_from_dict(data)


@pytest.mark.parametrize("table", [[[0, 1.7], [1.2, 0]], [[False, True], [True, False]]])
def test_float_or_bool_tables_are_not_truncated(table):
    with pytest.raises(InvalidInputError):
        group_from_dict({"table": table})
    assert group_from_dict({"order": 2, "table": [[0, 1], [1, 0]]}).order == 2


LOADER_MESSAGES = [
    # (where, value, message); bools hide among the integers as 0 and 1
    (("group", "table", 0, 1), True, "the table may hold JSON integers only"),
    (("group", "table", 0, 0), False, "the table may hold JSON integers only"),
    (("group", "table", 2, 5), 1.0, "the table may hold JSON integers only"),
    (("group", "table", 2, 5), 2**70, "the table has an entry outside 0..59"),
    (("group", "table", 2, 5), [5], "the table may hold JSON integers only"),
    (("group", "table", 2, 5), "5", "the table may hold JSON integers only"),
    (("colors", 1, 0), True, "the colors may hold JSON integers only"),
    (("colors", 0, 0), False, "the colors may hold JSON integers only"),
    (("colors", 1, 0), 1.0, "the colors may hold JSON integers only"),
    (("colors", 1, 0), 2**70, "the colors has an entry outside 0..59"),
    (("colors", 1, 0), [5], "the colors may hold JSON integers only"),
    (("colors", 1, 0), "5", "the colors may hold JSON integers only"),
]


@pytest.mark.parametrize("where, value, message", LOADER_MESSAGES,
                         ids=[f"{w[0]}-{v!r}" for w, v, _ in LOADER_MESSAGES])
def test_the_loader_names_each_bad_entry(where, value, message):
    from cencay.cayley import build_central_cayley, partition_from_class_merge

    G = builtin_group("alt5")
    data = graph_to_dict(build_central_cayley(G, partition_from_class_merge(G, [[0], [1, 2], [3, 4]])))
    _set(where, value)(data)
    with pytest.raises(InvalidInputError) as err:
        graph_from_dict(data)
    assert str(err.value) == message


def test_cli_byte_stable(sym5_transp_file, capsys):
    main(["section", str(sym5_transp_file)])
    first = capsys.readouterr().out
    main(["section", str(sym5_transp_file)])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("merge", ["0;a;2,3,4", "0;1.5;2,3,4"])
def test_cli_non_integer_merge_exit2(tmp_path, merge, capsys):
    gpath = tmp_path / "a5.json"
    save_group(builtin_group("alt5"), gpath)
    out = tmp_path / "g.json"
    assert main(["graph", "--group", str(gpath), "--merge", merge, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "class indices" in err
    assert not out.exists()


def test_python_dash_m_runs_the_cli():
    src = Path(cencay.__file__).resolve().parent.parent
    path = [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-m", "cencay", "group", "alt5"], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "alt5: order 60"
