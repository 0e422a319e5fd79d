import json
import math

import numpy as np
import pytest

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
    assert payload["order_verification"] == "chain"
    # a corrupted order must be caught on emit
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
    assert payload["order_verification"] == "chain"
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


def test_cli_byte_stable(sym5_transp_file, capsys):
    main(["section", str(sym5_transp_file)])
    first = capsys.readouterr().out
    main(["section", str(sym5_transp_file)])
    assert capsys.readouterr().out == first
