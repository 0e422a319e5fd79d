"""The file layer's writer: the same bytes as the compact sorted-key
``json.dumps`` text, without holding that text whole; and its loader, which
hands out one live group per table."""

import gc
import json
import tracemalloc
import types
import weakref

import numpy as np
import pytest

import cencay.files as files_mod
from cencay.errors import InvalidInputError
from cencay.files import (_write_json, emit_report, graph_to_dict, group_from_dict,
                          group_to_dict, load_graph, save_graph)
from cencay.group import FiniteGroup
from cencay.iso import IsoResult, automorphisms, iso_test
from .fixture_groups import alt5, pgl27, psl27, sym5
from .test_iso import full_graph, relabelled_copy, swap_pair


def reference_text(payload) -> str:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"


def assert_written_as_dumps(payload, path):
    _write_json(path, payload)
    assert path.read_text(encoding="utf-8") == reference_text(payload)


@pytest.mark.parametrize("group", [alt5, sym5, psl27, pgl27])
def test_group_graph_and_report_files_are_the_dumps_text(group, tmp_path):
    gam = full_graph(group())
    assert gam.group.names is not None
    assert_written_as_dumps(group_to_dict(gam.group), tmp_path / "group.json")
    assert_written_as_dumps(graph_to_dict(gam), tmp_path / "graph.json")
    res = automorphisms(gam)
    payload = emit_report(
        res, tmp_path / "report.json", n=gam.group.order, m=2, section_kind="normal",
        fixture={"name": "full", "seed": 0}, elapsed=0.125,
    )
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == reference_text(payload)


def test_group_without_names_negative_and_generator_free_reports(tmp_path):
    bare = FiniteGroup(alt5().table)
    assert bare.names is None and "names" not in group_to_dict(bare)
    assert_written_as_dumps(group_to_dict(bare), tmp_path / "bare.json")
    negative = iso_test(*swap_pair())
    assert negative.representative is None and negative.aut_generators
    payload = emit_report(negative, tmp_path / "negative.json", n=120)
    assert payload["representative"] is None
    assert (tmp_path / "negative.json").read_text(encoding="utf-8") == reference_text(payload)
    trivial = IsoResult("isomorphic", np.arange(5, dtype=np.int32), [], 1, 1)
    payload = emit_report(trivial, tmp_path / "trivial.json", n=5, fixture={})
    assert payload["aut_generators"] == []
    assert (tmp_path / "trivial.json").read_text(encoding="utf-8") == reference_text(payload)


def traced_peak(write) -> int:
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writing_holds_no_more_than_json_dump(tmp_path):
    # the full PGL(2,7) graph file is about 0.45 MB of text; json.dumps of
    # the whole payload would hold it all at once
    payload = graph_to_dict(full_graph(pgl27()))

    def dump():
        with open(tmp_path / "dump.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")

    dump_peak = traced_peak(dump)
    write_peak = traced_peak(lambda: _write_json(tmp_path / "write.json", payload))
    assert write_peak <= dump_peak
    assert (tmp_path / "write.json").read_bytes() == (tmp_path / "dump.json").read_bytes()


# -- the loader's live groups ------------------------------------------------------


def test_two_files_over_one_table_load_one_validated_group(tmp_path, monkeypatch):
    validated = []
    validate = FiniteGroup._validate

    def counted(G):
        validated.append(G.order)
        validate(G)

    monkeypatch.setattr(FiniteGroup, "_validate", counted)
    a, b = swap_pair()  # two colourings of one S5 table
    for gam, name in ((a, "a.json"), (b, "b.json")):
        save_graph(gam, tmp_path / name)
    ga, gb = load_graph(tmp_path / "a.json"), load_graph(tmp_path / "b.json")
    assert ga.group is gb.group and ga.group is not a.group
    assert len(validated) == 1 and np.array_equal(ga.group.table, a.group.table)
    assert ga.group.names == a.group.names
    assert iso_test(ga, gb).aut_order == iso_test(a, b).aut_order


def test_other_names_or_another_table_give_another_group():
    data = group_to_dict(sym5())
    G = group_from_dict(data)
    assert group_from_dict(json.loads(json.dumps(data))) is G
    renamed = dict(data, names=["e"] + data["names"][1:])
    H = group_from_dict(renamed)
    assert H is not G and H.names[0] == "e" and np.array_equal(H.table, G.table)
    bare = group_from_dict({"table": data["table"]})
    assert bare is not G and bare is not H and bare.names is None
    # one entry changed: validated afresh, and no longer a group
    table = [list(r) for r in data["table"]]
    table[1][1], table[1][2] = table[1][2], table[1][1]
    with pytest.raises(InvalidInputError):
        group_from_dict(dict(data, table=table))
    relabelled, _ = relabelled_copy(G, 0)
    other = group_from_dict(group_to_dict(relabelled))
    assert other is not G and np.array_equal(other.table, relabelled.table)


def test_a_digest_hit_counts_only_on_an_equal_table(monkeypatch):
    # with every key colliding, the full comparison alone tells groups apart
    class Constant:
        def __init__(self, data):
            pass

        def digest(self):
            return b"same"

    monkeypatch.setattr(files_mod, "_LIVE_GROUPS", weakref.WeakValueDictionary())
    monkeypatch.setattr(files_mod, "hashlib", types.SimpleNamespace(sha256=Constant))
    G = group_from_dict(group_to_dict(alt5()))
    H = group_from_dict(group_to_dict(relabelled_copy(alt5(), 1)[0]))
    assert H is not G and not np.array_equal(H.table, G.table)
    # H holds the one slot now, so A5's table is built afresh, not matched to H
    again = group_from_dict(group_to_dict(alt5()))
    assert again is not G and again is not H and np.array_equal(again.table, G.table)


def test_a_bool_entry_fails_while_an_equal_integer_table_is_live():
    data = group_to_dict(alt5())
    G = group_from_dict(data)
    table = [list(r) for r in data["table"]]
    table[0][1] = True  # == 1, the entry the integer table holds there
    assert table == data["table"]
    with pytest.raises(InvalidInputError, match="JSON integers"):
        group_from_dict(dict(data, table=table))
    assert group_from_dict(data) is G


def test_a_decision_leaves_no_live_group(tmp_path):
    # no reference cycle keeps a loaded group alive after a decision: with
    # the cycle collector off, dropping the graphs and the result frees it
    a, b = swap_pair()
    for gam, name in ((a, "a.json"), (b, "b.json")):
        save_graph(gam, tmp_path / name)
    gc.collect()
    gc.disable()
    try:
        ga, gb = load_graph(tmp_path / "a.json"), load_graph(tmp_path / "b.json")
        res = iso_test(ga, gb)
        emit_report(res, tmp_path / "report.json", n=ga.group.order)
        group = weakref.ref(ga.group)
        assert group() in files_mod._LIVE_GROUPS.values()
        del ga, gb, res
        assert group() is None
        assert not any(np.array_equal(G.table, a.group.table)
                       for G in files_mod._LIVE_GROUPS.values())
    finally:
        gc.enable()
