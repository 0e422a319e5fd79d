"""The file layer's writer: the same bytes as the compact sorted-key
``json.dumps`` text, without holding that text whole."""

import json
import tracemalloc

import numpy as np
import pytest

from cencay.files import _write_json, emit_report, graph_to_dict, group_to_dict
from cencay.group import FiniteGroup
from cencay.iso import IsoResult, automorphisms, iso_test
from .fixture_groups import alt5, pgl27, psl27, sym5
from .test_iso import full_graph, swap_pair


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
