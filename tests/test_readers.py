"""The column-at-a-time readers of edge lists and node tables against the
row-by-row readers they replaced, kept here as oracles; that clean files
take the column path; the byte-order-mark rule; edge-list chunking and its
memory."""

import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clatt import errors, graphs
from clatt.errors import InputError, read_text
from clatt.graphs import (
    TASKS,
    Graph,
    GraphFormatError,
    NodeData,
    TableSchema,
    _int_or_none,
    _is_missing,
    _number,
    _parse_id,
    _refuse_repeats,
    csv_rows,
    load_edge_list,
    load_node_table,
)
from clatt.partition import load_clustering
from test_cli import edge_list_and_node_table


def from_edges_oracle(src, dst, n, node_ids):
    """The former ``graphs.from_edges`` for in-range endpoints: ``np.add.at``
    counts the degrees and ``np.unique`` deduplicates the keys."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    keep = src != dst
    a = np.concatenate([src[keep], dst[keep]])
    b = np.concatenate([dst[keep], src[keep]])
    key = a * n + b
    key = np.unique(key)
    a, b = key // n, key % n
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, a + 1, 1)
    offsets = np.cumsum(offsets)
    return Graph(n=n, offsets=offsets, neighbors=b.astype(np.int64), node_ids=np.asarray(node_ids, dtype=np.int64))


def load_edge_list_oracle(path) -> Graph:
    """The former ``graphs.load_edge_list``: one line at a time."""
    path = Path(path)
    src, dst = [], []
    first = 0  # file line of the first line that is neither blank nor a comment
    for lineno, raw in enumerate(read_text(path), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.replace(",", " ").split()
        if len(toks) < 2:
            raise GraphFormatError(f"{path}:{lineno}: expected two node ids")
        first = first or lineno
        if lineno == first and None in (_int_or_none(toks[0]), _int_or_none(toks[1])):
            continue
        src.append(_parse_id(toks[0], f"{path}:{lineno}"))
        dst.append(_parse_id(toks[1], f"{path}:{lineno}"))
    if not src:
        raise GraphFormatError(f"{path}: no edges found")
    raw = np.empty(2 * len(src), dtype=np.int64)
    raw[0::2] = src
    raw[1::2] = dst
    ids, first_pos, inverse = np.unique(raw, return_index=True, return_inverse=True)
    by_appearance = np.argsort(first_pos, kind="stable")
    compact = np.empty_like(by_appearance)
    compact[by_appearance] = np.arange(ids.shape[0])
    stream = compact[inverse]
    return from_edges_oracle(stream[0::2], stream[1::2], n=ids.shape[0], node_ids=ids[by_appearance])


def load_node_table_oracle(path, schema: TableSchema, graph: Graph) -> NodeData:
    """The former ``graphs.load_node_table``: one row, then one cell, at a time."""
    path = Path(path)
    rows = csv_rows(path)
    _, header = next(rows, (None, None))
    if header is None:
        raise GraphFormatError(f"{path}: empty file")
    rows = list(rows)
    header = [h.strip() for h in header]
    _refuse_repeats(header, f"{path}: header", "columns")
    if schema.id_column not in header:
        raise GraphFormatError(f"{path}: id column {schema.id_column!r} not in header {header}")
    id_idx = header.index(schema.id_column)
    tgt_idx = None
    if schema.target_column is not None:
        if schema.target_column not in header:
            raise GraphFormatError(f"{path}: target column {schema.target_column!r} missing")
        tgt_idx = header.index(schema.target_column)
    if not schema.feature_columns:
        feat_names = [h for i, h in enumerate(header) if i != id_idx and i != tgt_idx]
    else:
        _refuse_repeats(schema.feature_columns, f"{path}: feature_columns", "entries")
        for c in schema.feature_columns:
            if c not in header:
                raise GraphFormatError(f"{path}: feature column {c!r} missing")
            if c in (schema.id_column, schema.target_column):
                raise GraphFormatError(f"{path}: feature column {c!r} is the {'id' if c == schema.id_column else 'target'} column")
        feat_names = list(schema.feature_columns)
    feat_idx = [header.index(c) for c in feat_names]

    if len(rows) != graph.n:
        raise GraphFormatError(f"{path}: {len(rows)} rows for a graph with {graph.n} nodes")
    regression = schema.task == "regression"
    pos_of = {int(v): i for i, v in enumerate(graph.node_ids)}
    feats = np.full((graph.n, len(feat_idx)), np.nan)
    imputed = np.zeros_like(feats, dtype=bool)
    raw_targets = [None] * graph.n
    seen = np.zeros(graph.n, dtype=bool)
    for line, row in rows:
        where = f"{path}:{line}"
        if len(row) != len(header):
            raise GraphFormatError(f"{where}: expected {len(header)} cells, got {len(row)}")
        nid = _parse_id(row[id_idx], where)
        if nid not in pos_of:
            raise GraphFormatError(f"{where}: node id {nid} not in graph")
        pos = pos_of[nid]
        if seen[pos]:
            raise GraphFormatError(f"{where}: duplicate node id {nid}")
        seen[pos] = True
        for j, ci in enumerate(feat_idx):
            if _is_missing(row[ci]):
                imputed[pos, j] = True
            else:
                feats[pos, j] = _number(row[ci], where, "feature", feat_names[j])
        if tgt_idx is not None:
            tok = row[tgt_idx]
            if _is_missing(tok):
                raise GraphFormatError(f"{where}: missing target {tok!r} in column {schema.target_column!r}")
            raw_targets[pos] = _number(tok, where, "regression target", schema.target_column) if regression else tok

    parsed = ~np.isnan(feats)
    col_mean = np.where(parsed, feats, 0.0).sum(axis=0) / np.maximum(parsed.sum(axis=0), 1)
    feats = np.where(imputed, col_mean, feats)

    targets = None
    num_classes = 0
    if tgt_idx is not None:
        if regression:
            targets = np.array(raw_targets, dtype=np.float64)
        else:
            labels = sorted(set(raw_targets))
            lut = {v: i for i, v in enumerate(labels)}
            targets = np.array([lut[t] for t in raw_targets], dtype=np.int64)
            num_classes = len(labels)
            if schema.task == "binary" and num_classes > 2:
                raise GraphFormatError(f"{path}: {num_classes} distinct labels for a binary task")
    return NodeData(features=feats, targets=targets, imputed=imputed, num_classes=num_classes)


def run(reader, *args):
    """What ``reader(*args)`` returns, or the type and message of the
    InputError it raises."""
    try:
        return reader(*args)
    except InputError as e:
        return type(e), str(e)


def fields(result):
    if isinstance(result, Graph):
        return result.n, result.offsets, result.neighbors, result.node_ids
    if isinstance(result, NodeData):
        return result.features, result.targets, result.imputed, result.num_classes
    return result


def assert_same(got, want):
    """Equal errors, or results whose arrays are equal in dtype and value."""
    got, want = fields(got), fields(want)
    assert len(got) == len(want), (got, want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert isinstance(g, np.ndarray) and g.dtype == w.dtype and np.array_equal(g, w), (g, w)
        else:
            assert g == w


def write_lines(path, lines, end="\n"):
    path.write_text("".join(line + end for line in lines), newline="")
    return path


def assert_readers_match(tmp, edge_lines, node_lines, end="\n", task="multiclass", target="target"):
    """The edge list and node table written from these lines load as their
    oracles load them."""
    edges = write_lines(Path(tmp) / "e.csv", edge_lines, end)
    nodes = write_lines(Path(tmp) / "n.csv", node_lines, end)
    g = run(load_edge_list, edges)
    assert_same(g, run(load_edge_list_oracle, edges))
    if isinstance(g, Graph):
        schema = TableSchema(target_column=target, task=task)
        assert_same(run(load_node_table, nodes, schema, g), run(load_node_table_oracle, nodes, schema, g))


class TestEdgeListAndNodeTableOracles:
    @given(edge_list_and_node_table(), st.sampled_from(["\n", "\r\n", "\r"]), st.sampled_from(TASKS),
           st.sampled_from([graphs.EDGE_CHUNK_LINES, 2]))
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_files_match_row_by_row_readers(self, files, end, task, chunk):
        edge_lines, node_rows = files
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(graphs, "EDGE_CHUNK_LINES", chunk):
            assert_readers_match(tmp, edge_lines, ["id,f0,target"] + node_rows, end, task)

    @pytest.mark.parametrize(
        "edge_lines, node_lines, task",
        [
            # a form feed inside a line is whitespace, not a line end
            (["0\x0c1", "1 2"], ["id,f0,target", "0,1,a", "1,2,b", "2,3,a"], "multiclass"),
            # ",#x 5" is no comment: its stripped text starts with ","
            ([",#x 5", "0 1"], ["id,target", "0,a", "1,b"], "multiclass"),
            (["0,1", ",#x 5"], ["id,target", "0,a", "1,b"], "multiclass"),
            (["# only", "  #x 5", "0 1"], ["id,target", "0,a", "1,b"], "multiclass"),
            # a file that holds only a header
            (["src,dst"], ["id,target"], "multiclass"),
            (["0 1"], ["id,f0,target"], "multiclass"),
            # extra columns
            (["0 1 0.5", "1,2,x,y"], ["id,f0,target", "0,1,a,extra", "1,2,b", "2,3,a"], "multiclass"),
            (["0 1 0.5", "1,2,x,y"], ["id,f0,target", "0,1,a", "1,2,b", "2,3,a"], "multiclass"),
            # ids at the ends of int64, past them, and in other scripts
            ([f"{-(2**63)} 1", "١ 2"], ["id,target", "١,a", f"{-(2**63)},b", "1,a", "2,b"], "multiclass"),
            ([f"{-(2**63)} 1", "1 2"], ["id,target", f"{-(2**63)},a", "1,b", f"{2**63},a"], "multiclass"),
            ([f"{2**63} 1"], ["id,target", "0,a"], "multiclass"),
            (["0 1", f"1 {-(2**63) - 1}"], ["id,target", "0,a"], "multiclass"),
            # bad cells in two columns of one row: the left one is named
            (["0 1", "1 2"], ["id,f0,f1,target", "0,1,2,a", "1,x,inf,b", "2,3,4,a"], "multiclass"),
            (["0 1", "1 2"], ["id,f0,f1,target", "0,1,2,a", "1,3,inf,", "2,y,4,a"], "multiclass"),
            (["0 1", "1 2"], ["id,f0,target", "0,1,0.5", "1,x,inf", "2,3,1"], "regression"),
            # +nan is an error, nan beside it is missing
            (["0 1", "1 2"], ["id,f0,f1,target", "0,nan,+nan,a", "1,1,2,b", "2,3,4,a"], "multiclass"),
            (["0 1", "1 2"], ["id,f0,f1,target", "0,+nan,nan,a", "1,1,2,b", "2,3,4,a"], "multiclass"),
            (["0 1", "1 2"], ["id,f0,f1,target", "0,nan,NA,a", "1, ,2,b", "2,3,null,a"], "binary"),
            # the first error in file order wins across the checks of a row
            (["0 1", "1 2"], ["id,f0,target", "0,1", "1,x,a", "7,1,b"], "multiclass"),
            (["0 1", "1 2"], ["id,f0,target", "0,1,a", "0,x,b", "2,1,"], "multiclass"),
            (["0 1", "1 2"], ["id,f0,target", "0,1,a", "1,1,", "x,1,b"], "multiclass"),
            (["0 1", "1 2"], ["id,f0,target", "0,1,1e999", "1,1,", "2,1,0"], "regression"),
            # a repeated id, an id not in the graph and a short row, in tables with no bad cell
            (["0 1", "1 2"], ["id,f0,target", "0,1,a", "2,2,b", "0,3,a"], "multiclass"),
            (["0 1", "1 2"], ["id,f0,target", "0,1,a", "1,2,b", "3,3,a"], "multiclass"),
            (["0 1", "1 2"], ["id,f0,target", "0,1,a", "1,2", "2,3,a"], "multiclass"),
        ],
    )
    def test_examples_match_row_by_row_readers(self, tmp_path, edge_lines, node_lines, task):
        for end in ("\n", "\r\n", "\r"):
            assert_readers_match(tmp_path, edge_lines, node_lines, end, task)


@pytest.mark.parametrize("task, target", [("multiclass", "a"), ("binary", "1"), ("regression", "-2.5e3")])
def test_clean_files_take_the_column_path(tmp_path, monkeypatch, task, target):
    """A file with no missing or bad cell never reaches the row-by-row code,
    which only runs to read missing cells or to name the first error."""
    for name in ("_edge_ids_by_line", "_table_rows"):
        monkeypatch.setattr(graphs, name, mock.Mock(side_effect=AssertionError("row-by-row path taken")))
    g = load_edge_list(write_lines(tmp_path / "e.csv", ["# c", "src,dst", "", "10,+2", "2 ١", "1_0\t7"]))
    rows = [f"{nid},{i}.5,{-i},{target}" for i, nid in enumerate(g.node_ids)]
    nodes = write_lines(tmp_path / "n.csv", ["id,f0,f1,target"] + rows[::-1])
    got = load_node_table(nodes, TableSchema(target_column="target", task=task), g)
    assert got.features.tolist() == [[i + 0.5, -i] for i in range(g.n)] and not got.imputed.any()


class TestByteOrderMark:
    BOM = "\ufeff".encode()

    def test_edge_list_keeps_its_first_edge(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_bytes(self.BOM + b"0,1\n1,2\n2,0\n")
        g = load_edge_list(path)
        assert g.m == 3 and g.node_ids.tolist() == [0, 1, 2]

    def test_node_table_finds_its_id_column(self, tmp_path):
        g = graphs.from_edges([0, 1], [1, 2], n=3)
        path = tmp_path / "n.csv"
        path.write_bytes(self.BOM + b"id,f0\n0,1\n1,2\n2,3\n")
        assert load_node_table(path, TableSchema(), g).features[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_clustering_file_finds_its_header(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(self.BOM + b"node_id,cluster_id\n1,0\n0,0\n")
        ids, assignment, _ = load_clustering(path)
        assert ids.tolist() == [0, 1] and assignment.tolist() == [0, 0]

    def test_only_one_mark_is_dropped(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_bytes(2 * self.BOM + b"0,1\n1,2\n")
        # the second mark is text, so the first line is a header
        assert load_edge_list(path).m == 1


class TestEdgeListChunks:
    def test_bad_id_in_first_chunk_beats_short_line_in_third(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graphs, "EDGE_CHUNK_LINES", 2)
        path = write_lines(tmp_path / "e.txt", ["0 1", "x 2", "1 2", "2 3", "3"])
        with pytest.raises(GraphFormatError, match=r"e\.txt:2: node id 'x' is not a 64-bit integer"):
            load_edge_list(path)

    def test_header_after_a_chunk_of_comments(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graphs, "EDGE_CHUNK_LINES", 2)
        path = write_lines(tmp_path / "e.txt", ["# a", "", "src,dst", "0,1", "1,2", "a,b"])
        with pytest.raises(GraphFormatError, match=r"e\.txt:6: node id 'a' is not a 64-bit integer"):
            load_edge_list(path)
        assert load_edge_list(write_lines(tmp_path / "f.txt", ["# a", "", "src,dst", "0,1", "1,2"])).m == 2

    def test_peak_memory_per_line(self, tmp_path):
        # 200 000 lines of two ids below 50 000, "u,v", about 11.6 B a line
        rng = np.random.default_rng(0)
        m = 200_000
        pairs = rng.integers(0, 50_000, size=(m, 2)).tolist()
        path = tmp_path / "e.csv"
        path.write_text("".join(f"{u},{v}\n" for u, v in pairs))
        tracemalloc.start()
        try:
            g = load_edge_list(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n > 40_000
        # the row-by-row reader peaked at 211 B a line on this file: its
        # lists of Python ints lived through the compaction; chunked
        # conversion measured 139 B
        assert peak / m < 170

    def test_reading_holds_no_copy_of_the_file(self, tmp_path):
        # the same 200 000 lines; the ids of each chunk are all the reader
        # holds besides the returned array (16 B a line). Reading the whole
        # file into an io.StringIO first peaked at 80 B a line here.
        rng = np.random.default_rng(0)
        m = 200_000
        path = tmp_path / "e.csv"
        path.write_text("".join(f"{u},{v}\n" for u, v in rng.integers(0, 50_000, size=(m, 2)).tolist()))
        tracemalloc.start()
        try:
            ids = graphs._edge_ids(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ids.size == 2 * m
        assert peak / m < 50


class TestReadText:
    def test_lines_come_from_the_open_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes("\ufeffa,b\r\nc\rd\n\ufeffe".encode())
        lines = read_text(path)
        assert next(lines) == "a,b\r\n"
        assert list(lines) == ["c\r", "d\n", "\ufeffe"]

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5, 7, 1 << 18])
    def test_chunks_split_as_the_open_file_does(self, tmp_path, monkeypatch, chunk):
        # a \r\n, a lone \r and a lone \n at every offset from a chunk's end
        monkeypatch.setattr(errors, "READ_CHUNK_CHARS", chunk)
        text = "ab\r\ncd\re\n\r\n\rf\r\ng,h\n\n\r\rij"
        path = tmp_path / "t.csv"
        path.write_bytes(("﻿" + text).encode())
        with open(path, newline="") as fh:
            want = list(fh)
        assert want[0] == "﻿ab\r\n"
        assert list(read_text(path)) == ["ab\r\n"] + want[1:]

    @pytest.mark.parametrize("content, lines", [(b"", []), ("\ufeff".encode(), []), ("\ufeff\n".encode(), ["\n"])])
    def test_a_mark_alone_is_no_line(self, tmp_path, content, lines):
        path = tmp_path / "t.csv"
        path.write_bytes(content)
        assert list(read_text(path)) == lines

    def test_undecodable_bytes_deep_in_the_file_name_it(self, tmp_path):
        # past the first chunk read from the open file, so they raise mid-iteration
        good = b"".join(b"%d,%d\n" % (i, i + 1) for i in range(errors.READ_CHUNK_CHARS // 4))
        assert len(good) > errors.READ_CHUNK_CHARS
        path = tmp_path / "e.csv"
        path.write_bytes(good + b"\xff\xfe,1\n")
        lines = read_text(path)
        assert next(lines) == "0,1\n"
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: not a text file"):
            list(lines)
        with pytest.raises(InputError, match="e.csv: not a text file"):
            load_edge_list(path)
        nodes = tmp_path / "n.csv"
        nodes.write_bytes(b"id,f0\n" + good + b"\xff,1\n")
        with pytest.raises(InputError, match="n.csv: not a text file"):
            load_node_table(nodes, TableSchema(), graphs.from_edges([0], [1], n=2))

    def test_clustering_meta_is_read_whole(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("node_id,cluster_id\n0,0\n1,0\n")
        meta = tmp_path / "c.csv.meta.json"
        meta.write_bytes("\ufeff{\"algorithm\": \"LA\",\n \"k\": 1}".encode())
        assert load_clustering(path)[2] == {"algorithm": "LA", "k": 1}
        meta.write_bytes(b'{"algorithm": "\xff"}')
        with pytest.raises(InputError, match="meta.json: not a text file"):
            load_clustering(path)
