import json
import warnings

import numpy as np
import pytest

from arraybit import cli
from arraybit.baseline import DimsAttsIndex, full_scan
from arraybit.chunkstore import ArraySchema, ChunkStore, QueryStats, load_store, write_raw
from arraybit.cli import main, parse_query_text
from arraybit.errors import InputError
from arraybit.hierindex import Index, build_index
from arraybit.query import RawQuery, estimate, execute, normalize


@pytest.fixture
def schema():
    return ArraySchema((("d0", 64), ("d1", 64)), (("a", "float64"),), (8, 8))


def test_parse_mixed_query(schema):
    raw = parse_query_text("where a >= 30 and d0 in [50, 60] and d1 < 14", schema, "a")
    assert raw.attr_lo == 30.0 and raw.attr_hi is None
    assert raw.dims["d0"] == (50, 60)
    assert raw.dims["d1"] == (None, np.nextafter(14, -np.inf))
    assert normalize(raw, schema).dim_ranges == (((50, 60),), ((0, 13),))


def test_parse_strict_attribute_bound(schema):
    raw = parse_query_text("a < 2.5", schema, "a")
    assert raw.attr_hi == np.nextafter(2.5, -np.inf)
    raw = parse_query_text("a > 2.5", schema, "a")
    assert raw.attr_lo == np.nextafter(2.5, np.inf)


def test_parse_membership_forms(schema):
    raw = parse_query_text("a in {1.5, 2.5}", schema, "a")
    assert raw.values == (1.5, 2.5)
    raw = parse_query_text("d1 in {2, 4}", schema, "a")
    assert raw.dim_values["d1"] == {2, 4}


def test_parse_equality_and_conjunction(schema):
    raw = parse_query_text("d0 = 7 and a == 1.25", schema, "a")
    assert raw.dims["d0"] == (7, 7)
    assert raw.attr_lo == raw.attr_hi == 1.25


def test_parse_rejects_junk(schema):
    with pytest.raises(InputError):
        parse_query_text("bogus >= 1", schema, "a")
    with pytest.raises(InputError):
        parse_query_text("a >= fast", schema, "a")
    with pytest.raises(InputError):
        parse_query_text("a like 3", schema, "a")


@pytest.mark.parametrize("where, want", [
    ("a in {1} and a in {2}", 0), ("a in {1, 2} and a in {2, 3}", 16),
    ("d1 in {1, 2} and d1 in {2, 3}", 8), ("d0 in {1} and d0 in {2}", 0),
])
def test_a_repeated_set_on_one_name_narrows_the_query(tmp_path, capsys, where, want):
    # the terms are a conjunction: a second set on a name intersects the
    # first (once their union: counts 32, 48, 24 and 16)
    sch = ArraySchema((("d0", 8), ("d1", 8)), (("a", "int64"),), (4, 4), {"a": -1})
    head, idx = tmp_path / "arr.json", tmp_path / "arr.abix"
    write_raw(head, sch, {"a": np.arange(64).reshape(8, 8) % 4})
    assert main(["build", "--data", str(head), "--index", str(idx), "--params", "fanout=4"]) == 0
    scan = full_scan(load_store(head), "a", normalize(parse_query_text(where, sch, "a"), sch))
    assert scan.size == want
    capsys.readouterr()
    assert main(["query", "--index", str(idx), "--data", str(head), "--where", where]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"count {want}"


@pytest.mark.parametrize("where", ["a in {1, 2} and a >= 2", "a >= 2 and a in {1, 2}"])
def test_an_attribute_set_with_a_range_keeps_the_members_inside_it(tmp_path, capsys, where):
    # once refused: "attribute membership and range cannot be combined"
    sch = ArraySchema((("d0", 8), ("d1", 8)), (("a", "int64"),), (4, 4), {"a": -1})
    head, path = tmp_path / "arr.json", tmp_path / "arr.abix"
    write_raw(head, sch, {"a": np.arange(64).reshape(8, 8) % 4})
    store = load_store(head)
    idx = build_index(store, fanout=4, bins=4, e=1)
    raw = parse_query_text(where, sch, "a")
    q = normalize(raw, sch, (idx.root.amin, idx.root.amax), "a")
    assert q.attr_runs == ((2.0, 2.0),)
    want = full_scan(store, "a", q)
    assert want.size == 16
    assert np.array_equal(execute(idx, raw).cell_ids(store), want)
    assert estimate(idx, raw, idx.depth) == (16, 16)
    assert np.array_equal(DimsAttsIndex(store, "a", bins=4).query(q), want)
    idx.save(path)
    capsys.readouterr()
    assert main(["query", "--index", str(path), "--data", str(head), "--where", where]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "count 16"


@pytest.mark.parametrize("where, raw", [
    ("a <= -5", RawQuery(attr_hi=-5.0)),
    ("a >= 100", RawQuery(attr_lo=100.0)),
    ("a >= 100 and a in {1, 2}", RawQuery(attr_lo=100.0, values=(1.0, 2.0))),
])
def test_a_one_sided_bound_past_the_data_counts_no_cell(tmp_path, capsys, where, raw):
    # once refused: the missing bound took the root's amin or amax, so
    # `a <= -5` on values 0..63 became the inverted range [0.0, -5.0]
    sch = ArraySchema((("d0", 8), ("d1", 8)), (("a", "float64"),), (4, 4))
    head, path = tmp_path / "arr.json", tmp_path / "arr.abix"
    write_raw(head, sch, {"a": np.arange(64.0).reshape(8, 8)})
    store = load_store(head)
    idx = build_index(store, fanout=4, bins=4, e=1)
    assert parse_query_text(where, sch, "a") == raw
    q = normalize(raw, sch, (idx.root.amin, idx.root.amax), "a")
    assert q.attr_runs == ()
    rs = execute(idx, raw)
    assert rs.count == 0 and rs.cell_ids(store).size == 0
    for budget in range(idx.depth + 1):
        assert estimate(idx, raw, budget) == (0, 0)
    assert full_scan(store, "a", q).size == 0
    assert DimsAttsIndex(store, "a", bins=4).query(q).size == 0
    idx.save(path)
    capsys.readouterr()
    assert main(["query", "--index", str(path), "--data", str(head), "--where", where]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "count 0"
    assert main(["estimate", "--index", str(path), "--where", where]) == 0
    assert capsys.readouterr().out.split() == ["min", "0", "max", "0"]


def test_bounds_the_query_gives_both_are_still_checked_for_inversion():
    sch = ArraySchema((("d0", 8), ("d1", 8)), (("a", "float64"),), (4, 4))
    idx = build_index(ChunkStore.from_dense(sch, {"a": np.arange(64.0).reshape(8, 8)}),
                      fanout=4, bins=4, e=1)
    for raw in (RawQuery(attr_lo=5.0, attr_hi=1.0), RawQuery(attr_lo=100.0, attr_hi=-5.0)):
        with pytest.raises(InputError, match="inverted attribute range"):
            execute(idx, raw)
        with pytest.raises(InputError, match="inverted attribute range"):
            estimate(idx, raw, 0)


def test_the_queries_of_the_cli_docstring_run(tmp_path, capsys):
    examples = [line.strip() for line in cli.__doc__.splitlines()
                if line.strip().startswith("where ")]
    assert examples
    sch = ArraySchema((("d0", 64), ("d1", 16)), (("a", "float64"),), (8, 8))
    head, path = tmp_path / "arr.json", tmp_path / "arr.abix"
    write_raw(head, sch, {"a": (np.arange(64 * 16).reshape(64, 16) % 45).astype(float)})
    assert main(["build", "--data", str(head), "--index", str(path)]) == 0
    store = load_store(head)
    for where in examples:
        want = full_scan(store, "a", normalize(parse_query_text(where, sch, "a"), sch)).size
        capsys.readouterr()
        assert main(["query", "--index", str(path), "--data", str(head), "--where", where]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"count {want}", where


@pytest.mark.parametrize("where", ["a in [x, 3]", "a in [1, x]", "a in {x}", "d0 in {1, y}"])
def test_a_bound_or_member_that_is_no_number_is_a_usage_error(tmp_path, capsys, where):
    head = _gen(tmp_path, shape="16x16")
    path = tmp_path / "x.abix"
    assert main(["build", "--data", str(head), "--index", str(path)]) == 0
    capsys.readouterr()
    assert main(["query", "--index", str(path), "--where", where]) == 1
    err = capsys.readouterr().err
    assert f"expected a number in {where!r}" in err and "Traceback" not in err


def _gen(tmp_path, shape="32x32", seed=3, threshold="0.00001"):
    head = tmp_path / "arr.json"
    rc = main([
        "gen", "--out", str(head), "--shape", shape, "--gaussians", "4",
        "--seed", str(seed), "--threshold", threshold, "--chunk", "8x8",
    ])
    assert rc == 0
    return head


@pytest.mark.parametrize("flag, value, name", [
    ("--threshold", "nan", "threshold"),
    ("--cov-min", "nan", "cov_min"),
    ("--cov-max", "nan", "cov_max"),
    ("--cov-max", "0", "cov_max"),
    ("--cov-max", "-2", "cov_max"),
])
def test_gen_rejects_bad_generator_parameters(tmp_path, capsys, flag, value, name):
    head = tmp_path / "arr.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["gen", "--out", str(head), "--shape", "8x8", "--gaussians", "2",
                   "--seed", "1", flag, value])
    assert rc == 1
    assert name in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not head.exists()


def test_gen_build_query_estimate(tmp_path, capsys):
    head = _gen(tmp_path)
    idx = tmp_path / "arr.abix"
    rc = main(["build", "--data", str(head), "--index", str(idx),
               "--params", "bins=8", "fanout=16"])
    assert rc == 0
    capsys.readouterr()

    rc = main(["query", "--index", str(idx), "--data", str(head), "--where", ""])
    assert rc == 0
    out = capsys.readouterr().out
    count = int(out.splitlines()[0].split()[1])
    store = load_store(head)
    assert count == store.nonempty_total()

    rc = main(["estimate", "--index", str(idx), "--levels", "0", "--where", "a >= 0"])
    assert rc == 0
    out = capsys.readouterr().out
    lo = int(out.splitlines()[0].split()[1])
    hi = int(out.splitlines()[1].split()[1])
    assert lo <= count <= hi


def test_estimate_of_complete_leaves_needs_no_data(tmp_path, capsys):
    # one whole chunk of a 64x64 array in 8x8 chunks under fanout 4, at the
    # full level budget: the descent takes that chunk's leaf complete, and a
    # complete leaf counts from the index's leaf table, so no --data is read
    schema = ArraySchema((("d0", 64), ("d1", 64)), (("a", "float64"),), (8, 8))
    head = tmp_path / "arr.json"
    write_raw(head, schema, {"a": np.random.default_rng(3).random((64, 64))})
    idx = tmp_path / "arr.abix"
    assert main(["build", "--data", str(head), "--index", str(idx),
                 "--params", "fanout=4", "bins=8"]) == 0
    depth = Index.load(idx).depth
    assert depth == 3
    capsys.readouterr()
    assert main(["estimate", "--index", str(idx), "--levels", str(depth),
                 "--where", "d0 in [0, 7] and d1 in [0, 7]"]) == 0
    assert capsys.readouterr().out.split() == ["min", "64", "max", "64"]


def test_query_stats_line_reports_the_counters_of_execute(tmp_path, capsys):
    head = _gen(tmp_path)
    idx = tmp_path / "arr.abix"
    assert main(["build", "--data", str(head), "--index", str(idx),
                 "--params", "bins=8", "fanout=16"]) == 0
    loaded = Index.load(idx, store=load_store(head))
    root = loaded.root
    where = f"a >= {(root.amin + root.amax) / 4} and d0 in [3, 27]"
    stats = QueryStats()
    execute(loaded, parse_query_text(where, loaded.schema, loaded.attribute), stats)
    assert stats.leaves_scanned > 0 and stats.candidate_checks > 0
    capsys.readouterr()
    assert main(["query", "--index", str(idx), "--data", str(head), "--where", where]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("stats ")]
    assert lines == [f"stats nodes={stats.nodes_evaluated} fetched={stats.nodes_fetched} "
                     f"scanned={stats.leaves_scanned} candidates={stats.candidate_checks}"]


def test_query_expand_prints_cells(tmp_path, capsys):
    head = _gen(tmp_path, shape="8x8", threshold="0")
    idx = tmp_path / "arr.abix"
    main(["build", "--data", str(head), "--index", str(idx), "--params", "chunk=4x4"])
    capsys.readouterr()
    rc = main(["query", "--index", str(idx), "--data", str(head),
               "--where", "d0 = 2 and d1 in [1, 2]", "--expand"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    cells = [l for l in lines if l.count(",") == 2]
    assert len(cells) == 2
    assert cells[0].startswith("2,1,")


def _one_empty_8x8(tmp_path):
    """An 8x8 store with 63 non-empty cells in 4x4 chunks, and its index."""
    vals = np.random.default_rng(8).random((8, 8))
    vals[7, 7] = np.nan
    head = tmp_path / "arr.json"
    write_raw(head, ArraySchema((("d0", 8), ("d1", 8)), (("a", "float64"),), (4, 4)), {"a": vals})
    idx = tmp_path / "arr.abix"
    assert main(["build", "--data", str(head), "--index", str(idx), "--params", "fanout=4"]) == 0
    return vals, head, idx


def test_query_expand_prints_dimension_sets_in_row_major_order(tmp_path, capsys):
    vals, head, idx = _one_empty_8x8(tmp_path)
    capsys.readouterr()
    rc = main(["query", "--index", str(idx), "--data", str(head),
               "--where", "d1 in {6, 1, 2} and d0 in [1, 3] and a >= 0.2", "--expand"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    want = [f"{r},{c},{vals[r, c].item()!r}" for r in (1, 2, 3) for c in (1, 2, 6)
            if vals[r, c] >= 0.2]
    assert lines[0] == f"count {len(want)}"
    assert lines[4:] == want


def test_estimate_of_dimension_sets_stays_within_the_non_empty_total(tmp_path, capsys):
    vals, head, idx = _one_empty_8x8(tmp_path)
    where = "d1 in {2, 5} and d0 in {1,3,6}"
    exact = int(np.isfinite(vals[[1, 3, 6]][:, [2, 5]]).sum())
    for levels in range(3):
        capsys.readouterr()
        assert main(["estimate", "--index", str(idx), "--data", str(head),
                     "--levels", str(levels), "--where", where]) == 0
        lo, hi = (int(l.split()[1]) for l in capsys.readouterr().out.splitlines())
        assert lo <= exact <= hi <= 63
        if levels == 0:
            assert hi == 63  # the root, once


def test_fractional_dimension_bounds(tmp_path, capsys):
    head = _gen(tmp_path, shape="32x32", threshold="0")
    idx = tmp_path / "arr.abix"
    assert main(["build", "--data", str(head), "--index", str(idx)]) == 0
    for where, want in [("d0 >= 2.5", 928), ("d0 < 2.5", 96), ("d0 > 2.5", 928),
                        ("d0 <= 2.5", 96), ("d0 in {2.5, 4}", 32), ("d0 in [1.5, 3.5]", 64),
                        ("d0 = 2.5", 0), ("d0 in {2.5}", 0), ("d0 = 2", 32)]:
        capsys.readouterr()
        assert main(["query", "--index", str(idx), "--data", str(head), "--where", where]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"count {want}", where


@pytest.mark.parametrize("typ", ["float64", "int64"])
def test_query_expand_prints_plain_numbers(tmp_path, capsys, typ):
    rng = np.random.default_rng(3)
    vals = rng.random((8, 8)) if typ == "float64" else rng.integers(0, 50, (8, 8))
    sch = ArraySchema((("d0", 8), ("d1", 8)), (("a", typ),), (4, 4),
                      {"a": -1} if typ == "int64" else {})
    head = tmp_path / "arr.json"
    write_raw(head, sch, {"a": vals})
    idx = tmp_path / "arr.abix"
    main(["build", "--data", str(head), "--index", str(idx), "--params", "bins=4", "fanout=16"])
    capsys.readouterr()
    rc = main(["query", "--index", str(idx), "--data", str(head),
               "--where", "d0 = 5 and d1 = 6", "--expand"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"5,6,{vals[5, 6].item()!r}"


def test_append_then_query_equals_fresh_build(tmp_path, capsys):
    rng = np.random.default_rng(5)
    sch = ArraySchema((("d0", 8), ("d1", 8)), (("a", "float64"),), (4, 4))
    head = tmp_path / "grow.json"
    first = rng.random((8, 8))
    write_raw(head, sch, {"a": first})
    idx = tmp_path / "grow.abix"
    assert main(["build", "--data", str(head), "--index", str(idx)]) == 0

    second = rng.random((8, 8))
    write_raw(head, sch, {"a": second}, origin=(8, 0))
    assert main(["append", "--index", str(idx), "--data", str(head)]) == 0
    capsys.readouterr()

    assert main(["query", "--index", str(idx), "--data", str(head),
                 "--where", "d0 >= 6 and d0 <= 9"]) == 0
    appended_out = capsys.readouterr().out

    fresh_idx = tmp_path / "fresh.abix"
    assert main(["build", "--data", str(head), "--index", str(fresh_idx)]) == 0
    capsys.readouterr()
    assert main(["query", "--index", str(fresh_idx), "--data", str(head),
                 "--where", "d0 >= 6 and d0 <= 9"]) == 0
    fresh_out = capsys.readouterr().out
    assert appended_out.splitlines()[0] == fresh_out.splitlines()[0]
    count = int(fresh_out.splitlines()[0].split()[1])
    assert count == 4 * 8  # rows 6..9 over 8 columns, all non-empty


def test_build_and_append_print_the_bytes_they_wrote(tmp_path, capsys):
    # the size is the written file's, as the file system reports it
    rng = np.random.default_rng(6)
    sch = ArraySchema((("d0", 8), ("d1", 8)), (("a", "float64"),), (4, 4))
    head = tmp_path / "grow.json"
    write_raw(head, sch, {"a": rng.random((8, 8))})
    idx, out = tmp_path / "grow.abix", tmp_path / "grown.abix"
    capsys.readouterr()
    assert main(["build", "--data", str(head), "--index", str(idx)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {idx} ({idx.stat().st_size} bytes)\n")
    write_raw(head, sch, {"a": rng.random((8, 8))}, origin=(8, 0))
    assert main(["append", "--index", str(idx), "--data", str(head), "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {out} ({out.stat().st_size} bytes)\n")
    assert out.stat().st_size > idx.stat().st_size


def test_query_and_append_refuse_stale_data(tmp_path, capsys):
    rng = np.random.default_rng(4)
    sch = ArraySchema((("d0", 8), ("d1", 8)), (("a", "float64"),), (4, 4))
    vals = rng.random((8, 8))
    head = tmp_path / "arr.json"
    write_raw(head, sch, {"a": vals})
    idx = tmp_path / "arr.abix"
    assert main(["build", "--data", str(head), "--index", str(idx)]) == 0
    vals[5, 6] = np.nan  # chunk (1, 1) loses one cell
    stale = tmp_path / "stale.json"
    write_raw(stale, sch, {"a": vals})
    assert main(["query", "--index", str(idx), "--data", str(head)]) == 0
    capsys.readouterr()
    assert main(["query", "--index", str(idx), "--data", str(stale)]) == 2
    assert "chunk (1, 1) has 15 non-empty cells, its leaf 16" in capsys.readouterr().err
    assert main(["append", "--index", str(idx), "--data", str(stale)]) == 2


def test_query_and_estimate_refuse_data_without_the_indexed_attribute(tmp_path, capsys):
    vals = np.random.default_rng(5).random((16, 16))
    heads = {}
    for attr in ("a", "b"):
        sch = ArraySchema((("d0", 16), ("d1", 16)), ((attr, "float64"),), (4, 4))
        heads[attr] = tmp_path / f"{attr.upper()}.json"
        write_raw(heads[attr], sch, {attr: vals})
    idx = tmp_path / "A.abix"
    assert main(["build", "--data", str(heads["a"]), "--index", str(idx),
                 "--params", "fanout=4", "bins=4"]) == 0
    where = ["--where", "a in [0, 1] and d0 in [1, 6]"]
    for args in (["query", *where], ["estimate", "--levels", "2", *where],
                 ["append", "--out", str(tmp_path / "out.abix")]):
        capsys.readouterr()
        assert main([*args, "--index", str(idx), "--data", str(heads["b"])]) == 2
        err = capsys.readouterr().err
        assert "the data's attribute 'a' is missing, not the index's float64" in err
        assert "Traceback" not in err
        assert main([*args, "--index", str(idx), "--data", str(heads["a"])]) == 0


@pytest.mark.parametrize("e", [1, 64])  # the chunk holding the NaN binned, or plain
def test_build_refuses_a_nan_beside_a_declared_float_sentinel(tmp_path, capsys, e):
    vals = np.random.default_rng(6).random((8, 8))
    vals[0, 0] = -1.0  # empty
    vals[5, 6] = np.nan  # a value, since the sentinel is -1.0
    sch = ArraySchema((("d0", 8), ("d1", 8)), (("a", "float64"),), (4, 4), {"a": -1.0})
    with pytest.raises(InputError, match="cannot index NaN values"):
        build_index(ChunkStore.from_dense(sch, {"a": vals}), fanout=4, bins=4, e=e)
    head = tmp_path / "arr.json"
    write_raw(head, sch, {"a": vals})
    capsys.readouterr()
    assert main(["build", "--data", str(head), "--index", str(tmp_path / "arr.abix"),
                 "--params", "fanout=4", "bins=4", f"e={e}"]) == 1
    err = capsys.readouterr().err
    assert "cannot index NaN values" in err and "Traceback" not in err


def test_bench_writes_csv_with_agreement(tmp_path):
    head = _gen(tmp_path, shape="32x32", threshold="0.0001")
    workload = tmp_path / "queries.txt"
    workload.write_text(
        "# two smoke queries\n"
        "where a >= 0.001 and d0 in [4, 27]\n"
        "d1 <= 15\n"
        "d1 in {5, 6, 7, 9} and d0 in {1, 3} and a >= 0.001\n"
    )
    out = tmp_path / "report.csv"
    rc = main(["bench", "--data", str(head), "--workload", str(workload),
               "--out", str(out), "--repeat", "1", "--params", "bins=8", "fanout=16"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# arraybit-bench-v2"
    sizes = {l.split(",")[1]: int(l.split(",")[2]) for l in lines if l.startswith("# index_size")}
    assert sizes["arraybit"] > 0 and sizes["dimsatts"] > 0
    import csv as csvmod

    rows = list(csvmod.DictReader(l for l in lines if not l.startswith("#")))
    assert len(rows) == 9
    by_query = {}
    for row in rows:
        by_query.setdefault(row["query"], {})[row["engine"]] = int(row["result_count"])
    for counts in by_query.values():
        assert counts["arraybit"] == counts["fullscan"] == counts["dimsatts"]
    vals = load_store(head).dense("a")
    want = int((vals[[1, 3]][:, [5, 6, 7, 9]] >= 0.001).sum())
    got = by_query["d1 in {5, 6, 7, 9} and d0 in {1, 3} and a >= 0.001"]["arraybit"]
    assert want and got == want


@pytest.mark.parametrize("repeat", ["0", "-2"])
def test_bench_rejects_a_repeat_below_one(tmp_path, capsys, repeat):
    head = _gen(tmp_path, shape="16x16")
    workload = tmp_path / "queries.txt"
    workload.write_text("a >= 0.001\n")
    out = tmp_path / "report.csv"
    rc = main(["bench", "--data", str(head), "--workload", str(workload), "--out", str(out),
               "--repeat", repeat])
    assert rc == 1
    assert "--repeat" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("engines", [",", "", " , "])
def test_bench_refuses_an_engine_list_naming_no_engine(tmp_path, capsys, engines):
    # once an IndexError in the CSV writer; refused before the data is read
    workload = tmp_path / "queries.txt"
    workload.write_text("a >= 0.001\n")
    out = tmp_path / "report.csv"
    rc = main(["bench", "--data", str(tmp_path / "missing.json"), "--workload", str(workload),
               "--out", str(out), "--engines", engines])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--engines names no engine" in err and "Traceback" not in err
    assert not out.exists()


def test_exit_codes(tmp_path):
    assert main(["query"]) == 1  # missing required args
    assert main(["query", "--index", str(tmp_path / "missing.abix")]) == 2
    head = _gen(tmp_path, shape="8x8")
    idx = tmp_path / "x.abix"
    assert main(["build", "--data", str(head), "--index", str(idx)]) == 0
    assert main(["query", "--index", str(idx), "--where", "nope > 3"]) == 1
    assert main(["nonsense"]) == 1


def test_query_without_data_answers_only_from_the_tree(tmp_path, capsys):
    head = _gen(tmp_path)
    idx = tmp_path / "arr.abix"
    assert main(["build", "--data", str(head), "--index", str(idx),
                 "--params", "bins=8", "fanout=16"]) == 0
    capsys.readouterr()
    # the whole domain is the root, a complete region
    assert main(["query", "--index", str(idx), "--where", ""]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == [f"count {load_store(head).nonempty_total()}", "complete_regions 1",
                       "partial_chunks 0"]
    # a box that cuts chunks has partial leaves, which need the cells
    assert main(["query", "--index", str(idx), "--where", "d0 in [3, 27]"]) == 2
    err = capsys.readouterr().err
    assert "no attached data store" in err and "Traceback" not in err


def _files(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


def _drop(*keys):
    def change(head):
        part = head
        for key in keys[:-1]:
            part = part[key]
        del part[keys[-1]]
    return change


def _put(value, *keys):
    def change(head):
        part = head
        for key in keys[:-1]:
            part = part[key]
        part[keys[-1]] = value
    return change


@pytest.mark.parametrize("change, field", [
    (_drop("blocks", 0, "files"), "blocks[0].files"),
    (_drop("blocks", 0, "shape"), "blocks[0].shape"),
    (_drop("dims"), "'dims'"),
    (_put("d0 d1", "dims"), "'dims'"),
    (_put([20, 0], "blocks", 0, "origin"), "blocks[0]"),
    (_put([8], "chunk_shape"), "chunk_shape"),
    (_put([["a", "float32"]], "attributes"), "attribute type"),
    (_put([["d0", 32], ["d0", 32]], "dims"), "name 'd0' is repeated"),
    (_put([["a", "float64"], ["d1", "float64"]], "attributes"), "name 'd1' is repeated"),
])
def test_build_refuses_a_malformed_raw_header(tmp_path, capsys, change, field):
    head = _gen(tmp_path)
    raw = json.loads(head.read_text())
    change(raw)
    head.write_text(json.dumps(raw))
    before = _files(tmp_path)
    capsys.readouterr()
    assert main(["build", "--data", str(head), "--index", str(tmp_path / "x.abix")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("arraybit: ") and field in err and "Traceback" not in err
    assert _files(tmp_path) == before


@pytest.mark.parametrize("empty", [None, 0.5, 1e300])
def test_build_refuses_a_non_integral_int64_sentinel(tmp_path, capsys, empty):
    # a NaN (null) sentinel filled no int64 cell: all 64 cells built as
    # non-empty, after a RuntimeWarning from the cast
    head = tmp_path / "arr.json"
    vals = np.full((8, 8), -1, np.int64)
    vals[2, 3] = 5
    write_raw(head, ArraySchema((("y", 8), ("x", 8)), (("a", "int64"),), (4, 4), {"a": -1}),
              {"a": vals})
    raw = json.loads(head.read_text())
    raw["empty"]["a"] = empty
    head.write_text(json.dumps(raw))
    before = _files(tmp_path)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        rc = main(["build", "--data", str(head), "--index", str(tmp_path / "x.abix")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("arraybit: ") and "header schema" in err and "sentinel" in err
    assert "Traceback" not in err
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
    assert _files(tmp_path) == before


@pytest.mark.parametrize("param", ["e=0", "e=-3", "bins=0", "bins=abc", "fanout=x", "e=1.5",
                                   "fanout=8192", "fanout=100000000000000000000"])
def test_build_refuses_parameters_a_load_refuses(tmp_path, capsys, param):
    head = _gen(tmp_path)
    before = _files(tmp_path)
    capsys.readouterr()
    rc = main(["build", "--data", str(head), "--index", str(tmp_path / "x.abix"),
               "--params", param])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("arraybit: ") and param.split("=")[0] in err
    assert "Traceback" not in err
    assert _files(tmp_path) == before


def test_gen_onto_an_existing_header_keeps_its_data(tmp_path, capsys):
    head = _gen(tmp_path, shape="32x32")
    before = _files(tmp_path)
    capsys.readouterr()
    rc = main(["gen", "--out", str(head), "--shape", "64x64", "--gaussians", "4",
               "--seed", "3", "--chunk", "8x8"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("arraybit: ") and "origin [0, 0]" in err
    assert _files(tmp_path) == before
    assert main(["build", "--data", str(head), "--index", str(tmp_path / "x.abix")]) == 0
    # a block at a new origin is still appended
    sch = ArraySchema((("d0", 8), ("d1", 32)), (("a", "float64"),), (8, 8))
    write_raw(head, sch, {"a": np.ones((8, 32))}, origin=(32, 0))
    assert load_store(head).schema.shape == (40, 32)
    with pytest.raises(InputError, match="other dimensions or attributes"):
        write_raw(head, ArraySchema((("x", 8),), (("a", "float64"),), (8,)),
                  {"a": np.ones(8)}, origin=(40,))
