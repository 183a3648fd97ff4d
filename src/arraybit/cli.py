"""Command line surface: gen, build, query, estimate, append and bench.

Query text is a conjunction of constraints over the attribute and named
dimensions:

    where a >= 30 and d0 in [50, 60] and d1 < 14 and a in {1.5, 2.5}

Supported forms per term: `name op number` with op in  <=, >=, <, >, =, ==;
`name in [lo, hi]` for inclusive ranges; `name in {v1, v2, ...}` for
membership.  Bounds are inclusive; strict < and > are converted at the
parser by one float ulp.  Dimension bounds round inwards to whole indices
and a dimension set keeps its integral members (`query.normalize`).  A
query, dimension sets included, is answered by one descent of the index,
and `query --expand` prints the matching cells in global row-major order.

Exit codes: 0 ok, 1 usage error, 2 data error, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import baseline, datagen
from .chunkstore import ArraySchema, ChunkStore, QueryStats, load_store, read_header
from .errors import ArrayBitError, DataError, InputError, InternalError
from .hierindex import Index, build_index
from .query import RawQuery, estimate, execute, normalize

_TERM_RE = re.compile(
    r"^\s*(\w+)\s*(<=|>=|==|=|<|>|in)\s*(.+?)\s*$", re.IGNORECASE
)
_BENCH_CSV_VERSION = "arraybit-bench-v2"


def parse_query_text(text: str, schema: ArraySchema, attribute: str) -> RawQuery:
    """Parse the CLI query grammar into an unnormalized query."""
    raw = RawQuery()
    text = text.strip()
    if text.lower().startswith("where "):
        text = text[6:]
    if not text:
        return raw
    dim_names = set(schema.dim_names)
    for term in re.split(r"\s+and\s+", text, flags=re.IGNORECASE):
        m = _TERM_RE.match(term)
        if not m:
            raise InputError(f"cannot parse constraint {term!r}")
        name, op, rhs = m.group(1), m.group(2).lower(), m.group(3)
        is_dim = name in dim_names
        if not is_dim and name != attribute:
            raise InputError(f"unknown name {name!r} (not a dimension or the attribute)")
        if op == "in":
            values = _parse_set_or_range(rhs)
            if isinstance(values, tuple):  # [lo, hi]
                lo, hi = values
                _narrow(raw, name, is_dim, lo, hi)
            elif is_dim:
                raw.dim_values.setdefault(name, set()).update(values)
            else:
                had = set(raw.values or ())
                raw.values = tuple(sorted(had | set(values)))
            continue
        try:
            num = float(rhs)
        except ValueError:
            raise InputError(f"expected a number in {term!r}") from None
        if op in ("=", "=="):
            _narrow(raw, name, is_dim, num, num)
        elif op == "<=":
            _narrow(raw, name, is_dim, None, num)
        elif op == ">=":
            _narrow(raw, name, is_dim, num, None)
        elif op == "<":
            _narrow(raw, name, is_dim, None, np.nextafter(num, -np.inf))
        else:
            _narrow(raw, name, is_dim, np.nextafter(num, np.inf), None)
    return raw


def _parse_set_or_range(rhs: str):
    rhs = rhs.strip()
    if rhs.startswith("[") and rhs.endswith("]"):
        parts = [p for p in rhs[1:-1].split(",") if p.strip()]
        if len(parts) != 2:
            raise InputError(f"range needs two bounds: {rhs!r}")
        return float(parts[0]), float(parts[1])
    if rhs.startswith("{") and rhs.endswith("}"):
        parts = [p for p in rhs[1:-1].split(",") if p.strip()]
        if not parts:
            raise InputError("empty membership set")
        return [float(p) for p in parts]
    raise InputError(f"expected [lo, hi] or {{v1, v2, ...}}: {rhs!r}")


def _narrow(raw: RawQuery, name: str, is_dim: bool, lo, hi) -> None:
    cur_lo, cur_hi = raw.dims.get(name, (None, None)) if is_dim else (raw.attr_lo, raw.attr_hi)
    lo = cur_lo if lo is None else lo if cur_lo is None else max(lo, cur_lo)
    hi = cur_hi if hi is None else hi if cur_hi is None else min(hi, cur_hi)
    if is_dim:
        raw.dims[name] = (lo, hi)
    else:
        raw.attr_lo, raw.attr_hi = lo, hi


def _parse_shape(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.lower().replace("x", ",").split(",") if p)
    except ValueError:
        raise InputError(f"cannot parse shape {text!r}") from None


def _parse_params(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise InputError(f"--params expects key=value, got {pair!r}")
        k, v = pair.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _build_kwargs(params: dict) -> dict:
    unknown = set(params) - {"bins", "fanout", "e", "chunk"}
    if unknown:
        raise InputError(f"unknown --params keys: {sorted(unknown)}")
    kw = {}
    for key in ("bins", "fanout", "e"):
        if key in params:
            try:
                kw[key] = int(params[key])
            except ValueError:
                raise InputError(
                    f"--params {key} expects an integer, got {params[key]!r}") from None
    return kw


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    spec = datagen.SumGaussSpec(
        shape=_parse_shape(args.shape),
        gaussians=args.gaussians,
        seed=args.seed,
        threshold=args.threshold,
        cov_min=args.cov_min,
        cov_max=args.cov_max,
    )
    chunk = _parse_shape(args.chunk) if args.chunk else None
    datagen.generate(spec, args.out, chunk_shape=chunk)
    print(f"wrote {args.out}")
    return 0


def _cmd_build(args) -> int:
    params = _parse_params(args.params)
    chunk = _parse_shape(params["chunk"]) if "chunk" in params else None
    store = load_store(args.data, chunk_shape=chunk)
    idx = build_index(store, attribute=args.attribute, **_build_kwargs(params))
    idx.save(args.index)
    print(
        f"indexed {store.nonempty_total()} cells in {len(store.chunks)} chunks, "
        f"{idx.node_count()} nodes, depth {idx.depth}; wrote {args.index}"
    )
    return 0


def _load_for_query(args) -> Index:
    idx = Index.load(args.index)
    if args.data:
        idx.attach(load_store(args.data, chunk_shape=idx.schema.chunk_shape))
    return idx


def _cmd_query(args) -> int:
    idx = _load_for_query(args)
    stats = QueryStats()
    rs = execute(idx, parse_query_text(args.where, idx.schema, idx.attribute), stats)
    print(f"count {rs.count}")
    print(f"complete_regions {len(rs.complete)}")
    print(f"partial_chunks {len(rs.partial)}")
    print(
        f"stats nodes={stats.nodes_evaluated} fetched={stats.nodes_fetched} "
        f"scanned={stats.leaves_scanned} candidates={stats.candidate_checks}"
    )
    if args.expand:
        if idx.store is None:
            raise DataError("--expand needs --data to read cell values")
        attr = idx.store.dense(idx.attribute).reshape(-1)
        ids = rs.cell_ids(idx.store)
        coords = np.stack(np.unravel_index(ids, idx.schema.shape), axis=1)
        for row, cid in zip(coords, ids):
            print(",".join(map(str, row)) + f",{attr[cid].item()!r}")
    return 0


def _cmd_estimate(args) -> int:
    idx = _load_for_query(args)
    lo, hi = estimate(idx, parse_query_text(args.where, idx.schema, idx.attribute), args.levels)
    print(f"min {lo}")
    print(f"max {hi}")
    return 0


def _cmd_append(args) -> int:
    idx = Index.load(args.index)
    store = load_store(args.data, chunk_shape=idx.schema.chunk_shape)
    existing = set(idx.leaf_coords())
    missing = existing - set(store.chunks)
    if missing:
        raise DataError(f"data no longer covers indexed chunks: {sorted(missing)[:3]}")
    additions = ChunkStore(
        store.schema, {c: ch for c, ch in store.chunks.items() if c not in existing}
    )
    idx.attach(ChunkStore(idx.schema, {c: store.chunks[c] for c in existing}))
    idx.append(additions)
    out = args.out or args.index
    idx.save(out)
    print(f"appended {len(additions.chunks)} chunks; index now {idx.node_count()} nodes; wrote {out}")
    return 0


def _cmd_bench(args) -> int:
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    unknown = set(engines) - {"arraybit", "dimsatts", "fullscan"}
    if unknown:
        raise InputError(f"unknown engines: {sorted(unknown)}")
    if args.repeat < 1:
        raise InputError(f"--repeat must be at least 1, got {args.repeat}")
    params = _parse_params(args.params)
    chunk = _parse_shape(params["chunk"]) if "chunk" in params else None
    store = load_store(args.data, chunk_shape=chunk)
    total = store.nonempty_total()
    queries = []
    for line in Path(args.workload).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            queries.append(line)
    if not queries:
        raise DataError(f"workload {args.workload} has no queries")

    attribute = args.attribute or store.schema.attributes[0][0]
    sizes = {}
    idx = dims = None
    if "arraybit" in engines:
        idx = build_index(store, attribute=attribute, **_build_kwargs(params))
        sizes["arraybit"] = len(idx.serialize())
    if "dimsatts" in engines:
        dims = baseline.DimsAttsIndex(store, attribute)
        sizes["dimsatts"] = dims.size_bytes()
    if "fullscan" in engines:
        sizes["fullscan"] = 0

    rows = []
    for text in queries:
        q = normalize(parse_query_text(text, store.schema, attribute), store.schema)
        for engine in engines:
            start = time.perf_counter()
            for _ in range(args.repeat):
                stats = QueryStats()
                if engine == "arraybit":
                    count = execute(idx, q, stats).count
                elif engine == "dimsatts":
                    count = dims.query(q, stats).size
                else:
                    count = baseline.full_scan(store, attribute, q).size
            elapsed = (time.perf_counter() - start) / args.repeat
            rows.append(
                {
                    "engine": engine,
                    "query": text,
                    "hit_ratio": count / total if total else 0.0,
                    "wall_time_s": f"{elapsed:.6f}",
                    "nodes_fetched": stats.nodes_fetched,
                    "bitmaps_fetched": stats.bitmap_fetches + stats.candidate_bitmap_fetches,
                    "candidate_checks": stats.candidate_checks,
                    "result_count": count,
                }
            )

    with open(args.out, "w", newline="") as fh:
        fh.write(f"# {_BENCH_CSV_VERSION}\n")
        for engine, size in sizes.items():
            fh.write(f"# index_size_bytes,{engine},{size}\n")
        fh.write(f"# total_nonempty,{total}\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _make_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="arraybit", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic array")
    g.add_argument("--out", required=True, help="header path to write")
    g.add_argument("--shape", required=True, help="extents, e.g. 1024x1024")
    g.add_argument("--gaussians", type=int, default=8)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--threshold", type=float, default=1e-4)
    g.add_argument("--cov-min", type=float, default=0.5)
    g.add_argument("--cov-max", type=float, default=None)
    g.add_argument("--chunk", default=None, help="chunk shape, e.g. 64x64")
    g.set_defaults(func=_cmd_gen)

    b = sub.add_parser("build", help="ingest data and build an index")
    b.add_argument("--data", required=True)
    b.add_argument("--index", required=True)
    b.add_argument("--attribute", default=None)
    b.add_argument("--params", nargs="*", metavar="KEY=VALUE",
                   help="bins, fanout, e, chunk")
    b.set_defaults(func=_cmd_build)

    q = sub.add_parser("query", help="run a query against an index")
    q.add_argument("--index", required=True)
    q.add_argument("--data", default=None)
    q.add_argument("--where", default="")
    q.add_argument("--expand", action="store_true", help="print matching cells")
    q.set_defaults(func=_cmd_query)

    e = sub.add_parser("estimate", help="bound the result count")
    e.add_argument("--index", required=True)
    e.add_argument("--data", default=None)
    e.add_argument("--where", default="")
    e.add_argument("--levels", type=int, default=0)
    e.set_defaults(func=_cmd_estimate)

    a = sub.add_parser("append", help="extend an index with new blocks")
    a.add_argument("--index", required=True)
    a.add_argument("--data", required=True)
    a.add_argument("--out", default=None)
    a.set_defaults(func=_cmd_append)

    n = sub.add_parser("bench", help="compare engines over a workload file")
    n.add_argument("--data", required=True)
    n.add_argument("--workload", required=True)
    n.add_argument("--out", required=True)
    n.add_argument("--attribute", default=None)
    n.add_argument("--engines", default="arraybit,dimsatts,fullscan")
    n.add_argument("--repeat", type=int, default=3)
    n.add_argument("--params", nargs="*", metavar="KEY=VALUE")
    n.set_defaults(func=_cmd_bench)
    return p


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except InputError as exc:
        print(f"arraybit: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"arraybit: {exc}", file=sys.stderr)
        return 2
    except (InternalError, ArrayBitError) as exc:
        print(f"arraybit: internal error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"arraybit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
