"""Graph readers and writers.

Supported formats
-----------------
* **Plain edge list** (``.el`` / ``.txt``) — one ``u v`` pair per line,
  ``#``/``%`` comments. This is the format SNAP distributes its graphs
  in (the paper's amazon0601, as-skitter, cit-Patents, soc-LiveJournal1).
* **DIMACS shortest-path** (``.gr``) — ``c`` comment lines, one
  ``p sp <n> <m>`` header, ``a <u> <v> [w]`` arc lines with 1-based ids.
  The format of the paper's USA-road-d inputs; weights are ignored since
  F-Diam targets unweighted graphs.
* **METIS** (``.graph``) — header ``<n> <m> [fmt]``, then line ``i``
  lists the 1-based neighbours of vertex ``i``. The format used by the
  SuiteSparse/UoFSMC conversions (citationCiteseer, coPapersDBLP, ...).
* **Matrix Market** (``.mtx``) — the SuiteSparse collection's native
  exchange format (the paper's UoFSMC inputs are published this way):
  a ``%%MatrixMarket matrix coordinate <field> <symmetry>`` header,
  ``%`` comments, a ``rows cols entries`` size line, then 1-based
  ``i j [value]`` entries. Values are ignored (F-Diam is unweighted);
  both ``general`` and ``symmetric`` symmetry are accepted since the
  builder symmetrizes anyway.
* **NumPy archive** (``.npz``) — the package's native format; stores the
  CSR arrays directly and round-trips exactly and instantly.

All text readers are line-oriented and tolerate blank lines; malformed
content raises :class:`~repro.errors.GraphFormatError` with the line
number.
"""

from __future__ import annotations

import hashlib
import io
import os
import warnings
import zipfile
from pathlib import Path
from typing import TextIO

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.build import from_edge_arrays
from repro.graph.csr import CSRGraph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_dimacs",
    "write_dimacs",
    "read_metis",
    "write_metis",
    "read_matrix_market",
    "write_matrix_market",
    "save_npz",
    "load_npz",
    "read_graph",
    "graph_digest",
    "content_digest",
]

_COMMENT_PREFIXES = ("#", "%")


def _open_text(path_or_file: str | os.PathLike | TextIO, mode: str = "r"):
    """Return ``(file, should_close)`` for a path or open text file."""
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, mode, encoding="utf-8"), True


# ----------------------------------------------------------------------
# Plain edge list
# ----------------------------------------------------------------------
def read_edge_list(
    path_or_file: str | os.PathLike | TextIO,
    num_vertices: int | None = None,
    name: str | None = None,
) -> CSRGraph:
    """Read a whitespace-separated edge list (SNAP style).

    A SNAP-style ``# Nodes: N ...`` comment header, when present, fixes
    the vertex count so trailing isolated vertices survive round-trips;
    otherwise the count is inferred as ``max(id) + 1``.
    """
    fh, close = _open_text(path_or_file)
    try:
        srcs: list[int] = []
        dsts: list[int] = []
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith(_COMMENT_PREFIXES):
                if num_vertices is None and line.startswith("#"):
                    parts = line[1:].split()
                    if len(parts) >= 2 and parts[0] == "Nodes:":
                        try:
                            num_vertices = int(parts[1])
                        except ValueError:
                            pass
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphFormatError(
                    f"line {lineno}: expected 'u v', got {line!r}"
                )
            try:
                srcs.append(int(parts[0]))
                dsts.append(int(parts[1]))
            except ValueError as exc:
                raise GraphFormatError(
                    f"line {lineno}: non-integer vertex id in {line!r}"
                ) from exc
    finally:
        if close:
            fh.close()
    label = name or _default_name(path_or_file, "edge-list")
    return from_edge_arrays(
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        num_vertices,
        name=label,
    )


def write_edge_list(graph: CSRGraph, path_or_file: str | os.PathLike | TextIO) -> None:
    """Write one ``u v`` line per undirected edge (``u < v``)."""
    fh, close = _open_text(path_or_file, "w")
    try:
        fh.write(f"# {graph.name}\n")
        # SNAP-style header; read_edge_list uses it to preserve the
        # exact vertex count (trailing isolated vertices included).
        fh.write(f"# Nodes: {graph.num_vertices} Edges: {graph.num_edges}\n")
        n = graph.num_vertices
        row_of = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(graph.indptr)
        )
        cols = graph.indices.astype(np.int64)
        keep = row_of < cols
        for u, v in zip(row_of[keep], cols[keep]):
            fh.write(f"{u} {v}\n")
    finally:
        if close:
            fh.close()


# ----------------------------------------------------------------------
# DIMACS .gr
# ----------------------------------------------------------------------
def read_dimacs(
    path_or_file: str | os.PathLike | TextIO, name: str | None = None
) -> CSRGraph:
    """Read a DIMACS shortest-path ``.gr`` file (1-based arc lines)."""
    fh, close = _open_text(path_or_file)
    try:
        declared_n: int | None = None
        srcs: list[int] = []
        dsts: list[int] = []
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if len(parts) < 4 or parts[1] != "sp":
                    raise GraphFormatError(
                        f"line {lineno}: bad problem line {line!r}"
                    )
                declared_n = int(parts[2])
            elif parts[0] == "a":
                if len(parts) < 3:
                    raise GraphFormatError(
                        f"line {lineno}: bad arc line {line!r}"
                    )
                try:
                    u, v = int(parts[1]), int(parts[2])
                except ValueError as exc:
                    raise GraphFormatError(
                        f"line {lineno}: non-integer vertex id in {line!r}"
                    ) from exc
                if u < 1 or v < 1:
                    raise GraphFormatError(
                        f"line {lineno}: DIMACS ids are 1-based, got {line!r}"
                    )
                srcs.append(u - 1)
                dsts.append(v - 1)
            else:
                raise GraphFormatError(
                    f"line {lineno}: unknown record type {parts[0]!r}"
                )
        if declared_n is None:
            raise GraphFormatError("missing 'p sp <n> <m>' problem line")
    finally:
        if close:
            fh.close()
    label = name or _default_name(path_or_file, "dimacs")
    return from_edge_arrays(
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        declared_n,
        name=label,
    )


def write_dimacs(graph: CSRGraph, path_or_file: str | os.PathLike | TextIO) -> None:
    """Write a DIMACS ``.gr`` file (both arc directions, weight 1)."""
    fh, close = _open_text(path_or_file, "w")
    try:
        fh.write(f"c {graph.name}\n")
        fh.write(f"p sp {graph.num_vertices} {graph.num_directed_edges}\n")
        n = graph.num_vertices
        row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
        for u, v in zip(row_of, graph.indices):
            fh.write(f"a {u + 1} {v + 1} 1\n")
    finally:
        if close:
            fh.close()


# ----------------------------------------------------------------------
# METIS
# ----------------------------------------------------------------------
def read_metis(
    path_or_file: str | os.PathLike | TextIO, name: str | None = None
) -> CSRGraph:
    """Read a METIS ``.graph`` file (unweighted variant only)."""
    fh, close = _open_text(path_or_file)
    try:
        # Blank lines are significant in METIS (an isolated vertex's
        # adjacency line is empty), so only '%' comment lines are
        # filtered out; a leading blank line before the header is not
        # valid METIS and is treated as missing-header below.
        lines = [
            (i, ln.strip())
            for i, ln in enumerate(fh, start=1)
            if not ln.lstrip().startswith("%")
        ]
    finally:
        if close:
            fh.close()
    while lines and not lines[0][1]:
        lines.pop(0)
    if not lines:
        raise GraphFormatError("empty METIS file")
    header_no, header = lines[0]
    parts = header.split()
    if len(parts) < 2:
        raise GraphFormatError(f"line {header_no}: bad METIS header {header!r}")
    try:
        n = int(parts[0])
    except ValueError as exc:
        raise GraphFormatError(f"line {header_no}: bad vertex count") from exc
    if len(parts) >= 3 and parts[2] not in ("0", "00", "000"):
        raise GraphFormatError(
            f"line {header_no}: weighted METIS format {parts[2]!r} not supported"
        )
    body = lines[1:]
    if len(body) > n:
        raise GraphFormatError(
            f"METIS file has {len(body)} adjacency lines for {n} vertices"
        )
    srcs: list[int] = []
    dsts: list[int] = []
    for row, (lineno, line) in enumerate(body):
        for token in line.split():
            try:
                v = int(token)
            except ValueError as exc:
                raise GraphFormatError(
                    f"line {lineno}: non-integer neighbour {token!r}"
                ) from exc
            if not 1 <= v <= n:
                raise GraphFormatError(
                    f"line {lineno}: neighbour {v} out of range 1..{n}"
                )
            srcs.append(row)
            dsts.append(v - 1)
    label = name or _default_name(path_or_file, "metis")
    return from_edge_arrays(
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        n,
        name=label,
    )


def write_metis(graph: CSRGraph, path_or_file: str | os.PathLike | TextIO) -> None:
    """Write a METIS ``.graph`` file (1-based neighbour lists)."""
    fh, close = _open_text(path_or_file, "w")
    try:
        fh.write(f"{graph.num_vertices} {graph.num_edges}\n")
        for v in range(graph.num_vertices):
            fh.write(" ".join(str(int(w) + 1) for w in graph.neighbors(v)) + "\n")
    finally:
        if close:
            fh.close()


# ----------------------------------------------------------------------
# Matrix Market
# ----------------------------------------------------------------------
def read_matrix_market(
    path_or_file: str | os.PathLike | TextIO, name: str | None = None
) -> CSRGraph:
    """Read a Matrix Market ``.mtx`` coordinate file (SuiteSparse style)."""
    fh, close = _open_text(path_or_file)
    try:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise GraphFormatError("missing '%%MatrixMarket' banner")
        parts = header.split()
        if len(parts) < 5 or parts[1] != "matrix" or parts[2] != "coordinate":
            raise GraphFormatError(
                f"unsupported MatrixMarket header {header.strip()!r} "
                "(only 'matrix coordinate' is supported)"
            )
        symmetry = parts[4].lower()
        if symmetry not in ("general", "symmetric"):
            raise GraphFormatError(
                f"unsupported MatrixMarket symmetry {symmetry!r}"
            )
        size_line = None
        lineno = 1
        for line in fh:
            lineno += 1
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            size_line = stripped
            break
        if size_line is None:
            raise GraphFormatError("missing MatrixMarket size line")
        size_parts = size_line.split()
        if len(size_parts) < 3:
            raise GraphFormatError(f"line {lineno}: bad size line {size_line!r}")
        try:
            rows, cols, entries = (int(p) for p in size_parts[:3])
        except ValueError as exc:
            raise GraphFormatError(
                f"line {lineno}: non-integer size in {size_line!r}"
            ) from exc
        if rows != cols:
            raise GraphFormatError(
                f"adjacency matrix must be square, got {rows}x{cols}"
            )
        srcs: list[int] = []
        dsts: list[int] = []
        for line in fh:
            lineno += 1
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            entry = stripped.split()
            if len(entry) < 2:
                raise GraphFormatError(
                    f"line {lineno}: bad entry {stripped!r}"
                )
            try:
                i, j = int(entry[0]), int(entry[1])
            except ValueError as exc:
                raise GraphFormatError(
                    f"line {lineno}: non-integer index in {stripped!r}"
                ) from exc
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise GraphFormatError(
                    f"line {lineno}: index out of range in {stripped!r}"
                )
            srcs.append(i - 1)
            dsts.append(j - 1)
        if len(srcs) != entries:
            raise GraphFormatError(
                f"expected {entries} entries, found {len(srcs)}"
            )
    finally:
        if close:
            fh.close()
    label = name or _default_name(path_or_file, "matrix-market")
    return from_edge_arrays(
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        rows,
        name=label,
    )


def write_matrix_market(
    graph: CSRGraph, path_or_file: str | os.PathLike | TextIO
) -> None:
    """Write a Matrix Market ``pattern symmetric`` coordinate file."""
    fh, close = _open_text(path_or_file, "w")
    try:
        fh.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
        fh.write(f"% {graph.name}\n")
        n = graph.num_vertices
        row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
        cols = graph.indices.astype(np.int64)
        # Symmetric storage: lower triangle only (row >= col).
        keep = row_of >= cols
        fh.write(f"{n} {n} {int(keep.sum())}\n")
        for i, j in zip(row_of[keep], cols[keep]):
            fh.write(f"{i + 1} {j + 1}\n")
    finally:
        if close:
            fh.close()


# ----------------------------------------------------------------------
# Native .npz
# ----------------------------------------------------------------------
def save_npz(
    graph: CSRGraph, path: str | os.PathLike, *, compressed: bool = True
) -> None:
    """Save the CSR arrays to an ``.npz`` archive.

    ``compressed=False`` writes the members stored (uncompressed),
    which is what makes :func:`load_npz`'s ``mmap=True`` able to map
    the arrays straight off disk.
    """
    saver = np.savez_compressed if compressed else np.savez
    saver(
        path,
        indptr=graph.indptr,
        indices=graph.indices,
        name=np.array(graph.name),
    )


def _mmap_npz_arrays(path: str | os.PathLike) -> dict[str, np.ndarray] | None:
    """Memory-map the stored ``.npy`` members of an ``.npz`` archive.

    ``np.load(..., mmap_mode=...)`` silently ignores the mmap request
    for ``.npz`` archives, so the zip member offsets are resolved by
    hand: each *stored* (uncompressed) member is a plain ``.npy``
    stream at a known byte offset, mappable with :class:`numpy.memmap`.
    Returns ``None`` when any member is deflated (a compressed archive
    cannot be mapped) so the caller can fall back to a normal load.
    """
    arrays: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as zf, open(path, "rb") as fh:
        for info in zf.infolist():
            if not info.filename.endswith(".npy"):
                continue
            if info.compress_type != zipfile.ZIP_STORED:
                return None
            # Local file header: 30 fixed bytes, then the name and the
            # extra field; the member's data (the .npy stream) follows.
            fh.seek(info.header_offset + 26)
            name_len = int.from_bytes(fh.read(2), "little")
            extra_len = int.from_bytes(fh.read(2), "little")
            data_start = info.header_offset + 30 + name_len + extra_len
            fh.seek(data_start)
            version = np.lib.format.read_magic(fh)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            else:
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
            if dtype.hasobject:
                raise GraphFormatError(f"{path}: object arrays not supported")
            key = info.filename[: -len(".npy")]
            arrays[key] = np.memmap(
                path,
                dtype=dtype,
                mode="r",
                offset=fh.tell(),
                shape=shape,
                order="F" if fortran else "C",
            )
    return arrays


def load_npz(path: str | os.PathLike, *, mmap: bool = False) -> CSRGraph:
    """Load a graph previously written by :func:`save_npz`.

    With ``mmap=True`` the CSR arrays are memory-mapped read-only
    straight from the archive (no copy, pages fault in on first touch)
    — requires the archive to be stored uncompressed
    (``save_npz(..., compressed=False)``). A compressed archive falls
    back to the normal in-memory load with a warning.
    """
    if mmap:
        try:
            arrays = _mmap_npz_arrays(path)
        except (zipfile.BadZipFile, OSError, ValueError) as exc:
            raise GraphFormatError(f"{path}: not a loadable .npz ({exc})") from exc
        if arrays is None:
            warnings.warn(
                f"{path}: archive is compressed; cannot memory-map, "
                "loading into memory instead "
                "(write it with save_npz(..., compressed=False) to mmap)",
                stacklevel=2,
            )
        else:
            try:
                indptr = arrays["indptr"]
                indices = arrays["indices"]
            except KeyError as exc:
                raise GraphFormatError(
                    f"{path}: missing CSR array {exc.args[0]!r}"
                ) from exc
            if "name" in arrays:
                name = str(np.asarray(arrays["name"])[()])
            else:
                name = Path(path).stem
            return CSRGraph(indptr, indices, name=name)
    with np.load(path, allow_pickle=False) as data:
        try:
            indptr = data["indptr"]
            indices = data["indices"]
        except KeyError as exc:
            raise GraphFormatError(
                f"{path}: missing CSR array {exc.args[0]!r}"
            ) from exc
        name = str(data["name"]) if "name" in data else Path(path).stem
    return CSRGraph(indptr, indices, name=name)


def content_digest(*arrays: np.ndarray) -> str:
    """Hex SHA-256 over the dtype, shape, and bytes of some arrays.

    Storage-independent: this is what the ``.scsr`` header records so a
    decoded store can be verified against the arrays it claims to hold,
    whatever container they travelled in.
    """
    h = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def graph_digest(graph: CSRGraph, *, epoch: int | None = None) -> str:
    """Cache-key digest of a graph (hex SHA-256).

    The key of the warm-start cache (:mod:`repro.cache`): two graphs
    share a digest iff their ``indptr``/``indices`` arrays are byte-
    identical (dtype and shape included, so a permuted, perturbed, or
    differently-typed graph never collides) *and* they came through the
    same storage format (``CSRGraph.storage`` — an in-memory/``.npz``
    graph and its ``.scsr`` twin must not share warm-start sidecars,
    since the sidecar records which backing produced the certified
    artifacts). The name is deliberately excluded — renaming a graph
    does not change any distance.

    ``epoch`` makes the digest mutation-aware for evolving graphs
    (:class:`repro.dynamic.DynamicGraph`): folding the epoch into the
    key guarantees a sidecar written against one epoch is unreachable
    from any other, even when an insert-then-delete sequence restores
    byte-identical arrays. ``None`` (the static default) preserves the
    historical digests exactly.
    """
    h = hashlib.sha256()
    h.update(f"storage:{graph.storage}\n".encode())
    if epoch is not None:
        h.update(f"epoch:{int(epoch)}\n".encode())
    h.update(content_digest(graph.indptr, graph.indices).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Format dispatch
# ----------------------------------------------------------------------
_READERS = {
    ".el": read_edge_list,
    ".txt": read_edge_list,
    ".edges": read_edge_list,
    ".gr": read_dimacs,
    ".graph": read_metis,
    ".metis": read_metis,
    ".mtx": read_matrix_market,
}


def read_graph(
    path: str | os.PathLike, name: str | None = None, *, mmap: bool = False
) -> CSRGraph:
    """Read a graph, choosing the format from the file extension.

    ``mmap`` applies to ``.npz`` only, whose CSR arrays it memory-maps
    (see :func:`load_npz`). A ``.scsr`` image is always decoded in
    full (see :func:`repro.store.load_scsr`), and text formats always
    parse into memory.
    """
    suffix = Path(path).suffix.lower()
    if suffix == ".npz":
        return load_npz(path, mmap=mmap)
    if suffix == ".scsr":
        # Call-time import: the store package sits above graph/io.
        from repro.store import load_scsr

        return load_scsr(path)
    reader = _READERS.get(suffix)
    if reader is None:
        raise GraphFormatError(
            f"unknown graph file extension {suffix!r} "
            f"(known: {sorted(_READERS) + ['.npz', '.scsr']})"
        )
    return reader(path, name=name)


def _default_name(path_or_file, fallback: str) -> str:
    if isinstance(path_or_file, (str, os.PathLike)):
        return Path(path_or_file).stem
    if isinstance(path_or_file, io.TextIOBase):
        filename = getattr(path_or_file, "name", None)
        if isinstance(filename, str):
            return Path(filename).stem
    return fallback
