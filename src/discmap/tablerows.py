"""Rows of the CSV node tables, formatted with the standard library alone.

``format_block`` is the one formatter of ``field.csv`` and ``map.csv``:
``dirichlet`` calls it in process, and ``discmap solve`` also runs this
file as a script in helper interpreters (``python -I -S tablerows.py``)
that format later ranges of node blocks on other CPUs.  The script
imports nothing but ``sys``, so a helper starts without loading numpy.

``command`` and ``helper_input`` give a helper its arguments and its
stdin, and ``main`` reads them; the format is private to this file.
"""

from __future__ import annotations

import sys


def lattice_labels(first: int, coords) -> dict:
    """The ``repr`` of each lattice-line coordinate, keyed by the line's
    lattice index, from ``first`` on."""
    return dict(zip(range(first, first + len(coords)), map(repr, coords)))


def _csv_rows(fields: list) -> str:
    """CSV lines whose row i is ``fields[0][i],fields[1][i],...``, assembled
    by one join over an interleaved list of fields and separators."""
    width, rows = len(fields), len(fields[0])
    parts: list = [None] * (2 * width * rows)
    parts[1::2] = ([","] * (width - 1) + ["\n"]) * rows
    for j, field in enumerate(fields):
        parts[2 * j :: 2 * width] = field
    return "".join(parts)


def format_block(xs: dict, ys: dict, nodes, values, widths) -> tuple:
    """One block of rows per table, as strings.  Row i sits at lattice
    indices ``nodes[2i], nodes[2i + 1]``, looked up in ``xs`` and ``ys``
    (see ``lattice_labels``).  ``values`` yields pairs (v, w): w columns
    interleaved in the flat float sequence v, each float formatted once,
    as its ``repr``.  Table j takes x, y and the first ``widths[j]`` value
    columns."""
    fields = [list(map(xs.__getitem__, nodes[0::2])), list(map(ys.__getitem__, nodes[1::2]))]
    fields += (list(map(repr, v[j::w])) for v, w in values for j in range(w))
    return tuple(_csv_rows(fields[: 2 + k]) for k in widths)


def command(widths, fds) -> list:
    """The argv of a helper interpreter that runs this file and appends
    table j, of ``widths[j]`` value columns, to the file descriptor
    ``fds[j]``."""
    return [sys.executable, "-I", "-S", __file__, *(f"{k}:{fd}" for k, fd in zip(widths, fds))]


def helper_input(lines, nodes, columns, blocks: range, block: int):
    """The stdin of a helper that formats the node blocks ``blocks``, of
    ``block`` rows each, as lists of byte buffers: one for the lattice lines,
    then one per block.  ``lines`` holds per axis (lowest lattice index,
    float64 coordinates), ``nodes`` the (V, 2) int64 lattice indices, and
    ``columns`` (V, w) float64 arrays, all C-contiguous; a block's buffers
    are slices of them, so no block is copied.  All numbers are in native
    byte order."""
    (x0, xline), (y0, yline) = lines
    widths = [c.shape[1] for c in columns]
    xbytes, ybytes, *arrays = (memoryview(a).cast("B") for a in (xline, yline, nodes, *columns))
    yield [_int64s(x0, len(xline), y0, len(yline), len(columns), *widths), xbytes, ybytes]
    rows = len(nodes)
    for k in blocks:
        start, stop = k * block, min((k + 1) * block, rows)
        part = [a[start * len(a) // rows : stop * len(a) // rows] for a in arrays]
        yield [_int64s(stop - start), *part]


def _int64s(*values: int) -> bytes:
    return b"".join(v.to_bytes(8, sys.byteorder, signed=True) for v in values)


def _read(stream, typecode: str, count: int) -> memoryview:
    size = 8 * count
    data = stream.read(size)
    if len(data) != size:
        raise EOFError(f"node table input ends {size - len(data)} bytes early")
    return memoryview(data).cast(typecode)


def main(args: list) -> None:
    widths, fds = zip(*(map(int, arg.split(":")) for arg in args))
    stdin = sys.stdin.buffer
    x0, nx, y0, ny, ncolumns = _read(stdin, "q", 5)
    columns = _read(stdin, "q", ncolumns).tolist()
    xs = lattice_labels(x0, _read(stdin, "d", nx).tolist())
    ys = lattice_labels(y0, _read(stdin, "d", ny).tolist())
    outs = [open(fd, "w", encoding="utf-8") for fd in fds]
    while head := stdin.read(8):
        (rows,) = memoryview(head).cast("q")
        nodes = _read(stdin, "q", 2 * rows)
        values = ((_read(stdin, "d", rows * w), w) for w in columns)
        for fh, text in zip(outs, format_block(xs, ys, nodes, values, widths)):
            fh.write(text)
    for fh in outs:
        fh.close()


if __name__ == "__main__":
    main(sys.argv[1:])
