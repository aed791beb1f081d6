"""Block-wise CSV writing shared by every artifact writer. A table is written
one block of rows at a time, and each column of a block is formatted by one
list repr, which spells a float exactly as repr(float(x)) (the shortest round
trip) and an integer as str(int(x)). Writers form each block's values from
the slice of rows it covers, so no whole-column array is built."""

import numpy as np

BLOCK_ROWS = 512

# Distinct coordinates a `coords` formatter keeps; above this many it starts
# again, so its memory does not grow with the mesh.
_CACHE_SIZE = 4096


def write_table(path, header, n_rows, block, term="\r\n"):
    """Write the `header` line and `n_rows` rows, each line ending in
    `term`. `block(rows)` maps a slice of rows to the columns of those rows,
    each a list of cell strings."""
    with open(path, "w", newline="") as f:
        f.write(header + term)
        for i in range(0, n_rows, BLOCK_ROWS):
            cells = block(slice(i, min(i + BLOCK_ROWS, n_rows)))
            f.write(term.join(map(",".join, zip(*cells))) + term)


def element_rows(rows, m):
    """For a table of m rows per element, element by element: the slice `t`
    of the elements that the slice `rows` covers, and for each row its
    element's place in `t` and its own index in its element."""
    t = slice(rows.start // m, -(-rows.stop // m))
    return (t, *np.divmod(np.arange(rows.start, rows.stop) - t.start * m, m))


def ids(t):
    """Cells of the integers the slice `t` covers."""
    return numbers(np.arange(t.start, t.stop))


def numbers(values):
    """Cells of a nonempty 1D int or float array."""
    return repr(values.tolist())[1:-1].split(", ")


def coords():
    """Formatter of 1D float arrays with few distinct values, such as node
    coordinates: each distinct bit pattern (-0.0 is not 0.0) is formatted
    once and kept, sorted, for the later blocks, which look their values up
    by bisection."""
    # Never empty, so every lookup lands on a kept pattern.
    bits, text = np.zeros(1, np.int64), np.array(["0.0"], object)

    def cells(values):
        nonlocal bits, text
        b = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
        miss = bits.take(np.searchsorted(bits, b), mode="clip") != b
        if miss.any():
            new = np.unique(b[miss])
            if len(bits) + len(new) > _CACHE_SIZE:
                bits, text, new = bits[:0], text[:0], np.unique(b)
            at = np.searchsorted(bits, new)
            bits = np.insert(bits, at, new)
            text = np.insert(text, at, numbers(new.view(np.float64)))
        return text[np.searchsorted(bits, b)].tolist()
    return cells


def labels(names, codes):
    """Cells of the strings names[c] for the integer codes c."""
    return np.array(names, dtype=object)[codes].tolist()
