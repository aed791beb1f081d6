"""Block-wise CSV writing shared by every artifact writer. Each column of a
block of rows is formatted by one list repr, which spells a float exactly as
repr(float(x)) (the shortest round trip) and an integer as str(int(x))."""

import numpy as np

BLOCK_ROWS = 512


def write_table(path, header, n_rows, columns, term="\r\n"):
    """Write the `header` line and `n_rows` rows, each line ending in
    `term`. A column maps a slice of rows to the cell strings of those rows."""
    with open(path, "w", newline="") as f:
        f.write(header + term)
        for i in range(0, n_rows, BLOCK_ROWS):
            cells = [column(slice(i, i + BLOCK_ROWS)) for column in columns]
            f.write(term.join(map(",".join, zip(*cells))) + term)


def numbers(values):
    """Column of a 1D int or float array."""
    return lambda rows: repr(values[rows].tolist())[1:-1].split(", ")


def coords(values):
    """Column of a 1D float array with few distinct values, such as node
    coordinates: each distinct bit pattern (-0.0 is not 0.0) is formatted
    once, and rows index those strings."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, index = np.unique(bits, return_inverse=True)
    text = np.array(numbers(distinct.view(np.float64))(slice(None)), object)
    return lambda rows: text[index[rows]].tolist()


def labels(names, codes):
    """Column of the strings names[c] for the integer codes c."""
    names = np.array(names, dtype=object)
    return lambda rows: names[codes[rows]].tolist()
