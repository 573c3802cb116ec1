import json

import numpy as np


def write_config(config, path):
    """Write a study config as its JSON file: sorted keys, indent 2, LF."""
    with open(path, "w", newline="\n") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _iterated_central(func, alpha, x, step):
    alpha = tuple(int(a) for a in alpha)
    x = np.asarray(x, dtype=float)
    if sum(alpha) == 0:
        return float(func(x))
    axis = next(i for i, a in enumerate(alpha) if a)
    lowered = list(alpha)
    lowered[axis] -= 1
    offset = np.zeros_like(x)
    offset[axis] = step
    return (
        _iterated_central(func, lowered, x + offset, step)
        - _iterated_central(func, lowered, x - offset, step)
    ) / (2.0 * step)


def central_difference(func, alpha, x, step=None):
    """Central finite difference of a scalar function of a point.

    Independent oracle for the analytic derivative paths: the two-point
    central stencil applied recursively one axis at a time, with the step
    following the fractional-power rule on machine epsilon for the total
    order, and one Richardson extrapolation to cancel the leading
    truncation term.
    """
    total = sum(int(a) for a in alpha)
    if total == 0:
        return float(func(np.asarray(x, dtype=float)))
    if step is None:
        step = float(np.finfo(float).eps ** (1.0 / (4 + total)))
    coarse = _iterated_central(func, alpha, x, step)
    fine = _iterated_central(func, alpha, x, step / 2.0)
    return (4.0 * fine - coarse) / 3.0


def multi_indices_up_to(dim, max_total):
    """All multi-indices of the given dimension with 1 <= total <= max_total."""
    out = []

    def fill(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining + 1):
            fill(prefix + [e], remaining - e, slots - 1)

    for total in range(1, max_total + 1):
        fill([], total, dim)
    return out


def order_lists(dim):
    """Lists of derivative orders for multi-order evaluation: the value
    alone, first orders, the value and first orders, first and second
    orders, mixed orders with the value, a repeated order and the empty
    list."""
    zero = (0,) * dim
    first = multi_indices_up_to(dim, 1)
    second = [a for a in multi_indices_up_to(dim, 2) if sum(a) == 2]
    return [
        [zero],
        first,
        [zero] + first,
        first + second,
        [second[-1], zero, first[0], second[0]],
        [first[0], first[0], zero, zero],
        [],
    ]
