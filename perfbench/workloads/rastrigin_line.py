"""Line-protocol Rastrigin model for the ``mfis-lf-cmd`` workload.

Reads one whitespace-separated input point per line on stdin and writes
``10 - sum(x_i^2 - 5 cos(2 pi x_i))`` on stdout, the same surface and the
same floating-point operations as the builtin ``rastrigin``, so its
outputs equal the builtin's bit for bit.  Exits at end of input.
"""

import math
import sys

_TWO_PI = 2.0 * math.pi


def main():
    for line in sys.stdin:
        total = 0.0
        for token in line.split():
            x = float(token)
            total += x * x - 5.0 * math.cos(_TWO_PI * x)
        sys.stdout.write(repr(10.0 - total) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
