"""Deterministic random streams.

Every random quantity in this package flows from an ``RngStream``, a value
type holding a (seed, stream_id) pair.  The generator contract below is
fixed forever in this repository.  Its integer and uniform stages give the
same bits on every machine; the floating-point transforms (Box-Muller) and
the solvers built on them may move in the last bit between numpy or BLAS
builds, so experiments replay bit-identically across runs with the same
numpy and BLAS build.  The dense eigensolver of spectral initialization
moves in the last bits between BLAS thread counts, so the CLI pins
OpenBLAS to one thread; where it finds no setter for that, replay also
needs the same BLAS thread count.  The contract:

* Bit source: Philox-4x64-10 counter-based generator, keyed by the two
  64-bit words ``(seed, stream_id)``, counter starting at zero.
* Uniform doubles: top 53 bits of each 64-bit word, ``(word >> 11) * 2**-53``
  (the numpy ``Generator.random`` mapping).
* Complex standard normals: amplitude/phase Box-Muller.  One uniform pair
  (u1, u2) yields one complex sample ``sqrt(-log(1 - u1)) * exp(2j*pi*u2)``,
  whose real and imaginary parts are independent N(0, 1/2).

Distinct stream_ids key statistically independent Philox streams; parallel
trials use stream_id = trial index under a shared root seed.  Purpose-level
substreams inside one trial are derived by remixing the seed word with
splitmix64, keeping the stream_id word reserved for the trial index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GENERATOR_ID = "philox4x64-10/boxmuller-amp-phase/v1"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RngStream:
    """Value identifying one deterministic random stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= self.seed <= _MASK64 and 0 <= self.stream_id <= _MASK64):
            raise ValueError("seed and stream_id must be unsigned 64-bit integers")

    def generator(self) -> np.random.Generator:
        """Fresh numpy Generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream_id]))

    def substream(self, tag: int) -> "RngStream":
        """Derived stream for a purpose `tag`, independent of this one.

        The tag is mixed into the seed word only, so substreams of parallel
        trial streams (which differ in stream_id) stay disjoint.
        """
        if tag < 0:
            raise ValueError("tag must be nonnegative")
        mixed = _splitmix64(self.seed ^ ((tag + 1) * _GOLDEN & _MASK64))
        return RngStream(mixed, self.stream_id)


def complex_standard_normal(n: int, gen: np.random.Generator) -> np.ndarray:
    """n i.i.d. complex normals with E|xi_i|^2 = 1 (re, im ~ N(0, 1/2)).

    Uses the documented amplitude/phase Box-Muller transform so the output
    depends only on the uniform stream, not on numpy's normal sampler.
    """
    u = gen.random((2, n))
    # the formula's ufuncs in its order, computed in place
    radius = u[0]
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)
    np.negative(radius, out=radius)
    np.sqrt(radius, out=radius)
    out = np.zeros(n, dtype=np.complex128)
    np.multiply(2.0 * np.pi, u[1], out=out.imag)
    np.exp(out, out=out)
    return np.multiply(radius, out, out=out)
