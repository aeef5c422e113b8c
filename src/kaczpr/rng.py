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

Philox is counter-based, so a slice of any draw can be read at its own
stream position without drawing what comes before it (``_positioned``),
and gives the bits that drawing the whole stream in order gives.  The
contract above does not change: code that reads slices this way, such as
``complex_standard_normal`` reading u2 beside u1 or the Monte Carlo checks
spreading a batch over threads, reproduces the serial stream word for word.
Every complex normal is drawn by one routine, ``_draw_normals``, and every
Box-Muller radius sqrt(-log(1 - u1)) by ``_radius``, which ``_draw_normals``
calls and the Monte Carlo checks call alone: their integrands need only the
radii and one relative phase of the normals they would draw.
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


# Complex normals drawn and transformed per slice, so that their uniforms
# stay in cache instead of forming whole-length arrays.
_SLICE = 1 << 12
# 64-bit words in one Philox block: the output of one counter value
_BLOCK_WORDS = 4


def _positioned(state: dict, words: int) -> np.random.Generator:
    """A new Generator `words` uniform draws past the Philox `state`.

    The state is a ``bit_generator.state`` dict and stays untouched.  The
    words left in its buffer come first; past them, ``advance`` moves in
    whole blocks and discards the buffer, so the words short of a block
    are drawn and dropped.
    """
    bitgen = np.random.Philox(key=state["state"]["key"])
    left = _BLOCK_WORDS - state["buffer_pos"]
    if words < left:
        bitgen.state = {**state, "buffer_pos": state["buffer_pos"] + words}
    else:
        bitgen.state = state
        blocks, skip = divmod(words - left, _BLOCK_WORDS)
        bitgen.advance(blocks)
        bitgen.random_raw(skip)
    return np.random.Generator(bitgen)


def _radius(u1, out: np.ndarray) -> None:
    """len(out) Box-Muller radii sqrt(-log(1 - u1)) into `out`, from as many uniforms of u1.

    u1 is a generator; the formula's ufuncs run in its order, in place.
    """
    u1.random(out=out)
    np.negative(out, out=out)
    np.log1p(out, out=out)
    np.negative(out, out=out)
    np.sqrt(out, out=out)


def _draw_normals(u1, u2, out: np.ndarray, radius: np.ndarray, phase: np.ndarray) -> None:
    """len(out) complex normals into `out`, from as many uniforms of generator u1 and of u2.

    The radii of u1 go into the scratch array `radius` (``_radius``) and the
    uniforms u2 into `phase`, both of len(out); then the phase's ufuncs in
    the formula's order, in place.  u1 is read before u2, which may be the
    same generator.
    """
    _radius(u1, radius)
    u2.random(out=phase)
    out.real = 0.0
    np.multiply(2.0 * np.pi, phase, out=out.imag)
    np.exp(out, out=out)
    np.multiply(radius, out, out=out)


def complex_standard_normal(n: int, gen: np.random.Generator) -> np.ndarray:
    """n i.i.d. complex normals with E|xi_i|^2 = 1 (re, im ~ N(0, 1/2)).

    Uses the documented amplitude/phase Box-Muller transform so the output
    depends only on the uniform stream, not on numpy's normal sampler.  The
    n values u1 come first in the stream, then the n values u2; past one
    slice, u2 is read at its own stream position (``_positioned``), so both
    are drawn slice by slice and no whole-length uniform array is formed.
    `gen` ends 2n words on.
    """
    out = np.empty(n, dtype=np.complex128)
    radius, phase = np.empty(min(n, _SLICE)), np.empty(min(n, _SLICE))
    u2 = gen if n <= _SLICE else _positioned(gen.bit_generator.state, n)
    for lo in range(0, n, _SLICE):
        hi = min(lo + _SLICE, n)
        _draw_normals(gen, u2, out[lo:hi], radius[: hi - lo], phase[: hi - lo])
    if u2 is not gen:
        gen.bit_generator.state = u2.bit_generator.state
    return out
