"""The exact decimal codec: :func:`_format_cells` writes each double as its shortest
round-trip ``repr``, and :func:`_parse_cells` reads a plain decimal as the double nearest
it, as ``float`` does, for the CSV files and the model files' numbers.  Each proof is in its
function's docstring.  This module imports nothing from the package."""

import functools

import numpy as np


#: Cells, in whole rows, that :func:`_format_cells` formats at a time, and cells that
#: :func:`~semcontrol.simulate._plain_rows` parses at a time; bounds their scratch arrays.
_CSV_SUB_CELLS = 2**13

#: ``_POW10[j + 5]`` is the double nearest ``10**j``, exact for ``0 <= j <= 22``.
_POW10 = np.array([float(f"1e{j}") for j in range(-5, 23)])


#: The slot of one cell in :func:`_format_cells`; 0xff marks a digit.
_SLOT = b"-0.000" + b"\xff" * 18 + b"." + b"\xff" * 16 + b"0,\r\n"


@functools.cache
def _slot_masks() -> np.ndarray:
    """``_SLOT`` with the characters that ``repr`` drops set to zero, one row per
    (sign, row end, decimal exponent k in [-4, 15], digit count p in [0, 17]).

    The digit bytes are 0xff where kept, so that ``&`` with the digits keeps them.
    With ``a = max(k + 1, 0)`` integer digits, the text is the sign, then ``0.``, the
    ``-k - 1`` zeros and the first digit when ``k < 0``, then the first ``a`` digits
    of the integer copy and ``.`` when ``k >= 0``, then digits ``a`` to ``p - 1`` of
    the fraction copy (which starts at the second digit), ``0`` when ``p <= a``, and
    ``,`` or ``\\r\\n``.  A row with ``p = 0`` keeps only the separator, for a cell
    whose ``repr`` is written into its slot.
    """
    neg, end, k, p = np.ix_(range(2), range(2), range(-4, 16), range(18))
    neg, end, a = neg == 1, end == 1, np.maximum(k + 1, 0)
    keep = ([neg, k < 0, k < 0] + [-k - 1 > z for z in range(3)] + [k < 0]
            + [a > z for z in range(17)] + [k >= 0]
            + [(z >= a) & (z < p) for z in range(1, 17)] + [p <= a])
    keep = [column & (p > 0) for column in keep] + [~end, end, end]
    keep = np.stack([np.broadcast_to(column, (2, 2, 20, 18)) for column in keep], axis=-1)
    masks = (keep * np.frombuffer(_SLOT, np.uint8)).reshape(-1, len(_SLOT))
    masks.setflags(write=False)  # built once per process and shared by every caller
    return masks


def _format_cells(x: np.ndarray, width: int, masks: np.ndarray) -> bytes:
    """The cells ``x``, whole rows of ``width`` cells, as CSV bytes: each value as its
    ``repr``, ``,`` between cells and ``\\r\\n`` after each row.

    Each cell gets a copy of its row of ``masks``: :data:`_SLOT` with only the characters
    of its text left.  A value in ``1e-4 <= |x| < 1e16``, which ``repr`` writes without an
    exponent, has the 17 digits of :func:`_shortest` and-ed into the slot's digit bytes;
    the others, and the ties that it declines, are formatted by one ``%r`` call, whose
    text goes over the start of their slots.  Deleting the zero bytes and the padding of
    the ``repr`` strings leaves the text.
    """
    n, a = len(x), np.abs(x)
    # digits 0, k 0 and p 1 spell 0.0; p 0 leaves the cell to repr
    digits, k, p = np.zeros(n, np.int64), np.zeros(n, np.int32), (a == 0).astype(np.int64)
    at = np.flatnonzero((a >= 1e-4) & (a < 1e16))
    digits[at], k[at], p[at] = _shortest(a[at])
    end = np.arange(n) % width == width - 1
    slots = np.take(masks, ((np.signbit(x) * 2 + end) * 20 + k + 4) * 18 + p, axis=0)
    # the first of the 17 digits, then two words of 8 ASCII digits, the first in the
    # lowest byte: each word's lanes are split in halves, 4 + 4, 2 + 2, then 1 + 1 digits
    high = digits // 10**8
    first = high // 10**8
    words = np.stack([high - first * 10**8, digits - high * 10**8]).astype(np.uint64)
    q = words // 10**4
    words = q | (words - q * 10**4) << 32
    q = (words * 10486 >> 20) & 0x0000007F0000007F  # each 32-bit lane // 100
    words = q | (words - q * 100) << 16
    q = (words * 103 >> 10) & 0x000F000F000F000F  # each 16-bit lane // 10
    words = q | (words - q * 10) << 8 | 0x3030303030303030
    first = first.astype(np.uint8) | ord("0")
    slots[:, 6] &= first
    slots[:, 7] &= first
    for offset, word in ((8, words[0]), (16, words[1]), (25, words[0]), (33, words[1])):
        slots[:, offset:offset + 8].view("<u8")[:, 0] &= word
    at = np.flatnonzero(p == 0)
    text = ("%-24r" * len(at)) % tuple(x[at].tolist())  # 24 wide: no finite repr is longer
    slots[at, :24] = np.frombuffer(text.encode(), np.uint8).reshape(-1, 24)
    return slots.tobytes().translate(None, b"\0 ")


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The digits that ``repr`` prints for each positive ``a`` in ``[1e-4, 1e16)``.

    Returns ``(V, k, p)``: ``repr`` prints the ``p`` digits of ``V // 10**(17 - p)``,
    ``V`` having 17 digits and ``p`` being the fewest that read back as ``a``, with the
    decimal point after digit ``k + 1``.  ``p`` is 0 where two shortest candidates are
    equally near, a tie left to ``repr``.  Each step is exact:

    - ``k = floor(log10 a)``.  With ``a = m 2^E``, ``1/2 <= m < 1``, ``k`` is ``k0`` or
      ``k0 + 1`` for ``k0 = floor((E - 1) log10 2)``, which ``(E - 1) * 78913 >> 18``
      gives for ``|E| < 1650`` (Adams, "Ryu", PLDI 2018).  ``a >= fl(10^(k0+1))`` picks
      one: ``10^j`` is a double for ``0 <= j <= 22``, and for ``-4 <= j < 0``
      ``fl(10^j)`` is the double just above ``10^j``, so no double lies between.
    - ``S = a 10^m``, ``m = 16 - k`` in ``[1, 20]``, so ``1e16 <= S < 1e17``; ``10^m``
      is a double (``5^20 < 2^53``).  Dekker's two-product (*Numer. Math.* 18, 1971)
      gives ``S = hi + err`` exactly.  ``hi >= 1e16 > 2^53`` is an integer, so
      ``S = N + f`` with integer ``N = hi + floor(err)`` and ``0 <= f < 1``, both exact.
    - A decimal reads back as ``a`` when, scaled by ``10^m``, it lies within ``B`` of
      ``S``, ``B = ulp(a)/2 10^m = 10^m 2^(E-54)``.  ``S`` and ``B`` are multiples of
      ``2^(E-54+m) >= 2^-47`` and ``f +- B`` are below 16 in size, so they are exact, and
      so are ``hiI`` and ``loI``, the largest and smallest integers in ``[S - B, S + B]``.
      ``S 2^-54 < B <= S 2^-53 < 11.2``: the interval holds ``N + (f > 1/2)``, and
      ``w = hiI - loI + 1 <= 23`` integers.
    - Two refinements of that interval move no output in this range, so they are left
      out.  Ties to even keep the edges ``S +- B`` only for an even mantissa ``M``; an
      edge ``(2M +- 1) 5^m 2^(m+E-54)`` is an integer only when ``m + E >= 54``, that is
      ``a >= 2^52`` with ``m = 1``, and then an odd multiple of 5 or 10, never of 100,
      while ``S`` itself is a multiple of 10 and nearer.  Below a power of two the gap
      is ``B/2``; but a power of two here is an integer up to ``2^53`` or ``5^i / 10^i``
      for ``i <= 13``, so ``S`` is its exact digits, ending in 1, 2, 4, 6, 8 or 5,
      followed by ``z`` zeros, ``z = m`` or ``z >= 7``, and every shorter decimal is at
      least ``2 10^z > B`` from ``S``.
    - ``p`` digits read back as ``a`` exactly when a multiple of ``10^j``, ``j = 17 - p``,
      lies in ``[loI, hiI]``, a property that holds for every ``j`` up to the largest.
      ``j >= 1`` when ``hiI mod 10 < w`` and ``j >= 2`` when ``hiI mod 100 < w``; then
      ``hiI - hiI mod 100`` is the one multiple of 100 inside, and ``j`` is 2 plus the
      trailing zeros of ``hiI div 100``, found by binary search: for ``h < 2^53``,
      ``fl(h / 10^s)`` is an integer exactly when ``10^s`` divides ``h``.
    - Of the shortest candidates ``repr`` prints the one nearest to ``S``.  For ``j = 0``
      that is ``N + (f > 1/2)``, a tie when ``f = 1/2``.  For ``j = 1`` the candidates
      are ``M = hiI - hiI mod 10``, ``M - 10`` and ``M - 20`` down to ``loI``, and the
      distance ``M - S`` picks one; a tie when it is 5 or 15 and both neighbours are
      inside.  For ``j >= 2`` there is one candidate.
    - No candidate rounds up to ``10^(k+1)``, which would move the exponent: for
      ``k + 1 >= 0`` it is a double, so ``S + B`` stays below it, and for ``k + 1 < 0``
      it lies above the midpoint of ``fl(10^(k+1))`` and the double below.
    """
    k, n, f, up, w = _interval(a)
    top = n + up.astype(np.int64)
    hundreds = top // 10
    mod10 = top - hundreds * 10
    hundreds //= 10
    mod100 = top - hundreds * 100
    zeros = _trailing_zeros(hundreds.astype(float))
    j1, j2 = mod10 < w, mod100 < w
    gap = (up - mod10) - f  # M - S
    steps = (gap > 5).astype(np.int64) + (gap > 15)
    room = (w - 1 - mod10) // 10
    tie = np.where(j1, ((gap == 5) | (gap == 15)) & (steps < room) & ~j2, f == 0.5)
    v1 = top - mod10 - 10 * np.minimum(steps, room)
    v = n + (f > 0.5)
    v += j1 * (v1 - v) + j2 * (top - mod100 - v1)
    return v, k, (17 - j1 - j2 - j2 * zeros) * ~tie


def _interval(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(k, N, f, up, w)`` of :func:`_shortest`: ``a 10^(16-k) = N + f``, and the ``w``
    integers in the interval that reads back as ``a`` run from ``loI`` to ``hiI = N + up``."""
    e = np.frexp(a)[1]
    k = (e - 1) * 78913 >> 18
    k += a >= np.take(_POW10, k + 6)
    scale = np.take(_POW10, 21 - k)
    n, f = _two_product(a, scale)
    half_gap = np.ldexp(scale, e - 54)
    up = np.floor(f + half_gap)
    return k, n, f, up, (up - np.ceil(f - half_gap)).astype(np.int64) + 1


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(N, f)`` with ``a b = N + f`` exactly, ``N`` an integer and ``0 <= f < 1``, for
    ``2^52 <= a b < 2^63``, where ``fl(a b)`` is an integer: Dekker's two-product, with
    Veltkamp's split into 26-bit halves."""
    s = a * b
    split = a * 134217729.0  # 2^27 + 1
    a_hi = split - (split - a)
    a_lo = a - a_hi
    split = b * 134217729.0
    b_hi = split - (split - b)
    b_lo = b - b_hi
    err = ((a_hi * b_hi - s) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    whole = np.floor(err)
    return s.astype(np.int64) + whole.astype(np.int64), err - whole


def _trailing_zeros(h: np.ndarray) -> np.ndarray:
    """The trailing decimal zeros of each positive integer in the float array ``h``, which
    it divides in place: for ``h < 2^53``, ``fl(h / 10^s)`` is an integer exactly when
    ``10^s`` divides ``h``.  ``h < 10^15``, so there are at most 14."""
    zeros = np.zeros(len(h), np.int64)
    for step in (8, 4, 2, 1):
        q = h / 10.0**step
        divides = q == np.floor(q)
        h /= divides * (10.0**step - 1) + 1
        zeros += step * divides
    return zeros


#: Per cell of :func:`_parse_cells`: the offsets, from its ``.``, of the word that ends
#: at the ``.`` and of the three words after it; the digits of the cell's integer or
#: fraction part that lie before each word's lanes; and each word's first row of
#: ``_LANE_MASKS`` and ``_LANE_SHIFTS``.
_WORDS_AT = np.array([[-8], [1], [9], [17]])
_LANE_FIRST = np.array([[0], [0], [8], [16]])
_LANE_ROW = np.array([[0], [9], [9], [9]])

#: ``_LANE_MASKS[a]`` keeps the top ``a`` bytes of a word, the integer digits that end
#: at a ``.``; ``_LANE_MASKS[9 + k]`` keeps its low ``k`` bytes, fraction digits, which
#: a left shift by ``_LANE_SHIFTS[9 + k]`` moves to the top.
_LANE_MASKS = np.array([2**64 - 2**(64 - 8 * k) for k in range(9)]
                       + [2**(8 * k) - 1 for k in range(9)], np.uint64)
_LANE_SHIFTS = np.array([0] * 9 + [8 * (8 - k) % 64 for k in range(9)], np.uint64)

#: ``10**j`` for ``0 <= j <= 18``, as integers.
_POW10_INT = np.array([10**j for j in range(19)], np.uint64)


def _parse_cells(text: np.ndarray, words: np.ndarray, dots: np.ndarray, starts: np.ndarray,
                 stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(values, exact)`` of the cells ``text[starts:stops]``, each with a ``.`` at
    ``dots``: where ``exact``, the cell is plain and ``values`` holds the double nearest
    it, as ``float`` reads it; elsewhere ``values`` is not the cell's.  ``words[i]`` is
    the little-endian word of ``text[i:i + 8]``.  Each step is exact:

    - A cell is ``-?``, ``a`` digits, the ``.``, and ``f`` digits.  The word that ends
      at the ``.`` holds the integer digits in its top ``a`` bytes (lanes), and the three
      after it hold the fraction digits from their lowest; other lanes are set to 0.
      With ``x = byte ^ 0x30`` a lane is a digit exactly when ``x < 10``, which
      ``((x & 0x7f) + 0x76 | x) & 0x80`` tests in every lane at once: the sum is at
      most ``0xf5``, so no lane carries into the next.
    - Eight digits, the first in the lowest lane, give their value in three
      multiply-shift steps that add neighbouring lanes, ``10 d0 + d1`` and so on (Lemire,
      *Software: Practice and Experience* 51(8), 2021); a fraction word's ``k`` digits
      are shifted into its top lanes first.  With at most 18 digits, not counting those of
      a zero integer part, the cell is ``t = M / 10^q``, ``M < 10^18 < 2^63`` an integer
      and ``q = f <= 18``; other cells are left.
    - ``10^q`` is a double.  For ``M < 2^53`` so is ``M``, and one correctly rounded
      division gives the double nearest ``t`` (Clinger, PLDI 1990).
    - Otherwise ``c = fl(fl(M) / 10^q) = t (1 + e1)(1 + e2)``, ``|ei| <= 2^-53``, so
      ``|t - c| < 2^-51 t``.  Write ``c = m 2^e``, ``1/2 <= m < 1``, and ``g = 2^(e-53)``,
      its ulp.  Dekker's two-product (:func:`_two_product`; ``c 10^q >= 2^52``) gives
      ``c 10^q = N + r`` exactly, ``N`` an integer and ``0 <= r < 1``, so the residual
      ``D = M - c 10^q = (M - N) - r``.  ``D`` is a multiple of ``min(1, g 2^q)``, as
      ``c 10^q = (m 2^53) 5^q g 2^q``, and ``g > c 2^-53 > 10^-q / 2``, so of
      ``min(1, 5^-q / 2) > 2^-44``; and ``|D| < 2^-51 M < 2^9``.  So ``D`` is a double,
      and the subtraction computes it exactly.
    - The half-gap ``H = g 10^q / 2`` is ``10^q`` scaled by a power of two, also exact.
      Unless ``c`` or ``c - g`` is a power of two, below which the gap is halved,
      ``c - g``, ``c`` and ``c + g`` are doubles spaced by ``g`` with at least ``g`` to
      the next on either side.  So ``t = c + D / 10^q`` is nearest ``c`` for ``|D| < H``,
      ``c + g`` for ``H < D < 3H`` and ``c - g`` for ``-3H < D < -H``.  Only the band
      that this leaves, a midpoint ``|D| = H`` (rounded half to even), ``|D| >= 3H``,
      and ``m <= 1/2 + 2^-53`` (``c`` or ``c - g`` a power of two), is left to ``float``.
    - A ``-`` negates the double, which is exact; ``-0.0`` keeps its sign.
    """
    neg = text[starts] == ord("-")
    whole = dots - starts - neg
    frac = stops - dots - 1
    lanes = np.clip(np.stack([whole, frac, frac, frac]) - _LANE_FIRST, 0, 8)
    rows = lanes + _LANE_ROW
    x = (words[dots + _WORDS_AT] ^ np.uint64(0x3030303030303030)) & np.take(_LANE_MASKS, rows)
    bad = (((x & np.uint64(0x7F7F7F7F7F7F7F7F)) + np.uint64(0x7676767676767676)) | x)
    bad &= np.uint64(0x8080808080808080)
    x <<= np.take(_LANE_SHIFTS, rows)
    x = (x * np.uint64(10) + (x >> np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x * np.uint64(100) + (x >> np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x * np.uint64(10000) + (x >> np.uint64(32))) & np.uint64(0xFFFFFFFF)
    exact = ((bad[0] | bad[1] | bad[2] | bad[3]) == 0) & (whole <= 8) & (whole + frac > 0)
    exact &= frac + whole * (x[0] != 0) <= 18
    digits = (x[1] * np.take(_POW10_INT, lanes[2]) + x[2]) * np.take(_POW10_INT, lanes[3]) + x[3]
    digits = x[0] * np.take(_POW10_INT, frac, mode="clip") + digits
    digits = np.where(exact, digits, np.uint64(0)).view(np.int64)
    scale = np.take(_POW10, frac + 5, mode="clip")
    values = digits.astype(float) / scale
    big = digits >= 2**53
    if big.any():
        n, r = _two_product(values, scale)
        residual = (digits - n).astype(float) - r
        mantissa, e = np.frexp(values)
        half = np.ldexp(scale, e - 54)
        step = (residual > half).astype(float) - (residual < -half)
        values += np.ldexp(step * big, e - 53)
        size = np.abs(residual)
        exact &= ~big | ((size != half) & (size < 3 * half) & (mantissa > 0.5 + 2**-53))
    np.negative(values, out=values, where=neg)
    return values, exact
