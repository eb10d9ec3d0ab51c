"""numpy's `default_rng(seed).poisson(mean)`, in the standard library.

A seed is spread into 256 bits by numpy's `SeedSequence`, which seeds a
PCG64 generator (O'Neill 2014, XSL-RR output); its doubles feed numpy's
`random_poisson`: the multiplication method below a mean of 10 and
Hormann's transformed rejection (PTRS, 1993) from 10 on. Each step is
numpy's own integer and float recipe, so every draw equals numpy's bit
for bit. Imported only by a seeded photon count.
"""

from math import exp, floor, log, sqrt

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# numpy's POISSON_LAM_MAX, `iinfo(int64).max - sqrt(iinfo(int64).max)*10`:
# past it a draw could leave the int64 range.
MAX_MEAN = 9223372036854775807 - sqrt(9223372036854775807) * 10

# Stirling series coefficients of numpy's `random_loggam`, as it writes them.
_LOGGAM = (8.333333333333333e-02, -2.777777777777778e-03,
           7.936507936507937e-04, -5.952380952380952e-04,
           8.417508417508418e-04, -1.917526917526918e-03,
           6.410256410256410e-03, -2.955065359477124e-02,
           1.796443723688307e-01, -1.39243221690590e+00)
_LOG_2PI = 1.8378770664093453e+00


def _hash_keys(h: int, mult: int, n: int) -> list[tuple[int, int]]:
    """The (xor, multiply) constants of n successive numpy `hashmix` calls:
    each xors in the running hash constant, then multiplies by its next
    value."""
    keys = []
    for _ in range(n):
        nxt = h * mult & _M32
        keys.append((h, nxt))
        h = nxt
    return keys


# A seed below 2**128 is at most 4 words, which take 16 hashmix calls.
_MIX_KEYS = _hash_keys(0x43b0d7e5, 0x931e8875, 16)
_OUT_KEYS = _hash_keys(0x8b51f9dd, 0x58f38ded, 8)


def _hashmix(v: int, key: tuple[int, int]) -> int:
    v = (v ^ key[0]) * key[1] & _M32
    return v ^ v >> 16


def _mix(x: int, y: int) -> int:
    r = (0xca01f9dd * x - 0x4973f715 * y) & _M32
    return r ^ r >> 16


def _seed_words(seed: int) -> list[int]:
    """`SeedSequence(seed).generate_state(4, uint64)`: the seed's 32-bit
    words, least significant first, mixed into a 4-word pool."""
    entropy = [seed & _M32]
    seed >>= 32
    while seed:
        entropy.append(seed & _M32)
        seed >>= 32
    entropy += [0] * (4 - len(entropy))
    keys = iter(_MIX_KEYS if len(entropy) == 4
                else _hash_keys(0x43b0d7e5, 0x931e8875, 4 * len(entropy)))
    pool = [_hashmix(word, next(keys)) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(keys)))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, next(keys)))
    out = [_hashmix(pool[i % 4], key) for i, key in enumerate(_OUT_KEYS)]
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def _doubles(seed: int):
    """PCG64 seeded as numpy seeds it, yielding `next_double` values."""
    s0, s1, i0, i1 = _seed_words(seed)
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        yield (x >> 11) * 2.0 ** -53


def _loggam(x: float) -> float:
    """numpy's `random_loggam`: log(gamma(x)) by the Stirling series,
    taken at x + n >= 7 and stepped back down."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM[9]
    for k in range(8, -1, -1):
        gl0 *= x2
        gl0 += _LOGGAM[k]
    gl = gl0 / x0 + 0.5 * _LOG_2PI + (x0 - 0.5) * log(x0) - x0
    for _ in range(n):
        gl -= log(x0 - 1.0)
        x0 -= 1.0
    return gl


def poisson(seed: int, lam: float) -> int:
    """One draw of `numpy.random.default_rng(seed).poisson(lam)`.

    `seed` is a non-negative int and `0 <= lam <= MAX_MEAN` a float.
    """
    if lam == 0:
        return 0
    draw = _doubles(seed)
    if lam < 10:
        enlam = exp(-lam)
        k, prod = 0, 1.0
        while True:
            prod *= next(draw)
            if prod <= enlam:
                return k
            k += 1
    slam, loglam = sqrt(lam), log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2)
    while True:
        u = next(draw) - 0.5
        v = next(draw)
        us = 0.5 - abs(u)
        if us == 0.0:
            # Here numpy divides by zero and k is floor(-inf), rejected
            # below as out of range.
            continue
        k = floor((2 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= vr:
            return k
        # numpy keeps k as an int64: a k past its range converts to the
        # most negative one (x86-64), which it rejects.
        if not 0 <= k < 1 << 63 or (us < 0.013 and v > us):
            continue
        logv = log(v) if v > 0.0 else float("-inf")
        if (logv + log(invalpha) - log(a / (us * us) + b)
                <= -lam + k * loglam - _loggam(float(k + 1))):
            return k
