"""Hypothesis property tests: any int64 array and any byte-string list
must round-trip bit-identically through every codec and the stripe
format (SURVEY.md §5 round-trip contract, mechanized)."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from datafusion_orc_ray import stripe
from datafusion_orc_ray.codecs import fsst
from datafusion_orc_ray.codecs import integers as I

_I64 = st.integers(-(2**63), 2**63 - 1)

int64s = arrays(
    np.int64,
    st.integers(0, 300),
    elements=st.integers(-(2**63), 2**63 - 1),
)


@settings(max_examples=60, deadline=None)
@given(int64s)
def test_int_codecs_roundtrip(v):
    for codec in I.estimate_sizes(v):
        buf = I.encode_ints_with(v, codec)
        assert np.array_equal(I.decode_ints(buf, v.size), v), I.codec_name(codec)
    auto = I.encode_ints(v)
    assert np.array_equal(I.decode_ints(auto, v.size), v)


@st.composite
def _int_shapes(draw):
    """int64 arrays of the shapes the exact size formulas branch on:
    runs of length 1 with a few repeats (the run values are then almost
    the column), values sharing a divisor, patched outliers, int64
    extremes whose deltas wrap, and 0, 1 or 2 values."""
    n = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 400)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["few_repeats", "divisor", "outliers", "widths", "extremes", "any"]))
    if kind == "few_repeats":
        v = rng.integers(0, 1 << draw(st.integers(1, 62)), n)
        if n > 1:
            at = rng.integers(1, n, draw(st.integers(1, 5)))
            v[at] = v[at - 1]
    elif kind == "divisor":
        g = draw(st.one_of(st.integers(2, 1000), st.integers(2, 2**40)))
        v = draw(_I64) + g * rng.integers(0, draw(st.integers(1, 2**16)), n, dtype=np.int64)
    elif kind == "outliers":
        v = rng.integers(0, 1 << draw(st.integers(1, 12)), n)
        if n:
            at = rng.integers(0, n, max(1, n // draw(st.integers(2, 200))))
            v[at] = rng.integers(0, 2**63 - 1, at.size)
    elif kind == "widths":  # each value of a random width: PATCHED_FOR's near ties
        v = rng.integers(0, 1 << rng.integers(0, draw(st.integers(2, 62)), n))
    elif kind == "extremes":
        v = rng.choice(np.array([-(2**63), 2**63 - 1, 0, -1, 1], np.int64), n)
    else:
        v = np.array(draw(st.lists(_I64, min_size=n, max_size=n)), np.int64)
    return np.asarray(v, np.int64)


@settings(max_examples=300, deadline=None)
@given(_int_shapes())
def test_int_size_estimates_are_exact(v):
    """Every size ``estimate_sizes`` lists is its codec's encoded length,
    and ``encode_ints`` picks the smallest (the first on a tie)."""
    sizes = I.estimate_sizes(v)
    for codec, size in sizes.items():
        assert len(I.encode_ints_with(v, codec)) == size, I.codec_name(codec)
    buf = I.encode_ints(v)
    assert buf[0] == min(sizes, key=sizes.get) and len(buf) == min(sizes.values())
    assert np.array_equal(I.decode_ints(buf, v.size), v)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.binary(max_size=600), max_size=40))
def test_fsst_roundtrip(rows):
    data = np.frombuffer(b"".join(rows), dtype=np.uint8)
    offs = np.concatenate([[0], np.cumsum([len(r) for r in rows])]).astype(np.int64)
    table = fsst.train(data.tobytes()[:4096])
    enc, row_lens = fsst.encode(table, data, offs)
    assert int(row_lens.sum()) == len(enc)
    assert np.array_equal(fsst.decode(table, enc), data)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.one_of(st.none(), st.text(max_size=80)), max_size=60),
    st.lists(st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1)), max_size=60),
)
def test_stripe_roundtrip_property(texts, ints):
    n = max(len(texts), len(ints), 1)
    texts = (texts + [None] * n)[:n]
    ints = (ints + [None] * n)[:n]
    t = pa.table(
        {"s": pa.array(texts, pa.string()), "i": pa.array(ints, pa.int64())}
    )
    out = stripe.decode_table(stripe.encode_table(t))
    assert out.equals(t)


@given(
    st.lists(
        st.one_of(st.none(), st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40)),
        min_size=0, max_size=20,
    )
)
@settings(max_examples=100, deadline=None)
def test_tokhash_matches_python_reference(texts):
    """Vectorized tokenization+shingling == a plain-Python reference."""
    import numpy as np
    import pyarrow as pa

    from datafusion_orc_ray.pipelines import tokhash as tk

    th, offs = tk.token_hashes(pa.array(texts, pa.string()))
    counts = np.diff(offs).tolist()
    expected = [len((t or "").split()) for t in texts]
    assert counts == expected
    # shingles: count per doc matches the window rule
    s = 3
    sh, soffs = tk.rolling_shingles(th, offs, s)
    got = np.diff(soffs).tolist()
    exp = [0 if c == 0 else max(c - s + 1, 1) for c in counts]
    assert got == exp
    # determinism & per-doc independence: same text alone hashes the same
    for i, t in enumerate(texts):
        if t and counts[i] > 0:
            th1, o1 = tk.token_hashes(pa.array([t], pa.string()))
            assert (th1 == th[offs[i]:offs[i+1]]).all()
            break


@st.composite
def _gcd_runs(draw):
    """int64 values base + g * k (wrapping), so their offsets from the
    minimum share the divisor g: spans up to the full int64 range."""
    base = draw(_I64)
    g = draw(st.one_of(st.integers(1, 1000), st.integers(1, 2**64 - 1)))
    ks = draw(st.lists(st.integers(0, 2**16), max_size=300))
    return np.array([(base + g * k + 2**63) % 2**64 - 2**63 for k in ks], np.int64)


def _check_for_bp(v):
    buf = I.encode_ints_with(v, I.FOR_BP)
    assert np.array_equal(I.decode_ints(buf, v.size), v)
    assert I.estimate_sizes(v).get(I.FOR_BP, 10) == len(buf)  # empty: the header alone
    return buf


@settings(max_examples=80, deadline=None)
@given(_gcd_runs())
def test_gcd_for_roundtrip(v):
    """FOR_BP with a GCD round-trips bit-identically and its size estimate
    is exact; it never stores more than plain FOR would."""
    buf = _check_for_bp(v)
    if v.size:
        w = int((v.view(np.uint64) - np.uint64(v.min().view(np.uint64))).max()).bit_length()
        assert len(buf) <= 10 + (v.size * w + 7) // 8


def test_gcd_for_edges():
    lo, hi = -(2**63), 2**63 - 1
    for v in (
        np.empty(0, np.int64),  # empty
        np.full(50, -123, np.int64),  # all equal: GCD 0
        np.array([lo, hi] * 20, np.int64),  # the full span: GCD 2^64 - 1
        np.array([lo, lo + 2**62, hi - 2**62 + 1, lo] * 10, np.int64),  # GCD 2^62
        np.array([hi, hi - 6, hi - 12] * 30, np.int64),  # int64 max, GCD 6
        np.arange(-5000, 0, 100, dtype=np.int64).repeat(3),  # negative base, GCD 100
    ):
        _check_for_bp(v)
    # negative base, GCD 100: a flagged divisor and 6-bit offsets
    v = np.arange(-5000, 0, 100, dtype=np.int64).repeat(3)
    buf = I.encode_ints_with(v, I.FOR_BP)
    assert buf[9] == (6 | 0x80) and buf[10] == 100


def test_gcd_for_finds_a_divisor_the_sample_misses():
    """The divisor is the offsets' exact GCD when the ~256-value sample
    and the maximum share a larger one: 2 (then 1) where one unsampled
    offset is 2 (then 1) and every other is a multiple of 4."""
    for odd, g in ((2, 2), (1, 1)):
        v = np.arange(0, 4 * 3000, 4, dtype=np.int64)
        v[1] = odd  # the sample takes every 11th value
        buf = _check_for_bp(v)
        assert (buf[9] & 0x80 and buf[10]) == (g if g > 1 else 0)


def test_gcd_for_follows_each_stripe():
    """The job picks FOR_BP on a stripe whose offsets share 100; a later
    stripe under that decision, whose GCD is 7 (then 1), stores its own
    divisor and decodes exactly."""
    from decimal import Decimal

    state = stripe.EncoderState()
    rng = np.random.default_rng(3)
    for step in (100, 7, 1):
        qty = rng.integers(1, 51, 4000) * step
        t = pa.table({
            "q": pa.array(qty, pa.int64()),
            "d": pa.array([Decimal(int(x)).scaleb(-2) for x in qty], pa.decimal128(15, 2)),
        })
        blob = stripe.encode_table(t, state=state)
        assert stripe.decode_table(blob).equals(t)
        q = stripe.read_footer(blob)["columns"][0]["streams"]["data"]
        assert q["codec"] == "for_bp"
