"""Fault injection on stripe bytes: random bytes, truncations and
single-byte flips anywhere in a multi-type blob. ``decode_table``,
``decode_file`` and ``validate_blob`` either report the damage as a
``StripeCorruptError`` naming the stripe and stream (``ok=False`` for
``validate_blob``) or give back exactly the original rows — never
another error, never different rows."""

import datetime
import decimal

import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from datafusion_orc_ray import stripe

N = 300
TABLE = pa.table(
    {
        "i": pa.array([i * 7 - 50 if i % 9 else None for i in range(N)], pa.int64()),
        "f": pa.array([i / 3 for i in range(N)], pa.float64()),
        "s": pa.array([f"host{i % 11}.example/p{i}" if i % 5 else None for i in range(N)]),
        "b": pa.array([i % 3 == 0 for i in range(N)]),
        "d": pa.array([decimal.Decimal(i) / 100 for i in range(N)], pa.decimal128(10, 2)),
        "t": pa.array(
            [datetime.datetime(2020, 1, 1) + datetime.timedelta(seconds=i) for i in range(N)],
            pa.timestamp("us"),
        ),
        "l": pa.array([[i, i + 1] if i % 4 else [] for i in range(N)], pa.list_(pa.int32())),
    }
)
BLOB = stripe.encode_table(TABLE)

_SETTINGS = dict(
    max_examples=300,
    deadline=None,
    derandomize=True,  # a fixed seed: the same examples every run
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _flipped():
    return st.tuples(st.integers(0, len(BLOB) - 1), st.integers(1, 255)).map(
        lambda pm: BLOB[: pm[0]] + bytes([BLOB[pm[0]] ^ pm[1]]) + BLOB[pm[0] + 1 :]
    )


def _truncated():
    cut = st.integers(0, len(BLOB) - 1)
    return st.one_of(cut.map(lambda n: BLOB[:n]), cut.map(lambda n: BLOB[n + 1 :]))


def _random():
    body = st.binary(max_size=2048)
    # bare bytes, and bytes framed by the magic so the footer parse runs
    return st.one_of(body, body.map(lambda b: stripe.MAGIC + b + stripe.MAGIC))


def _check_decode(decode, name: str) -> None:
    try:
        got = decode()
    except stripe.StripeCorruptError as exc:
        assert exc.stripe == name and exc.stream, exc
        return
    assert got.equals(TABLE)


def _check(blob: bytes, tmp_path) -> None:
    path = str(tmp_path / "s.rstp")
    with open(path, "wb") as f:
        f.write(blob)
    _check_decode(lambda: stripe.decode_table(blob), "<in-memory blob>")
    _check_decode(lambda: stripe.decode_file(path), path)
    report = stripe.validate_blob(blob)
    if report["ok"]:
        assert stripe.decode_table(blob).equals(TABLE)
    else:
        assert report["bad"]


def test_clean_blob_round_trips(tmp_path):
    _check(BLOB, tmp_path)
    assert stripe.validate_blob(BLOB)["ok"]


@pytest.mark.parametrize("damage", [_flipped, _truncated, _random], ids=lambda f: f.__name__[1:])
def test_damaged_blob_raises_typed_error_or_decodes_exactly(damage, tmp_path):
    @settings(**_SETTINGS)
    @given(damage())
    def run(blob):
        _check(blob, tmp_path)

    run()


def test_every_footer_byte_flip_is_caught():
    """Every single-byte flip inside the footer JSON is refused: the
    footer's CRC-32 covers its stats and blooms, which decode trusts."""
    flen = int.from_bytes(BLOB[-len(stripe.MAGIC) - 4 : -len(stripe.MAGIC)], "little")
    start = len(BLOB) - len(stripe.MAGIC) - 4 - flen
    for pos in range(start, len(BLOB)):
        bad = BLOB[:pos] + bytes([BLOB[pos] ^ 0x01]) + BLOB[pos + 1 :]
        with pytest.raises(stripe.StripeCorruptError) as err:
            stripe.decode_table(bad)
        assert err.value.stream == "footer"
