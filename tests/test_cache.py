import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_decode_prefix, naive_encode_prefix
from ulamkit.cache import (MAGIC, cache_path, cache_read, cache_write,
                           decode_prefix, encode_prefix)
from ulamkit.engine import (UlamPrefix, generate_to_horizon, validate_params)
from ulamkit.errors import CorruptCache, VersionMismatch

U12 = [1, 2, 3, 4, 6, 8, 11, 13, 16, 18, 26, 28]


def with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def refix(data: bytes) -> bytes:
    """Recompute the trailing checksum after in-place edits to a full file."""
    return with_crc(data[:-4])


def synthetic(terms, horizon=None) -> UlamPrefix:
    arr = np.array(terms, dtype=np.int64)
    params = validate_params(int(arr[0]), int(arr[1]))
    return UlamPrefix(params, arr, horizon if horizon is not None
                      else int(arr[-1]))


class TestRoundtrip:
    def test_listed_prefix(self):
        prefix = generate_to_horizon(validate_params(1, 2), 28)
        back = decode_prefix(encode_prefix(prefix))
        assert back.term_list() == U12
        assert back.params == prefix.params
        assert back.horizon == 28

    def test_large_prefix(self):
        prefix = generate_to_horizon(validate_params(1, 2), 100_000)
        back = decode_prefix(encode_prefix(prefix))
        assert np.array_equal(back.terms, prefix.terms)
        assert back.horizon == prefix.horizon

    def test_horizon_beyond_last_term_survives(self):
        prefix = synthetic([3, 5, 9], horizon=40)
        assert decode_prefix(encode_prefix(prefix)).horizon == 40

    def test_encode_deterministic(self):
        prefix = generate_to_horizon(validate_params(2, 5), 500)
        data = encode_prefix(prefix)
        assert encode_prefix(decode_prefix(data)) == data

    def test_compact(self):
        prefix = generate_to_horizon(validate_params(1, 2), 10_000)
        assert len(encode_prefix(prefix)) < 45 + 2 * len(prefix)

    @given(st.sets(st.integers(1, 10**9), min_size=2, max_size=80),
           st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_random_prefixes(self, points, slack):
        terms = sorted(points)
        prefix = synthetic(terms, horizon=terms[-1] + slack)
        back = decode_prefix(encode_prefix(prefix))
        assert back.term_list() == terms
        assert back.horizon == prefix.horizon
        assert back.params == prefix.params


class TestRejection:
    def small(self) -> bytes:
        return encode_prefix(synthetic([1, 2, 3, 4, 6, 8]))

    def test_truncations(self):
        data = self.small()
        for cut in (0, 3, 8, 20, len(data) - 5, len(data) - 1):
            with pytest.raises(CorruptCache):
                decode_prefix(data[:cut])

    def test_every_bit_flip_detected(self):
        data = self.small()
        for i in range(len(data)):
            flipped = bytearray(data)
            flipped[i] ^= 0x01
            with pytest.raises(CorruptCache):
                decode_prefix(bytes(flipped))

    def test_version_mismatch(self):
        data = bytearray(self.small())
        data[4] = ord("2")
        with pytest.raises(VersionMismatch):
            decode_prefix(refix(bytes(data)))

    def test_foreign_magic(self):
        data = bytearray(self.small())
        data[:5] = b"XULAM"
        with pytest.raises(CorruptCache):
            decode_prefix(refix(bytes(data)))

    def edited(self, **fields) -> bytes:
        """Re-encode the small prefix with chosen header fields overridden."""
        data = self.small()
        a, b, count, horizon = struct.unpack_from("<4Q", data, 5)
        vals = {"a": a, "b": b, "count": count, "horizon": horizon, **fields}
        head = MAGIC + struct.pack("<4Q", vals["a"], vals["b"],
                                   vals["count"], vals["horizon"])
        return refix(head + data[5 + 32:])

    def test_header_term_count_too_small(self):
        with pytest.raises(CorruptCache, match="seeds"):
            decode_prefix(self.edited(count=1))

    def test_header_term_count_too_large(self):
        with pytest.raises(CorruptCache, match="varint runs past"):
            decode_prefix(self.edited(count=50))

    def test_header_horizon_below_last_term(self):
        with pytest.raises(CorruptCache, match="horizon"):
            decode_prefix(self.edited(horizon=7))

    def test_header_params_invalid(self):
        with pytest.raises(CorruptCache, match="parameters"):
            decode_prefix(self.edited(a=0))
        with pytest.raises(CorruptCache, match="parameters"):
            decode_prefix(self.edited(a=2, b=2))

    def test_header_params_disagree_with_payload(self):
        with pytest.raises(CorruptCache, match="start with a, b"):
            decode_prefix(self.edited(a=1, b=3))

    def test_zero_gap(self):
        data = self.small()
        payload = bytearray(data[5 + 32:-4])
        payload[1] = 0  # second varint: gap 1 -> gap 0
        with pytest.raises(CorruptCache, match="non-increasing"):
            decode_prefix(with_crc(data[:5 + 32] + bytes(payload)))

    def test_trailing_payload_bytes(self):
        data = self.small()
        with pytest.raises(CorruptCache, match="unread"):
            decode_prefix(with_crc(data[:-4] + b"\x07"))

    def test_overlong_varint(self):
        head = MAGIC + struct.pack("<4Q", 1, 2, 2, 99)
        with pytest.raises(CorruptCache, match="64 bits"):
            decode_prefix(with_crc(head + b"\x80" * 10 + b"\x01\x01"))


def varint(value: int, size: int = 1) -> bytes:
    """LEB128 for value, padded with zero groups to at least size bytes."""
    groups = []
    while True:
        groups.append(value & 0x7F)
        value >>= 7
        if not value:
            break
    groups += [0] * (size - len(groups))
    return bytes(g | 0x80 for g in groups[:-1]) + bytes(groups[-1:])


class TestOutOfRange:
    """Out-of-range values are corrupt, not an escaping OverflowError.

    Terms and the horizon may not exceed the engine's 2**62 value limit,
    and a term count is never trusted to size an allocation.
    """

    def test_ten_byte_gap(self):
        head = MAGIC + struct.pack("<4Q", 1, 2, 3, 99)
        with pytest.raises(CorruptCache, match="value limit"):
            decode_prefix(with_crc(head + b"\x01\x01" + b"\xff" * 9 + b"\x01"))

    def test_two_gaps_of_two_to_the_62(self):
        head = MAGIC + struct.pack("<4Q", 1, 2, 4, 99)
        with pytest.raises(CorruptCache, match="value limit"):
            decode_prefix(with_crc(head + b"\x01\x01" + varint(1 << 62) * 2))

    def test_term_count(self):
        data = encode_prefix(synthetic([1, 2, 3]))
        head = MAGIC + struct.pack("<4Q", 1, 2, 2**64 - 1, 99)
        with pytest.raises(CorruptCache, match="varint runs past"):
            decode_prefix(with_crc(head + data[5 + 32:-4]))

    def test_horizon(self):
        data = encode_prefix(synthetic([1, 2, 3]))
        head = MAGIC + struct.pack("<4Q", 1, 2, 3, (1 << 62) + 1)
        with pytest.raises(CorruptCache, match="value limit"):
            decode_prefix(with_crc(head + data[5 + 32:-4]))


class TestOracle:
    """The numpy codec against the byte-at-a-time reference."""

    @given(st.lists(st.integers(0, 62), min_size=1, max_size=60),
           st.integers(1, 1000), st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_encode_bytes(self, bit_lengths, first, slack):
        # gaps drawn by bit length cover every varint size from 1 to 9 bytes
        terms = [first, first + 1]
        for n in bit_lengths:
            if terms[-1] + (1 << n) + n >= 2**63:
                break
            terms.append(terms[-1] + (1 << n) + n)
        prefix = synthetic(terms, horizon=min(terms[-1] + slack, 2**63 - 1))
        assert encode_prefix(prefix) == naive_encode_prefix(prefix)

    @given(st.integers(1, 1000),
           st.lists(st.tuples(st.integers(1, 2**40), st.integers(1, 10)),
                    min_size=1, max_size=60),
           st.integers(1, 10), st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_decode_terms(self, a, gaps, first_size, slack):
        # non-minimal encodings reach the 10-byte maximum with small values
        terms = [a]
        payload = varint(a, first_size)
        for gap, size in gaps:
            terms.append(terms[-1] + gap)
            payload += varint(gap, size)
        head = MAGIC + struct.pack("<4Q", terms[0], terms[1], len(terms),
                                   terms[-1] + slack)
        data = with_crc(head + payload)
        back = decode_prefix(data)
        expected = naive_decode_prefix(data)
        assert back.term_list() == expected.term_list() == terms
        assert back.horizon == expected.horizon
        assert back.terms.dtype == np.int64

    @staticmethod
    def agree(count, horizon, payload):
        """Same terms, or the same CorruptCache message, from both decoders."""
        head = MAGIC + struct.pack("<4Q", 1, 2, count, horizon)
        data = with_crc(head + payload)
        try:
            expected = naive_decode_prefix(data)
        except CorruptCache as exc:
            with pytest.raises(CorruptCache) as got:
                decode_prefix(data)
            assert str(got.value) == str(exc)
        else:
            back = decode_prefix(data)
            assert back.term_list() == expected.term_list()
            assert back.horizon == expected.horizon

    @given(st.one_of(st.integers(0, 12), st.just(2**64 - 1)),
           st.integers(0, 2**64 - 1), st.sampled_from([b"", b"\x01\x01"]),
           st.binary(max_size=40))
    @settings(max_examples=1000, deadline=None)
    def test_arbitrary_payload(self, count, horizon, seeds, payload):
        self.agree(count, horizon, seeds + payload)

    @pytest.mark.parametrize("payload", [
        pytest.param(b"\x00\x01\x01", id="first-term-0"),
        pytest.param(b"\x01\x01\x00", id="zero-gap"),
        pytest.param(b"\x01\x01" + b"\x80" * 9, id="9-open-bytes"),
        pytest.param(b"\x01\x01" + b"\x80" * 10, id="10-open-bytes"),
        pytest.param(b"\x01\x01" + b"\x80" * 11, id="11-open-bytes"),
        pytest.param(b"\x01\x01" + b"\xff" * 9 + b"\x00", id="2**63-1"),
        pytest.param(b"\x01\x01" + b"\x80" * 9 + b"\x01", id="2**63"),
        pytest.param(b"\x01\x01" + b"\x80" * 9 + b"\x02", id="2**64"),
    ])
    def test_edge_payloads(self, payload):
        self.agree(3, 99, payload)


class TestFiles:
    def test_write_read(self, tmp_path):
        prefix = generate_to_horizon(validate_params(1, 2), 1000)
        path = cache_path(tmp_path, prefix.params)
        cache_write(prefix, path)
        assert path.name == "u1_2.ulam"
        back = cache_read(path)
        assert np.array_equal(back.terms, prefix.terms)
        assert not [p for p in tmp_path.iterdir() if p != path]

    def test_read_missing(self, tmp_path):
        with pytest.raises(OSError):
            cache_read(tmp_path / "absent.ulam")

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        small = generate_to_horizon(validate_params(1, 2), 100)
        big = generate_to_horizon(validate_params(1, 2), 2000)
        path = cache_path(tmp_path, small.params)
        cache_write(small, path)
        cache_write(big, path)
        assert cache_read(path).horizon == 2000
        assert len(list(tmp_path.iterdir())) == 1
