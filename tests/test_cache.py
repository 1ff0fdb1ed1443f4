import ast
import struct
import zlib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ulamkit.cache
from oracles import (grow_to_count, naive_decode_prefix, naive_encode_prefix,
                     naive_ulam, vector_decode_terms, vector_encode_prefix)
from ulamkit.cache import (MAGIC, PrefixStore, cache_path, cache_read,
                           cache_write, count_upto, decode_prefix,
                           encode_prefix, is_member, nth_term)
from ulamkit.engine import UlamPrefix, generate_to_horizon, validate_params
from ulamkit.errors import (CorruptCache, HorizonTooLarge, InvalidParameters,
                            VersionMismatch)
from ulamkit.mining import mine
from ulamkit.patterns import PatternCode, PatternComponent
from ulamkit.regularity import (DensityCheckResult, density_inequality_check,
                                empirical_density)
from ulamkit.rigidity import family_sweep, search_threshold, verify_segment

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
        assert back.ints == prefix.ints
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
        assert back.ints.format == "q"

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


@st.composite
def mutated_payload(draw):
    """(term_count, payload): a valid gap encoding, then one fault kind."""
    values = [draw(st.integers(1, 1000))] + draw(st.lists(st.one_of(
        st.integers(1, 127), st.integers(128, 2**40),
        st.integers(2**61, 2**62)), min_size=1, max_size=40))
    encoded = [varint(v, draw(st.integers(1, 3))) for v in values]
    kind = draw(st.sampled_from(["valid", "overlong", "zero", "limit",
                                 "truncated", "trailing"]))
    i = draw(st.integers(0, len(values) - 1))
    if kind == "overlong":
        encoded[i] = varint(values[i], draw(st.integers(11, 13)))
    elif kind == "zero":
        encoded[i] = varint(0, draw(st.integers(1, 10)))
    elif kind == "limit":
        # a term a few one-byte gaps below 2**62, or one far past it
        near = max(1, 2**62 - sum(values[:i]) - draw(st.integers(0, 600)))
        encoded[i] = varint(draw(st.one_of(st.just(near),
                                           st.integers(2**62, 2**70 - 1))))
    payload = b"".join(encoded)
    if kind == "truncated":
        payload = payload[:draw(st.integers(0, len(payload) - 1))]
    elif kind == "trailing":
        payload += draw(st.binary(min_size=1, max_size=12))
    count = len(values) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    return count, payload


class TestVectorOracle:
    """The standard-library codec against the numpy codec it replaced:
    the same bytes, the same terms, and the same first CorruptCache."""

    @given(st.lists(st.integers(0, 62), min_size=1, max_size=60),
           st.integers(1, 1000), st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_encode_bytes(self, bit_lengths, first, slack):
        terms = [first, first + 1]
        for n in bit_lengths:
            if terms[-1] + (1 << n) + n >= 2**63:
                break
            terms.append(terms[-1] + (1 << n) + n)
        prefix = synthetic(terms, horizon=min(terms[-1] + slack, 2**63 - 1))
        assert encode_prefix(prefix) == vector_encode_prefix(prefix)

    @pytest.mark.parametrize("a,b,horizon", [(1, 2, 100_000), (2, 5, 30_000)])
    def test_generated_prefixes(self, a, b, horizon):
        prefix = generate_to_horizon(validate_params(a, b), horizon)
        data = encode_prefix(prefix)
        assert data == vector_encode_prefix(prefix)
        payload = data[5 + 32:-4]
        assert (ulamkit.cache._decode_terms(payload, len(prefix))
                == vector_decode_terms(payload, len(prefix)).tolist()
                == prefix.term_list())

    def test_limit_crossed_inside_a_run(self):
        # one-byte gaps carry the sum past 2**62 at term 4, two terms
        # before their run ends
        payload = varint(1) + varint(2**62 - 3) + b"\x01" * 5
        for decode in (ulamkit.cache._decode_terms, vector_decode_terms):
            with pytest.raises(CorruptCache, match="^term 4 exceeds"):
                decode(payload, 7)

    @given(mutated_payload())
    @settings(max_examples=500, deadline=None)
    def test_mutated_payloads(self, case):
        count, payload = case
        try:
            expected = vector_decode_terms(payload, count).tolist()
        except CorruptCache as exc:
            with pytest.raises(CorruptCache) as got:
                ulamkit.cache._decode_terms(payload, count)
            assert str(got.value) == str(exc)
        else:
            assert ulamkit.cache._decode_terms(payload, count) == expected


class TestFiles:
    def test_write_read(self, tmp_path):
        prefix = generate_to_horizon(validate_params(1, 2), 1000)
        path = cache_path(tmp_path, prefix.params)
        cache_write(prefix, path)
        assert path.name == "u1_2.ulam"
        back = cache_read(path)
        assert back.ints == prefix.ints
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


STORE_PAIRS = [(1, 2), (2, 5), (3, 4)]


@pytest.fixture
def writes(monkeypatch):
    """Horizons of the prefixes the store writes, in order."""
    log = []
    real = ulamkit.cache.cache_write

    def recording(prefix, path):
        log.append(prefix.horizon)
        real(prefix, path)
    monkeypatch.setattr(ulamkit.cache, "cache_write", recording)
    return log


def assert_direct(prefix, params, horizon):
    """The prefix is direct generation at `horizon`, and the oracle's too."""
    want = generate_to_horizon(params, horizon)
    assert prefix.params == params and prefix.horizon == horizon
    assert prefix.ints == want.ints
    assert prefix.term_list() == naive_ulam(params.a, params.b, horizon)


def assert_count(prefix, params, k, start=None):
    """The prefix is direct generation at its own horizon and holds at
    least k terms, and the doubling oracle, from `start` or from b, reaches
    at least as far."""
    assert len(prefix) >= k
    assert_direct(prefix, params, prefix.horizon)
    assert prefix.horizon <= grow_to_count(params, k, start=start).horizon


class TestPrefixStore:
    @pytest.mark.parametrize("a,b", STORE_PAIRS)
    def test_get_on_every_path(self, tmp_path, capsys, writes, a, b):
        params = validate_params(a, b)
        store = PrefixStore(tmp_path)
        path = cache_path(tmp_path, params)
        assert_direct(store.get(params, 200), params, 200)      # miss
        assert writes == [200]
        stored = path.read_bytes()
        assert_direct(store.get(params, 200), params, 200)      # hit
        assert_direct(store.get(params, 120), params, 120)      # restrict
        assert writes == [200] and path.read_bytes() == stored
        assert_direct(store.get(params, 400), params, 400)      # extend
        assert writes == [200, 400]
        path.write_bytes(b"garbage")
        assert_direct(store.get(params, 300), params, 300)      # corrupt
        assert writes == [200, 400, 300]
        assert f"warning: ignoring cache {path}: " in capsys.readouterr().err
        assert cache_read(path).horizon == 300

    @pytest.mark.parametrize("a,b", STORE_PAIRS)
    def test_get_without_directory(self, tmp_path, writes, a, b):
        params = validate_params(a, b)
        store = PrefixStore()
        assert store.directory is None
        for horizon in (b, 150, 90):
            assert_direct(store.get(params, horizon), params, horizon)
        assert writes == []

    @pytest.mark.parametrize("a,b", STORE_PAIRS)
    def test_get_count_on_every_path(self, tmp_path, capsys, writes, a, b):
        params = validate_params(a, b)
        store = PrefixStore(tmp_path)
        path = cache_path(tmp_path, params)
        got = store.get_count(params, 20)                       # miss
        assert_count(got, params, 20)
        assert writes == [got.horizon]
        stored = path.read_bytes()
        hit = store.get_count(params, 5)                        # hit
        assert hit.horizon == got.horizon
        assert_count(hit, params, 5, start=got)
        assert writes == [got.horizon] and path.read_bytes() == stored
        grown = store.get_count(params, 60)                     # extend
        assert_count(grown, params, 60, start=got)
        assert writes == [got.horizon, grown.horizon]
        path.write_bytes(b"garbage")
        assert_count(store.get_count(params, 10), params, 10)   # corrupt
        assert len(writes) == 3
        assert "warning: ignoring cache" in capsys.readouterr().err

    @pytest.mark.parametrize("a,b", STORE_PAIRS)
    def test_get_count_without_directory(self, writes, a, b):
        params = validate_params(a, b)
        for k in (1, 2, 3, 40):
            assert_count(PrefixStore().get_count(params, k), params, k)
        assert writes == []

    def test_one_extension_reaches_the_count(self, tmp_path, monkeypatch,
                                             writes):
        # a U(1,2) prefix cached to 180,000 holds 60% of 22,000 terms, and
        # its density puts the last of them close enough for one step
        params = validate_params(1, 2)
        cached = generate_to_horizon(params, 180_000)
        cache_write(cached, cache_path(tmp_path, params))
        steps = []
        real = ulamkit.cache.extend

        def recording(prefix, horizon, max_horizon):
            steps.append(horizon)
            return real(prefix, horizon, max_horizon)
        monkeypatch.setattr(ulamkit.cache, "extend", recording)
        got = PrefixStore(tmp_path).get_count(params, 22_000)
        assert steps == writes == [got.horizon]
        assert len(got) >= 22_000
        assert got.ints == generate_to_horizon(params, got.horizon).ints
        assert got.horizon < grow_to_count(params, 22_000,
                                           start=cached).horizon

    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(STORE_PAIRS), st.integers(0, 400),
           st.integers(1, 300), st.integers(5, 1500))
    # from b, U(1,2)'s estimates fall short at 25 and at 59, between the
    # doubling points 16, 32 and 64; the next step may not pass them
    @example((1, 2), 0, 12, 1500)
    @example((1, 2), 0, 19, 1500)
    def test_count_cap_as_doubling(self, tmp_path, pair, start, k, cap):
        # at the cap the error is the doubling oracle's, with the prefix
        # at the cap as `partial`; below it the count stops no later
        params = validate_params(*pair)
        cap = max(cap, params.b)
        cached = None
        if params.b <= start <= cap:
            cached = generate_to_horizon(params, start)
            cache_write(cached, cache_path(tmp_path, params))
        else:
            cache_path(tmp_path, params).unlink(missing_ok=True)
        store = PrefixStore(tmp_path, max_horizon=cap)
        try:
            want = grow_to_count(params, k, cap, start=cached)
        except HorizonTooLarge as direct:
            with pytest.raises(HorizonTooLarge) as exc:
                store.get_count(params, k)
            assert str(exc.value) == str(direct)
            assert exc.value.partial.horizon == cap
            assert exc.value.partial.ints == direct.partial.ints
        else:
            got = store.get_count(params, k)
            assert len(got) >= k and got.horizon <= want.horizon
            assert got.ints == generate_to_horizon(params, got.horizon).ints

    def test_mismatched_file_is_regenerated(self, tmp_path, writes):
        params = validate_params(1, 2)
        path = cache_path(tmp_path, params)
        cache_write(generate_to_horizon(validate_params(1, 3), 500), path)
        assert_direct(PrefixStore(tmp_path).get(params, 100), params, 100)
        assert cache_read(path).params == params

    @pytest.mark.parametrize("directory", [None, "cache"])
    def test_count_below_one_refused(self, tmp_path, writes, directory):
        store = PrefixStore(directory and tmp_path / directory)
        for k in (0, -3):
            with pytest.raises(InvalidParameters, match="k must be positive"):
                store.get_count(validate_params(1, 2), k)
        assert writes == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("horizon", [3, 1001])
    def test_get_errors_same_with_cache(self, tmp_path, horizon):
        params = validate_params(1, 5)
        with pytest.raises(Exception) as direct:
            generate_to_horizon(params, horizon, max_horizon=1000)
        store = PrefixStore(tmp_path, max_horizon=1000)
        store.get(params, 1000)
        stored = cache_path(tmp_path, params).read_bytes()
        for cached in (PrefixStore(max_horizon=1000), store):
            with pytest.raises(type(direct.value)) as exc:
                cached.get(params, horizon)
            assert str(exc.value) == str(direct.value)
        assert cache_path(tmp_path, params).read_bytes() == stored

    def test_count_cap_keeps_partial_prefix(self, tmp_path, writes):
        # the error itself is test_count_cap_as_doubling's; here the prefix
        # at the cap is written once, and a second request reads it, fails
        # the same way and writes nothing
        params = validate_params(1, 2)
        store = PrefixStore(tmp_path, max_horizon=1000)
        with pytest.raises(HorizonTooLarge) as exc:
            store.get_count(params, 500)
        assert writes == [1000]
        assert_direct(cache_read(cache_path(tmp_path, params)), params, 1000)
        with pytest.raises(HorizonTooLarge) as again:
            store.get_count(params, 500)
        assert str(again.value) == str(exc.value)
        assert writes == [1000]


SIEVE_NAMES = {"generate_to_horizon", "extend", "generate_count"}


def sieve_uses(path):
    """Lines where a module imports or calls a sieve entry point. A bare
    `.extend(...)` is a list method; `engine.extend` is the sieve."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name in SIEVE_NAMES for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id in SIEVE_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in SIEVE_NAMES:
            if node.attr != "extend" or (isinstance(node.value, ast.Name)
                                         and node.value.id == "engine"):
                lines.append(node.lineno)
    return sorted(lines)


class TestOnePrefixSource:
    def test_only_engine_and_cache_reach_the_sieve(self):
        src = Path(ulamkit.cache.__file__).parent
        found = {p.name: sieve_uses(p) for p in sorted(src.glob("*.py"))}
        assert found["cache.py"]  # the positive control
        assert {name: lines for name, lines in found.items()
                if lines and name not in ("engine.py", "cache.py")} == {}

    def test_scan_sees_each_spelling(self, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text("from .engine import extend\n"
                         "engine.extend(p, 9)\n"
                         "x = generate_to_horizon\n"
                         "terms.extend([1])\n")
        assert sieve_uses(probe) == [1, 2, 3]


# (name, call with a store, the oracle's answer from U(a, b) up to 400)
def _count(terms, n):
    return sum(t <= n for t in terms)


STORE_CALLS = [
    ("is_member", lambda p, s: is_member(p, 26, store=s),
     lambda t: 26 in t),
    ("count_upto", lambda p, s: count_upto(p, 300, store=s),
     lambda t: _count(t, 300)),
    ("nth_term", lambda p, s: nth_term(p, 40, store=s), lambda t: t[39]),
    ("empirical_density",
     lambda p, s: empirical_density(p, 300, store=s).ratio,
     lambda t: Fraction(_count(t, 300), 301)),
    # k = 300 puts the scan's bound at n = 298, above the cap of 25 that
    # test_store_carries_the_cap sets
    ("density_inequality_check",
     lambda p, s: density_inequality_check(p, 0, 1, 300, 1, 300, store=s),
     lambda t: DensityCheckResult(*next(
         ((False, n) for n in range(1, 301)
          if 300 * _count(t, n) > (n + 1) ** 2), (True, None)))),
    ("verify_segment",
     lambda p, s: verify_segment(WIDE, p, 1, 300, store=s).first_mismatch,
     lambda t: first_mismatch(t, 300)),
    ("search_threshold",
     lambda p, s: search_threshold(WIDE, p, 300, store=s),
     lambda t: threshold(t, 300)),
]

WIDE = PatternCode((PatternComponent(p=40, q=200),))
WIDE_POINTS = set(range(40, 201))


def threshold(terms, M):
    last = max((m for m in range(M + 1)
                if (m in terms) != (m in WIDE_POINTS)), default=None)
    return 0 if last is None else last + 1 if last < M else None


def first_mismatch(terms, M):
    for m in range(1, M + 1):
        if (m in terms) != (m in WIDE_POINTS):
            return (m, "in-ulam-not-pattern" if m in terms
                    else "in-pattern-not-ulam")
    return None


class TestStoreParameter:
    """Each library query takes its prefix from `store`, and answers as
    with store=None and as the brute-force oracle does."""

    @pytest.mark.parametrize("a,b", STORE_PAIRS)
    @pytest.mark.parametrize("name, call, oracle", STORE_CALLS,
                             ids=[c[0] for c in STORE_CALLS])
    def test_store_none_and_oracle_agree(self, tmp_path, writes, a, b, name,
                                         call, oracle):
        params = validate_params(a, b)
        terms = naive_ulam(a, b, 400)
        want = oracle(terms)
        assert call(params, None) == want
        assert writes == []
        store = PrefixStore(tmp_path)
        assert call(params, store) == want
        assert len(writes) == 1 and cache_path(tmp_path, params).exists()
        assert call(params, store) == want    # served from the file
        assert len(writes) == 1

    @pytest.mark.parametrize("name, call, oracle", STORE_CALLS,
                             ids=[c[0] for c in STORE_CALLS])
    def test_store_carries_the_cap(self, name, call, oracle):
        with pytest.raises(HorizonTooLarge):
            call(validate_params(1, 2), PrefixStore(max_horizon=25))

    def test_density_scan_under_the_cap(self):
        # k = 9 bounds the scan by n <= 7, so a cap of 25 does not bind
        assert density_inequality_check(
            validate_params(1, 2), 0, 1, 9, 1, 300,
            store=PrefixStore(max_horizon=25)) == DensityCheckResult(False, 1)

    def test_family_sweep_and_mine(self, tmp_path, writes):
        code = PatternCode((PatternComponent(A2=4, B2=5, p=2, q=-1),))
        ns = [4, 5, 6, 7]
        bare = family_sweep(code, 1, 0, ns, (5, -1))
        assert family_sweep(code, 1, 0, ns, (5, -1),
                            store=PrefixStore(tmp_path)) == bare
        for e in bare:
            members = naive_ulam(1, e.n, 5 * e.n - 1)
            assert e.report.first_mismatch[0] == members[0]
        assert sorted(writes) == [19, 24, 29, 34]
        mined = mine(1, 0, [4, 5, 6], (5, -1))
        assert mine(1, 0, [4, 5, 6], (5, -1),
                    store=PrefixStore(tmp_path)) == mined
        assert sorted(writes) == [19, 24, 29, 34, 39]
        capped = family_sweep(code, 1, 0, [4], (5, -1),
                              store=PrefixStore(max_horizon=10))
        assert capped[0].error == "horizon 19 exceeds resource limit 10"
