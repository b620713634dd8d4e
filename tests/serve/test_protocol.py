"""Wire protocol invariants: framing, request validation, exact floats."""

import base64
import math

import numpy as np
import pytest

from repro.serve.protocol import (
    ERROR_CODES,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_event,
    parse_request,
    result_payload,
    values_from_payload,
)


class TestFraming:
    def test_round_trip(self):
        frame = {"op": "ping", "id": "r-1"}
        assert decode_frame(encode_frame(frame)) == frame

    def test_frames_are_single_lines(self):
        encoded = encode_frame({"op": "ping", "id": "a\nb"})
        assert encoded.endswith(b"\n")
        assert encoded.count(b"\n") == 1

    def test_rejects_non_json(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"not json\n")

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"[1, 2]\n")

    def test_rejects_invalid_utf8(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"\xff\xfe\n")


class TestParseRequest:
    def test_evaluate_needs_scenario(self):
        with pytest.raises(ProtocolError):
            parse_request({"op": "evaluate", "id": "r"})

    def test_ping_takes_no_scenario(self):
        with pytest.raises(ProtocolError):
            parse_request({"op": "ping", "id": "r", "scenario": {"name": "x"}})

    def test_unknown_op(self):
        with pytest.raises(ProtocolError):
            parse_request({"op": "explode", "id": "r"})

    def test_unknown_option_key(self):
        with pytest.raises(ProtocolError):
            parse_request(
                {
                    "op": "evaluate",
                    "id": "r",
                    "scenario": {"name": "x"},
                    "options": {"shard": "1/2"},
                }
            )

    @pytest.mark.parametrize(
        "options",
        [
            {"chunk_size": 0},
            {"chunk_size": True},
            {"chunk_size": "16"},
            {"timeout": 0},
            {"timeout": -1.0},
            {"timeout": True},
            {"timeout": math.nan},
            {"timeout": math.inf},
            {"timeout": -math.inf},
            {"timeout": 10**400},
            {"executor": 3},
        ],
    )
    def test_bad_option_values(self, options):
        with pytest.raises(ProtocolError):
            parse_request(
                {
                    "op": "evaluate",
                    "id": "r",
                    "scenario": {"name": "x"},
                    "options": options,
                }
            )

    def test_good_request(self):
        request = parse_request(
            {
                "op": "evaluate",
                "id": "r-7",
                "scenario": {"name": "fig4-operating-points"},
                "options": {"executor": "serial", "chunk_size": 4, "timeout": 2.5},
            }
        )
        assert request.op == "evaluate"
        assert request.id == "r-7"
        assert request.options["chunk_size"] == 4


class TestErrorEvents:
    def test_known_codes_only(self):
        with pytest.raises(ProtocolError):
            error_event("r", "no-such-code", "boom")
        for code in ERROR_CODES:
            assert error_event("r", code, "boom")["code"] == code


def _payload(values, overrides=()):
    payload = result_payload(
        scenario_name="s",
        objective="sum_rate",
        spec_hash="h",
        values=values,
        served_from="computed",
        executor_name="serial",
        cells_from_cache=0,
        cells_computed=np.size(values),
        elapsed_seconds=0.1,
    )
    payload.update(overrides)
    return payload


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


#: Four float64 zeros: what a (2, 2) payload needs, so only the base64
#: strictness can reject the variants built from it.
_FOUR_ZEROS = _b64(bytes(32))


def _bits(*patterns: int) -> np.ndarray:
    return np.array(patterns, dtype="<u8").view("<f8")


class TestPayloadTransport:
    def test_values_round_trip_bitwise(self):
        with np.errstate(invalid="ignore"):
            inf_minus_inf = np.float64(np.inf) - np.float64(np.inf)
        special = np.concatenate(
            [
                [inf_minus_inf, -0.0, np.inf, -np.inf, 5e-324, np.finfo(float).max],
                # The x86 default NaN, a quiet NaN with a payload and a
                # signalling one: a NaN's sign and payload bits must
                # survive, not only its NaN-ness.
                _bits(0xFFF8000000000000, 0x7FF8DEADBEEF0001, 0x7FF0000000000001),
                [0.1, 1 / 3, math.pi, 1e-308, 2.5, 0.0],
            ]
        )
        values = special.reshape(3, 5)
        # Through the actual wire encoding, not just the dict.
        restored = values_from_payload(decode_frame(encode_frame(_payload(values))))
        assert restored.shape == values.shape
        assert restored.tobytes() == values.tobytes()

    def test_values_are_base64_of_c_order_little_endian_doubles(self):
        values = np.arange(6.0).reshape(2, 3)
        for layout in (values, np.asfortranarray(values), values.astype(">f8")):
            payload = _payload(layout)
            assert payload["shape"] == [2, 3]
            assert payload["values"] == _b64(values.astype("<f8").tobytes())

    def test_decoded_array_is_writable_native_and_contiguous(self):
        restored = values_from_payload(_payload(np.arange(6.0).reshape(3, 2)))
        assert restored.dtype == np.float64 and restored.dtype.isnative
        assert restored.flags.c_contiguous
        assert restored.flags.writeable
        restored[0, 0] = 7.0  # a fresh array, not a view of the frame

    def test_scalar_grid(self):
        restored = values_from_payload(_payload(np.float64(-0.0)))
        assert restored.shape == ()
        assert restored.tobytes() == np.float64(-0.0).tobytes()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"values": [1.0, 2.0, 3.0, 4.0]},
            {"values": _FOUR_ZEROS[:8] + "*" + _FOUR_ZEROS[8:]},
            {"values": _FOUR_ZEROS[:8] + "\n" + _FOUR_ZEROS[8:]},
            {"values": "AAAAAAAAAA"},
            {"values": "\u00e9t\u00e9"},
            {"values": _b64(bytes(7))},
            {"values": _b64(bytes(24))},
            {"shape": [-2, -2]},
            {"shape": "2x2"},
        ],
        ids=[
            "v1-list",
            "bad-alphabet",
            "whitespace",
            "bad-padding",
            "non-ascii",
            "ragged-bytes",
            "three-doubles-for-four",
            "negative-shape",
            "non-numeric-shape",
        ],
    )
    def test_malformed_values_rejected(self, overrides):
        payload = _payload(np.zeros((2, 2)), overrides)
        with pytest.raises(ProtocolError):
            values_from_payload(payload)

    def test_missing_keys_rejected(self):
        with pytest.raises(ProtocolError):
            values_from_payload({"values": _b64(bytes(8))})
        with pytest.raises(ProtocolError):
            values_from_payload({"shape": [1]})
