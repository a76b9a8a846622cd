"""Byte-fuzzing of the serving parsers.

A peer controls every byte the server parses, so each parser must map
any input to its documented outcomes and nothing else:

* ``FrameParser.feed``, given any bytes in any chunks, yields
  ``(opcode, payload)`` messages or raises :class:`ProtocolError`;
* ``read_request``, given any bytes, returns an :class:`HTTPRequest` or
  None, or raises ``ValueError``.

Raw byte strings mostly stop at the first check, so each property also
draws inputs shaped like its protocol: frame headers with random bits
and lengths, request heads with random lines and Content-Length values.
"""

import asyncio
import struct

from hypothesis import given, strategies as st

from repro.serving.http import HTTPRequest, read_request
from repro.serving.ws import FrameParser, ProtocolError


@st.composite
def frames(draw):
    """A frame header — FIN, reserved bits (mostly clear), a defined or
    reserved opcode, mask bit — in any of the three length forms, then
    up to 64 payload bytes (maybe fewer than the header claims)."""
    fin = draw(st.booleans())
    reserved = draw(st.sampled_from([0, 0, 0, 0, 1, 2, 4]))  # mostly unset
    opcode = draw(st.sampled_from([0x0, 0x1, 0x2, 0x8, 0x9, 0xA, 0x3, 0xF]))
    first = (fin << 7) | (reserved << 4) | opcode
    masked = draw(st.booleans())
    form = draw(st.sampled_from(["short", "16", "64"]))
    if form == "short":
        header = bytes([first, (masked << 7) | draw(st.integers(0, 125))])
    elif form == "16":
        header = bytes([first, (masked << 7) | 126]) + struct.pack(">H", draw(st.integers(0, 70)))
    else:
        length = draw(st.one_of(st.integers(0, 70), st.integers(0, 2**64 - 1)))
        header = bytes([first, (masked << 7) | 127]) + struct.pack(">Q", length)
    key = draw(st.binary(min_size=4, max_size=4)) if masked else b""
    return header + key + draw(st.binary(max_size=64))


def _chunks(data, cuts):
    """``data`` split at the (sorted, deduplicated) ``cuts``."""
    points = [0] + sorted({cut % (len(data) + 1) for cut in cuts}) + [len(data)]
    return [data[a:b] for a, b in zip(points, points[1:])]


class TestFrameParserFuzz:
    @given(
        stream=st.one_of(
            st.binary(max_size=256),
            st.lists(frames(), max_size=6).map(b"".join),
        ),
        cuts=st.lists(st.integers(0, 2**16), max_size=8),
    )
    def test_any_bytes_yield_messages_or_a_protocol_error(self, stream, cuts):
        parser = FrameParser()
        for chunk in _chunks(stream, cuts):
            try:
                messages = parser.feed(chunk)
            except ProtocolError:
                return  # the connection closes here
            for opcode, payload in messages:
                assert isinstance(opcode, int) and 0 <= opcode <= 0xF
                assert isinstance(payload, bytes)


@st.composite
def heads(draw):
    """A request head of random lines (some ``name: value``), maybe a
    Content-Length of any sign and size, then a short body."""
    text = st.text(st.characters(min_codepoint=0, max_codepoint=255), max_size=24)
    lines = [draw(st.one_of(text, st.builds("{} {} {}".format, text, text, text)))]
    for _ in range(draw(st.integers(0, 4))):
        lines.append(draw(st.one_of(text, st.builds("{}:{}".format, text, text))))
    if draw(st.booleans()):
        length = draw(st.one_of(st.integers(-5, 80), st.integers(), text))
        lines.append("Content-Length: {}".format(length))
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + draw(st.binary(max_size=64))


async def _read(data):
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return await read_request(reader)


class TestReadRequestFuzz:
    @given(data=st.one_of(st.binary(max_size=256), heads()))
    def test_any_bytes_yield_a_request_none_or_a_value_error(self, data):
        loop = asyncio.new_event_loop()
        try:
            request = loop.run_until_complete(_read(data))
        except ValueError:
            return
        finally:
            loop.close()
        assert request is None or isinstance(request, HTTPRequest)
