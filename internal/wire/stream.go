// The stream envelope: a leg after its HTTP Upgrade is one long-lived
// connection carrying one exchange at a time, little-endian like the
// frames inside it:
//
//	request  [kind u8][length u32][stamp u64][body]
//	reply    [length u32][status u8][body]
//
// A request's length counts the stamp and the body, a reply's the status
// and the body. The kind names the request: a StreamFrame carries a wire
// frame verbatim, acknowledged with the rooms of AppendRooms; every other
// kind is one of a gateway's verbs on a shard, its body and reply in
// forms package bms already writes (bms/stream.go, shardVerb). A rollup,
// events or devices read carries no body. Neither end takes a body past
// MaxBodyBytes.
//
// Two legs ride the envelope, each on its own route and Upgrade token,
// and the stamp means what that leg needs beside the body:
//
//	gateway → shard   GET StreamPath, "Upgrade: occusim-shard/4": the
//	                  sending gateway's leadership epoch on a frame, an
//	                  evict, an install and an expiry (0: unfenced); 0 on
//	                  every other kind — the reads, the export, the model
//	                  and the claim —, which the shard does not fence
//	device → BMS      GET UplinkPath, "Upgrade: occusim-uplink/1": frames
//	                  only, stamped with the ring digest the frame's
//	                  sections were cut under, as the hex of ring.Digest
//	                  names it (0: a plain frame)
//
// Neither side can resynchronise after a bad envelope, an unknown kind
// or a bodiless kind with a body included, so whoever reads one closes
// the connection.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrBadEnvelope reports bytes that are not an envelope — as opposed to a
// connection that failed while carrying one.
var ErrBadEnvelope = errors.New("wire: malformed stream envelope")

const (
	// StreamPath is the route a shard upgrades on, and StreamProtocol the
	// Upgrade token both ends of the gateway → shard leg must name.
	StreamPath     = "/api/v1/shard:stream"
	StreamProtocol = "occusim-shard/4"
	// UplinkPath is the route a box or a gateway upgrades a device on, and
	// UplinkProtocol the Upgrade token of the device → BMS leg.
	UplinkPath     = "/api/v1/observations:stream"
	UplinkProtocol = "occusim-uplink/1"
)

// The request kinds, the byte that leads every request envelope.
const (
	StreamFrame, StreamRollup, StreamEvents, StreamDevices, StreamModel byte = 0x01, 0x02, 0x03, 0x04, 0x05
	StreamEvict, StreamInstall, StreamExpire, StreamClaim, StreamExport byte = 0x06, 0x07, 0x08, 0x09, 0x0a
)

// Reply statuses. What the HTTP door said with a status code and headers,
// the stream says with one byte and a body.
const (
	// StreamOK carries the request's answer: a frame's rooms ack, a
	// read's reply, a verb's result (empty where there is none).
	StreamOK byte = iota
	// StreamStale is the leadership fence (the POST door's 409): u64
	// granted epoch, then the leader hint to the end of the body.
	StreamStale
	// StreamOverload is a shed admission (429): u64 retry-after
	// nanoseconds.
	StreamOverload
	// StreamRejected is a request the shard would not apply (400): the
	// reason as text.
	StreamRejected
	// StreamTooLarge is a request announcing more than MaxBodyBytes
	// (413), refused before it is buffered; the server then closes.
	StreamTooLarge
	// StreamUnavailable is the serving side's own failure, as the POST
	// door answers it: u32 HTTP status, u64 retry-after nanoseconds (0:
	// none was given), then the reason as text. Only the device leg sends
	// it; a shard that cannot take a frame through no fault of the frame
	// hangs up instead, as a dead one would.
	StreamUnavailable
)

// AppendStreamRequest appends one request envelope of kind, so the
// caller sends it in a single Write.
func AppendStreamRequest(dst []byte, kind byte, stamp uint64, body []byte) []byte {
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(8+len(body)))
	dst = binary.LittleEndian.AppendUint64(dst, stamp)
	return append(dst, body...)
}

// ReadStreamRequest reads one request envelope into *buf (reused, grown
// as bytes arrive) and returns its kind, stamp and body, a view of *buf
// the next call overwrites. io.EOF means the peer hung up between
// envelopes; an announced length past MaxBodyBytes is ErrBodyTooLarge,
// refused before any of it is buffered; anything else that is not an
// envelope — an unknown kind, a bodiless kind with a body — is
// ErrBadEnvelope.
func ReadStreamRequest(br *bufio.Reader, buf *[]byte) (kind byte, stamp uint64, body []byte, err error) {
	head, err := readHead(br, 1+4)
	if err != nil {
		return 0, 0, nil, err
	}
	kind, n := head[0], binary.LittleEndian.Uint32(head[1:])
	switch {
	case kind < StreamFrame || kind > StreamExport:
		return 0, 0, nil, fmt.Errorf("%w: request kind 0x%02x", ErrBadEnvelope, kind)
	case n > MaxBodyBytes:
		return 0, 0, nil, ErrBodyTooLarge
	case n < 8:
		return 0, 0, nil, fmt.Errorf("%w: request of %d bytes has no stamp", ErrBadEnvelope, n)
	case n != 8 && (kind == StreamRollup || kind == StreamEvents || kind == StreamDevices):
		return 0, 0, nil, fmt.Errorf("%w: bodiless request kind 0x%02x with a %d-byte body", ErrBadEnvelope, kind, n-8)
	}
	body, err = readExact(br, int(n), buf)
	if err != nil {
		return 0, 0, nil, err
	}
	return kind, binary.LittleEndian.Uint64(body), body[8:], nil
}

// BeginStreamReply starts a reply envelope in dst: the caller appends the
// body and calls EndStreamReply, then sends dst in a single Write.
func BeginStreamReply(dst []byte, status byte) []byte {
	return append(dst, 0, 0, 0, 0, status)
}

// EndStreamReply patches the length of the reply BeginStreamReply started
// at dst[0].
func EndStreamReply(dst []byte) {
	binary.LittleEndian.PutUint32(dst, uint32(len(dst)-4))
}

// ReadStreamReply reads one reply envelope into *buf and returns its
// status and body, a view of *buf the next call overwrites. A reply is
// held to the request bound: a body past MaxBodyBytes is refused before
// it is buffered.
func ReadStreamReply(br *bufio.Reader, buf *[]byte) (status byte, body []byte, err error) {
	head, err := readHead(br, 4)
	if err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(head)
	switch {
	case n == 0:
		return 0, nil, fmt.Errorf("%w: reply without a status", ErrBadEnvelope)
	case n-1 > MaxBodyBytes:
		return 0, nil, fmt.Errorf("%w: reply of %d bytes, limit %d", ErrBadEnvelope, n-1, MaxBodyBytes)
	}
	reply, err := readExact(br, int(n), buf)
	if err != nil {
		return 0, nil, err
	}
	return reply[0], reply[1:], nil
}

// KeepBuf is buf emptied for a stream's next exchange, or nil once an
// exchange grew it past the buffer pool's cap: a long-lived connection
// does not hold what one large exchange — an event history, a model —
// needed for the rest of its life.
func KeepBuf(buf []byte) []byte {
	if cap(buf) > pooledBufMax {
		return nil
	}
	return buf[:0]
}

// readHead takes an envelope's fixed-size head off br, as a view of br's
// own buffer (the caller decodes it before reading on): io.EOF when the
// stream ended on an envelope boundary.
func readHead(br *bufio.Reader, n int) ([]byte, error) {
	head, err := br.Peek(n)
	if err != nil {
		if err == io.EOF && len(head) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	_, _ = br.Discard(n) // cannot fail: the bytes are buffered
	return head, nil
}

// readExact reads exactly n bytes into *buf. The buffer grows as the
// bytes arrive, not to the announced n: a peer that announces much and
// sends little costs what it sent.
func readExact(br *bufio.Reader, n int, buf *[]byte) ([]byte, error) {
	b := (*buf)[:0]
	for len(b) < n {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		m, err := br.Read(b[len(b):min(cap(b), n)])
		b = b[:len(b)+m]
		*buf = b
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return b, nil
}
