// The server end of both upgraded streams (wire/stream.go has the
// envelope, transport/stream.go the client end): GET
// /api/v1/shard:stream upgrades a gateway onto a shard (wire.StreamProtocol),
// and GET /api/v1/observations:stream upgrades a device onto a box or a
// gateway (wire.UplinkProtocol). From then on a connection carries request
// envelopes in and reply envelopes out, one exchange at a time, through
// one loop (serveStream): on a shard every verb a gateway has — its
// frames through the same ingestWireFrame the POST door calls, its
// summary reads, and the cold verbs (shardVerb) — and on the device route
// a device's frames through the face's UploadFrame. Each face tracks its
// open streams in a StreamSet, so a drain can stop them between exchanges
// before what an acknowledgement promises is closed under them.
package bms

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"occusim/internal/transport"
	"occusim/internal/wire"
)

// StreamSet is a face's open streams. The zero value is ready.
type StreamSet struct {
	mu      sync.Mutex
	open    map[net.Conn]struct{}
	stopped bool
	wg      sync.WaitGroup
}

// add registers a stream about to be served; false once the set stopped.
func (ss *StreamSet) add(c net.Conn) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.stopped {
		return false
	}
	if ss.open == nil {
		ss.open = map[net.Conn]struct{}{}
	}
	ss.open[c] = struct{}{}
	ss.wg.Add(1)
	return true
}

func (ss *StreamSet) remove(c net.Conn) {
	ss.mu.Lock()
	delete(ss.open, c)
	ss.mu.Unlock()
	ss.wg.Done()
}

// Open is the number of streams being served.
func (ss *StreamSet) Open() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.open)
}

// Stop ends every open stream between frames and refuses new ones: an
// idle stream's read is woken, one mid-frame takes and acknowledges that
// frame first. It returns once every stream loop has exited, so nothing
// is acknowledged after it — call it before closing what an
// acknowledgement promises. http.Server.Shutdown does not wait for a
// stream: its connection was hijacked.
func (ss *StreamSet) Stop() {
	ss.mu.Lock()
	ss.stopped = true
	for c := range ss.open {
		_ = c.SetReadDeadline(time.Unix(1, 0)) // a dead peer's conn errors here; its loop is exiting already
	}
	ss.mu.Unlock()
	ss.wg.Wait()
}

// Streams is the server's open streams: the gateways' on the shard route,
// and the devices' on the upload route when the server is a box. Close
// stops them before the log closes.
func (s *Server) Streams() *StreamSet { return &s.streams }

// serveUpgrade upgrades the connection to protocol, registers it in set
// and serves it until the peer hangs up or the set stops. A request that
// does not ask for exactly this protocol is refused as plain HTTP, and a
// stopped set answers 503.
func serveUpgrade(w http.ResponseWriter, r *http.Request, protocol string, set *StreamSet, serve func(io.Writer, *bufio.Reader)) {
	if !strings.EqualFold(r.Header.Get("Connection"), "upgrade") || r.Header.Get("Upgrade") != protocol {
		w.Header().Set("Upgrade", protocol)
		writeError(w, http.StatusUpgradeRequired, fmt.Errorf("this route speaks only %s", protocol))
		return
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("upgrade: %w", err))
		return
	}
	defer conn.Close()
	// A stream idles between batches for as long as it likes: whatever
	// read or write timeout the http.Server armed for the request ends
	// here, before the drain's wake-up deadline could be set.
	_ = conn.SetDeadline(time.Time{})
	if !set.add(conn) {
		_, _ = conn.Write([]byte("HTTP/1.1 503 Service Unavailable\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"))
		return
	}
	defer set.remove(conn)
	if _, err := conn.Write([]byte("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + protocol + "\r\n\r\n")); err != nil {
		return
	}
	serve(conn, brw.Reader)
}

// serveStream is the stream loop of both routes: read an envelope off br,
// hand its kind, stamp and body to take — which appends an ok reply's
// body (the rooms a frame predicts, in report order) to dst — and write
// the reply, or the failure take returned, to conn in one Write. Per
// exchange it allocates nothing of its own — the buffers live as long as
// the connection, unless an exchange grew one past the pool's cap
// (wire.KeepBuf). It returns on the first envelope it cannot read: the peer
// hung up, the drain woke the read, or the bytes are not an envelope
// (there is no resynchronising); and on the shard route (exact) it hangs
// up on a frame the server could not take through no fault of the frame
// (see appendStreamReply).
func serveStream(conn io.Writer, br *bufio.Reader, exact bool, take func(kind byte, stamp uint64, body, dst []byte) ([]byte, error)) {
	var in, out []byte
	for {
		kind, stamp, body, err := wire.ReadStreamRequest(br, &in)
		if err != nil {
			if errors.Is(err, wire.ErrBodyTooLarge) {
				_, _ = conn.Write(appendStreamReply(out[:0], err, exact))
			}
			return
		}
		out, err = take(kind, stamp, body, wire.BeginStreamReply(out[:0], wire.StreamOK))
		if err == nil {
			wire.EndStreamReply(out)
		} else if out = appendStreamReply(out[:0], err, exact); out == nil {
			return
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
		in, out = wire.KeepBuf(in), wire.KeepBuf(out)
	}
}

// serveShardStream serves a gateway: each frame through ingestWireFrame
// under the gateway's leadership epoch, each rollup read with one
// Summary pass in binary (AppendSummary), unfenced: it changes nothing,
// and every other kind through shardVerb.
func (s *Server) serveShardStream(conn io.Writer, br *bufio.Reader) {
	serveStream(conn, br, true, func(kind byte, epoch uint64, body, dst []byte) ([]byte, error) {
		switch kind {
		case wire.StreamFrame:
			sc := getScratch()
			defer sc.release()
			rooms, err := s.ingestWireFrame(epoch, body, sc)
			if sm := s.met; sm != nil {
				sm.streamFrames.Inc()
			}
			return wire.AppendRooms(dst, rooms), err
		case wire.StreamRollup:
			return AppendSummary(dst, s.Summary()), nil
		}
		return s.shardVerb(kind, epoch, body, dst)
	})
}

// shardVerb answers one of a gateway's cold verbs. Request and ok reply
// bodies, by kind:
//
//	events   none; EventsReply JSON
//	devices  none; the known devices as a rooms column (wire.AppendRooms)
//	model    ModelSnapshot JSON; none
//	export   device name; DeviceState JSON, or none when nothing is held
//	evict    device name; none
//	install  DeviceState JSON; none
//	expire   u64 cutoff, report-clock ns; the expired devices, as devices
//	claim    uvarint epoch, claimant URL; uvarint grant, holder URL
//
// Evict, install and expire are fenced by the envelope's epoch; the rest
// are not. A body that does not read is a rejection. A move is export,
// install on the new owner, then evict, each safe to retry on its own: an
// export changes nothing, an install overwrites, and an evict answers
// nothing, so its retry finds nothing held and is the same empty ok.
func (s *Server) shardVerb(kind byte, epoch uint64, body, dst []byte) ([]byte, error) {
	rd := wire.Reader{Buf: body}
	switch kind {
	case wire.StreamEvents:
		return appendJSON(dst, eventsReply(s.Events()))
	case wire.StreamDevices:
		return wire.AppendRooms(dst, s.KnownDevices()), nil
	case wire.StreamModel:
		var snap ModelSnapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			return dst, fmt.Errorf("bms: model: %w", err)
		}
		_, err := s.InstallModel(snap)
		return dst, err
	case wire.StreamExport:
		if len(body) == 0 {
			return dst, errors.New("bms: export without device")
		}
		if st, held := s.ExportDevice(string(body)); held {
			return appendJSON(dst, st)
		}
		return dst, nil
	case wire.StreamEvict:
		if len(body) == 0 {
			return dst, errors.New("bms: evict without device")
		}
		return dst, s.EvictDevice(epoch, string(body))
	case wire.StreamInstall:
		var st DeviceState
		if err := json.Unmarshal(body, &st); err != nil {
			return dst, fmt.Errorf("bms: install device: %w", err)
		}
		return dst, s.InstallDevice(epoch, st)
	case wire.StreamExpire:
		if cutoff := rd.U64(); !rd.Short && len(rd.Buf) == 0 {
			expired, err := s.ExpireBefore(epoch, time.Duration(cutoff))
			return wire.AppendRooms(dst, expired), err
		}
		return dst, fmt.Errorf("bms: expire with a %d-byte body, want the 8-byte cutoff", len(body))
	case wire.StreamClaim:
		if claim := rd.Uvarint(); !rd.Short {
			granted, holder, err := s.GrantLease(claim, string(rd.Buf))
			return append(binary.AppendUvarint(dst, granted), holder...), err
		}
		return dst, errors.New("bms: lease claim without epoch")
	}
	return dst, fmt.Errorf("bms: the shard stream has no request kind 0x%02x", kind)
}

// appendJSON appends v's JSON to dst.
func appendJSON(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(dst, b...), err
}

// serveUplinkStream serves a device: each frame through the face's
// UploadFrame, stamped with the digest its sections were cut under, in
// the hex the ring publishes it in — formatted once per digest the device
// splits by, not once per upload. Any other kind is a rejected request
// there.
func serveUplinkStream(f Face, conn io.Writer, br *bufio.Reader) {
	var stamped uint64
	var digest string
	var rooms []string
	serveStream(conn, br, false, func(kind byte, stamp uint64, frame, dst []byte) ([]byte, error) {
		if kind != wire.StreamFrame {
			return dst, errors.New("bms: the upload stream carries frames only")
		}
		if stamp != stamped {
			stamped, digest = stamp, ""
			if stamp != 0 {
				digest = strconv.FormatUint(stamp, 16)
			}
		}
		var err error
		rooms, err = f.UploadFrame(digest, frame, rooms[:0])
		dst = wire.AppendRooms(dst, rooms)
		clear(rooms)
		return dst, err
	})
}

// appendStreamReply renders a failed exchange as its reply envelope, in
// the stream's statuses for the status map's classes: a shed with its
// hint, a stale write with the grant it lost to and the leader, a frame
// too large or rejected with the reason, and on the device route the
// serving side's own failure with the status and hint the POST door
// answers. On the device route (!exact) every hint is the Retry-After the
// door answers (transport.RetryAfter), so the uplink reads the stream's
// reply as it read the door's answer. On the shard route a shed carries
// the shard's exact hint, and an unavailable shard — a log that refused
// the append — renders nothing (nil): it hangs up as a dead one would,
// so the gateway's retry policy and its 502 apply.
func appendStreamReply(dst []byte, err error, exact bool) []byte {
	v := transport.Classify(err)
	after := v.After
	if !exact {
		after = transport.RetryAfter(v)
	}
	switch v.Class {
	case transport.Shed:
		dst = binary.LittleEndian.AppendUint64(wire.BeginStreamReply(dst, wire.StreamOverload), uint64(after))
	case transport.Stale:
		dst = binary.LittleEndian.AppendUint64(wire.BeginStreamReply(dst, wire.StreamStale), v.Granted)
		dst = append(dst, v.Leader...)
	case transport.TooLarge:
		dst = append(wire.BeginStreamReply(dst, wire.StreamTooLarge), err.Error()...)
	case transport.Rejected:
		dst = append(wire.BeginStreamReply(dst, wire.StreamRejected), err.Error()...)
	default:
		if exact {
			return nil
		}
		dst = binary.LittleEndian.AppendUint32(wire.BeginStreamReply(dst, wire.StreamUnavailable), uint32(v.Status))
		dst = append(binary.LittleEndian.AppendUint64(dst, uint64(after)), err.Error()...)
	}
	wire.EndStreamReply(dst)
	return dst
}
