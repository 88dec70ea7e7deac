// The shard end of the gateway → shard stream: GET /api/v1/shard:stream
// upgrades the connection (wire.StreamProtocol), and from then on it
// carries request envelopes in and reply envelopes out, one exchange at a
// time, each frame through the same ingestWireFrame the POST door calls.
// The server tracks its open streams so a drain can stop them between
// frames before the log closes under them.
package bms

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"occusim/internal/transport"
	"occusim/internal/wire"
)

// streamSet is the server's open streams.
type streamSet struct {
	mu      sync.Mutex
	open    map[net.Conn]struct{}
	stopped bool
	wg      sync.WaitGroup
}

// add registers a stream about to be served; false once the server is
// draining.
func (ss *streamSet) add(c net.Conn) bool {
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

func (ss *streamSet) remove(c net.Conn) {
	ss.mu.Lock()
	delete(ss.open, c)
	ss.mu.Unlock()
	ss.wg.Done()
}

// OpenStreams is the number of gateway streams the server is serving.
func (s *Server) OpenStreams() int {
	s.streams.mu.Lock()
	defer s.streams.mu.Unlock()
	return len(s.streams.open)
}

// StopStreams ends every open stream between frames and refuses new ones:
// an idle stream's read is woken, one mid-frame applies and acknowledges
// that frame first. It returns once every stream loop has exited, so
// nothing is acknowledged after it — call it before closing what an
// acknowledgement promises (Close does).
func (s *Server) StopStreams() {
	ss := &s.streams
	ss.mu.Lock()
	ss.stopped = true
	for c := range ss.open {
		_ = c.SetReadDeadline(time.Unix(1, 0)) // a dead peer's conn errors here; its loop is exiting already
	}
	ss.mu.Unlock()
	ss.wg.Wait()
}

// handleStream upgrades the connection and serves the stream on it until
// the gateway hangs up or the server drains. A request that does not ask
// for exactly this protocol is refused as plain HTTP.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if !strings.EqualFold(r.Header.Get("Connection"), "upgrade") || r.Header.Get("Upgrade") != wire.StreamProtocol {
		w.Header().Set("Upgrade", wire.StreamProtocol)
		writeError(w, http.StatusUpgradeRequired, fmt.Errorf("this route speaks only %s", wire.StreamProtocol))
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
	if !s.streams.add(conn) {
		_, _ = conn.Write([]byte("HTTP/1.1 503 Service Unavailable\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"))
		return
	}
	defer s.streams.remove(conn)
	if _, err := conn.Write([]byte("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + wire.StreamProtocol + "\r\n\r\n")); err != nil {
		return
	}
	s.serveStream(conn, brw.Reader)
}

// serveStream is the stream loop: read an envelope off br, ingest its
// frame, write the reply to conn in one Write. Per frame it allocates
// nothing of its own — the buffers live as long as the connection. It
// returns on the first envelope it cannot read: the peer hung up, the
// drain woke the read, or the bytes are not an envelope (there is no
// resynchronising); and it hangs up on a frame the server could not take
// through no fault of the frame (see appendStreamReply).
func (s *Server) serveStream(conn io.Writer, br *bufio.Reader) {
	var in, out []byte
	for {
		epoch, frame, err := wire.ReadStreamRequest(br, &in)
		if err != nil {
			if errors.Is(err, wire.ErrBodyTooLarge) {
				_, _ = conn.Write(appendStreamReply(out[:0], nil, err))
			}
			return
		}
		sc := getScratch()
		rooms, err := s.ingestWireFrame(epoch, frame, sc)
		out = appendStreamReply(out[:0], rooms, err)
		sc.release()
		if sm := s.met; sm != nil {
			sm.streamFrames.Inc()
		}
		if out == nil {
			return
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// appendStreamReply renders a frame's outcome as its reply envelope, in
// the stream's statuses for the status map's classes: the rooms, a shed
// with its hint, a stale write with the grant it lost to, a frame too
// large or rejected with the reason. An unavailable server — a log that
// refused the append — renders nothing (nil): it hangs up as a dead one
// would, so the gateway's retry policy and its 502 apply.
func appendStreamReply(dst []byte, rooms []string, err error) []byte {
	switch v := transport.Classify(err); v.Class {
	case transport.OK:
		dst = wire.AppendRooms(wire.BeginStreamReply(dst, wire.StreamOK), rooms)
	case transport.Shed:
		dst = binary.LittleEndian.AppendUint64(wire.BeginStreamReply(dst, wire.StreamOverload), uint64(v.After))
	case transport.Stale:
		dst = binary.LittleEndian.AppendUint64(wire.BeginStreamReply(dst, wire.StreamStale), v.Granted)
		dst = append(dst, v.Leader...)
	case transport.TooLarge:
		dst = append(wire.BeginStreamReply(dst, wire.StreamTooLarge), err.Error()...)
	case transport.Rejected:
		dst = append(wire.BeginStreamReply(dst, wire.StreamRejected), err.Error()...)
	default:
		return nil
	}
	wire.EndStreamReply(dst)
	return dst
}
