// The gateway end of the gateway → shard stream (wire/stream.go has the
// envelope, bms/stream.go the shard end). A stream is dialled by HTTP
// Upgrade through the shard client's own transport — so TLS, a custom
// dialer or a wrapping RoundTripper keep deciding how the shard is
// reached — and then carries one exchange at a time: a caller checks a
// stream out of the shard's idle pool, writes one request envelope, reads
// one reply on its own goroutine and checks the stream back in. Any I/O
// error or deadline closes the stream instead, so a reply can never be
// read by the wrong caller and the envelope needs no request id.
package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"occusim/internal/bms"
	"occusim/internal/obs"
	"occusim/internal/overload"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// maxIdleStreams bounds a shard's idle pool; a stream checked in past it
// is closed. Concurrent exchanges are not bounded — each dials what the
// pool cannot give it — so this only caps what a burst leaves behind.
const maxIdleStreams = 64

// shardStream is one upgraded connection and its buffers.
type shardStream struct {
	conn io.ReadWriteCloser
	br   *bufio.Reader
	out  []byte // the request envelope being sent
	in   []byte // the reply being read
	// timer closes the connection when an exchange outlives the attempt
	// deadline; armed and stopped per exchange, nil without a deadline.
	timer   *time.Timer
	expired atomic.Bool
}

func (s *shardStream) expire() {
	s.expired.Store(true)
	_ = s.conn.Close()
}

// roundTrip is one exchange. The reply body aliases s.in. ok reports
// whether the stream may carry another exchange; a reply that arrived as
// the deadline fired is still the reply, on a stream that is now closed.
func (s *shardStream) roundTrip(epoch uint64, frame []byte, timeout time.Duration) (status byte, body []byte, ok bool, err error) {
	if s.timer != nil {
		s.timer.Reset(timeout)
	}
	s.out = wire.AppendStreamRequest(s.out[:0], epoch, frame)
	if _, err = s.conn.Write(s.out); err == nil {
		status, body, err = wire.ReadStreamReply(s.br, wire.MaxBodyBytes, &s.in)
	}
	ok = err == nil && (s.timer == nil || s.timer.Stop())
	if err != nil && s.expired.Load() {
		err = os.ErrDeadlineExceeded // not the closed-connection error expire left behind
	}
	return status, body, ok, err
}

// streamPool is a shard client's idle streams and their telemetry.
type streamPool struct {
	mu   sync.Mutex
	idle []*shardStream

	// Set by Gateway.Instrument at wiring, before traffic; nil-safe.
	dials, resets *obs.Counter
	rec           *obs.Recorder
}

func (p *streamPool) get() *shardStream {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 {
		return nil
	}
	s := p.idle[n-1]
	p.idle[n-1] = nil
	p.idle = p.idle[:n-1]
	return s
}

func (p *streamPool) put(s *shardStream) {
	p.mu.Lock()
	if len(p.idle) < maxIdleStreams {
		p.idle = append(p.idle, s)
		s = nil
	}
	p.mu.Unlock()
	if s != nil {
		_ = s.conn.Close()
	}
}

// dialStream upgrades a fresh connection to the shard. A transport-level
// failure is a *url.Error, as a POST's was; a shard that answers anything
// but the upgrade is misbehaving, not down.
func (h *HTTPShard) dialStream(timeout time.Duration) (*shardStream, error) {
	client := h.client
	if client == nil {
		client = transport.PooledClient()
	}
	rt := client.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	ctx := context.Background()
	if timeout > 0 {
		// Bounds the dial and the 101 only: once the transport has handed
		// the connection over, the request's context no longer reaches it.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.streamURL, nil)
	if err != nil {
		return nil, err // unreachable: NewHTTPShard parsed the URL
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", wire.StreamProtocol)
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return nil, h.streamError(err)
	}
	conn, ok := resp.Body.(io.ReadWriteCloser)
	if resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != wire.StreamProtocol || !ok {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, fmt.Errorf("%w: shard %s refused the stream upgrade: %s", ErrShardMisbehaved, h.base, resp.Status)
	}
	s := &shardStream{conn: conn, br: bufio.NewReaderSize(conn, 4096)}
	if timeout > 0 {
		s.timer = time.AfterFunc(timeout, s.expire)
		s.timer.Stop()
	}
	h.streams.dials.Inc()
	return s, nil
}

// streamError wraps a failure to reach the shard over the stream the way
// net/http wrapped one of the POST, so everything that tells a dead
// connection from a rejection keeps telling them apart.
func (h *HTTPShard) streamError(err error) error {
	return &url.Error{Op: "stream", URL: h.streamURL, Err: err}
}

// resetStream closes a stream that failed and accounts for it.
func (h *HTTPShard) resetStream(s *shardStream, cause error) {
	_ = s.conn.Close()
	if s.timer != nil {
		s.timer.Stop()
	}
	h.streams.resets.Inc()
	h.streams.rec.Record(obs.EventStreamReset, map[string]any{"shard": h.base, "cause": cause.Error()})
}

// exchange sends one frame and returns the shard's answer: the rooms, or
// the reply status as the error its HTTP status used to be. A pooled
// stream that turns out to have died idle is replaced by one immediate
// redial — net/http's rule for a kept-alive connection, and as safe: the
// shard deduplicates a frame that did land by (Epoch, Seq).
func (h *HTTPShard) exchange(epoch uint64, frame []byte, reports int) ([]string, error) {
	timeout := transport.AttemptTimeout(h.client)
	s := h.streams.get()
	pooled := s != nil
	for {
		if s == nil {
			var err error
			if s, err = h.dialStream(timeout); err != nil {
				return nil, err
			}
		}
		status, body, ok, err := s.roundTrip(epoch, frame, timeout)
		if err != nil {
			h.resetStream(s, err)
			if errors.Is(err, wire.ErrBadEnvelope) {
				return nil, fmt.Errorf("%w: %v", ErrShardMisbehaved, err)
			}
			if pooled && !s.expired.Load() {
				s, pooled = nil, false
				continue
			}
			return nil, h.streamError(err)
		}
		rooms, err := h.decodeReply(status, body, reports)
		switch {
		case errors.Is(err, ErrShardMisbehaved):
			// Nothing after a reply that does not parse can be trusted to
			// be a reply.
			h.resetStream(s, err)
		case ok && status != wire.StreamTooLarge:
			h.streams.put(s)
		default: // the deadline fired behind the reply, or the shard is closing its end
			_ = s.conn.Close()
		}
		return rooms, err
	}
}

// decodeReply turns a reply into IngestFrame's result. Each status comes
// back as what the gateway already knows how to classify: the rooms; the
// typed stale-leader and overload errors the in-process shard returns;
// the client error the 400 or 413 was; ErrShardMisbehaved for anything
// that is not a well-formed reply.
func (h *HTTPShard) decodeReply(status byte, body []byte, reports int) ([]string, error) {
	rd := wire.Reader{Buf: body}
	switch status {
	case wire.StreamOK:
		h.ackMu.Lock()
		rooms := rd.Rooms(reports, make([]string, 0, reports), h.rooms)
		h.ackMu.Unlock()
		if rd.Short || len(rooms) != reports {
			return nil, fmt.Errorf("%w: malformed rooms ack for %d reports", ErrShardMisbehaved, reports)
		}
		return rooms, nil
	case wire.StreamStale:
		if granted := rd.U64(); !rd.Short {
			return nil, &bms.StaleLeaderError{Granted: granted, Leader: string(rd.Buf)}
		}
	case wire.StreamOverload:
		if after := rd.U64(); !rd.Short && len(rd.Buf) == 0 {
			return nil, &overload.Error{RetryAfter: time.Duration(after)}
		}
	case wire.StreamRejected:
		return nil, transport.StatusError(http.StatusBadRequest, string(body))
	case wire.StreamTooLarge:
		return nil, transport.StatusError(http.StatusRequestEntityTooLarge, string(body))
	}
	return nil, fmt.Errorf("%w: malformed stream reply (status %d, %d bytes)", ErrShardMisbehaved, status, len(body))
}
