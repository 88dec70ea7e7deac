// The client end of an upgraded stream (wire/stream.go has the envelope),
// the one both legs that carry frames use: the gateway's shard client
// (which sends every other shard verb on it too) and the device uplink's
// binary codec. A stream is dialled by HTTP Upgrade
// through the client's own RoundTripper — so TLS, a custom dialer or a
// wrapping RoundTripper keep deciding how the peer is reached, and the
// upgraded connection leaves the transport's per-host count — and then
// carries one exchange at a time: a caller checks a stream out of the idle
// pool, writes one request envelope, reads one reply on its own goroutine
// and checks the stream back in. Any I/O error or deadline closes the
// stream instead, so a reply can never be read by the wrong caller and the
// envelope needs no request id.
package transport

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

	"occusim/internal/obs"
	"occusim/internal/wire"
)

// maxIdleStreams bounds a peer's idle pool; a stream checked in past it is
// closed. Concurrent exchanges are not bounded — each dials what the pool
// cannot give it — so this only caps what a burst leaves behind.
const maxIdleStreams = 64

// ErrBadReply is a peer that answered a stream out of protocol: bytes that
// are not a reply envelope, a status it does not know, or a body the
// caller could not read. Nothing after it can be trusted to be a reply, so
// the stream is closed, and the exchange is not retried.
var ErrBadReply error = &Error{Code: http.StatusBadGateway, Err: errors.New("transport: stream reply out of protocol")}

// ErrUpgradeRefused is an upgrade answered with anything but the stream.
// An answer with a failure status wraps that answer and classifies as it
// would have on a POST; any other answer — the route speaks something
// else — is a rejection.
var ErrUpgradeRefused = errors.New("transport: stream upgrade refused")

// streamConn is one upgraded connection and its buffers.
type streamConn struct {
	conn io.ReadWriteCloser
	br   *bufio.Reader
	out  []byte // the request envelope being sent
	in   []byte // the reply being read
	// timer closes the connection when an exchange outlives the attempt
	// deadline; armed and stopped per exchange, nil without a deadline.
	timer   *time.Timer
	expired atomic.Bool
}

func (s *streamConn) expire() {
	s.expired.Store(true)
	_ = s.conn.Close()
}

// roundTrip is one exchange. The reply body aliases s.in. ok reports
// whether the stream may carry another exchange; a reply that arrived as
// the deadline fired is still the reply, on a stream that is now closed.
func (s *streamConn) roundTrip(kind byte, stamp uint64, frame []byte, timeout time.Duration) (status byte, body []byte, ok bool, err error) {
	if s.timer != nil {
		s.timer.Reset(timeout)
	}
	s.out = wire.AppendStreamRequest(s.out[:0], kind, stamp, frame)
	if _, err = s.conn.Write(s.out); err == nil {
		status, body, err = wire.ReadStreamReply(s.br, &s.in)
	}
	ok = err == nil && (s.timer == nil || s.timer.Stop())
	if err != nil && s.expired.Load() {
		err = os.ErrDeadlineExceeded // not the closed-connection error expire left behind
	}
	return status, body, ok, err
}

// Stream is one route of one peer: where its streams are dialled, under
// which Upgrade token, through which client, and the idle ones. Safe for
// concurrent use.
type Stream struct {
	peer, url, protocol string
	client              *http.Client

	mu   sync.Mutex
	idle []*streamConn

	// Set by Instrument at wiring, before traffic; nil-safe.
	dials, resets *obs.Counter
	rec           *obs.Recorder
}

// NewStream prepares the stream route path of the peer at base, upgraded
// to protocol through client (nil: the shared pooled client under its
// per-attempt deadline). A URL that does not parse fails here.
func NewStream(base, path, protocol string, client *http.Client) (*Stream, error) {
	if _, err := url.Parse(base + path); err != nil {
		return nil, fmt.Errorf("transport: stream: %w", err)
	}
	return &Stream{peer: base, url: base + path, protocol: protocol, client: client}, nil
}

// Instrument counts the stream's dials and resets and records each reset,
// naming the peer, on rec. Call before traffic.
func (p *Stream) Instrument(dials, resets *obs.Counter, rec *obs.Recorder) {
	p.dials, p.resets, p.rec = dials, resets, rec
}

// Exchange sends a request of kind, frame its body, under stamp and reads
// the peer's reply, under the retry policy: a shed waits out the peer's
// hint, an exchange that got no answer or an answered 5xx backs off —
// what Target.Do retries, with the same Backoff —, anything else the peer
// answered on purpose is final. A resent frame is the same bytes under
// the same stamp, so a shard deduplicates whatever landed twice. A pooled
// stream that turns out to have died idle is replaced by one immediate
// redial without spending budget — net/http's rule for a kept-alive
// connection, and as safe. No exchange waits behind another: what the
// pool cannot supply is dialled.
//
// An ok reply's body is handed to ack (nil: discarded) before the stream
// goes back to the pool; an error from ack is the peer's protocol fault.
// Every other status comes back as the *Error its HTTP answer was.
func (p *Stream) Exchange(kind byte, stamp uint64, frame []byte, policy RetryPolicy, ack func(body []byte) error) error {
	for backoff := policy.Start(); ; {
		err := p.exchange(kind, stamp, frame, ack)
		if err == nil {
			return nil
		}
		v, again := retried(err)
		if !again {
			return err
		}
		if err = backoff.Wait(err, v); err != nil {
			return err
		}
	}
}

// exchange is one attempt.
func (p *Stream) exchange(kind byte, stamp uint64, frame []byte, ack func([]byte) error) error {
	timeout := AttemptTimeout(p.client)
	s := p.get()
	pooled := s != nil
	for {
		if s == nil {
			var err error
			if s, err = p.dial(timeout); err != nil {
				return err
			}
		}
		status, body, ok, err := s.roundTrip(kind, stamp, frame, timeout)
		if err != nil {
			p.reset(s, err)
			if errors.Is(err, wire.ErrBadEnvelope) {
				return fmt.Errorf("%w: %v", ErrBadReply, err)
			}
			if pooled && !s.expired.Load() {
				s, pooled = nil, false
				continue
			}
			return p.unreachable(err)
		}
		if status == wire.StreamOK {
			if ack != nil {
				if err = ack(body); err != nil {
					err = fmt.Errorf("%w: %v", ErrBadReply, err)
				}
			}
		} else {
			err = replyError(status, body)
		}
		switch {
		case errors.Is(err, ErrBadReply):
			p.reset(s, err)
		case ok && status != wire.StreamTooLarge:
			p.put(s)
		default: // the deadline fired behind the reply, or the peer is closing its end
			_ = s.conn.Close()
		}
		return err
	}
}

// replyError turns a failure reply into the error its HTTP answer was, so
// everything that reads a POST's failure reads the stream's alike: an
// answered *Error with the status, and the Retry-After, granted epoch and
// leader hint its headers would have carried.
func replyError(status byte, body []byte) error {
	rd := wire.Reader{Buf: body}
	e := &Error{Answered: true}
	switch status {
	case wire.StreamStale:
		if e.Granted = rd.U64(); !rd.Short {
			e.Code, e.Leader = http.StatusConflict, string(rd.Buf)
			return e.answer((&StaleLeaderError{Granted: e.Granted, Leader: e.Leader}).Error())
		}
	case wire.StreamOverload:
		if after := rd.U64(); !rd.Short && len(rd.Buf) == 0 {
			e.Code, e.RetryAfter, e.Hinted = http.StatusTooManyRequests, time.Duration(after), true
			return e.answer(fmt.Sprintf("shed, retry after %v", e.RetryAfter))
		}
	case wire.StreamRejected, wire.StreamTooLarge:
		e.Code = http.StatusBadRequest
		if status == wire.StreamTooLarge {
			e.Code = http.StatusRequestEntityTooLarge
		}
		return e.answer(string(body))
	case wire.StreamUnavailable:
		code, after := rd.U32(), rd.U64()
		if !rd.Short && code/100 == 5 {
			e.Code, e.RetryAfter, e.Hinted = int(code), time.Duration(after), after > 0
			return e.answer(string(rd.Buf))
		}
	}
	return fmt.Errorf("%w: status %d, %d bytes", ErrBadReply, status, len(body))
}

// answer completes e as the HTTP client reads an answer.
func (e *Error) answer(detail string) *Error {
	e.Err = fmt.Errorf("transport: server returned %d %s: %s", e.Code, http.StatusText(e.Code), detail)
	return e
}

func (p *Stream) get() *streamConn {
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

// put checks a stream back in, without a buffer an oversized exchange
// grew (wire.KeepBuf).
func (p *Stream) put(s *streamConn) {
	s.in, s.out = wire.KeepBuf(s.in), wire.KeepBuf(s.out)
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

// dial upgrades a fresh connection. A failure to reach the peer is a
// *url.Error, as a POST's was; an answer other than the upgrade is
// ErrUpgradeRefused.
func (p *Stream) dial(timeout time.Duration) (*streamConn, error) {
	client := p.client
	if client == nil {
		client = pooledClient
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
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url, nil)
	if err != nil {
		return nil, err // unreachable: NewStream parsed the URL
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", p.protocol)
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return nil, p.unreachable(err)
	}
	conn, ok := resp.Body.(io.ReadWriteCloser)
	if resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != p.protocol || !ok {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode < 400 {
			return nil, fmt.Errorf("%w: %s answered %s", ErrUpgradeRefused, p.url, resp.Status)
		}
		return nil, fmt.Errorf("%w: %w", ErrUpgradeRefused, answered(resp, body))
	}
	s := &streamConn{conn: conn, br: bufio.NewReaderSize(conn, 4096)}
	if timeout > 0 {
		s.timer = time.AfterFunc(timeout, s.expire)
		s.timer.Stop()
	}
	p.dials.Inc()
	return s, nil
}

// unreachable wraps a failure to reach the peer over the stream the way
// net/http wraps one of a POST, so everything that tells a dead
// connection from a rejection keeps telling them apart.
func (p *Stream) unreachable(err error) error {
	return &url.Error{Op: "stream", URL: p.url, Err: err}
}

// reset closes a stream that failed and accounts for it.
func (p *Stream) reset(s *streamConn, cause error) {
	_ = s.conn.Close()
	if s.timer != nil {
		s.timer.Stop()
	}
	p.resets.Inc()
	p.rec.Record(obs.EventStreamReset, map[string]any{"shard": p.peer, "cause": cause.Error()})
}
