package fleet_test

import (
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/scenario"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// replyLosingListener hands out connections that, once armed, hang up
// instead of answering the first request isEvictRequest recognises: the
// request reaches the server whole and the server acts on it, but its
// reply never leaves. The reply is held until until reports true (or ten
// seconds pass), and the client then sees a connection that died under
// an exchange, which it retries.
type replyLosingListener struct {
	net.Listener
	armed, fired atomic.Bool
	until        func() bool // set before armed
}

func (l *replyLosingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &replyLosingConn{Conn: c, l: l}, nil
}

type replyLosingConn struct {
	net.Conn
	l    *replyLosingListener
	mu   sync.Mutex
	lose bool
}

func (c *replyLosingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.l.armed.Load() && !c.l.fired.Load() && isEvictRequest(p[:n]) && c.l.fired.CompareAndSwap(false, true) {
		c.mu.Lock()
		c.lose = true
		c.mu.Unlock()
	}
	return n, err
}

func (c *replyLosingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	lose := c.lose
	c.mu.Unlock()
	if lose {
		for deadline := time.Now().Add(10 * time.Second); !c.l.until() && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		_ = c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// isEvictRequest recognises an evict as it arrives at a shard: a read
// that starts with the envelope of one. A stream carries one exchange at
// a time, so a request's first bytes lead a read.
func isEvictRequest(read []byte) bool {
	return len(read) > 5 && read[0] == wire.StreamEvict
}

// TestLostEvictReplyStillMigrates: a shard commits an evict whose reply
// is lost on the connection, and the gateway's retry must still carry the
// device's state to its new owner — the run answers byte for byte what
// one clean server answers, the committed-but-unanswered evict included.
// The lost reply is held until the drain has evicted every other device
// of the shard — hundreds of them — so the retry comes after every
// answer a memo sized by count rather than by the client's open evicts
// would have kept.
func TestLostEvictReplyStillMigrates(t *testing.T) {
	const seed = 31
	b := building.PaperHouse()
	pool, err := fleet.OpenLocalPool(b, 3, 2, 1000, "", store.FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pool.Close() })
	var urls []string
	var lossy []*replyLosingListener
	for _, srv := range pool.Servers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		l := &replyLosingListener{Listener: ln}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(l)
		t.Cleanup(func() { _ = hs.Close() })
		urls = append(urls, "http://"+ln.Addr().String())
		lossy = append(lossy, l)
	}
	f, err := scenario.Build(b, scenario.Spec{ShardURLs: urls}, seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	gw := f.Gateways[0]

	stream := synthStream(b, 900, 12, seed)
	stampStream(stream, 1)
	ref, err := scenario.Reference(b, [][]transport.Report{stream}, seed)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(stream) / 2
	if _, err := gw.IngestBatch(stream[:mid]); err != nil {
		t.Fatal(err)
	}
	// Drain the shard holding the most devices; the first evict it
	// answers loses its reply once the shard holds no device.
	drained, most := 0, 0
	for i, srv := range pool.Servers {
		if n := len(srv.KnownDevices()); n > most {
			drained, most = i, n
		}
	}
	if most < 300 {
		t.Fatalf("vacuous: the drained shard holds %d devices, want hundreds", most)
	}
	lossy[drained].until = func() bool { return len(pool.Servers[drained].KnownDevices()) == 0 }
	lossy[drained].armed.Store(true)
	gw.MarkDown(drained)
	if !lossy[drained].fired.Load() {
		t.Fatal("vacuous: no evict reached the drained shard")
	}
	if n := len(pool.Servers[drained].KnownDevices()); n != 0 {
		t.Fatalf("the drained shard still holds %d device(s)", n)
	}
	if _, err := gw.IngestBatch(stream[mid:]); err != nil {
		t.Fatal(err)
	}
	gw.MarkUp(drained)
	if err := scenario.VerifyExact(gw, ref); err != nil {
		t.Fatalf("the fleet differs from one clean server: %v", err)
	}
}
