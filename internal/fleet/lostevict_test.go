package fleet_test

import (
	"net"
	"net/http"
	"reflect"
	"slices"
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

// loss names the requests a lossyListener loses. With device empty it is
// the first request of kind: the request reaches the shard whole and the
// shard acts on it, but its reply is held until until reports true (nil:
// not at all; at most ten seconds) and then never leaves — the client
// sees a connection that died under an exchange, which it retries. With
// device set it is every request of kind for that device, hung up on
// before the shard reads it: the request never lands, however often the
// client retries.
type loss struct {
	kind   byte
	device string
	until  func() bool
	fired  atomic.Int32
}

// lossyListener hands out connections that lose what the armed loss
// names; every shard's listener shares one.
type lossyListener struct {
	net.Listener
	armed *atomic.Pointer[loss]
}

func (l *lossyListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &lossyConn{Conn: c, armed: l.armed}, nil
}

type lossyConn struct {
	net.Conn
	armed *atomic.Pointer[loss]
	mu    sync.Mutex
	lost  *loss // the loss whose reply this connection holds back
}

// Read recognises a request as it arrives at a shard: a read that starts
// with its envelope, the device name (an export's or an evict's body)
// after the 13 bytes of kind, length and stamp. A stream carries one
// exchange at a time, so a request's first bytes lead a read.
func (c *lossyConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	l := c.armed.Load()
	if n <= 13 || l == nil || p[0] != l.kind {
		return n, err
	}
	switch {
	case l.device != "":
		if string(p[13:n]) == l.device {
			l.fired.Add(1)
			_ = c.Conn.Close()
			return 0, net.ErrClosed
		}
	case l.fired.CompareAndSwap(0, 1):
		c.mu.Lock()
		c.lost = l
		c.mu.Unlock()
	}
	return n, err
}

func (c *lossyConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	l := c.lost
	c.mu.Unlock()
	if l == nil {
		return c.Conn.Write(p)
	}
	for deadline := time.Now().Add(10 * time.Second); l.until != nil && !l.until() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	_ = c.Conn.Close()
	return 0, net.ErrClosed
}

// TestLostEvictReplyStillMigrates: a drain moves hundreds of devices off
// a shard as export → install → evict while one step of one move is lost
// on the connection, and the run must still answer byte for byte what one
// clean server answers. A lost export or install reply is retried; the
// first evict is committed, its reply held until the drain has evicted
// every other device of the shard, and its retry finds nothing held. An
// evict that never lands leaves its device behind as residue, but only
// after the new owner holds the state: the fail-back install overwrites
// it.
func TestLostEvictReplyStillMigrates(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind byte
		hold bool // hold the lost reply until the drained shard holds no device
		drop bool // hang up on every request of kind for one device instead
	}{
		{name: "export reply lost", kind: wire.StreamExport},
		{name: "install reply lost", kind: wire.StreamInstall},
		{name: "evict reply lost", kind: wire.StreamEvict, hold: true},
		{name: "evict never lands", kind: wire.StreamEvict, drop: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 31
			b := building.PaperHouse()
			pool, err := fleet.OpenLocalPool(b, 3, 2, 1000, "", store.FsyncBatch)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = pool.Close() })
			var urls []string
			var armed atomic.Pointer[loss]
			for _, srv := range pool.Servers {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				hs := &http.Server{Handler: srv.Handler()}
				go hs.Serve(&lossyListener{Listener: ln, armed: &armed})
				t.Cleanup(func() { _ = hs.Close() })
				urls = append(urls, "http://"+ln.Addr().String())
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
			// Drain the shard holding the most devices.
			drained, most := 0, 0
			for i, srv := range pool.Servers {
				if n := len(srv.KnownDevices()); n > most {
					drained, most = i, n
				}
			}
			if most < 300 {
				t.Fatalf("vacuous: the drained shard holds %d devices, want hundreds", most)
			}
			l := &loss{kind: tc.kind}
			var residue []string
			if tc.hold {
				l.until = func() bool { return len(pool.Servers[drained].KnownDevices()) == 0 }
			}
			if tc.drop {
				residue = pool.Servers[drained].KnownDevices()[:1]
				l.device = residue[0]
			}
			armed.Store(l)
			gw.MarkDown(drained)
			armed.Store(nil)
			if l.fired.Load() == 0 {
				t.Fatalf("vacuous: no request of kind 0x%02x reached a shard", tc.kind)
			}
			if got := pool.Servers[drained].KnownDevices(); !slices.Equal(got, residue) {
				t.Fatalf("the drained shard holds %v, want %v", got, residue)
			}
			if tc.drop {
				to, err := gw.ShardFor(l.device)
				if err != nil {
					t.Fatal(err)
				}
				held, _ := pool.Servers[drained].ExportDevice(l.device)
				if moved, ok := pool.Servers[to].ExportDevice(l.device); !ok || !reflect.DeepEqual(moved, held) {
					t.Fatalf("the new owner holds %+v (%v), want the residue's state %+v", moved, ok, held)
				}
			}
			if _, err := gw.IngestBatch(stream[mid:]); err != nil {
				t.Fatal(err)
			}
			gw.MarkUp(drained)
			if err := scenario.VerifyExact(gw, ref); err != nil {
				t.Fatalf("the fleet differs from one clean server: %v", err)
			}
		})
	}
}
