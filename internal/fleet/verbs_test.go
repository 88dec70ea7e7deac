package fleet_test

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/occupancy"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// TestShardVerbsAnswerAsInProcess: every Shard verb answers alike through
// a LocalShard and through an HTTPShard over the same server handler, so
// the gateway cannot tell a remote shard from an in-process one — the
// reads, device migration, the TTL sweep, the lease and the fence.
func TestShardVerbsAnswerAsInProcess(t *testing.T) {
	b := building.PaperHouse()
	local, err := fleet.NewLocalShard("local", newServer(t, b))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(t, b).Handler())
	t.Cleanup(ts.Close)
	remote, err := fleet.NewHTTPShard(ts.URL, nil, transport.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	shards := []fleet.Shard{local, remote}

	// The same stream to both; then a later report from half the devices,
	// so a sweep between the two times names the other half.
	stream := synthStream(b, 6, 40, 17)
	tail := []transport.Report{}
	for _, r := range stream[len(stream)-6:] {
		if r.Device < "crowd-003" {
			r.AtSeconds += 3600
			tail = append(tail, r)
		}
	}
	for _, s := range shards {
		if _, err := ingestFrame(t, s, stream); err != nil {
			t.Fatal(err)
		}
		if _, err := ingestFrame(t, s, tail); err != nil {
			t.Fatal(err)
		}
	}
	same := func(what string, answer func(fleet.Shard) (any, error)) any {
		t.Helper()
		var got [2]any
		for i, s := range shards {
			v, err := answer(s)
			if err != nil {
				t.Fatalf("%s through %T: %v", what, s, err)
			}
			got[i] = v
		}
		if a, b := mustJSON(t, got[0]), mustJSON(t, got[1]); !bytes.Equal(a, b) {
			t.Fatalf("%s differs:\nin process %s\nover HTTP  %s", what, a, b)
		}
		return got[0]
	}
	reads := func() {
		t.Helper()
		same("events", func(s fleet.Shard) (any, error) { return s.Events() })
		same("summary", func(s fleet.Shard) (any, error) { return s.Summary() })
		same("devices", func(s fleet.Shard) (any, error) { return s.Devices() })
	}
	reads()
	if evs, _ := local.Events(); len(evs) == 0 {
		t.Fatal("vacuous: the stream committed no events")
	}

	for _, s := range shards {
		st, ok, err := s.ExportDevice("nobody")
		if err != nil || ok || !reflect.DeepEqual(st, bms.DeviceState{}) {
			t.Fatalf("export of an unknown device through %T: (%+v, %v, %v), want (zero, false, nil)", s, st, ok, err)
		}
		if err := s.EvictDevice("nobody"); err != nil {
			t.Fatalf("evict of an unknown device through %T: %v", s, err)
		}
	}
	same("export/evict/install round trip", func(s fleet.Shard) (any, error) {
		st, ok, err := s.ExportDevice("crowd-004")
		if err != nil || !ok {
			return nil, errors.Join(err, errors.New("nothing exported"))
		}
		if err := s.EvictDevice("crowd-004"); err != nil {
			return nil, err
		}
		if _, held, err := s.ExportDevice("crowd-004"); err != nil || held {
			return nil, errors.Join(err, errors.New("the evicted device still exports"))
		}
		return st, s.InstallDevice(st)
	})
	reads()

	expired := same("expiry", func(s fleet.Shard) (any, error) { return s.ExpireBefore(time.Hour) })
	if got := expired.([]string); len(got) != 3 {
		t.Fatalf("the sweep named %v, want the 3 devices without a tail report", got)
	}
	reads()

	same("lease grant", func(s fleet.Shard) (any, error) {
		epoch, holder, err := s.Claim(2, "http://gw-a")
		return []any{epoch, holder}, err
	})
	same("lease renewal", func(s fleet.Shard) (any, error) {
		epoch, holder, err := s.Claim(2, "http://gw-a")
		return []any{epoch, holder}, err
	})
	for _, s := range shards {
		epoch, holder, err := s.Claim(1, "http://gw-b")
		if epoch != 2 || holder != "http://gw-a" || !errors.Is(err, transport.ErrStaleLeader) {
			t.Fatalf("outbid claim through %T: (%d, %q, %v), want (2, gw-a, stale leader)", s, epoch, holder, err)
		}
	}

	for _, s := range shards {
		s.StampEpoch(1)
		if _, ok, err := s.ExportDevice("crowd-000"); err != nil || !ok {
			t.Fatalf("export stamped below the grant through %T: (%v, %v), want the state: an export is unfenced", s, ok, err)
		}
		_, expireErr := s.ExpireBefore(2 * time.Hour)
		_, ingestErr := ingestFrame(t, s, tail)
		for what, err := range map[string]error{
			"evict":   s.EvictDevice("crowd-000"),
			"install": s.InstallDevice(bms.DeviceState{DeviceState: occupancy.DeviceState{Device: "crowd-000"}}),
			"expire":  expireErr,
			"ingest":  ingestErr,
		} {
			var stale *transport.StaleLeaderError
			if !errors.As(err, &stale) || stale.Granted != 2 {
				t.Fatalf("%s stamped below the grant through %T: %v, want *transport.StaleLeaderError at 2", what, s, err)
			}
		}
	}
	reads()
}

// TestMalformedControlReplyIsMisbehaviour: an ok reply on the shard
// stream that does not decode is the shard's protocol fault on every verb
// that decodes one — ErrShardMisbehaved, 502 at the HTTP face — never a
// plain error; so is a body on an evict, a device install or a model
// install, whose ok replies are empty, and a status the stream does not
// know.
func TestMalformedControlReplyIsMisbehaviour(t *testing.T) {
	rows := []struct {
		name   string
		script []byte
		call   func(*fleet.HTTPShard) error
	}{
		{"events", streamReply(wire.StreamOK, []byte("{")), func(h *fleet.HTTPShard) error { _, err := h.Events(); return err }},
		{"event of unknown kind", streamReply(wire.StreamOK,
			[]byte(`{"events":[{"atSeconds":1,"device":"d","kind":"teleport","room":"r"}]}`)),
			func(h *fleet.HTTPShard) error { _, err := h.Events(); return err }},
		{"devices", streamReply(wire.StreamOK, []byte("{")), func(h *fleet.HTTPShard) error { _, err := h.Devices(); return err }},
		{"expire", streamReply(wire.StreamOK, []byte("{")), func(h *fleet.HTTPShard) error { _, err := h.ExpireBefore(time.Second); return err }},
		{"export", streamReply(wire.StreamOK, []byte("{")), func(h *fleet.HTTPShard) error { _, _, err := h.ExportDevice("d"); return err }},
		{"evict", streamReply(wire.StreamOK, []byte("{")), func(h *fleet.HTTPShard) error { return h.EvictDevice("d") }},
		{"install", streamReply(wire.StreamOK, []byte{0}), func(h *fleet.HTTPShard) error { return h.InstallDevice(bms.DeviceState{}) }},
		{"model", streamReply(wire.StreamOK, []byte{0}), func(h *fleet.HTTPShard) error { return h.InstallModel(bms.ModelSnapshot{}) }},
		{"claim", streamReply(wire.StreamOK, []byte{0x80}), func(h *fleet.HTTPShard) error { _, _, err := h.Claim(1, "gw"); return err }},
		{"summary", streamReply(wire.StreamOK, []byte("{")), func(h *fleet.HTTPShard) error { _, err := h.Summary(); return err }},
		{"summary of unknown status", streamReply(9, []byte("{}")), func(h *fleet.HTTPShard) error { _, err := h.Summary(); return err }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			h, err := fleet.NewHTTPShard("http://shard-0.test", &http.Client{Transport: &hostileShardRT{script: row.script}}, transport.RetryPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			if err := row.call(h); !errors.Is(err, fleet.ErrShardMisbehaved) {
				t.Fatalf("a reply that does not decode gave %v, want ErrShardMisbehaved", err)
			}
		})
	}
}
