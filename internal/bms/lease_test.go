package bms

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"occusim/internal/occupancy"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

func TestGrantLeaseRules(t *testing.T) {
	s, _ := newTestServer(t)

	if _, _, err := s.GrantLease(0, "gwA"); err == nil {
		t.Fatal("epoch 0 claim must be rejected (0 means unfenced)")
	}

	granted, holder, err := s.GrantLease(1, "gwA")
	if err != nil || granted != 1 || holder != "gwA" {
		t.Fatalf("first claim: granted=%d holder=%q err=%v", granted, holder, err)
	}

	// Same epoch, same holder: a renewal.
	if _, _, err := s.GrantLease(1, "gwA"); err != nil {
		t.Fatalf("renewal rejected: %v", err)
	}

	// Same epoch, different holder: the epoch is already won — this
	// shard must not count toward two quorums at one epoch.
	granted, holder, err = s.GrantLease(1, "gwB")
	if !errors.Is(err, transport.ErrStaleLeader) {
		t.Fatalf("competing claim at same epoch: err=%v", err)
	}
	if granted != 1 || holder != "gwA" {
		t.Fatalf("rejection should report the winning grant, got %d/%q", granted, holder)
	}

	// Higher epoch deposes the old holder.
	if granted, holder, err = s.GrantLease(3, "gwB"); err != nil || granted != 3 || holder != "gwB" {
		t.Fatalf("higher claim: granted=%d holder=%q err=%v", granted, holder, err)
	}

	// Lower epoch is the zombie bidding below the grant.
	var stale *transport.StaleLeaderError
	if _, _, err = s.GrantLease(2, "gwA"); !errors.As(err, &stale) {
		t.Fatalf("stale claim: err=%v", err)
	}
	if stale.Granted != 3 || stale.Leader != "gwB" {
		t.Fatalf("stale detail = %d/%q", stale.Granted, stale.Leader)
	}
}

// ingestFenced sends one report as the fenced batch of one it is.
func ingestFenced(s *Server, gwEpoch uint64, r transport.Report) ([]string, error) {
	return s.ingestReports(gwEpoch, []transport.Report{r})
}

func TestFencedWritesRejectStaleEpoch(t *testing.T) {
	s, b := newTestServer(t)
	if _, _, err := s.GrantLease(2, "gwB"); err != nil {
		t.Fatal(err)
	}

	rep := reportNear(b, "phone", 0, 1)
	if _, err := ingestFenced(s, 1, rep); !errors.Is(err, transport.ErrStaleLeader) {
		t.Fatalf("stale ingest: err=%v", err)
	}
	if err := s.EvictDevice(1, "phone"); !errors.Is(err, transport.ErrStaleLeader) {
		t.Fatalf("stale evict: err=%v", err)
	}
	if err := s.InstallDevice(1, DeviceState{DeviceState: occupancy.DeviceState{Device: "phone"}, Epoch: 1, Seq: 1}); !errors.Is(err, transport.ErrStaleLeader) {
		t.Fatalf("stale install: err=%v", err)
	}
	if _, err := s.ExpireBefore(1, 0); !errors.Is(err, transport.ErrStaleLeader) {
		t.Fatalf("stale expire: err=%v", err)
	}
	if _, err := s.ingestReports(1, []transport.Report{rep}); !errors.Is(err, transport.ErrStaleLeader) {
		t.Fatalf("stale batch: err=%v", err)
	}
	if snap := s.Occupancy(); len(snap.Devices) != 0 {
		t.Fatalf("fenced writes mutated state: %+v", snap)
	}

	// Epoch 0 stays unfenced (legacy single-server clients), and the
	// granted epoch itself is admitted.
	if _, err := ingestFenced(s, 0, rep); err != nil {
		t.Fatalf("unfenced ingest: %v", err)
	}
	if _, err := ingestFenced(s, 2, reportNear(b, "phone", 1, 2)); err != nil {
		t.Fatalf("current-epoch ingest: %v", err)
	}

	// A write above the grant is proof of newer leadership: the grant
	// advances (fencing is monotone on every shard, not just the claim
	// quorum), with the holder unknown until an explicit claim.
	if _, err := ingestFenced(s, 5, reportNear(b, "phone", 2, 3)); err != nil {
		t.Fatalf("higher-epoch ingest: %v", err)
	}
	if epoch, holder := s.GrantedLease(); epoch != 5 || holder != "" {
		t.Fatalf("grant after write-implied advance = %d/%q", epoch, holder)
	}
	if _, err := ingestFenced(s, 2, rep); !errors.Is(err, transport.ErrStaleLeader) {
		t.Fatal("old epoch must be fenced after write-implied advance")
	}
}

// TestLeaseSurvivesKillAndCompaction pins the durability contract: the
// grant must hold across a kill -9 (WAL replay), across a clean close
// (snapshot restore), and when it advanced through a stamped write
// rather than an explicit claim.
func TestLeaseSurvivesKillAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s1, b := openDurable(t, dir, store.FsyncOff)
	if _, _, err := s1.GrantLease(7, "http://gwA"); err != nil {
		t.Fatal(err)
	}
	// No Close: the crash. WAL replay must restore the grant.
	s2, _ := openDurable(t, dir, store.FsyncOff)
	if epoch, holder := s2.GrantedLease(); epoch != 7 || holder != "http://gwA" {
		t.Fatalf("grant after kill = %d/%q", epoch, holder)
	}
	if _, err := ingestFenced(s2, 6, reportNear(b, "phone", 0, 1)); !errors.Is(err, transport.ErrStaleLeader) {
		t.Fatal("recovered shard must still fence deposed epochs")
	}

	// Write-implied advance, then compaction: the grant must ride the
	// snapshot, not just the (now reclaimed) log.
	if _, err := ingestFenced(s2, 9, reportNear(b, "phone", 0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, _ := openDurable(t, dir, store.FsyncOff)
	defer s3.Close()
	if epoch, _ := s3.GrantedLease(); epoch != 9 {
		t.Fatalf("grant after compaction = %d", epoch)
	}
}

func TestLeaseHTTPFace(t *testing.T) {
	s, b := newTestServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	conn, br, _ := upgradeStream(t, srv)
	claim := func(epoch uint64, leader string) (byte, []byte) {
		t.Helper()
		return shardCall(t, conn, br, wire.StreamClaim, 0, append(binary.AppendUvarint(nil, epoch), leader...))
	}

	status, reply := claim(1, "http://gwA")
	granted, n := binary.Uvarint(reply)
	if status != wire.StreamOK || n <= 0 || granted != 1 || string(reply[n:]) != "http://gwA" {
		t.Fatalf("claim answered status %d % x, want ok with grant 1 to gwA", status, reply)
	}

	// A competing claim answers stale with the grant it lost to and the
	// holder, which the gateway reads as the 409's lease headers.
	status, reply = claim(1, "http://gwB")
	if status != wire.StreamStale || binary.LittleEndian.Uint64(reply) != 1 || string(reply[8:]) != "http://gwA" {
		t.Fatalf("competing claim answered status %d % x, want stale with grant 1 and gwA", status, reply)
	}

	// The POST door takes no leadership stamp: devices never sent one, and
	// a gateway's writes ride the stream.
	if _, _, err := s.GrantLease(3, "http://gwB"); err != nil {
		t.Fatal(err)
	}
	obs, _ := json.Marshal(reportNear(b, "phone", 0, 1))
	resp, err := http.Post(srv.URL+"/api/v1/observations", "application/json", bytes.NewReader(obs))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observation status = %d", resp.StatusCode)
	}

	// GET /api/v1/lease reports the grant.
	resp, err = http.Get(srv.URL + "/api/v1/lease")
	if err != nil {
		t.Fatal(err)
	}
	var grant struct {
		Granted uint64 `json:"granted"`
		Holder  string `json:"holder"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&grant); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if grant.Granted != 3 || grant.Holder != "http://gwB" {
		t.Fatalf("lease view = %+v", grant)
	}
}
