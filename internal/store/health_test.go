package store_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/store"
)

// TestStoppedLogTakesTheShardDown: once a durable shard's log stops at
// a failed sync, every write is refused, so the shard must not answer
// healthy. Its health route answers 503 naming the failure, its
// LocalShard reports the error, and a gateway's probe marks it down.
func TestStoppedLogTakesTheShardDown(t *testing.T) {
	failSyncs := store.FailLogSyncs(t)
	st, err := store.New(100)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := bms.OpenDurableServer(building.PaperHouse(), st, 2, bms.DurableConfig{Dir: t.TempDir(), Policy: store.FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() // refuses to compact a stopped log; it still closes it
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	shard, err := fleet.NewLocalShard("shard-0", srv)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.New([]fleet.Shard{shard}, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	health := func() (int, map[string]string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/api/v1/health")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if code, body := health(); code != http.StatusOK {
		t.Fatalf("a fresh durable shard answers health %d: %v", code, body)
	}
	if err := shard.Health(); err != nil {
		t.Fatalf("a fresh durable LocalShard reports %v", err)
	}
	if _, _, err := srv.GrantLease(1, "gateway-a"); err != nil {
		t.Fatalf("a lease grant on a working log: %v", err)
	}

	failSyncs()
	if _, _, err := srv.GrantLease(2, "gateway-a"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("a lease grant over a failed sync returned %v, want EIO", err)
	}
	code, body := health()
	if code != http.StatusServiceUnavailable || body["status"] != "down" || !strings.Contains(body["error"], "failed sync") {
		t.Fatalf("a shard whose log stopped answers health %d: %v; want 503 naming the failed sync", code, body)
	}
	if err := shard.Health(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("a LocalShard whose log stopped reports %v, want EIO", err)
	}
	if sts := gw.CheckHealth(); len(sts) != 1 || !sts[0].Down || !strings.Contains(sts[0].Err, "failed sync") {
		t.Fatalf("the gateway's probe reads %+v; want the shard down for its failed sync", sts)
	}
}
