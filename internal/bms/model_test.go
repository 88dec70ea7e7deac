package bms

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"occusim/internal/building"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// malformedModels returns, by name, copies of the trained snapshot good
// whose model no prediction could run on. Each would install and then
// index out of range at the first report it classified.
func malformedModels(t *testing.T, good ModelSnapshot) map[string]ModelSnapshot {
	t.Helper()
	edit := func(change func(m map[string]any)) ModelSnapshot {
		var m map[string]any
		if err := json.Unmarshal(good.Model, &m); err != nil {
			t.Fatal(err)
		}
		change(m)
		blob, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return ModelSnapshot{Beacons: good.Beacons, Model: blob, Version: good.Version + 1}
	}
	pair := func(m map[string]any, i int) map[string]any { return m["pairs"].([]any)[i].(map[string]any) }
	machine := func(m map[string]any, i int) map[string]any { return pair(m, i)["machine"].(map[string]any) }
	scaler := func(m map[string]any) map[string]any { return m["scaler"].(map[string]any) }
	return map[string]ModelSnapshot{
		// The shape first seen: one pair naming class 7 of 2, its
		// machine one support vector 1 wide and no coefficient.
		"class 7 of 2": edit(func(m map[string]any) {
			m["classes"] = m["classes"].([]any)[:2]
			m["pairs"] = []any{map[string]any{"a": 0, "b": 7, "machine": map[string]any{
				"supportVectors": []any{[]any{1.0}}, "coefficients": []any{}, "bias": 0.5,
			}}}
		}),
		"one class":          edit(func(m map[string]any) { m["classes"] = m["classes"].([]any)[:1] }),
		"pair out of range":  edit(func(m map[string]any) { pair(m, 0)["b"] = 99 }),
		"pair reversed":      edit(func(m map[string]any) { pair(m, 0)["a"], pair(m, 0)["b"] = 1, 0 }),
		"coefficients short": edit(func(m map[string]any) { machine(m, 3)["coefficients"] = machine(m, 3)["coefficients"].([]any)[1:] }),
		"support vector narrow": edit(func(m map[string]any) {
			machine(m, 4)["supportVectors"].([]any)[0] = []any{1.0, 2.0}
		}),
		"std narrow":     edit(func(m map[string]any) { scaler(m)["Std"] = scaler(m)["Std"].([]any)[1:] }),
		"mean wide":      edit(func(m map[string]any) { scaler(m)["Mean"] = append(scaler(m)["Mean"].([]any), 0.0) }),
		"gamma zero":     edit(func(m map[string]any) { m["kernel"].(map[string]any)["gamma"] = 0 }),
		"gamma negative": edit(func(m map[string]any) { m["kernel"].(map[string]any)["gamma"] = -0.5 }),
	}
}

// TestModelGetInstallsByPut: the model GET /api/v1/model answers is the
// snapshot PUT /api/v1/model takes, so a model read off a trained server
// installs on a fresh one, which then classifies as the trainer does.
func TestModelGetInstallsByPut(t *testing.T) {
	trained, b := newTestServer(t)
	trainServer(t, trained, b)
	fresh, _ := newTestServer(t)
	src, dst := httptest.NewServer(trained.Handler()), httptest.NewServer(fresh.Handler())
	defer src.Close()
	defer dst.Close()

	resp, err := http.Get(src.URL + "/api/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/v1/model: %s %v", resp.Status, err)
	}
	req, _ := http.NewRequest(http.MethodPut, dst.URL+"/api/v1/model", bytes.NewReader(body))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT of the GET body answered %s: %s", resp.Status, reply)
	}
	want, _ := trained.ModelSnapshot()
	if got, ok := fresh.ModelSnapshot(); !ok || got.Version != want.Version || !bytes.Equal(got.Model, want.Model) {
		t.Fatalf("installed snapshot %v, version %d, want version %d and the trainer's model", ok, got.Version, want.Version)
	}
	rooms := map[string]bool{}
	for i := range b.Beacons {
		rep := reportNear(b, fmt.Sprintf("probe-%d", i), i, 1)
		want, err := trained.Ingest(rep)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := fresh.Ingest(rep); err != nil || got != want {
			t.Fatalf("probe %d: the installed model places it in %q (%v), the trainer in %q", i, got, err, want)
		}
		rooms[want] = true
	}
	if len(rooms) < 2 {
		t.Fatalf("vacuous: every probe landed in %v", rooms)
	}
}

// TestMalformedModelRefused: a model snapshot no prediction could run
// on is answered 400 at PUT /api/v1/model, and nothing moves — the
// server keeps its model version and keeps ingesting. A log that
// already holds such a model record (one written before the model was
// checked) is refused at open, naming the record, instead of installing
// it for the first report to panic on.
func TestMalformedModelRefused(t *testing.T) {
	s, b := newTestServer(t)
	trainServer(t, s, b)
	good, ok := s.ModelSnapshot()
	if !ok || good.Version != 1 {
		t.Fatalf("trained snapshot %v, version %d", ok, good.Version)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, snap := range malformedModels(t, good) {
		body, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/api/v1/model", bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: PUT /api/v1/model answered %s, want 400", name, resp.Status)
		}
		if _, err := s.InstallModel(snap); err == nil {
			t.Errorf("%s: InstallModel took it", name)
		}
		if now, _ := s.ModelSnapshot(); now.Version != good.Version {
			t.Fatalf("%s: the model version moved to %d", name, now.Version)
		}
		if _, err := s.IngestBatch([]transport.Report{reportNear(b, "phone-"+name, 2, 5)}); err != nil {
			t.Fatalf("%s: ingest after the refusal: %v", name, err)
		}
	}

	// The same snapshot as a record a log already holds.
	for name, snap := range malformedModels(t, good) {
		rec, err := json.Marshal(walRecord{T: recModel, Snap: &snap})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), wire.AppendLogFrame(nil, 0, rec), 0o644); err != nil {
			t.Fatal(err)
		}
		st, _ := store.New(100)
		s, err := OpenDurableServer(building.PaperHouse(), st, 2, DurableConfig{Dir: dir, Policy: store.FsyncOff})
		if err == nil {
			s.Close()
			t.Fatalf("%s: a log holding the model opened", name)
		}
		if !strings.Contains(err.Error(), "wal.log") || !strings.Contains(err.Error(), "model record") {
			t.Errorf("%s: the refusal %q does not name wal.log and the model record", name, err)
		}
	}
}
