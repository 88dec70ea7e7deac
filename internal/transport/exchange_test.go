package transport

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"occusim/internal/raceflag"
	"occusim/internal/wire"
)

// wireHeader is the request header set of a frame POSTed to a wire door.
var wireHeader = http.Header{"Content-Type": {wire.ContentType}}

// scriptedRT is a RoundTripper that answers from a script of status
// codes (the last one repeating), records every request body it was
// handed in full, and serves a preallocated response so that it adds no
// allocations of its own to a pin.
type scriptedRT struct {
	codes  []int
	header http.Header
	ack    []byte

	calls  int
	bodies [][]byte
	quiet  bool // skip the recording (allocation pins)

	resp http.Response
	rd   bytes.Reader
}

func (rt *scriptedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	code := rt.codes[min(rt.calls, len(rt.codes)-1)]
	rt.calls++
	if req.Body != nil {
		if rt.quiet {
			_, _ = io.Copy(io.Discard, req.Body)
		} else {
			body, err := io.ReadAll(req.Body)
			if err != nil {
				return nil, err
			}
			rt.bodies = append(rt.bodies, body)
		}
		req.Body.Close()
	}
	rt.rd.Reset(rt.ack)
	rt.resp = http.Response{
		StatusCode: code, Status: fmt.Sprintf("%d %s", code, http.StatusText(code)),
		Header: rt.header, Body: io.NopCloser(&rt.rd), ContentLength: int64(len(rt.ack)),
		Request: req,
	}
	return &rt.resp, nil
}

// TestRetryResendsTheWholeBody drives two attempts through a counting
// RoundTripper: with the request built once per attempt, the second
// attempt after a 5xx or a 429 must carry the full frame again — not a
// reader the first attempt drained — and a 409 must come back at once,
// unretried, with its leader hint.
func TestRetryResendsTheWholeBody(t *testing.T) {
	frame := bytes.Repeat([]byte("frame-bytes."), 200)
	for _, first := range []int{http.StatusServiceUnavailable, http.StatusTooManyRequests} {
		rt := &scriptedRT{codes: []int{first, http.StatusOK}, header: http.Header{"Retry-After": {"0"}}, ack: []byte("ack")}
		rec := &sleepRecorder{}
		payload, err := DoJSONHeaders(&http.Client{Transport: rt}, http.MethodPost, "http://shard.test/api/v1/observations:batch",
			frame, wireHeader, retryPolicy(rec, 3))
		if err != nil || string(payload) != "ack" {
			t.Fatalf("after a %d: payload %q, err %v", first, payload, err)
		}
		if rt.calls != 2 || len(rec.delays) != 1 {
			t.Fatalf("after a %d: %d attempts, %d sleeps; want 2 and 1", first, rt.calls, len(rec.delays))
		}
		for i, body := range rt.bodies {
			if !bytes.Equal(body, frame) {
				t.Fatalf("after a %d: attempt %d carried %d of %d body bytes", first, i+1, len(body), len(frame))
			}
		}
	}

	rt := &scriptedRT{codes: []int{http.StatusConflict}, ack: []byte(`{"error":"stale leader"}`),
		header: http.Header{HeaderLeaderHint: {"http://gateway-b.test"}, HeaderLeaderEpoch: {"7"}}}
	rec := &sleepRecorder{}
	_, err := DoJSONHeaders(&http.Client{Transport: rt}, http.MethodPost, "http://gateway-a.test/x", frame, nil, retryPolicy(rec, 4))
	if v := Classify(err); v.Code != http.StatusConflict || v.Leader != "http://gateway-b.test" || v.Granted != 7 {
		t.Fatalf("409 came back as %+v: %v", v, err)
	}
	if rt.calls != 1 || len(rec.delays) != 0 {
		t.Fatalf("a 409 took %d attempts and %d sleeps; want 1 and 0", rt.calls, len(rec.delays))
	}
	if !strings.Contains(err.Error(), "stale leader") {
		t.Fatalf("the rejection lost its body: %v", err)
	}
}

// TestMalformedURLFailsBeforeAnyAttempt: a URL that cannot be parsed
// fails identically on every attempt, so it must fail before the first
// one — no exchange, no backoff.
func TestMalformedURLFailsBeforeAnyAttempt(t *testing.T) {
	rt := &scriptedRT{codes: []int{http.StatusOK}}
	rec := &sleepRecorder{}
	client := &http.Client{Transport: rt}
	if _, err := DoJSONHeaders(client, http.MethodPost, "http://bad host/%zz", []byte(`{}`), nil, retryPolicy(rec, 4)); err == nil {
		t.Fatal("a malformed URL was accepted")
	}
	u := &HTTPUplink{BaseURL: "http://bad host/%zz", Client: client, Retry: retryPolicy(rec, 4), Codec: CodecBinary}
	if err := u.SendBatch(wireReports(3)); err == nil {
		t.Fatal("an uplink with a malformed base URL sent a batch")
	}
	if rt.calls != 0 || len(rec.delays) != 0 {
		t.Fatalf("malformed URL: %d exchanges, %d sleeps; want none", rt.calls, len(rec.delays))
	}
}

// The allocation budget of the device side (PERF.md "What changed
// (PR 13)"); `make allocs` runs these.

// budgetBatch is the paper's upload: 11 reports of 6 beacons each.
func budgetBatch() []Report {
	reports := make([]Report, 11)
	for i := range reports {
		reports[i] = Report{Device: "phone-7", AtSeconds: float64(2 * i), Epoch: 1, Seq: uint64(i + 1)}
		for k := 0; k < 6; k++ {
			reports[i].Beacons = append(reports[i].Beacons, BeaconReport{
				ID: fmt.Sprintf("b9407f30-f5f8-466e-aff9-25556b57fe6d/1/%d", k+1), Distance: 1.5 + float64(k), RSSI: -60,
			})
		}
	}
	return reports
}

func TestAllocBudgetEncodeReports(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	reports := budgetBatch()
	b := wire.GetBatch()
	defer wire.PutBatch(b)
	encode := func() {
		b.Reset()
		if err := EncodeReports(b, reports); err != nil {
			t.Fatal(err)
		}
	}
	encode() // grow the batch's columns
	if n := testing.AllocsPerRun(100, encode); n != 0 {
		t.Fatalf("EncodeReports allocates %v times per 11×6 batch, budget 0", n)
	}
}

func TestAllocBudgetExchange(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	rt := &scriptedRT{codes: []int{http.StatusOK}, ack: []byte("\x0b\x07kitchen"), quiet: true}
	client := &http.Client{Transport: rt}
	frame := bytes.Repeat([]byte{0xab}, 2600)
	target, err := NewTarget(http.MethodPost, "http://shard.test/api/v1/observations:batch", wireHeader)
	if err != nil {
		t.Fatal(err)
	}

	// What net/http's Client.Do costs on the same request already built
	// (same header set, same in-memory body): not ours, and subtracted
	// below.
	var rd bytes.Reader
	req, err := http.NewRequest(http.MethodPost, "http://shard.test/api/v1/observations:batch", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header, req.Body, req.ContentLength = wireHeader, io.NopCloser(&rd), int64(len(frame))
	clientDo := testing.AllocsPerRun(100, func() {
		rd.Reset(frame)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	})

	// The hot path: a prepared target and a pooled ack buffer.
	ack := wire.GetBuf()
	defer wire.PutBuf(ack)
	prepared := testing.AllocsPerRun(100, func() {
		if _, err := target.Do(client, frame, RetryPolicy{}, ack); err != nil {
			t.Fatal(err)
		}
	})
	if ours := prepared - clientDo; ours > 3 {
		t.Errorf("a prepared exchange allocates %v times outside Client.Do (%v with it), budget 3", ours, prepared)
	}

	// The general entry point parses its URL and returns a payload the
	// caller owns.
	general := testing.AllocsPerRun(100, func() {
		if _, err := DoJSONHeaders(client, http.MethodPost, "http://shard.test/api/v1/observations:batch", frame, wireHeader, RetryPolicy{}); err != nil {
			t.Fatal(err)
		}
	})
	if ours := general - clientDo; ours > 5 {
		t.Errorf("DoJSONHeaders allocates %v times outside Client.Do (%v with it), budget 5", ours, general)
	}
}
