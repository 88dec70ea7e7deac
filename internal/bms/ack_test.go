package bms

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// encoded is what the acks were before they were appended by hand: the
// value through json.Encoder, HTML escaping and trailing newline included.
func encoded(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJSONAckBytesAreTheEncoders pins the hand-appended ingest acks to the
// bytes json.Encoder writes for the maps they replaced, over room names no
// building has: a client that parsed the old ack parses this one, byte for
// byte.
func TestJSONAckBytesAreTheEncoders(t *testing.T) {
	hostile := []string{
		"", "kitchen", "<script>", "a&b", `say "hi"`, `back\slash`, "line\u2028sep", "para\u2029sep",
		"\xff", "caf\xc3", "\xe2\x80", "tab\there", "nul\x00", "\b\f\n\r", "\x7f", "日本語", "é", "\U0001F600", "\xed\xa0\x80",
	}
	for c := 0; c < 256; c++ {
		hostile = append(hostile, "x"+string([]byte{byte(c)})+"y")
	}
	for _, room := range hostile {
		if got, want := appendRoomsAck(nil, []string{room}), encoded(t, map[string]any{"rooms": []string{room}}); !bytes.Equal(got, want) {
			t.Errorf("rooms ack for %q is %q, the encoder writes %q", room, got, want)
		}
	}
	if got, want := appendRoomsAck(nil, hostile), encoded(t, map[string]any{"rooms": hostile}); !bytes.Equal(got, want) {
		t.Errorf("the ack of all of them together is %q, the encoder writes %q", got, want)
	}
	for _, none := range [][]string{nil, {}} {
		if got := appendRoomsAck(nil, none); string(got) != "{\"rooms\":[]}\n" {
			t.Errorf("no rooms are acknowledged %q, want an empty array", got)
		}
	}

	// Through the writers: same bytes, the JSON content type, 200.
	for _, room := range hostile[:20] {
		rec := httptest.NewRecorder()
		WriteJSONAck(rec, []string{room}, false)
		if want := encoded(t, map[string]string{"room": room}); rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) ||
			rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("single ack for %q: %d %q %q, the encoder writes %q", room, rec.Code, rec.Header().Get("Content-Type"), rec.Body, want)
		}
	}
	rec := httptest.NewRecorder()
	WriteJSONAck(rec, hostile[:20], true)
	if want := encoded(t, map[string]any{"rooms": hostile[:20]}); rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) ||
		rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("batch ack: %d %q %q, the encoder writes %q", rec.Code, rec.Header().Get("Content-Type"), rec.Body, want)
	}
}
