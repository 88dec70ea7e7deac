package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

func TestRoomsAckRoundTrip(t *testing.T) {
	names := []string{"kitchen", "", "living room", "outside", "spálňa"}
	rnd := rand.New(rand.NewSource(13))
	in := Interner{}
	for trial := 0; trial < 200; trial++ {
		rooms := make([]string, rnd.Intn(40))
		for i := range rooms {
			if i > 0 && rnd.Intn(3) > 0 {
				rooms[i] = rooms[i-1] // a device mostly stays where it is
			} else {
				rooms[i] = names[rnd.Intn(len(names))]
			}
		}
		ack := AppendRooms(nil, rooms)
		rd := Reader{Buf: ack}
		got := rd.Rooms(len(rooms), nil, in)
		if rd.Short || len(got) != len(rooms) {
			t.Fatalf("rooms %q: decoded %q (short=%v)", rooms, got, rd.Short)
		}
		for i := range rooms {
			if got[i] != rooms[i] {
				t.Fatalf("rooms %q: decoded %q", rooms, got)
			}
		}
	}
	// A run costs its header once, however long it is: the ack of an
	// 11-report batch from a device that stayed put.
	stay := make([]string, 11)
	for i := range stay {
		stay[i] = "kitchen"
	}
	if ack := AppendRooms(nil, stay); len(ack) != 1+1+len("kitchen") {
		t.Fatalf("11 × kitchen encodes to %d bytes, want one 9-byte run", len(ack))
	}
	if len(in) > len(names) {
		t.Fatalf("interner holds %d names for %d distinct rooms", len(in), len(names))
	}
}

func TestRoomsAckRejectsMalformed(t *testing.T) {
	ack := AppendRooms(nil, []string{"a", "a", "b"})
	for cut := 1; cut < len(ack); cut++ {
		rd := Reader{Buf: ack[:cut]}
		if got := rd.Rooms(3, nil, Interner{}); !rd.Short && len(got) == 3 {
			t.Fatalf("truncation at %d of %d decoded all three rooms", cut, len(ack))
		}
	}
	for name, tc := range map[string]struct {
		ack   []byte
		limit int
	}{
		"one room too many":  {ack, 2},
		"zero run":           {[]byte{0, 1, 'a'}, 3},
		"run past the limit": {[]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 'a'}, 3},
		"name past the end":  {[]byte{1, 9, 'a'}, 3},
	} {
		rd := Reader{Buf: tc.ack}
		if got := rd.Rooms(tc.limit, nil, Interner{}); !rd.Short || len(got) > tc.limit {
			t.Errorf("%s: decoded %q without setting Short", name, got)
		}
	}
	// An empty ack is the ack of an empty batch.
	rd := Reader{}
	if got := rd.Rooms(0, nil, Interner{}); rd.Short || len(got) != 0 {
		t.Fatalf("empty ack decoded to %q (short=%v)", got, rd.Short)
	}
}

func TestInternerIsBounded(t *testing.T) {
	in := Interner{}
	for i := 0; i < maxInterned+100; i++ {
		name := []byte{byte(i), byte(i >> 8), 'x'}
		if got := in.Get(name); got != string(name) {
			t.Fatalf("Get(%q) = %q", name, got)
		}
	}
	if len(in) != maxInterned {
		t.Fatalf("interner grew to %d entries, bound is %d", len(in), maxInterned)
	}
}

// FuzzRoomsAck holds the ack decoder to its contract on arbitrary bytes:
// never panic, never hand out more rooms than the limit however long a
// run claims to be, and whatever decodes cleanly re-encodes to an ack
// that decodes to the same rooms.
func FuzzRoomsAck(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add(AppendRooms(nil, []string{"kitchen", "kitchen", "hall"}), 3)
	f.Add(AppendRooms(nil, []string{"", "", ""}), 3)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 'a'}, 11)
	f.Add([]byte{0, 0}, 1)
	f.Fuzz(func(t *testing.T, ack []byte, limit int) {
		if limit < 0 || limit > 1<<16 {
			return
		}
		in := Interner{}
		rd := Reader{Buf: ack}
		rooms := rd.Rooms(limit, nil, in)
		if len(rooms) > limit {
			t.Fatalf("decoded %d rooms past the limit %d", len(rooms), limit)
		}
		if rd.Short {
			return
		}
		again := Reader{Buf: AppendRooms(nil, rooms)}
		if got := again.Rooms(len(rooms), nil, in); again.Short || !reflect.DeepEqual(got, rooms) {
			t.Fatalf("re-encoded ack decodes to %q, want %q", got, rooms)
		}
	})
}

func TestReadBody(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 300) // 4800 bytes
	for name, tc := range map[string]struct {
		r    io.Reader
		size int64
	}{
		"announced":         {bytes.NewReader(payload), int64(len(payload))},
		"unknown length":    {bytes.NewReader(payload), -1},
		"one byte a read":   {iotest.OneByteReader(bytes.NewReader(payload)), int64(len(payload))},
		"data with the EOF": {iotest.DataErrReader(bytes.NewReader(payload)), -1},
	} {
		buf := make([]byte, 0, 64)
		got, err := ReadBody(tc.r, tc.size, MaxBodyBytes, &buf)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: read %d bytes, err %v", name, len(got), err)
		}
		if &got[0] != &buf[0] {
			t.Fatalf("%s: the result is not a view of *dst", name)
		}
		if tc.size > 0 && cap(buf) != len(payload)+1 {
			t.Fatalf("%s: buffer grew to %d for an announced %d", name, cap(buf), len(payload))
		}
	}

	// A buffer that is big enough is reused as it is.
	buf := make([]byte, 0, 8192)
	got, err := ReadBody(bytes.NewReader(payload), int64(len(payload)), MaxBodyBytes, &buf)
	if err != nil || cap(got) != 8192 {
		t.Fatalf("reuse: cap %d, err %v", cap(got), err)
	}

	// Past the limit: refused on the announcement alone, and on the bytes
	// when the announcement lied or was missing — without buffering more
	// than a doubling past the limit.
	var small []byte
	if _, err := ReadBody(strings.NewReader("never read"), 101, 100, &small); !errors.Is(err, ErrBodyTooLarge) || cap(small) != 0 {
		t.Fatalf("announced 101 > 100: err %v, buffered %d", err, cap(small))
	}
	endless := iotest.OneByteReader(zeros{})
	if _, err := ReadBody(endless, -1, 1000, &small); !errors.Is(err, ErrBodyTooLarge) || cap(small) > 4096 {
		t.Fatalf("endless body: err %v, buffered %d", err, cap(small))
	}
	boom := errors.New("boom")
	if _, err := ReadBody(iotest.ErrReader(boom), -1, 100, &small); !errors.Is(err, boom) {
		t.Fatalf("read error came back as %v", err)
	}
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) { clear(p); return len(p), nil }

// TestStreamReplyBound: a reply is held to the request bound. One that
// announces a body past MaxBodyBytes — by one byte, or by the most a
// length can say — is refused on the announcement, before any of it is
// buffered.
func TestStreamReplyBound(t *testing.T) {
	for _, n := range []uint32{MaxBodyBytes + 2, 1<<32 - 1} {
		var buf []byte
		envelope := binary.LittleEndian.AppendUint32(nil, n)
		if _, _, err := ReadStreamReply(bufio.NewReader(bytes.NewReader(append(envelope, StreamOK))), &buf); !errors.Is(err, ErrBadEnvelope) || cap(buf) != 0 {
			t.Fatalf("a reply of %d bytes read as %v, buffering %d", n, err, cap(buf))
		}
	}
	var buf []byte
	reply := append(BeginStreamReply(nil, StreamOK), "ack"...)
	EndStreamReply(reply)
	if status, body, err := ReadStreamReply(bufio.NewReader(bytes.NewReader(reply)), &buf); err != nil || status != StreamOK || string(body) != "ack" {
		t.Fatalf("a small reply read as (%d, %q, %v)", status, body, err)
	}
}
