// The JSON ingest ack: {"rooms":[…]} for a batch route, {"room":…} for a
// single-report one, appended into a pooled buffer instead of reflected
// out of a map. The bytes are json.Encoder's own — its HTML-safe string
// escaping, its trailing newline — so a client cannot tell which wrote
// them; ack_test.go pins that against the encoder. The fleet gateway's
// JSON routes answer through the same function.
package bms

import (
	"net/http"
	"unicode/utf8"

	"occusim/internal/wire"
)

// jsonContentType is the JSON ack's header value, shared by every
// response that carries one (net/http does not write to it).
var jsonContentType = []string{"application/json"}

// WriteJSONAck answers 200 to a JSON upload with the predicted rooms, in
// upload order: the array on a batch route (no rooms is an empty array),
// the one report's room otherwise.
func WriteJSONAck(w http.ResponseWriter, rooms []string, batch bool) {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	if batch {
		*buf = appendRoomsAck((*buf)[:0], rooms)
	} else {
		*buf = append(appendJSONString(append((*buf)[:0], `{"room":`...), rooms[0]), "}\n"...)
	}
	w.Header()["Content-Type"] = jsonContentType
	_, _ = w.Write(*buf)
}

func appendRoomsAck(dst []byte, rooms []string) []byte {
	dst = append(dst, `{"rooms":[`...)
	for i, room := range rooms {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, room)
	}
	return append(dst, "]}\n"...)
}

// appendJSONString appends s as encoding/json encodes a string with HTML
// escaping on (the Encoder's default): control characters, the quote and
// the backslash escaped, '<', '>' and '&' as \u00XX, U+2028 and U+2029 as
// \u202X, and each byte of invalid UTF-8 as the six characters \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
