package wire

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// LayoutReader is a cursor over JSON in the one layout encoding/json
// writes: no whitespace, keys in a fixed order, strings that need no
// escape. The JSON upload door (transport.JSONUpload), the one JSON the
// system parses by hand, reads an upload on it without reflection and
// declines the first byte outside that layout to encoding/json: each
// method reports false there, and nothing it accepts is anything but
// valid JSON that encoding/json decodes to the same value.
type LayoutReader struct {
	Buf []byte // what is left
}

// Lit consumes s if the input continues with it.
func (l *LayoutReader) Lit(s string) bool {
	if len(l.Buf) < len(s) || string(l.Buf[:len(s)]) != s {
		return false
	}
	l.Buf = l.Buf[len(s):]
	return true
}

// Uint reads a non-negative JSON integer, 0|[1-9][0-9]*, that fits a
// uint64.
func (l *LayoutReader) Uint() (uint64, bool) {
	var n uint64
	i := 0
	for ; i < len(l.Buf) && '0' <= l.Buf[i] && l.Buf[i] <= '9'; i++ {
		d := uint64(l.Buf[i] - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if i == 0 || (i > 1 && l.Buf[0] == '0') {
		return 0, false
	}
	l.Buf = l.Buf[i:]
	return n, true
}

// Float reads a JSON number that parses as a finite float64 — by the
// parse encoding/json itself runs, so the bits are its bits.
func (l *LayoutReader) Float() (float64, bool) {
	start := l.Buf
	l.Lit("-")
	if !l.Lit("0") && !l.digits() {
		return 0, false
	}
	if l.Lit(".") && !l.digits() {
		return 0, false
	}
	if l.Lit("e") || l.Lit("E") {
		if !l.Lit("+") {
			l.Lit("-")
		}
		if !l.digits() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(start[:len(start)-len(l.Buf)]), 64)
	return f, err == nil
}

// digits consumes one or more decimal digits.
func (l *LayoutReader) digits() bool {
	i := 0
	for i < len(l.Buf) && '0' <= l.Buf[i] && l.Buf[i] <= '9' {
		i++
	}
	l.Buf = l.Buf[i:]
	return i > 0
}

// Str reads a string with no escape and no control byte that is valid
// UTF-8 — the form encoding/json writes every string in that needs no
// escaping, and whose bytes it decodes to as they are — and returns
// those bytes, a view into the input.
func (l *LayoutReader) Str() ([]byte, bool) {
	if !l.Lit(`"`) {
		return nil, false
	}
	ascii := true
	for i, c := range l.Buf {
		switch {
		case c == '"':
			raw := l.Buf[:i]
			if !ascii && !utf8.Valid(raw) {
				return nil, false
			}
			l.Buf = l.Buf[i+1:]
			return raw, true
		case c < ' ' || c == '\\':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}
