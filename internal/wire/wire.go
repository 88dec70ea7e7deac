// Package wire is the binary wire protocol for device report batches —
// the length-prefixed, CRC-checked frame format devices, gateways and
// shards exchange instead of JSON on the hot ingest path.
//
// A frame is:
//
//	[0]    version byte (Version)
//	[1:5]  u32 LE payload length
//	[5:9]  u32 CRC32-C of the rest of the frame
//	[9:…]  payload
//
// A write-ahead-log frame (LogVersion) is the same header followed by
// a u64 LE compaction generation, then the payload; the checksum covers
// both. One scanner, one checksum and one tail contract serve uploads,
// the store's logs and its snapshot sections.
//
// The batch payload is a u32 LE report count, then per report a device
// name, the 8 raw bytes of the float64 report time (NaN/Inf-safe — no
// text round-trip), uvarint epoch and sequence stamps, a uvarint beacon
// count, and the beacons. A payload names each thing once (Coder):
//
//   - the first report's device name is uvarint(len) + bytes; every later
//     report's is uvarint(len+1) + bytes, where 0 means "the device of the
//     previous report of this payload";
//   - a beacon opens with a one-byte ref: 0 means a 20-byte identity
//     follows (16-byte UUID, u16 LE major, u16 LE minor) and, while the
//     payload's table holds fewer than 255, becomes its next entry;
//     r ≥ 1 means entry r of that table. The raw float64 bits of distance
//     and RSSI follow either way, so a beacon is 17 or 37 bytes.
//
// Identities travel as parsed binary, so the receiving side never
// re-parses the "UUID/major/minor" string form, and every float64 keeps
// its bits. The encoder's bytes are a function of the report sequence
// alone: a frame a device pre-split, one the gateway cut and one rendered
// from the JSON door are byte-identical. A decoder accepts any stream the
// grammar admits (a repeated literal, like a non-minimal uvarint, decodes
// to the same batch); only the decoded batch is contract. The shard's
// observation log record is this payload verbatim, and its snapshot's
// device sections code their beacons through the same Coder.
//
// Decode fills a struct-of-arrays Batch (PR 3 ble-stage style) whose
// slices are reused across frames via a sync.Pool; device names are
// interned per Batch so a steady-state decode of a chatty fleet
// allocates nothing.
//
// The frame scanner is the WAL's recovery scanner: a stream is a valid
// prefix of whole frames, then either a torn tail (truncated mid-frame,
// or a damaged frame with nothing but preallocated zeros behind its
// header: not an error, the prefix stands) or corruption (bad version,
// oversized length, CRC mismatch with real data after it: a loud
// error). HTTP faces additionally require the valid prefix to cover
// the whole body.
//
// Pre-split uploads concatenate sections, each a uvarint-length shard
// name followed by one frame, so a gateway whose ring digest matches
// the device's can forward each frame verbatim to its shard without
// decoding a single beacon.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"io"
	"math"
	"strings"
	"sync"

	"occusim/internal/ibeacon"
)

// Version is the upload frame's version byte (0x02 is LogVersion). A
// decoder rejects frames with any other version byte, which is how the
// format evolves: the byte moves with the payload's form, and what it
// replaced is refused by name, never misread.
const Version = 0x03

// LogVersion is the write-ahead-log frame's version byte: its header
// carries the compaction generation between the checksum and the
// payload (see AppendLogFrame).
const LogVersion = 0x02

// ContentType marks a wire frame — or pre-split sections of frames — that
// is POSTed to the batch route, and a wire ack. Devices send theirs on the
// upload stream (UplinkPath) instead.
const ContentType = "application/x-occusim-wire"

// AckContentType is ContentType as a ready header value, shared by every
// wire ack: net/http reads header values, it never writes to them.
var AckContentType = []string{ContentType}

// IsContentType reports whether a Content-Type header value names the
// binary codec (a wire frame, or pre-split sections of them).
func IsContentType(header string) bool {
	return header == ContentType || strings.HasPrefix(header, ContentType+";")
}

// HeaderRingDigest carries the ring digest a POSTed upload's sections were
// split against — on the upload stream the envelope's stamp carries it.
const HeaderRingDigest = "X-Ring-Digest"

// MaxFramePayload bounds one frame's payload (64 MiB): far above any
// real batch, low enough that a corrupt length prefix cannot drive an
// allocation.
const MaxFramePayload = 1 << 26

// frameHeaderLen is version + length + CRC.
const frameHeaderLen = 1 + 4 + 4

// LogFrameHeaderLen is a log frame's fixed prefix: the upload header
// plus the generation word.
const LogFrameHeaderLen = frameHeaderLen + 8

// identLen is a literal beacon identity: UUID + major + minor.
const identLen = 16 + 2 + 2

// MinBeaconLen is the smallest beacon encoding, a back reference: ref
// byte + distance bits + RSSI bits. A literal is identLen longer. The
// beacon count guards divide by it.
const MinBeaconLen = 1 + 8 + 8

// maxIdents bounds a payload's identity table: a ref is one byte and 0
// is the literal.
const maxIdents = 255

// minReportWire is the smallest possible per-report encoding (a repeated
// or empty device name, the time, zero stamps, no beacons); the count
// guard divides by it.
const minReportWire = 1 + 8 + 1 + 1 + 1

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errBadRef rejects a payload one of whose beacons refers to an identity
// the payload has not named yet.
var errBadRef = errors.New("wire: beacon reference past the payload's identity table")

// ErrShortFrame marks a frame truncated mid-payload — a torn tail the
// scanner stops cleanly at, or a short HTTP body the ingest face 400s.
var ErrShortFrame = fmt.Errorf("wire: truncated frame")

// Beacon is one sighted beacon: parsed identity plus the estimated
// distance and filtered RSSI, exactly transport.BeaconReport with the
// identity in binary.
type Beacon struct {
	ID             ibeacon.BeaconID
	Distance, RSSI float64
}

// Batch is a decoded report batch in struct-of-arrays form: column i
// of each slice is report i, and ReportBeacons(i) is its beacon span
// in the shared Beacons backing array. Append with AddReport and
// AddBeacon; reuse across frames via Reset (or the package pool).
type Batch struct {
	Devices []string
	At      []float64 // report times, seconds on the building clock
	Epoch   []uint64
	Seq     []uint64
	Beacons []Beacon

	// beaconOff[i] is report i's first index into Beacons; report i's
	// span ends at beaconOff[i+1] (or len(Beacons) for the last).
	beaconOff []int32

	// intern canonicalises decoded device names, so steady-state decodes
	// of a recurring device population allocate no name strings. Survives
	// Reset on purpose.
	intern Interner

	// coder is the back-reference state of the payload this batch is being
	// decoded from or encoded into — fixed size, so neither costs a frame
	// an allocation. Encoding therefore writes to the batch's scratch: one
	// batch is not encoded from two goroutines at once.
	coder Coder
}

// Len returns the report count.
func (b *Batch) Len() int { return len(b.Devices) }

// Reset empties the batch, keeping capacity and the intern table.
func (b *Batch) Reset() {
	b.Devices = b.Devices[:0]
	b.At = b.At[:0]
	b.Epoch = b.Epoch[:0]
	b.Seq = b.Seq[:0]
	b.Beacons = b.Beacons[:0]
	b.beaconOff = b.beaconOff[:0]
}

// AddReport appends a report column; its beacons follow via AddBeacon.
func (b *Batch) AddReport(device string, at float64, epoch, seq uint64) {
	b.Devices = append(b.Devices, device)
	b.At = append(b.At, at)
	b.Epoch = append(b.Epoch, epoch)
	b.Seq = append(b.Seq, seq)
	b.beaconOff = append(b.beaconOff, int32(len(b.Beacons)))
}

// Intern returns the batch's canonical string for a device name still
// sitting in a decode buffer — a frame's, or a JSON door's — so a
// recurring device costs a decode no string.
func (b *Batch) Intern(device []byte) string {
	if b.intern == nil {
		b.intern = make(Interner, 64)
	}
	return b.intern.Get(device)
}

// AddBeacon appends one beacon to the most recently added report.
func (b *Batch) AddBeacon(bc Beacon) {
	b.Beacons = append(b.Beacons, bc)
}

// ReportBeacons returns report i's beacon span (a view into the shared
// backing array, valid until the next Reset).
func (b *Batch) ReportBeacons(i int) []Beacon {
	start := b.beaconOff[i]
	end := int32(len(b.Beacons))
	if i+1 < len(b.beaconOff) {
		end = b.beaconOff[i+1]
	}
	return b.Beacons[start:end]
}

// Check holds every report of an upload to what an ingest door takes
// before it takes any of it: a device name, and a time, distances and
// RSSIs that are finite numbers — JSON has no token for NaN or an
// infinity, so a frame may not carry one either. The error names the
// first report refused. A log's records were checked when they were
// taken; replay does not check them again.
func (b *Batch) Check() error {
	for i, device := range b.Devices {
		err := checkFinite("time", b.At[i])
		if device == "" {
			err = errors.New("report without device")
		}
		for _, bc := range b.ReportBeacons(i) {
			if err != nil {
				break
			}
			err = checkBeacon(bc.Distance, bc.RSSI)
		}
		if err != nil {
			return fmt.Errorf("report %d: %w", i, err)
		}
	}
	return nil
}

// checkFinite refuses a number that is NaN or infinite, naming what it is.
func checkFinite(what string, f float64) error {
	if f-f != 0 {
		return fmt.Errorf("%s %v is not a finite number", what, f)
	}
	return nil
}

// checkBeacon refuses a beacon whose distance or RSSI is not finite.
func checkBeacon(distance, rssi float64) error {
	if err := checkFinite("beacon distance", distance); err != nil {
		return err
	}
	return checkFinite("beacon rssi", rssi)
}

// Interner canonicalises the short strings a stream repeats — device
// names in a Batch, room names in an ack or a log, both in a snapshot —
// so decoding allocates each distinct one once. The map lookup with a
// string conversion in the index expression is allocation-free on a hit.
// Bounded: past maxInterned names it stops learning, so a hostile
// stream cannot grow it. Not safe for concurrent use.
type Interner map[string]string

// maxInterned bounds an Interner.
const maxInterned = 4096

// Get returns the canonical string for raw.
func (in Interner) Get(raw []byte) string {
	if s, ok := in[string(raw)]; ok {
		return s
	}
	s := string(raw)
	if len(in) < maxInterned {
		in[s] = s
	}
	return s
}

// AppendPayload appends the batch record (no frame header) to dst.
func AppendPayload(dst []byte, b *Batch) []byte {
	c := &b.coder
	dst = c.BeginPayload(dst, b.Len())
	for i := range b.Devices {
		dst = c.AppendReport(dst, b, i)
	}
	return dst
}

// Coder is the back-reference state of one batch payload, or of one
// snapshot section: the identities it has named so far, in the order it
// named them, and on the encode side the device it named last. It is the
// one place a beacon is written (AppendBeacon) and read (BeaconAt). The
// table is a fixed array — never a map an upload could grow — and both
// directions do O(1) work per beacon. The zero Coder is not ready: Reset
// (or BeginPayload) it first. Not safe for concurrent use.
type Coder struct {
	n   int
	ids [maxIdents]ibeacon.BeaconID

	// Encode side only. slots finds an identity's entry without scanning
	// the table: open addressing by seeded hash, a slot holding entry+1
	// (0 free), twice the table's size so a probe stays short when the
	// table is full. prev is the batch index of the report written last,
	// -1 before the first.
	slots [2 * (maxIdents + 1)]uint8
	prev  int
}

// hashSeed keys Coder.slots per process, so no upload can be built to
// collide in it. The encoded bytes do not depend on it: a ref is an
// identity's rank by first appearance.
var hashSeed = maphash.MakeSeed()

// Reset empties the table: the next payload, or section, starts.
func (c *Coder) Reset() {
	c.n = 0
	clear(c.slots[:])
	c.prev = -1
}

// BeginPayload resets c and appends a batch record's head, its report
// count; the caller appends that many reports of one batch with
// AppendReport. The pair writes a record whose reports are picked one at
// a time — the gateway's server-side split cuts one upload into a frame
// per shard this way, one Coder per frame.
func (c *Coder) BeginPayload(dst []byte, reports int) []byte {
	c.Reset()
	return binary.LittleEndian.AppendUint32(dst, uint32(reports))
}

// AppendReport appends report i of b in the batch record's form. Every
// report of one payload must come from the same batch.
func (c *Coder) AppendReport(dst []byte, b *Batch, i int) []byte {
	switch dev := b.Devices[i]; {
	case c.prev < 0:
		dst = append(binary.AppendUvarint(dst, uint64(len(dev))), dev...)
	case dev == b.Devices[c.prev]:
		dst = append(dst, 0)
	default:
		dst = append(binary.AppendUvarint(dst, uint64(len(dev))+1), dev...)
	}
	c.prev = i
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.At[i]))
	dst = binary.AppendUvarint(dst, b.Epoch[i])
	dst = binary.AppendUvarint(dst, b.Seq[i])
	span := b.ReportBeacons(i)
	dst = binary.AppendUvarint(dst, uint64(len(span)))
	for _, bc := range span {
		dst = c.AppendBeacon(dst, bc)
	}
	return dst
}

// AppendBeacon appends one beacon: a back reference to its identity when
// the table holds it, else the identity itself — which then becomes the
// table's next entry, while there is room — and the raw bits of distance
// and RSSI.
func (c *Coder) AppendBeacon(dst []byte, bc Beacon) []byte {
	var ident [identLen]byte
	copy(ident[:], bc.ID.UUID[:])
	binary.LittleEndian.PutUint16(ident[16:], bc.ID.Major)
	binary.LittleEndian.PutUint16(ident[18:], bc.ID.Minor)
	i := maphash.Bytes(hashSeed, ident[:]) % uint64(len(c.slots))
	for c.slots[i] != 0 && c.ids[c.slots[i]-1] != bc.ID {
		i = (i + 1) % uint64(len(c.slots))
	}
	if ref := c.slots[i]; ref != 0 {
		dst = append(dst, ref)
	} else {
		// At most maxIdents slots are ever taken, so the probe above ends.
		if c.n < maxIdents {
			c.ids[c.n] = bc.ID
			c.n++
			c.slots[i] = uint8(c.n)
		}
		dst = append(append(dst, 0), ident[:]...)
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(bc.Distance))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(bc.RSSI))
}

// BeaconAt decodes the beacon at r's cursor, resolving a back reference
// in the table and entering a literal into it. A truncated beacon or a
// reference past the table leaves r.Short set and returns zeros.
func (c *Coder) BeaconAt(r *Reader) (bc Beacon) {
	n := c.n
	ref, raw := r.beacon(&c.n)
	switch {
	case raw == nil:
		return bc
	case ref > 0:
		bc.ID = c.ids[ref-1]
	default:
		copy(bc.ID.UUID[:], raw)
		bc.ID.Major = binary.LittleEndian.Uint16(raw[16:])
		bc.ID.Minor = binary.LittleEndian.Uint16(raw[18:])
		if c.n > n {
			c.ids[n] = bc.ID
		}
		raw = raw[identLen:]
	}
	bc.Distance = math.Float64frombits(binary.LittleEndian.Uint64(raw))
	bc.RSSI = math.Float64frombits(binary.LittleEndian.Uint64(raw[8:]))
	return bc
}

// AppendFrame appends one complete frame (header + batch payload).
func AppendFrame(dst []byte, b *Batch) []byte {
	head := len(dst)
	dst = AppendPayload(BeginFrame(dst), b)
	EndFrame(dst, head)
	return dst
}

// BeginFrame appends an upload frame header with its length and
// checksum still open; the caller appends the payload and closes the
// frame with EndFrame. The pair frames content that is produced
// incrementally (a snapshot section) without a second copy.
func BeginFrame(dst []byte) []byte {
	return append(dst, Version, 0, 0, 0, 0, 0, 0, 0, 0)
}

// EndFrame closes the frame BeginFrame opened at dst[head]: everything
// appended since is its payload.
func EndFrame(dst []byte, head int) {
	payload := dst[head+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[head+1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[head+5:], crc32.Checksum(payload, crcTable))
}

// AppendLogFrame appends one write-ahead-log frame: the payload under
// the generation it was logged in, both covered by the checksum.
func AppendLogFrame(dst []byte, gen uint64, payload []byte) []byte {
	head := len(dst)
	dst = append(dst, LogVersion, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = binary.LittleEndian.AppendUint64(dst, gen)
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(dst[head+1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[head+5:], crc32.Checksum(dst[head+frameHeaderLen:], crcTable))
	return dst
}

// frameAt validates the frame starting data[0] and returns its
// generation (0 for an upload frame), payload and total size. A
// truncated frame returns ErrShortFrame; a corrupt one (wrong version,
// oversized length, CRC mismatch) a loud error.
func frameAt(data []byte) (gen uint64, payload []byte, size int, err error) {
	if len(data) < frameHeaderLen {
		return 0, nil, 0, ErrShortFrame
	}
	hdr := frameHeaderLen
	switch data[0] {
	case Version:
	case LogVersion:
		hdr = LogFrameHeaderLen
	default:
		return 0, nil, 0, fmt.Errorf("wire: unknown frame version 0x%02x", data[0])
	}
	n := binary.LittleEndian.Uint32(data[1:5])
	if n > MaxFramePayload {
		return 0, nil, 0, fmt.Errorf("wire: frame payload %d exceeds limit %d", n, MaxFramePayload)
	}
	size = hdr + int(n)
	if len(data) < size {
		return 0, nil, 0, ErrShortFrame
	}
	if got, want := crc32.Checksum(data[frameHeaderLen:size], crcTable), binary.LittleEndian.Uint32(data[5:9]); got != want {
		return 0, nil, 0, fmt.Errorf("wire: frame checksum mismatch (got %08x want %08x)", got, want)
	}
	if hdr == LogFrameHeaderLen {
		gen = binary.LittleEndian.Uint64(data[frameHeaderLen:])
	}
	return gen, data[hdr:size], size, nil
}

// Scan walks a stream of concatenated frames, calling fn with each
// validated frame's generation and payload, and returns the length of
// the valid prefix — the pure, fuzzable core of WAL recovery. A torn
// final frame is not an error, valid stops before it: the stream ends
// mid-frame, or the frame is damaged and nothing but zeros follows its
// header (filesystems can expose preallocated zero blocks after a
// crash). Damage with real data after it — bad version, oversized
// length, checksum mismatch — means committed history was hit, and is
// an error with valid marking the last good boundary: recovery must
// refuse rather than silently drop records. fn errors abort the scan
// and are returned verbatim.
func Scan(data []byte, fn func(gen uint64, payload []byte) error) (valid int, err error) {
	for valid < len(data) {
		gen, payload, size, err := frameAt(data[valid:])
		if err == ErrShortFrame || (err != nil && zeroTail(data[valid:])) {
			return valid, nil
		}
		if err != nil {
			return valid, fmt.Errorf("%w at offset %d", err, valid)
		}
		if err := fn(gen, payload); err != nil {
			return valid, err
		}
		valid += size
	}
	return valid, nil
}

// zeroTail reports whether a damaged frame is all zeros past its
// version, length and checksum — a torn final write over preallocated
// blocks, not damaged history. An unknown version byte gets no such
// allowance: it must itself be zero. frame holds a whole header
// (frameAt reports anything shorter as ErrShortFrame).
func zeroTail(frame []byte) bool {
	skip := 0
	if frame[0] == Version || frame[0] == LogVersion {
		skip = frameHeaderLen
	}
	for _, x := range frame[skip:] {
		if x != 0 {
			return false
		}
	}
	return true
}

// DecodePayload decodes one batch record into b (which is Reset
// first). Decoded device names are interned per Batch.
func DecodePayload(payload []byte, b *Batch) error {
	b.Reset()
	return AppendDecoded(payload, b)
}

// AppendDecoded decodes one batch record onto the end of b — how the
// sections of a pre-split upload become one batch again, in section
// order. On an error b holds a partial record; the caller drops it.
func AppendDecoded(payload []byte, b *Batch) error {
	r := Reader{Buf: payload}
	count, err := r.reportCount()
	if err != nil {
		return err
	}
	c := &b.coder
	c.Reset()
	var device string
	for i := uint32(0); i < count; i++ {
		dev, at, epoch, seq, beacons, err := r.reportHead(i == 0)
		if err != nil {
			return err
		}
		if dev != nil {
			device = b.Intern(dev)
		}
		b.AddReport(device, at, epoch, seq)
		for ; beacons > 0 && !r.Short; beacons-- {
			b.AddBeacon(c.BeaconAt(&r))
		}
	}
	return r.end()
}

// DecodeFrame validates and decodes the single frame that must span
// exactly data — the shape HTTP request bodies arrive in.
func DecodeFrame(data []byte, b *Batch) error {
	_, err := DecodeFramePayload(data, b)
	return err
}

// DecodeFramePayload is DecodeFrame that also returns the validated
// payload (a view into data) — what a durable shard logs verbatim.
func DecodeFramePayload(data []byte, b *Batch) (payload []byte, err error) {
	_, payload, size, err := frameAt(data)
	if err != nil {
		return nil, err
	}
	if size != len(data) {
		return nil, fmt.Errorf("wire: %d trailing bytes after frame", len(data)-size)
	}
	return payload, DecodePayload(payload, b)
}

// ReadFrame reads one upload-version frame from r into *buf (grown as
// needed) and returns its validated payload, a view into *buf that the
// next call overwrites — the streaming twin of Scan for readers that
// must not hold the whole stream. A stream that ends on a frame
// boundary returns io.EOF; one that ends mid-frame, or fails its
// checksum, is an error: a streamed reader has no tail to forgive.
func ReadFrame(r io.Reader, buf *[]byte) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:5])
	if hdr[0] != Version || n > MaxFramePayload {
		return nil, fmt.Errorf("wire: bad frame header (version 0x%02x, payload %d)", hdr[0], n)
	}
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(hdr[5:9]); got != want {
		return nil, fmt.Errorf("wire: frame checksum mismatch (got %08x want %08x)", got, want)
	}
	return payload, nil
}

// ScanReports walks a batch payload's per-report metadata — device,
// time, stamps — without decoding beacons, and returns the report
// count. This is the gateway's pre-split forward pass: registration
// and fencing need names and times, never beacon contents, so it steps
// over each beacon by its ref byte, touching no identity — but counting
// the table, so a payload it passes is one DecodePayload accepts — and
// reading its two floats only to refuse a report whose numbers Check
// refuses, since a forwarded section reaches its shard undecoded. The
// device slice is a view into payload, valid only during fn; a report
// that repeats its predecessor's device gets the predecessor's view.
func ScanReports(payload []byte, fn func(device []byte, at float64, epoch, seq uint64) error) (int, error) {
	r := Reader{Buf: payload}
	count, err := r.reportCount()
	if err != nil {
		return 0, err
	}
	var device []byte
	idents := 0
	for i := uint32(0); i < count; i++ {
		dev, at, epoch, seq, beacons, err := r.reportHead(i == 0)
		if err != nil {
			return 0, err
		}
		if dev != nil {
			device = dev
		}
		numbers := checkFinite("time", at)
		for ; beacons > 0 && !r.Short; beacons-- {
			if _, raw := r.beacon(&idents); raw != nil && numbers == nil {
				raw = raw[len(raw)-16:]
				numbers = checkBeacon(math.Float64frombits(binary.LittleEndian.Uint64(raw)),
					math.Float64frombits(binary.LittleEndian.Uint64(raw[8:])))
			}
		}
		if r.Short {
			return 0, r.end()
		}
		if numbers != nil {
			return 0, fmt.Errorf("report %d: %w", i, numbers)
		}
		if err := fn(device, at, epoch, seq); err != nil {
			return 0, err
		}
	}
	return int(count), r.end()
}

// AppendSection appends one pre-split section header (uvarint-length
// shard name) to dst; the caller appends the section's frame next with
// AppendFrame.
func AppendSection(dst []byte, shard string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(shard)))
	return append(dst, shard...)
}

// ScanSections walks a pre-split body — concatenated (shard name,
// frame) sections — calling fn with each shard name, the whole frame
// (forwarded verbatim on the fast path) and its validated payload.
// Unlike Scan, a body that does not parse end to end is an error: an
// upload is all-or-nothing, there is no torn tail to recover.
func ScanSections(data []byte, fn func(shard []byte, frame, payload []byte) error) error {
	off := 0
	for off < len(data) {
		n, sz := binary.Uvarint(data[off:])
		if sz <= 0 || n > uint64(len(data)-off-sz) {
			return fmt.Errorf("wire: bad section header at offset %d", off)
		}
		off += sz
		shard := data[off : off+int(n)]
		off += int(n)
		_, payload, size, err := frameAt(data[off:])
		if err != nil {
			return err
		}
		if err := fn(shard, data[off:off+size], payload); err != nil {
			return err
		}
		off += size
	}
	return nil
}

// AppendRooms appends a rooms column — the predicted room per report —
// in run-length form: (uvarint run, uvarint name length, name) until
// every report is covered, because a device mostly stays where it is.
// It is the 200 body of every wire-codec ingest exchange (a wire request
// gets a wire ack) and the suffix of the shard's observation log record.
func AppendRooms(dst []byte, rooms []string) []byte {
	for i := 0; i < len(rooms); {
		j := i + 1
		for j < len(rooms) && rooms[j] == rooms[i] {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(j-i))
		dst = binary.AppendUvarint(dst, uint64(len(rooms[i])))
		dst = append(dst, rooms[i]...)
		i = j
	}
	return dst
}

// --- pools ------------------------------------------------------------

var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// GetBatch fetches a pooled Batch, Reset and ready to fill.
func GetBatch() *Batch {
	b := batchPool.Get().(*Batch)
	b.Reset()
	return b
}

// PutBatch returns a Batch to the pool.
func PutBatch(b *Batch) { batchPool.Put(b) }

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// pooledBufMax bounds what returns to the buffer pool, so one giant
// batch does not pin its high-water mark forever.
const pooledBufMax = 1 << 20

// GetBuf fetches a pooled byte buffer (length zero).
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf returns a buffer to the pool unless it grew past the cap.
func PutBuf(b *[]byte) {
	if cap(*b) <= pooledBufMax {
		bufPool.Put(b)
	}
}

// MaxBodyBytes bounds one upload body on the ingest faces: one maximal
// frame payload plus room for frame headers and section names. Past it
// a face answers 413 without buffering further — MaxFramePayload alone
// is consulted only once the whole body is in memory.
const MaxBodyBytes = MaxFramePayload + 1<<12

// ErrBodyTooLarge reports a body longer than the caller's limit.
var ErrBodyTooLarge = errors.New("wire: body exceeds size limit")

// ReadBody drains r — an upload body on the server side, an ack on the
// client side — into *dst, which is reused, grown as needed and returned
// resliced. size is the announced Content-Length (negative when unknown):
// a buffer too small for it is replaced once, sized for it, instead of
// doubling its way up. A body longer than limit, announced or actual,
// fails with ErrBodyTooLarge before it is buffered.
func ReadBody(r io.Reader, size, limit int64, dst *[]byte) ([]byte, error) {
	if size > limit {
		return nil, ErrBodyTooLarge
	}
	b := (*dst)[:0]
	switch {
	case size == 0:
		return b, nil
	case size >= int64(cap(b)):
		// One spare byte: a reader may deliver its io.EOF on a read of
		// its own, and that read needs somewhere to go.
		b = make([]byte, 0, size+1)
	case cap(b) == 0:
		b = make([]byte, 0, 512)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		*dst = b
		if int64(len(b)) > limit {
			return nil, ErrBodyTooLarge
		}
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Reader is a bounds-checked cursor over one payload: the batch
// decoder's, and the one the shard's snapshot sections are read with. A
// read past the end sets Short and yields zeros from then on, so a
// decode loop checks once per item instead of once per field.
type Reader struct {
	Buf   []byte // what is left
	Short bool
	// badRef says why Short is set, when the bytes were there: a beacon
	// referred past its payload's identity table.
	badRef bool
}

// Bytes takes the next n bytes (a view into the payload).
func (r *Reader) Bytes(n uint64) []byte {
	if r.Short || n > uint64(len(r.Buf)) {
		r.Short = true
		return nil
	}
	b := r.Buf[:n]
	r.Buf = r.Buf[n:]
	return b
}

// U32 takes a little-endian u32.
func (r *Reader) U32() uint32 {
	if r.Short || len(r.Buf) < 4 {
		r.Short = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.Buf)
	r.Buf = r.Buf[4:]
	return v
}

// U64 takes a little-endian u64.
func (r *Reader) U64() uint64 {
	if r.Short || len(r.Buf) < 8 {
		r.Short = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.Buf)
	r.Buf = r.Buf[8:]
	return v
}

// Uvarint takes a uvarint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.Buf)
	if r.Short || n <= 0 {
		r.Short = true
		return 0
	}
	r.Buf = r.Buf[n:]
	return v
}

// String takes a uvarint-length string, canonicalised through in.
func (r *Reader) String(in Interner) string {
	raw := r.Bytes(r.Uvarint())
	if r.Short {
		return ""
	}
	return in.Get(raw)
}

// Rooms reads the rest of the payload as an AppendRooms column of at
// most limit rooms, into dst[:0]. A zero run, a run past limit or a
// truncated name sets Short: the run lengths come off the wire, and
// limit is what keeps a corrupt one from driving the append.
func (r *Reader) Rooms(limit int, dst []string, in Interner) []string {
	dst = dst[:0]
	for len(r.Buf) > 0 {
		run, room := r.Uvarint(), r.String(in)
		if r.Short || run == 0 || run > uint64(limit-len(dst)) {
			r.Short = true
			return dst
		}
		for ; run > 0; run-- {
			dst = append(dst, room)
		}
	}
	return dst
}

// reportCount reads a batch record's report count. A corrupt count must
// not drive allocation: every report costs at least minReportWire bytes
// of payload.
func (r *Reader) reportCount() (uint32, error) {
	size := uint64(len(r.Buf))
	count := r.U32()
	if r.Short {
		return 0, ErrShortFrame
	}
	if uint64(count) > size/minReportWire+1 {
		return 0, fmt.Errorf("wire: report count %d exceeds payload", count)
	}
	return count, nil
}

// reportHead reads one report up to its beacons, and checks that the
// beacons it announces can be there. device is nil for a report that
// repeats the device of the one before it — which the first cannot, so
// its name length is coded as it is — and never nil otherwise: Bytes
// returns a view of a payload that held at least a report count.
func (r *Reader) reportHead(first bool) (device []byte, at float64, epoch, seq, beacons uint64, err error) {
	switch code := r.Uvarint(); {
	case first:
		device = r.Bytes(code)
	case code > 0:
		device = r.Bytes(code - 1)
	}
	at = math.Float64frombits(r.U64())
	epoch, seq, beacons = r.Uvarint(), r.Uvarint(), r.Uvarint()
	switch {
	case r.Short:
		err = r.end()
	case beacons > uint64(len(r.Buf))/MinBeaconLen:
		err = fmt.Errorf("wire: beacon count %d exceeds payload", beacons)
	}
	return device, at, epoch, seq, beacons, err
}

// beacon takes one beacon's bytes past its ref byte — the identity, when
// the ref is 0, then the distance and RSSI bits — against an identity
// table of *n entries: a literal is counted into the table while it has
// room, a reference past it sets badRef. The beacon coder's one reading
// rule; Coder.BeaconAt resolves what ScanReports only steps over.
func (r *Reader) beacon(n *int) (ref int, raw []byte) {
	if r.Short || len(r.Buf) < MinBeaconLen {
		r.Short = true
		return 0, nil
	}
	ref, size := int(r.Buf[0]), MinBeaconLen
	switch {
	case ref > *n:
		r.Short, r.badRef = true, true
		return 0, nil
	case ref == 0:
		if size += identLen; len(r.Buf) < size {
			r.Short = true
			return 0, nil
		}
		if *n < maxIdents {
			*n++
		}
	}
	raw, r.Buf = r.Buf[1:size], r.Buf[size:]
	return ref, raw
}

// end checks that the batch record parsed and used the payload up.
func (r *Reader) end() error {
	switch {
	case r.badRef:
		return errBadRef
	case r.Short:
		return ErrShortFrame
	case len(r.Buf) != 0:
		return fmt.Errorf("wire: %d trailing bytes after batch record", len(r.Buf))
	}
	return nil
}
