// The compacting snapshot of a durable server's full state: cut in
// memory under the WAL's exclusive hold, written beside live appends,
// and restored at boot before the log tail replays (durable.go).
//
// A snapshot is a stream of checksummed sections, each one wire frame
// (wire.BeginFrame/EndFrame, read back with wire.ReadFrame) whose
// payload opens with a kind byte:
//
//	'H'  once, first: the cold state as JSON — training blob, model
//	     snapshot, lease, and per device its ingest mark, tracker slice
//	     and retained-observation count — plus the event count.
//	'D'  per device with retained observations, in header order: uvarint
//	     name length + name, then observations to the end of the
//	     section: i64 LE At in nanoseconds, uvarint Epoch, uvarint Seq,
//	     uvarint beacon count, and the beacons in the batch payload's form
//	     (wire.Coder: an identity once, then one-byte back references),
//	     the identity table starting empty with each section.
//	'E'  the committed event history to the end of the section: i64 LE
//	     At, uvarint-length device, uvarint kind, uvarint-length room.
//
// Observation times are exact integer nanoseconds here — a retained
// observation has only its time.Duration left — whereas a log record
// keeps the float64 seconds of the payload it is (durable.go). A long
// history or event list continues in further sections of the same kind,
// so no section nears the frame size limit. The header's counts make a
// missing or surplus section an error, the frame checksums make a
// flipped bit one: a restore yields the written state or fails.
package bms

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"occusim/internal/occupancy"
	"occusim/internal/store"
	"occusim/internal/wire"
)

// Section kinds.
const (
	secHeader = 'H'
	secDevice = 'D'
	secEvents = 'E'
)

const (
	// snapFlushBytes is the least the section writer hands the file in
	// one Write (but for the last): a 15 MB snapshot is then some fifteen
	// write calls, not the thousands a default 4 KiB buffer makes.
	snapFlushBytes = 1 << 20
	// snapSectionMax is where a long history or event list starts a new
	// section, far below wire.MaxFramePayload.
	snapSectionMax = 4 << 20
)

// snapHeaderJSON is the cold state, small next to the observations.
type snapHeaderJSON struct {
	Training  json.RawMessage  `json:"training"`
	ModelSnap *ModelSnapshot   `json:"modelSnap,omitempty"`
	Lease     *leaseRecJSON    `json:"lease,omitempty"`
	Devices   []snapDeviceJSON `json:"devices,omitempty"`
	Events    int              `json:"events,omitempty"`
}

type snapDeviceJSON struct {
	Device  string                 `json:"device"`
	Epoch   uint64                 `json:"epoch,omitempty"`
	Seq     uint64                 `json:"seq,omitempty"`
	Tracker *occupancy.DeviceState `json:"tracker,omitempty"`
	Obs     int                    `json:"obs,omitempty"`
}

// sectionWriter frames sections into one buffer and hands it to w in
// large writes.
type sectionWriter struct {
	w     io.Writer
	buf   []byte
	head  int        // the open section's frame header
	coder wire.Coder // a device section's beacon identities
}

func (sw *sectionWriter) begin(kind byte) {
	sw.head = len(sw.buf)
	sw.buf = append(wire.BeginFrame(sw.buf), kind)
}

func (sw *sectionWriter) end() { wire.EndFrame(sw.buf, sw.head) }

// full reports whether the open section should be continued in a new one.
func (sw *sectionWriter) full() bool { return len(sw.buf)-sw.head >= snapSectionMax }

func (sw *sectionWriter) str(s string) {
	sw.buf = binary.AppendUvarint(sw.buf, uint64(len(s)))
	sw.buf = append(sw.buf, s...)
}

// flush writes the buffered sections out; min is the size worth a Write.
func (sw *sectionWriter) flush(min int) error {
	if len(sw.buf) < min || len(sw.buf) == 0 {
		return nil
	}
	_, err := sw.w.Write(sw.buf)
	sw.buf = sw.buf[:0]
	return err
}

// device frames one device's retained observations.
func (sw *sectionWriter) device(name string, obs []store.Observation) {
	for len(obs) > 0 {
		sw.begin(secDevice)
		sw.coder.Reset()
		sw.str(name)
		for len(obs) > 0 && !sw.full() {
			o := &obs[0]
			sw.buf = binary.LittleEndian.AppendUint64(sw.buf, uint64(o.At))
			sw.buf = binary.AppendUvarint(sw.buf, o.Epoch)
			sw.buf = binary.AppendUvarint(sw.buf, o.Seq)
			sw.buf = binary.AppendUvarint(sw.buf, uint64(len(o.Beacons)))
			for _, bd := range o.Beacons {
				sw.buf = sw.coder.AppendBeacon(sw.buf, wire.Beacon(bd))
			}
			obs = obs[1:]
		}
		sw.end()
	}
}

func (sw *sectionWriter) events(events []occupancy.Event) {
	for len(events) > 0 {
		sw.begin(secEvents)
		for len(events) > 0 && !sw.full() {
			e := &events[0]
			sw.buf = binary.LittleEndian.AppendUint64(sw.buf, uint64(e.At))
			sw.str(e.Device)
			sw.buf = binary.AppendUvarint(sw.buf, uint64(e.Kind))
			sw.str(e.Room)
			events = events[1:]
		}
		sw.end()
	}
}

// cutDurableSnapshot captures the server's full durable state and
// returns the function that serialises the capture. The capture runs
// under the WAL's exclusive hold, so no log-then-apply operation is in
// flight: it includes every logged record and nothing unlogged. It is
// views and small copies only — store.Cut and occupancy.Cut say why the
// views stay valid — so the hold is short; sorting, encoding and I/O all
// happen in the returned function, while ingest runs again.
func (s *Server) cutDurableSnapshot() func(io.Writer) error {
	st := s.st.Cut()
	tr := s.tracker.Cut()
	var hdr snapHeaderJSON
	if ms, ok := s.ModelSnapshot(); ok {
		hdr.ModelSnap = &ms
	}
	if epoch, holder := s.GrantedLease(); epoch > 0 {
		hdr.Lease = &leaseRecJSON{Epoch: epoch, Holder: holder}
	}
	return func(w io.Writer) error { return s.writeDurableSnapshot(w, hdr, st, tr) }
}

// writeDurableSnapshot serialises a cut. Compactions are serialised by
// the WAL, so one runs at a time and may keep the buffer.
func (s *Server) writeDurableSnapshot(w io.Writer, hdr snapHeaderJSON, st *store.Cut, tr *occupancy.Cut) error {
	var training bytes.Buffer
	if err := st.WriteTraining(&training); err != nil {
		return err
	}
	hdr.Training = json.RawMessage(bytes.TrimSpace(training.Bytes()))

	// The known devices are the store's and the tracker's, by name.
	tracked := make(map[string]*occupancy.DeviceState, len(tr.Devices))
	for i := range tr.Devices {
		tracked[tr.Devices[i].Device] = &tr.Devices[i]
	}
	devices := st.Devices
	stored := make(map[string]bool, len(devices))
	for _, d := range devices {
		stored[d.Device] = true
	}
	for name := range tracked {
		if !stored[name] {
			devices = append(devices, store.DeviceCut{Device: name})
		}
	}
	sort.Slice(devices, func(i, j int) bool { return devices[i].Device < devices[j].Device })
	hdr.Devices = make([]snapDeviceJSON, len(devices))
	for i, d := range devices {
		hdr.Devices[i] = snapDeviceJSON{Device: d.Device, Epoch: d.Epoch, Seq: d.Seq, Tracker: tracked[d.Device], Obs: len(d.History)}
	}
	events := tr.Events()
	hdr.Events = len(events)
	blob, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("bms: snapshot encode: %w", err)
	}

	sw := sectionWriter{w: w, buf: s.dur.snapBuf[:0]}
	defer func() {
		// Keep the buffer for the next compaction unless one outsized
		// history grew it.
		if cap(sw.buf) <= 2*snapSectionMax {
			s.dur.snapBuf = sw.buf[:0]
		}
	}()
	sw.begin(secHeader)
	sw.buf = append(sw.buf, blob...)
	sw.end()
	for _, d := range devices {
		if len(d.History) == 0 {
			continue
		}
		sw.device(d.Device, d.History)
		if err := sw.flush(snapFlushBytes); err != nil {
			return err
		}
	}
	sw.events(events)
	return sw.flush(0)
}

// restoreDurableSnapshot loads a snapshot into a fresh server, section
// by section. Any error leaves the server partially filled: the caller
// discards it.
func (s *Server) restoreDurableSnapshot(r io.Reader) error {
	br := bufio.NewReaderSize(r, snapFlushBytes)
	var buf []byte
	payload, err := wire.ReadFrame(br, &buf)
	if err != nil {
		return fmt.Errorf("bms: snapshot: header section: %w", err)
	}
	if len(payload) == 0 || payload[0] != secHeader {
		return fmt.Errorf("bms: snapshot: does not open with a header section")
	}
	var hdr snapHeaderJSON
	if err := json.Unmarshal(payload[1:], &hdr); err != nil {
		return fmt.Errorf("bms: snapshot decode: %w", err)
	}
	// The cold state is records, restored by the apply the live server
	// ran: the model, the lease, and each device's tracker slice and
	// ingest mark. The model goes before the training blob, which carries
	// it again at the same version: installed over the blob it would be a
	// duplicate, and the store would keep it out.
	var recs []walRecord
	if hdr.ModelSnap != nil {
		recs = append(recs, walRecord{T: recModel, Snap: hdr.ModelSnap})
	}
	if hdr.Lease != nil {
		recs = append(recs, walRecord{T: recLease, Lease: hdr.Lease})
	}
	missing := make(map[string]int, len(hdr.Devices)) // observations still to come
	for _, ds := range hdr.Devices {
		st := DeviceState{DeviceState: occupancy.DeviceState{Device: ds.Device}, Epoch: ds.Epoch, Seq: ds.Seq}
		if ds.Tracker != nil {
			st.DeviceState = *ds.Tracker
		}
		recs = append(recs, walRecord{T: recInstall, State: &st})
		if ds.Obs != 0 {
			missing[ds.Device] = ds.Obs
		}
	}
	for i := range recs {
		if _, err := s.apply(&recs[i]); err != nil {
			return err
		}
	}
	if len(hdr.Training) > 0 {
		if err := s.st.ReadSnapshot(bytes.NewReader(hdr.Training)); err != nil {
			return err
		}
	}

	names := wire.Interner{}
	var coder wire.Coder // a device section's beacon identities
	var events []occupancy.Event
	var device string               // whose observations pending holds
	var pending []store.Observation // one device's sections, gathered
	restore := func() {
		if len(pending) > 0 {
			s.st.RestoreObservations(device, pending)
			pending = pending[:0]
		}
	}
	for {
		payload, err := wire.ReadFrame(br, &buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("bms: snapshot: %w", err)
		}
		if len(payload) == 0 {
			return fmt.Errorf("bms: snapshot: empty section")
		}
		rd := wire.Reader{Buf: payload[1:]}
		switch payload[0] {
		case secDevice:
			coder.Reset()
			if name := rd.String(names); name != device {
				restore()
				device = name
			}
			for len(rd.Buf) > 0 && !rd.Short {
				o := store.Observation{Device: device}
				o.At = time.Duration(rd.U64())
				o.Epoch = rd.Uvarint()
				o.Seq = rd.Uvarint()
				n := rd.Uvarint()
				if n > uint64(len(rd.Buf))/wire.MinBeaconLen {
					rd.Short = true
					break
				}
				if n > 0 {
					o.Beacons = make([]store.BeaconDistance, n)
					for k := range o.Beacons {
						o.Beacons[k] = store.BeaconDistance(coder.BeaconAt(&rd))
					}
				}
				pending = append(pending, o)
				missing[device]--
			}
		case secEvents:
			for len(rd.Buf) > 0 && !rd.Short {
				e := occupancy.Event{At: time.Duration(rd.U64())}
				e.Device = rd.String(names)
				e.Kind = occupancy.EventKind(rd.Uvarint())
				e.Room = rd.String(names)
				events = append(events, e)
			}
		default:
			return fmt.Errorf("bms: snapshot: unknown section kind 0x%02x", payload[0])
		}
		if rd.Short {
			return fmt.Errorf("bms: snapshot: truncated or malformed %c section", payload[0])
		}
	}
	restore()
	for name, n := range missing {
		if n != 0 {
			return fmt.Errorf("bms: snapshot: device %s is off by %d observations from its header count", name, n)
		}
	}
	if len(events) != hdr.Events {
		return fmt.Errorf("bms: snapshot: %d events, header says %d", len(events), hdr.Events)
	}
	s.tracker.InstallEvents(events)
	return nil
}
