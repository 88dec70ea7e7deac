package transport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"occusim/internal/raceflag"
	"occusim/internal/rng"
	"occusim/internal/wire"
)

// doorOutcome is what a JSON door makes of a body: refused at the decode
// (a 400 "decode:" before the lease gate), refused at the render (a bad
// beacon identity, behind the gate), or a batch.
type doorOutcome struct {
	decodeErr, renderErr error
	b                    *wire.Batch
}

// oracleDoor is the door as it stood before JSONUpload: stock
// encoding/json into fresh report structs, every identity a string, then
// EncodeReports into a fresh batch.
func oracleDoor(body []byte, single bool) doorOutcome {
	var reports []Report
	var err error
	if single {
		reports = make([]Report, 1)
		err = json.Unmarshal(body, &reports[0])
	} else {
		err = json.Unmarshal(body, &reports)
	}
	if err != nil {
		return doorOutcome{decodeErr: err}
	}
	b := new(wire.Batch)
	return doorOutcome{renderErr: EncodeReports(b, reports), b: b}
}

// uploadDoor is the door as it is: body into u, u into b. Neither need be
// fresh — that is what is under test.
func uploadDoor(u *JSONUpload, b *wire.Batch, body []byte, single bool) doorOutcome {
	decode := u.UnmarshalBatch
	if single {
		decode = u.UnmarshalReport
	}
	if err := decode(body); err != nil {
		return doorOutcome{decodeErr: err}
	}
	return doorOutcome{renderErr: u.AppendTo(b), b: b}
}

// errText compares errors by what the client is shown.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// diffBatches describes the first difference between two batches' columns
// and beacon spans, bit for bit, or returns "".
func diffBatches(got, want *wire.Batch) string {
	bits := math.Float64bits
	if !slices.Equal(got.Devices, want.Devices) {
		return fmt.Sprintf("devices %q, want %q", got.Devices, want.Devices)
	}
	if !slices.EqualFunc(got.At, want.At, func(x, y float64) bool { return bits(x) == bits(y) }) {
		return fmt.Sprintf("times %v, want %v", got.At, want.At)
	}
	if !slices.Equal(got.Epoch, want.Epoch) || !slices.Equal(got.Seq, want.Seq) {
		return fmt.Sprintf("epoch/seq %v/%v, want %v/%v", got.Epoch, got.Seq, want.Epoch, want.Seq)
	}
	for i := range want.Devices {
		same := slices.EqualFunc(got.ReportBeacons(i), want.ReportBeacons(i), func(x, y wire.Beacon) bool {
			return x.ID == y.ID && bits(x.Distance) == bits(y.Distance) && bits(x.RSSI) == bits(y.RSSI)
		})
		if !same {
			return fmt.Sprintf("report %d's beacons %v, want %v", i, got.ReportBeacons(i), want.ReportBeacons(i))
		}
	}
	return ""
}

// diffOutcomes holds got to want: refused in the same phase or accepted
// alike, and on accept the same batch. Decode errors are compared only as
// refusals when exact is false — the two decoders name different Go types
// in a type error's text; the render error is the identity parser's and
// must read the same either way.
func diffOutcomes(got, want doorOutcome, exact bool) string {
	if (got.decodeErr == nil) != (want.decodeErr == nil) || (exact && errText(got.decodeErr) != errText(want.decodeErr)) {
		return fmt.Sprintf("decode error %v, want %v", got.decodeErr, want.decodeErr)
	}
	if errText(got.renderErr) != errText(want.renderErr) {
		return fmt.Sprintf("render error %v, want %v", got.renderErr, want.renderErr)
	}
	if want.decodeErr != nil || want.renderErr != nil {
		return ""
	}
	return diffBatches(got.b, want.b)
}

const (
	goodID  = "B9407F30-F5F8-466E-AFF9-25556B57FE6D/1/2"
	otherID = "b9407f30-f5f8-466e-aff9-25556b57fe6d/65535/0"
)

// FuzzJSONDoorParity is the differential test of the JSON door: for any
// body, the pooled target lands in the batch exactly what stock
// encoding/json into []Report and EncodeReports land there, and refuses
// what they refuse in the phase they refuse it — with the target and the
// batch recycled between two bodies, so anything the first leaves behind
// shows in the second.
func FuzzJSONDoorParity(f *testing.F) {
	report := func(fields string) string { return `[{` + fields + `}]` }
	beacon := func(fields string) string {
		return report(`"device":"d","atSeconds":1,"beacons":[{` + fields + `}]`)
	}
	long := `[` + strings.Repeat(`{"device":"long","atSeconds":2,"epoch":3,"seq":4,"beacons":[{"id":"`+goodID+`","distance":1,"rssi":-50},{"id":"`+otherID+`","distance":2,"rssi":-60}]},`, 9) +
		`{"device":"last","beacons":[{"id":"not-a-beacon"}]}]`
	seeds := []string{
		beacon(`"id":"nope","id":"` + goodID + `"`), // duplicate id: bad then good
		beacon(`"id":"` + goodID + `","id":"nope"`), // good then bad
		beacon(`"id":"` + goodID + `","id":null`),
		beacon(`"id":"nope","id":null`),
		beacon(`"distance":3`), // no id at all
		report(`"device":"d","beacons":[{"id":"` + goodID + `"}],"beacons":[{"id":"` + otherID + `","rssi":-1}]`),
		report(`"device":"d","beacons":[{"id":"` + goodID + `"},{"id":"` + otherID + `"}],"beacons":[{"distance":1}]`),
		report(`"atSeconds":5,"beacons":[]`), // omitted device
		report(`"device":null,"atSeconds":5`),
		report(`"device":"d","device":null`),
		report(`"device":"d\u00e9v \ud800 \n","beacons":[{"id":"B9407F30\u002dF5F8-466E-AFF9-25556B57FE6D\/1/2"}]`), // escapes in both identities
		report(`"device":"` + "\xff\xfe" + `","DEVICE":"upper","Beacons":[{"ID":"` + goodID + `"}]`),
		report(`"device":7,"beacons":[{"id":8}]`), // a number where a string belongs
		report(`"device":{"name":"d"},"beacons":[{"id":["` + goodID + `"]}]`),
		report(`"device":"d","beacons":"none"`),
		report(`"device":"d","atSeconds":"soon"`),
		long,
		`[{"device":"short"}]`, // short after long
		`[]`, `null`, `[null]`, `{}`, `[{"device":"torn"},{]`, `[{"device":"d"}] trailing`,
		`{"device":"one","atSeconds":1,"beacons":[{"id":"` + goodID + `","distance":1,"rssi":-40}]}`,
	}
	// What json.Marshal itself writes, which the layout parse must take —
	// exponents, -0, the extremes, omitted and maximal stamps, null and
	// empty beacons, a name past ASCII — or, for the name it escapes,
	// decline.
	for _, v := range []any{
		[]Report{{Device: "exp", AtSeconds: 1e-7, Beacons: []BeaconReport{{ID: goodID, Distance: 1e21, RSSI: -1e-7}}}},
		[]Report{{Device: "zero", AtSeconds: math.Copysign(0, -1), Beacons: []BeaconReport{{ID: otherID, Distance: math.MaxFloat64, RSSI: -math.MaxFloat64}}}},
		[]Report{{Device: "stamps", AtSeconds: 1, Epoch: math.MaxUint64, Seq: math.MaxUint64}, {Device: "none", Beacons: []BeaconReport{}}},
		[]Report{{Device: "phöne-日本", AtSeconds: 2, Seq: 7, Beacons: []BeaconReport{{ID: goodID, Distance: 0.5, RSSI: -41}}}},
		[]Report{{Device: "<relay>&co", AtSeconds: 3}},
		Report{Device: "single", AtSeconds: 4, Epoch: 1, Beacons: []BeaconReport{{ID: "not-a-beacon"}}},
	} {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, string(body))
	}
	for i, s := range seeds {
		f.Add([]byte(s), []byte(seeds[(i+1)%len(seeds)]), false)
		f.Add([]byte(long), []byte(s), i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, first, second []byte, single bool) {
		u, b := new(JSONUpload), new(wire.Batch)
		for _, body := range [][]byte{first, second} {
			if d := diffOutcomes(uploadDoor(u, b, body, single), oracleDoor(body, single), false); d != "" {
				t.Fatalf("body %q (single %v, after %q): %s", body, single, first, d)
			}
			u.reset()
			b.Reset()
		}
	})
}

// randomBody writes a JSON batch body whose objects omit fields at
// random, or one of the shapes that are not a batch at all.
func randomBody(src *rng.Source) string {
	switch src.Intn(12) {
	case 0:
		return "null"
	case 1:
		return "[]"
	case 2:
		return `[{"device":"torn","beacons":[{"id":"x"}]},{]` // a syntax error mid-array
	}
	var sb strings.Builder
	sb.WriteByte('[')
	for i, n := 0, 1+src.Intn(1+src.Intn(40)); i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		var fields []string
		if src.Intn(4) > 0 {
			fields = append(fields, fmt.Sprintf(`"device":"d%d"`, src.Intn(50)))
		}
		switch r := src.Intn(60); {
		case r < 10:
		case r == 10:
			fields = append(fields, `"atSeconds":"soon"`) // a type error mid-array: decoding goes on
		default:
			fields = append(fields, fmt.Sprintf(`"atSeconds":%d`, src.Intn(1000)))
		}
		if src.Intn(2) == 0 {
			fields = append(fields, fmt.Sprintf(`"epoch":%d,"seq":%d`, 1+src.Intn(3), 1+src.Intn(99)))
		}
		switch src.Intn(6) {
		case 0:
		case 1:
			fields = append(fields, `"beacons":null`)
		default:
			var beacons []string
			for k := src.Intn(12); k > 0; k-- {
				var bf []string
				switch src.Intn(200) {
				case 0: // no id: the whole upload is refused at the render
				case 1:
					bf = append(bf, `"id":"not-a-beacon"`)
				default:
					bf = append(bf, fmt.Sprintf(`"id":"B9407F30-F5F8-466E-AFF9-25556B57FE6D/%d/%d"`, src.Intn(3), src.Intn(9)))
				}
				if src.Intn(3) > 0 {
					bf = append(bf, fmt.Sprintf(`"distance":%d`, src.Intn(30)))
				}
				if src.Intn(3) > 0 {
					bf = append(bf, fmt.Sprintf(`"rssi":-%d`, 40+src.Intn(50)))
				}
				beacons = append(beacons, "{"+strings.Join(bf, ",")+"}")
			}
			fields = append(fields, `"beacons":[`+strings.Join(beacons, ",")+`]`)
		}
		sb.WriteString("{" + strings.Join(fields, ",") + "}")
	}
	sb.WriteByte(']')
	return sb.String()
}

// TestPooledDecodeEqualsFreshDecode: the JSON doors decode into a
// recycled target whose elements a previous upload filled, and the decoder
// neither zeroes an element it re-extends over nor touches a field the
// object does not name. Whatever a target last held — a longer batch, a
// batch that failed half way, nothing — what it decodes next must be what
// a fresh target decodes, errors included, and what the report structs it
// replaced decoded. Several goroutines share the pool, as concurrent
// handlers do. (Take the zeroing out of reset and this fails within a few
// bodies: an omitted device reads as the last upload's, an omitted id as
// the last upload's parsed identity.)
func TestPooledDecodeEqualsFreshDecode(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(100 + w))
			accepted := 0
			for i := 0; i < 400; i++ {
				body := []byte(randomBody(src))
				fresh := uploadDoor(new(JSONUpload), new(wire.Batch), body, false)
				u, b := GetJSONUpload(), wire.GetBatch()
				b.Reset()
				pooled := uploadDoor(u, b, body, false)
				if d := diffOutcomes(pooled, fresh, true); d != "" {
					t.Errorf("body %s: a recycled target differs from a fresh one: %s", body, d)
				}
				if d := diffOutcomes(pooled, oracleDoor(body, false), false); d != "" {
					t.Errorf("body %s: the target differs from the report structs: %s", body, d)
				}
				if fresh.decodeErr == nil && fresh.renderErr == nil && fresh.b.Len() > 0 {
					accepted++
				}
				u.Release()
				wire.PutBatch(b)
			}
			if accepted < 100 {
				t.Errorf("vacuous: %d of 400 random bodies were accepted with reports in them", accepted)
			}
		}(w)
	}
	wg.Wait()

	// The contract itself: what goes back to the pool is zero to its
	// capacity, capacity kept; what would pin memory does not go back.
	u := new(JSONUpload)
	if err := u.UnmarshalBatch([]byte(`[{"device":"a","atSeconds":1,"epoch":2,"seq":3,"beacons":[{"id":"` + goodID + `","distance":1,"rssi":-1},{"id":"y"}]},{"device":"b"}]`)); err != nil {
		t.Fatal(err)
	}
	if !u.reset() || len(u.reports) != 0 {
		t.Fatalf("a two-report target was not kept, or kept at length %d", len(u.reports))
	}
	kept := u.reports[:cap(u.reports)]
	for i, r := range kept {
		if len(r.Device.name) != 0 || r.AtSeconds != 0 || r.Epoch != 0 || r.Seq != 0 || len(r.Beacons) != 0 {
			t.Fatalf("report %d went back to the pool as %+v", i, r)
		}
		for k, bc := range r.Beacons[:cap(r.Beacons)] {
			if bc != (jsonBeacon{}) {
				t.Fatalf("report %d beacon %d went back to the pool as %+v", i, k, bc)
			}
		}
	}
	if cap(kept[0].Beacons) < 2 || cap(kept[0].Device.name) < 1 {
		t.Fatalf("the first report kept a beacons capacity of %d and a device capacity of %d, it decoded 2 and 1",
			cap(kept[0].Beacons), cap(kept[0].Device.name))
	}
	hostile := &JSONUpload{reports: []jsonReport{{
		Device:  deviceText{make([]byte, pooledDeviceMax+1)},
		Beacons: make([]jsonBeacon, pooledBeaconsMax+1),
	}}}
	if !hostile.reset() || cap(hostile.reports[:1][0].Device.name) != 0 || cap(hostile.reports[:1][0].Beacons) != 0 {
		t.Fatalf("a report kept a grown device buffer or beacons slice: %+v", hostile.reports[:1])
	}
	giant := &JSONUpload{reports: make([]jsonReport, pooledReportsMax+1)}
	null := new(JSONUpload)
	if giant.reset() || null.reset() || giant.reports != nil {
		t.Fatalf("a %d-report target or a null one was kept", pooledReportsMax+1)
	}
}

// randomMarshalBody is what json.Marshal writes for random reports: any
// finite numbers, stamps omitted or not, every beacon of a scan, some of
// them or none (nil or empty), device names past ASCII that json.Marshal
// need not escape, and now and then a beacon id that does not parse.
func randomMarshalBody(t *testing.T, src *rng.Source) (batch []byte, singles [][]byte) {
	number := func() float64 {
		switch src.Intn(5) {
		case 0:
			return []float64{0, math.Copysign(0, -1), 1e-7, 1e21, math.MaxFloat64, -math.SmallestNonzeroFloat64}[src.Intn(6)]
		case 1:
			for {
				if f := math.Float64frombits(src.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
					return f
				}
			}
		case 2:
			return float64(src.Intn(2000) - 1000)
		}
		return src.Normal(0, 50)
	}
	stamp := func() uint64 {
		switch src.Intn(3) {
		case 0:
			return 0
		case 1:
			return math.MaxUint64 - src.Uint64n(3)
		}
		return src.Uint64n(1000)
	}
	runes := []rune("abcXYZ019-_. /:éü日本☃")
	var reports []Report
	if src.Intn(10) > 0 {
		reports = make([]Report, src.Intn(40))
	}
	for i := range reports {
		name := make([]rune, 1+src.Intn(12))
		for k := range name {
			name[k] = runes[src.Intn(len(runes))]
		}
		r := Report{Device: string(name), AtSeconds: number(), Epoch: stamp(), Seq: stamp()}
		switch src.Intn(4) {
		case 0: // none: null
		case 1:
			r.Beacons = []BeaconReport{}
		default:
			all := src.Intn(2) == 0
			for k := 0; k < 6; k++ {
				if !all && src.Intn(2) == 0 {
					continue
				}
				id := fmt.Sprintf("B9407F30-F5F8-466E-AFF9-25556B57FE6D/%d/%d", src.Intn(65536), k)
				if src.Intn(50) == 0 {
					id = "not-a-beacon"
				}
				r.Beacons = append(r.Beacons, BeaconReport{ID: id, Distance: number(), RSSI: number()})
			}
		}
		reports[i] = r
	}
	marshal := func(v any) []byte {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	for _, r := range reports {
		singles = append(singles, marshal(r))
	}
	return marshal(reports), singles
}

// TestLayoutParseTakesWhatMarshalWrites is the layout parse's
// non-vacuity: every body json.Marshal writes for reports — the only
// bodies devices and relays send — is taken by it, not handed to
// encoding/json, into a recycled target, and lands what the report
// structs land.
func TestLayoutParseTakesWhatMarshalWrites(t *testing.T) {
	src := rng.New(40)
	u, b := new(JSONUpload), new(wire.Batch)
	take := func(body []byte, single bool) {
		t.Helper()
		if !u.parseLayout(body, single) {
			t.Fatalf("the layout parse declined what json.Marshal wrote (single %v): %s", single, body)
		}
		got := doorOutcome{renderErr: u.AppendTo(b), b: b}
		if d := diffOutcomes(got, oracleDoor(body, single), true); d != "" {
			t.Fatalf("body %s (single %v): %s", body, single, d)
		}
		u.reset()
		b.Reset()
	}
	taken := 0
	for trial := 0; trial < 400; trial++ {
		batch, singles := randomMarshalBody(t, src)
		take(batch, false)
		for _, body := range singles {
			take(body, true)
		}
		taken += len(singles)
	}
	if taken < 4000 {
		t.Fatalf("vacuous: %d reports in 400 bodies", taken)
	}
}

// TestLayoutParseDeclinesNearMisses: a body one step outside the layout is
// declined — each of these is valid or nearly valid JSON that json.Marshal
// never writes — and the door, having zeroed what the parse touched,
// answers exactly what encoding/json into report structs answers, into a
// target a longer body just filled.
func TestLayoutParseDeclinesNearMisses(t *testing.T) {
	bc := `{"id":"` + goodID + `","distance":1,"rssi":-50}`
	good := `{"device":"d","atSeconds":1,"epoch":2,"seq":3,"beacons":[` + bc + `]}`
	batch := func(r string) string { return `[` + good + `,` + r + `]` }
	for _, c := range []struct {
		name, body string
		single     bool
	}{
		{"whitespace after a colon", batch(`{"device": "d","atSeconds":1,"beacons":null}`), false},
		{"whitespace between reports", `[` + good + `, ` + good + `]`, false},
		{"reordered keys", batch(`{"atSeconds":1,"device":"d","beacons":null}`), false},
		{`"Device"`, batch(`{"Device":"d","atSeconds":1,"beacons":null}`), false},
		{`\/ in an id`, batch(`{"device":"d","atSeconds":1,"beacons":[{"id":"B9407F30-F5F8-466E-AFF9-25556B57FE6D\/1/2","distance":1,"rssi":-50}]}`), false},
		{`\u0041 in a name`, batch(`{"device":"\u0041","atSeconds":1,"beacons":null}`), false},
		{"<>& as json.Marshal escapes them", batch(`{"device":"\u003crelay\u003e\u0026co","atSeconds":1,"beacons":null}`), false},
		{"invalid UTF-8", batch(`{"device":"` + "\xff" + `","atSeconds":1,"beacons":null}`), false},
		{"1e400", batch(`{"device":"d","atSeconds":1e400,"beacons":null}`), false},
		{`"seq":-1`, batch(`{"device":"d","atSeconds":1,"seq":-1,"beacons":null}`), false},
		{`"seq":1.5`, batch(`{"device":"d","atSeconds":1,"seq":1.5,"beacons":null}`), false},
		{`"epoch":01`, batch(`{"device":"d","atSeconds":1,"epoch":01,"beacons":null}`), false},
		{"a stamp past uint64", batch(`{"device":"d","atSeconds":1,"seq":18446744073709551616,"beacons":null}`), false},
		{"a duplicate key", batch(`{"device":"d","device":"e","atSeconds":1,"beacons":null}`), false},
		{`"device":null`, batch(`{"device":null,"atSeconds":1,"beacons":null}`), false},
		{"a beacon without rssi", batch(`{"device":"d","atSeconds":1,"beacons":[{"id":"` + goodID + `","distance":1}]}`), false},
		{"beacons an object", batch(`{"device":"d","atSeconds":1,"beacons":` + bc + `}`), false},
		{"[null]", `[null]`, false},
		{"trailing bytes", `[` + good + `]]`, false},
		{"a trailing newline", `[` + good + "]\n", false},
		{"a single null", `null`, true},
		{"a single report's trailing newline", good + "\n", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			body := []byte(c.body)
			if new(JSONUpload).parseLayout(body, c.single) {
				t.Fatalf("the layout parse took %s", body)
			}
			u, b := new(JSONUpload), new(wire.Batch)
			long := []byte(`[` + strings.Repeat(good+`,`, 9) + good + `]`)
			if out := uploadDoor(u, b, long, false); out.decodeErr != nil || out.renderErr != nil || b.Len() != 10 {
				t.Fatalf("the long body: %+v", out)
			}
			u.reset()
			b.Reset()
			if d := diffOutcomes(uploadDoor(u, b, body, c.single), oracleDoor(body, c.single), false); d != "" {
				t.Fatalf("body %s: %s", body, d)
			}
		})
	}
}

// relayBody is a relay's upload: 64 devices' reports of 6 beacons each,
// as json.Marshal writes it.
func relayBody(tb testing.TB) []byte {
	reports := make([]Report, 64)
	for i := range reports {
		reports[i] = Report{Device: fmt.Sprintf("phone-%03d", i), AtSeconds: 1234.5 + float64(i)/7, Epoch: 1, Seq: uint64(100 + i)}
		for k := 0; k < 6; k++ {
			reports[i].Beacons = append(reports[i].Beacons, BeaconReport{
				ID: fmt.Sprintf("b9407f30-f5f8-466e-aff9-25556b57fe6d/1/%d", k+1), Distance: 1.5 + float64(k)/3, RSSI: -60.25 - float64(k),
			})
		}
	}
	body, err := json.Marshal(reports)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestAllocBudgetLayoutParse: a warm pooled target reads a relay's
// 64-report body, and the batch takes it, without allocating — where
// encoding/json's decode cost its per-call state.
func TestAllocBudgetLayoutParse(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	body := relayBody(t)
	single := []byte(`{"device":"d","atSeconds":1,"beacons":[{"id":"` + goodID + `","distance":1,"rssi":-50}]}`)
	u, b := new(JSONUpload), new(wire.Batch)
	read := func(decode func([]byte) error, body []byte) func() {
		return func() {
			if err := decode(body); err != nil {
				t.Fatal(err)
			}
			if err := u.AppendTo(b); err != nil {
				t.Fatal(err)
			}
			u.reset()
			b.Reset()
		}
	}
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"64-report batch", read(u.UnmarshalBatch, body)},
		{"single report", read(u.UnmarshalReport, single)},
	} {
		c.run() // grow the target and the batch, fill the interner
		if n := testing.AllocsPerRun(100, c.run); n != 0 {
			t.Errorf("a warm target reads a %s with %v allocations, budget 0", c.name, n)
		}
	}
}

// BenchmarkJSONDoor is the JSON door on a relay's body: decode, then
// land it in the batch. layout is the body as json.Marshal writes it;
// fallback the same reports indented, which the layout parse declines
// at its first byte, so encoding/json decodes it.
func BenchmarkJSONDoor(b *testing.B) {
	compact := relayBody(b)
	var indented bytes.Buffer
	if err := json.Indent(&indented, compact, "", " "); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body []byte
	}{{"layout", compact}, {"fallback", indented.Bytes()}} {
		b.Run(c.name, func(b *testing.B) {
			u, batch := new(JSONUpload), new(wire.Batch)
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := u.UnmarshalBatch(c.body); err != nil {
					b.Fatal(err)
				}
				if err := u.AppendTo(batch); err != nil {
					b.Fatal(err)
				}
				u.reset()
				batch.Reset()
			}
		})
	}
}
