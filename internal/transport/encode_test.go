package transport

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"occusim/internal/ibeacon"
	"occusim/internal/rng"
	"occusim/internal/wire"
)

// encodeOracle is EncodeReports without the memo: every beacon's
// identity parsed where it stands.
func encodeOracle(b *wire.Batch, reports []Report) error {
	for _, r := range reports {
		b.AddReport(r.Device, r.AtSeconds, r.Epoch, r.Seq)
		for _, br := range r.Beacons {
			id, err := ibeacon.ParseBeaconID(br.ID)
			if err != nil {
				return err
			}
			b.AddBeacon(wire.Beacon{ID: id, Distance: br.Distance, RSSI: br.RSSI})
		}
	}
	return nil
}

// crowdReports is a random upload of a crowd hearing ids: a few devices,
// each report listing some of the identities in any order, repeats
// included.
func crowdReports(src *rng.Source, ids []string) []Report {
	reports := make([]Report, 1+src.Intn(24))
	for i := range reports {
		reports[i] = Report{Device: fmt.Sprintf("phone-%d", src.Intn(5)), AtSeconds: float64(i), Epoch: 1, Seq: uint64(i + 1)}
		for k := src.Intn(9); k > 0; k-- {
			reports[i].Beacons = append(reports[i].Beacons, BeaconReport{
				ID: ids[src.Intn(len(ids))], Distance: 0.2 + 12*src.Float64(), RSSI: -40 - 50*src.Float64(),
			})
		}
	}
	return reports
}

// TestEncodeReportsMatchesParseEveryBeacon: the memo changes no byte of
// a frame and no word of an error. Uploads name from 1 identity to
// three times as many as the memo holds — the same identity in lower and
// upper case counting as two texts — and a bad identity after good ones
// already remembered fails with the oracle's error.
func TestEncodeReportsMatchesParseEveryBeacon(t *testing.T) {
	src := rng.New(41)
	var pool []string
	for k := 0; k < 3*encodeMemo; k++ {
		id := fmt.Sprintf("c0ffee00-beef-4a11-8000-%012x/%d/%d", k/3, 1+k%2, k)
		if k%5 == 4 {
			id = strings.ToUpper(id)
		}
		pool = append(pool, id)
	}
	framed, overflowed := 0, 0 // uploads encoded; of them, past the memo
	got, want := wire.GetBatch(), wire.GetBatch()
	defer wire.PutBatch(got)
	defer wire.PutBatch(want)
	for trial := 0; trial < 2000; trial++ {
		ids := pool[:1+src.Intn(len(pool))]
		reports := crowdReports(src, ids)
		if trial%4 == 3 {
			// A bad identity at the end of a report: every good one
			// named before it has been remembered.
			r := &reports[src.Intn(len(reports))]
			bad := []string{"nope", ids[0][:36] + "/1/65536", strings.Replace(ids[0], "-", "_", 1)}[src.Intn(3)]
			r.Beacons = append(r.Beacons, BeaconReport{ID: bad, Distance: 1})
		}
		got.Reset()
		want.Reset()
		gotErr, wantErr := EncodeReports(got, reports), encodeOracle(want, reports)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("trial %d: EncodeReports says %v, parsing every beacon says %v", trial, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if g, w := wire.AppendFrame(nil, got), wire.AppendFrame(nil, want); !bytes.Equal(g, w) {
			t.Fatalf("trial %d (%d identities): the frames differ:\n%x\n%x", trial, len(ids), g, w)
		}
		framed++
		named := map[string]bool{}
		for _, r := range reports {
			for _, br := range r.Beacons {
				named[br.ID] = true
			}
		}
		if len(named) > encodeMemo {
			overflowed++
		}
	}
	if framed < 1000 || overflowed < 200 {
		t.Fatalf("%d uploads encoded, %d of them naming more identities than the memo holds: the property was barely exercised", framed, overflowed)
	}
	t.Logf("%d uploads encoded, %d past the memo", framed, overflowed)
}
