package filter

import (
	"testing"
	"time"
)

// BenchmarkHistoryUpdate measures the per-cycle filtering cost with six
// tracked beacons — the client's hot path.
func BenchmarkHistoryUpdate(b *testing.B) {
	h, err := NewHistory(PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	obs := make([]Observation, 6)
	for i := range obs {
		id := beaconA
		id.Minor = uint16(i + 1)
		obs[i] = Observation{Beacon: id, RSSI: -65 - float64(i), MeasuredPower: -59}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Update(time.Duration(i)*time.Second, obs)
	}
}
