// The codecs a device uplink speaks (see uplink.go for the negotiation):
// JSON and the internal/wire frame format, the report → frame encoder,
// the shared keep-alive client, and the per-codec upload counters.
package transport

import (
	"fmt"
	"net/http"
	"time"

	"occusim/internal/ibeacon"
	"occusim/internal/wire"
)

// Codec selects the report batch encoding an uplink speaks.
type Codec int

const (
	// CodecJSON is the compatibility face every server accepts.
	CodecJSON Codec = iota
	// CodecBinary is the internal/wire frame format on an upgraded
	// stream; a server that refuses the upgrade is spoken JSON from then
	// on, stickily, per target.
	CodecBinary
)

// ParseCodec parses the -wire flag values.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "json":
		return CodecJSON, nil
	case "binary":
		return CodecBinary, nil
	default:
		return CodecJSON, fmt.Errorf("transport: unknown wire codec %q (want json or binary)", s)
	}
}

func (c Codec) String() string {
	if c == CodecBinary {
		return "binary"
	}
	return "json"
}

// EncodeReports fills b from reports, parsing each beacon identity
// into its binary form. An unparseable identity fails the whole batch,
// and no other codec would carry it: the JSON door parses identities
// with the same strict ParseBeaconID and refuses the whole upload.
func EncodeReports(b *wire.Batch, reports []Report) error {
	for i := range reports {
		r := &reports[i]
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

// pooledClient is the default client the nil-client paths share: one
// tuned http.Transport so every uplink and shard exchange rides a
// persistent connection instead of redialing. The stock
// DefaultTransport caps idle connections at 2 per host, which makes a
// fleet of concurrent device uplinks hammer the dialer; the ingest
// fan-in is exactly the many-clients-one-host shape that cap punishes.
// Per-attempt deadlines still come from the request context (see
// DoJSON), so no Client.Timeout here.
var pooledClient = &http.Client{Transport: &http.Transport{
	MaxIdleConns:        1024,
	MaxIdleConnsPerHost: 256,
	IdleConnTimeout:     90 * time.Second,
}}

// PooledClient returns the shared keep-alive tuned HTTP client —
// callers that construct uplinks with an explicit client (cmd/loadgen,
// cmd/beacond) use it instead of per-uplink clients so the whole
// process shares one connection pool.
func PooledClient() *http.Client { return pooledClient }

// wireCount bumps the per-codec batch counter.
func wireCount(codec string) {
	if tm := pkgMet.Load(); tm != nil {
		switch codec {
		case "binary":
			tm.wireBinary.Inc()
		case "presplit":
			tm.wirePresplit.Inc()
		default:
			tm.wireJSON.Inc()
		}
	}
}

// BatchPath is the batch ingest route every server face shares.
const BatchPath = "/api/v1/observations:batch"
