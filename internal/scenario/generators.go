package scenario

import (
	"time"

	"occusim/internal/building"
	"occusim/internal/experiments"
	"occusim/internal/fleet"
	"occusim/internal/overload"
	"occusim/internal/transport"
)

// laneBatch chunks one device's stream into batches of at most size,
// all aimed at gateway gw with the given repeat count.
func laneBatch(stream []transport.Report, size, gw, repeat int) Lane {
	var lane Lane
	for len(stream) > 0 {
		n := size
		if n > len(stream) {
			n = len(stream)
		}
		lane.Batches = append(lane.Batches, Batch{Reports: stream[:n], Gateway: gw, Repeat: repeat})
		stream = stream[n:]
	}
	return lane
}

// Lanes is the honest delivery plan: every device hands its uplink size
// reports at a time, against gateway 0, once.
func Lanes(streams [][]transport.Report, size int) []Lane {
	lanes := make([]Lane, len(streams))
	for d, s := range streams {
		lanes[d] = laneBatch(s, size, 0, 1)
	}
	return lanes
}

// plainLanes is Lanes at the library's batch size, 16 reports.
func plainLanes(streams [][]transport.Report) []Lane { return Lanes(streams, 16) }

// Clean is the control scenario: the synthetic crowd delivered
// faithfully. It pins the harness itself — if clean cannot verify
// byte-identical, no hostile scenario's verdict means anything.
func Clean() Scenario {
	return Scenario{
		Name:        "clean",
		Description: "faithful crowd delivery; control for the harness and oracle",
		Oracle:      Exact,
		Generate: func(b *building.Building, cfg Config) (*Traffic, error) {
			streams, _, final := experiments.SynthCrowdStreams(b, cfg.Devices, cfg.Reports, cfg.Seed)
			return &Traffic{Lanes: plainLanes(streams), Honest: streams, FinalRoom: final}, nil
		},
	}
}

// Burst models intermittent advertisers: a handset that wakes every
// other 20 s window, scans densely, and uplinks the whole window as
// one oversized batch. The reports it does send are truthful, so the
// fleet must land byte-identical to a reference fed the same
// intermittent stream smoothly.
func Burst() Scenario {
	const window = 10 // reports per on-window (20 s at the 2 s cadence)
	return Scenario{
		Name:        "burst",
		Description: "intermittent advertisers: alternate silent windows, then one oversized batch",
		Oracle:      Exact,
		Generate: func(b *building.Building, cfg Config) (*Traffic, error) {
			streams, _, _ := experiments.SynthCrowdStreams(b, cfg.Devices, cfg.Reports, cfg.Seed)
			honest := make([][]transport.Report, len(streams))
			lanes := make([]Lane, len(streams))
			for d, s := range streams {
				for i := 0; i < len(s); i += 2 * window {
					end := i + window
					if end > len(s) {
						end = len(s)
					}
					on := s[i:end]
					honest[d] = append(honest[d], on...)
					lanes[d].Batches = append(lanes[d].Batches, Batch{Reports: on})
				}
			}
			return &Traffic{Lanes: lanes, Honest: honest}, nil
		},
	}
}

// Diurnal models the campus population wave (the BLEBeacon-dataset
// shape): devices arrive staggered across the day, dwell for half a
// trace, and leave without a goodbye. Departed devices are residue;
// the fleet's TTL sweep must age them out to exactly the state of a
// reference that expired the same cutoff.
func Diurnal() Scenario {
	return Scenario{
		Name:        "diurnal",
		Description: "staggered arrive/dwell/depart wave on the campus plan; departures swept by TTL",
		Plan:        "campus",
		Oracle:      ExactAfterSweep,
		Generate: func(b *building.Building, cfg Config) (*Traffic, error) {
			streams, _, _ := experiments.SynthCrowdStreams(b, cfg.Devices, cfg.Reports, cfg.Seed)
			span := time.Duration(cfg.Reports) * experiments.CrowdReportPeriod
			shift := span / time.Duration(cfg.Devices)
			honest := make([][]transport.Report, len(streams))
			for d, s := range streams {
				stay := s[:len(s)/2]
				shifted := make([]transport.Report, len(stay))
				copy(shifted, stay)
				offset := (time.Duration(d) * shift).Seconds()
				for i := range shifted {
					shifted[i].AtSeconds += offset
				}
				honest[d] = shifted
			}
			return &Traffic{
				Lanes:  plainLanes(honest),
				Honest: honest,
				Spec:   Spec{Fleet: fleet.Config{ResidueTTL: span / 3}},
			}, nil
		},
	}
}

// Skew gives a quarter of the crowd clocks that are hours wrong, each
// by a different amount. The gateway re-anchors their timelines into
// the building frame, so placements, head counts, event shapes and
// dwell must match the honest reference — absolute event times are the
// one thing re-anchoring cannot preserve, which is exactly what the
// Explained oracle excludes.
func Skew() Scenario {
	return Scenario{
		Name:        "skew",
		Description: "every 4th device reports hours in the future; per-device offsets re-anchor them",
		Oracle:      Explained,
		Generate: func(b *building.Building, cfg Config) (*Traffic, error) {
			streams, _, _ := experiments.SynthCrowdStreams(b, cfg.Devices, cfg.Reports, cfg.Seed)
			hostile := make([][]transport.Report, len(streams))
			for d, s := range streams {
				hostile[d] = s
				if d%4 != 0 {
					continue
				}
				offset := 3600.0 * float64(1+d%3)
				skewed := make([]transport.Report, len(s))
				copy(skewed, s)
				for i := range skewed {
					skewed[i].AtSeconds += offset
				}
				hostile[d] = skewed
			}
			return &Traffic{
				Lanes:  plainLanes(hostile),
				Honest: streams,
				Spec:   Spec{Fleet: fleet.Config{SkewWindow: 30 * time.Second}},
			}, nil
		},
	}
}

// Droop models duty-cycle decay: a battery saver stretches the scan
// period as the trace goes on — full cadence for the first third, every
// other report in the second, every fourth in the last. Sparse but
// truthful, so the oracle is Exact against the same drooped stream.
func Droop() Scenario {
	return Scenario{
		Name:        "droop",
		Description: "duty-cycle droop: report cadence decays to quarter rate over the trace",
		Oracle:      Exact,
		Generate: func(b *building.Building, cfg Config) (*Traffic, error) {
			streams, _, _ := experiments.SynthCrowdStreams(b, cfg.Devices, cfg.Reports, cfg.Seed)
			honest := make([][]transport.Report, len(streams))
			for d, s := range streams {
				for i := range s {
					keep := i < len(s)/3 ||
						(i < 2*len(s)/3 && i%2 == 0) ||
						i%4 == 0
					if keep {
						honest[d] = append(honest[d], s[i])
					}
				}
			}
			return &Traffic{Lanes: plainLanes(honest), Honest: honest}, nil
		},
	}
}

// AppKill models the OS killing the companion app mid-dwell: every
// third device goes silent at 40% of its trace and never reports
// again. The dead devices' last-known rooms are residue the TTL sweep
// must reclaim, leaving exactly the reference state after the same
// expiry.
func AppKill() Scenario {
	return Scenario{
		Name:        "appkill",
		Description: "every 3rd device killed mid-dwell; its residue swept by TTL",
		Oracle:      ExactAfterSweep,
		Generate: func(b *building.Building, cfg Config) (*Traffic, error) {
			streams, _, _ := experiments.SynthCrowdStreams(b, cfg.Devices, cfg.Reports, cfg.Seed)
			honest := make([][]transport.Report, len(streams))
			for d, s := range streams {
				honest[d] = s
				if d%3 == 0 {
					honest[d] = s[:2*len(s)/5]
				}
			}
			span := time.Duration(cfg.Reports) * experiments.CrowdReportPeriod
			return &Traffic{
				Lanes:  plainLanes(honest),
				Honest: honest,
				Spec:   Spec{Fleet: fleet.Config{ResidueTTL: span / 3}},
			}, nil
		},
	}
}

// Storm is the NAT'd retransmit storm: a middlebox that answers slowly
// re-sends every whole batch three times, at well over the admission
// capacity of the gateway. The gateway must shed with 429s, devices
// back off and retransmit identical bytes, and the per-device sequence
// numbers must erase every duplicate — byte-identical to once-only
// delivery, with zero accepted reports lost.
func Storm() Scenario {
	return Scenario{
		Name:        "storm",
		Description: "every batch retransmitted Repeat-fold above admission capacity; shed, retry, dedup",
		Oracle:      Exact,
		Generate: func(b *building.Building, cfg Config) (*Traffic, error) {
			streams, _, final := experiments.SynthCrowdStreams(b, cfg.Devices, cfg.Reports, cfg.Seed)
			lanes := make([]Lane, len(streams))
			for d, s := range streams {
				lanes[d] = laneBatch(s, 16, 0, cfg.Repeat)
			}
			return &Traffic{
				Lanes:     lanes,
				Honest:    streams,
				FinalRoom: final,
				Spec: Spec{
					Fleet: fleet.Config{
						Admission: overload.Config{MaxInflight: 1, MaxQueue: 1, RetryAfter: 10 * time.Millisecond},
					},
					Wrap: Slow(time.Millisecond),
				},
			}, nil
		},
	}
}

// Flap models a device whose Wi-Fi roams between two gateway
// instances mid-trace: alternate batches land on alternate gateways
// over the same shard pool. Consistent hashing sends both halves to
// the same shards, so the federated state must be byte-identical to
// single-gateway delivery.
func Flap() Scenario {
	return Scenario{
		Name:        "flap",
		Description: "alternate batches flap between two gateways over one shard pool",
		Oracle:      Exact,
		Generate: func(b *building.Building, cfg Config) (*Traffic, error) {
			streams, _, _ := experiments.SynthCrowdStreams(b, cfg.Devices, cfg.Reports, cfg.Seed)
			lanes := make([]Lane, len(streams))
			for d, s := range streams {
				lane := laneBatch(s, 16, 0, 1)
				for i := range lane.Batches {
					lane.Batches[i].Gateway = i % 2
				}
				lanes[d] = lane
			}
			return &Traffic{Lanes: lanes, Honest: streams, Spec: Spec{Gateways: 2}}, nil
		},
	}
}
