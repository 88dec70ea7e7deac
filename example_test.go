package occusim_test

import (
	"fmt"
	"sort"
	"time"

	"occusim"
)

// Example_quickstart puts one phone 2 m from the single-room plan's
// beacon. The phone runs the client app (background scanning, region
// monitoring, ranging, history filter) and reports to the in-process
// Building Management Server; the example prints everything the system
// derives: the ranged distance, the app lifecycle state, the server's
// occupancy view and the battery cost.
func Example_quickstart() {
	scn, err := occusim.NewScenario(occusim.ScenarioConfig{
		Building:        occusim.SingleRoom(),
		Seed:            1,
		TrackerDebounce: 1,
	})
	if err != nil {
		panic(err)
	}

	// A phone resting 2 m from the transmitter. Its reports pass through
	// a tap on the way to the server, which keeps the latest one.
	var last occusim.Report
	up := scn.ServerUplink()
	tap := occusim.SendFunc{Label: up.Name(), F: func(r occusim.Report) error {
		last = r
		return up.Send(r)
	}}
	phone, err := scn.AddPhone("demo-phone", occusim.Static{P: occusim.Pt(2.5, 3)}, occusim.PhoneConfig{Uplink: tap})
	if err != nil {
		panic(err)
	}

	scn.Run(2 * time.Minute)

	// The app ranges while it is inside the region: it has entered more
	// often than it has left.
	st := phone.Stats()
	state := "monitoring"
	if st.RegionEnters > st.RegionExits {
		state = "ranging"
	}
	fmt.Printf("app state: %s\n", state)
	for _, b := range last.Beacons {
		fmt.Printf("ranged beacon %s: %.2f m (true distance 2.0 m)\n", b.ID, b.Distance)
	}

	snap := scn.Server().Occupancy()
	fmt.Printf("server occupancy: %v\n", snap.Rooms)
	fmt.Printf("server placed %q in %q\n", "demo-phone", snap.Devices["demo-phone"])

	fmt.Printf("scan cycles: %d, reports delivered: %d\n", st.Cycles, st.ReportsSent)
	fmt.Printf("energy used in 2 min: %.1f J (battery at %.2f%%)\n",
		phone.Meter().UsedJ(), 100*phone.Meter().Level())
	// Output:
	// app state: ranging
	// ranged beacon C0FFEE00-BEEF-4A11-8000-000000000001/1/1: 2.02 m (true distance 2.0 m)
	// server occupancy: map[lab:1]
	// server placed "demo-phone" in "lab"
	// scan cycles: 59, reports delivered: 59
	// energy used in 2 min: 88.4 J (battery at 99.57%)
}

// Example_calibration runs the Section IV.A procedure plus the Section
// VIII cross-device fix. First the installer calibrates a beacon's
// measured-power field by sampling RSSI one metre away (the paper used
// the Radius Networks "iBeacon Locate" app for this). Then two different
// handsets sample the same beacon at the same distance, reproducing the
// Figure 11 offset, and the per-device RSSI correction is learned back
// from the data — the mitigation the paper proposes as future work.
func Example_calibration() {
	// Step 1 — measured-power calibration: the reference phone stands
	// 1 m from the beacon and collects per-cycle RSSI from its own
	// report stream.
	refRSSI := sampleRSSI(occusim.GalaxyS3Mini(), 1.0, 5)
	power, err := occusim.CalibrateMeasuredPower(refRSSI)
	if err != nil {
		panic(err)
	}
	fmt.Printf("step 1: calibrated measured power from %d samples at 1 m: %d dBm (installed field: -59)\n",
		len(refRSSI), power)

	// Step 2 — cross-device offset (Figure 11): an S3 Mini and a Nexus 5
	// sample the same beacon at the same 2 m distance.
	s3Mean := mean(sampleRSSI(occusim.GalaxyS3Mini(), 2.0, 6))
	n5Mean := mean(sampleRSSI(occusim.Nexus5(), 2.0, 6))
	fmt.Printf("step 2: mean RSSI at 2 m — S3 Mini %.1f dBm, Nexus 5 %.1f dBm\n", s3Mean, n5Mean)

	// Step 3 — learn the correction relative to the reference handset.
	offset := n5Mean - s3Mean
	fmt.Printf("step 3: learned Nexus 5 offset %+.1f dB (profile ground truth: +6.0 dB)\n", offset)
	fmt.Println("        subtracting it at setup time aligns both devices' fingerprints, as §VIII proposes")
	// Output:
	// step 1: calibrated measured power from 56 samples at 1 m: -54 dBm (installed field: -59)
	// step 2: mean RSSI at 2 m — S3 Mini -65.3 dBm, Nexus 5 -59.3 dBm
	// step 3: learned Nexus 5 offset +6.0 dB (profile ground truth: +6.0 dB)
	//         subtracting it at setup time aligns both devices' fingerprints, as §VIII proposes
}

// sampleRSSI runs one phone at the given distance from the single-room
// beacon for two simulated minutes and returns the aggregated RSSI of
// every uplink report.
func sampleRSSI(profile occusim.DeviceProfile, distance float64, seed uint64) []float64 {
	scn, err := occusim.NewScenario(occusim.ScenarioConfig{
		Building: occusim.SingleRoom(),
		Seed:     seed,
	})
	if err != nil {
		panic(err)
	}
	var rssis []float64
	collector := occusim.SendFunc{
		Label: "calibration",
		F: func(r occusim.Report) error {
			for _, b := range r.Beacons {
				if b.RSSI != 0 {
					rssis = append(rssis, b.RSSI)
				}
			}
			return nil
		},
	}
	beaconPos := scn.Building().Beacons[0].Pos
	_, err = scn.AddPhone(profile.Model,
		occusim.Static{P: occusim.Pt(beaconPos.X+distance, beaconPos.Y)},
		occusim.PhoneConfig{Profile: profile, Uplink: collector})
	if err != nil {
		panic(err)
	}
	scn.Run(2 * time.Minute)
	if len(rssis) == 0 {
		panic("no samples collected for " + profile.Model)
	}
	return rssis
}

// centre returns the middle of a rectangle.
func centre(r occusim.Rect) occusim.Point {
	return occusim.Pt((r.Min.X+r.Max.X)/2, (r.Min.Y+r.Max.Y)/2)
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Example_museum is the original iBeacon use case Section III cites ("as
// soon as you approach to a painting, the smartphone will show you the
// most interesting information"). A visitor walks past four exhibits,
// and the app's ranging pipeline fires content triggers when the
// filtered distance to an exhibit beacon drops under the engagement
// threshold.
func Example_museum() {
	exhibits := map[uint16]string{
		1: "Sunflowers",
		2: "The Night Watch",
		3: "Girl with a Pearl Earring",
		4: "The Garden of Earthly Delights",
	}
	// A gallery: one long room with an exhibit beacon on each wall
	// segment, added in minor order so the run is the same every time.
	gallery := &occusim.Building{
		Name: "gallery",
		Rooms: []occusim.Room{
			{Name: "gallery", Bounds: occusim.NewRect(occusim.Pt(0, 0), occusim.Pt(24, 6))},
		},
	}
	uuid, err := occusim.ParseUUID("C0FFEE00-BEEF-4A11-8000-000000000001")
	if err != nil {
		panic(err)
	}
	for i, x := range []float64{3, 9, 15, 21} {
		gallery.Beacons = append(gallery.Beacons, occusim.Beacon{
			ID:            occusim.BeaconID{UUID: uuid, Major: 7, Minor: uint16(i + 1)},
			MeasuredPower: -59,
			TxPowerDBm:    -59,
			Pos:           occusim.Pt(x, 5.6),
			Room:          "gallery",
		})
	}

	scn, err := occusim.NewScenario(occusim.ScenarioConfig{Building: gallery, Seed: 3})
	if err != nil {
		panic(err)
	}

	// The visitor strolls along the exhibits, pausing at each.
	stops := []occusim.Stop{
		{P: occusim.Pt(1, 2), Dwell: 10 * time.Second},
		{P: occusim.Pt(3, 4.5), Dwell: 30 * time.Second},
		{P: occusim.Pt(9, 4.5), Dwell: 30 * time.Second},
		{P: occusim.Pt(15, 4.5), Dwell: 30 * time.Second},
		{P: occusim.Pt(21, 4.5), Dwell: 30 * time.Second},
		{P: occusim.Pt(23, 2), Dwell: 10 * time.Second},
	}
	walk, err := occusim.NewStops(stops, 1.0)
	if err != nil {
		panic(err)
	}
	// The app reports its ranging estimates every scan cycle; a tap on
	// its uplink keeps the latest report's.
	minorOf := map[string]uint16{}
	for _, b := range gallery.Beacons {
		minorOf[b.ID.String()] = b.ID.Minor
	}
	var ranged []occusim.BeaconReport
	up := scn.ServerUplink()
	tap := occusim.SendFunc{Label: up.Name(), F: func(r occusim.Report) error {
		ranged = r.Beacons
		return up.Send(r)
	}}
	if _, err := scn.AddPhone("visitor", walk, occusim.PhoneConfig{Uplink: tap}); err != nil {
		panic(err)
	}

	// Poll the ranging estimates as the tour progresses and fire content
	// when an exhibit comes within 2 m.
	const engageAt = 2.0
	triggered := map[uint16]bool{}
	step := 2 * time.Second
	for t := time.Duration(0); t < walk.End(); t += step {
		scn.Run(step)
		for _, b := range ranged {
			minor := minorOf[b.ID]
			name, known := exhibits[minor]
			if !known || triggered[minor] || b.Distance > engageAt {
				continue
			}
			triggered[minor] = true
			fmt.Printf("%6.0fs  within %.1f m of beacon %d → showing \"%s\"\n",
				scn.Now().Seconds(), b.Distance, minor, name)
		}
	}
	fmt.Printf("tour complete: %d/%d exhibits engaged\n", len(triggered), len(exhibits))
	// Output:
	//     18s  within 1.8 m of beacon 1 → showing "Sunflowers"
	//     56s  within 1.8 m of beacon 2 → showing "The Night Watch"
	//    132s  within 1.9 m of beacon 4 → showing "The Garden of Earthly Delights"
	// tour complete: 3/4 exhibits engaged
}

// Example_office is the demand-response use case that motivates the
// paper's introduction. An office floor is instrumented with beacons;
// the building trains a scene-analysis model from an operator walk; a
// crowd of workers then moves through the day, and the Building
// Management Server's occupancy stream drives HVAC and lighting only
// where people actually are. The example prints the energy saving
// against schedule-based control.
func Example_office() {
	floor := occusim.OfficeFloor()
	scn, err := occusim.NewScenario(occusim.ScenarioConfig{Building: floor, Seed: 42})
	if err != nil {
		panic(err)
	}

	// Setup phase: the facilities operator walks the floor collecting
	// fingerprints, then the server trains the SVM.
	fmt.Println("collecting fingerprints...")
	train, err := scn.CollectFingerprints(occusim.CollectConfig{IncludeOutside: true})
	if err != nil {
		panic(err)
	}
	for _, s := range train.Samples {
		if err := scn.Server().AddFingerprint(s); err != nil {
			panic(err)
		}
	}
	info, err := scn.Server().Train(10, 0.03, 42)
	if err != nil {
		panic(err)
	}
	fmt.Printf("trained on %d fingerprints across %d classes\n", info.Samples, len(info.Classes))

	// Working hours: eight workers, each mostly in their own office with
	// breaks in the open space and meetings.
	const workday = 45 * time.Minute // compressed working window
	for i := 0; i < 8; i++ {
		office, _ := floor.RoomByName(fmt.Sprintf("office-%d", i%6+1))
		stops := []occusim.Stop{
			{P: centre(office.Bounds), Dwell: 12 * time.Minute},
			{P: occusim.Pt(8, 4), Dwell: 4 * time.Minute}, // open space
			{P: centre(office.Bounds), Dwell: 10 * time.Minute},
			{P: occusim.Pt(20, 4), Dwell: 5 * time.Minute}, // meeting room
			{P: centre(office.Bounds), Dwell: 10 * time.Minute},
		}
		walk, err := occusim.NewStops(stops, 1.3)
		if err != nil {
			panic(err)
		}
		if _, err := scn.AddPhone(fmt.Sprintf("worker-%d", i+1), walk, occusim.PhoneConfig{}); err != nil {
			panic(err)
		}
	}
	fmt.Println("running the working window...")
	scn.Run(workday)

	snap := scn.Server().Occupancy()
	rooms := make([]string, 0, len(snap.Rooms))
	for r := range snap.Rooms {
		rooms = append(rooms, r)
	}
	sort.Strings(rooms)
	fmt.Println("final head counts:")
	for _, r := range rooms {
		fmt.Printf("  %-12s %d\n", r, snap.Rooms[r])
	}

	cmp, err := occusim.CompareEnergy(floor.RoomNames(), scn.Server().Events(), scn.Now(), occusim.DefaultHVAC())
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nHVAC + lighting over %.1f h:\n", cmp.Horizon.Hours())
	fmt.Printf("  schedule-based    %.1f kWh\n", cmp.BaselineKWh)
	fmt.Printf("  occupancy-driven  %.1f kWh\n", cmp.DemandKWh)
	fmt.Printf("  saving            %.1f%%\n", 100*cmp.SavingFraction)
	// Output:
	// collecting fingerprints...
	// trained on 345 fingerprints across 10 classes
	// running the working window...
	// final head counts:
	//   office-1     2
	//   office-2     2
	//   office-3     1
	//   office-4     1
	//   office-5     1
	//   office-6     1
	//
	// HVAC + lighting over 1.0 h:
	//   schedule-based    15.6 kWh
	//   occupancy-driven  9.8 kWh
	//   saving            36.9%
}
