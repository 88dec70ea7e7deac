// Package occusim is an occupancy-detection system for smart buildings
// built on the iBeacon protocol, reproducing "Occupancy Detection via
// iBeacon on Android Devices for Smart Building Management" (Corna et
// al., DATE 2015) as a simulation-backed Go library.
//
// The package is a facade over the internal implementation. A typical
// session builds a Scenario (a floor plan instrumented with beacon
// transmitters, a radio channel and an in-process Building Management
// Server), adds phones running the client app, and advances simulated
// time:
//
//	scn, err := occusim.NewScenario(occusim.ScenarioConfig{
//		Building: occusim.PaperHouse(),
//		Seed:     1,
//	})
//	phone, err := scn.AddPhone("alice", occusim.Static{P: occusim.Pt(2, 2)}, occusim.PhoneConfig{})
//	scn.Run(5 * time.Minute)
//	fmt.Println(scn.Server().Occupancy())
//
// The experiment harness behind every figure of the paper lives in
// internal/experiments (printed by cmd/experiments, its published numbers
// pinned by TestExperimentsTable); the walkthroughs are the Example_*
// functions (quickstart, calibration, museum, office), their output
// pinned by go test.
package occusim

import (
	"occusim/internal/app"
	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/classify"
	"occusim/internal/core"
	"occusim/internal/device"
	"occusim/internal/energy"
	"occusim/internal/filter"
	"occusim/internal/fingerprint"
	"occusim/internal/geom"
	"occusim/internal/ibeacon"
	"occusim/internal/mobility"
	"occusim/internal/occupancy"
	"occusim/internal/radio"
	"occusim/internal/rng"
	"occusim/internal/store"
	"occusim/internal/svm"
	"occusim/internal/transport"
)

// HTTPUplink posts reports to a BMS over HTTP — the Wi-Fi path.
type HTTPUplink = transport.HTTPUplink

// Geometry.
type (
	// Point is a position on the floor plan in metres.
	Point = geom.Point
	// Rect is an axis-aligned rectangle.
	Rect = geom.Rect
)

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// NewRect builds a rectangle from two opposite corners.
func NewRect(a, b Point) Rect { return geom.NewRect(a, b) }

// Building model.
type (
	// Building is an instrumented floor plan.
	Building = building.Building
	// Room is one named area.
	Room = building.Room
	// Beacon is an installed iBeacon transmitter.
	Beacon = building.Beacon
)

// Outside is the class label for positions outside every room.
const Outside = building.Outside

// Pre-built floor plans.
var (
	// PaperHouse is the six-room house of the classification experiment.
	PaperHouse = building.PaperHouse
	// OfficeFloor is a commercial floor for the HVAC example.
	OfficeFloor = building.OfficeFloor
	// SingleRoom hosts the static signal experiments.
	SingleRoom = building.SingleRoom
	// TwoBeaconCorridor hosts the dynamic filter experiments.
	TwoBeaconCorridor = building.TwoBeaconCorridor
)

// iBeacon protocol.
type (
	// UUID is a 16-byte proximity UUID.
	UUID = ibeacon.UUID
	// BeaconID identifies one transmitter (UUID, major, minor).
	BeaconID = ibeacon.BeaconID
	// Packet is a decoded iBeacon advertisement.
	Packet = ibeacon.Packet
	// Region is a monitored iBeacon region.
	Region = ibeacon.Region
)

var (
	// ParseUUID parses a hyphenated or plain-hex UUID.
	ParseUUID = ibeacon.ParseUUID
	// NewRegion builds a wildcard region over a UUID.
	NewRegion = ibeacon.NewRegion
	// CalibrateMeasuredPower derives the measured-power field from RSSI
	// samples taken at one metre.
	CalibrateMeasuredPower = ibeacon.CalibrateMeasuredPower
)

// Devices and mobility.
type (
	// DeviceProfile describes a handset model.
	DeviceProfile = device.Profile
	// MobilityModel yields a position over simulated time.
	MobilityModel = mobility.Model
	// Static is a motionless subject.
	Static = mobility.Static
	// Stop is a dwell point of a survey walk.
	Stop = mobility.Stop
)

var (
	// GalaxyS3Mini is the paper's main test phone.
	GalaxyS3Mini = device.GalaxyS3Mini
	// Nexus5 is the second handset of Figure 11.
	Nexus5 = device.Nexus5
	// IPhone5S is the iOS reference device.
	IPhone5S = device.IPhone5S
	// NewPath walks waypoints at constant speed.
	NewPath = mobility.NewPath
	// NewStops walks between dwell points.
	NewStops = mobility.NewStops
	// NewRandomWaypoint is the classic random-waypoint model.
	NewRandomWaypoint = mobility.NewRandomWaypoint
	// NewTour hops between areas with dwells.
	NewTour = mobility.NewTour
	// DefaultWalk is the paper's 1–1.5 m/s walking parameterisation.
	DefaultWalk = mobility.DefaultWalk
)

// Radio and ranging.
type (
	// RadioParams configures the indoor propagation model.
	RadioParams = radio.Params
	// DistanceEstimator converts RSSI to metres.
	DistanceEstimator = radio.DistanceEstimator
	// FilterConfig configures the paper's history filter.
	FilterConfig = filter.Config
)

var (
	// DefaultIndoor is the calibrated indoor channel.
	DefaultIndoor = radio.DefaultIndoor
	// PaperFilter is the paper's filter configuration (c = 0.65, two
	// consecutive losses).
	PaperFilter = filter.PaperConfig
)

// Scenario composition (the paper's full system).
type (
	// Scenario is a running deployment.
	Scenario = core.Scenario
	// ScenarioConfig describes a deployment.
	ScenarioConfig = core.ScenarioConfig
	// PhoneConfig configures a client phone.
	PhoneConfig = core.PhoneConfig
	// CollectConfig configures the fingerprint collection walk.
	CollectConfig = core.CollectConfig
	// WalkConfig configures the labelled test walk.
	WalkConfig = core.WalkConfig
	// TrialConfig configures a full classification trial.
	TrialConfig = core.TrialConfig
	// TrialResult is a classification trial outcome.
	TrialResult = core.TrialResult
	// App is a running client instance.
	App = app.App
)

var (
	// NewScenario builds a deployment.
	NewScenario = core.NewScenario
	// RunClassificationTrial reproduces the Figure 9 experiment.
	RunClassificationTrial = core.RunClassificationTrial
	// OutsideArea returns the walk area outside the entrance.
	OutsideArea = core.OutsideArea
)

// Classification.
type (
	// Classifier predicts a room from a fingerprint sample.
	Classifier = classify.Classifier
	// FingerprintDataset is a labelled scene-analysis dataset.
	FingerprintDataset = fingerprint.Dataset
	// FingerprintSample is one labelled observation.
	FingerprintSample = fingerprint.Sample
	// SVMConfig configures SVM training.
	SVMConfig = svm.TrainConfig
	// ConfusionMatrix scores predictions against ground truth.
	ConfusionMatrix = classify.ConfusionMatrix
	// EvalResult is a classifier evaluation outcome.
	EvalResult = classify.Result
)

var (
	// NewProximity builds the proximity baseline from a building.
	NewProximity = classify.NewProximity
	// TrainSceneSVM fits the paper's scene-analysis SVM.
	TrainSceneSVM = classify.TrainSceneSVM
	// TrainSceneKNN fits the k-NN baseline.
	TrainSceneKNN = classify.TrainSceneKNN
	// EvaluateClassifier scores a classifier on a labelled dataset.
	EvaluateClassifier = classify.Evaluate
)

// Server side.
type (
	// BMS is the Building Management Server.
	BMS = bms.Server
	// OccupancyEvent is a committed enter/exit transition.
	OccupancyEvent = occupancy.Event
	// HVACConfig parameterises demand-response control.
	HVACConfig = bms.HVACConfig
	// EnergyComparison is the schedule-vs-demand-response outcome.
	EnergyComparison = bms.EnergyComparison
	// Report is a device→server observation payload.
	Report = transport.Report
	// BeaconReport is one ranged beacon inside a Report.
	BeaconReport = transport.BeaconReport
	// Uplink carries reports to the server.
	Uplink = transport.Uplink
	// SendFunc adapts a function to the Uplink interface, e.g. to
	// intercept a phone's report stream.
	SendFunc = transport.SendFunc
	// UplinkKind selects the energy accounting of a channel.
	UplinkKind = energy.Uplink
)

// Uplink energy kinds.
const (
	// WiFiUplink keeps the Wi-Fi radio associated and posts over HTTP.
	WiFiUplink = energy.WiFi
	// BluetoothUplink relays reports through the beacon board.
	BluetoothUplink = energy.Bluetooth
)

var (
	// DefaultHVAC is a plausible office HVAC configuration.
	DefaultHVAC = bms.DefaultHVAC
	// CompareEnergy replays occupancy events against schedule-based
	// control.
	CompareEnergy = bms.CompareEnergy
)

// NewBMS builds a standalone Building Management Server over its own
// store, ready to serve the REST API via (*BMS).Handler — what cmd/bmsd
// runs. retain bounds observations kept per device; debounce is the
// occupancy tracker's consecutive-classification threshold.
func NewBMS(b *Building, retain, debounce int) (*BMS, error) {
	st, err := store.New(retain)
	if err != nil {
		return nil, err
	}
	return bms.NewServer(b, st, debounce)
}

// NewBTRelay wraps an onward uplink with the flaky BLE hop of the
// Bluetooth reporting architecture (Section VII): the phone hands its
// report to the beacon board, which forwards it. dropProb is the BLE
// connection failure probability; seed fixes the failure pattern.
func NewBTRelay(next Uplink, dropProb float64, seed uint64) (Uplink, error) {
	return transport.NewBTRelay(next, dropProb, rng.New(seed))
}
