package device

import (
	"strings"
	"testing"
	"time"
)

func TestBuiltinProfilesValid(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Model, err)
		}
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	base := GalaxyS3Mini()
	mutate := []func(*Profile){
		func(p *Profile) { p.Model = "" },
		func(p *Profile) { p.NoiseSigmaDB = -1 },
		func(p *Profile) { p.ScanLossProb = -0.1 },
		func(p *Profile) { p.ScanLossProb = 1.1 },
		func(p *Profile) { p.ScanRestartOverhead = -time.Second },
		func(p *Profile) { p.Battery.CapacitymAh = 0 },
		func(p *Profile) { p.Battery.VoltageV = 0 },
	}
	for i, m := range mutate {
		p := base
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestBatteryEnergy(t *testing.T) {
	b := Battery{CapacitymAh: 1000, VoltageV: 3.7}
	want := 1.0 * 3.7 * 3600 // 1 Ah at 3.7 V = 13320 J
	if got := b.EnergyJ(); got != want {
		t.Fatalf("EnergyJ = %v, want %v", got, want)
	}
}

func TestOSString(t *testing.T) {
	if Android.String() != "android" || IOS.String() != "ios" {
		t.Fatal("bad OS strings")
	}
	if !strings.Contains(OS(9).String(), "9") {
		t.Fatal("unknown OS should include numeric value")
	}
}

func TestOSSemantics(t *testing.T) {
	if GalaxyS3Mini().OS != Android || Nexus5().OS != Android {
		t.Error("paper's test phones are Android devices")
	}
	if IPhone5S().OS != IOS {
		t.Error("iPhone profile must be iOS")
	}
}

func TestNexus5ReadsHotterThanS3Mini(t *testing.T) {
	// Figure 11: the two devices at the same distance read different
	// signal strengths; the profiles must encode a nonzero relative
	// offset.
	if Nexus5().RSSIOffsetDB == GalaxyS3Mini().RSSIOffsetDB {
		t.Fatal("device offsets must differ to reproduce Figure 11")
	}
}
