package energy

import (
	"math"
	"strings"
	"testing"
	"time"

	"occusim/internal/device"
)

func TestMeterDrawAccounting(t *testing.T) {
	m := NewMeter(device.Battery{CapacitymAh: 1000, VoltageV: 3.7})    // 13320 J
	if err := m.Component("radio").Draw(1000, time.Hour); err != nil { // 1 W for 1 h = 3600 J
		t.Fatal(err)
	}
	if math.Abs(m.UsedJ()-3600) > 1e-9 {
		t.Fatalf("used = %v", m.UsedJ())
	}
	if math.Abs(m.Level()-(13320.0-3600.0)/13320.0) > 1e-12 {
		t.Fatalf("level = %v", m.Level())
	}
	if err := m.Component("cpu").DrawEnergy(100); err != nil {
		t.Fatal(err)
	}
	by := m.ByComponent()
	if len(by) != 2 || by["radio"] != 3600 || by["cpu"] != 100 {
		t.Fatalf("byComponent = %v", by)
	}
}

func TestMeterErrors(t *testing.T) {
	m := NewMeter(device.GalaxyS3Mini().Battery)
	if err := m.Component("x").Draw(-1, time.Second); err == nil {
		t.Error("negative power should fail")
	}
	if err := m.Component("x").Draw(1, -time.Second); err == nil {
		t.Error("negative duration should fail")
	}
	if err := m.Component("x").DrawEnergy(-1); err == nil {
		t.Error("negative energy should fail")
	}
}

func TestMeterDepletion(t *testing.T) {
	m := NewMeter(device.Battery{CapacitymAh: 1, VoltageV: 1}) // 3.6 J
	if m.Depleted() {
		t.Fatal("fresh battery depleted")
	}
	_ = m.Component("x").DrawEnergy(10)
	if !m.Depleted() || m.RemainingJ() != 0 || m.Level() != 0 {
		t.Fatalf("over-drain handling: remaining=%v level=%v", m.RemainingJ(), m.Level())
	}
}

func TestDefaultAppProfileCalibration(t *testing.T) {
	p := DefaultAppProfile()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	const reportPeriod = 5.0 // seconds
	wifiMW := p.ContinuousPowerMW(WiFi) + p.WiFiReportJ/reportPeriod*1000
	btMW := p.ContinuousPowerMW(Bluetooth) + p.BTReportJ/reportPeriod*1000

	battery := device.GalaxyS3Mini().Battery.EnergyJ()
	wifiHours := battery / wifiMW * 1000 / 3600
	btHours := battery / btMW * 1000 / 3600

	// Paper: ≈10 h lifetime with the app.
	if wifiHours < 9 || wifiHours > 11 {
		t.Errorf("Wi-Fi lifetime = %.2f h, want ≈10", wifiHours)
	}
	// Paper: ≈15% energy saving with the Bluetooth architecture.
	saving := (wifiMW - btMW) / wifiMW
	if saving < 0.12 || saving > 0.18 {
		t.Errorf("BT saving = %.1f%%, want ≈15%%", saving*100)
	}
	if btHours <= wifiHours {
		t.Error("BT lifetime should exceed Wi-Fi lifetime")
	}
}

func TestAppProfileValidate(t *testing.T) {
	p := DefaultAppProfile()
	p.BLEScanMW = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative field should fail")
	}
}

func TestReportEnergySelectsUplink(t *testing.T) {
	p := DefaultAppProfile()
	if p.ReportEnergyJ(WiFi) != p.WiFiReportJ {
		t.Error("wifi report energy wrong")
	}
	if p.ReportEnergyJ(Bluetooth) != p.BTReportJ {
		t.Error("bt report energy wrong")
	}
	if p.ReportEnergyJ(WiFi) <= p.ReportEnergyJ(Bluetooth) {
		t.Error("wifi report must cost more than bluetooth")
	}
}

func TestContinuousPowerIncludesWiFiIdleOnlyOnWiFi(t *testing.T) {
	p := DefaultAppProfile()
	if p.ContinuousPowerMW(WiFi)-p.ContinuousPowerMW(Bluetooth) != p.WiFiIdleMW {
		t.Fatal("Wi-Fi idle attribution wrong")
	}
}

func TestUplinkString(t *testing.T) {
	if WiFi.String() != "wifi" || Bluetooth.String() != "bluetooth" {
		t.Fatal("bad uplink strings")
	}
	if !strings.Contains(Uplink(9).String(), "9") {
		t.Fatal("unknown uplink should include value")
	}
}

func TestLogger(t *testing.T) {
	m := NewMeter(device.Battery{CapacitymAh: 1000, VoltageV: 3.6}) // 12960 J
	l := NewLogger(m)
	l.Sample(0)
	_ = m.Component("app").Draw(3600, time.Hour) // burn 1/1th? 3.6W*3600s = 12960 J... burn exactly all
	l.Sample(time.Hour)
	entries := l.Entries()
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Level != 1 || entries[1].Level != 0 {
		t.Fatalf("levels = %v", entries)
	}
}

func TestLifetimeEstimate(t *testing.T) {
	m := NewMeter(device.Battery{CapacitymAh: 1000, VoltageV: 3.6}) // 12960 J
	l := NewLogger(m)
	l.Sample(0)
	// Draw 10% over one hour → lifetime should extrapolate to 10 h.
	_ = m.Component("app").DrawEnergy(1296)
	l.Sample(time.Hour)
	life, ok := l.LifetimeEstimate()
	if !ok {
		t.Fatal("estimate unavailable")
	}
	if math.Abs(life.Hours()-10) > 0.01 {
		t.Fatalf("lifetime = %v, want 10 h", life)
	}
}

func TestLifetimeEstimateUnavailable(t *testing.T) {
	m := NewMeter(device.GalaxyS3Mini().Battery)
	l := NewLogger(m)
	if _, ok := l.LifetimeEstimate(); ok {
		t.Fatal("no entries should give no estimate")
	}
	l.Sample(0)
	l.Sample(time.Hour) // no drain
	if _, ok := l.LifetimeEstimate(); ok {
		t.Fatal("zero drain should give no estimate")
	}
}
