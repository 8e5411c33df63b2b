package fabric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(40).Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Config){
		func(c *Config) { c.Servers = 0 },
		func(c *Config) { c.ServerGbps = 0 },
		func(c *Config) { c.EdgePortsPerSwitch = 2 },
		func(c *Config) { c.Oversubscription = 0.5 },
		func(c *Config) { c.Uplink.Gbps = 0 },
	}
	for i, mutate := range bads {
		c := DefaultConfig(40)
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestDesignBaselineRack(t *testing.T) {
	// 40 servers at 1 GbE, 4:1 oversub, 48-port edge: one switch with
	// 40+ downlinks and a single 10G uplink covers it.
	p, err := Design(DefaultConfig(40))
	if err != nil {
		t.Fatal(err)
	}
	if p.EdgeSwitches != 1 {
		t.Errorf("edge switches = %d, want 1", p.EdgeSwitches)
	}
	if p.DownlinksPerSwitch < 40 {
		t.Errorf("downlinks = %d", p.DownlinksPerSwitch)
	}
	if p.UplinksPerSwitch < 1 {
		t.Error("no uplinks")
	}
	// Per-server cost should be the same order as the paper's $69 share.
	if c := p.PerServerCostUSD(); c < 50 || c > 200 {
		t.Errorf("per-server fabric cost $%.0f implausible", c)
	}
}

func TestDesignDenseRack(t *testing.T) {
	// N2's 1250-per-rack needs many edge switches and an aggregation
	// tier the flat model ignores.
	p, err := Design(DefaultConfig(1250))
	if err != nil {
		t.Fatal(err)
	}
	if p.EdgeSwitches < 26 {
		t.Errorf("edge switches = %d, want >= 26", p.EdgeSwitches)
	}
	if p.AggPorts != p.EdgeSwitches*p.UplinksPerSwitch {
		t.Error("aggregation ports do not match uplinks")
	}
	// Total servers covered.
	if p.EdgeSwitches*p.DownlinksPerSwitch < 1250 {
		t.Error("fabric does not cover the rack")
	}
}

func TestOversubscriptionTradeoff(t *testing.T) {
	full := DefaultConfig(320)
	full.Oversubscription = 1
	cheap := DefaultConfig(320)
	cheap.Oversubscription = 8

	pf, err := Design(full)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := Design(cheap)
	if err != nil {
		t.Fatal(err)
	}
	if pf.PerServerCostUSD() <= pc.PerServerCostUSD() {
		t.Errorf("full bisection ($%.0f) not pricier than 8:1 ($%.0f)",
			pf.PerServerCostUSD(), pc.PerServerCostUSD())
	}
	if pf.EffectiveServerGbps() < pc.EffectiveServerGbps() {
		t.Error("full bisection should not have less effective bandwidth")
	}
	if math.Abs(pf.EffectiveServerGbps()-1) > 1e-9 {
		t.Errorf("full bisection effective bw = %g, want NIC speed 1",
			pf.EffectiveServerGbps())
	}
}

func TestEffectiveBandwidthRespectsOversub(t *testing.T) {
	c := DefaultConfig(320)
	c.Oversubscription = 4
	p, err := Design(c)
	if err != nil {
		t.Fatal(err)
	}
	bw := p.EffectiveServerGbps()
	// At 4:1 the share must be at least 1/4 of the NIC (the solver may
	// give more because uplinks are integer).
	if bw < 0.25-1e-9 || bw > 1 {
		t.Errorf("effective bw = %g", bw)
	}
}

func TestDesignInfeasible(t *testing.T) {
	c := DefaultConfig(40)
	c.ServerGbps = 1000 // even one downlink exceeds all 47 uplinks
	c.Oversubscription = 1
	if _, err := Design(c); err == nil {
		t.Error("infeasible fabric accepted")
	}
}

// Property: the design always covers all servers and the per-switch port
// split never exceeds the chassis.
func TestQuickDesignInvariants(t *testing.T) {
	f := func(sRaw uint16, overRaw uint8) bool {
		servers := 1 + int(sRaw)%2000
		over := 1 + float64(overRaw%8)
		c := DefaultConfig(servers)
		c.Oversubscription = over
		p, err := Design(c)
		if err != nil {
			return false
		}
		if p.DownlinksPerSwitch+p.UplinksPerSwitch > c.EdgePortsPerSwitch {
			return false
		}
		if p.EdgeSwitches*p.DownlinksPerSwitch < servers {
			return false
		}
		return p.CostUSD > 0 && p.PowerW > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossEnclosureLatency(t *testing.T) {
	// 1 GbE: 4096 B at 125 MB/s = 32.768 us, plus the 2 us hop.
	got := CrossEnclosureLatencySec(125e6)
	want := 4096.0/125e6 + EdgeHopLatencySec
	if got != want {
		t.Errorf("CrossEnclosureLatencySec(1GbE) = %g, want %g", got, want)
	}
	if got <= 0 {
		t.Error("lookahead must be strictly positive")
	}
	// A faster NIC shrinks serialization but the hop floor remains.
	if f := CrossEnclosureLatencySec(1.25e9); f <= EdgeHopLatencySec || f >= got {
		t.Errorf("10GbE latency %g out of range (%g, %g)", f, EdgeHopLatencySec, got)
	}
	// Degenerate bandwidth falls back to the hop floor instead of Inf.
	if f := CrossEnclosureLatencySec(0); f != EdgeHopLatencySec {
		t.Errorf("zero-bandwidth fallback = %g, want %g", f, EdgeHopLatencySec)
	}
}

// TestLatencyClassOrdering: the three rack traffic classes must stay
// strictly ordered — intra-enclosure (no switch hop) below
// cross-enclosure (one edge hop) below the SAN path (an extra hop) —
// at any bandwidth, because the rack model's traffic classes are
// defined by exactly this ordering.
func TestLatencyClassOrdering(t *testing.T) {
	for _, nic := range []float64{0, 125e6, 1.25e9, 12.5e9} {
		intra := IntraEnclosureLatencySec(nic)
		cross := CrossEnclosureLatencySec(nic)
		san := SANPathLatencySec(nic)
		if !(0 < intra && intra < cross && cross < san) {
			t.Errorf("nic=%g: class ordering violated: intra %g, cross %g, san %g", nic, intra, cross, san)
		}
	}
	// 1 GbE: intra is pure serialization, the SAN path adds one hop to
	// the cross-enclosure number.
	if got, want := IntraEnclosureLatencySec(125e6), 4096.0/125e6; got != want {
		t.Errorf("IntraEnclosureLatencySec(1GbE) = %g, want %g", got, want)
	}
	if got, want := SANPathLatencySec(125e6), CrossEnclosureLatencySec(125e6)+EdgeHopLatencySec; got != want {
		t.Errorf("SANPathLatencySec(1GbE) = %g, want %g", got, want)
	}
	// Degenerate bandwidth: the half-hop fallback keeps intra below cross.
	if got, want := IntraEnclosureLatencySec(0), EdgeHopLatencySec/2; got != want {
		t.Errorf("zero-bandwidth intra fallback = %g, want %g", got, want)
	}
}
