// Package fabric models the rack-level network the paper's cost model
// flattens into one shared switch (§2.2) and flags as future work
// (§5/§6: "I/O consolidation and improved switch design make natural
// fits to our architecture", citing Leigh et al.).
//
// The baseline 40-server rack needs a single top-of-rack switch, so the
// paper's constant per-server switch share is accurate there. The dense
// packaging of §3.3 changes that: 320 or 1250 systems per rack need a
// two-tier fabric — edge (top-of-rack/enclosure) switches whose uplinks
// feed an aggregation tier — and the oversubscription chosen at the
// edge sets both the fabric's cost and the bandwidth each server can
// count on when traffic leaves the rack.
package fabric

import (
	"fmt"
	"math"
)

// PortSpec prices one switch port class (2008-era commodity values).
type PortSpec struct {
	// Gbps is the port speed.
	Gbps float64
	// CostUSD and PowerW are per port, switch silicon amortized in.
	CostUSD float64
	PowerW  float64
}

// Edge1G is a commodity 1 GbE edge port: the catalog's $2,750 40-port
// rack switch amortizes to ~$69 and 1 W per port.
func Edge1G() PortSpec { return PortSpec{Gbps: 1, CostUSD: 69, PowerW: 1} }

// Uplink10G is a 10 GbE uplink/aggregation port (X2/XFP-era pricing).
func Uplink10G() PortSpec { return PortSpec{Gbps: 10, CostUSD: 700, PowerW: 6} }

// Config describes the fabric design problem for one rack.
type Config struct {
	// Servers in the rack.
	Servers int
	// ServerGbps is each server's NIC speed.
	ServerGbps float64
	// EdgePortsPerSwitch is the port count of one edge switch (downlinks
	// plus uplinks share the chassis).
	EdgePortsPerSwitch int
	// Oversubscription is the edge downlink:uplink bandwidth ratio
	// (1 = full bisection; 4 or 8 are common warehouse choices).
	Oversubscription float64
	// Edge and Uplink price the two port classes.
	Edge, Uplink PortSpec
}

// DefaultConfig returns a 48-port-edge, 1 GbE fabric problem.
func DefaultConfig(servers int) Config {
	return Config{
		Servers:            servers,
		ServerGbps:         1,
		EdgePortsPerSwitch: 48,
		Oversubscription:   4,
		Edge:               Edge1G(),
		Uplink:             Uplink10G(),
	}
}

// Validate reports nonsensical configurations.
func (c Config) Validate() error {
	switch {
	case c.Servers <= 0:
		return fmt.Errorf("fabric: need servers > 0")
	case c.ServerGbps <= 0:
		return fmt.Errorf("fabric: need NIC speed > 0")
	case c.EdgePortsPerSwitch < 4:
		return fmt.Errorf("fabric: edge switch too small (%d ports)", c.EdgePortsPerSwitch)
	case c.Oversubscription < 1:
		return fmt.Errorf("fabric: oversubscription %g below 1", c.Oversubscription)
	case c.Edge.Gbps <= 0 || c.Uplink.Gbps <= 0:
		return fmt.Errorf("fabric: port speeds must be positive")
	}
	return nil
}

// Plan is a solved rack fabric.
type Plan struct {
	Config Config
	// EdgeSwitches and the per-switch split between server downlinks and
	// uplink ports.
	EdgeSwitches       int
	DownlinksPerSwitch int
	UplinksPerSwitch   int
	// AggPorts is the aggregation-tier port count (one per edge uplink).
	AggPorts int
	// CostUSD and PowerW are rack totals for the whole fabric.
	CostUSD float64
	PowerW  float64
}

// Design solves the two-tier fabric for the configuration.
//
// Each edge switch dedicates U uplink ports such that
// downlinks*serverGbps <= oversub * U * uplinkGbps, maximizing downlinks
// per chassis. Aggregation provides one port per uplink (the tier's own
// interconnect is outside rack scope).
func Design(c Config) (Plan, error) {
	if err := c.Validate(); err != nil {
		return Plan{}, err
	}
	bestDown := 0
	bestUp := 0
	for up := 0; up < c.EdgePortsPerSwitch; up++ {
		down := c.EdgePortsPerSwitch - up
		need := float64(down) * c.ServerGbps / c.Oversubscription
		if float64(up)*c.Uplink.Gbps >= need {
			if down > bestDown {
				bestDown, bestUp = down, up
			}
		}
	}
	if bestDown == 0 {
		return Plan{}, fmt.Errorf("fabric: edge switch cannot satisfy oversubscription %g",
			c.Oversubscription)
	}
	switches := (c.Servers + bestDown - 1) / bestDown
	aggPorts := switches * bestUp

	cost := float64(switches)*(float64(bestDown)*c.Edge.CostUSD+float64(bestUp)*c.Uplink.CostUSD) +
		float64(aggPorts)*c.Uplink.CostUSD
	power := float64(switches)*(float64(bestDown)*c.Edge.PowerW+float64(bestUp)*c.Uplink.PowerW) +
		float64(aggPorts)*c.Uplink.PowerW

	return Plan{
		Config:             c,
		EdgeSwitches:       switches,
		DownlinksPerSwitch: bestDown,
		UplinksPerSwitch:   bestUp,
		AggPorts:           aggPorts,
		CostUSD:            cost,
		PowerW:             power,
	}, nil
}

// PerServerCostUSD amortizes the fabric over the rack's servers.
func (p Plan) PerServerCostUSD() float64 {
	return p.CostUSD / float64(p.Config.Servers)
}

// PerServerPowerW amortizes fabric power over the rack's servers.
func (p Plan) PerServerPowerW() float64 {
	return p.PowerW / float64(p.Config.Servers)
}

// EffectiveServerGbps is the bandwidth a server can sustain when every
// server on its edge switch sends off-rack simultaneously: the uplink
// capacity share, capped by the NIC.
func (p Plan) EffectiveServerGbps() float64 {
	uplink := float64(p.UplinksPerSwitch) * p.Config.Uplink.Gbps
	share := uplink / float64(p.DownlinksPerSwitch)
	return math.Min(p.Config.ServerGbps, share)
}

// Transport latency model of the rack DES (internal/cluster/rack.go):
// the minimum latency of each class of interaction between a rack's
// stations. Traffic between enclosures crosses at least one
// store-and-forward edge switch hop and must be serialized onto the
// sender's NIC, so its latency is the serialization time of one
// transfer unit plus the switch hop latency.
const (
	// EdgeHopLatencySec is the store-and-forward latency of one
	// commodity GbE edge-switch hop (forwarding plus minimal queuing
	// floor). Deliberately conservative (low): a lower bound, never an
	// average.
	EdgeHopLatencySec = 2e-6

	// CrossEnclosureUnitBytes is the minimum transfer unit of
	// cross-enclosure traffic: one 4 KB page — the granularity of
	// memory-blade swaps and of SAN block transfers.
	CrossEnclosureUnitBytes = 4096
)

// CrossEnclosureLatencySec returns the minimum one-way latency of a
// cross-enclosure transfer for a server with the given NIC bandwidth:
// serializing one transfer unit onto the wire plus one edge-switch
// hop. The rack model uses it as the transport delay of shuffle chunks
// and aggregator reports.
func CrossEnclosureLatencySec(nicBytesPerSec float64) float64 {
	if nicBytesPerSec <= 0 {
		return EdgeHopLatencySec
	}
	return CrossEnclosureUnitBytes/nicBytesPerSec + EdgeHopLatencySec
}

// IntraEnclosureLatencySec returns the minimum one-way latency of a
// transfer that stays inside one enclosure (a board talking to its
// enclosure's memory blade over the backplane): the transfer unit
// still serializes onto the sender's link, but no store-and-forward
// switch hop is crossed. Always strictly below the cross-enclosure
// bound.
func IntraEnclosureLatencySec(nicBytesPerSec float64) float64 {
	if nicBytesPerSec <= 0 {
		return EdgeHopLatencySec / 2
	}
	return CrossEnclosureUnitBytes / nicBytesPerSec
}

// SANPathLatencySec returns the minimum one-way latency of a SAN block
// transfer: the cross-enclosure path plus one extra edge hop through
// the storage head's switch port. SAN traffic is the only interactive
// cross-enclosure traffic in the rack model.
func SANPathLatencySec(nicBytesPerSec float64) float64 {
	return CrossEnclosureLatencySec(nicBytesPerSec) + EdgeHopLatencySec
}
