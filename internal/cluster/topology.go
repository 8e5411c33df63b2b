package cluster

import "warehousesim/internal/workload"

// Topology selects the simulation model behind Simulate. It is a small
// closed interface — the two implementations are *RackTopology (one
// rack of enclosures on one event heap, rack.go) and *FleetTopology
// (a fleet of racks, hot ones on full DES and cold ones on the analytic
// M/M/m stand-in, fleet.go) — and SimOptions.Topology holds one of
// them; nil selects the flat single-server model.
//
// The interface is deliberately narrow: Normalize is the validation and
// defaulting hook SimOptions.Normalize dispatches on, and the unexported
// build hook is what Simulate dispatches on after config and profile
// validation. Keeping the build hook unexported closes the interface:
// the determinism discipline (byte-identical exports at any worker
// count and hot-set order) is a property of the implementations in this
// package, not something an external topology could promise.
type Topology interface {
	// Normalize validates the topology and fills defaulted fields in
	// place. SimOptions.Normalize calls it on a private clone, so a
	// caller's topology value is never written through.
	Normalize() error

	// clone returns a deep copy; SimOptions.Normalize normalizes the
	// copy rather than the caller's value.
	clone() Topology

	// simulate runs the model. It receives the normalized options (whose
	// Topology field is the receiver) after Simulate has validated the
	// config and profile.
	simulate(c Config, gen workload.Generator, p workload.Profile, opt SimOptions) (Result, error)
}
